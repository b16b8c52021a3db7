//! Shared world geography used by the synthetic generators: major ports,
//! airports, and coarse landmass boxes. Coordinates are approximate —
//! they only need to reproduce realistic *clustering*, not cartography.

use eagleeye_geo::GeodeticPoint;
use eagleeye_rng::SplitMix64;

/// Approximate locations of major world ports `(lat, lon)`.
pub(crate) const PORTS: &[(f64, f64)] = &[
    (31.2, 121.5),  // Shanghai
    (1.3, 103.8),   // Singapore
    (22.5, 114.1),  // Shenzhen
    (29.9, 121.6),  // Ningbo
    (35.1, 129.0),  // Busan
    (25.0, 55.1),   // Jebel Ali
    (51.9, 4.5),    // Rotterdam
    (53.5, 10.0),   // Hamburg
    (49.3, 0.1),    // Le Havre
    (36.1, -5.4),   // Algeciras
    (40.7, -74.0),  // New York
    (33.7, -118.3), // Los Angeles
    (47.6, -122.3), // Seattle
    (29.7, -95.0),  // Houston
    (-33.9, 18.4),  // Cape Town
    (-23.9, -46.3), // Santos
    (19.1, 72.9),   // Mumbai
    (13.1, 80.3),   // Chennai
    (35.5, 139.8),  // Tokyo
    (-33.9, 151.2), // Sydney
    (30.0, 32.5),   // Suez
    (9.0, -79.6),   // Panama
    (59.9, 30.3),   // St. Petersburg
    (-6.1, 106.9),  // Jakarta
    (3.1, 101.4),   // Port Klang
];

/// Approximate locations of major airports `(lat, lon)`.
pub(crate) const AIRPORTS: &[(f64, f64)] = &[
    (33.6, -84.4),  // Atlanta
    (39.9, 116.4),  // Beijing
    (32.9, -97.0),  // Dallas
    (51.5, -0.5),   // London Heathrow
    (35.5, 139.8),  // Tokyo Haneda
    (41.0, -87.9),  // Chicago O'Hare
    (33.9, -118.4), // Los Angeles
    (49.0, 2.5),    // Paris CDG
    (50.0, 8.6),    // Frankfurt
    (22.3, 113.9),  // Hong Kong
    (31.1, 121.8),  // Shanghai Pudong
    (25.3, 55.4),   // Dubai
    (1.4, 103.9),   // Singapore Changi
    (37.5, 126.4),  // Seoul Incheon
    (40.6, -73.8),  // New York JFK
    (52.3, 4.8),    // Amsterdam
    (28.6, 77.1),   // Delhi
    (19.1, 72.9),   // Mumbai
    (-23.4, -46.5), // São Paulo
    (19.4, -99.1),  // Mexico City
    (39.2, -76.7),  // Baltimore
    (12.9, 77.7),   // Bangalore
    (-33.9, 151.2), // Sydney
    (-26.1, 28.2),  // Johannesburg
    (55.6, 37.3),   // Moscow
    (41.3, 28.7),   // Istanbul
    (13.7, 100.7),  // Bangkok
    (-6.1, 106.7),  // Jakarta
    (3.1, 101.5),   // Kuala Lumpur
    (47.4, 8.6),    // Zurich
    (60.3, 25.0),   // Helsinki
    (64.1, -21.9),  // Reykjavik
    (61.2, -149.9), // Anchorage
    (45.5, -73.7),  // Montreal
    (49.2, -123.2), // Vancouver
    (-34.8, -58.5), // Buenos Aires
    (30.1, 31.4),   // Cairo
    (6.6, 3.3),     // Lagos
    (-1.3, 36.9),   // Nairobi
    (24.9, 67.2),   // Karachi
];

/// Coarse landmass bounding boxes `(lat_min, lat_max, lon_min, lon_max,
/// weight)`. Weights are proportional to land area and (for lakes) lake
/// density; boreal boxes carry extra weight because HydroLAKES density
/// peaks in glaciated shield terrain (Canada, Fennoscandia, Siberia).
pub(crate) const LAND_BOXES: &[(f64, f64, f64, f64, f64)] = &[
    // Boreal lake belts (heavy weight).
    (50.0, 70.0, -140.0, -60.0, 30.0), // Canadian shield
    (55.0, 70.0, 5.0, 40.0, 12.0),     // Fennoscandia
    (50.0, 70.0, 40.0, 140.0, 25.0),   // Siberia
    // Mid-latitude continents.
    (25.0, 50.0, -125.0, -70.0, 8.0), // Contiguous US
    (35.0, 55.0, -10.0, 40.0, 6.0),   // Europe
    (20.0, 50.0, 60.0, 120.0, 7.0),   // Central/East Asia
    (5.0, 25.0, 70.0, 90.0, 2.0),     // India
    // Tropics and south.
    (-15.0, 5.0, -75.0, -45.0, 4.0),   // Amazon
    (-35.0, -15.0, -65.0, -40.0, 2.0), // Southern South America
    (-10.0, 15.0, -15.0, 40.0, 3.0),   // Central Africa
    (-35.0, -10.0, 10.0, 40.0, 2.0),   // Southern Africa
    (-40.0, -12.0, 115.0, 153.0, 2.0), // Australia
];

/// Deterministic RNG from a seed (one per generator invocation).
pub(crate) fn rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed)
}

/// Samples a point uniformly within a weighted set of boxes, with
/// cos(latitude) area correction inside each box.
#[expect(
    clippy::expect_used,
    reason = "lat comes from asin (so |lat| <= 90) and lon from the table's validated boxes"
)]
pub(crate) fn sample_in_boxes(
    rng: &mut SplitMix64,
    boxes: &[(f64, f64, f64, f64, f64)],
) -> GeodeticPoint {
    let total: f64 = boxes.iter().map(|b| b.4).sum();
    let mut pick = rng.range_f64(0.0, total);
    let mut chosen = boxes[boxes.len() - 1];
    for b in boxes {
        if pick < b.4 {
            chosen = *b;
            break;
        }
        pick -= b.4;
    }
    let (lat_min, lat_max, lon_min, lon_max, _) = chosen;
    // Area-uniform latitude sampling: uniform in sin(lat).
    let s_min = lat_min.to_radians().sin();
    let s_max = lat_max.to_radians().sin();
    let lat = rng.range_f64(s_min, s_max).asin().to_degrees();
    let lon = rng.range_f64(lon_min, lon_max);
    GeodeticPoint::from_degrees(lat, lon, 0.0).expect("boxes are within valid ranges")
}

/// Converts `(lat, lon)` degrees to a `GeodeticPoint` (panics only on
/// malformed compile-time tables).
#[expect(
    clippy::expect_used,
    reason = "panicking on a malformed compile-time table is this helper's documented contract"
)]
pub(crate) fn fixed_point(lat: f64, lon: f64) -> GeodeticPoint {
    GeodeticPoint::from_degrees(lat, lon, 0.0).expect("table coordinates are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_contain_valid_coordinates() {
        for &(lat, lon) in PORTS.iter().chain(AIRPORTS.iter()) {
            assert!(lat.abs() <= 90.0 && lon.abs() <= 180.0);
        }
        for &(lat0, lat1, lon0, lon1, w) in LAND_BOXES {
            assert!(lat0 < lat1 && lon0 < lon1 && w > 0.0);
            assert!(lat0 >= -90.0 && lat1 <= 90.0);
        }
    }

    #[test]
    fn box_sampling_stays_in_boxes() {
        let mut r = rng(1);
        for _ in 0..500 {
            let p = sample_in_boxes(&mut r, LAND_BOXES);
            let inside = LAND_BOXES.iter().any(|&(a, b, c, d, _)| {
                p.lat_deg() >= a - 1e-9
                    && p.lat_deg() <= b + 1e-9
                    && p.lon_deg() >= c - 1e-9
                    && p.lon_deg() <= d + 1e-9
            });
            assert!(inside, "point {p} outside all boxes");
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = rng(9);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = rng(9);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }
}
