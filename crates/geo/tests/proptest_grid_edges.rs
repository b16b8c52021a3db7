//! Differential tests for `GridIndex` edge geometry: dateline-crossing
//! and near-pole queries checked against a brute-force linear scan, on
//! the `eagleeye-check` harness (seed replay via `EAGLEEYE_CHECK_SEED`,
//! shrinking on failure).
//!
//! `query_radius` is exact, so it must equal the brute-force result
//! bit-for-bit; its cell walk is the one the coverage compiler's
//! candidate pruning relies on (DESIGN.md §13).

use eagleeye_check::{check_cases, f64_range, prop_assert, prop_assert_eq, u64_range, vec_of, Gen};
use eagleeye_geo::{greatcircle, GeoError, GeodeticPoint, GridIndex};

const CASES: u32 = 96;

/// Points clustered where the grid math is most fragile: both sides of
/// the antimeridian and both polar caps, plus a mid-latitude control.
fn edge_point_gen() -> impl Gen<Value = GeodeticPoint> {
    (
        f64_range(0.0, 5.0),
        f64_range(-89.999, 89.999),
        f64_range(-179.999, 179.999),
    )
        .map(|(region, lat, lon)| {
            let (lat, lon) = match region as u32 {
                // Hug the dateline on either side.
                0 => (lat, 179.0 + (lon + 180.0) / 360.0),
                1 => (lat, -180.0 + (lon + 180.0) / 360.0),
                // Polar caps.
                2 => (88.0 + (lat + 90.0) / 90.0, lon),
                3 => (-90.0 + (lat + 90.0) / 90.0, lon),
                // Control: anywhere.
                _ => (lat, lon),
            };
            GeodeticPoint::from_degrees(lat.clamp(-90.0, 90.0), lon, 0.0).expect("valid")
        })
}

fn brute_force_radius(pts: &[GeodeticPoint], center: &GeodeticPoint, radius_m: f64) -> Vec<usize> {
    (0..pts.len())
        .filter(|&i| greatcircle::distance_m(center, &pts[i]) <= radius_m)
        .collect()
}

/// `query_radius` equals brute force exactly for dateline/pole centers.
#[test]
fn query_radius_matches_brute_force_at_edges() {
    check_cases(
        CASES,
        "query_radius_matches_brute_force_at_edges",
        (
            vec_of(edge_point_gen(), 1, 64),
            edge_point_gen(),
            f64_range(1_000.0, 2_000_000.0),
            f64_range(0.25, 8.0),
        ),
        |(pts, center, radius_m, cell_deg)| {
            let index = GridIndex::build(*cell_deg, pts.iter().map(|p| (p.lat_deg(), p.lon_deg())))
                .expect("valid cell size");
            let got = index.query_radius(center, *radius_m, |i| pts[i]);
            let want = brute_force_radius(pts, center, *radius_m);
            prop_assert_eq!(got, want);
            Ok(())
        },
    );
}

/// A cap that swallows a pole must return every point at qualifying
/// latitude regardless of longitude.
#[test]
fn query_radius_pole_cap_ignores_longitude() {
    check_cases(
        CASES,
        "query_radius_pole_cap_ignores_longitude",
        (
            vec_of(edge_point_gen(), 1, 64),
            f64_range(86.0, 90.0),
            f64_range(200_000.0, 3_000_000.0),
        ),
        |(pts, center_lat, radius_m)| {
            let center = GeodeticPoint::from_degrees(*center_lat, 123.4, 0.0).expect("valid");
            let index = GridIndex::build(2.0, pts.iter().map(|p| (p.lat_deg(), p.lon_deg())))
                .expect("valid cell size");
            let got = index.query_radius(&center, *radius_m, |i| pts[i]);
            let want = brute_force_radius(pts, &center, *radius_m);
            prop_assert_eq!(got, want);
            Ok(())
        },
    );
}

/// Pinned regressions: a handful of deterministic edge cases that stay
/// fixed regardless of the harness seed.
#[test]
fn pinned_edge_cases() {
    // Two points straddling the dateline, 0.2° apart (~22 km).
    let pts = [
        GeodeticPoint::from_degrees(10.0, 179.9, 0.0).unwrap(),
        GeodeticPoint::from_degrees(10.0, -179.9, 0.0).unwrap(),
        GeodeticPoint::from_degrees(10.0, 0.0, 0.0).unwrap(),
    ];
    let index = GridIndex::build(1.0, pts.iter().map(|p| (p.lat_deg(), p.lon_deg()))).unwrap();
    let hits = index.query_radius(&pts[0], 50_000.0, |i| pts[i]);
    assert_eq!(hits, vec![0, 1], "dateline neighbors must see each other");

    // A 500 km cap centered 1° off the north pole sees every longitude.
    let polar: Vec<GeodeticPoint> = (0..12)
        .map(|k| GeodeticPoint::from_degrees(89.5, -180.0 + 30.0 * k as f64, 0.0).unwrap())
        .collect();
    let index = GridIndex::build(3.0, polar.iter().map(|p| (p.lat_deg(), p.lon_deg()))).unwrap();
    let center = GeodeticPoint::from_degrees(89.0, 45.0, 0.0).unwrap();
    let got = index.query_radius(&center, 500_000.0, |i| polar[i]);
    let want = brute_force_radius(&polar, &center, 500_000.0);
    assert_eq!(got, want);
    assert!(!got.is_empty(), "polar cap query must not come back empty");
}

/// A cell size whose dense table would pass `GridIndex::MAX_CELLS`
/// cells is refused, down to sizes whose cell bounds saturate; every
/// size whose table fits builds.
#[test]
fn cell_table_cap_is_enforced() {
    check_cases(
        CASES,
        "cell_table_cap_is_enforced",
        f64_range(-12.0, 2.5),
        |exp| {
            let cell_deg = 10f64.powf(*exp);
            let rows = (90.0 / cell_deg).floor() - (-90.0 / cell_deg).floor() + 1.0;
            let cols = ((180.0 / cell_deg).ceil() - (-180.0 / cell_deg).floor()).max(1.0);
            let fits = rows * cols <= GridIndex::MAX_CELLS as f64;
            match GridIndex::build(cell_deg, [(10.0, 20.0)]) {
                Ok(index) => prop_assert!(fits && index.len() == 1),
                Err(e) => {
                    prop_assert!(!fits);
                    prop_assert_eq!(e, GeoError::CellTableTooLarge { cell_deg });
                }
            }
            Ok(())
        },
    );
    // 1,441 rows x 2,880 cells fit; 1,501 x 3,000 do not.
    assert!(GridIndex::build(0.125, std::iter::empty()).is_ok());
    assert_eq!(
        GridIndex::build(0.12, std::iter::empty()).unwrap_err(),
        GeoError::CellTableTooLarge { cell_deg: 0.12 }
    );
}

/// Handles are `u32`, so point `u32::MAX` and every later one is
/// refused; `build` converts each point's index through this helper,
/// which is tested here instead of by walking 2^32 points.
#[test]
fn handles_stop_before_u32_max() {
    let last = u64::from(u32::MAX);
    check_cases(
        CASES,
        "handles_stop_before_u32_max",
        u64_range(last - 64, last + 64),
        |i| {
            let i = usize::try_from(*i).expect("64-bit usize");
            match GridIndex::handle(i) {
                Ok(h) => prop_assert!(h as usize == i && h < u32::MAX),
                Err(e) => {
                    prop_assert!(i >= u32::MAX as usize);
                    prop_assert_eq!(e, GeoError::TooManyPoints { index: i });
                }
            }
            Ok(())
        },
    );
    assert_eq!(GridIndex::handle(0), Ok(0));
    assert_eq!(
        GridIndex::handle(usize::MAX),
        Err(GeoError::TooManyPoints { index: usize::MAX })
    );
}
