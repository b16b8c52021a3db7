//! Great-circle navigation on a spherical Earth.
//!
//! These routines implement the haversine distance, initial bearing, and
//! destination-point formulas. They are used for ground-track geometry,
//! swath membership tests, and moving-target propagation (airplanes and
//! ships follow great-circle routes in the dataset generators).

use crate::earth::MEAN_RADIUS_M;
use crate::{GeoError, GeodeticPoint};

/// Central angle between two points in radians, via the haversine formula
/// (stable for small separations).
fn central_angle_rad(a: &GeodeticPoint, b: &GeodeticPoint) -> f64 {
    let dlat = b.lat_rad() - a.lat_rad();
    let dlon = b.lon_rad() - a.lon_rad();
    let s1 = (dlat / 2.0).sin();
    let s2 = (dlon / 2.0).sin();
    let h = s1 * s1 + a.lat_rad().cos() * b.lat_rad().cos() * s2 * s2;
    2.0 * h.sqrt().clamp(-1.0, 1.0).asin()
}

/// Surface distance between two points in meters on the mean-radius sphere.
///
/// ```
/// use eagleeye_geo::{earth, greatcircle, GeodeticPoint};
/// let a = GeodeticPoint::from_degrees(0.0, 0.0, 0.0)?;
/// let b = GeodeticPoint::from_degrees(0.0, 90.0, 0.0)?;
/// let quarter = std::f64::consts::FRAC_PI_2 * earth::MEAN_RADIUS_M;
/// assert!((greatcircle::distance_m(&a, &b) - quarter).abs() < 1e-6);
/// # Ok::<(), eagleeye_geo::GeoError>(())
/// ```
pub fn distance_m(a: &GeodeticPoint, b: &GeodeticPoint) -> f64 {
    central_angle_rad(a, b) * MEAN_RADIUS_M
}

/// Initial bearing from `a` to `b` in radians, clockwise from north, in
/// `[0, 2π)`. Returns `0.0` when the points are coincident.
pub fn initial_bearing_rad(a: &GeodeticPoint, b: &GeodeticPoint) -> f64 {
    let dlon = b.lon_rad() - a.lon_rad();
    let y = dlon.sin() * b.lat_rad().cos();
    let x =
        a.lat_rad().cos() * b.lat_rad().sin() - a.lat_rad().sin() * b.lat_rad().cos() * dlon.cos();
    if x.abs() < 1e-15 && y.abs() < 1e-15 {
        return 0.0;
    }
    crate::wrap_two_pi(y.atan2(x))
}

/// The point reached by traveling `distance_m` meters from `start` along
/// the great circle with initial bearing `bearing_rad` (clockwise from
/// north). The altitude of `start` is preserved.
///
/// # Errors
///
/// Propagates [`GeoError`] if the computed coordinates are invalid, which
/// only occurs for non-finite inputs.
pub fn destination(
    start: &GeodeticPoint,
    bearing_rad: f64,
    distance_m: f64,
) -> Result<GeodeticPoint, GeoError> {
    let delta = distance_m / MEAN_RADIUS_M;
    let (slat, clat) = start.lat_rad().sin_cos();
    let (sdel, cdel) = delta.sin_cos();
    let lat2 = (slat * cdel + clat * sdel * bearing_rad.cos())
        .clamp(-1.0, 1.0)
        .asin();
    let lon2 = start.lon_rad() + (bearing_rad.sin() * sdel * clat).atan2(cdel - slat * lat2.sin());
    GeodeticPoint::new(lat2, lon2, start.alt_m())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(lat: f64, lon: f64) -> GeodeticPoint {
        GeodeticPoint::from_degrees(lat, lon, 0.0).unwrap()
    }

    #[test]
    fn distance_is_symmetric() {
        let a = pt(40.0, -80.0);
        let b = pt(34.0, -118.0);
        assert!((distance_m(&a, &b) - distance_m(&b, &a)).abs() < 1e-6);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = pt(12.3, 45.6);
        assert_eq!(distance_m(&a, &a), 0.0);
    }

    #[test]
    fn quarter_circumference_along_equator() {
        let a = pt(0.0, 0.0);
        let b = pt(0.0, 90.0);
        let quarter = std::f64::consts::FRAC_PI_2 * MEAN_RADIUS_M;
        assert!((distance_m(&a, &b) - quarter).abs() < 1.0);
    }

    #[test]
    fn bearing_due_north_and_east() {
        let a = pt(0.0, 0.0);
        assert!((initial_bearing_rad(&a, &pt(10.0, 0.0)) - 0.0).abs() < 1e-12);
        assert!(
            (initial_bearing_rad(&a, &pt(0.0, 10.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-12
        );
    }

    #[test]
    fn bearing_of_coincident_points_is_zero() {
        let a = pt(10.0, 10.0);
        assert_eq!(initial_bearing_rad(&a, &a), 0.0);
    }

    #[test]
    fn destination_round_trip() {
        let a = pt(40.0, -80.0);
        let bearing = 1.0;
        let dist = 500_000.0;
        let b = destination(&a, bearing, dist).unwrap();
        assert!((distance_m(&a, &b) - dist).abs() < 1.0);
        let back = initial_bearing_rad(&b, &a);
        let fwd = initial_bearing_rad(&a, &b);
        // The reverse bearing differs from fwd+pi only by convergence of
        // meridians; for a 500 km leg it is within a few degrees.
        let diff = crate::wrap_pi(back - fwd - std::f64::consts::PI);
        assert!(diff.abs() < 0.2, "diff = {diff}");
    }

    #[test]
    fn destination_preserves_altitude() {
        let a = GeodeticPoint::from_degrees(10.0, 10.0, 475_000.0).unwrap();
        let b = destination(&a, 0.5, 100_000.0).unwrap();
        assert_eq!(b.alt_m(), 475_000.0);
    }
}
