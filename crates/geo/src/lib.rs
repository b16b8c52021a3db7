//! Earth geometry and geodesy substrate for the EagleEye constellation
//! simulator.
//!
//! This crate provides the low-level geometric vocabulary used by every
//! other crate in the workspace:
//!
//! * [`Vec3`] — a small, `Copy` 3-vector with the usual linear-algebra
//!   operations.
//! * [`GeodeticPoint`] and [`Ecef`] — geodetic (latitude / longitude /
//!   altitude) and Earth-centered Earth-fixed Cartesian coordinates, with
//!   exact conversions on a spherical Earth (see [`earth`]).
//! * Great-circle utilities ([`greatcircle`]) — haversine distance,
//!   bearings, and destination points.
//! * [`LocalFrame`] — an east-north-up tangent frame used to project
//!   satellite frames onto a local plane, matching the flat-Earth
//!   approximations in the paper's Eq. (1) and Eq. (2).
//! * [`GridIndex`] — a uniform latitude/longitude bucket index able to
//!   answer swath-membership queries over millions of targets (the paper's
//!   1.4 M-lake workload) in time proportional to the answer.
//!
//! # Example
//!
//! ```
//! use eagleeye_geo::{GeodeticPoint, greatcircle};
//!
//! let pittsburgh = GeodeticPoint::from_degrees(40.44, -79.99, 0.0)?;
//! let la = GeodeticPoint::from_degrees(34.05, -118.24, 0.0)?;
//! let d = greatcircle::distance_m(&pittsburgh, &la);
//! assert!((d - 3_460_000.0).abs() < 50_000.0);
//! # Ok::<(), eagleeye_geo::GeoError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub mod earth;
mod error;
mod frame;
pub mod greatcircle;
mod grid;
mod point;
mod vec3;

pub use error::GeoError;
pub use frame::LocalFrame;
pub use grid::GridIndex;
pub use point::{Ecef, GeodeticPoint};
pub use vec3::Vec3;

/// Normalizes an angle in radians into the half-open interval `[0, 2π)`.
///
/// A negative remainder smaller in magnitude than half an ulp of `2π`
/// (about `-4.4e-16 < r < 0`) rounds to exactly `2π` when shifted up;
/// it folds to `0.0`, the angle it is closest to inside the interval.
///
/// ```
/// use std::f64::consts::PI;
/// let a = eagleeye_geo::wrap_two_pi(-PI / 2.0);
/// assert!((a - 1.5 * PI).abs() < 1e-12);
/// assert_eq!(eagleeye_geo::wrap_two_pi(-1e-20), 0.0);
/// ```
#[inline]
pub fn wrap_two_pi(rad: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut a = rad % two_pi;
    if a < 0.0 {
        a += two_pi;
    }
    // Only a shifted remainder can reach 2π. The test stays outside the
    // branch above so both compile to selects: nested, it became a jump
    // on the angle's sign and ran about twice as slow on random angles.
    if a >= two_pi {
        a = 0.0;
    }
    a
}

/// Normalizes an angle in radians into `(-π, π]`.
///
/// ```
/// use std::f64::consts::PI;
/// let a = eagleeye_geo::wrap_pi(1.5 * PI);
/// assert!((a + 0.5 * PI).abs() < 1e-12);
/// ```
#[inline]
pub fn wrap_pi(rad: f64) -> f64 {
    let mut a = wrap_two_pi(rad);
    if a > std::f64::consts::PI {
        a -= std::f64::consts::TAU;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_two_pi_is_idempotent_on_small_angles() {
        for &a in &[0.0, 0.1, 3.0, 6.2] {
            assert!((wrap_two_pi(a) - a).abs() < 1e-12);
        }
    }

    #[test]
    fn wrap_pi_handles_boundaries() {
        assert!((wrap_pi(std::f64::consts::PI) - std::f64::consts::PI).abs() < 1e-12);
        assert!(wrap_pi(-std::f64::consts::PI) > 0.0);
    }
}
