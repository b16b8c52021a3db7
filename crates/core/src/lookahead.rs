//! Moving-target lookahead analysis (paper §4.6, Fig. 10).
//!
//! A moving target detected by the leader must still be inside the
//! follower's high-resolution footprint when the follower arrives. With
//! satellite ground speed `V_sat`, target speed `V_target`, follower
//! swath `swath`, lookahead distance `D` (ground distance between the
//! leader's detection and the follower's capture), and slack fraction
//! `γ`, the constraint is
//!
//! ```text
//! (D / V_sat) · V_target ≤ γ · swath
//! ```
//!
//! so the maximum lookahead distance is `D_max = γ·swath·V_sat / V_target`.

use crate::CoreError;

/// Maximum lookahead distance (meters) for a target moving at
/// `target_speed_m_s`, with follower swath `swath_m`, satellite ground
/// speed `sat_speed_m_s`, and slack fraction `gamma`.
///
/// Returns infinity for a stationary target.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for non-positive speed,
/// swath, or a slack outside `(0, 1]`.
///
/// # Example
///
/// ```
/// use eagleeye_core::lookahead::max_lookahead_m;
///
/// // Paper Fig. 10 anchor points (500 km alt, 7.5 km/s, 10 km swath, γ=0.1):
/// let ship = max_lookahead_m(14.0, 10_000.0, 7_500.0, 0.1)?;
/// assert!((ship / 1000.0 - 535.7).abs() < 1.0); // ~500 km for a 50 km/h ship
/// let plane = max_lookahead_m(250.0, 10_000.0, 7_500.0, 0.1)?;
/// assert!((plane / 1000.0 - 30.0).abs() < 1.0); // ~28-30 km for a jet
/// # Ok::<(), eagleeye_core::CoreError>(())
/// ```
pub fn max_lookahead_m(
    target_speed_m_s: f64,
    swath_m: f64,
    sat_speed_m_s: f64,
    gamma: f64,
) -> Result<f64, CoreError> {
    if !(swath_m > 0.0) || !swath_m.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "swath_m",
            value: swath_m,
        });
    }
    if !(sat_speed_m_s > 0.0) || !sat_speed_m_s.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "sat_speed_m_s",
            value: sat_speed_m_s,
        });
    }
    if !(gamma > 0.0 && gamma <= 1.0) {
        return Err(CoreError::InvalidParameter {
            name: "gamma",
            value: gamma,
        });
    }
    if !(target_speed_m_s >= 0.0) || !target_speed_m_s.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "target_speed_m_s",
            value: target_speed_m_s,
        });
    }
    // Exact-zero guard before division: an epsilon would silently
    // reclassify slow movers as static.
    if target_speed_m_s == 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(gamma * swath_m * sat_speed_m_s / target_speed_m_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(max_lookahead_m(10.0, 0.0, 7_500.0, 0.1).is_err());
        assert!(max_lookahead_m(10.0, 10_000.0, -1.0, 0.1).is_err());
        assert!(max_lookahead_m(10.0, 10_000.0, 7_500.0, 0.0).is_err());
        assert!(max_lookahead_m(10.0, 10_000.0, 7_500.0, 1.5).is_err());
        assert!(max_lookahead_m(-1.0, 10_000.0, 7_500.0, 0.1).is_err());
    }

    #[test]
    fn stationary_targets_allow_infinite_lookahead() {
        assert_eq!(
            max_lookahead_m(0.0, 10_000.0, 7_500.0, 0.1).unwrap(),
            f64::INFINITY
        );
    }

    #[test]
    fn lookahead_is_inverse_in_speed() {
        let d1 = max_lookahead_m(50.0, 10_000.0, 7_500.0, 0.1).unwrap();
        let d2 = max_lookahead_m(100.0, 10_000.0, 7_500.0, 0.1).unwrap();
        assert!((d1 / d2 - 2.0).abs() < 1e-9);
    }

    /// True when a leader-follower separation of `lookahead_m` can
    /// track targets up to `target_speed_m_s`.
    fn separation_supports_speed(
        lookahead_m: f64,
        target_speed_m_s: f64,
        swath_m: f64,
        sat_speed_m_s: f64,
        gamma: f64,
    ) -> Result<bool, CoreError> {
        Ok(lookahead_m <= max_lookahead_m(target_speed_m_s, swath_m, sat_speed_m_s, gamma)?)
    }

    #[test]
    fn paper_hundred_km_separation_works_for_ships_not_checked_for_jets() {
        // The paper's 100 km separation supports ship speeds comfortably…
        assert!(separation_supports_speed(100_000.0, 14.0, 10_000.0, 7_500.0, 0.1).unwrap());
        // …but a 250 m/s jet bounds the lookahead to ~30 km.
        assert!(!separation_supports_speed(100_000.0, 250.0, 10_000.0, 7_500.0, 0.1).unwrap());
    }
}
