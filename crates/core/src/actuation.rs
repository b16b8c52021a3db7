use crate::CoreError;
use eagleeye_harden::{FieldHash, ScenarioHasher};

/// Attitude determination and control model: a slew-rate-limited actuator
/// with a fixed per-maneuver acceleration/deceleration overhead.
///
/// The paper models pointing as `MaxAng(t) = rate · (t − overhead)`
/// (§5.3: 3 deg/s with 0.67 s overhead from 9 deg/s² accel/decel; a
/// high-end 10 deg/s wheel is also evaluated in Fig. 11b).
///
/// # Example
///
/// ```
/// use eagleeye_core::Adacs;
///
/// let adacs = Adacs::paper_default();
/// // 3 deg/s with 0.67 s overhead: a 6-degree rotation needs ~2.67 s.
/// let t = adacs.min_slew_time_s(6.0_f64.to_radians());
/// assert!((t - 2.67).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adacs {
    rate_rad_s: f64,
    overhead_s: f64,
}

impl Adacs {
    /// Creates an ADACS model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-positive rate or
    /// negative overhead.
    pub fn new(rate_deg_s: f64, overhead_s: f64) -> Result<Self, CoreError> {
        if !(rate_deg_s > 0.0) || !rate_deg_s.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "rate_deg_s",
                value: rate_deg_s,
            });
        }
        if !(overhead_s >= 0.0) || !overhead_s.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "overhead_s",
                value: overhead_s,
            });
        }
        Ok(Adacs {
            rate_rad_s: rate_deg_s.to_radians(),
            overhead_s,
        })
    }

    /// The paper's default: 3 deg/s with 0.67 s maneuver overhead.
    pub fn paper_default() -> Self {
        Adacs {
            rate_rad_s: 3.0_f64.to_radians(),
            overhead_s: 0.67,
        }
    }

    /// Slew rate in radians per second.
    #[inline]
    pub fn rate_rad_s(&self) -> f64 {
        self.rate_rad_s
    }

    /// Per-maneuver overhead in seconds.
    #[inline]
    pub fn overhead_s(&self) -> f64 {
        self.overhead_s
    }

    /// Maximum rotation achievable in `dt_s` seconds (paper's
    /// `MaxAng(t)`), radians. Zero for intervals shorter than the
    /// overhead.
    #[inline]
    fn max_angle_rad(&self, dt_s: f64) -> f64 {
        (self.rate_rad_s * (dt_s - self.overhead_s)).max(0.0)
    }

    /// Minimum time to rotate by `angle_rad`, seconds. A zero-angle
    /// "rotation" is free (the satellite is already pointed).
    #[inline]
    pub fn min_slew_time_s(&self, angle_rad: f64) -> f64 {
        if angle_rad <= 1e-12 {
            0.0
        } else {
            angle_rad / self.rate_rad_s + self.overhead_s
        }
    }

    /// True when rotating by `angle_rad` within `dt_s` is feasible
    /// (constraint C1 of the paper's formulation).
    #[inline]
    pub fn can_rotate(&self, angle_rad: f64, dt_s: f64) -> bool {
        // Sub-microradian slack absorbs floating-point noise from the
        // fixed-point solution of the arrival-time equation.
        angle_rad <= self.max_angle_rad(dt_s) + 1e-9 || angle_rad <= 1e-9
    }
}

impl FieldHash for Adacs {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        let Adacs {
            rate_rad_s,
            overhead_s,
        } = self;
        h.f64(*rate_rad_s).f64(*overhead_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Adacs::new(0.0, 0.0).is_err());
        assert!(Adacs::new(-3.0, 0.0).is_err());
        assert!(Adacs::new(3.0, -1.0).is_err());
    }

    #[test]
    fn paper_max_ang_formula() {
        // MaxAng(t) = 3 * (t - 0.67) deg/s.
        let a = Adacs::paper_default();
        assert_eq!(a.max_angle_rad(0.5), 0.0); // below overhead
        let deg = a.max_angle_rad(2.67).to_degrees();
        assert!((deg - 6.0).abs() < 1e-9, "deg {deg}");
    }

    #[test]
    fn slew_time_inverts_max_angle() {
        let a = Adacs::paper_default();
        for angle_deg in [0.5f64, 3.0, 11.0, 22.0] {
            let t = a.min_slew_time_s(angle_deg.to_radians());
            let back = a.max_angle_rad(t).to_degrees();
            assert!((back - angle_deg).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_rotation_is_free() {
        let a = Adacs::paper_default();
        assert_eq!(a.min_slew_time_s(0.0), 0.0);
        assert!(a.can_rotate(0.0, 0.0));
    }

    #[test]
    fn faster_wheel_slews_faster() {
        let slow = Adacs::paper_default();
        let fast = Adacs::new(10.0, 0.67).unwrap();
        let angle = 10.0_f64.to_radians();
        assert!(fast.min_slew_time_s(angle) < slow.min_slew_time_s(angle));
    }

    #[test]
    fn can_rotate_respects_boundary() {
        let a = Adacs::paper_default();
        let angle = 3.0_f64.to_radians();
        let t = a.min_slew_time_s(angle);
        assert!(a.can_rotate(angle, t));
        assert!(!a.can_rotate(angle, t - 0.01));
    }
}
