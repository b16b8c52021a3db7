use crate::{Adacs, Camera, CoreError};
use eagleeye_harden::{FieldHash, ScenarioHasher};

/// The full sensing configuration of one leader-follower group: cameras,
/// actuation, orbit geometry, and timing — everything the scheduler and
/// coverage evaluator need (paper §5.3).
///
/// # Example
///
/// ```
/// use eagleeye_core::SensingSpec;
///
/// let spec = SensingSpec::paper_default();
/// assert_eq!(spec.altitude_m, 475_000.0);
/// // Off-nadir reach: 475 km * tan(11 deg) ≈ 92 km of cross-track range.
/// let reach_m = spec.altitude_m * spec.theta_max_rad.tan();
/// assert!((reach_m / 1000.0 - 92.3).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensingSpec {
    /// Leader (wide, low-resolution) camera.
    pub low_res: Camera,
    /// Follower (narrow, high-resolution) camera.
    pub high_res: Camera,
    /// Maximum off-nadir pointing angle, radians (paper: 11°).
    pub theta_max_rad: f64,
    /// Follower actuation model.
    pub adacs: Adacs,
    /// Orbit altitude, meters (paper: 475 km).
    pub altitude_m: f64,
    /// Ground speed of the subsatellite point, m/s (paper: ~7.5 km/s).
    pub ground_speed_m_s: f64,
    /// Leader frame capture cadence, seconds (paper: 15 s).
    pub frame_cadence_s: f64,
}

impl SensingSpec {
    /// The paper's §5.3 configuration.
    pub fn paper_default() -> Self {
        SensingSpec {
            low_res: Camera::paper_low_res(),
            high_res: Camera::paper_high_res(),
            theta_max_rad: 11.0_f64.to_radians(),
            adacs: Adacs::paper_default(),
            altitude_m: 475_000.0,
            ground_speed_m_s: 7_100.0,
            frame_cadence_s: 15.0,
        }
    }

    /// Replaces the ADACS (for the Fig. 11b slew-rate sweep).
    pub fn with_adacs(mut self, adacs: Adacs) -> Self {
        self.adacs = adacs;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for non-positive altitude,
    /// speed, cadence, or an off-nadir limit outside `(0°, 60°)`.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.altitude_m > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "altitude_m",
                value: self.altitude_m,
            });
        }
        if !(self.ground_speed_m_s > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "ground_speed_m_s",
                value: self.ground_speed_m_s,
            });
        }
        if !(self.frame_cadence_s > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "frame_cadence_s",
                value: self.frame_cadence_s,
            });
        }
        if !(self.theta_max_rad > 0.0 && self.theta_max_rad < 60.0_f64.to_radians()) {
            return Err(CoreError::InvalidParameter {
                name: "theta_max_rad",
                value: self.theta_max_rad,
            });
        }
        Ok(())
    }

    /// Along-track length of one leader frame (contiguous ground-track
    /// tiling at the capture cadence).
    #[inline]
    pub fn frame_length_m(&self) -> f64 {
        self.ground_speed_m_s * self.frame_cadence_s
    }

    /// Upper bound on the rotation between any two valid pointings:
    /// both are within `θmax` of nadir, so their separation is at most
    /// `2·θmax`. Used to bound opportunity-graph arcs.
    #[inline]
    pub fn max_pointing_separation_rad(&self) -> f64 {
        2.0 * self.theta_max_rad
    }
}

impl Default for SensingSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl FieldHash for SensingSpec {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        let SensingSpec {
            low_res,
            high_res,
            theta_max_rad,
            adacs,
            altitude_m,
            ground_speed_m_s,
            frame_cadence_s,
        } = self;
        h.field(low_res)
            .field(high_res)
            .f64(*theta_max_rad)
            .field(adacs)
            .f64(*altitude_m)
            .f64(*ground_speed_m_s)
            .f64(*frame_cadence_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        SensingSpec::paper_default().validate().unwrap();
    }

    #[test]
    fn off_nadir_reach_matches_geometry() {
        // 475 km * tan(11°) ≈ 92.3 km.
        let s = SensingSpec::paper_default();
        assert!((s.altitude_m * s.theta_max_rad.tan() - 92_330.0).abs() < 500.0);
    }

    #[test]
    fn frame_length_tiles_the_track() {
        let s = SensingSpec::paper_default();
        assert!((s.frame_length_m() - 7_100.0 * 15.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = SensingSpec::paper_default();
        s.altitude_m = -1.0;
        assert!(s.validate().is_err());
        let mut s = SensingSpec::paper_default();
        s.theta_max_rad = 2.0; // > 60 degrees
        assert!(s.validate().is_err());
        let mut s = SensingSpec::paper_default();
        s.frame_cadence_s = 0.0;
        assert!(s.validate().is_err());
    }
}
