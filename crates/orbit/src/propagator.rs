use crate::kepler::{EciState, KeplerianElements, OrbitShape};
use crate::OrbitError;
use eagleeye_geo::earth::{J2, MEAN_RADIUS_M, WGS84_A_M};

/// A Keplerian propagator with first-order secular J2 perturbations.
///
/// J2 (Earth oblateness) produces three secular effects that matter for a
/// multi-day LEO simulation: regression of the ascending node (the effect
/// that makes 97.2°-inclination orbits sun-synchronous), precession of
/// the argument of perigee, and a mean-anomaly drift. Short-period J2
/// oscillations and atmospheric drag are omitted; over the paper's 24 h
/// evaluation they displace a 475 km ground track by far less than one
/// swath width (see DESIGN.md).
///
/// # Example
///
/// ```
/// use eagleeye_orbit::J2Propagator;
///
/// let p = J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, 0.0)?;
/// let day = 86_400.0;
/// // Sun-synchronous: the node precesses ~ +0.9856 deg/day (eastward).
/// let drift_deg = p.raan_rate_rad_s().to_degrees() * day;
/// assert!(drift_deg > 0.5 && drift_deg < 1.5, "drift {drift_deg}");
/// # Ok::<(), eagleeye_orbit::OrbitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct J2Propagator {
    elements: KeplerianElements,
    /// The elements' shape, which the secular drift leaves alone.
    shape: OrbitShape,
    raan_rate_rad_s: f64,
    argp_rate_rad_s: f64,
    mean_anomaly_rate_rad_s: f64,
}

impl J2Propagator {
    /// Creates a propagator from an element set at epoch `t = 0`.
    pub fn new(elements: KeplerianElements) -> Self {
        let shape = elements.shape();
        let n = shape.mean_motion_rad_s;
        let p = elements.semi_latus_rectum_m();
        let re_p = WGS84_A_M / p;
        let factor = 1.5 * J2 * re_p * re_p * n;
        let (s_i, c_i) = (shape.sin_i, shape.cos_i);
        let e2 = elements.eccentricity() * elements.eccentricity();

        let raan_rate = -factor * c_i;
        let argp_rate = factor * (2.0 - 2.5 * s_i * s_i);
        let m_rate = n + factor * (1.0 - e2).sqrt() * (1.0 - 1.5 * s_i * s_i);

        J2Propagator {
            elements,
            shape,
            raan_rate_rad_s: raan_rate,
            argp_rate_rad_s: argp_rate,
            mean_anomaly_rate_rad_s: m_rate,
        }
    }

    /// Convenience constructor for a circular orbit, the paper's
    /// configuration: `altitude_m` above the mean-radius sphere,
    /// inclination, RAAN, and an initial phase angle along the orbit
    /// (mean anomaly offset, used to space constellation groups).
    ///
    /// # Errors
    ///
    /// Returns [`OrbitError::InvalidElement`] for out-of-domain values.
    pub fn circular(
        altitude_m: f64,
        inclination_rad: f64,
        raan_rad: f64,
        phase_rad: f64,
    ) -> Result<Self, OrbitError> {
        let elements = KeplerianElements::new(
            MEAN_RADIUS_M + altitude_m,
            0.0,
            inclination_rad,
            raan_rad,
            0.0,
            phase_rad,
        )?;
        Ok(J2Propagator::new(elements))
    }

    /// Orbital period in seconds (Keplerian).
    #[inline]
    pub fn period_s(&self) -> f64 {
        self.elements.period_s()
    }

    /// Secular nodal regression rate, rad/s.
    #[inline]
    pub fn raan_rate_rad_s(&self) -> f64 {
        self.raan_rate_rad_s
    }

    /// Element set propagated to `t_s` seconds past epoch.
    fn elements_at(&self, t_s: f64) -> KeplerianElements {
        self.elements.with_angles(
            self.elements.raan_rad() + self.raan_rate_rad_s * t_s,
            self.elements.arg_perigee_rad() + self.argp_rate_rad_s * t_s,
            self.elements.mean_anomaly_rad() + self.mean_anomaly_rate_rad_s * t_s,
        )
    }

    /// ECI state at `t_s` seconds past epoch.
    ///
    /// # Errors
    ///
    /// Propagates [`OrbitError::KeplerDivergence`] (never occurs for the
    /// near-circular orbits this workspace uses).
    pub fn state_at(&self, t_s: f64) -> Result<EciState, OrbitError> {
        let e = self.elements_at(t_s);
        e.eci_state_with(&self.shape, e.mean_anomaly_rad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_prop() -> J2Propagator {
        J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, 0.0).unwrap()
    }

    #[test]
    fn phase_shift_moves_satellite_along_track() {
        let p = paper_prop();
        let q = J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, 0.01).unwrap();
        let sp = p.state_at(0.0).unwrap();
        let sq = q.state_at(0.0).unwrap();
        let expected = 0.01 * sp.radius_m();
        let sep = (sp.position - sq.position).norm();
        assert!(
            (sep - expected).abs() / expected < 0.05,
            "sep {sep} vs {expected}"
        );
        // The shifted satellite leads: it is roughly where p will be
        // shortly.
        let dt = 0.01 / p.mean_anomaly_rate_rad_s;
        let sp_later = p.state_at(dt).unwrap();
        assert!((sp_later.position - sq.position).norm() < 0.001 * sp.radius_m());
    }

    #[test]
    fn sun_synchronous_node_rate() {
        // 97.2 deg at ~475 km is sun-synchronous: the node follows the
        // mean Sun eastward, 360 deg per tropical year (0.98565 deg/day).
        // Secular J2 gives 0.9748 deg/day here, 1.1 % slow.
        let sun_synchronous = 360.0 / 365.2422;
        let p = paper_prop();
        let per_day = p.raan_rate_rad_s().to_degrees() * 86_400.0;
        assert!(
            (per_day - sun_synchronous).abs() < 0.02 * sun_synchronous,
            "rate {per_day} deg/day"
        );
    }

    #[test]
    fn retrograde_orbit_regresses_eastward_prograde_westward() {
        let retro = J2Propagator::circular(500_000.0, 100_f64.to_radians(), 0.0, 0.0).unwrap();
        let pro = J2Propagator::circular(500_000.0, 50_f64.to_radians(), 0.0, 0.0).unwrap();
        assert!(retro.raan_rate_rad_s() > 0.0);
        assert!(pro.raan_rate_rad_s() < 0.0);
    }

    #[test]
    fn state_advances_one_revolution_per_period() {
        let p = paper_prop();
        let s0 = p.state_at(0.0).unwrap();
        // After a nodal period the position nearly repeats in the orbital
        // plane. Use the Keplerian period and allow J2 drift slack.
        let s1 = p.state_at(p.period_s()).unwrap();
        let sep = (s0.position - s1.position).norm();
        assert!(sep < 0.02 * s0.radius_m(), "separation {sep}");
    }

    #[test]
    fn altitude_is_maintained_over_a_day() {
        let p = paper_prop();
        for i in 0..96 {
            let s = p.state_at(i as f64 * 900.0).unwrap();
            let alt = s.radius_m() - MEAN_RADIUS_M;
            assert!((alt - 475_000.0).abs() < 2_000.0, "alt {alt}");
        }
    }
}
