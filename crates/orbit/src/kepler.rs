use crate::OrbitError;
use eagleeye_geo::earth::MU_M3_S2;
use eagleeye_geo::Vec3;

/// An Earth-centered inertial (ECI) state vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EciState {
    /// Position in meters.
    pub position: Vec3,
    /// Velocity in meters per second.
    pub velocity: Vec3,
}

impl EciState {
    /// Geocentric radius in meters.
    #[inline]
    pub fn radius_m(&self) -> f64 {
        self.position.norm()
    }

    /// Orbital speed in meters per second.
    #[inline]
    pub fn speed_m_s(&self) -> f64 {
        self.velocity.norm()
    }
}

/// The per-orbit constants of an ECI state: mean motion, semi-minor
/// axis `a·√(1−e²)` and the inclination's sine and cosine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrbitShape {
    pub(crate) mean_motion_rad_s: f64,
    pub(crate) semi_minor_axis_m: f64,
    pub(crate) sin_i: f64,
    pub(crate) cos_i: f64,
}

/// Classical (Keplerian) orbital elements.
///
/// Angles are radians; the semi-major axis is meters. The struct is a
/// plain value type — construct it with [`KeplerianElements::new`], which
/// validates the element domains.
///
/// # Example
///
/// ```
/// use eagleeye_orbit::KeplerianElements;
///
/// let elements = KeplerianElements::new(
///     6_846_000.0,             // a: 475 km altitude
///     0.0001,                  // e: nearly circular
///     97.2_f64.to_radians(),   // i: sun-synchronous polar
///     0.0, 0.0, 0.0,           // raan, argp, M0
/// )?;
/// assert!((elements.period_s() - 5_640.0).abs() < 30.0);
/// # Ok::<(), eagleeye_orbit::OrbitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeplerianElements {
    semi_major_axis_m: f64,
    eccentricity: f64,
    inclination_rad: f64,
    raan_rad: f64,
    arg_perigee_rad: f64,
    mean_anomaly_rad: f64,
}

impl KeplerianElements {
    /// Creates a validated element set.
    ///
    /// # Errors
    ///
    /// Returns [`OrbitError::InvalidElement`] when the semi-major axis is
    /// not positive, eccentricity is outside `[0, 1)` (only closed orbits
    /// are supported), or the inclination is outside `[0, π]`.
    pub fn new(
        semi_major_axis_m: f64,
        eccentricity: f64,
        inclination_rad: f64,
        raan_rad: f64,
        arg_perigee_rad: f64,
        mean_anomaly_rad: f64,
    ) -> Result<Self, OrbitError> {
        if !(semi_major_axis_m > 0.0) || !semi_major_axis_m.is_finite() {
            return Err(OrbitError::InvalidElement {
                name: "semi_major_axis_m",
                value: semi_major_axis_m,
            });
        }
        if !(0.0..1.0).contains(&eccentricity) {
            return Err(OrbitError::InvalidElement {
                name: "eccentricity",
                value: eccentricity,
            });
        }
        if !(0.0..=std::f64::consts::PI).contains(&inclination_rad) {
            return Err(OrbitError::InvalidElement {
                name: "inclination_rad",
                value: inclination_rad,
            });
        }
        for (name, v) in [
            ("raan_rad", raan_rad),
            ("arg_perigee_rad", arg_perigee_rad),
            ("mean_anomaly_rad", mean_anomaly_rad),
        ] {
            if !v.is_finite() {
                return Err(OrbitError::InvalidElement { name, value: v });
            }
        }
        Ok(KeplerianElements {
            semi_major_axis_m,
            eccentricity,
            inclination_rad,
            raan_rad: eagleeye_geo::wrap_two_pi(raan_rad),
            arg_perigee_rad: eagleeye_geo::wrap_two_pi(arg_perigee_rad),
            mean_anomaly_rad: eagleeye_geo::wrap_two_pi(mean_anomaly_rad),
        })
    }

    /// Eccentricity, in `[0, 1)`.
    #[inline]
    pub fn eccentricity(&self) -> f64 {
        self.eccentricity
    }

    /// Inclination in radians.
    #[inline]
    pub fn inclination_rad(&self) -> f64 {
        self.inclination_rad
    }

    /// Right ascension of the ascending node in radians.
    #[inline]
    pub fn raan_rad(&self) -> f64 {
        self.raan_rad
    }

    /// Argument of perigee in radians.
    #[inline]
    pub fn arg_perigee_rad(&self) -> f64 {
        self.arg_perigee_rad
    }

    /// Mean anomaly at epoch in radians.
    #[inline]
    pub fn mean_anomaly_rad(&self) -> f64 {
        self.mean_anomaly_rad
    }

    /// Mean motion in radians per second.
    #[inline]
    pub fn mean_motion_rad_s(&self) -> f64 {
        (MU_M3_S2 / self.semi_major_axis_m.powi(3)).sqrt()
    }

    /// Orbital period in seconds.
    #[inline]
    pub fn period_s(&self) -> f64 {
        std::f64::consts::TAU / self.mean_motion_rad_s()
    }

    /// Semi-latus rectum `p = a(1 − e²)` in meters.
    #[inline]
    pub fn semi_latus_rectum_m(&self) -> f64 {
        self.semi_major_axis_m * (1.0 - self.eccentricity * self.eccentricity)
    }

    /// Returns a copy with the given RAAN, argument of perigee, and mean
    /// anomaly (used by the J2 propagator to apply secular drift).
    pub(crate) fn with_angles(
        &self,
        raan_rad: f64,
        arg_perigee_rad: f64,
        mean_anomaly_rad: f64,
    ) -> KeplerianElements {
        KeplerianElements {
            raan_rad: eagleeye_geo::wrap_two_pi(raan_rad),
            arg_perigee_rad: eagleeye_geo::wrap_two_pi(arg_perigee_rad),
            mean_anomaly_rad: eagleeye_geo::wrap_two_pi(mean_anomaly_rad),
            ..*self
        }
    }

    /// Solves Kepler's equation `M = E − e sin E` for the eccentric
    /// anomaly via Newton iteration.
    ///
    /// # Errors
    ///
    /// Returns [`OrbitError::KeplerDivergence`] if Newton fails to reach
    /// `1e-12` residual in 64 iterations (cannot happen for e < 1 in
    /// practice; guarded for robustness).
    fn eccentric_anomaly_rad(&self, mean_anomaly_rad: f64) -> Result<f64, OrbitError> {
        let m = eagleeye_geo::wrap_two_pi(mean_anomaly_rad);
        let e = self.eccentricity;
        // On a circular orbit Newton's first step is exactly zero
        // (`e·sin M` and `e·cos M` are ±0), so it returns `M` itself; a
        // NaN anomaly still diverges below.
        if e == 0.0 && !m.is_nan() {
            return Ok(m);
        }
        let mut big_e = if e < 0.8 { m } else { std::f64::consts::PI };
        for _ in 0..64 {
            let f = big_e - e * big_e.sin() - m;
            let fp = 1.0 - e * big_e.cos();
            let step = f / fp;
            big_e -= step;
            if step.abs() < 1e-13 {
                return Ok(big_e);
            }
        }
        Err(OrbitError::KeplerDivergence {
            mean_anomaly_rad: m,
            eccentricity: e,
        })
    }

    /// The constants of this orbit's shape and plane tilt, which the
    /// secular drift of the angles leaves alone.
    pub(crate) fn shape(&self) -> OrbitShape {
        let e = self.eccentricity;
        let (sin_i, cos_i) = self.inclination_rad.sin_cos();
        OrbitShape {
            mean_motion_rad_s: self.mean_motion_rad_s(),
            semi_minor_axis_m: self.semi_major_axis_m * (1.0 - e * e).sqrt(),
            sin_i,
            cos_i,
        }
    }

    /// Computes the ECI state at a given mean anomaly (other elements
    /// fixed).
    ///
    /// # Errors
    ///
    /// Propagates [`OrbitError::KeplerDivergence`].
    pub fn eci_state_at_mean_anomaly(&self, mean_anomaly_rad: f64) -> Result<EciState, OrbitError> {
        self.eci_state_with(&self.shape(), mean_anomaly_rad)
    }

    /// [`Self::eci_state_at_mean_anomaly`] with this orbit's
    /// [`Self::shape`] computed once by the caller.
    pub(crate) fn eci_state_with(
        &self,
        shape: &OrbitShape,
        mean_anomaly_rad: f64,
    ) -> Result<EciState, OrbitError> {
        let e = self.eccentricity;
        let big_e = self.eccentric_anomaly_rad(mean_anomaly_rad)?;
        let (sin_e, cos_e) = big_e.sin_cos();

        // Perifocal coordinates.
        let a = self.semi_major_axis_m;
        let b = shape.semi_minor_axis_m;
        let x_pf = a * (cos_e - e);
        let y_pf = b * sin_e;
        let r = a * (1.0 - e * cos_e);
        let n = shape.mean_motion_rad_s;
        let vx_pf = -a * a * n * sin_e / r;
        let vy_pf = a * b * n * cos_e / r;

        // Rotate perifocal -> ECI: Rz(raan) * Rx(i) * Rz(argp).
        let (s_o, c_o) = self.raan_rad.sin_cos();
        let (s_i, c_i) = (shape.sin_i, shape.cos_i);
        let (s_w, c_w) = self.arg_perigee_rad.sin_cos();

        let r11 = c_o * c_w - s_o * s_w * c_i;
        let r12 = -c_o * s_w - s_o * c_w * c_i;
        let r21 = s_o * c_w + c_o * s_w * c_i;
        let r22 = -s_o * s_w + c_o * c_w * c_i;
        let r31 = s_w * s_i;
        let r32 = c_w * s_i;

        let position = Vec3::new(
            r11 * x_pf + r12 * y_pf,
            r21 * x_pf + r22 * y_pf,
            r31 * x_pf + r32 * y_pf,
        );
        let velocity = Vec3::new(
            r11 * vx_pf + r12 * vy_pf,
            r21 * vx_pf + r22 * vy_pf,
            r31 * vx_pf + r32 * vy_pf,
        );
        Ok(EciState { position, velocity })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_check::{check_cases, f64_range, prop_assert};
    use eagleeye_geo::wrap_two_pi;

    fn paper_orbit() -> KeplerianElements {
        KeplerianElements::new(
            eagleeye_geo::earth::MEAN_RADIUS_M + 475_000.0,
            0.001,
            97.2_f64.to_radians(),
            0.3,
            0.1,
            0.0,
        )
        .unwrap()
    }

    #[test]
    fn rejects_invalid_elements() {
        assert!(KeplerianElements::new(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0).is_err());
        assert!(KeplerianElements::new(7e6, 1.0, 0.0, 0.0, 0.0, 0.0).is_err());
        assert!(KeplerianElements::new(7e6, 0.0, -0.1, 0.0, 0.0, 0.0).is_err());
        assert!(KeplerianElements::new(7e6, 0.0, 4.0, 0.0, 0.0, 0.0).is_err());
        assert!(KeplerianElements::new(7e6, 0.0, 0.0, f64::NAN, 0.0, 0.0).is_err());
    }

    #[test]
    fn period_matches_paper_orbit() {
        // 475 km altitude => ~94 minutes.
        let k = paper_orbit();
        assert!(
            (k.period_s() / 60.0 - 94.0).abs() < 1.0,
            "period {}",
            k.period_s() / 60.0
        );
    }

    #[test]
    fn kepler_equation_solution_satisfies_identity() {
        let k = KeplerianElements::new(7e6, 0.3, 1.0, 0.0, 0.0, 0.0).unwrap();
        for i in 0..32 {
            let m = i as f64 * 0.2;
            let e_anom = k.eccentric_anomaly_rad(m).unwrap();
            let recon = e_anom - 0.3 * e_anom.sin();
            assert!(
                (eagleeye_geo::wrap_two_pi(recon) - eagleeye_geo::wrap_two_pi(m)).abs() < 1e-10
            );
        }
    }

    /// Newton's iteration as `eccentric_anomaly_rad` runs it on every
    /// orbit, kept as the oracle of its circular-orbit shortcut.
    fn eccentric_anomaly_newton(e: f64, mean_anomaly_rad: f64) -> Option<f64> {
        let m = wrap_two_pi(mean_anomaly_rad);
        let mut big_e = if e < 0.8 { m } else { std::f64::consts::PI };
        for _ in 0..64 {
            let step = (big_e - e * big_e.sin() - m) / (1.0 - e * big_e.cos());
            big_e -= step;
            if step.abs() < 1e-13 {
                return Some(big_e);
            }
        }
        None
    }

    /// On a circular orbit the shortcut returns Newton's answer bit for
    /// bit: at 0 and −0, at and just under 2π, on anomalies that wrap to
    /// them, on seeded anomalies over many turns, and with NaN, which
    /// both reject.
    #[test]
    fn circular_shortcut_matches_newton() {
        let tau = std::f64::consts::TAU;
        let k = KeplerianElements::new(7e6, 0.0, 1.0, 0.0, 0.0, 0.0).unwrap();
        let agrees = |m: f64| {
            let got = k.eccentric_anomaly_rad(m).ok().map(f64::to_bits);
            got == eccentric_anomaly_newton(0.0, m).map(f64::to_bits)
        };
        let below_tau = f64::from_bits(tau.to_bits() - 1);
        for m in [
            0.0,
            -0.0,
            tau,
            below_tau,
            -below_tau,
            -1e-300,
            -f64::EPSILON,
            1e9 * tau,
            f64::NAN,
            f64::INFINITY,
        ] {
            assert!(agrees(m), "anomaly {m:e}");
        }
        // A tiny negative anomaly wraps to 0, inside `[0, 2π)`, not to
        // the 2π its shifted remainder rounds to.
        assert_eq!(k.eccentric_anomaly_rad(-1e-300).unwrap(), 0.0);
        check_cases(
            256,
            "kepler_circular_shortcut_matches_newton",
            f64_range(-1e4, 1e4),
            |&m| {
                prop_assert!(agrees(m), "anomaly {m:e}");
                Ok(())
            },
        );
    }

    #[test]
    fn circular_orbit_radius_is_constant() {
        let k = paper_orbit();
        for i in 0..20 {
            let s = k.eci_state_at_mean_anomaly(i as f64 * 0.3).unwrap();
            let expected = k.semi_major_axis_m;
            assert!((s.radius_m() - expected).abs() / expected < 0.002);
        }
    }

    #[test]
    fn speed_matches_vis_viva() {
        let k = KeplerianElements::new(7e6, 0.1, 0.5, 0.2, 0.3, 0.0).unwrap();
        for i in 0..16 {
            let s = k.eci_state_at_mean_anomaly(i as f64 * 0.4).unwrap();
            let vis_viva = (MU_M3_S2 * (2.0 / s.radius_m() - 1.0 / k.semi_major_axis_m)).sqrt();
            assert!((s.speed_m_s() - vis_viva).abs() / vis_viva < 1e-9);
        }
    }

    /// Specific orbital energy, J/kg: `v²/2 − μ/r`, conserved under pure
    /// two-body motion.
    fn specific_energy(s: &EciState) -> f64 {
        s.velocity.dot(s.velocity) / 2.0 - MU_M3_S2 / s.radius_m()
    }

    /// Specific angular momentum vector, m²/s, also conserved.
    fn specific_angular_momentum(s: &EciState) -> Vec3 {
        s.position.cross(s.velocity)
    }

    #[test]
    fn energy_and_momentum_are_conserved_along_orbit() {
        let k = KeplerianElements::new(6.9e6, 0.2, 1.2, 0.5, 1.0, 0.0).unwrap();
        let s0 = k.eci_state_at_mean_anomaly(0.0).unwrap();
        let e0 = specific_energy(&s0);
        let h0 = specific_angular_momentum(&s0);
        for i in 1..24 {
            let s = k.eci_state_at_mean_anomaly(i as f64 * 0.26).unwrap();
            assert!((specific_energy(&s) - e0).abs() / e0.abs() < 1e-9);
            let h = specific_angular_momentum(&s);
            assert!((h - h0).norm() / h0.norm() < 1e-9);
        }
    }

    #[test]
    fn inclination_bounds_z_extent() {
        let k = paper_orbit();
        let max_z_frac = k.inclination_rad().sin();
        for i in 0..64 {
            let s = k.eci_state_at_mean_anomaly(i as f64 * 0.1).unwrap();
            let z_frac = s.position.z.abs() / s.radius_m();
            assert!(z_frac <= max_z_frac + 1e-9);
        }
    }

    #[test]
    fn equatorial_orbit_stays_in_plane() {
        let k = KeplerianElements::new(7e6, 0.0, 0.0, 0.0, 0.0, 0.0).unwrap();
        for i in 0..16 {
            let s = k.eci_state_at_mean_anomaly(i as f64 * 0.4).unwrap();
            assert!(s.position.z.abs() < 1e-6);
        }
    }

    /// Kepler's equation solutions satisfy the defining identity.
    #[test]
    fn kepler_identity() {
        check_cases(
            64,
            "kepler_identity",
            (f64_range(0.0, 0.95), f64_range(0.0, std::f64::consts::TAU)),
            |&(ecc, m)| {
                let k = KeplerianElements::new(7e6, ecc, 1.0, 0.0, 0.0, 0.0).unwrap();
                let e_anom = k.eccentric_anomaly_rad(m).unwrap();
                let recon = wrap_two_pi(e_anom - ecc * e_anom.sin());
                let want = wrap_two_pi(m);
                let diff = (recon - want)
                    .abs()
                    .min(std::f64::consts::TAU - (recon - want).abs());
                prop_assert!(diff < 1e-9, "identity residual {diff}");
                Ok(())
            },
        );
    }
}
