use crate::{EciState, J2Propagator, OrbitError};
use eagleeye_geo::earth::{MEAN_RADIUS_M, OMEGA_EARTH_RAD_S};
use eagleeye_geo::{greatcircle, Ecef, GeodeticPoint, Vec3};

/// The ground-relative state of a satellite at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackState {
    /// Seconds past epoch.
    pub t_s: f64,
    /// Subsatellite point (altitude field holds the satellite altitude).
    pub subsatellite: GeodeticPoint,
    /// Ground-track heading at the subsatellite point, radians clockwise
    /// from north.
    pub heading_rad: f64,
    /// Speed of the subsatellite point over the ground, m/s (includes
    /// Earth-rotation effects).
    pub ground_speed_m_s: f64,
    /// Satellite altitude above the mean-radius sphere, meters.
    pub altitude_m: f64,
    /// True when the satellite is in sunlight (cylindrical shadow model).
    pub in_sunlight: bool,
    /// Raw inertial state.
    pub eci: EciState,
}

/// Computes subsatellite points, headings, and sunlight state along an
/// orbit.
///
/// The ECI→ECEF rotation uses the Greenwich sidereal angle
/// `θ(t) = θ₀ + ω⊕·t`; the epoch angle `θ₀` defaults to zero and can be
/// set to shift the ground track in longitude. Sunlight uses a fixed
/// inertial sun direction and a cylindrical Earth shadow — the standard
/// cote-style model for LEO energy budgeting (~60 % of a 475 km orbit is
/// sunlit).
///
/// # Example
///
/// ```
/// use eagleeye_orbit::{GroundTrack, J2Propagator};
///
/// let prop = J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, 0.0)?;
/// let track = GroundTrack::new(prop);
/// let state = track.state_at(600.0)?;
/// assert!(state.altitude_m > 400_000.0);
/// # Ok::<(), eagleeye_orbit::OrbitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTrack {
    propagator: J2Propagator,
    gmst_epoch_rad: f64,
    sun_direction_eci: Vec3,
}

impl GroundTrack {
    /// Step used for the finite-difference heading/ground-speed
    /// derivative in [`GroundTrack::state_at`], seconds.
    pub const FD_DT_S: f64 = 1.0;

    /// Creates a ground track with GMST₀ = 0 and the sun along +X (ECI).
    pub fn new(propagator: J2Propagator) -> Self {
        GroundTrack {
            propagator,
            gmst_epoch_rad: 0.0,
            sun_direction_eci: Vec3::new(1.0, 0.0, 0.0),
        }
    }

    /// Sets the Greenwich sidereal angle at epoch.
    pub fn with_gmst_epoch(mut self, gmst_rad: f64) -> Self {
        self.gmst_epoch_rad = eagleeye_geo::wrap_two_pi(gmst_rad);
        self
    }

    /// The underlying propagator.
    #[inline]
    pub fn propagator(&self) -> &J2Propagator {
        &self.propagator
    }

    /// Greenwich sidereal angle at epoch (the `θ₀` set by
    /// [`GroundTrack::with_gmst_epoch`]).
    #[inline]
    pub fn gmst_epoch_rad(&self) -> f64 {
        self.gmst_epoch_rad
    }

    /// Greenwich sidereal angle at `t_s` seconds past an epoch angle of
    /// `gmst_epoch_rad`. [`crate::EpochGrid`] memoizes the sine/cosine
    /// of exactly this angle, so cached and direct propagation agree
    /// bit-for-bit.
    #[inline]
    pub fn gmst_at(gmst_epoch_rad: f64, t_s: f64) -> f64 {
        eagleeye_geo::wrap_two_pi(gmst_epoch_rad + OMEGA_EARTH_RAD_S * t_s)
    }

    /// Greenwich sidereal angle at `t_s` seconds past epoch.
    #[inline]
    fn gmst_rad(&self, t_s: f64) -> f64 {
        Self::gmst_at(self.gmst_epoch_rad, t_s)
    }

    /// Rotates an ECI position into ECEF given the precomputed
    /// `(sin θ, cos θ)` of the Greenwich sidereal angle.
    #[inline]
    fn eci_to_ecef_with_trig(position: Vec3, (s, c): (f64, f64)) -> Ecef {
        Ecef(Vec3::new(
            c * position.x + s * position.y,
            -s * position.x + c * position.y,
            position.z,
        ))
    }

    /// Rotates an ECI position into ECEF at time `t_s`.
    pub fn eci_to_ecef(&self, position: Vec3, t_s: f64) -> Ecef {
        Self::eci_to_ecef_with_trig(position, self.gmst_rad(t_s).sin_cos())
    }

    /// Full ground-relative state at `t_s` seconds past epoch.
    ///
    /// # Errors
    ///
    /// Propagates propagation and geodetic conversion failures.
    pub fn state_at(&self, t_s: f64) -> Result<TrackState, OrbitError> {
        self.state_at_with_trig(
            t_s,
            self.gmst_rad(t_s).sin_cos(),
            self.gmst_rad(t_s + Self::FD_DT_S).sin_cos(),
        )
    }

    /// Like [`GroundTrack::state_at`], with the sidereal-angle
    /// sine/cosine at `t_s` and `t_s + FD_DT_S` supplied by the caller.
    ///
    /// This is the memoization seam used by [`crate::EpochGrid`]: the
    /// sidereal angle depends only on the epoch time, not the satellite,
    /// so one `(sin, cos)` pair per epoch serves an entire constellation
    /// instead of being recomputed per satellite per frame. Passing trig
    /// values computed from [`GroundTrack::gmst_at`] at the same times
    /// makes this identical to `state_at`.
    ///
    /// # Errors
    ///
    /// Propagates propagation and geodetic conversion failures.
    pub fn state_at_with_trig(
        &self,
        t_s: f64,
        gmst_sc: (f64, f64),
        gmst_fd_sc: (f64, f64),
    ) -> Result<TrackState, OrbitError> {
        let (eci, sub) = self.fix_with_trig(t_s, gmst_sc)?;

        // Heading and ground speed from a small finite difference of the
        // subsatellite point (captures Earth-rotation coupling exactly).
        let dt = Self::FD_DT_S;
        let sub2 = self.ground_point_with_trig(t_s + dt, gmst_fd_sc)?;
        let heading_rad = greatcircle::initial_bearing_rad(&sub, &sub2);
        let ground_speed_m_s = greatcircle::distance_m(&sub, &sub2) / dt;

        let altitude_m = eci.radius_m() - MEAN_RADIUS_M;
        let in_sunlight = self.is_sunlit(eci.position);

        Ok(TrackState {
            t_s,
            subsatellite: sub.with_altitude(altitude_m)?,
            heading_rad,
            ground_speed_m_s,
            altitude_m,
            in_sunlight,
            eci,
        })
    }

    /// The subsatellite point at `t_s`, at altitude 0, with the
    /// sidereal-angle sine/cosine at `t_s` supplied by the caller: one
    /// propagation, no finite difference.
    ///
    /// [`GroundTrack::state_at_with_trig`] is this at `t_s` and at
    /// `t_s + FD_DT_S`, so its `subsatellite` (at altitude 0) and its
    /// heading come from exactly these points.
    ///
    /// # Errors
    ///
    /// Propagates propagation and geodetic conversion failures.
    pub fn ground_point_with_trig(
        &self,
        t_s: f64,
        gmst_sc: (f64, f64),
    ) -> Result<GeodeticPoint, OrbitError> {
        Ok(self.fix_with_trig(t_s, gmst_sc)?.1)
    }

    /// The inertial state at `t_s` and its subsatellite point at
    /// altitude 0.
    fn fix_with_trig(
        &self,
        t_s: f64,
        gmst_sc: (f64, f64),
    ) -> Result<(EciState, GeodeticPoint), OrbitError> {
        let eci = self.propagator.state_at(t_s)?;
        let ecef = Self::eci_to_ecef_with_trig(eci.position, gmst_sc);
        let geo = ecef.to_geodetic_spherical()?;
        Ok((eci, geo.with_altitude(0.0)?))
    }

    /// Cylindrical-shadow sunlight test: the satellite is eclipsed when
    /// it is on the anti-sun side and within one Earth radius of the
    /// shadow axis.
    fn is_sunlit(&self, eci_pos: Vec3) -> bool {
        let along_sun = eci_pos.dot(self.sun_direction_eci);
        if along_sun >= 0.0 {
            return true;
        }
        let radial = eci_pos - self.sun_direction_eci * along_sun;
        radial.norm() > MEAN_RADIUS_M
    }

    /// Fraction of one orbit spent in sunlight, sampled at `samples`
    /// points (used by the energy model).
    ///
    /// # Errors
    ///
    /// Propagates propagation failures.
    pub fn sunlit_fraction(&self, samples: usize) -> Result<f64, OrbitError> {
        let n = samples.max(1);
        let period = self.propagator.period_s();
        let mut lit = 0usize;
        for i in 0..n {
            let t = period * i as f64 / n as f64;
            let s = self.propagator.state_at(t)?;
            if self.is_sunlit(s.position) {
                lit += 1;
            }
        }
        Ok(lit as f64 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_track() -> GroundTrack {
        GroundTrack::new(
            J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, 0.0).unwrap(),
        )
    }

    #[test]
    fn ground_speed_is_near_first_principles() {
        // v_ground ≈ v_orbit * Re / (Re + h) ≈ 7.61 km/s * 0.93 ≈ 7.1 km/s,
        // modulated by Earth rotation.
        let t = paper_track();
        let s = t.state_at(100.0).unwrap();
        assert!(
            s.ground_speed_m_s > 6_500.0 && s.ground_speed_m_s < 8_000.0,
            "speed {}",
            s.ground_speed_m_s
        );
    }

    #[test]
    fn polar_orbit_reaches_high_latitudes() {
        let t = paper_track();
        let mut max_lat: f64 = 0.0;
        for i in 0..400 {
            let s = t.state_at(i as f64 * 15.0).unwrap();
            max_lat = max_lat.max(s.subsatellite.lat_deg().abs());
        }
        // Inclination 97.2 deg => max latitude ~82.8 deg.
        assert!(max_lat > 80.0, "max lat {max_lat}");
        assert!(max_lat < 84.0, "max lat {max_lat}");
    }

    #[test]
    fn ground_track_shifts_west_each_orbit() {
        // Earth rotates under the orbit: successive equator crossings move
        // westward by ~ period * 360/86164 ≈ 23.6 degrees.
        let t = paper_track();
        let period = t.propagator().period_s();
        let s0 = t.state_at(0.0).unwrap();
        let s1 = t.state_at(period).unwrap();
        let dlon = eagleeye_geo::wrap_pi(s1.subsatellite.lon_rad() - s0.subsatellite.lon_rad());
        let expected = -(OMEGA_EARTH_RAD_S * period);
        assert!(
            (dlon - expected).abs() < 0.05,
            "dlon {} expected {}",
            dlon.to_degrees(),
            expected.to_degrees()
        );
    }

    #[test]
    fn sunlit_fraction_is_about_sixty_percent() {
        let t = paper_track();
        let f = t.sunlit_fraction(500).unwrap();
        assert!(f > 0.55 && f < 0.75, "sunlit fraction {f}");
    }

    #[test]
    fn subsolar_satellite_is_always_lit() {
        let t = paper_track();
        assert!(t.is_sunlit(Vec3::new(7e6, 0.0, 0.0)));
        assert!(t.is_sunlit(Vec3::new(0.0, 7e6, 0.0))); // terminator, above shadow
        assert!(!t.is_sunlit(Vec3::new(-7e6, 0.0, 0.0))); // deep shadow
        assert!(t.is_sunlit(Vec3::new(-7e6, 6.9e6, 0.0))); // behind but off-axis
    }

    #[test]
    fn gmst_epoch_shifts_longitude() {
        let base = paper_track();
        let shifted = paper_track().with_gmst_epoch(0.5);
        let a = base.state_at(0.0).unwrap();
        let b = shifted.state_at(0.0).unwrap();
        let dlon = eagleeye_geo::wrap_pi(a.subsatellite.lon_rad() - b.subsatellite.lon_rad());
        assert!((dlon - 0.5).abs() < 1e-6, "dlon {dlon}");
    }

    #[test]
    fn heading_is_southish_or_northish_for_polar_orbit() {
        let t = paper_track();
        let s = t.state_at(30.0).unwrap();
        // Near-polar: heading close to north (0) or south (pi) within ~25 deg.
        let h = s.heading_rad;
        let to_north = h.min(std::f64::consts::TAU - h);
        let to_south = (h - std::f64::consts::PI).abs();
        assert!(
            to_north < 0.45 || to_south < 0.45,
            "heading {}",
            h.to_degrees()
        );
    }
}
