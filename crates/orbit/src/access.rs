//! Ground-station access windows.
//!
//! The paper's operating model gives each satellite six minutes of
//! downlink per orbit (§5.3). This module computes the underlying
//! quantity from geometry: the contact windows during which a satellite
//! is above a ground station's minimum elevation mask.

use crate::{GroundTrack, OrbitError};
use eagleeye_geo::{GeodeticPoint, Vec3};

/// A ground station with an elevation mask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundStation {
    location: GeodeticPoint,
    min_elevation_rad: f64,
}

impl GroundStation {
    /// Creates a station.
    ///
    /// # Errors
    ///
    /// Returns [`OrbitError::InvalidElement`] for an elevation mask
    /// outside `[0, π/2)`.
    pub fn new(location: GeodeticPoint, min_elevation_rad: f64) -> Result<Self, OrbitError> {
        if !(0.0..std::f64::consts::FRAC_PI_2).contains(&min_elevation_rad) {
            return Err(OrbitError::InvalidElement {
                name: "min_elevation_rad",
                value: min_elevation_rad,
            });
        }
        Ok(GroundStation {
            location,
            min_elevation_rad,
        })
    }

    /// Station location.
    #[inline]
    pub fn location(&self) -> GeodeticPoint {
        self.location
    }

    /// Minimum usable elevation, radians.
    #[inline]
    fn min_elevation_rad(&self) -> f64 {
        self.min_elevation_rad
    }

    /// Elevation of a satellite (ECEF position) as seen from the
    /// station, radians; negative below the horizon.
    fn elevation_rad(&self, sat_ecef: Vec3) -> f64 {
        let stn = self.location.to_ecef_spherical().as_vec3();
        let up = match stn.normalized() {
            Some(u) => u,
            None => return -std::f64::consts::FRAC_PI_2,
        };
        let rel = sat_ecef - stn;
        match rel.normalized() {
            Some(r) => (r.dot(up)).clamp(-1.0, 1.0).asin(),
            None => std::f64::consts::FRAC_PI_2,
        }
    }
}

/// One contact opportunity between a satellite and a station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactWindow {
    /// Contact start, seconds past epoch.
    pub start_s: f64,
    /// Contact end, seconds past epoch.
    pub end_s: f64,
    /// Peak elevation during the contact, radians.
    pub max_elevation_rad: f64,
}

impl ContactWindow {
    /// Contact duration, seconds.
    #[inline]
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// Computes all contact windows in `[t0_s, t1_s]`, sampling the orbit at
/// `step_s` (boundaries are located by bisection to sub-second
/// precision).
///
/// # Errors
///
/// Propagates propagation failures.
///
/// # Example
///
/// ```
/// use eagleeye_orbit::{access, GroundTrack, J2Propagator};
/// use eagleeye_geo::GeodeticPoint;
///
/// let track = GroundTrack::new(
///     J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, 0.0)?);
/// // A polar station sees a polar orbit nearly every revolution.
/// let svalbard = GeodeticPoint::from_degrees(78.2, 15.4, 0.0)
///     .map_err(eagleeye_orbit::OrbitError::Geo)?;
/// let station = access::GroundStation::new(svalbard, 5.0_f64.to_radians())?;
/// let contacts = access::contact_windows(&track, &station, 0.0, 6.0 * 3600.0, 10.0)?;
/// assert!(!contacts.is_empty());
/// # Ok::<(), eagleeye_orbit::OrbitError>(())
/// ```
pub fn contact_windows(
    track: &GroundTrack,
    station: &GroundStation,
    t0_s: f64,
    t1_s: f64,
    step_s: f64,
) -> Result<Vec<ContactWindow>, OrbitError> {
    let step = step_s.max(1.0);
    let visible = |t: f64| -> Result<(bool, f64), OrbitError> {
        let s = track.propagator().state_at(t)?;
        let ecef = track.eci_to_ecef(s.position, t);
        let elev = station.elevation_rad(ecef.as_vec3());
        Ok((elev >= station.min_elevation_rad(), elev))
    };
    let refine = |mut lo: f64, mut hi: f64, want_rising: bool| -> Result<f64, OrbitError> {
        for _ in 0..24 {
            let mid = (lo + hi) / 2.0;
            let (vis, _) = visible(mid)?;
            if vis == want_rising {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok((lo + hi) / 2.0)
    };

    let mut windows = Vec::new();
    let mut t = t0_s;
    let (mut was_visible, mut elev) = visible(t)?;
    let mut start = if was_visible { Some(t0_s) } else { None };
    let mut peak = elev;
    while t < t1_s {
        let t_next = (t + step).min(t1_s);
        let (vis, e) = visible(t_next)?;
        match (was_visible, vis) {
            (false, true) => {
                start = Some(refine(t, t_next, true)?);
                peak = e;
            }
            (true, false) => {
                let end = refine(t, t_next, false)?;
                if let Some(s) = start.take() {
                    windows.push(ContactWindow {
                        start_s: s,
                        end_s: end,
                        max_elevation_rad: peak,
                    });
                }
            }
            (true, true) => peak = peak.max(e),
            (false, false) => {}
        }
        was_visible = vis;
        elev = e;
        t = t_next;
    }
    let _ = elev;
    if let Some(s) = start {
        windows.push(ContactWindow {
            start_s: s,
            end_s: t1_s,
            max_elevation_rad: peak,
        });
    }
    Ok(windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::J2Propagator;

    fn polar_track() -> GroundTrack {
        GroundTrack::new(
            J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, 0.0).unwrap(),
        )
    }

    fn station(lat: f64, lon: f64, elev_deg: f64) -> GroundStation {
        GroundStation::new(
            GeodeticPoint::from_degrees(lat, lon, 0.0).unwrap(),
            elev_deg.to_radians(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_bad_elevation_mask() {
        let p = GeodeticPoint::from_degrees(0.0, 0.0, 0.0).unwrap();
        assert!(GroundStation::new(p, -0.1).is_err());
        assert!(GroundStation::new(p, 1.6).is_err());
    }

    #[test]
    fn overhead_satellite_has_ninety_degree_elevation() {
        let s = station(0.0, 0.0, 5.0);
        let sat = GeodeticPoint::from_degrees(0.0, 0.0, 475_000.0)
            .unwrap()
            .to_ecef_spherical()
            .as_vec3();
        let e = s.elevation_rad(sat);
        assert!((e - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
    }

    #[test]
    fn antipodal_satellite_is_below_horizon() {
        let s = station(0.0, 0.0, 5.0);
        let sat = GeodeticPoint::from_degrees(0.0, 180.0, 475_000.0)
            .unwrap()
            .to_ecef_spherical()
            .as_vec3();
        assert!(s.elevation_rad(sat) < 0.0);
    }

    #[test]
    fn polar_station_gets_contact_most_orbits() {
        let track = polar_track();
        let s = station(85.0, 0.0, 5.0);
        let windows = contact_windows(&track, &s, 0.0, 4.0 * 5_640.0, 15.0).unwrap();
        // A near-polar station sees a 97 deg orbit on essentially every
        // revolution.
        assert!(windows.len() >= 3, "only {} contacts", windows.len());
        for w in &windows {
            assert!(w.duration_s() > 60.0 && w.duration_s() < 16.0 * 60.0);
            assert!(w.max_elevation_rad > 0.0);
        }
    }

    #[test]
    fn equatorial_station_sees_fewer_contacts_than_polar() {
        let track = polar_track();
        let polar = station(85.0, 0.0, 5.0);
        let equatorial = station(0.0, 90.0, 5.0);
        let horizon = 8.0 * 5_640.0;
        let np = contact_windows(&track, &polar, 0.0, horizon, 20.0)
            .unwrap()
            .len();
        let ne = contact_windows(&track, &equatorial, 0.0, horizon, 20.0)
            .unwrap()
            .len();
        assert!(np > ne, "polar {np} vs equatorial {ne}");
    }

    #[test]
    fn higher_mask_shortens_contacts() {
        let track = polar_track();
        let lo = station(85.0, 0.0, 5.0);
        let hi = station(85.0, 0.0, 30.0);
        let horizon = 2.0 * 5_640.0;
        let d_lo: f64 = contact_windows(&track, &lo, 0.0, horizon, 10.0)
            .unwrap()
            .iter()
            .map(ContactWindow::duration_s)
            .sum();
        let d_hi: f64 = contact_windows(&track, &hi, 0.0, horizon, 10.0)
            .unwrap()
            .iter()
            .map(ContactWindow::duration_s)
            .sum();
        assert!(d_lo > d_hi, "lo {d_lo} vs hi {d_hi}");
    }
}
