//! An SGP4-class analytic propagator (near-Earth variant).
//!
//! Implements the Simplified General Perturbations 4 equations from
//! Spacetrack Report #3 (Hoots & Roehrich, 1980) as consolidated by
//! Vallado et al.: Brouwer mean-motion recovery, J2/J3 secular and
//! long-period terms, power-series atmospheric drag in B*, and
//! short-period periodics. Deep-space (period ≥ 225 min) orbits are not
//! supported — the paper's constellation flies a 94-minute LEO, far from
//! the deep-space regime.
//!
//! **Validation note.** The authoritative SGP4 verification vectors ship
//! with the official Vallado distribution and are not available offline;
//! this implementation is instead validated (a) against the independent
//! [`crate::J2Propagator`] — for a drag-free near-circular LEO the two
//! must agree to within tens of kilometers over several hours, since the
//! same J2 secular rates dominate — and (b) through internal invariants
//! (altitude stability at B* = 0, monotone decay with positive B*,
//! period consistency). For coverage simulation these bounds are far
//! below a swath width. See DESIGN.md.

use crate::{EciState, OrbitError, Tle};
use eagleeye_geo::Vec3;

// WGS-72 constants, the standard SGP4 gravity model (Spacetrack #3).
const XKE: f64 = 0.074_366_916_133; // sqrt(GM) in (earth radii)^1.5 / min
const EARTH_RADIUS_KM: f64 = 6_378.135;
const J2: f64 = 1.082_616e-3;
const J3: f64 = -2.538_81e-6;
const CK2: f64 = 0.5 * J2; // in earth-radii units
const A3OVK2: f64 = -J3 / CK2;
const QOMS2T: f64 = 1.880_279e-09; // ((120-78)/xkmper)^4
const S_PARAM: f64 = 1.012_229_844_36; // 1 + 78/xkmper
const MINUTES_PER_DAY: f64 = 1_440.0;

/// SGP4 propagator state, initialized from a [`Tle`].
///
/// # Example
///
/// ```
/// use eagleeye_orbit::{Sgp4Propagator, Tle};
///
/// let prop = Sgp4Propagator::new(&Tle::paper_orbit())?;
/// let state = prop.state_at(1_800.0)?;
/// let alt_km = state.radius_m() / 1000.0 - 6378.135;
/// assert!(alt_km > 400.0 && alt_km < 550.0);
/// # Ok::<(), eagleeye_orbit::OrbitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgp4Propagator {
    // Elements (radians / radians-per-minute / earth radii).
    e0: f64,
    i0: f64,
    node0: f64,
    omega0: f64,
    m0: f64,
    bstar: f64,
    // Recovered Brouwer elements.
    n0dp: f64,
    a0dp: f64,
    // Cached trigonometry of inclination.
    cosio: f64,
    sinio: f64,
    x3thm1: f64,
    x1mth2: f64,
    x7thm1: f64,
    // Secular coefficients.
    c1: f64,
    c4: f64,
    c5: f64,
    mdot: f64,
    omgdot: f64,
    nodedot: f64,
    nodecf: f64,
    t2cof: f64,
    omgcof: f64,
    xmcof: f64,
    delmo: f64,
    sinmo: f64,
    eta: f64,
    d2: f64,
    d3: f64,
    d4: f64,
    t3cof: f64,
    t4cof: f64,
    t5cof: f64,
    xlcof: f64,
    aycof: f64,
    use_simple: bool,
}

impl Sgp4Propagator {
    /// Initializes SGP4 from a TLE.
    ///
    /// # Errors
    ///
    /// Returns [`OrbitError::InvalidElement`] for deep-space orbits
    /// (period ≥ 225 min), hyperbolic eccentricities, or non-physical
    /// mean motion.
    pub fn new(tle: &Tle) -> Result<Self, OrbitError> {
        let n0 = tle.mean_motion_rev_day() * std::f64::consts::TAU / MINUTES_PER_DAY;
        if n0 <= 0.0 {
            return Err(OrbitError::InvalidElement {
                name: "mean_motion",
                value: tle.mean_motion_rev_day(),
            });
        }
        let e0 = tle.eccentricity();
        if !(0.0..1.0).contains(&e0) {
            return Err(OrbitError::InvalidElement {
                name: "eccentricity",
                value: e0,
            });
        }
        let period_min = std::f64::consts::TAU / n0;
        if period_min >= 225.0 {
            return Err(OrbitError::InvalidElement {
                name: "period_min (deep space unsupported)",
                value: period_min,
            });
        }
        let i0 = tle.inclination_deg().to_radians();
        let node0 = tle.raan_deg().to_radians();
        let omega0 = tle.arg_perigee_deg().to_radians();
        let m0 = tle.mean_anomaly_deg().to_radians();
        let bstar = tle.bstar();

        let cosio = i0.cos();
        let sinio = i0.sin();
        let theta2 = cosio * cosio;
        let x3thm1 = 3.0 * theta2 - 1.0;
        let x1mth2 = 1.0 - theta2;
        let x7thm1 = 7.0 * theta2 - 1.0;
        let e0sq = e0 * e0;
        let betao2 = 1.0 - e0sq;
        let betao = betao2.sqrt();

        // Brouwer mean motion recovery (un-Kozai).
        let a1 = (XKE / n0).powf(2.0 / 3.0);
        let del1 = 1.5 * CK2 * x3thm1 / (a1 * a1 * betao * betao2);
        let a0 = a1 * (1.0 - del1 * (1.0 / 3.0 + del1 * (1.0 + 134.0 / 81.0 * del1)));
        let del0 = 1.5 * CK2 * x3thm1 / (a0 * a0 * betao * betao2);
        let n0dp = n0 / (1.0 + del0);
        let a0dp = a0 / (1.0 - del0);

        // Perigee-dependent atmospheric parameter s4.
        let perigee_km = (a0dp * (1.0 - e0) - 1.0) * EARTH_RADIUS_KM;
        let (s4, qoms24) = if perigee_km < 156.0 {
            let s4_km = if perigee_km < 98.0 {
                20.0
            } else {
                perigee_km - 78.0
            };
            let q = ((120.0 - s4_km) / EARTH_RADIUS_KM).powi(4);
            (s4_km / EARTH_RADIUS_KM + 1.0, q)
        } else {
            (S_PARAM, QOMS2T)
        };

        let pinvsq = 1.0 / (a0dp * a0dp * betao2 * betao2);
        let tsi = 1.0 / (a0dp - s4);
        let eta = a0dp * e0 * tsi;
        let etasq = eta * eta;
        let eeta = e0 * eta;
        let psisq = (1.0 - etasq).abs();
        let coef = qoms24 * tsi.powi(4);
        let coef1 = coef / psisq.powf(3.5);
        let c2 = coef1
            * n0dp
            * (a0dp * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
                + 0.75 * CK2 * tsi / psisq * x3thm1 * (8.0 + 3.0 * etasq * (8.0 + etasq)));
        let c1 = bstar * c2;
        let c3 = if e0 > 1e-4 {
            coef * tsi * A3OVK2 * n0dp * sinio / e0
        } else {
            0.0
        };
        let c4 = 2.0
            * n0dp
            * coef1
            * a0dp
            * betao2
            * (eta * (2.0 + 0.5 * etasq) + e0 * (0.5 + 2.0 * etasq)
                - 2.0 * CK2 * tsi / (a0dp * psisq)
                    * (-3.0 * x3thm1 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
                        + 0.75
                            * x1mth2
                            * (2.0 * etasq - eeta * (1.0 + etasq))
                            * (2.0 * omega0).cos()));
        let c5 = 2.0 * coef1 * a0dp * betao2 * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq);

        // Secular rates for M, omega, node.
        let theta4 = theta2 * theta2;
        let temp1 = 3.0 * CK2 * pinvsq * n0dp;
        let temp2 = temp1 * CK2 * pinvsq;
        let mdot = n0dp
            + 0.5 * temp1 * betao * x3thm1
            + 0.0625 * temp2 * betao * (13.0 - 78.0 * theta2 + 137.0 * theta4);
        let omgdot = -0.5 * temp1 * (1.0 - 5.0 * theta2)
            + 0.0625 * temp2 * (7.0 - 114.0 * theta2 + 395.0 * theta4);
        let nodedot = -temp1 * cosio + 0.5 * temp2 * (4.0 - 19.0 * theta2) * cosio;
        let nodecf = 3.5 * betao2 * (-temp1 * cosio) * c1;
        let t2cof = 1.5 * c1;

        let omgcof = bstar * c3 * omega0.cos();
        let xmcof = if e0 > 1e-4 {
            -(2.0 / 3.0) * coef * bstar / eeta
        } else {
            0.0
        };
        let delmo = (1.0 + eta * m0.cos()).powi(3);
        let sinmo = m0.sin();

        // Long-period coefficients.
        let xlcof = 0.125 * A3OVK2 * sinio * (3.0 + 5.0 * cosio)
            / if (1.0 + cosio).abs() > 1.5e-12 {
                1.0 + cosio
            } else {
                1.5e-12
            };
        let aycof = 0.25 * A3OVK2 * sinio;

        // High-altitude "simple" flag: skip the higher-order drag series
        // when perigee is above 220 km (standard SGP4 branch).
        let use_simple = (a0dp * (1.0 - e0)) < (220.0 / EARTH_RADIUS_KM + 1.0);
        let (mut d2, mut d3, mut d4, mut t3cof, mut t4cof, mut t5cof) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        if !use_simple {
            let c1sq = c1 * c1;
            d2 = 4.0 * a0dp * tsi * c1sq;
            let temp = d2 * tsi * c1 / 3.0;
            d3 = (17.0 * a0dp + s4) * temp;
            d4 = 0.5 * temp * a0dp * tsi * (221.0 * a0dp + 31.0 * s4) * c1;
            t3cof = d2 + 2.0 * c1sq;
            t4cof = 0.25 * (3.0 * d3 + c1 * (12.0 * d2 + 10.0 * c1sq));
            t5cof =
                0.2 * (3.0 * d4 + 12.0 * c1 * d3 + 6.0 * d2 * d2 + 15.0 * c1sq * (2.0 * d2 + c1sq));
        }

        Ok(Sgp4Propagator {
            e0,
            i0,
            node0,
            omega0,
            m0,
            bstar,
            n0dp,
            a0dp,
            cosio,
            sinio,
            x3thm1,
            x1mth2,
            x7thm1,
            c1,
            c4,
            c5,
            mdot,
            omgdot,
            nodedot,
            nodecf,
            t2cof,
            omgcof,
            xmcof,
            delmo,
            sinmo,
            eta,
            d2,
            d3,
            d4,
            t3cof,
            t4cof,
            t5cof,
            xlcof,
            aycof,
            use_simple,
        })
    }

    /// Orbital period at epoch, seconds.
    pub fn period_s(&self) -> f64 {
        std::f64::consts::TAU / self.n0dp * 60.0
    }

    /// Propagates to `t_min` minutes past the TLE epoch; see
    /// [`state_at`](Self::state_at).
    fn state_at_minutes(&self, t_min: f64) -> Result<EciState, OrbitError> {
        let t = t_min;

        // Secular gravity and drag.
        let xmdf = self.m0 + self.mdot * t;
        let omgadf = self.omega0 + self.omgdot * t;
        let node = self.node0 + self.nodedot * t + self.nodecf * t * t;

        let mut omega = omgadf;
        let mut xmp = xmdf;
        let mut tempa = 1.0 - self.c1 * t;
        let mut tempe = self.bstar * self.c4 * t;
        let mut templ = self.t2cof * t * t;
        if !self.use_simple {
            let delomg = self.omgcof * t;
            let delm = self.xmcof * ((1.0 + self.eta * xmdf.cos()).powi(3) - self.delmo);
            let temp = delomg + delm;
            xmp = xmdf + temp;
            omega = omgadf - temp;
            let t2 = t * t;
            let t3 = t2 * t;
            let t4 = t3 * t;
            tempa -= self.d2 * t2 + self.d3 * t3 + self.d4 * t4;
            tempe += self.bstar * self.c5 * (xmp.sin() - self.sinmo);
            templ += self.t3cof * t3 + t4 * (self.t4cof + t * self.t5cof);
        }

        let a = self.a0dp * tempa * tempa;
        let e = (self.e0 - tempe).clamp(1e-6, 0.999_999);
        let xl = xmp + omega + node + self.n0dp * templ;

        if a * (1.0 - e) < 1.0 {
            return Err(OrbitError::InvalidElement {
                name: "perigee (orbit decayed)",
                value: (a * (1.0 - e) - 1.0) * EARTH_RADIUS_KM,
            });
        }

        // Long-period periodics.
        let beta = (1.0 - e * e).sqrt();
        let n = XKE / a.powf(1.5);
        let axn = e * omega.cos();
        let temp = 1.0 / (a * beta * beta);
        let xll = temp * self.xlcof * axn;
        let aynl = temp * self.aycof;
        let xlt = xl + xll;
        let ayn = e * omega.sin() + aynl;

        // Kepler's equation for (E + omega).
        let capu = eagleeye_geo::wrap_two_pi(xlt - node);
        let mut epw = capu;
        let (mut sinepw, mut cosepw) = (0.0, 0.0);
        let mut converged = false;
        for _ in 0..12 {
            sinepw = epw.sin();
            cosepw = epw.cos();
            let f = capu - epw + axn * sinepw - ayn * cosepw;
            let df = 1.0 - cosepw * axn - sinepw * ayn;
            let delta = f / df;
            epw += delta.clamp(-0.95, 0.95);
            if delta.abs() < 1e-12 {
                converged = true;
                break;
            }
        }
        if !converged {
            // One more evaluation; SGP4 traditionally accepts the result
            // after a fixed iteration count, but guard pathologies.
            let f = capu - epw + axn * epw.sin() - ayn * epw.cos();
            if f.abs() > 1e-6 {
                return Err(OrbitError::KeplerDivergence {
                    mean_anomaly_rad: capu,
                    eccentricity: e,
                });
            }
        }

        // Short-period periodics.
        let ecose = axn * cosepw + ayn * sinepw;
        let esine = axn * sinepw - ayn * cosepw;
        let elsq = axn * axn + ayn * ayn;
        let pl = a * (1.0 - elsq);
        let r = a * (1.0 - ecose);
        let rdot = XKE * a.sqrt() * esine / r;
        let rfdot = XKE * pl.sqrt() / r;
        let betal = (1.0 - elsq).sqrt();
        let temp3 = esine / (1.0 + betal);
        let cosu = a / r * (cosepw - axn + ayn * temp3);
        let sinu = a / r * (sinepw - ayn - axn * temp3);
        let u = sinu.atan2(cosu);
        let sin2u = 2.0 * sinu * cosu;
        let cos2u = 2.0 * cosu * cosu - 1.0;
        let temp1 = CK2 / pl;
        let temp2 = temp1 / pl;

        let rk = r * (1.0 - 1.5 * temp2 * betal * self.x3thm1) + 0.5 * temp1 * self.x1mth2 * cos2u;
        let uk = u - 0.25 * temp2 * self.x7thm1 * sin2u;
        let nodek = node + 1.5 * temp2 * self.cosio * sin2u;
        let ik = self.i0 + 1.5 * temp2 * self.cosio * self.sinio * cos2u;
        let rdotk = rdot - n * temp1 * self.x1mth2 * sin2u;
        let rfdotk = rfdot + n * temp1 * (self.x1mth2 * cos2u + 1.5 * self.x3thm1);

        // Orientation vectors.
        let (sinuk, cosuk) = uk.sin_cos();
        let (sinik, cosik) = ik.sin_cos();
        let (sinnok, cosnok) = nodek.sin_cos();
        let mx = -sinnok * cosik;
        let my = cosnok * cosik;
        let ux = mx * sinuk + cosnok * cosuk;
        let uy = my * sinuk + sinnok * cosuk;
        let uz = sinik * sinuk;
        let vx = mx * cosuk - cosnok * sinuk;
        let vy = my * cosuk - sinnok * sinuk;
        let vz = sinik * cosuk;

        // Position (earth radii) and velocity (earth radii / min) → SI.
        let pos_scale = EARTH_RADIUS_KM * 1000.0;
        let vel_scale = EARTH_RADIUS_KM * 1000.0 / 60.0;
        let position = Vec3::new(rk * ux, rk * uy, rk * uz) * pos_scale;
        let velocity = Vec3::new(
            rdotk * ux + rfdotk * vx,
            rdotk * uy + rfdotk * vy,
            rdotk * uz + rfdotk * vz,
        ) * vel_scale;
        Ok(EciState { position, velocity })
    }

    /// Propagates to `t_s` seconds past the TLE epoch (TEME frame,
    /// treated as ECI by the rest of the workspace — the frames differ
    /// by well under the tolerances that matter here).
    ///
    /// # Errors
    ///
    /// Returns [`OrbitError::KeplerDivergence`] if the long-period Kepler
    /// iteration fails, and [`OrbitError::InvalidElement`] when drag has
    /// decayed the orbit below the surface.
    pub fn state_at(&self, t_s: f64) -> Result<EciState, OrbitError> {
        self.state_at_minutes(t_s / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroundTrack, J2Propagator};

    fn paper_tle() -> Tle {
        Tle::paper_orbit()
    }

    #[test]
    fn rejects_deep_space() {
        // 6 rev/day is a 4-hour period: deep-space regime, unsupported.
        let err = Sgp4Propagator::new(&slow_tle());
        assert!(matches!(err, Err(OrbitError::InvalidElement { .. })));
    }

    fn slow_tle() -> Tle {
        // Rebuild the paper TLE with a 6 rev/day mean motion via its
        // formatted lines.
        let t = paper_tle();
        let (l1, l2) = t.to_lines();
        let l2 = format!("{} {:11.8}    1", &l2[..52], 6.0);
        let mut l2 = l2[..68].to_string();
        let c = Tle::checksum(&l2);
        l2.push(char::from_digit(c, 10).unwrap());
        Tle::parse(&l1, &l2).expect("valid slow TLE")
    }

    #[test]
    fn altitude_is_leo_and_stable_without_drag() {
        let p = Sgp4Propagator::new(&paper_tle()).unwrap();
        for i in 0..24 {
            let s = p.state_at_minutes(i as f64 * 10.0).unwrap();
            let alt_km = s.radius_m() / 1000.0 - EARTH_RADIUS_KM;
            assert!(alt_km > 430.0 && alt_km < 530.0, "alt {alt_km} at step {i}");
        }
    }

    #[test]
    fn period_matches_tle_mean_motion() {
        let p = Sgp4Propagator::new(&paper_tle()).unwrap();
        let period = p.period_s();
        assert!((period / 60.0 - 94.0).abs() < 1.0, "period {period}");
    }

    #[test]
    fn speed_is_orbital() {
        let p = Sgp4Propagator::new(&paper_tle()).unwrap();
        let s = p.state_at_minutes(17.0).unwrap();
        let v = s.speed_m_s();
        assert!(v > 7_200.0 && v < 7_900.0, "speed {v}");
    }

    #[test]
    fn agrees_with_j2_propagator_over_two_hours() {
        // Independent implementations sharing the dominant J2 secular
        // physics: positions must stay within tens of km over 2 h for a
        // drag-free LEO (well under a swath width).
        let tle = paper_tle();
        let sgp4 = Sgp4Propagator::new(&tle).unwrap();
        let j2 = J2Propagator::from_tle(&tle).unwrap();
        for i in 0..8 {
            let t = i as f64 * 900.0;
            let a = sgp4.state_at(t).unwrap().position;
            let b = j2.state_at(t).unwrap().position;
            let sep_km = (a - b).norm() / 1000.0;
            assert!(sep_km < 60.0, "separation {sep_km} km at t={t}");
        }
    }

    #[test]
    fn positive_bstar_decays_the_orbit() {
        // Craft a TLE with a large B* and compare mean altitude over a
        // day against the drag-free twin.
        let t = paper_tle();
        let (l1, l2) = t.to_lines();
        let mut l1_drag = format!("{} 10270-1 0  999", &l1[..53 - 1]);
        l1_drag.truncate(68);
        while l1_drag.len() < 68 {
            l1_drag.push(' ');
        }
        let c = Tle::checksum(&l1_drag);
        l1_drag.push(char::from_digit(c, 10).unwrap());
        let dragged = Tle::parse(&l1_drag, &l2).expect("valid dragged TLE");
        assert!(dragged.bstar() > 1e-3, "bstar {}", dragged.bstar());

        let p_free = Sgp4Propagator::new(&t).unwrap();
        let p_drag = Sgp4Propagator::new(&dragged).unwrap();
        let day_min = 1_440.0;
        let mean_alt = |p: &Sgp4Propagator| -> f64 {
            (0..16)
                .map(|i| {
                    p.state_at_minutes(day_min + i as f64 * 6.0)
                        .unwrap()
                        .radius_m()
                })
                .sum::<f64>()
                / 16.0
        };
        assert!(
            mean_alt(&p_drag) < mean_alt(&p_free) - 100.0,
            "drag {} vs free {}",
            mean_alt(&p_drag),
            mean_alt(&p_free)
        );
    }

    #[test]
    fn ground_track_from_sgp4_is_consistent() {
        // Subsatellite points from SGP4 positions behave like the J2
        // ground track: polar orbit reaches high latitude.
        let tle = paper_tle();
        let sgp4 = Sgp4Propagator::new(&tle).unwrap();
        let track = GroundTrack::new(J2Propagator::from_tle(&tle).unwrap());
        let mut max_lat: f64 = 0.0;
        for i in 0..100 {
            let t = i as f64 * 60.0;
            let pos = sgp4.state_at(t).unwrap().position;
            let geo = track.eci_to_ecef(pos, t).to_geodetic_spherical().unwrap();
            max_lat = max_lat.max(geo.lat_deg().abs());
        }
        assert!(max_lat > 78.0, "max lat {max_lat}");
    }
}
