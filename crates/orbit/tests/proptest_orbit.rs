//! Property-based tests for the orbital mechanics substrate, on the
//! `eagleeye-check` harness (replay with `EAGLEEYE_CHECK_SEED`, scale
//! with `EAGLEEYE_CHECK_CASES`).

use eagleeye_check::{check_cases, f64_range, prop_assert, prop_assert_eq, prop_assume};
use eagleeye_geo::earth::{MEAN_RADIUS_M, MU_M3_S2};
use eagleeye_geo::{greatcircle, Vec3};
use eagleeye_orbit::{EciState, GroundTrack, J2Propagator, KeplerianElements};

const CASES: u32 = 64;

/// Specific orbital energy, J/kg: `v²/2 − μ/r`.
fn specific_energy(s: &EciState) -> f64 {
    s.velocity.dot(s.velocity) / 2.0 - MU_M3_S2 / s.radius_m()
}

/// Specific angular momentum vector, m²/s.
fn specific_angular_momentum(s: &EciState) -> Vec3 {
    s.position.cross(s.velocity)
}

/// Angle between two vectors in radians, in `[0, π]`, via the stable
/// `atan2(‖a×b‖, a·b)`.
fn angle_between(a: Vec3, b: Vec3) -> f64 {
    a.cross(b).norm().atan2(a.dot(b))
}

/// Two-body states from the element set conserve energy and angular
/// momentum along the whole orbit.
#[test]
fn two_body_invariants() {
    check_cases(
        CASES,
        "two_body_invariants",
        (
            f64_range(300.0, 2_000.0),
            f64_range(0.0, 0.3),
            f64_range(0.0, std::f64::consts::PI),
            f64_range(0.0, std::f64::consts::TAU),
        ),
        |&(alt_km, ecc, incl, m0)| {
            let a = MEAN_RADIUS_M + alt_km * 1000.0;
            // Keep perigee above the surface.
            prop_assume!(a * (1.0 - ecc) > MEAN_RADIUS_M + 100_000.0);
            let k = KeplerianElements::new(a, ecc, incl, 1.0, 0.5, m0).expect("valid");
            let s0 = k.eci_state_at_mean_anomaly(m0).expect("propagates");
            let e0 = specific_energy(&s0);
            let h0 = specific_angular_momentum(&s0);
            for i in 1..8 {
                let s = k
                    .eci_state_at_mean_anomaly(m0 + i as f64 * 0.7)
                    .expect("propagates");
                prop_assert!((specific_energy(&s) - e0).abs() / e0.abs() < 1e-8);
                prop_assert!((specific_angular_momentum(&s) - h0).norm() / h0.norm() < 1e-8);
            }
            // Vis-viva at epoch.
            let vis_viva = (MU_M3_S2 * (2.0 / s0.radius_m() - 1.0 / a)).sqrt();
            prop_assert!((s0.speed_m_s() - vis_viva).abs() / vis_viva < 1e-9);
            Ok(())
        },
    );
}

/// The subsatellite latitude never exceeds the inclination (or its
/// supplement for retrograde orbits).
#[test]
fn ground_track_latitude_is_bounded() {
    check_cases(
        CASES,
        "ground_track_latitude_is_bounded",
        (f64_range(10.0, 170.0), f64_range(0.0, 86_400.0)),
        |&(incl_deg, t)| {
            let incl = incl_deg.to_radians();
            let max_lat = incl.min(std::f64::consts::PI - incl).to_degrees();
            let track =
                GroundTrack::new(J2Propagator::circular(500_000.0, incl, 0.3, 0.7).expect("valid"));
            let s = track.state_at(t).expect("propagates");
            prop_assert!(
                s.subsatellite.lat_deg().abs() <= max_lat + 0.5,
                "lat {} exceeds bound {}",
                s.subsatellite.lat_deg(),
                max_lat
            );
            Ok(())
        },
    );
}

/// Circular-orbit altitude stays fixed under J2 propagation (secular
/// J2 perturbs angles, not energy).
#[test]
fn circular_altitude_is_stable() {
    check_cases(
        CASES,
        "circular_altitude_is_stable",
        (
            f64_range(350.0, 1_500.0),
            f64_range(20.0, 160.0),
            f64_range(0.0, 86_400.0),
        ),
        |&(alt_km, incl_deg, t)| {
            let p = J2Propagator::circular(alt_km * 1000.0, incl_deg.to_radians(), 0.0, 0.0)
                .expect("valid");
            let s = p.state_at(t).expect("propagates");
            let alt = s.radius_m() - MEAN_RADIUS_M;
            prop_assert!(
                (alt - alt_km * 1000.0).abs() < 5_000.0,
                "altitude drifted to {alt}"
            );
            Ok(())
        },
    );
}

/// Phase-shifting satellites preserves their angular separation over
/// time (rigid constellation rotation).
#[test]
fn phase_separation_is_preserved() {
    check_cases(
        CASES,
        "phase_separation_is_preserved",
        (f64_range(0.01, 1.0), f64_range(0.0, 40_000.0)),
        |&(delta, t)| {
            let incl = 97.2_f64.to_radians();
            let a = J2Propagator::circular(475_000.0, incl, 0.0, 0.0).expect("valid");
            let b = J2Propagator::circular(475_000.0, incl, 0.0, delta).expect("valid");
            let sa = a.state_at(t).expect("propagates");
            let sb = b.state_at(t).expect("propagates");
            let angle = angle_between(sa.position, sb.position);
            prop_assert!(
                (angle - delta).abs() < 2e-3,
                "separation {angle} vs {delta}"
            );
            Ok(())
        },
    );
}

/// `state_at_with_trig` is the ground point at `t` and at
/// `t + FD_DT_S` plus what it adds: its subsatellite latitude and
/// longitude bits are those of `ground_point_with_trig` at `t`, and its
/// heading bits are the bearing between the two ground points, across
/// orbits, times and GMST epochs.
#[test]
fn track_state_is_built_from_two_ground_points() {
    check_cases(
        CASES,
        "track_state_is_built_from_two_ground_points",
        (
            f64_range(350.0, 1_500.0),
            f64_range(20.0, 160.0),
            (
                f64_range(0.0, std::f64::consts::TAU),
                f64_range(0.0, std::f64::consts::TAU),
            ),
            f64_range(-1.0, std::f64::consts::TAU + 1.0),
            f64_range(0.0, 86_400.0),
        ),
        |&(alt_km, incl_deg, (raan, phase), gmst0, t)| {
            let track = GroundTrack::new(
                J2Propagator::circular(alt_km * 1000.0, incl_deg.to_radians(), raan, phase)
                    .expect("valid"),
            )
            .with_gmst_epoch(gmst0);
            let theta0 = track.gmst_epoch_rad();
            let fd_t = t + GroundTrack::FD_DT_S;
            let sc = GroundTrack::gmst_at(theta0, t).sin_cos();
            let sc_fd = GroundTrack::gmst_at(theta0, fd_t).sin_cos();
            let state = track.state_at_with_trig(t, sc, sc_fd).expect("propagates");
            let sub = track.ground_point_with_trig(t, sc).expect("propagates");
            let sub2 = track
                .ground_point_with_trig(fd_t, sc_fd)
                .expect("propagates");
            prop_assert_eq!(
                state.subsatellite.lat_rad().to_bits(),
                sub.lat_rad().to_bits()
            );
            prop_assert_eq!(
                state.subsatellite.lon_rad().to_bits(),
                sub.lon_rad().to_bits()
            );
            prop_assert_eq!(
                state.heading_rad.to_bits(),
                greatcircle::initial_bearing_rad(&sub, &sub2).to_bits()
            );
            prop_assert!(state.subsatellite.with_altitude(0.0).expect("ground point") == sub);
            prop_assert!(state == track.state_at(t).expect("propagates"));
            Ok(())
        },
    );
}
