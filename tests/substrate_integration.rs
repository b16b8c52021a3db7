//! Integration tests across the substrate crates: orbit ↔ geo geometry,
//! sim ↔ detect timing consistency, and dataset ↔ index behaviour.

use eagleeye::datasets::{AirplaneGenerator, LakeGenerator, LakeSizeBand, ShipGenerator};
use eagleeye::detect::{TilingConfig, YoloVariant};
use eagleeye::geo::{greatcircle, GeodeticPoint};
use eagleeye::orbit::{ConstellationLayout, GroundTrack, J2Propagator, SatelliteRole};
use eagleeye::sim::{simulate_orbit, ActivityProfile, PowerProfile};

#[test]
fn follower_lags_leader_by_the_design_distance() {
    let layout =
        ConstellationLayout::with_planes(1, 1, 475_000.0, 97.2_f64.to_radians(), 1).unwrap();
    let sats = layout.satellites();
    let leader = layout.ground_track(&sats[0]).unwrap();
    let follower = layout.ground_track(&sats[1]).unwrap();
    // At equal times the two subsatellite points are ~100 km apart.
    for t in [0.0, 600.0, 2_000.0] {
        let a = leader.state_at(t).unwrap().subsatellite;
        let b = follower.state_at(t).unwrap().subsatellite;
        let d = greatcircle::distance_m(
            &a.with_altitude(0.0).unwrap(),
            &b.with_altitude(0.0).unwrap(),
        );
        assert!((d - 100_000.0).abs() < 5_000.0, "separation {d} m at t={t}");
    }
}

#[test]
fn constellation_roles_partition_satellites() {
    let layout =
        ConstellationLayout::with_planes(3, 2, 475_000.0, 97.2_f64.to_radians(), 1).unwrap();
    let leaders = layout
        .satellites()
        .iter()
        .filter(|s| s.role == SatelliteRole::Leader)
        .count();
    let followers = layout
        .satellites()
        .iter()
        .filter(|s| s.role == SatelliteRole::Follower)
        .count();
    assert_eq!(leaders, 3);
    assert_eq!(followers, 6);
}

#[test]
fn ground_track_sunlight_feeds_energy_model() {
    let track = GroundTrack::new(
        J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, 0.0).unwrap(),
    );
    let sunlit = track.sunlit_fraction(720).unwrap();
    let report = simulate_orbit(
        &PowerProfile::cubesat_3u(),
        &ActivityProfile::leader_default(1.0),
        sunlit,
        track.propagator().period_s(),
    );
    // The measured sunlit fraction must keep the nominal leader feasible.
    assert!(
        report.is_energy_feasible(),
        "sunlit {sunlit}: leader infeasible"
    );
}

#[test]
fn yolo_frame_times_drive_activity_compute() {
    // The sim crate's leader activity must agree with the detect crate's
    // frame-time model at the default tiling.
    let tiling = TilingConfig::paper_default();
    let frame_time = YoloVariant::N.frame_processing_time_s(&tiling);
    let leader = ActivityProfile::leader_default(1.0);
    let per_frame = leader.compute_s() / leader.frames_captured;
    assert!(
        (per_frame - frame_time).abs() < 0.05,
        "sim {per_frame} vs detect {frame_time}"
    );
}

#[test]
fn datasets_compose_with_spatial_queries_at_scale() {
    let lakes = LakeGenerator::new(LakeSizeBand::TenthToTenKm2)
        .with_count(200_000)
        .generate(5);
    let boreal = GeodeticPoint::from_degrees(60.0, -100.0, 0.0).unwrap();
    let sahara = GeodeticPoint::from_degrees(25.0, 10.0, 0.0).unwrap();
    let near_boreal = lakes.query_radius(&boreal, 150_000.0, 0.0).len();
    let near_sahara = lakes.query_radius(&sahara, 150_000.0, 0.0).len();
    assert!(
        near_boreal > 5 * (near_sahara + 1),
        "boreal {near_boreal} vs sahara {near_sahara}"
    );
}

#[test]
fn airplanes_move_between_queries() {
    let planes = AirplaneGenerator::new()
        .with_count(3_000)
        .with_horizon_s(7_200.0)
        .generate(6);
    // Pick a flight that exists at t=0 and check its position changes.
    let flying = planes
        .iter()
        .enumerate()
        .find(|(_, t)| t.exists_at(600.0) && t.disappears_at_s > 1_800.0)
        .expect("some flight spans the interval");
    let (_, t) = flying;
    let a = t.position_at(600.0);
    let b = t.position_at(1_800.0);
    let moved = greatcircle::distance_m(&a, &b);
    let expected = t.speed_m_s() * 1_200.0;
    assert!(
        (moved - expected).abs() < 2_000.0,
        "moved {moved}, expected {expected}"
    );
}

#[test]
fn ship_lanes_produce_multi_target_frames() {
    // The clustering/scheduling story requires frames with many ships;
    // verify lane clustering produces 100 km neighborhoods with >= 5
    // ships at full scale.
    let ships = ShipGenerator::new().with_count(19_119).generate(7);
    let mut dense_neighborhoods = 0;
    for i in (0..ships.len()).step_by(97) {
        let p = ships.target(i).position;
        if ships.query_radius(&p, 50_000.0, 0.0).len() >= 5 {
            dense_neighborhoods += 1;
        }
    }
    assert!(
        dense_neighborhoods > 20,
        "only {dense_neighborhoods} dense neighborhoods"
    );
}
