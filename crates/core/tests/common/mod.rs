//! Scenario generators shared by the coverage differential suites.

use eagleeye_core::clustering::ClusteringMethod;
use eagleeye_core::coverage::{ConstellationConfig, CoverageOptions, DegradedMode, SchedulerKind};
use eagleeye_datasets::{Target, TargetSet};
use eagleeye_geo::GeodeticPoint;
use eagleeye_orbit::{ConstellationLayout, EpochGrid, SatelliteRole};

/// Deterministic jitter in `[-scale/2, scale/2]`, a pure function of
/// `(seed, i, salt)` — keeps workloads varied across cases but exactly
/// reproducible from the harness seed.
pub fn jitter(seed: u64, i: usize, salt: u64, scale: f64) -> f64 {
    let x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(salt)
        .wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
}

/// Clumps of targets around every leader's subsatellite points — the
/// layout built as the evaluator builds it for `config` under
/// `options` — so scenarios detect, cluster, schedule and capture on
/// most frames, and the clustering methods disagree. `kind` 0: static,
/// two clumps of four on every third frame; 1: the same, moving, with
/// existence windows around the pass; 2: sparse, every fifteenth frame
/// only, which hits the empty-frame paths.
pub fn under_leaders(
    options: &CoverageOptions,
    config: &ConstellationConfig,
    kind: usize,
    seed: u64,
) -> TargetSet {
    let (groups, followers) = match *config {
        ConstellationConfig::EagleEye {
            groups,
            followers_per_group,
            ..
        } => (groups, followers_per_group),
        ConstellationConfig::LowResOnly { satellites }
        | ConstellationConfig::HighResOnly { satellites }
        | ConstellationConfig::MixCamera { satellites, .. } => (satellites, 0),
    };
    let spec = &options.spec;
    let layout = ConstellationLayout::with_planes_slotted(
        groups,
        followers,
        spec.altitude_m,
        options.inclination_rad,
        options.orbital_planes,
        options.layout_slots.unwrap_or(groups),
    )
    .expect("valid layout");
    let grid = EpochGrid::for_horizon(0.0, options.duration_s, spec.frame_cadence_s);
    let stride = if kind == 2 { 15 } else { 3 };
    let leaders = layout
        .satellites()
        .iter()
        .filter(|s| s.role == SatelliteRole::Leader);
    let mut targets = Vec::new();
    for (l, leader) in leaders.enumerate() {
        let states = grid
            .propagate(&layout.ground_track(leader).expect("ground track"))
            .expect("propagation");
        for (f, state) in states.iter().enumerate().step_by(stride) {
            let t = grid.epochs()[f];
            for clump in 0..2 {
                let salt = ((l * states.len() + f) * 2 + clump) as u64 * 8;
                let lat = state.subsatellite.lat_deg() + jitter(seed, 0, salt, 0.6);
                let lon = state.subsatellite.lon_deg() + jitter(seed, 0, salt ^ 1, 0.6);
                for i in 1..5 {
                    let mut target = Target::fixed(
                        GeodeticPoint::from_degrees(
                            (lat + jitter(seed, i, salt, 0.1)).clamp(-89.0, 89.0),
                            lon + jitter(seed, i, salt ^ 1, 0.1),
                            0.0,
                        )
                        .expect("valid"),
                        1.0 + jitter(seed, i, salt ^ 2, 0.8),
                    );
                    if kind == 1 {
                        target.motion = Some((
                            120.0 + jitter(seed, i, salt ^ 3, 200.0).abs(),
                            jitter(seed, i, salt ^ 4, std::f64::consts::TAU).abs(),
                        ));
                        target.appears_at_s = (t - jitter(seed, i, salt ^ 5, 600.0).abs()).max(0.0);
                        target.disappears_at_s =
                            target.appears_at_s + 300.0 + jitter(seed, i, salt ^ 6, 1_800.0).abs();
                    }
                    targets.push(target);
                }
            }
        }
    }
    targets.into_iter().collect()
}

pub fn scheduler_for(kind: usize) -> SchedulerKind {
    // `Abb` is deliberately absent: it is a wall-clock-budgeted
    // anytime solver, so its schedules are not run-to-run
    // deterministic and no evaluation can reproduce them exactly.
    match kind % 2 {
        0 => SchedulerKind::Ilp,
        _ => SchedulerKind::Greedy,
    }
}

/// Every fault response: with [`scheduler_for`], a suite drawing
/// `kind` from `0..3` reaches every (scheduler, mode) pair, the ILP
/// under `Repair` (validation, provenance labels, mid-pass repair)
/// included.
pub fn degraded_mode_for(kind: usize) -> DegradedMode {
    match kind % 3 {
        0 => DegradedMode::Naive,
        1 => DegradedMode::Exclude,
        _ => DegradedMode::Repair,
    }
}

pub fn clustering_for(kind: usize) -> ClusteringMethod {
    match kind % 3 {
        0 => ClusteringMethod::Ilp,
        1 => ClusteringMethod::Greedy,
        _ => ClusteringMethod::None,
    }
}
