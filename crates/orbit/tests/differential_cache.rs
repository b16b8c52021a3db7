//! Differential oracle: `EpochGrid` batched propagation (full states,
//! and ground points with their finite-difference heading) must be
//! **bit-identical** to direct per-epoch
//! `GroundTrack::state_at` calls, across random constellations, frame
//! cadences, horizons, and GMST epochs — including the grid's
//! trig-memoization fast path and its mismatched-epoch fallback.
//! On the `eagleeye-check` harness (replay with `EAGLEEYE_CHECK_SEED`,
//! scale with `EAGLEEYE_CHECK_CASES`).

use eagleeye_check::{check_cases, f64_range, prop_assert, prop_assert_eq, vec_of, Gen};
use eagleeye_geo::greatcircle::initial_bearing_rad;
use eagleeye_geo::GeodeticPoint;
use eagleeye_obs::Metrics;
use eagleeye_orbit::{EpochGrid, GroundTrack, J2Propagator, TrackState};

const CASES: u32 = 64;

/// Every track propagated over `grid`, indexed `[satellite][frame]`.
fn propagate_all(tracks: &[GroundTrack], grid: &EpochGrid) -> Vec<Vec<TrackState>> {
    tracks
        .iter()
        .map(|track| grid.propagate(track).expect("grid propagates"))
        .collect()
}

/// Whether epoch `k`'s ground point, and the bearing from it to the
/// grid's finite-difference point, are the subsatellite point (at
/// altitude 0) and heading of direct `state_at`, bit for bit.
fn matches_ground_points(
    grid: &EpochGrid,
    track: &GroundTrack,
    k: usize,
    point: &GeodeticPoint,
) -> bool {
    let direct = track
        .state_at(grid.epochs()[k])
        .expect("direct propagation");
    let fd = grid.fd_ground_point(track, k).expect("fd propagation");
    *point
        == direct
            .subsatellite
            .with_altitude(0.0)
            .expect("ground point")
        && initial_bearing_rad(point, &fd).to_bits() == direct.heading_rad.to_bits()
}

fn tracks_gen() -> impl Gen<Value = Vec<GroundTrack>> {
    (
        f64_range(350_000.0, 1_200_000.0),
        f64_range(20.0, 160.0),
        vec_of(f64_range(0.0, std::f64::consts::TAU), 1, 5),
    )
        .map(|(alt_m, incl_deg, phases)| {
            phases
                .into_iter()
                .map(|phase| {
                    GroundTrack::new(
                        J2Propagator::circular(alt_m, incl_deg.to_radians(), 0.0, phase)
                            .expect("valid orbit"),
                    )
                })
                .collect()
        })
}

/// Grid-propagated states equal direct `state_at` results exactly
/// (`==`, not within-epsilon) on the shared-trig fast path.
#[test]
fn cache_matches_direct_propagation_bitwise() {
    check_cases(
        CASES,
        "cache_matches_direct_propagation_bitwise",
        (tracks_gen(), f64_range(1.0, 60.0), f64_range(30.0, 4_000.0)),
        |(tracks, cadence_s, duration_s)| {
            let grid = EpochGrid::for_horizon(0.0, *duration_s, *cadence_s);
            prop_assert!(!grid.is_empty(), "horizon {duration_s} produced no epochs");
            for (i, track) in tracks.iter().enumerate() {
                let row = grid.propagate(track).expect("grid propagates");
                let points = grid
                    .ground_points(track, &Metrics::disabled())
                    .expect("grid propagates");
                prop_assert_eq!(row.len(), grid.len());
                prop_assert_eq!(points.len(), grid.len());
                for (k, &t) in grid.epochs().iter().enumerate() {
                    let direct = track.state_at(t).expect("direct propagation");
                    prop_assert!(
                        row[k] == direct && matches_ground_points(&grid, track, k, &points[k]),
                        "sat {} frame {} (t={}) diverges from direct propagation",
                        i,
                        k,
                        t
                    );
                }
            }
            Ok(())
        },
    );
}

/// A track whose GMST epoch differs from the grid's takes the
/// fallback (non-memoized) path — and must still match `state_at`
/// exactly.
#[test]
fn gmst_mismatch_fallback_matches_direct_propagation() {
    check_cases(
        CASES,
        "gmst_mismatch_fallback_matches_direct_propagation",
        (
            f64_range(400_000.0, 900_000.0),
            f64_range(30.0, 150.0),
            f64_range(1e-6, std::f64::consts::TAU),
            f64_range(5.0, 60.0),
            f64_range(60.0, 2_000.0),
        ),
        |&(alt_m, incl_deg, gmst_rad, cadence_s, duration_s)| {
            let track = GroundTrack::new(
                J2Propagator::circular(alt_m, incl_deg.to_radians(), 0.0, 0.0)
                    .expect("valid orbit"),
            )
            .with_gmst_epoch(gmst_rad);
            let grid = EpochGrid::for_horizon(0.0, duration_s, cadence_s);
            prop_assert!(track.gmst_epoch_rad() != grid.gmst_epoch_rad());
            let row = grid.propagate(&track).expect("fallback propagation");
            let points = grid
                .ground_points(&track, &Metrics::disabled())
                .expect("fallback propagation");
            for (k, &t) in grid.epochs().iter().enumerate() {
                let direct = track.state_at(t).expect("direct propagation");
                prop_assert!(
                    row[k] == direct && matches_ground_points(&grid, &track, k, &points[k]),
                    "fallback frame {} (t={}) diverges from direct propagation",
                    k,
                    t
                );
            }
            Ok(())
        },
    );
}

/// Checkpoint/resume re-warm: a run killed after frame `k` builds a
/// *fresh* `EpochGrid` in a new process for the remaining frames (trig
/// memoization and all warm state are gone). Splitting the epoch grid
/// at any boundary and propagating each half from cold must
/// concatenate to the single-process rows bit-for-bit — otherwise a
/// resumed run could diverge from an uninterrupted one.
#[test]
fn cache_rewarm_across_resume_boundary_is_bitwise_identical() {
    check_cases(
        CASES,
        "cache_rewarm_across_resume_boundary_is_bitwise_identical",
        (
            tracks_gen(),
            f64_range(1.0, 60.0),
            f64_range(120.0, 4_000.0),
            f64_range(0.0, 1.0),
        ),
        |(tracks, cadence_s, duration_s, split_frac)| {
            let grid = EpochGrid::for_horizon(0.0, *duration_s, *cadence_s);
            let full = propagate_all(tracks, &grid);
            // The resumed process re-derives the same epoch list from
            // the scenario, then processes only the remaining frames.
            let k = ((grid.len() as f64) * split_frac) as usize;
            let before = EpochGrid::new(0.0, grid.epochs()[..k].to_vec());
            let after = EpochGrid::new(0.0, grid.epochs()[k..].to_vec());
            let rows_before = propagate_all(tracks, &before);
            let rows_after = propagate_all(tracks, &after);
            for i in 0..tracks.len() {
                let rejoined: Vec<_> = rows_before[i].iter().chain(&rows_after[i]).collect();
                prop_assert_eq!(rejoined.len(), grid.len());
                for (frame, (&got, want)) in rejoined.iter().zip(&full[i]).enumerate() {
                    prop_assert!(
                        got == want,
                        "sat {} frame {} (split at {}) diverges after a cold re-warm",
                        i,
                        frame,
                        k
                    );
                }
            }
            Ok(())
        },
    );
}

/// `frame_epochs` reproduces the evaluator's historical accumulation
/// loop float-for-float, for arbitrary cadences and horizons.
#[test]
fn frame_epochs_match_the_accumulation_loop() {
    check_cases(
        CASES,
        "frame_epochs_match_the_accumulation_loop",
        (f64_range(0.1, 90.0), f64_range(0.0, 5_000.0)),
        |&(cadence_s, duration_s)| {
            let epochs = eagleeye_orbit::frame_epochs(duration_s, cadence_s);
            let mut expected = Vec::new();
            let mut t = 0.0;
            while t < duration_s {
                expected.push(t);
                t += cadence_s;
            }
            prop_assert_eq!(&epochs, &expected);
            Ok(())
        },
    );
}
