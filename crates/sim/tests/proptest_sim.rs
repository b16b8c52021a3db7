//! Property-based tests for the energy simulator, on the
//! `eagleeye-check` harness (replay with `EAGLEEYE_CHECK_SEED`, scale
//! with `EAGLEEYE_CHECK_CASES`).

use eagleeye_check::{check_cases, f64_range, prop_assert, prop_assert_eq};
use eagleeye_sim::{simulate_orbit, ActivityProfile, PowerProfile};

const CASES: u32 = 64;

/// Orbit energy reports scale monotonically with activity: more
/// tiles, slewing, or transmit time never reduces consumption.
#[test]
fn consumption_is_monotone_in_activity() {
    check_cases(
        CASES,
        "consumption_is_monotone_in_activity",
        (
            f64_range(0.0, 500.0),
            f64_range(0.0, 50_000.0),
            f64_range(0.0, 2_000.0),
            f64_range(0.0, 600.0),
            f64_range(1.0, 2.0),
        ),
        |&(frames, tiles, slew, tx, extra)| {
            let power = PowerProfile::cubesat_3u();
            let base = ActivityProfile {
                frames_captured: frames,
                tiles_processed: tiles,
                per_tile_latency_s: 0.014,
                slew_s: slew,
                tx_s: tx,
            };
            let more = ActivityProfile {
                frames_captured: frames * extra,
                tiles_processed: tiles * extra,
                slew_s: slew * extra,
                tx_s: tx * extra,
                ..base
            };
            let r1 = simulate_orbit(&power, &base, 0.62, 5_640.0);
            let r2 = simulate_orbit(&power, &more, 0.62, 5_640.0);
            prop_assert!(r2.subsystems.total_j() >= r1.subsystems.total_j() - 1e-9);
            prop_assert_eq!(r1.harvested_j, r2.harvested_j);
            Ok(())
        },
    );
}

/// A leader at tile factor 3.5–6 runs a sustained deficit: every
/// orbit it consumes more than it harvests, so no battery carries it
/// for long (the paper's Fig. 16: 4× tiling breaks the leader's budget).
#[test]
fn sustained_deficit_browns_out() {
    check_cases(
        CASES,
        "sustained_deficit_browns_out",
        f64_range(3.5, 6.0),
        |&tile_factor| {
            let power = PowerProfile::cubesat_3u();
            let activity = ActivityProfile::leader_default(tile_factor);
            let report = simulate_orbit(&power, &activity, 0.62, 5_640.0);
            prop_assert!(!report.is_energy_feasible());
            Ok(())
        },
    );
}
