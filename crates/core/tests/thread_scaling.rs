//! Parallel-scaling gate for per-leader evaluation (DESIGN.md §8).
//!
//! An 8-group EagleEye evaluation at 8 threads must run at least 4×
//! faster than at 1 thread, cold or warm, whichever scaled better (warm
//! walls are memo replays of a few milliseconds and noisy). Only a
//! machine with at least 8 cores can show that, so on fewer the test
//! returns without measuring. It is a wall-clock gate, so it runs only
//! in optimised builds, and it sits in a test binary of its own so no
//! other test competes for the cores while it times.
//!
//! Leaders are the unit of parallel work, so the workload puts target
//! clumps under every leader's track (`common::under_leaders`): each
//! group carries a similar share, 33–63 ms of a 0.39 s cold evaluation
//! on a 2-vCPU VM, which bounds the ideal 8-thread speedup near 6×. A
//! ship workload over half an hour puts nearly all of its work in one
//! group and cannot show scaling at all.

#[expect(dead_code, reason = "only `under_leaders` is used here")]
mod common;

use common::under_leaders;
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator, CoverageOptions};
use eagleeye_obs::Stopwatch;

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate; runs under --release")]
fn eight_threads_evaluate_at_least_four_times_faster_than_one() {
    const REPS: usize = 3;
    let parallelism = eagleeye_exec::available_parallelism();
    if parallelism < 8 {
        eprintln!("speedup gate skipped: {parallelism} cores < 8");
        return;
    }
    let options = CoverageOptions {
        duration_s: 7_200.0,
        seed: 7,
        ..CoverageOptions::default()
    };
    let config = ConstellationConfig::eagleeye(8, 2);
    let targets = under_leaders(&options, &config, 0, 7);
    // (cold wall, best warm wall) of a fresh evaluator at `threads`.
    let walls = |threads: usize| {
        let eval = CoverageEvaluator::new(
            &targets,
            CoverageOptions {
                threads,
                ..options.clone()
            },
        );
        let mut cold = 0.0;
        let mut warm = f64::INFINITY;
        for rep in 0..REPS {
            let sw = Stopwatch::start();
            eval.evaluate(&config).expect("coverage evaluation");
            let wall = sw.elapsed().as_secs_f64();
            if rep == 0 {
                cold = wall;
            } else {
                warm = warm.min(wall);
            }
        }
        (cold, warm)
    };
    let (cold_1, warm_1) = walls(1);
    let (cold_8, warm_8) = walls(8);
    let speedup = (warm_1 / warm_8).max(cold_1 / cold_8);
    assert!(
        speedup >= 4.0,
        "8-thread speedup {speedup:.2}x < 4x on a {parallelism}-core machine \
         (cold {cold_1:.3} s -> {cold_8:.3} s, warm {warm_1:.4} s -> {warm_8:.4} s)"
    );
}
