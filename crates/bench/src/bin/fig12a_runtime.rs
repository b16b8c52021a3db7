//! Fig. 12a — scheduler runtime vs. target count: the ILP formulation
//! stays fast and roughly flat, while AB&B explodes combinatorially and
//! blows the 15 s frame deadline before ~19 targets.
//!
//! Synthetic frames are generated at increasing target counts with the
//! paper's geometry (100 km frame, ±92 km windows, 3 deg/s ADACS). ILP
//! and greedy report the fastest of [`RUNS`] runs, so a one-off stall of
//! the host does not stand in for the solver's cost; AB&B runs once, as
//! its blown instances sit at the deadline.

use eagleeye_bench::{print_csv, BenchCli, FAST, SEED};
use eagleeye_core::schedule::{
    AbbScheduler, FollowerState, GreedyScheduler, IlpScheduler, Scheduler, SchedulingProblem,
    TaskSpec,
};
use eagleeye_core::SensingSpec;
use std::time::{Duration, Instant};

fn synthetic_frame(n: usize, seed: u64) -> SchedulingProblem {
    let tasks: Vec<TaskSpec> = (0..n)
        .map(|i| {
            let r = (seed.wrapping_mul(2654435761).wrapping_add(i as u64 * 40503)) % 10_000;
            let x = (r % 170) as f64 * 1_000.0 - 85_000.0;
            let y = ((r / 170) % 110) as f64 * 1_000.0;
            TaskSpec::new(x, y, 0.5 + (r % 50) as f64 / 100.0)
        })
        .collect();
    SchedulingProblem::new(
        SensingSpec::paper_default(),
        tasks,
        vec![FollowerState::at_start(-100_000.0)],
    )
    .expect("valid problem")
}

/// Timed runs per instance for ILP and greedy.
const RUNS: usize = 3;

/// Wall time of the fastest of `runs` runs of `s` on `p`, and the
/// captured count (the schedulers are deterministic).
fn time_scheduler(s: &dyn Scheduler, p: &SchedulingProblem, runs: usize) -> (f64, usize) {
    (0..runs)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "this binary reports wall-clock latency; the timed result is deterministic"
            )]
            let start = Instant::now();
            let schedule = s.schedule(p).expect("scheduler run");
            (start.elapsed().as_secs_f64(), schedule.captured_count())
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one run")
}

fn main() {
    let cli = BenchCli::parse(&[FAST, SEED]);
    let counts: Vec<usize> = if cli.fast {
        vec![5, 10, 19, 40]
    } else {
        vec![2, 5, 10, 15, 19, 25, 40, 60, 80, 100]
    };
    // AB&B beyond ~20 targets takes the full 15 s deadline per instance;
    // cap it in fast mode to keep runs short while still showing the blowup.
    let abb_deadline = if cli.fast {
        Duration::from_secs(15)
    } else {
        Duration::from_secs(20)
    };

    let ilp = IlpScheduler::default();
    let greedy = GreedyScheduler;
    let abb = AbbScheduler::new(abb_deadline);

    let mut rows = Vec::new();
    for &n in &counts {
        let p = synthetic_frame(n, cli.seed);
        let (t_ilp, c_ilp) = time_scheduler(&ilp, &p, RUNS);
        if cli.metrics.is_enabled() {
            // Mirror the solver diagnostics of the timed instance (a
            // separate, untimed run so the CSV timings stay clean).
            let (_, stats) = ilp.schedule_with_stats(&p).expect("scheduler run");
            cli.metrics.add("ilp/subproblems", stats.subproblems as u64);
            cli.metrics
                .add("ilp/nodes_explored", stats.nodes_explored as u64);
            cli.metrics
                .add("ilp/lp_iterations", stats.lp_iterations as u64);
            cli.metrics
                .record_duration("bench/ilp_schedule", Duration::from_secs_f64(t_ilp));
        }
        let (t_greedy, c_greedy) = time_scheduler(&greedy, &p, RUNS);
        // Skip AB&B at very large counts outside fast mode (it would just
        // sit at the deadline).
        let (t_abb, c_abb) = if n <= 40 {
            time_scheduler(&abb, &p, 1)
        } else {
            (f64::NAN, 0)
        };
        rows.push(format!(
            "{n},{:.6},{},{:.6},{},{:.6},{}",
            t_ilp, c_ilp, t_greedy, c_greedy, t_abb, c_abb
        ));
        eprintln!(
            "n={n}: ilp {:.1} ms ({c_ilp}), greedy {:.1} ms ({c_greedy}), abb {:.1} s ({c_abb})",
            t_ilp * 1e3,
            t_greedy * 1e3,
            t_abb
        );
    }
    print_csv(
        "targets,ilp_s,ilp_captured,greedy_s,greedy_captured,abb_s,abb_captured",
        rows,
    );
    cli.finish("fig12a_runtime");
}
