//! Fig. 14a — fraction of targets one follower can capture as the
//! per-image target count grows. One follower saturates around ~10
//! targets per low-resolution image (paper), which is why sparse
//! workloads prefer more groups and dense workloads need more followers.

use eagleeye_bench::{print_csv, BenchCli, FAST, SEED, THREADS};
use eagleeye_core::schedule::{FollowerState, IlpScheduler, SchedulingProblem, TaskSpec};
use eagleeye_core::SensingSpec;

fn frame_with(n: usize, seed: u64) -> SchedulingProblem {
    let tasks: Vec<TaskSpec> = (0..n)
        .map(|i| {
            let r = (seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64 * 1442695))
                % 100_000;
            let x = (r % 170) as f64 * 1_000.0 - 85_000.0;
            let y = ((r / 170) % 110) as f64 * 1_000.0;
            TaskSpec::new(x, y, 1.0)
        })
        .collect();
    SchedulingProblem::new(
        SensingSpec::paper_default(),
        tasks,
        vec![FollowerState::at_start(-100_000.0)],
    )
    .expect("valid problem")
}

fn main() {
    let cli = BenchCli::parse(&[FAST, SEED, THREADS]);
    let counts: Vec<usize> = if cli.fast {
        vec![2, 5, 10, 25, 50, 100]
    } else {
        (1..=20).chain([25, 30, 40, 50, 75, 100]).collect()
    };
    let reps = if cli.fast { 3 } else { 8 };

    // Each (count, rep) cell is one independent scheduler run; fan them
    // all out and reduce per-count afterwards.
    let grid: Vec<(usize, usize)> = counts
        .iter()
        .flat_map(|&n| (0..reps).map(move |rep| (n, rep)))
        .collect();
    let fracs = cli.par_sweep_observed(&grid, |&(n, rep), metrics| {
        let p = frame_with(n, cli.seed + rep as u64 * 977);
        let (s, stats) = IlpScheduler::default()
            .schedule_with_stats(&p)
            .expect("scheduler run");
        if metrics.is_enabled() {
            metrics.add("ilp/subproblems", stats.subproblems as u64);
            metrics.add("ilp/nodes_explored", stats.nodes_explored as u64);
            metrics.add("ilp/lp_iterations", stats.lp_iterations as u64);
            metrics.add("ilp/deadline_hits", stats.deadline_hits as u64);
        }
        s.captured_count() as f64 / n as f64
    });
    let mut rows = Vec::new();
    for (i, &n) in counts.iter().enumerate() {
        let frac: f64 = fracs[i * reps..(i + 1) * reps].iter().sum::<f64>() / reps as f64;
        rows.push(format!("{n},{:.4}", frac));
        eprintln!("n={n}: covered fraction {:.2}", frac);
    }
    print_csv("targets_per_image,fraction_covered_by_one_follower", rows);
    cli.finish("fig14a_follower_capacity");
}
