//! Fig. 11c — coverage vs. constellation size with 1–6 followers per
//! group (EagleEye, ILP scheduling).
//!
//! Expected shape (paper): for sparse workloads (ships, planes) one
//! follower per group is most efficient — extra satellites are better
//! spent on more groups; the dense Lake Monitoring (1.4M) workload needs
//! more followers per group.

use eagleeye_bench::{print_csv, BenchCli, SWEEP};
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator};
use eagleeye_datasets::Workload;

fn main() {
    let cli = BenchCli::parse(SWEEP);
    let follower_counts: Vec<usize> = if cli.fast {
        vec![1, 3, 6]
    } else {
        vec![1, 2, 3, 4, 5, 6]
    };
    let workloads: Vec<(Workload, _)> = Workload::ALL
        .into_iter()
        .map(|w| (w, cli.workload(w)))
        .collect();
    let mut grid: Vec<(usize, usize, usize)> = Vec::new();
    for wi in 0..workloads.len() {
        for sats in cli.sat_counts() {
            for &followers in &follower_counts {
                let group_size = followers + 1;
                if sats / group_size > 0 {
                    grid.push((wi, sats, followers));
                }
            }
        }
    }
    let rows = cli.par_sweep_observed(&grid, |&(wi, sats, followers), metrics| {
        let (workload, ref targets) = workloads[wi];
        let group_size = followers + 1;
        let groups = sats / group_size;
        let opts = cli.options(metrics);
        let report = CoverageEvaluator::new(targets, opts)
            .evaluate(&ConstellationConfig::eagleeye(groups, followers))
            .expect("coverage evaluation");
        eprintln!(
            "done: {} sats={} followers={} -> {:.1}%",
            workload.label(),
            groups * group_size,
            followers,
            100.0 * report.coverage_fraction()
        );
        format!(
            "{},{},{},{:.4}",
            workload.label(),
            groups * group_size,
            followers,
            report.coverage_fraction()
        )
    });
    print_csv("workload,satellites,followers_per_group,coverage", rows);
    cli.finish("fig11c_followers");
}
