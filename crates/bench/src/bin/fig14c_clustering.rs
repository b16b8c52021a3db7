//! Fig. 14c — coverage with and without target clustering across the
//! four workloads (EagleEye, 1 follower, ILP scheduling).
//!
//! Expected shape (paper): clustering adds 1.5–31.7 % coverage, with the
//! largest gains at high target density (Lake Monitoring).

use eagleeye_bench::{print_csv, BenchCli, SWEEP};
use eagleeye_core::clustering::ClusteringMethod;
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator, SchedulerKind};
use eagleeye_datasets::Workload;

fn main() {
    let cli = BenchCli::parse(SWEEP);
    let sats_groups = if cli.fast { 2 } else { 6 };
    const METHODS: [ClusteringMethod; 3] = [
        ClusteringMethod::None,
        ClusteringMethod::Greedy,
        ClusteringMethod::Ilp,
    ];
    let workloads: Vec<(Workload, _)> = Workload::ALL
        .into_iter()
        .map(|w| (w, cli.workload(w)))
        .collect();
    let grid: Vec<(usize, ClusteringMethod)> = (0..workloads.len())
        .flat_map(|wi| METHODS.iter().map(move |&m| (wi, m)))
        .collect();
    let coverages = cli.par_sweep_observed(&grid, |&(wi, clustering), metrics| {
        let (workload, ref targets) = workloads[wi];
        let opts = cli.options(metrics);
        let report = CoverageEvaluator::new(targets, opts)
            .evaluate(&ConstellationConfig::EagleEye {
                groups: sats_groups,
                followers_per_group: 1,
                scheduler: SchedulerKind::Ilp,
                clustering,
            })
            .expect("coverage evaluation");
        eprintln!(
            "done: {} {:?} -> {:.1}%",
            workload.label(),
            clustering,
            100.0 * report.coverage_fraction()
        );
        report.coverage_fraction()
    });
    let mut rows = Vec::new();
    for (wi, (workload, _)) in workloads.iter().enumerate() {
        let values = &coverages[wi * METHODS.len()..(wi + 1) * METHODS.len()];
        let improvement = if values[0] > 0.0 {
            (values[2] - values[0]) / values[0] * 100.0
        } else {
            0.0
        };
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.1}",
            workload.label(),
            values[0],
            values[1],
            values[2],
            improvement
        ));
    }
    print_csv(
        "workload,no_clustering,greedy_clustering,ilp_clustering,ilp_gain_pct",
        rows,
    );
    cli.finish("fig14c_clustering");
}
