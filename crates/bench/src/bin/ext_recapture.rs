//! Extension ablation (paper §4.7 "Recapture"): unique-target coverage
//! with and without recapture deprioritization.
//!
//! When a leader re-identifies targets its own group already captured,
//! it can scale their priority down and steer its followers toward new
//! ones (a leader knows only its own group's captures). The hoped-for
//! shape is more unique coverage where revisits are common; the exact
//! `captured` column shows where that fails (see EXPERIMENTS.md,
//! EXT-RECAP).

use eagleeye_bench::{print_csv, BenchCli};
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator, CoverageOptions};
use eagleeye_datasets::Workload;

fn main() {
    let cli = BenchCli::parse();
    const POLICIES: [(&str, Option<f64>); 3] = [
        ("paper (no re-id)", None),
        ("deprioritize 0.1", Some(0.1)),
        ("ignore captured", Some(0.0)),
    ];
    let workloads: Vec<(Workload, _)> = Workload::ALL
        .into_iter()
        .map(|w| (w, cli.workload(w)))
        .collect();
    let grid: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|wi| (0..POLICIES.len()).map(move |pi| (wi, pi)))
        .collect();
    let rows = cli.par_sweep_observed(&grid, |&(wi, pi), metrics| {
        let (workload, ref targets) = workloads[wi];
        let (label, penalty) = POLICIES[pi];
        let opts = CoverageOptions {
            duration_s: cli.duration_s,
            seed: cli.seed,
            recapture_penalty: penalty,
            metrics: metrics.clone(),
            ..CoverageOptions::default()
        };
        let report = CoverageEvaluator::new(targets, opts)
            .evaluate(&ConstellationConfig::eagleeye(2, 1))
            .expect("coverage evaluation");
        eprintln!(
            "done: {} {} -> {:.2}%",
            workload.label(),
            label,
            100.0 * report.coverage_fraction()
        );
        format!(
            "{},{},{},{:.4},{}",
            workload.label(),
            label,
            report.captured,
            report.coverage_fraction(),
            report.captures_commanded
        )
    });
    print_csv(
        "workload,policy,captured,unique_coverage,captures_commanded",
        rows,
    );
    cli.finish("ext_recapture");
}
