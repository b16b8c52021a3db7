//! Fig. 15 — normalized coverage vs. detector recall.
//!
//! Expected shape (paper): coverage decreases *slower* than recall —
//! even at recall 0.2 the constellation keeps well above 20 % of its
//! full coverage, because a high-resolution frame pointed at one
//! detected target often serendipitously contains undetected neighbors.

use eagleeye_bench::{print_csv, BenchCli, SWEEP};
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator, CoverageOptions};
use eagleeye_datasets::Workload;

fn main() {
    let cli = BenchCli::parse(SWEEP);
    let recalls: Vec<f64> = if cli.fast {
        vec![0.2, 0.5, 1.0]
    } else {
        vec![0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let groups = if cli.fast { 2 } else { 4 };
    let workloads: Vec<(Workload, _)> = Workload::ALL
        .into_iter()
        .map(|w| (w, cli.workload(w)))
        .collect();
    // All (workload, recall) evaluations are independent; the recall=1
    // baseline each row normalizes against is just another cell, so the
    // normalization happens after the parallel sweep.
    let grid: Vec<(usize, f64)> = (0..workloads.len())
        .flat_map(|wi| recalls.iter().rev().map(move |&r| (wi, r)))
        .collect();
    let coverages = cli.par_sweep_observed(&grid, |&(wi, recall), metrics| {
        let (workload, ref targets) = workloads[wi];
        let opts = CoverageOptions {
            recall,
            ..cli.options(metrics)
        };
        let report = CoverageEvaluator::new(targets, opts)
            .evaluate(&ConstellationConfig::eagleeye(groups, 1))
            .expect("coverage evaluation");
        eprintln!(
            "done: {} recall={recall} -> {:.1}%",
            workload.label(),
            100.0 * report.coverage_fraction()
        );
        report.coverage_fraction()
    });
    let mut rows = Vec::new();
    for (wi, (workload, _)) in workloads.iter().enumerate() {
        let base_idx = wi * recalls.len();
        // Grid order is descending recall, so the first cell of each
        // workload block is the recall-1.0 baseline.
        let base = coverages[base_idx].max(1e-9);
        for (j, &recall) in recalls.iter().rev().enumerate() {
            let cov = coverages[base_idx + j];
            rows.push(format!(
                "{},{recall},{:.4},{:.4}",
                workload.label(),
                cov,
                cov / base
            ));
        }
    }
    print_csv("workload,recall,coverage,normalized_coverage", rows);
    cli.finish("fig15_recall");
}
