//! Fig. 12b — CDF of detected targets per low-resolution image for the
//! four workloads, and the fraction of images exceeding the 19-target
//! point where AB&B becomes infeasible (up to 32 % in the paper).

use eagleeye_bench::{print_csv, BenchCli, SWEEP};
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator};
use eagleeye_datasets::Workload;

fn main() {
    let cli = BenchCli::parse(SWEEP);
    // One evaluation per workload, all four fanned out on --threads.
    let workloads: Vec<Workload> = Workload::ALL.into_iter().collect();
    let reports = cli.par_sweep_observed(&workloads, |&workload, metrics| {
        let targets = cli.workload(workload);
        let opts = cli.options(metrics);
        CoverageEvaluator::new(&targets, opts)
            .evaluate(&ConstellationConfig::eagleeye(1, 1))
            .expect("coverage evaluation")
    });
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for (workload, report) in workloads.iter().zip(&reports) {
        let mut counts = report.per_frame_target_counts.clone();
        counts.sort_unstable();
        if counts.is_empty() {
            continue;
        }
        for q in [10, 25, 50, 75, 90, 95, 99] {
            let idx = ((counts.len() - 1) * q) / 100;
            rows.push(format!("{},{},{}", workload.label(), q, counts[idx]));
        }
        summary.push(format!(
            "{},{:.3},{}",
            workload.label(),
            report.frames_above(19),
            counts[counts.len() - 1]
        ));
    }
    print_csv("workload,percentile,targets_per_image", rows);
    println!();
    print_csv("workload,fraction_above_19,max_targets_per_image", summary);
    cli.finish("fig12b_target_cdf");
}
