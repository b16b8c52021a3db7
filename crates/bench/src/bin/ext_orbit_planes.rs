//! Extension ablation (paper §4.7 "Orbit Design"): spreading groups
//! across multiple orbital planes to reduce ground-track overlap.
//!
//! Expected shape: with several groups in one plane, successive leaders
//! resample nearly the same track within minutes; spreading planes
//! samples more distinct longitudes, improving coverage for the same
//! satellite count as the constellation grows.

use eagleeye_bench::{print_csv, BenchCli, SWEEP};
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator, CoverageOptions};
use eagleeye_datasets::Workload;

fn main() {
    let cli = BenchCli::parse(SWEEP);
    let workloads: Vec<(Workload, _)> = [Workload::ShipDetection, Workload::LakeMonitoring166K]
        .into_iter()
        .map(|w| (w, cli.workload(w)))
        .collect();
    let mut grid: Vec<(usize, usize, usize)> = Vec::new();
    for wi in 0..workloads.len() {
        for groups in [4usize, 8] {
            for planes in [1usize, 2, 4] {
                grid.push((wi, groups, planes));
            }
        }
    }
    let rows = cli.par_sweep_observed(&grid, |&(wi, groups, planes), metrics| {
        let (workload, ref targets) = workloads[wi];
        let opts = CoverageOptions {
            orbital_planes: planes,
            ..cli.options(metrics)
        };
        let report = CoverageEvaluator::new(targets, opts)
            .evaluate(&ConstellationConfig::eagleeye(groups, 1))
            .expect("coverage evaluation");
        eprintln!(
            "done: {} sats={} planes={planes} -> {:.2}%",
            workload.label(),
            groups * 2,
            100.0 * report.coverage_fraction()
        );
        format!(
            "{},{},{},{:.4}",
            workload.label(),
            groups * 2,
            planes,
            report.coverage_fraction()
        )
    });
    print_csv("workload,satellites,planes,coverage", rows);
    cli.finish("ext_orbit_planes");
}
