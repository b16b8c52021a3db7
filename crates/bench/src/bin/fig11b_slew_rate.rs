//! Fig. 11b — coverage vs. constellation size at slew rates of 1, 3,
//! and 10 deg/s (EagleEye, 1 follower, ILP scheduling), with the
//! homogeneous baselines for reference.
//!
//! Expected shape (paper): faster slewing improves coverage; at 1 deg/s
//! on the dense Lake Monitoring (1.4M) workload EagleEye can fall below
//! High-Res Only because off-nadir pointing costs more than it gains.

use eagleeye_bench::{print_csv, BenchCli, SWEEP};
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator, CoverageOptions};
use eagleeye_core::{Adacs, SensingSpec};
use eagleeye_datasets::Workload;

fn main() {
    let cli = BenchCli::parse(SWEEP);
    let workloads: Vec<(Workload, _)> = Workload::ALL
        .into_iter()
        .map(|w| (w, cli.workload(w)))
        .collect();
    // (workload, slew rate or None for the high-res baseline, sats):
    // every cell is an independent evaluation, fanned out on --threads.
    let mut grid: Vec<(usize, Option<f64>, usize)> = Vec::new();
    for wi in 0..workloads.len() {
        for rate_deg_s in [1.0, 3.0, 10.0] {
            for sats in cli.sat_counts() {
                grid.push((wi, Some(rate_deg_s), sats));
            }
        }
        // High-res baseline for the crossover comparison.
        for sats in cli.sat_counts() {
            grid.push((wi, None, sats));
        }
    }
    let rows = cli.par_sweep_observed(&grid, |&(wi, rate, sats), metrics| {
        let (workload, ref targets) = workloads[wi];
        let spec = match rate {
            Some(r) => {
                SensingSpec::paper_default().with_adacs(Adacs::new(r, 0.67).expect("valid ADACS"))
            }
            None => SensingSpec::paper_default(),
        };
        let opts = CoverageOptions {
            spec,
            ..cli.options(metrics)
        };
        let config = match rate {
            Some(_) => ConstellationConfig::eagleeye((sats / 2).max(1), 1),
            None => ConstellationConfig::HighResOnly { satellites: sats },
        };
        let report = CoverageEvaluator::new(targets, opts)
            .evaluate(&config)
            .expect("coverage evaluation");
        match rate {
            Some(r) => {
                eprintln!(
                    "done: {} sats={} rate={} -> {:.1}%",
                    workload.label(),
                    sats,
                    r,
                    100.0 * report.coverage_fraction()
                );
                format!(
                    "{},{},{},{:.4}",
                    workload.label(),
                    sats,
                    r,
                    report.coverage_fraction()
                )
            }
            None => format!(
                "{},{},high-res-only,{:.4}",
                workload.label(),
                sats,
                report.coverage_fraction()
            ),
        }
    });
    print_csv("workload,satellites,slew_rate_deg_s,coverage", rows);
    cli.finish("fig11b_slew_rate");
}
