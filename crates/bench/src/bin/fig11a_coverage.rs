//! Fig. 11a — coverage vs. constellation size for the four workloads,
//! comparing Low-Res Only, High-Res Only, EagleEye (ILP), and EagleEye
//! (Greedy). EagleEye uses 1 follower per group and the 3 deg/s ADACS.
//!
//! Expected shape (paper): EagleEye (ILP) ≥ EagleEye (Greedy) >
//! High-Res Only at every satellite count; Low-Res Only is the physical
//! ceiling (and saturates near 80 % for airplanes because late-departing
//! flights are unreachable).

use eagleeye_bench::{print_csv_outcome, BenchCli, SWEEP};
use eagleeye_core::clustering::ClusteringMethod;
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator, SchedulerKind};
use eagleeye_datasets::Workload;
use eagleeye_harden::RUN_LAYER;

fn main() {
    let cli = BenchCli::parse(&[SWEEP, RUN_LAYER].concat());
    // Generate the four workloads once, then fan the independent
    // (workload, satellites, config) evaluations out across --threads
    // workers; par_sweep returns rows in grid order, so the CSV is
    // identical to the sequential run.
    let workloads: Vec<(Workload, _)> = Workload::ALL
        .into_iter()
        .map(|w| (w, cli.workload(w)))
        .collect();
    let mut grid: Vec<(usize, usize, ConstellationConfig)> = Vec::new();
    for wi in 0..workloads.len() {
        for sats in cli.sat_counts() {
            let groups = (sats / 2).max(1);
            grid.push((
                wi,
                sats,
                ConstellationConfig::LowResOnly { satellites: sats },
            ));
            grid.push((
                wi,
                sats,
                ConstellationConfig::HighResOnly { satellites: sats },
            ));
            for scheduler in [SchedulerKind::Ilp, SchedulerKind::Greedy] {
                grid.push((
                    wi,
                    sats,
                    ConstellationConfig::EagleEye {
                        groups,
                        followers_per_group: 1,
                        scheduler,
                        clustering: ClusteringMethod::Ilp,
                    },
                ));
            }
        }
    }
    // The dense 24 h sweep runs for hours; the checkpointed path makes
    // it crash-safe (`--checkpoint fig11a.ckpt`, resume with
    // `--resume`) and `--deadline` turns it into an anytime result.
    // Without those flags this is the plain in-memory sweep.
    let outcome =
        cli.par_sweep_checkpointed("fig11a_coverage", &grid, |&(wi, sats, config), metrics| {
            let (workload, ref targets) = workloads[wi];
            let opts = cli.options(metrics);
            let report = CoverageEvaluator::new(targets, opts)
                .evaluate(&config)
                .expect("coverage evaluation");
            eprintln!(
                "done: {} sats={} {} -> {:.1}%",
                workload.label(),
                sats,
                config.label(),
                100.0 * report.coverage_fraction()
            );
            format!(
                "{},{},{},{:.4}",
                workload.label(),
                sats,
                config.label(),
                report.coverage_fraction()
            )
        });
    print_csv_outcome("workload,satellites,config,coverage", &outcome);
    cli.finish("fig11a_coverage");
}
