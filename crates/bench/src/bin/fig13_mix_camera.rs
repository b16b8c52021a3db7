//! Fig. 13 — leader-follower vs. mix-camera at equal satellite count,
//! with mix-camera compute times from the five YOLOv8 variants
//! (1.4 / 2.6 / 5.5 / 8.6 / 11.8 s).
//!
//! Expected shape (paper): mix-camera coverage degrades as compute time
//! grows and collapses to ~0 at Yolo_x (11.8 s leaves no slack in the
//! 15 s frame for pointing and capture); leader-follower is unaffected
//! by compute time because followers trail the leader.

use eagleeye_bench::{print_csv, BenchCli, SWEEP};
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator};
use eagleeye_datasets::Workload;
use eagleeye_detect::YoloVariant;

fn main() {
    let cli = BenchCli::parse(SWEEP);
    let sats = 4; // Fig. 5's running example size
    let workloads: Vec<(Workload, _)> = Workload::ALL
        .into_iter()
        .map(|w| (w, cli.workload(w)))
        .collect();
    // One grid cell per (workload, row): the leader-follower baseline
    // or one YOLO variant (whose equal-sats and equal-groups runs stay
    // together so each row is produced by a single worker).
    let mut grid: Vec<(usize, Option<YoloVariant>)> = Vec::new();
    for wi in 0..workloads.len() {
        grid.push((wi, None));
        for variant in YoloVariant::ALL {
            grid.push((wi, Some(variant)));
        }
    }
    let rows = cli.par_sweep_observed(&grid, |&(wi, variant), metrics| {
        let (workload, ref targets) = workloads[wi];
        let opts = cli.options(metrics);
        let eval = CoverageEvaluator::new(targets, opts);
        match variant {
            None => {
                let lf = eval
                    .evaluate(&ConstellationConfig::eagleeye(sats / 2, 1))
                    .expect("coverage evaluation");
                format!(
                    "{},leader-follower,0,{:.4},{:.4}",
                    workload.label(),
                    lf.coverage_fraction(),
                    lf.coverage_fraction()
                )
            }
            Some(variant) => {
                let compute = variant.paper_frame_time_s();
                // Equal satellite count: 4 mix satellites fly 4 tracks (twice
                // the leader-follower ground coverage) but each loses capture
                // time to compute.
                let mix_sats = eval
                    .evaluate(&ConstellationConfig::MixCamera {
                        satellites: sats,
                        compute_time_s: compute,
                    })
                    .expect("coverage evaluation");
                // Equal group count: isolates the compute-delay mechanism of
                // the paper's Fig. 9 (one mix satellite per leader-follower
                // group).
                let mix_groups = eval
                    .evaluate(&ConstellationConfig::MixCamera {
                        satellites: sats / 2,
                        compute_time_s: compute,
                    })
                    .expect("coverage evaluation");
                eprintln!(
                    "done: {} {variant} ({}s) -> {:.1}% / {:.1}%",
                    workload.label(),
                    compute,
                    100.0 * mix_sats.coverage_fraction(),
                    100.0 * mix_groups.coverage_fraction()
                );
                format!(
                    "{},mix-camera({variant}),{compute},{:.4},{:.4}",
                    workload.label(),
                    mix_sats.coverage_fraction(),
                    mix_groups.coverage_fraction()
                )
            }
        }
    });
    print_csv(
        "workload,config,compute_time_s,coverage_equal_sats,coverage_equal_groups",
        rows,
    );
    cli.finish("fig13_mix_camera");
}
