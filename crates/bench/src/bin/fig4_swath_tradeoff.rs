//! Fig. 4 — the swath/GSD trade-off. Left: nine real cubesat cameras
//! (GSD vs. swath scatter). Right: fraction of targets captured in a
//! fixed horizon by homogeneous constellations at different swath
//! widths — wide swath covers everything at unusable resolution, narrow
//! swath leaves most targets unseen.

use eagleeye_bench::{print_csv, BenchCli, SWEEP};
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator};
use eagleeye_core::REAL_CUBESAT_CAMERAS;
use eagleeye_datasets::Workload;

fn main() {
    let cli = BenchCli::parse(SWEEP);

    // Left panel: the camera table.
    print_csv(
        "camera,swath_km,gsd_m",
        REAL_CUBESAT_CAMERAS
            .iter()
            .map(|(name, swath, gsd)| format!("{name},{swath},{gsd}")),
    );
    println!();

    // Right panel: coverage vs. satellites for the two operating points,
    // on the ship workload (the paper's motivating example).
    let targets = cli.workload(Workload::ShipDetection);
    let sat_counts = cli.sat_counts();
    let rows = cli.par_sweep_observed(&sat_counts, |&sats, metrics| {
        let opts = cli.options(metrics);
        let eval = CoverageEvaluator::new(&targets, opts);
        let low = eval
            .evaluate(&ConstellationConfig::LowResOnly { satellites: sats })
            .expect("coverage evaluation");
        let high = eval
            .evaluate(&ConstellationConfig::HighResOnly { satellites: sats })
            .expect("coverage evaluation");
        format!(
            "{sats},{:.4},{:.4}",
            low.coverage_fraction(),
            high.coverage_fraction()
        )
    });
    print_csv(
        "satellites,only_low_res_coverage,only_high_res_coverage",
        rows,
    );
    cli.finish("fig4_swath_tradeoff");
}
