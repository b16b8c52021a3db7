//! Fig. 3 — the two-stage oil-tank task vs. GSD: (a) detection accuracy
//! stays high from 0.7 to 11.5 m/px, while (b) volume-estimation error
//! (50th / 90th percentile) grows until the estimates are useless.
//!
//! This is the paper's motivation that some analytics have resolution
//! thresholds: the low-res leader can *find* tanks, but only a high-res
//! follower can *measure* them.

use eagleeye_bench::{print_csv, BenchCli, FAST, SEED};
use eagleeye_datasets::OilTankGenerator;
use eagleeye_detect::{DetectorModel, VolumeEstimator};

fn main() {
    let cli = BenchCli::parse(&[FAST, SEED]);
    let farms = OilTankGenerator::new()
        .with_farm_count(if cli.fast { 100 } else { 500 })
        .generate(cli.seed);
    let tanks: Vec<(f64, f64)> = farms
        .iter()
        .flat_map(|f| f.tanks.iter().map(|t| (t.fill_level, t.diameter_m)))
        .collect();

    let detector = DetectorModel::oiltank_detector();
    let estimator = VolumeEstimator::default();
    let gsds = [0.72, 1.5, 3.0, 5.0, 7.5, 10.0, 11.5];

    let mut rows = Vec::new();
    for gsd in gsds {
        // Stage 1: detection accuracy — mean recall over the tank
        // population at this GSD.
        let detection: f64 = tanks
            .iter()
            .map(|&(_, dia)| detector.recall_at_gsd(gsd, dia))
            .sum::<f64>()
            / tanks.len() as f64;
        // Stage 2: volume estimation error percentiles.
        let (p50, p90) = estimator.error_percentiles(&tanks, gsd, cli.seed);
        rows.push(format!("{gsd},{:.4},{:.4},{:.4}", detection, p50, p90));
    }
    print_csv(
        "gsd_m_px,detection_accuracy,volume_err_p50,volume_err_p90",
        rows,
    );
    cli.finish("fig3_oiltank_gsd");
}
