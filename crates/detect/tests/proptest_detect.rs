//! Property-based tests for the detector behaviour model, on the
//! `eagleeye-check` harness (replay with `EAGLEEYE_CHECK_SEED`, scale
//! with `EAGLEEYE_CHECK_CASES`).

use eagleeye_check::{check_cases, f64_range, prop_assert, usize_range};
use eagleeye_detect::{DetectorModel, TileElision, TilingConfig, YoloVariant};

const CASES: u32 = 64;

/// Recall is monotone: coarser imagery never detects better, and
/// bigger targets never detect worse.
#[test]
fn recall_monotonicity() {
    check_cases(
        CASES,
        "recall_monotonicity",
        (
            f64_range(0.5, 100.0),
            f64_range(1.0, 50.0),
            f64_range(5.0, 500.0),
            f64_range(1.0, 10.0),
        ),
        |&(gsd_a, gsd_factor, size, size_factor)| {
            let d = DetectorModel::oiltank_detector();
            let coarse = d.recall_at_gsd(gsd_a * gsd_factor, size);
            let fine = d.recall_at_gsd(gsd_a, size);
            prop_assert!(coarse <= fine + 1e-12);
            let small = d.recall_at_gsd(gsd_a, size);
            let large = d.recall_at_gsd(gsd_a, size * size_factor);
            prop_assert!(large >= small - 1e-12);
            prop_assert!((0.0..=1.0).contains(&fine));
            Ok(())
        },
    );
}

/// Frame time is monotone in model size and in tile count, and
/// elision never increases it.
#[test]
fn latency_monotonicity() {
    check_cases(
        CASES,
        "latency_monotonicity",
        (
            usize_range(500, 5_000),
            usize_range(100, 1_000),
            f64_range(0.0, 1.0),
        ),
        |&(frame_px, tile_px, keep)| {
            let tiling = TilingConfig::new(frame_px as u32, tile_px as u32, 1.0);
            let mut last = 0.0;
            for v in YoloVariant::ALL {
                let t = v.frame_processing_time_s(&tiling);
                prop_assert!(t >= last);
                last = t;
            }
            let full = YoloVariant::M.frame_processing_time_s(&tiling);
            let elided = TileElision::new(keep).frame_processing_time_s(YoloVariant::M, &tiling);
            prop_assert!(elided <= full + 1e-12);
            Ok(())
        },
    );
}
