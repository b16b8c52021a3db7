//! Property-based tests for the detector behaviour model, on the
//! `eagleeye-check` harness (replay with `EAGLEEYE_CHECK_SEED`, scale
//! with `EAGLEEYE_CHECK_CASES`).

use eagleeye_check::{check_cases, f64_range, prop_assert, prop_assert_eq, u64_range, usize_range};
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
            let d = DetectorModel::ship_detector();
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

/// Detection output never exceeds the candidate count in true
/// positives and confidences stay in the unit interval.
#[test]
fn detections_are_well_formed() {
    check_cases(
        CASES,
        "detections_are_well_formed",
        (
            usize_range(0, 200),
            f64_range(0.5, 500.0),
            u64_range(0, 1000),
        ),
        |&(n, gsd, seed)| {
            let d = DetectorModel::generic(gsd);
            let targets = vec![(0.8, 120.0); n];
            let hits = d.detect(&targets, seed);
            let tp = hits.iter().filter(|h| !h.is_false_positive).count();
            prop_assert!(tp <= n);
            for h in &hits {
                prop_assert!((0.0..=1.0).contains(&h.confidence));
                if !h.is_false_positive {
                    prop_assert!(h.target_index < n);
                }
            }
            // Determinism.
            prop_assert_eq!(hits, d.detect(&targets, seed));
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
