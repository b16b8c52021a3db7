use eagleeye_rng::SplitMix64;

/// Shadow-based oil-tank fill-level estimator (paper Fig. 3, §5.2).
///
/// The two-stage task: (1) detect the tank, (2) estimate its fill level
/// from the shadow cast on the floating lid. Stage 1 tolerates coarse
/// imagery (see [`crate::DetectorModel::oiltank_detector`]); stage 2 needs
/// to *measure* the shadow, so its error grows with GSD relative to the
/// tank diameter — the paper's motivating observation that some analytics
/// have resolution thresholds.
///
/// Error model: the shadow edge is localized to ~±1 pixel, so the
/// relative fill error scales like `gsd / (k · diameter)` plus a floor
/// from the method itself (the paper's reference method reports 97.2 %
/// accuracy on high-resolution imagery, i.e. a ~3 % floor).
///
/// # Example
///
/// ```
/// use eagleeye_detect::VolumeEstimator;
///
/// let est = VolumeEstimator::default();
/// // High-resolution: error close to the method floor.
/// let e_hi = est.expected_relative_error(0.72, 40.0);
/// // 10x coarser: far larger error.
/// let e_lo = est.expected_relative_error(7.2, 40.0);
/// assert!(e_hi < 0.1 && e_lo > 2.0 * e_hi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolumeEstimator {
    /// Relative error floor of the method at perfect resolution.
    error_floor: f64,
    /// Pixel-localization error multiplier.
    pixel_error_gain: f64,
}

impl Default for VolumeEstimator {
    fn default() -> Self {
        // Floor calibrated to the paper's cited 97.2% accuracy; gain
        // calibrated so errors become analyst-useless (>50%) around
        // 10+ m/px for typical 40 m tanks (Fig. 3b).
        VolumeEstimator {
            error_floor: 0.028,
            pixel_error_gain: 2.0,
        }
    }
}

impl VolumeEstimator {
    /// Creates an estimator with explicit calibration.
    pub fn new(error_floor: f64, pixel_error_gain: f64) -> Self {
        VolumeEstimator {
            error_floor: error_floor.max(0.0),
            pixel_error_gain: pixel_error_gain.max(0.0),
        }
    }

    /// Expected relative fill-level error (1-sigma) at a given GSD for a
    /// tank of `diameter_m`.
    pub fn expected_relative_error(&self, gsd_m_px: f64, diameter_m: f64) -> f64 {
        self.error_floor + self.pixel_error_gain * gsd_m_px / diameter_m.max(1e-9)
    }

    /// Simulates an estimate of `true_fill` (in `[0,1]`) for one tank,
    /// deterministic in `seed`. The result is clamped to `[0, 1]`.
    fn estimate(&self, true_fill: f64, gsd_m_px: f64, diameter_m: f64, seed: u64) -> f64 {
        let sigma = self.expected_relative_error(gsd_m_px, diameter_m);
        let mut rng = SplitMix64::new(seed);
        let gauss = rng.gaussian();
        (true_fill + gauss * sigma).clamp(0.0, 1.0)
    }

    /// Relative error percentiles over a population of tanks, as the
    /// paper reports (50th and 90th in Fig. 3b). `tanks` is a slice of
    /// `(true_fill, diameter_m)`.
    pub fn error_percentiles(&self, tanks: &[(f64, f64)], gsd_m_px: f64, seed: u64) -> (f64, f64) {
        if tanks.is_empty() {
            return (0.0, 0.0);
        }
        let mut errors: Vec<f64> = tanks
            .iter()
            .enumerate()
            .map(|(i, &(fill, dia))| {
                let est = self.estimate(fill, gsd_m_px, dia, seed.wrapping_add(i as u64));
                (est - fill).abs() / fill.max(1e-3)
            })
            .collect();
        errors.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| {
            let idx = ((errors.len() as f64 - 1.0) * p).round() as usize;
            errors[idx]
        };
        (pct(0.5), pct(0.9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_check::{check_cases, f64_range, prop_assert, prop_assert_eq, u64_range};

    #[test]
    fn error_grows_with_gsd() {
        let e = VolumeEstimator::default();
        let mut last = 0.0;
        for gsd in [0.7, 1.5, 3.0, 6.0, 11.5] {
            let err = e.expected_relative_error(gsd, 40.0);
            assert!(err > last);
            last = err;
        }
    }

    #[test]
    fn high_res_error_matches_method_floor() {
        // Paper: 97.2% accuracy on high-res images → ~3% error at 0.72 m/px.
        let e = VolumeEstimator::default();
        let err = e.expected_relative_error(0.72, 40.0);
        assert!(err < 0.08, "err {err}");
    }

    #[test]
    fn low_res_error_is_analyst_useless() {
        // Fig 3b: at ~11.5 m/px, fill estimation is unusable.
        let e = VolumeEstimator::default();
        let err = e.expected_relative_error(11.5, 40.0);
        assert!(err > 0.4, "err {err}");
    }

    #[test]
    fn estimates_are_clamped_and_deterministic() {
        let e = VolumeEstimator::default();
        for i in 0..32 {
            let v = e.estimate(0.5, 11.5, 30.0, i);
            assert!((0.0..=1.0).contains(&v));
            assert_eq!(v, e.estimate(0.5, 11.5, 30.0, i));
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        let e = VolumeEstimator::default();
        let tanks: Vec<(f64, f64)> = (0..200)
            .map(|i| (0.1 + 0.004 * i as f64, 30.0 + (i % 50) as f64))
            .collect();
        let (p50, p90) = e.error_percentiles(&tanks, 5.0, 7);
        assert!(p50 <= p90);
        assert!(p50 > 0.0);
    }

    #[test]
    fn percentiles_of_empty_population_are_zero() {
        let e = VolumeEstimator::default();
        assert_eq!(e.error_percentiles(&[], 5.0, 0), (0.0, 0.0));
    }

    #[test]
    fn bigger_tanks_are_easier_to_measure() {
        let e = VolumeEstimator::default();
        assert!(e.expected_relative_error(3.0, 80.0) < e.expected_relative_error(3.0, 20.0));
    }

    /// Volume estimation error grows with GSD and estimates stay in the
    /// physical range.
    #[test]
    fn volume_error_properties() {
        check_cases(
            64,
            "volume_error_properties",
            (
                f64_range(0.5, 30.0),
                f64_range(1.0, 20.0),
                f64_range(15.0, 90.0),
                f64_range(0.0, 1.0),
                u64_range(0, 500),
            ),
            |&(gsd, factor, diameter, fill, seed)| {
                let e = VolumeEstimator::default();
                prop_assert!(
                    e.expected_relative_error(gsd * factor, diameter)
                        >= e.expected_relative_error(gsd, diameter)
                );
                let est = e.estimate(fill, gsd, diameter, seed);
                prop_assert!((0.0..=1.0).contains(&est));
                prop_assert_eq!(est, e.estimate(fill, gsd, diameter, seed));
                Ok(())
            },
        );
    }
}
