/// Analytic object-detection quality model.
///
/// Recall is a logistic function of *pixels on target* `p = size/GSD`:
///
/// ```text
/// recall(p) = max_recall / (1 + exp(-steepness · (p − p_half)))
/// ```
///
/// so detection quality falls off smoothly as resolution degrades, with a
/// knee at `p_half` pixels.
///
/// # Example
///
/// ```
/// use eagleeye_detect::DetectorModel;
///
/// let d = DetectorModel::oiltank_detector();
/// // At the knee, 1.8 px on target (a 36 m tank at 20 m/px), recall is
/// // half its 0.98 ceiling; finer imagery detects better.
/// assert!((d.recall_at_gsd(20.0, 36.0) - 0.49).abs() < 1e-9);
/// assert!(d.recall_at_gsd(0.72, 36.0) > d.recall_at_gsd(20.0, 36.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorModel {
    max_recall: f64,
    p_half_px: f64,
    steepness: f64,
}

impl DetectorModel {
    /// Detector calibrated for oil-tank detection (Fig. 3a): detection
    /// accuracy stays high from 0.7 m/px all the way to ~11.5 m/px for
    /// 20–80 m tanks.
    pub fn oiltank_detector() -> Self {
        DetectorModel {
            max_recall: 0.98,
            p_half_px: 1.8,
            steepness: 3.0,
        }
    }

    /// Recall for a target of `target_size_m` imaged at `gsd_m_px`.
    pub fn recall_at_gsd(&self, gsd_m_px: f64, target_size_m: f64) -> f64 {
        let px = target_size_m / gsd_m_px.max(1e-9);
        self.max_recall / (1.0 + (-self.steepness * (px - self.p_half_px)).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_is_monotone_in_resolution() {
        let d = DetectorModel::oiltank_detector();
        let mut last = 1.0;
        for gsd in [0.72, 3.0, 11.5, 20.0, 60.0, 300.0] {
            let r = d.recall_at_gsd(gsd, 40.0);
            assert!(r <= last + 1e-12, "recall not monotone at gsd {gsd}");
            last = r;
        }
    }

    #[test]
    fn oiltank_detection_survives_ten_x_gsd() {
        // Fig 3a: detection works from 0.7 to 11.5 m/px for a 40 m tank.
        let d = DetectorModel::oiltank_detector();
        assert!(d.recall_at_gsd(0.72, 40.0) > 0.9);
        assert!(d.recall_at_gsd(11.5, 40.0) > 0.8);
        assert!(d.recall_at_gsd(60.0, 40.0) < 0.3);
    }
}
