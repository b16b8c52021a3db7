//! Analytic model of the onboard ML pipeline: detection quality versus
//! ground sample distance, frame tiling, inference latency, and the
//! two-stage oil-tank volume estimator.
//!
//! The paper runs YOLOv8 variants on a Jetson AGX Orin (15 W mode) over
//! tiled low-resolution frames. No GPU or imagery is available in this
//! reproduction, and none is needed: the coverage simulator consumes
//! only (a) whether each target was detected, a seeded roll against a
//! flat recall (`CoverageOptions::recall` in `eagleeye-core`, Fig. 15),
//! and (b) how long inference took. This crate models recall and
//! latency from first principles, calibrated to the paper's published
//! numbers:
//!
//! * [`DetectorModel`] — recall as a logistic function of
//!   pixels-on-target (target size ÷ GSD), calibrated so an oil tank
//!   survives ~10× GSD degradation for *detection* while fine-grained
//!   measurement degrades (Fig. 3's key contrast).
//! * [`TilingConfig`] + [`YoloVariant`] — frame tiling and per-tile
//!   latency such that the default 100-tile frame yields the paper's
//!   mix-camera compute times: 1.4 / 2.6 / 5.5 / 8.6 / 11.8 s for
//!   Yolo n/s/m/l/x (Fig. 13), and frame processing stays under the 15 s
//!   deadline across a wide tile-size range (Fig. 14b).
//! * [`VolumeEstimator`] — shadow-based fill-level estimation whose error
//!   grows with GSD ÷ tank diameter, reproducing the Fig. 3b separation
//!   between "can detect the tank" and "can measure its shadow".
//!
//! # Example
//!
//! ```
//! use eagleeye_detect::{DetectorModel, YoloVariant, TilingConfig};
//!
//! let model = DetectorModel::oiltank_detector();
//! // A 40 m tank: detected at 11.5 m/px, lost at 60 m/px (Fig. 3a).
//! assert!(model.recall_at_gsd(11.5, 40.0) > 0.8);
//! assert!(model.recall_at_gsd(60.0, 40.0) < 0.3);
//!
//! let tiling = TilingConfig::paper_default();
//! let t = YoloVariant::N.frame_processing_time_s(&tiling);
//! assert!((t - 1.4).abs() < 0.2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod detector;
mod elision;
mod latency;
mod volume;

pub use detector::DetectorModel;
pub use elision::TileElision;
pub use latency::{TilingConfig, YoloVariant};
pub use volume::VolumeEstimator;
