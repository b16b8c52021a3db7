/// Frame tiling configuration for onboard inference (paper §4.1).
///
/// A low-resolution frame (100 km swath at 30 m GSD ≈ 3,333 px square) is
/// decomposed into square tiles that are scaled to the ML input size and
/// processed sequentially. `tile_factor` multiplies the tile count to
/// model denser (overlapping / finer) tilings — the knob swept in the
/// paper's energy analysis (Fig. 16: 1×, 2×, 4× tiling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilingConfig {
    /// Frame side length in pixels.
    pub frame_px: u32,
    /// Tile side length in pixels.
    pub tile_px: u32,
    /// Multiplier on the tile count (1 = plain grid tiling).
    pub tile_factor: f64,
}

impl TilingConfig {
    /// The paper's default operating point: a 3,333 px frame (100 km at
    /// 30 m/px) in a 10×10 = 100-tile grid.
    pub fn paper_default() -> Self {
        TilingConfig {
            frame_px: 3_333,
            tile_px: 334,
            tile_factor: 1.0,
        }
    }

    /// Creates a config; `tile_px` is clamped to at least 1.
    pub fn new(frame_px: u32, tile_px: u32, tile_factor: f64) -> Self {
        TilingConfig {
            frame_px,
            tile_px: tile_px.max(1),
            tile_factor: tile_factor.max(0.0),
        }
    }

    /// Number of tiles needed to cover the frame (grid tiling times the
    /// tile factor), at least 1.
    pub fn tiles_per_frame(&self) -> usize {
        let per_side = self.frame_px.div_ceil(self.tile_px) as f64;
        ((per_side * per_side * self.tile_factor).round() as usize).max(1)
    }
}

/// YOLOv8 model variants with per-tile inference latency on the Jetson
/// AGX Orin in its 15 W mode, calibrated so the default 100-tile frame
/// reproduces the paper's mix-camera compute times (Fig. 13):
/// 1.4 s (n), 2.6 s (s), 5.5 s (m), 8.6 s (l), 11.8 s (x).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YoloVariant {
    /// YOLOv8-nano.
    N,
    /// YOLOv8-small.
    S,
    /// YOLOv8-medium.
    M,
    /// YOLOv8-large.
    L,
    /// YOLOv8-extra-large.
    X,
}

impl YoloVariant {
    /// All variants, smallest first.
    pub const ALL: [YoloVariant; 5] = [
        YoloVariant::N,
        YoloVariant::S,
        YoloVariant::M,
        YoloVariant::L,
        YoloVariant::X,
    ];

    /// Per-tile inference latency in seconds.
    pub fn per_tile_latency_s(self) -> f64 {
        match self {
            YoloVariant::N => 0.014,
            YoloVariant::S => 0.026,
            YoloVariant::M => 0.055,
            YoloVariant::L => 0.086,
            YoloVariant::X => 0.118,
        }
    }

    /// The paper's quoted frame compute time for this variant at the
    /// default tiling (used to label Fig. 13).
    pub fn paper_frame_time_s(self) -> f64 {
        match self {
            YoloVariant::N => 1.4,
            YoloVariant::S => 2.6,
            YoloVariant::M => 5.5,
            YoloVariant::L => 8.6,
            YoloVariant::X => 11.8,
        }
    }

    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            YoloVariant::N => "Yolo_n",
            YoloVariant::S => "Yolo_s",
            YoloVariant::M => "Yolo_m",
            YoloVariant::L => "Yolo_l",
            YoloVariant::X => "Yolo_x",
        }
    }

    /// Total frame processing time for a tiling config, seconds.
    pub fn frame_processing_time_s(self, tiling: &TilingConfig) -> f64 {
        tiling.tiles_per_frame() as f64 * self.per_tile_latency_s()
    }
}

impl std::fmt::Display for YoloVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tiling_is_one_hundred_tiles() {
        assert_eq!(TilingConfig::paper_default().tiles_per_frame(), 100);
    }

    #[test]
    fn frame_times_match_paper_within_tolerance() {
        let tiling = TilingConfig::paper_default();
        for v in YoloVariant::ALL {
            let t = v.frame_processing_time_s(&tiling);
            let want = v.paper_frame_time_s();
            assert!((t - want).abs() / want < 0.25, "{v}: {t} vs paper {want}");
        }
    }

    #[test]
    fn tile_factor_scales_tiles() {
        let base = TilingConfig::new(3_000, 300, 1.0);
        let dbl = TilingConfig::new(3_000, 300, 2.0);
        assert_eq!(base.tiles_per_frame(), 100);
        assert_eq!(dbl.tiles_per_frame(), 200);
    }

    #[test]
    fn smaller_tiles_mean_more_time() {
        let mut last = 0.0;
        for tile in [1000, 800, 600, 400, 200] {
            let t = YoloVariant::N.frame_processing_time_s(&TilingConfig::new(3_333, tile, 1.0));
            assert!(t >= last, "time not monotone at tile {tile}");
            last = t;
        }
    }

    #[test]
    fn wide_tile_range_meets_frame_deadline_for_nano() {
        // Fig 14b: frame processing stays below the 15 s capture deadline
        // across tile sizes 200..1000 px for the deployed (nano) model.
        for tile in (200..=1000).step_by(100) {
            let t = YoloVariant::N.frame_processing_time_s(&TilingConfig::new(3_333, tile, 1.0));
            assert!(t < 15.0, "tile {tile}: {t} s");
        }
    }

    #[test]
    fn variants_are_ordered_by_cost() {
        let tiling = TilingConfig::paper_default();
        let times: Vec<f64> = YoloVariant::ALL
            .iter()
            .map(|v| v.frame_processing_time_s(&tiling))
            .collect();
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn degenerate_tile_size_is_clamped() {
        let t = TilingConfig::new(100, 0, 1.0);
        assert!(t.tiles_per_frame() >= 1);
    }
}
