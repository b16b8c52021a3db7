//! Fig. 14b — frame processing time vs. tile size, for unscaled tiles
//! and 4× scaled tiling, against the 15 s frame-capture deadline.
//!
//! Expected shape (paper): processing time falls as tiles grow; a wide
//! range of tile sizes meets the deadline.

use eagleeye_bench::{print_csv, BenchCli};
use eagleeye_detect::{TilingConfig, YoloVariant};

fn main() {
    let cli = BenchCli::parse(&[]);
    let metrics = &cli.metrics;
    let frame_px = 3_333; // 100 km at 30 m/px
    let deadline_s = 15.0;
    let mut rows = Vec::new();
    for tile_px in (200..=1000).step_by(100) {
        let unscaled = TilingConfig::new(frame_px, tile_px, 1.0);
        let scaled4 = TilingConfig::new(frame_px, tile_px, 4.0);
        let t1 = YoloVariant::N.frame_processing_time_s(&unscaled);
        let t4 = YoloVariant::N.frame_processing_time_s(&scaled4);
        metrics.incr("core/tiling_configs_evaluated");
        if t1 > deadline_s {
            metrics.incr("core/tiling_deadline_misses");
        }
        rows.push(format!(
            "{tile_px},{:.3},{:.3},{}",
            t1,
            t4,
            if t1 <= deadline_s { "meets" } else { "misses" }
        ));
    }
    print_csv(
        "tile_px,time_unscaled_s,time_4x_scaled_s,deadline_15s",
        rows,
    );
    cli.finish("fig14b_tiling");
}
