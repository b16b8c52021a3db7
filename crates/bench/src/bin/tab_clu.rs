//! TAB-CLU — clustering solve scale (§4.1: an optimal rectangle cover
//! for 500 targets at interactive latency).
//!
//! Covers 25, 100 and 500 frame-scale targets (10 km boxes) exactly
//! and greedily, and reports the fastest of [`RUNS`] runs per method
//! with the number of clusters each chose.

use eagleeye_bench::{print_csv, BenchCli};
use eagleeye_core::clustering::{cluster, ClusteringMethod};
use eagleeye_core::pointing::GroundPoint;
use std::time::Instant;

/// A deterministic layout of `n` targets over a 100 x 110 km frame.
fn frame_points(n: usize) -> Vec<(GroundPoint, f64)> {
    (0..n)
        .map(|i| {
            let r = (6364136223846793005u64.wrapping_mul(i as u64 + 3)) % 1_000_000;
            let x = (r % 100_000) as f64 - 50_000.0;
            let y = ((r / 100_000) % 110) as f64 * 1_000.0;
            (GroundPoint::new(x, y), 1.0)
        })
        .collect()
}

/// Timed runs per instance and method.
const RUNS: usize = 10;

/// Wall time of the fastest of [`RUNS`] runs, and the cluster count
/// (clustering is deterministic).
fn time_cover(pts: &[(GroundPoint, f64)], method: ClusteringMethod) -> (f64, usize) {
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            let clusters = cluster(pts, 10_000.0, 10_000.0, method).expect("cover");
            (start.elapsed().as_secs_f64(), clusters.len())
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one run")
}

fn main() {
    let cli = BenchCli::parse();
    let mut rows = Vec::new();
    for n in [25usize, 100, 500] {
        let pts = frame_points(n);
        let (t_ilp, c_ilp) = time_cover(&pts, ClusteringMethod::Ilp);
        let (t_greedy, c_greedy) = time_cover(&pts, ClusteringMethod::Greedy);
        rows.push(format!("{n},{t_ilp:.6},{c_ilp},{t_greedy:.6},{c_greedy}"));
        eprintln!(
            "n={n}: ilp {:.3} ms ({c_ilp} clusters), greedy {:.3} ms ({c_greedy})",
            t_ilp * 1e3,
            t_greedy * 1e3
        );
    }
    print_csv("targets,ilp_s,ilp_clusters,greedy_s,greedy_clusters", rows);
    cli.finish("tab_clu");
}
