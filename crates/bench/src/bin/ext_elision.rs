//! Extension ablation (Kodan-style tile elision, cf. paper §2.1):
//! per-orbit leader energy across tile factors and kept-tile fractions.
//!
//! Expected shape: elision scales compute energy linearly; ~40 % kept
//! tiles brings the otherwise-infeasible 4× tiling back under the
//! harvestable-energy line (Fig. 16's dashed ceiling).

use eagleeye_bench::{print_csv, BenchCli};
use eagleeye_sim::{simulate_orbit, ActivityProfile, PowerProfile};

fn main() {
    let cli = BenchCli::parse(&[]);
    let metrics = &cli.metrics;
    let power = PowerProfile::cubesat_3u();
    let mut rows = Vec::new();
    for tile_factor in [1.0, 2.0, 4.0] {
        for keep in [1.0, 0.7, 0.4, 0.2] {
            let activity = ActivityProfile::leader_with_elision(tile_factor, keep);
            let r = simulate_orbit(&power, &activity, 0.62, 5_640.0);
            metrics.incr("sim/orbit_simulations");
            if !r.is_energy_feasible() {
                metrics.incr("sim/energy_infeasible_configs");
            }
            rows.push(format!(
                "{tile_factor},{keep},{:.0},{:.3},{}",
                r.subsystems.compute_j,
                r.normalized_consumption(),
                if r.is_energy_feasible() {
                    "feasible"
                } else {
                    "INFEASIBLE"
                }
            ));
        }
    }
    print_csv(
        "tile_factor,keep_fraction,compute_j,normalized,status",
        rows,
    );
    cli.finish("ext_elision");
}
