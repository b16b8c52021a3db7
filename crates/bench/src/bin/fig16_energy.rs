//! Fig. 16 — per-subsystem energy per orbit, normalized to the
//! harvestable energy, for the constellation roles at tile factors 1×
//! and 2× (plus the infeasible 4× point).
//!
//! Expected shape (paper): compute dominates; harvestable energy
//! supports ~2× tiling; 4× breaks the leader (and the homogeneous
//! baselines) while followers are never the bottleneck; the leader uses
//! slightly less than the baselines because it crosslinks schedules
//! instead of downlinking imagery.

use eagleeye_bench::{print_csv, BenchCli};
use eagleeye_sim::{simulate_orbit, ActivityProfile, PowerProfile};

fn main() {
    let cli = BenchCli::parse(&[]);
    let metrics = &cli.metrics;
    let power = PowerProfile::cubesat_3u();
    let period_s = 5_640.0;
    let sunlit = 0.62;

    let mut rows = Vec::new();
    for tile_factor in [1.0, 2.0, 4.0] {
        let roles: Vec<(&str, ActivityProfile)> = vec![
            (
                "low-res-only",
                ActivityProfile::baseline_default(tile_factor),
            ),
            (
                "high-res-only",
                ActivityProfile::baseline_default(tile_factor),
            ),
            ("leader", ActivityProfile::leader_default(tile_factor)),
            ("follower", ActivityProfile::follower_default(400.0, 3.0)),
            (
                "mix-camera",
                ActivityProfile::mix_camera_default(tile_factor, 200.0, 3.0),
            ),
        ];
        for (name, activity) in roles {
            let r = simulate_orbit(&power, &activity, sunlit, period_s);
            metrics.incr("sim/orbit_simulations");
            if !r.is_energy_feasible() {
                metrics.incr("sim/energy_infeasible_configs");
            }
            let s = r.subsystems;
            rows.push(format!(
                "{tile_factor},{name},{:.0},{:.0},{:.0},{:.0},{:.0},{:.0},{:.3},{}",
                s.camera_j,
                s.adacs_j,
                s.compute_j,
                s.tx_j,
                s.idle_j,
                r.harvested_j,
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
        "tile_factor,role,camera_j,adacs_j,compute_j,tx_j,idle_j,harvested_j,normalized,status",
        rows,
    );
    cli.finish("fig16_energy");
}
