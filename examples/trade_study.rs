//! Constellation trade study: how to spend a fixed satellite budget.
//!
//! For a 12-satellite budget on a dense lake-monitoring workload, this
//! example sweeps group/follower splits, slew rates, and failure
//! scenarios, plus the per-orbit energy budget of each role — the
//! design-guidance loop of the paper's §6.2 ("add solar panels to the
//! leader, improve the follower's ADACS").
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trade_study
//! ```

use eagleeye::core::coverage::{ConstellationConfig, CoverageEvaluator, CoverageOptions};
use eagleeye::core::{Adacs, SensingSpec};
use eagleeye::datasets::{LakeGenerator, LakeSizeBand};
use eagleeye::sim::{simulate_orbit, ActivityProfile, FaultKind, FaultPlan, PowerProfile};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lakes = LakeGenerator::new(LakeSizeBand::TenthToTenKm2)
        .with_count(140_000)
        .generate(42);
    println!(
        "workload: {} small lakes (dense boreal clustering)\n",
        lakes.len()
    );
    let budget = 12;

    // 1. Group/follower split at a fixed budget.
    println!("-- group/follower split ({} satellites) --", budget);
    let options = CoverageOptions {
        duration_s: 2.0 * 3600.0,
        ..CoverageOptions::default()
    };
    let eval = CoverageEvaluator::new(&lakes, options.clone());
    for followers in [1usize, 2, 3, 5] {
        let groups = budget / (followers + 1);
        if groups == 0 {
            continue;
        }
        let report = eval.evaluate(&ConstellationConfig::eagleeye(groups, followers))?;
        println!(
            "  {} groups x (1 leader + {} followers): coverage {:.2}%",
            groups,
            followers,
            100.0 * report.coverage_fraction()
        );
    }

    // 2. Slew-rate sensitivity.
    println!("\n-- ADACS slew rate (4 groups x 2 followers) --");
    for rate in [1.0, 3.0, 10.0] {
        let spec = SensingSpec::paper_default().with_adacs(Adacs::new(rate, 0.67)?);
        let opts = CoverageOptions {
            spec,
            ..options.clone()
        };
        let eval = CoverageEvaluator::new(&lakes, opts);
        let report = eval.evaluate(&ConstellationConfig::eagleeye(4, 2))?;
        println!(
            "  {rate:>4.0} deg/s: coverage {:.2}%",
            100.0 * report.coverage_fraction()
        );
    }

    // 3. Reliability: leader loss vs follower loss (paper §4.7).
    println!("\n-- failure injection (4 groups x 2 followers, fail at t=0) --");
    for (name, failure) in [
        ("no failure", None),
        ("leader fails", Some(FaultKind::LeaderOutage)),
        (
            "1 follower fails",
            Some(FaultKind::FollowerOutage { follower: 0 }),
        ),
    ] {
        let opts = CoverageOptions {
            fault_plan: failure
                .map(|kind| Arc::new(FaultPlan::new(0).with_fault(kind, 0.0, f64::INFINITY))),
            ..options.clone()
        };
        let eval = CoverageEvaluator::new(&lakes, opts);
        let report = eval.evaluate(&ConstellationConfig::eagleeye(4, 2))?;
        println!(
            "  {name:<18} coverage {:.2}%",
            100.0 * report.coverage_fraction()
        );
    }

    // 4. Energy budget per role.
    println!("\n-- per-orbit energy (fraction of harvestable) --");
    let power = PowerProfile::cubesat_3u();
    for (name, activity) in [
        ("leader 1x tiling", ActivityProfile::leader_default(1.0)),
        ("leader 2x tiling", ActivityProfile::leader_default(2.0)),
        ("leader 4x tiling", ActivityProfile::leader_default(4.0)),
        (
            "follower (400 captures)",
            ActivityProfile::follower_default(400.0, 3.0),
        ),
    ] {
        let r = simulate_orbit(&power, &activity, 0.62, 5_640.0);
        println!(
            "  {name:<24} {:>5.2} of harvest {}",
            r.normalized_consumption(),
            if r.is_energy_feasible() {
                ""
            } else {
                "  <- INFEASIBLE"
            }
        );
    }
    Ok(())
}
