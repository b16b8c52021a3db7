//! Extension — coverage degradation vs. follower-outage rate, with and
//! without degraded-mode scheduling.
//!
//! For each outage rate a seeded Monte-Carlo [`FaultPlan`] is drawn and
//! the same constellation is evaluated three ways:
//!
//! * **nofault** — no faults injected (the healthy ceiling);
//! * **naive** — faults injected, leader unaware: it keeps assigning
//!   tasks to dead followers and those captures are lost;
//! * **resilient** — faults injected, leader runs the
//!   `ResilientScheduler` (budgeted ILP, greedy fallback, mid-pass
//!   repair) and excludes known-dead followers.
//!
//! The headline metric is `recovery`: the fraction of naive-lost
//! coverage that the resilient run wins back,
//! `(resilient − naive) / (nofault − naive)`. The acceptance target is
//! ≥ 0.5 at a 20 % outage rate.

use eagleeye_bench::{print_csv, BenchCli};
use eagleeye_core::clustering::ClusteringMethod;
use eagleeye_core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, DegradedMode, SchedulerKind,
};
use eagleeye_datasets::Workload;
use eagleeye_obs::Metrics;
use eagleeye_sim::{FaultPlan, FaultScenario};
use std::sync::Arc;

const FOLLOWERS: usize = 4;

fn main() {
    let cli = BenchCli::parse();
    let rates: Vec<f64> = if cli.fast {
        vec![0.0, 0.2, 0.5]
    } else {
        vec![0.0, 0.1, 0.2, 0.3, 0.5]
    };
    let seeds: Vec<u64> = if cli.fast {
        vec![cli.seed, cli.seed + 1]
    } else {
        vec![cli.seed, cli.seed + 1, cli.seed + 2]
    };
    let groups = if cli.fast { 2 } else { 4 };
    let targets = cli.workload(Workload::ShipDetection);

    let config = |scheduler| ConstellationConfig::EagleEye {
        groups,
        followers_per_group: FOLLOWERS,
        scheduler,
        clustering: ClusteringMethod::Ilp,
    };
    let options =
        |plan: Option<Arc<FaultPlan>>, mode: DegradedMode, metrics: &Metrics| CoverageOptions {
            duration_s: cli.duration_s,
            seed: cli.seed,
            fault_plan: plan,
            degraded_mode: mode,
            metrics: metrics.clone(),
            ..CoverageOptions::default()
        };

    // Healthy ceiling, computed once (fault-free, exact ILP).
    let nofault = CoverageEvaluator::new(
        &targets,
        options(None, DegradedMode::Resilient, &cli.metrics),
    )
    .evaluate(&config(SchedulerKind::Ilp))
    .expect("nofault evaluation");
    let c0 = nofault.coverage_fraction();
    eprintln!("healthy ceiling: {:.2}% coverage", 100.0 * c0);

    // Every (rate, seed) cell is independent: the fault plan is a pure
    // function of its seed and the evaluations are deterministic, so
    // the Monte-Carlo grid fans out across `--threads` workers.
    let grid: Vec<(f64, u64)> = rates
        .iter()
        .flat_map(|&rate| seeds.iter().map(move |&seed| (rate, seed)))
        .collect();
    let cells = cli.par_sweep_observed(&grid, |&(rate, seed), metrics| {
        let scenario = FaultScenario {
            follower_outage_rate: rate,
            ..FaultScenario::none()
        };
        // One Arc'd plan shared by both evaluations — no per-run copy.
        let plan = Arc::new(FaultPlan::monte_carlo(
            seed,
            &scenario,
            FOLLOWERS,
            cli.duration_s,
        ));
        let outages = plan.faults().len();

        let naive = CoverageEvaluator::new(
            &targets,
            options(Some(plan.clone()), DegradedMode::Naive, metrics),
        )
        .evaluate(&config(SchedulerKind::Ilp))
        .expect("naive evaluation");
        let resilient = CoverageEvaluator::new(
            &targets,
            options(Some(plan), DegradedMode::Resilient, metrics),
        )
        .evaluate(&config(SchedulerKind::Resilient))
        .expect("resilient evaluation");
        eprintln!(
            "done: rate={rate} seed={seed} outages={outages} captured \
             {}/{}/{} (nofault/naive/resilient), naive lost {} commanded captures \
             ({} fallbacks, {} on the horizon budget, {} repairs)",
            nofault.captured,
            naive.captured,
            resilient.captured,
            naive.captures_lost_to_faults,
            resilient.greedy_fallbacks,
            resilient.deadline_fallbacks,
            resilient.repairs_attempted,
        );
        (outages, naive, resilient)
    });

    let mut rows = Vec::new();
    for (r_idx, &rate) in rates.iter().enumerate() {
        let base = r_idx * seeds.len();
        let mut lost_sum = 0.0;
        let mut recovered_sum = 0.0;
        for (s_idx, &seed) in seeds.iter().enumerate() {
            let (outages, naive, resilient) = &cells[base + s_idx];
            let cn = naive.coverage_fraction();
            let cr = resilient.coverage_fraction();
            let lost = (c0 - cn).max(0.0);
            let recovered = cr - cn;
            lost_sum += lost;
            recovered_sum += recovered;
            let recovery = if lost > 1e-12 {
                recovered / lost
            } else {
                f64::NAN
            };
            rows.push(format!(
                "{rate},{seed},{outages},{c0:.4},{cn:.4},{cr:.4},{recovery:.4},{},{},{},{}",
                resilient.ilp_horizons,
                resilient.greedy_fallbacks,
                resilient.repairs_attempted,
                resilient.tasks_reassigned,
            ));
        }
        if lost_sum > 1e-12 {
            eprintln!(
                "rate {rate}: aggregate recovery {:.2} over {} seeds",
                recovered_sum / lost_sum,
                seeds.len()
            );
        }
    }
    print_csv(
        "outage_rate,seed,outages,coverage_nofault,coverage_naive,coverage_resilient,\
         recovery,ilp_horizons,greedy_fallbacks,repairs_attempted,tasks_reassigned",
        rows,
    );
    cli.finish("ext_fault_tolerance");
}
