//! Differential suite gating incremental what-if re-evaluation
//! (DESIGN.md §14) against cold evaluation.
//!
//! Every case builds a seeded random parent scenario, evaluates it (so
//! the shared compile cache holds its tracks and memoized horizon
//! solves), applies a seeded random [`ScenarioDelta`], and evaluates
//! the child twice: incrementally on a [`fork_with`] sibling of the
//! parent (adopting shared tracks, replaying memos, re-solving only
//! dirty frames) and cold on a fresh evaluator. The two child runs must
//! agree on every report field except wall-clock timers
//! (`CoverageReport::same_outcome` — solver diagnostics and warm-start
//! counters included) and on every `core/*`, `ilp/*`, and `sim/*`
//! observability counter bit-for-bit. `orbit/*` counters are exempt by
//! design: eliding re-propagation is the point of sharing.
//! Targets sit in clumps under the parent's leader tracks
//! (`common::under_leaders`), so most frames detect, cluster and
//! schedule.
//!
//! Runs on the `eagleeye-check` harness: replay a failure with
//! `EAGLEEYE_CHECK_SEED`, scale the budget with `EAGLEEYE_CHECK_CASES`.
//!
//! [`fork_with`]: eagleeye_core::coverage::CoverageEvaluator::fork_with

mod common;

use common::{clustering_for, scheduler_for, under_leaders};
use eagleeye_check::{check_cases, f64_range, u64_range, usize_range};
use eagleeye_core::clustering::ClusteringMethod;
use eagleeye_core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, CoverageReport, DegradedMode,
    ScenarioDelta, SchedulerKind,
};
use eagleeye_datasets::{TargetSet, Workload};
use eagleeye_obs::{Metrics, Stopwatch};
use eagleeye_sim::{FaultKind, FaultPlan};
use std::sync::Arc;

const CASES: u32 = 8;

/// The delta under test, drawn from the case's choices. Structural
/// edits, parameter nudges, and every fault-window class are covered.
fn delta_for(kind: usize, p: f64, at_s: f64) -> ScenarioDelta {
    match kind {
        0 => ScenarioDelta::AddGroup,
        1 => ScenarioDelta::RemoveGroup,
        2 => ScenarioDelta::AddFollower,
        3 => ScenarioDelta::RemoveFollower,
        4 => ScenarioDelta::NudgeRecall(p),
        5 => ScenarioDelta::NudgeRecapture(Some(p)),
        6 => ScenarioDelta::FaultWindow {
            kind: FaultKind::FollowerOutage { follower: 0 },
            start_s: at_s,
            end_s: at_s + 500.0,
        },
        7 => ScenarioDelta::FaultWindow {
            kind: FaultKind::LeaderOutage,
            start_s: at_s,
            end_s: at_s + 400.0,
        },
        8 => ScenarioDelta::FaultWindow {
            kind: FaultKind::SlewDerate {
                rate_factor: 0.3 + 0.6 * p,
            },
            start_s: at_s,
            end_s: f64::INFINITY,
        },
        _ => ScenarioDelta::FaultWindow {
            kind: FaultKind::DetectorDropout {
                false_negative_rate: 0.5 * p,
            },
            start_s: at_s,
            end_s: at_s + 600.0,
        },
    }
}

/// Counters that must be bit-identical between a delta and a cold
/// child evaluation: everything except `orbit/*` (sharing legitimately
/// elides re-propagation).
fn comparable_counters(metrics: &Metrics) -> Vec<(String, u64)> {
    metrics
        .snapshot()
        .counters()
        .filter(|(k, _)| !k.starts_with("orbit/"))
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Evaluates the child scenario incrementally (on a fork of `parent`,
/// with `threads` workers) and cold, and asserts the reports and the
/// comparable counters agree bit-for-bit.
fn assert_delta_matches_cold(
    parent: &CoverageEvaluator<'_>,
    targets: &TargetSet,
    child_cfg: &ConstellationConfig,
    child_opts: &CoverageOptions,
    threads: usize,
) -> CoverageReport {
    let delta_metrics = Metrics::enabled();
    let fork = parent.fork_with(CoverageOptions {
        threads,
        metrics: delta_metrics.clone(),
        ..child_opts.clone()
    });
    let delta_report = fork.evaluate(child_cfg).expect("delta evaluation");

    let cold_metrics = Metrics::enabled();
    let cold = CoverageEvaluator::new(
        targets,
        CoverageOptions {
            threads,
            metrics: cold_metrics.clone(),
            ..child_opts.clone()
        },
    );
    let cold_report = cold.evaluate(child_cfg).expect("cold child evaluation");

    assert!(
        delta_report.same_outcome(&cold_report),
        "delta diverged from cold at threads={threads} for {child_cfg:?}:\
         \ndelta: {delta_report:?}\ncold: {cold_report:?}"
    );
    assert_eq!(
        comparable_counters(&delta_metrics),
        comparable_counters(&cold_metrics),
        "observability counters diverged at threads={threads} for {child_cfg:?}"
    );
    delta_report
}

/// The tentpole property: for seeded random `(scenario, delta)` pairs
/// across schedulers, clustering modes, fault plans, and both layout
/// phasings, an incremental child evaluation is indistinguishable from
/// a cold one — report and counters — at 1 and 4 threads.
#[test]
fn delta_evaluation_is_bit_identical_to_cold() {
    // Guards against the suite passing vacuously on empty reports:
    // across the whole run, some cases must schedule and capture.
    let scheduled_cases = std::cell::Cell::new(0u32);
    check_cases(
        CASES,
        "delta_evaluation_is_bit_identical_to_cold",
        (
            u64_range(0, u64::MAX),
            (usize_range(2, 4), usize_range(1, 3)),
            (usize_range(0, 3), usize_range(0, 3), usize_range(0, 3)),
            f64_range(0.6, 1.0),
            usize_range(0, 10),
            f64_range(0.0, 1.0),
            f64_range(0.0, 900.0),
        ),
        |&(seed, (groups, followers), (skind, ckind, tkind), recall, dkind, dparam, at_s)| {
            let parent_cfg = ConstellationConfig::EagleEye {
                groups,
                followers_per_group: followers,
                scheduler: scheduler_for(skind),
                clustering: clustering_for(ckind),
            };
            let parent_opts = CoverageOptions {
                duration_s: 1_000.0,
                recall,
                seed,
                // Half the cases pin the layout with spare capacity
                // (maximal sharing for structural deltas); the rest
                // phase organically, exercising the pinned-child /
                // recompiled-child paths of `ScenarioDelta::apply`.
                layout_slots: (seed % 2 == 0).then_some(groups + 1),
                // A third of the cases start from an already-faulted
                // parent so `FaultWindow` appends rather than creates.
                fault_plan: (seed % 3 == 0).then(|| {
                    Arc::new(FaultPlan::new(seed).with_fault(
                        FaultKind::FollowerOutage { follower: 0 },
                        200.0,
                        600.0,
                    ))
                }),
                degraded_mode: if seed % 2 == 0 {
                    DegradedMode::Resilient
                } else {
                    DegradedMode::Naive
                },
                ..CoverageOptions::default()
            };
            let delta = delta_for(dkind, dparam, at_s);

            let targets = under_leaders(&parent_opts, &parent_cfg, tkind, seed);
            let parent = CoverageEvaluator::new(&targets, parent_opts);
            parent.evaluate(&parent_cfg).expect("parent evaluation");

            let (child_cfg, child_opts) = delta
                .apply(&parent_cfg, parent.options())
                .expect("delta applies to an EagleEye parent");
            let single = assert_delta_matches_cold(&parent, &targets, &child_cfg, &child_opts, 1);
            let multi = assert_delta_matches_cold(&parent, &targets, &child_cfg, &child_opts, 4);
            assert!(
                single.same_outcome(&multi),
                "delta evaluation diverged across thread counts:\
                 \nthreads=1: {single:?}\nthreads=4: {multi:?}"
            );
            if single.scheduler_calls > 0 && single.captured > 0 {
                scheduled_cases.set(scheduled_cases.get() + 1);
            }
            Ok(())
        },
    );
    assert!(
        scheduled_cases.get() > 0,
        "no case scheduled or captured anything — the generators have drifted off the hot path"
    );
}

/// Structural shrink under pinned layout must actually reuse the
/// parent's work — the differential guarantee would be vacuous if the
/// incremental path silently recompiled everything.
#[test]
fn pinned_remove_group_delta_reuses_parent_work() {
    let parent_cfg = ConstellationConfig::EagleEye {
        groups: 3,
        followers_per_group: 1,
        scheduler: SchedulerKind::Ilp,
        clustering: ClusteringMethod::Ilp,
    };
    let parent_opts = CoverageOptions {
        duration_s: 1_200.0,
        seed: 42,
        layout_slots: Some(3),
        ..CoverageOptions::default()
    };
    let targets = under_leaders(&parent_opts, &parent_cfg, 0, 42);
    let parent = CoverageEvaluator::new(&targets, parent_opts);
    parent.evaluate(&parent_cfg).expect("parent evaluation");

    let (report, stats) = parent
        .what_if(&parent_cfg, &ScenarioDelta::RemoveGroup)
        .expect("what-if evaluation");
    assert_eq!(
        stats.track_shares, 2,
        "both surviving leader tracks must be adopted: {stats:?}"
    );
    assert_eq!(
        stats.track_builds, 0,
        "nothing should compile from scratch: {stats:?}"
    );
    assert!(
        stats.memo_hits > 0,
        "surviving frames must replay memoized solves: {stats:?}"
    );

    let (child_cfg, child_opts) = ScenarioDelta::RemoveGroup
        .apply(&parent_cfg, parent.options())
        .expect("apply");
    let cold = CoverageEvaluator::new(&targets, child_opts)
        .evaluate(&child_cfg)
        .expect("cold child");
    assert!(
        report.same_outcome(&cold),
        "reused child diverged:\ndelta: {report:?}\ncold: {cold:?}"
    );
}

/// The perf half of the what-if contract: the first one-group
/// `RemoveGroup` delta on a freshly evaluated 12×2 parent costs under
/// 10 % of a cold evaluation of the same child. Best of 3 reps, each on
/// a fresh parent so the child is never already cached. A wall-clock
/// gate: it runs only in optimised builds, where the cold child takes
/// about 2.3 s on a 2-vCPU VM and the delta about 0.1 ms.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate; runs under --release")]
fn remove_group_delta_costs_under_a_tenth_of_a_cold_child() {
    const GROUPS: usize = 12;
    const REPS: usize = 3;
    const RATIO_GATE: f64 = 0.10;
    let parent_cfg = ConstellationConfig::eagleeye(GROUPS, 2);
    let parent_opts = CoverageOptions {
        duration_s: 1_800.0,
        seed: 7,
        layout_slots: Some(GROUPS),
        ..CoverageOptions::default()
    };
    let targets = Workload::ShipDetection.generate_scaled(0.2, 1_800.0, 7);

    let mut delta_wall = f64::INFINITY;
    let mut cold_wall = f64::INFINITY;
    for rep in 0..REPS {
        let parent = CoverageEvaluator::new(&targets, parent_opts.clone());
        parent.evaluate(&parent_cfg).expect("parent evaluation");
        let sw = Stopwatch::start();
        let (delta, _) = parent
            .what_if(&parent_cfg, &ScenarioDelta::RemoveGroup)
            .expect("what-if evaluation");
        delta_wall = delta_wall.min(sw.elapsed().as_secs_f64());

        let (child_cfg, child_opts) = ScenarioDelta::RemoveGroup
            .apply(&parent_cfg, parent.options())
            .expect("apply");
        let sw = Stopwatch::start();
        let cold = CoverageEvaluator::new(&targets, child_opts)
            .evaluate(&child_cfg)
            .expect("cold child evaluation");
        cold_wall = cold_wall.min(sw.elapsed().as_secs_f64());
        assert!(
            delta.same_outcome(&cold),
            "rep={rep}: what-if report diverged from cold child:\ndelta: {delta:?}\ncold: {cold:?}"
        );
        assert!(
            cold.scheduler_calls > 0 && cold.captured > 0,
            "the child must schedule and capture for its wall time to mean anything: {cold:?}"
        );
    }
    let ratio = delta_wall / cold_wall;
    eprintln!("delta {delta_wall:.4} s, cold child {cold_wall:.4} s, ratio {ratio:.5}");
    assert!(
        ratio < RATIO_GATE,
        "a one-group delta took {:.1} % of a cold child evaluation ({delta_wall:.4} s of \
         {cold_wall:.4} s; gate {:.0} %): the incremental path has regressed",
        ratio * 100.0,
        RATIO_GATE * 100.0
    );
}
