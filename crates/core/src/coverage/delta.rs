//! Incremental what-if re-evaluation (DESIGN.md §14).
//!
//! A [`ScenarioDelta`] is a small, validated edit to an evaluated
//! scenario — add or drop a trailing group or follower, nudge a
//! detection parameter, or inject one more fault window. Applying it
//! yields the *child* scenario `(ConstellationConfig, CoverageOptions)`
//! pair; evaluating the child on a [`fork_with`] sibling of the parent
//! evaluator reuses every compiled track (and its memoized horizon
//! solves) the edit left untouched, so only dirty frames are re-solved.
//!
//! Reuse is behaviour-invisible by construction: the child's report is
//! bit-identical to a cold evaluation of the same child scenario, which
//! the delta differential suite (`crates/core/tests/delta_differential.rs`)
//! asserts across seeded random `(scenario, delta)` pairs.
//!
//! [`fork_with`]: super::CoverageEvaluator::fork_with

use super::config::ConstellationConfig;
use super::evaluator::{CoverageEvaluator, CoverageOptions};
use super::report::CoverageReport;
use crate::error::CoreError;
use eagleeye_sim::{FaultKind, FaultPlan};
use std::sync::Arc;

/// One validated edit to a scenario. Group-structure edits apply to
/// [`ConstellationConfig::EagleEye`] only (the other organizations have
/// no group/follower structure to edit); parameter and fault edits
/// apply to any configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioDelta {
    /// Append one trailing leader-follower group. The surviving groups'
    /// orbits stay bit-identical only under slot-pinned phasing with
    /// spare capacity ([`CoverageOptions::layout_slots`]); otherwise
    /// the child re-phases and recompiles every track.
    AddGroup,
    /// Drop the trailing leader-follower group. [`ScenarioDelta::apply`]
    /// pins the child's [`CoverageOptions::layout_slots`] to the
    /// parent's group count so every surviving group keeps its orbital
    /// slot — the geometric precondition for track reuse.
    RemoveGroup,
    /// Add one follower to every group.
    AddFollower,
    /// Remove one follower from every group.
    RemoveFollower,
    /// Set the leader detection recall to a new value in `[0, 1]`.
    NudgeRecall(f64),
    /// Set (or clear) the recapture deprioritization penalty.
    NudgeRecapture(Option<f64>),
    /// Append one fault window `[start_s, end_s)` to the scenario's
    /// fault plan (starting an empty seeded plan when it has none).
    FaultWindow {
        /// The fault class and its parameters.
        kind: FaultKind,
        /// Window start, seconds of simulation time.
        start_s: f64,
        /// Window end, seconds (exclusive); `INFINITY` = permanent.
        end_s: f64,
    },
}

impl ScenarioDelta {
    /// The child scenario this delta produces from a parent. Pure:
    /// neither input is mutated, and the same `(config, options)` pair
    /// always yields the same child.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the delta does not apply —
    /// a group/follower edit on a non-EagleEye configuration, removing
    /// the last group or follower, an out-of-range parameter nudge, or
    /// a degenerate fault window.
    pub fn apply(
        &self,
        config: &ConstellationConfig,
        options: &CoverageOptions,
    ) -> Result<(ConstellationConfig, CoverageOptions), CoreError> {
        let mut child_cfg = *config;
        let mut child_opts = options.clone();
        match *self {
            ScenarioDelta::AddGroup => {
                let (groups, _) = eagleeye_groups(config, "add_group")?;
                set_groups(&mut child_cfg, groups + 1);
                // Spare pinned capacity keeps surviving orbits fixed;
                // an exhausted pin cannot hold the new group, so the
                // child falls back to organic phasing (full recompile).
                child_opts.layout_slots = options.layout_slots.filter(|&s| s > groups);
            }
            ScenarioDelta::RemoveGroup => {
                let (groups, _) = eagleeye_groups(config, "remove_group")?;
                if groups == 0 {
                    return Err(CoreError::InvalidParameter {
                        name: "remove_group",
                        value: 0.0,
                    });
                }
                set_groups(&mut child_cfg, groups - 1);
                child_opts.layout_slots = Some(options.layout_slots.unwrap_or(groups));
            }
            ScenarioDelta::AddFollower => {
                let (_, followers) = eagleeye_groups(config, "add_follower")?;
                set_followers(&mut child_cfg, followers + 1);
            }
            ScenarioDelta::RemoveFollower => {
                let (_, followers) = eagleeye_groups(config, "remove_follower")?;
                if followers == 0 {
                    return Err(CoreError::InvalidParameter {
                        name: "remove_follower",
                        value: 0.0,
                    });
                }
                set_followers(&mut child_cfg, followers - 1);
            }
            ScenarioDelta::NudgeRecall(recall) => {
                if !(0.0..=1.0).contains(&recall) {
                    return Err(CoreError::InvalidParameter {
                        name: "recall",
                        value: recall,
                    });
                }
                child_opts.recall = recall;
            }
            ScenarioDelta::NudgeRecapture(penalty) => {
                if let Some(p) = penalty {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(CoreError::InvalidParameter {
                            name: "recapture_penalty",
                            value: p,
                        });
                    }
                }
                child_opts.recapture_penalty = penalty;
            }
            ScenarioDelta::FaultWindow {
                kind,
                start_s,
                end_s,
            } => {
                check_fault_window(start_s, end_s)?;
                let base = match options.fault_plan.as_deref() {
                    Some(plan) => plan.clone(),
                    None => FaultPlan::new(options.seed),
                };
                child_opts.fault_plan = Some(Arc::new(base.with_fault(kind, start_s, end_s)));
            }
        }
        Ok((child_cfg, child_opts))
    }
}

/// Rejects a fault window `[start_s, end_s)` with a negative or NaN
/// start or an end not after its start, as `fault_window_end_s`. The one
/// rule for [`ScenarioDelta::FaultWindow`] and, at evaluation entry, for
/// every fault of [`CoverageOptions::fault_plan`].
pub(super) fn check_fault_window(start_s: f64, end_s: f64) -> Result<(), CoreError> {
    if start_s >= 0.0 && end_s > start_s {
        Ok(())
    } else {
        Err(CoreError::InvalidParameter {
            name: "fault_window_end_s",
            value: end_s,
        })
    }
}

/// The group/follower structure of an EagleEye configuration, or
/// [`CoreError::InvalidParameter`] (named after the offending delta)
/// for organizations without one.
fn eagleeye_groups(
    config: &ConstellationConfig,
    delta_name: &'static str,
) -> Result<(usize, usize), CoreError> {
    match *config {
        ConstellationConfig::EagleEye {
            groups,
            followers_per_group,
            ..
        } => Ok((groups, followers_per_group)),
        _ => Err(CoreError::InvalidParameter {
            name: delta_name,
            value: f64::NAN,
        }),
    }
}

fn set_groups(config: &mut ConstellationConfig, n: usize) {
    if let ConstellationConfig::EagleEye { groups, .. } = config {
        *groups = n;
    }
}

fn set_followers(config: &mut ConstellationConfig, n: usize) {
    if let ConstellationConfig::EagleEye {
        followers_per_group,
        ..
    } = config
    {
        *followers_per_group = n;
    }
}

/// Reuse achieved by one [`CoverageEvaluator::what_if`] call: the
/// difference of the shared compile cache's counters across the child
/// evaluation. `track_shares`/`memo_hits` is the work the delta saved;
/// `track_builds`/`memo_misses` is the dirty set it had to redo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Tracks compiled from scratch for the child (dirty satellites).
    pub track_builds: u64,
    /// Tracks the child adopted unchanged from the cross-scenario pool.
    pub track_shares: u64,
    /// Tracks reused from the child's own scenario cache (repeat
    /// evaluations of the same child).
    pub track_reuses: u64,
    /// Horizon solves replayed from an adopted track's memo.
    pub memo_hits: u64,
    /// Horizon solves performed live for the child.
    pub memo_misses: u64,
}

impl<'a> CoverageEvaluator<'a> {
    /// Applies `delta` to `config` (against this evaluator's options)
    /// and evaluates the child scenario on a [`fork_with`] sibling, so
    /// compiled tracks and memoized horizon solves the delta left
    /// untouched are reused instead of recomputed. Returns the child's
    /// report — bit-identical to a cold evaluation of the same child —
    /// plus the reuse counters of this call.
    ///
    /// # Errors
    ///
    /// Delta validation errors from [`ScenarioDelta::apply`], plus
    /// anything [`evaluate`](Self::evaluate) can raise.
    ///
    /// [`fork_with`]: Self::fork_with
    pub fn what_if(
        &self,
        config: &ConstellationConfig,
        delta: &ScenarioDelta,
    ) -> Result<(CoverageReport, DeltaStats), CoreError> {
        let (child_cfg, child_opts) = delta.apply(config, self.options())?;
        let child = self.fork_with(child_opts);
        let before = child.compile_stats();
        let report = child.evaluate(&child_cfg)?;
        let after = child.compile_stats();
        Ok((
            report,
            DeltaStats {
                track_builds: after.track_builds - before.track_builds,
                track_shares: after.track_shares - before.track_shares,
                track_reuses: after.track_reuses - before.track_reuses,
                memo_hits: after.memo_hits - before.memo_hits,
                memo_misses: after.memo_misses - before.memo_misses,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::SchedulerKind;
    use eagleeye_datasets::ShipGenerator;

    fn base_options() -> CoverageOptions {
        CoverageOptions {
            duration_s: 1_200.0,
            layout_slots: Some(4),
            ..CoverageOptions::default()
        }
    }

    #[test]
    fn remove_group_pins_layout_and_shrinks_config() {
        let cfg = ConstellationConfig::eagleeye(4, 2);
        let opts = CoverageOptions::default();
        let (child_cfg, child_opts) = ScenarioDelta::RemoveGroup.apply(&cfg, &opts).unwrap();
        match child_cfg {
            ConstellationConfig::EagleEye {
                groups,
                followers_per_group,
                ..
            } => {
                assert_eq!(groups, 3);
                assert_eq!(followers_per_group, 2);
            }
            other => panic!("unexpected child config {other:?}"),
        }
        // The parent phased organically over 4 slots; the child pins
        // those 4 slots so the surviving groups keep their orbits.
        assert_eq!(child_opts.layout_slots, Some(4));
    }

    #[test]
    fn add_group_keeps_pin_only_with_spare_capacity() {
        let cfg = ConstellationConfig::eagleeye(3, 1);
        let spare = CoverageOptions {
            layout_slots: Some(8),
            ..CoverageOptions::default()
        };
        let (_, child) = ScenarioDelta::AddGroup.apply(&cfg, &spare).unwrap();
        assert_eq!(child.layout_slots, Some(8));

        let exhausted = CoverageOptions {
            layout_slots: Some(3),
            ..CoverageOptions::default()
        };
        let (_, child) = ScenarioDelta::AddGroup.apply(&cfg, &exhausted).unwrap();
        assert_eq!(child.layout_slots, None);
    }

    #[test]
    fn structural_deltas_reject_non_eagleeye_configs() {
        let opts = CoverageOptions::default();
        for cfg in [
            ConstellationConfig::LowResOnly { satellites: 4 },
            ConstellationConfig::MixCamera {
                satellites: 3,
                compute_time_s: 1.4,
            },
        ] {
            for delta in [
                ScenarioDelta::AddGroup,
                ScenarioDelta::RemoveGroup,
                ScenarioDelta::AddFollower,
                ScenarioDelta::RemoveFollower,
            ] {
                assert!(
                    delta.apply(&cfg, &opts).is_err(),
                    "{delta:?} must reject {cfg:?}"
                );
            }
        }
        // Parameter and fault deltas apply everywhere.
        let cfg = ConstellationConfig::LowResOnly { satellites: 4 };
        assert!(ScenarioDelta::NudgeRecall(0.5).apply(&cfg, &opts).is_ok());
        assert!(ScenarioDelta::FaultWindow {
            kind: FaultKind::LeaderOutage,
            start_s: 10.0,
            end_s: 20.0,
        }
        .apply(&cfg, &opts)
        .is_ok());
    }

    #[test]
    fn parameter_deltas_validate_ranges() {
        let cfg = ConstellationConfig::eagleeye(2, 1);
        let opts = CoverageOptions::default();
        assert!(ScenarioDelta::NudgeRecall(1.5).apply(&cfg, &opts).is_err());
        assert!(ScenarioDelta::NudgeRecall(-0.1).apply(&cfg, &opts).is_err());
        assert!(ScenarioDelta::NudgeRecapture(Some(2.0))
            .apply(&cfg, &opts)
            .is_err());
        assert!(ScenarioDelta::NudgeRecapture(None)
            .apply(&cfg, &opts)
            .is_ok());
        assert!(ScenarioDelta::FaultWindow {
            kind: FaultKind::BatteryBrownout,
            start_s: 30.0,
            end_s: 30.0,
        }
        .apply(&cfg, &opts)
        .is_err());
        assert!(ScenarioDelta::RemoveFollower
            .apply(&ConstellationConfig::eagleeye(2, 0), &opts)
            .is_err());
        assert!(ScenarioDelta::RemoveGroup
            .apply(&ConstellationConfig::eagleeye(0, 1), &opts)
            .is_err());
    }

    #[test]
    fn fault_window_appends_to_existing_plan() {
        let cfg = ConstellationConfig::eagleeye(2, 1);
        let opts = CoverageOptions {
            fault_plan: Some(Arc::new(FaultPlan::new(9).with_fault(
                FaultKind::LeaderOutage,
                100.0,
                200.0,
            ))),
            ..CoverageOptions::default()
        };
        let (_, child) = ScenarioDelta::FaultWindow {
            kind: FaultKind::FollowerOutage { follower: 0 },
            start_s: 400.0,
            end_s: f64::INFINITY,
        }
        .apply(&cfg, &opts)
        .unwrap();
        let plan = child.fault_plan.unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.faults().len(), 2);
        // The parent's plan is untouched (pure application).
        assert_eq!(opts.fault_plan.as_deref().unwrap().faults().len(), 1);
    }

    #[test]
    fn what_if_remove_group_reuses_surviving_tracks_bit_identically() {
        let ships = ShipGenerator::new().with_count(4_000).generate(11);
        let parent_cfg = ConstellationConfig::EagleEye {
            groups: 4,
            followers_per_group: 1,
            scheduler: SchedulerKind::Ilp,
            clustering: crate::clustering::ClusteringMethod::Ilp,
        };
        let parent = CoverageEvaluator::new(&ships, base_options());
        parent.evaluate(&parent_cfg).unwrap();

        let (delta_report, stats) = parent
            .what_if(&parent_cfg, &ScenarioDelta::RemoveGroup)
            .unwrap();
        // 3 of 4 leader tracks survive the removal and are adopted
        // from the pool, memoized horizon solves included.
        assert_eq!(stats.track_shares, 3, "stats: {stats:?}");
        assert_eq!(stats.track_builds, 0, "stats: {stats:?}");
        assert!(stats.memo_hits > 0, "stats: {stats:?}");

        // Bit-identical to a cold evaluation of the same child.
        let (child_cfg, child_opts) = ScenarioDelta::RemoveGroup
            .apply(&parent_cfg, parent.options())
            .unwrap();
        let cold = CoverageEvaluator::new(&ships, child_opts);
        let cold_report = cold.evaluate(&child_cfg).unwrap();
        assert!(
            delta_report.same_outcome(&cold_report),
            "delta {delta_report:?} != cold {cold_report:?}"
        );
    }

    #[test]
    fn what_if_fault_window_shares_tracks_and_resolves_dirty_frames() {
        let ships = ShipGenerator::new().with_count(4_000).generate(11);
        let cfg = ConstellationConfig::EagleEye {
            groups: 2,
            followers_per_group: 1,
            scheduler: SchedulerKind::Resilient,
            clustering: crate::clustering::ClusteringMethod::Ilp,
        };
        let opts = CoverageOptions {
            fault_plan: Some(Arc::new(FaultPlan::new(3))),
            ..base_options()
        };
        let parent = CoverageEvaluator::new(&ships, opts);
        parent.evaluate(&cfg).unwrap();

        // A horizon-wide slew derate perturbs the solver inputs of
        // every scheduled frame, so the digests diverge everywhere.
        let delta = ScenarioDelta::FaultWindow {
            kind: FaultKind::SlewDerate { rate_factor: 0.5 },
            start_s: 0.0,
            end_s: f64::INFINITY,
        };
        let (delta_report, stats) = parent.what_if(&cfg, &delta).unwrap();
        // The fault plan is not part of the track identity: both
        // leader tracks are adopted, but every dirty horizon re-solves
        // live instead of replaying the parent's memo.
        assert_eq!(stats.track_shares, 2, "stats: {stats:?}");
        assert_eq!(stats.memo_hits, 0, "stats: {stats:?}");
        assert!(stats.memo_misses > 0, "stats: {stats:?}");

        let (child_cfg, child_opts) = delta.apply(&cfg, parent.options()).unwrap();
        let cold = CoverageEvaluator::new(&ships, child_opts);
        let cold_report = cold.evaluate(&child_cfg).unwrap();
        assert!(
            delta_report.same_outcome(&cold_report),
            "delta {delta_report:?} != cold {cold_report:?}"
        );
    }
}
