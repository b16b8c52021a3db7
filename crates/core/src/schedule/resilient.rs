//! Degraded-mode scheduling: budgeted ILP with greedy fallback,
//! post-validation, and mid-pass failure repair.
//!
//! The paper's evaluation assumes a healthy constellation; a deployed
//! system does not get that luxury. [`ResilientScheduler`] wraps the
//! exact [`IlpScheduler`] with three safety layers:
//!
//! 1. **A per-horizon time budget.** Each scheduling horizon (one
//!    leader frame) gets a hard wall-clock budget, plumbed into the
//!    ILP solver's deadline machinery. A horizon that blows the budget
//!    degrades to the greedy baseline instead of stalling the pass.
//! 2. **Post-validation.** Every schedule — ILP or greedy — is checked
//!    against the paper's constraints C1–C3 by [`validate_schedule`]
//!    before it is returned. An unvalidatable schedule is never
//!    handed to the caller.
//! 3. **Repair.** When a follower fails mid-pass,
//!    [`ResilientScheduler::repair`] truncates its sequence at the
//!    outage onset and re-plans the dropped targets onto the surviving
//!    followers, appending only captures that are still feasible.
//!
//! The [`ScheduleOutcome`] records why any horizon fell back to the
//! greedy baseline (no reason means the ILP's schedule), so experiment
//! harnesses can report fallback rates rather than silently absorbing
//! them.

use super::ilp::IlpRunStats;
use super::{Capture, GreedyScheduler, IlpScheduler, Schedule, Scheduler, SchedulingProblem};
use crate::pointing::off_nadir_rad;
use crate::CoreError;
use std::collections::BTreeSet;
use std::time::Duration;

/// Validates `schedule` against `problem`'s constraints:
///
/// * capture times lie in each task's visibility window (C2: the
///   window *is* the off-nadir constraint, re-verified directly from
///   raw geometry);
/// * consecutive captures satisfy the actuation constraint C1,
///   including the slew from the follower's initial pointing;
/// * each task is captured at most once across all followers (C3's
///   capture-once coupling);
/// * sequences are time-ordered and start after availability;
/// * the reported total value matches the captured tasks.
///
/// # Errors
///
/// Returns [`CoreError::ScheduleViolation`] describing the first
/// violated condition.
pub fn validate_schedule(
    problem: &SchedulingProblem,
    schedule: &Schedule,
) -> Result<(), CoreError> {
    let spec = problem.spec();
    if schedule.sequences.len() != problem.followers().len() {
        return Err(CoreError::ScheduleViolation {
            description: format!(
                "schedule has {} sequences for {} followers",
                schedule.sequences.len(),
                problem.followers().len()
            ),
        });
    }
    let mut seen = BTreeSet::new();
    for (f, seq) in schedule.sequences.iter().enumerate() {
        let follower = &problem.followers()[f];
        let mut prev_t = follower.available_from_s;
        let mut prev_u = follower.pointing_offset;
        for (k, cap) in seq.iter().enumerate() {
            if cap.task >= problem.tasks().len() {
                return Err(CoreError::ScheduleViolation {
                    description: format!("capture references task {}", cap.task),
                });
            }
            if !seen.insert(cap.task) {
                return Err(CoreError::ScheduleViolation {
                    description: format!("task {} captured twice", cap.task),
                });
            }
            if cap.time_s < prev_t - 1e-9 {
                return Err(CoreError::ScheduleViolation {
                    description: format!(
                        "follower {f} capture {k} at {} precedes {}",
                        cap.time_s, prev_t
                    ),
                });
            }
            let w = problem
                .window(f, cap.task)
                .ok_or_else(|| CoreError::ScheduleViolation {
                    description: format!("task {} invisible to follower {f}", cap.task),
                })?;
            if !w.contains(cap.time_s) {
                return Err(CoreError::ScheduleViolation {
                    description: format!(
                        "capture of task {} at {} outside window [{}, {}]",
                        cap.task, cap.time_s, w.start_s, w.end_s
                    ),
                });
            }
            // C2 re-verified from raw geometry.
            let sat = follower.along_at(cap.time_s, spec.ground_speed_m_s);
            let angle = off_nadir_rad(&problem.tasks()[cap.task].point, sat, spec.altitude_m);
            if angle > spec.theta_max_rad + 1e-6 {
                return Err(CoreError::ScheduleViolation {
                    description: format!(
                        "off-nadir {:.4} rad exceeds max {:.4}",
                        angle, spec.theta_max_rad
                    ),
                });
            }
            // C1 against the previous configuration.
            let u = problem.capture_offset(f, cap.task, cap.time_s);
            let rot = problem.rotation_between(prev_u, u);
            if !spec.adacs.can_rotate(rot, cap.time_s - prev_t) {
                return Err(CoreError::ScheduleViolation {
                    description: format!(
                        "follower {f}: rotation {:.4} rad in {:.2} s violates C1",
                        rot,
                        cap.time_s - prev_t
                    ),
                });
            }
            prev_t = cap.time_s;
            prev_u = u;
        }
    }
    // Total value consistency.
    let value: f64 = seen.iter().map(|&j| problem.tasks()[j].value).sum();
    if (value - schedule.total_value).abs() > 1e-6 * (1.0 + value.abs()) {
        return Err(CoreError::ScheduleViolation {
            description: format!(
                "reported value {} != recomputed {}",
                schedule.total_value, value
            ),
        });
    }
    Ok(())
}

/// Why a horizon fell back from the ILP to greedy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackReason {
    /// The ILP hit its wall-clock budget on at least one subproblem.
    Deadline,
    /// The ILP hit the simplex iteration cap on at least one
    /// subproblem (degenerate instance).
    IterationLimit,
    /// The ILP solved but the cheap greedy baseline scored higher
    /// (coarse slot discretization on a large instance).
    GreedyDominated,
    /// The ILP returned an unrecoverable solver error (message kept
    /// for diagnosis).
    SolverError(String),
    /// The ILP's schedule failed post-validation (message kept for
    /// diagnosis). This indicates a solver bug; the greedy result is
    /// substituted and re-validated.
    ValidationFailed(String),
}

/// The result of one [`ResilientScheduler::schedule_with_outcome`]
/// call: the (always validated) schedule plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// The validated schedule.
    pub schedule: Schedule,
    /// Why the ILP was abandoned, when it was: `Some` exactly when the
    /// greedy baseline produced the schedule.
    pub fallback: Option<FallbackReason>,
    /// Raw ILP diagnostics, when the ILP ran at all.
    pub ilp_stats: Option<IlpRunStats>,
}

/// The result of one [`ResilientScheduler::repair`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The repaired, validated schedule.
    pub schedule: Schedule,
    /// Tasks dropped from failed followers' sequences.
    pub dropped_tasks: usize,
    /// Of those, tasks successfully re-planned onto survivors.
    pub reassigned_tasks: usize,
}

/// Budgeted, validating, repairing wrapper around [`IlpScheduler`].
/// See the module-level docs for the three safety layers.
///
/// # Example
///
/// ```
/// use eagleeye_core::schedule::{
///     FollowerState, ResilientScheduler, SchedulingProblem, TaskSpec,
/// };
/// use eagleeye_core::SensingSpec;
///
/// let p = SchedulingProblem::new(
///     SensingSpec::paper_default(),
///     vec![TaskSpec::new(0.0, 40_000.0, 1.0)],
///     vec![FollowerState::at_start(-100_000.0)],
/// )?;
/// let outcome = ResilientScheduler::default().schedule_with_outcome(&p)?;
/// assert_eq!(outcome.fallback, None);
/// assert_eq!(outcome.schedule.captured_count(), 1);
/// # Ok::<(), eagleeye_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientScheduler {
    /// The wrapped exact scheduler. Its `time_limit` is the hard
    /// wall-clock budget per scheduling horizon (2 s by default).
    pub ilp: IlpScheduler,
}

impl Default for ResilientScheduler {
    fn default() -> Self {
        ResilientScheduler {
            ilp: IlpScheduler {
                time_limit: Duration::from_secs(2),
                ..IlpScheduler::default()
            },
        }
    }
}

impl ResilientScheduler {
    /// Schedules `problem` within the horizon budget and reports the
    /// outcome. The returned schedule is always validated against
    /// C1–C3; the outcome records which solver produced it and why
    /// any fallback happened.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ScheduleViolation`] only if *both* the ILP
    /// and the greedy fallback produce unvalidatable schedules (a bug,
    /// not an operating condition), or [`CoreError::Solver`] if the
    /// greedy fallback itself errors.
    pub fn schedule_with_outcome(
        &self,
        problem: &SchedulingProblem,
    ) -> Result<ScheduleOutcome, CoreError> {
        match self.ilp.schedule_with_stats(problem) {
            Ok((schedule, stats)) => {
                let fallback = if stats.deadline_hits > 0 {
                    Some(FallbackReason::Deadline)
                } else if stats.iteration_limit_hits > 0 {
                    Some(FallbackReason::IterationLimit)
                } else if stats.greedy_dominated {
                    Some(FallbackReason::GreedyDominated)
                } else {
                    None
                };
                match validate_schedule(problem, &schedule) {
                    Ok(()) => Ok(ScheduleOutcome {
                        schedule,
                        fallback,
                        ilp_stats: Some(stats),
                    }),
                    Err(e) => self.greedy_fallback(
                        problem,
                        FallbackReason::ValidationFailed(e.to_string()),
                        Some(stats),
                    ),
                }
            }
            Err(e) => {
                self.greedy_fallback(problem, FallbackReason::SolverError(e.to_string()), None)
            }
        }
    }

    fn greedy_fallback(
        &self,
        problem: &SchedulingProblem,
        reason: FallbackReason,
        stats: Option<IlpRunStats>,
    ) -> Result<ScheduleOutcome, CoreError> {
        let schedule = GreedyScheduler.schedule(problem)?;
        validate_schedule(problem, &schedule)?;
        Ok(ScheduleOutcome {
            schedule,
            fallback: Some(reason),
            ilp_stats: stats,
        })
    }

    /// Repairs `schedule` after mid-pass follower failures: for each
    /// `(follower, onset_s)` in `failures`, captures at or after the
    /// onset are dropped, and the dropped tasks are greedily re-planned
    /// onto surviving followers — appended after each survivor's last
    /// planned capture, no earlier than the onset at which the loss
    /// became known. The repaired schedule is re-validated before it
    /// is returned.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ScheduleViolation`] if the repaired
    /// schedule fails validation (a bug, not an operating condition).
    pub fn repair(
        &self,
        problem: &SchedulingProblem,
        schedule: &Schedule,
        failures: &[(usize, f64)],
    ) -> Result<RepairOutcome, CoreError> {
        let mut repaired = schedule.clone();
        let failed: BTreeSet<usize> = failures.iter().map(|&(f, _)| f).collect();

        // Truncate failed followers and collect what they drop.
        let mut dropped: Vec<(usize, f64)> = Vec::new(); // (task, known-at time)
        for &(f, onset_s) in failures {
            if f >= repaired.sequences.len() {
                continue;
            }
            let seq = std::mem::take(&mut repaired.sequences[f]);
            let (kept, lost): (Vec<Capture>, Vec<Capture>) =
                seq.into_iter().partition(|c| c.time_s < onset_s);
            dropped.extend(lost.iter().map(|c| (c.task, onset_s)));
            repaired.sequences[f] = kept;
        }
        let dropped_tasks = dropped.len();

        // Survivor cursors pick up after their last planned capture.
        let mut cursors: Vec<(f64, (f64, f64))> = problem
            .followers()
            .iter()
            .enumerate()
            .map(|(f, st)| match repaired.sequences[f].last() {
                Some(c) => (c.time_s, problem.capture_offset(f, c.task, c.time_s)),
                None => (st.available_from_s, st.pointing_offset),
            })
            .collect();

        // Greedy re-planning: repeatedly place the globally earliest
        // still-feasible (survivor, dropped task) pair.
        let mut reassigned = 0usize;
        let mut remaining = dropped;
        while !remaining.is_empty() {
            let mut best: Option<(usize, usize, f64)> = None; // (f, idx, t)
            for (f, cursor) in cursors.iter().enumerate() {
                if failed.contains(&f) {
                    continue;
                }
                for (idx, &(task, known_at)) in remaining.iter().enumerate() {
                    let from_t = cursor.0.max(known_at);
                    if let Some(t) = problem.earliest_capture(f, task, from_t, cursor.1) {
                        match best {
                            Some((_, _, bt)) if bt <= t => {}
                            _ => best = Some((f, idx, t)),
                        }
                    }
                }
            }
            let Some((f, idx, t)) = best else { break };
            let (task, _) = remaining.swap_remove(idx);
            repaired.sequences[f].push(Capture { task, time_s: t });
            cursors[f] = (t, problem.capture_offset(f, task, t));
            reassigned += 1;
        }

        repaired.total_value = repaired
            .captured_tasks()
            .iter()
            .map(|&j| problem.tasks()[j].value)
            .sum();
        validate_schedule(problem, &repaired)?;
        Ok(RepairOutcome {
            schedule: repaired,
            dropped_tasks,
            reassigned_tasks: reassigned,
        })
    }
}

impl Scheduler for ResilientScheduler {
    fn schedule(&self, problem: &SchedulingProblem) -> Result<Schedule, CoreError> {
        self.schedule_with_outcome(problem).map(|o| o.schedule)
    }

    fn name(&self) -> &'static str {
        "resilient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FollowerState, TaskSpec};
    use crate::SensingSpec;

    fn problem(tasks: Vec<TaskSpec>, followers: Vec<FollowerState>) -> SchedulingProblem {
        SchedulingProblem::new(SensingSpec::paper_default(), tasks, followers).unwrap()
    }

    fn spread_tasks(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| {
                TaskSpec::new(
                    ((i * 37) % 160) as f64 * 1_000.0 - 80_000.0,
                    20_000.0 + ((i * 13) % 90) as f64 * 1_500.0,
                    1.0 + (i % 3) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn clean_solve_reports_ilp() {
        let p = problem(spread_tasks(6), vec![FollowerState::at_start(-100_000.0)]);
        let o = ResilientScheduler::default()
            .schedule_with_outcome(&p)
            .unwrap();
        assert!(o.fallback.is_none());
        let stats = o.ilp_stats.unwrap();
        assert_eq!((stats.deadline_hits, stats.iteration_limit_hits), (0, 0));
        assert!(!stats.greedy_dominated);
        validate_schedule(&p, &o.schedule).unwrap();
    }

    #[test]
    fn zero_budget_falls_back_to_greedy_with_deadline_reason() {
        let p = problem(
            spread_tasks(20),
            vec![
                FollowerState::at_start(-100_000.0),
                FollowerState::at_start(-120_000.0),
            ],
        );
        let rs = ResilientScheduler {
            ilp: IlpScheduler {
                time_limit: Duration::ZERO,
                ..IlpScheduler::default()
            },
        };
        let o = rs.schedule_with_outcome(&p).unwrap();
        assert!(
            matches!(o.fallback, Some(FallbackReason::Deadline)),
            "expected deadline fallback, got {:?}",
            o.fallback
        );
        // The fallback schedule still captures work and still validates.
        validate_schedule(&p, &o.schedule).unwrap();
        assert!(o.schedule.captured_count() > 0);
    }

    #[test]
    fn outcome_schedule_matches_trait_schedule() {
        let p = problem(spread_tasks(8), vec![FollowerState::at_start(-100_000.0)]);
        let rs = ResilientScheduler::default();
        let via_outcome = rs.schedule_with_outcome(&p).unwrap().schedule;
        let via_trait = rs.schedule(&p).unwrap();
        assert_eq!(via_outcome, via_trait);
        assert_eq!(rs.name(), "resilient");
    }

    #[test]
    fn repair_reassigns_dropped_tasks_to_survivors() {
        // Well-spaced tasks two followers can split; fail follower 0
        // before its first capture and demand survivors pick up the load.
        let tasks: Vec<TaskSpec> = (0..6)
            .map(|i| TaskSpec::new(0.0, 30_000.0 + i as f64 * 25_000.0, 1.0))
            .collect();
        let p = problem(
            tasks,
            vec![
                FollowerState::at_start(-100_000.0),
                FollowerState::at_start(-130_000.0),
            ],
        );
        let rs = ResilientScheduler::default();
        let o = rs.schedule_with_outcome(&p).unwrap();
        let before = o.schedule.captured_count();
        assert!(before > 0);
        let f0_caps = o.schedule.sequences[0].len();
        assert!(f0_caps > 0, "test premise: follower 0 does work");

        let repaired = rs.repair(&p, &o.schedule, &[(0, 0.0)]).unwrap();
        assert!(repaired.schedule.sequences[0].is_empty());
        assert_eq!(repaired.dropped_tasks, f0_caps);
        assert!(
            repaired.reassigned_tasks > 0,
            "survivor should recover some tasks"
        );
        validate_schedule(&p, &repaired.schedule).unwrap();
    }

    #[test]
    fn repair_keeps_captures_before_onset() {
        let tasks: Vec<TaskSpec> = (0..4)
            .map(|i| TaskSpec::new(0.0, 30_000.0 + i as f64 * 30_000.0, 1.0))
            .collect();
        let p = problem(tasks, vec![FollowerState::at_start(-100_000.0)]);
        let rs = ResilientScheduler::default();
        let o = rs.schedule_with_outcome(&p).unwrap();
        let seq = &o.schedule.sequences[0];
        assert!(seq.len() >= 2);
        // Fail right after the first capture: it must survive the repair.
        let onset = seq[0].time_s + 0.1;
        let repaired = rs.repair(&p, &o.schedule, &[(0, onset)]).unwrap();
        assert_eq!(repaired.schedule.sequences[0].len(), 1);
        assert_eq!(repaired.schedule.sequences[0][0], seq[0]);
        // With no survivors nothing can be reassigned.
        assert_eq!(repaired.reassigned_tasks, 0);
        assert_eq!(repaired.dropped_tasks, seq.len() - 1);
        validate_schedule(&p, &repaired.schedule).unwrap();
    }

    #[test]
    fn repair_respects_onset_knowledge_time() {
        // Survivor re-plans only at/after the onset time.
        let tasks: Vec<TaskSpec> = (0..4)
            .map(|i| TaskSpec::new(0.0, 30_000.0 + i as f64 * 25_000.0, 1.0))
            .collect();
        let p = problem(
            tasks,
            vec![
                FollowerState::at_start(-100_000.0),
                FollowerState::at_start(-100_500.0),
            ],
        );
        let rs = ResilientScheduler::default();
        let o = rs.schedule_with_outcome(&p).unwrap();
        if o.schedule.sequences[0].is_empty() {
            return; // nothing to drop; vacuous instance
        }
        let onset = 5.0;
        let repaired = rs.repair(&p, &o.schedule, &[(0, onset)]).unwrap();
        // Any capture appended to follower 1 beyond its original plan
        // must be at or after the onset.
        let orig_len = o.schedule.sequences[1].len();
        for c in repaired.schedule.sequences[1].iter().skip(orig_len) {
            assert!(
                c.time_s >= onset,
                "reassigned capture at {} before onset",
                c.time_s
            );
        }
        validate_schedule(&p, &repaired.schedule).unwrap();
    }
}
