//! Degraded-mode scheduling support: post-validation and mid-pass
//! failure repair.
//!
//! The paper's evaluation assumes a healthy constellation; a deployed
//! system does not get that luxury. Under
//! [`DegradedMode::Repair`](crate::coverage::DegradedMode::Repair) the
//! coverage evaluator uses both halves of this module:
//!
//! 1. **Post-validation.** [`validate_schedule`] checks a schedule
//!    against the paper's constraints C1–C3, so an unvalidatable ILP
//!    schedule is replaced by greedy's instead of being executed.
//! 2. **Repair.** When a follower fails mid-pass, [`repair`] truncates
//!    its sequence at the outage onset and re-plans the dropped targets
//!    onto the surviving followers, appending only captures that are
//!    still feasible.

use super::{Capture, Schedule, SchedulingProblem};
use crate::pointing::off_nadir_rad;
use crate::CoreError;
use std::collections::BTreeSet;

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

/// The result of one [`repair`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The repaired, validated schedule.
    pub schedule: Schedule,
    /// Tasks dropped from failed followers' sequences.
    pub dropped_tasks: usize,
    /// Of those, tasks successfully re-planned onto survivors.
    pub reassigned_tasks: usize,
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
///
/// # Example
///
/// ```
/// use eagleeye_core::schedule::{
///     repair, FollowerState, IlpScheduler, Scheduler, SchedulingProblem, TaskSpec,
/// };
/// use eagleeye_core::SensingSpec;
///
/// let p = SchedulingProblem::new(
///     SensingSpec::paper_default(),
///     vec![TaskSpec::new(0.0, 40_000.0, 1.0)],
///     vec![
///         FollowerState::at_start(-100_000.0),
///         FollowerState::at_start(-130_000.0),
///     ],
/// )?;
/// let schedule = IlpScheduler::default().schedule(&p)?;
/// // The follower that took the task fails at the start of the pass;
/// // the other one takes it over.
/// let lost = usize::from(schedule.sequences[0].is_empty());
/// let repaired = repair(&p, &schedule, &[(lost, 0.0)])?;
/// assert_eq!((repaired.dropped_tasks, repaired.reassigned_tasks), (1, 1));
/// assert_eq!(repaired.schedule.sequences[1 - lost].len(), 1);
/// # Ok::<(), eagleeye_core::CoreError>(())
/// ```
pub fn repair(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FollowerState, IlpScheduler, Scheduler, TaskSpec};
    use crate::SensingSpec;

    fn problem(tasks: Vec<TaskSpec>, followers: Vec<FollowerState>) -> SchedulingProblem {
        SchedulingProblem::new(SensingSpec::paper_default(), tasks, followers).unwrap()
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
        let schedule = IlpScheduler::default().schedule(&p).unwrap();
        let before = schedule.captured_count();
        assert!(before > 0);
        let f0_caps = schedule.sequences[0].len();
        assert!(f0_caps > 0, "test premise: follower 0 does work");

        let repaired = repair(&p, &schedule, &[(0, 0.0)]).unwrap();
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
        let schedule = IlpScheduler::default().schedule(&p).unwrap();
        let seq = &schedule.sequences[0];
        assert!(seq.len() >= 2);
        // Fail right after the first capture: it must survive the repair.
        let onset = seq[0].time_s + 0.1;
        let repaired = repair(&p, &schedule, &[(0, onset)]).unwrap();
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
        let schedule = IlpScheduler::default().schedule(&p).unwrap();
        if schedule.sequences[0].is_empty() {
            return; // nothing to drop; vacuous instance
        }
        let onset = 5.0;
        let repaired = repair(&p, &schedule, &[(0, onset)]).unwrap();
        // Any capture appended to follower 1 beyond its original plan
        // must be at or after the onset.
        let orig_len = schedule.sequences[1].len();
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
