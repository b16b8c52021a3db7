use super::problem::{first_earliest, uncaptured, Cursor};
use super::{Capture, Schedule, Scheduler, SchedulingProblem};
use crate::CoreError;
use std::collections::BTreeSet;

/// The greedy nearest-target baseline (paper §4.3 "Alternative
/// formulations"): each follower repeatedly captures the not-yet-captured
/// target it can reach *soonest*, at the earliest feasible time.
///
/// With several followers the globally earliest (follower, target) pair
/// is chosen each round. The paper measures 4.3–14.4 % lower coverage
/// than the ILP (Fig. 11a).
///
/// # Example
///
/// ```
/// use eagleeye_core::schedule::{FollowerState, GreedyScheduler, Scheduler, SchedulingProblem, TaskSpec};
/// use eagleeye_core::SensingSpec;
///
/// let p = SchedulingProblem::new(
///     SensingSpec::paper_default(),
///     vec![TaskSpec::new(0.0, 40_000.0, 1.0)],
///     vec![FollowerState::at_start(-100_000.0)],
/// )?;
/// let s = GreedyScheduler.schedule(&p)?;
/// assert_eq!(s.captured_count(), 1);
/// # Ok::<(), eagleeye_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyScheduler;

impl Scheduler for GreedyScheduler {
    fn schedule(&self, problem: &SchedulingProblem) -> Result<Schedule, CoreError> {
        let n_followers = problem.followers().len();
        let n_tasks = problem.tasks().len();
        let mut schedule = Schedule::empty(n_followers);
        if n_followers == 0 || n_tasks == 0 {
            return Ok(schedule);
        }
        append_greedily(
            problem,
            &mut problem.start_cursors(),
            &mut vec![false; n_tasks],
            &mut schedule.sequences,
        );
        schedule.total_value = problem.value_of(&schedule.captured_tasks());
        Ok(schedule)
    }
}

/// Appends the globally earliest feasible capture of a task not yet
/// `captured`, until none is left: ties go to the lowest follower, then
/// the lowest task. Greedy runs it from the followers' start, and the
/// ILP's augmentation after its left-shift pass.
pub(super) fn append_greedily(
    problem: &SchedulingProblem,
    cursors: &mut [Cursor],
    captured: &mut [bool],
    sequences: &mut [Vec<Capture>],
) {
    while let Some((f, _, capture)) = first_earliest(
        problem.next_captures(cursors.iter().copied().enumerate(), uncaptured(captured)),
    ) {
        captured[capture.task] = true;
        sequences[f].push(capture);
        cursors[f] = problem.cursor_after(f, capture);
    }
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

/// Repairs `schedule` after mid-pass follower failures (paper §4.7):
/// for each `(follower, onset_s)` in `failures`, captures at or after
/// the onset are dropped, and the dropped tasks are greedily re-planned
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
    let mut remaining: Vec<(usize, f64)> = Vec::new(); // (task, known-at time)
    for &(f, onset_s) in failures {
        if f >= repaired.sequences.len() {
            continue;
        }
        let seq = std::mem::take(&mut repaired.sequences[f]);
        let (kept, lost): (Vec<Capture>, Vec<Capture>) =
            seq.into_iter().partition(|c| c.time_s < onset_s);
        remaining.extend(lost.iter().map(|c| (c.task, onset_s)));
        repaired.sequences[f] = kept;
    }
    let dropped_tasks = remaining.len();

    // Survivor cursors pick up after their last planned capture.
    let mut cursors = problem.start_cursors();
    for (f, cursor) in cursors.iter_mut().enumerate() {
        if let Some(&last) = repaired.sequences[f].last() {
            *cursor = problem.cursor_after(f, last);
        }
    }

    // Greedy re-planning on the survivors. `swap_remove` moves the last
    // dropped task into the placed one's position, which decides later
    // ties, so it is part of the policy.
    loop {
        let survivors = cursors
            .iter()
            .copied()
            .enumerate()
            .filter(|(f, _)| !failed.contains(f));
        let candidates = remaining
            .iter()
            .map(|&(task, known_at)| (task, Some(known_at)));
        let Some((f, k, capture)) = first_earliest(problem.next_captures(survivors, candidates))
        else {
            break;
        };
        remaining.swap_remove(k);
        repaired.sequences[f].push(capture);
        cursors[f] = problem.cursor_after(f, capture);
    }

    repaired.total_value = problem.value_of(&repaired.captured_tasks());
    repaired.validate(problem)?;
    Ok(RepairOutcome {
        schedule: repaired,
        dropped_tasks,
        reassigned_tasks: dropped_tasks - remaining.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FollowerState, IlpScheduler, TaskSpec};
    use crate::SensingSpec;

    fn problem(tasks: Vec<TaskSpec>, followers: Vec<FollowerState>) -> SchedulingProblem {
        SchedulingProblem::new(SensingSpec::paper_default(), tasks, followers).unwrap()
    }

    #[test]
    fn empty_is_fine() {
        let p = problem(vec![], vec![FollowerState::at_start(0.0)]);
        let s = GreedyScheduler.schedule(&p).unwrap();
        s.validate(&p).unwrap();
    }

    #[test]
    fn greedy_schedules_are_always_feasible() {
        let tasks: Vec<TaskSpec> = (0..12)
            .map(|i| {
                TaskSpec::new(
                    ((i * 53) % 170) as f64 * 1_000.0 - 85_000.0,
                    ((i * 29) % 100) as f64 * 1_100.0,
                    1.0 + (i % 4) as f64 * 0.5,
                )
            })
            .collect();
        let p = problem(tasks, vec![FollowerState::at_start(-100_000.0)]);
        let s = GreedyScheduler.schedule(&p).unwrap();
        s.validate(&p).unwrap();
        assert!(s.captured_count() > 0);
    }

    #[test]
    fn greedy_can_be_value_suboptimal() {
        // Greedy takes the nearest (low-value) target first and misses
        // the far, high-value one; ILP prefers value. This is the §4.3
        // gap. Construct: cheap target dead ahead, valuable target on the
        // opposite extreme whose window closes before greedy can re-slew.
        let p = problem(
            vec![
                TaskSpec::new(-85_000.0, 20_000.0, 0.1),
                TaskSpec::new(88_000.0, 25_000.0, 10.0),
            ],
            vec![FollowerState::at_start(-80_000.0)],
        );
        let g = GreedyScheduler.schedule(&p).unwrap();
        let i = IlpScheduler::default().schedule(&p).unwrap();
        g.validate(&p).unwrap();
        i.validate(&p).unwrap();
        assert!(i.total_value >= g.total_value - 1e-9);
    }

    #[test]
    fn multi_follower_greedy_divides_work() {
        let tasks: Vec<TaskSpec> = (0..6)
            .map(|i| TaskSpec::new(0.0, 20_000.0 + 22_000.0 * i as f64, 1.0))
            .collect();
        let p = problem(
            tasks,
            vec![
                FollowerState::at_start(-100_000.0),
                FollowerState::at_start(-130_000.0),
            ],
        );
        let s = GreedyScheduler.schedule(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.captured_count(), 6);
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
        repaired.schedule.validate(&p).unwrap();
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
        repaired.schedule.validate(&p).unwrap();
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
        repaired.schedule.validate(&p).unwrap();
    }
}
