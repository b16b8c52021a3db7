//! Edge-case coverage for the degraded-mode scheduling stack (the ILP,
//! [`Schedule::validate`] and [`repair`]): degenerate problems (no
//! tasks, no followers), zero budgets, total constellation loss, and
//! repair of schedules invalidated mid-pass.

use eagleeye_core::schedule::{
    repair, Capture, FollowerState, IlpRunStats, IlpScheduler, Schedule, Scheduler,
    SchedulingProblem, TaskSpec,
};
use eagleeye_core::{CoreError, SensingSpec};
use std::time::Duration;

fn problem(tasks: Vec<TaskSpec>, followers: Vec<FollowerState>) -> SchedulingProblem {
    SchedulingProblem::new(SensingSpec::paper_default(), tasks, followers).expect("valid problem")
}

/// The ILP at its production budget.
fn ilp(p: &SchedulingProblem) -> Schedule {
    IlpScheduler::default().schedule(p).expect("schedules")
}

/// The ILP at a zero wall-clock budget: every subproblem hits its
/// deadline and degrades to the greedy augmentation.
fn zero_budget(p: &SchedulingProblem) -> (Schedule, IlpRunStats) {
    IlpScheduler {
        time_limit: Duration::ZERO,
        ..IlpScheduler::default()
    }
    .schedule_with_stats(p)
    .expect("schedules")
}

fn spread_tasks(n: usize) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| TaskSpec::new(0.0, 30_000.0 + i as f64 * 25_000.0, 1.0))
        .collect()
}

#[test]
fn empty_problem_yields_empty_validated_schedule() {
    let p = problem(vec![], vec![]);
    let s = ilp(&p);
    assert_eq!(s.captured_count(), 0);
    assert!(s.sequences.is_empty());
    assert_eq!(s.total_value, 0.0);
    s.validate(&p).expect("empty schedule validates");
}

#[test]
fn no_tasks_with_followers_schedules_nothing() {
    let p = problem(vec![], vec![FollowerState::at_start(-100_000.0)]);
    let s = ilp(&p);
    assert_eq!(s.captured_count(), 0);
    assert_eq!(s.sequences.len(), 1);
    assert!(s.sequences[0].is_empty());
    s.validate(&p).expect("empty sequences validate");
}

#[test]
fn no_followers_with_tasks_schedules_nothing() {
    let p = problem(spread_tasks(4), vec![]);
    let s = ilp(&p);
    assert_eq!(s.captured_count(), 0);
    assert!(s.sequences.is_empty());
    s.validate(&p).expect("followerless schedule validates");
}

#[test]
fn empty_problem_survives_zero_budget_fallback_path() {
    let p = problem(vec![], vec![]);
    let (s, _) = zero_budget(&p);
    assert_eq!(s.captured_count(), 0);
    s.validate(&p).expect("validates");
}

#[test]
fn all_followers_faulted_drops_everything_and_reassigns_nothing() {
    let p = problem(
        spread_tasks(6),
        vec![
            FollowerState::at_start(-100_000.0),
            FollowerState::at_start(-130_000.0),
        ],
    );
    let s = ilp(&p);
    let planned = s.captured_count();
    assert!(planned > 0, "test premise: someone does work");

    // Both followers lost at pass start: every capture is dropped and
    // there is no survivor to take any of them.
    let repaired = repair(&p, &s, &[(0, 0.0), (1, 0.0)]).expect("repair of total loss");
    assert_eq!(repaired.dropped_tasks, planned);
    assert_eq!(repaired.reassigned_tasks, 0);
    assert_eq!(repaired.schedule.captured_count(), 0);
    assert_eq!(repaired.schedule.total_value, 0.0);
    repaired
        .schedule
        .validate(&p)
        .expect("empty repaired schedule validates");
}

#[test]
fn repair_of_mid_pass_invalidated_schedule_restores_validity() {
    // A follower failing mid-pass leaves a schedule whose tail can no
    // longer be executed; repair must truncate at the onset, re-plan
    // onto the survivor, and return a schedule that validates again.
    let p = problem(
        spread_tasks(6),
        vec![
            FollowerState::at_start(-100_000.0),
            FollowerState::at_start(-130_000.0),
        ],
    );
    let s = ilp(&p);
    let seq0 = &s.sequences[0];
    assert!(
        seq0.len() >= 2,
        "test premise: follower 0 has a tail to lose"
    );

    let onset = seq0[0].time_s + 0.1; // fails right after its first capture
    let repaired = repair(&p, &s, &[(0, onset)]).expect("repair");
    // The pre-onset prefix survives untouched.
    assert_eq!(repaired.schedule.sequences[0], vec![seq0[0]]);
    assert_eq!(repaired.dropped_tasks, seq0.len() - 1);
    // Whatever was re-planned, the result is feasible end to end.
    repaired
        .schedule
        .validate(&p)
        .expect("repaired schedule validates");
    // Value bookkeeping was rebuilt from the surviving captures.
    let recomputed: f64 = repaired
        .schedule
        .captured_tasks()
        .iter()
        .map(|&j| p.tasks()[j].value)
        .sum();
    assert!((repaired.schedule.total_value - recomputed).abs() < 1e-9);
}

#[test]
fn repair_rejects_a_corrupted_schedule() {
    // Repair re-validates its output; a schedule corrupted before the
    // repair (a capture moved outside every window) must surface
    // ScheduleViolation instead of being silently returned.
    let p = problem(spread_tasks(3), vec![FollowerState::at_start(-100_000.0)]);
    let mut s = ilp(&p);
    assert!(!s.sequences[0].is_empty());
    s.sequences[0][0].time_s = -1e9; // long before visibility
    let err = repair(&p, &s, &[]).expect_err("corrupted schedule must not validate");
    assert!(matches!(err, CoreError::ScheduleViolation { .. }), "{err}");
}

#[test]
fn validate_rejects_duplicate_captures_across_followers() {
    let p = problem(
        spread_tasks(2),
        vec![
            FollowerState::at_start(-100_000.0),
            FollowerState::at_start(-100_000.0),
        ],
    );
    let mut corrupted = ilp(&p);
    // Duplicate follower 0's first capture onto follower 1.
    let Some(&cap) = corrupted.sequences[0].first() else {
        panic!("test premise: follower 0 captures something");
    };
    corrupted.sequences[1] = vec![Capture {
        task: cap.task,
        time_s: cap.time_s,
    }];
    let err = corrupted
        .validate(&p)
        .expect_err("duplicate capture must fail");
    assert!(matches!(err, CoreError::ScheduleViolation { .. }), "{err}");
}

#[test]
fn zero_budget_fallback_still_validates_under_load() {
    let tasks: Vec<TaskSpec> = (0..20)
        .map(|i| {
            TaskSpec::new(
                ((i * 37) % 160) as f64 * 1_000.0 - 80_000.0,
                20_000.0 + ((i * 13) % 90) as f64 * 1_500.0,
                1.0 + (i % 3) as f64,
            )
        })
        .collect();
    let p = problem(
        tasks,
        vec![
            FollowerState::at_start(-100_000.0),
            FollowerState::at_start(-120_000.0),
        ],
    );
    let (s, stats) = zero_budget(&p);
    assert!(stats.deadline_hits > 0, "{stats:?}");
    assert!(
        s.captured_count() > 0,
        "the greedy augmentation still captures"
    );
    s.validate(&p).expect("fallback schedule validates");
}
