//! Cross-scheduler validation: every solver's output must pass the
//! [`Schedule::validate`] checker on randomized instances,
//! and corrupted schedules must be rejected with a descriptive
//! [`CoreError::ScheduleViolation`].

use eagleeye_core::schedule::{
    AbbScheduler, Capture, FollowerState, GreedyScheduler, IlpScheduler, Schedule, Scheduler,
    SchedulingProblem, TaskSpec,
};
use eagleeye_core::{CoreError, SensingSpec};
use eagleeye_rng::SplitMix64;

/// A randomized scheduling instance: `n_tasks` reachable tasks spread
/// across the swath ahead of `n_followers` staggered followers.
fn random_problem(seed: u64, n_tasks: usize, n_followers: usize) -> SchedulingProblem {
    let mut rng = SplitMix64::new(seed);
    let tasks: Vec<TaskSpec> = (0..n_tasks)
        .map(|_| {
            TaskSpec::new(
                rng.range_f64(-60_000.0, 60_000.0),
                rng.range_f64(20_000.0, 150_000.0),
                rng.range_f64(0.5, 3.0),
            )
        })
        .collect();
    let followers: Vec<FollowerState> = (0..n_followers)
        .map(|k| FollowerState::at_start(-100_000.0 - k as f64 * rng.range_f64(20_000.0, 40_000.0)))
        .collect();
    SchedulingProblem::new(SensingSpec::paper_default(), tasks, followers)
        .expect("random instance is well-formed")
}

fn assert_valid(problem: &SchedulingProblem, name: &str, scheduler: &dyn Scheduler, seed: u64) {
    let schedule = scheduler
        .schedule(problem)
        .unwrap_or_else(|e| panic!("{name} failed on seed {seed}: {e}"));
    schedule
        .validate(problem)
        .unwrap_or_else(|e| panic!("{name} produced an invalid schedule on seed {seed}: {e}"));
}

#[test]
fn all_schedulers_validate_on_random_instances() {
    for seed in 0..12u64 {
        let mut rng = SplitMix64::new(seed ^ 0xA5A5);
        let n_tasks = rng.range_usize_inclusive(1, 8);
        let n_followers = rng.range_usize_inclusive(1, 3);
        let p = random_problem(seed, n_tasks, n_followers);
        assert_valid(&p, "ilp", &IlpScheduler::default(), seed);
        assert_valid(&p, "greedy", &GreedyScheduler, seed);
        assert_valid(&p, "abb", &AbbScheduler::default(), seed);
    }
}

fn valid_schedule() -> (SchedulingProblem, Schedule) {
    let p = random_problem(42, 6, 2);
    let s = IlpScheduler::default()
        .schedule(&p)
        .expect("solvable instance");
    assert!(
        s.captured_count() >= 2,
        "corruption tests need at least two captures"
    );
    s.validate(&p).expect("baseline schedule is valid");
    (p, s)
}

fn expect_violation(problem: &SchedulingProblem, schedule: &Schedule, what: &str) {
    match schedule.validate(problem) {
        Err(CoreError::ScheduleViolation { description }) => {
            assert!(
                !description.is_empty(),
                "{what}: empty violation description"
            );
        }
        Err(e) => panic!("{what}: expected ScheduleViolation, got {e}"),
        Ok(()) => panic!("{what}: corrupted schedule passed validation"),
    }
}

#[test]
fn capture_outside_window_is_rejected() {
    let (p, mut s) = valid_schedule();
    let (f, k) = first_capture(&s);
    s.sequences[f][k].time_s += 1.0e6;
    expect_violation(&p, &s, "time shifted far outside the visibility window");
}

#[test]
fn duplicate_capture_is_rejected() {
    let (p, mut s) = valid_schedule();
    let (f, k) = first_capture(&s);
    let dup = s.sequences[f][k];
    s.sequences[f].push(Capture {
        task: dup.task,
        time_s: dup.time_s + 40.0,
    });
    expect_violation(&p, &s, "same task captured twice");
}

#[test]
fn out_of_order_sequence_is_rejected() {
    let (p, mut s) = valid_schedule();
    let f = (0..s.sequences.len())
        .find(|&f| s.sequences[f].len() >= 2)
        .or_else(|| {
            // Merge everything onto one follower to force a 2-capture
            // sequence, then break its ordering.
            let all: Vec<Capture> = s.sequences.iter().flatten().copied().collect();
            s.sequences[0] = all;
            for seq in s.sequences.iter_mut().skip(1) {
                seq.clear();
            }
            Some(0)
        })
        .expect("at least one follower");
    s.sequences[f].swap(0, 1);
    expect_violation(&p, &s, "captures out of time order");
}

#[test]
fn unknown_task_index_is_rejected() {
    let (p, mut s) = valid_schedule();
    let (f, k) = first_capture(&s);
    s.sequences[f][k].task = p.tasks().len() + 7;
    expect_violation(&p, &s, "capture referencing a nonexistent task");
}

#[test]
fn inconsistent_total_value_is_rejected() {
    let (p, mut s) = valid_schedule();
    s.total_value += 100.0;
    expect_violation(&p, &s, "reported total value disagrees with captures");
}

#[test]
fn wrong_sequence_count_is_rejected() {
    let (p, mut s) = valid_schedule();
    s.sequences.push(Vec::new());
    expect_violation(&p, &s, "more sequences than followers");
}

#[test]
fn impossible_slew_is_rejected() {
    let (p, mut s) = valid_schedule();
    // Compress a 2-capture sequence so the second capture allows the
    // ADACS essentially no time to rotate from the first pointing.
    let f = (0..s.sequences.len()).find(|&f| s.sequences[f].len() >= 2);
    let Some(f) = f else {
        // Single-capture sequences: pull the capture to the follower's
        // availability instant with a pointing that needs a real slew.
        let (f, k) = first_capture(&s);
        s.sequences[f][k].time_s = p.followers()[f].available_from_s;
        expect_violation(&p, &s, "capture with no time to slew from nadir");
        return;
    };
    s.sequences[f][1].time_s = s.sequences[f][0].time_s + 1e-6;
    expect_violation(&p, &s, "consecutive captures with no slew time (C1)");
}

fn first_capture(s: &Schedule) -> (usize, usize) {
    s.sequences
        .iter()
        .enumerate()
        .find_map(|(f, seq)| (!seq.is_empty()).then_some((f, 0)))
        .expect("schedule has at least one capture")
}
