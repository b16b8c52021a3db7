use super::problem::{uncaptured, Cursor};
use super::{Capture, Schedule, Scheduler, SchedulingProblem};
use crate::CoreError;
use eagleeye_harden::Deadline;
use std::time::Duration;

/// Reimplementation of the prior-work **anytime branch-and-bound**
/// scheduler (AB&B, Chu et al. 2017 — the paper's §2.3/§4.3 baseline).
///
/// AB&B searches the space of capture *sequences* directly: each search
/// node assigns one more (follower, target) pair at its earliest
/// feasible time, bounding with "current value + all remaining target
/// values". The search is anytime — it keeps the best incumbent and can
/// be stopped at a deadline — but the sequence space grows factorially,
/// so runtime explodes past ~19 targets (paper Fig. 12a), blowing the
/// 15 s frame deadline that the ILP formulation comfortably meets.
///
/// # Example
///
/// ```
/// use eagleeye_core::schedule::{AbbScheduler, FollowerState, Scheduler, SchedulingProblem, TaskSpec};
/// use eagleeye_core::SensingSpec;
/// use std::time::Duration;
///
/// let p = SchedulingProblem::new(
///     SensingSpec::paper_default(),
///     vec![TaskSpec::new(0.0, 40_000.0, 1.0)],
///     vec![FollowerState::at_start(-100_000.0)],
/// )?;
/// let s = AbbScheduler::new(Duration::from_secs(1)).schedule(&p)?;
/// assert_eq!(s.captured_count(), 1);
/// # Ok::<(), eagleeye_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbbScheduler {
    deadline: Duration,
}

impl AbbScheduler {
    /// Creates an AB&B scheduler with the given anytime deadline; one
    /// too long to represent as an instant means no deadline.
    pub fn new(deadline: Duration) -> Self {
        AbbScheduler { deadline }
    }
}

impl Default for AbbScheduler {
    /// The paper's frame deadline: 15 s.
    fn default() -> Self {
        Self::new(Duration::from_secs(15))
    }
}

/// DFS nodes expanded between deadline checks. Reading the monotonic
/// clock at every node puts a syscall-ish read in the hottest loop of
/// the search; at well under a microsecond per node, a
/// stride of 256 bounds deadline overshoot to a fraction of a
/// millisecond while removing ~99.6 % of the clock reads.
const DEADLINE_CHECK_STRIDE: u32 = 256;

struct SearchCtx<'a> {
    problem: &'a SchedulingProblem,
    deadline: Deadline,
    best_value: f64,
    best: Vec<Vec<Capture>>,
    timed_out: bool,
    nodes_since_check: u32,
}

impl SearchCtx<'_> {
    fn dfs(
        &mut self,
        cursors: &mut [Cursor],
        captured: &mut [bool],
        sequences: &mut Vec<Vec<Capture>>,
        value: f64,
        remaining_value: f64,
    ) {
        self.nodes_since_check += 1;
        if self.nodes_since_check >= DEADLINE_CHECK_STRIDE {
            self.nodes_since_check = 0;
            if self.deadline.expired() {
                self.timed_out = true;
                return;
            }
        }
        if value > self.best_value + 1e-12 {
            self.best_value = value;
            self.best = sequences.clone();
        }
        // Bound: even capturing every remaining target cannot beat the
        // incumbent.
        if value + remaining_value <= self.best_value + 1e-12 {
            return;
        }

        // Children: every feasible (follower, target) next assignment,
        // ordered by earliest capture time.
        let mut children: Vec<_> = self
            .problem
            .next_captures(cursors.iter().copied().enumerate(), uncaptured(captured))
            .collect();
        children.sort_by(|a, b| a.2.time_s.total_cmp(&b.2.time_s));

        for (f, _, capture) in children {
            if self.timed_out {
                return;
            }
            let saved_cursor = cursors[f];
            cursors[f] = self.problem.cursor_after(f, capture);
            captured[capture.task] = true;
            sequences[f].push(capture);
            let tv = self.problem.tasks()[capture.task].value;
            self.dfs(
                cursors,
                captured,
                sequences,
                value + tv,
                remaining_value - tv,
            );
            sequences[f].pop();
            captured[capture.task] = false;
            cursors[f] = saved_cursor;
        }
    }
}

impl Scheduler for AbbScheduler {
    fn schedule(&self, problem: &SchedulingProblem) -> Result<Schedule, CoreError> {
        let n_followers = problem.followers().len();
        let n_tasks = problem.tasks().len();
        let mut schedule = Schedule::empty(n_followers);
        if n_followers == 0 || n_tasks == 0 {
            return Ok(schedule);
        }

        let mut ctx = SearchCtx {
            problem,
            deadline: Deadline::after(self.deadline),
            best_value: 0.0,
            best: vec![Vec::new(); n_followers],
            timed_out: false,
            nodes_since_check: 0,
        };
        let mut cursors = problem.start_cursors();
        let mut captured = vec![false; n_tasks];
        let mut sequences = vec![Vec::new(); n_followers];
        let total_value: f64 = problem.tasks().iter().map(|t| t.value).sum();
        ctx.dfs(
            &mut cursors,
            &mut captured,
            &mut sequences,
            0.0,
            total_value,
        );

        schedule.sequences = ctx.best;
        schedule.total_value = problem.value_of(&schedule.captured_tasks());
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FollowerState, GreedyScheduler, TaskSpec};
    use crate::SensingSpec;

    fn problem(tasks: Vec<TaskSpec>, followers: Vec<FollowerState>) -> SchedulingProblem {
        SchedulingProblem::new(SensingSpec::paper_default(), tasks, followers).unwrap()
    }

    fn spread_tasks(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| {
                TaskSpec::new(
                    ((i * 41) % 160) as f64 * 1_000.0 - 80_000.0,
                    ((i * 17) % 100) as f64 * 1_050.0,
                    1.0 + (i % 5) as f64 * 0.3,
                )
            })
            .collect()
    }

    #[test]
    fn abb_schedules_validate() {
        let p = problem(spread_tasks(6), vec![FollowerState::at_start(-100_000.0)]);
        let s = AbbScheduler::new(Duration::from_secs(5))
            .schedule(&p)
            .unwrap();
        s.validate(&p).unwrap();
        assert!(s.captured_count() > 0);
    }

    #[test]
    fn abb_at_least_matches_greedy_given_time() {
        let p = problem(spread_tasks(7), vec![FollowerState::at_start(-100_000.0)]);
        let abb = AbbScheduler::new(Duration::from_secs(10))
            .schedule(&p)
            .unwrap();
        let greedy = GreedyScheduler.schedule(&p).unwrap();
        assert!(
            abb.total_value >= greedy.total_value - 1e-9,
            "abb {} < greedy {}",
            abb.total_value,
            greedy.total_value
        );
    }

    #[test]
    fn abb_respects_deadline_and_stays_anytime() {
        // Many targets with a tiny budget: must return quickly with some
        // (possibly poor) incumbent rather than hanging.
        let p = problem(spread_tasks(30), vec![FollowerState::at_start(-100_000.0)]);
        let sw = eagleeye_obs::Stopwatch::start();
        let s = AbbScheduler::new(Duration::from_millis(100))
            .schedule(&p)
            .unwrap();
        assert!(sw.elapsed() < Duration::from_secs(2));
        s.validate(&p).unwrap();
    }

    /// A deadline too long to represent as an instant means no
    /// deadline: the search returns the default deadline's schedule.
    #[test]
    fn unrepresentable_deadline_schedules_as_the_default() {
        let p = problem(spread_tasks(6), vec![FollowerState::at_start(-100_000.0)]);
        let s = AbbScheduler::new(Duration::MAX).schedule(&p).unwrap();
        assert!(s.captured_count() > 0);
        assert_eq!(s, AbbScheduler::default().schedule(&p).unwrap());
    }

    #[test]
    fn single_target_exactness() {
        let p = problem(
            vec![TaskSpec::new(5_000.0, 50_000.0, 4.0)],
            vec![FollowerState::at_start(-100_000.0)],
        );
        let s = AbbScheduler::new(Duration::from_secs(1))
            .schedule(&p)
            .unwrap();
        assert_eq!(s.captured_count(), 1);
        assert!((s.total_value - 4.0).abs() < 1e-9);
    }
}
