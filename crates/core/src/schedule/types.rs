use super::SchedulingProblem;
use crate::pointing::off_nadir_rad;
use crate::CoreError;
use std::collections::BTreeSet;

/// One scheduled capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capture {
    /// Index of the captured task in the problem's task list.
    pub task: usize,
    /// Capture time, seconds.
    pub time_s: f64,
}

/// A complete schedule: one capture sequence per follower.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// `sequences[f]` is follower `f`'s time-ordered capture list.
    pub sequences: Vec<Vec<Capture>>,
    /// Total value of distinct captured tasks.
    pub total_value: f64,
}

impl Schedule {
    /// An empty schedule for `n_followers` followers.
    pub fn empty(n_followers: usize) -> Self {
        Schedule {
            sequences: vec![Vec::new(); n_followers],
            total_value: 0.0,
        }
    }

    /// Distinct captured task indices.
    pub fn captured_tasks(&self) -> BTreeSet<usize> {
        self.sequences.iter().flatten().map(|c| c.task).collect()
    }

    /// Number of distinct tasks captured.
    pub fn captured_count(&self) -> usize {
        self.captured_tasks().len()
    }

    /// Checks the schedule against `problem`'s constraints:
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
    /// Under [`DegradedMode::Repair`](crate::coverage::DegradedMode::Repair)
    /// the coverage evaluator replaces an ILP schedule that fails it with
    /// greedy's, and [`repair`](super::repair) checks its result with it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ScheduleViolation`] describing the first
    /// violated condition.
    pub fn validate(&self, problem: &SchedulingProblem) -> Result<(), CoreError> {
        let spec = problem.spec();
        if self.sequences.len() != problem.followers().len() {
            return Err(CoreError::ScheduleViolation {
                description: format!(
                    "schedule has {} sequences for {} followers",
                    self.sequences.len(),
                    problem.followers().len()
                ),
            });
        }
        let mut seen = BTreeSet::new();
        for (f, seq) in self.sequences.iter().enumerate() {
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
                let w =
                    problem
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
        let value = problem.value_of(&seen);
        if (value - self.total_value).abs() > 1e-6 * (1.0 + value.abs()) {
            return Err(CoreError::ScheduleViolation {
                description: format!(
                    "reported value {} != recomputed {}",
                    self.total_value, value
                ),
            });
        }
        Ok(())
    }
}

/// A follower-scheduling algorithm.
pub trait Scheduler {
    /// Produces a feasible schedule for the problem.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError`] on internal solver failures;
    /// an infeasible-to-improve instance yields an empty schedule, not
    /// an error.
    fn schedule(&self, problem: &SchedulingProblem) -> Result<Schedule, CoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FollowerState, TaskSpec};
    use crate::SensingSpec;

    fn one_task_problem() -> SchedulingProblem {
        SchedulingProblem::new(
            SensingSpec::paper_default(),
            vec![TaskSpec::new(0.0, 50_000.0, 2.0)],
            vec![FollowerState::at_start(-100_000.0)],
        )
        .unwrap()
    }

    #[test]
    fn empty_schedule_validates() {
        let p = one_task_problem();
        Schedule::empty(1).validate(&p).unwrap();
    }

    #[test]
    fn wrong_follower_count_rejected() {
        let p = one_task_problem();
        assert!(Schedule::empty(2).validate(&p).is_err());
    }

    #[test]
    fn valid_single_capture_passes() {
        let p = one_task_problem();
        let t = p.earliest_capture(0, 0, 0.0, (0.0, 0.0)).unwrap();
        let s = Schedule {
            sequences: vec![vec![Capture { task: 0, time_s: t }]],
            total_value: 2.0,
        };
        s.validate(&p).unwrap();
    }

    #[test]
    fn capture_outside_window_rejected() {
        let p = one_task_problem();
        let w = p.window(0, 0).unwrap();
        let s = Schedule {
            sequences: vec![vec![Capture {
                task: 0,
                time_s: w.end_s + 10.0,
            }]],
            total_value: 2.0,
        };
        assert!(s.validate(&p).is_err());
    }

    #[test]
    fn duplicate_capture_rejected() {
        let p = one_task_problem();
        let t = p.earliest_capture(0, 0, 0.0, (0.0, 0.0)).unwrap();
        let s = Schedule {
            sequences: vec![vec![
                Capture { task: 0, time_s: t },
                Capture {
                    task: 0,
                    time_s: t + 5.0,
                },
            ]],
            total_value: 2.0,
        };
        assert!(s.validate(&p).is_err());
    }

    #[test]
    fn wrong_total_value_rejected() {
        let p = one_task_problem();
        let t = p.earliest_capture(0, 0, 0.0, (0.0, 0.0)).unwrap();
        let s = Schedule {
            sequences: vec![vec![Capture { task: 0, time_s: t }]],
            total_value: 99.0,
        };
        assert!(s.validate(&p).is_err());
    }

    #[test]
    fn c1_violation_rejected() {
        // Two far-apart targets captured back-to-back with no slew time.
        let p = SchedulingProblem::new(
            SensingSpec::paper_default(),
            vec![
                TaskSpec::new(-80_000.0, 50_000.0, 1.0),
                TaskSpec::new(80_000.0, 50_000.0, 1.0),
            ],
            vec![FollowerState::at_start(-100_000.0)],
        )
        .unwrap();
        let t0 = p.earliest_capture(0, 0, 0.0, (0.0, 0.0)).unwrap();
        let s = Schedule {
            sequences: vec![vec![
                Capture {
                    task: 0,
                    time_s: t0,
                },
                Capture {
                    task: 1,
                    time_s: t0 + 0.1,
                },
            ]],
            total_value: 2.0,
        };
        let err = s.validate(&p).unwrap_err();
        assert!(err.to_string().contains("C1"), "{err}");
    }
}
