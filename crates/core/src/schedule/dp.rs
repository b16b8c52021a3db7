use super::graph::OpportunityGraph;
use super::{Capture, Schedule, Scheduler, SchedulingProblem};
use crate::CoreError;

/// Exact bitmask dynamic program over the opportunity graph — the test
/// oracle that certifies [`super::IlpScheduler`] optimality.
///
/// Single-follower only, and exponential in the task count (state =
/// `(captured set, last opportunity)`), so it is limited to small
/// instances (≤ [`DpScheduler::MAX_TASKS`] tasks). It evaluates pairwise
/// slew feasibility directly, with no arc-horizon approximation, so its
/// optimum is the exact optimum of the slot-discretized problem.
///
/// # Example
///
/// ```
/// use eagleeye_core::schedule::{DpScheduler, FollowerState, Scheduler, SchedulingProblem, TaskSpec};
/// use eagleeye_core::SensingSpec;
///
/// let p = SchedulingProblem::new(
///     SensingSpec::paper_default(),
///     vec![TaskSpec::new(0.0, 40_000.0, 1.0), TaskSpec::new(5_000.0, 80_000.0, 2.0)],
///     vec![FollowerState::at_start(-100_000.0)],
/// )?;
/// let s = DpScheduler::default().schedule(&p)?;
/// assert_eq!(s.captured_count(), 2);
/// # Ok::<(), eagleeye_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DpScheduler {
    /// Slots per window (0 = same auto rule as the ILP scheduler).
    pub slots_per_task: usize,
}

impl DpScheduler {
    /// Maximum task count the DP will accept.
    pub const MAX_TASKS: usize = 16;
}

impl Scheduler for DpScheduler {
    fn schedule(&self, problem: &SchedulingProblem) -> Result<Schedule, CoreError> {
        if problem.followers().len() != 1 {
            return Err(CoreError::InvalidParameter {
                name: "followers (DpScheduler is single-follower)",
                value: problem.followers().len() as f64,
            });
        }
        let n_tasks = problem.tasks().len();
        if n_tasks > Self::MAX_TASKS {
            return Err(CoreError::InvalidParameter {
                name: "tasks (DpScheduler limit)",
                value: n_tasks as f64,
            });
        }
        let mut schedule = Schedule::empty(1);
        if n_tasks == 0 {
            return Ok(schedule);
        }

        let slots = if self.slots_per_task > 0 {
            self.slots_per_task
        } else if n_tasks <= 30 {
            3
        } else {
            2
        };
        let graph = OpportunityGraph::build(problem, slots, &[0], &vec![false; n_tasks]);
        let nodes = &graph.nodes;
        if nodes.is_empty() {
            return Ok(schedule);
        }

        // Sort node indices by time; DP proceeds in time order.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&a, &b| nodes[a].time_s.total_cmp(&nodes[b].time_s));

        let n_masks = 1usize << n_tasks;
        const NEG: f64 = f64::NEG_INFINITY;
        // dp[mask * nodes + last] = best value ending at `last` having
        // captured `mask`.
        let mut dp = vec![NEG; n_masks * nodes.len()];
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; n_masks * nodes.len()];

        let follower = &problem.followers()[0];
        // Initialize: first capture from the initial state.
        for &v in &order {
            let n = &nodes[v];
            let dt = n.time_s - follower.available_from_s;
            if dt < -1e-9 {
                continue;
            }
            let rot = problem.rotation_between(follower.pointing_offset, n.offset);
            if problem.spec().adacs.can_rotate(rot, dt) {
                let mask = 1usize << n.task;
                let idx = mask * nodes.len() + v;
                let val = problem.tasks()[n.task].value;
                if val > dp[idx] {
                    dp[idx] = val;
                }
            }
        }

        // Transitions in time order.
        for mask in 1..n_masks {
            for &u in &order {
                let idx_u = mask * nodes.len() + u;
                if dp[idx_u] == NEG {
                    continue;
                }
                for &v in &order {
                    let nv = &nodes[v];
                    if nv.time_s <= nodes[u].time_s {
                        continue;
                    }
                    if mask & (1 << nv.task) != 0 {
                        continue;
                    }
                    if !OpportunityGraph::pair_feasible(problem, &nodes[u], nv) {
                        continue;
                    }
                    let new_mask = mask | (1 << nv.task);
                    let idx_v = new_mask * nodes.len() + v;
                    let val = dp[idx_u] + problem.tasks()[nv.task].value;
                    if val > dp[idx_v] + 1e-15 {
                        dp[idx_v] = val;
                        parent[idx_v] = Some((mask, u));
                    }
                }
            }
        }

        // Find the best terminal state and reconstruct.
        let mut best = (0.0f64, None::<(usize, usize)>);
        for mask in 1..n_masks {
            for &v in &order {
                let idx = mask * nodes.len() + v;
                if dp[idx] > best.0 + 1e-15 {
                    best = (dp[idx], Some((mask, v)));
                }
            }
        }
        let mut seq = Vec::new();
        let mut cur = best.1;
        while let Some((mask, v)) = cur {
            let n = &nodes[v];
            seq.push(Capture {
                task: n.task,
                time_s: n.time_s,
            });
            cur = parent[mask * nodes.len() + v];
        }
        seq.reverse();
        schedule.sequences[0] = seq;
        schedule.total_value = best.0;
        Ok(schedule)
    }

    fn name(&self) -> &'static str {
        "dp-oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FollowerState, IlpScheduler, TaskSpec};
    use crate::SensingSpec;

    fn problem(tasks: Vec<TaskSpec>) -> SchedulingProblem {
        SchedulingProblem::new(
            SensingSpec::paper_default(),
            tasks,
            vec![FollowerState::at_start(-100_000.0)],
        )
        .unwrap()
    }

    #[test]
    fn rejects_multi_follower() {
        let p = SchedulingProblem::new(
            SensingSpec::paper_default(),
            vec![TaskSpec::new(0.0, 0.0, 1.0)],
            vec![FollowerState::at_start(0.0), FollowerState::at_start(-10.0)],
        )
        .unwrap();
        assert!(DpScheduler::default().schedule(&p).is_err());
    }

    #[test]
    fn rejects_oversized_instances() {
        let tasks: Vec<TaskSpec> = (0..20)
            .map(|i| TaskSpec::new(0.0, i as f64 * 1_000.0, 1.0))
            .collect();
        assert!(DpScheduler::default().schedule(&problem(tasks)).is_err());
    }

    #[test]
    fn dp_solution_validates() {
        let tasks: Vec<TaskSpec> = (0..6)
            .map(|i| {
                TaskSpec::new(
                    ((i * 31) % 120) as f64 * 1_000.0 - 60_000.0,
                    i as f64 * 16_000.0,
                    1.0,
                )
            })
            .collect();
        let p = problem(tasks);
        let s = DpScheduler::default().schedule(&p).unwrap();
        s.validate(&p).unwrap();
    }

    #[test]
    fn dp_matches_ilp_on_small_instances() {
        // The headline solver-certification test: the DP optimum over the
        // slot grid is a lower bound the ILP must reach; the ILP may
        // exceed it because its post-passes retime captures continuously.
        for seed in 0..8u64 {
            let tasks: Vec<TaskSpec> = (0..7)
                .map(|i| {
                    let r = (seed * 31 + i as u64 * 17) % 97;
                    TaskSpec::new(
                        (r as f64 - 48.0) * 1_700.0,
                        ((seed * 7 + i as u64 * 13) % 90) as f64 * 1_200.0,
                        1.0 + (r % 5) as f64 * 0.4,
                    )
                })
                .collect();
            let p = problem(tasks);
            let dp = DpScheduler { slots_per_task: 3 }.schedule(&p).unwrap();
            let ilp = IlpScheduler {
                slots_per_task: 3,
                ..IlpScheduler::default()
            }
            .schedule(&p)
            .unwrap();
            dp.validate(&p).unwrap();
            ilp.validate(&p).unwrap();
            assert!(
                ilp.total_value >= dp.total_value - 1e-6,
                "seed {seed}: ilp {} below dp bound {}",
                ilp.total_value,
                dp.total_value
            );
        }
    }
}
