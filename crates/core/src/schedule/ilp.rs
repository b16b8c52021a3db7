use super::graph::{Arc, End, OpportunityGraph};
use super::{Capture, Schedule, Scheduler, SchedulingProblem};
use crate::CoreError;
use eagleeye_ilp::{Model, Sense, SolveOptions, SolveStatus, VarId};
use std::time::Duration;

/// The paper's ILP-based actuation-aware scheduler (§4.3).
///
/// Builds the opportunity graph (capture slots + feasibility arcs +
/// rest chains), formulates target capture as a maximum-value flow of
/// one unit per follower with "each target at most once" coupling
/// constraints, and solves it exactly with `eagleeye-ilp`. The LP
/// relaxation of this near-network structure is almost always integral,
/// so branch-and-bound typically closes at the root node — the reason
/// the paper's Fig. 12a runtime stays low and flat in target count.
///
/// For very large joint instances (many followers × many tasks) the
/// scheduler falls back to sequential per-follower ILPs — an exact solve
/// per follower on the remaining tasks — to bound memory; the threshold
/// is configurable.
///
/// # Example
///
/// ```
/// use eagleeye_core::schedule::{FollowerState, IlpScheduler, Scheduler, SchedulingProblem, TaskSpec};
/// use eagleeye_core::SensingSpec;
///
/// let p = SchedulingProblem::new(
///     SensingSpec::paper_default(),
///     vec![TaskSpec::new(0.0, 40_000.0, 1.0), TaskSpec::new(10_000.0, 80_000.0, 1.0)],
///     vec![FollowerState::at_start(-100_000.0)],
/// )?;
/// let s = IlpScheduler::default().schedule(&p)?;
/// assert_eq!(s.captured_count(), 2);
/// # Ok::<(), eagleeye_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IlpScheduler {
    /// Capture slots per visibility window (0 = auto: 5 for instances up
    /// to 20 tasks, 3 up to 40, 2 beyond).
    pub slots_per_task: usize,
    /// Solver wall-clock limit per ILP.
    pub time_limit: Duration,
    /// Above this joint capture-node count with more than one follower,
    /// decompose into sequential per-follower solves.
    pub joint_node_limit: usize,
}

impl Default for IlpScheduler {
    fn default() -> Self {
        IlpScheduler {
            slots_per_task: 0,
            time_limit: Duration::from_secs(10),
            joint_node_limit: 420,
        }
    }
}

/// Diagnostics from one [`IlpScheduler::schedule_with_stats`] run —
/// the observability hook the resilient scheduler uses to decide when
/// the ILP degraded internally and a greedy fallback should be
/// recorded (or substituted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IlpRunStats {
    /// Number of ILP subproblems attempted (1, or one per follower
    /// under sequential decomposition).
    pub subproblems: usize,
    /// Subproblems abandoned on the wall-clock deadline.
    pub deadline_hits: usize,
    /// Subproblems abandoned on the simplex iteration cap.
    pub iteration_limit_hits: usize,
    /// Branch-and-bound nodes whose LP relaxation was solved, summed
    /// over all subproblems.
    pub nodes_explored: usize,
    /// Nodes discarded by the incumbent bound, summed over all
    /// subproblems.
    pub nodes_pruned: usize,
    /// Total simplex iterations across all subproblems.
    pub lp_iterations: usize,
    /// Total basis-changing simplex pivots across all subproblems.
    pub lp_pivots: usize,
    /// Incumbent replacements across all subproblems.
    pub incumbent_updates: usize,
    /// Branch-and-bound nodes whose LP relaxation was re-solved from
    /// the parent's final simplex tableau, summed over all subproblems.
    pub warm_starts: usize,
    /// Nodes whose inherited tableau was rejected (failed dual
    /// restoration) and fell back to a cold solve.
    pub warm_rejects: usize,
    /// True when the final answer came from the greedy baseline because
    /// it beat the (coarsely discretized) ILP solution.
    pub greedy_dominated: bool,
}

impl IlpRunStats {
    /// True when every subproblem solved cleanly and the ILP solution
    /// was kept.
    pub fn clean(&self) -> bool {
        self.deadline_hits == 0 && self.iteration_limit_hits == 0 && !self.greedy_dominated
    }
}

impl IlpScheduler {
    fn slots_for(&self, n_tasks: usize) -> usize {
        if self.slots_per_task > 0 {
            self.slots_per_task
        } else if n_tasks <= 20 {
            5
        } else if n_tasks <= 40 {
            3
        } else {
            2
        }
    }

    /// Retimes every capture to its earliest feasible moment (the slot
    /// grid quantizes capture times; left-shifting recovers the slack)
    /// and then greedily appends uncaptured tasks wherever they still
    /// fit. Both passes preserve feasibility, so the result dominates the
    /// raw discretized ILP solution.
    fn compact_and_augment(&self, problem: &SchedulingProblem, schedule: &mut Schedule) {
        let n_tasks = problem.tasks().len();
        let mut captured = vec![false; n_tasks];
        for seq in &schedule.sequences {
            for c in seq {
                captured[c.task] = true;
            }
        }

        // Left-shift pass.
        let mut cursors: Vec<(f64, (f64, f64))> = problem
            .followers()
            .iter()
            .map(|f| (f.available_from_s, f.pointing_offset))
            .collect();
        for (f, seq) in schedule.sequences.iter_mut().enumerate() {
            let mut shifted = Vec::with_capacity(seq.len());
            for cap in seq.iter() {
                let (t0, u0) = cursors[f];
                match problem.earliest_capture(f, cap.task, t0, u0) {
                    Some(t) => {
                        cursors[f] = (t, problem.capture_offset(f, cap.task, t));
                        shifted.push(Capture {
                            task: cap.task,
                            time_s: t,
                        });
                    }
                    None => {
                        // Unreachable from the shifted predecessor (its
                        // pointing differs from the slot-time geometry):
                        // drop the capture and let augmentation retry it.
                        captured[cap.task] = false;
                    }
                }
            }
            *seq = shifted;
        }

        // Greedy append pass over uncaptured tasks.
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for (f, cursor) in cursors.iter().enumerate() {
                for (j, taken) in captured.iter().enumerate() {
                    if *taken {
                        continue;
                    }
                    if let Some(t) = problem.earliest_capture(f, j, cursor.0, cursor.1) {
                        match best {
                            Some((_, _, bt)) if bt <= t => {}
                            _ => best = Some((f, j, t)),
                        }
                    }
                }
            }
            let Some((f, j, t)) = best else { break };
            captured[j] = true;
            schedule.sequences[f].push(Capture { task: j, time_s: t });
            cursors[f] = (t, problem.capture_offset(f, j, t));
        }
    }

    /// Solves one (sub)instance over the given followers and non-excluded
    /// tasks; returns per-follower sequences.
    fn solve_subproblem(
        &self,
        problem: &SchedulingProblem,
        followers: &[usize],
        excluded: &[bool],
        stats: &mut IlpRunStats,
    ) -> Result<Vec<(usize, Vec<Capture>)>, CoreError> {
        stats.subproblems += 1;
        let slots = self.slots_for(excluded.iter().filter(|e| !**e).count());
        let graph = OpportunityGraph::build(problem, slots, followers, excluded);
        if graph.nodes.is_empty() {
            return Ok(followers.iter().map(|&f| (f, Vec::new())).collect());
        }

        let (model, arc_vars) = assemble(problem, &graph, followers)?;

        let sol = match model.solve(&SolveOptions {
            time_limit: Some(self.time_limit),
            ..SolveOptions::default()
        }) {
            Ok(sol) => sol,
            // A degenerate instance exhausting the simplex iteration cap
            // degrades to an empty ILP result; the greedy augmentation
            // and fallback passes still produce a feasible schedule. The
            // stats record the hit so callers can observe the fallback.
            Err(eagleeye_ilp::IlpError::IterationLimit { .. }) => {
                stats.iteration_limit_hits += 1;
                return Ok(followers.iter().map(|&f| (f, Vec::new())).collect());
            }
            Err(eagleeye_ilp::IlpError::Deadline) => {
                stats.deadline_hits += 1;
                return Ok(followers.iter().map(|&f| (f, Vec::new())).collect());
            }
            Err(e) => return Err(e.into()),
        };
        let solver = *sol.stats();
        stats.nodes_explored += solver.nodes_explored;
        stats.nodes_pruned += solver.nodes_pruned;
        stats.lp_iterations += solver.lp_iterations;
        stats.lp_pivots += solver.lp_pivots;
        stats.incumbent_updates += solver.incumbent_updates;
        stats.warm_starts += solver.warm_starts;
        stats.warm_rejects += solver.warm_rejects;
        // Branch-and-bound converts an expired deadline into a limit
        // status (`Feasible` with the incumbent, `Unknown` without one)
        // rather than an error; count those as deadline hits too.
        if matches!(sol.status(), SolveStatus::Feasible | SolveStatus::Unknown) {
            stats.deadline_hits += 1;
        }
        if !sol.is_usable() {
            return Ok(followers.iter().map(|&f| (f, Vec::new())).collect());
        }

        // Extract one path per follower by walking chosen arcs.
        let is_chosen = |i: &usize| sol.value(arc_vars[*i]) > 0.5;
        let mut chosen: Vec<&Arc> =
            Vec::with_capacity((0..graph.arcs.len()).filter(is_chosen).count());
        chosen.extend(
            (0..graph.arcs.len())
                .filter(is_chosen)
                .map(|i| &graph.arcs[i]),
        );
        let mut result = Vec::with_capacity(followers.len());
        for &f in followers {
            let mut seq = Vec::new();
            let mut at = End::Source;
            // Bounded walk (paths are acyclic and finite).
            for _ in 0..graph.arcs.len() + 1 {
                let next = chosen
                    .iter()
                    .find(|a| a.follower == f && a.from == at)
                    .map(|a| a.to);
                match next {
                    Some(End::Node(v)) => {
                        let n = &graph.nodes[v];
                        seq.push(Capture {
                            task: n.task,
                            time_s: n.time_s,
                        });
                        at = End::Node(v);
                    }
                    Some(rest @ End::Rest(..)) => at = rest,
                    Some(End::Source) | None => break,
                }
            }
            result.push((f, seq));
        }
        Ok(result)
    }
}

/// Formulates the opportunity graph as the scheduling MILP: one binary
/// per arc, valued by the task its head captures, and then the rows in
/// this order:
///
/// 1. capacity — one unit of flow out of each follower's source, in
///    `followers` order;
/// 2. conservation (out ≤ in) — one per endpoint with outgoing arcs, by
///    endpoint id: capture nodes first, then each follower's rest
///    relays in follower order;
/// 3. capture-once — one per task with an incoming arc, by task id.
///
/// Terms follow arc order (outgoing before incoming in a conservation
/// row). Simplex ties are broken by row order, so horizon memo digests
/// and golden schedules depend on this order (DESIGN.md §15).
fn assemble(
    problem: &SchedulingProblem,
    graph: &OpportunityGraph,
    followers: &[usize],
) -> Result<(Model, Vec<VarId>), CoreError> {
    // One counting sort groups every arc under up to three keys: its
    // tail (a follower's source, or an endpoint), its head endpoint, and
    // the task its head captures. Endpoint ids: node `v` is `v`; rest
    // relay `q` of follower `f` follows all nodes and the relays of
    // followers before `f`.
    let n_nodes = graph.nodes.len();
    let n_ends = n_nodes + graph.n_rests();
    let out_base = problem.followers().len();
    let in_base = out_base + n_ends;
    let task_base = in_base + n_ends;
    let n_keys = task_base + problem.tasks().len();
    let end_id = |e: End| match e {
        End::Node(v) => Some(v),
        End::Rest(f, q) => Some(n_nodes + graph.rest_base(f) + q),
        End::Source => None,
    };
    // An arc's keys; `n_keys` stands for none.
    let keys = |a: &Arc| {
        [
            end_id(a.from).map_or(a.follower, |e| out_base + e),
            end_id(a.to).map_or(n_keys, |e| in_base + e),
            match a.to {
                End::Node(v) => task_base + graph.nodes[v].task,
                _ => n_keys,
            },
        ]
    };
    // After the fill, key `k`'s arcs are `grouped[offsets[k]..offsets[k
    // + 1]]`, in arc order.
    let mut offsets = vec![0usize; n_keys + 1];
    for a in &graph.arcs {
        for k in keys(a).into_iter().filter(|&k| k < n_keys) {
            offsets[k] += 1;
        }
    }
    for k in 1..=n_keys {
        offsets[k] += offsets[k - 1];
    }
    let mut grouped = vec![0usize; offsets[n_keys]];
    for (i, a) in graph.arcs.iter().enumerate().rev() {
        for k in keys(a).into_iter().filter(|&k| k < n_keys) {
            offsets[k] -= 1;
            grouped[offsets[k]] = i;
        }
    }
    let group = |k: usize| &grouped[offsets[k]..offsets[k + 1]];

    // Rows as (arcs with coefficient 1, arcs with -1, rhs), each with
    // at least one arc of the first kind.
    let capacity = followers.iter().map(|&f| (group(f), &[][..], 1.0));
    let conservation = (0..n_ends).map(|e| (group(out_base + e), group(in_base + e), 0.0));
    let capture_once = (task_base..n_keys).map(|k| (group(k), &[][..], 1.0));
    let rows = || {
        capacity
            .clone()
            .chain(conservation.clone())
            .chain(capture_once.clone())
            .filter(|(plus, _, _)| !plus.is_empty())
    };
    let (n_rows, n_terms) = rows().fold((0, 0), |(r, t), (plus, minus, _)| {
        (r + 1, t + plus.len() + minus.len())
    });

    let mut model = Model::maximize();
    model.reserve(graph.arcs.len(), n_rows, n_terms);
    let mut arc_vars = Vec::with_capacity(graph.arcs.len());
    for a in &graph.arcs {
        let value = match a.to {
            End::Node(v) => problem.tasks()[graph.nodes[v].task].value,
            _ => 0.0,
        };
        arc_vars.push(model.add_binary_var(value));
    }
    for (plus, minus, rhs) in rows() {
        let terms = plus
            .iter()
            .map(|&i| (arc_vars[i], 1.0))
            .chain(minus.iter().map(|&i| (arc_vars[i], -1.0)));
        model.add_constraint(terms, Sense::Le, rhs)?;
    }
    Ok((model, arc_vars))
}

impl IlpScheduler {
    /// Like [`Scheduler::schedule`] but also returns [`IlpRunStats`]
    /// describing how the answer was obtained (deadline hits, iteration
    /// caps, greedy dominance) — the hook `ResilientScheduler` uses to
    /// report which solver actually produced each horizon.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Solver`] on unrecoverable ILP failures
    /// (deadline and iteration-cap exhaustion are *recovered*, not
    /// errored: they degrade to the greedy augmentation and are counted
    /// in the stats).
    pub fn schedule_with_stats(
        &self,
        problem: &SchedulingProblem,
    ) -> Result<(Schedule, IlpRunStats), CoreError> {
        let n_followers = problem.followers().len();
        let n_tasks = problem.tasks().len();
        let mut schedule = Schedule::empty(n_followers);
        let mut stats = IlpRunStats::default();
        if n_followers == 0 || n_tasks == 0 {
            return Ok((schedule, stats));
        }

        let slots = self.slots_for(n_tasks);
        let joint_nodes_estimate = n_followers * n_tasks * slots;
        let mut excluded = vec![false; n_tasks];

        if n_followers == 1 || joint_nodes_estimate <= self.joint_node_limit {
            let all: Vec<usize> = (0..n_followers).collect();
            for (f, seq) in self.solve_subproblem(problem, &all, &excluded, &mut stats)? {
                schedule.sequences[f] = seq;
            }
        } else {
            // Sequential decomposition: exact per-follower solves on the
            // remaining tasks.
            for f in 0..n_followers {
                let result = self.solve_subproblem(problem, &[f], &excluded, &mut stats)?;
                for (ff, seq) in result {
                    for c in &seq {
                        excluded[c.task] = true;
                    }
                    schedule.sequences[ff] = seq;
                }
            }
        }

        self.compact_and_augment(problem, &mut schedule);
        schedule.total_value = schedule
            .captured_tasks()
            .iter()
            .map(|&j| problem.tasks()[j].value)
            .sum();

        // The greedy pass is three orders of magnitude cheaper than the
        // ILP; never return a schedule it would beat (can occur when the
        // slot grid is very coarse on large instances).
        let greedy = super::GreedyScheduler.schedule(problem)?;
        if greedy.total_value > schedule.total_value + 1e-9 {
            stats.greedy_dominated = true;
            return Ok((greedy, stats));
        }
        Ok((schedule, stats))
    }
}

impl Scheduler for IlpScheduler {
    fn schedule(&self, problem: &SchedulingProblem) -> Result<Schedule, CoreError> {
        self.schedule_with_stats(problem).map(|(s, _)| s)
    }

    fn name(&self) -> &'static str {
        "ilp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FollowerState, TaskSpec};
    use crate::SensingSpec;
    use eagleeye_check::{any_bool, check_cases, prop_assert_eq, u64_range, usize_range};
    use eagleeye_rng::SplitMix64;
    use std::collections::BTreeMap;

    fn problem(tasks: Vec<TaskSpec>, followers: Vec<FollowerState>) -> SchedulingProblem {
        SchedulingProblem::new(SensingSpec::paper_default(), tasks, followers).unwrap()
    }

    /// The ordered-map assembly [`assemble`] replaced, kept as its
    /// oracle: the same rows, terms, senses and right-hand sides.
    fn assemble_reference(
        problem: &SchedulingProblem,
        graph: &OpportunityGraph,
        followers: &[usize],
    ) -> (Model, Vec<VarId>) {
        let mut model = Model::maximize();
        let arc_vars: Vec<VarId> = graph
            .arcs
            .iter()
            .map(|a| {
                let value = match a.to {
                    End::Node(v) => problem.tasks()[graph.nodes[v].task].value,
                    _ => 0.0,
                };
                model.add_binary_var(value)
            })
            .collect();
        let mut out_of: BTreeMap<End, Vec<usize>> = BTreeMap::new();
        let mut into: BTreeMap<End, Vec<usize>> = BTreeMap::new();
        let mut source_out: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, a) in graph.arcs.iter().enumerate() {
            match a.from {
                End::Source => source_out.entry(a.follower).or_default().push(i),
                from => out_of.entry(from).or_default().push(i),
            }
            into.entry(a.to).or_default().push(i);
        }
        for &f in followers {
            if let Some(arcs) = source_out.get(&f) {
                let terms = arcs.iter().map(|&i| (arc_vars[i], 1.0));
                model.add_constraint(terms, Sense::Le, 1.0).unwrap();
            }
        }
        let mut ends: Vec<End> = (0..graph.nodes.len()).map(End::Node).collect();
        for f in 0..problem.followers().len() {
            ends.extend((0..graph.rests(f).len()).map(|q| End::Rest(f, q)));
        }
        for end in ends {
            let Some(outs) = out_of.get(&end) else {
                continue;
            };
            let terms = outs.iter().map(|&i| (arc_vars[i], 1.0)).chain(
                into.get(&end)
                    .into_iter()
                    .flatten()
                    .map(|&i| (arc_vars[i], -1.0)),
            );
            model.add_constraint(terms, Sense::Le, 0.0).unwrap();
        }
        let mut task_in: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, a) in graph.arcs.iter().enumerate() {
            if let End::Node(v) = a.to {
                task_in.entry(graph.nodes[v].task).or_default().push(i);
            }
        }
        for arcs in task_in.values() {
            let terms = arcs.iter().map(|&i| (arc_vars[i], 1.0));
            model.add_constraint(terms, Sense::Le, 1.0).unwrap();
        }
        (model, arc_vars)
    }

    /// A seeded frame of `n_tasks` tasks and `n_followers` followers,
    /// optionally busy and off-nadir at the start.
    fn seeded_problem(
        seed: u64,
        n_tasks: usize,
        n_followers: usize,
        carried: bool,
    ) -> SchedulingProblem {
        let mut rng = SplitMix64::new(seed);
        let tasks = (0..n_tasks)
            .map(|_| {
                TaskSpec::new(
                    rng.range_f64(-50_000.0, 50_000.0),
                    rng.range_f64(-60_000.0, 60_000.0),
                    rng.range_f64(0.5, 4.0),
                )
            })
            .collect();
        let followers = (0..n_followers)
            .map(|k| {
                let mut f = FollowerState::at_start(-100_000.0 - 20_000.0 * k as f64);
                if carried {
                    f.available_from_s = rng.range_f64(0.0, 6.0);
                    f.pointing_offset = (rng.range_f64(-40_000.0, 40_000.0), 0.0);
                }
                f
            })
            .collect();
        problem(tasks, followers)
    }

    /// Assembles one subproblem both ways: the joint solve over every
    /// follower, or (with `decompose`) follower `seed % n` alone with a
    /// seeded set of tasks excluded, as sequential decomposition does.
    fn assembly_agrees(
        p: &SchedulingProblem,
        seed: u64,
        slots: usize,
        decompose: bool,
    ) -> ((Model, Vec<VarId>), (Model, Vec<VarId>)) {
        let n_followers = p.followers().len();
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        let (followers, excluded): (Vec<usize>, Vec<bool>) = if decompose {
            let f = seed as usize % n_followers;
            let excluded = (0..p.tasks().len()).map(|_| rng.chance(0.3)).collect();
            (vec![f], excluded)
        } else {
            ((0..n_followers).collect(), vec![false; p.tasks().len()])
        };
        let graph = OpportunityGraph::build(p, slots, &followers, &excluded);
        (
            assemble(p, &graph, &followers).unwrap(),
            assemble_reference(p, &graph, &followers),
        )
    }

    #[test]
    fn assembly_matches_ordered_map_reference() {
        let gen = (
            u64_range(0, u64::MAX),
            usize_range(0, 14),
            usize_range(1, 4),
            usize_range(1, 6),
            any_bool(),
            any_bool(),
        );
        check_cases(
            128,
            "ilp_assembly_matches_ordered_map_reference",
            gen,
            |&(seed, n_tasks, n_followers, slots, decompose, carried)| {
                let p = seeded_problem(seed, n_tasks, n_followers, carried);
                let (got, want) = assembly_agrees(&p, seed, slots, decompose);
                prop_assert_eq!(got, want);
                Ok(())
            },
        );
    }

    #[test]
    fn assembly_matches_reference_on_empty_and_single_task_graphs() {
        for n_tasks in [0, 1] {
            for decompose in [false, true] {
                let p = seeded_problem(3, n_tasks, 2, true);
                let (got, want) = assembly_agrees(&p, 3, 5, decompose);
                assert_eq!(got, want, "{n_tasks} tasks, decompose {decompose}");
            }
        }
        // A task no follower can see leaves the graph empty.
        let p = problem(
            vec![TaskSpec::new(95_000.0, 50_000.0, 1.0)],
            vec![FollowerState::at_start(-100_000.0)],
        );
        let (got, want) = assembly_agrees(&p, 0, 3, false);
        assert_eq!(got.0.num_constraints(), 0);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_problem_schedules_empty() {
        let p = problem(vec![], vec![FollowerState::at_start(0.0)]);
        let s = IlpScheduler::default().schedule(&p).unwrap();
        assert_eq!(s.captured_count(), 0);
        s.validate(&p).unwrap();
    }

    #[test]
    fn single_task_is_captured() {
        let p = problem(
            vec![TaskSpec::new(10_000.0, 50_000.0, 3.0)],
            vec![FollowerState::at_start(-100_000.0)],
        );
        let s = IlpScheduler::default().schedule(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.captured_count(), 1);
        assert!((s.total_value - 3.0).abs() < 1e-9);
    }

    #[test]
    fn well_spaced_tasks_are_all_captured() {
        let tasks: Vec<TaskSpec> = (0..8)
            .map(|i| {
                TaskSpec::new(
                    (i % 3) as f64 * 10_000.0,
                    30_000.0 + i as f64 * 20_000.0,
                    1.0,
                )
            })
            .collect();
        let p = problem(tasks, vec![FollowerState::at_start(-100_000.0)]);
        let s = IlpScheduler::default().schedule(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.captured_count(), 8);
    }

    #[test]
    fn conflicting_tasks_pick_higher_value() {
        // Two targets at the same along-track position but on opposite
        // cross-track extremes: a single follower cannot slew between
        // them in time, so it must choose the more valuable.
        let p = problem(
            vec![
                TaskSpec::new(-88_000.0, 50_000.0, 1.0),
                TaskSpec::new(88_000.0, 50_000.0, 5.0),
            ],
            vec![FollowerState::at_start(-100_000.0)],
        );
        let s = IlpScheduler::default().schedule(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.captured_count(), 1);
        assert_eq!(s.captured_tasks().into_iter().next(), Some(1));
    }

    #[test]
    fn two_followers_capture_conflicting_pair() {
        let p = problem(
            vec![
                TaskSpec::new(-88_000.0, 50_000.0, 1.0),
                TaskSpec::new(88_000.0, 50_000.0, 5.0),
            ],
            vec![
                FollowerState::at_start(-100_000.0),
                FollowerState::at_start(-120_000.0),
            ],
        );
        let s = IlpScheduler::default().schedule(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.captured_count(), 2);
    }

    #[test]
    fn no_task_captured_twice_across_followers() {
        let tasks: Vec<TaskSpec> = (0..5)
            .map(|i| TaskSpec::new(0.0, 30_000.0 + i as f64 * 25_000.0, 1.0))
            .collect();
        let p = problem(
            tasks,
            vec![
                FollowerState::at_start(-100_000.0),
                FollowerState::at_start(-120_000.0),
            ],
        );
        let s = IlpScheduler::default().schedule(&p).unwrap();
        s.validate(&p).unwrap(); // validate() rejects duplicates
        assert_eq!(s.captured_count(), 5);
    }

    #[test]
    fn sequential_decomposition_still_validates() {
        let tasks: Vec<TaskSpec> = (0..40)
            .map(|i| {
                TaskSpec::new(
                    ((i * 37) % 160) as f64 * 1_000.0 - 80_000.0,
                    20_000.0 + ((i * 13) % 90) as f64 * 1_200.0,
                    1.0 + (i % 3) as f64,
                )
            })
            .collect();
        let p = problem(
            tasks,
            vec![
                FollowerState::at_start(-100_000.0),
                FollowerState::at_start(-120_000.0),
                FollowerState::at_start(-140_000.0),
            ],
        );
        // Force decomposition with a low threshold.
        let s = IlpScheduler {
            joint_node_limit: 10,
            ..IlpScheduler::default()
        }
        .schedule(&p)
        .unwrap();
        s.validate(&p).unwrap();
        assert!(s.captured_count() > 10);
    }

    #[test]
    fn run_stats_aggregate_solver_counters() {
        let tasks: Vec<TaskSpec> = (0..6)
            .map(|i| TaskSpec::new(0.0, 30_000.0 + i as f64 * 20_000.0, 1.0))
            .collect();
        let p = problem(tasks, vec![FollowerState::at_start(-100_000.0)]);
        let (s, stats) = IlpScheduler::default().schedule_with_stats(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(stats.subproblems, 1);
        assert!(stats.nodes_explored >= 1);
        assert!(stats.lp_iterations >= 1);
        assert!(stats.lp_pivots <= stats.lp_iterations);
        // A feasible instance always produces at least one incumbent.
        assert!(stats.incumbent_updates >= 1);
        // Warm-start activity is only possible on explored child nodes.
        assert!(stats.warm_starts + stats.warm_rejects <= stats.nodes_explored);
        assert!(stats.clean());
    }

    #[test]
    fn respects_initial_pointing_constraint() {
        // Follower already pointed far left; an immediate far-right task
        // is infeasible, a later one is fine.
        let mut f = FollowerState::at_start(-20_000.0);
        f.pointing_offset = (-88_000.0, 0.0);
        let p = problem(vec![TaskSpec::new(88_000.0, -14_000.0, 1.0)], vec![f]);
        // Window for that task ends almost immediately (the follower is
        // nearly past it); slewing 176 km of cross-track takes ~8 s.
        let s = IlpScheduler::default().schedule(&p).unwrap();
        s.validate(&p).unwrap();
    }
}
