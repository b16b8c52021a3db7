//! Depth-first branch-and-bound over the LP relaxation.

use crate::model::{Model, Solution, SolveStatus, VarKind};
use crate::simplex::{LpSolution, Tableau};
use crate::IlpError;
use eagleeye_harden::{crash_point, Deadline};
use std::time::Duration;

/// Absolute tolerance for considering an LP value integral.
const INTEGRALITY_TOL: f64 = 1e-6;
/// Absolute objective gap below which a node is pruned against the
/// incumbent.
const ABSOLUTE_GAP: f64 = 1e-9;

/// Options controlling a MILP solve.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveOptions {
    /// Wall-clock limit; `None` means unlimited, as does a limit too
    /// long to represent as an instant. When the limit is hit the best
    /// incumbent is returned with [`SolveStatus::Feasible`] (or
    /// [`SolveStatus::Unknown`] if none was found).
    pub time_limit: Option<Duration>,
    /// Maximum branch-and-bound nodes to explore; `None` means unlimited.
    pub node_limit: Option<usize>,
}

impl SolveOptions {
    /// Convenience constructor with a wall-clock limit.
    pub fn with_time_limit(limit: Duration) -> Self {
        SolveOptions {
            time_limit: Some(limit),
            ..SolveOptions::default()
        }
    }
}

/// Statistics accumulated during a solve. Every field counts search
/// effort, so two solves of one model report equal statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes whose LP relaxation was solved.
    pub nodes_explored: usize,
    /// Total simplex iterations across all nodes.
    pub lp_iterations: usize,
    /// Total basis-changing simplex pivots across all nodes (bound
    /// flips are counted in `lp_iterations` only).
    pub lp_pivots: usize,
    /// Nodes discarded by the incumbent bound, on the parent's LP bound
    /// before any solve or on the node's own after it (never branched).
    pub nodes_pruned: usize,
    /// How many times a new best integral solution replaced the
    /// incumbent (1 = the first feasible solution was already optimal).
    pub incumbent_updates: usize,
    /// Nodes whose LP relaxation was re-solved from the parent's final
    /// simplex tableau (bound change applied, dual-simplex restored)
    /// instead of a cold two-phase solve.
    pub warm_starts: usize,
    /// Nodes whose inherited tableau the simplex rejected (dual
    /// infeasibility, a capped or stuck dual loop), falling back to a
    /// cold solve. Counted on feasible nodes, where the outcome of the
    /// attempt is observable.
    pub warm_rejects: usize,
}

/// An open node of the running search: its overrides are
/// `bounds[start..end]` of the search's override stack, its own bound
/// change last.
struct Open {
    start: usize,
    end: usize,
    /// The parent's LP objective (−∞ at the root): a tightened bound
    /// never lowers a minimum, so no solution under this node beats it.
    parent_bound: f64,
    basis: Basis,
}

/// Where an open node's LP starts from.
enum Basis {
    /// The root's cold two-phase solve, which polls the deadline.
    Cold,
    /// The parent's final tableau: the one the parent solved (its first
    /// child) or a copy of it (the sibling of a warm-solved parent).
    Inherited(Tableau),
    /// The final tableau of a cold-solved parent, rebuilt when the node
    /// is solved by repeating that parent's cold solve. Its overrides
    /// are this node's without the last.
    Rederived,
}

impl Model {
    /// Solves the model to integer optimality (continuous models solve in
    /// a single LP call) by depth-first branch-and-bound with
    /// most-fractional branching.
    ///
    /// Open nodes keep their overrides on one stack, `bounds`, in the
    /// order of the DFS stack: when a node is popped, every override
    /// above its own belongs to a finished node and is dropped, and its
    /// children push copies of its overrides, each with its own bound
    /// change last.
    ///
    /// A popped node whose parent's LP bound can no longer beat the
    /// incumbent is pruned before its relaxation is solved, and its
    /// inherited tableau is dropped unread. So a branching copies its
    /// tableau for the second child only when the tableau came from a
    /// warm re-solve; a cold-solved parent's second child, if it is
    /// ever solved, repeats the parent's cold solve instead, which
    /// rebuilds the same tableau bit for bit and is not counted in
    /// [`SolveStats`].
    ///
    /// A time limit becomes one [`Deadline`] at entry, checked between
    /// nodes and polled inside the root's cold LP; a solve without one
    /// reads no clock.
    ///
    /// # Errors
    ///
    /// * [`IlpError::Unbounded`] when the relaxation is unbounded.
    /// * [`IlpError::IterationLimit`] on numerical failure inside simplex.
    ///
    /// Infeasibility and resource limits are **not** errors; they are
    /// reported through [`Solution::status`].
    pub fn solve(&self, options: &SolveOptions) -> Result<Solution, IlpError> {
        let deadline = options.time_limit.map_or(Deadline::none(), Deadline::after);
        let mut stats = SolveStats::default();
        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        let mut bounds: Vec<(usize, f64, f64)> = Vec::new();
        let mut stack = vec![Open {
            start: 0,
            end: 0,
            parent_bound: f64::NEG_INFINITY,
            basis: Basis::Cold,
        }];
        let mut limit_hit = false;

        while let Some(node) = stack.pop() {
            if deadline.expired()
                || options
                    .node_limit
                    .is_some_and(|nl| stats.nodes_explored >= nl)
            {
                limit_hit = true;
                break;
            }
            // Crash-injection site: one hit per explored node, so a crash
            // test can kill a run mid-search and check that its retry or
            // resumed run reports what an uninterrupted one does.
            crash_point("bnb_node");

            // Parent-bound pruning: the node's LP cannot beat its
            // parent's, so a node whose parent no longer beats the
            // incumbent is dropped with its tableau, unsolved.
            if incumbent
                .as_ref()
                .is_some_and(|(best, _)| node.parent_bound >= *best - ABSOLUTE_GAP)
            {
                stats.nodes_pruned += 1;
                continue;
            }
            bounds.truncate(node.end);
            // Only the root polls the deadline inside its LP: a child's
            // LP re-solves its inherited tableau to completion, and the
            // clock is checked between nodes. Nor does the repeat of a
            // cold solve that already finished once.
            let overrides = &bounds[node.start..node.end];
            let (warm, inherited) = match node.basis {
                Basis::Cold => (false, None),
                Basis::Inherited(tableau) => (true, Some(tableau)),
                Basis::Rederived => {
                    let parent = &overrides[..overrides.len() - 1];
                    let rebuilt = self.solve_relaxation(parent, Deadline::none(), None)?;
                    (true, rebuilt.map(|lp| lp.tableau))
                }
            };
            let lp_deadline = if warm { Deadline::none() } else { deadline };
            let relaxed = match self.solve_relaxation(overrides, lp_deadline, inherited) {
                Ok(r) => r,
                // A node abandoned mid-LP does not count as explored.
                Err(IlpError::Deadline) => {
                    limit_hit = true;
                    break;
                }
                Err(e) => return Err(e),
            };
            stats.nodes_explored += 1;
            let Some(LpSolution {
                objective: obj,
                iterations,
                pivots,
                warmed,
                tableau,
            }) = relaxed
            else {
                continue; // infeasible node
            };
            if warmed {
                stats.warm_starts += 1;
            } else if warm {
                stats.warm_rejects += 1;
            }
            stats.lp_iterations += iterations;
            stats.lp_pivots += pivots;

            // Bound pruning on the node's own LP.
            if let Some((best, _)) = &incumbent {
                if obj >= *best - ABSOLUTE_GAP {
                    stats.nodes_pruned += 1;
                    continue;
                }
            }

            let values = tableau.values();
            match self.most_fractional(values) {
                None => {
                    // Integral: candidate incumbent.
                    let better = match &incumbent {
                        Some((best, _)) => obj < *best - 1e-12,
                        None => true,
                    };
                    if better {
                        stats.incumbent_updates += 1;
                        match &mut incumbent {
                            Some((best, best_values)) => {
                                *best = obj;
                                best_values.copy_from_slice(values);
                            }
                            None => incumbent = Some((obj, values.to_vec())),
                        }
                    }
                }
                Some(j) => {
                    let v = values[j];
                    let floor = v.floor();
                    let ceil = v.ceil();
                    let down = (j, self.vars[j].lower, floor);
                    let up = (j, ceil, self.vars[j].upper);
                    // Both children start from this node's final
                    // tableau: only one variable's bound tightened, so
                    // its basis stays dual feasible and re-solves in a
                    // few dual pivots. Explore the side closer to the LP
                    // value first (pushed last so it pops first); it
                    // takes the tableau itself. The second child is
                    // usually pruned unread on this node's bound, so it
                    // gets a copy only of a warm re-solve's tableau; a
                    // cold solve is repeated if the child is ever solved.
                    let (first, second) = if v - floor < 0.5 {
                        (down, up)
                    } else {
                        (up, down)
                    };
                    let sibling = if warmed {
                        Basis::Inherited(tableau.clone())
                    } else {
                        Basis::Rederived
                    };
                    for (bound, basis) in [(second, sibling), (first, Basis::Inherited(tableau))] {
                        let start = bounds.len();
                        bounds.extend_from_within(node.start..node.end);
                        bounds.push(bound);
                        stack.push(Open {
                            start,
                            end: bounds.len(),
                            parent_bound: obj,
                            basis,
                        });
                    }
                }
            }
        }

        Ok(self.finish(incumbent, limit_hit, stats))
    }

    /// The integer variable whose LP value is most fractional (nearest
    /// to a half, the lowest index on ties); `None` when all are
    /// integral.
    fn most_fractional(&self, values: &[f64]) -> Option<usize> {
        let mut branch_var: Option<(usize, f64)> = None; // (var, fractional part dist)
        for (j, var) in self.vars.iter().enumerate() {
            if var.kind != VarKind::Integer {
                continue;
            }
            let v = values[j];
            let frac = (v - v.round()).abs();
            if frac > INTEGRALITY_TOL {
                let dist_to_half = (v - v.floor() - 0.5).abs();
                match branch_var {
                    Some((_, best)) if dist_to_half >= best => {}
                    _ => branch_var = Some((j, dist_to_half)),
                }
            }
        }
        branch_var.map(|(j, _)| j)
    }

    /// The search's answer from its incumbent (internal objective and
    /// values), whether a limit ended it, and its statistics.
    fn finish(
        &self,
        incumbent: Option<(f64, Vec<f64>)>,
        limit_hit: bool,
        stats: SolveStats,
    ) -> Solution {
        let sign = self.sign();
        match incumbent {
            Some((internal_obj, values)) => Solution {
                status: if limit_hit {
                    SolveStatus::Feasible
                } else {
                    SolveStatus::Optimal
                },
                objective: sign * internal_obj,
                values,
                stats,
            },
            None => Solution {
                status: if limit_hit {
                    SolveStatus::Unknown
                } else {
                    SolveStatus::Infeasible
                },
                objective: f64::NAN,
                values: vec![f64::NAN; self.num_vars()],
                stats,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sense, VarId};
    use eagleeye_check::{check_cases, prop_assert, prop_assert_eq, u64_range, usize_range};
    use eagleeye_rng::SplitMix64;

    /// The search before a cold-solved parent's tableau was re-derived,
    /// kept as the oracle of both searches since: every branching
    /// copies its tableau for the first child and hands the second the
    /// tableau itself, whatever solved it, and no limit applies. With
    /// `parent_pruning` a popped node is pruned on its parent's bound
    /// before its solve, as in [`Model::solve`]; without it every popped
    /// node's LP is solved and pruned on its own bound only, the search
    /// before parent-bound pruning. Also returns how many second
    /// children of a cold-solved parent were solved: the nodes whose
    /// tableau [`Model::solve`] rebuilds.
    fn solve_reference(m: &Model, parent_pruning: bool) -> (Solution, usize) {
        let mut stats = SolveStats::default();
        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        let mut rederived = 0;
        // (overrides, parent bound, inherited tableau, second child of a
        // cold-solved parent)
        let mut stack = vec![(Vec::new(), f64::NEG_INFINITY, None, false)];
        while let Some((overrides, parent_bound, inherited, cold_sibling)) = stack.pop() {
            if parent_pruning
                && incumbent
                    .as_ref()
                    .is_some_and(|(best, _)| parent_bound >= *best - ABSOLUTE_GAP)
            {
                stats.nodes_pruned += 1;
                continue;
            }
            rederived += usize::from(cold_sibling);
            let warm = inherited.is_some();
            let relaxed = m
                .solve_relaxation(&overrides, Deadline::none(), inherited)
                .unwrap();
            stats.nodes_explored += 1;
            let Some(lp) = relaxed else {
                continue;
            };
            stats.warm_starts += usize::from(lp.warmed);
            stats.warm_rejects += usize::from(warm && !lp.warmed);
            stats.lp_iterations += lp.iterations;
            stats.lp_pivots += lp.pivots;
            if let Some((best, _)) = &incumbent {
                if lp.objective >= *best - ABSOLUTE_GAP {
                    stats.nodes_pruned += 1;
                    continue;
                }
            }
            let values = lp.tableau.values();
            match m.most_fractional(values) {
                None => {
                    if incumbent
                        .as_ref()
                        .is_none_or(|(best, _)| lp.objective < *best - 1e-12)
                    {
                        stats.incumbent_updates += 1;
                        incumbent = Some((lp.objective, values.to_vec()));
                    }
                }
                Some(j) => {
                    let v = values[j];
                    let down = (j, m.vars[j].lower, v.floor());
                    let up = (j, v.ceil(), m.vars[j].upper);
                    let (first, second) = if v - v.floor() < 0.5 {
                        (down, up)
                    } else {
                        (up, down)
                    };
                    let copy = lp.tableau.clone();
                    let children = [(second, lp.tableau, !lp.warmed), (first, copy, false)];
                    for (bound, tableau, cold_sibling) in children {
                        let mut child = overrides.clone();
                        child.push(bound);
                        stack.push((child, lp.objective, Some(tableau), cold_sibling));
                    }
                }
            }
        }
        (m.finish(incumbent, false, stats), rederived)
    }

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> (Model, Vec<crate::VarId>) {
        let mut m = Model::maximize();
        let vars: Vec<_> = values.iter().map(|&v| m.add_binary_var(v)).collect();
        m.add_constraint(
            vars.iter().zip(weights).map(|(&v, &w)| (v, w)),
            Sense::Le,
            cap,
        )
        .unwrap();
        (m, vars)
    }

    /// Brute-force knapsack optimum for cross-checking.
    fn knapsack_brute(values: &[f64], weights: &[f64], cap: f64) -> f64 {
        let n = values.len();
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let mut w = 0.0;
            let mut v = 0.0;
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    w += weights[i];
                    v += values[i];
                }
            }
            if w <= cap + 1e-9 {
                best = best.max(v);
            }
        }
        best
    }

    /// A seeded maximisation model: a binary knapsack (`kind` 0),
    /// general integers beside continuous variables under mixed-sign
    /// rows (1), or the scheduler's arc-flow shape (2): per follower, a
    /// source row, flow conservation at each capture slot, and one
    /// capture-once row per task over every slot that captures it.
    fn seeded_model(kind: usize, seed: u64) -> Model {
        let mut rng = SplitMix64::new(seed);
        let mut m = Model::maximize();
        match kind {
            0 => {
                let n = rng.range_usize(2, 12);
                let items: Vec<_> = (0..n)
                    .map(|_| {
                        let v = m.add_binary_var(rng.range_f64(1.0, 20.0).round());
                        (v, rng.range_f64(1.0, 15.0).round())
                    })
                    .collect();
                let total: f64 = items.iter().map(|&(_, w)| w).sum();
                m.add_constraint(items, Sense::Le, (total * rng.range_f64(0.2, 0.8)).round())
                    .unwrap();
            }
            1 => {
                let n = rng.range_usize(2, 7);
                let vars: Vec<_> = (0..n)
                    .map(|_| {
                        let upper = rng.range_usize(1, 6) as f64;
                        let obj = rng.range_f64(-2.0, 8.0);
                        if rng.chance(0.6) {
                            m.add_integer_var(0.0, upper, obj).unwrap()
                        } else {
                            m.add_continuous_var(0.0, upper, obj).unwrap()
                        }
                    })
                    .collect();
                for _ in 0..rng.range_usize(1, 5) {
                    let terms: Vec<_> = vars
                        .iter()
                        .map(|&v| (v, rng.range_f64(-2.0, 6.0)))
                        .collect();
                    m.add_constraint(terms, Sense::Le, rng.range_f64(1.0, 12.0))
                        .unwrap();
                }
            }
            _ => {
                let n_tasks = rng.range_usize(2, 7);
                let values: Vec<f64> = (0..n_tasks).map(|_| rng.range_f64(0.5, 4.0)).collect();
                let mut task_in: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); n_tasks];
                for _ in 0..rng.range_usize(1, 3) {
                    let slots: Vec<usize> = (0..rng.range_usize(2, 9))
                        .map(|_| rng.range_usize(0, n_tasks))
                        .collect();
                    let mut source = Vec::new();
                    let mut into: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); slots.len()];
                    let mut out_of: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); slots.len()];
                    for (k, &task) in slots.iter().enumerate() {
                        let mut arc_into = |from: Option<usize>, m: &mut Model| {
                            let arc = m.add_binary_var(values[task]);
                            into[k].push((arc, -1.0));
                            task_in[task].push((arc, 1.0));
                            match from {
                                Some(i) => out_of[i].push((arc, 1.0)),
                                None => source.push((arc, 1.0)),
                            }
                        };
                        if rng.chance(0.7) {
                            arc_into(None, &mut m);
                        }
                        for i in 0..k {
                            if slots[i] != task && rng.chance(0.5) {
                                arc_into(Some(i), &mut m);
                            }
                        }
                    }
                    m.add_constraint(source, Sense::Le, 1.0).unwrap();
                    for (outs, ins) in out_of.into_iter().zip(into) {
                        if !outs.is_empty() {
                            m.add_constraint(outs.into_iter().chain(ins), Sense::Le, 0.0)
                                .unwrap();
                        }
                    }
                }
                for terms in task_in {
                    m.add_constraint(terms, Sense::Le, 1.0).unwrap();
                }
            }
        }
        m
    }

    #[test]
    fn parent_bound_pruning_matches_the_solve_everything_reference() {
        check_cases(
            256,
            "parent_bound_pruning_matches_the_solve_everything_reference",
            (usize_range(0, 3), u64_range(0, u64::MAX)),
            |&(kind, seed)| {
                let m = seeded_model(kind, seed);
                let got = m.solve(&SolveOptions::default()).unwrap();
                let (want, _) = solve_reference(&m, false);
                prop_assert_eq!(got.status(), want.status());
                prop_assert_eq!(got.objective.to_bits(), want.objective.to_bits());
                let bits = |s: &Solution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want));
                prop_assert!(
                    got.stats.nodes_explored <= want.stats.nodes_explored,
                    "{} nodes solved against the reference's {}",
                    got.stats.nodes_explored,
                    want.stats.nodes_explored
                );
                Ok(())
            },
        );
    }

    /// Re-deriving a cold-solved parent's tableau for its second child,
    /// instead of copying it at the branching, moves no bit of the
    /// answer and no effort counter: the repeated cold solve rebuilds
    /// the same tableau and is not counted.
    #[test]
    fn rederived_siblings_match_the_copy_every_sibling_reference() {
        let rederived_cases = std::cell::Cell::new([0usize; 3]);
        check_cases(
            256,
            "rederived_siblings_match_the_copy_every_sibling_reference",
            (usize_range(0, 3), u64_range(0, u64::MAX)),
            |&(kind, seed)| {
                let m = seeded_model(kind, seed);
                let got = m.solve(&SolveOptions::default()).unwrap();
                let (want, rederived) = solve_reference(&m, true);
                prop_assert_eq!(got.status(), want.status());
                prop_assert_eq!(got.objective.to_bits(), want.objective.to_bits());
                let bits = |s: &Solution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want));
                prop_assert_eq!(got.stats(), want.stats());
                let mut cases = rederived_cases.get();
                cases[kind] += usize::from(rederived > 0);
                rederived_cases.set(cases);
                Ok(())
            },
        );
        let cases = rederived_cases.get();
        assert!(
            cases.iter().sum::<usize>() >= 20,
            "a cold-solved parent's sibling was solved in too few cases: {cases:?} by model kind"
        );
    }

    #[test]
    fn a_sibling_of_a_child_at_its_parents_bound_is_pruned_unsolved() {
        // max x + y − z s.t. x + y − z ≤ 2.25, x integer: the root LP
        // raises x to 2.25; the first child (x ≤ 2) is integral at the
        // root's bound, so the feasible sibling (x ≥ 3, z = 0.75) cannot
        // beat it and is dropped with its tableau. Solving it before
        // pruning it, as `solve_reference(&m, false)` does, gives (3, 1, 2).
        let mut m = Model::maximize();
        let x = m.add_integer_var(0.0, 10.0, 1.0).unwrap();
        let y = m.add_continuous_var(0.0, 10.0, 1.0).unwrap();
        let z = m.add_continuous_var(0.0, 10.0, -1.0).unwrap();
        m.add_constraint([(x, 1.0), (y, 1.0), (z, -1.0)], Sense::Le, 2.25)
            .unwrap();
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert_eq!(sol.objective(), 2.25);
        let s = sol.stats();
        assert_eq!((s.nodes_explored, s.nodes_pruned, s.warm_starts), (2, 1, 1));
    }

    #[test]
    fn knapsack_matches_brute_force() {
        let values = [10.0, 13.0, 7.0, 8.0, 2.0, 9.0];
        let weights = [5.0, 6.0, 3.0, 4.0, 1.0, 5.0];
        for cap in [0.0, 3.0, 7.0, 11.0, 24.0] {
            let (m, _) = knapsack(&values, &weights, cap);
            let sol = m.solve(&SolveOptions::default()).unwrap();
            let want = knapsack_brute(&values, &weights, cap);
            assert!(
                (sol.objective() - want).abs() < 1e-6,
                "cap {cap}: got {} want {want}",
                sol.objective()
            );
            assert_eq!(sol.status(), SolveStatus::Optimal);
        }
    }

    #[test]
    fn integer_solution_has_integral_values() {
        let values = [3.0, 5.0, 4.0, 6.0];
        let weights = [2.0, 3.0, 3.0, 4.0];
        let (m, vars) = knapsack(&values, &weights, 6.0);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        for &v in &vars {
            let x = sol.value(v);
            assert!((x - x.round()).abs() < 1e-6);
        }
    }

    #[test]
    fn assignment_problem_optimal() {
        // 3x3 assignment, cost matrix; optimal = 1 + 2 + 3 = 6 on diagonal
        // after permutation.
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut m = Model::minimize();
        let mut x = [[None; 3]; 3];
        for (i, xi) in x.iter_mut().enumerate() {
            for (j, xij) in xi.iter_mut().enumerate() {
                *xij = Some(m.add_binary_var(cost[i][j]));
            }
        }
        for i in 0..3 {
            m.add_constraint((0..3).map(|j| (x[i][j].unwrap(), 1.0)), Sense::Eq, 1.0)
                .unwrap();
            m.add_constraint((0..3).map(|j| (x[j][i].unwrap(), 1.0)), Sense::Eq, 1.0)
                .unwrap();
        }
        let sol = m.solve(&SolveOptions::default()).unwrap();
        // Optimal assignment: (0,1)=1, (1,0)=2, (2,2)=2 => 5.
        assert!((sol.objective() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_returns_feasible_or_unknown() {
        let values = [10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0, 6.0];
        let weights = [5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0, 3.0];
        let (m, _) = knapsack(&values, &weights, 12.0);
        let opts = SolveOptions {
            node_limit: Some(1),
            ..SolveOptions::default()
        };
        let sol = m.solve(&opts).unwrap();
        assert!(matches!(
            sol.status(),
            SolveStatus::Feasible | SolveStatus::Unknown
        ));
    }

    #[test]
    fn time_limit_zero_returns_quickly() {
        let values = [10.0, 13.0, 7.0, 8.0];
        let weights = [5.0, 6.0, 3.0, 4.0];
        let (m, _) = knapsack(&values, &weights, 12.0);
        let opts = SolveOptions::with_time_limit(Duration::from_secs(0));
        let sol = m.solve(&opts).unwrap();
        assert!(matches!(
            sol.status(),
            SolveStatus::Feasible | SolveStatus::Unknown
        ));
    }

    /// A limit too long to represent as an instant means no limit: the
    /// solve runs to the unlimited solve's optimum, effort included.
    #[test]
    fn unrepresentable_time_limit_solves_to_optimal() {
        let values = [41.0, 50.0, 49.0, 59.0, 45.0, 47.0];
        let weights = [31.0, 37.0, 38.0, 46.0, 35.0, 40.0];
        let (m, _) = knapsack(&values, &weights, 100.0);
        let sol = m
            .solve(&SolveOptions::with_time_limit(Duration::MAX))
            .unwrap();
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert_eq!(sol, m.solve(&SolveOptions::default()).unwrap());
    }

    #[test]
    fn general_integer_variables() {
        // max 2x + 3y, 4x + 5y <= 17, x,y integer >= 0 => x=3,y=1 (9) or
        // x=0,y=3 (9)? 4*0+15<=17 y=3 obj 9; x=3,y=1: 12+5=17 obj 9.
        let mut m = Model::maximize();
        let x = m.add_integer_var(0.0, 10.0, 2.0).unwrap();
        let y = m.add_integer_var(0.0, 10.0, 3.0).unwrap();
        m.add_constraint([(x, 4.0), (y, 5.0)], Sense::Le, 17.0)
            .unwrap();
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() - 9.0).abs() < 1e-6);
        let xv = sol.value(x);
        let yv = sol.value(y);
        assert!((xv - xv.round()).abs() < 1e-6);
        assert!((yv - yv.round()).abs() < 1e-6);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max x + y, x binary, y continuous <= 2.5, x + y <= 3 =>
        // x=1, y=2 (y <= 2.5 and x+y<=3) obj 3.
        let mut m = Model::maximize();
        let x = m.add_binary_var(1.0);
        let y = m.add_continuous_var(0.0, 2.5, 1.0).unwrap();
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 3.0)
            .unwrap();
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() - 3.0).abs() < 1e-6);
        assert!((sol.value(x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn stats_are_populated() {
        let (m, _) = knapsack(&[3.0, 5.0, 4.0], &[2.0, 3.0, 3.0], 5.0);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        let stats = sol.stats();
        assert!(stats.nodes_explored >= 1);
        assert!(stats.lp_pivots <= stats.lp_iterations);
        // This knapsack has a feasible optimum, so the incumbent was
        // set at least once.
        assert!(stats.incumbent_updates >= 1);
    }

    #[test]
    fn warm_starts_are_counted_and_deterministic() {
        // A knapsack that genuinely branches: every non-root node
        // carries its parent's basis, so warm attempts must be
        // recorded, and two identical solves must agree exactly.
        let values = [41.0, 50.0, 49.0, 59.0, 45.0, 47.0];
        let weights = [31.0, 37.0, 38.0, 46.0, 35.0, 40.0];
        let (m, _) = knapsack(&values, &weights, 100.0);
        let a = m.solve(&SolveOptions::default()).unwrap();
        let b = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(a.stats(), b.stats());
        let stats = a.stats();
        assert!(stats.nodes_explored > 10);
        assert!(
            stats.warm_starts + stats.warm_rejects > 0,
            "branching nodes must at least attempt warm starts"
        );
        assert!(
            stats.warm_starts > 0,
            "bound-tightened children should mostly accept the parent basis"
        );
    }

    #[test]
    fn infeasible_solve_has_no_incumbent_stats() {
        let mut m = Model::minimize();
        let x = m.add_binary_var(1.0);
        m.add_constraint([(x, 1.0)], crate::Sense::Ge, 2.0).unwrap();
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.status(), SolveStatus::Infeasible);
        assert_eq!(sol.stats().incumbent_updates, 0);
    }
}
