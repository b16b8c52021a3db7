//! Depth-first branch-and-bound over the LP relaxation.

use crate::model::{Model, Solution, SolveStatus, VarKind};
use crate::simplex::{LpSolution, Tableau};
use crate::IlpError;
use eagleeye_harden::{crash_point, ByteReader, ByteWriter, CodecError};
use std::time::{Duration, Instant};

/// Absolute tolerance for considering an LP value integral.
const INTEGRALITY_TOL: f64 = 1e-6;
/// Absolute objective gap below which a node is pruned against the
/// incumbent.
const ABSOLUTE_GAP: f64 = 1e-9;

/// Options controlling a MILP solve.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveOptions {
    /// Wall-clock limit; `None` means unlimited. When the limit is hit
    /// the best incumbent is returned with [`SolveStatus::Feasible`]
    /// (or [`SolveStatus::Unknown`] if none was found).
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

/// Statistics accumulated during a solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes whose LP relaxation was solved.
    pub nodes_explored: usize,
    /// Total simplex iterations across all nodes.
    pub lp_iterations: usize,
    /// Total basis-changing simplex pivots across all nodes (bound
    /// flips are counted in `lp_iterations` only).
    pub lp_pivots: usize,
    /// Nodes whose LP relaxation was solved but that were discarded by
    /// the incumbent bound (never branched).
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
    /// Wall-clock time from solve start until the first incumbent was
    /// found; `None` when the search ended with no feasible solution.
    pub time_to_first_incumbent: Option<Duration>,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
}

/// An open node of a paused search: its variable bound overrides plus
/// the parent relaxation's final tableau to re-solve its LP from.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    overrides: Vec<(usize, f64, f64)>,
    tableau: Option<Tableau>,
}

/// An open node of the running search: its overrides are
/// `bounds[start..end]` of the search's override stack, its own bound
/// change last.
struct Open {
    start: usize,
    end: usize,
    tableau: Option<Tableau>,
}

/// A paused branch-and-bound search: the best incumbent found so far
/// plus the open-node frontier (DFS stack of bound-override sets) and
/// the deterministic solve statistics.
///
/// A frontier is produced by [`crate::Model::solve_resumable`] when a
/// node or time limit interrupts the search, serializes bit-exactly
/// ([`Frontier::to_bytes`] stores floats as raw IEEE-754 bits), and can
/// be fed back to `solve_resumable` — on the same model — to continue
/// the search precisely where it stopped. An interrupted-and-resumed
/// solve explores the same nodes in the same order as an uninterrupted
/// one, so the final solution and deterministic stats are identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Frontier {
    /// Internal (minimize-sign) incumbent objective and values.
    incumbent: Option<(f64, Vec<f64>)>,
    /// Open nodes, bottom of the DFS stack first. Each node carries
    /// its inherited tableau so a resumed search re-solves the same
    /// nodes from the same bits an uninterrupted one would — keeping
    /// the solution, the warm counters and the LP effort stats
    /// bit-identical across resumes.
    open: Vec<Node>,
    /// Deterministic counters carried across segments; wall-clock
    /// fields accumulate per-segment elapsed time.
    stats: SolveStats,
}

impl Frontier {
    /// Number of open nodes awaiting exploration.
    #[cfg(test)]
    fn nodes_open(&self) -> usize {
        self.open.len()
    }

    /// The deterministic statistics accumulated so far.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Serializes the frontier (little-endian, floats as raw bits).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(4); // format version (4 = inherited tableaux)
        w.bool(self.incumbent.is_some());
        if let Some((obj, values)) = &self.incumbent {
            w.f64(*obj);
            w.usize(values.len());
            for &v in values {
                w.f64(v);
            }
        }
        w.usize(self.open.len());
        for node in &self.open {
            w.usize(node.overrides.len());
            for &(j, lo, hi) in &node.overrides {
                w.usize(j);
                w.f64(lo);
                w.f64(hi);
            }
            w.bool(node.tableau.is_some());
            if let Some(tableau) = &node.tableau {
                tableau.write(&mut w);
            }
        }
        w.u64(self.stats.nodes_explored as u64);
        w.u64(self.stats.lp_iterations as u64);
        w.u64(self.stats.lp_pivots as u64);
        w.u64(self.stats.nodes_pruned as u64);
        w.u64(self.stats.incumbent_updates as u64);
        w.u64(self.stats.warm_starts as u64);
        w.u64(self.stats.warm_rejects as u64);
        w.bool(self.stats.time_to_first_incumbent.is_some());
        if let Some(t) = self.stats.time_to_first_incumbent {
            w.u64(t.as_secs());
            w.u32(t.subsec_nanos());
        }
        w.u64(self.stats.elapsed.as_secs());
        w.u32(self.stats.elapsed.subsec_nanos());
        w.into_bytes()
    }

    /// Restores a frontier written by [`Frontier::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, an unknown format version, or an
    /// inherited tableau whose dimensions or basis do not fit.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.u8()? != 4 {
            return Err(CodecError {
                context: "frontier format version",
            });
        }
        // Every length below is read from the payload, so nothing is
        // preallocated from it: a forged length fails on truncation
        // instead of panicking on capacity overflow.
        let incumbent = if r.bool()? {
            let obj = r.f64()?;
            let n = r.usize()?;
            let values = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
            Some((obj, values))
        } else {
            None
        };
        let mut open = Vec::new();
        for _ in 0..r.usize()? {
            let n_ov = r.usize()?;
            let overrides = (0..n_ov)
                .map(|_| Ok((r.usize()?, r.f64()?, r.f64()?)))
                .collect::<Result<_, CodecError>>()?;
            let tableau = if r.bool()? {
                Some(Tableau::read(&mut r)?)
            } else {
                None
            };
            open.push(Node { overrides, tableau });
        }
        let mut stats = SolveStats {
            nodes_explored: r.u64()? as usize,
            lp_iterations: r.u64()? as usize,
            lp_pivots: r.u64()? as usize,
            nodes_pruned: r.u64()? as usize,
            incumbent_updates: r.u64()? as usize,
            warm_starts: r.u64()? as usize,
            warm_rejects: r.u64()? as usize,
            ..SolveStats::default()
        };
        if r.bool()? {
            stats.time_to_first_incumbent = Some(Duration::new(r.u64()?, r.u32()?));
        }
        stats.elapsed = Duration::new(r.u64()?, r.u32()?);
        if !r.is_exhausted() {
            return Err(CodecError {
                context: "trailing frontier bytes",
            });
        }
        Ok(Frontier {
            incumbent,
            open,
            stats,
        })
    }
}

/// Depth-first branch-and-bound with most-fractional branching. A
/// `resume` frontier continues an interrupted search exactly where it
/// stopped; the returned frontier is `Some` whenever a limit stopped
/// the search with open nodes left.
///
/// Open nodes keep their overrides on one stack, `bounds`, in the
/// order of the DFS stack: when a node is popped, every override above
/// its own belongs to a finished node and is dropped, and its children
/// push copies of its overrides, each with its own bound change last.
pub(crate) fn solve_milp_resumable(
    model: &Model,
    options: &SolveOptions,
    resume: Option<Frontier>,
) -> Result<(Solution, Option<Frontier>), IlpError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "anchors the optional B&B wall-clock deadline; deterministic whenever no deadline is set"
    )]
    let start = Instant::now();
    let sign = model.sign();

    // Either pick the search up exactly where a prior segment stopped,
    // or start fresh from the root relaxation.
    let mut bounds: Vec<(usize, f64, f64)> = Vec::new();
    let mut stack: Vec<Open> = Vec::new();
    let (mut stats, mut incumbent, prior_elapsed) = match resume {
        Some(frontier) => {
            for node in frontier.open {
                let start = bounds.len();
                bounds.extend(node.overrides);
                stack.push(Open {
                    start,
                    end: bounds.len(),
                    tableau: node.tableau,
                });
            }
            (
                SolveStats {
                    elapsed: Duration::ZERO,
                    ..frontier.stats
                },
                frontier.incumbent,
                frontier.stats.elapsed,
            )
        }
        None => {
            stack.push(Open {
                start: 0,
                end: 0,
                tableau: None,
            });
            (SolveStats::default(), None, Duration::ZERO)
        }
    };
    let mut limit_hit = false;
    let deadline = options.time_limit.map(|tl| start + tl);

    while let Some(mut node) = stack.pop() {
        if let Some(tl) = options.time_limit {
            if start.elapsed() >= tl {
                stack.push(node);
                limit_hit = true;
                break;
            }
        }
        if let Some(nl) = options.node_limit {
            if stats.nodes_explored >= nl {
                stack.push(node);
                limit_hit = true;
                break;
            }
        }
        // Crash-injection site: one hit per explored node, so a crash
        // test can kill the solver mid-search and assert the resumed
        // search matches an uninterrupted one.
        crash_point("bnb_node");

        stats.nodes_explored += 1;
        bounds.truncate(node.end);
        // Only a node without a tableau (the root) polls the deadline
        // inside its LP: a child's LP consumes its tableau, so it runs
        // to completion and the clock is checked between nodes, and a
        // node handed back on Deadline is always intact.
        let inherited = node.tableau.take();
        let warm = inherited.is_some();
        let lp_deadline = if warm { None } else { deadline };
        let overrides = &bounds[node.start..node.end];
        let relaxed = match model.solve_relaxation(overrides, lp_deadline, inherited) {
            Ok(r) => r,
            Err(IlpError::Deadline) => {
                // The node was not fully explored: give it back to the
                // frontier and undo its exploration count so a resumed
                // search replays it exactly.
                stats.nodes_explored -= 1;
                stack.push(node);
                limit_hit = true;
                break;
            }
            Err(e) => return Err(e),
        };
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

        // Bound pruning.
        if let Some((best, _)) = &incumbent {
            if obj >= *best - ABSOLUTE_GAP {
                stats.nodes_pruned += 1;
                continue;
            }
        }

        // Find the most fractional integer variable.
        let values = tableau.values();
        let mut branch_var: Option<(usize, f64)> = None; // (var, fractional part dist)
        for (j, var) in model.vars.iter().enumerate() {
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

        match branch_var {
            None => {
                // Integral: candidate incumbent.
                let better = match &incumbent {
                    Some((best, _)) => obj < *best - 1e-12,
                    None => true,
                };
                if better {
                    stats.incumbent_updates += 1;
                    if stats.time_to_first_incumbent.is_none() {
                        stats.time_to_first_incumbent = Some(prior_elapsed + start.elapsed());
                    }
                    match &mut incumbent {
                        Some((best, best_values)) => {
                            *best = obj;
                            best_values.copy_from_slice(values);
                        }
                        None => incumbent = Some((obj, values.to_vec())),
                    }
                }
            }
            Some((j, _)) => {
                let v = values[j];
                let floor = v.floor();
                let ceil = v.ceil();
                let down = (j, model.vars[j].lower, floor);
                let up = (j, ceil, model.vars[j].upper);
                // Both children inherit this node's final tableau:
                // only one variable's bound tightened, so its basis
                // stays dual feasible and re-solves in a few dual
                // pivots. Explore the side closer to the LP value
                // first (pushed last so it pops first); it re-solves a
                // copy, the other child the tableau itself.
                let (first, second) = if v - floor < 0.5 {
                    (down, up)
                } else {
                    (up, down)
                };
                let copy = tableau.clone();
                for (bound, tableau) in [(second, tableau), (first, copy)] {
                    let start = bounds.len();
                    bounds.extend_from_within(node.start..node.end);
                    bounds.push(bound);
                    stack.push(Open {
                        start,
                        end: bounds.len(),
                        tableau: Some(tableau),
                    });
                }
            }
        }
    }

    stats.elapsed = prior_elapsed + start.elapsed();
    // An interrupted search with open nodes is resumable; a drained
    // stack means the solve finished (no frontier to hand back).
    let frontier = if limit_hit && !stack.is_empty() {
        Some(Frontier {
            incumbent: incumbent.clone(),
            open: stack
                .into_iter()
                .map(|node| Node {
                    overrides: bounds[node.start..node.end].to_vec(),
                    tableau: node.tableau,
                })
                .collect(),
            stats,
        })
    } else {
        None
    };
    let solution = match incumbent {
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
            values: vec![f64::NAN; model.num_vars()],
            stats,
        },
    };
    Ok((solution, frontier))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sense};

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
        // set at least once and its discovery time was stamped.
        assert!(stats.incumbent_updates >= 1);
        assert!(stats.time_to_first_incumbent.is_some());
        assert!(stats.time_to_first_incumbent.unwrap() <= stats.elapsed);
    }

    /// Deterministic stats: everything except the wall-clock fields.
    fn det_stats(s: &SolveStats) -> (usize, usize, usize, usize, usize, usize, usize) {
        (
            s.nodes_explored,
            s.lp_iterations,
            s.lp_pivots,
            s.nodes_pruned,
            s.incumbent_updates,
            s.warm_starts,
            s.warm_rejects,
        )
    }

    #[test]
    fn interrupted_and_resumed_solve_matches_uninterrupted() {
        // A knapsack the solver genuinely branches on (~69 nodes), so
        // every stride interrupts the search several times, often
        // while an open sibling still holds its parent's tableau.
        let values = [41.0, 50.0, 49.0, 59.0, 45.0, 47.0];
        let weights = [31.0, 37.0, 38.0, 46.0, 35.0, 40.0];
        let (m, _) = knapsack(&values, &weights, 100.0);
        let baseline = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(baseline.status(), SolveStatus::Optimal);
        assert!(baseline.stats().nodes_explored > 10);
        assert!(baseline.stats().warm_starts > 1);

        // Interrupt the search every few nodes and resume until done,
        // half the strides through the frontier's bytes.
        for stride in [1usize, 2, 3, 5, 7, 11] {
            let through_bytes = stride % 2 == 1;
            let mut frontier: Option<Frontier> = None;
            let (mut segments, mut held_tableaux) = (0, 0);
            let solution = loop {
                segments += 1;
                assert!(segments < 10_000, "stride {stride} never converged");
                let opts = SolveOptions {
                    node_limit: Some(
                        frontier.as_ref().map_or(0, |f| f.stats().nodes_explored) + stride,
                    ),
                    ..SolveOptions::default()
                };
                let (sol, next) = m.solve_resumable(&opts, frontier.take()).unwrap();
                match next {
                    Some(f) => {
                        held_tableaux += f.open.iter().filter(|n| n.tableau.is_some()).count();
                        frontier = Some(if through_bytes {
                            Frontier::from_bytes(&f.to_bytes()).unwrap()
                        } else {
                            f
                        });
                    }
                    None => break sol,
                }
            };
            assert!(segments > 2, "stride {stride} should interrupt repeatedly");
            assert!(
                held_tableaux > 0,
                "stride {stride}: no open node held a tableau"
            );
            assert_eq!(solution.status(), SolveStatus::Optimal, "stride {stride}");
            assert_eq!(
                solution.objective().to_bits(),
                baseline.objective().to_bits(),
                "stride {stride}"
            );
            let bits = |s: &Solution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&solution), bits(&baseline), "stride {stride}");
            assert_eq!(
                det_stats(solution.stats()),
                det_stats(baseline.stats()),
                "stride {stride}"
            );
        }
    }

    #[test]
    fn frontier_round_trips_through_bytes() {
        let values = [10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0, 6.0];
        let weights = [5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0, 3.0];
        let (m, _) = knapsack(&values, &weights, 12.0);
        let opts = SolveOptions {
            node_limit: Some(3),
            ..SolveOptions::default()
        };
        let (_, frontier) = m.solve_resumable(&opts, None).unwrap();
        let frontier = frontier.expect("3-node limit must interrupt this knapsack");
        assert!(frontier.nodes_open() > 0);
        assert!(frontier.open.iter().all(|n| n.tableau.is_some()));
        let bytes = frontier.to_bytes();
        let back = Frontier::from_bytes(&bytes).unwrap();
        assert_eq!(back, frontier);
        assert_eq!(back.to_bytes(), bytes);

        // Resuming from the deserialized frontier finishes the solve
        // identically to resuming from the in-memory one.
        let baseline = m.solve(&SolveOptions::default()).unwrap();
        let (from_mem, none_a) = m
            .solve_resumable(&SolveOptions::default(), Some(frontier))
            .unwrap();
        let (from_bytes, none_b) = m
            .solve_resumable(&SolveOptions::default(), Some(back))
            .unwrap();
        assert!(none_a.is_none() && none_b.is_none());
        assert_eq!(from_mem.values, from_bytes.values);
        assert_eq!(from_mem.values, baseline.values);
        assert_eq!(det_stats(from_mem.stats()), det_stats(baseline.stats()));
    }

    #[test]
    fn frontier_rejects_malformed_bytes() {
        assert!(Frontier::from_bytes(&[]).is_err());
        assert!(Frontier::from_bytes(&[9]).is_err());
        // Payloads of every earlier version are rejected: 1 (no warm
        // state), 2 (a hint counter), 3 (warm bases, not tableaux).
        for version in 1..=3 {
            assert!(Frontier::from_bytes(&[version, 0, 0]).is_err());
        }
        // Two rows, so the tableau's basis has two entries.
        let (mut m, x) = knapsack(&[10.0, 13.0, 7.0], &[5.0, 6.0, 3.0], 8.0);
        m.add_constraint([(x[0], 1.0), (x[1], 1.0)], Sense::Le, 1.0)
            .unwrap();
        let tableau = m
            .solve_relaxation(&[], None, None)
            .unwrap()
            .expect("feasible")
            .tableau;
        let f = Frontier {
            incumbent: Some((1.5, vec![0.0, 1.0, 0.0])),
            open: vec![
                Node {
                    overrides: vec![(0, 0.0, 0.0)],
                    tableau: Some(tableau),
                },
                Node {
                    overrides: vec![],
                    tableau: None,
                },
            ],
            stats: SolveStats::default(),
        };
        let bytes = f.to_bytes();
        assert_eq!(Frontier::from_bytes(&bytes).unwrap(), f);
        assert!(Frontier::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Frontier::from_bytes(&trailing).is_err());

        // A v3 payload of the same frontier (its warm basis laid out as
        // column count, basis length, basis, flags) is rejected.
        let mut v3 = ByteWriter::new();
        v3.u8(3);
        v3.bool(false);
        v3.usize(1);
        v3.usize(0);
        v3.bool(true);
        for word in [4, 1, 3] {
            v3.usize(word);
        }
        for _ in 0..4 {
            v3.bool(false);
        }
        assert!(Frontier::from_bytes(&v3.into_bytes()).is_err());

        // Forged lengths must fail as truncated, never panic on a
        // capacity overflow: incumbent values, open nodes, overrides,
        // then each tableau dimension in turn.
        let forged_len = |prefix: &[u8], tail: &[u64]| {
            let mut w = ByteWriter::new();
            for &b in prefix {
                w.u8(b);
            }
            for &v in tail {
                w.u64(v);
            }
            w.into_bytes()
        };
        // One open node with no overrides and a tableau of the given
        // dimensions (n_struct, m, n_cols, art_start), then `pad`
        // zero bytes.
        let forged_tableau = |dims: [u64; 4], pad: usize| {
            let mut b = forged_len(&[4, 0], &[1, 0]);
            b.push(1);
            b.extend(forged_len(&[], &dims));
            b.resize(b.len() + pad, 0);
            b
        };
        for n in [1u64 << 61, u64::MAX] {
            let payloads = [
                forged_len(&[4, 1], &[0, n]),
                forged_len(&[4, 0], &[n]),
                forged_len(&[4, 0], &[1, n]),
                forged_tableau([n, 1, n, n], 4096),
                forged_tableau([1, n, 2, 1], 4096),
                forged_tableau([1, 2, n, 1], 4096),
                forged_tableau([1, n, n, 1], 4096),
            ];
            for bytes in payloads {
                assert!(Frontier::from_bytes(&bytes).is_err(), "{bytes:?}");
            }
        }
        // Tampering with a valid payload: an artificial-column start
        // past the last column or before the structural ones, and a
        // basis that names a column twice or past the last one. The
        // first tableau's dimensions follow the version byte, the
        // incumbent (flag, objective, length, 3 values), the open-node
        // count, the override count, one override and the tableau flag.
        let dims = 1 + (1 + 8 + 8 + 24) + 8 + 8 + 24 + 1;
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let (n_struct, n_cols) = (word(dims), word(dims + 16));
        let basis_at = dims + 32;
        for (at, forged) in [
            (dims + 24, n_cols + 1),
            (dims + 24, n_struct - 1),
            (basis_at, n_cols),
            (basis_at, word(basis_at + 8)),
        ] {
            let mut tampered = bytes.clone();
            tampered[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            assert!(Frontier::from_bytes(&tampered).is_err(), "{at}: {forged}");
        }
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
        assert_eq!(det_stats(a.stats()), det_stats(b.stats()));
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
    fn completed_solve_returns_no_frontier() {
        let (m, _) = knapsack(&[3.0, 5.0], &[2.0, 3.0], 4.0);
        let (sol, frontier) = m.solve_resumable(&SolveOptions::default(), None).unwrap();
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert!(frontier.is_none());
    }

    #[test]
    fn infeasible_solve_has_no_incumbent_stats() {
        let mut m = Model::minimize();
        let x = m.add_binary_var(1.0);
        m.add_constraint([(x, 1.0)], crate::Sense::Ge, 2.0).unwrap();
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.status(), SolveStatus::Infeasible);
        assert_eq!(sol.stats().incumbent_updates, 0);
        assert_eq!(sol.stats().time_to_first_incumbent, None);
    }
}
