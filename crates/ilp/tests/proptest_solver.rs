//! Property-based tests hammering the simplex and branch-and-bound
//! engines with randomized instances, on the `eagleeye-check` harness
//! (replay with `EAGLEEYE_CHECK_SEED`, scale with
//! `EAGLEEYE_CHECK_CASES`). Includes the MILP-vs-enumeration
//! differential oracle: on every random small integer program the
//! branch-and-bound answer (status *and* objective) must match an
//! exhaustive scan of the integer lattice. A second oracle checks the
//! children branch-and-bound re-solves from their parent's final
//! tableau against cold solves of the same children.

use eagleeye_check::{
    any_bool, check_cases, f64_range, prop_assert, prop_assert_eq, usize_range, vec_of, Gen,
    PropResult,
};
use eagleeye_ilp::{Model, Sense, SolveOptions, SolveStatus};
use std::cell::Cell;

const CASES: u32 = 64;
/// The acceptance-critical differential oracle runs at a higher budget.
const ORACLE_CASES: u32 = 128;

/// Builds a feasible-by-construction LP:
/// pick a witness point `x0`, set every row's rhs to `a·x0 + slack` so the
/// witness satisfies all `≤` rows.
type FeasibleLp = (
    Model,
    Vec<eagleeye_ilp::VarId>,
    Vec<(Vec<f64>, f64)>,
    Vec<f64>,
);

fn feasible_lp(
    n: usize,
    coeffs: Vec<Vec<f64>>,
    witness: Vec<f64>,
    slacks: Vec<f64>,
    costs: Vec<f64>,
) -> FeasibleLp {
    let mut m = Model::minimize();
    let vars: Vec<_> = costs
        .iter()
        .take(n)
        .map(|&c| m.add_continuous_var(0.0, 10.0, c).unwrap())
        .collect();
    let mut rows = Vec::new();
    for (a_row, slack) in coeffs.iter().zip(&slacks) {
        let rhs: f64 = a_row.iter().zip(&witness).map(|(a, x)| a * x).sum::<f64>() + slack.abs();
        m.add_constraint(
            vars.iter().zip(a_row).map(|(&v, &a)| (v, a)),
            Sense::Le,
            rhs,
        )
        .unwrap();
        rows.push((a_row.clone(), rhs));
    }
    (m, vars, rows, witness)
}

/// Every LP solution returned as Optimal satisfies all constraints and
/// bounds, and is at least as good as the feasible witness.
#[test]
fn lp_solutions_are_feasible_and_dominate_witness() {
    check_cases(
        CASES,
        "lp_solutions_are_feasible_and_dominate_witness",
        (
            usize_range(1, 6),
            usize_range(1, 6),
            vec_of(f64_range(-5.0, 5.0), 36, 37),
            vec_of(f64_range(0.0, 10.0), 6, 7),
            vec_of(f64_range(0.0, 3.0), 6, 7),
            vec_of(f64_range(-4.0, 4.0), 6, 7),
        ),
        |(n, rows, coeff_seed, witness_seed, slack_seed, cost_seed)| {
            let (n, rows) = (*n, *rows);
            let coeffs: Vec<Vec<f64>> = (0..rows)
                .map(|i| (0..n).map(|j| coeff_seed[(i * 6 + j) % 36]).collect())
                .collect();
            let witness: Vec<f64> = witness_seed.iter().take(n).copied().collect();
            let slacks: Vec<f64> = slack_seed.iter().take(rows).copied().collect();
            let (m, vars, row_data, witness) =
                feasible_lp(n, coeffs, witness, slacks, cost_seed.clone());
            let sol = m.solve(&SolveOptions::default()).unwrap();
            prop_assert_eq!(sol.status(), SolveStatus::Optimal);

            // Feasibility of the returned point.
            for (a_row, rhs) in &row_data {
                let lhs: f64 = a_row
                    .iter()
                    .zip(&vars)
                    .map(|(a, &v)| a * sol.value(v))
                    .sum();
                prop_assert!(lhs <= rhs + 1e-6, "row violated: {} > {}", lhs, rhs);
            }
            for &v in &vars {
                prop_assert!(sol.value(v) >= -1e-7);
                prop_assert!(sol.value(v) <= 10.0 + 1e-7);
            }

            // Optimality vs. the witness.
            let witness_cost: f64 = witness
                .iter()
                .zip(cost_seed.iter())
                .map(|(x, c)| x * c)
                .sum();
            prop_assert!(sol.objective() <= witness_cost + 1e-6);
            Ok(())
        },
    );
}

/// Branch-and-bound matches exhaustive enumeration on random
/// knapsacks.
#[test]
fn knapsack_matches_enumeration() {
    check_cases(
        CASES,
        "knapsack_matches_enumeration",
        (
            usize_range(1, 9),
            vec_of(f64_range(0.0, 20.0), 9, 10),
            vec_of(f64_range(0.5, 10.0), 9, 10),
            f64_range(0.0, 1.0),
        ),
        |(n, values, weights, cap_frac)| {
            let n = *n;
            let values = &values[..n];
            let weights = &weights[..n];
            let total: f64 = weights.iter().sum();
            let cap = cap_frac * total;

            let mut m = Model::maximize();
            let vars: Vec<_> = values.iter().map(|&v| m.add_binary_var(v)).collect();
            m.add_constraint(
                vars.iter().zip(weights).map(|(&v, &w)| (v, w)),
                Sense::Le,
                cap,
            )
            .unwrap();
            let sol = m.solve(&SolveOptions::default()).unwrap();
            prop_assert_eq!(sol.status(), SolveStatus::Optimal);

            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let (mut w, mut v) = (0.0, 0.0);
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
            prop_assert!(
                (sol.objective() - best).abs() < 1e-5,
                "milp {} vs brute {}",
                sol.objective(),
                best
            );
            Ok(())
        },
    );
}

/// Set-cover MILP solutions cover every element, and the optimum is
/// never worse than the greedy heuristic.
#[test]
fn set_cover_covers_everything_and_beats_greedy() {
    check_cases(
        CASES,
        "set_cover_covers_everything_and_beats_greedy",
        (
            usize_range(1, 8),
            usize_range(1, 8),
            vec_of(any_bool(), 64, 65),
        ),
        |(n_elems, n_sets, membership)| {
            let (n_elems, n_sets) = (*n_elems, *n_sets);
            // Ensure coverage is possible: set i covers element i % n_sets.
            let covers = |s: usize, e: usize| membership[(s * 8 + e) % 64] || e % n_sets == s;
            let mut m = Model::minimize();
            let sets: Vec<_> = (0..n_sets).map(|_| m.add_binary_var(1.0)).collect();
            for e in 0..n_elems {
                m.add_constraint(
                    (0..n_sets)
                        .filter(|&s| covers(s, e))
                        .map(|s| (sets[s], 1.0)),
                    Sense::Ge,
                    1.0,
                )
                .unwrap();
            }
            let sol = m.solve(&SolveOptions::default()).unwrap();
            prop_assert_eq!(sol.status(), SolveStatus::Optimal);

            // Every element covered by a chosen set.
            for e in 0..n_elems {
                let covered = (0..n_sets).any(|s| covers(s, e) && sol.value(sets[s]) > 0.5);
                prop_assert!(covered, "element {} uncovered", e);
            }

            // Greedy comparison.
            let mut uncovered: Vec<usize> = (0..n_elems).collect();
            let mut greedy_count = 0.0;
            while !uncovered.is_empty() {
                let best = (0..n_sets)
                    .max_by_key(|&s| uncovered.iter().filter(|&&e| covers(s, e)).count())
                    .unwrap();
                let gain = uncovered.iter().filter(|&&e| covers(best, e)).count();
                prop_assert!(gain > 0);
                uncovered.retain(|&e| !covers(best, e));
                greedy_count += 1.0;
            }
            prop_assert!(sol.objective() <= greedy_count + 1e-6);
            Ok(())
        },
    );
}

/// Equality-constrained systems: solving Ax = b with a known solution
/// recovers a feasible point.
#[test]
fn equality_systems_solve() {
    check_cases(
        CASES,
        "equality_systems_solve",
        (
            vec_of(f64_range(0.0, 5.0), 3, 4),
            vec_of(f64_range(-3.0, 3.0), 9, 10),
        ),
        |(x0, a)| {
            let mut m = Model::minimize();
            let vars: Vec<_> = (0..3)
                .map(|j| m.add_continuous_var(0.0, 100.0, (j as f64) + 1.0).unwrap())
                .collect();
            let mut rhss = Vec::new();
            for i in 0..3 {
                let rhs: f64 = (0..3).map(|j| a[i * 3 + j] * x0[j]).sum();
                m.add_constraint((0..3).map(|j| (vars[j], a[i * 3 + j])), Sense::Eq, rhs)
                    .unwrap();
                rhss.push(rhs);
            }
            let sol = m.solve(&SolveOptions::default()).unwrap();
            prop_assert_eq!(sol.status(), SolveStatus::Optimal);
            for i in 0..3 {
                let lhs: f64 = (0..3).map(|j| a[i * 3 + j] * sol.value(vars[j])).sum();
                prop_assert!(
                    (lhs - rhss[i]).abs() < 1e-5,
                    "eq row {}: {} != {}",
                    i,
                    lhs,
                    rhss[i]
                );
            }
            Ok(())
        },
    );
}

/// A random small integer program: bounded integer variables, integer
/// coefficients, mixed-sense rows, either optimization direction.
#[derive(Debug, Clone)]
struct SmallIp {
    maximize: bool,
    /// Per-variable inclusive upper bound (lower bound is 0).
    upper: Vec<u64>,
    /// Per-variable integer objective coefficient.
    obj: Vec<i64>,
    /// Rows: (coefficients, sense tag 0=Le 1=Ge 2=Eq, rhs).
    rows: Vec<(Vec<i64>, u8, i64)>,
}

fn small_ip_gen() -> impl Gen<Value = SmallIp> {
    (
        any_bool(),
        usize_range(1, 5),             // n vars
        vec_of(u64_range_gen(), 4, 5), // upper bounds
        vec_of(i64_coeff_gen(), 4, 5), // objective
        usize_range(0, 4),             // row count
        vec_of(
            (
                vec_of(i64_coeff_gen(), 4, 5),
                usize_range(0, 3),
                i64_rhs_gen(),
            ),
            4,
            5,
        ),
    )
        .map(|(maximize, n, upper, obj, n_rows, raw_rows)| SmallIp {
            maximize,
            upper: upper[..n].to_vec(),
            obj: obj[..n].to_vec(),
            rows: raw_rows[..n_rows]
                .iter()
                .map(|(c, s, r)| (c[..n].to_vec(), *s as u8, *r))
                .collect(),
        })
}

fn u64_coarse(lo: u64, hi: u64) -> impl Gen<Value = u64> {
    eagleeye_check::u64_range(lo, hi)
}

fn u64_range_gen() -> impl Gen<Value = u64> {
    u64_coarse(1, 4) // inclusive upper bound 1..=3
}

fn i64_coeff_gen() -> impl Gen<Value = i64> {
    u64_coarse(0, 7).map(|v| v as i64 - 3) // -3..=3
}

fn i64_rhs_gen() -> impl Gen<Value = i64> {
    u64_coarse(0, 19).map(|v| v as i64 - 6) // -6..=12
}

/// Exhaustively scans the integer lattice of a [`SmallIp`]; returns the
/// optimal objective, or `None` when no lattice point is feasible.
fn enumerate_optimum(ip: &SmallIp) -> Option<i64> {
    let n = ip.upper.len();
    let mut x = vec![0u64; n];
    let mut best: Option<i64> = None;
    loop {
        let feasible = ip.rows.iter().all(|(coeffs, sense, rhs)| {
            let lhs: i64 = coeffs.iter().zip(&x).map(|(&c, &xi)| c * xi as i64).sum();
            match sense {
                0 => lhs <= *rhs,
                1 => lhs >= *rhs,
                _ => lhs == *rhs,
            }
        });
        if feasible {
            let value: i64 = ip.obj.iter().zip(&x).map(|(&c, &xi)| c * xi as i64).sum();
            best = Some(match best {
                None => value,
                Some(b) if ip.maximize => b.max(value),
                Some(b) => b.min(value),
            });
        }
        // Odometer increment over the box [0, upper].
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            if x[i] < ip.upper[i] {
                x[i] += 1;
                break;
            }
            x[i] = 0;
            i += 1;
        }
    }
}

/// Checks `ip` against [`enumerate_optimum`], adding the solve's warm
/// starts to `warm_starts`.
fn check_milp_matches_enumeration(ip: &SmallIp, warm_starts: &Cell<usize>) -> PropResult {
    let mut m = if ip.maximize {
        Model::maximize()
    } else {
        Model::minimize()
    };
    let vars: Vec<_> = ip
        .upper
        .iter()
        .zip(&ip.obj)
        .map(|(&ub, &c)| m.add_integer_var(0.0, ub as f64, c as f64).unwrap())
        .collect();
    for (coeffs, sense, rhs) in &ip.rows {
        let sense = match sense {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        m.add_constraint(
            vars.iter().zip(coeffs).map(|(&v, &c)| (v, c as f64)),
            sense,
            *rhs as f64,
        )
        .unwrap();
    }
    let sol = m.solve(&SolveOptions::default()).unwrap();
    warm_starts.set(warm_starts.get() + sol.stats().warm_starts);
    match enumerate_optimum(ip) {
        None => {
            prop_assert_eq!(sol.status(), SolveStatus::Infeasible);
        }
        Some(best) => {
            prop_assert_eq!(sol.status(), SolveStatus::Optimal);
            prop_assert!(
                (sol.objective() - best as f64).abs() < 1e-6,
                "milp {} vs enumeration {}",
                sol.objective(),
                best
            );
            // The reported point must itself be integral and feasible.
            for (i, &v) in vars.iter().enumerate() {
                let x = sol.value(v);
                prop_assert!((x - x.round()).abs() < 1e-6, "var {i} fractional: {x}");
                prop_assert!(x >= -1e-6 && x <= ip.upper[i] as f64 + 1e-6);
            }
            for (coeffs, sense, rhs) in &ip.rows {
                let lhs: f64 = coeffs
                    .iter()
                    .zip(&vars)
                    .map(|(&c, &v)| c as f64 * sol.value(v))
                    .sum();
                let ok = match sense {
                    0 => lhs <= *rhs as f64 + 1e-6,
                    1 => lhs >= *rhs as f64 - 1e-6,
                    _ => (lhs - *rhs as f64).abs() < 1e-6,
                };
                prop_assert!(ok, "returned point violates a row: {lhs} vs {rhs}");
            }
        }
    }
    Ok(())
}

/// Differential oracle: branch-and-bound agrees with exhaustive
/// integer-lattice enumeration — on status (Optimal vs Infeasible) and
/// objective — for random small integer programs with mixed-sense
/// rows and both optimization directions.
#[test]
fn milp_matches_enumeration() {
    let warm_starts = Cell::new(0);
    check_cases(
        ORACLE_CASES,
        "milp_matches_enumeration",
        small_ip_gen(),
        |ip| check_milp_matches_enumeration(ip, &warm_starts),
    );
    assert!(
        warm_starts.get() > 0,
        "no case re-solved an inherited tableau"
    );
}

/// Anti-cycling regression for the warm-started simplex: duplicating
/// every row of a random integer program several times creates massed
/// ratio-test ties (many bases describe the same degenerate vertex) —
/// classic cycling bait. Duplicated rows don't change the feasible
/// region, so the enumeration verdict is unchanged; branch-and-bound
/// (whose non-root nodes all warm-start from their parent's basis)
/// must still terminate and agree with the oracle.
#[test]
fn degenerate_duplicated_rows_match_enumeration() {
    let warm_starts = Cell::new(0);
    check_cases(
        ORACLE_CASES,
        "degenerate_duplicated_rows_match_enumeration",
        (small_ip_gen(), usize_range(2, 5)),
        |(ip, copies)| {
            let mut degenerate = ip.clone();
            degenerate.rows = ip
                .rows
                .iter()
                .flat_map(|row| std::iter::repeat_n(row.clone(), *copies))
                .collect();
            check_milp_matches_enumeration(&degenerate, &warm_starts)
        },
    );
    assert!(
        warm_starts.get() > 0,
        "no case re-solved an inherited tableau"
    );
}

/// A random mixed program: 1–4 continuous variables in [0, 10] and one
/// integer variable in [0, 3] (last), with half-step coefficients on
/// mixed-sense rows, either direction. Rows sit at or around a
/// witness point, so some programs are infeasible and most are not.
#[derive(Debug, Clone)]
struct MixedLp {
    maximize: bool,
    /// Objective per variable.
    obj: Vec<f64>,
    /// Rows: (coefficients, sense tag 0=Le 1=Ge 2=Eq, rhs).
    rows: Vec<(Vec<f64>, u8, f64)>,
}

impl MixedLp {
    /// The program as a model; `fixed` pins the integer variable to a
    /// value and makes it continuous, which leaves a pure LP.
    fn model(&self, fixed: Option<f64>) -> Model {
        let mut m = if self.maximize {
            Model::maximize()
        } else {
            Model::minimize()
        };
        let (int_obj, cont_obj) = self.obj.split_last().expect("one integer variable");
        let mut vars: Vec<_> = cont_obj
            .iter()
            .map(|&c| m.add_continuous_var(0.0, 10.0, c).unwrap())
            .collect();
        vars.push(match fixed {
            Some(k) => m.add_continuous_var(k, k, *int_obj).unwrap(),
            None => m.add_integer_var(0.0, 3.0, *int_obj).unwrap(),
        });
        for (coeffs, sense, rhs) in &self.rows {
            let sense = match sense {
                0 => Sense::Le,
                1 => Sense::Ge,
                _ => Sense::Eq,
            };
            m.add_constraint(vars.iter().zip(coeffs).map(|(&v, &c)| (v, c)), sense, *rhs)
                .unwrap();
        }
        m
    }
}

fn half_steps(lo: f64, hi: f64) -> impl Gen<Value = f64> {
    f64_range(lo, hi).map(|x| (2.0 * x).round() / 2.0)
}

fn mixed_lp_gen() -> impl Gen<Value = MixedLp> {
    (
        any_bool(),
        usize_range(1, 5),
        vec_of(half_steps(-4.0, 4.0), 5, 6),
        usize_range(1, 5),
        vec_of(
            (
                vec_of(half_steps(-3.0, 3.0), 5, 6),
                usize_range(0, 3),
                f64_range(-1.0, 4.0),
            ),
            4,
            5,
        ),
        vec_of(f64_range(0.0, 10.0), 4, 5),
        eagleeye_check::u64_range(0, 4),
    )
        .map(|(maximize, n, obj, n_rows, raw_rows, witness, k)| {
            // The first `n` entries serve the continuous variables and
            // the last one the integer variable.
            let pick = |v: &[f64]| v[..n].iter().chain(&v[4..]).copied().collect::<Vec<_>>();
            let mut point = witness[..n].to_vec();
            point.push(k as f64);
            MixedLp {
                maximize,
                obj: pick(&obj),
                rows: raw_rows[..n_rows]
                    .iter()
                    .map(|(c, sense, offset)| {
                        let coeffs = pick(c);
                        let at: f64 = coeffs.iter().zip(&point).map(|(a, x)| a * x).sum();
                        let rhs = match sense {
                            0 => at + offset,
                            1 => at - offset,
                            _ => at,
                        };
                        (coeffs, *sense as u8, rhs)
                    })
                    .collect(),
            }
        })
}

/// Branch-and-bound re-solves every child from its parent's final
/// tableau; the answer must equal the best cold solve of the program
/// with the integer variable fixed at each of its values — status, and
/// objective to within 1e-9 (relative beyond 1).
#[test]
fn inherited_tableau_branching_matches_cold_fixed_solves() {
    let warm_starts = Cell::new(0);
    check_cases(
        ORACLE_CASES,
        "inherited_tableau_branching_matches_cold_fixed_solves",
        mixed_lp_gen(),
        |lp| {
            let sol = lp.model(None).solve(&SolveOptions::default()).unwrap();
            warm_starts.set(warm_starts.get() + sol.stats().warm_starts);
            let mut best: Option<f64> = None;
            for k in 0..=3 {
                let fixed = lp
                    .model(Some(k as f64))
                    .solve(&SolveOptions::default())
                    .unwrap();
                prop_assert_eq!(fixed.stats().warm_starts, 0);
                if fixed.status() == SolveStatus::Optimal {
                    let o = fixed.objective();
                    best = Some(match best {
                        Some(b) if lp.maximize => b.max(o),
                        Some(b) => b.min(o),
                        None => o,
                    });
                }
            }
            match best {
                None => prop_assert_eq!(sol.status(), SolveStatus::Infeasible),
                Some(best) => {
                    prop_assert_eq!(sol.status(), SolveStatus::Optimal);
                    prop_assert!(
                        (sol.objective() - best).abs() <= 1e-9 * best.abs().max(1.0),
                        "branch-and-bound {} vs cold fixed solves {}",
                        sol.objective(),
                        best
                    );
                }
            }
            Ok(())
        },
    );
    assert!(
        warm_starts.get() > 0,
        "no case re-solved an inherited tableau"
    );
}
