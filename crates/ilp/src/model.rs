use crate::branch::SolveStats;
use crate::simplex::{LpSolution, Tableau};
use crate::IlpError;
use std::fmt;

/// Handle to a variable in a [`Model`].
///
/// `VarId`s are only meaningful for the model that created them; using one
/// with another model yields [`IlpError::UnknownVariable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Zero-based index of the variable within its model; also the index
    /// of its value in [`Solution::values`].
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Whether a variable is continuous or must take integer values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds (branch-and-bound enforces this).
    Integer,
}

/// Relational sense of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `expr ≤ rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Ge,
}

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveDirection {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VarDef {
    pub lower: f64,
    pub upper: f64,
    pub kind: VarKind,
    pub obj: f64,
    /// Where this variable's term went in `Model::terms` when it was
    /// last added to a row, so a duplicate in the row being built is
    /// merged there without scanning the row.
    term_at: usize,
}

/// A constraint row; its terms are `Model::terms[start..end]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowDef {
    start: usize,
    end: usize,
    sense: Sense,
    rhs: f64,
}

/// Builder and solver entry point for LP / MILP models.
///
/// A `Model` owns a set of variables (continuous or integer, with finite
/// lower bounds), a set of linear constraints, and a linear objective.
/// Objective coefficients are supplied at variable-creation time.
///
/// # Example
///
/// ```
/// use eagleeye_ilp::{Model, Sense, SolveOptions};
///
/// // Minimal set cover: two sets {a,b} and {b,c}, one set {c} — cover
/// // {a,b,c} with as few sets as possible.
/// let mut m = Model::minimize();
/// let s0 = m.add_binary_var(1.0);
/// let s1 = m.add_binary_var(1.0);
/// let s2 = m.add_binary_var(1.0);
/// m.add_constraint([(s0, 1.0)], Sense::Ge, 1.0)?;             // a
/// m.add_constraint([(s0, 1.0), (s1, 1.0)], Sense::Ge, 1.0)?;  // b
/// m.add_constraint([(s1, 1.0), (s2, 1.0)], Sense::Ge, 1.0)?;  // c
/// let sol = m.solve(&SolveOptions::default())?;
/// assert!((sol.objective() - 2.0).abs() < 1e-6);
/// # Ok::<(), eagleeye_ilp::IlpError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    pub(crate) direction: Option<ObjectiveDirection>,
    pub(crate) vars: Vec<VarDef>,
    rows: Vec<RowDef>,
    /// Every row's `(variable, coefficient)` terms, row after row.
    terms: Vec<(usize, f64)>,
}

impl Model {
    /// Creates an empty model with no objective direction set
    /// (defaults to minimization at solve time).
    pub fn new() -> Self {
        Model::default()
    }

    /// Creates an empty minimization model.
    pub fn minimize() -> Self {
        Model {
            direction: Some(ObjectiveDirection::Minimize),
            ..Model::default()
        }
    }

    /// Creates an empty maximization model.
    pub fn maximize() -> Self {
        Model {
            direction: Some(ObjectiveDirection::Maximize),
            ..Model::default()
        }
    }

    /// The optimization direction (defaults to minimize).
    pub fn direction(&self) -> ObjectiveDirection {
        self.direction.unwrap_or(ObjectiveDirection::Minimize)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Reserves room for at least `vars` more variables and `rows` more
    /// constraints with `terms` more terms in total, so a model whose
    /// size is known up front is built without reallocating.
    pub fn reserve(&mut self, vars: usize, rows: usize, terms: usize) {
        self.vars.reserve(vars);
        self.rows.reserve(rows);
        self.terms.reserve(terms);
    }

    /// Adds a variable with explicit kind, bounds, and objective
    /// coefficient; see [`Model::add_continuous_var`] for its errors.
    fn add_var(
        &mut self,
        kind: VarKind,
        lower: f64,
        upper: f64,
        obj: f64,
    ) -> Result<VarId, IlpError> {
        if !lower.is_finite() {
            return Err(IlpError::UnboundedBelow);
        }
        if upper.is_nan() || !obj.is_finite() {
            return Err(IlpError::NonFiniteValue {
                context: "variable definition",
            });
        }
        if lower > upper {
            return Err(IlpError::EmptyDomain { lower, upper });
        }
        self.vars.push(VarDef {
            lower,
            upper,
            kind,
            obj,
            term_at: usize::MAX,
        });
        Ok(VarId(self.vars.len() - 1))
    }

    /// Adds a binary (0/1 integer) variable with the given objective
    /// coefficient. Infallible: the domain is always valid.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not finite.
    #[expect(
        clippy::expect_used,
        reason = "the 0..1 domain is constant-valid; non-finite obj is this method's documented panic contract"
    )]
    pub fn add_binary_var(&mut self, obj: f64) -> VarId {
        self.add_var(VarKind::Integer, 0.0, 1.0, obj)
            .expect("binary variable domain is always valid")
    }

    /// Adds a continuous variable.
    ///
    /// # Errors
    ///
    /// * [`IlpError::UnboundedBelow`] if `lower` is not finite — this
    ///   solver requires finite lower bounds (shift or split free
    ///   variables in the formulation).
    /// * [`IlpError::EmptyDomain`] if `lower > upper`.
    /// * [`IlpError::NonFiniteValue`] if `obj` is not finite or `upper`
    ///   is NaN.
    pub fn add_continuous_var(
        &mut self,
        lower: f64,
        upper: f64,
        obj: f64,
    ) -> Result<VarId, IlpError> {
        self.add_var(VarKind::Continuous, lower, upper, obj)
    }

    /// Adds an integer variable.
    ///
    /// # Errors
    ///
    /// Same as [`Model::add_continuous_var`].
    pub fn add_integer_var(&mut self, lower: f64, upper: f64, obj: f64) -> Result<VarId, IlpError> {
        self.add_var(VarKind::Integer, lower, upper, obj)
    }

    /// Adds the linear constraint `Σ coef·var  sense  rhs`.
    ///
    /// Duplicate variables in `terms` are merged by summing coefficients.
    ///
    /// # Errors
    ///
    /// * [`IlpError::UnknownVariable`] for a `VarId` not from this model.
    /// * [`IlpError::NonFiniteValue`] for NaN/infinite coefficients or rhs.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) -> Result<(), IlpError> {
        if !rhs.is_finite() {
            return Err(IlpError::NonFiniteValue {
                context: "constraint right-hand side",
            });
        }
        let start = self.terms.len();
        for (v, c) in terms {
            let invalid = if v.0 >= self.vars.len() {
                Some(IlpError::UnknownVariable {
                    index: v.0,
                    var_count: self.vars.len(),
                })
            } else if !c.is_finite() {
                Some(IlpError::NonFiniteValue {
                    context: "constraint coefficient",
                })
            } else {
                None
            };
            if let Some(e) = invalid {
                self.terms.truncate(start);
                return Err(e);
            }
            // A position at or past `start` lies in this row, and a row
            // holds each variable once, so a match there is this row's
            // term even when the mark outlived a rejected row.
            let at = self.vars[v.0].term_at;
            match self.terms.get_mut(at) {
                Some((j, acc)) if at >= start && *j == v.0 => *acc += c,
                _ => {
                    self.vars[v.0].term_at = self.terms.len();
                    self.terms.push((v.0, c));
                }
            }
        }
        self.rows.push(RowDef {
            start,
            end: self.terms.len(),
            sense,
            rhs,
        });
        Ok(())
    }

    /// Every row as its terms, sense and right-hand side, in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (&[(usize, f64)], Sense, f64)> + '_ {
        self.rows
            .iter()
            .map(|r| (&self.terms[r.start..r.end], r.sense, r.rhs))
    }

    /// The internal objective is always "minimize `sign` · objective".
    pub(crate) fn sign(&self) -> f64 {
        match self.direction() {
            ObjectiveDirection::Minimize => 1.0,
            ObjectiveDirection::Maximize => -1.0,
        }
    }

    /// Variable `j`'s bounds at a search node: its own, tightened by
    /// each of the node's `(j, lower, upper)` overrides in order.
    fn bounds(&self, j: usize, overrides: &[(usize, f64, f64)]) -> (f64, f64) {
        let (mut lo, mut hi) = (self.vars[j].lower, self.vars[j].upper);
        for &(k, l, h) in overrides {
            if k == j {
                lo = lo.max(l);
                hi = hi.min(h);
            }
        }
        (lo, hi)
    }

    /// Solves the LP relaxation of the search node with these bound
    /// overrides (used by branch-and-bound). A node with an `inherited`
    /// tableau — its parent's final one — differs from the parent only
    /// in its last override: that one column moves to its new bounds
    /// and the tableau is re-solved, falling back to a cold solve when
    /// the re-solve is rejected. Returns `None` if infeasible; otherwise
    /// the solution's objective is the internal (minimize sign) one and
    /// its values are in model space.
    pub(crate) fn solve_relaxation(
        &self,
        bound_overrides: &[(usize, f64, f64)],
        deadline: Option<std::time::Instant>,
        inherited: Option<Tableau>,
    ) -> Result<Option<LpSolution>, IlpError> {
        let warm = match inherited.filter(|t| t.n_struct() == self.vars.len()) {
            Some(mut tableau) => {
                if let Some(&(j, _, _)) = bound_overrides.last() {
                    let (lo, hi) = self.bounds(j, bound_overrides);
                    if lo > hi + 1e-12 {
                        return Ok(None);
                    }
                    tableau.rebound(j, lo, shifted_upper(lo, hi));
                }
                tableau.resolve().transpose()?
            }
            None => None,
        };
        let solution = match warm {
            Some(solution) => solution,
            None => {
                if (0..self.vars.len()).any(|j| {
                    let (lo, hi) = self.bounds(j, bound_overrides);
                    lo > hi + 1e-12
                }) {
                    return Ok(None);
                }
                let cold = Tableau::new(self, |j| self.bounds(j, bound_overrides))?;
                match cold.solve(deadline)? {
                    Some(solution) => solution,
                    None => return Ok(None),
                }
            }
        };
        // Undo the shift x = x' + lower of the objective; the values
        // are already in model space.
        let mut obj_const = 0.0;
        for (v, lo) in self.vars.iter().zip(solution.tableau.lower()) {
            obj_const += v.obj * lo;
        }
        Ok(Some(LpSolution {
            objective: solution.objective + self.sign() * obj_const,
            ..solution
        }))
    }
}

/// A column's upper bound once its lower bound is shifted to zero.
pub(crate) fn shifted_upper(lo: f64, hi: f64) -> f64 {
    let u = hi - lo;
    if u.is_finite() {
        u.max(0.0)
    } else {
        f64::INFINITY
    }
}

/// Final status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The returned solution is proven optimal.
    Optimal,
    /// A feasible solution was found but a time/node limit stopped the
    /// proof of optimality.
    Feasible,
    /// No feasible solution exists.
    Infeasible,
    /// A limit was reached before any feasible solution was found;
    /// feasibility is unknown.
    Unknown,
}

/// Result of [`Model::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    pub(crate) status: SolveStatus,
    pub(crate) objective: f64,
    pub(crate) values: Vec<f64>,
    pub(crate) stats: SolveStats,
}

impl Solution {
    /// Solve status. Only [`SolveStatus::Optimal`] and
    /// [`SolveStatus::Feasible`] carry meaningful values.
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// Objective value in the model's own direction.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// All variable values, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Search statistics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// True when the status indicates a usable solution.
    pub fn is_usable(&self) -> bool {
        matches!(self.status, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveOptions;
    use eagleeye_check::{check_cases, prop_assert, prop_assert_eq, u64_range, PropResult};
    use std::cell::Cell;

    #[test]
    fn var_handles_index_sequentially() {
        let mut m = Model::minimize();
        let a = m.add_binary_var(1.0);
        let b = m.add_binary_var(1.0);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(m.num_vars(), 2);
    }

    #[test]
    fn rejects_foreign_var_in_constraint() {
        let mut other = Model::minimize();
        let foreign = other.add_binary_var(1.0);
        let _ = other.add_binary_var(1.0);
        let mut m = Model::minimize();
        // `foreign` has index 0 which exists here too — build a genuinely
        // out-of-range id instead.
        let bad = VarId(10);
        assert!(m.add_constraint([(bad, 1.0)], Sense::Le, 1.0).is_err());
        let _ = foreign;
    }

    #[test]
    fn rejects_invalid_variable_definitions() {
        let mut m = Model::minimize();
        assert_eq!(
            m.add_var(VarKind::Continuous, f64::NEG_INFINITY, 1.0, 0.0),
            Err(IlpError::UnboundedBelow)
        );
        assert!(matches!(
            m.add_var(VarKind::Continuous, 2.0, 1.0, 0.0),
            Err(IlpError::EmptyDomain { .. })
        ));
        assert!(m.add_var(VarKind::Continuous, 0.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m = Model::maximize();
        let x = m.add_continuous_var(0.0, 10.0, 1.0).unwrap();
        // x + x <= 4  =>  x <= 2.
        m.add_constraint([(x, 1.0), (x, 1.0)], Sense::Le, 4.0)
            .unwrap();
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_merge_matches_the_row_scan() {
        // Coefficients whose sums depend on their order, and rows
        // rejected part-way (their marks outlive them), against the
        // scan of the row built so far that the marks replaced.
        const COEFS: [f64; 5] = [0.1, 0.2, 1e16, -1e16, 3.0];
        check_cases(
            256,
            "duplicate_merge_matches_the_row_scan",
            u64_range(0, u64::MAX),
            |&seed| {
                let mut rng = eagleeye_rng::SplitMix64::new(seed);
                let n_vars = rng.range_usize(1, 6);
                let mut m = Model::minimize();
                let vars: Vec<VarId> = (0..n_vars).map(|_| m.add_binary_var(1.0)).collect();
                let mut want: Vec<Vec<(usize, f64)>> = Vec::new();
                let row_terms = |rng: &mut eagleeye_rng::SplitMix64| -> Vec<(VarId, f64)> {
                    (0..rng.range_usize(0, 16))
                        .map(|_| {
                            let v = vars[rng.range_usize(0, n_vars)];
                            (v, COEFS[rng.range_usize(0, COEFS.len())])
                        })
                        .collect()
                };
                for _ in 0..8 {
                    if rng.chance(0.3) {
                        let mut bad = row_terms(&mut rng);
                        bad.push((VarId(n_vars), 1.0));
                        prop_assert!(m.add_constraint(bad, Sense::Le, 1.0).is_err());
                    }
                    let terms = row_terms(&mut rng);
                    let mut row: Vec<(usize, f64)> = Vec::new();
                    for &(v, c) in &terms {
                        match row.iter_mut().find(|(j, _)| *j == v.0) {
                            Some((_, acc)) => *acc += c,
                            None => row.push((v.0, c)),
                        }
                    }
                    want.push(row);
                    m.add_constraint(terms, Sense::Le, 1.0).unwrap();
                }
                let bits = |row: &[(usize, f64)]| -> Vec<(usize, u64)> {
                    row.iter().map(|&(j, c)| (j, c.to_bits())).collect()
                };
                let got: Vec<_> = m.rows().map(|(terms, _, _)| bits(terms)).collect();
                let want: Vec<_> = want.iter().map(|row| bits(row)).collect();
                prop_assert_eq!(got, want);
                Ok(())
            },
        );
    }

    #[test]
    fn pure_lp_solves_without_branching() {
        let mut m = Model::maximize();
        let x = m.add_continuous_var(0.0, f64::INFINITY, 3.0).unwrap();
        let y = m.add_continuous_var(0.0, f64::INFINITY, 5.0).unwrap();
        m.add_constraint([(x, 1.0)], Sense::Le, 4.0).unwrap();
        m.add_constraint([(y, 2.0)], Sense::Le, 12.0).unwrap();
        m.add_constraint([(x, 3.0), (y, 2.0)], Sense::Le, 18.0)
            .unwrap();
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert!((sol.objective() - 36.0).abs() < 1e-6);
        assert_eq!(sol.stats().nodes_explored, 1);
    }

    #[test]
    fn lower_bound_shift_round_trips() {
        // min x with x in [3, 10] => 3.
        let mut m = Model::minimize();
        let x = m.add_continuous_var(3.0, 10.0, 1.0).unwrap();
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-9);
        assert!((sol.objective() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn negative_lower_bounds_work() {
        // max x + y, x in [-5, 5], y in [-5, 5], x + y <= 3.
        let mut m = Model::maximize();
        let x = m.add_continuous_var(-5.0, 5.0, 1.0).unwrap();
        let y = m.add_continuous_var(-5.0, 5.0, 1.0).unwrap();
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 3.0)
            .unwrap();
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_reports_status_not_error() {
        let mut m = Model::minimize();
        let x = m.add_binary_var(1.0);
        m.add_constraint([(x, 1.0)], Sense::Ge, 2.0).unwrap();
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.status(), SolveStatus::Infeasible);
        assert!(!sol.is_usable());
    }

    #[test]
    fn unbounded_is_an_error() {
        let mut m = Model::maximize();
        let _x = m.add_continuous_var(0.0, f64::INFINITY, 1.0).unwrap();
        assert_eq!(m.solve(&SolveOptions::default()), Err(IlpError::Unbounded));
    }

    /// Edge-case models solved end to end through [`Model::solve`]:
    /// each builds a model and names the verdict (status, objective and
    /// values, or error) it must produce.
    #[test]
    fn edge_models_solve_to_their_known_verdicts() {
        type Expected = Result<(SolveStatus, f64, Vec<f64>), IlpError>;
        let infeasible = || Ok((SolveStatus::Infeasible, f64::NAN, Vec::new()));
        let cases: Vec<(&str, Model, Expected)> = vec![
            (
                "empty model",
                Model::minimize(),
                Ok((SolveStatus::Optimal, 0.0, vec![])),
            ),
            (
                "all variables fixed, one integer fixed at 3",
                {
                    let mut m = Model::minimize();
                    let a = m.add_continuous_var(1.5, 1.5, 2.0).unwrap();
                    let b = m.add_integer_var(3.0, 3.0, -1.0).unwrap();
                    m.add_constraint([(a, 1.0), (b, 1.0)], Sense::Le, 5.0)
                        .unwrap();
                    m
                },
                Ok((SolveStatus::Optimal, 2.0 * 1.5 - 3.0, vec![1.5, 3.0])),
            ),
            (
                "integer domain (0.2, 0.8) holds no integer",
                {
                    let mut m = Model::minimize();
                    m.add_integer_var(0.2, 0.8, 1.0).unwrap();
                    m
                },
                infeasible(),
            ),
            (
                "conflicting singleton rows",
                {
                    let mut m = Model::minimize();
                    let y = m.add_continuous_var(0.0, 10.0, 1.0).unwrap();
                    m.add_constraint([(y, 1.0)], Sense::Ge, 3.0).unwrap();
                    m.add_constraint([(y, 1.0)], Sense::Le, 1.0).unwrap();
                    m
                },
                infeasible(),
            ),
            (
                "unbounded ray",
                {
                    let mut m = Model::maximize();
                    let x = m.add_continuous_var(0.0, f64::INFINITY, 1.0).unwrap();
                    let y = m.add_binary_var(1.0);
                    m.add_constraint([(x, 1.0), (y, -1.0)], Sense::Ge, 0.0)
                        .unwrap();
                    m
                },
                Err(IlpError::Unbounded),
            ),
        ];
        for (name, model, expected) in cases {
            let got = model.solve(&SolveOptions::default());
            match (got, expected) {
                (Ok(sol), Ok((status, objective, values))) => {
                    assert_eq!(sol.status(), status, "{name}");
                    if status == SolveStatus::Infeasible {
                        assert!(sol.objective().is_nan(), "{name}");
                        assert!(!sol.is_usable(), "{name}");
                    } else {
                        assert!((sol.objective() - objective).abs() < 1e-12, "{name}");
                        assert_eq!(sol.values(), values.as_slice(), "{name}");
                    }
                }
                (got, expected) => {
                    assert_eq!(got.map(|s| s.status()), expected.map(|e| e.0), "{name}")
                }
            }
        }
    }

    /// The per-node rebuild that children applying only their own bound
    /// change replaced, kept as its oracle: every column's bounds are
    /// recomputed from the whole override list, every column of the
    /// inherited tableau is moved to them, and the objective constant
    /// is summed from those bounds.
    fn relax_rebuild(
        model: &Model,
        overrides: &[(usize, f64, f64)],
        inherited: Option<Tableau>,
    ) -> Result<Option<LpSolution>, IlpError> {
        let n = model.vars.len();
        let mut lower: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
        let mut upper: Vec<f64> = model.vars.iter().map(|v| v.upper).collect();
        for &(j, lo, hi) in overrides {
            lower[j] = lower[j].max(lo);
            upper[j] = upper[j].min(hi);
        }
        if (0..n).any(|j| lower[j] > upper[j] + 1e-12) {
            return Ok(None);
        }
        let warm = match inherited.filter(|t| t.n_struct() == n) {
            Some(mut t) => {
                for j in 0..n {
                    t.rebound(j, lower[j], shifted_upper(lower[j], upper[j]));
                }
                t.resolve().transpose()?
            }
            None => None,
        };
        let s = match warm {
            Some(s) => s,
            None => match Tableau::new(model, |j| (lower[j], upper[j]))?.solve(None)? {
                Some(s) => s,
                None => return Ok(None),
            },
        };
        let mut obj_const = 0.0;
        for (j, v) in model.vars.iter().enumerate() {
            obj_const += v.obj * lower[j];
        }
        Ok(Some(LpSolution {
            objective: s.objective + model.sign() * obj_const,
            ..s
        }))
    }

    /// A seeded MILP: 3–6 variables, general integers over fractional
    /// or integral ranges (some negative) beside binaries and a
    /// continuous one, under 2–4 mixed rows feasible at a witness.
    fn seeded_milp(seed: u64) -> Model {
        let mut state = seed;
        let mut unit = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = state;
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut m = if unit() < 0.5 {
            Model::minimize()
        } else {
            Model::maximize()
        };
        let n = 3 + (unit() * 4.0) as usize;
        let mut witness = Vec::new();
        for k in 0..n {
            let obj = (12.0 * unit() - 6.0).round();
            let (lo, hi, kind) = match (k + (unit() * 3.0) as usize) % 4 {
                0 => (0.0, 1.0, VarKind::Integer),
                1 => {
                    let lo = [-3.0, 0.0, 0.5][(unit() * 3.0) as usize];
                    (
                        lo,
                        lo + 3.0 + (unit() * 6.0).round() + 0.5 * (unit() * 2.0).floor(),
                        VarKind::Integer,
                    )
                }
                2 => (0.0, 2.0 + (unit() * 8.0).round(), VarKind::Integer),
                _ => (0.0, 4.0 * unit() + 1.0, VarKind::Continuous),
            };
            m.add_var(kind, lo, hi, obj).unwrap();
            witness.push(lo + (hi - lo) * unit());
        }
        for _ in 0..2 + (unit() * 3.0) as usize {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for j in 0..n {
                if unit() < 0.8 {
                    let c = (8.0 * unit() - 3.0).round() + 0.5 * (unit() * 2.0).floor();
                    terms.push((VarId(j), c));
                }
            }
            let at: f64 = terms.iter().map(|&(v, c)| c * witness[v.0]).sum();
            let (sense, rhs) = match (unit() * 3.0) as usize {
                0 => (Sense::Le, at + 2.0 * unit()),
                1 => (Sense::Ge, at - 2.0 * unit()),
                _ => (Sense::Le, at),
            };
            m.add_constraint(terms, sense, rhs).unwrap();
        }
        m
    }

    /// What the differential saw, summed over cases.
    #[derive(Debug, Default, Clone, Copy)]
    struct Seen {
        children: usize,
        warm: usize,
        rejected: usize,
        emptied: usize,
        branched_twice: usize,
    }

    /// Explores `model`'s search tree as branch-and-bound does (most
    /// fractional variable, the nearer side first, children inheriting
    /// their parent's final tableau) and, at every child, solves its
    /// relaxation both from its one bound change and by the full
    /// rebuild from the same inherited tableau. Each child is also
    /// offered a bound that empties its variable's domain.
    fn one_bound_children_agree(model: &Model, seen: &Cell<Seen>) -> PropResult {
        let bits = |s: &LpSolution| {
            let values: Vec<u64> = s.values().iter().map(|v| v.to_bits()).collect();
            (
                s.objective.to_bits(),
                values,
                s.iterations,
                s.pivots,
                s.warmed,
            )
        };
        let Some(root) = model.solve_relaxation(&[], None, None).unwrap() else {
            return Ok(());
        };
        let mut stack = vec![(Vec::new(), root)];
        let mut nodes = 0;
        while let Some((overrides, parent)) = stack.pop() {
            nodes += 1;
            if nodes > 200 {
                break;
            }
            let values = parent.values();
            let Some(j) = (0..model.vars.len()).find(|&j| {
                let v = values[j];
                model.vars[j].kind == VarKind::Integer && (v - v.round()).abs() > 1e-6
            }) else {
                continue;
            };
            let v = values[j];
            let var = &model.vars[j];
            let emptying = (j, var.upper + 1.0, var.upper);
            for bound in [
                (j, var.lower, v.floor()),
                (j, v.ceil(), var.upper),
                emptying,
            ] {
                let mut child = overrides.clone();
                child.push(bound);
                let inherited = parent.tableau.clone();
                let got = model.solve_relaxation(&child, None, Some(inherited.clone()));
                let want = relax_rebuild(model, &child, Some(inherited));
                let mut count = seen.get();
                count.children += 1;
                match (got, want) {
                    (Ok(Some(got)), Ok(Some(want))) => {
                        prop_assert_eq!(bits(&got), bits(&want));
                        prop_assert!(got.tableau == want.tableau);
                        count.warm += usize::from(got.warmed);
                        count.rejected += usize::from(!got.warmed);
                        if child.iter().filter(|o| o.0 == j).count() > 1 {
                            count.branched_twice += 1;
                        }
                        if bound != emptying {
                            stack.push((child, got));
                        }
                    }
                    (got, want) => {
                        prop_assert_eq!(
                            got.map(|s| s.map(|s| bits(&s))),
                            want.map(|s| s.map(|s| bits(&s)))
                        );
                        count.emptied += usize::from(bound == emptying);
                    }
                }
                seen.set(count);
            }
        }
        Ok(())
    }

    /// A child re-solved from its one bound change equals the full
    /// rebuild bit for bit: objective, values, iterations, pivots, the
    /// warm or cold verdict, and the final tableau.
    #[test]
    fn one_bound_children_match_full_rebuild() {
        let seen = Cell::new(Seen::default());
        check_cases(
            160,
            "ilp_one_bound_children_match_full_rebuild",
            u64_range(0, u64::MAX),
            |&seed| one_bound_children_agree(&seeded_milp(seed), &seen),
        );
        let seen = seen.get();
        assert!(
            seen.warm > 100 && seen.emptied > 50 && seen.branched_twice > 10,
            "{seen:?}"
        );
    }
}
