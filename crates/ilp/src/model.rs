use crate::branch::{self, SolveOptions, SolveStats};
use crate::simplex::{self, LpSolution, RowRef, RowSense, Tableau};
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
pub enum VarKind {
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
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowDef {
    pub terms: Vec<(usize, f64)>,
    pub sense: Sense,
    pub rhs: f64,
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
    pub(crate) rows: Vec<RowDef>,
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

    /// Adds a variable with explicit kind, bounds, and objective
    /// coefficient.
    ///
    /// # Errors
    ///
    /// * [`IlpError::UnboundedBelow`] if `lower` is not finite — this
    ///   solver requires finite lower bounds (shift or split free
    ///   variables in the formulation).
    /// * [`IlpError::EmptyDomain`] if `lower > upper`.
    /// * [`IlpError::NonFiniteValue`] if `obj` is not finite or `upper`
    ///   is NaN.
    pub fn add_var(
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
        });
        Ok(VarId(self.vars.len() - 1))
    }

    /// Adds a binary (0/1 integer) variable with the given objective
    /// coefficient. Infallible: the domain is always valid.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not finite.
    pub fn add_binary_var(&mut self, obj: f64) -> VarId {
        self.add_var(VarKind::Integer, 0.0, 1.0, obj)
            // eagleeye-lint: allow(no-unwrap): the 0..1 domain is constant-valid; non-finite obj is this method's documented panic contract
            .expect("binary variable domain is always valid")
    }

    /// Adds a continuous variable.
    ///
    /// # Errors
    ///
    /// Same as [`Model::add_var`].
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
    /// Same as [`Model::add_var`].
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
        let terms = terms.into_iter();
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(terms.size_hint().0);
        for (v, c) in terms {
            if v.0 >= self.vars.len() {
                return Err(IlpError::UnknownVariable {
                    index: v.0,
                    var_count: self.vars.len(),
                });
            }
            if !c.is_finite() {
                return Err(IlpError::NonFiniteValue {
                    context: "constraint coefficient",
                });
            }
            match merged.iter_mut().find(|(j, _)| *j == v.0) {
                Some((_, acc)) => *acc += c,
                None => merged.push((v.0, c)),
            }
        }
        self.rows.push(RowDef {
            terms: merged,
            sense,
            rhs,
        });
        Ok(())
    }

    /// Solves the model to integer optimality (continuous models solve in
    /// a single LP call).
    ///
    /// # Errors
    ///
    /// * [`IlpError::Unbounded`] when the relaxation is unbounded.
    /// * [`IlpError::IterationLimit`] on numerical failure inside simplex.
    ///
    /// Infeasibility and resource limits are **not** errors; they are
    /// reported through [`Solution::status`].
    pub fn solve(&self, options: &SolveOptions) -> Result<Solution, IlpError> {
        self.solve_resumable(options, None)
            .map(|(solution, _)| solution)
    }

    /// [`Model::solve`] with checkpoint/resume support: pass the
    /// [`Frontier`](crate::Frontier) of an interrupted solve to
    /// continue it, and receive `Some(frontier)` back whenever a node
    /// or time limit stopped the search with open nodes remaining.
    ///
    /// The frontier must come from a solve of the **same model**;
    /// resuming is then exact — the search explores the same nodes in
    /// the same order as an uninterrupted solve, so the final solution
    /// and deterministic stats are identical.
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`].
    pub fn solve_resumable(
        &self,
        options: &SolveOptions,
        resume: Option<crate::Frontier>,
    ) -> Result<(Solution, Option<crate::Frontier>), IlpError> {
        branch::solve_milp_resumable(self, options, resume)
    }

    /// Solves the LP relaxation with per-variable bound overrides
    /// (used by branch-and-bound), re-solving from the parent's final
    /// tableau when one is inherited and falling back to a cold solve
    /// when that re-solve is rejected. Returns `None` if infeasible;
    /// otherwise the solution's objective is the internal (minimize
    /// sign) one and its values are in model space.
    pub(crate) fn solve_relaxation(
        &self,
        bound_overrides: &[(usize, f64, f64)],
        deadline: Option<std::time::Instant>,
        inherited: Option<Tableau>,
    ) -> Result<Option<LpSolution>, IlpError> {
        // Effective bounds.
        let mut lower: Vec<f64> = self.vars.iter().map(|v| v.lower).collect();
        let mut upper: Vec<f64> = self.vars.iter().map(|v| v.upper).collect();
        for &(j, lo, hi) in bound_overrides {
            lower[j] = lower[j].max(lo);
            upper[j] = upper[j].min(hi);
        }
        for j in 0..lower.len() {
            if lower[j] > upper[j] + 1e-12 {
                return Ok(None);
            }
        }

        // Shift x = x' + lower so every variable has lb 0; constants move
        // to the right-hand side.
        let sign = match self.direction() {
            ObjectiveDirection::Minimize => 1.0,
            ObjectiveDirection::Maximize => -1.0,
        };
        let mut obj_const = 0.0;
        let cost: Vec<f64> = self
            .vars
            .iter()
            .enumerate()
            .map(|(j, v)| {
                obj_const += v.obj * lower[j];
                sign * v.obj
            })
            .collect();
        let shifted_upper: Vec<f64> = (0..self.vars.len())
            .map(|j| {
                let u = upper[j] - lower[j];
                if u.is_finite() {
                    u.max(0.0)
                } else {
                    f64::INFINITY
                }
            })
            .collect();

        let result = match inherited.and_then(|t| t.resolve(&lower, &shifted_upper)) {
            Some(result) => Some(result?),
            None => {
                // Rows borrow the model's terms; only the shifted rhs is new.
                let rows: Vec<RowRef<'_>> = self
                    .rows
                    .iter()
                    .map(|r| {
                        let shift: f64 = r.terms.iter().map(|&(j, c)| c * lower[j]).sum();
                        let sense = match r.sense {
                            Sense::Le => RowSense::Le,
                            Sense::Eq => RowSense::Eq,
                            Sense::Ge => RowSense::Ge,
                        };
                        (r.terms.as_slice(), sense, r.rhs - shift)
                    })
                    .collect();
                simplex::solve_rows(&cost, &lower, &shifted_upper, &rows, deadline)?
            }
        };
        Ok(result.map(|s| LpSolution {
            values: s.values.iter().zip(&lower).map(|(x, lo)| x + lo).collect(),
            // Internal objective is always "minimize sign * obj".
            objective: s.objective + sign * obj_const,
            ..s
        }))
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
}
