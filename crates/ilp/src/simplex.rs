//! A dense, bounded-variable, two-phase primal simplex solver.
//!
//! This is the LP engine underneath [`crate::Model`]. It solves problems
//! in the computational standard form
//!
//! ```text
//! minimize    cᵀx
//! subject to  aᵢᵀx {≤,=,≥} bᵢ      for every row i
//!             0 ≤ xⱼ ≤ uⱼ          (uⱼ may be +∞)
//! ```
//!
//! Upper bounds are handled *implicitly* (nonbasic variables may sit at
//! either bound, and the ratio test allows bound flips), so binary
//! variables do not inflate the row count. Phase 1 minimizes the sum of
//! artificial variables; phase 2 optimizes the true objective with
//! artificials pinned at zero. Degeneracy is handled by switching from
//! Dantzig pricing to Bland's rule after a stretch of non-improving
//! iterations, which guarantees termination.
//!
//! [`crate::Model`] is the only entry point: it shifts a node's bounds
//! into this form and either calls [`solve_rows`] (a cold solve) or
//! hands the node's inherited final [`Tableau`] to [`Tableau::resolve`].

use crate::IlpError;
use eagleeye_harden::{ByteReader, ByteWriter, CodecError};
use std::time::Instant;

/// Relational sense of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSense {
    /// `aᵀx ≤ b`
    Le,
    /// `aᵀx = b`
    Eq,
    /// `aᵀx ≥ b`
    Ge,
}

/// An optimal LP solution. A solve returns `None` in its place when no
/// feasible point exists.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value (for the minimization form).
    pub objective: f64,
    /// Optimal value of every variable.
    pub values: Vec<f64>,
    /// Total simplex iterations across both phases.
    pub iterations: usize,
    /// Basis-changing pivots across both phases. Iterations that
    /// resolve as bound flips (the entering variable runs to its other
    /// bound without a basis change) are counted in `iterations` but
    /// not here, so `pivots <= iterations`.
    pub pivots: usize,
    /// True when this solve re-solved an inherited tableau
    /// ([`Tableau::resolve`]); false for a cold two-phase solve.
    pub warmed: bool,
    /// The final tableau, which a child problem (same rows and
    /// columns, other bounds) re-solves from.
    pub tableau: Tableau,
}

const COST_TOL: f64 = 1e-9;
const PIVOT_TOL: f64 = 1e-9;
const FEAS_TOL: f64 = 1e-7;
/// Consecutive non-improving iterations before switching to Bland's rule.
const STALL_LIMIT: usize = 64;
/// Pivot iterations between deadline checks. `Instant::now()` in the
/// pivot loop is pure overhead at this granularity; checking every
/// 128 iterations keeps overshoot well under a millisecond.
const DEADLINE_CHECK_STRIDE: usize = 128;

/// A borrowed constraint row: coefficients, sense, right-hand side.
pub(crate) type RowRef<'a> = (&'a [(usize, f64)], RowSense, f64);

/// How one row is normalized: its sense and non-negative right-hand
/// side after normalization, and whether its coefficients are negated.
type RowNorm = (RowSense, f64, bool);

/// Validates a standard-form problem and normalizes every row to a
/// non-negative right-hand side: a negative-rhs row has its
/// coefficients negated and its sense flipped. Reports, per row, the
/// normalized sense and rhs and whether to negate, so the dense
/// tableau can negate while scattering instead of copying the row.
fn normalize(cost: &[f64], upper: &[f64], rows: &[RowRef<'_>]) -> Result<Vec<RowNorm>, IlpError> {
    let n_struct = cost.len();
    if upper.len() != n_struct {
        return Err(IlpError::NonFiniteValue {
            context: "upper bound vector length",
        });
    }
    for &c in cost {
        if !c.is_finite() {
            return Err(IlpError::NonFiniteValue {
                context: "objective coefficient",
            });
        }
    }
    for &u in upper {
        if u.is_nan() || u < 0.0 {
            return Err(IlpError::NonFiniteValue {
                context: "variable upper bound",
            });
        }
    }
    let mut norms: Vec<RowNorm> = Vec::with_capacity(rows.len());
    for &(coeffs, sense, rhs) in rows {
        if !rhs.is_finite() {
            return Err(IlpError::NonFiniteValue {
                context: "row right-hand side",
            });
        }
        for &(j, c) in coeffs {
            if j >= n_struct {
                return Err(IlpError::UnknownVariable {
                    index: j,
                    var_count: n_struct,
                });
            }
            if !c.is_finite() {
                return Err(IlpError::NonFiniteValue {
                    context: "row coefficient",
                });
            }
        }
        if rhs < 0.0 {
            let flipped = match sense {
                RowSense::Le => RowSense::Ge,
                RowSense::Eq => RowSense::Eq,
                RowSense::Ge => RowSense::Le,
            };
            norms.push((flipped, -rhs, true));
        } else {
            norms.push((sense, rhs, false));
        }
    }
    Ok(norms)
}

/// Solves the LP given as borrowed parts with the cold two-phase
/// simplex. `lower` is the model-space lower bound each structural
/// column was shifted by (`upper` and the rows' right-hand sides are
/// already shifted); the returned tableau records it so a child can
/// re-solve for other bounds ([`Tableau::resolve`]).
///
/// # Errors
///
/// * [`IlpError::Unbounded`] when the objective is unbounded below.
/// * [`IlpError::IterationLimit`] if the iteration cap is exceeded
///   (indicates numerical trouble; the cap scales with problem size).
/// * [`IlpError::NonFiniteValue`] / [`IlpError::UnknownVariable`] for
///   malformed input data.
/// * [`IlpError::Deadline`] if the wall clock passes `deadline`
///   mid-solve (checked every few hundred iterations).
pub(crate) fn solve_rows(
    cost: &[f64],
    lower: &[f64],
    upper: &[f64],
    rows: &[RowRef<'_>],
    deadline: Option<Instant>,
) -> Result<Option<LpSolution>, IlpError> {
    Tableau::new(cost, lower, upper, rows)?.solve(deadline)
}

/// Picks the entering column from the pricing weights `w` (see
/// [`Tableau::pricing_weight`]) and reduced costs `d`: the first column
/// with the largest `w·d` above `COST_TOL` (Dantzig), or under Bland's
/// rule the first column above it. `None` means the phase is optimal.
fn price(w: &[f64], d: &[f64], bland: bool) -> Option<usize> {
    let (mut best, mut enter) = (COST_TOL, None);
    for (j, (&wj, &dj)) in w.iter().zip(d).enumerate() {
        let score = wj * dj;
        if score > best {
            if bland {
                return Some(j);
            }
            (best, enter) = (score, Some(j));
        }
    }
    enter
}

/// Dense simplex tableau with bounded variables.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tableau {
    /// Number of structural variables (prefix of the column space).
    n_struct: usize,
    /// Total columns (structural + slack/surplus + artificial).
    n_cols: usize,
    /// Number of rows.
    m: usize,
    /// Row-major dense tableau, `m x n_cols`, maintained as `B⁻¹A`.
    a: Vec<f64>,
    /// Current basic variable values, one per row.
    b: Vec<f64>,
    /// Column index of the basic variable of each row.
    basis: Vec<usize>,
    /// Whether each *nonbasic* column currently sits at its upper bound.
    at_upper: Vec<bool>,
    /// Whether each column is basic.
    is_basic: Vec<bool>,
    /// Model-space lower bound each structural column is shifted by.
    lower: Vec<f64>,
    /// Upper bound per column (shifted, so every lower bound is 0).
    upper: Vec<f64>,
    /// First artificial column index (artificials are `art_start..n_cols`).
    art_start: usize,
    /// Phase-2 cost per column.
    cost: Vec<f64>,
    /// Iterations used by the solve in progress.
    iterations: usize,
    /// Basis-changing pivots of the solve in progress (excludes bound
    /// flips).
    pivots: usize,
}

impl Tableau {
    fn new(
        cost: &[f64],
        lower: &[f64],
        upper: &[f64],
        rows: &[RowRef<'_>],
    ) -> Result<Self, IlpError> {
        let n_struct = cost.len();
        let m = rows.len();

        // Normalize rows so every right-hand side is non-negative.
        let norms = normalize(cost, upper, rows)?;

        // Column layout: [structural | slack/surplus | artificial], one
        // slack/surplus per `Le`/`Ge` row and one artificial per
        // `Eq`/`Ge` row, in row order.
        let (mut n_slack, mut n_art) = (0, 0);
        for &(sense, _, _) in &norms {
            n_slack += usize::from(matches!(sense, RowSense::Le | RowSense::Ge));
            n_art += usize::from(matches!(sense, RowSense::Eq | RowSense::Ge));
        }
        let slack_start = n_struct;
        let art_start = n_struct + n_slack;
        let n_cols = art_start + n_art;

        let mut a = vec![0.0; m * n_cols];
        let mut b = vec![0.0; m];
        let mut basis = vec![0usize; m];
        let mut col_upper = Vec::with_capacity(n_cols);
        col_upper.extend_from_slice(upper);
        col_upper.resize(n_cols, f64::INFINITY);

        let mut next_slack = slack_start;
        let mut next_art = art_start;
        for (i, (&(coeffs, _, _), &(sense, rhs, negate))) in rows.iter().zip(&norms).enumerate() {
            let row = &mut a[i * n_cols..(i + 1) * n_cols];
            // Multiplying by ±1 is exact, so negating while scattering
            // equals negating a copy of the row first.
            let sign = if negate { -1.0 } else { 1.0 };
            for &(j, c) in coeffs {
                row[j] += sign * c;
            }
            b[i] = rhs;
            match sense {
                RowSense::Le => {
                    row[next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                RowSense::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                RowSense::Eq => {
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
        }

        let mut is_basic = vec![false; n_cols];
        for &j in &basis {
            is_basic[j] = true;
        }

        let mut col_cost = Vec::with_capacity(n_cols);
        col_cost.extend_from_slice(cost);
        col_cost.resize(n_cols, 0.0);

        Ok(Tableau {
            n_struct,
            n_cols,
            m,
            a,
            b,
            basis,
            at_upper: vec![false; n_cols],
            is_basic,
            lower: lower.to_vec(),
            upper: col_upper,
            art_start,
            cost: col_cost,
            iterations: 0,
            pivots: 0,
        })
    }

    /// Iteration cap per solve; scales with the problem size.
    fn max_iterations(&self) -> usize {
        2_000 + 40 * (self.m + self.n_cols)
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.a[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Pivots the matrix on `(r, j)`: scales row `r` so the pivot is
    /// exactly 1, then eliminates column `j` from every other row. Row
    /// `r` is read in place through split borrows rather than copied.
    /// Basic values and reduced costs are the caller's to update.
    fn pivot_matrix(&mut self, r: usize, j: usize) {
        let n = self.n_cols;
        let (head, rest) = self.a.split_at_mut(r * n);
        let (row_r, tail) = rest.split_at_mut(n);
        let inv = 1.0 / row_r[j];
        // eagleeye-lint: allow(float-eq): scaling by exactly 1.0 is the identity, so skipping it leaves every bit unchanged
        if inv != 1.0 {
            for x in row_r.iter_mut() {
                *x *= inv;
            }
        }
        row_r[j] = 1.0;
        for row_i in head.chunks_exact_mut(n).chain(tail.chunks_exact_mut(n)) {
            let factor = row_i[j];
            if factor.abs() > 1e-13 {
                for (x, &rr) in row_i.iter_mut().zip(row_r.iter()) {
                    *x -= factor * rr;
                }
                row_i[j] = 0.0;
            }
        }
    }

    /// Reduced costs `d = c - c_Bᵀ (B⁻¹ A)` of the current tableau.
    fn reduced_costs(&self, cost: &[f64]) -> Vec<f64> {
        let mut d = cost.to_vec();
        for (i, &bj) in self.basis.iter().enumerate() {
            let cb = cost[bj];
            // eagleeye-lint: allow(float-eq): exact-zero sparsity skip; basis costs are copied, never computed, so 0.0 is exact
            if cb != 0.0 {
                for (dj, &aij) in d.iter_mut().zip(self.row(i)) {
                    *dj -= cb * aij;
                }
            }
        }
        d
    }

    /// Applies the pivot on `(r, j)` to the reduced costs: `d -= d_j ·
    /// row r` with the (already pivoted) row `r`.
    fn update_reduced_costs(&self, d: &mut [f64], r: usize, j: usize) {
        let dj = d[j];
        if dj.abs() > 1e-13 {
            for (x, &rr) in d.iter_mut().zip(self.row(r)) {
                *x -= dj * rr;
            }
            d[j] = 0.0;
        }
    }

    /// Pricing weight of column `j` in a phase: `1` when it rests at its
    /// upper bound (it enters by decreasing, which pays when `d_j > 0`),
    /// `-1` at its lower bound (pays when `d_j < 0`), and `0` when it
    /// cannot enter: basic, a banned artificial, or fixed (`upper ≤
    /// PIVOT_TOL`, where a move or a flip changes nothing). A column is
    /// eligible exactly when `w_j·d_j > COST_TOL`, and then `w_j·d_j` is
    /// `|d_j|` bit for bit, since scaling by ±1 is exact.
    fn pricing_weight(&self, j: usize, ban_artificials: bool) -> f64 {
        if self.is_basic[j]
            || (ban_artificials && j >= self.art_start)
            || self.upper[j] <= PIVOT_TOL
        {
            0.0
        } else if self.at_upper[j] {
            1.0
        } else {
            -1.0
        }
    }

    /// [`Tableau::update_reduced_costs`] fused with Dantzig pricing:
    /// applies `d -= d_j · row r` and, in the same pass, picks the first
    /// column with the largest `w·d` above `COST_TOL` from the updated
    /// costs. When `d_j` is too small to apply, `d` is unchanged and one
    /// plain [`price`] scan picks instead.
    fn update_and_price(&self, d: &mut [f64], w: &[f64], r: usize, j: usize) -> Option<usize> {
        let dj = d[j];
        if !(dj.abs() > 1e-13) {
            return price(w, d, false);
        }
        let (mut best, mut enter) = (COST_TOL, None);
        for (k, ((x, &rr), &wk)) in d.iter_mut().zip(self.row(r)).zip(w).enumerate() {
            *x -= dj * rr;
            let score = wk * *x;
            if score > best {
                (best, enter) = (score, Some(k));
            }
        }
        // Column `j` has just entered the basis, so its weight is 0 and
        // zeroing its cost cannot change the choice.
        d[j] = 0.0;
        enter
    }

    fn solve(mut self, deadline: Option<Instant>) -> Result<Option<LpSolution>, IlpError> {
        // Phase 1: minimize the sum of artificials.
        if self.art_start < self.n_cols {
            let phase1_cost: Vec<f64> = (0..self.n_cols)
                .map(|j| if j >= self.art_start { 1.0 } else { 0.0 })
                .collect();
            let obj = self.run_phase(&phase1_cost, /*ban_artificials=*/ false, deadline)?;
            if obj > FEAS_TOL {
                return Ok(None);
            }
            // Pin artificials at zero for phase 2.
            for j in self.art_start..self.n_cols {
                self.upper[j] = 0.0;
            }
        }

        // Phase 2: the real objective.
        let obj = self.phase_two(deadline)?;
        Ok(Some(self.extract(obj, false)))
    }

    /// Phase 2: optimizes the real objective from the current basis.
    fn phase_two(&mut self, deadline: Option<Instant>) -> Result<f64, IlpError> {
        let cost = std::mem::take(&mut self.cost);
        let obj = self.run_phase(&cost, /*ban_artificials=*/ true, deadline);
        self.cost = cost;
        obj
    }

    /// Reads the optimal solution out of the final tableau, which the
    /// solution keeps (with its effort counters reset) for children to
    /// re-solve from.
    fn extract(mut self, obj: f64, warmed: bool) -> LpSolution {
        let mut values = vec![0.0; self.n_struct];
        for j in 0..self.n_struct {
            if !self.is_basic[j] && self.at_upper[j] {
                values[j] = self.upper[j];
            }
        }
        for (i, &j) in self.basis.iter().enumerate() {
            if j < self.n_struct {
                values[j] = self.b[i].max(0.0);
            }
        }
        LpSolution {
            objective: obj,
            values,
            iterations: std::mem::take(&mut self.iterations),
            pivots: std::mem::take(&mut self.pivots),
            warmed,
            tableau: self,
        }
    }

    /// Re-solves this final tableau of a parent problem for a child
    /// that differs only in its structural bounds (`lower` in model
    /// space, `upper` shifted by it, as [`solve_rows`] takes them):
    /// moves the basic values to the new bounds in O(m) per changed
    /// column, restores primal feasibility with the dual simplex, then
    /// polishes with phase 2. Returns `None` to reject (the caller
    /// falls back to a cold solve): on a dimension mismatch, or when
    /// [`Tableau::dual_restore`] gives up. This path never declares
    /// infeasibility itself — that verdict is always the cold path's
    /// phase 1 — and never polls a deadline.
    pub(crate) fn resolve(
        mut self,
        lower: &[f64],
        upper: &[f64],
    ) -> Option<Result<LpSolution, IlpError>> {
        if lower.len() != self.n_struct || upper.len() != self.n_struct {
            return None;
        }
        self.rebound(lower, upper);
        if !self.dual_restore() {
            return None;
        }
        Some(self.phase_two(None).map(|obj| self.extract(obj, true)))
    }

    /// Moves the tableau to new structural bounds, keeping its basis
    /// and reduced costs. A basic column keeps its value, re-expressed
    /// against its new lower bound; a nonbasic column moves to the same
    /// side of its new range (the lower side when the new upper bound
    /// is infinite) and every basic value absorbs the step. A basic
    /// value left outside its new range is the dual simplex's to fix.
    fn rebound(&mut self, lower: &[f64], upper: &[f64]) {
        for j in 0..self.n_struct {
            let (lo, up) = (lower[j], upper[j]);
            if lo == self.lower[j] && up == self.upper[j] {
                continue;
            }
            if self.is_basic[j] {
                if let Some(r) = self.basis.iter().position(|&k| k == j) {
                    self.b[r] -= lo - self.lower[j];
                }
            } else {
                let old = self.lower[j] + if self.at_upper[j] { self.upper[j] } else { 0.0 };
                self.at_upper[j] &= up.is_finite();
                let new = lo + if self.at_upper[j] { up } else { 0.0 };
                if new != old {
                    let step = new - old;
                    for i in 0..self.m {
                        self.b[i] -= step * self.a[i * self.n_cols + j];
                    }
                }
            }
            self.lower[j] = lo;
            self.upper[j] = up;
        }
    }

    /// Restores primal feasibility with a bounded-variable dual
    /// simplex, assuming (and first verifying) dual feasibility of the
    /// current basis. Returns false to reject the re-solve — on a
    /// dual-infeasible basis, a stalled/capped loop, or a row with no
    /// eligible entering column (which the cold path must adjudicate;
    /// this path never declares infeasibility).
    fn dual_restore(&mut self) -> bool {
        let mut d = self.reduced_costs(&self.cost);
        // Dual feasibility: nonbasic at lower needs d_j ≥ 0, at upper
        // needs d_j ≤ 0. Fixed columns (bound-collapsed or artificial)
        // cannot move, so their sign is irrelevant.
        for j in 0..self.n_cols {
            if self.is_basic[j] || j >= self.art_start || self.upper[j] <= PIVOT_TOL {
                continue;
            }
            let violated = if self.at_upper[j] {
                d[j] > FEAS_TOL
            } else {
                d[j] < -FEAS_TOL
            };
            if violated {
                return false;
            }
        }

        let max_dual_iterations = 4 * self.m + 100;
        let mut dual_iterations = 0usize;
        loop {
            // Leaving row: the largest bound violation (ties → lowest
            // row, via strict improvement).
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, upper side)
            for i in 0..self.m {
                let ub = self.upper[self.basis[i]];
                let below = -self.b[i];
                let above = if ub.is_finite() {
                    self.b[i] - ub
                } else {
                    f64::NEG_INFINITY
                };
                let (viol, upper_side) = if above > below {
                    (above, true)
                } else {
                    (below, false)
                };
                if viol > FEAS_TOL {
                    match leave {
                        Some((_, best, _)) if viol <= best => {}
                        _ => leave = Some((i, viol, upper_side)),
                    }
                }
            }
            let Some((r, _, upper_side)) = leave else {
                return true; // primal feasible
            };
            dual_iterations += 1;
            if dual_iterations > max_dual_iterations {
                return false;
            }
            self.iterations += 1;
            if self.iterations > self.max_iterations() {
                return false;
            }

            // Entering column: sign-eligible nonbasic column with the
            // minimum dual ratio |d_j| / |α_rj| (ties → lowest j).
            let row_base = r * self.n_cols;
            let mut enter: Option<(usize, f64)> = None;
            for j in 0..self.art_start {
                if self.is_basic[j] || self.upper[j] <= PIVOT_TOL {
                    continue;
                }
                let alpha = self.a[row_base + j];
                let eligible = if upper_side {
                    // Basic value must decrease toward its upper bound.
                    if self.at_upper[j] {
                        alpha < -PIVOT_TOL
                    } else {
                        alpha > PIVOT_TOL
                    }
                } else {
                    // Basic value must increase toward zero.
                    if self.at_upper[j] {
                        alpha > PIVOT_TOL
                    } else {
                        alpha < -PIVOT_TOL
                    }
                };
                if !eligible {
                    continue;
                }
                let ratio = d[j].abs() / alpha.abs();
                match enter {
                    Some((_, best)) if ratio >= best => {}
                    _ => enter = Some((j, ratio)),
                }
            }
            let Some((j, _)) = enter else {
                return false; // likely infeasible — let the cold path decide
            };

            // Pivot: drive the leaving variable exactly to its violated
            // bound; the entering variable absorbs the step.
            self.pivots += 1;
            let target = if upper_side {
                self.upper[self.basis[r]]
            } else {
                0.0
            };
            let alpha = self.a[row_base + j];
            let step = (self.b[r] - target) / alpha;
            let entering_value = if self.at_upper[j] {
                self.upper[j] + step
            } else {
                step
            };
            for i in 0..self.m {
                if i != r {
                    self.b[i] -= step * self.a[i * self.n_cols + j];
                }
            }
            let leaving = self.basis[r];
            self.is_basic[leaving] = false;
            self.at_upper[leaving] = upper_side;
            self.basis[r] = j;
            self.is_basic[j] = true;
            self.at_upper[j] = false;
            self.b[r] = entering_value;

            self.pivot_matrix(r, j);
            self.update_reduced_costs(&mut d, r, j);
        }
    }

    /// Runs simplex iterations for one phase with the given cost vector.
    /// Returns the phase objective value at optimality.
    fn run_phase(
        &mut self,
        cost: &[f64],
        ban_artificials: bool,
        deadline: Option<Instant>,
    ) -> Result<f64, IlpError> {
        // Reduced costs: d_j = c_j - c_Bᵀ (B⁻¹ A)_j, computed from the
        // current (already pivoted) tableau.
        let mut d = self.reduced_costs(cost);
        let mut obj = {
            let mut o = 0.0;
            for (i, &bj) in self.basis.iter().enumerate() {
                o += cost[bj] * self.b[i];
            }
            for j in 0..self.n_cols {
                if !self.is_basic[j] && self.at_upper[j] && self.upper[j].is_finite() {
                    o += cost[j] * self.upper[j];
                }
            }
            o
        };

        // Pricing weights change only at pivots and bound flips. After
        // a pivot that applies `d_j`, the reduced-cost update also picks
        // the next entering column (`priced`); otherwise one scan does.
        let mut w: Vec<f64> = (0..self.n_cols)
            .map(|j| self.pricing_weight(j, ban_artificials))
            .collect();
        let mut priced: Option<Option<usize>> = None;
        let mut stall = 0usize;
        loop {
            self.iterations += 1;
            if self.iterations > self.max_iterations() {
                return Err(IlpError::IterationLimit {
                    limit: self.max_iterations(),
                });
            }
            if self.iterations.is_multiple_of(DEADLINE_CHECK_STRIDE) {
                if let Some(d) = deadline {
                    // eagleeye-lint: allow(clock): strided deadline poll is wall-clock by design (DESIGN.md §8); deterministic whenever no deadline is set
                    if Instant::now() >= d {
                        return Err(IlpError::Deadline);
                    }
                }
            }
            let use_bland = stall >= STALL_LIMIT;
            let enter = priced.take().unwrap_or_else(|| price(&w, &d, use_bland));
            #[cfg(test)]
            tests::check_pricing(self, &d, ban_artificials, use_bland, enter);
            let Some(j) = enter else {
                return Ok(obj);
            };

            // Direction: +1 if entering increases from its lower bound,
            // -1 if it decreases from its upper bound.
            let sigma = if self.at_upper[j] { -1.0 } else { 1.0 };

            // Ratio test.
            let mut t_limit = if self.upper[j].is_finite() {
                self.upper[j]
            } else {
                f64::INFINITY
            };
            let mut leave: Option<(usize, bool)> = None; // (row, leaves_to_upper)
            for i in 0..self.m {
                let aij = self.a[i * self.n_cols + j];
                let delta = sigma * aij;
                if delta > PIVOT_TOL {
                    // Basic value decreases toward 0.
                    let t = self.b[i] / delta;
                    if t < t_limit - 1e-12 || (use_bland && t <= t_limit && leave.is_none()) {
                        t_limit = t.max(0.0);
                        leave = Some((i, false));
                    }
                } else if delta < -PIVOT_TOL {
                    // Basic value increases toward its upper bound.
                    let ub = self.upper[self.basis[i]];
                    if ub.is_finite() {
                        let t = (ub - self.b[i]) / (-delta);
                        if t < t_limit - 1e-12 {
                            t_limit = t.max(0.0);
                            leave = Some((i, true));
                        }
                    }
                }
            }

            if !t_limit.is_finite() {
                return Err(IlpError::Unbounded);
            }
            let t = t_limit.max(0.0);
            if t < 1e-11 {
                stall += 1;
            } else {
                stall = 0;
            }

            obj += d[j] * sigma * t;

            match leave {
                None => {
                    // Bound flip: the entering variable runs to its other
                    // bound without changing the basis.
                    for i in 0..self.m {
                        let aij = self.a[i * self.n_cols + j];
                        self.b[i] -= sigma * t * aij;
                    }
                    self.at_upper[j] = !self.at_upper[j];
                    w[j] = -w[j];
                }
                Some((r, to_upper)) => {
                    self.pivots += 1;
                    // Update basic values for the step.
                    for i in 0..self.m {
                        if i != r {
                            let aij = self.a[i * self.n_cols + j];
                            self.b[i] -= sigma * t * aij;
                        }
                    }
                    let entering_value = if sigma > 0.0 { t } else { self.upper[j] - t };
                    // Leaving variable bookkeeping.
                    let v = self.basis[r];
                    self.is_basic[v] = false;
                    self.at_upper[v] = to_upper;
                    self.basis[r] = j;
                    self.is_basic[j] = true;
                    self.b[r] = entering_value;

                    // Pivot: normalize row r, eliminate column j elsewhere.
                    let piv = self.a[r * self.n_cols + j];
                    debug_assert!(piv.abs() > PIVOT_TOL * 0.5, "tiny pivot {piv}");
                    w[v] = self.pricing_weight(v, ban_artificials);
                    w[j] = 0.0;
                    self.pivot_matrix(r, j);
                    if stall >= STALL_LIMIT {
                        self.update_reduced_costs(&mut d, r, j);
                    } else {
                        priced = Some(self.update_and_price(&mut d, &w, r, j));
                    }
                }
            }
        }
    }

    /// Appends the tableau as raw bits: dimensions, basis, bound state,
    /// costs, basic values, then the matrix row by row. The effort
    /// counters are not written; a stored tableau is a final one, whose
    /// counters [`Tableau::extract`] already reset.
    pub(crate) fn write(&self, w: &mut ByteWriter) {
        for dim in [self.n_struct, self.m, self.n_cols, self.art_start] {
            w.usize(dim);
        }
        for &j in &self.basis {
            w.usize(j);
        }
        for &flag in &self.at_upper {
            w.bool(flag);
        }
        let floats = self.lower.iter().chain(&self.upper).chain(&self.cost);
        for &x in floats.chain(&self.b).chain(&self.a) {
            w.f64(x);
        }
    }

    /// Reads a tableau written by [`Tableau::write`].
    ///
    /// The dimensions are checked against the bytes left in `r` before
    /// anything is read for them, and nothing is preallocated from
    /// them, so forged dimensions fail as a [`CodecError`]. So does a
    /// basis that names a column twice or past the last one.
    pub(crate) fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let (n_struct, m, n_cols, art_start) = (r.usize()?, r.usize()?, r.usize()?, r.usize()?);
        // 8 bytes per basis entry and float, 1 per at-upper flag.
        let payload = || {
            let words = m
                .checked_mul(n_cols)?
                .checked_add(n_struct)?
                .checked_add(n_cols.checked_mul(2)?)?
                .checked_add(m.checked_mul(2)?)?;
            words.checked_mul(8)?.checked_add(n_cols)
        };
        if n_struct > art_start
            || art_start > n_cols
            || payload().is_none_or(|bytes| bytes > r.remaining())
        {
            return Err(CodecError {
                context: "tableau dimensions",
            });
        }
        let basis: Vec<usize> = (0..m).map(|_| r.usize()).collect::<Result<_, _>>()?;
        let mut is_basic = vec![false; n_cols];
        for &j in &basis {
            if j >= n_cols || std::mem::replace(&mut is_basic[j], true) {
                return Err(CodecError {
                    context: "tableau basis",
                });
            }
        }
        let at_upper = (0..n_cols).map(|_| r.bool()).collect::<Result<_, _>>()?;
        let mut floats = |n: usize| (0..n).map(|_| r.f64()).collect::<Result<Vec<_>, _>>();
        Ok(Tableau {
            n_struct,
            n_cols,
            m,
            lower: floats(n_struct)?,
            upper: floats(n_cols)?,
            cost: floats(n_cols)?,
            b: floats(m)?,
            a: floats(m * n_cols)?,
            basis,
            at_upper,
            is_basic,
            art_start,
            iterations: 0,
            pivots: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// What [`check_pricing`] saw on this thread: primal iterations
    /// checked, and how many of them priced by Bland's rule, ran in
    /// phase 1, or had a fixed nonbasic structural column to skip.
    #[derive(Debug, Clone, Copy, Default)]
    struct PricingProbe {
        checked: usize,
        bland: usize,
        phase_one: usize,
        fixed: usize,
    }

    thread_local! {
        static PROBE: Cell<PricingProbe> = Cell::new(PricingProbe::default());
    }

    /// The branchy entering-column scan `run_phase` made before it kept
    /// pricing weights: the oracle the weighted selection must match.
    fn enter_reference(
        t: &Tableau,
        d: &[f64],
        ban_artificials: bool,
        use_bland: bool,
    ) -> Option<usize> {
        let mut enter: Option<(usize, f64)> = None; // (col, |d|)
        for j in 0..t.n_cols {
            if t.is_basic[j] || (ban_artificials && j >= t.art_start) {
                continue;
            }
            // Columns fixed at zero can never usefully move.
            if t.upper[j] <= PIVOT_TOL && t.at_upper[j] {
                continue;
            }
            let dj = d[j];
            let eligible = if t.at_upper[j] {
                dj > COST_TOL
            } else {
                dj < -COST_TOL
            };
            if !eligible {
                continue;
            }
            if t.upper[j] <= PIVOT_TOL && !t.at_upper[j] && dj < -COST_TOL {
                // Fixed-at-zero column: a "flip" moves nothing; skip to
                // avoid cycling between bounds.
                continue;
            }
            if use_bland {
                enter = Some((j, dj.abs()));
                break;
            }
            match enter {
                Some((_, best)) if dj.abs() <= best => {}
                _ => enter = Some((j, dj.abs())),
            }
        }
        enter.map(|(j, _)| j)
    }

    /// Called by `run_phase` on every primal iteration of a test build:
    /// the entering column it chose must be the reference scan's.
    pub(super) fn check_pricing(
        t: &Tableau,
        d: &[f64],
        ban_artificials: bool,
        use_bland: bool,
        enter: Option<usize>,
    ) {
        assert_eq!(
            enter,
            enter_reference(t, d, ban_artificials, use_bland),
            "weighted pricing disagrees with the reference scan (bland {use_bland})"
        );
        let fixed = (0..t.n_struct).any(|j| !t.is_basic[j] && t.upper[j] <= PIVOT_TOL);
        PROBE.with(|p| {
            let mut q = p.get();
            q.checked += 1;
            q.bland += usize::from(use_bland);
            q.phase_one += usize::from(!ban_artificials);
            q.fixed += usize::from(fixed);
            p.set(q);
        });
    }

    /// A single constraint row in sparse form.
    #[derive(Debug, Clone, PartialEq)]
    struct LpRow {
        /// `(variable index, coefficient)` pairs; indices must be unique.
        coeffs: Vec<(usize, f64)>,
        /// Relational sense.
        sense: RowSense,
        /// Right-hand side.
        rhs: f64,
    }

    /// A linear program in computational standard form (see module docs).
    #[derive(Debug, Clone, PartialEq, Default)]
    struct LpProblem {
        /// Objective coefficients (minimization), one per variable.
        cost: Vec<f64>,
        /// Upper bounds, one per variable; `f64::INFINITY` means unbounded.
        /// All lower bounds are zero.
        upper: Vec<f64>,
        /// Constraint rows.
        rows: Vec<LpRow>,
    }

    fn row_refs(p: &LpProblem) -> Vec<RowRef<'_>> {
        p.rows
            .iter()
            .map(|r| (r.coeffs.as_slice(), r.sense, r.rhs))
            .collect()
    }

    fn solve(p: &LpProblem) -> Result<Option<LpSolution>, IlpError> {
        let lower = vec![0.0; p.cost.len()];
        solve_rows(&p.cost, &lower, &p.upper, &row_refs(p), None)
    }

    /// Re-solves `parent`'s final tableau for `child`, which shares its
    /// rows and differs only in upper bounds.
    fn resolve(parent: &LpSolution, child: &LpProblem) -> Option<Result<LpSolution, IlpError>> {
        let lower = vec![0.0; child.cost.len()];
        parent.tableau.clone().resolve(&lower, &child.upper)
    }

    fn row(coeffs: &[(usize, f64)], sense: RowSense, rhs: f64) -> LpRow {
        LpRow {
            coeffs: coeffs.to_vec(),
            sense,
            rhs,
        }
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 => x=2, y=6, obj 36.
        let p = LpProblem {
            cost: vec![-3.0, -5.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0)], RowSense::Le, 4.0),
                row(&[(1, 2.0)], RowSense::Le, 12.0),
                row(&[(0, 3.0), (1, 2.0)], RowSense::Le, 18.0),
            ],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, -36.0);
                assert_close(s.values[0], 2.0);
                assert_close(s.values[1], 6.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn equality_constraints_need_phase_one() {
        // min x + y st x + y = 10, x - y = 2 => x=6, y=4, obj 10.
        let p = LpProblem {
            cost: vec![1.0, 1.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], RowSense::Eq, 10.0),
                row(&[(0, 1.0), (1, -1.0)], RowSense::Eq, 2.0),
            ],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, 10.0);
                assert_close(s.values[0], 6.0);
                assert_close(s.values[1], 4.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_system_detected() {
        // x >= 5 and x <= 3.
        let p = LpProblem {
            cost: vec![0.0],
            upper: vec![f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0)], RowSense::Ge, 5.0),
                row(&[(0, 1.0)], RowSense::Le, 3.0),
            ],
        };
        assert_eq!(solve(&p).unwrap(), None);
    }

    #[test]
    fn unbounded_detected() {
        // min -x, x >= 0 unconstrained above.
        let p = LpProblem {
            cost: vec![-1.0],
            upper: vec![f64::INFINITY],
            rows: vec![row(&[(0, 1.0)], RowSense::Ge, 0.0)],
        };
        assert_eq!(solve(&p), Err(IlpError::Unbounded));
    }

    #[test]
    fn upper_bounds_are_respected_without_rows() {
        // max x + y with x <= 1, y <= 1 via bounds only, x + y <= 1.5.
        let p = LpProblem {
            cost: vec![-1.0, -1.0],
            upper: vec![1.0, 1.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], RowSense::Le, 1.5)],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, -1.5);
                assert!(s.values[0] <= 1.0 + 1e-9);
                assert!(s.values[1] <= 1.0 + 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bound_flip_only_problem() {
        // max x + 2y, x,y in [0,1], no rows at all => obj 3 at (1,1).
        let p = LpProblem {
            cost: vec![-1.0, -2.0],
            upper: vec![1.0, 1.0],
            rows: vec![],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, -3.0);
                assert_close(s.values[0], 1.0);
                assert_close(s.values[1], 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // x - y <= -2  (i.e. y >= x + 2), minimize y with x >= 0 => x=0,y=2.
        let p = LpProblem {
            cost: vec![0.0, 1.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![row(&[(0, 1.0), (1, -1.0)], RowSense::Le, -2.0)],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, 2.0);
                assert_close(s.values[1], 2.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP (multiple optimal bases at the same vertex).
        let p = LpProblem {
            cost: vec![-1.0, -1.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], RowSense::Le, 1.0),
                row(&[(0, 1.0)], RowSense::Le, 1.0),
                row(&[(1, 1.0)], RowSense::Le, 1.0),
                row(&[(0, 1.0), (1, 1.0)], RowSense::Le, 1.0),
            ],
        };
        match solve(&p).unwrap() {
            Some(s) => assert_close(s.objective, -1.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn transportation_problem_is_integral() {
        // 2 sources (supply 3, 2), 2 sinks (demand 2, 3); costs 1,2,3,1.
        // Optimal: x00=2, x01=1, x11=2 => cost 2*1 + 1*2 + 2*1 = 6.
        let p = LpProblem {
            cost: vec![1.0, 2.0, 3.0, 1.0], // x00 x01 x10 x11
            upper: vec![f64::INFINITY; 4],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], RowSense::Eq, 3.0),
                row(&[(2, 1.0), (3, 1.0)], RowSense::Eq, 2.0),
                row(&[(0, 1.0), (2, 1.0)], RowSense::Eq, 2.0),
                row(&[(1, 1.0), (3, 1.0)], RowSense::Eq, 3.0),
            ],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, 6.0);
                for v in &s.values {
                    assert!((v - v.round()).abs() < 1e-7, "fractional {v}");
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ge_rows_with_positive_rhs() {
        // min 2x + 3y st x + y >= 4, x >= 1 => (4-y at y=0) x=4? cost 8;
        // or x=1,y=3 cost 11. Optimum x=4, y=0, obj 8.
        let p = LpProblem {
            cost: vec![2.0, 3.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], RowSense::Ge, 4.0),
                row(&[(0, 1.0)], RowSense::Ge, 1.0),
            ],
        };
        match solve(&p).unwrap() {
            Some(s) => assert_close(s.objective, 8.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_nan_input() {
        let p = LpProblem {
            cost: vec![f64::NAN],
            upper: vec![1.0],
            rows: vec![],
        };
        assert!(matches!(solve(&p), Err(IlpError::NonFiniteValue { .. })));
    }

    #[test]
    fn rejects_out_of_range_variable() {
        let p = LpProblem {
            cost: vec![1.0],
            upper: vec![1.0],
            rows: vec![row(&[(5, 1.0)], RowSense::Le, 1.0)],
        };
        assert!(matches!(solve(&p), Err(IlpError::UnknownVariable { .. })));
    }

    #[test]
    fn fixed_variables_stay_fixed() {
        // y fixed at 0 by upper bound; max x + 10y, x + y <= 1.
        let p = LpProblem {
            cost: vec![-1.0, -10.0],
            upper: vec![f64::INFINITY, 0.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], RowSense::Le, 1.0)],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, -1.0);
                assert_close(s.values[1], 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pivot_count_separates_bound_flips_from_basis_changes() {
        // Bound-flip-only problem: iterations advance but no basis change.
        let flips = LpProblem {
            cost: vec![-1.0, -2.0],
            upper: vec![1.0, 1.0],
            rows: vec![],
        };
        match solve(&flips).unwrap() {
            Some(s) => {
                assert_eq!(s.pivots, 0);
                assert!(s.iterations >= 2, "two flips expected");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A problem with rows needs real pivots to reach the vertex.
        let vertex = LpProblem {
            cost: vec![-3.0, -5.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0)], RowSense::Le, 4.0),
                row(&[(1, 2.0)], RowSense::Le, 12.0),
                row(&[(0, 3.0), (1, 2.0)], RowSense::Le, 18.0),
            ],
        };
        match solve(&vertex).unwrap() {
            Some(s) => {
                assert!(s.pivots >= 1);
                assert!(s.pivots <= s.iterations);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = LpProblem::default();
        match solve(&p).unwrap() {
            Some(s) => {
                assert_eq!(s.objective, 0.0);
                assert!(s.values.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn optimal(result: Result<Option<LpSolution>, IlpError>) -> LpSolution {
        match result.unwrap() {
            Some(s) => s,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn textbook() -> LpProblem {
        LpProblem {
            cost: vec![-3.0, -5.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0)], RowSense::Le, 4.0),
                row(&[(1, 2.0)], RowSense::Le, 12.0),
                row(&[(0, 3.0), (1, 2.0)], RowSense::Le, 18.0),
            ],
        }
    }

    #[test]
    fn resolve_with_unchanged_bounds_is_pivot_free() {
        let p = textbook();
        let cold = optimal(solve(&p));
        assert!(!cold.warmed);
        assert!(cold.pivots > 0);
        let warm = resolve(&cold, &p)
            .expect("own final tableau is accepted")
            .unwrap();
        assert!(warm.warmed);
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(warm.values, cold.values);
        assert_eq!((warm.iterations, warm.pivots), (1, 0));
        // The solution hands its tableau on with the counters reset.
        assert_eq!(warm.tableau, cold.tableau);
    }

    #[test]
    fn warm_start_with_nudged_bounds_matches_cold() {
        // A parent LP and a "child" with a tightened upper bound — the
        // exact shape branch-and-bound produces. The parent basis stays
        // dual feasible, so the inherited tableau must be accepted and
        // land on the same optimum the cold solve finds.
        let parent = LpProblem {
            cost: vec![-2.0, -3.0, -1.0],
            upper: vec![4.0, 4.0, 4.0],
            rows: vec![
                row(&[(0, 1.0), (1, 2.0), (2, 1.0)], RowSense::Le, 9.0),
                row(&[(0, 1.0), (1, 1.0)], RowSense::Le, 5.0),
            ],
        };
        let base = optimal(solve(&parent));
        for cap in [3.0, 2.0, 1.0, 0.0] {
            let mut child = parent.clone();
            child.upper[1] = cap;
            let cold = optimal(solve(&child));
            let warm = resolve(&base, &child).expect("accepted").unwrap();
            assert!(warm.warmed);
            assert!(
                (warm.objective - cold.objective).abs() < 1e-9,
                "cap {cap}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
    }

    #[test]
    fn resolve_rejects_what_it_cannot_reuse() {
        let p = textbook();
        let cold = optimal(solve(&p));
        // Bounds for another column count.
        assert!(cold.tableau.clone().resolve(&[0.0], &[1.0]).is_none());
        // A column resting at a finite upper bound whose bound becomes
        // infinite falls to its lower side, where its reduced cost is
        // dual infeasible: max x with x ≤ 1 by bound and x ≤ 5 by row.
        let capped = LpProblem {
            cost: vec![-1.0],
            upper: vec![1.0],
            rows: vec![row(&[(0, 1.0)], RowSense::Le, 5.0)],
        };
        let base = optimal(solve(&capped));
        assert!(base.tableau.at_upper[0]);
        let mut loose = capped.clone();
        loose.upper[0] = f64::INFINITY;
        assert!(resolve(&base, &loose).is_none());
        assert_close(optimal(solve(&loose)).objective, -5.0);
    }

    #[test]
    fn warm_start_never_declares_infeasibility_itself() {
        // Child bounds make the system infeasible; the inherited
        // tableau is rejected so the cold path gives the verdict.
        let parent = LpProblem {
            cost: vec![1.0, 1.0],
            upper: vec![10.0, 10.0],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], RowSense::Ge, 8.0),
                row(&[(0, 1.0)], RowSense::Le, 6.0),
            ],
        };
        let base = optimal(solve(&parent));
        let mut child = parent.clone();
        child.upper[0] = 1.0;
        child.upper[1] = 1.0;
        assert!(resolve(&base, &child).is_none());
        assert_eq!(solve(&child).unwrap(), None);
    }

    /// Deterministic stream of unit-interval draws for seeded cases.
    struct Draws(u64);

    impl Draws {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = self.0;
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            (x >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.unit() * n as f64) as usize
        }
    }

    /// A seeded LP over 2–6 bounded continuous variables (lower bounds
    /// in {-2, 0, 1}) with 1–5 mixed ≤/≥/= rows, feasible at a witness
    /// point inside the box.
    fn seeded_model(seed: u64) -> crate::Model {
        let mut d = Draws(seed);
        let mut model = if d.below(2) == 0 {
            crate::Model::minimize()
        } else {
            crate::Model::maximize()
        };
        let n = 2 + d.below(5);
        let mut vars = Vec::new();
        let mut witness = Vec::new();
        for _ in 0..n {
            let lo = [-2.0, 0.0, 1.0][d.below(3)];
            let hi = lo + 1.0 + 9.0 * d.unit();
            let obj = (8.0 * d.unit() - 4.0).round();
            vars.push(model.add_continuous_var(lo, hi, obj).unwrap());
            witness.push(lo + (hi - lo) * d.unit());
        }
        for _ in 0..1 + d.below(5) {
            let mut terms = Vec::new();
            for &v in &vars {
                if d.below(4) != 0 {
                    terms.push((v, (6.0 * d.unit() - 3.0).round()));
                }
            }
            let at: f64 = terms
                .iter()
                .map(|&(v, c): &(crate::VarId, f64)| c * witness[v.index()])
                .sum();
            let slack = 3.0 * d.unit();
            let (sense, rhs) = match d.below(3) {
                0 => (crate::Sense::Le, at + slack),
                1 => (crate::Sense::Ge, at - slack),
                _ => (crate::Sense::Eq, at),
            };
            model.add_constraint(terms, sense, rhs).unwrap();
        }
        model
    }

    /// Re-solving a parent's final tableau after one bound tightening
    /// gives the status and objective of a cold solve of the child, for
    /// basic and nonbasic columns, in both directions, including
    /// children whose shifted right-hand sides change sign.
    #[test]
    fn inherited_resolve_matches_cold_solve() {
        // (basic, up) -> children compared, per combination.
        let mut compared = [[0usize; 2]; 2];
        let (mut accepted, mut infeasible, mut negative_rhs) = (0, 0, 0);
        for seed in 0..300u64 {
            let model = seeded_model(seed);
            let root = model
                .solve_relaxation(&[], None, None)
                .unwrap()
                .expect("feasible at the witness");
            for (j, var) in model.vars.iter().enumerate() {
                let v = root.values[j];
                for frac in [0.25, 0.75] {
                    for up in [false, true] {
                        let bound = if up {
                            (j, v + frac * (var.upper - v), var.upper)
                        } else {
                            (j, var.lower, v - frac * (v - var.lower))
                        };
                        let shifted_rhs_flips = model.rows.iter().any(|r| {
                            let shifted = |lo_j: f64| {
                                let shift: f64 = r
                                    .terms
                                    .iter()
                                    .map(|&(k, c)| {
                                        c * if k == j { lo_j } else { model.vars[k].lower }
                                    })
                                    .sum();
                                r.rhs - shift
                            };
                            (shifted(var.lower) < 0.0) != (shifted(bound.1) < 0.0)
                        });
                        let inherited = Some(root.tableau.clone());
                        let warm = model.solve_relaxation(&[bound], None, inherited).unwrap();
                        let cold = model.solve_relaxation(&[bound], None, None).unwrap();
                        match (&warm, &cold) {
                            (None, None) => infeasible += 1,
                            (Some(w), Some(c)) => {
                                assert!(
                                    (w.objective - c.objective).abs() <= 1e-9,
                                    "seed {seed} var {j} bound {bound:?}: inherited {} vs cold {}",
                                    w.objective,
                                    c.objective
                                );
                                accepted += usize::from(w.warmed);
                            }
                            _ => {
                                panic!("seed {seed} var {j} bound {bound:?}: {warm:?} vs {cold:?}")
                            }
                        }
                        compared[usize::from(root.tableau.is_basic[j])][usize::from(up)] += 1;
                        negative_rhs += usize::from(shifted_rhs_flips && warm.is_some());
                    }
                }
            }
        }
        assert!(compared.iter().flatten().all(|&n| n > 20), "{compared:?}");
        assert!(accepted > 100 && infeasible > 10 && negative_rhs > 10);
    }

    /// Seeded degenerate LP with deliberate ratio-test ties: `copies`
    /// duplicated rows all active at the same vertex, plus a redundant
    /// row per variable. Classic cycling bait for simplex variants.
    fn degenerate_tie_problem(seed: u64, n: usize, copies: usize) -> LpProblem {
        let mix = |k: u64| {
            let mut x = seed.wrapping_add(k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 29;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 32;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let cost: Vec<f64> = (0..n).map(|j| -(1.0 + mix(j as u64))).collect();
        let mut rows = Vec::new();
        // Identical budget rows: every one ties in the ratio test.
        let budget: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
        for _ in 0..copies {
            rows.push(LpRow {
                coeffs: budget.clone(),
                sense: RowSense::Le,
                rhs: 1.0,
            });
        }
        // Per-variable caps at the same level — more degenerate ties.
        for j in 0..n {
            rows.push(LpRow {
                coeffs: vec![(j, 1.0)],
                sense: RowSense::Le,
                rhs: 1.0,
            });
        }
        LpProblem {
            cost,
            upper: vec![f64::INFINITY; n],
            rows,
        }
    }

    #[test]
    fn degenerate_ties_terminate_cold_and_warm() {
        // Anti-cycling regression: the stall→Bland switch must keep
        // terminating when a degenerate optimal tableau is re-solved,
        // and both paths must agree with the analytic optimum (put the
        // whole budget on the most valuable variable).
        for seed in [1u64, 7, 42, 1234, 99999] {
            for (n, copies) in [(3usize, 3usize), (4, 5), (6, 4)] {
                let p = degenerate_tie_problem(seed, n, copies);
                let cold = optimal(solve(&p));
                let want = p.cost.iter().cloned().fold(f64::INFINITY, f64::min);
                assert!(
                    (cold.objective - want).abs() < 1e-9,
                    "seed {seed} n {n}: cold {} want {want}",
                    cold.objective
                );
                // Re-solve the degenerate optimal tableau unchanged.
                let warm = resolve(&cold, &p).expect("accepted").unwrap();
                assert!((warm.objective - want).abs() < 1e-9);
                // Re-solve it for a child with every variable capped
                // below the budget: must terminate and match the
                // child's own cold solve.
                let mut child = p.clone();
                child.upper = vec![0.5; n];
                let child_cold = optimal(solve(&child));
                let child_warm = resolve(&cold, &child).expect("accepted").unwrap();
                assert!(
                    (child_warm.objective - child_cold.objective).abs() < 1e-9,
                    "seed {seed} n {n}: warm child {} vs cold child {}",
                    child_warm.objective,
                    child_cold.objective
                );
            }
        }
    }

    /// `n` columns, each held at 0 by its own `x_j ≤ 0` row and each
    /// worth entering: every pivot is degenerate, so the run stalls
    /// into Bland's rule once `n > STALL_LIMIT`.
    fn stall_problem(n: usize) -> LpProblem {
        LpProblem {
            cost: (0..n).map(|j| -1.0 - (j % 3) as f64).collect(),
            upper: vec![f64::INFINITY; n],
            rows: (0..n)
                .map(|j| row(&[(j, 1.0)], RowSense::Le, 0.0))
                .collect(),
        }
    }

    /// Every primal iteration of a seeded LP suite prices through
    /// [`check_pricing`], which asserts that the weighted (and, after a
    /// pivot, fused) selection equals the reference scan. The suite
    /// covers bound flips, fixed columns, phase-1 artificials, inherited
    /// re-solves and a stall long enough to force Bland's rule.
    #[test]
    fn weighted_pricing_matches_reference_scan() {
        PROBE.with(|p| p.set(PricingProbe::default()));
        let mut flips = 0;
        // Rowless boxes: every iteration is a bound flip.
        let boxed = LpProblem {
            cost: vec![-1.0, 2.0, -3.0, 0.0],
            upper: vec![1.0, 4.0, 0.5, 2.0],
            rows: vec![],
        };
        let s = optimal(solve(&boxed));
        assert_eq!(s.pivots, 0);
        flips += s.iterations - 1;
        for seed in 0..200u64 {
            let model = seeded_model(seed);
            let Some(root) = model.solve_relaxation(&[], None, None).unwrap() else {
                continue;
            };
            // Cold solves without artificials end in one phase; the
            // rest of their iterations beyond pivots are flips.
            if root.tableau.art_start == root.tableau.n_cols {
                flips += root.iterations - root.pivots - 1;
            }
            // Fix each variable at its root value (a fixed column) and
            // re-solve both cold and from the inherited tableau.
            for j in 0..model.vars.len() {
                let v = root.values[j].clamp(model.vars[j].lower, model.vars[j].upper);
                let fixed = [(j, v, v)];
                let _ = model.solve_relaxation(&fixed, None, None).unwrap();
                let _ = model
                    .solve_relaxation(&fixed, None, Some(root.tableau.clone()))
                    .unwrap();
            }
        }
        let stall = optimal(solve(&stall_problem(STALL_LIMIT + 16)));
        assert_eq!(stall.pivots, STALL_LIMIT + 16);
        let probe = PROBE.with(Cell::get);
        assert!(flips > 0, "no bound flips");
        assert!(probe.checked > 1_000, "{probe:?}");
        assert!(probe.bland > 0, "{probe:?}");
        assert!(probe.phase_one > 0, "{probe:?}");
        assert!(probe.fixed > 0, "{probe:?}");
    }
}
