//! A sparse, bounded-variable, two-phase revised simplex over CSC
//! column storage.
//!
//! This is the LP engine behind the `Sparse` solver tier
//! ([`crate::SolverTier`]). It solves the same computational standard
//! form as the dense tableau in [`crate::simplex`] —
//!
//! ```text
//! minimize    cᵀx
//! subject to  aᵢᵀx {≤,=,≥} bᵢ      for every row i
//!             0 ≤ xⱼ ≤ uⱼ          (uⱼ may be +∞)
//! ```
//!
//! — but instead of maintaining the m×n tableau `B⁻¹A` it keeps the
//! constraint matrix once in compressed sparse column (CSC) form and
//! maintains only the m×m basis inverse `B⁻¹`. Per iteration this
//! costs `O(m² + nnz)` (pricing via `y = c_B B⁻¹`, one FTRAN, one
//! product-form update of `B⁻¹`) instead of the tableau's `O(m·n)`,
//! which is the win on scheduling-shaped instances where the column
//! count dwarfs the row count.
//!
//! The engine deliberately shares every *contract* with the dense
//! tableau:
//!
//! * rows are normalized by `simplex::normalized_rows` and
//!   columns laid out by `simplex::column_layout`, so a
//!   [`WarmBasis`] captured by either engine installs into the other;
//! * phase 1 minimizes the artificial sum, phase 2 pins artificials;
//! * Dantzig pricing with the same stall→Bland anti-cycling switch,
//!   bound flips, and strided wall-clock deadline polls;
//! * the warm path (install + dual restore) rejects deterministically
//!   and never declares infeasibility itself — that verdict always
//!   comes from the cold path's phase 1.
//!
//! The two engines are *not* bit-identical to each other (different
//! arithmetic orders reach different — equally optimal — bases); each
//! engine is bit-deterministic on its own, and the
//! `sparse_differential` suite pins agreement on status, objective,
//! and selected solution.

use crate::simplex::{
    column_layout, normalized_rows, LpProblem, LpResult, LpSolution, WarmBasis, COST_TOL,
    DEADLINE_CHECK_STRIDE, FEAS_TOL, INSTALL_PIVOT_TOL, PIVOT_TOL, STALL_LIMIT,
};
use crate::IlpError;
use std::time::Instant;

/// Solves the LP with the sparse revised simplex.
///
/// # Errors
///
/// Same as [`crate::simplex::solve`]: [`IlpError::Unbounded`],
/// [`IlpError::IterationLimit`], [`IlpError::NonFiniteValue`] /
/// [`IlpError::UnknownVariable`] for malformed input.
pub fn solve_sparse(problem: &LpProblem) -> Result<LpResult, IlpError> {
    solve_sparse_with_warm_start(problem, None, None)
}

/// Solves the LP with the sparse revised simplex, optionally aborting
/// at `deadline` and/or warm-starting from a basis captured off a
/// nearby problem (either engine's — the layouts are identical).
///
/// The warm path factors the basis, verifies dual feasibility, and
/// runs a bounded-variable dual simplex to restore primal feasibility;
/// any failure rejects the basis and falls back to the cold two-phase
/// solve, exactly like [`crate::simplex::solve_with_warm_start`].
///
/// # Errors
///
/// Same as [`solve_sparse`], plus [`IlpError::Deadline`].
pub fn solve_sparse_with_warm_start(
    problem: &LpProblem,
    deadline: Option<Instant>,
    warm: Option<&WarmBasis>,
) -> Result<LpResult, IlpError> {
    if let Some(basis) = warm {
        let mut s = RevisedSimplex::new(problem)?;
        s.deadline = deadline;
        if let Some(result) = s.solve_warm(basis) {
            return result;
        }
    }
    let mut s = RevisedSimplex::new(problem)?;
    s.deadline = deadline;
    s.solve()
}

/// Revised simplex state: CSC columns of the (normalized) constraint
/// matrix plus a dense basis inverse.
struct RevisedSimplex {
    /// Number of structural variables (prefix of the column space).
    n_struct: usize,
    /// Total columns (structural + slack/surplus + artificial).
    n_cols: usize,
    /// Number of rows.
    m: usize,
    /// CSC column pointers, length `n_cols + 1`.
    col_ptr: Vec<usize>,
    /// CSC row indices.
    col_rows: Vec<usize>,
    /// CSC values.
    col_vals: Vec<f64>,
    /// Row-major dense `B⁻¹`, `m x m`.
    binv: Vec<f64>,
    /// Normalized right-hand side (immutable; basic values derive from it).
    b0: Vec<f64>,
    /// Current basic variable values, one per row.
    xb: Vec<f64>,
    /// Column index of the basic variable of each row.
    basis: Vec<usize>,
    /// Whether each *nonbasic* column currently sits at its upper bound.
    at_upper: Vec<bool>,
    /// Whether each column is basic.
    is_basic: Vec<bool>,
    /// Upper bound per column.
    upper: Vec<f64>,
    /// First artificial column index.
    art_start: usize,
    /// Phase-2 cost per column.
    cost: Vec<f64>,
    /// Iterations used so far.
    iterations: usize,
    /// Basis-changing pivots so far (excludes bound flips).
    pivots: usize,
    /// Iteration cap.
    max_iterations: usize,
    /// Optional wall-clock deadline.
    deadline: Option<Instant>,
}

impl RevisedSimplex {
    fn new(p: &LpProblem) -> Result<Self, IlpError> {
        let n_struct = p.cost.len();
        let m = p.rows.len();
        let norm_rows = normalized_rows(p)?;
        let layout = column_layout(n_struct, &norm_rows);
        let art_start = layout.art_start;
        let n_cols = layout.n_cols;

        // Build CSC storage. Structural columns first (entries gathered
        // from the row-major input, duplicates summed to match the
        // dense tableau's `row[j] += c` accumulation), then the
        // singleton slack/surplus and artificial columns in row order.
        let mut col_entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_cols];
        let mut b0 = vec![0.0; m];
        let mut basis = vec![0usize; m];
        let mut next_slack = layout.slack_start;
        let mut next_art = art_start;
        for (i, (coeffs, sense, rhs)) in norm_rows.iter().enumerate() {
            for &(j, c) in coeffs {
                match col_entries[j].iter_mut().find(|(r, _)| *r == i) {
                    Some((_, acc)) => *acc += c,
                    None => col_entries[j].push((i, c)),
                }
            }
            b0[i] = *rhs;
            match sense {
                crate::simplex::RowSense::Le => {
                    col_entries[next_slack].push((i, 1.0));
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                crate::simplex::RowSense::Ge => {
                    col_entries[next_slack].push((i, -1.0));
                    next_slack += 1;
                    col_entries[next_art].push((i, 1.0));
                    basis[i] = next_art;
                    next_art += 1;
                }
                crate::simplex::RowSense::Eq => {
                    col_entries[next_art].push((i, 1.0));
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
        }
        let mut col_ptr = Vec::with_capacity(n_cols + 1);
        let mut col_rows = Vec::new();
        let mut col_vals = Vec::new();
        col_ptr.push(0);
        for entries in &col_entries {
            for &(i, c) in entries {
                col_rows.push(i);
                col_vals.push(c);
            }
            col_ptr.push(col_rows.len());
        }

        let mut upper = Vec::with_capacity(n_cols);
        upper.extend_from_slice(&p.upper);
        upper.resize(n_cols, f64::INFINITY);

        let mut is_basic = vec![false; n_cols];
        for &j in &basis {
            is_basic[j] = true;
        }

        let mut cost = Vec::with_capacity(n_cols);
        cost.extend_from_slice(&p.cost);
        cost.resize(n_cols, 0.0);

        // Initial basis is the slack/artificial identity, so B⁻¹ = I
        // and the basic values are the normalized right-hand side.
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }

        Ok(RevisedSimplex {
            n_struct,
            n_cols,
            m,
            col_ptr,
            col_rows,
            col_vals,
            binv,
            xb: b0.clone(),
            b0,
            basis,
            at_upper: vec![false; n_cols],
            is_basic,
            upper,
            art_start,
            cost,
            iterations: 0,
            pivots: 0,
            max_iterations: 2_000 + 40 * (m + n_cols),
            deadline: None,
        })
    }

    /// Simplex multipliers `y = c_Bᵀ B⁻¹` for the given cost vector.
    fn dual_values(&self, cost: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        for (i, &bj) in self.basis.iter().enumerate() {
            let cb = cost[bj];
            // eagleeye-lint: allow(float-eq): exact-zero sparsity skip; basis costs are copied, never computed, so 0.0 is exact
            if cb != 0.0 {
                let row = &self.binv[i * self.m..(i + 1) * self.m];
                for (yk, &bik) in y.iter_mut().zip(row) {
                    *yk += cb * bik;
                }
            }
        }
        y
    }

    /// Reduced cost `d_j = c_j - y·A_j` via the sparse column.
    #[inline]
    fn reduced_cost(&self, j: usize, cost: &[f64], y: &[f64]) -> f64 {
        let mut d = cost[j];
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            d -= y[self.col_rows[idx]] * self.col_vals[idx];
        }
        d
    }

    /// FTRAN: the updated column `α = B⁻¹ A_j`.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let mut alpha = vec![0.0; self.m];
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            let k = self.col_rows[idx];
            let v = self.col_vals[idx];
            for (i, a) in alpha.iter_mut().enumerate() {
                *a += self.binv[i * self.m + k] * v;
            }
        }
        alpha
    }

    /// Row `r` of `B⁻¹ A_j` alone (cheap per-candidate probe for the
    /// dual ratio test).
    #[inline]
    fn tableau_entry(&self, r: usize, j: usize) -> f64 {
        let row = &self.binv[r * self.m..(r + 1) * self.m];
        let mut a = 0.0;
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            a += row[self.col_rows[idx]] * self.col_vals[idx];
        }
        a
    }

    /// Product-form update of `B⁻¹` after pivoting column `j` into row
    /// `r`, where `alpha = B⁻¹ A_j` (the same elementary row operations
    /// the dense tableau applies, restricted to the inverse).
    fn update_binv(&mut self, r: usize, alpha: &[f64]) {
        let m = self.m;
        let inv = 1.0 / alpha[r];
        for x in self.binv[r * m..(r + 1) * m].iter_mut() {
            *x *= inv;
        }
        let row_r: Vec<f64> = self.binv[r * m..(r + 1) * m].to_vec();
        for i in 0..m {
            if i == r {
                continue;
            }
            let factor = alpha[i];
            if factor.abs() > 1e-13 {
                let row_i = &mut self.binv[i * m..(i + 1) * m];
                for (x, &rr) in row_i.iter_mut().zip(&row_r) {
                    *x -= factor * rr;
                }
            }
        }
    }

    fn solve(mut self) -> Result<LpResult, IlpError> {
        // Phase 1: minimize the sum of artificials.
        if self.art_start < self.n_cols {
            let phase1_cost: Vec<f64> = (0..self.n_cols)
                .map(|j| if j >= self.art_start { 1.0 } else { 0.0 })
                .collect();
            let obj = self.run_phase(&phase1_cost, /*ban_artificials=*/ false)?;
            if obj > FEAS_TOL {
                return Ok(LpResult::Infeasible);
            }
            // Pin artificials at zero for phase 2.
            for j in self.art_start..self.n_cols {
                self.upper[j] = 0.0;
            }
        }

        // Phase 2: the real objective.
        let cost = self.cost.clone();
        let obj = self.run_phase(&cost, /*ban_artificials=*/ true)?;
        Ok(LpResult::Optimal(self.extract(obj, false)))
    }

    /// Reads the optimal solution (and its reusable basis) out of the
    /// final state.
    fn extract(&self, obj: f64, warmed: bool) -> LpSolution {
        let mut values = vec![0.0; self.n_struct];
        for j in 0..self.n_struct {
            if !self.is_basic[j] && self.at_upper[j] {
                values[j] = self.upper[j];
            }
        }
        for (i, &j) in self.basis.iter().enumerate() {
            if j < self.n_struct {
                values[j] = self.xb[i].max(0.0);
            }
        }
        LpSolution {
            objective: obj,
            values,
            iterations: self.iterations,
            pivots: self.pivots,
            basis: WarmBasis {
                basis: self.basis.clone(),
                at_upper: self.at_upper.clone(),
                n_cols: self.n_cols,
            },
            warmed,
        }
    }

    /// Attempts the warm-start path: factor the basis, restore primal
    /// feasibility with the dual simplex, then polish with the primal
    /// phase-2 loop. Returns `None` to reject (caller falls back to a
    /// fresh cold solve).
    fn solve_warm(&mut self, warm: &WarmBasis) -> Option<Result<LpResult, IlpError>> {
        if !self.install(warm) {
            return None;
        }
        if !self.dual_restore() {
            return None;
        }
        let cost = self.cost.clone();
        match self.run_phase(&cost, /*ban_artificials=*/ true) {
            Ok(obj) => Some(Ok(LpResult::Optimal(self.extract(obj, true)))),
            Err(e) => Some(Err(e)),
        }
    }

    /// Installs a warm basis: validates the layout, pins artificials at
    /// zero, places nonbasic columns at their recorded bounds, factors
    /// `B⁻¹` with Gauss-Jordan elimination (partial pivoting over
    /// unassigned rows — the same row-assignment rule as the dense
    /// engine), and recomputes the basic values. Returns false to
    /// reject.
    fn install(&mut self, warm: &WarmBasis) -> bool {
        if warm.n_cols != self.n_cols
            || warm.basis.len() != self.m
            || warm.at_upper.len() != self.n_cols
        {
            return false;
        }
        let mut in_basis = vec![false; self.n_cols];
        for &j in &warm.basis {
            if j >= self.n_cols || in_basis[j] {
                return false;
            }
            in_basis[j] = true;
        }
        // The warm path skips phase 1 entirely: pin artificials so any
        // that remain basic are forced to zero by the dual loop.
        for j in self.art_start..self.n_cols {
            self.upper[j] = 0.0;
        }
        // Nonbasic columns at their recorded bound. An at-upper flag on
        // a column whose bound is now infinite cannot be honored.
        for j in 0..self.art_start {
            if !in_basis[j] && warm.at_upper[j] {
                if !self.upper[j].is_finite() {
                    return false;
                }
                self.at_upper[j] = true;
            }
        }
        // Factor B⁻¹: Gauss-Jordan on the dense gather of the basis
        // columns, processing them in ascending order and pivoting on
        // the largest-magnitude entry among unassigned rows (the rule
        // the dense install uses, so both engines accept/reject the
        // same bases up to arithmetic noise).
        let m = self.m;
        let mut cols: Vec<usize> = warm.basis.clone();
        cols.sort_unstable();
        let mut mat = vec![0.0; m * m]; // column t of `cols` in mat[..][t]
        for (t, &j) in cols.iter().enumerate() {
            for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
                mat[self.col_rows[idx] * m + t] = self.col_vals[idx];
            }
        }
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }
        let mut assigned = vec![false; m];
        let mut new_basis = vec![0usize; m];
        for (t, &j) in cols.iter().enumerate() {
            let mut best_row = usize::MAX;
            let mut best_mag = 0.0f64;
            for i in 0..m {
                if assigned[i] {
                    continue;
                }
                let mag = mat[i * m + t].abs();
                if mag > best_mag {
                    best_mag = mag;
                    best_row = i;
                }
            }
            if best_mag <= INSTALL_PIVOT_TOL {
                return false; // singular for this problem
            }
            let r = best_row;
            let inv = 1.0 / mat[r * m + t];
            for k in 0..m {
                mat[r * m + k] *= inv;
                binv[r * m + k] *= inv;
            }
            for i in 0..m {
                if i == r {
                    continue;
                }
                let factor = mat[i * m + t];
                if factor.abs() > 1e-13 {
                    for k in 0..m {
                        let mr = mat[r * m + k];
                        let br = binv[r * m + k];
                        mat[i * m + k] -= factor * mr;
                        binv[i * m + k] -= factor * br;
                    }
                }
            }
            assigned[r] = true;
            new_basis[r] = j;
        }
        self.binv = binv;
        self.basis = new_basis;
        for flag in self.is_basic.iter_mut() {
            *flag = false;
        }
        for &j in &self.basis {
            self.is_basic[j] = true;
            self.at_upper[j] = false;
        }
        // Basic values: xb = B⁻¹ (b - Σ_{nonbasic at upper} A_j u_j).
        let mut rhs = self.b0.clone();
        for j in 0..self.art_start {
            if self.at_upper[j] && !self.is_basic[j] {
                let u = self.upper[j];
                if u > 0.0 {
                    for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
                        rhs[self.col_rows[idx]] -= self.col_vals[idx] * u;
                    }
                }
            }
        }
        let mut xb = vec![0.0; m];
        for (i, x) in xb.iter_mut().enumerate() {
            let row = &self.binv[i * m..(i + 1) * m];
            let mut acc = 0.0;
            for (bik, &rk) in row.iter().zip(&rhs) {
                acc += bik * rk;
            }
            *x = acc;
        }
        self.xb = xb;
        true
    }

    /// Restores primal feasibility with a bounded-variable dual
    /// simplex, assuming (and first verifying) dual feasibility of the
    /// installed basis. Returns false to reject the warm start — this
    /// path never declares infeasibility (the cold path adjudicates).
    fn dual_restore(&mut self) -> bool {
        let cost = self.cost.clone();
        let mut y = self.dual_values(&cost);
        // Dual feasibility: nonbasic at lower needs d_j ≥ 0, at upper
        // needs d_j ≤ 0. Fixed columns cannot move.
        for j in 0..self.n_cols {
            if self.is_basic[j] || j >= self.art_start || self.upper[j] <= PIVOT_TOL {
                continue;
            }
            let dj = self.reduced_cost(j, &cost, &y);
            let violated = if self.at_upper[j] {
                dj > FEAS_TOL
            } else {
                dj < -FEAS_TOL
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
            let mut leave: Option<(usize, f64, bool)> = None;
            for i in 0..self.m {
                let ub = self.upper[self.basis[i]];
                let below = -self.xb[i];
                let above = if ub.is_finite() {
                    self.xb[i] - ub
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
            if self.iterations > self.max_iterations {
                return false;
            }

            // Entering column: sign-eligible nonbasic column with the
            // minimum dual ratio |d_j| / |α_rj| (ties → lowest j).
            let mut enter: Option<(usize, f64)> = None;
            for j in 0..self.art_start {
                if self.is_basic[j] || self.upper[j] <= PIVOT_TOL {
                    continue;
                }
                let alpha_rj = self.tableau_entry(r, j);
                let eligible = if upper_side {
                    if self.at_upper[j] {
                        alpha_rj < -PIVOT_TOL
                    } else {
                        alpha_rj > PIVOT_TOL
                    }
                } else if self.at_upper[j] {
                    alpha_rj > PIVOT_TOL
                } else {
                    alpha_rj < -PIVOT_TOL
                };
                if !eligible {
                    continue;
                }
                let dj = self.reduced_cost(j, &cost, &y);
                let ratio = dj.abs() / alpha_rj.abs();
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
            let alpha = self.ftran(j);
            let step = (self.xb[r] - target) / alpha[r];
            let entering_value = if self.at_upper[j] {
                self.upper[j] + step
            } else {
                step
            };
            for i in 0..self.m {
                if i != r {
                    self.xb[i] -= step * alpha[i];
                }
            }
            let leaving = self.basis[r];
            self.is_basic[leaving] = false;
            self.at_upper[leaving] = upper_side;
            self.basis[r] = j;
            self.is_basic[j] = true;
            self.at_upper[j] = false;
            self.xb[r] = entering_value;
            self.update_binv(r, &alpha);
            y = self.dual_values(&cost);
        }
    }

    /// Runs revised-simplex iterations for one phase with the given
    /// cost vector. Returns the phase objective value at optimality.
    fn run_phase(&mut self, cost: &[f64], ban_artificials: bool) -> Result<f64, IlpError> {
        let mut obj = {
            let mut o = 0.0;
            for (i, &bj) in self.basis.iter().enumerate() {
                o += cost[bj] * self.xb[i];
            }
            for j in 0..self.n_cols {
                if !self.is_basic[j] && self.at_upper[j] && self.upper[j].is_finite() {
                    o += cost[j] * self.upper[j];
                }
            }
            o
        };

        let mut stall = 0usize;
        loop {
            self.iterations += 1;
            if self.iterations > self.max_iterations {
                return Err(IlpError::IterationLimit {
                    limit: self.max_iterations,
                });
            }
            if self.iterations.is_multiple_of(DEADLINE_CHECK_STRIDE) {
                if let Some(d) = self.deadline {
                    // eagleeye-lint: allow(clock): strided deadline poll is wall-clock by design (DESIGN.md §8); deterministic whenever no deadline is set
                    if Instant::now() >= d {
                        return Err(IlpError::Deadline);
                    }
                }
            }
            let use_bland = stall >= STALL_LIMIT;

            // Pricing: fresh multipliers, then Dantzig (or Bland)
            // selection over the reduced costs.
            let y = self.dual_values(cost);
            let mut enter: Option<(usize, f64, f64)> = None; // (col, d_j, |d_j|)
            for j in 0..self.n_cols {
                if self.is_basic[j] || (ban_artificials && j >= self.art_start) {
                    continue;
                }
                if self.upper[j] <= PIVOT_TOL && self.at_upper[j] {
                    continue;
                }
                let dj = self.reduced_cost(j, cost, &y);
                let eligible = if self.at_upper[j] {
                    dj > COST_TOL
                } else {
                    dj < -COST_TOL
                };
                if !eligible {
                    continue;
                }
                if self.upper[j] <= PIVOT_TOL && !self.at_upper[j] && dj < -COST_TOL {
                    // Fixed-at-zero column: a "flip" moves nothing; skip
                    // to avoid cycling between bounds.
                    continue;
                }
                if use_bland {
                    enter = Some((j, dj, dj.abs()));
                    break;
                }
                match enter {
                    Some((_, _, best)) if dj.abs() <= best => {}
                    _ => enter = Some((j, dj, dj.abs())),
                }
            }
            let Some((j, dj, _)) = enter else {
                return Ok(obj);
            };

            // Direction: +1 if entering increases from its lower bound,
            // -1 if it decreases from its upper bound.
            let sigma = if self.at_upper[j] { -1.0 } else { 1.0 };

            // Ratio test over the updated column.
            let alpha = self.ftran(j);
            let mut t_limit = if self.upper[j].is_finite() {
                self.upper[j]
            } else {
                f64::INFINITY
            };
            let mut leave: Option<(usize, bool)> = None; // (row, leaves_to_upper)
            for (i, &aij) in alpha.iter().enumerate() {
                let delta = sigma * aij;
                if delta > PIVOT_TOL {
                    // Basic value decreases toward 0.
                    let t = self.xb[i] / delta;
                    if t < t_limit - 1e-12 || (use_bland && t <= t_limit && leave.is_none()) {
                        t_limit = t.max(0.0);
                        leave = Some((i, false));
                    }
                } else if delta < -PIVOT_TOL {
                    // Basic value increases toward its upper bound.
                    let ub = self.upper[self.basis[i]];
                    if ub.is_finite() {
                        let t = (ub - self.xb[i]) / (-delta);
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

            obj += dj * sigma * t;

            match leave {
                None => {
                    // Bound flip: the entering variable runs to its
                    // other bound without changing the basis.
                    for (i, &aij) in alpha.iter().enumerate() {
                        self.xb[i] -= sigma * t * aij;
                    }
                    self.at_upper[j] = !self.at_upper[j];
                }
                Some((r, to_upper)) => {
                    self.pivots += 1;
                    for (i, &aij) in alpha.iter().enumerate() {
                        if i != r {
                            self.xb[i] -= sigma * t * aij;
                        }
                    }
                    let entering_value = if sigma > 0.0 { t } else { self.upper[j] - t };
                    let v = self.basis[r];
                    self.is_basic[v] = false;
                    self.at_upper[v] = to_upper;
                    self.basis[r] = j;
                    self.is_basic[j] = true;
                    self.xb[r] = entering_value;
                    self.update_binv(r, &alpha);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{self, LpRow, RowSense};

    fn row(coeffs: &[(usize, f64)], sense: RowSense, rhs: f64) -> LpRow {
        LpRow {
            coeffs: coeffs.to_vec(),
            sense,
            rhs,
        }
    }

    fn optimal(result: Result<LpResult, IlpError>) -> LpSolution {
        match result.unwrap() {
            LpResult::Optimal(s) => s,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization_matches_dense() {
        let p = LpProblem {
            cost: vec![-3.0, -5.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0)], RowSense::Le, 4.0),
                row(&[(1, 2.0)], RowSense::Le, 12.0),
                row(&[(0, 3.0), (1, 2.0)], RowSense::Le, 18.0),
            ],
        };
        let s = optimal(solve_sparse(&p));
        assert_close(s.objective, -36.0);
        assert_close(s.values[0], 2.0);
        assert_close(s.values[1], 6.0);
    }

    #[test]
    fn equality_rows_run_phase_one() {
        let p = LpProblem {
            cost: vec![1.0, 1.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], RowSense::Eq, 10.0),
                row(&[(0, 1.0), (1, -1.0)], RowSense::Eq, 2.0),
            ],
        };
        let s = optimal(solve_sparse(&p));
        assert_close(s.objective, 10.0);
        assert_close(s.values[0], 6.0);
        assert_close(s.values[1], 4.0);
    }

    #[test]
    fn infeasible_and_unbounded_match_dense_verdicts() {
        let infeasible = LpProblem {
            cost: vec![0.0],
            upper: vec![f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0)], RowSense::Ge, 5.0),
                row(&[(0, 1.0)], RowSense::Le, 3.0),
            ],
        };
        assert_eq!(solve_sparse(&infeasible).unwrap(), LpResult::Infeasible);
        let unbounded = LpProblem {
            cost: vec![-1.0],
            upper: vec![f64::INFINITY],
            rows: vec![row(&[(0, 1.0)], RowSense::Ge, 0.0)],
        };
        assert_eq!(solve_sparse(&unbounded), Err(IlpError::Unbounded));
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let s = optimal(solve_sparse(&LpProblem::default()));
        assert_eq!(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn rejects_malformed_input_like_dense() {
        let nan = LpProblem {
            cost: vec![f64::NAN],
            upper: vec![1.0],
            rows: vec![],
        };
        assert!(matches!(
            solve_sparse(&nan),
            Err(IlpError::NonFiniteValue { .. })
        ));
        let oor = LpProblem {
            cost: vec![1.0],
            upper: vec![1.0],
            rows: vec![row(&[(5, 1.0)], RowSense::Le, 1.0)],
        };
        assert!(matches!(
            solve_sparse(&oor),
            Err(IlpError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn warm_bases_interchange_between_engines() {
        // A basis captured by the dense tableau must install into the
        // revised engine and vice versa: same normalization, same
        // column layout.
        let p = LpProblem {
            cost: vec![-2.0, -3.0, -1.0],
            upper: vec![4.0, 4.0, 4.0],
            rows: vec![
                row(&[(0, 1.0), (1, 2.0), (2, 1.0)], RowSense::Le, 9.0),
                row(&[(0, 1.0), (1, 1.0)], RowSense::Le, 5.0),
            ],
        };
        let dense = optimal(simplex::solve(&p));
        let sparse = optimal(solve_sparse(&p));
        assert!((dense.objective - sparse.objective).abs() < 1e-9);

        let warm_from_dense = optimal(solve_sparse_with_warm_start(&p, None, Some(&dense.basis)));
        assert!(warm_from_dense.warmed, "dense basis must install sparsely");
        assert!((warm_from_dense.objective - dense.objective).abs() < 1e-9);

        let warm_from_sparse = optimal(simplex::solve_with_warm_start(
            &p,
            None,
            Some(&sparse.basis),
        ));
        assert!(warm_from_sparse.warmed, "sparse basis must install densely");
        assert!((warm_from_sparse.objective - dense.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_start_with_nudged_bounds_matches_cold() {
        let parent = LpProblem {
            cost: vec![-2.0, -3.0, -1.0],
            upper: vec![4.0, 4.0, 4.0],
            rows: vec![
                row(&[(0, 1.0), (1, 2.0), (2, 1.0)], RowSense::Le, 9.0),
                row(&[(0, 1.0), (1, 1.0)], RowSense::Le, 5.0),
            ],
        };
        let base = optimal(solve_sparse(&parent));
        for cap in [3.0, 2.0, 1.0, 0.0] {
            let mut child = parent.clone();
            child.upper[1] = cap;
            let cold = optimal(solve_sparse(&child));
            let warm = optimal(solve_sparse_with_warm_start(
                &child,
                None,
                Some(&base.basis),
            ));
            assert!(
                (warm.objective - cold.objective).abs() < 1e-9,
                "cap {cap}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
    }

    #[test]
    fn warm_start_never_declares_infeasibility_itself() {
        let parent = LpProblem {
            cost: vec![1.0, 1.0],
            upper: vec![10.0, 10.0],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], RowSense::Ge, 8.0),
                row(&[(0, 1.0)], RowSense::Le, 6.0),
            ],
        };
        let base = optimal(solve_sparse(&parent));
        let mut child = parent.clone();
        child.upper[0] = 1.0;
        child.upper[1] = 1.0;
        assert_eq!(
            solve_sparse_with_warm_start(&child, None, Some(&base.basis)).unwrap(),
            LpResult::Infeasible
        );
    }

    #[test]
    fn malformed_warm_bases_fall_back_to_cold() {
        let p = LpProblem {
            cost: vec![1.0, 1.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], RowSense::Eq, 10.0),
                row(&[(0, 1.0), (1, -1.0)], RowSense::Eq, 2.0),
            ],
        };
        let cold = optimal(solve_sparse(&p));
        let bad = WarmBasis {
            basis: vec![0, 0],
            at_upper: vec![false; cold.basis.n_cols],
            n_cols: cold.basis.n_cols,
        };
        let s = optimal(solve_sparse_with_warm_start(&p, None, Some(&bad)));
        assert!(!s.warmed);
        assert_eq!(s.objective.to_bits(), cold.objective.to_bits());
    }

    #[test]
    fn degenerate_ties_terminate() {
        // Same cycling-bait shape as the dense anti-cycling regression:
        // duplicated budget rows all active at one vertex.
        let n = 4;
        let cost: Vec<f64> = (0..n).map(|j| -(1.0 + 0.1 * j as f64)).collect();
        let budget: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
        let mut rows = Vec::new();
        for _ in 0..5 {
            rows.push(LpRow {
                coeffs: budget.clone(),
                sense: RowSense::Le,
                rhs: 1.0,
            });
        }
        for j in 0..n {
            rows.push(row(&[(j, 1.0)], RowSense::Le, 1.0));
        }
        let p = LpProblem {
            cost,
            upper: vec![f64::INFINITY; n],
            rows,
        };
        let s = optimal(solve_sparse(&p));
        assert_close(s.objective, -1.3); // whole budget on the best variable
    }
}
