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
//! [`crate::Model`] is the only entry point: it builds a node's cold
//! [`Tableau`] from its rows and shifted bounds ([`Tableau::new`]), or
//! moves the parent's final tableau to the node's one new bound
//! ([`Tableau::rebound`]) and re-solves it ([`Tableau::resolve`]).
//!
//! A tableau keeps its floats, indices and flags in three slabs, so a
//! copy for a branch-and-bound child is three allocations and three
//! `memcpy`s, and a solve allocates nothing beyond them.

use crate::model::{shifted_upper, Model, Sense};
use crate::IlpError;
use eagleeye_harden::Deadline;

/// An optimal LP solution. A solve returns `None` in its place when no
/// feasible point exists.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value (for the minimization form).
    pub objective: f64,
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
    /// The final tableau, which holds the optimal values and which a
    /// child problem (same rows and columns, other bounds) re-solves
    /// from.
    pub tableau: Tableau,
}

#[cfg(test)]
impl LpSolution {
    /// Optimal value of every variable, in model space (the shift by
    /// each column's lower bound undone).
    pub fn values(&self) -> &[f64] {
        self.tableau.values()
    }
}

/// Pricing tolerance: a column enters the basis only when its reduced
/// cost improves the objective by more than this per unit.
pub const COST_TOL: f64 = 1e-9;
const PIVOT_TOL: f64 = 1e-9;
const FEAS_TOL: f64 = 1e-7;
/// Consecutive non-improving iterations before switching to Bland's rule.
const STALL_LIMIT: usize = 64;
/// Pivot iterations between deadline checks. A clock read per pivot is
/// pure overhead at this granularity; checking every 128 iterations
/// keeps overshoot well under a millisecond.
const DEADLINE_CHECK_STRIDE: usize = 128;

/// `model`'s rows with every column `j` shifted by `lower(j)`, each
/// normalized to a non-negative right-hand side: a negative-rhs row has
/// its coefficients negated and its sense flipped. Yields each row's
/// terms, normalized sense and rhs, and whether to negate, so the dense
/// tableau negates while scattering instead of copying the row.
fn normalized<'a>(
    model: &'a Model,
    lower: impl Fn(usize) -> f64 + 'a,
) -> impl Iterator<Item = (&'a [(usize, f64)], Sense, f64, bool)> + 'a {
    model.rows().map(move |(terms, sense, rhs)| {
        let shift: f64 = terms.iter().map(|&(j, c)| c * lower(j)).sum();
        let rhs = rhs - shift;
        if rhs < 0.0 {
            let flipped = match sense {
                Sense::Le => Sense::Ge,
                Sense::Eq => Sense::Eq,
                Sense::Ge => Sense::Le,
            };
            (terms, flipped, -rhs, true)
        } else {
            (terms, sense, rhs, false)
        }
    })
}

/// Picks the entering column from the pricing weights `w` (see
/// [`View::pricing_weight`]) and reduced costs `d`: the first column
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

/// Floats of a tableau's state: the matrix, basic values, lower
/// bounds, upper bounds and costs.
fn state_len(n_struct: usize, m: usize, n_cols: usize) -> usize {
    m * n_cols + m + n_struct + 2 * n_cols
}

/// Dense simplex tableau with bounded variables.
///
/// `floats` holds, back to back: the row-major `m x n_cols` matrix
/// `B⁻¹A`; the basic values (one per row); the model-space lower bound
/// each structural column is shifted by; the shifted upper bound and
/// the phase-2 cost per column; then scratch that is not tableau state:
/// the last solve's model-space values, and the reduced costs and
/// pricing weights of the phase in progress. `flags` holds whether each
/// nonbasic column sits at its upper bound, then whether each column is
/// basic.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    /// Number of structural variables (prefix of the column space).
    n_struct: usize,
    /// Total columns (structural + slack/surplus + artificial).
    n_cols: usize,
    /// Number of rows.
    m: usize,
    /// First artificial column index (artificials are `art_start..n_cols`).
    art_start: usize,
    floats: Vec<f64>,
    /// Column index of the basic variable of each row.
    basis: Vec<usize>,
    flags: Vec<bool>,
    /// Iterations used by the solve in progress.
    iterations: usize,
    /// Basis-changing pivots of the solve in progress (excludes bound
    /// flips).
    pivots: usize,
}

/// Tableaux are equal when their state is: the scratch tail of
/// `floats` (values, reduced costs, weights) is not compared.
impl PartialEq for Tableau {
    fn eq(&self, other: &Self) -> bool {
        let state = self.scratch_start();
        (self.n_struct, self.n_cols, self.m, self.art_start)
            == (other.n_struct, other.n_cols, other.m, other.art_start)
            && self.floats[..state] == other.floats[..state]
            && self.basis == other.basis
            && self.flags == other.flags
            && (self.iterations, self.pivots) == (other.iterations, other.pivots)
    }
}

/// Disjoint borrows of one tableau's slabs, named by role.
struct View<'t> {
    n_struct: usize,
    n_cols: usize,
    m: usize,
    art_start: usize,
    a: &'t mut [f64],
    b: &'t mut [f64],
    lower: &'t mut [f64],
    upper: &'t mut [f64],
    cost: &'t mut [f64],
    values: &'t mut [f64],
    /// Reduced costs of the phase in progress.
    d: &'t mut [f64],
    /// Pricing weights of the phase in progress.
    w: &'t mut [f64],
    basis: &'t mut [usize],
    at_upper: &'t mut [bool],
    is_basic: &'t mut [bool],
    iterations: &'t mut usize,
    pivots: &'t mut usize,
}

impl Tableau {
    /// Builds the cold tableau of `model`'s rows with column `j` shifted
    /// to the bounds `bound(j)` (model-space lower, upper).
    ///
    /// # Errors
    ///
    /// [`IlpError::NonFiniteValue`] / [`IlpError::UnknownVariable`] for
    /// malformed input data, such as a shifted right-hand side that
    /// overflows.
    pub(crate) fn new(
        model: &Model,
        bound: impl Fn(usize) -> (f64, f64),
    ) -> Result<Self, IlpError> {
        let n_struct = model.num_vars();
        let m = model.num_constraints();
        let sign = model.sign();
        // Validate, and count the column layout: [structural |
        // slack/surplus | artificial], one slack/surplus per `Le`/`Ge`
        // row and one artificial per `Eq`/`Ge` row, in row order.
        for j in 0..n_struct {
            if !(sign * model.vars[j].obj).is_finite() {
                return Err(IlpError::NonFiniteValue {
                    context: "objective coefficient",
                });
            }
        }
        for j in 0..n_struct {
            let (lo, hi) = bound(j);
            let u = shifted_upper(lo, hi);
            if u.is_nan() || u < 0.0 {
                return Err(IlpError::NonFiniteValue {
                    context: "variable upper bound",
                });
            }
        }
        let (mut n_slack, mut n_art) = (0, 0);
        for (terms, sense, rhs, _) in normalized(model, |j| bound(j).0) {
            if !rhs.is_finite() {
                return Err(IlpError::NonFiniteValue {
                    context: "row right-hand side",
                });
            }
            for &(j, c) in terms {
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
            n_slack += usize::from(matches!(sense, Sense::Le | Sense::Ge));
            n_art += usize::from(matches!(sense, Sense::Eq | Sense::Ge));
        }
        let slack_start = n_struct;
        let art_start = n_struct + n_slack;
        let n_cols = art_start + n_art;

        let mut t = Tableau::zeroed(n_struct, m, n_cols, art_start);
        let v = t.view();
        for j in 0..n_struct {
            let (lo, hi) = bound(j);
            v.lower[j] = lo;
            v.upper[j] = shifted_upper(lo, hi);
            v.cost[j] = sign * model.vars[j].obj;
        }
        v.upper[n_struct..].fill(f64::INFINITY);
        let lower: &[f64] = v.lower;
        let mut next_slack = slack_start;
        let mut next_art = art_start;
        for (i, (terms, sense, rhs, negate)) in normalized(model, |j| lower[j]).enumerate() {
            let row = &mut v.a[i * n_cols..(i + 1) * n_cols];
            // Multiplying by ±1 is exact, so negating while scattering
            // equals negating a copy of the row first.
            let sign = if negate { -1.0 } else { 1.0 };
            for &(j, c) in terms {
                row[j] += sign * c;
            }
            v.b[i] = rhs;
            match sense {
                Sense::Le => {
                    row[next_slack] = 1.0;
                    v.basis[i] = next_slack;
                    next_slack += 1;
                }
                Sense::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_art] = 1.0;
                    v.basis[i] = next_art;
                    next_art += 1;
                }
                Sense::Eq => {
                    row[next_art] = 1.0;
                    v.basis[i] = next_art;
                    next_art += 1;
                }
            }
        }
        for &j in v.basis.iter() {
            v.is_basic[j] = true;
        }
        Ok(t)
    }

    /// An all-zero tableau of these dimensions, with room for the
    /// scratch (`n_struct` values, `2·n_cols` reduced costs and
    /// weights) after its state.
    fn zeroed(n_struct: usize, m: usize, n_cols: usize, art_start: usize) -> Tableau {
        let state = state_len(n_struct, m, n_cols);
        Tableau {
            n_struct,
            n_cols,
            m,
            art_start,
            floats: vec![0.0; state + n_struct + 2 * n_cols],
            basis: vec![0usize; m],
            flags: vec![false; 2 * n_cols],
            iterations: 0,
            pivots: 0,
        }
    }

    /// Where the scratch tail of `floats` starts.
    fn scratch_start(&self) -> usize {
        state_len(self.n_struct, self.m, self.n_cols)
    }

    fn view(&mut self) -> View<'_> {
        let (n, m, n_cols) = (self.n_struct, self.m, self.n_cols);
        let (a, rest) = self.floats.split_at_mut(m * n_cols);
        let (b, rest) = rest.split_at_mut(m);
        let (lower, rest) = rest.split_at_mut(n);
        let (upper, rest) = rest.split_at_mut(n_cols);
        let (cost, rest) = rest.split_at_mut(n_cols);
        let (values, rest) = rest.split_at_mut(n);
        let (d, w) = rest.split_at_mut(n_cols);
        let (at_upper, is_basic) = self.flags.split_at_mut(n_cols);
        View {
            n_struct: n,
            n_cols,
            m,
            art_start: self.art_start,
            a,
            b,
            lower,
            upper,
            cost,
            values,
            d,
            w,
            basis: &mut self.basis,
            at_upper,
            is_basic,
            iterations: &mut self.iterations,
            pivots: &mut self.pivots,
        }
    }

    /// Number of structural columns.
    pub(crate) fn n_struct(&self) -> usize {
        self.n_struct
    }

    /// The model-space lower bound each structural column is shifted by.
    pub(crate) fn lower(&self) -> &[f64] {
        let start = self.m * self.n_cols + self.m;
        &self.floats[start..start + self.n_struct]
    }

    /// The model-space values the last solve of this tableau found.
    pub(crate) fn values(&self) -> &[f64] {
        let start = self.scratch_start();
        &self.floats[start..start + self.n_struct]
    }

    /// Solves the LP with the cold two-phase simplex.
    ///
    /// # Errors
    ///
    /// * [`IlpError::Unbounded`] when the objective is unbounded below.
    /// * [`IlpError::IterationLimit`] if the iteration cap is exceeded
    ///   (indicates numerical trouble; the cap scales with problem size).
    /// * [`IlpError::Deadline`] if `deadline` expires mid-solve (polled
    ///   every [`DEADLINE_CHECK_STRIDE`] iterations).
    pub(crate) fn solve(mut self, deadline: Deadline) -> Result<Option<LpSolution>, IlpError> {
        let mut v = self.view();
        // Phase 1: minimize the sum of artificials.
        if v.art_start < v.n_cols {
            let obj = v.run_phase(/*phase_one=*/ true, deadline)?;
            if obj > FEAS_TOL {
                return Ok(None);
            }
            // Pin artificials at zero for phase 2.
            v.upper[v.art_start..].fill(0.0);
        }

        // Phase 2: the real objective.
        let obj = v.run_phase(/*phase_one=*/ false, deadline)?;
        Ok(Some(self.extract(obj, false)))
    }

    /// Reads the optimal solution out of the final tableau into its
    /// values, which the solution keeps (with its effort counters
    /// reset) for children to re-solve from.
    fn extract(mut self, obj: f64, warmed: bool) -> LpSolution {
        let v = self.view();
        for j in 0..v.n_struct {
            v.values[j] = if !v.is_basic[j] && v.at_upper[j] {
                v.upper[j]
            } else {
                0.0
            };
        }
        for (i, &j) in v.basis.iter().enumerate() {
            if j < v.n_struct {
                v.values[j] = v.b[i].max(0.0);
            }
        }
        for (x, lo) in v.values.iter_mut().zip(v.lower.iter()) {
            *x += lo;
        }
        LpSolution {
            objective: obj,
            iterations: std::mem::take(&mut self.iterations),
            pivots: std::mem::take(&mut self.pivots),
            warmed,
            tableau: self,
        }
    }

    /// Moves structural column `j` of this final tableau to new bounds
    /// (`lo` in model space, `up` shifted by it), keeping its basis and
    /// reduced costs. A basic column keeps its value, re-expressed
    /// against its new lower bound in O(m); a nonbasic column moves to
    /// the same side of its new range (the lower side when the new
    /// upper bound is infinite) and every basic value absorbs the step.
    /// A basic value left outside its new range is the dual simplex's
    /// to fix ([`Tableau::resolve`]).
    pub(crate) fn rebound(&mut self, j: usize, lo: f64, up: f64) {
        let v = self.view();
        #[expect(
            clippy::float_cmp,
            reason = "an unchanged bound is a no-op; any change, however small, must reach the tableau"
        )]
        if lo == v.lower[j] && up == v.upper[j] {
            return;
        }
        if v.is_basic[j] {
            if let Some(r) = v.basis.iter().position(|&k| k == j) {
                v.b[r] -= lo - v.lower[j];
            }
        } else {
            let old = v.lower[j] + if v.at_upper[j] { v.upper[j] } else { 0.0 };
            v.at_upper[j] &= up.is_finite();
            let new = lo + if v.at_upper[j] { up } else { 0.0 };
            #[expect(
                clippy::float_cmp,
                reason = "a nonbasic value that did not move leaves every basic value's bits alone"
            )]
            if new != old {
                let step = new - old;
                for i in 0..v.m {
                    v.b[i] -= step * v.a[i * v.n_cols + j];
                }
            }
        }
        v.lower[j] = lo;
        v.upper[j] = up;
    }

    /// Re-solves this final tableau of a parent problem, already moved
    /// to a child's bounds ([`Tableau::rebound`]): restores primal
    /// feasibility with the dual simplex, then polishes with phase 2.
    /// Returns `None` to reject (the caller falls back to a cold solve)
    /// when [`View::dual_restore`] gives up. This path never declares
    /// infeasibility itself — that verdict is always the cold path's
    /// phase 1 — and never polls a deadline.
    pub(crate) fn resolve(mut self) -> Option<Result<LpSolution, IlpError>> {
        let mut v = self.view();
        if !v.dual_restore() {
            return None;
        }
        let obj = v.run_phase(/*phase_one=*/ false, Deadline::none());
        Some(obj.map(|obj| self.extract(obj, true)))
    }
}

impl View<'_> {
    /// Iteration cap per solve; scales with the problem size.
    fn max_iterations(&self) -> usize {
        2_000 + 40 * (self.m + self.n_cols)
    }

    /// Column `j`'s cost in a phase: 1 per artificial in phase 1, the
    /// real cost in phase 2.
    #[inline]
    fn phase_cost(&self, phase_one: bool, j: usize) -> f64 {
        if !phase_one {
            self.cost[j]
        } else if j >= self.art_start {
            1.0
        } else {
            0.0
        }
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
        #[expect(
            clippy::float_cmp,
            reason = "scaling by exactly 1.0 is the identity, so skipping it leaves every bit unchanged"
        )]
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

    /// Sets `d` to the reduced costs `c - c_Bᵀ (B⁻¹ A)` of the current
    /// tableau under a phase's costs.
    fn reduced_costs(&mut self, phase_one: bool) {
        for j in 0..self.n_cols {
            self.d[j] = self.phase_cost(phase_one, j);
        }
        for i in 0..self.m {
            let cb = self.phase_cost(phase_one, self.basis[i]);
            // Exact-zero sparsity skip: basis costs are copied, never
            // computed, so 0.0 is exact.
            if cb != 0.0 {
                let row = &self.a[i * self.n_cols..(i + 1) * self.n_cols];
                for (dj, &aij) in self.d.iter_mut().zip(row) {
                    *dj -= cb * aij;
                }
            }
        }
    }

    /// Applies the pivot on `(r, j)` to the reduced costs: `d -= d_j ·
    /// row r` with the (already pivoted) row `r`.
    fn update_reduced_costs(&mut self, r: usize, j: usize) {
        let dj = self.d[j];
        if dj.abs() > 1e-13 {
            let row = &self.a[r * self.n_cols..(r + 1) * self.n_cols];
            for (x, &rr) in self.d.iter_mut().zip(row) {
                *x -= dj * rr;
            }
            self.d[j] = 0.0;
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

    /// [`View::update_reduced_costs`] fused with Dantzig pricing:
    /// applies `d -= d_j · row r` and, in the same pass, picks the first
    /// column with the largest `w·d` above `COST_TOL` from the updated
    /// costs. When `d_j` is too small to apply, `d` is unchanged and one
    /// plain [`price`] scan picks instead.
    fn update_and_price(&mut self, r: usize, j: usize) -> Option<usize> {
        let dj = self.d[j];
        if !(dj.abs() > 1e-13) {
            return price(self.w, self.d, false);
        }
        let (mut best, mut enter) = (COST_TOL, None);
        let row = &self.a[r * self.n_cols..(r + 1) * self.n_cols];
        for (k, ((x, &rr), &wk)) in self.d.iter_mut().zip(row).zip(self.w.iter()).enumerate() {
            *x -= dj * rr;
            let score = wk * *x;
            if score > best {
                (best, enter) = (score, Some(k));
            }
        }
        // Column `j` has just entered the basis, so its weight is 0 and
        // zeroing its cost cannot change the choice.
        self.d[j] = 0.0;
        enter
    }

    /// Restores primal feasibility with a bounded-variable dual
    /// simplex, assuming (and first verifying) dual feasibility of the
    /// current basis. Returns false to reject the re-solve — on a
    /// dual-infeasible basis, a stalled/capped loop, or a row with no
    /// eligible entering column (which the cold path must adjudicate;
    /// this path never declares infeasibility).
    fn dual_restore(&mut self) -> bool {
        self.reduced_costs(/*phase_one=*/ false);
        // Dual feasibility: nonbasic at lower needs d_j ≥ 0, at upper
        // needs d_j ≤ 0. Fixed columns (bound-collapsed or artificial)
        // cannot move, so their sign is irrelevant.
        for j in 0..self.n_cols {
            if self.is_basic[j] || j >= self.art_start || self.upper[j] <= PIVOT_TOL {
                continue;
            }
            let violated = if self.at_upper[j] {
                self.d[j] > FEAS_TOL
            } else {
                self.d[j] < -FEAS_TOL
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
            *self.iterations += 1;
            if *self.iterations > self.max_iterations() {
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
                let ratio = self.d[j].abs() / alpha.abs();
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
            *self.pivots += 1;
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
            self.update_reduced_costs(r, j);
        }
    }

    /// Runs simplex iterations for one phase (phase 1 minimizes the sum
    /// of artificials; phase 2 the real cost, artificials banned).
    /// Returns the phase objective value at optimality.
    fn run_phase(&mut self, phase_one: bool, deadline: Deadline) -> Result<f64, IlpError> {
        let ban_artificials = !phase_one;
        // Reduced costs: d_j = c_j - c_Bᵀ (B⁻¹ A)_j, computed from the
        // current (already pivoted) tableau.
        self.reduced_costs(phase_one);
        let mut obj = {
            let mut o = 0.0;
            for (i, &bj) in self.basis.iter().enumerate() {
                o += self.phase_cost(phase_one, bj) * self.b[i];
            }
            for j in 0..self.n_cols {
                if !self.is_basic[j] && self.at_upper[j] && self.upper[j].is_finite() {
                    o += self.phase_cost(phase_one, j) * self.upper[j];
                }
            }
            o
        };

        // Pricing weights change only at pivots and bound flips. After
        // a pivot that applies `d_j`, the reduced-cost update also picks
        // the next entering column (`priced`); otherwise one scan does.
        for j in 0..self.n_cols {
            self.w[j] = self.pricing_weight(j, ban_artificials);
        }
        let mut priced: Option<Option<usize>> = None;
        let mut stall = 0usize;
        loop {
            *self.iterations += 1;
            if *self.iterations > self.max_iterations() {
                return Err(IlpError::IterationLimit {
                    limit: self.max_iterations(),
                });
            }
            if self.iterations.is_multiple_of(DEADLINE_CHECK_STRIDE) && deadline.expired() {
                return Err(IlpError::Deadline);
            }
            let use_bland = stall >= STALL_LIMIT;
            let enter = priced
                .take()
                .unwrap_or_else(|| price(self.w, self.d, use_bland));
            #[cfg(test)]
            tests::check_pricing(self, ban_artificials, use_bland, enter);
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

            obj += self.d[j] * sigma * t;

            match leave {
                None => {
                    // Bound flip: the entering variable runs to its other
                    // bound without changing the basis.
                    for i in 0..self.m {
                        let aij = self.a[i * self.n_cols + j];
                        self.b[i] -= sigma * t * aij;
                    }
                    self.at_upper[j] = !self.at_upper[j];
                    self.w[j] = -self.w[j];
                }
                Some((r, to_upper)) => {
                    *self.pivots += 1;
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
                    self.w[v] = self.pricing_weight(v, ban_artificials);
                    self.w[j] = 0.0;
                    self.pivot_matrix(r, j);
                    if stall >= STALL_LIMIT {
                        self.update_reduced_costs(r, j);
                    } else {
                        priced = Some(self.update_and_price(r, j));
                    }
                }
            }
        }
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
    fn enter_reference(t: &View<'_>, ban_artificials: bool, use_bland: bool) -> Option<usize> {
        let mut enter: Option<(usize, f64)> = None; // (col, |d|)
        for j in 0..t.n_cols {
            if t.is_basic[j] || (ban_artificials && j >= t.art_start) {
                continue;
            }
            // Columns fixed at zero can never usefully move.
            if t.upper[j] <= PIVOT_TOL && t.at_upper[j] {
                continue;
            }
            let dj = t.d[j];
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
        t: &View<'_>,
        ban_artificials: bool,
        use_bland: bool,
        enter: Option<usize>,
    ) {
        assert_eq!(
            enter,
            enter_reference(t, ban_artificials, use_bland),
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
        sense: Sense,
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

    /// The problem as a minimizing [`Model`] of continuous variables.
    fn model(p: &LpProblem) -> Result<Model, IlpError> {
        let mut m = Model::minimize();
        let vars = p
            .cost
            .iter()
            .zip(&p.upper)
            .map(|(&c, &u)| m.add_continuous_var(0.0, u, c))
            .collect::<Result<Vec<_>, _>>()?;
        for r in &p.rows {
            let terms = r.coeffs.iter().map(|&(j, c)| {
                let var = vars.get(j).copied().unwrap_or(crate::VarId(j));
                (var, c)
            });
            m.add_constraint(terms, r.sense, r.rhs)?;
        }
        Ok(m)
    }

    fn solve(p: &LpProblem) -> Result<Option<LpSolution>, IlpError> {
        model(p)?.solve_relaxation(&[], Deadline::none(), None)
    }

    /// Re-solves `parent`'s final tableau for `child`, which shares its
    /// rows and differs only in upper bounds.
    fn resolve(parent: &LpSolution, child: &LpProblem) -> Option<Result<LpSolution, IlpError>> {
        let mut t = parent.tableau.clone();
        for (j, &u) in child.upper.iter().enumerate() {
            t.rebound(j, 0.0, u);
        }
        t.resolve()
    }

    fn row(coeffs: &[(usize, f64)], sense: Sense, rhs: f64) -> LpRow {
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
                row(&[(0, 1.0)], Sense::Le, 4.0),
                row(&[(1, 2.0)], Sense::Le, 12.0),
                row(&[(0, 3.0), (1, 2.0)], Sense::Le, 18.0),
            ],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, -36.0);
                assert_close(s.values()[0], 2.0);
                assert_close(s.values()[1], 6.0);
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
                row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 10.0),
                row(&[(0, 1.0), (1, -1.0)], Sense::Eq, 2.0),
            ],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, 10.0);
                assert_close(s.values()[0], 6.0);
                assert_close(s.values()[1], 4.0);
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
                row(&[(0, 1.0)], Sense::Ge, 5.0),
                row(&[(0, 1.0)], Sense::Le, 3.0),
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
            rows: vec![row(&[(0, 1.0)], Sense::Ge, 0.0)],
        };
        assert_eq!(solve(&p), Err(IlpError::Unbounded));
    }

    #[test]
    fn upper_bounds_are_respected_without_rows() {
        // max x + y with x <= 1, y <= 1 via bounds only, x + y <= 1.5.
        let p = LpProblem {
            cost: vec![-1.0, -1.0],
            upper: vec![1.0, 1.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 1.5)],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, -1.5);
                assert!(s.values()[0] <= 1.0 + 1e-9);
                assert!(s.values()[1] <= 1.0 + 1e-9);
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
                assert_close(s.values()[0], 1.0);
                assert_close(s.values()[1], 1.0);
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
            rows: vec![row(&[(0, 1.0), (1, -1.0)], Sense::Le, -2.0)],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, 2.0);
                assert_close(s.values()[1], 2.0);
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
                row(&[(0, 1.0), (1, 1.0)], Sense::Le, 1.0),
                row(&[(0, 1.0)], Sense::Le, 1.0),
                row(&[(1, 1.0)], Sense::Le, 1.0),
                row(&[(0, 1.0), (1, 1.0)], Sense::Le, 1.0),
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
                row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 3.0),
                row(&[(2, 1.0), (3, 1.0)], Sense::Eq, 2.0),
                row(&[(0, 1.0), (2, 1.0)], Sense::Eq, 2.0),
                row(&[(1, 1.0), (3, 1.0)], Sense::Eq, 3.0),
            ],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, 6.0);
                for v in s.values() {
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
                row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 4.0),
                row(&[(0, 1.0)], Sense::Ge, 1.0),
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
            rows: vec![row(&[(5, 1.0)], Sense::Le, 1.0)],
        };
        assert!(matches!(solve(&p), Err(IlpError::UnknownVariable { .. })));
    }

    #[test]
    fn fixed_variables_stay_fixed() {
        // y fixed at 0 by upper bound; max x + 10y, x + y <= 1.
        let p = LpProblem {
            cost: vec![-1.0, -10.0],
            upper: vec![f64::INFINITY, 0.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 1.0)],
        };
        match solve(&p).unwrap() {
            Some(s) => {
                assert_close(s.objective, -1.0);
                assert_close(s.values()[1], 0.0);
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
                row(&[(0, 1.0)], Sense::Le, 4.0),
                row(&[(1, 2.0)], Sense::Le, 12.0),
                row(&[(0, 3.0), (1, 2.0)], Sense::Le, 18.0),
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
                assert!(s.values().is_empty());
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
                row(&[(0, 1.0)], Sense::Le, 4.0),
                row(&[(1, 2.0)], Sense::Le, 12.0),
                row(&[(0, 3.0), (1, 2.0)], Sense::Le, 18.0),
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
        assert_eq!(warm.values(), cold.values());
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
                row(&[(0, 1.0), (1, 2.0), (2, 1.0)], Sense::Le, 9.0),
                row(&[(0, 1.0), (1, 1.0)], Sense::Le, 5.0),
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
        // A tableau of another column count is not inherited: the
        // relaxation is solved cold.
        let other = model(&LpProblem {
            cost: vec![-1.0],
            upper: vec![1.0],
            rows: vec![row(&[(0, 1.0)], Sense::Le, 5.0)],
        })
        .unwrap();
        let fallback = other
            .solve_relaxation(
                &[(0, 0.0, 0.0)],
                Deadline::none(),
                Some(cold.tableau.clone()),
            )
            .unwrap()
            .expect("feasible");
        assert!(!fallback.warmed);
        // A column resting at a finite upper bound whose bound becomes
        // infinite falls to its lower side, where its reduced cost is
        // dual infeasible: max x with x ≤ 1 by bound and x ≤ 5 by row.
        let capped = LpProblem {
            cost: vec![-1.0],
            upper: vec![1.0],
            rows: vec![row(&[(0, 1.0)], Sense::Le, 5.0)],
        };
        let base = optimal(solve(&capped));
        assert!(base.tableau.flags[0]);
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
                row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 8.0),
                row(&[(0, 1.0)], Sense::Le, 6.0),
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
                .solve_relaxation(&[], Deadline::none(), None)
                .unwrap()
                .expect("feasible at the witness");
            for (j, var) in model.vars.iter().enumerate() {
                let v = root.values()[j];
                for frac in [0.25, 0.75] {
                    for up in [false, true] {
                        let bound = if up {
                            (j, v + frac * (var.upper - v), var.upper)
                        } else {
                            (j, var.lower, v - frac * (v - var.lower))
                        };
                        let shifted_rhs_flips = model.rows().any(|(terms, _, rhs)| {
                            let shifted = |lo_j: f64| {
                                let shift: f64 = terms
                                    .iter()
                                    .map(|&(k, c)| {
                                        c * if k == j { lo_j } else { model.vars[k].lower }
                                    })
                                    .sum();
                                rhs - shift
                            };
                            (shifted(var.lower) < 0.0) != (shifted(bound.1) < 0.0)
                        });
                        let inherited = Some(root.tableau.clone());
                        let warm = model
                            .solve_relaxation(&[bound], Deadline::none(), inherited)
                            .unwrap();
                        let cold = model
                            .solve_relaxation(&[bound], Deadline::none(), None)
                            .unwrap();
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
                        compared[usize::from(root.tableau.flags[root.tableau.n_cols + j])]
                            [usize::from(up)] += 1;
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
                sense: Sense::Le,
                rhs: 1.0,
            });
        }
        // Per-variable caps at the same level — more degenerate ties.
        for j in 0..n {
            rows.push(LpRow {
                coeffs: vec![(j, 1.0)],
                sense: Sense::Le,
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
            rows: (0..n).map(|j| row(&[(j, 1.0)], Sense::Le, 0.0)).collect(),
        }
    }

    /// `n` columns, each capped by its own `x_j ≤ 1` row and worth
    /// entering: the cold solve pivots every one of them in, so it runs
    /// `n + 1` iterations to the objective `−Σ (1 + j mod 3)`.
    fn unit_rows_problem(n: usize) -> LpProblem {
        LpProblem {
            cost: (0..n).map(|j| -1.0 - (j % 3) as f64).collect(),
            upper: vec![f64::INFINITY; n],
            rows: (0..n).map(|j| row(&[(j, 1.0)], Sense::Le, 1.0)).collect(),
        }
    }

    /// A cold solve longer than one poll stride gives up under an
    /// expired deadline and runs to the optimum under none.
    #[test]
    fn cold_solve_polls_its_deadline_every_stride() {
        let n = 2 * DEADLINE_CHECK_STRIDE;
        let p = unit_rows_problem(n);
        let m = model(&p).unwrap();
        let expired = Deadline::after(std::time::Duration::ZERO);
        assert_eq!(
            m.solve_relaxation(&[], expired, None),
            Err(IlpError::Deadline)
        );
        let s = optimal(m.solve_relaxation(&[], Deadline::none(), None));
        assert!(s.iterations > DEADLINE_CHECK_STRIDE, "{}", s.iterations);
        assert_eq!(s.pivots, n);
        assert_close(s.objective, p.cost.iter().sum());
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
            let Some(root) = model.solve_relaxation(&[], Deadline::none(), None).unwrap() else {
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
                let v = root.values()[j].clamp(model.vars[j].lower, model.vars[j].upper);
                let fixed = [(j, v, v)];
                let _ = model
                    .solve_relaxation(&fixed, Deadline::none(), None)
                    .unwrap();
                let _ = model
                    .solve_relaxation(&fixed, Deadline::none(), Some(root.tableau.clone()))
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
