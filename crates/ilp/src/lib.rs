//! A small, exact mixed-integer linear programming solver.
//!
//! The EagleEye paper solves two optimization problems with Google
//! OR-Tools: target clustering (a planar rectangle cover) and
//! actuation-aware follower scheduling (a generalized-TSP-style flow
//! problem). This crate provides the solver substrate from scratch:
//!
//! * [`Model`] — a builder for LP/MILP models: variables with bounds
//!   (continuous or integer), linear constraints, and a linear objective.
//! * A dense, bounded-variable, two-phase **primal simplex** for the LP
//!   relaxation. Only the root is solved cold: every other node takes
//!   its parent's final tableau, applies its one bound change and
//!   re-solves with a few dual-simplex pivots. Pricing keeps one weight
//!   per column (±1 by the bound it rests at, 0 when it cannot enter),
//!   updated only at pivots and bound flips, so choosing the entering
//!   column is one product per column; after a pivot that choice is made
//!   in the same pass that updates the reduced costs.
//! * A depth-first **branch-and-bound** with most-fractional branching,
//!   incumbent pruning, and time/node limits for integrality: one
//!   search loop, [`Model::solve`], which a limit ends with the best
//!   incumbent found so far.
//!
//! The instances EagleEye produces are small (hundreds of variables per
//! scheduling frame) and near-network-structured, so an exact dense solver
//! closes them in milliseconds — reproducing the runtime behaviour of
//! Fig. 12a.
//!
//! # Example: a tiny knapsack
//!
//! ```
//! use eagleeye_ilp::{Model, Sense, SolveOptions};
//!
//! let mut m = Model::maximize();
//! let x = m.add_binary_var(8.0);  // value 8, weight 5
//! let y = m.add_binary_var(5.0);  // value 5, weight 3
//! let z = m.add_binary_var(4.0);  // value 4, weight 3
//! m.add_constraint([(x, 5.0), (y, 3.0), (z, 3.0)], Sense::Le, 6.0)?;
//! let sol = m.solve(&SolveOptions::default())?;
//! assert!((sol.objective() - 9.0).abs() < 1e-6); // take y and z
//! # Ok::<(), eagleeye_ilp::IlpError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod branch;
mod error;
mod model;
mod simplex;

pub use branch::{SolveOptions, SolveStats};
pub use error::IlpError;
pub use model::{Model, ObjectiveDirection, Sense, Solution, SolveStatus, VarId};
pub use simplex::COST_TOL;
