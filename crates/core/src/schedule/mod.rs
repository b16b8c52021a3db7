//! Actuation-aware follower scheduling (paper §3.3, §4.2–4.3).
//!
//! Given the clustered targets of a leader frame, each with a priority
//! value and a visibility window, and the state of each follower
//! (along-track position, current pointing, time it becomes available),
//! produce per-follower capture sequences that maximize the total value
//! of captured targets subject to the paper's constraints:
//!
//! * **C1** — consecutive captures are separated by enough time for the
//!   ADACS to rotate between the two pointings
//!   (`MaxAng(t) = rate·(t − overhead)`).
//! * **C2** — every capture is within the maximum off-nadir angle.
//! * **C3** — the target lies inside the captured footprint (guaranteed
//!   by construction: captures point at cluster centers).
//!
//! Four solvers are provided:
//!
//! * [`IlpScheduler`] — the paper's approach: an ILP over a discretized
//!   *opportunity graph* (capture slots per target, slew-feasibility
//!   arcs, and a "rest chain" encoding that any rotation is feasible
//!   given enough time), solved exactly by `eagleeye-ilp`. Runtime is
//!   low and flat in target count (paper Fig. 12a).
//! * [`GreedyScheduler`] — nearest-feasible-target-next (paper §4.3's
//!   alternative), 4.3–14.4 % less coverage in the paper.
//! * [`AbbScheduler`] — a reimplementation of the prior-work anytime
//!   branch-and-bound over capture *sequences* [Chu et al. 2017], whose
//!   runtime explodes combinatorially past ~19 targets (Fig. 12a).
//! * [`DpScheduler`] — an exact bitmask dynamic program over the same
//!   opportunity graph, single-follower only; the test oracle that
//!   certifies the ILP's optimality.
//!
//! For degraded operation there is additionally
//! [`ResilientScheduler`] — a budgeted wrapper around the ILP with
//! greedy fallback, post-validation ([`validate_schedule`]), and
//! mid-pass failure repair — whose [`ScheduleOutcome`] records which
//! solver produced each horizon and why.

mod abb;
mod dp;
mod graph;
mod greedy;
mod ilp;
mod problem;
mod resilient;
mod types;

pub use abb::AbbScheduler;
pub use dp::DpScheduler;
pub use greedy::GreedyScheduler;
pub use ilp::{IlpRunStats, IlpScheduler};
pub use problem::{FollowerState, SchedulingProblem, TaskSpec};
pub use resilient::{
    validate_schedule, FallbackReason, RepairOutcome, ResilientScheduler, ScheduleOutcome,
    SolverChoice,
};
pub use types::{Capture, Schedule, Scheduler};
