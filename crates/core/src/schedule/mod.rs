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
//! Three solvers are provided:
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
//!
//! Unit tests add a fourth, `dp::DpScheduler`: an exact bitmask dynamic
//! program over the same opportunity graph, single-follower only, the
//! oracle that certifies the ILP's optimality. It is compiled only
//! under `cfg(test)`.
//!
//! Greedy, the ILP's augmentation, [`repair`] and AB&B's child list
//! share one next-capture search: every follower cursor crossed with
//! every pending task at its earliest feasible capture time. Greedy,
//! the augmentation and repair place the first capture at the earliest
//! time and repeat; AB&B branches on all of them in time order.
//!
//! For degraded operation, [`Schedule::validate`] checks any schedule
//! against C1–C3 and [`repair`] re-plans the tasks a follower failing
//! mid-pass drops onto the survivors, with greedy's search. The
//! coverage evaluator applies both under
//! [`DegradedMode::Repair`](crate::coverage::DegradedMode::Repair).

mod abb;
#[cfg(test)]
mod dp;
mod graph;
mod greedy;
mod ilp;
mod problem;
mod types;

pub use abb::AbbScheduler;
pub use greedy::{repair, GreedyScheduler, RepairOutcome};
pub use ilp::{IlpRunStats, IlpScheduler};
pub use problem::{FollowerState, SchedulingProblem, TaskSpec};
pub use types::{Capture, Schedule, Scheduler};
