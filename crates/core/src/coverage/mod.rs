//! End-to-end coverage evaluation (paper §5–6).
//!
//! Simulates a constellation over a target workload for a configurable
//! duration and reports the fraction of targets captured in
//! high-resolution imagery. Four constellation organizations are
//! modeled, mirroring the paper's Fig. 5:
//!
//! * **Low-Res Only** — homogeneous wide-swath constellation; counts a
//!   target as covered when it falls in the 100 km swath, but delivers
//!   only low-resolution data (the paper plots it as the physical upper
//!   bound).
//! * **High-Res Only** — homogeneous narrow-swath constellation imaging
//!   at nadir.
//! * **EagleEye** — leader-follower groups: leaders detect (with a
//!   recall model), cluster, and schedule; followers capture. Both the
//!   ILP and greedy schedulers and all clustering modes are selectable.
//! * **Mix-Camera** — both cameras on one satellite; onboard compute
//!   time eats into each frame's capture window (paper Fig. 9/13).
//!
//! Faults are injected via [`CoverageOptions::fault_plan`] (an
//! `Arc`-shared `eagleeye_sim::FaultPlan`). Its leader and follower
//! outages are the paper's §4.7 reliability scenarios: while a leader is
//! out, its group falls back to nadir high-resolution capture; beyond
//! the paper, the plan also models detector dropout, radio/ADACS
//! derating and battery brownouts. [`DegradedMode`] selects how the
//! leader reacts to follower outages: it naively keeps tasking dead
//! satellites (the baseline for the fault-tolerance study), excludes
//! them, or excludes them and also repairs mid-pass failures.
//!
//! [`CoverageEvaluator::evaluate`] is the crash-safe
//! [`CoverageEvaluator::evaluate_hardened`] with inert options: both
//! take the configuration apart into per-satellite passes (one per
//! leader group, or one per swath satellite) and run them through one
//! supervised runner. Membership always comes from the compiled-track
//! engine (DESIGN.md §13); the per-frame spatial-query
//! walk it replaced survives only as a test oracle beside the engine.

mod compile;
mod config;
mod delta;
mod evaluator;
mod harden;
mod report;

pub use compile::CompileStats;
pub use config::{ConstellationConfig, DegradedMode, SchedulerKind};
pub use delta::{DeltaStats, ScenarioDelta};
pub use evaluator::{CoverageEvaluator, CoverageOptions};
pub use harden::{HardenOptions, HardenedOutcome};
pub use report::CoverageReport;
