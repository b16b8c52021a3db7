//! EagleEye: a from-scratch Rust reproduction of the ASPLOS'24 paper
//! "EagleEye: Nanosatellite constellation design for high-coverage,
//! high-resolution sensing" (Cheng, Denby, McCleary, Lucia).
//!
//! This facade crate re-exports the workspace under one roof:
//!
//! * [`core`] — clustering, actuation-aware scheduling, coverage
//!   evaluation (the paper's contribution).
//! * [`ilp`] — the MILP solver substrate (simplex + branch-and-bound).
//! * [`orbit`] — Keplerian elements, J2 propagation, ground tracks, layouts.
//! * [`geo`] — geodesy, great circles, tangent frames, spatial index.
//! * [`sim`] — per-orbit energy, radio-link and fault models.
//! * [`datasets`] — the four synthetic evaluation workloads.
//! * [`detect`] — recall vs. GSD, inference latency and volume error models.
//! * [`obs`] — opt-in metrics/tracing (`EAGLEEYE_TRACE=1`).
//! * [`harden`] — crash-safe run layer: checkpoint/resume, deadline
//!   watchdog with anytime degradation, supervised retry/quarantine,
//!   and the `EAGLEEYE_CRASH` fault-injection hook.
//!
//! See the repository README for a walkthrough, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Example
//!
//! ```no_run
//! use eagleeye::core::coverage::{ConstellationConfig, CoverageEvaluator, CoverageOptions};
//! use eagleeye::datasets::Workload;
//!
//! let ships = Workload::ShipDetection.generate_scaled(0.1, 7_200.0, 7);
//! let eval = CoverageEvaluator::new(&ships, CoverageOptions::default());
//! let report = eval.evaluate(&ConstellationConfig::eagleeye(2, 1))?;
//! println!("{:.1}% coverage", 100.0 * report.coverage_fraction());
//! # Ok::<(), eagleeye::core::CoreError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub use eagleeye_core as core;
pub use eagleeye_datasets as datasets;
pub use eagleeye_detect as detect;
pub use eagleeye_geo as geo;
pub use eagleeye_harden as harden;
pub use eagleeye_ilp as ilp;
pub use eagleeye_obs as obs;
pub use eagleeye_orbit as orbit;
pub use eagleeye_sim as sim;
