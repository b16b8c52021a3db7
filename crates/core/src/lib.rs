//! EagleEye: mixed-resolution leader-follower nanosatellite constellation
//! design for high-coverage, high-resolution sensing.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (ASPLOS'24). A **leader** satellite images a wide, low-resolution
//! swath and detects targets onboard; **follower** satellites trailing it
//! carry narrow, high-resolution cameras and execute capture schedules
//! the leader computes. The crate provides:
//!
//! * [`Camera`] — the swath/GSD trade-off (paper Fig. 2/4), with the
//!   paper's two operating points and a table of real cubesat cameras.
//! * [`Adacs`] + [`pointing`] — the actuation model: slew-rate-limited
//!   rotations with fixed per-maneuver overhead (paper §5.3:
//!   `MaxAng(t) = 3·(t − 0.67)` deg), off-nadir pointing geometry
//!   (paper Eq. 1–2), and per-target visibility windows.
//! * [`clustering`] — ILP rectangle-cover target clustering so one
//!   high-resolution image captures several nearby targets (paper §4.1),
//!   plus a greedy baseline.
//! * [`schedule`] — actuation-aware follower scheduling: the paper's
//!   ILP formulation (an opportunity-graph flow problem solved by
//!   `eagleeye-ilp`), the greedy nearest-target baseline, the AB&B
//!   prior-work baseline whose runtime explodes past ~19 targets
//!   (paper Fig. 12a); its unit tests certify the ILP against an exact
//!   DP oracle.
//! * [`coverage`] — the end-to-end 24 h coverage evaluator across
//!   constellation configurations: Low-Res Only, High-Res Only, EagleEye
//!   leader-follower groups, and the Mix-Camera ablation (paper Fig. 5,
//!   9, 11, 13).
//! * [`lookahead`] — moving-target lookahead analysis (paper Fig. 10).
//!
//! # Quickstart
//!
//! ```
//! use eagleeye_core::schedule::{FollowerState, IlpScheduler, Scheduler, SchedulingProblem, TaskSpec};
//! use eagleeye_core::{Adacs, SensingSpec};
//!
//! // One follower, three clustered targets in a frame.
//! let spec = SensingSpec::paper_default();
//! let problem = SchedulingProblem::new(
//!     spec,
//!     vec![
//!         TaskSpec::new(0.0, 20_000.0, 1.0),
//!         TaskSpec::new(15_000.0, 45_000.0, 2.0),
//!         TaskSpec::new(-20_000.0, 70_000.0, 1.0),
//!     ],
//!     vec![FollowerState::at_start(-100_000.0)],
//! )?;
//! let schedule = IlpScheduler::default().schedule(&problem)?;
//! schedule.validate(&problem)?;
//! assert!(schedule.captured_count() >= 2);
//! # Ok::<(), eagleeye_core::CoreError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod actuation;
mod cameras;
pub mod clustering;
pub mod coverage;
mod error;
pub mod lookahead;
pub mod pointing;
pub mod schedule;
mod sensing;

pub use actuation::Adacs;
pub use cameras::{Camera, REAL_CUBESAT_CAMERAS};
pub use error::CoreError;
pub use sensing::SensingSpec;
