//! Orbital edge computing simulator: energy harvesting, per-subsystem
//! energy accounting, radio link budgets and fault injection for a 3U
//! cubesat.
//!
//! This crate stands in for the energy/compute side of `cote` (the
//! orbital edge computing simulator the paper builds on), using the same
//! published 3U-cubesat parameters: a single body-mounted solar panel
//! harvesting in sunlight, a Jetson AGX Orin in its 15 W mode for
//! inference, a camera with per-frame capture energy, reaction-wheel
//! ADACS power while slewing, and an S-band radio with a six-minute
//! downlink window per orbit (paper §5.3).
//!
//! The top-level entry points:
//!
//! * [`PowerProfile`] — subsystem power/energy constants.
//! * [`ActivityProfile`] — what a satellite does in one orbit (frames
//!   imaged, tiles inferred, seconds slewing and transmitting).
//! * [`simulate_orbit`] — per-orbit energy report by subsystem, the data
//!   behind the paper's Fig. 16, and the crate's one energy model: an
//!   activity is sustainable when its consumption fits the orbit's
//!   harvest (4× tiling does not fit the leader's).
//! * [`FaultPlan`] — seeded, reproducible fault injection (outages,
//!   detector dropout, link/ADACS derating, brownouts) consumed by the
//!   degraded-mode machinery in `eagleeye-core`.
//!
//! # Example
//!
//! ```
//! use eagleeye_sim::{ActivityProfile, PowerProfile, simulate_orbit};
//!
//! let power = PowerProfile::cubesat_3u();
//! let leader = ActivityProfile::leader_default(1.0); // 1x tiling
//! let report = simulate_orbit(&power, &leader, 0.62, 5_640.0);
//! assert!(report.is_energy_feasible());
//! let heavy = ActivityProfile::leader_default(4.0);  // 4x tiling
//! let report4 = simulate_orbit(&power, &heavy, 0.62, 5_640.0);
//! assert!(!report4.is_energy_feasible());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod activity;
mod energy;
mod fault;
mod power;
mod radio;

pub use activity::ActivityProfile;
pub use energy::{simulate_orbit, OrbitEnergyReport, SubsystemEnergy};
pub use fault::{Fault, FaultKind, FaultPlan};
pub use power::PowerProfile;
pub use radio::{CrosslinkBudget, DownlinkBudget, RadioModel};
