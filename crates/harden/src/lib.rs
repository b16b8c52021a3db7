//! Crash-safe long-run execution for the EagleEye pipeline.
//!
//! The paper's full-scale 24 h sweeps are exactly the workloads the
//! rest of this workspace cannot afford to lose: a single worker panic
//! aborts an evaluation with all partial work discarded, and an
//! interrupted run leaves nothing behind but a log to reconstruct CSVs
//! from (see EXPERIMENTS.md, FIG11A note). This crate is the run layer
//! that makes the *computation* fault-tolerant, the way `sim::fault` +
//! `core::schedule::resilient` made the *constellation* fault-tolerant:
//!
//! * [`snapshot`] — a versioned, CRC-guarded, atomically written
//!   (`tmp` + `fsync` + `rename`) snapshot of pipeline progress, keyed
//!   by a scenario hash so resuming a *different* scenario is rejected;
//! * [`watchdog`] — a monotonic deadline budget plus a cooperative
//!   SIGTERM-style [`ShutdownFlag`], with the strided polling
//!   discipline already used by `abb`/`simplex` generalized into
//!   [`DeadlinePoll`];
//! * [`crash`] — the `EAGLEEYE_CRASH=<spec>` test-only fault-injection
//!   hook that panics or exits at named sites, so the kill-and-resume
//!   path is exercised by real process deaths in CI.
//!
//! The supervised runner that streams work items through these pieces
//! — checkpoints on a completion cadence, retries and quarantine of
//! panicking items, degradation on a blown deadline — lives in
//! `eagleeye-exec` beside the worker pool it runs on (`exec` depends on
//! this crate, so the runner cannot live here without a cycle).
//!
//! Everything here is `std`-only and dependency-free, so any crate in
//! the workspace can depend on it without cycles. See DESIGN.md §12 for
//! the snapshot format, watchdog states, and retry policy.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod crash;
pub mod snapshot;
pub mod watchdog;

mod crc;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use crash::{crash_point, CrashMode, CrashPlan};
pub use crc::crc32;
pub use snapshot::{CheckpointSpec, FieldHash, ScenarioHasher, Snapshot, SnapshotError};
pub use watchdog::{budget_from_secs, Deadline, DeadlinePoll, ShutdownFlag};
