//! Crash-safe long-run execution for the EagleEye pipeline.
//!
//! The paper's full-scale 24 h sweeps are exactly the workloads the
//! rest of this workspace cannot afford to lose: a single worker panic
//! aborts an evaluation with all partial work discarded, and an
//! interrupted run leaves nothing behind but a log to reconstruct CSVs
//! from (see EXPERIMENTS.md, FIG11A note). This crate is the run layer
//! that makes the *computation* fault-tolerant, the way `sim::fault`
//! and the coverage evaluator's `DegradedMode` (exclusion of dead
//! followers, validation and mid-pass repair) make the *constellation*
//! fault-tolerant:
//!
//! * [`snapshot`] — a versioned, CRC-guarded, atomically written
//!   (`tmp` + `fsync` + `rename`) snapshot of pipeline progress, keyed
//!   by a scenario hash so resuming a *different* scenario is rejected;
//! * [`watchdog`] — a monotonic [`Deadline`] budget, the one condition
//!   besides a failed checkpoint write that stops a run early;
//! * [`cli`] — the one command-line parser, with the run-layer flags
//!   ([`RUN_LAYER`]) and the exit-status contract every binary shares;
//! * [`crash`] — the `EAGLEEYE_CRASH=<spec>` test-only fault-injection
//!   hook that panics or exits at named sites, so the kill-and-resume
//!   path is exercised by real process deaths in CI.
//!
//! The supervised runner that streams work items through these pieces
//! — checkpoints on a completion cadence, a fixed retry budget and
//! quarantine for panicking items, degradation on a blown deadline —
//! is `eagleeye-exec`'s one entry point, `run_items`, on that crate's
//! claim loop (`exec` depends on this crate, so the runner cannot live
//! here without a cycle).
//!
//! Everything here is `std`-only and dependency-free, so any crate in
//! the workspace can depend on it without cycles. See DESIGN.md §12 for
//! the snapshot format, the stop conditions, and the retry budget.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub mod cli;
pub mod codec;
pub mod crash;
pub mod snapshot;
pub mod watchdog;

mod crc;

pub use cli::{Args, Flag, UsageError, RUN_LAYER, USAGE_STATUS};
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use crash::crash_point;
pub use crc::crc32;
pub use snapshot::{CheckpointSpec, FieldHash, ScenarioHasher, Snapshot, SnapshotError};
pub use watchdog::{budget_from_secs, Deadline};
