//! Dependency-free observability layer for the EagleEye pipeline.
//!
//! The paper's headline numbers (coverage %, time-to-acquisition, ILP
//! behaviour under the actuation model) come out of a deep pipeline —
//! propagation → detection → clustering → scheduling — and until now
//! the only visibility into it was the final CSVs. This crate adds the
//! standard next layer: cheap always-on counters plus opt-in tracing,
//! in the spirit of OR-Tools' solver statistics, built purely on `std`
//! because the workspace is deliberately offline.
//!
//! # The three pieces
//!
//! * [`MetricsRegistry`] — a plain mergeable value holding counters,
//!   max-gauges, timers, and fixed-bucket integer histograms in
//!   `BTreeMap`s. [`MetricsRegistry::merge`] is *exactly* associative
//!   and commutative (integer sums, `f64::max`, integer-nanosecond
//!   `Duration` sums), which is the foundation of deterministic
//!   parallel recording.
//! * [`Metrics`] — the cloneable handle threaded through
//!   `CoverageOptions`, the bench CLI, and the exec pool. Disabled by
//!   default (every call is one branch on a `None`); enabled it wraps
//!   a shared registry behind a mutex. [`Metrics::span`] opens
//!   hierarchical timing spans (`"core/evaluate/cluster"`) recorded on
//!   drop. For parallel sections the driver [`Metrics::fork`]s one
//!   private handle per work item and [`Metrics::absorb`]s them back
//!   in input order, so totals are bit-identical at any thread count.
//! * [`export`] / [`json`] — hand-rolled JSON writer for
//!   `results/METRICS_<run>.json` artifacts (plus a stderr summary),
//!   and a minimal parser so smoke tests can validate artifacts
//!   without external dependencies.
//!
//! # Enabling
//!
//! [`Metrics::from_env`] returns an enabled handle iff
//! `EAGLEEYE_TRACE=1` (any non-empty value other than `0`). Every
//! figure binary does this at startup and calls
//! [`export::write_run`] before exiting; with the variable unset the
//! entire layer costs a handful of never-taken branches.
//!
//! # Key namespace
//!
//! Slash-separated paths, first segment = subsystem: `ilp/*` (solver
//! statistics), `orbit/*` (propagation-cache behaviour), `sim/*`
//! (fault activity), `core/*` (pipeline phases), `harden/*` (run-layer
//! state, gauges only) and `exec/threads` (the pool's worker count, a
//! gauge). DESIGN.md §10 lists the emitted keys; [`valid_key`] is the
//! namespace's one definition.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub mod export;
pub mod json;
mod metrics;
mod namespace;
mod registry;
mod stopwatch;

pub use metrics::{Metrics, SpanTimer, TRACE_ENV};
pub use namespace::valid_key;
pub use registry::{Histogram, MetricsRegistry, TimerStat};
pub use stopwatch::Stopwatch;
