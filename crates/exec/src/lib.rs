//! Dependency-free supervised parallel runs for the EagleEye pipeline.
//!
//! The paper's evaluation is embarrassingly parallel at two levels: every
//! sweep point of a figure is an independent
//! `CoverageEvaluator::evaluate` call, and within one evaluation every
//! satellite pass (a leader group's frame loop, or one swath
//! satellite's coverage) runs independently. This crate is the scaling
//! substrate for both, built purely on [`std::thread::scope`] and
//! atomics — the workspace is deliberately offline, so no `rayon`.
//!
//! One entry point, [`run_items`], runs the items of both levels on one
//! claim loop under supervision: panics retried and then quarantined,
//! results checkpointed and resumed through `eagleeye-harden`
//! snapshots, and a deadline degrading the run instead of aborting it
//! (DESIGN.md §8 and §12).
//!
//! # Determinism
//!
//! Work items are self-scheduled (workers race on an atomic cursor — the
//! cheap cousin of work stealing), but **results are indexed by input
//! position**, so the output is bit-identical at any thread count,
//! including `threads = 1` which runs inline without spawning. Callers
//! must only supply closures that are themselves pure functions of the
//! item index; every closure in this workspace derives its randomness
//! from seeded counter-based generators, so that holds.
//!
//! # Example
//!
//! ```
//! use eagleeye_exec::{run_items, RunConfig};
//! use eagleeye_harden::Deadline;
//!
//! let (checkpoint, deadline) = (None, Deadline::none());
//! let config = RunConfig { scenario_hash: 0, threads: 4, checkpoint, deadline };
//! // Without a checkpoint nothing is encoded or resumed.
//! let square = |i: usize| (i + 1) * (i + 1);
//! let outcome = run_items(&config, 4, square, |_| unreachable!(), |_, _| unreachable!())?;
//! let squares: Vec<usize> = outcome.items.into_iter().flatten().flatten().collect();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! # Ok::<(), eagleeye_harden::SnapshotError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod runner;

pub use runner::{run_items, Quarantine, RunConfig, RunOutcome};

use std::num::NonZeroUsize;

/// Number of hardware threads available to this process (at least 1).
///
/// Falls back to 1 when the platform cannot report parallelism (e.g.
/// restricted sandboxes).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_harden::Deadline;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Every item's result, in item order, of a run with no checkpoint
    /// and no deadline.
    fn run<R: Send>(threads: usize, total: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let config = RunConfig {
            scenario_hash: 0,
            threads,
            checkpoint: None,
            deadline: Deadline::none(),
        };
        let outcome = run_items(
            &config,
            total,
            f,
            |_| unreachable!("no checkpoint"),
            |_, _| unreachable!("nothing to resume"),
        )
        .unwrap();
        let out: Vec<R> = outcome.items.into_iter().flatten().flatten().collect();
        assert_eq!(out.len(), total, "every item completes");
        out
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        // Each item waits until as many items are in flight as the
        // machine has threads; a worker holds its item meanwhile, so
        // every item sees the rendezvous only when `threads: 0` started
        // that many workers.
        let cores = available_parallelism();
        let in_flight = AtomicUsize::new(0);
        let met = run(0, cores, |_| {
            in_flight.fetch_add(1, Ordering::SeqCst);
            let patience = Deadline::after(Duration::from_secs(20));
            while in_flight.load(Ordering::SeqCst) < cores {
                if patience.expired() {
                    return false;
                }
                std::thread::yield_now();
            }
            true
        });
        assert!(met.iter().all(|&m| m), "fewer than {cores} workers ran");
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let calls = AtomicUsize::new(0);
        let got = run(8, 0, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert!(got.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let got = run(7, runs.len(), |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1));
    }
}
