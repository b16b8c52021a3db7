//! Dependency-free parallel execution layer for the EagleEye pipeline.
//!
//! The paper's evaluation is embarrassingly parallel at two levels: every
//! sweep point of a figure is an independent
//! `CoverageEvaluator::evaluate` call, and within one evaluation every
//! satellite pass (a leader group's frame loop, or one swath
//! satellite's coverage) runs independently. This crate is the scaling
//! substrate for both, built purely on [`std::thread::scope`] and
//! atomics — the workspace is deliberately offline, so no `rayon`.
//!
//! One claim loop serves two entry points: [`ExecPool::par_map`] (and
//! its metrics-forking [`ExecPool::par_map_observed`]) for plain maps,
//! and [`run_items`] for supervised runs — panics retried and then
//! quarantined, results checkpointed and resumed through
//! `eagleeye-harden` snapshots, and a deadline or shutdown request
//! degrading the run instead of aborting it (DESIGN.md §8 and §12).
//!
//! # Determinism
//!
//! Work items are self-scheduled (workers race on an atomic cursor — the
//! cheap cousin of work stealing), but **results are indexed by input
//! position**, so the output `Vec` is bit-identical at any thread count,
//! including `threads = 1` which runs inline without spawning. Callers
//! must only supply closures that are themselves pure functions of
//! `(index, item)`; every closure in this workspace derives its
//! randomness from seeded counter-based generators, so that holds.
//!
//! # Example
//!
//! ```
//! use eagleeye_exec::ExecPool;
//!
//! let pool = ExecPool::new(4);
//! let squares = pool.par_map(&[1, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod runner;

pub use runner::{run_items, DegradeReason, Quarantine, RetryPolicy, RunConfig, RunOutcome};

use eagleeye_obs::Metrics;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads available to this process (at least 1).
///
/// Falls back to 1 when the platform cannot report parallelism (e.g.
/// restricted sandboxes).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Renders a panic payload (the `&str` or `String` message, when there
/// is one) for quarantine reports and enriched panic rethrows.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one work item, rethrowing any panic with the worker and item
/// index prepended. A bare `resume_unwind` loses all context about
/// *which* item of *which* worker died — useless in a 24 h sweep log.
fn run_enriched<R>(worker: usize, item: usize, f: impl FnOnce() -> R) -> R {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => resume_unwind(Box::new(format!(
            "worker {worker} item {item} panicked: {}",
            panic_message(payload.as_ref())
        ))),
    }
}

/// A scoped worker pool with deterministic result ordering.
///
/// The pool holds no threads between calls: each call spawns scoped
/// workers that self-schedule items off a shared atomic cursor and exit
/// when the input is drained. For the coarse work items this workspace
/// parallelizes (whole coverage evaluations, per-satellite passes),
/// spawn cost is noise; what matters is that results come back ordered
/// by input index regardless of completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPool {
    threads: usize,
}

impl Default for ExecPool {
    /// A pool sized to [`available_parallelism`].
    fn default() -> Self {
        ExecPool::new(0)
    }
}

impl ExecPool {
    /// Creates a pool with `threads` workers; `0` means
    /// [`available_parallelism`].
    pub fn new(threads: usize) -> Self {
        ExecPool {
            threads: if threads == 0 {
                available_parallelism()
            } else {
                threads
            },
        }
    }

    /// Configured worker count (never 0).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The claim loop behind every pool call, [`run_items`] included:
    /// workers claim the indices `0..len` off one atomic cursor, each
    /// checking `stop` before every claim, and `f(worker, index)` lands
    /// in slot `index` of the result. Indices never claimed because
    /// `stop` fired keep a `None` slot. Runs inline on the calling
    /// thread, with no spawn, when one worker suffices.
    ///
    /// A panic in `f` is propagated to the caller after all workers
    /// stop.
    fn claim<R: Send>(
        &self,
        len: usize,
        stop: impl Fn() -> bool + Sync,
        f: impl Fn(usize, usize) -> R + Sync,
    ) -> Vec<Option<R>> {
        let mut slots: Vec<Option<R>> = Vec::with_capacity(len);
        let workers = self.threads.min(len);
        if workers <= 1 {
            for i in 0..len {
                if stop() {
                    break;
                }
                slots.push(Some(f(0, i)));
            }
            slots.resize_with(len, || None);
            return slots;
        }

        let cursor = AtomicUsize::new(0);
        let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (cursor, stop, f) = (&cursor, &stop, &f);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        while !stop() {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= len {
                                break;
                            }
                            out.push((i, f(w, i)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)))
                .collect()
        });

        // Reassemble in input order: position-indexed, not
        // completion-ordered.
        slots.resize_with(len, || None);
        for (i, r) in buckets.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
    }

    /// Applies `f(index, item)` to every item, returning results in
    /// input order. Runs inline when one worker suffices.
    ///
    /// # Panics
    ///
    /// A panic in `f` is propagated to the caller after all workers
    /// stop, with the worker and item index prepended to its message.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Nothing stops the loop, so every slot is filled.
        let out: Vec<R> = self
            .claim(
                items.len(),
                || false,
                |w, i| run_enriched(w, i, || f(i, &items[i])),
            )
            .into_iter()
            .flatten()
            .collect();
        debug_assert_eq!(out.len(), items.len(), "every index claimed once");
        out
    }

    /// [`ExecPool::par_map`] with deterministic metrics collection:
    /// every work item gets a private [`Metrics::fork`] (so workers
    /// never contend on the shared registry), and the forks are
    /// absorbed back into `metrics` **in input order** after the pool
    /// drains. Because registry merge is exactly associative and
    /// commutative, the absorbed totals are bit-identical at any
    /// thread count. When `metrics` is disabled the forks are free and
    /// this is [`ExecPool::par_map`] plus a few never-taken branches.
    ///
    /// Also raises the `exec/threads` gauge to the pool's worker count;
    /// it records no counter, so counters and histograms stay equal at
    /// any thread count.
    ///
    /// # Panics
    ///
    /// A panic in `f` is propagated to the caller after all workers
    /// stop.
    pub fn par_map_observed<T, R, F>(&self, metrics: &Metrics, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, &Metrics) -> R + Sync,
    {
        metrics.gauge_max("exec/threads", self.threads as f64);
        let pairs = self.par_map(items, |i, x| {
            let fork = metrics.fork();
            let r = f(i, x, &fork);
            (r, fork)
        });
        let mut out = Vec::with_capacity(pairs.len());
        for (r, fork) in pairs {
            metrics.absorb(&fork);
            out.push(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert_eq!(ExecPool::new(0).threads(), available_parallelism());
        assert!(ExecPool::default().threads() >= 1);
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = ExecPool::new(threads).par_map(&items, |_, &x| x * 3 + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_passes_matching_indices() {
        let items = vec![10usize; 100];
        let got = ExecPool::new(4).par_map(&items, |i, &x| i + x);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i + 10);
        }
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let got: Vec<i32> = ExecPool::new(8).par_map(&[] as &[i32], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<u8> = vec![0; 1000];
        ExecPool::new(7).par_map(&items, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn observed_map_merges_deterministically_across_thread_counts() {
        let items: Vec<u64> = (0..97).collect();
        let run = |threads: usize| {
            let metrics = Metrics::enabled();
            let got = ExecPool::new(threads).par_map_observed(&metrics, &items, |_, &x, m| {
                m.add("work/value_sum", x);
                m.incr("work/calls");
                m.observe("work/values", x, &[16, 48, 96]);
                x * 2
            });
            (got, metrics.snapshot())
        };
        let (base_out, base_snap) = run(1);
        assert_eq!(base_snap.counter("work/calls"), 97);
        assert_eq!(base_snap.counter("work/value_sum"), 96 * 97 / 2);
        for threads in [2, 4, 8] {
            let (out, snap) = run(threads);
            assert_eq!(out, base_out, "threads={threads}");
            // Counters and histograms are bit-identical at any thread
            // count; only the pool-shape gauge (`exec/threads`)
            // legitimately differs between runs.
            let counters: Vec<_> = snap.counters().collect();
            assert_eq!(
                counters,
                base_snap.counters().collect::<Vec<_>>(),
                "threads={threads}"
            );
            let hists: Vec<_> = snap.histograms().collect();
            assert_eq!(
                hists,
                base_snap.histograms().collect::<Vec<_>>(),
                "threads={threads}"
            );
            assert_eq!(snap.gauge("exec/threads"), Some(threads as f64));
        }
    }

    #[test]
    fn observed_map_records_pool_shape() {
        let metrics = Metrics::enabled();
        ExecPool::new(3).par_map_observed(&metrics, &[1, 2, 3, 4], |_, &x: &i32, _| x);
        let snap = metrics.snapshot();
        // Pool shape is a gauge only: no counter may differ between
        // thread counts.
        assert_eq!(snap.counters().count(), 0);
        assert_eq!(snap.gauge("exec/threads"), Some(3.0));
    }

    #[test]
    fn observed_map_with_disabled_metrics_is_plain_par_map() {
        let metrics = Metrics::disabled();
        let got = ExecPool::new(4).par_map_observed(&metrics, &[1u64, 2, 3], |_, &x, m| {
            m.incr("ignored");
            x + 1
        });
        assert_eq!(got, vec![2, 3, 4]);
        assert!(metrics.snapshot().is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        ExecPool::new(4).par_map(&items, |_, &x| {
            if x == 11 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "item 11 panicked: boom")]
    fn propagated_panics_carry_item_context() {
        let items: Vec<usize> = (0..16).collect();
        ExecPool::new(4).par_map(&items, |_, &x| {
            if x == 11 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "worker 0 item 3 panicked: inline boom")]
    fn inline_panics_carry_item_context_too() {
        let items: Vec<usize> = (0..8).collect();
        ExecPool::new(1).par_map(&items, |_, &x| {
            if x == 3 {
                panic!("inline boom");
            }
            x
        });
    }
}
