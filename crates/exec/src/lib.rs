//! Dependency-free parallel execution layer for the EagleEye pipeline.
//!
//! The paper's evaluation is embarrassingly parallel at two levels: every
//! sweep point of a figure is an independent
//! `CoverageEvaluator::evaluate` call, and within one evaluation every
//! leader group schedules its followers independently. This crate is the
//! scaling substrate for both, built purely on [`std::thread::scope`] and
//! atomics — the workspace is deliberately offline, so no `rayon`.
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

use eagleeye_harden::{crash_point, panic_message, Quarantine, RetryPolicy};
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

/// Splits `0..len` into at most `chunks` contiguous, near-equal,
/// non-empty ranges covering `0..len` exactly, in order.
///
/// The partition is a pure function of `(len, chunks)` — callers that
/// fan work items out over the ranges and merge results back in range
/// order get output independent of how many workers actually ran (the
/// deterministic frame-range decomposition of DESIGN.md §13). Returns
/// an empty vector when `len == 0`; `chunks` is clamped to at least 1.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
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

/// Runs one work item under supervision: panics are caught, retried
/// per `retry` with capped backoff, and converted into a [`Quarantine`]
/// when they persist.
fn run_supervised<R>(retry: &RetryPolicy, item: usize, f: impl Fn() -> R) -> Result<R, Quarantine> {
    let mut attempt = 0usize;
    loop {
        attempt += 1;
        // Crash-injection site shared with the harden runner: the
        // supervised unit of work (see `eagleeye_harden::crash`).
        crash_point("worker_item");
        match catch_unwind(AssertUnwindSafe(&f)) {
            Ok(r) => return Ok(r),
            Err(payload) => {
                if attempt > retry.max_retries {
                    return Err(Quarantine {
                        item,
                        attempts: attempt,
                        message: panic_message(payload.as_ref()),
                    });
                }
                let backoff = retry.backoff(attempt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

/// Result of [`ExecPool::par_map_supervised`]: per-item results in
/// input order, with quarantined items reported instead of computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supervised<R> {
    /// `Some(result)` per item in input order; `None` for quarantined
    /// items.
    pub results: Vec<Option<R>>,
    /// Items whose closure kept panicking after all retries, sorted by
    /// item index.
    pub quarantined: Vec<Quarantine>,
}

impl<R> Supervised<R> {
    /// True when every item produced a result.
    pub fn all_ok(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// A scoped worker pool with deterministic result ordering.
///
/// The pool holds no threads between calls: each `par_*` invocation
/// spawns scoped workers that self-schedule items off a shared atomic
/// cursor and exit when the input is drained. For the coarse work items
/// this workspace parallelizes (whole coverage evaluations, per-group
/// frame loops), spawn cost is noise; what matters is that results come
/// back ordered by input index regardless of completion order.
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

    /// Applies `f(index, item)` to every item, returning results in
    /// input order. Runs inline when one worker suffices.
    ///
    /// # Panics
    ///
    /// A panic in `f` is propagated to the caller after all workers
    /// stop.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, x)| run_enriched(0, i, || f(i, x)))
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let cursor = &cursor;
                    let f = &f;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            out.push((i, run_enriched(w, i, || f(i, &items[i]))));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });

        // Reassemble in input order: position-indexed, not
        // completion-ordered.
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for (i, r) in buckets.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| match s {
                Some(r) => r,
                // The strided scheduler assigns every index to exactly
                // one worker, so every slot is filled.
                None => unreachable!("every index scheduled exactly once"),
            })
            .collect()
    }

    /// Supervised [`ExecPool::par_map`]: a panic in `f` no longer
    /// aborts the whole batch. Each item's panics are caught
    /// (`catch_unwind`), retried per `retry` with capped exponential
    /// backoff, and — when they persist — the item is quarantined
    /// (reported in the result, not fatal) while every other item
    /// completes normally.
    ///
    /// When nothing fails the results are **bit-identical** to
    /// [`ExecPool::par_map`] (same position-indexed ordering, same
    /// values) at any thread count; supervision only adds a
    /// never-taken branch per item.
    pub fn par_map_supervised<T, R, F>(
        &self,
        items: &[T],
        retry: &RetryPolicy,
        f: F,
    ) -> Supervised<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        let attempts: Vec<(usize, Result<R, Quarantine>)> = if workers <= 1 {
            items
                .iter()
                .enumerate()
                .map(|(i, x)| (i, run_supervised(retry, i, || f(i, x))))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let cursor = &cursor;
                        let f = &f;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= items.len() {
                                    break;
                                }
                                out.push((i, run_supervised(retry, i, || f(i, &items[i]))));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };

        let mut slots: Vec<Option<Result<R, Quarantine>>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for (i, r) in attempts {
            slots[i] = Some(r);
        }
        let mut results = Vec::with_capacity(items.len());
        let mut quarantined = Vec::new();
        // Slot order doubles as the sort by item index.
        for slot in slots {
            // eagleeye-lint: allow(no-unwrap): the claim loop above assigns every index in 0..len exactly once, so no slot can be None
            match slot.expect("every index scheduled exactly once") {
                Ok(r) => results.push(Some(r)),
                Err(q) => {
                    results.push(None);
                    quarantined.push(q);
                }
            }
        }
        Supervised {
            results,
            quarantined,
        }
    }

    /// Fallible [`ExecPool::par_map`]: applies `f` to every item and
    /// returns all results, or the error of the **lowest-indexed**
    /// failing item.
    ///
    /// All items are evaluated even after a failure so the returned
    /// error does not depend on scheduling order (determinism over
    /// early-exit; errors are exceptional in this workspace).
    ///
    /// # Errors
    ///
    /// Returns the first error by input index.
    pub fn try_par_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let mut ok = Vec::with_capacity(items.len());
        for r in self.par_map(items, f) {
            ok.push(r?);
        }
        Ok(ok)
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
    /// Also records the pool shape under `exec/*`: `exec/par_maps`,
    /// `exec/items`, and the `exec/threads` max-gauge.
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
        if metrics.is_enabled() {
            metrics.incr("exec/par_maps");
            metrics.add("exec/items", items.len() as u64);
            metrics.gauge_max("exec/threads", self.threads as f64);
        }
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

    /// Fallible [`ExecPool::par_map_observed`]: like
    /// [`ExecPool::try_par_map`], all items are evaluated and the
    /// lowest-indexed error is returned; every fork is absorbed in
    /// input order (even on failure, so the metrics of an errored run
    /// are deterministic too).
    ///
    /// # Errors
    ///
    /// Returns the first error by input index.
    pub fn try_par_map_observed<T, R, E, F>(
        &self,
        metrics: &Metrics,
        items: &[T],
        f: F,
    ) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T, &Metrics) -> Result<R, E> + Sync,
    {
        let mut err: Option<E> = None;
        let mut ok = Vec::with_capacity(items.len());
        for r in self.par_map_observed(metrics, items, f) {
            match r {
                Ok(v) => ok.push(v),
                Err(e) => {
                    if err.is_none() {
                        err = Some(e);
                    }
                }
            }
        }
        match err {
            Some(e) => Err(e),
            None => Ok(ok),
        }
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
    fn try_par_map_returns_lowest_index_error() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let r: Result<Vec<usize>, usize> = ExecPool::new(threads)
                .try_par_map(&items, |_, &x| if x % 7 == 3 { Err(x) } else { Ok(x) });
            assert_eq!(r.unwrap_err(), 3, "threads={threads}");
        }
        let ok: Result<Vec<usize>, ()> = ExecPool::new(4).try_par_map(&items, |_, &x| Ok(x * 2));
        assert_eq!(ok.unwrap()[50], 100);
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
        assert_eq!(snap.counter("exec/par_maps"), 1);
        assert_eq!(snap.counter("exec/items"), 4);
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
    fn try_observed_map_keeps_metrics_on_error() {
        let metrics = Metrics::enabled();
        let items: Vec<usize> = (0..50).collect();
        let r: Result<Vec<usize>, usize> =
            ExecPool::new(4).try_par_map_observed(&metrics, &items, |_, &x, m| {
                m.incr("attempts");
                if x % 9 == 5 {
                    Err(x)
                } else {
                    Ok(x)
                }
            });
        assert_eq!(r.unwrap_err(), 5);
        // All items were evaluated and all forks absorbed.
        assert_eq!(metrics.snapshot().counter("attempts"), 50);
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

    #[test]
    fn supervised_map_with_zero_faults_matches_par_map() {
        let items: Vec<usize> = (0..113).collect();
        let f = |i: usize, x: &usize| i * 31 + x * 7;
        let plain = ExecPool::new(1).par_map(&items, f);
        for threads in [1, 2, 4, 8] {
            let sup = ExecPool::new(threads).par_map_supervised(&items, &RetryPolicy::default(), f);
            assert!(sup.all_ok(), "threads={threads}");
            let unwrapped: Vec<usize> = sup.results.into_iter().map(Option::unwrap).collect();
            assert_eq!(unwrapped, plain, "threads={threads}");
        }
    }

    #[test]
    fn supervised_map_retries_transient_failures() {
        let failures = AtomicUsize::new(0);
        let items: Vec<usize> = (0..32).collect();
        let retry = RetryPolicy {
            max_retries: 3,
            backoff_base: std::time::Duration::ZERO,
            backoff_cap: std::time::Duration::ZERO,
        };
        let sup = ExecPool::new(4).par_map_supervised(&items, &retry, |_, &x| {
            if x == 20 && failures.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            x * 2
        });
        assert!(sup.all_ok());
        assert_eq!(sup.results[20], Some(40));
    }

    #[test]
    fn supervised_map_quarantines_deterministic_failures() {
        let items: Vec<usize> = (0..32).collect();
        let retry = RetryPolicy {
            max_retries: 1,
            backoff_base: std::time::Duration::ZERO,
            backoff_cap: std::time::Duration::ZERO,
        };
        for threads in [1, 4] {
            let sup = ExecPool::new(threads).par_map_supervised(&items, &retry, |_, &x| {
                if x % 13 == 7 {
                    panic!("bad item {x}");
                }
                x
            });
            assert!(!sup.all_ok(), "threads={threads}");
            let bad: Vec<usize> = sup.quarantined.iter().map(|q| q.item).collect();
            assert_eq!(bad, vec![7, 20], "threads={threads}");
            for q in &sup.quarantined {
                assert_eq!(q.attempts, 2);
                assert!(q.message.contains("bad item"));
                assert!(sup.results[q.item].is_none());
            }
            // Every non-quarantined item still completed.
            assert_eq!(sup.results.iter().filter(|r| r.is_some()).count(), 30);
        }
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        assert!(chunk_ranges(0, 4).is_empty());
        assert_eq!(chunk_ranges(5, 1), vec![0..5]);
        // More chunks than items clamps to one item per chunk.
        assert_eq!(chunk_ranges(3, 10), vec![0..1, 1..2, 2..3]);
        // Remainder spreads over the leading chunks, largest first.
        assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        // chunks == 0 behaves as one chunk.
        assert_eq!(chunk_ranges(7, 0), vec![0..7]);
        for (len, chunks) in [(1, 1), (17, 4), (64, 16), (100, 7), (5760, 16)] {
            let ranges = chunk_ranges(len, chunks);
            // Contiguous cover of 0..len with no gaps or overlaps, and
            // chunk sizes never differ by more than one — the property
            // the deterministic frame-range merge relies on.
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(len));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "len={len} chunks={chunks}");
            }
            let min = ranges.iter().map(|r| r.len()).min().unwrap_or(0);
            let max = ranges.iter().map(|r| r.len()).max().unwrap_or(0);
            assert!(max - min <= 1, "len={len} chunks={chunks}");
        }
    }
}
