//! Error-path coverage for the parallel execution layer: the
//! supervised run's lowest-index error under contention (the item's own
//! error or its quarantine, whichever comes first by index), panic
//! propagation from `par_map` without deadlock, and pool reuse after
//! both.

use eagleeye_exec::{run_items, ExecPool, Quarantine, RetryPolicy, RunConfig};
use eagleeye_harden::{CodecError, Deadline, ShutdownFlag};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 8, 32];

/// A supervised run of `f` over `0..total` with no checkpoint and no
/// retries, reduced to its completed values or lowest-indexed error (a
/// quarantined item reports `usize::MAX - item`).
fn supervised(
    threads: usize,
    total: usize,
    f: impl Fn(usize) -> Result<usize, usize> + Sync,
) -> Result<Vec<usize>, usize> {
    let config = RunConfig {
        scenario_hash: 0,
        threads,
        checkpoint: None,
        deadline: Deadline::none(),
        shutdown: ShutdownFlag::new(),
        retry: RetryPolicy {
            max_retries: 0,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        },
    };
    let never = |_: &Result<usize, usize>| -> Vec<u8> { unreachable!("no checkpoint") };
    let none = |_: usize, _: &[u8]| -> Result<Result<usize, usize>, CodecError> {
        unreachable!("nothing to resume")
    };
    run_items(&config, total, f, never, none)
        .expect("no checkpoint I/O")
        .into_completed(|q: Quarantine| usize::MAX - q.item)
}

#[test]
fn supervised_error_at_index_zero_wins() {
    for threads in THREAD_COUNTS {
        let r = supervised(threads, 200, |x| if x % 50 == 0 { Err(x) } else { Ok(x) });
        assert_eq!(r.unwrap_err(), 0, "threads={threads}");
    }
}

#[test]
fn supervised_error_at_last_index_is_still_found() {
    for threads in THREAD_COUNTS {
        let r = supervised(threads, 200, |x| if x == 199 { Err(x) } else { Ok(x) });
        assert_eq!(r.unwrap_err(), 199, "threads={threads}");
    }
}

#[test]
fn supervised_run_reports_lowest_of_many_errors_regardless_of_completion_order() {
    // Later indices finish *first* (earlier items spin longer), so a
    // completion-ordered implementation would report a high index. The
    // contract is lowest input index, at every thread count.
    for threads in THREAD_COUNTS {
        let r = supervised(threads, 64, |x| {
            for _ in 0..(64 - x) * 500 {
                std::hint::black_box(x);
            }
            if x % 2 == 1 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(r.unwrap_err(), 1, "threads={threads}");
    }
}

#[test]
fn supervised_all_errors_returns_index_zero_error() {
    for threads in THREAD_COUNTS {
        let r = supervised(threads, 33, Err);
        assert_eq!(r.unwrap_err(), 0, "threads={threads}");
    }
}

#[test]
fn supervised_run_still_evaluates_every_item_after_a_failure() {
    // The no-early-exit contract: errors do not suppress the
    // evaluation of other items.
    for threads in [2, 8] {
        let executed = AtomicUsize::new(0);
        let r = supervised(threads, 150, |x| {
            executed.fetch_add(1, Ordering::Relaxed);
            if x == 3 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(r.unwrap_err(), 3);
        assert_eq!(executed.load(Ordering::Relaxed), 150, "threads={threads}");
    }
}

#[test]
fn panic_in_worker_propagates_and_does_not_deadlock() {
    let items: Vec<usize> = (0..64).collect();
    for threads in THREAD_COUNTS {
        let pool = ExecPool::new(threads);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |_, &x| {
                if x == 40 {
                    panic!("worker exploded on {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("worker exploded"), "threads={threads}: {msg}");
    }
}

#[test]
fn pool_is_reusable_after_a_worker_panic() {
    let pool = ExecPool::new(4);
    let items: Vec<usize> = (0..32).collect();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        pool.par_map(&items, |_, &x| {
            if x == 7 {
                panic!("first use fails");
            }
            x
        })
    }))
    .expect_err("panic propagates");
    // The pool holds no poisoned state — the next call works normally.
    let doubled = pool.par_map(&items, |_, &x| x * 2);
    assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
}

#[test]
fn panic_in_a_supervised_item_is_its_quarantine_not_a_crash() {
    // A panicking item neither unwinds into the caller nor hides a
    // lower-indexed error: the lowest index wins, whether it failed
    // with an error or kept panicking.
    for threads in THREAD_COUNTS {
        let r = supervised(threads, 16, |x| {
            if x == 5 {
                panic!("fallible closure panicked");
            }
            if x == 9 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(r.unwrap_err(), usize::MAX - 5, "threads={threads}");
        let r = supervised(threads, 16, |x| {
            if x == 9 {
                panic!("fallible closure panicked");
            }
            if x == 5 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(r.unwrap_err(), 5, "threads={threads}");
    }
}
