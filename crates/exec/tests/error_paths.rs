//! Error-path coverage for the parallel execution layer: the
//! supervised run's lowest-index error under contention (the item's own
//! error or its quarantine, whichever comes first by index), and
//! propagation without deadlock of a panic outside an item's
//! supervision.

use eagleeye_exec::{run_items, Quarantine, RunConfig};
use eagleeye_harden::{CheckpointSpec, CodecError, Deadline};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 8, 32];

/// A supervised run of `f` over `0..total` with no checkpoint, reduced
/// to its completed values or lowest-indexed error (a quarantined item
/// reports `usize::MAX - item`).
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
    // Encoding a checkpoint payload runs outside the item's supervision,
    // so a panic there is no item fault: it unwinds into the caller once
    // every worker stopped, at every thread count.
    let path = std::env::temp_dir().join(format!("eagleeye_error_paths_{}", std::process::id()));
    for threads in THREAD_COUNTS {
        let _ = std::fs::remove_file(&path);
        let config = RunConfig {
            scenario_hash: 0,
            threads,
            checkpoint: Some(CheckpointSpec::new(&path, 0)),
            deadline: Deadline::none(),
        };
        let encode = |&x: &usize| {
            if x == 40 {
                panic!("worker exploded on {x}");
            }
            x.to_le_bytes().to_vec()
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_items(
                &config,
                64,
                |x| x,
                encode,
                |_, _| unreachable!("nothing to resume"),
            )
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast::<String>().unwrap_or_default();
        assert!(msg.contains("worker exploded"), "threads={threads}: {msg}");
    }
    let _ = std::fs::remove_file(&path);
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
