//! Error-path coverage for the parallel execution layer: deterministic
//! `try_par_map` short-circuit ordering under contention, panic
//! propagation without deadlock, and pool reuse after both.

use eagleeye_exec::ExecPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 8, 32];

#[test]
fn try_par_map_error_at_index_zero_wins() {
    let items: Vec<usize> = (0..200).collect();
    for threads in THREAD_COUNTS {
        let r: Result<Vec<usize>, usize> =
            ExecPool::new(threads)
                .try_par_map(&items, |_, &x| if x % 50 == 0 { Err(x) } else { Ok(x) });
        assert_eq!(r.unwrap_err(), 0, "threads={threads}");
    }
}

#[test]
fn try_par_map_error_at_last_index_is_still_found() {
    let items: Vec<usize> = (0..200).collect();
    for threads in THREAD_COUNTS {
        let r: Result<Vec<usize>, usize> =
            ExecPool::new(threads)
                .try_par_map(&items, |_, &x| if x == 199 { Err(x) } else { Ok(x) });
        assert_eq!(r.unwrap_err(), 199, "threads={threads}");
    }
}

#[test]
fn try_par_map_reports_lowest_of_many_errors_regardless_of_completion_order() {
    // Later indices finish *first* (earlier items spin longer), so a
    // completion-ordered implementation would report a high index. The
    // contract is lowest input index, at every thread count.
    let items: Vec<usize> = (0..64).collect();
    for threads in THREAD_COUNTS {
        let r: Result<Vec<usize>, usize> = ExecPool::new(threads).try_par_map(&items, |_, &x| {
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
fn try_par_map_all_errors_returns_index_zero_error() {
    let items: Vec<u8> = vec![0; 33];
    for threads in THREAD_COUNTS {
        let r: Result<Vec<()>, usize> =
            ExecPool::new(threads).try_par_map(&items, |i, _| Err::<(), _>(i));
        assert_eq!(r.unwrap_err(), 0, "threads={threads}");
    }
}

#[test]
fn try_par_map_still_evaluates_every_item_after_a_failure() {
    // The documented no-early-exit contract: errors do not suppress
    // the evaluation of other items.
    let items: Vec<usize> = (0..150).collect();
    for threads in [2, 8] {
        let executed = AtomicUsize::new(0);
        let r: Result<Vec<usize>, usize> = ExecPool::new(threads).try_par_map(&items, |_, &x| {
            executed.fetch_add(1, Ordering::Relaxed);
            if x == 3 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(r.unwrap_err(), 3);
        assert_eq!(
            executed.load(Ordering::Relaxed),
            items.len(),
            "threads={threads}"
        );
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
fn panic_in_try_par_map_closure_propagates() {
    let items: Vec<usize> = (0..16).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        ExecPool::new(4).try_par_map(&items, |_, &x| {
            if x == 5 {
                panic!("fallible closure panicked");
            }
            Ok::<_, ()>(x)
        })
    }));
    assert!(result.is_err());
}
