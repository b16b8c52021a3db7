//! Supervised runs: retry, quarantine, checkpoint/resume and anytime
//! degradation on one claim loop.
//!
//! [`run_items`] runs the item indices on the claim loop under
//! supervision:
//!
//! * a per-item panic is caught (`catch_unwind`) and the item rerun at
//!   once, up to three tries in all; an item that panics on every try
//!   is quarantined and reported instead of aborting the run. An item
//!   is a pure function of its index, so a retry sees the same inputs
//!   as the first try: only a one-shot fault (an `EAGLEEYE_CRASH`
//!   panic injection) is recovered by retrying;
//! * with a [`CheckpointSpec`], each completed item is encoded into a
//!   [`Snapshot`] section and the snapshot is published every
//!   [`CheckpointSpec::cadence`] completions (atomically, see
//!   `eagleeye_harden::snapshot`), so a killed process resumes from the
//!   last published snapshot instead of from zero;
//! * a blown [`Deadline`] or a failed checkpoint write stops *dispatch*
//!   (in-flight items finish, nothing new starts); on a deadline the
//!   partials are kept, a final checkpoint is written, and the items
//!   never dispatched are left `None` in [`RunOutcome::items`].
//!
//! Results come back in item order as the caller's own typed values:
//! only resumed items are decoded, and items are encoded only when a
//! checkpoint is configured. A fault-free run is therefore the plain
//! indexed map — inline at one thread — bit-identical at any thread
//! count and any checkpoint cadence.

use crate::available_parallelism;
use eagleeye_harden::{crash_point, CheckpointSpec, CodecError, Deadline, Snapshot, SnapshotError};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Tries a panicking item gets before it is quarantined: the first
/// run plus two retries.
const ATTEMPTS: usize = 3;

/// An item that panicked on each of its three tries: reported, not
/// fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Item index.
    pub item: usize,
    /// The final panic message.
    pub message: String,
}

impl fmt::Display for Quarantine {
    /// `<item> quarantined after <attempts> attempts: <message>`, for a
    /// caller to prefix with what its items are.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} quarantined after {ATTEMPTS} attempts: {}",
            self.item, self.message
        )
    }
}

/// Configuration for a supervised run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Scenario hash binding checkpoints to this exact workload.
    pub scenario_hash: u64,
    /// Worker threads; `0` means [`crate::available_parallelism`].
    pub threads: usize,
    /// Optional checkpoint/resume behavior.
    pub checkpoint: Option<CheckpointSpec>,
    /// Wall-clock budget; [`Deadline::none`] for deterministic runs.
    pub deadline: Deadline,
}

/// The result of a supervised run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome<R> {
    /// One slot per item, in item order: the item's result (computed or
    /// resumed), its [`Quarantine`] when it kept panicking, or `None`
    /// when the deadline stopped the run before dispatching it.
    pub items: Vec<Option<Result<R, Quarantine>>>,
    /// Items whose results came from the resumed checkpoint.
    pub resumed_items: usize,
}

impl<R> RunOutcome<R> {
    /// Items with a result (computed or resumed).
    pub fn completed(&self) -> usize {
        self.items
            .iter()
            .filter(|s| matches!(s, Some(Ok(_))))
            .count()
    }
}

impl<T, E> RunOutcome<Result<T, E>> {
    /// The results of the items that ran, in item order, or the error
    /// of the **lowest-indexed** item that failed: its own `Err`, or
    /// `quarantined(q)` when it kept panicking. Items never dispatched
    /// (a degraded run) are skipped. Every item ran before this is
    /// called, so the error does not depend on scheduling order.
    ///
    /// # Errors
    ///
    /// The first failure by item index.
    pub fn into_completed(self, quarantined: impl FnOnce(Quarantine) -> E) -> Result<Vec<T>, E> {
        let mut out = Vec::with_capacity(self.items.len());
        for slot in self.items.into_iter().flatten() {
            match slot {
                Ok(Ok(v)) => out.push(v),
                Ok(Err(e)) => return Err(e),
                Err(q) => return Err(quarantined(q)),
            }
        }
        Ok(out)
    }
}

/// Snapshot state of a checkpointed run, shared by the workers.
struct Checkpoint<'a> {
    spec: &'a CheckpointSpec,
    snapshot: Snapshot,
    since_write: usize,
    error: Option<SnapshotError>,
}

/// Runs `f(0..total)` under supervision on `config.threads` workers:
/// retry plus quarantine on panics, streaming checkpoints, resume, and
/// anytime degradation on a deadline (see the module docs).
///
/// `encode` turns a completed item into its checkpoint payload and is
/// called only when a checkpoint is configured; `decode(index, bytes)`
/// restores a resumed item and is called only for items the resumed
/// snapshot holds. A resumed item never runs `f`.
///
/// # Errors
///
/// Checkpoint I/O and resume validation failures ([`SnapshotError`]),
/// including a resumed payload that `decode` rejects
/// ([`SnapshotError::Malformed`]); worker panics are *handled*
/// (retried, then quarantined), never returned.
///
/// # Panics
///
/// A panic while publishing a checkpoint is not an item fault: it
/// propagates to the caller after all workers stop.
pub fn run_items<R, F, E, D>(
    config: &RunConfig,
    total: usize,
    f: F,
    encode: E,
    decode: D,
) -> Result<RunOutcome<R>, SnapshotError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    E: Fn(&R) -> Vec<u8> + Sync,
    D: Fn(usize, &[u8]) -> Result<R, CodecError>,
{
    let mut items: Vec<Option<Result<R, Quarantine>>> = Vec::with_capacity(total);
    items.resize_with(total, || None);
    let mut resumed_items = 0;

    // Resume: prefill results from the snapshot, if one exists, and
    // carry its payloads into the checkpoints this run writes.
    let checkpoint = match &config.checkpoint {
        None => None,
        Some(spec) => {
            let mut snapshot = Snapshot::new(config.scenario_hash);
            if spec.resume && spec.path.exists() {
                let prior = Snapshot::load_expecting(&spec.path, config.scenario_hash)?;
                for (name, payload) in prior.sections() {
                    let Some(i) = name
                        .strip_prefix("item/")
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&i| i < total)
                    else {
                        continue;
                    };
                    let r = decode(i, payload).map_err(|e| SnapshotError::Malformed(e.context))?;
                    items[i] = Some(Ok(r));
                    snapshot.put(name, payload.to_vec());
                    resumed_items += 1;
                }
            }
            Some(Mutex::new(Checkpoint {
                spec,
                snapshot,
                since_write: 0,
                error: None,
            }))
        }
    };

    let pending: Vec<usize> = (0..total).filter(|&i| items[i].is_none()).collect();
    let write_failed = AtomicBool::new(false);
    // Checked before every claim, so no new item starts once the
    // deadline passes or a checkpoint write failed; in-flight items
    // finish. `write_failed` publishes nothing: the error itself is
    // read under the mutex once the workers joined.
    let stop = || write_failed.load(Ordering::Relaxed) || config.deadline.expired();
    let ran = claim(config.threads, pending.len(), stop, |k| {
        let i = pending[k];
        let result = supervise(i, || f(i));
        if let (Some(ckpt), Ok(r)) = (&checkpoint, &result) {
            let payload = encode(r);
            // Every update below leaves the snapshot whole, so a guard
            // poisoned by a panicking peer is safe to reuse.
            let mut ck = ckpt.lock().unwrap_or_else(PoisonError::into_inner);
            ck.snapshot.put(&format!("item/{i}"), payload);
            ck.since_write += 1;
            let cadence = ck.spec.cadence;
            if cadence > 0 && ck.since_write >= cadence && ck.error.is_none() {
                ck.since_write = 0;
                if let Err(e) = ck.snapshot.write_atomic(&ck.spec.path) {
                    ck.error = Some(e);
                    write_failed.store(true, Ordering::Relaxed);
                }
            }
        }
        result
    });
    for (&i, slot) in pending.iter().zip(ran) {
        items[i] = slot;
    }

    // Final checkpoint: always published, so a completed (or degraded)
    // run resumes trivially.
    if let Some(ckpt) = checkpoint {
        let ck = ckpt.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = ck.error {
            return Err(e);
        }
        ck.snapshot.write_atomic(&ck.spec.path)?;
    }

    Ok(RunOutcome {
        items,
        resumed_items,
    })
}

/// The claim loop behind every run: `threads` workers (`0` means
/// [`available_parallelism`]) claim the indices `0..len` off one atomic
/// cursor, each checking `stop` before every claim, and `f(index)`
/// lands in slot `index` of the result. Indices never claimed because
/// `stop` fired keep a `None` slot. Runs inline on the calling thread,
/// with no spawn, when one worker suffices.
///
/// A panic in `f` is propagated to the caller after all workers stop.
fn claim<R: Send>(
    threads: usize,
    len: usize,
    stop: impl Fn() -> bool + Sync,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<Option<R>> {
    let mut slots: Vec<Option<R>> = Vec::with_capacity(len);
    let threads = if threads == 0 {
        available_parallelism()
    } else {
        threads
    };
    let workers = threads.min(len);
    if workers <= 1 {
        for i in 0..len {
            if stop() {
                break;
            }
            slots.push(Some(f(i)));
        }
        slots.resize_with(len, || None);
        return slots;
    }

    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (cursor, stop, f) = (&cursor, &stop, &f);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while !stop() {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        out.push((i, f(i)));
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

/// Runs item `item` until it returns, rerunning a panic at once and
/// quarantining the item when all [`ATTEMPTS`] tries panic.
fn supervise<R>(item: usize, f: impl Fn() -> R) -> Result<R, Quarantine> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        // Crash-injection site inside the supervised closure: a `panic`
        // injection unwinds like a fault in the item itself and
        // exercises the retry path; an `exit` simulates a kill.
        match catch_unwind(AssertUnwindSafe(|| {
            crash_point("worker_item");
            f()
        })) {
            Ok(r) => return Ok(r),
            Err(panic) if attempts == ATTEMPTS => {
                return Err(Quarantine {
                    item,
                    message: panic_message(panic.as_ref()),
                })
            }
            Err(_) => {}
        }
    }
}

/// Renders a panic payload (the `&str` or `String` message, when there
/// is one) for quarantine reports.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// A config with no checkpointing and no deadline.
    fn config(scenario_hash: u64, threads: usize) -> RunConfig {
        RunConfig {
            scenario_hash,
            threads,
            checkpoint: None,
            deadline: Deadline::none(),
        }
    }

    fn temp_ckpt(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eagleeye_runner_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    /// An item result that depends on the index in a recognizable way.
    fn payload_for(i: usize) -> u64 {
        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn encode(r: &u64) -> Vec<u8> {
        r.to_le_bytes().to_vec()
    }

    fn decode(_: usize, bytes: &[u8]) -> Result<u64, CodecError> {
        let bytes: [u8; 8] = bytes.try_into().map_err(|_| CodecError {
            context: "test payload length",
        })?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn run(config: &RunConfig, total: usize, f: impl Fn(usize) -> u64 + Sync) -> RunOutcome<u64> {
        run_items(config, total, f, encode, decode).unwrap()
    }

    fn all_ok(total: usize) -> Vec<Option<Result<u64, Quarantine>>> {
        (0..total).map(|i| Some(Ok(payload_for(i)))).collect()
    }

    #[test]
    fn fault_free_run_is_bit_identical_across_thread_counts() {
        // The supervised run of an infallible closure is the plain map
        // `(0..37).map(payload_for)`.
        for threads in [1, 2, 4, 8] {
            let out = run(&config(0xFEED, threads), 37, payload_for);
            assert_eq!(out.items, all_ok(37), "threads={threads}");
            assert_eq!(out.completed(), 37);
            assert_eq!(out.resumed_items, 0);
        }
    }

    #[test]
    fn checkpoint_resume_skips_completed_items() {
        let path = temp_ckpt("resume.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut config = config(0xBEEF, 3);
        config.checkpoint = Some(CheckpointSpec::new(&path, 4));

        let first = run(&config, 20, payload_for);
        assert_eq!(first.completed(), 20);
        assert!(path.exists());

        // Second run resumes everything: the closure must never fire.
        let calls = AtomicU64::new(0);
        let second = run(&config, 20, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            payload_for(i)
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(second.resumed_items, 20);
        assert_eq!(second.items, first.items);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partial_checkpoint_resumes_only_missing_items() {
        let path = temp_ckpt("partial.ckpt");
        let _ = std::fs::remove_file(&path);
        // Hand-build a checkpoint holding items 0, 3, 7.
        let mut snap = Snapshot::new(0xC0FFEE);
        for i in [0usize, 3, 7] {
            snap.put(&format!("item/{i}"), encode(&payload_for(i)));
        }
        snap.write_atomic(&path).unwrap();

        let mut config = config(0xC0FFEE, 2);
        config.checkpoint = Some(CheckpointSpec::new(&path, 0));
        let fresh = Mutex::new(Vec::new());
        let out = run(&config, 10, |i| {
            fresh.lock().unwrap().push(i);
            payload_for(i)
        });
        assert_eq!(out.resumed_items, 3);
        assert_eq!(out.completed(), 10);
        let mut computed = fresh.into_inner().unwrap();
        computed.sort_unstable();
        assert_eq!(computed, vec![1, 2, 4, 5, 6, 8, 9]);
        // Result identical to a cold run.
        assert_eq!(out.items, all_ok(10));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_scenario_checkpoint_is_rejected() {
        let path = temp_ckpt("scenario.ckpt");
        let _ = std::fs::remove_file(&path);
        Snapshot::new(111).write_atomic(&path).unwrap();
        let mut config = config(222, 1);
        config.checkpoint = Some(CheckpointSpec::new(&path, 0));
        assert!(matches!(
            run_items(&config, 3, payload_for, encode, decode),
            Err(SnapshotError::ScenarioMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn undecodable_resumed_payload_is_rejected() {
        let path = temp_ckpt("malformed.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut snap = Snapshot::new(5);
        snap.put("item/1", vec![1, 2, 3]);
        snap.write_atomic(&path).unwrap();
        let mut config = config(5, 2);
        config.checkpoint = Some(CheckpointSpec::new(&path, 0));
        assert!(matches!(
            run_items(&config, 3, payload_for, encode, decode),
            Err(SnapshotError::Malformed("test payload length"))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panicking_item_is_retried_then_succeeds() {
        // Two panics then a success: the third and last attempt wins.
        let tries = AtomicU64::new(0);
        let out = run(&config(1, 2), 8, |i| {
            if i == 5 && tries.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient failure on item 5");
            }
            payload_for(i)
        });
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        assert_eq!(out.completed(), 8);
        assert_eq!(out.items, all_ok(8));
    }

    #[test]
    fn deterministic_failure_is_quarantined_not_fatal() {
        let tries = AtomicU64::new(0);
        let out = run(&config(1, 3), 10, |i| {
            if i == 4 {
                tries.fetch_add(1, Ordering::SeqCst);
                panic!("deterministic failure on item 4");
            }
            payload_for(i)
        });
        assert_eq!(
            tries.load(Ordering::SeqCst),
            3,
            "quarantined after 3 attempts"
        );
        assert_eq!(out.completed(), 9);
        let Some(Err(q)) = &out.items[4] else {
            panic!("item 4 must be quarantined: {:?}", out.items[4]);
        };
        assert_eq!(q.item, 4);
        assert_eq!(
            q.to_string(),
            "4 quarantined after 3 attempts: deterministic failure on item 4"
        );
        assert!(
            out.items.iter().all(Option::is_some),
            "quarantine is not degradation"
        );
    }

    #[test]
    fn expired_deadline_degrades_instead_of_aborting() {
        let mut config = config(1, 2);
        config.deadline = Deadline::after(Duration::ZERO);
        let out = run(&config, 64, |i| {
            std::thread::sleep(Duration::from_millis(20));
            payload_for(i)
        });
        assert!(out.items.iter().any(Option::is_none));
        assert!(out.completed() < 64);
        // Whatever did complete is correct.
        for (i, slot) in out.items.iter().enumerate() {
            if let Some(r) = slot {
                assert_eq!(*r, Ok(payload_for(i)));
            }
        }
    }

    #[test]
    fn deadline_mid_run_stops_dispatch_and_checkpoints() {
        let path = temp_ckpt("deadline_mid_run.ckpt");
        let _ = std::fs::remove_file(&path);
        // One worker; item 3 outlasts the whole budget, so the deadline
        // has passed by the time it returns and item 4 never starts.
        let mut config = config(0xD00D, 1);
        config.checkpoint = Some(CheckpointSpec::new(&path, 1));
        config.deadline = Deadline::after(Duration::from_millis(100));
        let out = run(&config, 64, |i| {
            if i == 3 {
                std::thread::sleep(Duration::from_millis(250));
            }
            payload_for(i)
        });
        assert!(out.completed() <= 4, "dispatch stops after item 3");
        assert!(out.items[4..].iter().all(Option::is_none));
        // The final checkpoint holds exactly the completed items, so a
        // resumed run finishes the rest and matches a cold run.
        let snap = Snapshot::load_expecting(&path, 0xD00D).unwrap();
        assert_eq!(snap.len(), out.completed());
        let resume_cfg = RunConfig {
            threads: 4,
            checkpoint: Some(CheckpointSpec::new(&path, 8)),
            deadline: Deadline::none(),
            ..config
        };
        let resumed = run(&resume_cfg, 64, payload_for);
        assert_eq!(resumed.resumed_items, out.completed());
        assert_eq!(resumed.completed(), 64);
        assert_eq!(resumed.items, all_ok(64));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_items_complete_immediately() {
        let out = run(&config(1, 4), 0, payload_for);
        assert!(out.items.is_empty());
        assert_eq!(out.completed(), 0);
    }
}
