//! Supervised runs: retry, quarantine, checkpoint/resume and anytime
//! degradation on the pool's claim loop.
//!
//! [`ExecPool::par_map`] returns once *every* item finished and lets a
//! panic abort the batch. [`run_items`] runs the same claim loop under
//! supervision:
//!
//! * a per-item panic is caught (`catch_unwind`), retried with capped
//!   exponential backoff, and — if it keeps failing — quarantined and
//!   reported instead of aborting the run;
//! * with a [`CheckpointSpec`], each completed item is encoded into a
//!   [`Snapshot`] section and the snapshot is published every
//!   [`CheckpointSpec::cadence`] completions (atomically, see
//!   `eagleeye_harden::snapshot`), so a killed process resumes from the
//!   last published snapshot instead of from zero;
//! * a blown [`Deadline`] or a [`ShutdownFlag`] request stops
//!   *dispatch* (in-flight items finish, nothing new starts), the
//!   partials are kept, a final checkpoint is written, and the outcome
//!   is marked degraded.
//!
//! Results come back in item order as the caller's own typed values:
//! only resumed items are decoded, and items are encoded only when a
//! checkpoint is configured. A fault-free run is therefore the plain
//! indexed map — inline at one thread — bit-identical at any thread
//! count and any checkpoint cadence.

use crate::{panic_message, ExecPool};
use eagleeye_harden::{
    crash_point, CheckpointSpec, CodecError, Deadline, ShutdownFlag, Snapshot, SnapshotError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Retry discipline for items whose closure panicked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = quarantine immediately).
    pub max_retries: usize,
    /// Backoff before retry `k` is `base * 2^(k-1)`, capped at `cap`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// The backoff before the `attempt`-th retry (1-based).
    pub fn backoff(&self, attempt: usize) -> Duration {
        let shift = attempt.saturating_sub(1).min(16) as u32;
        self.backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.backoff_cap)
    }
}

/// An item that kept panicking after all retries: reported, not fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Item index.
    pub item: usize,
    /// Total attempts made (1 + retries).
    pub attempts: usize,
    /// The final panic message.
    pub message: String,
}

/// Why a run was degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The wall-clock budget expired.
    Deadline,
    /// A cooperative shutdown was requested.
    Shutdown,
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
    /// Cooperative shutdown request.
    pub shutdown: ShutdownFlag,
    /// Retry discipline for panicking items.
    pub retry: RetryPolicy,
}

/// The result of a supervised run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome<R> {
    /// One slot per item, in item order: the item's result (computed or
    /// resumed), its [`Quarantine`] when it kept panicking, or `None`
    /// when the run stopped before dispatching it.
    pub items: Vec<Option<Result<R, Quarantine>>>,
    /// Why the run stopped early, set only when some item was never
    /// dispatched.
    pub degrade_reason: Option<DegradeReason>,
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
/// anytime degradation on deadline or shutdown (see the module docs).
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
    // deadline passes, a shutdown is requested, or a checkpoint write
    // failed; in-flight items finish. `write_failed` publishes nothing:
    // the error itself is read under the mutex once the workers joined.
    let stop = || {
        write_failed.load(Ordering::Relaxed)
            || config.shutdown.requested()
            || config.deadline.expired()
    };
    let ran = ExecPool::new(config.threads).claim(pending.len(), stop, |_, k| {
        let i = pending[k];
        let result = supervise(&config.retry, i, || f(i));
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

    // "Degraded" means work was left undispatched, not merely that the
    // stop condition raced with the last item finishing.
    let degrade_reason = if items.iter().any(Option::is_none) {
        if config.shutdown.requested() {
            Some(DegradeReason::Shutdown)
        } else {
            Some(DegradeReason::Deadline)
        }
    } else {
        None
    };
    Ok(RunOutcome {
        items,
        degrade_reason,
        resumed_items,
    })
}

/// Runs item `item` until it returns, retrying panics per `retry` with
/// capped backoff and quarantining the item when they persist.
fn supervise<R>(retry: &RetryPolicy, item: usize, f: impl Fn() -> R) -> Result<R, Quarantine> {
    let mut attempts = 0usize;
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
            Err(panic) if attempts > retry.max_retries => {
                return Err(Quarantine {
                    item,
                    attempts,
                    message: panic_message(panic.as_ref()),
                })
            }
            Err(_) => {
                let backoff = retry.backoff(attempts);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64;

    /// A config with no checkpointing, no deadline, default retries.
    fn config(scenario_hash: u64, threads: usize) -> RunConfig {
        RunConfig {
            scenario_hash,
            threads,
            checkpoint: None,
            deadline: Deadline::none(),
            shutdown: ShutdownFlag::new(),
            retry: RetryPolicy::default(),
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
        // The supervised run of an infallible closure is the plain map.
        let plain: Vec<_> = ExecPool::new(1)
            .par_map(&[(); 37], |i, _| payload_for(i))
            .into_iter()
            .map(|v| Some(Ok(v)))
            .collect();
        assert_eq!(plain, all_ok(37));
        for threads in [1, 2, 4, 8] {
            let out = run(&config(0xFEED, threads), 37, payload_for);
            assert_eq!(out.items, plain, "threads={threads}");
            assert_eq!(out.degrade_reason, None);
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
        let fails = AtomicU64::new(0);
        let mut config = config(1, 2);
        config.retry = RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        };
        let out = run(&config, 8, |i| {
            if i == 5 && fails.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient failure on item 5");
            }
            payload_for(i)
        });
        assert_eq!(out.completed(), 8);
        assert_eq!(out.items, all_ok(8));
    }

    #[test]
    fn deterministic_failure_is_quarantined_not_fatal() {
        let mut config = config(1, 3);
        config.retry = RetryPolicy {
            max_retries: 1,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        };
        let out = run(&config, 10, |i| {
            if i == 4 {
                panic!("deterministic failure on item 4");
            }
            payload_for(i)
        });
        assert_eq!(out.completed(), 9);
        let Some(Err(q)) = &out.items[4] else {
            panic!("item 4 must be quarantined: {:?}", out.items[4]);
        };
        assert_eq!(q.item, 4);
        assert_eq!(q.attempts, 2);
        assert!(q.message.contains("item 4"));
        assert_eq!(out.degrade_reason, None, "quarantine is not degradation");
    }

    #[test]
    fn expired_deadline_degrades_instead_of_aborting() {
        let mut config = config(1, 2);
        config.deadline = Deadline::after(Duration::ZERO);
        let out = run(&config, 64, |i| {
            std::thread::sleep(Duration::from_millis(20));
            payload_for(i)
        });
        assert_eq!(out.degrade_reason, Some(DegradeReason::Deadline));
        assert!(out.completed() < 64);
        // Whatever did complete is correct.
        for (i, slot) in out.items.iter().enumerate() {
            if let Some(r) = slot {
                assert_eq!(*r, Ok(payload_for(i)));
            }
        }
    }

    #[test]
    fn shutdown_request_stops_dispatch_and_checkpoints() {
        let path = temp_ckpt("shutdown.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut config = config(0xD00D, 2);
        config.checkpoint = Some(CheckpointSpec::new(&path, 1));
        let shutdown = config.shutdown.clone();
        let out = run(&config, 64, |i| {
            if i == 3 {
                shutdown.request();
            }
            std::thread::sleep(Duration::from_millis(10));
            payload_for(i)
        });
        assert_eq!(out.degrade_reason, Some(DegradeReason::Shutdown));
        assert!(out.completed() < 64);
        // The final checkpoint holds exactly the completed items, so a
        // resumed run finishes the rest and matches a cold run.
        let snap = Snapshot::load_expecting(&path, 0xD00D).unwrap();
        assert_eq!(snap.len(), out.completed());
        let resume_cfg = RunConfig {
            threads: 4,
            checkpoint: Some(CheckpointSpec::new(&path, 8)),
            shutdown: ShutdownFlag::new(),
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
        assert_eq!(out.degrade_reason, None);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let retry = RetryPolicy {
            max_retries: 10,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
        };
        assert_eq!(retry.backoff(1), Duration::from_millis(10));
        assert_eq!(retry.backoff(2), Duration::from_millis(20));
        assert_eq!(retry.backoff(3), Duration::from_millis(40));
        assert_eq!(retry.backoff(5), Duration::from_millis(100));
        assert_eq!(retry.backoff(60), Duration::from_millis(100));
    }
}
