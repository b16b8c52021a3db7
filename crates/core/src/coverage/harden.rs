//! Crash-safe evaluation types (see DESIGN.md §12).
//!
//! [`CoverageEvaluator::evaluate_hardened`](super::CoverageEvaluator::evaluate_hardened)
//! runs the per-leader passes of an EagleEye or Mix-Camera evaluation
//! under the `eagleeye-harden` supervised runner: partial results are
//! checkpointed on a cadence and restored with `--resume`, a wall-clock
//! deadline degrades the run into a valid partial ("anytime") report
//! instead of aborting, and panicking passes are retried and then
//! quarantined. This module holds the option/outcome types and the
//! per-leader checkpoint payload codec; the evaluation logic lives next
//! to the plain path in `evaluator.rs`.

use super::CoverageReport;
use eagleeye_harden::{
    ByteReader, ByteWriter, CheckpointSpec, CodecError, Deadline, DegradeReason, Quarantine,
    RetryPolicy, ShutdownFlag,
};
use eagleeye_obs::MetricsRegistry;

/// Crash-safety knobs for one hardened evaluation.
///
/// The default is inert: no checkpointing, no deadline, no shutdown
/// flag, and the default retry policy — a hardened run with default
/// options produces a report bit-identical (modulo wall-clock timers)
/// to [`evaluate`](super::CoverageEvaluator::evaluate).
#[derive(Debug, Clone, Default)]
pub struct HardenOptions {
    /// Checkpoint file and cadence; `None` disables checkpointing.
    pub checkpoint: Option<CheckpointSpec>,
    /// Wall-clock budget for the whole evaluation.
    pub deadline: Deadline,
    /// Cooperative shutdown request (clone it into a signal handler).
    pub shutdown: ShutdownFlag,
    /// Retry discipline for panicking leader passes.
    pub retry: RetryPolicy,
}

impl HardenOptions {
    /// Inert options (no checkpoint, no deadline).
    pub fn new() -> Self {
        HardenOptions::default()
    }

    /// Enables checkpointing to `spec.path` every `spec.cadence`
    /// completed leader passes (and once at the end).
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }
}

/// Result of a hardened evaluation: the (possibly partial) report plus
/// the run-layer diagnostics that do not belong in the report itself.
#[derive(Debug, Clone)]
pub struct HardenedOutcome {
    /// The merged coverage report. When
    /// [`degraded`](CoverageReport::degraded) is set, the report covers
    /// only [`leader_passes_completed`](CoverageReport::leader_passes_completed)
    /// of [`leader_passes_total`](CoverageReport::leader_passes_total)
    /// passes but every field is internally consistent.
    pub report: CoverageReport,
    /// Leader passes that kept panicking after all retries.
    pub quarantined: Vec<Quarantine>,
    /// Leader passes restored from the resumed checkpoint.
    pub resumed_passes: usize,
    /// Why the run stopped early, when it did.
    pub degrade_reason: Option<DegradeReason>,
}

/// Version byte leading every leader-pass checkpoint payload.
const PAYLOAD_VERSION: u8 = 1;
/// Payload tag: the pass completed.
const TAG_OK: u8 = 0;
/// Payload tag: the pass returned an error (replayed on resume).
const TAG_ERR: u8 = 1;

/// Encodes one leader pass's outcome as a checkpoint payload: either
/// the partial report + the group's captured targets (stored as a
/// bitmap over the workload's `targets`) + forked metrics registry, or
/// the error message the pass failed with (stored so a resumed run
/// deterministically replays the failure instead of silently retrying).
pub(super) fn encode_leader_payload(
    result: Result<(CoverageReport, Vec<usize>, MetricsRegistry), String>,
    targets: usize,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(PAYLOAD_VERSION);
    match result {
        Ok((report, captured, registry)) => {
            w.u8(TAG_OK);
            w.bytes(&report.to_bytes());
            let mut bitmap = vec![false; targets];
            for idx in captured {
                bitmap[idx] = true;
            }
            w.bitmap(&bitmap);
            w.bytes(&registry.to_bytes());
        }
        Err(message) => {
            w.u8(TAG_ERR);
            w.str(&message);
        }
    }
    w.into_bytes()
}

/// Decodes a payload written by [`encode_leader_payload`] over the
/// same `targets`. The outer `Result` is a malformed payload (a captured
/// bitmap of another length included); the inner one is the replayed
/// outcome of the pass itself.
#[allow(clippy::type_complexity)]
pub(super) fn decode_leader_payload(
    bytes: &[u8],
    targets: usize,
) -> Result<Result<(CoverageReport, Vec<usize>, MetricsRegistry), String>, CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.u8()? != PAYLOAD_VERSION {
        return Err(CodecError {
            context: "leader payload version",
        });
    }
    match r.u8()? {
        TAG_OK => {
            let report = CoverageReport::from_bytes(r.bytes()?)?;
            let bitmap = r.bitmap()?;
            if bitmap.len() != targets {
                return Err(CodecError {
                    context: "leader payload bitmap length",
                });
            }
            let captured = (0..targets).filter(|&i| bitmap[i]).collect();
            let registry = MetricsRegistry::from_bytes(r.bytes()?)?;
            if !r.is_exhausted() {
                return Err(CodecError {
                    context: "leader payload trailing bytes",
                });
            }
            Ok(Ok((report, captured, registry)))
        }
        TAG_ERR => {
            let message = r.str()?.to_string();
            if !r.is_exhausted() {
                return Err(CodecError {
                    context: "leader payload trailing bytes",
                });
            }
            Ok(Err(message))
        }
        _ => Err(CodecError {
            context: "leader payload tag",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_obs::Metrics;
    use std::time::Duration;

    #[test]
    fn ok_payload_round_trips_exactly() {
        let report = CoverageReport {
            frames_processed: 4,
            captured_value: 0.1 + 0.2,
            scheduler_time: Duration::from_nanos(123_456_789),
            per_frame_target_counts: vec![3, 9],
            ..CoverageReport::default()
        };
        let captured = vec![0, 2, 3];
        let metrics = Metrics::enabled();
        metrics.add("core/frames_processed", 4);
        metrics.observe("core/frame_targets", 3, &[1, 2, 5]);
        let registry = metrics.snapshot();

        let bytes =
            encode_leader_payload(Ok((report.clone(), captured.clone(), registry.clone())), 5);
        let (r2, c2, g2) = decode_leader_payload(&bytes, 5).unwrap().unwrap();
        assert_eq!(r2, report);
        assert_eq!(c2, captured);
        assert_eq!(g2, registry);
        // A bitmap over a different workload is rejected.
        assert!(decode_leader_payload(&bytes, 6).is_err());
    }

    #[test]
    fn err_payload_replays_the_message() {
        let bytes = encode_leader_payload(Err("orbit model failed: bad altitude".into()), 5);
        assert_eq!(
            decode_leader_payload(&bytes, 5).unwrap(),
            Err("orbit model failed: bad altitude".to_string())
        );
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let good = encode_leader_payload(Err("x".into()), 5);
        for n in 0..good.len() {
            assert!(decode_leader_payload(&good[..n], 5).is_err(), "n={n}");
        }
        let mut bad_version = good.clone();
        bad_version[0] = 9;
        assert!(decode_leader_payload(&bad_version, 5).is_err());
        let mut bad_tag = good.clone();
        bad_tag[1] = 7;
        assert!(decode_leader_payload(&bad_tag, 5).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_leader_payload(&trailing, 5).is_err());
    }
}
