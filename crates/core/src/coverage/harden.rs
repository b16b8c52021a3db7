//! Crash-safe evaluation types (see DESIGN.md §12).
//!
//! Every evaluation runs its per-satellite passes under the
//! `eagleeye-exec` supervised runner:
//! [`CoverageEvaluator::evaluate_hardened`](super::CoverageEvaluator::evaluate_hardened)
//! exposes its knobs — partial results checkpointed on a cadence and
//! restored with `--resume`, a wall-clock deadline that degrades the
//! run into a valid partial ("anytime") report instead of aborting, and
//! a fixed retry budget for panicking passes — and
//! [`evaluate`](super::CoverageEvaluator::evaluate) is the same run with
//! all of them inert. This module holds the option/outcome types and
//! the per-pass checkpoint payload codec; the evaluation logic lives in
//! `evaluator.rs`.

use super::CoverageReport;
use crate::CoreError;
use eagleeye_harden::{ByteReader, ByteWriter, CheckpointSpec, CodecError, Deadline};
use eagleeye_obs::{Metrics, MetricsRegistry};

/// Crash-safety knobs for one evaluation.
///
/// The default is inert: no checkpointing and no deadline.
/// [`evaluate`](super::CoverageEvaluator::evaluate) runs with it, so a
/// hardened run with default options *is* the plain evaluation: passes
/// run inline at one thread, and nothing is encoded or written.
#[derive(Debug, Clone, Default)]
pub struct HardenOptions {
    /// Checkpoint file and cadence; `None` disables checkpointing.
    pub checkpoint: Option<CheckpointSpec>,
    /// Wall-clock budget for the whole evaluation.
    pub deadline: Deadline,
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
    /// Passes restored from the resumed checkpoint.
    pub resumed_passes: usize,
}

/// One completed pass: its partial report, the targets it captured (in
/// capture order; a swath pass may list a target more than once), and
/// the metrics fork it recorded into.
pub(super) type Pass = (CoverageReport, Vec<usize>, Metrics);

/// A set of target indices, one bit per target of the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct TargetBits {
    /// Targets in the workload (the set's capacity).
    len: usize,
    /// Target `i` is bit `i % 64` of `words[i / 64]`.
    words: Vec<u64>,
}

impl TargetBits {
    /// The empty set over `len` targets.
    pub fn new(len: usize) -> Self {
        TargetBits {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// True when target `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds target `i`; true when it was not in the set yet.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "target {i} out of {}", self.len);
        let (word, bit) = (&mut self.words[i / 64], 1 << (i % 64));
        let added = *word & bit == 0;
        *word |= bit;
        added
    }

    /// Number of targets in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The targets in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    64 * k + bit
                })
            })
        })
    }
}

/// Version byte leading every pass checkpoint payload.
const PAYLOAD_VERSION: u8 = 1;
/// Payload tag: the pass completed.
const TAG_OK: u8 = 0;
/// Payload tag: the pass returned an error (replayed on resume).
const TAG_ERR: u8 = 1;

/// Encodes one pass's outcome as a checkpoint payload: either the
/// partial report + the captured targets (stored as a bitset over the
/// workload's `targets`) + the metrics fork's registry, or the message
/// of the error the pass failed with (stored so a resumed run
/// deterministically replays the failure instead of silently
/// retrying).
pub(super) fn encode_pass(pass: &Result<Pass, CoreError>, targets: usize) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(PAYLOAD_VERSION);
    match pass {
        Ok((report, captured, metrics)) => {
            w.u8(TAG_OK);
            w.bytes(&report.to_bytes());
            let mut bits = TargetBits::new(targets);
            for &idx in captured {
                bits.insert(idx);
            }
            w.bitset(bits.len, &bits.words);
            w.bytes(&metrics.snapshot().to_bytes());
        }
        Err(e) => {
            w.u8(TAG_ERR);
            w.str(&e.to_string());
        }
    }
    w.into_bytes()
}

/// Decodes pass `i`'s payload, written by [`encode_pass`] over the same
/// `targets`, restoring its registry into a fork of `metrics`. The
/// outer `Result` is a malformed payload (a captured bitset of another
/// length included); the inner one is the replayed outcome of the pass
/// itself.
pub(super) fn decode_pass(
    i: usize,
    bytes: &[u8],
    targets: usize,
    metrics: &Metrics,
) -> Result<Result<Pass, CoreError>, CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.u8()? != PAYLOAD_VERSION {
        return Err(CodecError {
            context: "pass payload version",
        });
    }
    let pass = match r.u8()? {
        TAG_OK => {
            let report = CoverageReport::from_bytes(r.bytes()?)?;
            let (len, words) = r.bitset()?;
            if len != targets {
                return Err(CodecError {
                    context: "pass payload bitmap length",
                });
            }
            let captured = TargetBits { len, words }.iter().collect();
            let fork = metrics.fork();
            fork.absorb_registry(&MetricsRegistry::from_bytes(r.bytes()?)?);
            Ok((report, captured, fork))
        }
        TAG_ERR => Err(CoreError::Harden {
            message: format!("pass {i} failed: {}", r.str()?),
        }),
        _ => {
            return Err(CodecError {
                context: "pass payload tag",
            })
        }
    };
    if !r.is_exhausted() {
        return Err(CodecError {
            context: "pass payload trailing bytes",
        });
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn harden_error(message: &str) -> Result<Pass, CoreError> {
        Err(CoreError::Harden {
            message: message.to_string(),
        })
    }

    #[test]
    fn ok_payload_round_trips_exactly() {
        let report = CoverageReport {
            frames_processed: 4,
            captured_value: 0.1 + 0.2,
            scheduler_time: Duration::from_nanos(123_456_789),
            per_frame_target_counts: vec![3, 9],
            ..CoverageReport::default()
        };
        let metrics = Metrics::enabled();
        metrics.add("core/frames_processed", 4);
        metrics.observe("core/frame_targets", 3, &[1, 2, 5]);
        let registry = metrics.snapshot();

        // A swath pass may list a target once per access window; the
        // bitset keeps each once, in index order.
        let pass = Ok((report.clone(), vec![3, 0, 2, 3], metrics));
        let bytes = encode_pass(&pass, 5);
        let parent = Metrics::enabled();
        let (r2, c2, m2) = decode_pass(0, &bytes, 5, &parent).unwrap().unwrap();
        assert_eq!(r2, report);
        assert_eq!(c2, vec![0, 2, 3]);
        assert_eq!(m2.snapshot(), registry);
        // The restored fork is private until the merge absorbs it.
        assert!(parent.snapshot().is_empty());
        // A bitmap over a different workload is rejected.
        assert!(decode_pass(0, &bytes, 6, &parent).is_err());
    }

    /// The bitset answers what a bool-per-target table answers:
    /// membership, first-insert, count, and ascending iteration.
    #[test]
    fn target_bits_match_a_bool_table() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let mut bits = TargetBits::new(len);
            let mut table = vec![false; len];
            for i in (0..len)
                .filter(|i| i % 3 == 0 || i % 7 == 5)
                .chain((0..len).step_by(6))
            {
                assert_eq!(bits.insert(i), !table[i], "len={len} i={i}");
                table[i] = true;
            }
            assert!((0..len).all(|i| bits.contains(i) == table[i]), "len={len}");
            let want: Vec<usize> = (0..len).filter(|&i| table[i]).collect();
            assert_eq!(bits.count(), want.len());
            assert_eq!(bits.iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn err_payload_replays_the_message() {
        let bytes = encode_pass(&harden_error("bad altitude"), 5);
        let replayed = decode_pass(3, &bytes, 5, &Metrics::disabled()).unwrap();
        assert!(
            matches!(&replayed, Err(CoreError::Harden { message })
                if message == "pass 3 failed: crash-safe run layer failed: bad altitude"),
            "{replayed:?}"
        );
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let good = encode_pass(&harden_error("x"), 5);
        let decode = |bytes: &[u8]| decode_pass(0, bytes, 5, &Metrics::disabled());
        for n in 0..good.len() {
            assert!(decode(&good[..n]).is_err(), "n={n}");
        }
        let mut bad_version = good.clone();
        bad_version[0] = 9;
        assert!(decode(&bad_version).is_err());
        let mut bad_tag = good.clone();
        bad_tag[1] = 7;
        assert!(decode(&bad_tag).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err());
    }
}
