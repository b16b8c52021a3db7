//! The mergeable metric store underneath [`crate::Metrics`].
//!
//! A [`MetricsRegistry`] is a plain value: four ordered maps (counters,
//! gauges, timers, histograms) keyed by slash-separated path strings.
//! Everything about it is chosen so that [`MetricsRegistry::merge`] is
//! **exactly** associative and commutative:
//!
//! * counters and histogram bucket counts are `u64` sums;
//! * gauges keep the maximum (`f64::max` is associative and ignores
//!   NaN);
//! * timers sum integer-nanosecond [`Duration`]s;
//! * histogram observations are integers (`u64`), so the running sum
//!   (`u128`) is exact.
//!
//! That exactness is what makes parallel recording deterministic: the
//! evaluator forks one recorder per worker and merges them back in
//! input order, but because merge is order-independent the result is
//! bit-identical at any thread count (see DESIGN.md §10). The
//! `eagleeye-check` property suite in `tests/properties.rs` pins this
//! contract down.

use eagleeye_harden::{ByteReader, ByteWriter, CodecError};
use std::collections::BTreeMap;
use std::time::Duration;

/// Aggregate of one timer key: how many spans closed and their total
/// wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimerStat {
    /// Number of recorded spans.
    pub count: u64,
    /// Total recorded wall-clock time.
    pub total: Duration,
}

/// A fixed-bucket histogram over integer observations.
///
/// `bounds` are inclusive upper bucket edges in strictly increasing
/// order; an observation `v` lands in the first bucket with
/// `v <= bounds[i]`, or in the implicit overflow bucket past the last
/// edge. Bounds are fixed at the first observation of a key and must
/// match on merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One count per bound plus the overflow bucket: `bounds.len() + 1`.
    counts: Vec<u64>,
    /// Exact sum of all observations.
    sum: u128,
    /// Total number of observations.
    count: u64,
}

impl Histogram {
    /// An empty histogram over the given inclusive upper bucket edges.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.sum += u128::from(value);
        self.count += 1;
    }

    /// The inclusive upper bucket edges.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries; the last is the
    /// overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn merge(&mut self, other: &Histogram, key: &str) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram '{key}' merged with mismatched bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// The mergeable metric store: four ordered maps keyed by path strings
/// like `"ilp/nodes_explored"`. See the module docs for the merge
/// semantics that make parallel recording deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    timers: BTreeMap<String, TimerStat>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter at `key` (creating it at zero).
    pub fn add(&mut self, key: &str, n: u64) {
        *self.counters.entry_ref(key) += n;
    }

    /// Raises the gauge at `key` to at least `value` (max-merge; NaN is
    /// ignored, so the gauge keeps its previous reading).
    pub fn gauge_max(&mut self, key: &str, value: f64) {
        match self.gauges.get_mut(key) {
            Some(g) => *g = g.max(value),
            None => {
                if !value.is_nan() {
                    self.gauges.insert(key.to_string(), value);
                }
            }
        }
    }

    /// Records one closed span of `elapsed` under the timer at `key`.
    pub fn record_duration(&mut self, key: &str, elapsed: Duration) {
        let t = self.timers.entry_ref(key);
        t.count += 1;
        t.total += elapsed;
    }

    /// Records an integer observation in the histogram at `key`,
    /// creating it with `bounds` on first touch.
    ///
    /// # Panics
    ///
    /// Panics when the key already exists with different bounds.
    pub fn observe(&mut self, key: &str, value: u64, bounds: &[u64]) {
        if let Some(h) = self.histograms.get_mut(key) {
            assert_eq!(
                h.bounds(),
                bounds,
                "histogram '{key}' observed with mismatched bounds"
            );
            h.observe(value);
        } else {
            let mut h = Histogram::new(bounds);
            h.observe(value);
            self.histograms.insert(key.to_string(), h);
        }
    }

    /// Merges `other` into `self`. Exactly associative and commutative
    /// (see the module docs), which is the determinism contract for
    /// parallel recording.
    ///
    /// # Panics
    ///
    /// Panics when the same histogram key carries different bounds.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry_ref(k) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauge_max(k, v);
        }
        for (k, v) in &other.timers {
            let t = self.timers.entry_ref(k);
            t.count += v.count;
            t.total += v.total;
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v, k),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// The counter at `key`, or 0 when never touched.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The gauge at `key`, if ever set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// The timer aggregate at `key`, if ever recorded.
    pub fn timer(&self, key: &str) -> Option<TimerStat> {
        self.timers.get(key).copied()
    }

    /// The histogram at `key`, if ever observed.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All timers in key order.
    pub fn timers(&self) -> impl Iterator<Item = (&str, TimerStat)> {
        self.timers.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.timers.is_empty()
            && self.histograms.is_empty()
    }

    /// Serializes the registry to the harden byte codec, exactly:
    /// counters/timers/histogram counts round-trip as fixed-width
    /// integers and gauges as raw IEEE-754 bits, so a registry restored
    /// from a checkpoint merges bit-identically to one that never left
    /// memory. Deterministic (`BTreeMap` key order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let MetricsRegistry {
            counters,
            gauges,
            timers,
            histograms,
        } = self;
        let mut w = ByteWriter::new();
        w.u8(1); // format version
        w.usize(counters.len());
        for (k, &v) in counters {
            w.str(k);
            w.u64(v);
        }
        w.usize(gauges.len());
        for (k, &v) in gauges {
            w.str(k);
            w.f64(v);
        }
        w.usize(timers.len());
        for (k, &TimerStat { count, total }) in timers {
            w.str(k);
            w.u64(count);
            // Duration is (secs, subsec nanos) internally; storing the
            // pair round-trips exactly with no u128 narrowing.
            w.u64(total.as_secs());
            w.u32(total.subsec_nanos());
        }
        w.usize(histograms.len());
        for (k, h) in histograms {
            let Histogram {
                bounds,
                counts,
                sum,
                count,
            } = h;
            w.str(k);
            w.usize(bounds.len());
            for &b in bounds {
                w.u64(b);
            }
            for &c in counts {
                w.u64(c);
            }
            w.u128(*sum);
            w.u64(*count);
        }
        w.into_bytes()
    }

    /// Restores a registry written by [`MetricsRegistry::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, an unknown format version, or
    /// internally inconsistent histogram data.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.u8()? != 1 {
            return Err(CodecError {
                context: "registry format version",
            });
        }
        let mut counters = BTreeMap::new();
        for _ in 0..r.usize()? {
            let k = r.str()?.to_string();
            let v = r.u64()?;
            counters.insert(k, v);
        }
        let mut gauges = BTreeMap::new();
        for _ in 0..r.usize()? {
            let k = r.str()?.to_string();
            let v = r.f64()?;
            gauges.insert(k, v);
        }
        let mut timers = BTreeMap::new();
        for _ in 0..r.usize()? {
            let k = r.str()?.to_string();
            let count = r.u64()?;
            let total = Duration::new(r.u64()?, r.u32()?);
            timers.insert(k, TimerStat { count, total });
        }
        let mut histograms = BTreeMap::new();
        for _ in 0..r.usize()? {
            let k = r.str()?.to_string();
            // Lengths come from the payload: collect without
            // preallocating, so a forged length fails on truncation
            // instead of panicking on capacity overflow.
            let n_bounds = r.usize()?;
            let bounds: Vec<u64> = (0..n_bounds).map(|_| r.u64()).collect::<Result<_, _>>()?;
            if bounds.is_empty() || bounds.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CodecError {
                    context: "histogram bounds",
                });
            }
            let counts: Vec<u64> = (0..=n_bounds).map(|_| r.u64()).collect::<Result<_, _>>()?;
            let sum = r.u128()?;
            let count = r.u64()?;
            if counts.iter().sum::<u64>() != count {
                return Err(CodecError {
                    context: "histogram bucket totals",
                });
            }
            histograms.insert(
                k,
                Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                },
            );
        }
        if !r.is_exhausted() {
            return Err(CodecError {
                context: "trailing registry bytes",
            });
        }
        Ok(MetricsRegistry {
            counters,
            gauges,
            timers,
            histograms,
        })
    }
}

/// `BTreeMap` helpers that avoid allocating the key `String` on the
/// read path (the common case for repeat increments).
trait EntryRef<V> {
    fn entry_ref(&mut self, key: &str) -> &mut V;
}

impl<V: Default> EntryRef<V> for BTreeMap<String, V> {
    fn entry_ref(&mut self, key: &str) -> &mut V {
        if !self.contains_key(key) {
            self.insert(key.to_string(), V::default());
        }
        match self.get_mut(key) {
            Some(v) => v,
            // The branch above guarantees presence.
            None => unreachable!("key inserted above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.add("a/b", 2);
        r.add("a/b", 3);
        assert_eq!(r.counter("a/b"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_keep_the_max_and_ignore_nan() {
        let mut r = MetricsRegistry::new();
        r.gauge_max("g", 2.0);
        r.gauge_max("g", 1.0);
        assert_eq!(r.gauge("g"), Some(2.0));
        r.gauge_max("g", f64::NAN);
        assert_eq!(r.gauge("g"), Some(2.0));
        r.gauge_max("h", f64::NAN);
        assert_eq!(r.gauge("h"), None);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_edges() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1045);
        assert!((h.mean() - 1045.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[4, 1]);
    }

    #[test]
    #[should_panic(expected = "mismatched bounds")]
    fn observe_rejects_bound_changes() {
        let mut r = MetricsRegistry::new();
        r.observe("h", 1, &[1, 2]);
        r.observe("h", 1, &[1, 3]);
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.add("c", 1);
        a.observe("h", 3, &[4, 8]);
        a.record_duration("t", Duration::from_millis(5));
        a.gauge_max("g", 1.0);
        let mut b = MetricsRegistry::new();
        b.add("c", 2);
        b.add("only_b", 7);
        b.observe("h", 9, &[4, 8]);
        b.record_duration("t", Duration::from_millis(7));
        b.gauge_max("g", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.gauge("g"), Some(3.0));
        let t = a.timer("t").unwrap();
        assert_eq!(t.count, 2);
        assert_eq!(t.total, Duration::from_millis(12));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.counts(), &[1, 0, 1]);
        assert_eq!(h.sum(), 12);
    }

    #[test]
    fn byte_round_trip_is_exact() {
        // Every value differs from every other of its type (counter
        // values, timer counts and seconds, bucket bounds and counts,
        // keys), so a codec that swapped two same-typed reads would not
        // round-trip.
        let mut r = MetricsRegistry::new();
        r.add("core/frames", 360);
        r.add("ilp/nodes", 17);
        r.gauge_max("exec/threads", 4.0);
        r.gauge_max("neg", -0.0);
        r.record_duration("core/eval", Duration::new(3, 999_999_999));
        r.record_duration("core/eval", Duration::new(9, 0));
        // Bucket counts 1, 2, 3, 4.
        for v in [3, 5, 6, 9, 10, 11, 100, 200, 300, 400] {
            r.observe("h/latency", v, &[4, 8, 16]);
        }
        let bytes = r.to_bytes();
        let back = MetricsRegistry::from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
        // Deterministic encoding, and -0.0 keeps its sign bit.
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.gauge("neg").unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn empty_registry_round_trips() {
        let bytes = MetricsRegistry::new().to_bytes();
        assert!(MetricsRegistry::from_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn malformed_registry_bytes_are_rejected() {
        let mut r = MetricsRegistry::new();
        r.add("c", 1);
        r.observe("h", 2, &[4]);
        let bytes = r.to_bytes();
        assert!(MetricsRegistry::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(MetricsRegistry::from_bytes(&[9]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(MetricsRegistry::from_bytes(&trailing).is_err());
        // Forged lengths: a histogram claiming 2^61 (or usize::MAX)
        // bounds must fail as truncated, not panic allocating.
        for forged in [1u64 << 61, u64::MAX] {
            let mut w = ByteWriter::new();
            w.u8(1);
            w.usize(0); // counters
            w.usize(0); // gauges
            w.usize(0); // timers
            w.usize(1); // histograms
            w.str("h");
            w.u64(forged);
            w.u64(4);
            assert!(MetricsRegistry::from_bytes(&w.into_bytes()).is_err());
        }
    }

    #[test]
    fn restored_registry_merges_like_the_original() {
        let mut a = MetricsRegistry::new();
        a.add("c", 1);
        a.observe("h", 3, &[4, 8]);
        let restored = MetricsRegistry::from_bytes(&a.to_bytes()).unwrap();
        let mut direct = MetricsRegistry::new();
        direct.add("c", 10);
        direct.merge(&a);
        let mut via_bytes = MetricsRegistry::new();
        via_bytes.add("c", 10);
        via_bytes.merge(&restored);
        assert_eq!(via_bytes, direct);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = MetricsRegistry::new();
        a.add("c", 5);
        a.observe("h", 2, &[8]);
        let before = a.clone();
        a.merge(&MetricsRegistry::new());
        assert_eq!(a, before);
        let mut empty = MetricsRegistry::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
