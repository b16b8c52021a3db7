//! The cheap, cloneable recording handle threaded through the
//! pipeline.
//!
//! A [`Metrics`] is either *disabled* (the default — every recording
//! call is a single branch on a `None`) or *enabled*, in which case it
//! wraps a shared [`MetricsRegistry`] behind a mutex. Enablement is
//! decided once at startup ([`Metrics::from_env`] honours
//! `EAGLEEYE_TRACE=1`) and then the handle is passed by value through
//! `CoverageOptions`, the bench CLI, and the exec pool.
//!
//! For parallel sections, workers do **not** share the mutex: the
//! driver [`fork`](Metrics::fork)s one private handle per work item
//! and [`absorb`](Metrics::absorb)s them back **in input order** once
//! the pool drains. Because [`MetricsRegistry::merge`] is exactly
//! associative and commutative, the absorbed totals are bit-identical
//! at any thread count.

use crate::registry::MetricsRegistry;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable that enables tracing when set to `1`
/// (or any non-empty value other than `0`).
pub const TRACE_ENV: &str = "EAGLEEYE_TRACE";

/// Cloneable recording handle; disabled by default. See the module
/// docs for the fork/absorb discipline in parallel sections.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    shared: Option<Arc<Mutex<MetricsRegistry>>>,
}

/// Two handles compare equal when both are disabled or both point at
/// the *same* registry. This keeps `PartialEq` derivable on structs
/// like `CoverageOptions` that carry a handle.
impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        match (&self.shared, &other.shared) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Metrics {
    /// A disabled handle: every recording call is a no-op branch.
    pub fn disabled() -> Self {
        Metrics { shared: None }
    }

    /// An enabled handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Metrics {
            shared: Some(Arc::new(Mutex::new(MetricsRegistry::new()))),
        }
    }

    /// Enabled iff `EAGLEEYE_TRACE` is set to something other than
    /// `""` or `"0"`.
    pub fn from_env() -> Self {
        match std::env::var(TRACE_ENV) {
            Ok(v) if !v.is_empty() && v != "0" => Metrics::enabled(),
            _ => Metrics::disabled(),
        }
    }

    /// True when recording calls actually store anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.shared.as_ref().map(|shared| {
            // A worker that panicked mid-record poisons the mutex;
            // the registry itself is always left consistent, so keep
            // collecting rather than cascading the panic.
            let mut reg = shared.lock().unwrap_or_else(|e| e.into_inner());
            f(&mut reg)
        })
    }

    /// Increments the counter at `key` by 1.
    pub fn incr(&self, key: &str) {
        self.add(key, 1);
    }

    /// Adds `n` to the counter at `key`.
    pub fn add(&self, key: &str, n: u64) {
        self.with(|r| r.add(key, n));
    }

    /// Raises the gauge at `key` to at least `value`.
    pub fn gauge_max(&self, key: &str, value: f64) {
        self.with(|r| r.gauge_max(key, value));
    }

    /// Records an integer observation in the fixed-bucket histogram at
    /// `key` (bounds fixed at first touch; see
    /// [`MetricsRegistry::observe`]).
    pub fn observe(&self, key: &str, value: u64, bounds: &[u64]) {
        self.with(|r| r.observe(key, value, bounds));
    }

    /// Records one closed span of `elapsed` under the timer at `key`.
    pub fn record_duration(&self, key: &str, elapsed: Duration) {
        self.with(|r| r.record_duration(key, elapsed));
    }

    /// Times `f` under the timer at `key`. When the handle is disabled
    /// the clock is never read.
    pub fn time<R>(&self, key: &str, f: impl FnOnce() -> R) -> R {
        if self.is_enabled() {
            #[expect(
                clippy::disallowed_methods,
                reason = "timers measure wall time and are exempt from the cross-run contract (DESIGN.md §10.1)"
            )]
            let start = Instant::now();
            let out = f();
            self.record_duration(key, start.elapsed());
            out
        } else {
            f()
        }
    }

    /// Opens a hierarchical timing span at `key`; the elapsed time is
    /// recorded when the returned guard drops. Child spans append
    /// slash-separated segments:
    ///
    /// ```
    /// let m = eagleeye_obs::Metrics::enabled();
    /// {
    ///     let eval = m.span("core/evaluate");
    ///     let _cluster = eval.child("cluster");
    /// } // records core/evaluate/cluster, then core/evaluate
    /// assert_eq!(m.snapshot().timer("core/evaluate").unwrap().count, 1);
    /// ```
    #[expect(
        clippy::disallowed_methods,
        reason = "span timers measure wall time and are exempt from the cross-run contract (DESIGN.md §10.1)"
    )]
    pub fn span(&self, key: &str) -> SpanTimer {
        SpanTimer {
            metrics: self.clone(),
            key: key.to_string(),
            start: if self.is_enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// A private handle for one parallel work item. Disabled parent →
    /// disabled fork (no allocation). The caller must later
    /// [`absorb`](Metrics::absorb) the fork **in input order**.
    pub fn fork(&self) -> Metrics {
        if self.is_enabled() {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        }
    }

    /// Merges a fork's registry into this handle. No-op when either
    /// side is disabled.
    pub fn absorb(&self, fork: &Metrics) {
        if let Some(other) = fork.with(|r| r.clone()) {
            self.with(|r| r.merge(&other));
        }
    }

    /// Merges a bare registry into this handle — the checkpoint/resume
    /// path: a resumed run decodes each stored fork
    /// ([`MetricsRegistry::from_bytes`]) and absorbs it in item order,
    /// reproducing the counters of an uninterrupted run bit-exactly.
    /// No-op when disabled.
    pub fn absorb_registry(&self, registry: &MetricsRegistry) {
        self.with(|r| r.merge(registry));
    }

    /// A copy of the current registry contents (empty when disabled).
    pub fn snapshot(&self) -> MetricsRegistry {
        self.with(|r| r.clone()).unwrap_or_default()
    }
}

/// Guard returned by [`Metrics::span`]; records the elapsed time under
/// its key on drop.
#[derive(Debug)]
pub struct SpanTimer {
    metrics: Metrics,
    key: String,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Opens a nested span at `<parent-key>/<segment>`.
    pub fn child(&self, segment: &str) -> SpanTimer {
        let key = format!("{}/{}", self.key, segment);
        self.metrics.span(&key)
    }

    /// The full slash-separated key of this span.
    pub fn key(&self) -> &str {
        &self.key
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.metrics.record_duration(&self.key, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.incr("c");
        m.observe("h", 3, &[4]);
        m.gauge_max("g", 1.0);
        let _span = m.span("s");
        assert!(!m.is_enabled());
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn enabled_handle_accumulates() {
        let m = Metrics::enabled();
        m.incr("c");
        m.add("c", 4);
        m.observe("h", 3, &[4, 8]);
        let snap = m.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn clones_share_one_registry() {
        let m = Metrics::enabled();
        let m2 = m.clone();
        m.incr("c");
        m2.incr("c");
        assert_eq!(m.snapshot().counter("c"), 2);
        assert_eq!(m, m2);
        assert_ne!(m, Metrics::enabled());
        assert_eq!(Metrics::disabled(), Metrics::disabled());
    }

    #[test]
    fn span_guard_records_on_drop() {
        let m = Metrics::enabled();
        {
            let outer = m.span("a");
            let _inner = outer.child("b");
            assert_eq!(outer.key(), "a");
        }
        let snap = m.snapshot();
        assert_eq!(snap.timer("a").unwrap().count, 1);
        assert_eq!(snap.timer("a/b").unwrap().count, 1);
    }

    #[test]
    fn fork_absorb_round_trips() {
        let m = Metrics::enabled();
        m.incr("c");
        let f = m.fork();
        assert!(f.is_enabled());
        f.add("c", 2);
        f.incr("only_fork");
        m.absorb(&f);
        let snap = m.snapshot();
        assert_eq!(snap.counter("c"), 3);
        assert_eq!(snap.counter("only_fork"), 1);

        let d = Metrics::disabled().fork();
        assert!(!d.is_enabled());
        Metrics::disabled().absorb(&f); // no-op, must not panic
    }

    #[test]
    fn time_records_one_span() {
        let m = Metrics::enabled();
        let out = m.time("t", || 42);
        assert_eq!(out, 42);
        assert_eq!(m.snapshot().timer("t").unwrap().count, 1);
        // Disabled path still returns the closure result.
        assert_eq!(Metrics::disabled().time("t", || 7), 7);
    }
}
