//! Spans recorded from the benchmark's own code around calls into the
//! program's public API, kept in memory and summarised at the end of a
//! run.
//!
//! A span has a layer name, a start, an end and the span that was open
//! when it began (its parent). A layer's self time is the summed
//! duration of its spans minus the part covered by their child spans.
//! A disabled tracer records nothing and only calls the closure, so
//! the same code path serves the untraced and the traced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (a layer name from the
    /// benchmark's metric table).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = Instant::now();
        out
    }

    /// Adds a span recorded elsewhere (on a worker thread) as a root
    /// span of this tracer.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: None,
            });
        }
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time per layer name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(Duration::ZERO) += (s.end - s.start).saturating_sub(child);
        }
        out
    }

    /// Self time of one layer, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map_or(0.0, Duration::as_secs_f64)
    }
}

/// Upper bounds of the per-horizon solve-latency histogram: log-spaced
/// from 10 µs to 15 s, the paper's per-frame deadline (FIG12A), plus an
/// overflow bucket.
pub const HIST_BOUNDS: [(&str, f64); 8] = [
    ("schedule.hist_le_10us", 10e-6),
    ("schedule.hist_le_100us", 100e-6),
    ("schedule.hist_le_1ms", 1e-3),
    ("schedule.hist_le_10ms", 10e-3),
    ("schedule.hist_le_100ms", 100e-3),
    ("schedule.hist_le_1s", 1.0),
    ("schedule.hist_le_10s", 10.0),
    ("schedule.hist_le_15s", 15.0),
];
pub const HIST_OVERFLOW: &str = "schedule.hist_gt_15s";

/// Bucket counts of `samples` (seconds) over [`HIST_BOUNDS`], with the
/// overflow bucket last.
pub fn histogram(samples: &[f64]) -> Vec<(&'static str, u64)> {
    let mut counts = vec![0u64; HIST_BOUNDS.len() + 1];
    for &s in samples {
        let i = HIST_BOUNDS
            .iter()
            .position(|&(_, hi)| s <= hi)
            .unwrap_or(HIST_BOUNDS.len());
        counts[i] += 1;
    }
    HIST_BOUNDS
        .iter()
        .map(|&(name, _)| name)
        .chain(std::iter::once(HIST_OVERFLOW))
        .zip(counts)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let st = t.self_times();
        assert!(st["inner"] >= Duration::from_millis(20));
        assert!(st["outer"] < Duration::from_millis(15));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.self_times().is_empty());
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let h = histogram(&[5e-6, 10e-6, 2e-3, 20.0]);
        let get = |n| h.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("schedule.hist_le_10us"), 2);
        assert_eq!(get("schedule.hist_le_10ms"), 1);
        assert_eq!(get(HIST_OVERFLOW), 1);
    }
}
