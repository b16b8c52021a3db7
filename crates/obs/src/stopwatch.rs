//! The sanctioned raw elapsed-time primitive.
//!
//! The workspace's `clippy.toml` disallows `Instant::now()` everywhere
//! (DESIGN.md §11, R3) so simulation results can never silently depend
//! on wall time. Two types read the clock instead: a
//! [`Deadline`](eagleeye_harden::Deadline) for every wall-clock limit,
//! and a [`Stopwatch`] for every measured interval — the coverage
//! evaluator's per-phase times (which the registry later mirrors under
//! `core/evaluate/*`), [`Metrics::time`](crate::Metrics::time),
//! [`Metrics::span`](crate::Metrics::span) and the latencies the bench
//! binaries print. The interval read then lives *here*, in the
//! observability layer, where it is auditable and excluded from the
//! determinism contract (DESIGN.md §10.1: timers vary run to run and
//! are exempt from `same_outcome`).
//!
//! For timing that only needs to land in the metrics registry, prefer
//! `Metrics::time` or `Metrics::span`, which start no stopwatch when
//! the handle is disabled.

use std::time::{Duration, Instant};

/// A running wall-clock measurement. Unlike
/// [`SpanTimer`](crate::SpanTimer) it is not tied to a registry key:
/// it hands the measured [`Duration`] back to the caller.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the observability layer's one sanctioned elapsed-time read"
    )]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn default_starts_running() {
        let sw = Stopwatch::default();
        assert!(sw.elapsed() >= Duration::ZERO);
    }
}
