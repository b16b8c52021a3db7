//! The sanctioned raw elapsed-time primitive.
//!
//! The workspace's `clippy.toml` disallows `Instant::now()` everywhere
//! (DESIGN.md §11, R3) so simulation results can never silently depend
//! on wall time; each read that is right by design carries an
//! `#[expect(clippy::disallowed_methods, reason = …)]`. Code
//! that genuinely needs a measured [`Duration`] back — the coverage
//! evaluator accumulates per-phase times into its report, which the
//! registry later mirrors under `core/evaluate/*` — starts a
//! [`Stopwatch`] instead of touching the clock directly. The clock
//! read then lives *here*, in the observability layer, where it is
//! auditable and excluded from the determinism contract
//! (DESIGN.md §10.1: timers vary run to run and are exempt from
//! `same_outcome`).
//!
//! For timing that only needs to land in the metrics registry, prefer
//! [`Metrics::time`](crate::Metrics::time) or
//! [`Metrics::span`](crate::Metrics::span), which skip the clock
//! entirely when the handle is disabled.

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
