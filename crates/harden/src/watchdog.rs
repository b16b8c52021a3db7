//! Deadline budget and cooperative shutdown for long runs.
//!
//! Both `abb` and `simplex` already stride-poll a wall-clock deadline
//! (check `Instant::now()` every N iterations so the syscall never
//! dominates an inner loop); this module generalizes that discipline
//! into a reusable [`Deadline`] + [`DeadlinePoll`] pair, and adds a
//! [`ShutdownFlag`] — a cooperative SIGTERM-style request that asks the
//! run to checkpoint and stop at the next safe point instead of dying
//! mid-write.
//!
//! A [`Deadline`] is *anytime* by contract: blowing it never aborts a
//! run. The supervised runner (`eagleeye_exec::run_items`) stops
//! dispatching new work, keeps the partials that finished, and marks
//! the result degraded (DESIGN.md §12). A run with no deadline performs no clock reads at
//! all and is bit-deterministic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The budget a `--deadline SECONDS` command-line flag asks for, by
/// the one rule every CLI in the workspace follows: zero or a negative
/// number means no budget (`None`), and a value that is not a usable
/// duration (NaN, infinite, or past [`Duration::MAX`]) is an error
/// message rather than a panic.
///
/// ```
/// use eagleeye_harden::budget_from_secs;
/// use std::time::Duration;
///
/// assert_eq!(budget_from_secs(0.0), Ok(None));
/// assert_eq!(budget_from_secs(-3.0), Ok(None));
/// assert_eq!(budget_from_secs(2.5), Ok(Some(Duration::from_millis(2_500))));
/// assert!(budget_from_secs(f64::NAN).is_err());
/// ```
pub fn budget_from_secs(secs: f64) -> Result<Option<Duration>, String> {
    if secs <= 0.0 {
        return Ok(None);
    }
    Duration::try_from_secs_f64(secs)
        .map(Some)
        .map_err(|e| format!("`{secs}` seconds is not a usable budget ({e})"))
}

/// A monotonic wall-clock budget for a run.
///
/// `Deadline::none()` is the deterministic default: it never expires
/// and [`Deadline::expired`] never touches the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

impl Deadline {
    /// No deadline: never expires, never reads the clock.
    pub fn none() -> Self {
        Deadline { at: None }
    }

    /// A deadline `budget` from now. A budget too large to represent
    /// as an [`Instant`] can never expire, so it means no deadline.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(budget),
        }
    }

    /// A deadline at an absolute instant (compose with an outer budget).
    pub fn at(at: Instant) -> Self {
        Deadline { at: Some(at) }
    }

    /// True when a budget was set (expired or not).
    pub fn is_set(&self) -> bool {
        self.at.is_some()
    }

    /// The absolute expiry instant, if a budget was set.
    pub fn instant(&self) -> Option<Instant> {
        self.at
    }

    /// True when the budget is exhausted. Reads the clock only when a
    /// budget was set.
    pub fn expired(&self) -> bool {
        match self.at {
            None => false,
            Some(at) => Instant::now() >= at,
        }
    }

    /// Time left in the budget (`None` when no budget was set, zero
    /// when already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }
}

/// Strided deadline polling for hot loops: queries the clock once per
/// `stride` calls, bounding both syscall overhead and deadline
/// overshoot — the same discipline `abb` (stride 256) and `simplex`
/// (stride 128) use inline.
#[derive(Debug, Clone)]
pub struct DeadlinePoll {
    deadline: Deadline,
    stride: usize,
    calls: usize,
    expired: bool,
}

impl DeadlinePoll {
    /// A poller over `deadline`, checking the clock every `stride`
    /// calls (a zero stride is treated as 1).
    pub fn new(deadline: Deadline, stride: usize) -> Self {
        DeadlinePoll {
            deadline,
            stride: stride.max(1),
            calls: 0,
            expired: false,
        }
    }

    /// True once the deadline has been observed expired. Latches: after
    /// the first `true`, the clock is never read again.
    pub fn expired(&mut self) -> bool {
        if self.expired || !self.deadline.is_set() {
            return self.expired;
        }
        self.calls += 1;
        if self.calls.is_multiple_of(self.stride) && self.deadline.expired() {
            self.expired = true;
        }
        self.expired
    }

    /// Checks the deadline immediately, ignoring the stride.
    #[cfg(test)]
    fn expired_now(&mut self) -> bool {
        if !self.expired && self.deadline.expired() {
            self.expired = true;
        }
        self.expired
    }

    /// The underlying deadline.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }
}

/// A cooperative SIGTERM-style shutdown request, shared between a
/// signal handler (or test) and the run it supervises.
///
/// The flag only *requests*: the runner finishes in-flight items,
/// writes a final checkpoint, and returns a degraded result, so a
/// Ctrl-C'd 24 h sweep resumes instead of restarting.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag {
    flag: Arc<AtomicBool>,
}

impl ShutdownFlag {
    /// A new, un-requested flag.
    pub fn new() -> Self {
        ShutdownFlag::default()
    }

    /// Requests shutdown. Safe to call from any thread, repeatedly.
    pub fn request(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once shutdown has been requested.
    pub fn requested(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadline_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_set());
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
        let mut p = DeadlinePoll::new(d, 8);
        for _ in 0..10_000 {
            assert!(!p.expired());
        }
        assert!(!p.expired_now());
    }

    #[test]
    fn elapsed_deadline_expires() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.is_set());
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_reports_remaining() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn poll_latches_after_expiry() {
        let mut p = DeadlinePoll::new(Deadline::after(Duration::ZERO), 4);
        // Strided: the first three calls skip the clock.
        assert!(!p.expired());
        assert!(!p.expired());
        assert!(!p.expired());
        assert!(p.expired());
        // Latched from here on.
        assert!(p.expired());
        assert!(p.expired_now());
    }

    #[test]
    fn expired_now_bypasses_stride() {
        let mut p = DeadlinePoll::new(Deadline::after(Duration::ZERO), 1_000_000);
        assert!(p.expired_now());
        assert!(p.expired());
    }

    #[test]
    fn zero_stride_is_clamped() {
        let mut p = DeadlinePoll::new(Deadline::after(Duration::ZERO), 0);
        assert!(p.expired());
    }

    #[test]
    fn shutdown_flag_is_shared() {
        let f = ShutdownFlag::new();
        let clone = f.clone();
        assert!(!f.requested());
        std::thread::spawn(move || clone.request()).join().unwrap();
        assert!(f.requested());
    }

    #[test]
    fn unrepresentable_budget_means_no_deadline() {
        for budget in [Duration::MAX, Duration::from_secs_f64(1e19)] {
            let d = Deadline::after(budget);
            assert!(!d.is_set());
            assert!(!d.expired());
        }
    }

    #[test]
    fn absolute_deadline_constructor() {
        let d = Deadline::at(Instant::now() + Duration::from_secs(60));
        assert!(d.is_set());
        assert!(!d.expired());
        assert!(d.instant().is_some());
    }
}
