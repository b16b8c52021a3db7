//! Deadline budget for long runs.
//!
//! A [`Deadline`] is a wall-clock budget for a whole run. The solvers'
//! inner loops do not use this module: `abb` and `simplex` stride-poll
//! their own deadlines (checking `Instant::now()` every N iterations so
//! the clock read never dominates the loop).
//!
//! A [`Deadline`] is *anytime* by contract: blowing it never aborts a
//! run. The supervised runner (`eagleeye_exec::run_items`) stops
//! dispatching new work, keeps the partials that finished, and marks
//! the result degraded (DESIGN.md §12). A run with no deadline performs
//! no clock reads at all and is bit-deterministic.

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
    #[expect(
        clippy::disallowed_methods,
        reason = "a deadline is a wall-clock budget by contract; it only ever degrades a run"
    )]
    pub fn after(budget: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(budget),
        }
    }

    /// True when the budget is exhausted. Reads the clock only when a
    /// budget was set.
    #[expect(
        clippy::disallowed_methods,
        reason = "a deadline is a wall-clock budget by contract; it only ever degrades a run"
    )]
    pub fn expired(&self) -> bool {
        match self.at {
            None => false,
            Some(at) => Instant::now() >= at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadline_never_expires() {
        let d = Deadline::none();
        assert_eq!(d, Deadline::default());
        assert!(!d.expired());
    }

    #[test]
    fn elapsed_deadline_expires() {
        let d = Deadline::after(Duration::ZERO);
        assert_ne!(d, Deadline::none());
        assert!(d.expired());
    }

    #[test]
    fn future_deadline_reports_remaining() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert_ne!(d, Deadline::none());
        assert!(!d.expired());
    }

    #[test]
    fn unrepresentable_budget_means_no_deadline() {
        for budget in [Duration::MAX, Duration::from_secs_f64(1e19)] {
            let d = Deadline::after(budget);
            assert_eq!(d, Deadline::none());
            assert!(!d.expired());
        }
    }
}
