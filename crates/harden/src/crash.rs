//! `EAGLEEYE_CRASH` fault-injection hook for crash testing.
//!
//! Recovery code that is never executed is recovery code that does not
//! work. This module plants named *crash sites* in production paths
//! (`worker_item` in the supervised pool, `checkpoint_write` between
//! the tmp-file write and the rename, `bnb_node` in the B&B loop) and
//! lets a test arm them from the environment:
//!
//! ```text
//! EAGLEEYE_CRASH=<site>:<mode>:<nth>[,<site>:<mode>:<nth>...]
//! ```
//!
//! * `site` — the name passed to [`crash_point`];
//! * `mode` — `panic` (unwind, exercising supervision/retry) or `exit`
//!   (immediate `process::exit(42)`, simulating a kill — no
//!   destructors, no checkpoint flush);
//! * `nth` — fire on the Nth hit of the site (1-based), so a test can
//!   let two checkpoints land and kill the third.
//!
//! Example: `EAGLEEYE_CRASH=checkpoint_write:exit:3` kills the process
//! the third time a checkpoint is about to be published.
//!
//! The plan is parsed once (on first [`crash_point`] hit) and cached in
//! a `OnceLock`; with the variable unset the per-site cost is one
//! initialized-`OnceLock` load and a `is_empty()` check. Sites count
//! hits with per-entry atomics, so concurrent workers agree on which
//! hit is the Nth.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// What an armed crash site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashMode {
    /// `panic!` — unwinds, so supervision (`catch_unwind`, retry,
    /// quarantine) sees it.
    Panic,
    /// `process::exit(42)` — no unwinding, no destructors; the closest
    /// portable stand-in for SIGKILL.
    Exit,
}

/// One armed site: fire with `mode` on the `nth` (1-based) hit.
#[derive(Debug)]
struct Armed {
    site: String,
    mode: CrashMode,
    nth: u64,
    hits: AtomicU64,
}

/// A parsed `EAGLEEYE_CRASH` specification.
#[derive(Debug, Default)]
struct CrashPlan {
    armed: Vec<Armed>,
}

impl CrashPlan {
    /// Parses a spec string (see module docs for the grammar).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed entry; the callers
    /// treat a malformed spec as fatal (a crash test with a typo'd spec
    /// must not silently test nothing).
    fn parse(spec: &str) -> Result<Self, String> {
        let mut armed = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let parts: Vec<&str> = entry.split(':').collect();
            if parts.len() != 3 {
                return Err(format!(
                    "EAGLEEYE_CRASH entry {entry:?} is not <site>:<mode>:<nth>"
                ));
            }
            let mode = match parts[1] {
                "panic" => CrashMode::Panic,
                "exit" => CrashMode::Exit,
                other => {
                    return Err(format!(
                        "EAGLEEYE_CRASH mode {other:?} in {entry:?} is not panic|exit"
                    ));
                }
            };
            let nth: u64 = parts[2].parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                format!(
                    "EAGLEEYE_CRASH nth {:?} in {entry:?} is not a positive integer",
                    parts[2]
                )
            })?;
            armed.push(Armed {
                site: parts[0].to_string(),
                mode,
                nth,
                hits: AtomicU64::new(0),
            });
        }
        Ok(CrashPlan { armed })
    }

    /// True when no sites are armed.
    fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Records a hit at `site`; returns the mode to fire with if an
    /// armed entry just reached its Nth hit.
    fn hit(&self, site: &str) -> Option<CrashMode> {
        let mut fire = None;
        for entry in self.armed.iter().filter(|e| e.site == site) {
            let count = entry.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if count == entry.nth {
                fire = Some(entry.mode);
            }
        }
        fire
    }
}

/// The process-wide plan, parsed from `EAGLEEYE_CRASH` on first use.
fn global_plan() -> &'static CrashPlan {
    static PLAN: OnceLock<CrashPlan> = OnceLock::new();
    PLAN.get_or_init(|| match std::env::var("EAGLEEYE_CRASH") {
        Ok(spec) if !spec.trim().is_empty() => match CrashPlan::parse(&spec) {
            Ok(plan) => plan,
            Err(msg) => panic!("{msg}"),
        },
        _ => CrashPlan::default(),
    })
}

/// A named crash site. No-op unless `EAGLEEYE_CRASH` arms `site`, in
/// which case the Nth hit panics or exits per the spec.
///
/// Call this from production paths guarded by recovery logic; the cost
/// with injection disabled is one atomic-free branch.
///
/// # Panics
///
/// When armed with mode `panic` and this hit is the Nth.
pub fn crash_point(site: &str) {
    let plan = global_plan();
    if plan.is_empty() {
        return;
    }
    match plan.hit(site) {
        None => {}
        Some(CrashMode::Panic) => {
            panic!("injected crash at site {site:?} (EAGLEEYE_CRASH)");
        }
        Some(CrashMode::Exit) => {
            eprintln!("eagleeye-harden: injected exit at site {site:?} (EAGLEEYE_CRASH)");
            #[expect(
                clippy::disallowed_methods,
                reason = "the exit *is* the fault being injected — a portable stand-in for SIGKILL, deliberately skipping destructors and checkpoint flushes"
            )]
            std::process::exit(42);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_specs() {
        let plan = CrashPlan::parse("worker_item:panic:1").unwrap();
        assert!(!plan.is_empty());
        let plan =
            CrashPlan::parse("worker_item:panic:2, checkpoint_write:exit:3,bnb_node:panic:10")
                .unwrap();
        assert_eq!(plan.armed.len(), 3);
        assert!(CrashPlan::parse("").unwrap().is_empty());
        assert!(CrashPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(CrashPlan::parse("worker_item:panic").is_err());
        assert!(CrashPlan::parse("worker_item:segv:1").is_err());
        assert!(CrashPlan::parse("worker_item:panic:0").is_err());
        assert!(CrashPlan::parse("worker_item:panic:x").is_err());
        assert!(CrashPlan::parse("a:b:c:d").is_err());
    }

    #[test]
    fn nth_hit_fires_exactly_once() {
        let plan = CrashPlan::parse("site:panic:3").unwrap();
        assert_eq!(plan.hit("site"), None);
        assert_eq!(plan.hit("other"), None);
        assert_eq!(plan.hit("site"), None);
        assert_eq!(plan.hit("site"), Some(CrashMode::Panic));
        assert_eq!(plan.hit("site"), None);
    }

    #[test]
    fn multiple_entries_for_one_site_count_independently() {
        let plan = CrashPlan::parse("s:panic:1,s:exit:2").unwrap();
        assert_eq!(plan.hit("s"), Some(CrashMode::Panic));
        assert_eq!(plan.hit("s"), Some(CrashMode::Exit));
        assert_eq!(plan.hit("s"), None);
    }

    #[test]
    fn unarmed_crash_point_is_a_no_op() {
        // The test binary runs without EAGLEEYE_CRASH; the global plan
        // must be empty and the call must return normally.
        crash_point("never_armed_site");
    }

    #[test]
    fn concurrent_hits_fire_exactly_once() {
        let plan = std::sync::Arc::new(CrashPlan::parse("s:panic:64").unwrap());
        let fired: Vec<Option<CrashMode>> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let plan = std::sync::Arc::clone(&plan);
                    scope.spawn(move || (0..16).map(|_| plan.hit("s")).collect::<Vec<_>>())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
                .into_iter()
                .flatten()
                .collect()
        });
        assert_eq!(
            fired.iter().filter(|f| f.is_some()).count(),
            1,
            "exactly one of 128 hits must be the 64th"
        );
    }
}
