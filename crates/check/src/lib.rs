//! Dependency-free, deterministic property-based testing for the
//! EagleEye workspace.
//!
//! The sandboxed build has no network access, so the workspace cannot
//! depend on `proptest` or `quickcheck`. This crate provides the subset
//! those tools are used for here — random-input property tests with
//! minimal counterexamples and deterministic replay — on top of the
//! in-repo [`eagleeye_rng::SplitMix64`] generator, with no dependencies
//! beyond `std`.
//!
//! # Design: choice streams
//!
//! A generator ([`Gen`]) does not draw from the PRNG directly; it draws
//! `u64` *choices* from a [`Source`]. In live mode the source pulls
//! fresh choices from a seeded `SplitMix64` and records them; in replay
//! mode it feeds back a recorded (possibly edited) choice sequence,
//! returning `0` past the end. Because every primitive generator maps
//! *smaller raw choices to simpler values* (range generators collapse
//! toward their lower bound, collection generators toward fewer
//! elements), shrinking is generic: the shrinker edits the raw choice
//! sequence — deleting spans, zeroing them, minimizing single values —
//! and replays generation, which automatically shrinks *through* every
//! combinator (`map`, `filter`, tuples, `vec_of`) with no per-type
//! shrink code. This is the Hypothesis/proptest internal design in
//! miniature.
//!
//! # Determinism and replay
//!
//! Case `i` of property `name` generates from
//! `SplitMix64::new(BASE).fork(hash(name)).fork(i)` — fully determined
//! by the test name and case index, portable across platforms. When a
//! property fails, the panic message reports the failing case's seed;
//! running the same test with `EAGLEEYE_CHECK_SEED=<seed>` regenerates
//! exactly that case (and re-runs the deterministic shrinker, arriving
//! at the same minimal counterexample). `EAGLEEYE_CHECK_CASES=<n>`
//! scales every property's case count, e.g. for an extended CI budget.
//!
//! # Example
//!
//! ```
//! use eagleeye_check::{check_cases, f64_range, prop_assert};
//!
//! check_cases(
//!     64,
//!     "addition_commutes",
//!     (f64_range(-1e6, 1e6), f64_range(-1e6, 1e6)),
//!     |&(a, b)| {
//!         prop_assert!(a + b == b + a, "{a} + {b} not commutative");
//!         Ok(())
//!     },
//! );
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod gen;
mod runner;
mod shrink;
mod source;

pub use gen::{
    any_bool, f64_range, u64_range, usize_range, vec_of, BoolGen, F64Range, Filter, Gen, Map,
    U64Range, UsizeRange, VecGen,
};
pub use runner::{check, check_cases, Failure, PropResult, DEFAULT_CASES};
pub use source::Source;

/// Asserts a condition inside a property, failing the case with a
/// formatted message (or the stringified condition) instead of
/// panicking — so the harness can shrink the input first.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::Failure::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::Failure::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts two expressions are equal inside a property (by `==`),
/// failing the case with both values' debug representations.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::core::result::Result::Err($crate::Failure::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                left, right
            )));
        }
    }};
}

/// Discards the current case without failing when a precondition does
/// not hold; the runner generates a replacement case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::Failure::Discard);
        }
    };
}
