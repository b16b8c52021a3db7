//! The rule set. Each rule is a pure function over a [`FileCtx`];
//! `check_all` runs every rule. Scoping conventions shared by the
//! rules:
//!
//! * *library code* means [`FileRole::Lib`](crate::engine::FileRole)
//!   files, excluding `#[cfg(test)]` regions;
//! * the `bench` crate is harness code (CLI parsing, figure binaries)
//!   and is exempt from `no-unwrap` the same way `tests/` are;
//! * `clock` applies to **all** roles — a wall-clock read in a test
//!   is still a wall-clock read — and is instead scoped by crate.

use crate::diag::Diagnostic;
use crate::engine::FileCtx;

mod clock;
mod determinism;
mod float_eq;
mod metric_namespace;
mod no_exit;
mod no_unwrap;
mod unsafe_hygiene;

/// Runs every rule (R1–R7).
pub fn check_all(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    no_unwrap::check(ctx, out);
    no_exit::check(ctx, out);
    determinism::check(ctx, out);
    clock::check(ctx, out);
    float_eq::check(ctx, out);
    unsafe_hygiene::check(ctx, out);
    metric_namespace::check(ctx, out);
}
