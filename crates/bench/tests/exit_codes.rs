//! The figure binaries' exit-status contract, checked on built
//! binaries: a flag outside a binary's table, or a malformed value, is
//! a usage error with status 2 that names the flag.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(std::env::temp_dir())
        .env_remove("EAGLEEYE_TRACE")
        .env_remove("EAGLEEYE_CRASH")
        .output()
        .expect("spawn figure binary")
}

fn assert_usage_error(exe: &str, args: &[&str], flag: &str) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{exe} {args:?}: {stderr}");
}

/// A binary that reads no flags rejects every argument.
#[test]
fn a_flagless_binary_rejects_any_flag() {
    assert_usage_error(env!("CARGO_BIN_EXE_fig10_lookahead"), &["--fast"], "--fast");
    assert_usage_error(env!("CARGO_BIN_EXE_fig16_energy"), &["--bogus"], "--bogus");
}

/// A horizon that is not a finite, non-negative number fails before
/// any evaluation starts, not in a pool worker.
#[test]
fn a_malformed_horizon_is_a_usage_error() {
    for hours in ["nan", "-1", "inf"] {
        let args = ["--fast", "--hours", hours];
        assert_usage_error(env!("CARGO_BIN_EXE_fig15_recall"), &args, "--hours");
    }
    let args = ["--scale", "nan"];
    assert_usage_error(env!("CARGO_BIN_EXE_fig4_swath_tradeoff"), &args, "--scale");
}

/// Only a binary whose table lists the run-layer flags takes them.
#[test]
fn an_unhonoured_run_layer_flag_is_a_usage_error() {
    let fig14b = env!("CARGO_BIN_EXE_fig14b_tiling");
    assert_usage_error(fig14b, &["--deadline", "5"], "--deadline");
    let fig15 = env!("CARGO_BIN_EXE_fig15_recall");
    assert_usage_error(fig15, &["--fast", "--deadline", "5"], "--deadline");
    assert_usage_error(fig15, &["--checkpoint", "x.ckpt"], "--checkpoint");
    let fig11a = env!("CARGO_BIN_EXE_fig11a_coverage");
    assert_usage_error(fig11a, &["--fast", "--resume"], "--resume");
}

#[test]
fn a_missing_artifact_list_is_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_metrics_check"), &[]);
    assert_eq!(out.status.code(), Some(2));
}
