//! The `eagleeye` exit-status contract, checked on the built binary:
//! 0 on success, 1 when the run fails, 2 on a usage error (a flag the
//! subcommand does not read or its chosen mode ignores, a run-layer
//! companion without `--checkpoint`, a missing or unknown subcommand).

use std::process::Command;

/// Runs `eagleeye args…` with tracing off and returns its exit status.
fn status(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_eagleeye"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .env_remove("EAGLEEYE_TRACE")
        .env_remove("EAGLEEYE_CRASH")
        .output()
        .expect("spawn eagleeye")
        .status
        .code()
        .expect("exit status")
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["coverage", "--checkpoint-cadence", "3"][..],
        &["dataset", "--bogus", "3"],
        &["coverage", "--resume"],
        &["orbit", "--hours", "nan"],
        &["coverage", "--scale", "nan"],
        &["coverage", "--config", "low-res", "--followers", "3"],
        &["coverage", "--config", "eagleeye", "--compute", "9"],
        &["coverage", "--config", "low-res", "--recall", "0.5"],
        &["coverage", "--config", "high-res", "--recall", "0.5"],
        &["energy", "--role", "follower", "--tile-factor", "4"],
        &["frobnicate"],
        &[],
    ] {
        assert_eq!(status(args), 2, "eagleeye {args:?}");
    }
}

#[test]
fn a_checkpoint_io_failure_exits_1() {
    let path = std::env::temp_dir()
        .join(format!("eagleeye_missing_dir_{}", std::process::id()))
        .join("x.ckpt");
    let path = path.to_str().expect("utf-8 temp path");
    let args = [
        "coverage",
        "--checkpoint",
        path,
        "--scale",
        "0.01",
        "--hours",
        "0.2",
    ];
    assert_eq!(status(&args), 1, "eagleeye {args:?}");
}

#[test]
fn valid_command_lines_exit_0() {
    for args in [
        &["help"][..],
        &["dataset", "--scale", "0.001"],
        &["energy"],
        &["energy", "--role", "mix", "--tile-factor", "2"],
    ] {
        assert_eq!(status(args), 0, "eagleeye {args:?}");
    }
}
