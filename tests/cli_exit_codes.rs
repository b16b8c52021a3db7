//! The `eagleeye` exit-status contract, checked on the built binary:
//! 0 on success, 1 when the run fails, 2 on a usage error (a flag the
//! subcommand does not read or its chosen mode ignores, a run-layer
//! companion without `--checkpoint`, a missing or unknown subcommand).
//! Also pins the ground track `eagleeye orbit` prints.

use eagleeye::harden::ScenarioHasher;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// `eagleeye args…` with tracing and crash injection off.
fn eagleeye(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_eagleeye"));
    command
        .args(args)
        .current_dir(std::env::temp_dir())
        .env_remove("EAGLEEYE_TRACE")
        .env_remove("EAGLEEYE_CRASH");
    command
}

/// Runs `eagleeye args…` and returns its exit status.
fn status(args: &[&str]) -> i32 {
    eagleeye(args)
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
        &["orbit", "--sgp4"],
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

/// A value the evaluator rejects parses but fails the run: zero
/// orbital planes, or more planes than satellites, exits like an
/// out-of-range recall.
#[test]
fn an_invalid_evaluator_parameter_exits_1() {
    for flags in [
        &["--planes", "0"][..],
        &["--recall", "2"],
        &["--config", "low-res", "--sats", "2", "--planes", "3"],
    ] {
        let args = [
            &["coverage", "--scale", "0.01", "--hours", "0.2"][..],
            flags,
        ]
        .concat();
        assert_eq!(status(&args), 1, "eagleeye {args:?}");
    }
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

/// Runs `eagleeye args…` to success and returns the FNV-1a digest and
/// line count of its stdout.
fn stdout_digest(args: &[&str]) -> (u64, usize) {
    let out = eagleeye(args).output().expect("spawn eagleeye");
    assert!(out.status.success(), "eagleeye {args:?}: {}", out.status);
    let lines = out.stdout.iter().filter(|&&b| b == b'\n').count();
    (ScenarioHasher::new().bytes(&out.stdout).finish(), lines)
}

/// `eagleeye orbit` prints the paper orbit's J2 ground track; these
/// digests pin it byte for byte (sha256 of the same output:
/// `72689b48…` and `78f245c9…`).
#[test]
fn orbit_track_is_pinned() {
    assert_eq!(stdout_digest(&["orbit"]), (0x3348_4859_9043_3c6a, 17));
    assert_eq!(
        stdout_digest(&["orbit", "--hours", "24", "--step", "60"]),
        (0xd1a8_f949_4ac0_056c, 1_442)
    );
}

/// A reader that closes the pipe early ends `eagleeye orbit` with
/// status 0 and no panic, as `eagleeye orbit … | head -1` does.
#[test]
fn orbit_exits_0_when_its_reader_closes_stdout() {
    let mut child = eagleeye(&["orbit", "--hours", "24", "--step", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn eagleeye");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut header = String::new();
    BufReader::new(stdout)
        .read_line(&mut header)
        .expect("read the header");
    assert!(header.starts_with("t_s,"), "{header:?}");
    // The reader is dropped here, closing the pipe mid-track.
    let out = child.wait_with_output().expect("wait for eagleeye");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
