//! Cross-process crash-injection tests for the crash-safe run layer.
//!
//! These tests exercise the real recovery path: a child `eagleeye`
//! process is killed mid-run via `EAGLEEYE_CRASH` (see
//! `eagleeye-harden`), restarted with `--resume`, and the final report
//! digest plus the obs counter/histogram artifact are asserted
//! bit-identical to an uninterrupted run — at 1 and 4 worker threads.
//!
//! The property sweep at the bottom fuzzes (config, site, mode, nth,
//! threads) over many kill points, drawing the EagleEye configuration
//! or a low-res swath one (eight per-satellite passes); set `EAGLEEYE_CRASH_SWEEP_CASES` to widen it
//! (CI runs 256 cases) and `EAGLEEYE_CRASH_SWEEP_SEED` to replay a
//! single failing case.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The exit code `crash_point` uses for mode `exit` (its portable
/// SIGKILL stand-in).
const INJECTED_EXIT: i32 = 42;

/// A small scenario with real captures (non-trivial digest fields) and
/// four leader passes (eight satellites in groups of one leader and the
/// default one follower), so a crash on an early pass leaves work to
/// resume. Runs in ~40 ms in a debug build. It names no flag that only
/// one constellation reads, so the sweep can run it as a low-res one.
const SCENARIO: &[&str] = &[
    "coverage",
    "--workload",
    "ships",
    "--scale",
    "0.1",
    "--sats",
    "8",
    "--hours",
    "1",
    "--seed",
    "7",
];

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eagleeye_crash_resume_{}_{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Runs the `eagleeye` binary with the standard scenario in `dir`
/// (which receives `results/METRICS_eagleeye.json`), optionally armed
/// with an `EAGLEEYE_CRASH` spec.
fn run_eagleeye(dir: &Path, threads: usize, extra: &[&str], crash: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eagleeye"));
    cmd.args(SCENARIO)
        .args(["--threads", &threads.to_string()])
        .args(extra)
        .current_dir(dir)
        .env("EAGLEEYE_TRACE", "1")
        .env_remove("EAGLEEYE_CRASH");
    if let Some(spec) = crash {
        cmd.env("EAGLEEYE_CRASH", spec);
    }
    cmd.output().expect("spawn eagleeye binary")
}

/// The deterministic `digest:` line the CLI prints (no wall-clock
/// fields), used to compare runs across processes bit-for-bit.
fn digest(output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .find(|l| l.starts_with("digest:"))
        .unwrap_or_else(|| panic!("no digest line in stdout:\n{stdout}"))
        .to_string()
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The deterministic sections of the metrics artifact: counters and
/// histograms hold the bit-identity contract; gauges (resume/degrade
/// state) and timers (wall clock) are run-dependent by design.
fn golden_sections(dir: &Path) -> (String, String) {
    let path = dir.join("results").join("METRICS_eagleeye.json");
    let json = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let counters = json
        .split("\"counters\":")
        .nth(1)
        .and_then(|s| s.split("\"gauges\":").next())
        .expect("counters section")
        .to_string();
    let histograms = json
        .split("\"histograms\":")
        .nth(1)
        .expect("histograms section")
        .to_string();
    (counters, histograms)
}

#[test]
fn kill_and_resume_matches_uninterrupted_run() {
    for threads in [1usize, 4] {
        // Reference: an uninterrupted hardened run.
        let ref_dir = fresh_dir(&format!("ref_t{threads}"));
        let reference = run_eagleeye(
            &ref_dir,
            threads,
            &["--checkpoint", "ck", "--ckpt-cadence", "1"],
            None,
        );
        assert!(
            reference.status.success(),
            "reference run failed: {}",
            stderr_of(&reference)
        );
        let ref_digest = digest(&reference);
        let ref_golden = golden_sections(&ref_dir);

        // The hardened path must report exactly what the plain
        // evaluator reports.
        let plain_dir = fresh_dir(&format!("plain_t{threads}"));
        let plain = run_eagleeye(&plain_dir, threads, &[], None);
        assert!(
            plain.status.success(),
            "plain run failed: {}",
            stderr_of(&plain)
        );
        assert_eq!(
            digest(&plain),
            ref_digest,
            "hardened vs plain digest (threads={threads})"
        );

        // Kill the process on the third supervised work item.
        let dir = fresh_dir(&format!("crash_t{threads}"));
        let crashed = run_eagleeye(
            &dir,
            threads,
            &["--checkpoint", "ck", "--ckpt-cadence", "1"],
            Some("worker_item:exit:3"),
        );
        assert_eq!(
            crashed.status.code(),
            Some(INJECTED_EXIT),
            "injected exit expected (threads={threads}): {}",
            stderr_of(&crashed)
        );

        // Resume from the published checkpoint; no injection this time.
        let resumed = run_eagleeye(
            &dir,
            threads,
            &["--checkpoint", "ck", "--ckpt-cadence", "1", "--resume"],
            None,
        );
        assert!(
            resumed.status.success(),
            "resume failed: {}",
            stderr_of(&resumed)
        );
        assert_eq!(
            digest(&resumed),
            ref_digest,
            "resumed digest differs from uninterrupted run (threads={threads})"
        );
        let golden = golden_sections(&dir);
        assert_eq!(
            golden.0, ref_golden.0,
            "counters differ (threads={threads})"
        );
        assert_eq!(
            golden.1, ref_golden.1,
            "histograms differ (threads={threads})"
        );

        for d in [&ref_dir, &plain_dir, &dir] {
            let _ = fs::remove_dir_all(d);
        }
    }
}

#[test]
fn panic_injection_is_supervised_and_transparent() {
    // A single injected panic is retried by the supervisor; the run
    // completes in one process with a bit-identical result and the same
    // counters. `worker_item` panics before a pass does any work;
    // `bnb_node` panics mid-solve, after the pass compiled its track, so
    // the retry must not inherit what the failed attempt built.
    let ref_dir = fresh_dir("panic_ref");
    let reference = run_eagleeye(&ref_dir, 4, &["--checkpoint", "ck"], None);
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    for spec in ["worker_item:panic:2", "bnb_node:panic:5"] {
        let dir = fresh_dir("panic_run");
        let run = run_eagleeye(&dir, 4, &["--checkpoint", "ck"], Some(spec));
        assert!(
            run.status.success(),
            "supervised retry should absorb a single panic ({spec}): {}",
            stderr_of(&run)
        );
        assert_eq!(digest(&run), digest(&reference), "{spec}");
        assert_eq!(golden_sections(&dir), golden_sections(&ref_dir), "{spec}");
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn crash_during_checkpoint_publish_preserves_previous_snapshot() {
    // Kill between the tmp-file write and the rename of the *second*
    // checkpoint: the first published snapshot must survive intact and
    // resume exactly one leader pass.
    let ref_dir = fresh_dir("ckpt_ref");
    let reference = run_eagleeye(
        &ref_dir,
        1,
        &["--checkpoint", "ck", "--ckpt-cadence", "1"],
        None,
    );
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    let dir = fresh_dir("ckpt_crash");
    let crashed = run_eagleeye(
        &dir,
        1,
        &["--checkpoint", "ck", "--ckpt-cadence", "1"],
        Some("checkpoint_write:exit:2"),
    );
    assert_eq!(crashed.status.code(), Some(INJECTED_EXIT));
    assert!(
        dir.join("ck").exists(),
        "first snapshot must have been published"
    );

    let resumed = run_eagleeye(
        &dir,
        1,
        &["--checkpoint", "ck", "--ckpt-cadence", "1", "--resume"],
        None,
    );
    assert!(resumed.status.success(), "{}", stderr_of(&resumed));
    assert!(
        stderr_of(&resumed).contains("resumed 1 of 4 leader passes"),
        "expected exactly the first pass to resume, got: {}",
        stderr_of(&resumed)
    );
    assert_eq!(digest(&resumed), digest(&reference));
    assert_eq!(golden_sections(&dir), golden_sections(&ref_dir));
    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}

/// splitmix64 — the workspace's PRNG step (`eagleeye-rng`), inlined so
/// this integration test stays dependency-free on the library.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn crash_property_sweep() {
    // Fuzz kill points: every (config, site, mode, nth, threads)
    // combination must leave the system recoverable with a bit-identical
    // digest.
    //
    // Default is a quick smoke (8 cases); CI widens it with
    // EAGLEEYE_CRASH_SWEEP_CASES=256. A failure prints its case seed —
    // replay just that case with EAGLEEYE_CRASH_SWEEP_SEED=<seed>.
    let cases: u64 = std::env::var("EAGLEEYE_CRASH_SWEEP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let replay: Option<u64> = std::env::var("EAGLEEYE_CRASH_SWEEP_SEED")
        .ok()
        .and_then(|v| v.parse().ok());

    let configs = ["eagleeye", "low-res"];
    let ref_dir = fresh_dir("sweep_ref");
    let ref_digests: Vec<String> = configs
        .iter()
        .map(|config| {
            let reference = run_eagleeye(
                &ref_dir,
                1,
                &["--config", config, "--checkpoint", "ck"],
                None,
            );
            assert!(reference.status.success(), "{}", stderr_of(&reference));
            let _ = fs::remove_file(ref_dir.join("ck"));
            digest(&reference)
        })
        .collect();

    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (0..cases).map(|i| 0x5EED_0000 + i).collect(),
    };
    for seed in seeds {
        let mut s = seed;
        let pick = (splitmix64(&mut s) % 2) as usize;
        let (config, ref_digest) = (configs[pick], &ref_digests[pick]);
        let site =
            ["worker_item", "checkpoint_write", "bnb_node"][(splitmix64(&mut s) % 3) as usize];
        let mode = ["exit", "panic"][(splitmix64(&mut s) % 2) as usize];
        let nth = 1 + splitmix64(&mut s) % 6;
        let threads = [1usize, 2, 4][(splitmix64(&mut s) % 3) as usize];
        let spec = format!("{site}:{mode}:{nth}");
        let ctx = |step: &str, out: &Output| {
            format!(
                "sweep case failed at {step}: config={config} spec={spec} threads={threads}\n\
                 replay with EAGLEEYE_CRASH_SWEEP_SEED={seed}\n--- stderr ---\n{}",
                stderr_of(out)
            )
        };

        let dir = fresh_dir(&format!("sweep_{seed:x}"));
        let flags = [
            "--config",
            config,
            "--checkpoint",
            "ck",
            "--ckpt-cadence",
            "1",
        ];
        let crashed = run_eagleeye(&dir, threads, &flags, Some(&spec));
        // `exit` kills the process (42); `panic` is either absorbed by
        // the supervisor (worker_item) or fatal in the driver
        // (checkpoint_write). All are legitimate crash outcomes — the
        // contract under test is recoverability, below.
        if crashed.status.success() {
            assert_eq!(
                &digest(&crashed),
                ref_digest,
                "{}",
                ctx("survived run", &crashed)
            );
        }

        let resumed = run_eagleeye(
            &dir,
            threads,
            &[
                "--config",
                config,
                "--checkpoint",
                "ck",
                "--ckpt-cadence",
                "1",
                "--resume",
            ],
            None,
        );
        assert!(resumed.status.success(), "{}", ctx("resume", &resumed));
        assert_eq!(
            &digest(&resumed),
            ref_digest,
            "{}",
            ctx("resume digest", &resumed)
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}
