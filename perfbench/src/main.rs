//! End-to-end benchmark of the EagleEye coverage evaluator.
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (each runs in its own process, on at most
//! `available_parallelism` threads):
//!
//! * `design_point` -- cold `CoverageEvaluator::evaluate` of a paper-shaped
//!   8 × 2 EagleEye ILP design on Ship Detection at full scale, one fresh
//!   evaluator per evaluation, on one thread.
//! * `swath_sweep` -- a Fig. 11a-style sweep over all four paper workloads
//!   (Lake 1.4M included) of swath-only and greedy EagleEye designs,
//!   through the crash-safe checkpointed sweep on every core.
//! * `what_if_session` -- one analyst asking a seeded sequence of
//!   `what_if` deltas against an evaluated 8 × 2 parent.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports per-layer metrics timed from spans the
//! benchmark places around public calls (see `trace.rs` and `replay.rs`).
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it records the environment,
//! the scenario shapes and the code revision.

mod design_point;
mod replay;
mod swath_sweep;
mod trace;
mod what_if;

use eagleeye_core::coverage::CoverageReport;
use eagleeye_datasets::TargetSet;
use std::collections::BTreeMap;
use std::time::Duration;
use trace::Tracer;

/// Simulated horizon of every workload. At 3 h the 8 × 2 design point is
/// dominated by one or two horizons whose solve swings 1.9–7.7 s between
/// seeds, so no statistic of a short run is steady; 1 h keeps the
/// full-density frames without that tail.
pub const HORIZON_S: f64 = 3600.0;
/// Dataset scale of every workload (the paper's full target counts).
pub const SCALE: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_s", "s"),
    ("datasets.index_s", "s"),
    ("datasets.targets", "count"),
    ("orbit.propagate_s", "s"),
    ("orbit.states", "count"),
    ("compile.swath_eval_s", "s"),
    ("compile.query_s", "s"),
    ("compile.track_builds", "count"),
    ("compile.track_shares", "count"),
    ("compile.track_reuses", "count"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.warm_eval_s", "s"),
    ("delta.calls", "count"),
    ("delta.total_s", "s"),
    ("delta.dirty_frames", "count"),
    ("delta.track_builds", "count"),
    ("clustering.calls", "count"),
    ("clustering.total_s", "s"),
    ("clustering.max_ms", "ms"),
    ("clustering.clusters_per_target", "ratio"),
    ("schedule.calls", "count"),
    ("schedule.total_s", "s"),
    ("schedule.problem_s", "s"),
    ("schedule.p50_us", "us"),
    ("schedule.p99_us", "us"),
    ("schedule.max_ms", "ms"),
    ("schedule.top5_share", "ratio"),
    ("schedule.captures_per_task", "ratio"),
    ("schedule.greedy_s", "s"),
    ("schedule.hist_le_10us", "count"),
    ("schedule.hist_le_100us", "count"),
    ("schedule.hist_le_1ms", "count"),
    ("schedule.hist_le_10ms", "count"),
    ("schedule.hist_le_100ms", "count"),
    ("schedule.hist_le_1s", "count"),
    ("schedule.hist_le_10s", "count"),
    ("schedule.hist_le_15s", "count"),
    ("schedule.hist_gt_15s", "count"),
    ("ilp.nodes_explored", "count"),
    ("ilp.nodes_pruned", "count"),
    ("ilp.lp_iterations", "count"),
    ("ilp.lp_pivots", "count"),
    ("ilp.pivots_per_node", "ratio"),
    ("ilp.warm_start_ratio", "ratio"),
    ("ilp.deadline_hits", "count"),
    ("ilp.iteration_limit_hits", "count"),
    ("coverage.evaluate_s", "s"),
    ("coverage.execute_s", "s"),
    ("exec.threads", "count"),
    ("exec.busy_frac", "ratio"),
    ("harden.checkpoint_bytes", "bytes"),
    ("harden.snapshot_write_s", "s"),
    ("harden.snapshot_load_s", "s"),
    ("report.codec_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
    ("trace.schedule_vs_report", "ratio"),
];

/// Per-run settings from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    /// Directory for the run's temporary files (inside the checkout).
    pub scratch: std::path::PathBuf,
}

impl Ctx {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check mismatches (each also counted in `failed`).
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Scenario shapes and other facts for the environment record, as
    /// `(key, JSON value)`.
    pub info: Vec<(&'static str, String)>,
}

impl Run {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn info(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.info.push((key, value.to_string()));
    }

    /// Records a failed check without aborting the run.
    pub fn mismatch(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Records an operation that returned an error.
    pub fn error(&mut self, what: String) {
        eprintln!("perfbench: operation failed: {what}");
        self.failed += 1;
    }

    /// Counts a report whose horizons were cut short (deadline or
    /// iteration cap) or fell back to greedy as a failed operation.
    pub fn note_degraded(&mut self, r: &CoverageReport) {
        let degraded = r.ilp_deadline_hits
            + r.ilp_iteration_limit_hits
            + r.greedy_fallbacks
            + r.deadline_fallbacks
            > 0
            || r.degraded;
        if degraded {
            self.failed += 1;
        }
    }

    /// Sets `setup_s` (median set-up) and, from the timed cycles,
    /// `op_p50_ms`/`op_p95_ms` (percentiles over the distinct operations
    /// of each one's fastest repetition) and `frames_per_s` (frames of
    /// one cycle over the sum of those fastest repetitions).
    ///
    /// Every cycle repeats identical work, so the fastest repetition is
    /// the cost of that work with the host's slow periods filtered out:
    /// on a shared 2-vCPU VM the same evaluation alternates between two
    /// speeds ~1.6× apart for seconds at a time, which moves medians of
    /// raw samples by more than any bound worth setting.
    pub fn set_end_to_end(&mut self, setups: &[Duration], cycles: &[Cycle]) {
        self.set(
            "setup_s",
            quantile(
                &setups.iter().map(Duration::as_secs_f64).collect::<Vec<_>>(),
                0.5,
            ),
        );
        let n_ops = cycles.iter().map(|c| c.ops.len()).max().unwrap_or(0);
        let best: Vec<f64> = (0..n_ops)
            .filter_map(|i| {
                cycles
                    .iter()
                    .filter_map(|c| c.ops.get(i).copied().flatten())
                    .min()
                    .map(|d| d.as_secs_f64())
            })
            .collect();
        let frames = cycles.first().map_or(0, |c| c.frames);
        self.set(
            "frames_per_s",
            frames as f64 / best.iter().sum::<f64>().max(1e-12),
        );
        self.set("op_p50_ms", 1e3 * quantile(&best, 0.50));
        self.set("op_p95_ms", 1e3 * quantile(&best, 0.95));
        self.info("distinct_ops", best.len());
        self.info("cycles", cycles.len());
    }
}

/// One repetition of a workload's timed work.
#[derive(Default)]
pub struct Cycle {
    /// Wall of the whole cycle (used where operations run in parallel).
    pub wall: Duration,
    /// Latency of each operation, by its position in the cycle (`None`
    /// when it failed or was not reached).
    pub ops: Vec<Option<Duration>>,
    /// Frames evaluated by the cycle.
    pub frames: usize,
}

/// Runs a workload's set-up `SETUPS` times, dropping each result before
/// the next so memory does not stack, and returns the last set-up's
/// datasets and spans plus every set-up's wall. Records the target count
/// in the environment record.
pub fn set_up(
    ctx: &Ctx,
    run: &mut Run,
    mut f: impl FnMut(&mut Run, &mut Tracer) -> Vec<TargetSet>,
) -> (Vec<TargetSet>, Vec<Duration>, Tracer) {
    let mut walls = Vec::new();
    let mut datasets = Vec::new();
    let mut tr = Tracer::new(ctx.trace);
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut datasets));
        tr = Tracer::new(ctx.trace);
        let start = std::time::Instant::now();
        datasets = f(run, &mut tr);
        walls.push(start.elapsed());
    }
    run.info(
        "targets",
        datasets.iter().map(TargetSet::len).sum::<usize>(),
    );
    (datasets, walls, tr)
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Derived sub-seed `i` of the run seed.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    eagleeye_rng::SplitMix64::new(seed).fork(i).next_u64()
}

/// Builds the dataset's per-time-bucket spatial index for every frame
/// epoch of the horizon, so that timed evaluations start from a ready
/// dataset rather than paying the lazy index build on first touch.
pub fn build_index(targets: &TargetSet) {
    let spec = eagleeye_core::SensingSpec::paper_default();
    for t in eagleeye_orbit::frame_epochs(HORIZON_S, spec.frame_cadence_s) {
        let _ = targets.bucket_view(t);
    }
}

/// Differences in what a report says was captured and scheduled.
pub fn outcome_diff(a: &CoverageReport, b: &CoverageReport) -> Option<String> {
    let fields = [
        ("captured", a.captured, b.captured),
        ("total", a.total, b.total),
        ("frames_processed", a.frames_processed, b.frames_processed),
        (
            "frames_with_targets",
            a.frames_with_targets,
            b.frames_with_targets,
        ),
        ("scheduler_calls", a.scheduler_calls, b.scheduler_calls),
        (
            "captures_commanded",
            a.captures_commanded,
            b.captures_commanded,
        ),
        ("ilp_horizons", a.ilp_horizons, b.ilp_horizons),
        ("greedy_fallbacks", a.greedy_fallbacks, b.greedy_fallbacks),
        (
            "deadline_fallbacks",
            a.deadline_fallbacks,
            b.deadline_fallbacks,
        ),
        (
            "repairs_attempted",
            a.repairs_attempted,
            b.repairs_attempted,
        ),
        (
            "tasks_dropped_by_failures",
            a.tasks_dropped_by_failures,
            b.tasks_dropped_by_failures,
        ),
        ("tasks_reassigned", a.tasks_reassigned, b.tasks_reassigned),
        (
            "captures_lost_to_faults",
            a.captures_lost_to_faults,
            b.captures_lost_to_faults,
        ),
        (
            "frames_leader_down",
            a.frames_leader_down,
            b.frames_leader_down,
        ),
    ];
    let mut diffs: Vec<String> = fields
        .iter()
        .filter(|(_, x, y)| x != y)
        .map(|(k, x, y)| format!("{k} {x} vs {y}"))
        .collect();
    if a.captured_value != b.captured_value {
        diffs.push(format!(
            "captured_value {} vs {}",
            a.captured_value, b.captured_value
        ));
    }
    if a.per_frame_target_counts != b.per_frame_target_counts {
        diffs.push("per_frame_target_counts".into());
    }
    if a.per_frame_cluster_counts != b.per_frame_cluster_counts {
        diffs.push("per_frame_cluster_counts".into());
    }
    (!diffs.is_empty()).then(|| diffs.join(", "))
}

/// Differences in solver-effort counters. Kept apart from
/// [`outcome_diff`]: a horizon cut short by a wall-clock deadline can
/// agree on every capture while its effort counters differ.
pub fn effort_diff(a: &CoverageReport, b: &CoverageReport) -> Option<String> {
    let fields = [
        ("ilp_subproblems", a.ilp_subproblems, b.ilp_subproblems),
        (
            "ilp_nodes_explored",
            a.ilp_nodes_explored,
            b.ilp_nodes_explored,
        ),
        ("ilp_nodes_pruned", a.ilp_nodes_pruned, b.ilp_nodes_pruned),
        (
            "ilp_lp_iterations",
            a.ilp_lp_iterations,
            b.ilp_lp_iterations,
        ),
        ("ilp_lp_pivots", a.ilp_lp_pivots, b.ilp_lp_pivots),
        (
            "ilp_deadline_hits",
            a.ilp_deadline_hits,
            b.ilp_deadline_hits,
        ),
        (
            "ilp_iteration_limit_hits",
            a.ilp_iteration_limit_hits,
            b.ilp_iteration_limit_hits,
        ),
        ("ilp_warm_starts", a.ilp_warm_starts, b.ilp_warm_starts),
        ("ilp_warm_rejects", a.ilp_warm_rejects, b.ilp_warm_rejects),
    ];
    let diffs: Vec<String> = fields
        .iter()
        .filter(|(_, x, y)| x != y)
        .map(|(k, x, y)| format!("{k} {x} vs {y}"))
        .collect();
    (!diffs.is_empty()).then(|| diffs.join(", "))
}

/// Compares a report against a reference, counting an outcome or an
/// effort difference as a failed check.
pub fn check_report(run: &mut Run, what: &str, got: &CoverageReport, want: &CoverageReport) {
    if let Some(d) = outcome_diff(got, want) {
        run.mismatch(format!("{what}: outcome differs: {d}"));
    } else if let Some(d) = effort_diff(got, want) {
        run.mismatch(format!("{what}: solver effort differs: {d}"));
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: run.py --workload design_point|swath_sweep|what_if_session \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let scratch = std::env::var_os("PERFBENCH_SCRATCH")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(".bench_build/perfbench-scratch"))
        .join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: eagleeye_exec::available_parallelism(),
        scratch,
    };
    let mut run = match args.workload.as_str() {
        "design_point" => design_point::run(&ctx),
        "swath_sweep" => swath_sweep::run(&ctx),
        "what_if_session" => what_if::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    if run.attempted == 0 {
        eprintln!(
            "perfbench: workload {} attempted no operation",
            args.workload
        );
        std::process::exit(1);
    }
    let Some(rss) = peak_rss_mb() else {
        eprintln!("perfbench: cannot read VmHWM from /proc/self/status");
        std::process::exit(1);
    };

    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    if !ctx.trace {
        run.set("peak_rss_mb", rss);
    }
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match run.metrics.get(name) {
            Some(&v) => v,
            None if ctx.trace => 0.0,
            None => {
                eprintln!(
                    "perfbench: workload {} did not measure {name}",
                    args.workload
                );
                std::process::exit(1);
            }
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    if let Some(extra) = run
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        if !END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == extra) {
            eprintln!("perfbench: metric {extra} is not in the metric tables");
            std::process::exit(1);
        }
    }

    let mut env = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("available_parallelism", ctx.threads.to_string()),
        ("scale", json_num(SCALE)),
        ("horizon_s", json_num(HORIZON_S)),
        ("peak_rss_mb", json_num(rss)),
        (
            "revision",
            json_str(&std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "mismatches",
            format!(
                "[{}]",
                run.mismatches
                    .iter()
                    .map(|m| json_str(m))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    env.extend(run.info.iter().map(|(k, v)| (*k, v.clone())));
    println!(
        "{{\"perfbench\": {{{}}}}}",
        env.iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.mismatches.is_empty(),
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
}
