//! Shared harness utilities for the per-figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation, printing CSV-style series to stdout. All binaries
//! accept:
//!
//! * `--fast` — shortened sweeps and simulation horizon for quick runs
//!   (the default horizon is already reduced relative to the paper's
//!   24 h; see EXPERIMENTS.md for the scaling argument).
//! * `--hours <h>` — explicit simulation horizon.
//! * `--scale <f>` — dataset scale factor in `(0, 1]` (1 = the paper's
//!   full target counts).
//! * `--seed <n>` — RNG seed.
//! * `--threads <n>` — worker threads for the sweep's independent
//!   configurations (0 or omitted = all available cores). Results are
//!   identical at any thread count; see DESIGN.md §8.
//! * `--checkpoint <path>` (with `--resume` and `--ckpt-cadence <n>`)
//!   and `--deadline <s>` — the crash-safe sweep of
//!   [`BenchCli::par_sweep_checkpointed`]; a deadline of 0 or less
//!   means no budget.
//!
//! A malformed flag is an error message and exit status 2, not a panic.
//!
//! Run e.g.:
//!
//! ```text
//! cargo run -p eagleeye-bench --release --bin fig11a_coverage -- --fast --threads 4
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use eagleeye_datasets::{TargetSet, Workload};
use eagleeye_exec::{run_items, ExecPool, RunConfig};
use eagleeye_harden::{
    budget_from_secs, ByteReader, ByteWriter, CheckpointSpec, CodecError, Deadline, ScenarioHasher,
    ShutdownFlag,
};
use eagleeye_obs::{Metrics, MetricsRegistry};

/// Parsed command-line options shared by the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCli {
    /// Shortened sweep mode.
    pub fast: bool,
    /// Simulation horizon, seconds.
    pub duration_s: f64,
    /// Dataset scale in `(0, 1]`.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for independent sweep configurations
    /// (`available_parallelism` by default). The figure binaries
    /// parallelize the *outer* sweep — each evaluation inside keeps the
    /// sequential default — so output is identical at any value.
    pub threads: usize,
    /// Observability sink, enabled by `EAGLEEYE_TRACE=1` (see
    /// `eagleeye-obs`): [`BenchCli::parse`] reads the environment,
    /// [`BenchCli::par_sweep_observed`] forks it per configuration, and
    /// [`BenchCli::finish`] writes `results/METRICS_<run>.json` plus a
    /// stderr summary. Disabled (free) by default.
    pub metrics: Metrics,
    /// Checkpoint file for [`BenchCli::par_sweep_checkpointed`]
    /// (`--checkpoint PATH`, with `--resume` and `--ckpt-cadence N`);
    /// `None` keeps the sweep in memory.
    pub checkpoint: Option<CheckpointSpec>,
    /// Wall-clock budget (`--deadline SECONDS`, none when 0 or less);
    /// blowing it degrades the sweep to the configurations that
    /// finished instead of aborting (see `eagleeye-harden`).
    pub deadline: Deadline,
}

impl Default for BenchCli {
    fn default() -> Self {
        BenchCli {
            fast: false,
            duration_s: 3.0 * 3600.0,
            scale: 1.0,
            seed: 7,
            threads: eagleeye_exec::available_parallelism(),
            metrics: Metrics::disabled(),
            checkpoint: None,
            deadline: Deadline::none(),
        }
    }
}

impl BenchCli {
    /// Parses `std::env::args()`.
    ///
    /// A malformed flag prints an error message and the usage to
    /// stderr and exits with status 2 — these are developer-facing
    /// binaries.
    pub fn parse() -> Self {
        BenchCli::parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!(
                "error: {e}\nsupported: --fast --hours <h> --scale <f> --seed <n> --threads <n> \
                 --checkpoint <path> --resume --ckpt-cadence <n> \
                 --deadline <s> (0 or less: no budget)"
            );
            std::process::exit(2)
        })
    }

    /// Parses command-line arguments (without the program name), or
    /// says what is wrong with them. `--deadline` follows the rule of
    /// [`budget_from_secs`]: zero or less means no budget.
    pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cli = BenchCli {
            metrics: Metrics::from_env(),
            ..BenchCli::default()
        };
        let mut ckpt_path: Option<String> = None;
        let mut resume = false;
        let mut cadence = 1usize;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut value = |what: &str| -> Result<String, String> {
                args.next().ok_or_else(|| format!("{a} needs {what}"))
            };
            let number = |v: String, what: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .map_err(|_| format!("{a}: `{v}` is not {what}"))
            };
            match a.as_str() {
                "--fast" => {
                    cli.fast = true;
                    cli.duration_s = 1.0 * 3600.0;
                    cli.scale = cli.scale.min(0.3);
                }
                "--hours" => {
                    let hours = number(value("a value")?, "a number of hours")?;
                    cli.duration_s = hours * 3600.0;
                }
                "--scale" => {
                    cli.scale = number(value("a value")?, "a numeric scale")?.clamp(1e-4, 1.0);
                }
                "--seed" => {
                    let v = value("a value")?;
                    cli.seed = v
                        .parse()
                        .map_err(|_| format!("{a}: `{v}` is not an integer seed"))?;
                }
                "--threads" => {
                    let v = value("a value")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("{a}: `{v}` is not an integer thread count"))?;
                    cli.threads = if n == 0 {
                        eagleeye_exec::available_parallelism()
                    } else {
                        n
                    };
                }
                "--checkpoint" => ckpt_path = Some(value("a path")?),
                "--resume" => resume = true,
                "--ckpt-cadence" => {
                    let v = value("a value")?;
                    cadence = v
                        .parse()
                        .map_err(|_| format!("{a}: `{v}` is not an integer checkpoint cadence"))?;
                }
                "--deadline" => {
                    let secs = number(value("a value")?, "a number of seconds")?;
                    cli.deadline = match budget_from_secs(secs).map_err(|e| format!("{a}: {e}"))? {
                        Some(budget) => Deadline::after(budget),
                        None => Deadline::none(),
                    };
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if let Some(path) = ckpt_path {
            let mut spec = CheckpointSpec::new(path, cadence);
            spec.resume = resume;
            cli.checkpoint = Some(spec);
        }
        Ok(cli)
    }

    /// Generates one of the paper's four workloads at the configured
    /// scale and horizon.
    pub fn workload(&self, w: Workload) -> TargetSet {
        w.generate_scaled(self.scale, self.duration_s, self.seed)
    }

    /// Satellite-count sweep used by the Fig. 11 family.
    pub fn sat_counts(&self) -> Vec<usize> {
        if self.fast {
            vec![4, 12, 24, 40]
        } else {
            vec![2, 4, 8, 12, 20, 28, 40]
        }
    }

    /// Runs `f` over every sweep configuration on `--threads` workers,
    /// returning results in input order (deterministic regardless of
    /// which worker ran which configuration).
    ///
    /// This parallelizes the figure binaries' *outer* loop — workload ×
    /// satellite-count × seed grids whose evaluations are mutually
    /// independent — which scales better than intra-evaluation
    /// parallelism and lets each inner evaluation stay sequential. Each
    /// configuration runs against a fork of [`BenchCli::metrics`] (pass
    /// it into the evaluation's `CoverageOptions`), and the forks merge
    /// back in input order, so recorded counters and histograms are
    /// identical at any thread count.
    pub fn par_sweep_observed<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T, &Metrics) -> R + Sync,
    ) -> Vec<R> {
        ExecPool::new(self.threads).par_map_observed(&self.metrics, items, |_, item, m| f(item, m))
    }

    /// Process-stable hash binding a checkpoint file to this exact
    /// sweep (run name, horizon, scale, seed, grid size). Thread count
    /// and checkpoint cadence are deliberately excluded: a sweep may
    /// resume with different parallelism.
    pub fn scenario_hash(&self, run: &str, total_items: usize) -> u64 {
        let BenchCli {
            fast,
            duration_s,
            scale,
            seed,
            // Execution shape: a sweep may legitimately resume with
            // different parallelism, cadence, or budget.
            threads: _,
            checkpoint: _,
            deadline: _,
            // Observability sink: recorded metrics are identical at any
            // thread count and never alter rows.
            metrics: _,
        } = self;
        ScenarioHasher::new()
            .str("eagleeye-bench/sweep/v1")
            .str(run)
            .u64(u64::from(*fast))
            .f64(*duration_s)
            .f64(*scale)
            .u64(*seed)
            .u64(total_items as u64)
            .finish()
    }

    /// [`BenchCli::par_sweep_observed`] under the supervised runner
    /// (`eagleeye_exec::run_items`): with `--checkpoint`, each
    /// configuration's CSV row and metrics fork are checkpointed as they
    /// complete and `--resume` restores them instead of recomputing; a
    /// blown `--deadline` yields the rows that finished (`None` for the
    /// rest) with [`SweepOutcome::degraded`] set. A configuration that
    /// keeps panicking is reported on stderr and its row left `None`,
    /// which marks the sweep degraded too.
    ///
    /// Without those flags nothing is encoded or written, so figure
    /// binaries call it unconditionally: rows and merged counters and
    /// histograms equal the observed sweep's at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on checkpoint I/O or resume-validation failures (wrong
    /// scenario, corrupt snapshot) — these are developer-facing
    /// binaries and a bad resume must not silently recompute.
    pub fn par_sweep_checkpointed<T: Sync>(
        &self,
        run: &str,
        items: &[T],
        f: impl Fn(&T, &Metrics) -> String + Sync,
    ) -> SweepOutcome {
        let config = RunConfig {
            scenario_hash: self.scenario_hash(run, items.len()),
            threads: self.threads,
            checkpoint: self.checkpoint.clone(),
            deadline: self.deadline,
            shutdown: ShutdownFlag::new(),
            retry: eagleeye_exec::RetryPolicy::default(),
        };
        let encode = |(row, fork): &(String, Metrics)| {
            let mut w = ByteWriter::new();
            w.u8(1); // payload version
            w.str(row);
            w.bytes(&fork.snapshot().to_bytes());
            w.into_bytes()
        };
        let decode = |_: usize, bytes: &[u8]| {
            let mut r = ByteReader::new(bytes);
            if r.u8()? != 1 {
                return Err(CodecError {
                    context: "sweep payload version",
                });
            }
            let row = r.str()?.to_string();
            let fork = self.metrics.fork();
            fork.absorb_registry(&MetricsRegistry::from_bytes(r.bytes()?)?);
            Ok((row, fork))
        };
        self.metrics
            .gauge_max("exec/threads", ExecPool::new(self.threads).threads() as f64);
        let outcome = run_items(
            &config,
            items.len(),
            |i| {
                let fork = self.metrics.fork();
                (f(&items[i], &fork), fork)
            },
            encode,
            decode,
        )
        .unwrap_or_else(|e| panic!("checkpointed sweep for {run} failed: {e}"));
        if outcome.resumed_items > 0 {
            eprintln!(
                "resumed {} of {} sweep configurations from checkpoint",
                outcome.resumed_items,
                items.len()
            );
        }
        // Absorb in input order so merged metrics are deterministic at
        // any thread count.
        let completed = outcome.completed();
        let mut rows = Vec::with_capacity(items.len());
        for slot in outcome.items {
            rows.push(match slot {
                Some(Ok((row, fork))) => {
                    self.metrics.absorb(&fork);
                    Some(row)
                }
                Some(Err(q)) => {
                    eprintln!(
                        "warning: configuration {} quarantined after {} attempts: {}",
                        q.item, q.attempts, q.message
                    );
                    None
                }
                None => None,
            });
        }
        SweepOutcome {
            rows,
            degraded: completed < items.len(),
            completed,
            total: items.len(),
            resumed: outcome.resumed_items,
        }
    }

    /// Exports the run's metrics to `results/METRICS_<run>.json` and
    /// prints the stderr summary. A no-op unless `EAGLEEYE_TRACE` was
    /// set at parse time; export failures warn rather than abort (the
    /// figure's CSV already reached stdout).
    pub fn finish(&self, run: &str) {
        if let Err(e) = eagleeye_obs::export::write_run(run, &self.metrics) {
            eprintln!("warning: failed to write metrics for {run}: {e}");
        }
    }
}

/// Result of a checkpointed sweep: per-configuration CSV rows in grid
/// order (`None` when a row was never computed — degraded run or
/// quarantined configuration) plus anytime-result accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome {
    /// CSV rows in input order; `None` for missing configurations.
    pub rows: Vec<Option<String>>,
    /// True when rows are missing: the deadline stopped the sweep
    /// early, or a configuration kept panicking.
    pub degraded: bool,
    /// Rows present (computed or resumed).
    pub completed: usize,
    /// Rows requested.
    pub total: usize,
    /// Rows restored from the checkpoint instead of recomputed.
    pub resumed: usize,
}

/// Prints a CSV header and rows to stdout.
pub fn print_csv(header: &str, rows: impl IntoIterator<Item = String>) {
    println!("{header}");
    for row in rows {
        println!("{row}");
    }
}

/// Prints a possibly-partial sweep as CSV: available rows in grid
/// order, then — for degraded runs — a `#`-comment trailer recording
/// how much of the sweep the anytime result covers (so a truncated
/// artifact is distinguishable from a complete one).
pub fn print_csv_outcome(header: &str, outcome: &SweepOutcome) {
    print_csv(header, outcome.rows.iter().flatten().cloned());
    if outcome.degraded {
        println!(
            "# degraded: {} of {} configurations completed; \
             rerun with --checkpoint <path> --resume to finish the sweep",
            outcome.completed, outcome.total
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        BenchCli::parse_args(args.iter().map(|a| a.to_string()))
    }

    /// `--deadline` follows the CLI rule: 0 or less is no budget, a
    /// positive value a budget, and an unusable value an error message
    /// (never a panic).
    #[test]
    fn deadline_flag_follows_the_cli_rule() {
        for none in ["0", "-0", "-1.5", "-inf"] {
            let cli = parse(&["--deadline", none]).unwrap();
            assert!(!cli.deadline.is_set(), "{none}");
        }
        let cli = parse(&["--deadline", "2.5"]).unwrap();
        assert!(cli.deadline.is_set() && !cli.deadline.expired());
        for bad in ["NaN", "inf", "1e300", "soon"] {
            let err = parse(&["--deadline", bad]).unwrap_err();
            assert!(err.starts_with("--deadline: "), "{bad}: {err}");
        }
        assert!(parse(&["--deadline"]).is_err());
    }

    #[test]
    fn malformed_flags_are_error_messages() {
        let cli = parse(&["--fast", "--seed", "3", "--threads", "2"]).unwrap();
        assert!(cli.fast && cli.seed == 3 && cli.threads == 2);
        assert_eq!(cli.duration_s, 3600.0);
        let cli = parse(&["--checkpoint", "x.ckpt", "--resume", "--ckpt-cadence", "4"]).unwrap();
        let spec = cli.checkpoint.expect("checkpoint spec");
        assert!(spec.resume && spec.cadence == 4);
        for args in [
            &["--bogus"][..],
            &["--seed", "x"],
            &["--hours"],
            &["--scale", "big"],
            &["--threads", "-1"],
            &["--ckpt-cadence", "1.5"],
            &["--checkpoint"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }

    #[test]
    fn default_cli_is_full_sweep() {
        let c = BenchCli::default();
        assert!(!c.fast);
        assert_eq!(c.scale, 1.0);
    }

    #[test]
    fn workload_scales() {
        let cli = BenchCli {
            scale: 0.01,
            ..BenchCli::default()
        };
        let set = cli.workload(Workload::ShipDetection);
        assert_eq!(set.len(), 191);
    }

    #[test]
    fn par_sweep_preserves_input_order() {
        for threads in [1, 3, 8] {
            let cli = BenchCli {
                threads,
                ..BenchCli::default()
            };
            let items: Vec<usize> = (0..23).collect();
            let out = cli.par_sweep_observed(&items, |&i, _| i * i);
            assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn checkpointed_sweep_without_flags_matches_plain_sweep() {
        let cli = BenchCli {
            threads: 3,
            ..BenchCli::default()
        };
        let items: Vec<usize> = (0..17).collect();
        let plain = cli.par_sweep_observed(&items, |&i, _| format!("row{i}"));
        let out = cli.par_sweep_checkpointed("test_sweep", &items, |&i, _| format!("row{i}"));
        assert!(!out.degraded);
        assert_eq!(out.completed, 17);
        assert_eq!(out.resumed, 0);
        assert_eq!(
            out.rows.iter().flatten().cloned().collect::<Vec<_>>(),
            plain
        );
    }

    #[test]
    fn checkpointed_sweep_resumes_rows_and_metrics() {
        let path =
            std::env::temp_dir().join(format!("eagleeye_bench_sweep_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let items: Vec<usize> = (0..9).collect();
        let run = |resume: bool| {
            let mut spec = CheckpointSpec::new(&path, 1);
            spec.resume = resume;
            let cli = BenchCli {
                threads: 2,
                metrics: Metrics::enabled(),
                checkpoint: Some(spec),
                ..BenchCli::default()
            };
            let out = cli.par_sweep_checkpointed("resume_sweep", &items, |&i, m| {
                m.incr("bench/test_rows");
                format!("row{i}")
            });
            (out, cli.metrics.snapshot())
        };
        let (first, reg_first) = run(false);
        assert_eq!(first.completed, 9);
        let (second, reg_second) = run(true);
        assert_eq!(second.resumed, 9, "all rows must come from the checkpoint");
        assert_eq!(second.rows, first.rows);
        // Metrics travel with the checkpoint: the resumed run replays
        // the recorded counters bit-identically.
        assert_eq!(reg_first, reg_second);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn expired_deadline_degrades_the_sweep() {
        let cli = BenchCli {
            threads: 2,
            deadline: Deadline::after(Duration::ZERO),
            ..BenchCli::default()
        };
        let items: Vec<usize> = (0..8).collect();
        let out = cli.par_sweep_checkpointed("deadline_sweep", &items, |&i, _| {
            std::thread::sleep(Duration::from_millis(5));
            format!("row{i}")
        });
        assert!(out.degraded);
        assert!(out.completed < 8);
        assert_eq!(
            out.rows.iter().filter(|r| r.is_some()).count(),
            out.completed
        );
    }

    #[test]
    fn panicking_configuration_is_left_out_and_marks_the_sweep_degraded() {
        let cli = BenchCli {
            threads: 2,
            ..BenchCli::default()
        };
        let items: Vec<usize> = (0..6).collect();
        let out = cli.par_sweep_checkpointed("panic_sweep", &items, |&i, _| {
            assert!(i != 4, "configuration 4 always fails");
            format!("row{i}")
        });
        assert!(out.degraded, "a missing row must not pass as complete");
        assert_eq!(out.completed, 5);
        assert_eq!(out.rows[4], None);
        assert_eq!(out.rows[5].as_deref(), Some("row5"));
    }

    #[test]
    fn scenario_hash_binds_run_and_parameters() {
        let cli = BenchCli::default();
        let a = cli.scenario_hash("fig11a_coverage", 92);
        assert_eq!(a, cli.scenario_hash("fig11a_coverage", 92));
        assert_ne!(a, cli.scenario_hash("fig11b_slew_rate", 92));
        assert_ne!(a, cli.scenario_hash("fig11a_coverage", 91));
        let other = BenchCli {
            seed: 8,
            ..BenchCli::default()
        };
        assert_ne!(a, other.scenario_hash("fig11a_coverage", 92));
        // Thread count must NOT change the scenario.
        let threads = BenchCli {
            threads: 16,
            ..BenchCli::default()
        };
        assert_eq!(a, threads.scenario_hash("fig11a_coverage", 92));
    }

    #[test]
    fn sat_counts_depend_on_mode() {
        assert!(
            BenchCli {
                fast: true,
                ..Default::default()
            }
            .sat_counts()
            .len()
                < 6
        );
        assert!(BenchCli::default().sat_counts().len() >= 6);
    }
}
