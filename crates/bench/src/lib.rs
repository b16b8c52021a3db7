//! Shared harness utilities for the per-figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation, printing CSV-style series to stdout. Each one
//! hands [`BenchCli::parse`] the table of flags it reads, drawn from
//! [`SWEEP`] and `eagleeye_harden::RUN_LAYER` (README lists them per
//! binary); results are identical at any `--threads` (DESIGN.md §8).
//!
//! Run e.g.:
//!
//! ```text
//! cargo run -p eagleeye-bench --release --bin fig11a_coverage -- --fast --threads 4
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use eagleeye_core::coverage::CoverageOptions;
use eagleeye_datasets::{TargetSet, Workload};
use eagleeye_exec::{available_parallelism, run_items, RunConfig, RunOutcome};
use eagleeye_harden::{
    cli, Args, ByteReader, ByteWriter, CheckpointSpec, CodecError, Deadline, Flag, ScenarioHasher,
    SnapshotError, UsageError, USAGE_STATUS,
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
            threads: available_parallelism(),
            metrics: Metrics::disabled(),
            checkpoint: None,
            deadline: Deadline::none(),
        }
    }
}

/// `--fast`: the shortened sweep.
pub const FAST: Flag = Flag("fast", "", "shortened sweep (1 h horizon, scale 0.3)");
/// `--hours H`: the simulation horizon.
pub const HOURS: Flag = Flag("hours", "H", "simulation horizon in hours");
/// `--scale F`: the dataset scale.
pub const SCALE: Flag = Flag("scale", "F", "dataset scale, clamped to [1e-4, 1]");
/// `--seed N`: the RNG seed.
pub const SEED: Flag = Flag("seed", "N", "RNG seed");
/// `--threads N`: the sweep's worker threads.
pub const THREADS: Flag = Flag("threads", "N", "sweep worker threads (0: all cores)");
/// The flags of a binary that sweeps generated workloads in parallel.
pub const SWEEP: &[Flag] = &[FAST, HOURS, SCALE, SEED, THREADS];

impl BenchCli {
    /// Parses `std::env::args()` against `table`, the flags this binary
    /// reads. A usage error prints the message and the usage rendered
    /// from `table` to stderr and exits with status 2 — these are
    /// developer-facing binaries.
    #[expect(
        clippy::disallowed_methods,
        reason = "a figure binary given a bad flag has nothing to flush; status 2 is its contract"
    )]
    pub fn parse(table: &[Flag]) -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        BenchCli::parse_args(args, table).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {program}\n{}", cli::usage(table));
            std::process::exit(i32::from(USAGE_STATUS))
        })
    }

    /// Parses command-line arguments (without the program name)
    /// against `table`, or says what is wrong with them. A flag outside
    /// the table is an error, so a binary honours the run-layer flags
    /// exactly when its table lists them. `--hours` and `--scale` win
    /// over the defaults `--fast` sets, in any order.
    pub fn parse_args(
        args: impl IntoIterator<Item = String>,
        table: &[Flag],
    ) -> Result<Self, UsageError> {
        let args = Args::parse(args, table)?;
        let fast = args.has("fast");
        let (checkpoint, deadline) = args.run_layer()?;
        let default = BenchCli::default();
        Ok(BenchCli {
            fast,
            duration_s: match args.non_negative("hours")? {
                Some(hours) => hours * 3600.0,
                None if fast => 3600.0,
                None => default.duration_s,
            },
            scale: match args.finite("scale")? {
                Some(scale) => scale.clamp(1e-4, 1.0),
                None if fast => 0.3,
                None => default.scale,
            },
            seed: args.integer("seed")?.unwrap_or(default.seed),
            threads: match args.integer("threads")? {
                None | Some(0) => default.threads,
                Some(n) => n,
            },
            metrics: Metrics::from_env(),
            checkpoint,
            deadline,
        })
    }

    /// The evaluator options of one sweep configuration: the parsed
    /// horizon and seed, recording into `metrics` (its fork).
    pub fn options(&self, metrics: &Metrics) -> CoverageOptions {
        CoverageOptions {
            duration_s: self.duration_s,
            seed: self.seed,
            metrics: metrics.clone(),
            ..CoverageOptions::default()
        }
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
    ///
    /// Configurations run under the supervised runner
    /// (`eagleeye_exec::run_items`) with no checkpoint and no deadline:
    /// a configuration that panics is retried, and one that panics on
    /// every attempt is quarantined.
    ///
    /// # Panics
    ///
    /// After every configuration ran, with the lowest-indexed
    /// quarantined configuration's report.
    pub fn par_sweep_observed<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T, &Metrics) -> R + Sync,
    ) -> Vec<R> {
        let config = RunConfig {
            scenario_hash: 0,
            threads: self.threads,
            checkpoint: None,
            deadline: Deadline::none(),
        };
        // Without a checkpoint nothing is encoded, resumed or written,
        // so the run cannot fail, and without a deadline every
        // configuration runs.
        self.supervised_sweep(
            &config,
            items,
            f,
            |_| unreachable!("no checkpoint"),
            |_, _| unreachable!("nothing to resume"),
        )
        .unwrap_or_else(|e| unreachable!("a sweep without a checkpoint does no I/O: {e}"))
        .items
        .into_iter()
        .flatten()
        .map(|slot| slot.unwrap_or_else(|q| panic!("configuration {q}")))
        .collect()
    }

    /// The one supervised sweep behind [`BenchCli::par_sweep_observed`]
    /// and [`BenchCli::par_sweep_checkpointed`]: `run_items` under
    /// `config`, each attempt of a configuration against a fresh fork
    /// of [`BenchCli::metrics`] (so a retried attempt leaves no counts
    /// behind), with the `exec/threads` gauge raised and the forks
    /// absorbed in input order.
    fn supervised_sweep<T: Sync, R: Send>(
        &self,
        config: &RunConfig,
        items: &[T],
        f: impl Fn(&T, &Metrics) -> R + Sync,
        encode: impl Fn(&(R, Metrics)) -> Vec<u8> + Sync,
        decode: impl Fn(usize, &[u8]) -> Result<(R, Metrics), CodecError>,
    ) -> Result<RunOutcome<R>, SnapshotError> {
        let threads = match config.threads {
            0 => available_parallelism(),
            n => n,
        };
        self.metrics.gauge_max("exec/threads", threads as f64);
        let outcome = run_items(
            config,
            items.len(),
            |i| {
                let fork = self.metrics.fork();
                (f(&items[i], &fork), fork)
            },
            encode,
            decode,
        )?;
        // Absorb in input order so merged metrics are deterministic at
        // any thread count.
        let absorbed = |(r, fork): (R, Metrics)| {
            self.metrics.absorb(&fork);
            r
        };
        Ok(RunOutcome {
            items: outcome
                .items
                .into_iter()
                .map(|slot| slot.map(|r| r.map(absorbed)))
                .collect(),
            resumed_items: outcome.resumed_items,
        })
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

    /// [`BenchCli::par_sweep_observed`] for CSV rows, under the run
    /// layer's flags: with `--checkpoint`, each configuration's row and
    /// metrics fork are checkpointed as they complete and `--resume`
    /// restores them instead of recomputing; a blown `--deadline` yields
    /// the rows that finished (`None` for the rest) with
    /// [`SweepOutcome::degraded`] set. A configuration that keeps
    /// panicking is reported on stderr and its row left `None`, which
    /// marks the sweep degraded too.
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
        let outcome = self
            .supervised_sweep(&config, items, f, encode, decode)
            .unwrap_or_else(|e| panic!("checkpointed sweep for {run} failed: {e}"));
        if outcome.resumed_items > 0 {
            eprintln!(
                "resumed {} of {} sweep configurations from checkpoint",
                outcome.resumed_items,
                items.len()
            );
        }
        let completed = outcome.completed();
        let rows = outcome
            .items
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(row)) => Some(row),
                Some(Err(q)) => {
                    eprintln!("warning: configuration {q}");
                    None
                }
                None => None,
            })
            .collect();
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
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn parse_with(args: &[&str], table: &[Flag]) -> Result<BenchCli, String> {
        BenchCli::parse_args(args.iter().map(|a| a.to_string()), table).map_err(|e| e.0)
    }

    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        parse_with(args, &[SWEEP, eagleeye_harden::RUN_LAYER].concat())
    }

    /// `--deadline` follows the CLI rule: 0 or less is no budget, a
    /// positive value a budget, and an unusable value an error message
    /// (never a panic).
    #[test]
    fn deadline_flag_follows_the_cli_rule() {
        for none in ["0", "-0", "-1.5", "-inf"] {
            let cli = parse(&["--deadline", none]).unwrap();
            assert_eq!(cli.deadline, Deadline::none(), "{none}");
        }
        let cli = parse(&["--deadline", "2.5"]).unwrap();
        assert!(cli.deadline != Deadline::none() && !cli.deadline.expired());
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
        assert_eq!((cli.duration_s, cli.scale), (3600.0, 0.3));
        // Explicit values win over `--fast`'s defaults in any order.
        let cli = parse(&["--hours", "2", "--scale", "0.5", "--fast"]).unwrap();
        assert_eq!((cli.duration_s, cli.scale), (7200.0, 0.5));
        assert_eq!(parse(&["--scale", "7"]).unwrap().scale, 1.0);
        assert_eq!(parse(&["--scale", "-7"]).unwrap().scale, 1e-4);
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
            &["--fast", "--fast"],
            &["fast"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
        // A horizon or scale that is not a finite number (or a negative
        // horizon) is a usage error naming the flag, not a worker panic
        // or an all-zero CSV.
        for args in [
            &["--hours", "nan"][..],
            &["--hours", "-1"],
            &["--hours", "inf"],
            &["--scale", "nan"],
            &["--scale", "inf"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.starts_with(&format!("{}: ", args[0])),
                "{args:?}: {err}"
            );
        }
    }

    /// Run-layer flags are errors naming the flag where the binary's
    /// table does not list them, and `--resume` / `--ckpt-cadence` need
    /// `--checkpoint` where it does.
    #[test]
    fn unhonoured_run_layer_flags_are_errors() {
        assert!(parse_with(&["--fast", "--seed", "3"], SWEEP).is_ok());
        for args in [
            &["--checkpoint", "x.ckpt"][..],
            &["--resume"],
            &["--ckpt-cadence", "2"],
            &["--deadline", "5"],
            &["--deadline", "0"],
        ] {
            let err = parse_with(args, SWEEP).unwrap_err();
            assert!(
                err.starts_with(&format!("{}: ", args[0])),
                "{args:?}: {err}"
            );
        }
        for (args, flag) in [
            (&["--resume"][..], "--resume"),
            (&["--ckpt-cadence", "2"], "--ckpt-cadence"),
            (&["--deadline", "5", "--resume"], "--resume"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
        // A binary with an empty table takes no argument at all.
        assert!(parse_with(&[], &[]).is_ok());
        for args in [&["--fast"][..], &["--bogus"], &["x"]] {
            assert!(parse_with(args, &[]).is_err(), "{args:?}");
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
    fn observed_map_merges_deterministically_across_thread_counts() {
        let items: Vec<u64> = (0..97).collect();
        let run = |threads: usize| {
            let cli = BenchCli {
                threads,
                metrics: Metrics::enabled(),
                ..BenchCli::default()
            };
            let got = cli.par_sweep_observed(&items, |&x, m| {
                m.add("work/value_sum", x);
                m.incr("work/calls");
                m.observe("work/values", x, &[16, 48, 96]);
                x * 2
            });
            (got, cli.metrics.snapshot())
        };
        let (base_out, base_snap) = run(1);
        assert_eq!(base_snap.counter("work/calls"), 97);
        assert_eq!(base_snap.counter("work/value_sum"), 96 * 97 / 2);
        for threads in [2, 4, 8] {
            let (out, snap) = run(threads);
            assert_eq!(out, base_out, "threads={threads}");
            // Counters and histograms are bit-identical at any thread
            // count; only the pool-shape gauge (`exec/threads`)
            // legitimately differs between runs.
            let counters: Vec<_> = snap.counters().collect();
            assert_eq!(
                counters,
                base_snap.counters().collect::<Vec<_>>(),
                "threads={threads}"
            );
            let hists: Vec<_> = snap.histograms().collect();
            assert_eq!(
                hists,
                base_snap.histograms().collect::<Vec<_>>(),
                "threads={threads}"
            );
            assert_eq!(snap.gauge("exec/threads"), Some(threads as f64));
        }
    }

    #[test]
    fn observed_map_records_pool_shape() {
        let cli = BenchCli {
            threads: 3,
            metrics: Metrics::enabled(),
            ..BenchCli::default()
        };
        cli.par_sweep_observed(&[1, 2, 3, 4], |&x: &i32, _| x);
        let snap = cli.metrics.snapshot();
        // Pool shape is a gauge only: no counter may differ between
        // thread counts.
        assert_eq!(snap.counters().count(), 0);
        assert_eq!(snap.gauge("exec/threads"), Some(3.0));
    }

    #[test]
    fn observed_map_with_disabled_metrics_records_nothing() {
        let cli = BenchCli {
            threads: 4,
            ..BenchCli::default()
        };
        let got = cli.par_sweep_observed(&[1u64, 2, 3], |&x, m| {
            m.incr("ignored");
            x + 1
        });
        assert_eq!(got, vec![2, 3, 4]);
        assert!(cli.metrics.snapshot().is_empty());
    }

    #[test]
    fn par_sweep_observed_retries_a_one_shot_panic() {
        for threads in [1, 2, 4] {
            let cli = BenchCli {
                threads,
                metrics: Metrics::enabled(),
                ..BenchCli::default()
            };
            let fired = AtomicBool::new(false);
            let items: Vec<usize> = (0..16).collect();
            let out = cli.par_sweep_observed(&items, |&x, m| {
                m.incr("work/attempts_kept");
                assert!(
                    x != 5 || fired.swap(true, Ordering::SeqCst),
                    "one-shot fault on configuration 5"
                );
                x * 10
            });
            assert_eq!(out, items.iter().map(|x| x * 10).collect::<Vec<_>>());
            // The failed attempt's fork is dropped with it.
            assert_eq!(cli.metrics.snapshot().counter("work/attempts_kept"), 16);
        }
    }

    /// A sweep over `0..16` at `threads` whose configurations 11 and 13
    /// panic with `message` on every attempt: the lower one is reported,
    /// whichever finished first.
    fn sweep_failing_at_11_and_13(threads: usize, message: &str) {
        let cli = BenchCli {
            threads,
            ..BenchCli::default()
        };
        let items: Vec<usize> = (0..16).collect();
        cli.par_sweep_observed(&items, |&x, _| {
            assert!(x != 11 && x != 13, "{message}");
            x
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        sweep_failing_at_11_and_13(4, "boom");
    }

    #[test]
    #[should_panic(expected = "configuration 11 quarantined after 3 attempts: boom")]
    fn propagated_panics_carry_item_context() {
        sweep_failing_at_11_and_13(4, "boom");
    }

    #[test]
    #[should_panic(expected = "configuration 11 quarantined after 3 attempts: inline boom")]
    fn inline_panics_carry_item_context_too() {
        sweep_failing_at_11_and_13(1, "inline boom");
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
