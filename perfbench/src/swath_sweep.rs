//! `swath_sweep`: a Fig. 11a-style sweep over all four paper workloads.
//!
//! Each sweep evaluates `LowResOnly`, `HighResOnly` and EagleEye-greedy
//! (greedy scheduler and greedy clustering, so no ILP runs) designs at
//! several satellite counts on every workload (Lake 1.4M
//! included) through `BenchCli::par_sweep_checkpointed` on every core,
//! with a checkpoint file written after each configuration. Dataset
//! generation, propagation, swath membership, the exec pool and
//! checkpoint I/O do the work; scheduling does almost none, so schedule
//! and ILP changes should leave this workload unchanged. It is also
//! where resident memory peaks.
//!
//! Check: every checkpointed sweep's rows must equal the rows of a plain
//! one-thread sweep of the same grid.

use crate::design_point::{flag_attribution, set_clustering, set_schedule};
use crate::replay::{replay, Replay, Scenario};
use crate::trace::Tracer;
use crate::{build_index, json_str, set_up, sub_seed, Ctx, Cycle, Run, HORIZON_S, SCALE};
use eagleeye_bench::BenchCli;
use eagleeye_core::clustering::ClusteringMethod;
use eagleeye_core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, SchedulerKind,
};
use eagleeye_datasets::{TargetSet, Workload};
use eagleeye_harden::{CheckpointSpec, Snapshot};
use eagleeye_orbit::{ConstellationLayout, EpochGrid};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Workloads, most expensive first so the dynamic pool ends balanced.
const WORKLOADS: [Workload; 4] = [
    Workload::LakeMonitoring1M4,
    Workload::LakeMonitoring166K,
    Workload::AirplaneTracking,
    Workload::ShipDetection,
];
const SAT_COUNTS: [usize; 3] = [2, 4, 8];

/// Timing and outcome of one sweep item, collected beside the CSV row.
struct Item {
    index: usize,
    start: Instant,
    end: Instant,
    frames: usize,
    track_builds: u64,
    failed: bool,
}

fn grid() -> Vec<(usize, ConstellationConfig)> {
    let mut grid = Vec::new();
    for wi in 0..WORKLOADS.len() {
        for sats in SAT_COUNTS {
            grid.push((wi, ConstellationConfig::LowResOnly { satellites: sats }));
            grid.push((wi, ConstellationConfig::HighResOnly { satellites: sats }));
            grid.push((
                wi,
                ConstellationConfig::EagleEye {
                    groups: (sats / 2).max(1),
                    followers_per_group: 1,
                    scheduler: SchedulerKind::Greedy,
                    clustering: ClusteringMethod::Greedy,
                },
            ));
        }
    }
    grid
}

fn is_swath(config: &ConstellationConfig) -> bool {
    matches!(
        config,
        ConstellationConfig::LowResOnly { .. } | ConstellationConfig::HighResOnly { .. }
    )
}

fn options(ctx: &Ctx) -> CoverageOptions {
    CoverageOptions {
        duration_s: HORIZON_S,
        seed: ctx.seed,
        threads: 1,
        ..CoverageOptions::default()
    }
}

fn setup(ctx: &Ctx, tr: &mut Tracer) -> Vec<TargetSet> {
    WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let targets = tr.span("datasets.generate", |_| {
                w.generate_scaled(SCALE, HORIZON_S, sub_seed(ctx.seed, i as u64))
            });
            tr.span("datasets.index", |_| build_index(&targets));
            targets
        })
        .collect()
}

/// One sweep over the grid. With a checkpoint path the sweep runs on
/// `threads` workers through the crash-safe runner; without one it is
/// the plain in-memory sweep.
fn sweep(
    ctx: &Ctx,
    datasets: &[TargetSet],
    grid: &[(usize, ConstellationConfig)],
    threads: usize,
    checkpoint: Option<&Path>,
) -> (Vec<Option<String>>, Vec<Item>) {
    let cli = BenchCli {
        duration_s: HORIZON_S,
        scale: SCALE,
        seed: ctx.seed,
        threads,
        checkpoint: checkpoint.map(|p| CheckpointSpec {
            path: p.to_path_buf(),
            resume: false,
            cadence: 1,
        }),
        ..BenchCli::default()
    };
    let opts = options(ctx);
    let items = Mutex::new(Vec::with_capacity(grid.len()));
    let indexed: Vec<(usize, usize, ConstellationConfig)> = grid
        .iter()
        .enumerate()
        .map(|(i, &(wi, c))| (i, wi, c))
        .collect();
    let outcome =
        cli.par_sweep_checkpointed("perfbench_swath_sweep", &indexed, |&(i, wi, config), _| {
            let eval = CoverageEvaluator::new(&datasets[wi], opts.clone());
            let start = Instant::now();
            let result = eval.evaluate(&config);
            let end = Instant::now();
            let (row, frames, failed) = match result {
                Ok(r) => (
                    format!(
                        "{},{},{},{:.6},{}",
                        WORKLOADS[wi].label(),
                        config.label(),
                        r.captured,
                        r.captured_value,
                        r.frames_processed
                    ),
                    r.frames_processed,
                    r.greedy_fallbacks + r.deadline_fallbacks > 0,
                ),
                Err(e) => (format!("error: {e}"), 0, true),
            };
            items
                .lock()
                .expect("sweep item log poisoned by a panicking worker")
                .push(Item {
                    index: i,
                    start,
                    end,
                    frames,
                    track_builds: eval.compile_stats().track_builds,
                    failed,
                });
            row
        });
    let mut items = items
        .into_inner()
        .expect("sweep item log poisoned by a panicking worker");
    items.sort_by_key(|it| it.index);
    (outcome.rows, items)
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let grid = grid();
    let threads = ctx.threads;
    run.info(
        "shape",
        json_str(&format!(
            "{} configs (low-res-only, high-res-only, eagleeye greedy at {SAT_COUNTS:?} satellites) \
             x 4 workloads, {threads} threads, checkpoint cadence 1",
            grid.len() / WORKLOADS.len()
        )),
    );
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        run.error(format!("scratch dir {}: {e}", ctx.scratch.display()));
        return run;
    }
    let ckpt = ctx.scratch.join("sweep.ckpt");

    let (datasets, setups, setup_tr) = set_up(ctx, &mut run, |_, tr| setup(ctx, tr));

    let mut sweeps = Vec::new();
    if ctx.trace {
        traced(
            ctx,
            &mut run,
            &datasets,
            &grid,
            &ckpt,
            &setup_tr,
            &mut sweeps,
        );
    } else {
        // A cycle is one sweep.
        let mut cycles = Vec::new();
        let start = Instant::now();
        while sweeps.is_empty() || start.elapsed() < ctx.budget() {
            let _ = std::fs::remove_file(&ckpt);
            let t0 = Instant::now();
            let (rows, items) = sweep(ctx, &datasets, &grid, threads, Some(&ckpt));
            let mut cycle = Cycle {
                wall: t0.elapsed(),
                ..Cycle::default()
            };
            for it in &items {
                run.attempted += 1;
                if it.failed {
                    run.failed += 1;
                }
                cycle.ops.push((!it.failed).then(|| it.end - it.start));
                cycle.frames += it.frames;
            }
            cycles.push(cycle);
            sweeps.push(rows);
        }
        run.set_end_to_end(&setups, &cycles);
        // Items run on several workers, so throughput is over the fastest
        // sweep's wall (pool and checkpoint writes included) rather than
        // over summed item times.
        if let Some(c) = cycles.iter().min_by_key(|c| c.wall) {
            run.set(
                "frames_per_s",
                c.frames as f64 / c.wall.as_secs_f64().max(1e-12),
            );
        }
    }

    // Output check, outside the timed phase.
    let (plain, _) = sweep(ctx, &datasets, &grid, 1, None);
    for (s, rows) in sweeps.iter().enumerate() {
        for (i, (got, want)) in rows.iter().zip(&plain).enumerate() {
            if got != want {
                run.mismatch(format!("sweep {s} row {i}: {got:?} vs plain {want:?}"));
            }
        }
        if rows.len() != plain.len() {
            run.mismatch(format!(
                "sweep {s}: {} rows vs plain {}",
                rows.len(),
                plain.len()
            ));
        }
    }
    run
}

/// The traced run: one untraced and one traced checkpointed sweep (the
/// difference is the tracing overhead), then outside calls into the
/// layers the sweep uses -- propagation of every swath layout, a
/// greedy-scheduler replay of every EagleEye configuration, and a load
/// and rewrite of the sweep's checkpoint.
fn traced(
    ctx: &Ctx,
    run: &mut Run,
    datasets: &[TargetSet],
    grid: &[(usize, ConstellationConfig)],
    ckpt: &Path,
    setup_tr: &Tracer,
    sweeps: &mut Vec<Vec<Option<String>>>,
) {
    let threads = ctx.threads;
    let _ = std::fs::remove_file(ckpt);
    let t0 = Instant::now();
    let (rows, _) = sweep(ctx, datasets, grid, threads, Some(ckpt));
    let untraced = t0.elapsed();
    sweeps.push(rows);

    let mut tr = Tracer::new(true);
    let phase = Instant::now();
    let _ = std::fs::remove_file(ckpt);
    let t1 = Instant::now();
    let (rows, items) = sweep(ctx, datasets, grid, threads, Some(ckpt));
    let sweep_wall = t1.elapsed();
    sweeps.push(rows.clone());
    let mut worker = Tracer::new(true);
    let mut builds = 0u64;
    for it in &items {
        run.attempted += 1;
        if it.failed {
            run.failed += 1;
        }
        builds += it.track_builds;
        let name = if is_swath(&grid[it.index].1) {
            "compile.swath_eval"
        } else {
            "coverage.greedy_eval"
        };
        worker.record(name, it.start, it.end);
    }
    let busy: f64 = worker
        .self_times()
        .values()
        .map(Duration::as_secs_f64)
        .sum();

    // Propagation of every satellite of every swath layout.
    let opts = options(ctx);
    let spec = opts.spec;
    let epochs = EpochGrid::for_horizon(0.0, HORIZON_S, spec.frame_cadence_s);
    let mut states = 0usize;
    for sats in SAT_COUNTS {
        match ConstellationLayout::with_planes(sats, 0, spec.altitude_m, opts.inclination_rad, 1) {
            Ok(layout) => {
                for sat in layout.satellites() {
                    let r = tr.span("orbit.propagate", |_| {
                        layout.ground_track(sat).and_then(|g| epochs.propagate(&g))
                    });
                    match r {
                        Ok(s) => states += s.len(),
                        Err(e) => run.error(format!("propagate: {e}")),
                    }
                }
            }
            Err(e) => run.error(format!("layout: {e}")),
        }
    }

    // Greedy-scheduler replay of every EagleEye configuration; its
    // captures must match the sweep's row.
    let mut agg = Replay::default();
    for (i, &(wi, config)) in grid.iter().enumerate() {
        let ConstellationConfig::EagleEye {
            groups,
            followers_per_group,
            scheduler,
            clustering,
        } = config
        else {
            continue;
        };
        let scenario = Scenario {
            groups,
            followers: followers_per_group,
            scheduler,
            clustering,
        };
        match replay(&datasets[wi], &opts, scenario, &mut tr) {
            Ok(r) => {
                // Rows end with `captured,captured_value,frames`; the
                // configuration label before them contains commas.
                let captured = rows[i]
                    .as_deref()
                    .and_then(|row| row.rsplit(',').nth(2))
                    .and_then(|c| c.parse::<usize>().ok());
                if captured != Some(r.captured) {
                    run.mismatch(format!(
                        "row {i}: greedy replay captured {} vs sweep {captured:?}",
                        r.captured
                    ));
                }
                agg.absorb(r);
            }
            Err(e) => run.error(format!("row {i}: greedy replay: {e}")),
        }
    }

    // Checkpoint I/O: load the sweep's snapshot and write it back.
    let copy = ckpt.with_extension("copy");
    let bytes = std::fs::metadata(ckpt).map(|m| m.len()).unwrap_or(0);
    match tr.span("harden.snapshot_load", |_| Snapshot::load(ckpt)) {
        Ok(snap) => {
            if let Err(e) = tr.span("harden.snapshot_write", |_| snap.write_atomic(&copy)) {
                run.error(format!("snapshot write: {e}"));
            }
        }
        Err(e) => run.error(format!("snapshot load: {e}")),
    }
    let traced_wall = phase.elapsed();

    let probes_s: f64 = tr.self_times().values().map(Duration::as_secs_f64).sum();
    let attributed = (busy / threads as f64 + probes_s) / traced_wall.as_secs_f64().max(1e-12);
    let self_s = |name: &str| tr.self_s(name);
    run.set("datasets.generate_s", setup_tr.self_s("datasets.generate"));
    run.set("datasets.index_s", setup_tr.self_s("datasets.index"));
    run.set(
        "datasets.targets",
        datasets.iter().map(TargetSet::len).sum::<usize>() as f64,
    );
    run.set("orbit.propagate_s", self_s("orbit.propagate"));
    run.set("orbit.states", (states + agg.states) as f64);
    run.set("compile.swath_eval_s", worker.self_s("compile.swath_eval"));
    run.set("coverage.evaluate_s", worker.self_s("coverage.greedy_eval"));
    run.set("compile.query_s", self_s("compile.query"));
    run.set("compile.track_builds", builds as f64);
    run.set("coverage.execute_s", self_s("coverage.execute"));
    set_clustering(run, &tr, &agg);
    set_schedule(run, &tr, &agg, "schedule.greedy");
    run.set("schedule.greedy_s", self_s("schedule.greedy"));
    run.set("exec.threads", threads as f64);
    run.set(
        "exec.busy_frac",
        busy / (threads as f64 * sweep_wall.as_secs_f64()).max(1e-12),
    );
    run.set("harden.checkpoint_bytes", bytes as f64);
    run.set("harden.snapshot_load_s", self_s("harden.snapshot_load"));
    run.set("harden.snapshot_write_s", self_s("harden.snapshot_write"));
    run.set("trace.traced_wall_s", traced_wall.as_secs_f64());
    run.set("trace.untraced_wall_s", untraced.as_secs_f64());
    run.set(
        "trace.overhead_frac",
        (sweep_wall.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64().max(1e-12),
    );
    run.set("trace.attributed_frac", attributed);
    flag_attribution("swath_sweep", attributed);
}
