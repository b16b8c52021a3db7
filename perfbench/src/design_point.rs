//! `design_point`: cold evaluation of a paper-shaped multi-follower
//! EagleEye ILP design.
//!
//! Each operation is one `CoverageEvaluator::evaluate` of an 8 × 2 ILP
//! design on a fresh evaluator (`threads = 1`), cycling over 32 seeded
//! full-scale Ship Detection datasets, so compile and memo start
//! empty every time and scheduling, clustering and membership do the
//! work. This is the plain single-threaded baseline.
//!
//! Checks: every repeat evaluation of a dataset must equal the first
//! (outcome and solver effort, compared separately); the outside replay
//! must reproduce `evaluate`'s captures, scheduler calls and per-frame
//! counts; a warm re-evaluation must equal the cold one.

use crate::replay::{replay, Replay, Scenario};
use crate::trace::{histogram, Tracer};
use crate::{
    build_index, check_report, effort_diff, quantile, set_up, sub_seed, Ctx, Cycle, Run, HORIZON_S,
    SCALE,
};
use eagleeye_core::clustering::ClusteringMethod;
use eagleeye_core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, CoverageReport, SchedulerKind,
};
use eagleeye_datasets::{TargetSet, Workload};
use std::time::{Duration, Instant};

const GROUPS: usize = 8;
const FOLLOWERS: usize = 2;
/// Distinct seeded datasets the evaluations cycle over.
const DATASETS: u64 = 32;

fn options(ctx: &Ctx) -> CoverageOptions {
    CoverageOptions {
        duration_s: HORIZON_S,
        seed: ctx.seed,
        threads: 1,
        ..CoverageOptions::default()
    }
}

fn setup(ctx: &Ctx, tr: &mut Tracer) -> Vec<TargetSet> {
    (0..DATASETS)
        .map(|i| {
            let targets = tr.span("datasets.generate", |_| {
                Workload::ShipDetection.generate_scaled(SCALE, HORIZON_S, sub_seed(ctx.seed, i))
            });
            tr.span("datasets.index", |_| build_index(&targets));
            targets
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let config = ConstellationConfig::eagleeye(GROUPS, FOLLOWERS);
    let opts = options(ctx);
    run.info(
        "shape",
        crate::json_str(&format!(
            "{} eagleeye {GROUPS}x{FOLLOWERS} ilp, {DATASETS} datasets, threads 1",
            Workload::ShipDetection.label()
        )),
    );

    let (datasets, setups, setup_tr) = set_up(ctx, &mut run, |_, tr| setup(ctx, tr));

    // Reference report per dataset: the first cold evaluation of it.
    let mut refs: Vec<Option<CoverageReport>> = vec![None; datasets.len()];
    if ctx.trace {
        traced(&mut run, &datasets, &opts, &config, &mut refs, &setup_tr);
    } else {
        // A cycle evaluates every dataset once.
        let mut cycles = Vec::new();
        let start = Instant::now();
        while cycles.is_empty() || start.elapsed() < ctx.budget() {
            let mut cycle = Cycle::default();
            for (i, targets) in datasets.iter().enumerate() {
                run.attempted += 1;
                let eval = CoverageEvaluator::new(targets, opts.clone());
                let t0 = Instant::now();
                let result = eval.evaluate(&config);
                let dt = t0.elapsed();
                match result {
                    Err(e) => {
                        run.error(format!("dataset {i}: evaluate: {e}"));
                        cycle.ops.push(None);
                    }
                    Ok(r) => {
                        cycle.ops.push(Some(dt));
                        cycle.frames += r.frames_processed;
                        run.note_degraded(&r);
                        match &refs[i] {
                            None => refs[i] = Some(r),
                            Some(want) => {
                                check_report(&mut run, &format!("dataset {i} repeat"), &r, want)
                            }
                        }
                    }
                }
            }
            cycles.push(cycle);
        }
        run.set_end_to_end(&setups, &cycles);
    }

    // Output checks, outside the timed phase.
    for (i, targets) in datasets.iter().enumerate() {
        let Some(want) = refs[i].clone() else {
            continue;
        };
        match replay(targets, &opts, scenario(), &mut Tracer::new(false)) {
            Ok(r) => check_replay(&mut run, i, &r, &want),
            Err(e) => run.error(format!("dataset {i}: replay: {e}")),
        }
        let eval = CoverageEvaluator::new(targets, opts.clone());
        match (eval.evaluate(&config), eval.evaluate(&config)) {
            (Ok(cold), Ok(warm)) => {
                check_report(&mut run, &format!("dataset {i} warm vs cold"), &warm, &cold);
                if eval.compile_stats().memo_hits == 0 {
                    run.mismatch(format!("dataset {i}: warm evaluation replayed no memo"));
                }
            }
            (Err(e), _) | (_, Err(e)) => run.error(format!("dataset {i}: warm check: {e}")),
        }
    }
    run
}

fn scenario() -> Scenario {
    Scenario {
        groups: GROUPS,
        followers: FOLLOWERS,
        scheduler: SchedulerKind::Ilp,
        clustering: ClusteringMethod::Ilp,
    }
}

/// The replay must reproduce `evaluate` exactly.
fn check_replay(run: &mut Run, i: usize, r: &Replay, want: &CoverageReport) {
    let pairs = [
        ("captured", r.captured, want.captured),
        ("frames", r.frames, want.frames_processed),
        ("scheduler_calls", r.scheduler_calls, want.scheduler_calls),
        ("captures", r.captures, want.captures_commanded),
    ];
    for (k, got, exp) in pairs {
        if got != exp {
            run.mismatch(format!("dataset {i}: replay {k} {got} vs evaluate {exp}"));
        }
    }
    if r.per_frame_target_counts != want.per_frame_target_counts
        || r.per_frame_cluster_counts != want.per_frame_cluster_counts
    {
        run.mismatch(format!(
            "dataset {i}: replay per-frame counts differ from evaluate"
        ));
    }
    if let Some(d) = effort_diff(&r.ilp, want) {
        run.mismatch(format!(
            "dataset {i}: replay solver effort differs from evaluate: {d}"
        ));
    }
}

/// The traced run: one cold and one warm evaluation per dataset and the
/// outside replay of each, untraced and traced, for the per-layer split
/// of the cold path.
fn traced(
    run: &mut Run,
    datasets: &[TargetSet],
    opts: &CoverageOptions,
    config: &ConstellationConfig,
    refs: &mut [Option<CoverageReport>],
    setup_tr: &Tracer,
) {
    let mut evaluate_s = 0.0;
    let mut warm_s = 0.0;
    let mut report_sched_s = 0.0;
    let (mut builds, mut hits, mut misses) = (0u64, 0u64, 0u64);
    let mut ilp_sum = CoverageReport::default();
    // Per dataset, back to back so the host's speed changes hit all four
    // alike: a cold and a warm evaluation, then the replay untraced and
    // traced. The untraced/traced difference is the tracing overhead; the
    // traced spans give the layer split.
    let mut untraced = Duration::ZERO;
    let mut tr = Tracer::new(true);
    let mut traced_wall = Duration::ZERO;
    let mut agg = Replay::default();
    for (i, targets) in datasets.iter().enumerate() {
        run.attempted += 1;
        let eval = CoverageEvaluator::new(targets, opts.clone());
        let t0 = Instant::now();
        let cold = eval.evaluate(config);
        evaluate_s += t0.elapsed().as_secs_f64();
        let before = eval.compile_stats();
        let t1 = Instant::now();
        let warm = eval.evaluate(config);
        warm_s += t1.elapsed().as_secs_f64();
        let after = eval.compile_stats();
        builds += before.track_builds;
        hits += after.memo_hits - before.memo_hits;
        misses += after.memo_misses - before.memo_misses;
        match cold {
            Ok(r) => {
                run.note_degraded(&r);
                report_sched_s += r.scheduler_time.as_secs_f64();
                ilp_sum.absorb(r.clone());
                if let Ok(w) = warm {
                    check_report(run, &format!("dataset {i} warm vs cold"), &w, &r);
                }
                refs[i] = Some(r);
            }
            Err(e) => run.error(format!("dataset {i}: evaluate: {e}")),
        }

        let t2 = Instant::now();
        let _ = replay(targets, opts, scenario(), &mut Tracer::new(false));
        untraced += t2.elapsed();
        let t3 = Instant::now();
        let r = replay(targets, opts, scenario(), &mut tr);
        traced_wall += t3.elapsed();
        if let Ok(r) = r {
            agg.absorb(r);
        }
    }

    let st = tr.self_times();
    let layer_s: f64 = st.values().map(Duration::as_secs_f64).sum();
    let traced_s = traced_wall.as_secs_f64();
    run.set("datasets.generate_s", setup_tr.self_s("datasets.generate"));
    run.set("datasets.index_s", setup_tr.self_s("datasets.index"));
    run.set(
        "datasets.targets",
        datasets.iter().map(TargetSet::len).sum::<usize>() as f64,
    );
    run.set("coverage.evaluate_s", evaluate_s);
    run.set("memo.warm_eval_s", warm_s);
    run.set("memo.hits", hits as f64);
    run.set("memo.misses", misses as f64);
    run.set(
        "memo.hit_ratio",
        hits as f64 / ((hits + misses) as f64).max(1.0),
    );
    run.set("compile.track_builds", builds as f64);
    run.set("orbit.propagate_s", tr.self_s("orbit.propagate"));
    run.set("orbit.states", agg.states as f64);
    run.set("compile.query_s", tr.self_s("compile.query"));
    run.set("coverage.execute_s", tr.self_s("coverage.execute"));
    set_clustering(run, &tr, &agg);
    set_schedule(run, &tr, &agg, "schedule.ilp");
    set_ilp(run, &ilp_sum);
    run.set("trace.traced_wall_s", traced_s);
    run.set("trace.untraced_wall_s", untraced.as_secs_f64());
    run.set(
        "trace.overhead_frac",
        (traced_s - untraced.as_secs_f64()) / untraced.as_secs_f64().max(1e-12),
    );
    let attributed = layer_s / traced_s.max(1e-12);
    run.set("trace.attributed_frac", attributed);
    flag_attribution("design_point", attributed);
    let replay_sched = tr.self_s("schedule.ilp");
    let ratio = replay_sched / report_sched_s.max(1e-12);
    run.set("trace.schedule_vs_report", ratio);
    if (ratio - 1.0).abs() > 0.10 {
        eprintln!(
            "perfbench: design_point replay schedule time {replay_sched:.4}s is not within 10% of \
             the report's {report_sched_s:.4}s"
        );
    }
}

pub fn flag_attribution(workload: &str, attributed: f64) {
    if attributed < 0.90 {
        eprintln!(
            "perfbench: FLAG {workload}: named layers account for {:.1}% of the traced wall (< 90%)",
            100.0 * attributed
        );
    }
}

pub fn set_clustering(run: &mut Run, tr: &Tracer, agg: &Replay) {
    let d: Vec<f64> = tr
        .durations("clustering")
        .iter()
        .map(Duration::as_secs_f64)
        .collect();
    run.set("clustering.calls", d.len() as f64);
    run.set("clustering.total_s", d.iter().sum());
    run.set(
        "clustering.max_ms",
        1e3 * d.iter().copied().fold(0.0, f64::max),
    );
    run.set(
        "clustering.clusters_per_target",
        agg.clusters as f64 / (agg.clustered_targets as f64).max(1.0),
    );
}

/// Schedule-layer metrics from the per-horizon solve times: totals,
/// percentiles, the heavy-tail view (max and top-5 share) and the
/// log-spaced histogram.
pub fn set_schedule(run: &mut Run, tr: &Tracer, agg: &Replay, span: &str) {
    let solve_s = &agg.solve_s;
    let mut sorted = solve_s.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = sorted.iter().sum();
    run.set("schedule.calls", sorted.len() as f64);
    run.set("schedule.total_s", tr.self_s(span));
    run.set("schedule.problem_s", tr.self_s("schedule.problem"));
    run.set("schedule.p50_us", 1e6 * quantile(solve_s, 0.50));
    run.set("schedule.p99_us", 1e6 * quantile(solve_s, 0.99));
    run.set(
        "schedule.max_ms",
        1e3 * sorted.first().copied().unwrap_or(0.0),
    );
    run.set(
        "schedule.top5_share",
        sorted.iter().take(5).sum::<f64>() / total.max(1e-12),
    );
    run.set(
        "schedule.captures_per_task",
        agg.captures as f64 / (agg.tasks as f64).max(1.0),
    );
    for (name, count) in histogram(solve_s) {
        run.set(name, count as f64);
    }
}

pub fn set_ilp(run: &mut Run, r: &CoverageReport) {
    run.set("ilp.nodes_explored", r.ilp_nodes_explored as f64);
    run.set("ilp.nodes_pruned", r.ilp_nodes_pruned as f64);
    run.set("ilp.lp_iterations", r.ilp_lp_iterations as f64);
    run.set("ilp.lp_pivots", r.ilp_lp_pivots as f64);
    run.set(
        "ilp.pivots_per_node",
        r.ilp_lp_pivots as f64 / (r.ilp_nodes_explored as f64).max(1.0),
    );
    run.set(
        "ilp.warm_start_ratio",
        r.ilp_warm_starts as f64 / ((r.ilp_warm_starts + r.ilp_warm_rejects) as f64).max(1.0),
    );
    run.set("ilp.deadline_hits", r.ilp_deadline_hits as f64);
    run.set(
        "ilp.iteration_limit_hits",
        r.ilp_iteration_limit_hits as f64,
    );
}
