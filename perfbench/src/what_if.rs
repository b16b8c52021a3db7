//! `what_if_session`: one analyst in a closed loop of what-if questions.
//!
//! The parent design (8 × 2 ILP, `layout_slots` pinned so groups keep
//! their orbital slots) is evaluated during set-up, on each of a few
//! seeded Ship Detection datasets so that one dataset's geography does
//! not decide the figures. A session is a seeded sequence of deltas,
//! delta `i` asked against parent `i mod PARENTS`, each answered by
//! `CoverageEvaluator::what_if` and shipped as bytes
//! (`CoverageReport::to_bytes`/`from_bytes`): group and follower edits,
//! one fault window per `FaultKind` at seeded times, and recall and
//! recapture nudges. Memo replay and the shared track pool do most of
//! the work; hits (clean frames replayed) sit beside misses (dirty
//! frames solved and inserted), so a bounded or evicting cache that
//! saves memory but loses hits shows up here. `AddFollower` is left out:
//! on a two-follower parent it is a three-follower cold re-solve that
//! would dominate every statistic.
//!
//! When a session ends before the time budget, the next one runs the
//! same deltas against a freshly evaluated parent, so memory and the
//! cache state a delta sees do not depend on how fast earlier ones ran.
//!
//! Checks: a seeded sample of deltas is re-evaluated cold on a fresh
//! evaluator, outside the timed phase, and must match (outcome and solver
//! effort separately); every repeat of a delta in a later session must
//! match its first answer; every report must survive the byte codec.

use crate::design_point::flag_attribution;
use crate::trace::Tracer;
use crate::{
    build_index, check_report, json_str, set_up, sub_seed, Ctx, Cycle, Run, HORIZON_S, SCALE,
};
use eagleeye_core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, CoverageReport, DeltaStats,
    ScenarioDelta,
};
use eagleeye_datasets::{TargetSet, Workload};
use eagleeye_rng::SplitMix64;
use eagleeye_sim::FaultKind;
use std::time::{Duration, Instant};

const GROUPS: usize = 8;
const FOLLOWERS: usize = 2;
/// Orbital slots pinned for the parent: one spare slot lets `AddGroup`
/// keep every existing orbit. (Other pins move the 8 groups onto
/// ground tracks whose densest frames take seconds to solve, and past
/// the 10 s ILP limit at some seeds.)
const SLOTS: usize = 9;
/// Parents (one per seeded dataset) the session's deltas rotate over.
const PARENTS: usize = 8;
/// Deltas per session; enough that at least ten lie beyond p95.
const SESSION: usize = 240;
/// Every `CHECK_EVERY`-th delta of the first session is compared with a
/// cold evaluation of its child scenario.
const CHECK_EVERY: usize = 12;

fn options(ctx: &Ctx) -> CoverageOptions {
    CoverageOptions {
        duration_s: HORIZON_S,
        seed: ctx.seed,
        layout_slots: Some(SLOTS),
        threads: 1,
        ..CoverageOptions::default()
    }
}

/// The seeded delta sequence of one session. Weights keep the costly
/// full re-solves (recall nudges, follower removal) well above 5 % of
/// the mix, so p95 falls inside that class rather than on its edge.
fn session(seed: u64) -> Vec<ScenarioDelta> {
    let mut rng = SplitMix64::new(seed).fork(0x5e55);
    (0..SESSION)
        .map(|_| {
            let roll = rng.next_f64();
            if roll < 0.04 {
                ScenarioDelta::AddGroup
            } else if roll < 0.08 {
                ScenarioDelta::RemoveGroup
            } else if roll < 0.12 {
                ScenarioDelta::RemoveFollower
            } else if roll < 0.24 {
                ScenarioDelta::NudgeRecall(rng.range_f64(0.80, 0.99))
            } else if roll < 0.34 {
                ScenarioDelta::NudgeRecapture(Some(rng.range_f64(0.1, 0.9)))
            } else {
                let kind = match rng.range_usize(0, 7) {
                    0 => FaultKind::LeaderOutage,
                    1 => FaultKind::FollowerOutage { follower: 0 },
                    2 => FaultKind::FollowerOutage { follower: 1 },
                    3 => FaultKind::DetectorDropout {
                        false_negative_rate: rng.range_f64(0.1, 0.5),
                    },
                    4 => FaultKind::RadioDerate {
                        capacity_factor: rng.range_f64(0.2, 0.8),
                    },
                    5 => FaultKind::SlewDerate {
                        rate_factor: rng.range_f64(0.3, 0.9),
                    },
                    _ => FaultKind::BatteryBrownout,
                };
                let start_s = rng.range_f64(0.0, HORIZON_S);
                ScenarioDelta::FaultWindow {
                    kind,
                    start_s,
                    end_s: start_s + rng.range_f64(120.0, 900.0),
                }
            }
        })
        .collect()
}

fn generate(ctx: &Ctx, tr: &mut Tracer) -> Vec<TargetSet> {
    (0..PARENTS as u64)
        .map(|i| {
            let targets = tr.span("datasets.generate", |_| {
                Workload::ShipDetection.generate_scaled(SCALE, HORIZON_S, sub_seed(ctx.seed, i))
            });
            tr.span("datasets.index", |_| build_index(&targets));
            targets
        })
        .collect()
}

/// A freshly evaluated parent on every dataset.
fn parents<'a>(
    run: &mut Run,
    datasets: &'a [TargetSet],
    opts: &CoverageOptions,
    config: &ConstellationConfig,
    tr: &mut Tracer,
) -> Vec<(CoverageEvaluator<'a>, Option<CoverageReport>)> {
    datasets
        .iter()
        .map(|targets| {
            let eval = CoverageEvaluator::new(targets, opts.clone());
            let report = match tr.span("coverage.evaluate", |_| eval.evaluate(config)) {
                Ok(r) => Some(r),
                Err(e) => {
                    run.error(format!("parent evaluation: {e}"));
                    None
                }
            };
            (eval, report)
        })
        .collect()
}

/// One answered delta: the child report, its reuse counters, and how
/// long the question took.
struct Answer {
    report: CoverageReport,
    stats: DeltaStats,
    latency: Duration,
}

/// Asks one delta and ships the answer through the report codec.
fn ask(
    run: &mut Run,
    parent: &CoverageEvaluator,
    config: &ConstellationConfig,
    delta: &ScenarioDelta,
    tr: &mut Tracer,
) -> Option<Answer> {
    run.attempted += 1;
    let start = Instant::now();
    let answer = tr.span("coverage.delta", |_| parent.what_if(config, delta));
    let (report, stats) = match answer {
        Ok(a) => a,
        Err(e) => {
            run.error(format!("what_if {delta:?}: {e}"));
            return None;
        }
    };
    let decoded = tr.span("report.codec", |_| {
        CoverageReport::from_bytes(&report.to_bytes())
    });
    let latency = start.elapsed();
    if decoded.as_ref().ok() != Some(&report) {
        run.mismatch(format!(
            "what_if {delta:?}: report does not survive the byte codec"
        ));
    } else {
        run.note_degraded(&report);
    }
    Some(Answer {
        report,
        stats,
        latency,
    })
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let config = ConstellationConfig::eagleeye(GROUPS, FOLLOWERS);
    let opts = options(ctx);
    let deltas = session(ctx.seed);
    run.info(
        "shape",
        json_str(&format!(
            "{} parents eagleeye {GROUPS}x{FOLLOWERS} ilp on {PARENTS} datasets, layout_slots \
             {SLOTS}, {SESSION} deltas per session, threads 1",
            Workload::ShipDetection.label()
        )),
    );

    let (datasets, setups, setup_tr) = set_up(ctx, &mut run, |run, tr| {
        let datasets = generate(ctx, tr);
        drop(parents(run, &datasets, &opts, &config, tr));
        datasets
    });

    // First answer of every delta index.
    let mut first: Vec<Option<CoverageReport>> = vec![None; deltas.len()];
    if ctx.trace {
        traced(
            &mut run, &datasets, &opts, &config, &deltas, &setup_tr, &mut first,
        );
    } else {
        // A cycle is one session against freshly evaluated parents; the
        // parent evaluations are not timed.
        let mut cycles = Vec::new();
        let start = Instant::now();
        while cycles.is_empty() || start.elapsed() < ctx.budget() {
            let ps = parents(&mut run, &datasets, &opts, &config, &mut Tracer::new(false));
            let mut cycle = Cycle::default();
            for (i, delta) in deltas.iter().enumerate() {
                let parent = &ps[i % PARENTS].0;
                let answer = ask(&mut run, parent, &config, delta, &mut Tracer::new(false));
                cycle.ops.push(answer.as_ref().map(|a| a.latency));
                let Some(a) = answer else { continue };
                cycle.frames += a.report.frames_processed;
                match &first[i] {
                    None => first[i] = Some(a.report),
                    Some(want) => {
                        check_report(&mut run, &format!("delta {i} repeat"), &a.report, want)
                    }
                }
            }
            cycles.push(cycle);
        }
        run.set_end_to_end(&setups, &cycles);
    }

    // Sampled deltas against a cold evaluation of the child scenario,
    // outside the timed phase.
    for (i, delta) in deltas.iter().enumerate().step_by(CHECK_EVERY) {
        let Some(got) = &first[i] else { continue };
        let cold = delta.apply(&config, &opts).and_then(|(cfg, child)| {
            CoverageEvaluator::new(&datasets[i % PARENTS], child).evaluate(&cfg)
        });
        match cold {
            Ok(want) => check_report(
                &mut run,
                &format!("delta {i} {delta:?} vs cold child"),
                got,
                &want,
            ),
            Err(e) => run.error(format!("delta {i}: cold child: {e}")),
        }
    }
    run
}

/// The traced run: a warm re-evaluation of every parent (memo replay of
/// every frame), then the session once untraced and once traced, each
/// against its own freshly evaluated parents.
fn traced(
    run: &mut Run,
    datasets: &[TargetSet],
    opts: &CoverageOptions,
    config: &ConstellationConfig,
    deltas: &[ScenarioDelta],
    setup_tr: &Tracer,
    first: &mut [Option<CoverageReport>],
) {
    let mut warm_s = 0.0;
    let mut warm_hits = 0;
    for (p, cold) in parents(run, datasets, opts, config, &mut Tracer::new(false)) {
        let before = p.compile_stats();
        let t0 = Instant::now();
        let warm = p.evaluate(config);
        warm_s += t0.elapsed().as_secs_f64();
        warm_hits += p.compile_stats().memo_hits - before.memo_hits;
        if let (Some(cold), Ok(warm)) = (&cold, &warm) {
            check_report(run, "parent warm vs cold", warm, cold);
        }
    }

    let mut untraced = Duration::ZERO;
    let ps = parents(run, datasets, opts, config, &mut Tracer::new(false));
    for (i, delta) in deltas.iter().enumerate() {
        let t = Instant::now();
        let _ = ask(
            run,
            &ps[i % PARENTS].0,
            config,
            delta,
            &mut Tracer::new(false),
        );
        untraced += t.elapsed();
    }
    drop(ps);

    let mut tr = Tracer::new(true);
    let mut traced_wall = Duration::ZERO;
    let mut sum = DeltaStats::default();
    let ps = parents(run, datasets, opts, config, &mut Tracer::new(false));
    for (i, delta) in deltas.iter().enumerate() {
        let t = Instant::now();
        let a = ask(run, &ps[i % PARENTS].0, config, delta, &mut tr);
        traced_wall += t.elapsed();
        let Some(a) = a else { continue };
        sum.track_builds += a.stats.track_builds;
        sum.track_shares += a.stats.track_shares;
        sum.track_reuses += a.stats.track_reuses;
        sum.memo_hits += a.stats.memo_hits;
        sum.memo_misses += a.stats.memo_misses;
        first[i] = Some(a.report);
    }

    let traced_s = traced_wall.as_secs_f64();
    let layer_s: f64 = tr.self_times().values().map(Duration::as_secs_f64).sum();
    let attributed = layer_s / traced_s.max(1e-12);
    run.set("datasets.generate_s", setup_tr.self_s("datasets.generate"));
    run.set("datasets.index_s", setup_tr.self_s("datasets.index"));
    run.set(
        "datasets.targets",
        datasets.iter().map(TargetSet::len).sum::<usize>() as f64,
    );
    run.set("coverage.evaluate_s", setup_tr.self_s("coverage.evaluate"));
    run.set("memo.warm_eval_s", warm_s);
    run.set("memo.hits", sum.memo_hits as f64);
    run.set("memo.misses", sum.memo_misses as f64);
    run.set(
        "memo.hit_ratio",
        sum.memo_hits as f64 / ((sum.memo_hits + sum.memo_misses) as f64).max(1.0),
    );
    run.set("compile.track_builds", sum.track_builds as f64);
    run.set("compile.track_shares", sum.track_shares as f64);
    run.set("compile.track_reuses", sum.track_reuses as f64);
    run.set("delta.calls", tr.durations("coverage.delta").len() as f64);
    run.set("delta.total_s", tr.self_s("coverage.delta"));
    run.set("delta.dirty_frames", sum.memo_misses as f64);
    run.set("delta.track_builds", sum.track_builds as f64);
    run.set("report.codec_s", tr.self_s("report.codec"));
    run.set("trace.traced_wall_s", traced_s);
    run.set("trace.untraced_wall_s", untraced.as_secs_f64());
    run.set(
        "trace.overhead_frac",
        (traced_s - untraced.as_secs_f64()) / untraced.as_secs_f64().max(1e-12),
    );
    run.set("trace.attributed_frac", attributed);
    flag_attribution("what_if_session", attributed);
    run.info("parent_warm_memo_hits", warm_hits);
}
