//! Outside frame replay of a fault-free leader-follower evaluation.
//!
//! `CoverageEvaluator::evaluate` is one opaque call. To split its time
//! by layer without touching the program, the replay rebuilds every
//! leader's per-frame scheduling problem from public APIs only --
//! `ConstellationLayout`, `EpochGrid::propagate`,
//! `TargetSet::query_radius`, `LocalFrame`, `clustering::cluster`,
//! `SchedulingProblem::new_with_clip`, the scheduler, and
//! `SchedulingProblem::capture_offset` -- and times each call as a span.
//! It follows the evaluator's default path (recall 1, no faults, no
//! recapture penalty, one orbital plane), and its captured count,
//! scheduler calls and per-frame counts must equal `evaluate`'s; the
//! benchmark checks that on every run.

use crate::trace::Tracer;
use eagleeye_core::clustering::{cluster, ClusteringMethod};
use eagleeye_core::coverage::{CoverageOptions, CoverageReport, SchedulerKind};
use eagleeye_core::pointing::GroundPoint;
use eagleeye_core::schedule::{
    FollowerState, GreedyScheduler, IlpScheduler, Scheduler, SchedulingProblem, TaskSpec,
};
use eagleeye_core::CoreError;
use eagleeye_datasets::TargetSet;
use eagleeye_geo::LocalFrame;
use eagleeye_orbit::{ConstellationLayout, EpochGrid, SatelliteRole};
use std::time::Instant;

/// One leader-follower scenario to replay.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub groups: usize,
    pub followers: usize,
    pub scheduler: SchedulerKind,
    pub clustering: ClusteringMethod,
}

/// What the replay computed, in the units `CoverageReport` uses.
#[derive(Debug, Default)]
pub struct Replay {
    pub captured: usize,
    pub frames: usize,
    pub scheduler_calls: usize,
    pub per_frame_target_counts: Vec<usize>,
    pub per_frame_cluster_counts: Vec<usize>,
    /// Propagated states (one per leader per frame).
    pub states: usize,
    /// Per-horizon scheduler wall, seconds, in call order.
    pub solve_s: Vec<f64>,
    /// Tasks handed to the scheduler and captures it commanded.
    pub tasks: usize,
    pub captures: usize,
    /// Targets clustered and clusters formed.
    pub clustered_targets: usize,
    pub clusters: usize,
    /// ILP diagnostics, summed the way the evaluator sums them.
    pub ilp: CoverageReport,
}

impl Replay {
    /// Adds another replay's work counts and solve times (for totals over
    /// several scenarios).
    pub fn absorb(&mut self, r: Replay) {
        self.states += r.states;
        self.tasks += r.tasks;
        self.captures += r.captures;
        self.clusters += r.clusters;
        self.clustered_targets += r.clustered_targets;
        self.solve_s.extend(r.solve_s);
    }
}

/// Replays `scenario` over `targets` under `opts` (its duration, sensing
/// spec, inclination, task cap and layout pin), recording spans in
/// `tr`.
pub fn replay(
    targets: &TargetSet,
    opts: &CoverageOptions,
    scenario: Scenario,
    tr: &mut Tracer,
) -> Result<Replay, CoreError> {
    let spec = opts.spec;
    let layout = match opts.layout_slots {
        Some(slots) => ConstellationLayout::with_planes_slotted(
            scenario.groups,
            scenario.followers,
            spec.altitude_m,
            opts.inclination_rad,
            1,
            slots,
        ),
        None => ConstellationLayout::with_planes(
            scenario.groups,
            scenario.followers,
            spec.altitude_m,
            opts.inclination_rad,
            1,
        ),
    }
    .map_err(CoreError::from)?;
    let grid = EpochGrid::for_horizon(0.0, opts.duration_s, spec.frame_cadence_s);
    let frame_len = spec.frame_length_m();
    let low_swath = spec.low_res.swath_m();
    let high_swath = spec.high_res.swath_m();
    let bound = ((low_swath / 2.0).powi(2) + (frame_len / 2.0).powi(2)).sqrt() + 2_000.0;
    let ilp = IlpScheduler::default();

    let mut out = Replay::default();
    let n = scenario.followers;
    if scenario.groups == 0 || n == 0 || targets.is_empty() {
        // The evaluator returns an empty report for these.
        return Ok(out);
    }
    let mut captured = vec![false; targets.len()];
    let leaders = layout
        .satellites()
        .iter()
        .filter(|s| s.role == SatelliteRole::Leader);
    for leader in leaders {
        let states = tr.span("orbit.propagate", |_| -> Result<_, CoreError> {
            Ok(grid.propagate(&layout.ground_track(leader)?)?)
        })?;
        out.states += states.len();
        let trails: Vec<f64> = (0..n)
            .map(|k| {
                ConstellationLayout::DEFAULT_LEAD_DISTANCE_M
                    + k as f64 * ConstellationLayout::DEFAULT_FOLLOWER_SPACING_M
            })
            .collect();
        let mut avail = vec![0.0; n];
        let mut pointing = vec![(0.0, 0.0); n];
        for (frame_idx, state) in states.iter().enumerate() {
            let t = grid.epochs()[frame_idx];
            out.frames += 1;
            let subsat = state.subsatellite.with_altitude(0.0)?;
            let frame = LocalFrame::new(subsat, state.heading_rad);
            let in_frame: Vec<(usize, f64, f64)> = tr.span("compile.query", |_| {
                targets
                    .query_radius(&subsat, bound, t)
                    .into_iter()
                    .filter_map(|idx| {
                        let (x, y) = frame.project(&targets.target(idx).position_at(t));
                        (x.abs() <= low_swath / 2.0 && y.abs() <= frame_len / 2.0)
                            .then_some((idx, x, y))
                    })
                    .collect()
            });
            if in_frame.is_empty() {
                continue;
            }
            out.per_frame_target_counts.push(in_frame.len());
            let points: Vec<(GroundPoint, f64)> = in_frame
                .iter()
                .map(|&(idx, x, y)| (GroundPoint::new(x, y), targets.target(idx).value))
                .collect();
            let mut clusters = tr.span("clustering", |_| {
                cluster(&points, high_swath, high_swath, scenario.clustering)
            })?;
            out.per_frame_cluster_counts.push(clusters.len());
            out.clustered_targets += points.len();
            out.clusters += clusters.len();
            if clusters.len() > opts.max_tasks_per_frame {
                clusters.sort_by(|a, b| b.value.total_cmp(&a.value));
                clusters.truncate(opts.max_tasks_per_frame);
            }
            let along_origin = spec.ground_speed_m_s * t;
            let tasks: Vec<TaskSpec> = clusters
                .iter()
                .map(|c| TaskSpec::new(c.center.cross_m, along_origin + c.center.along_m, c.value))
                .collect();
            out.tasks += tasks.len();
            let followers: Vec<FollowerState> = (0..n)
                .map(|k| FollowerState {
                    along_at_0_m: -trails[k],
                    available_from_s: avail[k],
                    pointing_offset: pointing[k],
                })
                .collect();
            let problem = tr.span("schedule.problem", |_| {
                SchedulingProblem::new_with_clip(spec, tasks, followers, None)
            })?;
            let start = Instant::now();
            let schedule = match scenario.scheduler {
                SchedulerKind::Ilp => tr.span("schedule.ilp", |_| {
                    ilp.schedule_with_stats(&problem).map(|(s, stats)| {
                        out.ilp.add_ilp_stats(&stats);
                        s
                    })
                })?,
                SchedulerKind::Greedy => {
                    tr.span("schedule.greedy", |_| GreedyScheduler.schedule(&problem))?
                }
                _ => {
                    return Err(CoreError::InvalidParameter {
                        name: "replay_scheduler",
                        value: f64::NAN,
                    })
                }
            };
            out.solve_s.push(start.elapsed().as_secs_f64());
            out.scheduler_calls += 1;
            tr.span("coverage.execute", |_| {
                for (slot, seq) in schedule.sequences.iter().enumerate() {
                    for cap in seq {
                        let c = &clusters[cap.task];
                        let cy_abs = along_origin + c.center.along_m;
                        for &(idx, _, _) in &in_frame {
                            if captured[idx] {
                                continue;
                            }
                            let (x2, y2) =
                                frame.project(&targets.target(idx).position_at(cap.time_s));
                            if (x2 - c.center.cross_m).abs() <= high_swath / 2.0
                                && (along_origin + y2 - cy_abs).abs() <= high_swath / 2.0
                            {
                                captured[idx] = true;
                            }
                        }
                        out.captures += 1;
                        avail[slot] = cap.time_s;
                        pointing[slot] = problem.capture_offset(slot, cap.task, cap.time_s);
                    }
                }
            });
        }
    }
    out.captured = captured.iter().filter(|c| **c).count();
    Ok(out)
}
