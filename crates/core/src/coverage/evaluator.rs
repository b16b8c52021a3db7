use super::compile::{
    CompileCache, CompileGeometry, CompileStats, CompiledScenario, CompiledTrack, FrameInputs,
    IntervalSweep, ReplayCapture, SolvedHorizon, SolvedOutcome,
};
use super::delta::check_fault_window;
use super::harden::{decode_pass, encode_pass, Pass, TargetBits};
use super::{
    ConstellationConfig, CoverageReport, DegradedMode, HardenOptions, HardenedOutcome,
    SchedulerKind,
};
use crate::clustering::{cluster, Cluster, ClusteringMethod};
use crate::pointing::{GroundPoint, TimeWindow};
use crate::schedule::{
    AbbScheduler, FallbackReason, FollowerState, GreedyScheduler, IlpScheduler, ResilientScheduler,
    Scheduler, SchedulingProblem, SolverChoice, TaskSpec,
};
use crate::{Adacs, CoreError, SensingSpec};
use eagleeye_datasets::TargetSet;
use eagleeye_exec::{run_items, RunConfig};
use eagleeye_geo::LocalFrame;
use eagleeye_harden::ScenarioHasher;
use eagleeye_obs::{Metrics, Stopwatch};
use eagleeye_orbit::{ConstellationLayout, EpochGrid, SatelliteRole, SatelliteSpec};
use eagleeye_sim::FaultPlan;
use std::sync::Arc;

/// Options controlling a coverage evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageOptions {
    /// Sensing configuration (cameras, ADACS, orbit geometry).
    pub spec: SensingSpec,
    /// Simulated duration, seconds, finite and non-negative. The paper
    /// runs 24 h; the default is 4 h, which preserves every trend at a
    /// fraction of the cost (see EXPERIMENTS.md).
    pub duration_s: f64,
    /// Orbit inclination, radians (paper: 97.2°).
    pub inclination_rad: f64,
    /// Leader detection recall in `[0, 1]` (Fig. 15 sweeps this).
    pub recall: f64,
    /// RNG seed for the detection model.
    pub seed: u64,
    /// Cap on clusters handed to the scheduler per frame (more than the
    /// followers can capture anyway); highest-value clusters are kept.
    pub max_tasks_per_frame: usize,
    /// Recapture deprioritization (paper §4.7 "Recapture", implemented
    /// here as an extension): when `Some(p)`, the leader multiplies the
    /// priority of targets its own group captured in an earlier frame
    /// by `p ∈ [0, 1]`, steering its followers toward new targets.
    /// `None` reproduces the paper's evaluated behaviour (no
    /// re-identification).
    ///
    /// The knowledge is group-local by design: a leader commands only
    /// its own followers and has no link to other groups (their
    /// captures reach it only through the ground), so the captures it
    /// causally knows of are its group's own. This also keeps every
    /// leader pass independent, so recapture runs parallelize, checkpoint
    /// and resume like any other.
    pub recapture_penalty: Option<f64>,
    /// Number of orbital planes to spread groups across (paper §4.7
    /// "Orbit Design", implemented here as an extension). 1 reproduces
    /// the paper's single-plane evaluation.
    pub orbital_planes: usize,
    /// Pin group phasing to a fixed capacity of orbital slots (see
    /// [`ConstellationLayout::with_planes_slotted`]): group `g` always
    /// occupies slot `g`, so a what-if delta that adds or removes
    /// trailing groups leaves every surviving satellite's orbit
    /// bit-identical — the geometric precondition for sharing compiled
    /// tracks between parent and child scenarios (DESIGN.md §14).
    /// `None` (default) phases against the actual group count, the
    /// paper's layout; `Some(groups)` is bit-identical to `None`.
    /// Evaluation errors when the capacity is below the group count.
    pub layout_slots: Option<usize>,
    /// Optional seeded fault-injection plan (satellite outages,
    /// detector dropout, radio/ADACS derating, brownouts); leader and
    /// follower outages are the paper's §4.7 failure scenarios. `None`
    /// reproduces the fault-free paper evaluation. Shared by `Arc` so
    /// Monte-Carlo sweep loops can evaluate one large plan under many
    /// configurations without copying it per evaluation.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// How the constellation reacts to injected faults; irrelevant when
    /// `fault_plan` is `None`.
    pub degraded_mode: DegradedMode,
    /// Worker threads for the per-satellite passes inside one
    /// evaluation (leader groups' frame loops, swath satellites'
    /// compiles): `1` (default) runs the passes inline, `0` uses
    /// [`eagleeye_exec::available_parallelism`]. Passes share no
    /// mutable state and every random draw is a pure function of
    /// `(seed, target, frame)`, so the resulting [`CoverageReport`] is
    /// identical at any thread count (see DESIGN.md §8). Keep the
    /// default when an outer sweep already parallelizes whole
    /// evaluations. A failing pass does not stop the others, at one
    /// thread too: every pass runs and the lowest-indexed error is
    /// returned.
    pub threads: usize,
    /// Observability sink (see `eagleeye-obs`). The default disabled
    /// handle costs one branch per instrumentation site; an enabled
    /// handle records `core/*`, `ilp/*`, `orbit/*`, and `sim/*`
    /// counters, per-phase timers, and histograms. Parallel passes
    /// record into per-pass forks absorbed in pass order,
    /// so counters and histograms are identical at any thread count
    /// (timers and gauges are wall-clock/pool-shape and are exempt;
    /// see DESIGN.md §10).
    pub metrics: Metrics,
}

impl Default for CoverageOptions {
    fn default() -> Self {
        CoverageOptions {
            spec: SensingSpec::paper_default(),
            duration_s: 4.0 * 3600.0,
            inclination_rad: 97.2_f64.to_radians(),
            recall: 1.0,
            seed: 7,
            max_tasks_per_frame: 60,
            recapture_penalty: None,
            orbital_planes: 1,
            layout_slots: None,
            fault_plan: None,
            degraded_mode: DegradedMode::default(),
            threads: 1,
            metrics: Metrics::disabled(),
        }
    }
}

/// Runs constellation configurations against a target workload.
///
/// # Example
///
/// ```no_run
/// use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator, CoverageOptions};
/// use eagleeye_datasets::{ShipGenerator};
///
/// let ships = ShipGenerator::new().with_count(2_000).generate(1);
/// let eval = CoverageEvaluator::new(&ships, CoverageOptions::default());
/// let report = eval.evaluate(&ConstellationConfig::eagleeye(2, 1))?;
/// println!("coverage: {:.1}%", 100.0 * report.coverage_fraction());
/// # Ok::<(), eagleeye_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct CoverageEvaluator<'a> {
    targets: &'a TargetSet,
    options: CoverageOptions,
    /// Compiled-program cache (DESIGN.md §13/§14): per scenario, the
    /// batch-propagated states, access-interval membership, and
    /// horizon-solve memos, plus the cross-scenario track pool that
    /// lets a what-if fork ([`fork_with`](Self::fork_with)) inherit
    /// unaffected tracks. Repeated evaluations of the same
    /// configuration reuse the compiled program instead of
    /// recompiling; the cache is behaviour-invisible (warm and cold
    /// reports are bit-identical).
    compile: Arc<CompileCache>,
}

/// What one configuration evaluates: one pass per satellite in
/// `sats`, sharing the layout, the epoch grid and the compiled-track
/// slots. [`CoverageEvaluator::scenario`] is the one place a
/// [`ConstellationConfig`] is taken apart.
struct Scenario {
    /// How a pass reads its compiled track.
    kind: PassKind,
    /// [`CoverageEvaluator::scenario_hash`]: the compile-cache key and
    /// the checkpoint binding.
    hash: u64,
    layout: ConstellationLayout,
    /// Frame epochs plus per-epoch sidereal trig, computed once and
    /// shared by every pass's batch propagation.
    grid: EpochGrid,
    /// One satellite per pass: every satellite of a swath
    /// constellation, the leaders of a leader-follower one.
    sats: Vec<SatelliteSpec>,
    /// The frame box every track's membership is compiled against.
    geom: CompileGeometry,
    /// Compiled-track slots, one per pass.
    compiled: Arc<CompiledScenario>,
}

/// What a pass does with its satellite's compiled track.
#[derive(Debug, Clone, Copy)]
enum PassKind {
    /// A homogeneous constellation: the satellite covers every target
    /// its frames hold.
    Swath,
    /// A leader's detection, clustering, scheduling and capture loop.
    Leader(LeaderRun),
}

impl PassKind {
    /// The solver identity a pooled track's horizon memo belongs to.
    fn label(self) -> &'static str {
        match self {
            PassKind::Swath => "swath",
            PassKind::Leader(run) => run.scheduler.label(),
        }
    }
}

/// The leader-follower shape of an EagleEye or Mix-Camera
/// configuration. A Mix-Camera satellite is a group of one whose single
/// follower is itself, losing `mix_compute_s` of each frame's capture
/// window to onboard compute.
#[derive(Debug, Clone, Copy)]
struct LeaderRun {
    /// Followers each leader tasks.
    followers: usize,
    scheduler: SchedulerKind,
    clustering: ClusteringMethod,
    mix_compute_s: Option<f64>,
}

impl<'a> CoverageEvaluator<'a> {
    /// Creates an evaluator over a workload.
    pub fn new(targets: &'a TargetSet, options: CoverageOptions) -> Self {
        CoverageEvaluator {
            targets,
            options,
            compile: Arc::new(CompileCache::default()),
        }
    }

    /// A sibling evaluator over the same workload with different
    /// options, sharing this evaluator's compiled-program cache. This
    /// is the incremental what-if entry point (DESIGN.md §14): the fork
    /// evaluates an edited scenario, and every satellite whose compiled
    /// inputs the edit left untouched adopts the parent's track from
    /// the shared pool — memoized horizon solves included — so only
    /// dirty frames are re-solved. Sharing is behaviour-invisible: the
    /// fork's report is bit-identical to a cold evaluation of the same
    /// scenario (the delta differential suite asserts this).
    pub fn fork_with(&self, options: CoverageOptions) -> CoverageEvaluator<'a> {
        CoverageEvaluator {
            targets: self.targets,
            options,
            compile: Arc::clone(&self.compile),
        }
    }

    /// The configured options.
    pub fn options(&self) -> &CoverageOptions {
        &self.options
    }

    /// Reuse counters of the compiled-program cache: tracks built vs.
    /// reused (a reuse skips propagation and membership entirely) and
    /// horizon solves replayed from the memo vs. solved live. All zero
    /// until the first evaluation; `track_reuses` and `memo_hits` grow
    /// only on repeated evaluations of the same configuration.
    pub fn compile_stats(&self) -> CompileStats {
        self.compile.stats()
    }

    /// Evaluates one constellation configuration: the supervised run
    /// of [`evaluate_hardened`](Self::evaluate_hardened) with inert
    /// [`HardenOptions`] — no checkpoint, no deadline — which runs its
    /// passes inline at one thread and encodes nothing.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an invalid sensing spec, a
    /// `duration_s` that is negative or not finite, or a `recall` or
    /// `recapture_penalty` outside `[0, 1]`, or a fault window with a
    /// negative or NaN start or an end not after its start (the rules
    /// [`ScenarioDelta::apply`](super::ScenarioDelta::apply) enforces).
    /// Propagates orbit, geometry, and solver failures of the
    /// lowest-indexed failing pass, and [`CoreError::Harden`] for a
    /// pass that kept panicking; zero-satellite configurations return
    /// an empty report rather than erroring.
    pub fn evaluate(&self, config: &ConstellationConfig) -> Result<CoverageReport, CoreError> {
        Ok(self
            .evaluate_hardened(config, &HardenOptions::default())?
            .report)
    }

    /// Validates the options (see [`evaluate`](Self::evaluate)'s
    /// errors) and decomposes `config` into its passes. Returns `None`
    /// for configurations with nothing to run (no satellites, no
    /// targets, or EagleEye groups without followers to capture with),
    /// which evaluate to the empty base report.
    fn scenario(&self, config: &ConstellationConfig) -> Result<Option<Scenario>, CoreError> {
        let o = &self.options;
        o.spec.validate()?;
        let penalty = o.recapture_penalty.unwrap_or(1.0);
        for (name, value, valid) in [
            (
                "duration_s",
                o.duration_s,
                o.duration_s.is_finite() && o.duration_s >= 0.0,
            ),
            ("recall", o.recall, (0.0..=1.0).contains(&o.recall)),
            ("recapture_penalty", penalty, (0.0..=1.0).contains(&penalty)),
        ] {
            if !valid {
                return Err(CoreError::InvalidParameter { name, value });
            }
        }
        for f in o.fault_plan.iter().flat_map(|p| p.faults()) {
            check_fault_window(f.start_s, f.end_s)?;
        }
        let spec = &o.spec;
        let low_res = spec.low_res.swath_m();
        let leader = |followers, scheduler, clustering, mix_compute_s| {
            PassKind::Leader(LeaderRun {
                followers,
                scheduler,
                clustering,
                mix_compute_s,
            })
        };
        // (groups, followers per group in the layout, frame swath, kind)
        let (groups, layout_followers, swath_m, kind) = match *config {
            ConstellationConfig::LowResOnly { satellites } => {
                (satellites, 0, low_res, PassKind::Swath)
            }
            ConstellationConfig::HighResOnly { satellites } => {
                (satellites, 0, spec.high_res.swath_m(), PassKind::Swath)
            }
            ConstellationConfig::EagleEye {
                groups,
                followers_per_group,
                scheduler,
                clustering,
            } => (
                groups,
                followers_per_group,
                low_res,
                leader(followers_per_group, scheduler, clustering, None),
            ),
            ConstellationConfig::MixCamera {
                satellites,
                compute_time_s,
            } => (
                satellites,
                0,
                low_res,
                leader(
                    1,
                    SchedulerKind::Ilp,
                    ClusteringMethod::Ilp,
                    Some(compute_time_s),
                ),
            ),
        };
        let idle = matches!(kind, PassKind::Leader(LeaderRun { followers: 0, .. }));
        if groups == 0 || self.targets.is_empty() || idle {
            return Ok(None);
        }
        let layout = self.layout_for(groups, layout_followers)?;
        let grid = EpochGrid::for_horizon(0.0, o.duration_s, spec.frame_cadence_s);
        let sats: Vec<_> = layout
            .satellites()
            .iter()
            .filter(|s| matches!(kind, PassKind::Swath) || s.role == SatelliteRole::Leader)
            .copied()
            .collect();
        let hash = self.scenario_hash(config);
        let compiled = self.compile.scenario(hash, sats.len());
        Ok(Some(Scenario {
            kind,
            hash,
            layout,
            grid,
            sats,
            geom: CompileGeometry::frame_box(spec, swath_m),
            compiled,
        }))
    }

    /// An empty report over this evaluator's workload.
    fn base_report(&self) -> CoverageReport {
        CoverageReport {
            total: self.targets.len(),
            total_value: self.targets.total_value(),
            ..Default::default()
        }
    }

    /// Compiled-program reuse state goes to gauges only: counters and
    /// histograms must stay bit-identical between warm and cold
    /// evaluations, and "how much was reused" legitimately differs
    /// (same contract as the `harden/*` gauges, DESIGN.md §10/§13).
    fn record_compile_gauges(&self) {
        let m = &self.options.metrics;
        if !m.is_enabled() {
            return;
        }
        let s = self.compile.stats();
        m.gauge_max("core/compile/track_builds", s.track_builds as f64);
        m.gauge_max("core/compile/track_reuses", s.track_reuses as f64);
        m.gauge_max("core/compile/track_shares", s.track_shares as f64);
        m.gauge_max("core/compile/memo_hits", s.memo_hits as f64);
        m.gauge_max("core/compile/memo_misses", s.memo_misses as f64);
    }

    /// Pool digest of one satellite's compiled track: the orbital
    /// elements, grid, membership geometry, sensing spec, and workload
    /// that determine its states/intervals/coefficients, plus the
    /// scheduler label that keeps memoized horizon solves from
    /// crossing solver identities. Options that flow entirely through
    /// the per-frame memo key ([`FrameInputs::key`]: recall, seed,
    /// fault plan, task caps, recapture scaling, clustering method)
    /// are deliberately excluded — that is what lets a what-if fork
    /// share tracks across those edits.
    fn track_digest(&self, sat: &SatelliteSpec, geom: &CompileGeometry, sched_label: &str) -> u64 {
        let CoverageOptions {
            spec,
            duration_s,
            inclination_rad,
            // Flow through the per-frame memo key (detected points and
            // their values, task cap), never through the compiled track.
            recall: _,
            seed: _,
            max_tasks_per_frame: _,
            recapture_penalty: _,
            // Fault what-ifs share tracks by design: follower sets,
            // outage onsets and derates are bound per frame by the
            // frame memo key.
            fault_plan: _,
            degraded_mode: _,
            // Bound through the satellite's orbital elements, which
            // `sat` carries.
            orbital_planes: _,
            layout_slots: _,
            // Execution shape and observability: compiled tracks are
            // bit-identical across them (DESIGN.md §8/§10/§13).
            threads: _,
            metrics: _,
        } = &self.options;
        let CompileGeometry {
            bound_m,
            half_cross_m,
            half_along_m,
        } = *geom;
        ScenarioHasher::new()
            .str("eagleeye-core/track/v2")
            .field(sat)
            .field(spec)
            .f64(*duration_s)
            .f64(*inclination_rad)
            .f64(bound_m)
            .f64(half_cross_m)
            .f64(half_along_m)
            .str(sched_label)
            .u64(self.targets.len() as u64)
            .f64(self.targets.total_value())
            .finish()
    }

    /// Builds the constellation layout for this evaluator's options:
    /// slot-pinned when [`CoverageOptions::layout_slots`] is set,
    /// legacy even phasing otherwise.
    fn layout_for(
        &self,
        groups: usize,
        followers_per_group: usize,
    ) -> Result<ConstellationLayout, CoreError> {
        let planes = self.options.orbital_planes.max(1);
        let layout = match self.options.layout_slots {
            Some(slots) => ConstellationLayout::with_planes_slotted(
                groups,
                followers_per_group,
                self.options.spec.altitude_m,
                self.options.inclination_rad,
                planes,
                slots,
            ),
            None => ConstellationLayout::with_planes(
                groups,
                followers_per_group,
                self.options.spec.altitude_m,
                self.options.inclination_rad,
                planes,
            ),
        };
        Ok(layout?)
    }

    /// A stable, process-independent fingerprint of everything that
    /// determines this evaluation's result: the constellation
    /// configuration, the sensing/fault/scheduling options, and the
    /// workload. Checkpoints are bound to this hash so a `--resume`
    /// against a different scenario is rejected instead of silently
    /// merging incompatible partials.
    ///
    /// Every field is hashed field-wise (never through a `Debug`
    /// string), so the hash moves only when the scenario does.
    pub fn scenario_hash(&self, config: &ConstellationConfig) -> u64 {
        let CoverageOptions {
            spec,
            duration_s,
            inclination_rad,
            recall,
            seed,
            max_tasks_per_frame,
            recapture_penalty,
            orbital_planes,
            layout_slots,
            fault_plan,
            degraded_mode,
            // Execution shape and observability: the report is
            // identical at any thread count, so resuming under a
            // different pool size or sink must stay legal.
            threads: _,
            metrics: _,
        } = &self.options;
        ScenarioHasher::new()
            .str("eagleeye-core/coverage/v3")
            .field(config)
            .field(spec)
            .f64(*duration_s)
            .f64(*inclination_rad)
            .f64(*recall)
            .u64(*seed)
            .field(max_tasks_per_frame)
            .field(recapture_penalty)
            .field(orbital_planes)
            .field(layout_slots)
            .field(fault_plan)
            .field(degraded_mode)
            .u64(self.targets.len() as u64)
            .f64(self.targets.total_value())
            .finish()
    }

    /// Evaluates one constellation configuration under the crash-safe
    /// run layer: its per-satellite passes (one per leader group, or
    /// one per swath satellite) run through
    /// [`eagleeye_exec::run_items`], so panicking passes are retried
    /// and then fail the evaluation, partial results are checkpointed
    /// on a cadence and restored on resume, and a wall-clock deadline
    /// or shutdown request degrades the run into a valid partial report
    /// ([`CoverageReport::degraded`] = `true`) instead of aborting.
    ///
    /// [`evaluate`](Self::evaluate) is this call with inert
    /// [`HardenOptions`]. Without faults, checkpointed, resumed and
    /// uninterrupted runs report bit-identically (modulo the wall-clock
    /// timers exempted by [`CoverageReport::same_outcome`]) at any
    /// thread count, and record identical counters and histograms;
    /// run-layer state (`harden/*`) is recorded as gauges only.
    ///
    /// # Errors
    ///
    /// Everything [`evaluate`](Self::evaluate) returns, plus
    /// [`CoreError::Harden`] for checkpoint I/O or validation failures
    /// and for resumed passes that had failed (errors are checkpointed
    /// and replayed deterministically on resume).
    pub fn evaluate_hardened(
        &self,
        config: &ConstellationConfig,
        harden: &HardenOptions,
    ) -> Result<HardenedOutcome, CoreError> {
        let scenario = self.scenario(config)?;
        let m = &self.options.metrics;
        let _span = m.span("core/evaluate");
        let mut out = HardenedOutcome {
            report: self.base_report(),
            resumed_passes: 0,
            degrade_reason: None,
        };
        if let Some(sc) = scenario {
            let run = RunConfig {
                scenario_hash: sc.hash,
                threads: self.options.threads,
                checkpoint: harden.checkpoint.clone(),
                deadline: harden.deadline,
                shutdown: harden.shutdown.clone(),
                retry: harden.retry,
            };
            let targets = self.targets.len();
            // Each pass records into its own metrics fork; the forks
            // travel inside checkpoint payloads, so resumed runs replay
            // them exactly.
            let outcome = run_items(
                &run,
                sc.sats.len(),
                |i| {
                    let fork = m.fork();
                    let (part, captured) = self.pass(&sc, i, &fork)?;
                    Ok((part, captured, fork))
                },
                |pass| encode_pass(pass, targets),
                |i, bytes| decode_pass(i, bytes, targets, m),
            )
            .map_err(|e| CoreError::Harden {
                message: e.to_string(),
            })?;
            out.resumed_passes = outcome.resumed_items;
            out.degrade_reason = outcome.degrade_reason;
            let passes = outcome.into_completed(|q| CoreError::Harden {
                message: format!(
                    "pass {} quarantined after {} attempts: {}",
                    q.item, q.attempts, q.message
                ),
            })?;
            out.report = self.merge_passes(passes, sc.sats.len());
        }

        // Run-layer state goes to gauges only: counters and histograms
        // must stay bit-identical between a resumed and an
        // uninterrupted run, and "how the work got done" legitimately
        // differs between the two (see DESIGN.md §10 and §12).
        let report = &out.report;
        m.gauge_max(
            "harden/leader_passes_total",
            report.leader_passes_total as f64,
        );
        m.gauge_max(
            "harden/leader_passes_completed",
            report.leader_passes_completed as f64,
        );
        m.gauge_max(
            "harden/completion/leader_pass",
            report.completion_fraction(),
        );
        m.gauge_max("harden/resumed_passes", out.resumed_passes as f64);
        m.gauge_max("harden/degraded", f64::from(u8::from(report.degraded)));
        report.record_metrics(m);
        self.record_compile_gauges();
        Ok(out)
    }

    /// Merges passes in pass order: absorbs each partial report and
    /// metrics fork, marks the targets the pass captured, and finalizes
    /// the captured totals and pass counts. A run of `total` passes that
    /// merges fewer is degraded.
    fn merge_passes(&self, passes: Vec<Pass>, total: usize) -> CoverageReport {
        let mut report = self.base_report();
        let mut captured = TargetBits::new(self.targets.len());
        report.leader_passes_completed = passes.len();
        report.leader_passes_total = total;
        report.degraded = passes.len() < total;
        for (part, pass_captures, metrics) in passes {
            self.options.metrics.absorb(&metrics);
            report.absorb(part);
            for idx in pass_captures {
                captured.insert(idx);
            }
        }
        report.captured = captured.count();
        // Summed in ascending target order; an empty sum is -0.0.
        report.captured_value = captured.iter().map(|i| self.targets.target(i).value).sum();
        report
    }

    /// Pass `i` of `sc`: compiles or reuses its satellite's track, then
    /// reads swath coverage off it or runs the leader's frame loop.
    /// Returns the pass's partial report and the targets it captured.
    fn pass(
        &self,
        sc: &Scenario,
        i: usize,
        metrics: &Metrics,
    ) -> Result<(CoverageReport, Vec<usize>), CoreError> {
        let run = match sc.kind {
            PassKind::Leader(run) => run,
            PassKind::Swath => {
                let mut report = CoverageReport::default();
                let track = self.track(sc, i, metrics, &mut report)?;
                report.frames_processed = track.states.len();
                // Every interval's target was in frame. A target with
                // several access windows is listed once per window; the
                // merge's capture marking is idempotent.
                let captured = track.intervals.target.iter().map(|&t| t as usize);
                return Ok((report, captured.collect()));
            }
        };
        self.leader_pass(sc, &run, i, metrics)
    }

    /// Pass `i`'s compiled track, compiling it on first use: batch
    /// propagation plus the membership sweep of the scenario's frame box
    /// over every frame, as one range (DESIGN.md §13.3). Propagation
    /// counters are recorded into `metrics` and propagation wall time
    /// into `report`; a reused or shared track records neither (the
    /// work did not happen).
    fn track(
        &self,
        sc: &Scenario,
        i: usize,
        metrics: &Metrics,
        report: &mut CoverageReport,
    ) -> Result<Arc<CompiledTrack>, CoreError> {
        if let Some(track) = sc.compiled.track(i) {
            self.compile.note_reuse();
            return Ok(track);
        }
        let sat = &sc.sats[i];
        let digest = self.track_digest(sat, &sc.geom, sc.kind.label());
        if let Some(track) = self.compile.pool_get(digest) {
            // Adopted from a sibling scenario's compile (what-if fork):
            // no propagation happened here, so no counters are recorded.
            self.compile.note_share();
            return Ok(sc.compiled.store(i, track));
        }
        let sw = Stopwatch::start();
        let states = sc
            .grid
            .propagate_observed(&sc.layout.ground_track(sat)?, metrics)?;
        report.propagate_time += sw.elapsed();
        let track = CompiledTrack::compile(states, sc.grid.epochs(), self.targets, &sc.geom)?;
        self.compile.note_build();
        let track = self.compile.pool_put(digest, Arc::new(track));
        Ok(sc.compiled.store(i, track))
    }

    /// Leader `leader_idx`'s full pass over the horizon: detection,
    /// clustering, follower scheduling, and capture execution. Returns
    /// the pass's partial report and the targets its group captured,
    /// in capture order. Recapture deprioritization reads only these
    /// captures: the pass starts from an empty captured set.
    fn leader_pass(
        &self,
        sc: &Scenario,
        run: &LeaderRun,
        leader_idx: usize,
        metrics: &Metrics,
    ) -> Result<(CoverageReport, Vec<usize>), CoreError> {
        let grid = &sc.grid;
        let n_followers = run.followers;
        let mut report = CoverageReport::with_frame_capacity(grid.len());
        let spec = self.options.spec;
        let is_mix = run.mix_compute_s.is_some();
        let scheduler = match run.scheduler {
            SchedulerKind::Ilp => ActiveScheduler::Ilp(IlpScheduler::default()),
            SchedulerKind::Greedy => ActiveScheduler::Plain(Box::new(GreedyScheduler)),
            SchedulerKind::Abb => {
                ActiveScheduler::Plain(Box::new(AbbScheduler::with_frame_deadline()))
            }
            SchedulerKind::Resilient => ActiveScheduler::Resilient(ResilientScheduler::default()),
        };
        let fault_plan = self.options.fault_plan.as_deref();
        let fault_aware = self.options.degraded_mode == DegradedMode::Resilient;

        let high_swath = spec.high_res.swath_m();
        let v = spec.ground_speed_m_s;
        let return_slew_s = spec.adacs.min_slew_time_s(spec.theta_max_rad);

        // Compile or reuse this leader's track: batch propagation plus
        // the access-interval membership sweep, cached per
        // configuration (DESIGN.md §13).
        let track = self.track(sc, leader_idx, metrics, &mut report)?;
        let mut sweep = IntervalSweep::new(&track);
        // Per-frame detection timing costs two clock reads per frame,
        // so it only runs under enabled metrics (the report field stays
        // zero otherwise; timers are exempt from `same_outcome`).
        let time_detection = metrics.is_enabled();

        // Follower runtime state carried across frames.
        let trails: Vec<f64> = (0..n_followers)
            .map(|k| {
                if is_mix {
                    0.0
                } else {
                    ConstellationLayout::DEFAULT_LEAD_DISTANCE_M
                        + k as f64 * ConstellationLayout::DEFAULT_FOLLOWER_SPACING_M
                }
            })
            .collect();
        let mut avail: Vec<f64> = vec![0.0; n_followers];
        let mut pointing: Vec<(f64, f64)> = vec![(0.0, 0.0); n_followers];

        // Per-frame scratch, hoisted out of the loop and cleared each
        // frame instead of reallocated — sized to the compiled track's
        // peak per-frame membership so no frame ever regrows them.
        let peak = track.peak_frame_entries;
        let mut in_frame: Vec<(usize, f64, f64)> = Vec::with_capacity(peak);
        let mut detected: Vec<(usize, f64, f64)> = Vec::with_capacity(peak);
        let mut points: Vec<(GroundPoint, f64)> = Vec::with_capacity(peak);
        let mut active: Vec<usize> = Vec::with_capacity(n_followers);
        let mut follower_states: Vec<FollowerState> = Vec::with_capacity(n_followers);
        let mut repair_failures: Vec<(usize, f64)> = Vec::with_capacity(n_followers);
        // The group's captures, as a bitset for the recapture lookups
        // and as a list the merge reads without scanning the workload.
        let mut captured = TargetBits::new(self.targets.len());
        let mut group_captures = Vec::new();

        for (frame_idx, state) in track.states.iter().enumerate() {
            let t = grid.epochs()[frame_idx];
            let frame_id = frame_idx as u64;
            report.frames_processed += 1;
            if let Some(p) = fault_plan {
                p.record_frame_activity(t, metrics);
            }

            let leader_out = fault_plan.map(|p| p.leader_out(t)).unwrap_or(false);
            if leader_out {
                report.frames_leader_down += 1;
            }

            // Targets inside the low-resolution frame, swept from the
            // compiled interval events (O(targets in view), no spatial
            // query).
            sweep.advance(frame_idx as u32, &mut in_frame);
            if in_frame.is_empty() {
                continue;
            }
            report.frames_with_targets += 1;

            if leader_out {
                // §4.7 fallback: followers capture nadir high-res.
                for &(idx, x, _) in &in_frame {
                    if x.abs() <= high_swath / 2.0 && captured.insert(idx) {
                        group_captures.push(idx);
                    }
                }
                continue;
            }

            // A battery brownout inhibits all follower capture; a
            // fully derated radio cannot uplink any tasks. Either
            // way the frame produces no scheduled captures.
            let radio_factor = fault_plan
                .map(|p| p.radio_capacity_factor(t))
                .unwrap_or(1.0);
            let task_cap =
                ((self.options.max_tasks_per_frame as f64) * radio_factor).floor() as usize;
            if fault_plan.map(|p| p.brownout(t)).unwrap_or(false) || task_cap == 0 {
                continue;
            }

            // Onboard detection with the recall model, plus any
            // active detector-dropout fault (extra, independently
            // rolled false negatives).
            let det_sw = time_detection.then(Stopwatch::start);
            detected.clear();
            detected.extend(in_frame.iter().copied().filter(|&(idx, _, _)| {
                detection_roll(self.options.seed, idx as u64, frame_id) < self.options.recall
                    && !fault_plan
                        .map(|p| p.detector_drops(idx as u64, frame_id, t))
                        .unwrap_or(false)
            }));
            if let Some(sw) = det_sw {
                report.detect_time += sw.elapsed();
            }
            report.per_frame_target_counts.push(detected.len());
            if detected.is_empty() {
                continue;
            }

            // Clustering inputs (§4.1), with optional recapture
            // deprioritization (§4.7 extension): already-captured
            // targets get their priority scaled down so followers
            // favor new ones.
            points.clear();
            points.extend(detected.iter().map(|&(idx, x, y)| {
                let mut value = self.targets.target(idx).value;
                if let Some(p) = self.options.recapture_penalty {
                    if captured.contains(idx) {
                        value *= p;
                    }
                }
                (GroundPoint::new(x, y), value)
            }));

            // Follower set-up. None of it depends on the clusters, so
            // it runs ahead of the memo lookup and a replayed frame
            // never clusters.
            // A fault-aware leader excludes followers it knows to be
            // out; a naive one keeps tasking them and loses those
            // captures at execution time.
            active.clear();
            active.extend((0..n_followers).filter(|&k| {
                !(fault_aware && fault_plan.map(|p| p.follower_out(k, t)).unwrap_or(false))
            }));
            if active.is_empty() {
                // Nobody to task, but the frame still counts its
                // clusters.
                let n = cluster_frame(&points, high_swath, run.clustering, &mut report)?.len();
                report.per_frame_cluster_counts.push(n);
                continue;
            }
            follower_states.clear();
            follower_states.extend(active.iter().map(|&k| FollowerState {
                along_at_0_m: -trails[k],
                available_from_s: avail[k],
                pointing_offset: pointing[k],
            }));

            let slew_factor = fault_plan
                .map(|p| p.slew_rate_factor(t))
                .unwrap_or(1.0)
                .clamp(0.01, 1.0);
            let clip = run.mix_compute_s.map(|d| TimeWindow {
                start_s: t + d,
                end_s: t + spec.frame_cadence_s - return_slew_s,
            });
            // Mid-horizon outage onsets the repair pass acts on. They
            // are part of the frame key: two scenarios whose fault
            // plans differ only mid-frame would otherwise share a key
            // and replay the wrong (un-repaired) frame.
            repair_failures.clear();
            if let (true, Some(p), ActiveScheduler::Resilient(_)) =
                (fault_aware, fault_plan, &scheduler)
            {
                repair_failures.extend(active.iter().enumerate().filter_map(|(slot, &k)| {
                    p.follower_outage_onset(k, t, t + spec.frame_cadence_s)
                        .map(|onset| (slot, onset))
                }));
            }
            let inputs = FrameInputs {
                frame_idx,
                t,
                points: &points,
                footprint_m: high_swath,
                clustering: run.clustering,
                task_cap,
                slew_factor,
                clip,
                active: &active,
                follower_states: &follower_states,
                repair_failures: &repair_failures,
            };
            // The track memoizes every solved frame under the key of its
            // inputs, so a warm evaluation replays the recorded frame
            // instead of clustering and solving it again. Any input
            // divergence — fault modifiers, recapture-scaled values,
            // drifted follower state — changes the key and forces a
            // live solve.
            let key = inputs.key();
            let solved = match track.solved_get(key) {
                Some(hit) => {
                    self.compile.note_memo_hit();
                    hit
                }
                None => {
                    self.compile.note_memo_miss();
                    let solved = Arc::new(self.solve_frame(&scheduler, &inputs, &mut report)?);
                    track.solved_put(key, Arc::clone(&solved));
                    solved
                }
            };
            record_solved(&mut report, &solved);

            // Execute captures: mark every target inside each
            // captured footprint (including undetected ones — the
            // serendipity effect behind Fig. 15).
            let frame = LocalFrame::new(state.subsatellite.with_altitude(0.0)?, state.heading_rad);
            let along_origin = v * t;
            for cap in &solved.captures {
                let k = active[cap.slot];
                // A capture commanded to a follower that is out of
                // service at capture time never happens.
                if fault_plan
                    .map(|p| p.follower_out(k, cap.time_s))
                    .unwrap_or(false)
                {
                    report.captures_lost_to_faults += 1;
                    continue;
                }
                let (cx, cy_abs) = cap.centre;
                for &(idx, _, _) in &in_frame {
                    if captured.contains(idx) {
                        continue;
                    }
                    // Re-evaluate the target position at capture time
                    // (moving targets may have drifted).
                    let p = self.targets.target(idx).position_at(cap.time_s);
                    let (x2, y2) = frame.project(&p);
                    let y2_abs = along_origin + y2;
                    if (x2 - cx).abs() <= high_swath / 2.0
                        && (y2_abs - cy_abs).abs() <= high_swath / 2.0
                    {
                        captured.insert(idx);
                        group_captures.push(idx);
                    }
                }
                report.captures_commanded += 1;
                avail[k] = cap.time_s;
                pointing[k] = cap.offset;
            }
        }
        Ok((report, group_captures))
    }

    /// Clusters, schedules and (under mid-frame outages) repairs one
    /// frame live, building only from `frame` and the track-bound
    /// options, and returns the entry that execution and any later
    /// replay read. Adds clustering and scheduler time to `report`;
    /// the counters are applied from the entry by [`record_solved`].
    fn solve_frame(
        &self,
        scheduler: &ActiveScheduler,
        frame: &FrameInputs<'_>,
        report: &mut CoverageReport,
    ) -> Result<SolvedHorizon, CoreError> {
        let spec = self.options.spec;
        let mut clusters =
            cluster_frame(frame.points, frame.footprint_m, frame.clustering, report)?;
        let n_clusters = clusters.len();
        // Keep the most valuable clusters up to the cap (shrunk
        // further when a radio-derate fault limits task uplink).
        if clusters.len() > frame.task_cap {
            clusters.sort_by(|a, b| b.value.total_cmp(&a.value));
            clusters.truncate(frame.task_cap);
        }

        // Build the scheduling problem in absolute along-track
        // coordinates so follower state carries across frames.
        let along_origin = spec.ground_speed_m_s * frame.t;
        let tasks: Vec<TaskSpec> = clusters
            .iter()
            .map(|c| TaskSpec::new(c.center.cross_m, along_origin + c.center.along_m, c.value))
            .collect();
        // An active slew-derate fault slows every follower's reaction
        // wheels for this horizon.
        let frame_spec = if frame.slew_factor < 1.0 {
            spec.with_adacs(Adacs::new(
                spec.adacs.rate_rad_s().to_degrees() * frame.slew_factor,
                spec.adacs.overhead_s(),
            )?)
        } else {
            spec
        };
        let problem = SchedulingProblem::new_with_clip(
            frame_spec,
            tasks,
            frame.follower_states.to_vec(),
            frame.clip,
        )?;

        let mut solved = SolvedHorizon {
            clusters: n_clusters,
            captures: Vec::new(),
            ilp_stats: None,
            outcome: SolvedOutcome::Plain,
            repairs_attempted: 0,
            dropped_tasks: 0,
            reassigned_tasks: 0,
        };
        let sched_sw = Stopwatch::start();
        let mut schedule = match scheduler {
            ActiveScheduler::Plain(s) => s.schedule(&problem)?,
            ActiveScheduler::Ilp(s) => {
                let (schedule, stats) = s.schedule_with_stats(&problem)?;
                solved.ilp_stats = Some(stats);
                schedule
            }
            ActiveScheduler::Resilient(rs) => {
                let outcome = rs.schedule_with_outcome(&problem)?;
                solved.ilp_stats = outcome.ilp_stats;
                solved.outcome = match outcome.solver {
                    SolverChoice::Ilp => SolvedOutcome::IlpHorizon,
                    SolverChoice::Greedy => SolvedOutcome::GreedyFallback {
                        deadline: matches!(outcome.fallback, Some(FallbackReason::Deadline)),
                    },
                };
                outcome.schedule
            }
        };
        report.scheduler_time += sched_sw.elapsed();

        // Mid-horizon follower failures: a fault-aware leader running
        // the resilient scheduler truncates the failed follower's plan
        // at the outage onset and re-plans the dropped tasks onto the
        // survivors.
        if let ActiveScheduler::Resilient(rs) = scheduler {
            if !frame.repair_failures.is_empty() {
                let repaired = rs.repair(&problem, &schedule, frame.repair_failures)?;
                solved.repairs_attempted = frame.repair_failures.len();
                solved.dropped_tasks = repaired.dropped_tasks;
                solved.reassigned_tasks = repaired.reassigned_tasks;
                schedule = repaired.schedule;
            }
        }

        solved.captures = Vec::with_capacity(schedule.sequences.iter().map(Vec::len).sum());
        for (slot, seq) in schedule.sequences.iter().enumerate() {
            for cap in seq {
                let c = &clusters[cap.task];
                solved.captures.push(ReplayCapture {
                    slot,
                    time_s: cap.time_s,
                    centre: (c.center.cross_m, along_origin + c.center.along_m),
                    offset: problem.capture_offset(slot, cap.task, cap.time_s),
                });
            }
        }
        Ok(solved)
    }
}

/// A leader's horizon scheduler. The ILP and resilient schedulers are
/// held concretely (not behind the trait object) so per-horizon solver
/// diagnostics, outcomes, and repairs can be recorded in the report.
enum ActiveScheduler {
    Plain(Box<dyn Scheduler>),
    Ilp(IlpScheduler),
    Resilient(ResilientScheduler),
}

/// Clusters one frame's detected points into high-res footprints
/// (§4.1), adding the time taken to `report`.
fn cluster_frame(
    points: &[(GroundPoint, f64)],
    footprint_m: f64,
    method: ClusteringMethod,
    report: &mut CoverageReport,
) -> Result<Vec<Cluster>, CoreError> {
    let sw = Stopwatch::start();
    let clusters = cluster(points, footprint_m, footprint_m, method)?;
    report.clustering_time += sw.elapsed();
    Ok(clusters)
}

/// Applies a solved frame's report counters, identically for a live
/// solve and a replay.
fn record_solved(report: &mut CoverageReport, solved: &SolvedHorizon) {
    report.per_frame_cluster_counts.push(solved.clusters);
    report.scheduler_calls += 1;
    if let Some(stats) = solved.ilp_stats.as_ref() {
        report.add_ilp_stats(stats);
    }
    match solved.outcome {
        SolvedOutcome::Plain => {}
        SolvedOutcome::IlpHorizon => report.ilp_horizons += 1,
        SolvedOutcome::GreedyFallback { deadline } => {
            report.greedy_fallbacks += 1;
            if deadline {
                report.deadline_fallbacks += 1;
            }
        }
    }
    report.repairs_attempted += solved.repairs_attempted;
    report.tasks_dropped_by_failures += solved.dropped_tasks;
    report.tasks_reassigned += solved.reassigned_tasks;
}

/// Deterministic detection roll in `[0, 1)` from (seed, target, frame).
fn detection_roll(seed: u64, target: u64, frame: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(target.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
        .wrapping_add(frame.wrapping_mul(0x1656_67b1_9e37_79f9));
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Camera;
    use eagleeye_datasets::{Target, TargetSet};
    use eagleeye_geo::GeodeticPoint;
    use eagleeye_sim::FaultKind;

    /// A compact workload of targets strung along the prime meridian —
    /// directly under the first orbit of a polar satellite with RAAN 0.
    fn meridian_targets(n: usize) -> TargetSet {
        (0..n)
            .map(|i| {
                let lat = -40.0 + 80.0 * i as f64 / n as f64;
                Target::fixed(
                    GeodeticPoint::from_degrees(lat, 0.35 * (i % 5) as f64, 0.0).unwrap(),
                    1.0,
                )
            })
            .collect()
    }

    fn quick_options() -> CoverageOptions {
        CoverageOptions {
            duration_s: 1_800.0,
            ..CoverageOptions::default()
        }
    }

    /// Targets of mixed value at 80–83° N, where the orbit turns: on
    /// their second orbit the groups revisit targets they captured on
    /// the first, so recapture deprioritization changes their task
    /// values and the report.
    fn polar_targets(n: usize) -> TargetSet {
        (0..n)
            .map(|i| {
                let lat = 80.0 + 3.0 * (i as f64 * 0.618_033_988_75).fract();
                let lon = 360.0 * (i as f64 * 0.414_213_562_37).fract() - 180.0;
                Target::fixed(
                    GeodeticPoint::from_degrees(lat, lon, 0.0).unwrap(),
                    1.0 + (i % 3) as f64,
                )
            })
            .collect()
    }

    /// Two orbits over [`polar_targets`] with recapture
    /// deprioritization on.
    fn recapture_options() -> CoverageOptions {
        CoverageOptions {
            duration_s: 3.0 * 3_600.0,
            recapture_penalty: Some(0.3),
            ..CoverageOptions::default()
        }
    }

    #[test]
    fn multithreaded_evaluation_is_deterministic() {
        // The full gauntlet: imperfect recall (stochastic detection),
        // an active fault plan, resilient scheduling, and several
        // leader groups — everything that could plausibly diverge under
        // parallel execution — with and without recapture
        // deprioritization. The report must be identical (modulo
        // wall-clock timing) at every thread count.
        let config = ConstellationConfig::EagleEye {
            groups: 3,
            followers_per_group: 2,
            scheduler: SchedulerKind::Resilient,
            clustering: ClusteringMethod::Ilp,
        };
        let plan = Arc::new(FaultPlan::new(11).with_fault(
            eagleeye_sim::FaultKind::FollowerOutage { follower: 1 },
            600.0,
            f64::INFINITY,
        ));
        for (targets, base) in [
            (meridian_targets(80), quick_options()),
            (polar_targets(400), recapture_options()),
        ] {
            let report_at = |threads: usize| {
                let mut opts = base.clone();
                opts.recall = 0.8;
                opts.fault_plan = Some(plan.clone());
                opts.degraded_mode = DegradedMode::Resilient;
                opts.threads = threads;
                CoverageEvaluator::new(&targets, opts)
                    .evaluate(&config)
                    .unwrap()
            };
            let sequential = report_at(1);
            assert!(sequential.captured > 0, "workload must exercise captures");
            for threads in [2, 4, 8] {
                let parallel = report_at(threads);
                assert!(
                    sequential.same_outcome(&parallel),
                    "{:?} threads={threads} diverged:\n  seq: {sequential:?}\n  par: {parallel:?}",
                    base.recapture_penalty
                );
            }
        }
    }

    #[test]
    fn recapture_reads_only_the_groups_own_captures() {
        // A leader commands only its own followers, so the captures it
        // causally knows of are its own group's. A recapture run must
        // therefore equal the leader-order merge of independent leader
        // passes. In this scenario (eight airplane-tracking groups, one
        // hour) a bitmap shared across leaders changes the report: 24
        // targets captured, not 23.
        let duration_s = 3600.0;
        let targets =
            eagleeye_datasets::Workload::AirplaneTracking.generate_scaled(0.1, duration_s, 7);
        let config = ConstellationConfig::eagleeye(8, 1);
        let opts = CoverageOptions {
            duration_s,
            recapture_penalty: Some(0.0),
            ..CoverageOptions::default()
        };

        let eval = CoverageEvaluator::new(&targets, opts.clone());
        let sc = eval.scenario(&config).unwrap().unwrap();
        assert!(matches!(sc.kind, PassKind::Leader(_)));
        let passes = (0..sc.sats.len())
            .map(|i| {
                let (part, captured) = eval.pass(&sc, i, &opts.metrics).unwrap();
                (part, captured, Metrics::disabled())
            })
            .collect();
        let merged = eval.merge_passes(passes, sc.sats.len());
        assert!(merged.captured > 0, "workload must exercise captures");

        for threads in [1, 4] {
            let report = CoverageEvaluator::new(
                &targets,
                CoverageOptions {
                    threads,
                    ..opts.clone()
                },
            )
            .evaluate(&config)
            .unwrap();
            assert!(
                report.same_outcome(&merged),
                "threads={threads}:\n  report: {report:?}\n  passes: {merged:?}"
            );
        }
    }

    #[test]
    fn metrics_counters_are_deterministic_across_threads() {
        // Counters and histograms recorded under enabled metrics must
        // be bit-identical at every thread count. Gauges and timers are
        // exempt by contract (DESIGN.md §10).
        let targets = meridian_targets(80);
        let config = ConstellationConfig::EagleEye {
            groups: 3,
            followers_per_group: 2,
            scheduler: SchedulerKind::Resilient,
            clustering: ClusteringMethod::Ilp,
        };
        let plan = Arc::new(FaultPlan::new(11).with_fault(
            eagleeye_sim::FaultKind::FollowerOutage { follower: 1 },
            600.0,
            f64::INFINITY,
        ));
        let snapshot_at = |threads: usize| {
            let mut opts = quick_options();
            opts.recall = 0.8;
            opts.fault_plan = Some(plan.clone());
            opts.degraded_mode = DegradedMode::Resilient;
            opts.threads = threads;
            opts.metrics = Metrics::enabled();
            let metrics = opts.metrics.clone();
            CoverageEvaluator::new(&targets, opts)
                .evaluate(&config)
                .unwrap();
            metrics.snapshot()
        };
        let seq = snapshot_at(1);
        assert!(seq.counter("core/frames_processed") > 0);
        assert!(seq.counter("core/evaluations") == 1);
        assert!(seq.counter("orbit/propagation_calls") > 0);
        assert!(seq.counter("orbit/trig_hits") > 0);
        assert!(seq.counter("ilp/nodes_explored") > 0);
        assert!(seq.counter("sim/fault_active_frames") > 0);
        assert!(seq.histogram("core/frame_targets").is_some());
        for threads in [2, 4] {
            let par = snapshot_at(threads);
            assert_eq!(
                all_counters(&seq),
                all_counters(&par),
                "threads={threads} diverged"
            );
            assert_eq!(
                seq.histograms()
                    .map(|(k, h)| (k.to_string(), h.clone()))
                    .collect::<Vec<_>>(),
                par.histograms()
                    .map(|(k, h)| (k.to_string(), h.clone()))
                    .collect::<Vec<_>>(),
                "threads={threads} histograms diverged"
            );
        }
    }

    #[test]
    fn ilp_scheduler_reports_solver_diagnostics() {
        let targets = meridian_targets(60);
        let eval = CoverageEvaluator::new(&targets, quick_options());
        let r = eval.evaluate(&ConstellationConfig::eagleeye(1, 1)).unwrap();
        assert!(r.ilp_subproblems > 0, "the default scheduler is the ILP");
        assert!(r.ilp_nodes_explored >= r.ilp_subproblems);
        assert!(r.ilp_lp_pivots <= r.ilp_lp_iterations);
        assert!(r.ilp_incumbent_updates > 0);
    }

    #[test]
    fn swath_membership_is_deterministic_across_threads() {
        let targets = meridian_targets(50);
        let report_at = |threads: usize| {
            let mut opts = quick_options();
            opts.threads = threads;
            CoverageEvaluator::new(&targets, opts)
                .evaluate(&ConstellationConfig::LowResOnly { satellites: 5 })
                .unwrap()
        };
        let sequential = report_at(1);
        assert!(sequential.captured > 0);
        assert!(sequential.same_outcome(&report_at(4)));
    }

    fn temp_ckpt(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eagleeye_core_harden_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn all_counters(snap: &eagleeye_obs::MetricsRegistry) -> Vec<(String, u64)> {
        snap.counters().map(|(k, v)| (k.to_string(), v)).collect()
    }

    fn all_histograms(
        snap: &eagleeye_obs::MetricsRegistry,
    ) -> Vec<(String, eagleeye_obs::Histogram)> {
        snap.histograms()
            .map(|(k, h)| (k.to_string(), h.clone()))
            .collect()
    }

    #[test]
    fn hardened_evaluation_matches_plain_at_any_thread_count() {
        // With inert HardenOptions the crash-safe path must be
        // indistinguishable from the plain evaluator: identical report
        // (modulo wall-clock timers) and identical counters and
        // histograms, at 1 and 4 threads. One input per branch of the
        // config decomposition: a resilient EagleEye run under the full
        // gauntlet (imperfect recall, an active fault plan), a
        // Mix-Camera run and a recapture-penalty run decompose into
        // leader passes, a swath config into per-satellite passes.
        let meridian = meridian_targets(80);
        let plan = Arc::new(FaultPlan::new(11).with_fault(
            eagleeye_sim::FaultKind::FollowerOutage { follower: 1 },
            600.0,
            f64::INFINITY,
        ));
        let mut gauntlet = quick_options();
        gauntlet.recall = 0.8;
        gauntlet.fault_plan = Some(plan);
        gauntlet.degraded_mode = DegradedMode::Resilient;
        let cases = [
            (
                &meridian,
                gauntlet,
                ConstellationConfig::EagleEye {
                    groups: 3,
                    followers_per_group: 2,
                    scheduler: SchedulerKind::Resilient,
                    clustering: ClusteringMethod::Ilp,
                },
            ),
            (
                &meridian,
                quick_options(),
                ConstellationConfig::MixCamera {
                    satellites: 3,
                    compute_time_s: 1.4,
                },
            ),
            (
                &meridian,
                quick_options(),
                ConstellationConfig::LowResOnly { satellites: 3 },
            ),
            (
                &polar_targets(400),
                recapture_options(),
                ConstellationConfig::eagleeye(3, 1),
            ),
        ];
        for (targets, opts, config) in cases {
            let run = |threads: usize, hardened: bool| {
                let opts = CoverageOptions {
                    threads,
                    metrics: Metrics::enabled(),
                    ..opts.clone()
                };
                let metrics = opts.metrics.clone();
                let eval = CoverageEvaluator::new(targets, opts);
                let report = if hardened {
                    eval.evaluate_hardened(&config, &HardenOptions::new())
                        .unwrap()
                        .report
                } else {
                    eval.evaluate(&config).unwrap()
                };
                (report, metrics.snapshot())
            };
            let (plain, plain_snap) = run(1, false);
            assert!(plain.captured > 0, "{config:?} must capture");
            assert!(!plain.degraded);
            assert_eq!(plain.leader_passes_completed, plain.leader_passes_total);
            for threads in [1, 4] {
                let (hard, hard_snap) = run(threads, true);
                assert!(
                    plain.same_outcome(&hard),
                    "{config:?} threads={threads} hardened diverged:\n  plain: {plain:?}\n  hard: {hard:?}"
                );
                assert_eq!(
                    all_counters(&plain_snap),
                    all_counters(&hard_snap),
                    "{config:?} threads={threads} counters diverged"
                );
                assert_eq!(
                    all_histograms(&plain_snap),
                    all_histograms(&hard_snap),
                    "{config:?} threads={threads} histograms diverged"
                );
                // Run-layer state is gauges only: completion 1.0, not
                // degraded.
                assert_eq!(hard_snap.gauge("harden/completion/leader_pass"), Some(1.0));
                assert_eq!(hard_snap.gauge("harden/degraded"), Some(0.0));
            }
        }
    }

    /// Both entry points reject `opts` as an invalid `name` before any
    /// work starts, for a swath and a leader-follower configuration.
    fn assert_rejected(opts: CoverageOptions, name: &str) {
        let targets = meridian_targets(10);
        let eval = CoverageEvaluator::new(&targets, opts);
        for config in [
            ConstellationConfig::LowResOnly { satellites: 1 },
            ConstellationConfig::eagleeye(1, 1),
        ] {
            let plain = eval.evaluate(&config).unwrap_err();
            let hardened = eval
                .evaluate_hardened(&config, &HardenOptions::new())
                .unwrap_err();
            for err in [plain, hardened] {
                assert!(
                    matches!(err, CoreError::InvalidParameter { name: n, .. } if n == name),
                    "{config:?}: expected invalid {name}, got {err:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_duration_that_is_negative_or_not_finite() {
        for duration_s in [f64::INFINITY, f64::NAN, -1.0] {
            assert_rejected(
                CoverageOptions {
                    duration_s,
                    ..quick_options()
                },
                "duration_s",
            );
        }
    }

    #[test]
    fn rejects_recall_outside_unit_interval() {
        for recall in [f64::NAN, -0.1, 1.5] {
            assert_rejected(
                CoverageOptions {
                    recall,
                    ..quick_options()
                },
                "recall",
            );
        }
    }

    #[test]
    fn rejects_recapture_penalty_outside_unit_interval() {
        for penalty in [f64::NAN, -0.1, 1.5] {
            assert_rejected(
                CoverageOptions {
                    recapture_penalty: Some(penalty),
                    ..quick_options()
                },
                "recapture_penalty",
            );
        }
    }

    #[test]
    fn rejects_fault_window_that_is_inverted_or_nan() {
        for (start_s, end_s) in [(600.0, 300.0), (f64::NAN, 900.0)] {
            assert_rejected(
                CoverageOptions {
                    fault_plan: Some(Arc::new(FaultPlan::new(1).with_fault(
                        eagleeye_sim::FaultKind::LeaderOutage,
                        start_s,
                        end_s,
                    ))),
                    ..quick_options()
                },
                "fault_window_end_s",
            );
        }
    }

    #[test]
    fn expired_deadline_yields_valid_degraded_report() {
        let targets = meridian_targets(60);
        let config = ConstellationConfig::eagleeye(3, 1);
        let mut opts = quick_options();
        opts.metrics = Metrics::enabled();
        let metrics = opts.metrics.clone();
        let eval = CoverageEvaluator::new(&targets, opts);
        let harden = HardenOptions::new()
            .with_deadline(eagleeye_harden::Deadline::after(std::time::Duration::ZERO));
        let out = eval.evaluate_hardened(&config, &harden).unwrap();
        assert!(out.report.degraded);
        assert_eq!(
            out.degrade_reason,
            Some(eagleeye_exec::DegradeReason::Deadline)
        );
        assert_eq!(out.report.leader_passes_total, 3);
        assert!(out.report.leader_passes_completed < 3);
        assert!(out.report.completion_fraction() < 1.0);
        // The partial report is still internally consistent: workload
        // totals are set and captured never exceeds them.
        assert_eq!(out.report.total, 60);
        assert!(out.report.total_value > 0.0);
        assert!(out.report.captured <= out.report.total);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("harden/degraded"), Some(1.0));
        assert!(snap.gauge("harden/completion/leader_pass").unwrap() < 1.0);
    }

    #[test]
    fn checkpoint_resume_reproduces_uninterrupted_run() {
        // Interrupt a checkpointed evaluation via cooperative shutdown
        // as soon as the first checkpoint lands, then resume it; the
        // final report, counters, and histograms must be bit-identical
        // to a never-interrupted run, with and without recapture
        // deprioritization.
        resume_reproduces_uninterrupted_run(&meridian_targets(80), quick_options());
        resume_reproduces_uninterrupted_run(&polar_targets(400), recapture_options());
    }

    fn resume_reproduces_uninterrupted_run(targets: &TargetSet, base: CoverageOptions) {
        let config = ConstellationConfig::eagleeye(4, 1);
        let make_opts = || {
            let mut opts = base.clone();
            opts.recall = 0.85;
            opts.metrics = Metrics::enabled();
            opts
        };
        let path = temp_ckpt("core_resume.ckpt");
        let _ = std::fs::remove_file(&path);

        // Segment 1: single worker, checkpoint after every pass, shut
        // down once the first checkpoint file appears.
        let opts = make_opts();
        let eval = CoverageEvaluator::new(targets, opts);
        let shutdown = eagleeye_harden::ShutdownFlag::new();
        let watcher = {
            let shutdown = shutdown.clone();
            let path = path.clone();
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    if path.exists() {
                        shutdown.request();
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            })
        };
        let harden1 = HardenOptions {
            checkpoint: Some(eagleeye_harden::CheckpointSpec::new(&path, 1)),
            shutdown,
            ..HardenOptions::default()
        };
        let out1 = eval.evaluate_hardened(&config, &harden1).unwrap();
        watcher.join().unwrap();
        assert!(
            out1.report.leader_passes_completed >= 1,
            "cadence-1 checkpointing completes at least one pass"
        );

        // Segment 2: resume from the checkpoint and finish.
        let opts = make_opts();
        let metrics2 = opts.metrics.clone();
        let eval2 = CoverageEvaluator::new(targets, opts);
        let harden2 =
            HardenOptions::new().with_checkpoint(eagleeye_harden::CheckpointSpec::new(&path, 1));
        let out2 = eval2.evaluate_hardened(&config, &harden2).unwrap();
        assert!(!out2.report.degraded);
        assert_eq!(out2.report.leader_passes_completed, 4);
        assert_eq!(
            out2.resumed_passes, out1.report.leader_passes_completed,
            "every pass from segment 1 must be restored, not recomputed"
        );

        // Uninterrupted reference run (no checkpoint involved at all).
        let opts = make_opts();
        let metrics_cold = opts.metrics.clone();
        let cold = CoverageEvaluator::new(targets, opts)
            .evaluate_hardened(&config, &HardenOptions::new())
            .unwrap();
        assert!(
            cold.report.same_outcome(&out2.report),
            "resumed:\n  {:?}\ncold:\n  {:?}",
            out2.report,
            cold.report
        );
        assert_eq!(
            all_counters(&metrics_cold.snapshot()),
            all_counters(&metrics2.snapshot())
        );
        assert_eq!(
            all_histograms(&metrics_cold.snapshot()),
            all_histograms(&metrics2.snapshot())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_different_scenario() {
        let targets = meridian_targets(30);
        let config = ConstellationConfig::eagleeye(2, 1);
        let path = temp_ckpt("core_mismatch.ckpt");
        let _ = std::fs::remove_file(&path);
        let spec = eagleeye_harden::CheckpointSpec::new(&path, 1);
        let opts = quick_options();
        CoverageEvaluator::new(&targets, opts)
            .evaluate_hardened(&config, &HardenOptions::new().with_checkpoint(spec.clone()))
            .unwrap();
        // Same checkpoint, different seed: the scenario hash differs
        // and the resume must be refused.
        let mut opts = quick_options();
        opts.seed = 8;
        let err = CoverageEvaluator::new(&targets, opts)
            .evaluate_hardened(&config, &HardenOptions::new().with_checkpoint(spec))
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::Harden { message } if message.contains("scenario")),
            "unexpected error: {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hardened_swath_config_counts_its_satellite_passes() {
        let targets = meridian_targets(50);
        let opts = quick_options();
        let eval = CoverageEvaluator::new(&targets, opts);
        let config = ConstellationConfig::LowResOnly { satellites: 5 };
        let plain = eval.evaluate(&config).unwrap();
        let hard = eval
            .evaluate_hardened(&config, &HardenOptions::new())
            .unwrap();
        assert!(plain.same_outcome(&hard.report));
        assert_eq!(hard.report.leader_passes_total, 5);
        assert_eq!(hard.report.leader_passes_completed, 5);
        assert_eq!(hard.report.completion_fraction(), 1.0);
        assert_eq!(hard.degrade_reason, None);
    }

    #[test]
    fn swath_config_degrades_checkpoints_and_resumes() {
        // A swath evaluation under an expired deadline stops dispatching
        // satellite passes and reports a valid partial result; the
        // final checkpoint it writes resumes to the uninterrupted
        // report at 1 and 4 threads.
        let targets = meridian_targets(50);
        let config = ConstellationConfig::LowResOnly { satellites: 5 };
        for threads in [1, 4] {
            let opts = CoverageOptions {
                threads,
                ..quick_options()
            };
            let path = temp_ckpt(&format!("swath_degrade_t{threads}.ckpt"));
            let _ = std::fs::remove_file(&path);
            let spec = eagleeye_harden::CheckpointSpec::new(&path, 1);
            let expired = HardenOptions::new()
                .with_checkpoint(spec.clone())
                .with_deadline(eagleeye_harden::Deadline::after(std::time::Duration::ZERO));
            let degraded = CoverageEvaluator::new(&targets, opts.clone())
                .evaluate_hardened(&config, &expired)
                .unwrap();
            assert!(degraded.report.degraded, "threads={threads}");
            assert_eq!(
                degraded.degrade_reason,
                Some(eagleeye_exec::DegradeReason::Deadline)
            );
            assert_eq!(degraded.report.leader_passes_total, 5);
            assert!(degraded.report.leader_passes_completed < 5);
            assert!(path.exists(), "a degraded run writes its checkpoint");

            let resumed = CoverageEvaluator::new(&targets, opts.clone())
                .evaluate_hardened(&config, &HardenOptions::new().with_checkpoint(spec))
                .unwrap();
            assert_eq!(
                resumed.resumed_passes,
                degraded.report.leader_passes_completed
            );
            let plain = CoverageEvaluator::new(&targets, opts)
                .evaluate(&config)
                .unwrap();
            assert!(plain.captured > 0, "workload must exercise coverage");
            assert!(
                plain.same_outcome(&resumed.report),
                "threads={threads}:\n  resumed: {:?}\n  plain: {plain:?}",
                resumed.report
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn scenario_hash_is_stable_and_sensitive() {
        let targets = meridian_targets(10);
        let config = ConstellationConfig::eagleeye(2, 1);
        let h =
            |opts: CoverageOptions| CoverageEvaluator::new(&targets, opts).scenario_hash(&config);
        let base = h(quick_options());
        assert_eq!(base, h(quick_options()), "hash must be deterministic");
        // Execution shape does not bind the scenario...
        let mut threaded = quick_options();
        threaded.threads = 8;
        threaded.metrics = Metrics::enabled();
        assert_eq!(base, h(threaded));

        // ...but every other option does, each one changed alone.
        let with = |edit: &dyn Fn(&mut CoverageOptions)| {
            let mut o = quick_options();
            edit(&mut o);
            o
        };
        let plan = |end_s: f64| {
            Some(Arc::new(FaultPlan::new(1).with_fault(
                FaultKind::FollowerOutage { follower: 0 },
                60.0,
                end_s,
            )))
        };
        let camera = |swath_m, gsd_m| Camera::new(swath_m, gsd_m).unwrap();
        let variants: Vec<(&str, CoverageOptions)> = vec![
            (
                "low_res",
                with(&|o| o.spec.low_res = camera(90_000.0, 30.0)),
            ),
            (
                "high_res",
                with(&|o| o.spec.high_res = camera(10_000.0, 2.0)),
            ),
            ("theta_max", with(&|o| o.spec.theta_max_rad *= 0.5)),
            ("adacs", with(&|o| o.spec.adacs = Adacs::high_end())),
            ("altitude", with(&|o| o.spec.altitude_m += 1.0)),
            ("ground_speed", with(&|o| o.spec.ground_speed_m_s += 1.0)),
            ("cadence", with(&|o| o.spec.frame_cadence_s += 1.0)),
            ("duration", with(&|o| o.duration_s += 1.0)),
            ("inclination", with(&|o| o.inclination_rad += 1e-6)),
            ("recall", with(&|o| o.recall = 0.5)),
            ("seed", with(&|o| o.seed = 8)),
            ("task_cap", with(&|o| o.max_tasks_per_frame = 61)),
            ("penalty 0.5", with(&|o| o.recapture_penalty = Some(0.5))),
            ("penalty 0.25", with(&|o| o.recapture_penalty = Some(0.25))),
            ("planes", with(&|o| o.orbital_planes = 2)),
            ("slots 4", with(&|o| o.layout_slots = Some(4))),
            ("slots 5", with(&|o| o.layout_slots = Some(5))),
            (
                "empty plan",
                with(&|o| o.fault_plan = Some(Arc::new(FaultPlan::new(1)))),
            ),
            ("fault end 600", with(&|o| o.fault_plan = plan(600.0))),
            ("fault end 900", with(&|o| o.fault_plan = plan(900.0))),
            ("naive", with(&|o| o.degraded_mode = DegradedMode::Naive)),
        ];
        let mut seen = vec![("base", base)];
        for (name, opts) in variants {
            let got = h(opts);
            if let Some((other, _)) = seen.iter().find(|(_, v)| *v == got) {
                panic!("`{name}` hashes like `{other}`");
            }
            seen.push((name, got));
        }

        // Every configuration variant and field binds it too.
        let configs = [
            ConstellationConfig::LowResOnly { satellites: 8 },
            ConstellationConfig::LowResOnly { satellites: 9 },
            ConstellationConfig::HighResOnly { satellites: 8 },
            ConstellationConfig::eagleeye(2, 1),
            ConstellationConfig::eagleeye(3, 1),
            ConstellationConfig::eagleeye(2, 2),
            ConstellationConfig::EagleEye {
                groups: 2,
                followers_per_group: 1,
                scheduler: SchedulerKind::Greedy,
                clustering: ClusteringMethod::Ilp,
            },
            ConstellationConfig::EagleEye {
                groups: 2,
                followers_per_group: 1,
                scheduler: SchedulerKind::Abb,
                clustering: ClusteringMethod::Ilp,
            },
            ConstellationConfig::EagleEye {
                groups: 2,
                followers_per_group: 1,
                scheduler: SchedulerKind::Resilient,
                clustering: ClusteringMethod::Ilp,
            },
            ConstellationConfig::EagleEye {
                groups: 2,
                followers_per_group: 1,
                scheduler: SchedulerKind::Ilp,
                clustering: ClusteringMethod::Greedy,
            },
            ConstellationConfig::EagleEye {
                groups: 2,
                followers_per_group: 1,
                scheduler: SchedulerKind::Ilp,
                clustering: ClusteringMethod::None,
            },
            ConstellationConfig::MixCamera {
                satellites: 8,
                compute_time_s: 1.0,
            },
            ConstellationConfig::MixCamera {
                satellites: 9,
                compute_time_s: 1.0,
            },
            ConstellationConfig::MixCamera {
                satellites: 8,
                compute_time_s: 2.0,
            },
        ];
        let eval = CoverageEvaluator::new(&targets, quick_options());
        let hashes: Vec<u64> = configs.iter().map(|c| eval.scenario_hash(c)).collect();
        for (i, a) in hashes.iter().enumerate() {
            for (j, b) in hashes.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "{:?} hashes like {:?}", configs[i], configs[j]);
            }
        }
    }

    #[test]
    fn detection_roll_is_deterministic_and_uniformish() {
        let a = detection_roll(1, 2, 3);
        assert_eq!(a, detection_roll(1, 2, 3));
        let mean: f64 = (0..1000).map(|i| detection_roll(9, i, i * 7)).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zero_satellites_cover_nothing() {
        let targets = meridian_targets(10);
        let eval = CoverageEvaluator::new(&targets, quick_options());
        let r = eval
            .evaluate(&ConstellationConfig::LowResOnly { satellites: 0 })
            .unwrap();
        assert_eq!(r.captured, 0);
    }

    #[test]
    fn value_totals_are_wired_through() {
        let targets = meridian_targets(40);
        let eval = CoverageEvaluator::new(&targets, quick_options());
        let r = eval
            .evaluate(&ConstellationConfig::LowResOnly { satellites: 2 })
            .unwrap();
        // All meridian targets have value 1.0, so the two fractions agree.
        assert!((r.total_value - 40.0).abs() < 1e-9);
        assert!((r.value_fraction() - r.coverage_fraction()).abs() < 1e-9);
    }

    #[test]
    fn low_res_dominates_high_res() {
        let targets = meridian_targets(60);
        let eval = CoverageEvaluator::new(&targets, quick_options());
        let low = eval
            .evaluate(&ConstellationConfig::LowResOnly { satellites: 1 })
            .unwrap();
        let high = eval
            .evaluate(&ConstellationConfig::HighResOnly { satellites: 1 })
            .unwrap();
        assert!(low.captured >= high.captured);
        assert!(low.captured > 0, "the meridian pass must see targets");
    }

    #[test]
    fn eagleeye_beats_high_res_only() {
        let targets = meridian_targets(60);
        let eval = CoverageEvaluator::new(&targets, quick_options());
        let ee = eval.evaluate(&ConstellationConfig::eagleeye(1, 1)).unwrap();
        let high = eval
            .evaluate(&ConstellationConfig::HighResOnly { satellites: 2 })
            .unwrap();
        assert!(
            ee.captured >= high.captured,
            "eagleeye {} < high-res {}",
            ee.captured,
            high.captured
        );
        assert!(ee.captures_commanded > 0);
    }

    #[test]
    fn recall_zero_captures_nothing_with_eagleeye() {
        let targets = meridian_targets(30);
        let mut opts = quick_options();
        opts.recall = 0.0;
        let eval = CoverageEvaluator::new(&targets, opts);
        let r = eval.evaluate(&ConstellationConfig::eagleeye(1, 1)).unwrap();
        assert_eq!(r.captured, 0);
    }

    #[test]
    fn leader_failure_falls_back_to_nadir() {
        let targets = meridian_targets(60);
        let mut opts = quick_options();
        opts.fault_plan = Some(Arc::new(FaultPlan::new(1).with_fault(
            eagleeye_sim::FaultKind::LeaderOutage,
            0.0,
            f64::INFINITY,
        )));
        let eval = CoverageEvaluator::new(&targets, opts);
        let r = eval.evaluate(&ConstellationConfig::eagleeye(1, 1)).unwrap();
        // Degraded mode still captures nadir targets but commands no
        // scheduled captures, and every frame counts the leader down.
        assert_eq!(r.captures_commanded, 0);
        assert_eq!(r.frames_leader_down, r.frames_processed);
    }

    #[test]
    fn all_followers_failed_captures_nothing() {
        let targets = meridian_targets(30);
        let mut opts = quick_options();
        opts.fault_plan = Some(Arc::new(FaultPlan::new(1).with_fault(
            eagleeye_sim::FaultKind::FollowerOutage { follower: 0 },
            0.0,
            f64::INFINITY,
        )));
        let eval = CoverageEvaluator::new(&targets, opts);
        let r = eval.evaluate(&ConstellationConfig::eagleeye(1, 1)).unwrap();
        assert_eq!(r.captured, 0);
    }

    #[test]
    fn recapture_penalty_never_reduces_unique_coverage() {
        let targets = meridian_targets(60);
        let base = CoverageEvaluator::new(&targets, quick_options())
            .evaluate(&ConstellationConfig::eagleeye(1, 1))
            .unwrap();
        let mut opts = quick_options();
        opts.recapture_penalty = Some(0.1);
        let depri = CoverageEvaluator::new(&targets, opts)
            .evaluate(&ConstellationConfig::eagleeye(1, 1))
            .unwrap();
        assert!(
            depri.captured >= base.captured,
            "deprioritized {} < base {}",
            depri.captured,
            base.captured
        );
    }

    #[test]
    fn multiple_planes_are_accepted_and_change_geometry() {
        let targets = meridian_targets(60);
        let mut opts = quick_options();
        opts.orbital_planes = 3;
        let eval = CoverageEvaluator::new(&targets, opts);
        // With 3 planes only some leaders fly the meridian; the run must
        // still succeed and produce a valid report.
        let r = eval.evaluate(&ConstellationConfig::eagleeye(3, 1)).unwrap();
        assert!(r.frames_processed > 0);
        assert!(r.captured <= r.total);
    }

    #[test]
    fn fault_follower_outage_naive_loses_resilient_recovers() {
        let targets = meridian_targets(60);
        let plan = Arc::new(FaultPlan::new(1).with_fault(
            eagleeye_sim::FaultKind::FollowerOutage { follower: 0 },
            0.0,
            f64::INFINITY,
        ));

        let mut naive_opts = quick_options();
        naive_opts.fault_plan = Some(plan.clone());
        naive_opts.degraded_mode = DegradedMode::Naive;
        let naive = CoverageEvaluator::new(&targets, naive_opts)
            .evaluate(&ConstellationConfig::eagleeye(1, 2))
            .unwrap();
        assert!(
            naive.captures_lost_to_faults > 0,
            "naive leader should keep tasking the dead follower"
        );

        let mut res_opts = quick_options();
        res_opts.fault_plan = Some(plan);
        res_opts.degraded_mode = DegradedMode::Resilient;
        let resilient = CoverageEvaluator::new(&targets, res_opts)
            .evaluate(&ConstellationConfig::EagleEye {
                groups: 1,
                followers_per_group: 2,
                scheduler: SchedulerKind::Resilient,
                clustering: ClusteringMethod::Ilp,
            })
            .unwrap();
        // The dead-from-t0 follower is excluded up front, so nothing is
        // ever commanded to it.
        assert_eq!(resilient.captures_lost_to_faults, 0);
        assert!(
            resilient.captured >= naive.captured,
            "resilient {} < naive {}",
            resilient.captured,
            naive.captured
        );
    }

    #[test]
    fn resilient_scheduler_reports_horizon_provenance() {
        let targets = meridian_targets(40);
        let eval = CoverageEvaluator::new(&targets, quick_options());
        let r = eval
            .evaluate(&ConstellationConfig::EagleEye {
                groups: 1,
                followers_per_group: 1,
                scheduler: SchedulerKind::Resilient,
                clustering: ClusteringMethod::Ilp,
            })
            .unwrap();
        assert!(r.scheduler_calls > 0);
        assert_eq!(
            r.ilp_horizons + r.greedy_fallbacks,
            r.scheduler_calls,
            "every horizon must record its solver"
        );
    }

    #[test]
    fn mid_pass_outage_repair_counters_are_consistent() {
        let targets = meridian_targets(60);
        let mut opts = quick_options();
        opts.fault_plan = Some(Arc::new(FaultPlan::new(2).with_fault(
            eagleeye_sim::FaultKind::FollowerOutage { follower: 1 },
            300.0,
            f64::INFINITY,
        )));
        let eval = CoverageEvaluator::new(&targets, opts);
        let r = eval
            .evaluate(&ConstellationConfig::EagleEye {
                groups: 1,
                followers_per_group: 2,
                scheduler: SchedulerKind::Resilient,
                clustering: ClusteringMethod::Ilp,
            })
            .unwrap();
        assert!(r.tasks_reassigned <= r.tasks_dropped_by_failures);
        assert!(r.captured > 0, "survivor must keep capturing");
    }

    #[test]
    fn fault_leader_outage_suppresses_scheduling() {
        let targets = meridian_targets(30);
        let mut opts = quick_options();
        opts.fault_plan = Some(Arc::new(FaultPlan::new(3).with_fault(
            eagleeye_sim::FaultKind::LeaderOutage,
            0.0,
            f64::INFINITY,
        )));
        let eval = CoverageEvaluator::new(&targets, opts);
        let r = eval.evaluate(&ConstellationConfig::eagleeye(1, 1)).unwrap();
        assert_eq!(r.captures_commanded, 0);
        assert!(r.frames_leader_down > 0);
    }

    #[test]
    fn fault_total_detector_dropout_captures_nothing() {
        let targets = meridian_targets(30);
        let mut opts = quick_options();
        opts.fault_plan = Some(Arc::new(FaultPlan::new(4).with_fault(
            eagleeye_sim::FaultKind::DetectorDropout {
                false_negative_rate: 1.0,
            },
            0.0,
            f64::INFINITY,
        )));
        let eval = CoverageEvaluator::new(&targets, opts);
        let r = eval.evaluate(&ConstellationConfig::eagleeye(1, 1)).unwrap();
        assert_eq!(r.captured, 0);
    }

    #[test]
    fn fault_brownout_suppresses_captures_inside_window() {
        let targets = meridian_targets(30);
        let mut opts = quick_options();
        opts.fault_plan = Some(Arc::new(FaultPlan::new(5).with_fault(
            eagleeye_sim::FaultKind::BatteryBrownout,
            0.0,
            f64::INFINITY,
        )));
        let eval = CoverageEvaluator::new(&targets, opts);
        let r = eval.evaluate(&ConstellationConfig::eagleeye(1, 1)).unwrap();
        assert_eq!(r.captures_commanded, 0);
    }

    #[test]
    fn fault_slew_derate_never_panics_and_bounds_coverage() {
        let targets = meridian_targets(40);
        let base = CoverageEvaluator::new(&targets, quick_options())
            .evaluate(&ConstellationConfig::eagleeye(1, 1))
            .unwrap();
        let mut opts = quick_options();
        opts.fault_plan = Some(Arc::new(FaultPlan::new(6).with_fault(
            eagleeye_sim::FaultKind::SlewDerate { rate_factor: 0.25 },
            0.0,
            f64::INFINITY,
        )));
        let derated = CoverageEvaluator::new(&targets, opts)
            .evaluate(&ConstellationConfig::eagleeye(1, 1))
            .unwrap();
        assert!(
            derated.captured <= base.captured,
            "slower wheels cannot capture more ({} > {})",
            derated.captured,
            base.captured
        );
    }

    #[test]
    fn mix_camera_with_huge_compute_time_captures_nothing() {
        let targets = meridian_targets(30);
        let eval = CoverageEvaluator::new(&targets, quick_options());
        let r = eval
            .evaluate(&ConstellationConfig::MixCamera {
                satellites: 1,
                compute_time_s: 14.9,
            })
            .unwrap();
        assert_eq!(r.captured, 0);
    }
}
