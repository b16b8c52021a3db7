use crate::schedule::IlpRunStats;
use eagleeye_harden::{ByteReader, ByteWriter, CodecError};
use eagleeye_obs::Metrics;
use std::time::Duration;

/// Version byte leading every [`CoverageReport::to_bytes`] payload.
/// Version 2 appended the ILP warm-start counters; version 3 appended
/// four solver-tier counters (hints, sparse solves, presolve) that were
/// always zero. Version 4 drops them again: its layout is version 2's
/// under a new version byte, so a version 3 payload is rejected.
const REPORT_CODEC_VERSION: u8 = 4;

/// Result of a coverage evaluation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoverageReport {
    /// Distinct targets captured in high-resolution imagery (for
    /// Low-Res Only: targets that fell inside the low-resolution swath).
    pub captured: usize,
    /// Total targets in the workload.
    pub total: usize,
    /// Sum of captured targets' priority values.
    pub captured_value: f64,
    /// Sum of all targets' priority values.
    pub total_value: f64,
    /// Leader frames processed.
    pub frames_processed: usize,
    /// Frames containing at least one target.
    pub frames_with_targets: usize,
    /// Detected-target count per nonempty frame (the paper's Fig. 12b
    /// distribution).
    pub per_frame_target_counts: Vec<usize>,
    /// Cluster count per nonempty frame (after target clustering).
    pub per_frame_cluster_counts: Vec<usize>,
    /// Number of scheduler invocations.
    pub scheduler_calls: usize,
    /// Total wall-clock time spent in the scheduler.
    pub scheduler_time: Duration,
    /// Total wall-clock time spent in clustering.
    pub clustering_time: Duration,
    /// High-resolution captures commanded.
    pub captures_commanded: usize,
    /// Horizons scheduled by the exact ILP within budget (only counted
    /// for ILP runs under [`DegradedMode::Repair`](super::DegradedMode)).
    pub ilp_horizons: usize,
    /// Horizons that fell back to the greedy solver (deadline,
    /// iteration cap, dominance, solver error, or a schedule failing
    /// validation; counted like `ilp_horizons`).
    pub greedy_fallbacks: usize,
    /// Of those, fallbacks caused by the per-horizon wall-clock budget.
    pub deadline_fallbacks: usize,
    /// Mid-pass follower failures for which a schedule repair ran.
    pub repairs_attempted: usize,
    /// Tasks dropped from failed followers' sequences mid-pass.
    pub tasks_dropped_by_failures: usize,
    /// Of those, tasks successfully re-planned onto survivors.
    pub tasks_reassigned: usize,
    /// Commanded captures lost at execution because the assigned
    /// follower was out of service.
    pub captures_lost_to_faults: usize,
    /// Frames during which an injected fault kept the leader down.
    pub frames_leader_down: usize,
    /// Total wall-clock time spent batch-propagating orbits.
    pub propagate_time: Duration,
    /// Total wall-clock time spent in the detection model (recorded
    /// only when the evaluation carries enabled
    /// [`Metrics`](eagleeye_obs::Metrics); zero otherwise so the
    /// per-frame clock reads cost nothing in production sweeps).
    pub detect_time: Duration,
    /// ILP subproblems attempted, summed over every horizon that ran
    /// the exact solver, under every degraded mode.
    pub ilp_subproblems: usize,
    /// Branch-and-bound nodes whose LP relaxation was solved.
    pub ilp_nodes_explored: usize,
    /// Branch-and-bound nodes discarded by the incumbent bound.
    pub ilp_nodes_pruned: usize,
    /// Total simplex iterations (bound flips included).
    pub ilp_lp_iterations: usize,
    /// Total basis-changing simplex pivots (`<= ilp_lp_iterations`).
    pub ilp_lp_pivots: usize,
    /// Incumbent replacements across all branch-and-bound runs.
    pub ilp_incumbent_updates: usize,
    /// ILP subproblems abandoned on the wall-clock deadline.
    pub ilp_deadline_hits: usize,
    /// ILP subproblems abandoned on the simplex iteration cap.
    pub ilp_iteration_limit_hits: usize,
    /// Branch-and-bound nodes re-solved from their parent's final
    /// simplex tableau.
    pub ilp_warm_starts: usize,
    /// Nodes whose inherited tableau was rejected and fell back to a
    /// cold solve.
    pub ilp_warm_rejects: usize,
    /// True when the crash-safe run layer stopped this evaluation early
    /// (its deadline expired) and the report covers only the passes
    /// that finished. Anytime results: every field is still internally
    /// consistent, just partial.
    pub degraded: bool,
    /// Passes whose partial results are merged into this report.
    /// Equals [`leader_passes_total`](Self::leader_passes_total) for a
    /// complete run.
    pub leader_passes_completed: usize,
    /// Passes the evaluated scenario decomposes into: one per leader
    /// group, or one per satellite of a swath-membership configuration
    /// (zero when there is nothing to run).
    pub leader_passes_total: usize,
}

impl CoverageReport {
    /// An empty report whose per-frame series are preallocated for a
    /// horizon of `frames` frames, so a leader pass never regrows them
    /// (the series gain at most one entry per frame).
    pub fn with_frame_capacity(frames: usize) -> Self {
        CoverageReport {
            per_frame_target_counts: Vec::with_capacity(frames),
            per_frame_cluster_counts: Vec::with_capacity(frames),
            ..Default::default()
        }
    }

    /// Fraction of targets captured, in `[0, 1]`; zero for an empty
    /// workload.
    pub fn coverage_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.captured as f64 / self.total as f64
        }
    }

    /// Value-weighted coverage: captured priority mass over total
    /// priority mass (the quantity the scheduler's objective maximizes).
    pub fn value_fraction(&self) -> f64 {
        if self.total_value <= 0.0 {
            0.0
        } else {
            self.captured_value / self.total_value
        }
    }

    /// Mean scheduler latency per invocation.
    pub fn mean_scheduler_latency(&self) -> Duration {
        if self.scheduler_calls == 0 {
            Duration::ZERO
        } else {
            self.scheduler_time / self.scheduler_calls as u32
        }
    }

    /// Folds a partial report (one leader pass) into this one: counters
    /// and timers are summed, per-frame series appended in call order.
    ///
    /// Capture totals (`captured`, `total`, `captured_value`,
    /// `total_value`) are deliberately left alone — captures are marked
    /// idempotently in a shared (or merged) bitmap, so summing per-pass
    /// counts would double-count targets seen by several leaders. The
    /// evaluator derives them from the final bitmap instead.
    ///
    /// Parallel evaluation merges partial reports in leader order, so a
    /// multi-threaded run produces a report identical to a sequential
    /// one (modulo the wall-clock `*_time` fields).
    pub fn absorb(&mut self, part: CoverageReport) {
        let CoverageReport {
            // Derived from the merged bitmap after all passes fold in:
            // summing per-pass counts would double-count shared targets.
            captured: _,
            total: _,
            captured_value: _,
            total_value: _,
            frames_processed,
            frames_with_targets,
            per_frame_target_counts,
            per_frame_cluster_counts,
            scheduler_calls,
            scheduler_time,
            clustering_time,
            captures_commanded,
            ilp_horizons,
            greedy_fallbacks,
            deadline_fallbacks,
            repairs_attempted,
            tasks_dropped_by_failures,
            tasks_reassigned,
            captures_lost_to_faults,
            frames_leader_down,
            propagate_time,
            detect_time,
            ilp_subproblems,
            ilp_nodes_explored,
            ilp_nodes_pruned,
            ilp_lp_iterations,
            ilp_lp_pivots,
            ilp_incumbent_updates,
            ilp_deadline_hits,
            ilp_iteration_limit_hits,
            ilp_warm_starts,
            ilp_warm_rejects,
            // Run-level state owned by the hardened runner, set once on
            // the merged report, never summed across passes.
            degraded: _,
            leader_passes_completed: _,
            leader_passes_total: _,
        } = part;
        self.frames_processed += frames_processed;
        self.frames_with_targets += frames_with_targets;
        self.per_frame_target_counts.extend(per_frame_target_counts);
        self.per_frame_cluster_counts
            .extend(per_frame_cluster_counts);
        self.scheduler_calls += scheduler_calls;
        self.scheduler_time += scheduler_time;
        self.clustering_time += clustering_time;
        self.captures_commanded += captures_commanded;
        self.ilp_horizons += ilp_horizons;
        self.greedy_fallbacks += greedy_fallbacks;
        self.deadline_fallbacks += deadline_fallbacks;
        self.repairs_attempted += repairs_attempted;
        self.tasks_dropped_by_failures += tasks_dropped_by_failures;
        self.tasks_reassigned += tasks_reassigned;
        self.captures_lost_to_faults += captures_lost_to_faults;
        self.frames_leader_down += frames_leader_down;
        self.propagate_time += propagate_time;
        self.detect_time += detect_time;
        self.ilp_subproblems += ilp_subproblems;
        self.ilp_nodes_explored += ilp_nodes_explored;
        self.ilp_nodes_pruned += ilp_nodes_pruned;
        self.ilp_lp_iterations += ilp_lp_iterations;
        self.ilp_lp_pivots += ilp_lp_pivots;
        self.ilp_incumbent_updates += ilp_incumbent_updates;
        self.ilp_deadline_hits += ilp_deadline_hits;
        self.ilp_iteration_limit_hits += ilp_iteration_limit_hits;
        self.ilp_warm_starts += ilp_warm_starts;
        self.ilp_warm_rejects += ilp_warm_rejects;
    }

    /// Folds one horizon's ILP solver diagnostics into the report.
    pub fn add_ilp_stats(&mut self, stats: &IlpRunStats) {
        let IlpRunStats {
            subproblems,
            deadline_hits,
            iteration_limit_hits,
            nodes_explored,
            nodes_pruned,
            lp_iterations,
            lp_pivots,
            incumbent_updates,
            warm_starts,
            warm_rejects,
            // A per-horizon verdict, not a summable counter: the
            // evaluator folds it into `greedy_fallbacks` under `Repair`.
            greedy_dominated: _,
        } = *stats;
        self.ilp_subproblems += subproblems;
        self.ilp_nodes_explored += nodes_explored;
        self.ilp_nodes_pruned += nodes_pruned;
        self.ilp_lp_iterations += lp_iterations;
        self.ilp_lp_pivots += lp_pivots;
        self.ilp_incumbent_updates += incumbent_updates;
        self.ilp_deadline_hits += deadline_hits;
        self.ilp_iteration_limit_hits += iteration_limit_hits;
        self.ilp_warm_starts += warm_starts;
        self.ilp_warm_rejects += warm_rejects;
    }

    /// Mirrors the report into a metrics registry under the `core/*`
    /// and `ilp/*` key namespaces (see DESIGN.md §10). A no-op when
    /// `metrics` is disabled. Counter and histogram values are exact
    /// integers derived from the deterministic report fields; only the
    /// `core/evaluate/*` timers vary run to run.
    pub fn record_metrics(&self, metrics: &Metrics) {
        if !metrics.is_enabled() {
            return;
        }
        let CoverageReport {
            captured,
            // Workload denominators, not run activity: they belong to
            // the scenario and would corrupt additive counters when
            // several evaluations share one registry.
            total: _,
            captured_value: _,
            total_value: _,
            frames_processed,
            frames_with_targets,
            per_frame_target_counts,
            per_frame_cluster_counts,
            scheduler_calls,
            scheduler_time,
            clustering_time,
            captures_commanded,
            ilp_horizons,
            greedy_fallbacks,
            deadline_fallbacks,
            repairs_attempted,
            tasks_dropped_by_failures,
            tasks_reassigned,
            captures_lost_to_faults,
            frames_leader_down,
            propagate_time,
            detect_time,
            ilp_subproblems,
            ilp_nodes_explored,
            ilp_nodes_pruned,
            ilp_lp_iterations,
            ilp_lp_pivots,
            ilp_incumbent_updates,
            ilp_deadline_hits,
            ilp_iteration_limit_hits,
            ilp_warm_starts,
            ilp_warm_rejects,
            // Mirrored as `harden/*` gauges by the hardened runner,
            // which owns that namespace.
            degraded: _,
            leader_passes_completed: _,
            leader_passes_total: _,
        } = self;
        metrics.incr("core/evaluations");
        metrics.add("core/frames_processed", *frames_processed as u64);
        metrics.add("core/frames_with_targets", *frames_with_targets as u64);
        metrics.add("core/scheduler_calls", *scheduler_calls as u64);
        metrics.add("core/captures_commanded", *captures_commanded as u64);
        metrics.add("core/captured_targets", *captured as u64);
        metrics.add("core/ilp_horizons", *ilp_horizons as u64);
        metrics.add("core/greedy_fallbacks", *greedy_fallbacks as u64);
        metrics.add("core/deadline_fallbacks", *deadline_fallbacks as u64);
        metrics.add("core/repairs_attempted", *repairs_attempted as u64);
        metrics.add(
            "core/tasks_dropped_by_failures",
            *tasks_dropped_by_failures as u64,
        );
        metrics.add("core/tasks_reassigned", *tasks_reassigned as u64);
        metrics.add(
            "core/captures_lost_to_faults",
            *captures_lost_to_faults as u64,
        );
        metrics.add("core/frames_leader_down", *frames_leader_down as u64);
        metrics.add("ilp/subproblems", *ilp_subproblems as u64);
        metrics.add("ilp/nodes_explored", *ilp_nodes_explored as u64);
        metrics.add("ilp/nodes_pruned", *ilp_nodes_pruned as u64);
        metrics.add("ilp/lp_iterations", *ilp_lp_iterations as u64);
        metrics.add("ilp/lp_pivots", *ilp_lp_pivots as u64);
        metrics.add("ilp/incumbent_updates", *ilp_incumbent_updates as u64);
        metrics.add("ilp/deadline_hits", *ilp_deadline_hits as u64);
        metrics.add("ilp/iteration_limit_hits", *ilp_iteration_limit_hits as u64);
        metrics.add("ilp/warm_starts", *ilp_warm_starts as u64);
        metrics.add("ilp/warm_rejects", *ilp_warm_rejects as u64);
        const FRAME_BUCKETS: &[u64] = &[1, 2, 5, 10, 20, 50, 100, 200, 500, 1000];
        for &n in per_frame_target_counts {
            metrics.observe("core/frame_targets", n as u64, FRAME_BUCKETS);
        }
        for &n in per_frame_cluster_counts {
            metrics.observe("core/frame_clusters", n as u64, FRAME_BUCKETS);
        }
        metrics.record_duration("core/evaluate/propagate", *propagate_time);
        metrics.record_duration("core/evaluate/detect", *detect_time);
        metrics.record_duration("core/evaluate/cluster", *clustering_time);
        metrics.record_duration("core/evaluate/schedule", *scheduler_time);
    }

    /// True when two reports agree on everything except the wall-clock
    /// timing fields (`scheduler_time`, `clustering_time`,
    /// `propagate_time`, `detect_time`), which vary run to run even for
    /// identical work. This is the determinism contract checked across
    /// thread counts.
    ///
    /// The exhaustive destructure (no `..`) is deliberate: adding a
    /// field to [`CoverageReport`] fails compilation here until the
    /// author decides whether it is outcome or timing. Float fields
    /// compare with `==`, matching the derived `PartialEq` the
    /// strip-and-compare predecessor relied on.
    #[expect(
        clippy::float_cmp,
        reason = "outcome floats compare with `==`, as the derived `PartialEq` did"
    )]
    pub fn same_outcome(&self, other: &CoverageReport) -> bool {
        let CoverageReport {
            captured,
            total,
            captured_value,
            total_value,
            frames_processed,
            frames_with_targets,
            per_frame_target_counts,
            per_frame_cluster_counts,
            scheduler_calls,
            scheduler_time: _,
            clustering_time: _,
            captures_commanded,
            ilp_horizons,
            greedy_fallbacks,
            deadline_fallbacks,
            repairs_attempted,
            tasks_dropped_by_failures,
            tasks_reassigned,
            captures_lost_to_faults,
            frames_leader_down,
            propagate_time: _,
            detect_time: _,
            ilp_subproblems,
            ilp_nodes_explored,
            ilp_nodes_pruned,
            ilp_lp_iterations,
            ilp_lp_pivots,
            ilp_incumbent_updates,
            ilp_deadline_hits,
            ilp_iteration_limit_hits,
            ilp_warm_starts,
            ilp_warm_rejects,
            degraded,
            leader_passes_completed,
            leader_passes_total,
        } = self;
        *captured == other.captured
            && *total == other.total
            && *captured_value == other.captured_value
            && *total_value == other.total_value
            && *frames_processed == other.frames_processed
            && *frames_with_targets == other.frames_with_targets
            && *per_frame_target_counts == other.per_frame_target_counts
            && *per_frame_cluster_counts == other.per_frame_cluster_counts
            && *scheduler_calls == other.scheduler_calls
            && *captures_commanded == other.captures_commanded
            && *ilp_horizons == other.ilp_horizons
            && *greedy_fallbacks == other.greedy_fallbacks
            && *deadline_fallbacks == other.deadline_fallbacks
            && *repairs_attempted == other.repairs_attempted
            && *tasks_dropped_by_failures == other.tasks_dropped_by_failures
            && *tasks_reassigned == other.tasks_reassigned
            && *captures_lost_to_faults == other.captures_lost_to_faults
            && *frames_leader_down == other.frames_leader_down
            && *ilp_subproblems == other.ilp_subproblems
            && *ilp_nodes_explored == other.ilp_nodes_explored
            && *ilp_nodes_pruned == other.ilp_nodes_pruned
            && *ilp_lp_iterations == other.ilp_lp_iterations
            && *ilp_lp_pivots == other.ilp_lp_pivots
            && *ilp_incumbent_updates == other.ilp_incumbent_updates
            && *ilp_deadline_hits == other.ilp_deadline_hits
            && *ilp_iteration_limit_hits == other.ilp_iteration_limit_hits
            && *ilp_warm_starts == other.ilp_warm_starts
            && *ilp_warm_rejects == other.ilp_warm_rejects
            && *degraded == other.degraded
            && *leader_passes_completed == other.leader_passes_completed
            && *leader_passes_total == other.leader_passes_total
    }

    /// Fraction of nonempty frames with more than `threshold` detected
    /// targets (the paper's Fig. 12b observation: up to 32 % of images
    /// hold more than 19 targets).
    pub fn frames_above(&self, threshold: usize) -> f64 {
        if self.per_frame_target_counts.is_empty() {
            return 0.0;
        }
        let n = self
            .per_frame_target_counts
            .iter()
            .filter(|&&c| c > threshold)
            .count();
        n as f64 / self.per_frame_target_counts.len() as f64
    }

    /// Fraction of leader passes merged into this report, in `[0, 1]`.
    /// Reports from scenarios without leader passes (swath membership,
    /// empty workloads) count as complete.
    pub fn completion_fraction(&self) -> f64 {
        if self.leader_passes_total == 0 {
            1.0
        } else {
            self.leader_passes_completed as f64 / self.leader_passes_total as f64
        }
    }

    /// Serializes the report for checkpoint payloads. The encoding is
    /// bit-exact — floats as raw IEEE-754 bits, timers as whole seconds
    /// plus subsecond nanoseconds — so a report restored on resume is
    /// indistinguishable from the one that was checkpointed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let CoverageReport {
            captured,
            total,
            captured_value,
            total_value,
            frames_processed,
            frames_with_targets,
            per_frame_target_counts,
            per_frame_cluster_counts,
            scheduler_calls,
            scheduler_time,
            clustering_time,
            captures_commanded,
            ilp_horizons,
            greedy_fallbacks,
            deadline_fallbacks,
            repairs_attempted,
            tasks_dropped_by_failures,
            tasks_reassigned,
            captures_lost_to_faults,
            frames_leader_down,
            propagate_time,
            detect_time,
            ilp_subproblems,
            ilp_nodes_explored,
            ilp_nodes_pruned,
            ilp_lp_iterations,
            ilp_lp_pivots,
            ilp_incumbent_updates,
            ilp_deadline_hits,
            ilp_iteration_limit_hits,
            ilp_warm_starts,
            ilp_warm_rejects,
            degraded,
            leader_passes_completed,
            leader_passes_total,
        } = self;
        let mut w = ByteWriter::new();
        w.u8(REPORT_CODEC_VERSION);
        w.usize(*captured);
        w.usize(*total);
        w.f64(*captured_value);
        w.f64(*total_value);
        w.usize(*frames_processed);
        w.usize(*frames_with_targets);
        for series in [per_frame_target_counts, per_frame_cluster_counts] {
            w.usize(series.len());
            for &n in series {
                w.usize(n);
            }
        }
        w.usize(*scheduler_calls);
        for d in [scheduler_time, clustering_time, propagate_time, detect_time] {
            w.u64(d.as_secs());
            w.u32(d.subsec_nanos());
        }
        for n in [
            captures_commanded,
            ilp_horizons,
            greedy_fallbacks,
            deadline_fallbacks,
            repairs_attempted,
            tasks_dropped_by_failures,
            tasks_reassigned,
            captures_lost_to_faults,
            frames_leader_down,
            ilp_subproblems,
            ilp_nodes_explored,
            ilp_nodes_pruned,
            ilp_lp_iterations,
            ilp_lp_pivots,
            ilp_incumbent_updates,
            ilp_deadline_hits,
            ilp_iteration_limit_hits,
            ilp_warm_starts,
            ilp_warm_rejects,
        ] {
            w.usize(*n);
        }
        w.bool(*degraded);
        w.usize(*leader_passes_completed);
        w.usize(*leader_passes_total);
        w.into_bytes()
    }

    /// Restores a report written by [`to_bytes`](Self::to_bytes),
    /// rejecting unknown versions, truncation, and trailing garbage.
    /// The fields are listed in wire order: a struct literal evaluates
    /// its fields in the order written.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.u8()? != REPORT_CODEC_VERSION {
            return Err(CodecError {
                context: "report codec version",
            });
        }
        let out = CoverageReport {
            captured: r.usize()?,
            total: r.usize()?,
            captured_value: r.f64()?,
            total_value: r.f64()?,
            frames_processed: r.usize()?,
            frames_with_targets: r.usize()?,
            per_frame_target_counts: read_series(&mut r)?,
            per_frame_cluster_counts: read_series(&mut r)?,
            scheduler_calls: r.usize()?,
            scheduler_time: read_duration(&mut r)?,
            clustering_time: read_duration(&mut r)?,
            propagate_time: read_duration(&mut r)?,
            detect_time: read_duration(&mut r)?,
            captures_commanded: r.usize()?,
            ilp_horizons: r.usize()?,
            greedy_fallbacks: r.usize()?,
            deadline_fallbacks: r.usize()?,
            repairs_attempted: r.usize()?,
            tasks_dropped_by_failures: r.usize()?,
            tasks_reassigned: r.usize()?,
            captures_lost_to_faults: r.usize()?,
            frames_leader_down: r.usize()?,
            ilp_subproblems: r.usize()?,
            ilp_nodes_explored: r.usize()?,
            ilp_nodes_pruned: r.usize()?,
            ilp_lp_iterations: r.usize()?,
            ilp_lp_pivots: r.usize()?,
            ilp_incumbent_updates: r.usize()?,
            ilp_deadline_hits: r.usize()?,
            ilp_iteration_limit_hits: r.usize()?,
            ilp_warm_starts: r.usize()?,
            ilp_warm_rejects: r.usize()?,
            degraded: r.bool()?,
            leader_passes_completed: r.usize()?,
            leader_passes_total: r.usize()?,
        };
        if !r.is_exhausted() {
            return Err(CodecError {
                context: "report trailing bytes",
            });
        }
        Ok(out)
    }
}

/// A length-prefixed per-frame series, as [`CoverageReport::to_bytes`]
/// writes it.
fn read_series(r: &mut ByteReader<'_>) -> Result<Vec<usize>, CodecError> {
    let n = r.usize()?;
    (0..n).map(|_| r.usize()).collect()
}

/// A timer as whole seconds plus subsecond nanoseconds.
fn read_duration(r: &mut ByteReader<'_>) -> Result<Duration, CodecError> {
    let secs = r.u64()?;
    let nanos = r.u32()?;
    if nanos >= 1_000_000_000 {
        return Err(CodecError {
            context: "timer subsec nanos",
        });
    }
    Ok(Duration::new(secs, nanos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_handles_empty_workload() {
        assert_eq!(CoverageReport::default().coverage_fraction(), 0.0);
    }

    #[test]
    fn fraction_and_frames_above() {
        let r = CoverageReport {
            captured: 30,
            total: 100,
            per_frame_target_counts: vec![5, 25, 40, 2],
            ..CoverageReport::default()
        };
        assert!((r.coverage_fraction() - 0.3).abs() < 1e-12);
        assert!((r.frames_above(19) - 0.5).abs() < 1e-12);
        assert_eq!(r.frames_above(1000), 0.0);
    }

    #[test]
    fn mean_latency_guards_division() {
        assert_eq!(
            CoverageReport::default().mean_scheduler_latency(),
            Duration::ZERO
        );
    }

    #[test]
    fn absorb_sums_counters_and_preserves_capture_totals() {
        let mut acc = CoverageReport {
            captured: 7,
            total: 10,
            frames_processed: 3,
            per_frame_target_counts: vec![1],
            scheduler_calls: 2,
            scheduler_time: Duration::from_millis(5),
            ..CoverageReport::default()
        };
        acc.absorb(CoverageReport {
            captured: 99, // must be ignored
            frames_processed: 4,
            per_frame_target_counts: vec![2, 3],
            scheduler_calls: 1,
            scheduler_time: Duration::from_millis(7),
            greedy_fallbacks: 2,
            ..CoverageReport::default()
        });
        assert_eq!(acc.captured, 7);
        assert_eq!(acc.total, 10);
        assert_eq!(acc.frames_processed, 7);
        assert_eq!(acc.per_frame_target_counts, vec![1, 2, 3]);
        assert_eq!(acc.scheduler_calls, 3);
        assert_eq!(acc.scheduler_time, Duration::from_millis(12));
        assert_eq!(acc.greedy_fallbacks, 2);
    }

    #[test]
    fn same_outcome_ignores_only_timing() {
        let a = CoverageReport {
            captured: 4,
            scheduler_time: Duration::from_millis(3),
            clustering_time: Duration::from_millis(1),
            ..CoverageReport::default()
        };
        let mut b = a.clone();
        b.scheduler_time = Duration::from_secs(9);
        b.clustering_time = Duration::ZERO;
        assert!(a.same_outcome(&b));
        b.captured = 5;
        assert!(!a.same_outcome(&b));
    }

    #[test]
    fn ilp_stats_fold_into_report_and_absorb() {
        let stats = IlpRunStats {
            subproblems: 2,
            deadline_hits: 1,
            iteration_limit_hits: 0,
            nodes_explored: 10,
            nodes_pruned: 4,
            lp_iterations: 90,
            lp_pivots: 60,
            incumbent_updates: 3,
            warm_starts: 5,
            warm_rejects: 2,
            greedy_dominated: false,
        };
        let mut part = CoverageReport::default();
        part.add_ilp_stats(&stats);
        part.add_ilp_stats(&stats);
        let mut acc = CoverageReport::default();
        acc.absorb(part);
        assert_eq!(acc.ilp_subproblems, 4);
        assert_eq!(acc.ilp_nodes_explored, 20);
        assert_eq!(acc.ilp_nodes_pruned, 8);
        assert_eq!(acc.ilp_lp_iterations, 180);
        assert_eq!(acc.ilp_lp_pivots, 120);
        assert_eq!(acc.ilp_incumbent_updates, 6);
        assert_eq!(acc.ilp_deadline_hits, 2);
        assert_eq!(acc.ilp_iteration_limit_hits, 0);
        assert_eq!(acc.ilp_warm_starts, 10);
        assert_eq!(acc.ilp_warm_rejects, 4);
    }

    #[test]
    fn record_metrics_mirrors_counters_and_histograms() {
        let report = CoverageReport {
            frames_processed: 9,
            frames_with_targets: 4,
            per_frame_target_counts: vec![1, 6, 30, 466],
            per_frame_cluster_counts: vec![1, 4, 12, 40],
            scheduler_calls: 3,
            scheduler_time: Duration::from_millis(4),
            captures_commanded: 5,
            ilp_subproblems: 3,
            ilp_nodes_explored: 11,
            ..CoverageReport::default()
        };
        let metrics = Metrics::enabled();
        report.record_metrics(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("core/evaluations"), 1);
        assert_eq!(snap.counter("core/frames_processed"), 9);
        assert_eq!(snap.counter("core/scheduler_calls"), 3);
        assert_eq!(snap.counter("ilp/subproblems"), 3);
        assert_eq!(snap.counter("ilp/nodes_explored"), 11);
        let h = snap.histogram("core/frame_targets").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 503);
        // Dense Lake frames reach hundreds of targets: 466 lands in the
        // `≤ 500` bucket, not the overflow.
        assert_eq!(h.bounds(), &[1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]);
        assert_eq!(h.counts(), &[1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0]);
        let t = snap.timer("core/evaluate/schedule").unwrap();
        assert_eq!(t.total, Duration::from_millis(4));
        // Disabled metrics: a silent no-op.
        report.record_metrics(&Metrics::disabled());
    }

    #[test]
    fn same_outcome_ignores_all_four_timers() {
        let a = CoverageReport::default();
        let mut b = a.clone();
        b.propagate_time = Duration::from_secs(1);
        b.detect_time = Duration::from_secs(2);
        assert!(a.same_outcome(&b));
        b.ilp_nodes_explored = 1;
        assert!(!a.same_outcome(&b));
    }

    /// Every field differs from every other field of its type, so a
    /// codec that swapped two same-typed reads would not round-trip.
    fn dense_report() -> CoverageReport {
        CoverageReport {
            captured: 31,
            total: 100,
            captured_value: 0.1 + 0.2, // deliberately non-round bits
            total_value: 400.5,
            frames_processed: 9,
            frames_with_targets: 7,
            per_frame_target_counts: vec![1, 6, 30],
            per_frame_cluster_counts: vec![2, 5],
            scheduler_calls: 13,
            scheduler_time: Duration::new(4, 999_999_999),
            clustering_time: Duration::from_nanos(1),
            propagate_time: Duration::from_secs(7),
            detect_time: Duration::ZERO,
            captures_commanded: 17,
            ilp_horizons: 19,
            greedy_fallbacks: 21,
            deadline_fallbacks: 23,
            repairs_attempted: 25,
            tasks_dropped_by_failures: 27,
            tasks_reassigned: 29,
            captures_lost_to_faults: 33,
            frames_leader_down: 35,
            ilp_subproblems: 37,
            ilp_nodes_explored: 111,
            ilp_nodes_pruned: 41,
            ilp_lp_iterations: 90,
            ilp_lp_pivots: 60,
            ilp_incumbent_updates: 43,
            ilp_deadline_hits: 45,
            ilp_iteration_limit_hits: 47,
            ilp_warm_starts: 49,
            ilp_warm_rejects: 51,
            degraded: true,
            leader_passes_completed: 53,
            leader_passes_total: 55,
        }
    }

    #[test]
    fn byte_codec_round_trips_exactly() {
        let r = dense_report();
        let restored = CoverageReport::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(restored, r);
        assert_eq!(
            restored.captured_value.to_bits(),
            r.captured_value.to_bits()
        );
        let empty = CoverageReport::default();
        assert_eq!(
            CoverageReport::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn byte_codec_rejects_malformed_payloads() {
        let bytes = dense_report().to_bytes();
        // Truncation at every prefix length must error, never panic.
        for n in 0..bytes.len() {
            assert!(CoverageReport::from_bytes(&bytes[..n]).is_err(), "n={n}");
        }
        // Unknown version byte.
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(CoverageReport::from_bytes(&bad).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(CoverageReport::from_bytes(&long).is_err());
        // A version 3 payload: this layout plus the four solver-tier
        // counters ahead of the harden tail (one bool, two usizes).
        let tail = bytes.len() - 1 - 2 * 8;
        let mut v3 = bytes[..tail].to_vec();
        v3[0] = 3;
        v3.extend_from_slice(&[0u8; 4 * 8]);
        v3.extend_from_slice(&bytes[tail..]);
        assert!(CoverageReport::from_bytes(&v3).is_err());
    }

    #[test]
    fn completion_fraction_and_absorb_leave_harden_fields() {
        let full = CoverageReport::default();
        assert_eq!(full.completion_fraction(), 1.0);
        let mut acc = CoverageReport {
            leader_passes_completed: 3,
            leader_passes_total: 4,
            degraded: true,
            ..CoverageReport::default()
        };
        assert!((acc.completion_fraction() - 0.75).abs() < 1e-12);
        acc.absorb(CoverageReport {
            leader_passes_completed: 9,
            leader_passes_total: 9,
            degraded: false,
            ..CoverageReport::default()
        });
        // absorb folds per-pass partials; run-level harden state stays.
        assert_eq!(acc.leader_passes_completed, 3);
        assert_eq!(acc.leader_passes_total, 4);
        assert!(acc.degraded);
    }

    #[test]
    fn value_fraction_weighs_priorities() {
        let r = CoverageReport {
            captured: 1,
            total: 2,
            captured_value: 3.0,
            total_value: 4.0,
            ..CoverageReport::default()
        };
        assert!((r.coverage_fraction() - 0.5).abs() < 1e-12);
        assert!((r.value_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(CoverageReport::default().value_fraction(), 0.0);
    }
}
