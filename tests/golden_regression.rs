//! End-to-end golden regression: a miniature deterministic scenario
//! through the full `CoverageEvaluator` with metrics enabled. The
//! report and every recorded pipeline counter are snapshot-asserted,
//! and recording is bit-identical sequentially and through the
//! 4-thread pool. Timers and gauges are wall-clock/pool-shape and
//! exempt by design (DESIGN.md §10), but every recorded key, theirs
//! included, must sit inside the metric namespace.
//!
//! A second scenario is paper-shaped: an 8 × 2 ILP design over the
//! full-scale seeded ship set, where horizons branch. It pins the
//! outcome and the solver effort against fixed numbers, so a scheduler
//! that builds the same wrong model on every path (and so agrees with
//! itself) still fails here.
//!
//! A third pins swath coverage of low-res and high-res designs over a
//! scaled static set and a moving one: the union of every frame's
//! membership, so it catches a membership kernel that is wrong the
//! same way on every path.
//!
//! If an intentional pipeline change shifts these numbers, re-pin the
//! `GOLDEN_*` constants from the values in the assertion message —
//! that is the point of the test: drift must be noticed, not silent.

use eagleeye::core::clustering::ClusteringMethod;
use eagleeye::core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, CoverageReport, SchedulerKind,
};
use eagleeye::datasets::{Target, TargetSet, Workload};
use eagleeye::geo::GeodeticPoint;
use eagleeye::obs::{valid_key, Metrics, MetricsRegistry};

/// Report-level golden values: (total, captured, captures_commanded,
/// frames_processed, scheduler_calls, ilp_subproblems).
///
/// All four horizons have one task and are solved in closed form, so
/// no ILP subproblem runs and every `ilp/*` effort counter reads 0
/// (DESIGN.md §15.7); the full-scale golden below keeps the LP pinned.
const GOLDEN_REPORT: (usize, usize, usize, usize, usize, usize) = (80, 4, 4, 360, 4, 0);

/// Every counter the pipeline records for this scenario, in key order.
const GOLDEN_COUNTERS: &[(&str, u64)] = &[
    ("core/captured_targets", 4),
    ("core/captures_commanded", 4),
    ("core/captures_lost_to_faults", 0),
    ("core/deadline_fallbacks", 0),
    ("core/evaluations", 1),
    ("core/frames_leader_down", 0),
    ("core/frames_processed", 360),
    ("core/frames_with_targets", 4),
    ("core/greedy_fallbacks", 0),
    ("core/ilp_horizons", 0),
    ("core/repairs_attempted", 0),
    ("core/scheduler_calls", 4),
    ("core/tasks_dropped_by_failures", 0),
    ("core/tasks_reassigned", 0),
    ("ilp/deadline_hits", 0),
    ("ilp/incumbent_updates", 0),
    ("ilp/iteration_limit_hits", 0),
    ("ilp/lp_iterations", 0),
    ("ilp/lp_pivots", 0),
    ("ilp/nodes_explored", 0),
    ("ilp/nodes_pruned", 0),
    ("ilp/subproblems", 0),
    // Warm starts record 0 here: no horizon runs the LP, so no basis is
    // ever offered for reuse.
    ("ilp/warm_rejects", 0),
    ("ilp/warm_starts", 0),
    ("orbit/grid_propagations", 3),
    ("orbit/propagation_calls", 360),
    ("orbit/trig_hits", 3),
];

/// Targets strung under the early passes of the phase-offset leader
/// groups (same shape the evaluator's own determinism test uses), with
/// mixed priorities so scheduling order matters.
fn scenario_targets() -> TargetSet {
    (0..80)
        .map(|i| {
            let lat = -40.0 + 80.0 * i as f64 / 80.0;
            let lon = 0.35 * (i % 5) as f64;
            Target::fixed(
                GeodeticPoint::from_degrees(lat, lon, 0.0).unwrap(),
                1.0 + (i % 3) as f64,
            )
        })
        .collect()
}

fn config() -> ConstellationConfig {
    ConstellationConfig::EagleEye {
        groups: 3,
        followers_per_group: 1,
        scheduler: SchedulerKind::Ilp,
        clustering: ClusteringMethod::Ilp,
    }
}

fn run(threads: usize) -> (CoverageReport, MetricsRegistry) {
    let metrics = Metrics::enabled();
    let options = CoverageOptions {
        duration_s: 1_800.0,
        threads,
        metrics: metrics.clone(),
        ..CoverageOptions::default()
    };
    let targets = scenario_targets();
    let eval = CoverageEvaluator::new(&targets, options);
    let report = eval.evaluate(&config()).expect("evaluation succeeds");
    (report, metrics.snapshot())
}

fn pipeline_counters(snap: &MetricsRegistry) -> Vec<(String, u64)> {
    snap.counters().map(|(k, v)| (k.to_string(), v)).collect()
}

#[test]
fn report_and_counters_match_the_golden_snapshot() {
    let (report, snap) = run(1);
    let report_key = (
        report.total,
        report.captured,
        report.captures_commanded,
        report.frames_processed,
        report.scheduler_calls,
        report.ilp_subproblems,
    );
    assert_eq!(
        report_key, GOLDEN_REPORT,
        "report drifted from the golden snapshot"
    );
    // The miniature scenario must be solvable without solver stress,
    // otherwise wall-clock deadlines could make the snapshot flaky.
    assert_eq!(snap.counter("ilp/deadline_hits"), 0);
    assert_eq!(snap.counter("ilp/iteration_limit_hits"), 0);

    let actual = pipeline_counters(&snap);
    let expected: Vec<(String, u64)> = GOLDEN_COUNTERS
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    assert_eq!(
        actual, expected,
        "\ncounters drifted from the golden snapshot; actual:\n{actual:#?}"
    );
}

/// Every key a traced evaluation records, timers and gauges included,
/// is inside the DESIGN.md §10.2 namespace, however it was built.
#[test]
fn recorded_keys_stay_in_the_namespace() {
    let (_, snap) = run(4);
    let outside: Vec<&str> = snap
        .counters()
        .map(|(k, _)| k)
        .chain(snap.gauges().map(|(k, _)| k))
        .chain(snap.timers().map(|(k, _)| k))
        .chain(snap.histograms().map(|(k, _)| k))
        .filter(|k| !valid_key(k))
        .collect();
    assert!(
        outside.is_empty(),
        "keys outside the namespace: {outside:?}"
    );
}

#[test]
fn counters_are_bit_identical_at_one_and_four_threads() {
    let (r1, s1) = run(1);
    let (r4, s4) = run(4);
    assert!(
        r1.same_outcome(&r4),
        "coverage outcome differs across thread counts"
    );
    assert_eq!(pipeline_counters(&s1), pipeline_counters(&s4));
    let histograms = |s: &MetricsRegistry| -> Vec<(String, Vec<u64>, u128, u64)> {
        s.histograms()
            .map(|(k, h)| (k.to_string(), h.counts().to_vec(), h.sum(), h.count()))
            .collect()
    };
    assert_eq!(histograms(&s1), histograms(&s4));
}

/// The full-scale golden: (captured, `captured_value` bits,
/// `ilp/nodes_explored`, `ilp/lp_pivots`). The 125 one-task horizons,
/// solved in closed form, count no effort.
const GOLDEN_FULL_SCALE: (usize, u64, u64, u64) = (236, 0x40663f2d7470b72a, 105, 837);

#[test]
fn full_scale_ilp_design_matches_the_golden_outcome_and_effort() {
    let targets = Workload::ShipDetection.generate_scaled(1.0, 3_600.0, 7);
    let metrics = Metrics::enabled();
    let options = CoverageOptions {
        duration_s: 3_600.0,
        metrics: metrics.clone(),
        ..CoverageOptions::default()
    };
    let report = CoverageEvaluator::new(&targets, options)
        .evaluate(&ConstellationConfig::eagleeye(8, 2))
        .expect("evaluation succeeds");
    let snap = metrics.snapshot();
    // Horizons must branch, or the pin would not cover branch-and-bound.
    assert!(
        snap.counter("ilp/nodes_explored") > snap.counter("ilp/subproblems"),
        "no horizon branched"
    );
    assert_eq!(snap.counter("ilp/deadline_hits"), 0);
    assert_eq!(snap.counter("ilp/iteration_limit_hits"), 0);
    let got = (
        report.captured,
        report.captured_value.to_bits(),
        snap.counter("ilp/nodes_explored"),
        snap.counter("ilp/lp_pivots"),
    );
    assert_eq!(
        got, GOLDEN_FULL_SCALE,
        "full-scale outcome or solver effort drifted; got ({}, {:#018x}, {}, {})",
        got.0, got.1, got.2, got.3
    );
}

/// Swath goldens: `(workload, config label, captured, captured_value
/// bits, frames_processed)` for the low-res and high-res swath designs
/// over a scaled static set (Lake 1.4M) and a moving one (Airplane
/// Tracking). Swath coverage is the union of every frame's membership,
/// so these pin the membership kernel itself: a kernel that drops,
/// duplicates or misplaces a member moves `captured` or the value bits.
const GOLDEN_SWATH: &[(&str, &str, usize, u64, usize)] = &[
    (
        "Lake Monitoring (1.4M)",
        "low-res-only(8)",
        1314,
        0x4094fae2157a4fff,
        1920,
    ),
    (
        "Lake Monitoring (1.4M)",
        "high-res-only(8)",
        136,
        0x406155965ac6594e,
        1920,
    ),
    (
        "Airplane Tracking",
        "low-res-only(8)",
        250,
        0x40672ceb23170f72,
        1920,
    ),
    (
        "Airplane Tracking",
        "high-res-only(8)",
        36,
        0x403ab7ef539c997a,
        1920,
    ),
];

#[test]
fn swath_designs_match_the_golden_membership() {
    let workloads = [
        (Workload::LakeMonitoring1M4, 0.25),
        (Workload::AirplaneTracking, 1.0),
    ];
    let mut got = Vec::new();
    for (workload, scale) in workloads {
        let targets = workload.generate_scaled(scale, 3_600.0, 7);
        let options = CoverageOptions {
            duration_s: 3_600.0,
            ..CoverageOptions::default()
        };
        let eval = CoverageEvaluator::new(&targets, options);
        for config in [
            ConstellationConfig::LowResOnly { satellites: 8 },
            ConstellationConfig::HighResOnly { satellites: 8 },
        ] {
            let report = eval.evaluate(&config).expect("evaluation succeeds");
            got.push((
                workload.label(),
                config.label(),
                report.captured,
                report.captured_value.to_bits(),
                report.frames_processed,
            ));
        }
    }
    let listing: String = got
        .iter()
        .map(|(w, c, n, v, f)| format!("    ({w:?}, {c:?}, {n}, {v:#018x}, {f}),\n"))
        .collect();
    let want: Vec<_> = GOLDEN_SWATH
        .iter()
        .map(|&(w, c, n, v, f)| (w, c.to_string(), n, v, f))
        .collect();
    assert_eq!(got, want, "swath membership drifted; got:\n{listing}");
}
