//! Cross-crate integration tests: datasets → detection → clustering →
//! scheduling → coverage, over real orbital geometry.

use eagleeye::core::clustering::ClusteringMethod;
use eagleeye::core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, SchedulerKind,
};
use eagleeye::datasets::{ShipGenerator, Target, TargetSet};
use eagleeye::geo::GeodeticPoint;
use eagleeye::sim::{FaultKind, FaultPlan};
use std::sync::Arc;

/// Targets strung under the first pass of a RAAN-0 polar orbit.
fn meridian_targets(n: usize) -> TargetSet {
    (0..n)
        .map(|i| {
            let lat = -50.0 + 100.0 * i as f64 / n as f64;
            let lon = 0.4 * ((i % 7) as f64 - 3.0);
            Target::fixed(GeodeticPoint::from_degrees(lat, lon, 0.0).unwrap(), 1.0)
        })
        .collect()
}

fn options(duration_s: f64) -> CoverageOptions {
    CoverageOptions {
        duration_s,
        ..CoverageOptions::default()
    }
}

#[test]
fn coverage_is_deterministic_under_fixed_seed() {
    let targets = ShipGenerator::new().with_count(800).generate(3);
    let eval = CoverageEvaluator::new(&targets, options(2_400.0));
    let a = eval.evaluate(&ConstellationConfig::eagleeye(2, 1)).unwrap();
    let b = eval.evaluate(&ConstellationConfig::eagleeye(2, 1)).unwrap();
    assert_eq!(a.captured, b.captured);
    assert_eq!(a.captures_commanded, b.captures_commanded);
    assert_eq!(a.per_frame_target_counts, b.per_frame_target_counts);
}

#[test]
fn coverage_is_monotone_in_satellite_count() {
    let targets = meridian_targets(80);
    let eval = CoverageEvaluator::new(&targets, options(3_000.0));
    let mut last = 0;
    for sats in [1usize, 2, 4] {
        let r = eval
            .evaluate(&ConstellationConfig::LowResOnly { satellites: sats })
            .unwrap();
        assert!(
            r.captured >= last,
            "coverage dropped from {last} to {} at {sats} satellites",
            r.captured
        );
        last = r.captured;
    }
    assert!(
        last > 0,
        "the meridian workload must be covered by some satellite"
    );
}

#[test]
fn configuration_ordering_matches_the_paper() {
    // At equal satellite count: low-res ceiling >= eagleeye > high-res.
    let targets = meridian_targets(120);
    let eval = CoverageEvaluator::new(&targets, options(3_000.0));
    let low = eval
        .evaluate(&ConstellationConfig::LowResOnly { satellites: 2 })
        .unwrap();
    let high = eval
        .evaluate(&ConstellationConfig::HighResOnly { satellites: 2 })
        .unwrap();
    let ee = eval.evaluate(&ConstellationConfig::eagleeye(1, 1)).unwrap();
    assert!(
        low.captured >= ee.captured,
        "low {} < ee {}",
        low.captured,
        ee.captured
    );
    assert!(
        ee.captured >= high.captured,
        "ee {} < high {}",
        ee.captured,
        high.captured
    );
    assert!(ee.captured > 0);
}

#[test]
fn ilp_scheduling_never_loses_to_greedy_end_to_end() {
    let targets = ShipGenerator::new().with_count(2_500).generate(9);
    let eval = CoverageEvaluator::new(&targets, options(3_600.0));
    let mk = |scheduler| ConstellationConfig::EagleEye {
        groups: 2,
        followers_per_group: 1,
        scheduler,
        clustering: ClusteringMethod::Ilp,
    };
    let ilp = eval.evaluate(&mk(SchedulerKind::Ilp)).unwrap();
    let greedy = eval.evaluate(&mk(SchedulerKind::Greedy)).unwrap();
    assert!(
        ilp.captured >= greedy.captured,
        "ilp {} < greedy {}",
        ilp.captured,
        greedy.captured
    );
}

#[test]
fn clustering_never_hurts_coverage() {
    let targets = ShipGenerator::new().with_count(2_500).generate(11);
    let eval = CoverageEvaluator::new(&targets, options(3_600.0));
    let mk = |clustering| ConstellationConfig::EagleEye {
        groups: 2,
        followers_per_group: 1,
        scheduler: SchedulerKind::Ilp,
        clustering,
    };
    let with = eval.evaluate(&mk(ClusteringMethod::Ilp)).unwrap();
    let without = eval.evaluate(&mk(ClusteringMethod::None)).unwrap();
    assert!(
        with.captured >= without.captured,
        "clustered {} < unclustered {}",
        with.captured,
        without.captured
    );
}

#[test]
fn recall_sweep_degrades_gracefully() {
    // Fig. 15's effect: coverage at recall 0.5 stays above half the
    // full-recall coverage thanks to serendipitous co-capture.
    let targets = meridian_targets(150);
    let full = {
        let eval = CoverageEvaluator::new(&targets, options(3_000.0));
        eval.evaluate(&ConstellationConfig::eagleeye(1, 1))
            .unwrap()
            .captured
    };
    let half = {
        let mut o = options(3_000.0);
        o.recall = 0.5;
        let eval = CoverageEvaluator::new(&targets, o);
        eval.evaluate(&ConstellationConfig::eagleeye(1, 1))
            .unwrap()
            .captured
    };
    assert!(full > 0);
    assert!(half > 0, "recall 0.5 must still capture something");
    assert!(
        half * 10 >= full * 4,
        "half-recall coverage {half} below 40% of full {full}"
    );
}

#[test]
fn mix_camera_degrades_with_compute_time() {
    let targets = meridian_targets(150);
    let eval = CoverageEvaluator::new(&targets, options(3_000.0));
    let mut last = usize::MAX;
    for compute in [1.4, 5.5, 11.8] {
        let r = eval
            .evaluate(&ConstellationConfig::MixCamera {
                satellites: 2,
                compute_time_s: compute,
            })
            .unwrap();
        assert!(
            r.captured <= last,
            "coverage increased from {last} to {} at compute {compute}",
            r.captured
        );
        last = r.captured;
    }
}

#[test]
fn failed_follower_reduces_but_failure_free_group_recovers() {
    let targets = meridian_targets(150);
    let healthy = {
        let eval = CoverageEvaluator::new(&targets, options(3_000.0));
        eval.evaluate(&ConstellationConfig::eagleeye(1, 2))
            .unwrap()
            .captured
    };
    let degraded = {
        let mut o = options(3_000.0);
        o.fault_plan = Some(Arc::new(FaultPlan::new(0).with_fault(
            FaultKind::FollowerOutage { follower: 0 },
            0.0,
            f64::INFINITY,
        )));
        let eval = CoverageEvaluator::new(&targets, o);
        eval.evaluate(&ConstellationConfig::eagleeye(1, 2))
            .unwrap()
            .captured
    };
    assert!(degraded <= healthy);
    assert!(degraded > 0, "the surviving follower must keep capturing");
}

#[test]
fn moving_targets_are_captured_at_their_actual_positions() {
    // A plane moving across the track: the evaluator re-projects at
    // capture time, so coverage still happens within the slack bound.
    let mut t = Target::fixed(GeodeticPoint::from_degrees(0.0, 0.1, 0.0).unwrap(), 1.0);
    t.motion = Some((50.0, 1.2)); // brisk ship / slow plane
    let set = TargetSet::new(vec![t]);
    let eval = CoverageEvaluator::new(&set, options(3_000.0));
    let r = eval
        .evaluate(&ConstellationConfig::LowResOnly { satellites: 4 })
        .unwrap();
    assert_eq!(r.total, 1);
}
