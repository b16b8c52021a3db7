//! Pins the workload-derived digests that bind checkpoints to their
//! scenario.
//!
//! `CoverageEvaluator::scenario_hash` folds in the target count and the
//! target set's total value, and every `CoverageReport` carries that
//! total. A snapshot written by an older build resumes only if these
//! bits are unchanged, so any change to how a `TargetSet` computes or
//! caches its invariants must leave every pin below where it is.
//! The hashes are of the `eagleeye-core/coverage/v3` domain, which
//! hashes every option field-wise; snapshots taken under v2 are
//! rejected as a different scenario.
//!
//! The workloads are one static set (ships) and one moving set
//! (airplanes), both seeded; the configurations are one swath, one
//! greedy EagleEye and one ILP EagleEye design.

use eagleeye_core::clustering::ClusteringMethod;
use eagleeye_core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, SchedulerKind,
};
use eagleeye_datasets::{AirplaneGenerator, ShipGenerator, TargetSet};

fn options() -> CoverageOptions {
    CoverageOptions {
        duration_s: 3600.0,
        ..CoverageOptions::default()
    }
}

fn configs() -> [ConstellationConfig; 3] {
    [
        ConstellationConfig::LowResOnly { satellites: 8 },
        ConstellationConfig::EagleEye {
            groups: 4,
            followers_per_group: 1,
            scheduler: SchedulerKind::Greedy,
            clustering: ClusteringMethod::Greedy,
        },
        ConstellationConfig::eagleeye(8, 2),
    ]
}

/// What one workload is pinned to: the scenario hash of each entry of
/// [`configs`], the total-value bits, and a short swath evaluation's
/// report total-value bits and captured count.
struct Pin {
    hashes: [u64; 3],
    total_value_bits: u64,
    report_captured: usize,
}

fn assert_pinned(name: &str, targets: &TargetSet, pin: &Pin) {
    let eval = CoverageEvaluator::new(targets, options());
    let hashes = configs().map(|c| eval.scenario_hash(&c));
    let report = eval
        .evaluate(&ConstellationConfig::LowResOnly { satellites: 8 })
        .unwrap_or_else(|e| panic!("{name}: evaluate failed: {e}"));
    let got = format!(
        "hashes: [{:#018x}, {:#018x}, {:#018x}], total_value_bits: {:#018x}, \
         report_total_value_bits: {:#018x}, report_captured: {}",
        hashes[0],
        hashes[1],
        hashes[2],
        targets.total_value().to_bits(),
        report.total_value.to_bits(),
        report.captured,
    );
    assert_eq!(
        hashes, pin.hashes,
        "{name}: scenario hashes moved; got {got}"
    );
    assert_eq!(
        targets.total_value().to_bits(),
        pin.total_value_bits,
        "{name}: total value moved; got {got}"
    );
    assert_eq!(
        report.total_value.to_bits(),
        pin.total_value_bits,
        "{name}: report total value moved; got {got}"
    );
    assert_eq!(
        report.captured, pin.report_captured,
        "{name}: report captured count moved; got {got}"
    );
}

#[test]
fn static_workload_digests_are_pinned() {
    let ships = ShipGenerator::new().with_count(3_000).generate(11);
    assert_pinned(
        "ships",
        &ships,
        &Pin {
            hashes: [0x32c3afab65259444, 0x7e84fc6a394cbeab, 0xe4945b908b829bc4],
            total_value_bits: 0x40a1a1310fb9fa57,
            report_captured: 50,
        },
    );
}

#[test]
fn moving_workload_digests_are_pinned() {
    let planes = AirplaneGenerator::new()
        .with_count(3_000)
        .with_horizon_s(3600.0)
        .generate(11);
    assert_pinned(
        "airplanes",
        &planes,
        &Pin {
            hashes: [0xe0812b780da34f09, 0xc2f6ca411b6891a6, 0x35ea3731b868ce89],
            total_value_bits: 0x40a1a207a4931729,
            report_captured: 16,
        },
    );
}
