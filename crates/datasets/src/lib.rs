//! Synthetic geospatial target datasets reproducing the EagleEye
//! evaluation workloads.
//!
//! The paper evaluates on four real datasets that are not redistributable
//! (Global Fishing Watch ship positions, Spire airplane tracks,
//! HydroLAKES lake polygons, and a Kaggle oil-tank imagery set). Per the
//! reproduction ground rules (see DESIGN.md §"Substitutions"), this crate
//! generates seeded synthetic datasets that match each workload's
//! *scheduling-relevant statistics* — total target count and spatial
//! clustering structure — because the per-frame target-count distribution
//! (paper Fig. 12b) is what drives every scheduling and coverage result.
//!
//! * [`ShipGenerator`] — 19,119 ships concentrated on great-circle
//!   shipping lanes between major ports, plus coastal scatter.
//! * [`AirplaneGenerator`] — 55,196 flights over 24 h between major
//!   airports, *moving* at jet ground speeds; a flight exists only
//!   between its departure and arrival times (this is why Low-Res Only
//!   converges to ~80 % in the paper's Fig. 11a).
//! * [`LakeGenerator`] — boreal-clustered lakes in the paper's two size
//!   bands: 166,588 lakes of 1–10 km² and 1,410,999 of 0.1–10 km².
//! * [`OilTankGenerator`] — tank farms near ports with per-tank diameter
//!   and fill level, the ground truth for the volume-estimation study
//!   (paper Fig. 3).
//!
//! All generators are deterministic in their seed.
//!
//! # Example
//!
//! ```
//! use eagleeye_datasets::{ShipGenerator, Workload};
//!
//! let ships = ShipGenerator::new().with_count(500).generate(42);
//! assert_eq!(ships.len(), 500);
//! // Deterministic in the seed:
//! let again = ShipGenerator::new().with_count(500).generate(42);
//! assert_eq!(ships.target(0).position, again.target(0).position);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod airplanes;
mod lakes;
mod oiltanks;
mod ships;
mod target;
mod world;

pub use airplanes::AirplaneGenerator;
pub use lakes::{LakeGenerator, LakeSizeBand};
pub use oiltanks::{OilTank, OilTankGenerator, TankFarm};
pub use ships::ShipGenerator;
pub use target::{BucketView, Member, Target, TargetSet};

/// The four evaluation workloads of the paper, used to label experiment
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Ship detection (Global Fishing Watch scale: 19,119 targets).
    ShipDetection,
    /// Airplane tracking (Spire scale: 55,196 moving targets).
    AirplaneTracking,
    /// Lake monitoring, 1–10 km² band (166,588 targets).
    LakeMonitoring166K,
    /// Lake monitoring, 0.1–10 km² band (1,410,999 targets).
    LakeMonitoring1M4,
}

impl Workload {
    /// All four workloads in the paper's presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::ShipDetection,
        Workload::AirplaneTracking,
        Workload::LakeMonitoring166K,
        Workload::LakeMonitoring1M4,
    ];

    /// The paper's full-scale target count for this workload.
    pub fn paper_count(self) -> usize {
        match self {
            Workload::ShipDetection => 19_119,
            Workload::AirplaneTracking => 55_196,
            Workload::LakeMonitoring166K => 166_588,
            Workload::LakeMonitoring1M4 => 1_410_999,
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Workload::ShipDetection => "Ship Detection",
            Workload::AirplaneTracking => "Airplane Tracking",
            Workload::LakeMonitoring166K => "Lake Monitoring (166K)",
            Workload::LakeMonitoring1M4 => "Lake Monitoring (1.4M)",
        }
    }

    /// Generates this workload's target set at a scaled-down count
    /// (`scale` in `(0, 1]`), preserving spatial structure. The airplane
    /// workload spans `horizon_s` seconds of motion.
    pub fn generate_scaled(self, scale: f64, horizon_s: f64, seed: u64) -> TargetSet {
        let count = ((self.paper_count() as f64 * scale).round() as usize).max(1);
        match self {
            Workload::ShipDetection => ShipGenerator::new().with_count(count).generate(seed),
            Workload::AirplaneTracking => AirplaneGenerator::new()
                .with_count(count)
                .with_horizon_s(horizon_s)
                .generate(seed),
            Workload::LakeMonitoring166K => LakeGenerator::new(LakeSizeBand::OneToTenKm2)
                .with_count(count)
                .generate(seed),
            Workload::LakeMonitoring1M4 => LakeGenerator::new(LakeSizeBand::TenthToTenKm2)
                .with_count(count)
                .generate(seed),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts_match_the_paper() {
        assert_eq!(Workload::ShipDetection.paper_count(), 19_119);
        assert_eq!(Workload::AirplaneTracking.paper_count(), 55_196);
        assert_eq!(Workload::LakeMonitoring166K.paper_count(), 166_588);
        assert_eq!(Workload::LakeMonitoring1M4.paper_count(), 1_410_999);
    }

    #[test]
    fn scaled_generation_respects_scale() {
        let t = Workload::ShipDetection.generate_scaled(0.01, 0.0, 7);
        assert_eq!(t.len(), 191);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            Workload::ALL.iter().map(|w| w.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
