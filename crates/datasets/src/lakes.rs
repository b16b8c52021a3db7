use crate::target::{Target, TargetSet};
use crate::world;

/// The two lake-size bands evaluated in the paper (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LakeSizeBand {
    /// Lakes of 1–10 km² — 166,588 lakes at full scale.
    OneToTenKm2,
    /// Lakes of 0.1–10 km² — 1,410,999 lakes at full scale (the paper's
    /// high-density regime).
    TenthToTenKm2,
}

impl LakeSizeBand {
    /// Full-scale lake count for this band.
    pub fn paper_count(self) -> usize {
        match self {
            LakeSizeBand::OneToTenKm2 => 166_588,
            LakeSizeBand::TenthToTenKm2 => 1_410_999,
        }
    }

    /// Size range in km².
    fn area_range_km2(self) -> (f64, f64) {
        match self {
            LakeSizeBand::OneToTenKm2 => (1.0, 10.0),
            LakeSizeBand::TenthToTenKm2 => (0.1, 10.0),
        }
    }
}

/// Generates a lake-monitoring workload: static lake centroids clustered
/// in boreal shield terrain (where HydroLAKES density peaks), with a
/// power-law area distribution within the chosen band.
///
/// This is the paper's high-target-density regime; the 1.4 M band drives
/// the multi-follower and clustering results (Fig. 11c, Fig. 14c).
///
/// # Example
///
/// ```
/// use eagleeye_datasets::{LakeGenerator, LakeSizeBand};
///
/// let lakes = LakeGenerator::new(LakeSizeBand::OneToTenKm2)
///     .with_count(1000)
///     .generate(11);
/// assert_eq!(lakes.len(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct LakeGenerator {
    band: LakeSizeBand,
    count: usize,
}

impl LakeGenerator {
    /// Creates a generator at the band's full paper scale.
    pub fn new(band: LakeSizeBand) -> Self {
        LakeGenerator {
            band,
            count: band.paper_count(),
        }
    }

    /// Sets the number of lakes.
    pub fn with_count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// The configured band.
    pub fn band(&self) -> LakeSizeBand {
        self.band
    }

    /// Generates the target set, deterministic in `seed`.
    ///
    /// Each lake's value is 1.0 (all lakes equally important for bloom
    /// monitoring); lake area in km² is folded into the value scale used
    /// by [`crate::OilTankGenerator`]-style studies via a size-dependent
    /// bonus of up to 0.2 so schedulers have non-uniform priorities.
    pub fn generate(&self, seed: u64) -> TargetSet {
        let mut rng = world::rng(seed ^ LAKE_SEED_TAG);
        let (a_min, a_max) = self.band.area_range_km2();
        (0..self.count)
            .map(|_| {
                let position = world::sample_in_boxes(&mut rng, world::LAND_BOXES);
                // Pareto-ish area distribution: many small lakes, few large.
                let u: f64 = rng.next_f64();
                let area = a_min * (a_max / a_min).powf(u * u);
                let value = 1.0 + 0.2 * (area - a_min) / (a_max - a_min);
                Target::fixed(position, value)
            })
            .collect()
    }
}

const LAKE_SEED_TAG: u64 = 0x1656_67b1_9e37_79f9;

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_geo::GeodeticPoint;

    #[test]
    fn counts_match_bands() {
        assert_eq!(LakeGenerator::new(LakeSizeBand::OneToTenKm2).count, 166_588);
        assert_eq!(
            LakeGenerator::new(LakeSizeBand::TenthToTenKm2).count,
            1_410_999
        );
    }

    #[test]
    fn boreal_clustering_dominates() {
        let set = LakeGenerator::new(LakeSizeBand::OneToTenKm2)
            .with_count(2000)
            .generate(2);
        let boreal = set
            .iter()
            .filter(|t| t.position.lat_deg() >= 50.0 && t.position.lat_deg() <= 70.0)
            .count();
        let frac = boreal as f64 / set.len() as f64;
        assert!(frac > 0.5, "boreal fraction {frac}");
    }

    #[test]
    fn lakes_are_static_and_permanent() {
        let set = LakeGenerator::new(LakeSizeBand::TenthToTenKm2)
            .with_count(100)
            .generate(3);
        for t in set.iter() {
            assert!(t.motion.is_none());
            assert!(t.exists_at(0.0) && t.exists_at(1e9));
        }
    }

    #[test]
    fn values_reward_larger_lakes_modestly() {
        let set = LakeGenerator::new(LakeSizeBand::OneToTenKm2)
            .with_count(500)
            .generate(4);
        for t in set.iter() {
            assert!(t.value >= 1.0 && t.value <= 1.2 + 1e-9);
        }
    }

    #[test]
    fn determinism() {
        let a = LakeGenerator::new(LakeSizeBand::OneToTenKm2)
            .with_count(64)
            .generate(5);
        let b = LakeGenerator::new(LakeSizeBand::OneToTenKm2)
            .with_count(64)
            .generate(5);
        for i in 0..64 {
            let pa: GeodeticPoint = a.target(i).position;
            let pb: GeodeticPoint = b.target(i).position;
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn density_difference_between_bands() {
        // Same spatial structure, ~8.5x the count: per-frame density in
        // the 1.4M band must exceed the 166K band.
        let small = LakeGenerator::new(LakeSizeBand::OneToTenKm2)
            .with_count(2000)
            .generate(6);
        let large = LakeGenerator::new(LakeSizeBand::TenthToTenKm2)
            .with_count(17_000)
            .generate(6);
        let center = GeodeticPoint::from_degrees(60.0, -100.0, 0.0).unwrap();
        let r = 500_000.0;
        let s = small.query_radius(&center, r, 0.0).len();
        let l = large.query_radius(&center, r, 0.0).len();
        assert!(l > 3 * s, "small {s}, large {l}");
    }
}
