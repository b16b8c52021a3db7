use crate::target::{Target, TargetSet};
use crate::world;
use eagleeye_geo::greatcircle;

/// Generates a ship-detection workload: a static snapshot of ships
/// concentrated on great-circle shipping lanes between major ports, with
/// additional scatter near the ports themselves.
///
/// Matches the paper's Global Fishing Watch workload: 19,119 ships,
/// strongly clustered (so a single low-resolution frame over a lane can
/// contain tens of ships — the regime in which clustering and
/// multi-follower scheduling matter). The paper's dataset is a snapshot
/// without motion, so generated ships are static.
///
/// # Example
///
/// ```
/// use eagleeye_datasets::ShipGenerator;
///
/// let set = ShipGenerator::new().with_count(1000).generate(1);
/// assert_eq!(set.len(), 1000);
/// assert_eq!(set.max_speed_m_s(), 0.0); // snapshot: static
/// ```
#[derive(Debug, Clone)]
pub struct ShipGenerator {
    count: usize,
    lane_fraction: f64,
    lane_sigma_m: f64,
    port_sigma_m: f64,
}

impl Default for ShipGenerator {
    fn default() -> Self {
        ShipGenerator {
            count: 19_119,
            lane_fraction: 0.7,
            lane_sigma_m: 30_000.0,
            port_sigma_m: 80_000.0,
        }
    }
}

impl ShipGenerator {
    /// Creates a generator with the paper's full-scale defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of ships.
    pub fn with_count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Generates the target set, deterministic in `seed`.
    pub fn generate(&self, seed: u64) -> TargetSet {
        let mut rng = world::rng(seed ^ SHIP_SEED_TAG);
        let ports = world::PORTS;
        (0..self.count)
            .map(|_| {
                let value = rng.range_f64(0.5, 1.0); // detection-confidence proxy
                let on_lane = rng.chance(self.lane_fraction);
                let position = if on_lane {
                    // Pick a lane between two distinct ports, a point along it,
                    // and a Gaussian-ish cross-track offset.
                    let a = ports[rng.range_usize(0, ports.len())];
                    let mut b = ports[rng.range_usize(0, ports.len())];
                    while b == a {
                        b = ports[rng.range_usize(0, ports.len())];
                    }
                    let pa = world::fixed_point(a.0, a.1);
                    let pb = world::fixed_point(b.0, b.1);
                    let frac = rng.next_f64();
                    let total = greatcircle::distance_m(&pa, &pb);
                    let bearing = greatcircle::initial_bearing_rad(&pa, &pb);
                    let along = greatcircle::destination(&pa, bearing, total * frac).unwrap_or(pa);
                    let offset = rng.gaussian() * self.lane_sigma_m;
                    let side = bearing + std::f64::consts::FRAC_PI_2;
                    greatcircle::destination(&along, side, offset).unwrap_or(along)
                } else {
                    let p = ports[rng.range_usize(0, ports.len())];
                    let center = world::fixed_point(p.0, p.1);
                    let r = rng.next_f64().sqrt() * self.port_sigma_m;
                    let theta = rng.range_f64(0.0, std::f64::consts::TAU);
                    greatcircle::destination(&center, theta, r).unwrap_or(center)
                };
                Target::fixed(position, value)
            })
            .collect()
    }
}

/// Seed-mixing constant so different generators fed the same user seed
/// still draw independent streams.
const SHIP_SEED_TAG: u64 = 0x9e37_79b9_7f4a_7c15;

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_geo::GeodeticPoint;

    #[test]
    fn count_is_exact() {
        assert_eq!(ShipGenerator::new().with_count(123).generate(0).len(), 123);
    }

    #[test]
    fn default_count_matches_paper() {
        assert_eq!(ShipGenerator::default().count, 19_119);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = ShipGenerator::new().with_count(50).generate(7);
        let b = ShipGenerator::new().with_count(50).generate(7);
        for i in 0..50 {
            assert_eq!(a.target(i).position, b.target(i).position);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ShipGenerator::new().with_count(50).generate(1);
        let b = ShipGenerator::new().with_count(50).generate(2);
        let same = (0..50)
            .filter(|&i| a.target(i).position == b.target(i).position)
            .count();
        assert!(same < 5);
    }

    #[test]
    fn ships_are_clustered_not_uniform() {
        // Measure clustering: the fraction of ships with a neighbor within
        // 100 km is far higher than for a uniform global distribution.
        let set = ShipGenerator::new().with_count(500).generate(3);
        let mut near = 0;
        for i in 0..set.len() {
            let p = set.target(i).position;
            let hits = set.query_radius(&p, 100_000.0, 0.0);
            if hits.len() > 1 {
                near += 1;
            }
        }
        let frac = near as f64 / set.len() as f64;
        // Uniform 500 points on Earth: expected neighbor-within-100km
        // fraction ≈ 500·π·(100km)²/510M km² ≈ 3%. Lanes + port clusters
        // push it an order of magnitude higher even at this small count.
        assert!(frac > 0.25, "clustering fraction {frac}");
    }

    #[test]
    fn values_are_confidence_like() {
        let set = ShipGenerator::new().with_count(200).generate(4);
        for t in set.iter() {
            assert!(t.value >= 0.5 && t.value < 1.0);
        }
    }

    #[test]
    fn positions_are_valid() {
        let set = ShipGenerator::new().with_count(200).generate(5);
        for t in set.iter() {
            let _p: GeodeticPoint = t.position; // constructed valid by type
            assert!(t.position.lat_deg().abs() <= 90.0);
        }
    }
}
