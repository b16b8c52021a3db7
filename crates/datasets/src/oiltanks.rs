use crate::world;
use eagleeye_geo::{greatcircle, GeodeticPoint};

/// One oil storage tank with ground truth for the volume-estimation
/// study (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OilTank {
    /// Tank center.
    pub position: GeodeticPoint,
    /// Tank (external floating roof) diameter in meters.
    pub diameter_m: f64,
    /// Fill level in `[0, 1]` — the quantity the shadow method estimates.
    pub fill_level: f64,
}

/// A cluster of tanks at one site (refinery / terminal).
#[derive(Debug, Clone, PartialEq)]
pub struct TankFarm {
    /// Farm centroid.
    pub center: GeodeticPoint,
    /// Tanks at this site.
    pub tanks: Vec<OilTank>,
}

/// Generates the oil-tank workload: tank farms near major ports, each a
/// grid-ish cluster of external-floating-roof tanks with known diameter
/// and fill level.
///
/// The paper uses this dataset for the two-stage ML study only (tank
/// detection accuracy and shadow-based volume estimation error vs. GSD,
/// Fig. 3); there is no geographic scheduling evaluation.
///
/// # Example
///
/// ```
/// use eagleeye_datasets::OilTankGenerator;
///
/// let farms = OilTankGenerator::new().with_farm_count(20).generate(1);
/// assert_eq!(farms.len(), 20);
/// let total: usize = farms.iter().map(|f| f.tanks.len()).sum();
/// assert!(total >= 20 * 5);
/// ```
#[derive(Debug, Clone)]
pub struct OilTankGenerator {
    farm_count: usize,
    min_tanks: usize,
    max_tanks: usize,
}

impl Default for OilTankGenerator {
    fn default() -> Self {
        // ~10,000 images in the paper's Kaggle set; model as ~500 sites.
        OilTankGenerator {
            farm_count: 500,
            min_tanks: 5,
            max_tanks: 50,
        }
    }
}

impl OilTankGenerator {
    /// Creates a generator with defaults sized like the paper's dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of tank farms.
    pub fn with_farm_count(mut self, n: usize) -> Self {
        self.farm_count = n;
        self
    }

    /// Sets the per-farm tank count range (inclusive).
    pub fn with_tanks_per_farm(mut self, min: usize, max: usize) -> Self {
        self.min_tanks = min.max(1);
        self.max_tanks = max.max(self.min_tanks);
        self
    }

    /// Generates the farms, deterministic in `seed`.
    pub fn generate(&self, seed: u64) -> Vec<TankFarm> {
        let mut rng = world::rng(seed ^ TANK_SEED_TAG);
        let ports = world::PORTS;
        let mut farms = Vec::with_capacity(self.farm_count);
        for _ in 0..self.farm_count {
            let p = ports[rng.range_usize(0, ports.len())];
            let port = world::fixed_point(p.0, p.1);
            let r = rng.next_f64().sqrt() * 40_000.0;
            let theta = rng.range_f64(0.0, std::f64::consts::TAU);
            let center = greatcircle::destination(&port, theta, r).unwrap_or(port);

            let n = rng.range_usize_inclusive(self.min_tanks, self.max_tanks);
            let cols = (n as f64).sqrt().ceil() as usize;
            let pitch = rng.range_f64(80.0, 150.0);
            let mut tanks = Vec::with_capacity(n);
            for k in 0..n {
                let row = k / cols;
                let col = k % cols;
                let east = (col as f64 - cols as f64 / 2.0) * pitch;
                let north = (row as f64) * pitch;
                let pos = greatcircle::destination(&center, std::f64::consts::FRAC_PI_2, east)
                    .and_then(|q| greatcircle::destination(&q, 0.0, north))
                    .unwrap_or(center);
                tanks.push(OilTank {
                    position: pos,
                    diameter_m: rng.range_f64(20.0, 80.0),
                    fill_level: rng.range_f64(0.05, 0.95),
                });
            }
            farms.push(TankFarm { center, tanks });
        }
        farms
    }
}

const TANK_SEED_TAG: u64 = 0x27d4_eb2f_1656_67b1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{Target, TargetSet};

    /// Flattens the farms to a [`TargetSet`]: one target per farm,
    /// value = tank count.
    fn farms_as_targets(g: &OilTankGenerator, seed: u64) -> TargetSet {
        g.generate(seed)
            .into_iter()
            .map(|f| Target::fixed(f.center, f.tanks.len() as f64))
            .collect()
    }

    #[test]
    fn farm_and_tank_counts() {
        let farms = OilTankGenerator::new()
            .with_farm_count(30)
            .with_tanks_per_farm(5, 10)
            .generate(2);
        assert_eq!(farms.len(), 30);
        for f in &farms {
            assert!((5..=10).contains(&f.tanks.len()));
        }
    }

    #[test]
    fn tanks_cluster_tightly_around_farm() {
        let farms = OilTankGenerator::new().with_farm_count(10).generate(3);
        for f in &farms {
            for t in &f.tanks {
                let d = greatcircle::distance_m(&f.center, &t.position);
                assert!(d < 5_000.0, "tank {d} m from farm center");
            }
        }
    }

    #[test]
    fn fill_levels_and_diameters_in_range() {
        let farms = OilTankGenerator::new().with_farm_count(20).generate(4);
        for f in &farms {
            for t in &f.tanks {
                assert!((0.0..=1.0).contains(&t.fill_level));
                assert!((20.0..80.0).contains(&t.diameter_m));
            }
        }
    }

    #[test]
    fn targets_value_equals_tank_count() {
        let g = OilTankGenerator::new().with_farm_count(15);
        let farms = g.generate(5);
        let targets = farms_as_targets(&g, 5);
        assert_eq!(targets.len(), 15);
        for (i, f) in farms.iter().enumerate() {
            assert_eq!(targets.target(i).value, f.tanks.len() as f64);
        }
    }

    #[test]
    fn determinism() {
        let a = OilTankGenerator::new().with_farm_count(8).generate(6);
        let b = OilTankGenerator::new().with_farm_count(8).generate(6);
        assert_eq!(a, b);
    }
}
