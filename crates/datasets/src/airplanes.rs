use crate::target::{Target, TargetSet};
use crate::world;
use eagleeye_geo::greatcircle;

/// Generates an airplane-tracking workload: flights between major
/// airports, moving at jet ground speeds along great circles.
///
/// Matches the paper's Spire workload: 55,196 planes tracked over 24
/// hours, **with motion modeled** — each flight exists only between its
/// departure and arrival times. The paper notes that some targets appear
/// only late in the simulation, which caps even the Low-Res Only
/// baseline's achievable coverage near 80 % (Fig. 11a); the existence
/// windows reproduce that effect.
///
/// # Example
///
/// ```
/// use eagleeye_datasets::AirplaneGenerator;
///
/// let set = AirplaneGenerator::new()
///     .with_count(100)
///     .with_horizon_s(86_400.0)
///     .generate(1);
/// assert_eq!(set.len(), 100);
/// assert!(set.max_speed_m_s() > 200.0); // jets
/// ```
#[derive(Debug, Clone)]
pub struct AirplaneGenerator {
    count: usize,
    horizon_s: f64,
    min_speed_m_s: f64,
    max_speed_m_s: f64,
}

impl Default for AirplaneGenerator {
    fn default() -> Self {
        AirplaneGenerator {
            count: 55_196,
            horizon_s: 86_400.0,
            min_speed_m_s: 200.0,
            max_speed_m_s: 260.0,
        }
    }
}

impl AirplaneGenerator {
    /// Creates a generator with the paper's full-scale defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of flights.
    pub fn with_count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Sets the simulation horizon over which departures are spread.
    pub fn with_horizon_s(mut self, horizon_s: f64) -> Self {
        self.horizon_s = horizon_s.max(0.0);
        self
    }

    /// Generates the target set, deterministic in `seed`.
    pub fn generate(&self, seed: u64) -> TargetSet {
        let mut rng = world::rng(seed ^ PLANE_SEED_TAG);
        let airports = world::AIRPORTS;
        (0..self.count)
            .map(|_| {
                let a = airports[rng.range_usize(0, airports.len())];
                let mut b = airports[rng.range_usize(0, airports.len())];
                while b == a {
                    b = airports[rng.range_usize(0, airports.len())];
                }
                let pa = world::fixed_point(a.0, a.1);
                let pb = world::fixed_point(b.0, b.1);
                let route_m = greatcircle::distance_m(&pa, &pb);
                let bearing = greatcircle::initial_bearing_rad(&pa, &pb);
                let speed = rng.range_f64(self.min_speed_m_s, self.max_speed_m_s);
                let duration = route_m / speed;
                // Departures uniform over the horizon: flights departing near
                // the end exist only briefly (matching the paper's
                // "targets appear in the later period" effect).
                let depart = rng.range_f64(0.0, self.horizon_s.max(1.0));

                let mut t = Target::fixed(pa, rng.range_f64(0.5, 1.0));
                t.motion = Some((speed, bearing));
                t.appears_at_s = depart;
                t.disappears_at_s = depart + duration;
                t
            })
            .collect()
    }
}

const PLANE_SEED_TAG: u64 = 0xc2b2_ae3d_27d4_eb4f;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_determinism() {
        let a = AirplaneGenerator::new().with_count(40).generate(9);
        let b = AirplaneGenerator::new().with_count(40).generate(9);
        assert_eq!(a.len(), 40);
        for i in 0..40 {
            assert_eq!(a.target(i).appears_at_s, b.target(i).appears_at_s);
        }
    }

    #[test]
    fn default_count_matches_paper() {
        assert_eq!(AirplaneGenerator::default().count, 55_196);
    }

    #[test]
    fn flights_have_existence_windows() {
        let set = AirplaneGenerator::new().with_count(200).generate(3);
        for t in set.iter() {
            assert!(t.appears_at_s >= 0.0);
            assert!(t.disappears_at_s > t.appears_at_s);
            assert!(t.disappears_at_s.is_finite());
        }
    }

    #[test]
    fn speeds_are_jet_like() {
        let set = AirplaneGenerator::new().with_count(200).generate(4);
        for t in set.iter() {
            let v = t.speed_m_s();
            assert!((200.0..260.0).contains(&v), "speed {v}");
        }
    }

    #[test]
    fn some_flights_appear_late() {
        // The statistic behind the paper's 80% Low-Res ceiling: a fraction
        // of flights depart in the final quarter of the horizon.
        let set = AirplaneGenerator::new()
            .with_count(400)
            .with_horizon_s(86_400.0)
            .generate(5);
        let late = set
            .iter()
            .filter(|t| t.appears_at_s > 0.75 * 86_400.0)
            .count();
        assert!(late > 50, "late departures: {late}");
    }

    #[test]
    fn flights_land_at_their_destination_airport_distance() {
        let set = AirplaneGenerator::new().with_count(50).generate(6);
        for t in set.iter() {
            let flown = greatcircle::distance_m(&t.position, &t.position_at(t.disappears_at_s));
            let expected = t.speed_m_s() * (t.disappears_at_s - t.appears_at_s);
            assert!((flown - expected).abs() < 1_000.0, "{flown} vs {expected}");
        }
    }
}
