/// Subsystem power and energy constants for a computational nanosatellite.
///
/// Defaults follow the 3U-cubesat parameters of the orbital edge
/// computing literature the paper builds on (§5.3): one body-mounted
/// solar panel, Jetson AGX Orin at 15 W, reaction-wheel ADACS, S-band
/// downlink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    /// Solar harvest power while in sunlight, watts.
    pub solar_harvest_w: f64,
    /// Bus idle power (avionics, thermal, GPS), watts, always on.
    pub idle_w: f64,
    /// Compute power while running inference/scheduling, watts.
    pub compute_w: f64,
    /// Energy per image capture, joules.
    pub camera_j_per_frame: f64,
    /// ADACS power while actively slewing, watts.
    pub adacs_slew_w: f64,
    /// ADACS station-keeping power, watts, always on.
    pub adacs_idle_w: f64,
    /// Radio transmit power, watts.
    pub tx_w: f64,
}

impl PowerProfile {
    /// The paper's 3U cubesat operating point.
    pub fn cubesat_3u() -> Self {
        PowerProfile {
            solar_harvest_w: 7.4,
            idle_w: 0.7,
            compute_w: 15.0,
            camera_j_per_frame: 5.0,
            adacs_slew_w: 4.0,
            adacs_idle_w: 0.5,
            tx_w: 8.0,
        }
    }

    /// Harvestable energy over one orbit, joules.
    pub fn harvestable_per_orbit_j(&self, sunlit_fraction: f64, period_s: f64) -> f64 {
        self.solar_harvest_w * sunlit_fraction.clamp(0.0, 1.0) * period_s.max(0.0)
    }
}

impl Default for PowerProfile {
    fn default() -> Self {
        Self::cubesat_3u()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harvestable_energy_magnitude() {
        // 7.4 W * 0.62 * 5640 s ≈ 25.9 kJ per orbit.
        let p = PowerProfile::cubesat_3u();
        let e = p.harvestable_per_orbit_j(0.62, 5_640.0);
        assert!((e - 25_876.0).abs() < 500.0, "harvest {e}");
    }

    #[test]
    fn sunlit_fraction_is_clamped() {
        let p = PowerProfile::cubesat_3u();
        assert_eq!(
            p.harvestable_per_orbit_j(2.0, 100.0),
            p.harvestable_per_orbit_j(1.0, 100.0)
        );
        assert_eq!(p.harvestable_per_orbit_j(-1.0, 100.0), 0.0);
    }

    #[test]
    fn default_is_cubesat() {
        assert_eq!(PowerProfile::default(), PowerProfile::cubesat_3u());
    }
}
