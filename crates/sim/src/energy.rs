use crate::{ActivityProfile, PowerProfile};

/// Energy used by each subsystem over one orbit, joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubsystemEnergy {
    /// Image capture energy.
    pub camera_j: f64,
    /// ADACS energy (slewing + station keeping).
    pub adacs_j: f64,
    /// ML inference + scheduling compute energy.
    pub compute_j: f64,
    /// Radio transmit energy.
    pub tx_j: f64,
    /// Always-on bus energy.
    pub idle_j: f64,
}

impl SubsystemEnergy {
    /// Total consumption, joules.
    pub fn total_j(&self) -> f64 {
        self.camera_j + self.adacs_j + self.compute_j + self.tx_j + self.idle_j
    }
}

/// One orbit's energy budget: harvest vs. per-subsystem consumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitEnergyReport {
    /// Energy harvested this orbit, joules.
    pub harvested_j: f64,
    /// Consumption breakdown.
    pub subsystems: SubsystemEnergy,
}

impl OrbitEnergyReport {
    /// True when consumption fits within the harvest — the paper's
    /// feasibility criterion for sustained operation (Fig. 16: the
    /// dashed "Total Harvestable Energy" line).
    pub fn is_energy_feasible(&self) -> bool {
        self.subsystems.total_j() <= self.harvested_j
    }

    /// Consumption normalized to the harvestable energy (the y-axis of
    /// Fig. 16).
    pub fn normalized_consumption(&self) -> f64 {
        if self.harvested_j <= 0.0 {
            return f64::INFINITY;
        }
        self.subsystems.total_j() / self.harvested_j
    }
}

/// Computes one orbit's energy report for a satellite with the given
/// power constants performing the given activity.
///
/// # Example
///
/// ```
/// use eagleeye_sim::{ActivityProfile, PowerProfile, simulate_orbit};
///
/// let follower = ActivityProfile::follower_default(400.0, 3.0);
/// let report = simulate_orbit(&PowerProfile::cubesat_3u(), &follower, 0.62, 5_640.0);
/// // Followers are never the energy bottleneck (paper Fig. 16).
/// assert!(report.is_energy_feasible());
/// ```
pub fn simulate_orbit(
    power: &PowerProfile,
    activity: &ActivityProfile,
    sunlit_fraction: f64,
    period_s: f64,
) -> OrbitEnergyReport {
    let camera_j = activity.frames_captured * power.camera_j_per_frame;
    let adacs_j = activity.slew_s * power.adacs_slew_w + period_s * power.adacs_idle_w;
    let compute_j = activity.compute_s() * power.compute_w;
    let tx_j = activity.tx_s * power.tx_w;
    let idle_j = period_s * power.idle_w;
    OrbitEnergyReport {
        harvested_j: power.harvestable_per_orbit_j(sunlit_fraction, period_s),
        subsystems: SubsystemEnergy {
            camera_j,
            adacs_j,
            compute_j,
            tx_j,
            idle_j,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD: f64 = 5_640.0;
    const SUNLIT: f64 = 0.62;

    fn report(a: ActivityProfile) -> OrbitEnergyReport {
        simulate_orbit(&PowerProfile::cubesat_3u(), &a, SUNLIT, PERIOD)
    }

    #[test]
    fn leader_is_feasible_at_2x_tiling_but_not_4x() {
        // The paper's headline energy result (Fig. 16): harvestable energy
        // supports ~2x tiling; 4x tiling breaks the leader's budget.
        assert!(report(ActivityProfile::leader_default(1.0)).is_energy_feasible());
        assert!(report(ActivityProfile::leader_default(2.0)).is_energy_feasible());
        assert!(!report(ActivityProfile::leader_default(4.0)).is_energy_feasible());
    }

    #[test]
    fn followers_are_never_the_bottleneck() {
        for captures in [0.0, 100.0, 400.0, 800.0] {
            let r = report(ActivityProfile::follower_default(captures, 3.0));
            assert!(r.is_energy_feasible(), "captures {captures}");
        }
    }

    #[test]
    fn leader_uses_slightly_less_than_baseline() {
        // The leader offloads image downlink to followers (paper §6.2).
        let leader = report(ActivityProfile::leader_default(1.0));
        let baseline = report(ActivityProfile::baseline_default(1.0));
        assert!(leader.subsystems.total_j() < baseline.subsystems.total_j());
        assert!(leader.subsystems.tx_j < baseline.subsystems.tx_j);
    }

    #[test]
    fn compute_dominates_leader_budget() {
        let r = report(ActivityProfile::leader_default(1.0));
        let s = r.subsystems;
        assert!(s.compute_j > s.camera_j);
        assert!(s.compute_j > s.tx_j);
        assert!(s.compute_j > s.adacs_j);
    }

    #[test]
    fn totals_add_up() {
        let r = report(ActivityProfile::leader_default(1.0));
        let s = r.subsystems;
        let manual = s.camera_j + s.adacs_j + s.compute_j + s.tx_j + s.idle_j;
        assert_eq!(s.total_j(), manual);
    }

    #[test]
    fn normalized_consumption_is_ratio() {
        let r = report(ActivityProfile::leader_default(1.0));
        let n = r.normalized_consumption();
        assert!((n - r.subsystems.total_j() / r.harvested_j).abs() < 1e-12);
        assert!(n > 0.0 && n < 1.0);
    }

    #[test]
    fn zero_harvest_is_infeasible() {
        let r = simulate_orbit(
            &PowerProfile::cubesat_3u(),
            &ActivityProfile::leader_default(1.0),
            0.0,
            PERIOD,
        );
        assert!(!r.is_energy_feasible());
        assert_eq!(r.normalized_consumption(), f64::INFINITY);
    }
}
