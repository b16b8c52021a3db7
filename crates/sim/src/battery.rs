use crate::{ActivityProfile, PowerProfile};

/// A simple energy store with clamped charge/discharge.
///
/// # Example
///
/// ```
/// use eagleeye_sim::Battery;
///
/// let mut b = Battery::new(100.0);
/// b.withdraw(40.0);
/// assert_eq!(b.charge_j(), 60.0);
/// let unmet = b.withdraw(100.0);
/// assert_eq!(unmet, 40.0);       // demand exceeded the store
/// assert_eq!(b.charge_j(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    charge_j: f64,
}

impl Battery {
    /// Creates a battery at full charge.
    pub fn new(capacity_j: f64) -> Self {
        let c = capacity_j.max(0.0);
        Battery {
            capacity_j: c,
            charge_j: c,
        }
    }

    /// Capacity, joules.
    #[inline]
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Current charge, joules.
    #[inline]
    pub fn charge_j(&self) -> f64 {
        self.charge_j
    }

    /// State of charge in `[0, 1]`.
    #[inline]
    pub fn state_of_charge(&self) -> f64 {
        if self.capacity_j <= 0.0 {
            0.0
        } else {
            self.charge_j / self.capacity_j
        }
    }

    /// Deposits energy; overflow beyond capacity is discarded (the panel
    /// is shunted). Returns the energy actually stored.
    pub fn deposit(&mut self, energy_j: f64) -> f64 {
        let e = energy_j.max(0.0);
        let stored = e.min(self.capacity_j - self.charge_j);
        // `charge + (capacity - charge)` can round one ulp above
        // capacity; clamp so the state of charge never exceeds 1.
        self.charge_j = (self.charge_j + stored).min(self.capacity_j);
        stored
    }

    /// Withdraws energy; returns the unmet demand (zero when the battery
    /// covered everything).
    pub fn withdraw(&mut self, energy_j: f64) -> f64 {
        let e = energy_j.max(0.0);
        let met = e.min(self.charge_j);
        self.charge_j -= met;
        e - met
    }
}

/// Result of a time-stepped battery simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatterySeries {
    /// State of charge at each step.
    pub soc: Vec<f64>,
    /// First time (seconds) at which demand went unmet, if ever.
    pub depleted_at_s: Option<f64>,
    /// Minimum state of charge reached.
    pub min_soc: f64,
}

/// Steps a battery through `orbits` orbits of the given activity with
/// `step_s` resolution, charging during the sunlit fraction of each
/// orbit and drawing the activity's average power continuously.
///
/// This is the failure-injection view of the energy model: it shows not
/// just whether an activity is feasible on average (see
/// [`crate::simulate_orbit`]) but when an infeasible one actually browns
/// out.
pub fn simulate_battery(
    power: &PowerProfile,
    activity: &ActivityProfile,
    sunlit_fraction: f64,
    period_s: f64,
    orbits: usize,
    step_s: f64,
) -> BatterySeries {
    let mut battery = Battery::new(power.battery_capacity_j);
    let step = step_s.max(1.0);
    let total_s = period_s * orbits as f64;
    let steps = (total_s / step).ceil() as usize;

    // Average consumption power over the orbit.
    let consumption_j = {
        let camera = activity.frames_captured * power.camera_j_per_frame;
        let adacs = activity.slew_s * power.adacs_slew_w + period_s * power.adacs_idle_w;
        let compute = activity.compute_s() * power.compute_w;
        let tx = activity.tx_s * power.tx_w;
        let idle = period_s * power.idle_w;
        camera + adacs + compute + tx + idle
    };
    let draw_w = consumption_j / period_s.max(1.0);

    let mut soc = Vec::with_capacity(steps);
    let mut depleted_at_s = None;
    let mut min_soc = 1.0f64;
    for i in 0..steps {
        let t = i as f64 * step;
        // Sunlit portion modeled as the first `sunlit_fraction` of each
        // orbit (cylindrical shadow enters/exits once per orbit).
        let phase = (t % period_s) / period_s;
        if phase < sunlit_fraction {
            battery.deposit(power.solar_harvest_w * step);
        }
        let unmet = battery.withdraw(draw_w * step);
        if unmet > 0.0 && depleted_at_s.is_none() {
            depleted_at_s = Some(t);
        }
        min_soc = min_soc.min(battery.state_of_charge());
        soc.push(battery.state_of_charge());
    }
    BatterySeries {
        soc,
        depleted_at_s,
        min_soc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_clamps_deposit_and_withdraw() {
        let mut b = Battery::new(10.0);
        assert_eq!(b.deposit(5.0), 0.0); // already full
        assert_eq!(b.withdraw(4.0), 0.0);
        assert_eq!(b.charge_j(), 6.0);
        assert_eq!(b.deposit(100.0), 4.0);
        assert_eq!(b.charge_j(), 10.0);
        assert_eq!(b.withdraw(12.0), 2.0);
        assert_eq!(b.charge_j(), 0.0);
    }

    #[test]
    fn negative_amounts_are_ignored() {
        let mut b = Battery::new(10.0);
        assert_eq!(b.deposit(-5.0), 0.0);
        assert_eq!(b.withdraw(-5.0), 0.0);
        assert_eq!(b.charge_j(), 10.0);
    }

    #[test]
    fn feasible_leader_never_browns_out() {
        let s = simulate_battery(
            &PowerProfile::cubesat_3u(),
            &ActivityProfile::leader_default(1.0),
            0.62,
            5_640.0,
            15, // ~one day
            10.0,
        );
        assert!(
            s.depleted_at_s.is_none(),
            "depleted at {:?}",
            s.depleted_at_s
        );
        assert!(s.min_soc > 0.0);
    }

    #[test]
    fn four_x_tiling_browns_out_within_a_day() {
        let s = simulate_battery(
            &PowerProfile::cubesat_3u(),
            &ActivityProfile::leader_default(4.0),
            0.62,
            5_640.0,
            15,
            10.0,
        );
        assert!(s.depleted_at_s.is_some());
    }

    #[test]
    fn soc_is_always_in_unit_interval() {
        let s = simulate_battery(
            &PowerProfile::cubesat_3u(),
            &ActivityProfile::baseline_default(2.0),
            0.62,
            5_640.0,
            3,
            30.0,
        );
        for &x in &s.soc {
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn eclipse_discharges_then_sun_recharges() {
        let s = simulate_battery(
            &PowerProfile::cubesat_3u(),
            &ActivityProfile::leader_default(1.0),
            0.62,
            5_640.0,
            2,
            10.0,
        );
        // SOC must not be constant: there is day/night structure.
        let min = s.soc.iter().cloned().fold(1.0f64, f64::min);
        let max = s.soc.iter().cloned().fold(0.0f64, f64::max);
        assert!(max - min > 0.005, "soc range {} .. {}", min, max);
    }
}
