//! Seeded, reproducible fault injection for constellation simulations.
//!
//! A [`FaultPlan`] is a timeline of [`Fault`]s — satellite outages,
//! detector dropout, radio-link derating, ADACS slew-rate derating, and
//! battery-brownout windows — each active over a `[start_s, end_s)`
//! window of simulation time. Plans are either built explicitly
//! ([`FaultPlan::with_fault`]) or drawn from a Monte-Carlo
//! [`FaultScenario`] with a fixed seed, in which case the same seed
//! always yields the same plan (splitmix64 substreams, one per fault
//! class, so adding one fault class never perturbs the draws of
//! another).
//!
//! The plan is *descriptive*, not *prescriptive*: it answers point
//! queries ("is follower 3 out at t = 812 s?", "what is the effective
//! slew-rate factor right now?") and leaves the semantics of degraded
//! operation to the consumer (the coverage evaluator and the resilient
//! scheduler in `eagleeye-core`).
//!
//! # Example
//!
//! ```
//! use eagleeye_sim::{FaultKind, FaultPlan, FaultScenario};
//!
//! // Explicit plan: follower 1 dies for good at t = 600 s.
//! let plan = FaultPlan::new(7).with_fault(
//!     FaultKind::FollowerOutage { follower: 1 },
//!     600.0,
//!     f64::INFINITY,
//! );
//! assert!(!plan.follower_out(1, 599.0));
//! assert!(plan.follower_out(1, 600.0));
//! assert!(!plan.follower_out(0, 600.0));
//!
//! // Monte-Carlo plan: 20% permanent follower-outage rate.
//! let scenario = FaultScenario { follower_outage_rate: 0.2, ..FaultScenario::none() };
//! let a = FaultPlan::monte_carlo(42, &scenario, 10, 3_600.0);
//! let b = FaultPlan::monte_carlo(42, &scenario, 10, 3_600.0);
//! assert_eq!(a.faults().len(), b.faults().len()); // same seed, same plan
//! ```

use eagleeye_harden::{FieldHash, ScenarioHasher};
use eagleeye_obs::Metrics;
use eagleeye_rng::{mix64, SplitMix64};

/// One class of injected fault. Each variant carries the parameters
/// that distinguish instances of the class; the *when* lives in the
/// owning [`Fault`]'s window.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FaultKind {
    /// A follower satellite is entirely out of service (no captures,
    /// no task uplink). `follower` is the in-group follower index used
    /// by the scheduler.
    FollowerOutage {
        /// In-group index of the affected follower.
        follower: usize,
    },
    /// The leader satellite is out: no detections are produced, so
    /// followers fall back to nadir-only serendipitous capture.
    LeaderOutage,
    /// The leader's on-board detector drops detections it would
    /// otherwise have made (model degradation, thermal throttling,
    /// memory pressure — paper §4.5's recall knob, time-varying).
    DetectorDropout {
        /// Additional false-negative probability in `[0, 1]`, applied
        /// on top of the detector's baseline recall.
        false_negative_rate: f64,
    },
    /// The leader→follower tasking crosslink is degraded and can carry
    /// only a fraction of its nominal task volume.
    RadioDerate {
        /// Multiplier in `[0, 1]` on the per-frame task capacity.
        capacity_factor: f64,
    },
    /// Follower reaction wheels are derated (momentum saturation,
    /// wheel failure with redistributed torque): slews run slower.
    SlewDerate {
        /// Multiplier in `(0, 1]` on the nominal ADACS slew rate.
        rate_factor: f64,
    },
    /// Battery brownout across the follower fleet: depth-of-discharge
    /// protection inhibits capture (and slewing) until the window ends.
    BatteryBrownout,
}

/// A single injected fault: what goes wrong and over which half-open
/// interval `[start_s, end_s)` of simulation time it is active. Use
/// `end_s = f64::INFINITY` for permanent faults.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Fault {
    /// The fault class and its parameters.
    pub kind: FaultKind,
    /// Activation time, seconds of simulation time (inclusive).
    pub start_s: f64,
    /// Deactivation time, seconds (exclusive); `INFINITY` = permanent.
    pub end_s: f64,
}

impl Fault {
    /// True when the fault is active at simulation time `t_s`.
    #[inline]
    pub fn active_at(&self, t_s: f64) -> bool {
        t_s >= self.start_s && t_s < self.end_s
    }
}

impl FieldHash for FaultKind {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        match *self {
            FaultKind::FollowerOutage { follower } => h.u64(0).field(&follower),
            FaultKind::LeaderOutage => h.u64(1),
            FaultKind::DetectorDropout {
                false_negative_rate,
            } => h.u64(2).f64(false_negative_rate),
            FaultKind::RadioDerate { capacity_factor } => h.u64(3).f64(capacity_factor),
            FaultKind::SlewDerate { rate_factor } => h.u64(4).f64(rate_factor),
            FaultKind::BatteryBrownout => h.u64(5),
        };
    }
}

impl FieldHash for Fault {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        let Fault {
            kind,
            start_s,
            end_s,
        } = self;
        h.field(kind).f64(*start_s).f64(*end_s);
    }
}

/// Monte-Carlo fault scenario: per-class rates from which
/// [`FaultPlan::monte_carlo`] draws a concrete, seeded plan. All rates
/// are probabilities in `[0, 1]` unless noted.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FaultScenario {
    /// Probability that each follower suffers an outage, onset uniform
    /// over the run.
    pub follower_outage_rate: f64,
    /// Mean outage duration, seconds. `INFINITY` (the default) makes
    /// outages permanent.
    pub mean_outage_duration_s: f64,
    /// Probability that the leader suffers an outage, onset uniform
    /// over the run, duration as above.
    pub leader_outage_rate: f64,
    /// Probability of one detector-dropout window over the run.
    pub detector_dropout_rate: f64,
    /// False-negative probability inside a dropout window.
    pub detector_false_negative_rate: f64,
    /// Probability of one radio-derate window over the run.
    pub radio_derate_rate: f64,
    /// Capacity multiplier inside a radio-derate window.
    pub radio_capacity_factor: f64,
    /// Probability of one slew-derate window over the run.
    pub slew_derate_rate: f64,
    /// Slew-rate multiplier inside a slew-derate window.
    pub slew_rate_factor: f64,
    /// Probability of one battery-brownout window over the run.
    pub brownout_rate: f64,
    /// Mean duration of transient windows (dropout, derates,
    /// brownout), seconds.
    pub transient_duration_s: f64,
}

impl FaultScenario {
    /// The all-zeros scenario: no faults ever drawn. Use struct-update
    /// syntax to switch on individual classes.
    pub fn none() -> Self {
        FaultScenario {
            follower_outage_rate: 0.0,
            mean_outage_duration_s: f64::INFINITY,
            leader_outage_rate: 0.0,
            detector_dropout_rate: 0.0,
            detector_false_negative_rate: 0.5,
            radio_derate_rate: 0.0,
            radio_capacity_factor: 0.5,
            slew_derate_rate: 0.0,
            slew_rate_factor: 0.5,
            brownout_rate: 0.0,
            transient_duration_s: 600.0,
        }
    }
}

/// A concrete, seeded fault timeline. See the module-level docs for
/// the construction and query model.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FieldHash for FaultPlan {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        let FaultPlan { seed, faults } = self;
        h.u64(*seed).field(faults.as_slice());
    }
}

/// Distinct substream salts so each fault class draws from an
/// independent splitmix64 stream of the plan seed.
const SALT_FOLLOWER: u64 = 0xF01;
const SALT_LEADER: u64 = 0xF02;
const SALT_DETECTOR: u64 = 0xF03;
const SALT_RADIO: u64 = 0xF04;
const SALT_SLEW: u64 = 0xF05;
const SALT_BROWNOUT: u64 = 0xF06;
const SALT_DROP_ROLL: u64 = 0xF07;

impl FaultPlan {
    /// An empty plan with the given seed (the seed only matters for
    /// the per-detection dropout rolls of [`FaultPlan::detector_drops`]).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Builder: appends one fault active over `[start_s, end_s)`.
    pub fn with_fault(mut self, kind: FaultKind, start_s: f64, end_s: f64) -> Self {
        self.faults.push(Fault {
            kind,
            start_s,
            end_s,
        });
        self
    }

    /// Draws a concrete plan from `scenario` for a run of
    /// `duration_s` seconds over `n_followers` followers. The same
    /// `(seed, scenario, n_followers, duration_s)` always produces
    /// the same plan.
    pub fn monte_carlo(
        seed: u64,
        scenario: &FaultScenario,
        n_followers: usize,
        duration_s: f64,
    ) -> Self {
        let root = SplitMix64::new(seed);
        let mut plan = FaultPlan::new(seed);

        // Follower outages: one independent substream per follower so
        // the fate of follower k is invariant to fleet size changes.
        for follower in 0..n_followers {
            let mut rng = root.fork(SALT_FOLLOWER ^ mix64(follower as u64));
            if rng.chance(scenario.follower_outage_rate) {
                let start = rng.range_f64(0.0, duration_s);
                let end = outage_end(&mut rng, start, scenario.mean_outage_duration_s);
                plan.faults.push(Fault {
                    kind: FaultKind::FollowerOutage { follower },
                    start_s: start,
                    end_s: end,
                });
            }
        }

        let transient = |salt: u64, rate: f64, kind: FaultKind, plan: &mut FaultPlan| {
            let mut rng = root.fork(salt);
            if rng.chance(rate) {
                let start = rng.range_f64(0.0, duration_s);
                let end = outage_end(&mut rng, start, scenario.transient_duration_s);
                plan.faults.push(Fault {
                    kind,
                    start_s: start,
                    end_s: end,
                });
            }
        };

        let mut leader_rng = root.fork(SALT_LEADER);
        if leader_rng.chance(scenario.leader_outage_rate) {
            let start = leader_rng.range_f64(0.0, duration_s);
            let end = outage_end(&mut leader_rng, start, scenario.mean_outage_duration_s);
            plan.faults.push(Fault {
                kind: FaultKind::LeaderOutage,
                start_s: start,
                end_s: end,
            });
        }
        transient(
            SALT_DETECTOR,
            scenario.detector_dropout_rate,
            FaultKind::DetectorDropout {
                false_negative_rate: scenario.detector_false_negative_rate,
            },
            &mut plan,
        );
        transient(
            SALT_RADIO,
            scenario.radio_derate_rate,
            FaultKind::RadioDerate {
                capacity_factor: scenario.radio_capacity_factor,
            },
            &mut plan,
        );
        transient(
            SALT_SLEW,
            scenario.slew_derate_rate,
            FaultKind::SlewDerate {
                rate_factor: scenario.slew_rate_factor,
            },
            &mut plan,
        );
        transient(
            SALT_BROWNOUT,
            scenario.brownout_rate,
            FaultKind::BatteryBrownout,
            &mut plan,
        );

        plan
    }

    /// The seed this plan was built with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All injected faults, in insertion order.
    #[inline]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan injects no faults at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// True when follower `follower` is out of service at time `t_s`.
    pub fn follower_out(&self, follower: usize, t_s: f64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::FollowerOutage { follower: k } if k == follower)
                && f.active_at(t_s)
        })
    }

    /// First outage onset for `follower` strictly inside `(t0_s, t1_s]`,
    /// if any. Used by the evaluator to detect mid-horizon failures.
    pub fn follower_outage_onset(&self, follower: usize, t0_s: f64, t1_s: f64) -> Option<f64> {
        self.faults
            .iter()
            .filter(
                |f| matches!(f.kind, FaultKind::FollowerOutage { follower: k } if k == follower),
            )
            .map(|f| f.start_s)
            .filter(|&s| s > t0_s && s <= t1_s)
            .min_by(f64::total_cmp)
    }

    /// True when the leader is out of service at time `t_s`.
    pub fn leader_out(&self, t_s: f64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::LeaderOutage) && f.active_at(t_s))
    }

    /// Probability that a detection made at time `t_s` survives all
    /// active dropout faults (product of `1 - false_negative_rate`
    /// over active windows). `1.0` when no dropout is active.
    pub fn detector_pass_rate(&self, t_s: f64) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.active_at(t_s))
            .filter_map(|f| match f.kind {
                FaultKind::DetectorDropout {
                    false_negative_rate,
                } => Some((1.0 - false_negative_rate).clamp(0.0, 1.0)),
                _ => None,
            })
            .product()
    }

    /// Deterministic per-detection dropout roll: true when the
    /// detection of `target` in `frame` at time `t_s` is *dropped* by
    /// an active [`FaultKind::DetectorDropout`]. Stateless — the same
    /// `(seed, target, frame)` always rolls the same way.
    pub fn detector_drops(&self, target: u64, frame: u64, t_s: f64) -> bool {
        let pass = self.detector_pass_rate(t_s);
        if pass >= 1.0 {
            return false;
        }
        let h = mix64(
            self.seed
                ^ mix64(SALT_DROP_ROLL ^ mix64(target) ^ mix64(frame.wrapping_mul(0x9E37_79B9))),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u >= pass
    }

    /// Effective tasking-link capacity multiplier at time `t_s`
    /// (minimum over active radio-derate faults; `1.0` nominal).
    pub fn radio_capacity_factor(&self, t_s: f64) -> f64 {
        self.min_factor(t_s, |kind| match kind {
            FaultKind::RadioDerate { capacity_factor } => Some(capacity_factor),
            _ => None,
        })
    }

    /// Effective ADACS slew-rate multiplier at time `t_s` (minimum
    /// over active slew-derate faults; `1.0` nominal).
    pub fn slew_rate_factor(&self, t_s: f64) -> f64 {
        self.min_factor(t_s, |kind| match kind {
            FaultKind::SlewDerate { rate_factor } => Some(rate_factor),
            _ => None,
        })
    }

    /// True when a battery brownout inhibits follower capture at `t_s`.
    pub fn brownout(&self, t_s: f64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::BatteryBrownout) && f.active_at(t_s))
    }

    /// Records per-class fault activity for one evaluation frame at
    /// time `t_s` under `sim/*` counters: how many faults of each
    /// class are active, plus `sim/fault_active_frames` when any
    /// fault is active at all. No-op when `metrics` is disabled.
    pub fn record_frame_activity(&self, t_s: f64, metrics: &Metrics) {
        if !metrics.is_enabled() {
            return;
        }
        let mut follower_out = 0u64;
        let mut leader_out = 0u64;
        let mut dropout = 0u64;
        let mut radio = 0u64;
        let mut slew = 0u64;
        let mut brownout = 0u64;
        for f in self.faults.iter().filter(|f| f.active_at(t_s)) {
            match f.kind {
                FaultKind::FollowerOutage { .. } => follower_out += 1,
                FaultKind::LeaderOutage => leader_out += 1,
                FaultKind::DetectorDropout { .. } => dropout += 1,
                FaultKind::RadioDerate { .. } => radio += 1,
                FaultKind::SlewDerate { .. } => slew += 1,
                FaultKind::BatteryBrownout => brownout += 1,
            }
        }
        let total = follower_out + leader_out + dropout + radio + slew + brownout;
        if total > 0 {
            metrics.incr("sim/fault_active_frames");
            metrics.add("sim/follower_outage_frames", follower_out.min(1));
            metrics.add("sim/leader_outage_frames", leader_out.min(1));
            metrics.add("sim/detector_dropout_frames", dropout.min(1));
            metrics.add("sim/radio_derate_frames", radio.min(1));
            metrics.add("sim/slew_derate_frames", slew.min(1));
            metrics.add("sim/brownout_frames", brownout.min(1));
            metrics.add("sim/active_faults", total);
        }
    }

    fn min_factor(&self, t_s: f64, pick: impl Fn(FaultKind) -> Option<f64>) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.active_at(t_s))
            .filter_map(|f| pick(f.kind))
            .fold(1.0, |acc, v| acc.min(v.clamp(0.0, 1.0)))
    }
}

/// Draws an end time: `start + Exp(mean)` via inverse CDF, or
/// `INFINITY` for non-finite means (permanent fault).
fn outage_end(rng: &mut SplitMix64, start_s: f64, mean_s: f64) -> f64 {
    if !mean_s.is_finite() {
        return f64::INFINITY;
    }
    // Inverse-CDF exponential; next_f64 is in [0, 1), so 1-u is in
    // (0, 1] and the log is finite.
    let u = rng.next_f64();
    start_s + mean_s * -(1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_point_queries() {
        let plan = FaultPlan::new(1)
            .with_fault(FaultKind::FollowerOutage { follower: 2 }, 100.0, 200.0)
            .with_fault(FaultKind::LeaderOutage, 50.0, 60.0)
            .with_fault(FaultKind::SlewDerate { rate_factor: 0.5 }, 0.0, 1000.0)
            .with_fault(
                FaultKind::RadioDerate {
                    capacity_factor: 0.25,
                },
                300.0,
                400.0,
            )
            .with_fault(FaultKind::BatteryBrownout, 500.0, 600.0);

        assert!(plan.follower_out(2, 150.0));
        assert!(!plan.follower_out(2, 200.0)); // half-open window
        assert!(!plan.follower_out(1, 150.0));
        assert!(plan.leader_out(55.0));
        assert!(!plan.leader_out(60.0));
        assert_eq!(plan.slew_rate_factor(500.0), 0.5);
        assert_eq!(plan.slew_rate_factor(1500.0), 1.0);
        assert_eq!(plan.radio_capacity_factor(350.0), 0.25);
        assert_eq!(plan.radio_capacity_factor(250.0), 1.0);
        assert!(plan.brownout(599.0));
        assert!(!plan.brownout(600.0));
    }

    #[test]
    fn outage_onset_detection() {
        let plan = FaultPlan::new(1).with_fault(
            FaultKind::FollowerOutage { follower: 0 },
            120.0,
            f64::INFINITY,
        );
        assert_eq!(plan.follower_outage_onset(0, 100.0, 130.0), Some(120.0));
        assert_eq!(plan.follower_outage_onset(0, 120.0, 130.0), None); // strictly after t0
        assert_eq!(plan.follower_outage_onset(0, 0.0, 100.0), None);
        assert_eq!(plan.follower_outage_onset(1, 100.0, 130.0), None);
    }

    #[test]
    fn monte_carlo_is_deterministic() {
        let s = FaultScenario {
            follower_outage_rate: 0.5,
            leader_outage_rate: 0.3,
            detector_dropout_rate: 0.5,
            radio_derate_rate: 0.5,
            slew_derate_rate: 0.5,
            brownout_rate: 0.5,
            mean_outage_duration_s: 900.0,
            ..FaultScenario::none()
        };
        let a = FaultPlan::monte_carlo(99, &s, 8, 7200.0);
        let b = FaultPlan::monte_carlo(99, &s, 8, 7200.0);
        assert_eq!(a, b);
        let c = FaultPlan::monte_carlo(100, &s, 8, 7200.0);
        assert_ne!(a, c, "different seeds should differ for these rates");
    }

    #[test]
    fn monte_carlo_outage_rate_matches_statistics() {
        let s = FaultScenario {
            follower_outage_rate: 0.2,
            ..FaultScenario::none()
        };
        let mut outages = 0usize;
        let trials = 400;
        let per_plan = 10;
        for seed in 0..trials {
            let plan = FaultPlan::monte_carlo(seed, &s, per_plan, 3600.0);
            outages += plan.faults().len();
        }
        let rate = outages as f64 / (trials * per_plan as u64) as f64;
        assert!(
            (rate - 0.2).abs() < 0.03,
            "empirical outage rate {rate} far from 0.2"
        );
    }

    #[test]
    fn follower_fate_invariant_to_fleet_size() {
        let s = FaultScenario {
            follower_outage_rate: 0.4,
            ..FaultScenario::none()
        };
        let small = FaultPlan::monte_carlo(5, &s, 4, 3600.0);
        let large = FaultPlan::monte_carlo(5, &s, 12, 3600.0);
        for k in 0..4 {
            let a: Vec<_> = small
                .faults()
                .iter()
                .filter(
                    |f| matches!(f.kind, FaultKind::FollowerOutage { follower } if follower == k),
                )
                .collect();
            let b: Vec<_> = large
                .faults()
                .iter()
                .filter(
                    |f| matches!(f.kind, FaultKind::FollowerOutage { follower } if follower == k),
                )
                .collect();
            assert_eq!(a, b, "follower {k} fate changed with fleet size");
        }
    }

    #[test]
    fn dropout_rolls_are_deterministic_and_rate_accurate() {
        let plan = FaultPlan::new(3).with_fault(
            FaultKind::DetectorDropout {
                false_negative_rate: 0.3,
            },
            0.0,
            f64::INFINITY,
        );
        let mut dropped = 0usize;
        for target in 0..2000u64 {
            assert_eq!(
                plan.detector_drops(target, 7, 10.0),
                plan.detector_drops(target, 7, 10.0)
            );
            if plan.detector_drops(target, 7, 10.0) {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / 2000.0;
        assert!(
            (rate - 0.3).abs() < 0.05,
            "empirical drop rate {rate} far from 0.3"
        );
        // Outside the window nothing drops.
        let quiet = FaultPlan::new(3).with_fault(
            FaultKind::DetectorDropout {
                false_negative_rate: 0.3,
            },
            100.0,
            200.0,
        );
        assert!(!quiet.detector_drops(1, 7, 50.0));
    }

    #[test]
    fn stacked_dropouts_compound() {
        let plan = FaultPlan::new(1)
            .with_fault(
                FaultKind::DetectorDropout {
                    false_negative_rate: 0.5,
                },
                0.0,
                100.0,
            )
            .with_fault(
                FaultKind::DetectorDropout {
                    false_negative_rate: 0.5,
                },
                50.0,
                100.0,
            );
        assert!((plan.detector_pass_rate(75.0) - 0.25).abs() < 1e-12);
        assert!((plan.detector_pass_rate(25.0) - 0.5).abs() < 1e-12);
        assert_eq!(plan.detector_pass_rate(150.0), 1.0);
    }

    #[test]
    fn overlapping_same_kind_windows_compose() {
        // Two overlapping slew derates: the *minimum* factor wins inside
        // the overlap, each window's own factor outside it, and two
        // overlapping outages for the same follower cover the union of
        // their windows.
        let plan = FaultPlan::new(1)
            .with_fault(FaultKind::SlewDerate { rate_factor: 0.8 }, 0.0, 300.0)
            .with_fault(FaultKind::SlewDerate { rate_factor: 0.3 }, 200.0, 500.0)
            .with_fault(FaultKind::FollowerOutage { follower: 0 }, 100.0, 250.0)
            .with_fault(FaultKind::FollowerOutage { follower: 0 }, 200.0, 400.0);

        assert_eq!(plan.slew_rate_factor(100.0), 0.8); // first window only
        assert_eq!(plan.slew_rate_factor(250.0), 0.3); // overlap: min wins
        assert_eq!(plan.slew_rate_factor(400.0), 0.3); // second window only
        assert_eq!(plan.slew_rate_factor(500.0), 1.0); // both ended

        // Union coverage of the two outage windows, including the seam at
        // t = 250 (first ends, second already active) and a point covered
        // by only one of them.
        for t in [100.0, 199.0, 249.9, 250.0, 399.9] {
            assert!(plan.follower_out(0, t), "expected outage at t={t}");
        }
        assert!(!plan.follower_out(0, 99.9));
        assert!(!plan.follower_out(0, 400.0));

        // Overlapping radio derates compose the same way.
        let radio = FaultPlan::new(2)
            .with_fault(
                FaultKind::RadioDerate {
                    capacity_factor: 0.6,
                },
                0.0,
                100.0,
            )
            .with_fault(
                FaultKind::RadioDerate {
                    capacity_factor: 0.9,
                },
                50.0,
                150.0,
            );
        assert_eq!(radio.radio_capacity_factor(75.0), 0.6);
        assert_eq!(radio.radio_capacity_factor(125.0), 0.9);
    }

    #[test]
    fn radio_and_slew_derates_compose_independently() {
        // Simultaneous radio + slew derating: each channel sees only its
        // own class, so one fault class never leaks into the other's
        // factor.
        let plan = FaultPlan::new(1)
            .with_fault(
                FaultKind::RadioDerate {
                    capacity_factor: 0.25,
                },
                100.0,
                400.0,
            )
            .with_fault(FaultKind::SlewDerate { rate_factor: 0.5 }, 200.0, 300.0);

        // Only radio active.
        assert_eq!(plan.radio_capacity_factor(150.0), 0.25);
        assert_eq!(plan.slew_rate_factor(150.0), 1.0);
        // Both active: each keeps its own factor.
        assert_eq!(plan.radio_capacity_factor(250.0), 0.25);
        assert_eq!(plan.slew_rate_factor(250.0), 0.5);
        // Slew window over, radio persists.
        assert_eq!(plan.radio_capacity_factor(350.0), 0.25);
        assert_eq!(plan.slew_rate_factor(350.0), 1.0);
        // Neither class affects detection or brownout.
        assert_eq!(plan.detector_pass_rate(250.0), 1.0);
        assert!(!plan.brownout(250.0));
    }

    #[test]
    fn frame_activity_counters_record_active_classes() {
        let plan = FaultPlan::new(1)
            .with_fault(
                FaultKind::RadioDerate {
                    capacity_factor: 0.5,
                },
                0.0,
                100.0,
            )
            .with_fault(FaultKind::SlewDerate { rate_factor: 0.5 }, 0.0, 100.0)
            .with_fault(FaultKind::BatteryBrownout, 50.0, 100.0);
        let metrics = Metrics::enabled();
        plan.record_frame_activity(25.0, &metrics); // radio + slew
        plan.record_frame_activity(75.0, &metrics); // radio + slew + brownout
        plan.record_frame_activity(200.0, &metrics); // nothing active
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("sim/fault_active_frames"), 2);
        assert_eq!(snap.counter("sim/radio_derate_frames"), 2);
        assert_eq!(snap.counter("sim/slew_derate_frames"), 2);
        assert_eq!(snap.counter("sim/brownout_frames"), 1);
        assert_eq!(snap.counter("sim/leader_outage_frames"), 0);
        assert_eq!(snap.counter("sim/active_faults"), 5);
        // Disabled handle records nothing and costs nothing.
        plan.record_frame_activity(75.0, &Metrics::disabled());
    }

    #[test]
    fn transient_outages_end() {
        let s = FaultScenario {
            follower_outage_rate: 1.0,
            mean_outage_duration_s: 300.0,
            ..FaultScenario::none()
        };
        let plan = FaultPlan::monte_carlo(11, &s, 6, 3600.0);
        assert_eq!(plan.faults().len(), 6);
        for f in plan.faults() {
            assert!(f.end_s.is_finite() && f.end_s > f.start_s);
        }
    }
}
