use crate::clustering::ClusteringMethod;
use eagleeye_harden::{FieldHash, ScenarioHasher};

/// Which scheduling algorithm the leaders run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The paper's ILP formulation (default).
    Ilp,
    /// Greedy nearest-target baseline.
    Greedy,
    /// Prior-work anytime branch-and-bound (slow; for runtime studies).
    Abb,
    /// Budgeted ILP with greedy fallback, post-validation, and mid-pass
    /// failure repair (see [`crate::schedule::ResilientScheduler`]).
    Resilient,
}

impl SchedulerKind {
    /// Short lowercase name, used in experiment labels and in the
    /// compiled-track pool digest.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Ilp => "ilp",
            SchedulerKind::Greedy => "greedy",
            SchedulerKind::Abb => "abb",
            SchedulerKind::Resilient => "resilient",
        }
    }
}

impl FieldHash for SchedulerKind {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        h.u64(match self {
            SchedulerKind::Ilp => 0,
            SchedulerKind::Greedy => 1,
            SchedulerKind::Abb => 2,
            SchedulerKind::Resilient => 3,
        });
    }
}

/// How the constellation reacts to faults injected via
/// [`CoverageOptions::fault_plan`](super::CoverageOptions::fault_plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DegradedMode {
    /// The leader is unaware of follower outages: it keeps assigning
    /// tasks to dead followers, whose captures are silently lost. The
    /// pessimistic baseline for fault-tolerance studies.
    Naive,
    /// The leader excludes known-out followers from scheduling and —
    /// with [`SchedulerKind::Resilient`] — re-plans tasks dropped by
    /// mid-pass failures onto the survivors.
    #[default]
    Resilient,
}

impl FieldHash for DegradedMode {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        h.u64(match self {
            DegradedMode::Naive => 0,
            DegradedMode::Resilient => 1,
        });
    }
}

/// A constellation organization to evaluate (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstellationConfig {
    /// Homogeneous wide-swath (100 km, 30 m GSD) constellation.
    /// Coverage counts swath membership; the data is low-resolution.
    LowResOnly {
        /// Number of satellites, evenly spaced in one plane.
        satellites: usize,
    },
    /// Homogeneous narrow-swath (10 km, 3 m GSD) nadir constellation.
    HighResOnly {
        /// Number of satellites, evenly spaced in one plane.
        satellites: usize,
    },
    /// The EagleEye leader-follower organization.
    EagleEye {
        /// Number of leader-follower groups, evenly spaced in one plane.
        groups: usize,
        /// Followers trailing each leader.
        followers_per_group: usize,
        /// Scheduling algorithm.
        scheduler: SchedulerKind,
        /// Target clustering mode.
        clustering: ClusteringMethod,
    },
    /// Both cameras on every satellite; compute time shrinks each
    /// frame's usable capture window (paper §4.4, Fig. 9/13).
    MixCamera {
        /// Number of satellites, evenly spaced in one plane.
        satellites: usize,
        /// Onboard detection + scheduling latency per frame, seconds.
        compute_time_s: f64,
    },
}

impl FieldHash for ConstellationConfig {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        match self {
            ConstellationConfig::LowResOnly { satellites } => h.u64(0).field(satellites),
            ConstellationConfig::HighResOnly { satellites } => h.u64(1).field(satellites),
            ConstellationConfig::EagleEye {
                groups,
                followers_per_group,
                scheduler,
                clustering,
            } => h
                .u64(2)
                .field(groups)
                .field(followers_per_group)
                .field(scheduler)
                .field(clustering),
            ConstellationConfig::MixCamera {
                satellites,
                compute_time_s,
            } => h.u64(3).field(satellites).f64(*compute_time_s),
        };
    }
}

impl ConstellationConfig {
    /// A default EagleEye configuration: ILP scheduling, ILP clustering.
    pub fn eagleeye(groups: usize, followers_per_group: usize) -> Self {
        ConstellationConfig::EagleEye {
            groups,
            followers_per_group,
            scheduler: SchedulerKind::Ilp,
            clustering: ClusteringMethod::Ilp,
        }
    }

    /// Total satellite count of the configuration (the x-axis of the
    /// paper's Fig. 11).
    pub fn total_satellites(&self) -> usize {
        match *self {
            ConstellationConfig::LowResOnly { satellites }
            | ConstellationConfig::HighResOnly { satellites }
            | ConstellationConfig::MixCamera { satellites, .. } => satellites,
            ConstellationConfig::EagleEye {
                groups,
                followers_per_group,
                ..
            } => groups * (1 + followers_per_group),
        }
    }

    /// Short label for experiment output.
    pub fn label(&self) -> String {
        match *self {
            ConstellationConfig::LowResOnly { satellites } => {
                format!("low-res-only({satellites})")
            }
            ConstellationConfig::HighResOnly { satellites } => {
                format!("high-res-only({satellites})")
            }
            ConstellationConfig::EagleEye {
                groups,
                followers_per_group,
                scheduler,
                ..
            } => {
                format!(
                    "eagleeye({groups}x{}, {})",
                    followers_per_group,
                    scheduler.label()
                )
            }
            ConstellationConfig::MixCamera {
                satellites,
                compute_time_s,
            } => {
                format!("mix-camera({satellites}, {compute_time_s}s)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_satellites_counts_groups() {
        assert_eq!(ConstellationConfig::eagleeye(2, 1).total_satellites(), 4);
        assert_eq!(ConstellationConfig::eagleeye(1, 3).total_satellites(), 4);
        assert_eq!(
            ConstellationConfig::LowResOnly { satellites: 7 }.total_satellites(),
            7
        );
        assert_eq!(
            ConstellationConfig::MixCamera {
                satellites: 3,
                compute_time_s: 1.4
            }
            .total_satellites(),
            3
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            ConstellationConfig::LowResOnly { satellites: 4 }.label(),
            ConstellationConfig::HighResOnly { satellites: 4 }.label(),
            ConstellationConfig::eagleeye(2, 1).label(),
            ConstellationConfig::MixCamera {
                satellites: 4,
                compute_time_s: 1.4,
            }
            .label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), 4);
    }
}
