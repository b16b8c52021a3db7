use crate::{GroundTrack, J2Propagator, OrbitError};
use eagleeye_geo::earth::MEAN_RADIUS_M;

/// Role of a satellite within a leader-follower group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SatelliteRole {
    /// Low-resolution, high-coverage imaging + onboard detection +
    /// scheduling.
    Leader,
    /// High-resolution, narrow-swath imaging on command from the leader.
    Follower,
}

/// One satellite in a laid-out constellation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatelliteSpec {
    /// Group this satellite belongs to.
    pub group: usize,
    /// Role within the group.
    pub role: SatelliteRole,
    /// Index among the group's followers (0 for the leader).
    pub follower_index: usize,
    /// Orbit phase angle relative to the constellation reference, radians.
    pub phase_rad: f64,
    /// Right ascension of the ascending node of this satellite's plane,
    /// radians (0 in the paper's single-plane evaluation).
    pub raan_rad: f64,
}

/// Lays out leader-follower groups evenly spaced in a single orbital
/// plane, matching the paper's §5.3 configuration: all satellites share
/// one orbit; groups are evenly phased; each group's followers trail its
/// leader by [`DEFAULT_LEAD_DISTANCE_M`](Self::DEFAULT_LEAD_DISTANCE_M)
/// of ground track (100 km — the low-res swath width) with
/// [`DEFAULT_FOLLOWER_SPACING_M`](Self::DEFAULT_FOLLOWER_SPACING_M)
/// between successive followers.
///
/// # Example
///
/// ```
/// use eagleeye_orbit::{ConstellationLayout, SatelliteRole};
///
/// // 2 groups of (1 leader + 1 follower): 4 satellites total.
/// let layout = ConstellationLayout::with_planes(2, 1, 475_000.0, 97.2_f64.to_radians(), 1)?;
/// let sats = layout.satellites();
/// assert_eq!(sats.len(), 4);
/// assert_eq!(sats.iter().filter(|s| s.role == SatelliteRole::Leader).count(), 2);
/// # Ok::<(), eagleeye_orbit::OrbitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConstellationLayout {
    altitude_m: f64,
    inclination_rad: f64,
    planes: usize,
    satellites: Vec<SatelliteSpec>,
}

impl ConstellationLayout {
    /// Default leader-to-first-follower ground distance (paper §5.3:
    /// equal to the 100 km low-resolution swath width).
    pub const DEFAULT_LEAD_DISTANCE_M: f64 = 100_000.0;
    /// Default spacing between successive followers of one group.
    pub const DEFAULT_FOLLOWER_SPACING_M: f64 = 20_000.0;

    /// Creates a layout with identical groups, distributed
    /// round-robin across `planes` orbital planes whose ascending nodes
    /// are spread evenly over half a revolution (ascending/descending
    /// tracks of opposite nodes overlap, so π of RAAN spread suffices).
    /// This is the paper's §4.7 "Orbit Design" extension; `planes = 1`
    /// reproduces the paper's evaluated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OrbitError::InvalidElement`] for zero groups/planes,
    /// more planes than groups, or invalid orbit parameters.
    pub fn with_planes(
        groups: usize,
        followers_per_group: usize,
        altitude_m: f64,
        inclination_rad: f64,
        planes: usize,
    ) -> Result<Self, OrbitError> {
        Self::with_planes_slotted(
            groups,
            followers_per_group,
            altitude_m,
            inclination_rad,
            planes,
            groups,
        )
    }

    /// Like [`ConstellationLayout::with_planes`] but phasing groups
    /// against a fixed capacity of `phase_slots` orbital positions
    /// instead of the actual group count: group `g` always occupies
    /// slot `g` of `phase_slots`, so adding or removing trailing groups
    /// leaves every surviving satellite's orbital elements bit-for-bit
    /// unchanged. With `phase_slots == groups` this reproduces
    /// [`ConstellationLayout::with_planes`] exactly. This is the
    /// geometry pin behind incremental what-if re-evaluation
    /// (DESIGN.md §14): a slot-pinned child scenario shares the parent's
    /// compiled tracks instead of recompiling a globally re-phased
    /// constellation.
    ///
    /// # Errors
    ///
    /// Returns [`OrbitError::InvalidElement`] when `phase_slots <
    /// groups` (a slot per group is required), for zero groups/planes,
    /// for more planes than `phase_slots` (a plane without a slot would
    /// be empty), or for invalid orbit parameters.
    pub fn with_planes_slotted(
        groups: usize,
        followers_per_group: usize,
        altitude_m: f64,
        inclination_rad: f64,
        planes: usize,
        phase_slots: usize,
    ) -> Result<Self, OrbitError> {
        if phase_slots < groups {
            return Err(OrbitError::InvalidElement {
                name: "phase_slots",
                value: phase_slots as f64,
            });
        }
        if planes == 0 {
            return Err(OrbitError::InvalidElement {
                name: "planes",
                value: 0.0,
            });
        }
        if groups == 0 {
            return Err(OrbitError::InvalidElement {
                name: "groups",
                value: 0.0,
            });
        }
        if planes > phase_slots {
            return Err(OrbitError::InvalidElement {
                name: "planes",
                value: planes as f64,
            });
        }
        // Validate the orbit itself early.
        let _ = J2Propagator::circular(altitude_m, inclination_rad, 0.0, 0.0)?;

        let mut satellites = Vec::new();
        for g in 0..groups {
            // Round-robin plane assignment; slots within a plane are
            // evenly phased among themselves. With phase_slots ==
            // groups both formulas reduce to the legacy even-phasing.
            let plane = g % planes;
            let raan_rad = std::f64::consts::PI * plane as f64 / planes as f64;
            let in_plane = g / planes;
            let plane_groups = phase_slots / planes + usize::from(plane < phase_slots % planes);
            let group_phase = std::f64::consts::TAU * in_plane as f64 / plane_groups.max(1) as f64;
            satellites.push(SatelliteSpec {
                group: g,
                role: SatelliteRole::Leader,
                follower_index: 0,
                phase_rad: group_phase,
                raan_rad,
            });
            for k in 0..followers_per_group {
                // Followers trail the leader: smaller phase angle.
                let trail_m =
                    Self::DEFAULT_LEAD_DISTANCE_M + k as f64 * Self::DEFAULT_FOLLOWER_SPACING_M;
                let trail_rad = trail_m / MEAN_RADIUS_M;
                satellites.push(SatelliteSpec {
                    group: g,
                    role: SatelliteRole::Follower,
                    follower_index: k,
                    phase_rad: group_phase - trail_rad,
                    raan_rad,
                });
            }
        }

        Ok(ConstellationLayout {
            altitude_m,
            inclination_rad,
            planes,
            satellites,
        })
    }

    /// Number of orbital planes in the layout.
    #[inline]
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// All satellites, leaders first within each group.
    #[inline]
    pub fn satellites(&self) -> &[SatelliteSpec] {
        &self.satellites
    }

    /// Total satellite count (leaders + followers).
    #[inline]
    pub fn total_satellites(&self) -> usize {
        self.satellites.len()
    }

    /// Orbit altitude in meters.
    #[inline]
    pub fn altitude_m(&self) -> f64 {
        self.altitude_m
    }

    /// Builds the ground track for one satellite.
    ///
    /// # Errors
    ///
    /// Returns [`OrbitError::InvalidElement`] for invalid orbit
    /// parameters (cannot occur after successful layout construction).
    pub fn ground_track(&self, sat: &SatelliteSpec) -> Result<GroundTrack, OrbitError> {
        let prop = J2Propagator::circular(
            self.altitude_m,
            self.inclination_rad,
            sat.raan_rad,
            sat.phase_rad,
        )?;
        Ok(GroundTrack::new(prop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(groups: usize, followers: usize) -> ConstellationLayout {
        ConstellationLayout::with_planes(groups, followers, 475_000.0, 97.2_f64.to_radians(), 1)
            .unwrap()
    }

    #[test]
    fn rejects_empty_layouts() {
        assert!(ConstellationLayout::with_planes(0, 1, 475_000.0, 1.7, 1).is_err());
    }

    #[test]
    fn satellite_counts() {
        assert_eq!(layout(1, 1).total_satellites(), 2);
        assert_eq!(layout(2, 1).total_satellites(), 4);
        assert_eq!(layout(1, 3).total_satellites(), 4);
        assert_eq!(layout(5, 2).total_satellites(), 15);
    }

    #[test]
    fn groups_are_evenly_phased() {
        let l = layout(4, 0);
        let leaders: Vec<f64> = l
            .satellites()
            .iter()
            .filter(|s| s.role == SatelliteRole::Leader)
            .map(|s| s.phase_rad)
            .collect();
        for (g, &p) in leaders.iter().enumerate() {
            let expected = std::f64::consts::TAU * g as f64 / 4.0;
            assert!((p - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn slotted_layout_at_capacity_matches_legacy_bit_for_bit() {
        for (groups, followers, planes) in [(4, 0, 1), (5, 2, 1), (6, 1, 3), (7, 2, 4)] {
            let legacy = ConstellationLayout::with_planes(
                groups,
                followers,
                475_000.0,
                97.2_f64.to_radians(),
                planes,
            )
            .unwrap();
            let slotted = ConstellationLayout::with_planes_slotted(
                groups,
                followers,
                475_000.0,
                97.2_f64.to_radians(),
                planes,
                groups,
            )
            .unwrap();
            assert_eq!(
                legacy.satellites(),
                slotted.satellites(),
                "groups={groups} followers={followers} planes={planes}"
            );
        }
    }

    #[test]
    fn slotted_layout_pins_surviving_groups_under_removal() {
        // Removing the trailing group from a slot-pinned layout must
        // leave every surviving satellite's elements bit-identical —
        // the property that lets a what-if delta reuse parent tracks.
        for planes in [1, 3] {
            let parent = ConstellationLayout::with_planes_slotted(
                12,
                2,
                475_000.0,
                97.2_f64.to_radians(),
                planes,
                12,
            )
            .unwrap();
            let child = ConstellationLayout::with_planes_slotted(
                11,
                2,
                475_000.0,
                97.2_f64.to_radians(),
                planes,
                12,
            )
            .unwrap();
            assert_eq!(
                &parent.satellites()[..child.satellites().len()],
                child.satellites(),
                "planes={planes}"
            );
        }
    }

    #[test]
    fn slotted_layout_rejects_undersized_capacity() {
        assert!(ConstellationLayout::with_planes_slotted(
            4,
            1,
            475_000.0,
            97.2_f64.to_radians(),
            1,
            3
        )
        .is_err());
    }

    #[test]
    fn rejects_more_planes_than_phase_slots() {
        let slotted = |groups, planes, slots| {
            ConstellationLayout::with_planes_slotted(
                groups,
                1,
                475_000.0,
                97.2_f64.to_radians(),
                planes,
                slots,
            )
        };
        for (groups, planes, slots) in [(2, 3, 2), (2, 9, 2), (2, 4, 3)] {
            assert!(
                matches!(
                    slotted(groups, planes, slots),
                    Err(OrbitError::InvalidElement { name: "planes", .. })
                ),
                "groups={groups} planes={planes} slots={slots}"
            );
        }
        // Spare slots may host planes no group occupies yet.
        assert!(slotted(2, 3, 3).is_ok());
    }

    #[test]
    fn followers_trail_leaders() {
        let l = layout(1, 3);
        let leader_phase = l.satellites()[0].phase_rad;
        for s in &l.satellites()[1..] {
            assert!(s.phase_rad < leader_phase);
        }
        // Spacing is monotone.
        let phases: Vec<f64> = l.satellites()[1..].iter().map(|s| s.phase_rad).collect();
        for w in phases.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    /// Time by which a follower trails its group leader over the same
    /// ground point, seconds.
    fn follower_delay_s(l: &ConstellationLayout, follower_index: usize) -> f64 {
        let trail_m = ConstellationLayout::DEFAULT_LEAD_DISTANCE_M
            + follower_index as f64 * ConstellationLayout::DEFAULT_FOLLOWER_SPACING_M;
        let prop = J2Propagator::circular(l.altitude_m, l.inclination_rad, 0.0, 0.0).unwrap();
        (trail_m / MEAN_RADIUS_M) / (std::f64::consts::TAU / prop.period_s())
    }

    #[test]
    fn follower_ground_separation_matches_spec() {
        let l = layout(1, 1);
        let leader = l.ground_track(&l.satellites()[0]).unwrap();
        let follower = l.ground_track(&l.satellites()[1]).unwrap();
        let delay = follower_delay_s(&l, 0);
        // After `delay`, the follower reaches (almost) the leader's old
        // subsatellite point.
        let a = leader.state_at(500.0).unwrap();
        let b = follower.state_at(500.0 + delay).unwrap();
        // Earth rotates under the orbit during the ~13 s delay, offsetting
        // the follower's track cross-track by up to ω⊕·delay·Re ≈ 6 km —
        // well inside the ±92 km off-nadir pointing range that the
        // scheduler compensates with.
        let gap = eagleeye_geo::greatcircle::distance_m(&a.subsatellite, &b.subsatellite);
        assert!(gap < 8_000.0, "gap {gap} m");
    }

    #[test]
    fn follower_delay_is_about_thirteen_seconds() {
        // 100 km at ~7.5 km/s ground speed => ~13 s.
        let l = layout(1, 1);
        let d = follower_delay_s(&l, 0);
        assert!(d > 11.0 && d < 16.0, "delay {d}");
    }
}
