//! Batched orbit propagation with per-epoch trig memoization.
//!
//! The coverage evaluator steps every satellite over the same frame
//! epochs (`t = 0, c, 2c, …`). Propagating lazily inside the frame loop
//! recomputes, per satellite per frame, the Greenwich-sidereal-angle
//! sine/cosine for the ECI→ECEF rotation — values that depend only on
//! the epoch, not the satellite. [`EpochGrid`] hoists that trig out of
//! the loop (one pair per epoch, shared by the whole constellation).
//! [`EpochGrid::propagate`] batch-propagates one satellite's full
//! [`TrackState`]s over the grid; [`EpochGrid::ground_points`] yields
//! only its subsatellite points, one propagation per epoch, and
//! [`EpochGrid::fd_ground_point`] the finite-difference point a heading
//! needs, for the frames that need one.
//!
//! Cached and direct propagation are **bit-identical**: the grid
//! evaluates [`GroundTrack::gmst_at`] — the same function `state_at`
//! uses — at the same epochs, and feeds the results through
//! [`GroundTrack::state_at_with_trig`] or
//! [`GroundTrack::ground_point_with_trig`], the step `state_at_with_trig`
//! itself takes at `t` and `t + FD_DT_S`.
//!
//! # Invalidation
//!
//! A grid and the rows propagated over it are immutable and valid only
//! for the exact `(track, grid)` they came from. Anything that changes
//! the propagation inputs — constellation layout, altitude, inclination,
//! RAAN/phase, GMST epoch, frame cadence, or horizon — requires
//! propagating again; there is deliberately no partial-update API.

use crate::{GroundTrack, OrbitError, TrackState};
use eagleeye_geo::GeodeticPoint;
use eagleeye_obs::Metrics;

/// The frame epochs of an evaluation horizon, exactly as the coverage
/// evaluator's `while t < duration { t += cadence }` loop produces them
/// (accumulated, not multiplied, so cached runs match historical
/// float-for-float behaviour).
///
/// Returns an empty grid for non-positive cadence or duration.
pub fn frame_epochs(duration_s: f64, cadence_s: f64) -> Vec<f64> {
    let mut epochs = Vec::new();
    if !(cadence_s > 0.0) {
        return epochs;
    }
    let mut t = 0.0;
    while t < duration_s {
        epochs.push(t);
        t += cadence_s;
    }
    epochs
}

/// Epoch times plus the memoized sidereal-angle trig shared by every
/// satellite propagated over them.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochGrid {
    gmst_epoch_rad: f64,
    epochs: Vec<f64>,
    /// Per epoch: `(sin, cos)` of the sidereal angle at `t` and at
    /// `t + FD_DT_S` (the heading finite-difference point).
    trig: Vec<((f64, f64), (f64, f64))>,
}

impl EpochGrid {
    /// Builds a grid for tracks whose GMST epoch angle is
    /// `gmst_epoch_rad` (0 for every [`crate::ConstellationLayout`]
    /// track).
    pub fn new(gmst_epoch_rad: f64, epochs: Vec<f64>) -> Self {
        let trig = epochs
            .iter()
            .map(|&t| {
                (
                    GroundTrack::gmst_at(gmst_epoch_rad, t).sin_cos(),
                    GroundTrack::gmst_at(gmst_epoch_rad, t + GroundTrack::FD_DT_S).sin_cos(),
                )
            })
            .collect();
        EpochGrid {
            gmst_epoch_rad,
            epochs,
            trig,
        }
    }

    /// Grid over an evaluation horizon (see [`frame_epochs`]).
    pub fn for_horizon(gmst_epoch_rad: f64, duration_s: f64, cadence_s: f64) -> Self {
        Self::new(gmst_epoch_rad, frame_epochs(duration_s, cadence_s))
    }

    /// The epoch times, seconds past epoch.
    #[inline]
    pub fn epochs(&self) -> &[f64] {
        &self.epochs
    }

    /// Number of epochs.
    #[inline]
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// True when the grid holds no epochs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The GMST epoch angle the trig was memoized for.
    #[inline]
    pub fn gmst_epoch_rad(&self) -> f64 {
        self.gmst_epoch_rad
    }

    /// Propagates one track over every epoch, reusing the memoized trig
    /// when the track shares the grid's GMST epoch and falling back to
    /// direct propagation (same results, no sharing) when it does not.
    ///
    /// # Errors
    ///
    /// Propagates propagation and geodetic conversion failures.
    pub fn propagate(&self, track: &GroundTrack) -> Result<Vec<TrackState>, OrbitError> {
        if self.shares_trig(track) {
            self.epochs
                .iter()
                .zip(&self.trig)
                .map(|(&t, &(sc, sc_fd))| track.state_at_with_trig(t, sc, sc_fd))
                .collect()
        } else {
            self.epochs.iter().map(|&t| track.state_at(t)).collect()
        }
    }

    /// The subsatellite point (altitude 0) of one track at every epoch:
    /// one propagation per epoch, no heading. The memoized trig serves
    /// a track that shares the grid's GMST epoch; any other track gets
    /// direct trig, with the same results.
    ///
    /// Counts the grid pass (`orbit/grid_propagations`), its epochs
    /// (`orbit/propagation_calls`) and whether the memoized trig was
    /// shared (`orbit/trig_hits`) or not (`orbit/trig_misses`).
    ///
    /// # Errors
    ///
    /// Propagates propagation and geodetic conversion failures.
    pub fn ground_points(
        &self,
        track: &GroundTrack,
        metrics: &Metrics,
    ) -> Result<Vec<GeodeticPoint>, OrbitError> {
        if metrics.is_enabled() {
            metrics.incr("orbit/grid_propagations");
            metrics.add("orbit/propagation_calls", self.len() as u64);
        }
        if self.shares_trig(track) {
            metrics.incr("orbit/trig_hits");
            self.epochs
                .iter()
                .zip(&self.trig)
                .map(|(&t, &(sc, _))| track.ground_point_with_trig(t, sc))
                .collect()
        } else {
            metrics.incr("orbit/trig_misses");
            let theta0 = track.gmst_epoch_rad();
            self.epochs
                .iter()
                .map(|&t| {
                    track.ground_point_with_trig(t, GroundTrack::gmst_at(theta0, t).sin_cos())
                })
                .collect()
        }
    }

    /// The subsatellite point (altitude 0) of `track` at epoch `k` plus
    /// [`GroundTrack::FD_DT_S`]: the finite-difference point of
    /// `state_at`'s heading, with the memoized trig when the track
    /// shares the grid's GMST epoch.
    ///
    /// # Errors
    ///
    /// Propagates propagation and geodetic conversion failures.
    ///
    /// # Panics
    ///
    /// When `k` is not an epoch index of the grid.
    pub fn fd_ground_point(
        &self,
        track: &GroundTrack,
        k: usize,
    ) -> Result<GeodeticPoint, OrbitError> {
        let t = self.epochs[k] + GroundTrack::FD_DT_S;
        let sc = if self.shares_trig(track) {
            self.trig[k].1
        } else {
            GroundTrack::gmst_at(track.gmst_epoch_rad(), t).sin_cos()
        };
        track.ground_point_with_trig(t, sc)
    }

    /// Whether the memoized trig is `track`'s own.
    #[expect(
        clippy::float_cmp,
        reason = "the memoised trig reproduces direct propagation bit for bit only at the exact epoch it was built for"
    )]
    fn shares_trig(&self, track: &GroundTrack) -> bool {
        track.gmst_epoch_rad() == self.gmst_epoch_rad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstellationLayout, J2Propagator};

    fn paper_track(phase: f64) -> GroundTrack {
        GroundTrack::new(
            J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, phase).unwrap(),
        )
    }

    #[test]
    fn frame_epochs_match_accumulation_loop() {
        let epochs = frame_epochs(100.0, 15.0);
        // Replicate the evaluator's historical loop.
        let mut expected = Vec::new();
        let mut t = 0.0;
        while t < 100.0 {
            expected.push(t);
            t += 15.0;
        }
        assert_eq!(epochs, expected);
        assert!(frame_epochs(10.0, 0.0).is_empty());
        assert!(frame_epochs(10.0, -1.0).is_empty());
        assert!(frame_epochs(0.0, 15.0).is_empty());
    }

    #[test]
    fn cached_states_are_bit_identical_to_direct_propagation() {
        let tracks = [paper_track(0.0), paper_track(1.3)];
        let grid = EpochGrid::for_horizon(0.0, 3_600.0, 14.7);
        for (i, track) in tracks.iter().enumerate() {
            let row = grid.propagate(track).unwrap();
            for (k, &t) in grid.epochs().iter().enumerate() {
                let direct = track.state_at(t).unwrap();
                assert_eq!(row[k], direct, "sat {i} frame {k}");
            }
        }
    }

    #[test]
    fn shifted_gmst_epoch_falls_back_and_still_matches() {
        let track = paper_track(0.0).with_gmst_epoch(0.7);
        let grid = EpochGrid::for_horizon(0.0, 600.0, 15.0);
        let row = grid.propagate(&track).unwrap();
        for (k, &t) in grid.epochs().iter().enumerate() {
            assert_eq!(row[k], track.state_at(t).unwrap());
        }
    }

    #[test]
    fn layout_tracks_share_the_zero_gmst_grid() {
        let layout =
            ConstellationLayout::with_planes(2, 1, 475_000.0, 97.2_f64.to_radians(), 1).unwrap();
        let grid = EpochGrid::for_horizon(0.0, 1_000.0, 15.0);
        for sat in layout.satellites() {
            let track = layout.ground_track(sat).unwrap();
            assert_eq!(track.gmst_epoch_rad(), 0.0);
            assert_eq!(grid.propagate(&track).unwrap().len(), grid.len());
        }
    }

    #[test]
    fn observed_propagation_counts_hits_and_misses() {
        let metrics = Metrics::enabled();
        let grid = EpochGrid::for_horizon(0.0, 600.0, 15.0);
        let shared = paper_track(0.0);
        let shifted = paper_track(0.0).with_gmst_epoch(0.7);
        for track in [shared, shifted] {
            let points = grid.ground_points(&track, &metrics).unwrap();
            let states = grid.propagate(&track).unwrap();
            for (point, state) in points.iter().zip(&states) {
                assert_eq!(*point, state.subsatellite.with_altitude(0.0).unwrap());
            }
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("orbit/trig_hits"), 1);
        assert_eq!(snap.counter("orbit/trig_misses"), 1);
        assert_eq!(snap.counter("orbit/grid_propagations"), 2);
        assert_eq!(
            snap.counter("orbit/propagation_calls"),
            2 * grid.len() as u64
        );
    }
}
