use super::Capture;
use crate::pointing::{visibility_window, GroundPoint, TimeWindow};
use crate::{CoreError, SensingSpec};
use std::collections::BTreeSet;

/// One capture task: a clustered target with a priority value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Footprint center to point at, frame coordinates.
    pub point: GroundPoint,
    /// Priority value (sum of member confidences after clustering).
    pub value: f64,
}

impl TaskSpec {
    /// Creates a task at `(cross_m, along_m)` with the given value.
    pub fn new(cross_m: f64, along_m: f64, value: f64) -> Self {
        TaskSpec {
            point: GroundPoint::new(cross_m, along_m),
            value,
        }
    }
}

/// The state of a follower at scheduling time, as queried by the leader
/// over the crosslink (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FollowerState {
    /// Subsatellite along-track position at `t = 0`, meters. The
    /// follower moves at the spec's ground speed.
    pub along_at_0_m: f64,
    /// Earliest time the follower can begin maneuvering (end of its
    /// previous schedule), seconds.
    pub available_from_s: f64,
    /// Pointing offset from nadir at `available_from_s`
    /// `(cross_m, along_m)` — the residual attitude of the previous
    /// schedule. `(0, 0)` is nadir.
    pub pointing_offset: (f64, f64),
}

impl FollowerState {
    /// A nadir-pointed follower available immediately, whose
    /// subsatellite point is at `along_at_0_m` at `t = 0`.
    pub fn at_start(along_at_0_m: f64) -> Self {
        FollowerState {
            along_at_0_m,
            available_from_s: 0.0,
            pointing_offset: (0.0, 0.0),
        }
    }

    /// Subsatellite along-track position at time `t`.
    #[inline]
    pub fn along_at(&self, t_s: f64, ground_speed_m_s: f64) -> f64 {
        self.along_at_0_m + ground_speed_m_s * t_s
    }
}

/// A fully-specified scheduling instance: sensing configuration, tasks,
/// followers, and the derived per-(follower, task) visibility windows.
///
/// # Example
///
/// ```
/// use eagleeye_core::schedule::{FollowerState, SchedulingProblem, TaskSpec};
/// use eagleeye_core::SensingSpec;
///
/// let p = SchedulingProblem::new(
///     SensingSpec::paper_default(),
///     vec![TaskSpec::new(0.0, 50_000.0, 1.0)],
///     vec![FollowerState::at_start(-100_000.0)],
/// )?;
/// let w = p.window(0, 0).expect("on-track target is visible");
/// assert!(w.duration_s() > 20.0);
/// # Ok::<(), eagleeye_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingProblem {
    spec: SensingSpec,
    tasks: Vec<TaskSpec>,
    followers: Vec<FollowerState>,
    /// `windows[f][j]`: visibility of task `j` from follower `f`,
    /// already intersected with the follower's availability.
    windows: Vec<Vec<Option<TimeWindow>>>,
}

impl SchedulingProblem {
    /// Builds a problem and precomputes all visibility windows.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the spec fails
    /// validation or a task value is not finite.
    pub fn new(
        spec: SensingSpec,
        tasks: Vec<TaskSpec>,
        followers: Vec<FollowerState>,
    ) -> Result<Self, CoreError> {
        Self::new_with_clip(spec, tasks, followers, None)
    }

    /// Like [`SchedulingProblem::new`], additionally intersecting every
    /// visibility window with `clip`. This models the mix-camera
    /// configuration (paper §4.4): onboard compute time delays the start
    /// of the usable window and the need to resume nadir imaging caps
    /// its end.
    ///
    /// # Errors
    ///
    /// Same as [`SchedulingProblem::new`].
    pub fn new_with_clip(
        spec: SensingSpec,
        tasks: Vec<TaskSpec>,
        followers: Vec<FollowerState>,
        clip: Option<TimeWindow>,
    ) -> Result<Self, CoreError> {
        spec.validate()?;
        for t in &tasks {
            if !t.value.is_finite() {
                return Err(CoreError::InvalidParameter {
                    name: "task value",
                    value: t.value,
                });
            }
        }
        let windows = followers
            .iter()
            .map(|f| {
                tasks
                    .iter()
                    .map(|t| {
                        visibility_window(
                            &t.point,
                            f.along_at_0_m,
                            spec.ground_speed_m_s,
                            spec.theta_max_rad,
                            spec.altitude_m,
                        )
                        .map(|w| {
                            let base = TimeWindow {
                                start_s: w.start_s.max(f.available_from_s),
                                end_s: w.end_s,
                            };
                            match clip {
                                Some(c) => base.intersect(&c),
                                None => base,
                            }
                        })
                        .filter(|w| !w.is_empty())
                    })
                    .collect()
            })
            .collect();
        Ok(SchedulingProblem {
            spec,
            tasks,
            followers,
            windows,
        })
    }

    /// Sensing configuration.
    #[inline]
    pub fn spec(&self) -> &SensingSpec {
        &self.spec
    }

    /// Capture tasks.
    #[inline]
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Follower states.
    #[inline]
    pub fn followers(&self) -> &[FollowerState] {
        &self.followers
    }

    /// Visibility window of task `j` from follower `f`, or `None` when
    /// the task is out of reach.
    #[inline]
    pub fn window(&self, f: usize, j: usize) -> Option<TimeWindow> {
        self.windows[f][j]
    }

    /// Pointing offset from nadir for follower `f` capturing task `j`
    /// at time `t`: `(cross, along_target − along_subsatellite)`.
    pub fn capture_offset(&self, f: usize, j: usize, t_s: f64) -> (f64, f64) {
        let sat = self.followers[f].along_at(t_s, self.spec.ground_speed_m_s);
        (
            self.tasks[j].point.cross_m,
            self.tasks[j].point.along_m - sat,
        )
    }

    /// Exact rotation between two pointing offsets (paper Eq. 1).
    pub fn rotation_between(&self, u1: (f64, f64), u2: (f64, f64)) -> f64 {
        crate::pointing::rotation_rad(
            &GroundPoint::new(u1.0, u1.1),
            0.0,
            &GroundPoint::new(u2.0, u2.1),
            0.0,
            self.spec.altitude_m,
        )
    }

    /// Earliest feasible capture time of task `j` by follower `f`
    /// departing from pointing `from_offset` at time `from_t`, or `None`
    /// when no time in the window works. Solved by fixed-point iteration
    /// on `t = from_t + slew_time(rotation(from, target@t))`, which
    /// converges because the pointing offset changes slower than the
    /// slew (contraction for rates ≥ 1 °/s; see DESIGN.md).
    pub fn earliest_capture(
        &self,
        f: usize,
        j: usize,
        from_t: f64,
        from_offset: (f64, f64),
    ) -> Option<f64> {
        let w = self.windows[f][j]?;
        let mut t = w.start_s.max(from_t);
        for _ in 0..100 {
            if t > w.end_s + 1e-9 {
                return None;
            }
            let u2 = self.capture_offset(f, j, t);
            let rot = self.rotation_between(from_offset, u2);
            let need = self.spec.adacs.min_slew_time_s(rot);
            // Accept as soon as the slew fits in the available interval.
            if from_t + need <= t + 1e-12 {
                return Some(t);
            }
            // Otherwise push the candidate time to the requirement; the
            // iteration contracts because pointing drifts slower than the
            // slew catches up (see module docs).
            t = from_t + need;
        }
        None
    }

    /// Every follower's cursor before its first capture.
    pub(crate) fn start_cursors(&self) -> Vec<Cursor> {
        self.followers
            .iter()
            .map(|f| (f.available_from_s, f.pointing_offset))
            .collect()
    }

    /// Follower `f`'s cursor right after it makes `capture`.
    pub(crate) fn cursor_after(&self, f: usize, capture: Capture) -> Cursor {
        let offset = self.capture_offset(f, capture.task, capture.time_s);
        (capture.time_s, offset)
    }

    /// The feasible next captures: each `(follower, cursor)` in
    /// `cursors`, crossed with each candidate `(task, floor)` in the
    /// caller's order, at the task's earliest capture from the cursor's
    /// time, or from `floor` when that is later. Yields `(follower,
    /// candidate position, capture)`. Greedy, the ILP's augmentation,
    /// repair and AB&B all search this way (DESIGN.md §3.2).
    ///
    /// `floor` is an `Option` rather than `-inf` for "none": `NaN.max(-inf)`
    /// is `-inf`, so an unconditional floor would change a NaN cursor.
    pub(crate) fn next_captures<'a, C>(
        &'a self,
        cursors: impl Iterator<Item = (usize, Cursor)> + 'a,
        candidates: C,
    ) -> impl Iterator<Item = (usize, usize, Capture)> + 'a
    where
        C: Iterator<Item = (usize, Option<f64>)> + Clone + 'a,
    {
        cursors.flat_map(move |(f, (from_t, from_offset))| {
            candidates
                .clone()
                .enumerate()
                .filter_map(move |(k, (task, floor))| {
                    let from_t = floor.map_or(from_t, |floor| from_t.max(floor));
                    let time_s = self.earliest_capture(f, task, from_t, from_offset)?;
                    Some((f, k, Capture { task, time_s }))
                })
        })
    }

    /// Total value of `tasks`, summed in ascending task order, so equal
    /// captured sets report equal bits whichever scheduler found them.
    pub(crate) fn value_of(&self, tasks: &BTreeSet<usize>) -> f64 {
        tasks.iter().map(|&j| self.tasks[j].value).sum()
    }
}

/// A follower's state while a schedule is built: the time of its last
/// capture (or its availability) and its pointing offset then.
pub(crate) type Cursor = (f64, (f64, f64));

/// The first of `captures` at the earliest time: a later capture at an
/// equal time does not replace it.
pub(crate) fn first_earliest(
    captures: impl Iterator<Item = (usize, usize, Capture)>,
) -> Option<(usize, usize, Capture)> {
    // A plain loop: with `reduce` over the flat-mapped search, greedy
    // ran 3-8 % slower (release build, 2-vCPU VM).
    let mut best: Option<(usize, usize, Capture)> = None;
    for next in captures {
        match best {
            Some(b) if b.2.time_s <= next.2.time_s => {}
            _ => best = Some(next),
        }
    }
    best
}

/// [`SchedulingProblem::next_captures`] candidates: the tasks not yet
/// `captured`, in task order, with no floor.
pub(crate) fn uncaptured(
    captured: &[bool],
) -> impl Iterator<Item = (usize, Option<f64>)> + Clone + '_ {
    captured
        .iter()
        .enumerate()
        .filter(|&(_, &taken)| !taken)
        .map(|(j, _)| (j, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SensingSpec {
        SensingSpec::paper_default()
    }

    #[test]
    fn windows_respect_availability() {
        let mut f = FollowerState::at_start(-100_000.0);
        f.available_from_s = 1_000.0;
        let p = SchedulingProblem::new(spec(), vec![TaskSpec::new(0.0, 50_000.0, 1.0)], vec![f])
            .unwrap();
        // Window would end ~ (50km + 92km + 100km)/7.1km/s ≈ 34 s; with
        // availability at 1000 s the window is gone.
        assert!(p.window(0, 0).is_none());
    }

    #[test]
    fn out_of_cone_tasks_have_no_window() {
        let p = SchedulingProblem::new(
            spec(),
            vec![TaskSpec::new(95_000.0, 50_000.0, 1.0)],
            vec![FollowerState::at_start(-100_000.0)],
        )
        .unwrap();
        assert!(p.window(0, 0).is_none());
    }

    #[test]
    fn earliest_capture_is_within_window_and_feasible() {
        let p = SchedulingProblem::new(
            spec(),
            vec![TaskSpec::new(30_000.0, 60_000.0, 1.0)],
            vec![FollowerState::at_start(-100_000.0)],
        )
        .unwrap();
        let t = p.earliest_capture(0, 0, 0.0, (0.0, 0.0)).unwrap();
        let w = p.window(0, 0).unwrap();
        assert!(w.contains(t), "t {t} not in [{}, {}]", w.start_s, w.end_s);
        let u = p.capture_offset(0, 0, t);
        let rot = p.rotation_between((0.0, 0.0), u);
        assert!(p.spec().adacs.can_rotate(rot, t - 0.0));
    }

    #[test]
    fn earliest_capture_none_when_window_passed() {
        let p = SchedulingProblem::new(
            spec(),
            vec![TaskSpec::new(0.0, 50_000.0, 1.0)],
            vec![FollowerState::at_start(-100_000.0)],
        )
        .unwrap();
        let w = p.window(0, 0).unwrap();
        assert!(p
            .earliest_capture(0, 0, w.end_s + 100.0, (0.0, 0.0))
            .is_none());
    }

    #[test]
    fn capture_offset_tracks_satellite_motion() {
        let p = SchedulingProblem::new(
            spec(),
            vec![TaskSpec::new(10_000.0, 0.0, 1.0)],
            vec![FollowerState::at_start(0.0)],
        )
        .unwrap();
        let u0 = p.capture_offset(0, 0, 0.0);
        let u1 = p.capture_offset(0, 0, 1.0);
        assert_eq!(u0.0, u1.0); // cross-track fixed
        let drift = u0.1 - u1.1;
        assert!((drift - p.spec().ground_speed_m_s).abs() < 1e-9);
    }

    #[test]
    fn rejects_nan_values() {
        assert!(SchedulingProblem::new(
            spec(),
            vec![TaskSpec::new(0.0, 0.0, f64::NAN)],
            vec![FollowerState::at_start(0.0)],
        )
        .is_err());
    }
}
