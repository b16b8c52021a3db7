use eagleeye_geo::{greatcircle, GeodeticPoint, GridIndex};
#[expect(
    clippy::disallowed_types,
    reason = "bucket indices are read by key only; iteration order never escapes"
)]
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One sensing target.
///
/// Static targets (ships-snapshot, lakes, tanks) have `motion: None` and
/// exist for the whole simulation. Moving targets (airplanes) carry a
/// great-circle motion and an existence window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Target {
    /// Position at `t = appears_at_s` (for static targets, the fixed
    /// position).
    pub position: GeodeticPoint,
    /// Priority value of the target; the scheduler maximizes the sum of
    /// captured values (paper §3.2 uses detection confidence).
    pub value: f64,
    /// Ground speed (m/s) and initial bearing (rad) for moving targets.
    pub motion: Option<(f64, f64)>,
    /// Simulation time at which the target starts existing, seconds.
    pub appears_at_s: f64,
    /// Simulation time at which the target stops existing, seconds
    /// (`f64::INFINITY` for permanent targets).
    pub disappears_at_s: f64,
}

impl Target {
    /// Creates a permanent, static target.
    pub fn fixed(position: GeodeticPoint, value: f64) -> Self {
        FIXED.with(position, value)
    }

    /// True when the target exists at simulation time `t_s`.
    #[inline]
    pub fn exists_at(&self, t_s: f64) -> bool {
        self.kinematics().exists_at(t_s)
    }

    /// Position at simulation time `t_s`. Moving targets travel a great
    /// circle from their initial position; static targets never move.
    /// The position saturates at the end of the existence window.
    pub fn position_at(&self, t_s: f64) -> GeodeticPoint {
        self.kinematics().position_at(self.position, t_s)
    }

    /// Maximum ground speed of the target (0 for static targets).
    #[inline]
    pub fn speed_m_s(&self) -> f64 {
        self.kinematics().speed_m_s()
    }

    fn kinematics(&self) -> Kinematics {
        Kinematics {
            motion: self.motion,
            appears_at_s: self.appears_at_s,
            disappears_at_s: self.disappears_at_s,
        }
    }
}

/// The part of a [`Target`] beyond its position and value: its motion
/// and existence window. A [`TargetSet`] stores it only when some target
/// is not [`Target::fixed`]-shaped.
#[derive(Debug, Clone, Copy)]
struct Kinematics {
    motion: Option<(f64, f64)>,
    appears_at_s: f64,
    disappears_at_s: f64,
}

/// The kinematics of every [`Target::fixed`] target.
const FIXED: Kinematics = Kinematics {
    motion: None,
    appears_at_s: 0.0,
    disappears_at_s: f64::INFINITY,
};

impl Kinematics {
    /// The target at `position` with `value` and these kinematics.
    fn with(self, position: GeodeticPoint, value: f64) -> Target {
        Target {
            position,
            value,
            motion: self.motion,
            appears_at_s: self.appears_at_s,
            disappears_at_s: self.disappears_at_s,
        }
    }

    /// Bit-equal to [`FIXED`] (a `-0.0` appearance time is not), so a
    /// set without the column returns every target bit-identical.
    fn is_fixed(&self) -> bool {
        self.motion.is_none()
            && self.appears_at_s.to_bits() == FIXED.appears_at_s.to_bits()
            && self.disappears_at_s.to_bits() == FIXED.disappears_at_s.to_bits()
    }

    #[inline]
    fn exists_at(&self, t_s: f64) -> bool {
        t_s >= self.appears_at_s && t_s <= self.disappears_at_s
    }

    /// Position at `t_s` of a target that appears at `origin`.
    fn position_at(&self, origin: GeodeticPoint, t_s: f64) -> GeodeticPoint {
        match self.motion {
            None => origin,
            Some((speed, bearing)) => {
                let t = t_s.clamp(self.appears_at_s, self.disappears_at_s);
                let dist = speed * (t - self.appears_at_s);
                greatcircle::destination(&origin, bearing, dist).unwrap_or(origin)
            }
        }
    }

    #[inline]
    fn speed_m_s(&self) -> f64 {
        self.motion.map(|(v, _)| v).unwrap_or(0.0)
    }
}

/// Seconds per time bucket for the moving-target spatial index.
const BUCKET_S: f64 = 300.0;

/// A set of targets with spatial indexing.
///
/// Targets are stored as columns: a position and a value per target,
/// plus motion and existence window only when some target is not
/// [`Target::fixed`]-shaped (a lake, ship or tank set holds 32 bytes a
/// target). [`target`](Self::target) assembles a [`Target`] by value;
/// hot paths read one column through [`value`](Self::value) and
/// [`position_at`](Self::position_at). Build a set by collecting
/// targets ([`FromIterator`]); the columns are sized from the
/// iterator's length, with no slack.
///
/// When every target is static (`motion: None`), one lazily built
/// [`GridIndex`] answers frame-membership queries at every time. When
/// any target moves, the set lazily builds one index per five-minute
/// time bucket (positions sampled at the bucket midpoint) and pads
/// queries by the worst-case intra-bucket motion, so queries stay
/// exact. Dataset-level invariants (total value, fastest speed) are
/// computed once, at construction.
///
/// # Example
///
/// ```
/// use eagleeye_datasets::{Target, TargetSet};
/// use eagleeye_geo::GeodeticPoint;
///
/// let targets = vec![
///     Target::fixed(GeodeticPoint::from_degrees(10.0, 10.0, 0.0)?, 1.0),
///     Target::fixed(GeodeticPoint::from_degrees(-60.0, 100.0, 0.0)?, 1.0),
/// ];
/// let set = TargetSet::new(targets);
/// let center = GeodeticPoint::from_degrees(10.0, 10.0, 0.0)?;
/// let hits = set.query_radius(&center, 100_000.0, 0.0);
/// assert_eq!(hits.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TargetSet {
    positions: Vec<GeodeticPoint>,
    values: Vec<f64>,
    /// Each target's kinematics, or `None` when every target is
    /// [`FIXED`].
    kinematics: Option<Vec<Kinematics>>,
    max_speed_m_s: f64,
    total_value: f64,
    index: SpatialIndex,
}

/// The lazily built spatial index of a [`TargetSet`], chosen by its
/// data: static positions never change, so one index serves every
/// time; moving positions are sampled per time bucket.
#[derive(Debug)]
enum SpatialIndex {
    /// Every target has `motion: None`.
    Static(OnceLock<Arc<GridIndex>>),
    /// Per-bucket indices keyed by bucket number.
    #[expect(
        clippy::disallowed_types,
        reason = "accessed only by bucket key, never iterated"
    )]
    Moving(Mutex<HashMap<i64, Arc<GridIndex>>>),
}

/// A snapshot of the spatial index for one time bucket: the
/// lazily-built [`GridIndex`] over target positions sampled at the
/// bucket midpoint, plus the worst-case intra-bucket motion pad that
/// keeps queries exact. Obtained from [`TargetSet::bucket_view`]; valid
/// for every query time inside that bucket. A static set's view holds
/// its one shared index, has no pad, and is valid at every time.
///
/// Holding a view lets a caller that sweeps many frames within one
/// bucket (the coverage compiler's per-segment sweep) take the
/// `TargetSet` index lock once per segment instead of once per frame,
/// then run per-frame candidate queries lock-free.
#[derive(Debug, Clone)]
pub struct BucketView {
    index: Arc<GridIndex>,
    /// The time bucket the view answers, or `None` for a static set's
    /// view, which answers every time.
    bucket: Option<i64>,
    /// Sample time of the indexed positions (the bucket midpoint;
    /// irrelevant for a static set, whose positions never change).
    midpoint_t_s: f64,
    /// Query pad (meters) covering worst-case target drift between the
    /// midpoint sample and any time inside the bucket.
    pad_m: f64,
}

impl BucketView {
    /// True when the view answers queries at `t_s` exactly: `t_s`
    /// falls inside the view's time bucket, or the set is static.
    #[inline]
    pub fn covers(&self, t_s: f64) -> bool {
        self.bucket.is_none_or(|b| bucket_of(t_s) == b)
    }
}

/// One target a [`TargetSet::members_in`] query found in range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Member {
    /// Index of the target in its set.
    pub index: usize,
    /// The target's position at the query time.
    pub position: GeodeticPoint,
    /// Great-circle distance from the query center to `position`,
    /// meters.
    pub distance_m: f64,
}

/// The time bucket containing `t_s`.
#[inline]
fn bucket_of(t_s: f64) -> i64 {
    (t_s / BUCKET_S).floor() as i64
}

impl TargetSet {
    /// Builds a target set from records; [`FromIterator`] builds one
    /// without them.
    pub fn new(targets: Vec<Target>) -> Self {
        targets.into_iter().collect()
    }

    /// Number of targets.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when there are no targets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Target `i`, assembled from the columns.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn target(&self, i: usize) -> Target {
        let kinematics = self.kinematics.as_ref().map_or(FIXED, |k| k[i]);
        kinematics.with(self.positions[i], self.values[i])
    }

    /// The value of target `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// The position of target `i` at `t_s`, bit-equal to
    /// `self.target(i).position_at(t_s)`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn position_at(&self, i: usize, t_s: f64) -> GeodeticPoint {
        match &self.kinematics {
            None => self.positions[i],
            Some(kinematics) => kinematics[i].position_at(self.positions[i], t_s),
        }
    }

    /// Iterates over all targets, by value.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Target> + '_ {
        (0..self.len()).map(|i| self.target(i))
    }

    /// Fastest target in the set, m/s.
    #[inline]
    pub fn max_speed_m_s(&self) -> f64 {
        self.max_speed_m_s
    }

    /// Returns indices of targets that exist at `t_s` and lie within
    /// `radius_m` of `center` at that time, ascending.
    pub fn query_radius(&self, center: &GeodeticPoint, radius_m: f64, t_s: f64) -> Vec<usize> {
        let mut members = Vec::new();
        self.members_in(&self.bucket_view(t_s), center, radius_m, t_s, &mut members);
        members.into_iter().map(|m| m.index).collect()
    }

    /// The spatial-index view for the time bucket containing `t_s`,
    /// building the [`GridIndex`] on first use. A static set has one
    /// index and one view for every time; a moving set has one per
    /// bucket. Takes the internal index lock at most once; the returned
    /// view queries lock-free.
    pub fn bucket_view(&self, t_s: f64) -> BucketView {
        let buckets = match &self.index {
            SpatialIndex::Static(index) => {
                return BucketView {
                    index: Arc::clone(index.get_or_init(|| Arc::new(self.grid_at(0.0)))),
                    bucket: None,
                    midpoint_t_s: 0.0,
                    pad_m: 0.0,
                };
            }
            SpatialIndex::Moving(buckets) => buckets,
        };
        let bucket = bucket_of(t_s);
        let midpoint_t_s = (bucket as f64 + 0.5) * BUCKET_S;
        // A poisoned lock only means another thread panicked mid-insert;
        // the cache itself is an optimization, so recover the guard.
        let index = buckets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(bucket)
            .or_insert_with(|| Arc::new(self.grid_at(midpoint_t_s)))
            .clone();
        BucketView {
            index,
            bucket: Some(bucket),
            midpoint_t_s,
            // Twice the worst-case drift from the midpoint to a bucket edge.
            pad_m: self.max_speed_m_s * BUCKET_S,
        }
    }

    /// A [`GridIndex`] over every target's position at `t_s`. Static
    /// positions are read straight from their column; moving ones are
    /// sampled once into a buffer, which the build walks twice.
    #[expect(
        clippy::expect_used,
        reason = "2° cells fit the table, and u32::MAX targets would take 128 GiB of columns"
    )]
    fn grid_at(&self, t_s: f64) -> GridIndex {
        let lat_lon = |p: GeodeticPoint| (p.lat_deg(), p.lon_deg());
        let built = match &self.index {
            SpatialIndex::Static(_) => {
                GridIndex::build(2.0, self.positions.iter().copied().map(lat_lon))
            }
            SpatialIndex::Moving(_) => {
                let sampled: Vec<(f64, f64)> = (0..self.len())
                    .map(|i| lat_lon(self.position_at(i, t_s)))
                    .collect();
                GridIndex::build(2.0, sampled)
            }
        };
        built.expect("a 2-degree grid over at most u32::MAX targets")
    }

    /// The membership kernel: writes into `out` (cleared first) every
    /// target that exists at `t_s` and lies within `radius_m` of
    /// `center` at that time, ascending by index, each with its
    /// position at `t_s` and its distance from `center`
    /// (`greatcircle::distance_m(center, &position)`, so a
    /// [`LocalFrame`](eagleeye_geo::LocalFrame) anchored at `center`
    /// projects it with `project_at` without recomputing it). `view`
    /// must cover `t_s`.
    ///
    /// Each bbox cell of the (drift-padded) cap is visited once and
    /// each candidate's distance computed once: a static target's
    /// position never changes, and a moving target is tested at the
    /// bucket midpoint against the padded radius before its position
    /// at `t_s` is tested against `radius_m`. A set without a
    /// kinematics column reads positions only: every target exists
    /// from 0 s on, so one test of `t_s` stands for all. The result is
    /// exactly the reference composition it replaced — a padded
    /// candidate query on the view, refined by the exact test at `t_s`
    /// — which the tests below keep as the kernel's oracle.
    pub fn members_in(
        &self,
        view: &BucketView,
        center: &GeodeticPoint,
        radius_m: f64,
        t_s: f64,
        out: &mut Vec<Member>,
    ) {
        debug_assert!(view.covers(t_s), "the view must cover the query time");
        out.clear();
        let padded_m = radius_m + view.pad_m;
        let mut push_within = |index: usize, position: GeodeticPoint| {
            let distance_m = greatcircle::distance_m(center, &position);
            if distance_m <= radius_m {
                out.push(Member {
                    index,
                    position,
                    distance_m,
                });
            }
        };
        match &self.kinematics {
            None if !FIXED.exists_at(t_s) => {}
            None => view.index.for_each_in_cap(center, padded_m, |index| {
                push_within(index, self.positions[index])
            }),
            Some(kinematics) => view.index.for_each_in_cap(center, padded_m, |index| {
                let (k, origin) = (kinematics[index], self.positions[index]);
                if !k.exists_at(t_s) {
                    return;
                }
                // A static target passes the padded candidate test
                // whenever it passes the exact one (the pad is never
                // negative), so only a moving target needs its midpoint
                // sample tested.
                if k.motion.is_some() {
                    let sampled = k.position_at(origin, view.midpoint_t_s);
                    if !(greatcircle::distance_m(center, &sampled) <= padded_m) {
                        return;
                    }
                }
                push_within(index, k.position_at(origin, t_s));
            }),
        }
        out.sort_unstable_by_key(|m| m.index);
    }

    /// Sum of values over all targets, computed once at construction.
    #[inline]
    pub fn total_value(&self) -> f64 {
        self.total_value
    }
}

impl FromIterator<Target> for TargetSet {
    /// Fills the columns straight from the iterator, reserving its
    /// lower size bound up front. The kinematics column appears at the
    /// first target that is not fixed-shaped, backfilled for the fixed
    /// ones before it.
    fn from_iter<I: IntoIterator<Item = Target>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let (n, _) = iter.size_hint();
        let mut positions = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        let mut kinematics: Option<Vec<Kinematics>> = None;
        for target in iter {
            let k = target.kinematics();
            match &mut kinematics {
                Some(column) => column.push(k),
                None if k.is_fixed() => {}
                None => {
                    let mut column = Vec::with_capacity(positions.capacity());
                    column.resize(positions.len(), FIXED);
                    column.push(k);
                    kinematics = Some(column);
                }
            }
            positions.push(target.position);
            values.push(target.value);
        }
        positions.shrink_to_fit();
        values.shrink_to_fit();
        if let Some(column) = &mut kinematics {
            column.shrink_to_fit();
        }
        let max_speed_m_s = kinematics.as_ref().map_or(0.0, |column| {
            column.iter().map(Kinematics::speed_m_s).fold(0.0, f64::max)
        });
        let total_value = values.iter().sum();
        #[expect(
            clippy::disallowed_types,
            reason = "accessed only by bucket key, never iterated"
        )]
        let index = match &kinematics {
            Some(column) if column.iter().any(|k| k.motion.is_some()) => {
                SpatialIndex::Moving(Mutex::new(HashMap::new()))
            }
            _ => SpatialIndex::Static(OnceLock::new()),
        };
        TargetSet {
            positions,
            values,
            kinematics,
            max_speed_m_s,
            total_value,
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_check::{
        check_cases, f64_range, prop_assert, prop_assert_eq, usize_range, vec_of, Failure, Gen,
    };
    use eagleeye_geo::LocalFrame;

    fn pt(lat: f64, lon: f64) -> GeodeticPoint {
        GeodeticPoint::from_degrees(lat, lon, 0.0).unwrap()
    }

    #[test]
    fn fixed_targets_never_move() {
        let t = Target::fixed(pt(10.0, 20.0), 1.0);
        assert_eq!(t.position_at(0.0), t.position_at(1e6));
        assert!(t.exists_at(0.0));
        assert!(t.exists_at(1e9));
    }

    #[test]
    fn moving_target_travels_at_speed() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.motion = Some((100.0, 0.0)); // 100 m/s due north
        let p = t.position_at(1000.0);
        let d = greatcircle::distance_m(&t.position, &p);
        assert!((d - 100_000.0).abs() < 1.0, "d = {d}");
    }

    #[test]
    fn existence_window_is_respected() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.appears_at_s = 100.0;
        t.disappears_at_s = 200.0;
        assert!(!t.exists_at(99.0));
        assert!(t.exists_at(150.0));
        assert!(!t.exists_at(201.0));
    }

    #[test]
    fn position_saturates_outside_window() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.motion = Some((100.0, 0.0));
        t.appears_at_s = 0.0;
        t.disappears_at_s = 100.0;
        // After disappearing, position stays at the final point.
        assert_eq!(t.position_at(100.0), t.position_at(10_000.0));
    }

    #[test]
    fn static_query_matches_brute_force() {
        let targets: Vec<Target> = (0..200)
            .map(|i| {
                let lat = -60.0 + (i % 25) as f64 * 5.0;
                let lon = -180.0 + (i / 25) as f64 * 40.0;
                Target::fixed(pt(lat, lon), 1.0)
            })
            .collect();
        let set = TargetSet::new(targets.clone());
        let center = pt(0.0, 0.0);
        let got = set.query_radius(&center, 2_000_000.0, 0.0);
        let want: Vec<usize> = (0..targets.len())
            .filter(|&i| greatcircle::distance_m(&center, &targets[i].position) <= 2_000_000.0)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn moving_query_finds_target_at_later_position() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.motion = Some((250.0, std::f64::consts::FRAC_PI_2)); // east, jet speed
        let set = TargetSet::new(vec![t]);
        // After 2000 s the plane is ~500 km east.
        let future = t.position_at(2000.0);
        let hits = set.query_radius(&future, 10_000.0, 2000.0);
        assert_eq!(hits, vec![0]);
        // And it is NOT near its origin anymore.
        let at_origin = set.query_radius(&pt(0.0, 0.0), 10_000.0, 2000.0);
        assert!(at_origin.is_empty());
    }

    #[test]
    fn query_excludes_nonexistent_targets() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.appears_at_s = 1000.0;
        let set = TargetSet::new(vec![t]);
        assert!(set.query_radius(&pt(0.0, 0.0), 10_000.0, 0.0).is_empty());
        assert_eq!(set.query_radius(&pt(0.0, 0.0), 10_000.0, 1500.0), vec![0]);
    }

    #[test]
    fn from_iterator_collects() {
        let set: TargetSet = (0..5)
            .map(|i| Target::fixed(pt(i as f64, 0.0), 1.0))
            .collect();
        assert_eq!(set.len(), 5);
        assert_eq!(set.total_value(), 5.0);
    }

    /// The record-per-target storage the columns replaced, kept as
    /// their oracle: one [`Target`] per target, read whole by every
    /// query, with the per-target existence test the kernel ran before.
    struct Records(Vec<Target>);

    impl Records {
        fn max_speed_m_s(&self) -> f64 {
            self.0.iter().map(Target::speed_m_s).fold(0.0, f64::max)
        }

        fn total_value(&self) -> f64 {
            self.0.iter().map(|t| t.value).sum()
        }

        /// The per-bucket view every set used before static sets shared
        /// one index: a fresh [`GridIndex`] over positions at the bucket
        /// midpoint, padded by the set's worst-case intra-bucket drift.
        fn bucket_view(&self, t_s: f64) -> BucketView {
            let bucket = (t_s / BUCKET_S).floor() as i64;
            let midpoint_t_s = (bucket as f64 + 0.5) * BUCKET_S;
            let sampled: Vec<(f64, f64)> = self
                .0
                .iter()
                .map(|t| {
                    let p = t.position_at(midpoint_t_s);
                    (p.lat_deg(), p.lon_deg())
                })
                .collect();
            BucketView {
                index: Arc::new(GridIndex::build(2.0, sampled).unwrap()),
                bucket: Some(bucket),
                midpoint_t_s,
                pad_m: self.max_speed_m_s() * BUCKET_S,
            }
        }

        /// The candidate query the kernel replaced: every target whose
        /// position at the view's midpoint lies within the drift-padded
        /// radius, ascending — a superset of the exact members at any
        /// time the view covers.
        fn candidates(
            &self,
            view: &BucketView,
            center: &GeodeticPoint,
            radius_m: f64,
        ) -> Vec<usize> {
            view.index.query_radius(
                &center.with_altitude(0.0).unwrap(),
                radius_m + view.pad_m,
                |i| self.0[i].position_at(view.midpoint_t_s),
            )
        }

        /// The exact refinement the kernel replaced: target `i` exists
        /// at `t_s` and its position then is within `radius_m` of
        /// `center`.
        fn within(&self, i: usize, center: &GeodeticPoint, radius_m: f64, t_s: f64) -> bool {
            let t = &self.0[i];
            t.exists_at(t_s) && greatcircle::distance_m(center, &t.position_at(t_s)) <= radius_m
        }

        /// The reference composition (candidates, then the exact test)
        /// on `view`.
        fn members(
            &self,
            view: &BucketView,
            center: &GeodeticPoint,
            radius_m: f64,
            t_s: f64,
        ) -> Vec<usize> {
            self.candidates(view, center, radius_m)
                .into_iter()
                .filter(|&i| self.within(i, center, radius_m, t_s))
                .collect()
        }

        /// [`TargetSet::query_radius`] answered through the per-bucket
        /// reference view.
        fn query_radius(&self, center: &GeodeticPoint, radius_m: f64, t_s: f64) -> Vec<usize> {
            self.members(&self.bucket_view(t_s), center, radius_m, t_s)
        }

        /// The membership kernel as it read whole records: existence,
        /// then the midpoint test for movers, then the exact test.
        fn members_in(
            &self,
            view: &BucketView,
            center: &GeodeticPoint,
            radius_m: f64,
            t_s: f64,
        ) -> Vec<Member> {
            let padded_m = radius_m + view.pad_m;
            let mut out = Vec::new();
            view.index.for_each_in_cap(center, padded_m, |index| {
                let target = &self.0[index];
                if !target.exists_at(t_s) {
                    return;
                }
                if target.motion.is_some() {
                    let sampled = target.position_at(view.midpoint_t_s);
                    if !(greatcircle::distance_m(center, &sampled) <= padded_m) {
                        return;
                    }
                }
                let position = target.position_at(t_s);
                let distance_m = greatcircle::distance_m(center, &position);
                if distance_m <= radius_m {
                    out.push(Member {
                        index,
                        position,
                        distance_m,
                    });
                }
            });
            out.sort_unstable_by_key(|m| m.index);
            out
        }
    }

    /// Points where the grid math is most fragile: both sides of the
    /// antimeridian and both polar caps, plus a mid-latitude control.
    fn edge_point_gen() -> impl Gen<Value = GeodeticPoint> {
        (
            f64_range(0.0, 5.0),
            f64_range(-89.999, 89.999),
            f64_range(-179.999, 179.999),
        )
            .map(|(region, lat, lon)| {
                let (lat, lon) = match region as u32 {
                    0 => (lat, 179.0 + (lon + 180.0) / 360.0),
                    1 => (lat, -180.0 + (lon + 180.0) / 360.0),
                    2 => (88.0 + (lat + 90.0) / 90.0, lon),
                    3 => (-90.0 + (lat + 90.0) / 90.0, lon),
                    _ => (lat, lon),
                };
                pt(lat.clamp(-90.0, 90.0), lon)
            })
    }

    /// Static targets, some permanent and some with finite existence
    /// windows, a share of which open or close exactly on a bucket
    /// boundary.
    fn static_target_gen() -> impl Gen<Value = Target> {
        (
            edge_point_gen(),
            f64_range(0.1, 5.0),
            f64_range(0.0, 4.0),
            f64_range(0.0, 1500.0),
            f64_range(0.0, 1500.0),
        )
            .map(|(position, value, kind, a, b)| {
                let mut t = Target::fixed(position, value);
                let on_boundary = |x: f64| (x / BUCKET_S).round() * BUCKET_S;
                match kind as u32 {
                    0 => {}
                    1 => t.appears_at_s = a,
                    2 => (t.appears_at_s, t.disappears_at_s) = (a.min(b), a.max(b)),
                    _ => {
                        (t.appears_at_s, t.disappears_at_s) =
                            (on_boundary(a.min(b)), on_boundary(a.max(b)))
                    }
                }
                t
            })
    }

    /// A query `(center, radius, time)`. The bucket is assigned by the
    /// query's position in its case (see the property); this draws the
    /// offset inside it: exactly on the bucket's lower boundary, just
    /// below its upper boundary, or anywhere inside.
    fn query_gen() -> impl Gen<Value = (GeodeticPoint, f64, f64, f64)> {
        (
            edge_point_gen(),
            f64_range(1_000.0, 2_500_000.0),
            f64_range(0.0, 3.0),
            f64_range(0.0, 1.0),
        )
    }

    fn query_time(bucket: usize, kind: f64, frac: f64) -> f64 {
        let lo = bucket as f64 * BUCKET_S;
        match kind as u32 {
            0 => lo,
            1 => (lo + BUCKET_S).next_down(),
            _ => lo + frac * BUCKET_S,
        }
    }

    /// A static set's one shared index answers exactly what the old
    /// per-bucket index answered, candidates and refined results
    /// alike, at every query time — including through one view reused
    /// across buckets, as the coverage compiler's segment sweep does.
    #[test]
    fn static_shared_index_matches_per_bucket_reference() {
        check_cases(
            128,
            "static_shared_index_matches_per_bucket_reference",
            (
                vec_of(static_target_gen(), 0, 48),
                vec_of(query_gen(), 4, 10),
            ),
            |(targets, queries)| {
                let set = TargetSet::new(targets.clone());
                let records = Records(targets.clone());
                prop_assert!(matches!(set.index, SpatialIndex::Static(_)));
                let times: Vec<f64> = queries
                    .iter()
                    .enumerate()
                    .map(|(j, &(_, _, kind, frac))| query_time(j % 4, kind, frac))
                    .collect();
                let shared = set.bucket_view(times[0]);
                for (&(center, radius_m, _, _), &t) in queries.iter().zip(&times) {
                    let view = set.bucket_view(t);
                    prop_assert!(view.covers(t) && shared.covers(t));
                    prop_assert!(Arc::ptr_eq(&view.index, &shared.index));
                    let reference = records.bucket_view(t);
                    let want = records.candidates(&reference, &center, radius_m);
                    prop_assert_eq!(records.candidates(&view, &center, radius_m), want);
                    let exact = records.query_radius(&center, radius_m, t);
                    prop_assert_eq!(set.query_radius(&center, radius_m, t), exact.clone());
                    let mut members = Vec::new();
                    set.members_in(&shared, &center, radius_m, t, &mut members);
                    let swept: Vec<usize> = members.iter().map(|m| m.index).collect();
                    prop_assert_eq!(swept, exact);
                }
                Ok::<(), Failure>(())
            },
        );
    }

    /// Moving targets at up to jet speed on top of the static ones.
    fn moving_target_gen() -> impl Gen<Value = Target> {
        (
            static_target_gen(),
            f64_range(0.0, 300.0),
            f64_range(0.0, std::f64::consts::TAU),
        )
            .map(|(mut t, speed, bearing)| {
                t.motion = Some((speed, bearing));
                t
            })
    }

    /// The kernel answers exactly what the reference composition
    /// answers — the same members, ascending, and bit-equal projected
    /// `(x, y)` from its reused position and distance — on static and
    /// moving sets, for caps that wrap the antimeridian or hold a pole,
    /// and for targets sitting exactly on the query radius.
    #[test]
    fn kernel_matches_the_reference_composition() {
        let (queries_run, with_members) = (std::cell::Cell::new(0u32), std::cell::Cell::new(0u32));
        check_cases(
            160,
            "kernel_matches_the_reference_composition",
            (
                vec_of(static_target_gen(), 1, 40),
                vec_of(moving_target_gen(), 0, 12),
                vec_of(
                    (query_gen(), f64_range(0.0, 3.0), usize_range(0, 64)),
                    4,
                    10,
                ),
            ),
            |(statics, movers, queries)| {
                let targets: Vec<Target> = statics.iter().chain(movers).copied().collect();
                let set = TargetSet::new(targets.clone());
                let records = Records(targets.clone());
                for (j, &((center, radius_m, kind, frac), edge, pick)) in queries.iter().enumerate()
                {
                    let t = query_time(j % 5, kind, frac);
                    // Every other query puts one target exactly on the
                    // radius (at or beyond it for the cap's bbox).
                    let radius_m = match edge as u32 {
                        0 => greatcircle::distance_m(
                            &center,
                            &targets[pick % targets.len()].position_at(t),
                        ),
                        1 => radius_m.max(2_000_000.0),
                        _ => radius_m,
                    };
                    let frame = LocalFrame::new(center, frac * std::f64::consts::TAU);
                    let view = set.bucket_view(t);
                    let want: Vec<(usize, u64, u64)> = records
                        .members(&view, &center, radius_m, t)
                        .into_iter()
                        .map(|i| {
                            let (x, y) = frame.project(&targets[i].position_at(t));
                            (i, x.to_bits(), y.to_bits())
                        })
                        .collect();
                    let mut members = Vec::new();
                    set.members_in(&view, &center, radius_m, t, &mut members);
                    let got: Vec<(usize, u64, u64)> = members
                        .iter()
                        .map(|m| {
                            let (x, y) = frame.project_at(&m.position, m.distance_m);
                            (m.index, x.to_bits(), y.to_bits())
                        })
                        .collect();
                    queries_run.set(queries_run.get() + 1);
                    with_members.set(with_members.get() + u32::from(!want.is_empty()));
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(
                        set.query_radius(&center, radius_m, t),
                        records.query_radius(&center, radius_m, t)
                    );
                }
                Ok::<(), Failure>(())
            },
        );
        assert!(
            2 * with_members.get() > queries_run.get(),
            "only {} of {} queries found members",
            with_members.get(),
            queries_run.get()
        );
    }

    /// One moving target makes the whole set moving: it keeps one
    /// padded index per bucket, and each view covers its bucket only.
    #[test]
    fn moving_set_keeps_an_index_per_bucket() {
        let mut plane = Target::fixed(pt(0.0, 179.5), 1.0);
        plane.motion = Some((250.0, std::f64::consts::FRAC_PI_2));
        let targets = vec![Target::fixed(pt(10.0, 10.0), 1.0), plane];
        let (set, records) = (TargetSet::new(targets.clone()), Records(targets));
        assert!(matches!(set.index, SpatialIndex::Moving(_)));
        let early = set.bucket_view(0.0);
        assert!(Arc::ptr_eq(&early.index, &set.bucket_view(299.0).index));
        let next = set.bucket_view(BUCKET_S);
        assert!(!Arc::ptr_eq(&early.index, &next.index));
        assert!(early.covers(BUCKET_S.next_down()) && !early.covers(BUCKET_S));
        assert_eq!(early.pad_m, 250.0 * BUCKET_S);
        for t in [0.0, 150.0, BUCKET_S, 1000.0, 4.0 * BUCKET_S] {
            let center = plane.position_at(t);
            let got = set.query_radius(&center, 5_000.0, t);
            assert_eq!(got, records.query_radius(&center, 5_000.0, t));
            assert_eq!(got, vec![1], "t = {t}");
        }
    }

    /// The cached total is bit-identical to a fresh sum in target
    /// order, on the empty set too.
    #[test]
    fn cached_total_value_matches_a_fresh_sum() {
        let fresh = |targets: &[Target]| targets.iter().map(|t| t.value).sum::<f64>();
        let empty = TargetSet::new(Vec::new());
        assert_eq!(empty.total_value().to_bits(), fresh(&[]).to_bits());
        check_cases(
            128,
            "cached_total_value_matches_a_fresh_sum",
            vec_of((f64_range(-1e6, 1e6), f64_range(-12.0, 12.0)), 0, 64),
            |draws| {
                let targets: Vec<Target> = draws
                    .iter()
                    .map(|&(v, e)| Target::fixed(pt(0.0, 0.0), v * 10f64.powf(e)))
                    .collect();
                let set = TargetSet::new(targets.clone());
                prop_assert_eq!(set.total_value().to_bits(), fresh(&targets).to_bits());
                Ok::<(), Failure>(())
            },
        );
    }

    fn point_bits(p: &GeodeticPoint) -> [u64; 3] {
        [p.lat_rad(), p.lon_rad(), p.alt_m()].map(f64::to_bits)
    }

    /// Every field of a target as bits, so equality is bit-equality.
    fn target_bits(t: &Target) -> ([u64; 3], u64, Option<(u64, u64)>, u64, u64) {
        (
            point_bits(&t.position),
            t.value.to_bits(),
            t.motion.map(|(v, b)| (v.to_bits(), b.to_bits())),
            t.appears_at_s.to_bits(),
            t.disappears_at_s.to_bits(),
        )
    }

    fn member_bits(members: &[Member]) -> Vec<(usize, [u64; 3], u64)> {
        members
            .iter()
            .map(|m| (m.index, point_bits(&m.position), m.distance_m.to_bits()))
            .collect()
    }

    /// A set in one of three shapes: every target fixed (no kinematics
    /// column), static with existence windows, or static and moving.
    fn mixed_set_gen() -> impl Gen<Value = Vec<Target>> {
        (
            usize_range(0, 3),
            vec_of(static_target_gen(), 0, 40),
            vec_of(moving_target_gen(), 0, 12),
        )
            .map(|(shape, statics, movers)| match shape {
                0 => statics
                    .iter()
                    .map(|t| Target::fixed(t.position, t.value))
                    .collect(),
                1 => statics,
                _ => statics.into_iter().chain(movers).collect(),
            })
    }

    /// The columns answer bit for bit what the records they replaced
    /// answer: every target and column read, every kernel member
    /// (index, position and distance bits), every radius query, the
    /// cached totals and the bucket pads, on fixed, windowed and moving
    /// sets, at query times before 0 s too.
    #[test]
    fn columns_match_the_record_oracle() {
        check_cases(
            128,
            "columns_match_the_record_oracle",
            (mixed_set_gen(), vec_of(query_gen(), 4, 10)),
            |(targets, queries)| {
                let set: TargetSet = targets.iter().copied().collect();
                let records = Records(targets.clone());
                prop_assert_eq!(set.len(), targets.len());
                let probe_times = [-1.0, 0.0, 450.0, 1e4];
                for (i, t) in targets.iter().enumerate() {
                    prop_assert_eq!(target_bits(&set.target(i)), target_bits(t));
                    prop_assert_eq!(set.value(i).to_bits(), t.value.to_bits());
                    for t_s in probe_times {
                        let (got, want) = (set.position_at(i, t_s), t.position_at(t_s));
                        prop_assert_eq!(point_bits(&got), point_bits(&want));
                    }
                }
                let iterated: Vec<_> = set.iter().map(|t| target_bits(&t)).collect();
                prop_assert_eq!(
                    iterated,
                    targets.iter().map(target_bits).collect::<Vec<_>>()
                );
                prop_assert_eq!(set.total_value().to_bits(), records.total_value().to_bits());
                prop_assert_eq!(
                    set.max_speed_m_s().to_bits(),
                    records.max_speed_m_s().to_bits()
                );
                for (j, &(center, radius_m, kind, frac)) in queries.iter().enumerate() {
                    let t = query_time(j % 6, kind, frac) - BUCKET_S;
                    let (view, reference) = (set.bucket_view(t), records.bucket_view(t));
                    prop_assert_eq!(view.pad_m.to_bits(), reference.pad_m.to_bits());
                    if matches!(set.index, SpatialIndex::Moving(_)) {
                        prop_assert_eq!(view.bucket, reference.bucket);
                        prop_assert_eq!(
                            view.midpoint_t_s.to_bits(),
                            reference.midpoint_t_s.to_bits()
                        );
                    }
                    let mut members = Vec::new();
                    set.members_in(&view, &center, radius_m, t, &mut members);
                    let want = records.members_in(&reference, &center, radius_m, t);
                    prop_assert_eq!(member_bits(&members), member_bits(&want));
                    prop_assert_eq!(
                        set.query_radius(&center, radius_m, t),
                        records.query_radius(&center, radius_m, t)
                    );
                }
                Ok::<(), Failure>(())
            },
        );
    }

    /// A generated static set holds exactly one position and one value
    /// per target (32 bytes) and no kinematics column, and its index
    /// one `u32` handle per target beside the 2° cell table; planes keep
    /// an exactly sized kinematics column. A return to per-target
    /// records, or to per-cell vectors, fails here.
    #[test]
    fn columns_and_arena_are_exactly_sized() {
        assert_eq!(
            std::mem::size_of::<GeodeticPoint>() + std::mem::size_of::<f64>(),
            32
        );
        let lakes = crate::LakeGenerator::new(crate::LakeSizeBand::TenthToTenKm2)
            .with_count(5_000)
            .generate(3);
        let ships = crate::ShipGenerator::new().with_count(3_000).generate(3);
        for set in [&lakes, &ships] {
            let n = set.len();
            assert!(set.kinematics.is_none());
            assert_eq!((set.positions.len(), set.positions.capacity()), (n, n));
            assert_eq!((set.values.len(), set.values.capacity()), (n, n));
            let view = set.bucket_view(0.0);
            assert_eq!(view.index.len(), n);
            assert_eq!(view.index.heap_bytes(), 4 * n + 4 * (91 * 180 + 1));
        }
        let planes = crate::AirplaneGenerator::new()
            .with_count(2_000)
            .generate(3);
        let column = planes.kinematics.as_ref().expect("planes move");
        assert_eq!((column.len(), column.capacity()), (2_000, 2_000));
        assert_eq!(planes.positions.capacity(), 2_000);
        // A -0.0 appearance time is not fixed-shaped: the column keeps
        // its bits.
        let mut late = Target::fixed(pt(0.0, 0.0), 1.0);
        late.appears_at_s = -0.0;
        let set = TargetSet::new(vec![Target::fixed(pt(1.0, 1.0), 1.0), late]);
        assert!(set.kinematics.is_some());
        assert_eq!(set.target(1).appears_at_s.to_bits(), (-0.0f64).to_bits());
    }
}
