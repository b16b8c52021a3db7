//! The compiled-track engine behind the coverage evaluator
//! (DESIGN.md §13).
//!
//! Evaluating a scenario with the legacy frame walk repeats, per
//! evaluation, three kinds of work whose inputs never change between
//! evaluations of the same `(layout, grid, workload)`: batch orbit
//! propagation, per-frame spatial membership queries, and — dominating
//! everything at ~90 % of wall time — the per-horizon scheduler solves.
//! This module compiles each satellite's pass into a [`CompiledTrack`]:
//!
//! * **frames** — the [`LocalFrame`] (subsatellite point and heading)
//!   of every frame that holds targets; every frame propagates its
//!   subsatellite point, and only a frame whose membership query
//!   returns candidates propagates a second point for its heading;
//! * **frame membership** — a frame-major table of every in-frame
//!   target with its projected `(x, y)`, stored struct-of-arrays and
//!   computed once by a segment sweep that takes one [`BucketView`]
//!   per five-minute bucket, runs the membership kernel
//!   ([`TargetSet::members_in`]) per frame, and reproduces the legacy
//!   per-frame `query_radius` + projection results bit-for-bit;
//! * **solved frames** — a memo of deterministic per-frame results
//!   (cluster count, captures with their footprint centres and pointing
//!   offsets, solver diagnostics, fault repairs), keyed on the inputs
//!   to clustering and replayed instead of re-clustered and re-solved
//!   when a later evaluation presents the exact same frame inputs.
//!
//! The evaluate phase then reads each frame's slice of the table
//! ([`FrameCoeffs::frame`]), so per-frame membership work is O(targets
//! in view) with no spatial queries, no index locks, and no
//! trigonometry.
//!
//! # Determinism
//!
//! Everything cached here is a pure function of its recorded inputs:
//! membership of `(track, grid, targets, geometry)`, solved frames of
//! the keyed [`FrameInputs`] (frame index, epoch, detected points,
//! footprint size, clustering method, follower states, slew/clip/
//! task-cap modifiers, repair onsets). Memo state lives in
//! `BTreeMap`s (deterministic iteration, though nothing iterates them
//! into a report) and replaying a memo applies exactly the report
//! mutations the live solve applied, so warm and cold evaluations
//! produce bit-identical [`super::CoverageReport`]s — the perf harness
//! and the differential suite (`interval_engine_differential.rs`)
//! assert this on every run. A frame cut short by a wall-clock limit
//! (a scheduler deadline, ILP clustering's 3 s cap) is the exception:
//! the memo keeps the first live result and every replay returns it.

use crate::clustering::ClusteringMethod;
use crate::pointing::{GroundPoint, TimeWindow};
use crate::schedule::{FollowerState, IlpRunStats};
use crate::{CoreError, SensingSpec};
use eagleeye_datasets::{BucketView, TargetSet};
use eagleeye_geo::{greatcircle, LocalFrame};
use eagleeye_obs::{Metrics, Stopwatch};
use eagleeye_orbit::{EpochGrid, GroundTrack};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Recover a poisoned guard: every mutation behind these locks is
/// all-or-nothing (a pooled track is inserted fully built; a memo entry
/// is inserted complete), so a panicked peer cannot leave torn state.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Low-res frame geometry of the membership test, fixed per scenario.
#[derive(Debug, Clone, Copy)]
pub(super) struct CompileGeometry {
    /// Great-circle candidate radius (frame half-diagonal plus margin).
    pub bound_m: f64,
    /// Half the swath (cross-track box half-extent).
    pub half_cross_m: f64,
    /// Half the frame length (along-track box half-extent).
    pub half_along_m: f64,
}

impl CompileGeometry {
    /// The membership box of a `swath_m`-wide frame under `spec`, with
    /// a 2 km margin on the candidate radius.
    pub fn frame_box(spec: &SensingSpec, swath_m: f64) -> Self {
        let frame_len = spec.frame_length_m();
        CompileGeometry {
            bound_m: ((swath_m / 2.0).powi(2) + (frame_len / 2.0).powi(2)).sqrt() + 2_000.0,
            half_cross_m: swath_m / 2.0,
            half_along_m: frame_len / 2.0,
        }
    }
}

/// Frame-major membership: frame `f`'s entries occupy
/// `offsets[f]..offsets[f+1]` of `target`/`x`/`y`, in ascending target
/// order — exactly the tuples the legacy walk pushed into `in_frame`.
#[derive(Debug)]
pub(super) struct FrameCoeffs {
    /// CSR offsets, `n_frames + 1` entries.
    pub offsets: Vec<u32>,
    /// Target index of each entry.
    pub target: Vec<u32>,
    /// Cross-track offset of each entry, meters.
    pub x: Vec<f64>,
    /// Along-track offset of each entry, meters.
    pub y: Vec<f64>,
}

impl FrameCoeffs {
    fn with_frames(frames: usize) -> Self {
        let mut offsets = Vec::with_capacity(frames + 1);
        offsets.push(0);
        FrameCoeffs {
            offsets,
            target: Vec::new(),
            x: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Frame `f`'s members as `(target, x, y)`, ascending by target.
    pub fn frame(&self, f: usize) -> impl ExactSizeIterator<Item = (usize, f64, f64)> + Clone + '_ {
        let r = self.offsets[f] as usize..self.offsets[f + 1] as usize;
        self.target[r.clone()]
            .iter()
            .zip(&self.x[r.clone()])
            .zip(&self.y[r])
            .map(|((&t, &x), &y)| (t as usize, x, y))
    }
}

/// A memoized frame: everything clustering, the horizon solve and any
/// fault repair produced that the evaluator reads afterwards, so a
/// replay neither clusters, nor builds tasks or a scheduling problem,
/// nor solves — and is observationally identical to doing all three.
#[derive(Debug)]
pub(super) struct SolvedHorizon {
    /// Cluster count before the task cap (`per_frame_cluster_counts`).
    pub clusters: usize,
    /// Post-repair captures in execution order: slot by slot, each
    /// slot's captures in time order.
    pub captures: Vec<ReplayCapture>,
    /// ILP diagnostics recorded via `CoverageReport::add_ilp_stats`.
    pub ilp_stats: Option<IlpRunStats>,
    /// Which solver-provenance counters the solve incremented.
    pub outcome: SolvedOutcome,
    /// `repairs_attempted` increment from the fault-repair pass.
    pub repairs_attempted: usize,
    /// `tasks_dropped_by_failures` increment.
    pub dropped_tasks: usize,
    /// `tasks_reassigned` increment.
    pub reassigned_tasks: usize,
}

/// One scheduled capture, with the geometry its execution reads.
#[derive(Debug, Clone, Copy)]
pub(super) struct ReplayCapture {
    /// Active-follower slot the capture is scheduled on.
    pub slot: usize,
    /// Capture time, seconds.
    pub time_s: f64,
    /// High-res footprint centre: cross-track and absolute along-track
    /// offsets, meters.
    pub centre: (f64, f64),
    /// The follower's pointing offset after the capture
    /// (`SchedulingProblem::capture_offset`).
    pub offset: (f64, f64),
}

/// Solver-provenance counter increments of one horizon solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SolvedOutcome {
    /// No provenance counters: any horizon outside
    /// [`DegradedMode::Repair`](super::DegradedMode::Repair)'s ILP runs.
    Plain,
    /// Under `Repair`, the ILP's own schedule (`ilp_horizons += 1`).
    IlpHorizon,
    /// Under `Repair`, the ILP degraded to greedy or was replaced by it
    /// (`greedy_fallbacks += 1`, plus `deadline_fallbacks` when the
    /// ILP hit its wall-clock deadline).
    GreedyFallback {
        /// Whether the fallback was deadline-triggered.
        deadline: bool,
    },
}

/// One satellite's compiled pass: frame-major membership with projected
/// coefficients, the low-res frame of every frame with members, and
/// the frame memo.
#[derive(Debug)]
pub(super) struct CompiledTrack {
    /// Frame-major membership and projected coordinates.
    pub coeffs: FrameCoeffs,
    /// The low-res frame of each frame with entries, in frame order:
    /// the only frames capture execution projects into.
    frames: Vec<LocalFrame>,
    /// Largest per-frame membership count (scratch preallocation size).
    pub peak_frame_entries: usize,
    /// Memo of solved frames, keyed by [`FrameInputs::key`].
    pub solved: Mutex<BTreeMap<u64, Arc<SolvedHorizon>>>,
}

impl CompiledTrack {
    /// Compiles one satellite's `track` over every epoch of `grid`:
    /// per frame, the targets inside the low-res box with their
    /// projected `(x, y)`, appended to the frame-major table. Returns
    /// the track and the wall time of its propagation pass.
    ///
    /// Two passes. The first propagates every epoch's subsatellite point
    /// ([`EpochGrid::ground_points`], which records the `orbit/*`
    /// counters into `metrics`); the returned time is this pass's. The
    /// second sweeps membership: only a frame whose query returns
    /// candidates propagates its finite-difference point
    /// ([`EpochGrid::fd_ground_point`]), takes the heading and builds
    /// its [`LocalFrame`]. That frame is bit-equal to
    /// `LocalFrame::new(state.subsatellite.with_altitude(0.0),
    /// state.heading_rad)` of the epoch's full
    /// [`TrackState`](eagleeye_orbit::TrackState): both come from the
    /// same two ground points, and re-wrapping a longitude moves no bits
    /// (`wrap_pi` is idempotent on its outputs).
    ///
    /// Bit-identical to the legacy per-frame walk by construction: the
    /// members come from the same [`BucketView`] the legacy
    /// `TargetSet::query_radius` consults (fetched once per five-minute
    /// segment, or once per track for a static set, instead of once per
    /// frame) through the same membership kernel
    /// ([`TargetSet::members_in`]) in the same ascending order, then
    /// are projected through the same [`LocalFrame`] — reusing each
    /// member's position and distance — and box-tested. The walk
    /// itself survives as this module's test oracle.
    pub fn compile(
        track: &GroundTrack,
        grid: &EpochGrid,
        targets: &TargetSet,
        geom: &CompileGeometry,
        metrics: &Metrics,
    ) -> Result<(CompiledTrack, Duration), CoreError> {
        let sw = Stopwatch::start();
        let ground = grid.ground_points(track, metrics)?;
        let propagate_time = sw.elapsed();

        let mut coeffs = FrameCoeffs::with_frames(ground.len());
        let mut frames = Vec::new();
        let mut view: Option<BucketView> = None;
        let mut members = Vec::new();
        let mut peak_frame_entries = 0;
        for (k, (subsat, &t)) in ground.iter().zip(grid.epochs()).enumerate() {
            if !view.as_ref().is_some_and(|v| v.covers(t)) {
                view = None;
            }
            let v = view.get_or_insert_with(|| targets.bucket_view(t));
            targets.members_in(v, subsat, geom.bound_m, t, &mut members);
            let start = coeffs.target.len();
            if !members.is_empty() {
                let fd = grid.fd_ground_point(track, k)?;
                let frame = LocalFrame::new(*subsat, greatcircle::initial_bearing_rad(subsat, &fd));
                for m in &members {
                    let (x, y) = frame.project_at(&m.position, m.distance_m);
                    if x.abs() <= geom.half_cross_m && y.abs() <= geom.half_along_m {
                        coeffs.target.push(m.index as u32);
                        coeffs.x.push(x);
                        coeffs.y.push(y);
                    }
                }
                if coeffs.target.len() > start {
                    frames.push(frame);
                }
            }
            peak_frame_entries = peak_frame_entries.max(coeffs.target.len() - start);
            coeffs.offsets.push(coeffs.target.len() as u32);
        }
        let track = CompiledTrack {
            coeffs,
            frames,
            peak_frame_entries,
            solved: Mutex::new(BTreeMap::new()),
        };
        Ok((track, propagate_time))
    }

    /// Number of frames, empty ones included.
    pub fn frame_count(&self) -> usize {
        self.coeffs.offsets.len() - 1
    }

    /// Every frame in order: its low-res frame when it has entries,
    /// `None` when it has none.
    pub fn frames(&self) -> impl Iterator<Item = Option<&LocalFrame>> + '_ {
        let mut stored = self.frames.iter();
        self.coeffs
            .offsets
            .windows(2)
            .map(move |w| if w[0] < w[1] { stored.next() } else { None })
    }

    /// Looks up a memoized frame by its key.
    pub fn solved_get(&self, key: u64) -> Option<Arc<SolvedHorizon>> {
        lock_unpoisoned(&self.solved).get(&key).cloned()
    }

    /// Records a solved frame for replay.
    pub fn solved_put(&self, key: u64, solved: Arc<SolvedHorizon>) {
        lock_unpoisoned(&self.solved).insert(key, solved);
    }
}

/// The inputs of one frame's clustering, horizon solve and fault
/// repair that vary per frame, beyond the track-pool key (which binds
/// the orbit, sensing spec, membership geometry and scheduler label).
/// A memo miss builds the frame from exactly these, so two frames with
/// equal [`key`](Self::key)s cluster, solve and repair identically and
/// replaying one's [`SolvedHorizon`] for the other is exact.
#[derive(Debug)]
pub(super) struct FrameInputs<'a> {
    /// Frame index along the track.
    pub frame_idx: usize,
    /// Frame epoch, seconds.
    pub t: f64,
    /// Detected targets in detection order: projected `(x, y)` and the
    /// recapture-scaled value.
    pub points: &'a [(GroundPoint, f64)],
    /// High-res footprint side, meters (the clustering box).
    pub footprint_m: f64,
    /// How the points are clustered into footprints.
    pub clustering: ClusteringMethod,
    /// Clusters kept for scheduling (radio-derated task cap).
    pub task_cap: usize,
    /// Slew-derate factor applied to the ADACS rate.
    pub slew_factor: f64,
    /// Mix-camera capture window, if any.
    pub clip: Option<TimeWindow>,
    /// Active (not failed) follower indices, one per schedule slot.
    pub active: &'a [usize],
    /// Carried state of each active follower.
    pub follower_states: &'a [FollowerState],
    /// `(active-slot, onset)` pairs the fault-repair pass acts on. They
    /// come from the fault plan, which the track-pool key leaves out so
    /// fault-window what-ifs can share tracks; keying them here keeps
    /// replay exact across fault-plan edits.
    pub repair_failures: &'a [(usize, f64)],
}

impl FrameInputs<'_> {
    /// The memo key: every field, hashed a 64-bit word at a time. The
    /// key never leaves the process, so it needs no stable byte format.
    pub fn key(&self) -> u64 {
        let FrameInputs {
            frame_idx,
            t,
            points,
            footprint_m,
            clustering,
            task_cap,
            slew_factor,
            clip,
            active,
            follower_states,
            repair_failures,
        } = *self;
        let clustering = match clustering {
            ClusteringMethod::Ilp => 0,
            ClusteringMethod::Greedy => 1,
            ClusteringMethod::None => 2,
        };
        let mut h = WordHasher::new(b"eagleeye-core/frame/v1");
        h.word(frame_idx as u64)
            .f64(t)
            .f64(footprint_m)
            .word(clustering)
            .word(task_cap as u64)
            .f64(slew_factor);
        match clip {
            Some(TimeWindow { start_s, end_s }) => h.word(1).f64(start_s).f64(end_s),
            None => h.word(0),
        };
        h.word(points.len() as u64);
        for &(GroundPoint { cross_m, along_m }, value) in points {
            h.f64(cross_m).f64(along_m).f64(value);
        }
        h.word(active.len() as u64);
        for (&k, fs) in active.iter().zip(follower_states) {
            let FollowerState {
                along_at_0_m,
                available_from_s,
                pointing_offset: (offset_cross_m, offset_along_m),
            } = *fs;
            h.word(k as u64)
                .f64(along_at_0_m)
                .f64(available_from_s)
                .f64(offset_cross_m)
                .f64(offset_along_m);
        }
        h.word(repair_failures.len() as u64);
        for &(slot, onset) in repair_failures {
            h.word(slot as u64).f64(onset);
        }
        h.finish()
    }
}

/// Word-at-a-time hash for in-memory keys: one multiply per 64-bit
/// word, where a byte-wise FNV pays eight dependent ones. Each step is
/// a bijection of the state for a fixed word, so inputs that differ
/// only in their last word never collide.
struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Starts a hash under a domain tag.
    fn new(domain: &[u8]) -> Self {
        let mut h = WordHasher(0xcbf2_9ce4_8422_2325);
        for chunk in domain.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h.word(u64::from_le_bytes(word));
        }
        h.word(domain.len() as u64);
        h
    }

    fn word(&mut self, w: u64) -> &mut Self {
        let x = (self.0 ^ w).wrapping_mul(Self::K);
        self.0 = x ^ (x >> 32);
        self
    }

    fn f64(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// Final avalanche (the SplitMix64 finalizer).
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Counters of compiled-program reuse, exposed through
/// [`crate::coverage::CoverageEvaluator::compile_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Tracks compiled (propagation + membership sweep executed).
    pub track_builds: u64,
    /// Track reuses — passes that skipped propagation and membership
    /// entirely because a pass of the same scenario had already run on
    /// the pooled track.
    pub track_reuses: u64,
    /// Tracks adopted from the cross-scenario pool: a *different*
    /// scenario key (typically a what-if delta of the parent) had
    /// already compiled an identical track, so this scenario inherited
    /// it — memoized horizon solves included — instead of building.
    pub track_shares: u64,
    /// Horizon solves replayed from the memo instead of re-solved.
    pub memo_hits: u64,
    /// Horizon solves executed live (and recorded for future replay).
    pub memo_misses: u64,
}

impl CompileStats {
    /// The counts recorded since `before`, an earlier snapshot of the
    /// same cache.
    pub fn since(&self, before: &CompileStats) -> CompileStats {
        CompileStats {
            track_builds: self.track_builds - before.track_builds,
            track_reuses: self.track_reuses - before.track_reuses,
            track_shares: self.track_shares - before.track_shares,
            memo_hits: self.memo_hits - before.memo_hits,
            memo_misses: self.memo_misses - before.memo_misses,
        }
    }
}

/// A pooled track and the scenarios whose passes ran on it.
#[derive(Debug)]
struct PooledTrack {
    track: Arc<CompiledTrack>,
    /// Scenario hashes
    /// ([`CoverageEvaluator::scenario_hash`](super::CoverageEvaluator::scenario_hash))
    /// of every pass that returned on this track.
    scenarios: BTreeSet<u64>,
}

/// The evaluator's compiled-program cache: the track pool plus reuse
/// counters. Lives on the evaluator, so repeated evaluations of the
/// same configuration (Monte-Carlo reps, sweep refinement, the perf
/// harness) skip recompilation.
#[derive(Debug, Default)]
pub(super) struct CompileCache {
    /// The track pool, keyed by a digest of everything a compiled
    /// track (and the safety of sharing its horizon memo) depends on:
    /// satellite elements, grid, membership geometry, sensing spec,
    /// workload, and scheduler identity. Scenario hashes deliberately
    /// over-bind (they include recall, seed, fault plan); the pool is
    /// what lets a what-if delta's child scenario inherit the parent's
    /// tracks — memoized solves included — for every satellite the
    /// delta left untouched. Sibling evaluators forked via `fork_with`
    /// share one cache.
    tracks: Mutex<BTreeMap<u64, PooledTrack>>,
    track_builds: AtomicU64,
    track_reuses: AtomicU64,
    track_shares: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

impl CompileCache {
    /// Looks up the track pooled under `digest` for a pass of
    /// `scenario`, counting a hit as a reuse when a pass of `scenario`
    /// already returned on it and as a share otherwise.
    pub fn get(&self, digest: u64, scenario: u64) -> Option<Arc<CompiledTrack>> {
        let map = lock_unpoisoned(&self.tracks);
        let pooled = map.get(&digest)?;
        let counter = if pooled.scenarios.contains(&scenario) {
            &self.track_reuses
        } else {
            &self.track_shares
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&pooled.track))
    }

    /// Records that a pass of `scenario` returned on `track`, pooling
    /// the track under `digest` unless a concurrent build got there
    /// first (both are pure functions of the digested inputs).
    pub fn put(&self, digest: u64, scenario: u64, track: Arc<CompiledTrack>) {
        let mut map = lock_unpoisoned(&self.tracks);
        let pooled = map.entry(digest).or_insert_with(|| PooledTrack {
            track,
            scenarios: BTreeSet::new(),
        });
        pooled.scenarios.insert(scenario);
    }

    /// Counts one compiled track build.
    pub fn note_build(&self) {
        self.track_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one memo replay.
    pub fn note_memo_hit(&self) {
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one live solve.
    pub fn note_memo_miss(&self) {
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the reuse counters.
    pub fn stats(&self) -> CompileStats {
        CompileStats {
            track_builds: self.track_builds.load(Ordering::Relaxed),
            track_reuses: self.track_reuses.load(Ordering::Relaxed),
            track_shares: self.track_shares.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_check::{
        check_cases, f64_range, prop_assert, prop_assert_eq, u64_range, usize_range,
    };
    use eagleeye_datasets::Target;
    use eagleeye_geo::GeodeticPoint;
    use eagleeye_orbit::{ConstellationLayout, TrackState};
    use std::cell::Cell;

    /// A frame's origin and heading as bits, so equality is
    /// bit-equality.
    fn frame_bits(frame: &LocalFrame) -> [u64; 4] {
        let o = frame.origin();
        [o.lat_rad(), o.lon_rad(), o.alt_m(), frame.heading_rad()].map(f64::to_bits)
    }

    /// The per-frame walk the compiled engine replaced, kept as its
    /// oracle: a spatial query per frame, each candidate projected into
    /// the frame and box-tested. Members come out in query order, with
    /// `x`/`y` as bits so equality is bit-equality.
    fn frame_walk(
        states: &[TrackState],
        epochs: &[f64],
        targets: &TargetSet,
        geom: &CompileGeometry,
    ) -> Vec<Vec<(usize, u64, u64)>> {
        let mut frames = Vec::with_capacity(states.len());
        for (state, &t) in states.iter().zip(epochs) {
            let subsat = state.subsatellite.with_altitude(0.0).expect("ground point");
            let frame = LocalFrame::new(subsat, state.heading_rad);
            let mut in_frame = Vec::new();
            for idx in targets.query_radius(&subsat, geom.bound_m, t) {
                let (x, y) = frame.project(&targets.position_at(idx, t));
                if x.abs() <= geom.half_cross_m && y.abs() <= geom.half_along_m {
                    in_frame.push((idx, x.to_bits(), y.to_bits()));
                }
            }
            frames.push(in_frame);
        }
        frames
    }

    /// Deterministic jitter in `[-scale/2, scale/2]` from `(seed, i, salt)`.
    fn jitter(seed: u64, i: usize, salt: u64, scale: f64) -> f64 {
        let x = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(salt)
            .wrapping_mul(0x94D0_49BB_1331_11EB);
        ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
    }

    fn point(lat: f64, lon: f64) -> GeodeticPoint {
        GeodeticPoint::from_degrees(lat.clamp(-89.9, 89.9), lon, 0.0).expect("valid point")
    }

    /// Clumps of targets around the satellite's own subsatellite
    /// points, some near nadir and some around the low-res box edge, so
    /// every geometry has members to find. `kind`: 0 static, 1 moving
    /// with existence windows, 2 sparse, 3 dateline and polar frames
    /// only, 4 the static set with one target moved by `dlat` degrees.
    fn targets_under(
        states: &[TrackState],
        epochs: &[f64],
        kind: usize,
        seed: u64,
        dlat: f64,
    ) -> TargetSet {
        let mut out = Vec::new();
        for (f, (state, &t)) in states.iter().zip(epochs).enumerate() {
            let (lat, lon) = (state.subsatellite.lat_deg(), state.subsatellite.lon_deg());
            let keep = match kind {
                2 => f % 40 == 0,
                3 => lat.abs() > 60.0 || lon.abs() > 150.0,
                _ => f % 2 == 0,
            };
            if !keep {
                continue;
            }
            for i in 0..5 {
                let salt = (f * 5 + i) as u64 * 4;
                let scale = if i < 2 { 0.08 } else { 1.8 };
                let mut target = Target::fixed(
                    point(
                        lat + jitter(seed, i, salt, scale),
                        lon + jitter(seed, i, salt ^ 1, scale),
                    ),
                    1.0 + jitter(seed, i, salt ^ 2, 0.8),
                );
                if kind == 1 {
                    target.motion = Some((
                        50.0 + jitter(seed, i, salt ^ 3, 400.0).abs(),
                        jitter(seed, i, salt ^ 4, std::f64::consts::TAU).abs(),
                    ));
                    target.appears_at_s = (t - jitter(seed, i, salt ^ 5, 120.0).abs()).max(0.0);
                    target.disappears_at_s =
                        target.appears_at_s + 30.0 + jitter(seed, i, salt ^ 6, 1_200.0).abs();
                }
                out.push(target);
            }
        }
        if kind == 4 && !out.is_empty() {
            let i = seed as usize % out.len();
            let moved = &mut out[i];
            moved.position = point(moved.position.lat_deg() + dlat, moved.position.lon_deg());
        }
        out.into_iter().collect()
    }

    /// The compiled membership equals the legacy per-frame walk frame
    /// by frame — each frame slice holds the same targets in the same
    /// order with bit-equal `x`/`y`, and each frame with entries (and
    /// no other) stores the walk's `LocalFrame` bit for bit — and the
    /// target column (what swath coverage unions) is the walk's members
    /// in frame order, across static, moving, sparse, dateline/polar
    /// and moved-target sets, leader and swath geometries, tracks on
    /// the grid's GMST epoch and shifted off it, and every satellite of
    /// a slot-pinned layout.
    #[test]
    fn swept_membership_matches_frame_walk() {
        const CASES: u32 = 24;
        let spec = SensingSpec::paper_default();
        let nonempty = Cell::new(0u32);
        let runs = Cell::new(0u32);
        check_cases(
            CASES,
            "swept_membership_matches_frame_walk",
            (
                u64_range(0, u64::MAX),
                (usize_range(0, 5), usize_range(0, 4)),
                (usize_range(1, 4), usize_range(0, 3), usize_range(1, 3)),
                usize_range(0, 4),
                (
                    f64_range(-2.0, 2.0),
                    usize_range(0, 3),
                    f64_range(-1.0, 1.0),
                ),
            ),
            |&(seed, (kind, shape), (groups, followers, planes), spare, (dlat, epoch, gmst))| {
                let layout = ConstellationLayout::with_planes_slotted(
                    groups,
                    followers,
                    spec.altitude_m,
                    97.2_f64.to_radians(),
                    planes.min(groups + spare),
                    groups + spare,
                )
                .expect("valid layout");
                let sats = layout.satellites();
                let sat = &sats[seed as usize % sats.len()];
                // One full orbit: every track reaches the polar caps and
                // crosses the antimeridian.
                // A third of the cases shift the track's GMST epoch
                // off the grid's, so it compiles on direct trig.
                let grid = EpochGrid::for_horizon(0.0, 6_000.0, spec.frame_cadence_s);
                let mut ground_track = layout.ground_track(sat).expect("ground track");
                if epoch == 0 {
                    ground_track = ground_track.with_gmst_epoch(gmst);
                }
                let states = grid.propagate(&ground_track).expect("propagation");
                let targets = targets_under(&states, grid.epochs(), kind, seed, dlat);

                // Leader frames and low-res swath frames share one box.
                // A box three frames long keeps targets in view across
                // frames; the edge box shrinks the
                // low-res one so a member sits exactly on its corner,
                // pinning the closed box test.
                let low = CompileGeometry::frame_box(&spec, spec.low_res.swath_m());
                let geom = match shape {
                    0 => low,
                    1 => CompileGeometry::frame_box(&spec, spec.high_res.swath_m()),
                    2 => CompileGeometry {
                        bound_m: low.bound_m + 2.0 * low.half_along_m,
                        half_along_m: 3.0 * low.half_along_m,
                        ..low
                    },
                    _ => {
                        let members: Vec<_> = frame_walk(&states, grid.epochs(), &targets, &low)
                            .into_iter()
                            .flatten()
                            .collect();
                        match members.get(seed as usize % members.len().max(1)) {
                            Some(&(_, x, y)) => CompileGeometry {
                                half_cross_m: f64::from_bits(x).abs(),
                                half_along_m: f64::from_bits(y).abs(),
                                ..low
                            },
                            None => low,
                        }
                    }
                };

                let (track, _) = CompiledTrack::compile(
                    &ground_track,
                    &grid,
                    &targets,
                    &geom,
                    &Metrics::disabled(),
                )
                .expect("membership");
                let walk = frame_walk(&states, grid.epochs(), &targets, &geom);

                prop_assert_eq!(track.frame_count(), walk.len());
                prop_assert_eq!(track.frames().count(), walk.len());
                for (f, (expected, frame)) in walk.iter().zip(track.frames()).enumerate() {
                    let got: Vec<_> = track
                        .coeffs
                        .frame(f)
                        .map(|(idx, x, y)| (idx, x.to_bits(), y.to_bits()))
                        .collect();
                    prop_assert_eq!(&got, expected);
                    // A frame is stored exactly where it has entries, and
                    // it is the one the walk builds from the full state.
                    prop_assert_eq!(frame.is_some(), !expected.is_empty());
                    if let Some(frame) = frame {
                        let state = &states[f];
                        let want = LocalFrame::new(
                            state.subsatellite.with_altitude(0.0).expect("ground point"),
                            state.heading_rad,
                        );
                        prop_assert_eq!(frame_bits(frame), frame_bits(&want));
                    }
                }
                let walked: Vec<usize> = walk.iter().flatten().map(|m| m.0).collect();
                let column: Vec<usize> = track.coeffs.target.iter().map(|&t| t as usize).collect();
                prop_assert_eq!(&column, &walked);
                prop_assert!(
                    track.peak_frame_entries == walk.iter().map(Vec::len).max().unwrap_or(0),
                    "peak_frame_entries must be the widest frame"
                );
                runs.set(runs.get() + 1);
                if !walked.is_empty() {
                    nonempty.set(nonempty.get() + 1);
                }
                Ok(())
            },
        );
        assert!(
            2 * nonempty.get() > runs.get(),
            "only {} of {} cases found members — the generators have drifted off the track",
            nonempty.get(),
            runs.get()
        );
    }
}
