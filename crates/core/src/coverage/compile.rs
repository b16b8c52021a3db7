//! The compiled access-interval engine behind the coverage evaluator
//! (DESIGN.md §13).
//!
//! Evaluating a scenario with the legacy frame walk repeats, per
//! evaluation, three kinds of work whose inputs never change between
//! evaluations of the same `(layout, grid, workload)`: batch orbit
//! propagation, per-frame spatial membership queries, and — dominating
//! everything at ~90 % of wall time — the per-horizon scheduler solves.
//! This module compiles each satellite's pass into a [`CompiledTrack`]:
//!
//! * **states** — the batch-propagated [`TrackState`]s (this is the
//!   propagation cache the evaluator previously rebuilt every run);
//! * **access intervals** — sorted per-target access windows
//!   (entry/exit frame indices) with projected `(x, y)` coefficients
//!   stored struct-of-arrays, computed once by a segment sweep that
//!   takes one [`BucketView`] per five-minute bucket, runs the
//!   membership kernel ([`TargetSet::members_in`]) per frame, and
//!   reproduces the legacy per-frame `query_radius` + projection
//!   results bit-for-bit;
//! * **solved frames** — a memo of deterministic per-frame results
//!   (cluster count, captures with their footprint centres and pointing
//!   offsets, solver diagnostics, fault repairs), keyed on the inputs
//!   to clustering and replayed instead of re-clustered and re-solved
//!   when a later evaluation presents the exact same frame inputs.
//!
//! The evaluate phase then sweeps the sorted interval events per frame
//! ([`IntervalSweep`]), so per-frame membership work is O(targets in
//! view) with no spatial queries, no index locks, and no trigonometry.
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
use eagleeye_geo::LocalFrame;
use eagleeye_orbit::TrackState;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Recover a poisoned guard: every mutation behind these locks is
/// all-or-nothing (a slot is written once, fully built; a memo entry is
/// inserted complete), so a panicked peer cannot leave torn state.
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

/// Sorted per-target access windows, struct-of-arrays: interval `j` is
/// target `target[j]` continuously in frame over frames
/// `entry[j]..=exit[j]`. Sorted by `(entry, target)` — the order the
/// frame-major compile sweep discovers them in.
#[derive(Debug, Default)]
pub(super) struct AccessIntervals {
    /// Target index of each interval.
    pub target: Vec<u32>,
    /// First in-frame frame index (inclusive).
    pub entry: Vec<u32>,
    /// Last in-frame frame index (inclusive).
    pub exit: Vec<u32>,
}

impl AccessIntervals {
    fn len(&self) -> usize {
        self.target.len()
    }
}

/// Frame-major projected local-frame coordinates: frame `f`'s entries
/// occupy `offsets[f]..offsets[f+1]` of `x`/`y`, in ascending target
/// order — exactly the tuples the legacy walk pushed into `in_frame`.
#[derive(Debug)]
pub(super) struct FrameCoeffs {
    /// CSR offsets, `n_frames + 1` entries.
    pub offsets: Vec<u32>,
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
            x: Vec::new(),
            y: Vec::new(),
        }
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
    /// Plain scheduler (no provenance counters).
    Plain,
    /// Resilient scheduler chose the ILP (`ilp_horizons += 1`).
    IlpHorizon,
    /// Resilient scheduler fell back to greedy
    /// (`greedy_fallbacks += 1`, plus `deadline_fallbacks` when the
    /// fallback reason was the frame deadline).
    GreedyFallback {
        /// Whether the fallback was deadline-triggered.
        deadline: bool,
    },
}

/// One satellite's compiled pass: propagated states, access intervals
/// with projected coefficients, and the frame memo.
#[derive(Debug)]
pub(super) struct CompiledTrack {
    /// Batch-propagated state per grid epoch.
    pub states: Vec<TrackState>,
    /// Sorted access-window events.
    pub intervals: AccessIntervals,
    /// Frame-major projected coordinates.
    pub coeffs: FrameCoeffs,
    /// Largest per-frame membership count (scratch preallocation size).
    pub peak_frame_entries: usize,
    /// Memo of solved frames, keyed by [`FrameInputs::key`].
    pub solved: Mutex<BTreeMap<u64, Arc<SolvedHorizon>>>,
}

impl CompiledTrack {
    /// Compiles one satellite's track over every frame of its
    /// batch-propagated `states`: per frame, the targets inside the
    /// low-res box with their projected `(x, y)`, recorded as access
    /// intervals plus frame-major coefficients.
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
    ///
    /// Runs are tracked against the previous frame's in-box hits, so
    /// the work is per frame and per member, with no per-target
    /// scratch.
    pub fn compile(
        states: Vec<TrackState>,
        epochs: &[f64],
        targets: &TargetSet,
        geom: &CompileGeometry,
    ) -> Result<CompiledTrack, CoreError> {
        let mut intervals = AccessIntervals::default();
        let mut coeffs = FrameCoeffs::with_frames(states.len());
        let mut view: Option<BucketView> = None;
        let mut members = Vec::new();
        // `(target, interval)` of the previous and the current frame's
        // in-box members, ascending by target: a member that was in the
        // previous frame extends that frame's interval, any other one
        // opens a new interval.
        let mut prev_hits: Vec<(u32, u32)> = Vec::new();
        let mut hits: Vec<(u32, u32)> = Vec::new();
        let mut peak_frame_entries = 0;
        for (f, (state, &t)) in states.iter().zip(epochs).enumerate() {
            let subsat = state.subsatellite.with_altitude(0.0)?;
            let frame = LocalFrame::new(subsat, state.heading_rad);
            if !view.as_ref().is_some_and(|v| v.covers(t)) {
                view = None;
            }
            let v = view.get_or_insert_with(|| targets.bucket_view(t));
            targets.members_in(v, &subsat, geom.bound_m, t, &mut members);
            let fi = f as u32;
            let mut prev = prev_hits.iter().copied().peekable();
            hits.clear();
            for m in &members {
                let (x, y) = frame.project_at(&m.position, m.distance_m);
                if x.abs() <= geom.half_cross_m && y.abs() <= geom.half_along_m {
                    let tgt = m.index as u32;
                    while prev.next_if(|&(p, _)| p < tgt).is_some() {}
                    let j = match prev.next_if(|&(p, _)| p == tgt) {
                        Some((_, j)) => {
                            intervals.exit[j as usize] = fi;
                            j
                        }
                        None => {
                            intervals.target.push(tgt);
                            intervals.entry.push(fi);
                            intervals.exit.push(fi);
                            intervals.len() as u32 - 1
                        }
                    };
                    hits.push((tgt, j));
                    coeffs.x.push(x);
                    coeffs.y.push(y);
                }
            }
            std::mem::swap(&mut prev_hits, &mut hits);
            let start = coeffs.offsets.last().copied().unwrap_or(0) as usize;
            peak_frame_entries = peak_frame_entries.max(coeffs.x.len() - start);
            coeffs.offsets.push(coeffs.x.len() as u32);
        }
        Ok(CompiledTrack {
            states,
            intervals,
            coeffs,
            peak_frame_entries,
            solved: Mutex::new(BTreeMap::new()),
        })
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

/// Per-frame sweep over a track's sorted interval events.
///
/// `advance` must be called once per frame, in order from the first
/// frame: it opens the intervals entering at `frame` (kept ordered by
/// target index), drops the ones that exited, and emits the active
/// `(target, x, y)` tuples — exactly what the legacy per-frame walk
/// finds (the test oracle below checks this frame by frame).
pub(super) struct IntervalSweep<'a> {
    track: &'a CompiledTrack,
    /// Next unopened interval (intervals are sorted by entry frame).
    next: usize,
    /// Open interval ids, ascending by target index — which is also
    /// the frame-major coefficient order, so entry `pos` of the active
    /// list reads coefficient `offsets[frame] + pos`.
    active: Vec<u32>,
}

impl<'a> IntervalSweep<'a> {
    /// Starts a sweep at the first frame.
    pub fn new(track: &'a CompiledTrack) -> Self {
        IntervalSweep {
            track,
            next: 0,
            active: Vec::new(),
        }
    }

    /// Emits frame `frame`'s membership into `out` (cleared first).
    pub fn advance(&mut self, frame: u32, out: &mut Vec<(usize, f64, f64)>) {
        let iv = &self.track.intervals;
        self.active.retain(|&j| iv.exit[j as usize] >= frame);
        while self.next < iv.len() && iv.entry[self.next] <= frame {
            debug_assert_eq!(iv.entry[self.next], frame, "sweep must visit every frame");
            let j = self.next as u32;
            let tgt = iv.target[self.next];
            let pos = self
                .active
                .partition_point(|&k| iv.target[k as usize] < tgt);
            self.active.insert(pos, j);
            self.next += 1;
        }
        let co = &self.track.coeffs;
        let base = co.offsets[frame as usize] as usize;
        debug_assert_eq!(
            co.offsets[frame as usize + 1] as usize - base,
            self.active.len(),
            "active intervals must match frame-major entry count"
        );
        out.clear();
        out.extend(self.active.iter().enumerate().map(|(pos, &j)| {
            (
                iv.target[j as usize] as usize,
                co.x[base + pos],
                co.y[base + pos],
            )
        }));
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

/// One scenario's compiled tracks: slot `i` belongs to satellite `i` of
/// the scenario's roster (leaders for leader-follower configurations,
/// every satellite for swath ones), compiled lazily on first use.
#[derive(Debug)]
pub(super) struct CompiledScenario {
    /// Per-satellite compiled-track slots.
    pub tracks: Vec<Mutex<Option<Arc<CompiledTrack>>>>,
}

impl CompiledScenario {
    /// The compiled track in slot `i`, if already built.
    pub fn track(&self, i: usize) -> Option<Arc<CompiledTrack>> {
        lock_unpoisoned(&self.tracks[i]).clone()
    }

    /// Stores a freshly compiled track in slot `i`, keeping the
    /// incumbent if a concurrent evaluation got there first (both are
    /// pure functions of the same inputs). Returns the slot's track.
    pub fn store(&self, i: usize, track: Arc<CompiledTrack>) -> Arc<CompiledTrack> {
        let mut slot = lock_unpoisoned(&self.tracks[i]);
        slot.get_or_insert(track).clone()
    }
}

/// Counters of compiled-program reuse, exposed through
/// [`crate::coverage::CoverageEvaluator::compile_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Tracks compiled (propagation + membership sweep executed).
    pub track_builds: u64,
    /// Track reuses — evaluations that skipped propagation and
    /// membership entirely because the compiled track was cached.
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

/// The evaluator's compiled-program cache: one [`CompiledScenario`] per
/// configuration key, plus reuse counters. Lives on the evaluator, so
/// repeated evaluations of the same configuration (Monte-Carlo reps,
/// sweep refinement, the perf harness) skip recompilation.
#[derive(Debug, Default)]
pub(super) struct CompileCache {
    /// Compiled scenarios by scenario hash
    /// ([`CoverageEvaluator::scenario_hash`](super::CoverageEvaluator::scenario_hash)),
    /// which binds the configuration and every option shaping
    /// membership or solves. Sibling evaluators forked via
    /// `fork_with` share one cache, so the options must be part of the
    /// key. Over-binding is safe: tracks still flow between scenarios
    /// through the pool, keyed by exactly what a track depends on.
    scenarios: Mutex<BTreeMap<u64, Arc<CompiledScenario>>>,
    /// Cross-scenario track pool, keyed by a digest of everything a
    /// compiled track (and the safety of sharing its horizon memo)
    /// depends on: satellite elements, grid, membership geometry,
    /// sensing spec, workload, and scheduler identity. Scenario keys
    /// deliberately over-bind (they include recall, seed, fault plan);
    /// the pool is what lets a what-if delta's child scenario inherit
    /// the parent's tracks — memoized solves included — for every
    /// satellite the delta left untouched.
    tracks: Mutex<BTreeMap<u64, Arc<CompiledTrack>>>,
    track_builds: AtomicU64,
    track_reuses: AtomicU64,
    track_shares: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

impl CompileCache {
    /// The compiled scenario for `key`, created empty on first use with
    /// `n_tracks` satellite slots.
    pub fn scenario(&self, key: u64, n_tracks: usize) -> Arc<CompiledScenario> {
        let mut map = lock_unpoisoned(&self.scenarios);
        map.entry(key)
            .or_insert_with(|| {
                Arc::new(CompiledScenario {
                    tracks: (0..n_tracks).map(|_| Mutex::new(None)).collect(),
                })
            })
            .clone()
    }

    /// Looks up a track in the cross-scenario pool by its digest.
    pub fn pool_get(&self, digest: u64) -> Option<Arc<CompiledTrack>> {
        lock_unpoisoned(&self.tracks).get(&digest).cloned()
    }

    /// Publishes a freshly built track to the cross-scenario pool,
    /// keeping the incumbent if a concurrent build got there first
    /// (both are pure functions of the digested inputs). Returns the
    /// pooled track.
    pub fn pool_put(&self, digest: u64, track: Arc<CompiledTrack>) -> Arc<CompiledTrack> {
        let mut map = lock_unpoisoned(&self.tracks);
        map.entry(digest).or_insert(track).clone()
    }

    /// Counts one compiled track build.
    pub fn note_build(&self) {
        self.track_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one compiled track reuse.
    pub fn note_reuse(&self) {
        self.track_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one track adopted from the cross-scenario pool.
    pub fn note_share(&self) {
        self.track_shares.fetch_add(1, Ordering::Relaxed);
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
    use eagleeye_orbit::{ConstellationLayout, EpochGrid};
    use std::cell::Cell;
    use std::collections::BTreeSet;

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
                let (x, y) = frame.project(&targets.target(idx).position_at(t));
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

    /// The compiled membership (compile, then the interval sweep)
    /// equals the legacy per-frame walk frame by
    /// frame — same targets, same order, bit-equal `x`/`y` — and the
    /// interval targets (what swath coverage unions) are exactly the
    /// walk's members, across static, moving, sparse, dateline/polar
    /// and moved-target sets, leader and swath geometries, and every
    /// satellite of a slot-pinned layout.
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
                f64_range(-2.0, 2.0),
            ),
            |&(seed, (kind, shape), (groups, followers, planes), spare, dlat)| {
                let layout = ConstellationLayout::with_planes_slotted(
                    groups,
                    followers,
                    spec.altitude_m,
                    97.2_f64.to_radians(),
                    planes,
                    groups + spare,
                )
                .expect("valid layout");
                let sats = layout.satellites();
                let sat = &sats[seed as usize % sats.len()];
                // One full orbit: every track reaches the polar caps and
                // crosses the antimeridian.
                let grid = EpochGrid::for_horizon(0.0, 6_000.0, spec.frame_cadence_s);
                let states = grid
                    .propagate(&layout.ground_track(sat).expect("ground track"))
                    .expect("propagation");
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

                let track = CompiledTrack::compile(states, grid.epochs(), &targets, &geom)
                    .expect("membership");
                let walk = frame_walk(&track.states, grid.epochs(), &targets, &geom);

                let mut sweep = IntervalSweep::new(&track);
                let mut swept = Vec::new();
                for (f, expected) in walk.iter().enumerate() {
                    sweep.advance(f as u32, &mut swept);
                    let got: Vec<_> = swept
                        .iter()
                        .map(|&(idx, x, y)| (idx, x.to_bits(), y.to_bits()))
                        .collect();
                    prop_assert_eq!(&got, expected);
                }
                let walked: BTreeSet<usize> = walk.iter().flatten().map(|m| m.0).collect();
                let intervals: BTreeSet<usize> =
                    track.intervals.target.iter().map(|&t| t as usize).collect();
                prop_assert_eq!(intervals, walked);
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
