//! Target clustering: cover detected targets with as few high-resolution
//! image footprints as possible (paper §4.1, Fig. 7).
//!
//! The problem is a planar point cover: given target center points and a
//! fixed `w × h` axis-aligned footprint, find a minimum set of footprint
//! placements covering all points. As in the paper, footprints are
//! axis-parallel to the frame (off-parallel captures are future work),
//! and there is an optimal solution in which every box has its left edge
//! on some point's x-coordinate and its bottom edge on some point's
//! y-coordinate — so the candidate set is finite and the problem becomes
//! minimum set cover, solved exactly with the ILP solver
//! (`eagleeye-ilp`) or approximately with the classic greedy heuristic.
//!
//! Most frames need no solver. A candidate that is the only cover of
//! some point is *forced*: every cover contains it. When the forced
//! candidates already cover every point — as in sparse frames, where
//! each point's canonical boxes all cover the same set — they are the
//! unique minimum cover, and the exact method returns them without
//! building a model. Such frames never touch the ILP's 3 s wall-clock
//! limit, so their clusters cannot depend on the machine. Only frames
//! with a real choice left go to the ILP.
//!
//! A cluster's value is the sum of its members' priority scores; the
//! scheduler then treats each cluster as a single capture task.
//!
//! # Example
//!
//! ```
//! use eagleeye_core::clustering::{cluster, ClusteringMethod};
//! use eagleeye_core::pointing::GroundPoint;
//!
//! // Three targets within one 10 km box, one far away: 2 captures.
//! let pts = vec![
//!     (GroundPoint::new(0.0, 0.0), 1.0),
//!     (GroundPoint::new(3_000.0, 2_000.0), 1.0),
//!     (GroundPoint::new(-2_000.0, 4_000.0), 1.0),
//!     (GroundPoint::new(80_000.0, 0.0), 1.0),
//! ];
//! let clusters = cluster(&pts, 10_000.0, 10_000.0, ClusteringMethod::Ilp)?;
//! assert_eq!(clusters.len(), 2);
//! # Ok::<(), eagleeye_core::CoreError>(())
//! ```

use crate::pointing::GroundPoint;
use crate::CoreError;
use eagleeye_harden::{FieldHash, ScenarioHasher};
use eagleeye_ilp::{Model, Sense, SolveOptions};
use std::collections::BTreeSet;
use std::time::Duration;

/// How to cluster targets into capture footprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusteringMethod {
    /// Exact minimum rectangle cover via ILP (the paper's approach).
    Ilp,
    /// Greedy maximum-coverage heuristic.
    Greedy,
    /// No clustering: one capture per target (the Fig. 14c ablation
    /// baseline).
    None,
}

impl FieldHash for ClusteringMethod {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        h.u64(match self {
            ClusteringMethod::Ilp => 0,
            ClusteringMethod::Greedy => 1,
            ClusteringMethod::None => 2,
        });
    }
}

/// A set of targets covered by one high-resolution capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Footprint center in frame coordinates.
    pub center: GroundPoint,
    /// Indices into the input point list.
    pub members: Vec<usize>,
    /// Sum of member priority values (the cluster's scheduling value,
    /// paper §4.1).
    pub value: f64,
}

/// A candidate footprint placement and the points it covers.
#[derive(Debug, Clone, PartialEq)]
struct Candidate {
    covered: Vec<usize>,
}

/// Clusters `points` (each `(position, value)`) with a `box_w × box_h`
/// footprint.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for non-positive box dimensions.
/// * [`CoreError::Solver`] if the ILP solver fails internally (the ILP
///   method falls back to greedy on time-limit instead of erroring).
pub fn cluster(
    points: &[(GroundPoint, f64)],
    box_w_m: f64,
    box_h_m: f64,
    method: ClusteringMethod,
) -> Result<Vec<Cluster>, CoreError> {
    if !(box_w_m > 0.0) || !box_w_m.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "box_w_m",
            value: box_w_m,
        });
    }
    if !(box_h_m > 0.0) || !box_h_m.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "box_h_m",
            value: box_h_m,
        });
    }
    if points.is_empty() {
        return Ok(Vec::new());
    }
    match method {
        ClusteringMethod::None => Ok(points
            .iter()
            .enumerate()
            .map(|(i, (p, v))| Cluster {
                center: *p,
                members: vec![i],
                value: *v,
            })
            .collect()),
        ClusteringMethod::Greedy => {
            let candidates = candidates(points, box_w_m, box_h_m);
            let chosen = greedy_cover(&candidates, &covering(points.len(), &candidates));
            Ok(assemble(points, &candidates, chosen))
        }
        ClusteringMethod::Ilp => {
            let candidates = candidates(points, box_w_m, box_h_m);
            let covering = covering(points.len(), &candidates);
            // Resource exhaustion inside the solver (a deadline with no
            // incumbent, the iteration cap on a degenerate instance)
            // degrades to the greedy heuristic rather than failing the
            // frame.
            let chosen = match ilp_cover(&candidates, &covering) {
                Ok(Some(chosen)) => chosen,
                Ok(None)
                | Err(CoreError::Solver(eagleeye_ilp::IlpError::IterationLimit { .. })) => {
                    greedy_cover(&candidates, &covering)
                }
                Err(e) => return Err(e),
            };
            Ok(assemble(points, &candidates, chosen))
        }
    }
}

/// Generates canonical candidate placements: boxes whose left edge is at
/// some point's x and bottom edge at some point's y, deduplicated by
/// covered set.
///
/// One sweep in x order. The points a box anchored at x-rank `rank` can
/// cover are the window `by_x[rank..end)`: equal-x points ranked before
/// the anchor stay out, and `end` only moves right. The window is kept
/// sorted by y rank, ties in x order, so it reads as the stable y sort
/// of its x range. Anchoring the bottom edge at each member's y gives
/// y-sorted intervals; an interval anchored lower that reaches the same
/// top covers a superset, so only the first (lowest) anchor per
/// distinct top is kept — the maximal windows — and a two-pointer `hi`
/// finds each top. This prunes dominated candidates without losing any
/// optimal cover.
///
/// A covered set is the points inside a rectangle of (x rank, y rank),
/// so it equals the points inside its own bounding box in ranks, and
/// two sets are equal exactly when those boxes are. The dedup keys on
/// the box and keeps each set's first occurrence.
fn candidates(points: &[(GroundPoint, f64)], w: f64, h: f64) -> Vec<Candidate> {
    let n = points.len();
    let x = |i: usize| points[i].0.cross_m;
    let y = |i: usize| points[i].0.along_m;
    let mut by_x: Vec<usize> = (0..n).collect();
    by_x.sort_by(|&a, &b| x(a).total_cmp(&x(b)));
    // A stable sort of `by_x`: equal y keeps x order.
    let mut by_y = by_x.clone();
    by_y.sort_by(|&a, &b| y(a).total_cmp(&y(b)));
    let mut x_rank = vec![0; n];
    for (r, &i) in by_x.iter().enumerate() {
        x_rank[i] = r;
    }
    let mut y_rank = vec![0; n];
    for (r, &i) in by_y.iter().enumerate() {
        y_rank[i] = r;
    }

    let mut seen: BTreeSet<[usize; 4]> = BTreeSet::new();
    let mut out = Vec::new();
    // Y ranks of `by_x[rank..end)`, ascending.
    let mut window: Vec<usize> = Vec::new();
    let mut end = 0;
    for (rank, &i) in by_x.iter().enumerate() {
        if rank > 0 {
            let gone = y_rank[by_x[rank - 1]];
            window.remove(window.partition_point(|&r| r < gone));
        }
        let max_x = x(i) + w;
        while end < n && !(x(by_x[end]) > max_x) {
            let yr = y_rank[by_x[end]];
            window.insert(window.partition_point(|&r| r < yr), yr);
            end += 1;
        }
        let mut hi = 0;
        let mut last_hi = usize::MAX;
        for lo in 0..window.len() {
            let max_y = y(by_y[window[lo]]) + h;
            hi = hi.max(lo);
            while hi + 1 < window.len() && y(by_y[window[hi + 1]]) <= max_y {
                hi += 1;
            }
            if hi == last_hi {
                continue; // dominated by the previous (lower) anchor
            }
            last_hi = hi;
            let members = &window[lo..=hi];
            let (x_lo, x_hi) = members.iter().fold((n, 0), |(a, b), &yr| {
                let xr = x_rank[by_y[yr]];
                (a.min(xr), b.max(xr))
            });
            if seen.insert([x_lo, x_hi, window[lo], window[hi]]) {
                let mut covered: Vec<usize> = members.iter().map(|&yr| by_y[yr]).collect();
                covered.sort_unstable();
                out.push(Candidate { covered });
            }
        }
    }
    out
}

/// Greedy set cover: repeatedly take the candidate covering the most
/// uncovered points, the last such candidate on a tie.
///
/// Each candidate's gain, its count of uncovered points, is kept
/// current: covering a point decrements the gain of every candidate in
/// the point's `covering` list, so a round is one scan over the gains.
fn greedy_cover(candidates: &[Candidate], covering: &[Vec<usize>]) -> Vec<usize> {
    let mut gain: Vec<usize> = candidates.iter().map(|c| c.covered.len()).collect();
    let mut is_covered = vec![false; covering.len()];
    let mut uncovered = covering.len();
    let mut chosen = Vec::new();
    while uncovered > 0 {
        // `max_by_key` returns the last of equal maxima.
        let Some((best, &best_gain)) = gain.iter().enumerate().max_by_key(|&(_, g)| g) else {
            break;
        };
        if best_gain == 0 {
            break; // canonical candidates always cover their anchors; defensive
        }
        for &p in &candidates[best].covered {
            if !is_covered[p] {
                is_covered[p] = true;
                uncovered -= 1;
                for &ci in &covering[p] {
                    gain[ci] -= 1;
                }
            }
        }
        chosen.push(best);
    }
    chosen
}

/// For each point, the candidates covering it, in candidate order.
fn covering(n_points: usize, candidates: &[Candidate]) -> Vec<Vec<usize>> {
    let mut covering: Vec<Vec<usize>> = vec![Vec::new(); n_points];
    for (ci, c) in candidates.iter().enumerate() {
        for &p in &c.covered {
            covering[p].push(ci);
        }
    }
    covering
}

/// The forced cover, when it settles the instance. A candidate is
/// forced when it is the only cover of some point, so every cover
/// contains it. When the forced candidates cover every point they are
/// the unique minimum cover — the ILP's only optimum — and come back in
/// index order, as the ILP path reports its choice. `None` when some
/// point is left to choose for.
fn forced_cover(covering: &[Vec<usize>], n_candidates: usize) -> Option<Vec<usize>> {
    let mut forced = vec![false; n_candidates];
    for cover in covering {
        if let [ci] = cover[..] {
            forced[ci] = true;
        }
    }
    covering
        .iter()
        .all(|cover| cover.iter().any(|&ci| forced[ci]))
        .then(|| (0..n_candidates).filter(|&ci| forced[ci]).collect())
}

/// Exact minimum cover: the forced cover when it covers every point,
/// else an ILP. Returns `None` when the solver hit its time limit
/// without proving optimality (caller falls back to greedy).
fn ilp_cover(
    candidates: &[Candidate],
    covering: &[Vec<usize>],
) -> Result<Option<Vec<usize>>, CoreError> {
    if covering.iter().any(Vec::is_empty) {
        // A point no candidate covers cannot happen (its own anchor
        // covers it), but guard against future candidate pruning.
        return Ok(None);
    }
    if let Some(forced) = forced_cover(covering, candidates.len()) {
        return Ok(Some(forced));
    }
    let mut model = Model::minimize();
    let vars: Vec<_> = candidates
        .iter()
        .map(|_| model.add_binary_var(1.0))
        .collect();
    for cover in covering {
        model.add_constraint(cover.iter().map(|&ci| (vars[ci], 1.0)), Sense::Ge, 1.0)?;
    }
    let options = SolveOptions::with_time_limit(Duration::from_secs(3));
    let sol = model.solve(&options)?;
    if !sol.is_usable() {
        return Ok(None);
    }
    Ok(Some(
        (0..candidates.len())
            .filter(|&ci| sol.value(vars[ci]) > 0.5)
            .collect(),
    ))
}

/// Builds [`Cluster`]s from the `chosen` indices into `candidates`,
/// assigning each point to the first chosen box that covers it and
/// centering each box on its members' bounding box (any center keeping
/// members inside is valid).
fn assemble(
    points: &[(GroundPoint, f64)],
    candidates: &[Candidate],
    chosen: Vec<usize>,
) -> Vec<Cluster> {
    let mut assigned = vec![false; points.len()];
    let mut clusters = Vec::new();
    for ci in chosen {
        let c = &candidates[ci];
        let members: Vec<usize> = c
            .covered
            .iter()
            .copied()
            .filter(|&p| !assigned[p])
            .collect();
        if members.is_empty() {
            continue;
        }
        for &m in &members {
            assigned[m] = true;
        }
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut value = 0.0;
        for &m in &members {
            let p = points[m].0;
            x0 = x0.min(p.cross_m);
            x1 = x1.max(p.cross_m);
            y0 = y0.min(p.along_m);
            y1 = y1.max(p.along_m);
            value += points[m].1;
        }
        clusters.push(Cluster {
            center: GroundPoint::new((x0 + x1) / 2.0, (y0 + y1) / 2.0),
            members,
            value,
        });
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_check::{check, check_cases, prop_assert_eq, u64_range, usize_range};
    use eagleeye_rng::SplitMix64;
    use std::cell::Cell;

    /// True when every member of every cluster lies within the `w × h`
    /// footprint centered at the cluster center (the coverage invariant the
    /// tests check).
    fn covers_all(points: &[(GroundPoint, f64)], clusters: &[Cluster], w: f64, h: f64) -> bool {
        let mut covered = vec![false; points.len()];
        for c in clusters {
            for &m in &c.members {
                let p = points[m].0;
                if (p.cross_m - c.center.cross_m).abs() > w / 2.0 + 1e-6
                    || (p.along_m - c.center.along_m).abs() > h / 2.0 + 1e-6
                {
                    return false;
                }
                covered[m] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }

    fn pts(coords: &[(f64, f64)]) -> Vec<(GroundPoint, f64)> {
        coords
            .iter()
            .map(|&(x, y)| (GroundPoint::new(x, y), 1.0))
            .collect()
    }

    #[test]
    fn rejects_degenerate_boxes() {
        assert!(cluster(&pts(&[(0.0, 0.0)]), 0.0, 10.0, ClusteringMethod::Ilp).is_err());
        assert!(cluster(&pts(&[(0.0, 0.0)]), 10.0, -1.0, ClusteringMethod::Greedy).is_err());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(cluster(&[], 10.0, 10.0, ClusteringMethod::Ilp)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn none_method_makes_singletons() {
        let p = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let c = cluster(&p, 10.0, 10.0, ClusteringMethod::None).unwrap();
        assert_eq!(c.len(), 3);
        for (i, cl) in c.iter().enumerate() {
            assert_eq!(cl.members, vec![i]);
        }
    }

    #[test]
    fn close_points_merge_into_one_box() {
        let p = pts(&[(0.0, 0.0), (3_000.0, 2_000.0), (-2_000.0, 4_000.0)]);
        for m in [ClusteringMethod::Ilp, ClusteringMethod::Greedy] {
            let c = cluster(&p, 10_000.0, 10_000.0, m).unwrap();
            assert_eq!(c.len(), 1, "{m:?}");
            assert_eq!(c[0].value, 3.0);
            assert!(covers_all(&p, &c, 10_000.0, 10_000.0));
        }
    }

    #[test]
    fn far_points_stay_separate() {
        let p = pts(&[(0.0, 0.0), (50_000.0, 0.0), (0.0, 50_000.0)]);
        let c = cluster(&p, 10_000.0, 10_000.0, ClusteringMethod::Ilp).unwrap();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn ilp_beats_or_ties_greedy() {
        // A chain where greedy can be suboptimal but ILP is exact.
        let p = pts(&[(0.0, 0.0), (6_000.0, 0.0), (12_000.0, 0.0), (18_000.0, 0.0)]);
        let ilp = cluster(&p, 10_000.0, 10_000.0, ClusteringMethod::Ilp).unwrap();
        let greedy = cluster(&p, 10_000.0, 10_000.0, ClusteringMethod::Greedy).unwrap();
        assert!(ilp.len() <= greedy.len());
        assert_eq!(ilp.len(), 2); // [0,6],[12,18]
    }

    #[test]
    fn cluster_value_is_member_sum() {
        let p = vec![
            (GroundPoint::new(0.0, 0.0), 0.7),
            (GroundPoint::new(1_000.0, 1_000.0), 0.9),
        ];
        let c = cluster(&p, 10_000.0, 10_000.0, ClusteringMethod::Ilp).unwrap();
        assert_eq!(c.len(), 1);
        assert!((c[0].value - 1.6).abs() < 1e-12);
    }

    #[test]
    fn every_point_is_assigned_exactly_once() {
        let coords: Vec<(f64, f64)> = (0..40)
            .map(|i| ((i % 8) as f64 * 4_000.0, (i / 8) as f64 * 4_500.0))
            .collect();
        let p = pts(&coords);
        for m in [ClusteringMethod::Ilp, ClusteringMethod::Greedy] {
            let c = cluster(&p, 10_000.0, 10_000.0, m).unwrap();
            let mut count = vec![0usize; p.len()];
            for cl in &c {
                for &mem in &cl.members {
                    count[mem] += 1;
                }
            }
            assert!(count.iter().all(|&k| k == 1), "{m:?}: {count:?}");
            assert!(covers_all(&p, &c, 10_000.0, 10_000.0));
        }
    }

    #[test]
    fn paper_scale_five_hundred_targets_clusters_quickly() {
        // §4.1: optimal rectangle cover for 500 targets. Spread over a
        // 100 km frame with realistic density.
        let coords: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let x = ((i * 2_654_435_761_usize) % 100_000) as f64 - 50_000.0;
                let y = ((i * 40_503_usize) % 110_000) as f64;
                (x, y)
            })
            .collect();
        let p = pts(&coords);
        // Timing goes through an obs timer: `core` contains no direct
        // wall-clock reads (lint rule `clock`).
        let m = eagleeye_obs::Metrics::enabled();
        let c = m
            .time("core/test/cluster_500", || {
                cluster(&p, 10_000.0, 10_000.0, ClusteringMethod::Ilp)
            })
            .unwrap();
        let elapsed = m
            .snapshot()
            .timer("core/test/cluster_500")
            .expect("timer recorded")
            .total;
        assert!(covers_all(&p, &c, 10_000.0, 10_000.0));
        assert!(c.len() < 200, "clusters {}", c.len());
        assert!(elapsed.as_secs() < 30, "took {elapsed:?}");
    }

    /// The candidate generator as it was before the sliding window:
    /// per-anchor window clones, a quadratic y loop and a set-of-vectors
    /// dedup. Kept as the oracle of [`candidates`].
    ///
    /// Generates canonical candidate placements: boxes whose left edge is at
    /// some point's x and bottom edge at some point's y, deduplicated by
    /// covered set.
    fn candidates_reference(points: &[(GroundPoint, f64)], w: f64, h: f64) -> Vec<Candidate> {
        let n = points.len();
        // Sort point indices by x for cheap range filtering.
        let mut by_x: Vec<usize> = (0..n).collect();
        by_x.sort_by(|&a, &b| points[a].0.cross_m.total_cmp(&points[b].0.cross_m));

        let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
        let mut out = Vec::new();
        for (rank, &i) in by_x.iter().enumerate() {
            let min_x = points[i].0.cross_m;
            // Points within the x-range of a box anchored at min_x.
            let mut in_x = Vec::new();
            for &j in &by_x[rank..] {
                if points[j].0.cross_m > min_x + w {
                    break;
                }
                in_x.push(j);
            }
            // Anchor the bottom edge at each member's y. For a fixed x-anchor
            // the covered sets are y-sorted intervals; an interval anchored
            // lower that reaches the same top covers a superset, so keep only
            // the first (lowest) anchor per distinct top — the maximal
            // windows. This prunes dominated candidates without losing any
            // optimal cover.
            let mut by_y = in_x.clone();
            by_y.sort_by(|&a, &b| points[a].0.along_m.total_cmp(&points[b].0.along_m));
            let mut last_hi = usize::MAX;
            for (lo, &j) in by_y.iter().enumerate() {
                let min_y = points[j].0.along_m;
                let mut hi = lo;
                while hi + 1 < by_y.len() && points[by_y[hi + 1]].0.along_m <= min_y + h {
                    hi += 1;
                }
                if hi == last_hi {
                    continue; // dominated by the previous (lower) anchor
                }
                last_hi = hi;
                let mut covered: Vec<usize> = by_y[lo..=hi].to_vec();
                covered.sort_unstable();
                if seen.insert(covered.clone()) {
                    out.push(Candidate { covered });
                }
            }
        }
        out
    }

    /// The greedy cover as it was before gain counters: every round
    /// rescans every candidate against the uncovered set. Kept as the
    /// oracle of [`greedy_cover`].
    ///
    /// Greedy set cover: repeatedly take the candidate covering the most
    /// uncovered points.
    fn greedy_cover_reference(n_points: usize, candidates: &[Candidate]) -> Vec<usize> {
        let mut uncovered: BTreeSet<usize> = (0..n_points).collect();
        let mut chosen = Vec::new();
        while !uncovered.is_empty() {
            let best = candidates
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| c.covered.iter().filter(|p| uncovered.contains(p)).count());
            let Some((idx, cand)) = best else { break };
            let gain = cand
                .covered
                .iter()
                .filter(|p| uncovered.contains(p))
                .count();
            if gain == 0 {
                break; // canonical candidates always cover their anchors; defensive
            }
            for p in &cand.covered {
                uncovered.remove(p);
            }
            chosen.push(idx);
        }
        chosen
    }

    /// The minimum cover as it was chosen before forced covers: always
    /// through the ILP, kept as the oracle of [`ilp_cover`].
    fn ilp_cover_reference(
        n_points: usize,
        candidates: &[Candidate],
    ) -> Result<Option<Vec<usize>>, CoreError> {
        let mut model = Model::minimize();
        let vars: Vec<_> = candidates
            .iter()
            .map(|_| model.add_binary_var(1.0))
            .collect();
        for cover in &covering(n_points, candidates) {
            if cover.is_empty() {
                return Ok(None);
            }
            model.add_constraint(cover.iter().map(|&ci| (vars[ci], 1.0)), Sense::Ge, 1.0)?;
        }
        let sol = model.solve(&SolveOptions::with_time_limit(Duration::from_secs(3)))?;
        if !sol.is_usable() {
            return Ok(None);
        }
        Ok(Some(
            (0..candidates.len())
                .filter(|&ci| sol.value(vars[ci]) > 0.5)
                .collect(),
        ))
    }

    /// `cluster(.., ClusteringMethod::Ilp)` through the reference
    /// kernels and the always-ILP cover.
    fn cluster_reference(points: &[(GroundPoint, f64)], w: f64, h: f64) -> Vec<Cluster> {
        let candidates = candidates_reference(points, w, h);
        let chosen = match ilp_cover_reference(points.len(), &candidates) {
            Ok(Some(chosen)) => chosen,
            Ok(None) | Err(CoreError::Solver(eagleeye_ilp::IlpError::IterationLimit { .. })) => {
                greedy_cover_reference(points.len(), &candidates)
            }
            Err(e) => panic!("reference cover failed: {e}"),
        };
        assemble(points, &candidates, chosen)
    }

    /// A seeded point set of one of four kinds for a `w × h` box:
    /// isolated (far apart), clustered (a few tight groups), duplicated
    /// (repeated positions) or box-edge (on a lattice of exact half-box
    /// steps, so boxes end exactly on points).
    fn seeded_points(seed: u64, kind: usize, n: usize, w: f64, h: f64) -> Vec<(GroundPoint, f64)> {
        let mut rng = SplitMix64::new(seed);
        let mut pts: Vec<(GroundPoint, f64)> = Vec::with_capacity(n);
        for i in 0..n {
            let value = rng.range_f64(0.1, 3.0);
            let p = match kind {
                0 => GroundPoint::new(
                    (i % 6) as f64 * 3.0 * w + rng.range_f64(0.0, w),
                    (i / 6) as f64 * 3.0 * h + rng.range_f64(0.0, h),
                ),
                1 => {
                    let g = rng.range_usize(0, 1 + n / 6) as f64;
                    GroundPoint::new(
                        g * 2.5 * w + rng.range_f64(0.0, 1.6 * w),
                        g * 0.7 * h + rng.range_f64(0.0, 1.6 * h),
                    )
                }
                2 if i > 0 && rng.chance(0.5) => pts[rng.range_usize(0, i)].0,
                2 => GroundPoint::new(rng.range_f64(0.0, 4.0 * w), rng.range_f64(0.0, 4.0 * h)),
                _ => GroundPoint::new(
                    rng.range_usize(0, 7) as f64 * w / 2.0,
                    rng.range_usize(0, 7) as f64 * h / 2.0,
                ),
            };
            pts.push((p, value));
        }
        pts
    }

    /// A seeded Lake-like point set: `n` points in a few clumps about a
    /// box wide over a 10 × 10-box frame, the dense case (real Lake
    /// frames hold ~460 points). Half the sets snap to a quarter-box
    /// lattice, so dense frames also carry runs of equal x and equal y.
    fn lake_points(seed: u64, n: usize, w: f64, h: f64) -> Vec<(GroundPoint, f64)> {
        let mut rng = SplitMix64::new(seed);
        let snap = rng.chance(0.5);
        let centres: Vec<(f64, f64)> = (0..1 + n / 40)
            .map(|_| (rng.range_f64(0.0, 10.0 * w), rng.range_f64(0.0, 10.0 * h)))
            .collect();
        (0..n)
            .map(|_| {
                let (cx, cy) = centres[rng.range_usize(0, centres.len())];
                let mut x = cx + 0.7 * w * rng.gaussian();
                let mut y = cy + 0.7 * h * rng.gaussian();
                if snap {
                    x = (x / (w / 4.0)).round() * (w / 4.0);
                    y = (y / (h / 4.0)).round() * (h / 4.0);
                }
                (GroundPoint::new(x, y), rng.range_f64(0.1, 3.0))
            })
            .collect()
    }

    /// The sliding-window candidates and the gain-counter greedy change
    /// no bit: over spread, clustered, duplicated, box-edge and dense
    /// Lake-like point sets they give the reference kernels' candidate
    /// sequence and greedy choices, and `cluster` gives the clusters of
    /// a pipeline built on the references. The ILP path is compared on
    /// sets of at most 40 points, where its 3 s limit never fires.
    #[test]
    fn kernels_match_their_references() {
        let (w, h) = (10_000.0, 8_000.0);
        let gen = (
            u64_range(0, u64::MAX),
            usize_range(0, 5),
            usize_range(1, 61),
            usize_range(1, 501),
        );
        check(
            "kernels_match_their_references",
            gen,
            |&(seed, kind, n, lake_n)| {
                let pts = match kind {
                    4 => lake_points(seed, lake_n, w, h),
                    _ => seeded_points(seed, kind, n, w, h),
                };
                let cands = candidates(&pts, w, h);
                let reference = candidates_reference(&pts, w, h);
                prop_assert_eq!(&cands, &reference);
                let chosen = greedy_cover(&cands, &covering(pts.len(), &cands));
                prop_assert_eq!(&chosen, &greedy_cover_reference(pts.len(), &reference));
                let greedy = cluster(&pts, w, h, ClusteringMethod::Greedy)
                    .map_err(|e| eagleeye_check::Failure::fail(format!("cluster failed: {e}")))?;
                prop_assert_eq!(greedy, assemble(&pts, &reference, chosen));
                if pts.len() <= 40 {
                    let got = cluster(&pts, w, h, ClusteringMethod::Ilp).map_err(|e| {
                        eagleeye_check::Failure::fail(format!("cluster failed: {e}"))
                    })?;
                    prop_assert_eq!(got, cluster_reference(&pts, w, h));
                }
                Ok(())
            },
        );
    }

    /// Among candidates of equal gain greedy takes the last one, the
    /// rule of `Iterator::max_by_key` that the reference scan used.
    #[test]
    fn greedy_breaks_gain_ties_to_the_last_candidate() {
        let cands: Vec<Candidate> = [vec![0, 1], vec![1, 2], vec![2, 3]]
            .into_iter()
            .map(|covered| Candidate { covered })
            .collect();
        // All three gain 2, so the last, {2, 3}, goes first; then {0, 1}
        // gains 2 against {1, 2}'s 1.
        assert_eq!(greedy_cover(&cands, &covering(4, &cands)), vec![2, 0]);
        assert_eq!(greedy_cover_reference(4, &cands), vec![2, 0]);
    }

    /// Forced covers change no answer: over isolated, clustered,
    /// duplicated and box-edge point sets, `cluster(.., Ilp)` returns
    /// exactly the clusters of the always-ILP path. Both branches must
    /// fire: instances the forced cover settles, and instances that
    /// fall through to the ILP.
    #[test]
    fn forced_cover_matches_always_ilp_reference() {
        let (w, h) = (10_000.0, 8_000.0);
        let (forced, fell_through) = (Cell::new(0usize), Cell::new(0usize));
        let gen = (
            u64_range(0, u64::MAX),
            usize_range(0, 4),
            usize_range(1, 40),
        );
        check_cases(
            256,
            "forced_cover_matches_always_ilp_reference",
            gen,
            |&(seed, kind, n)| {
                let pts = seeded_points(seed, kind, n, w, h);
                let cands = candidates(&pts, w, h);
                match forced_cover(&covering(pts.len(), &cands), cands.len()) {
                    Some(_) => forced.set(forced.get() + 1),
                    None => fell_through.set(fell_through.get() + 1),
                }
                let got = cluster(&pts, w, h, ClusteringMethod::Ilp)
                    .map_err(|e| eagleeye_check::Failure::fail(format!("cluster failed: {e}")))?;
                prop_assert_eq!(got, cluster_reference(&pts, w, h));
                Ok(())
            },
        );
        assert!(forced.get() > 0, "the forced path never fired");
        assert!(fell_through.get() > 0, "the ILP fall-through never fired");
    }
}
