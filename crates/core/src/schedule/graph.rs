//! The discretized opportunity graph underlying the ILP scheduler and
//! its test oracle, the DP scheduler.
//!
//! Each (follower, task) visibility window is discretized into a small
//! number of capture *slots*. A directed arc between two slots of the
//! same follower means the ADACS can rotate between the two capture
//! configurations in the intervening time (constraint C1). Two
//! observations keep the graph small:
//!
//! * Any rotation between valid pointings is at most `2·θmax`, so any
//!   pair separated by more than `T_max = slew_time(2·θmax)` is
//!   unconditionally feasible. Direct arcs are only generated within
//!   `T_max`; longer gaps route through a per-follower **rest chain** —
//!   zero-value relay nodes at every slot time — which encodes "given
//!   enough time, point anywhere" with O(nodes) arcs instead of O(nodes²).
//! * Capture slots of the same task are never connected (capturing a
//!   task twice is worthless).

use super::SchedulingProblem;
use crate::pointing::TimeWindow;

/// One capture opportunity: follower `f` capturing task `j` at `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OppNode {
    pub follower: usize,
    pub task: usize,
    pub time_s: f64,
    /// Pointing offset from nadir at capture time.
    pub offset: (f64, f64),
}

/// A feasibility arc of one follower's graph. Endpoints are numbered
/// capture nodes first (node `v` is `v`), then every follower's rest
/// relays in follower order (relay `q` of follower `f` follows all
/// nodes and the relays of followers before `f`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Arc {
    pub follower: usize,
    /// Tail endpoint; `None` for the follower's initial state.
    pub from: Option<usize>,
    /// Head endpoint.
    pub to: usize,
}

/// Endpoint of an arc, decoded from its number, so the reference
/// builds and assemblies in the tests can key on it.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum End {
    /// The follower's initial state.
    Source,
    /// Capture node (global index into `nodes`).
    Node(usize),
    /// Rest-chain relay of follower `f` at rest-time index `q`.
    Rest(usize, usize),
}

/// The assembled graph for one scheduling problem, in flat arrays sized
/// before they are filled.
#[derive(Debug, Clone)]
pub(crate) struct OpportunityGraph {
    /// Capture nodes, grouped by follower in follower order, each
    /// follower's in task then slot order.
    pub nodes: Vec<OppNode>,
    /// Every follower's sorted distinct slot times (its rest chain),
    /// back to back in follower order: follower `f`'s are
    /// `rest_times[rest_offsets[f]..rest_offsets[f + 1]]`.
    rest_times: Vec<f64>,
    rest_offsets: Vec<usize>,
    pub arcs: Vec<Arc>,
    /// How many arcs each row key holds, counted as the arcs are
    /// emitted. Keys follow the scheduling MILP's row order: each
    /// follower's source (by follower), each endpoint's outgoing arcs
    /// (by endpoint), each endpoint's incoming arcs, and each task's
    /// arcs into its capture nodes (by task); see [`row_keys`].
    pub row_arcs: Vec<usize>,
}

impl OpportunityGraph {
    /// Builds the graph with `slots` capture slots per window over the
    /// given followers (ascending follower ids), skipping excluded
    /// tasks.
    pub(crate) fn build(
        problem: &SchedulingProblem,
        slots: usize,
        followers: &[usize],
        excluded_tasks: &[bool],
    ) -> OpportunityGraph {
        debug_assert!(followers.windows(2).all(|w| w[0] < w[1]));
        let spec = problem.spec();
        let t_max = spec
            .adacs
            .min_slew_time_s(spec.max_pointing_separation_rad())
            + 1e-9;
        let n_tasks = problem.tasks().len();
        // The window of a task a follower may capture, and its slot
        // count.
        let window_slots = |f: usize, j: usize| {
            if *excluded_tasks.get(j).unwrap_or(&false) {
                return None;
            }
            let w = problem.window(f, j)?;
            Some((w, slot_count(&w, slots)))
        };
        let n_nodes: usize = followers
            .iter()
            .flat_map(|&f| (0..n_tasks).filter_map(move |j| window_slots(f, j)))
            .map(|(_, k)| k)
            .sum();

        // Nodes, each follower's node indices sorted by time (a stable
        // sort of its contiguous block), and its rest times: the sorted
        // node times with near-duplicates (within 1e-9) dropped.
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut order: Vec<usize> = Vec::with_capacity(n_nodes);
        let mut rest_times = Vec::with_capacity(n_nodes);
        let mut rest_offsets = vec![0usize; problem.followers().len() + 1];
        let mut chosen = followers.iter().peekable();
        for f in 0..problem.followers().len() {
            if chosen.next_if_eq(&&f).is_some() {
                let start = nodes.len();
                for j in 0..n_tasks {
                    let Some((w, k)) = window_slots(f, j) else {
                        continue;
                    };
                    for s in 0..k {
                        let t = slot_time(&w, k, s);
                        nodes.push(OppNode {
                            follower: f,
                            task: j,
                            time_s: t,
                            offset: problem.capture_offset(f, j, t),
                        });
                    }
                }
                order.extend(start..nodes.len());
                order[start..].sort_by(|&a, &b| nodes[a].time_s.total_cmp(&nodes[b].time_s));
                for &v in &order[start..] {
                    let t = nodes[v].time_s;
                    let near_last = rest_times[rest_offsets[f]..]
                        .last()
                        .is_some_and(|&r: &f64| (t - r).abs() < 1e-9);
                    if !near_last {
                        rest_times.push(t);
                    }
                }
            }
            rest_offsets[f + 1] = rest_times.len();
        }

        // Arcs per follower: at most one per node from the source, to
        // the rest chain and from it, one per rest-chain link, plus one
        // per node pair closer than `t_max`.
        let mut arc_bound = 0;
        let mut start = 0;
        for &f in followers {
            let idx = follower_block(&order, &nodes, start, f);
            let mut far = 0;
            for (a_pos, &u) in idx.iter().enumerate() {
                far = far.max(a_pos + 1);
                while far < idx.len() && !(nodes[idx[far]].time_s - nodes[u].time_s > t_max) {
                    far += 1;
                }
                arc_bound += far - a_pos - 1;
            }
            arc_bound += 3 * idx.len() + 1 + (rest_offsets[f + 1] - rest_offsets[f]);
            start += idx.len();
        }

        // Each arc is counted into its rows as it is emitted.
        let out_base = problem.followers().len();
        let n_ends = nodes.len() + rest_times.len();
        let mut arcs = Vec::with_capacity(arc_bound);
        let mut row_arcs = vec![0usize; out_base + 2 * n_ends + n_tasks];
        let mut emit = |arc: Arc| {
            let (tail, head, task) = row_keys(&arc, out_base, n_ends, &nodes);
            row_arcs[tail] += 1;
            row_arcs[head] += 1;
            if let Some(k) = task {
                row_arcs[k] += 1;
            }
            arcs.push(arc);
        };
        let mut start = 0;
        for &f in followers {
            let idx = follower_block(&order, &nodes, start, f);
            start += idx.len();
            let rests = &rest_times[rest_offsets[f]..rest_offsets[f + 1]];
            let rest = |q: usize| nodes.len() + rest_offsets[f] + q;
            let state = &problem.followers()[f];
            let mut arc = |from: Option<usize>, to: usize| {
                emit(Arc {
                    follower: f,
                    from,
                    to,
                })
            };

            // Source arcs.
            for &v in idx {
                if source_reaches(problem, &nodes[v]) {
                    arc(None, v);
                }
            }
            if let Some(q) = first_rest_at_or_after(rests, state.available_from_s + t_max) {
                arc(None, rest(q));
            }

            // Node-to-node arcs within the horizon; node-to-rest beyond.
            for (a_pos, &u) in idx.iter().enumerate() {
                let nu = &nodes[u];
                for &v in &idx[a_pos + 1..] {
                    let nv = &nodes[v];
                    let dt = nv.time_s - nu.time_s;
                    if dt <= 1e-9 {
                        continue; // strict time ordering breaks cycles
                    }
                    if dt > t_max {
                        break; // sorted: all further nodes route via rest
                    }
                    if nv.task == nu.task {
                        continue;
                    }
                    let rot = problem.rotation_between(nu.offset, nv.offset);
                    if spec.adacs.can_rotate(rot, dt) {
                        arc(Some(u), v);
                    }
                }
                if let Some(q) = first_rest_at_or_after(rests, nu.time_s + t_max) {
                    arc(Some(u), rest(q));
                }
            }

            // Rest chain and rest-to-node arcs.
            for q in 0..rests.len().saturating_sub(1) {
                arc(Some(rest(q)), rest(q + 1));
            }
            for &v in idx {
                if let Some(q) = rest_index_at(rests, nodes[v].time_s) {
                    arc(Some(rest(q)), v);
                }
            }
        }

        OpportunityGraph {
            nodes,
            rest_times,
            rest_offsets,
            arcs,
            row_arcs,
        }
    }

    /// The first outgoing-arcs key; keys below it are followers'
    /// sources.
    pub(crate) fn out_base(&self) -> usize {
        self.rest_offsets.len() - 1
    }

    /// Endpoints: capture nodes and rest relays.
    pub(crate) fn n_ends(&self) -> usize {
        self.nodes.len() + self.rest_times.len()
    }

    /// Follower `f`'s rest times, sorted and distinct.
    #[cfg(test)]
    pub(crate) fn rests(&self, f: usize) -> &[f64] {
        &self.rest_times[self.rest_offsets[f]..self.rest_offsets[f + 1]]
    }

    /// Endpoint `e` of an arc (`None` for a source), decoded.
    #[cfg(test)]
    pub(crate) fn end(&self, e: Option<usize>) -> End {
        let Some(e) = e else {
            return End::Source;
        };
        match e.checked_sub(self.nodes.len()) {
            None => End::Node(e),
            Some(r) => {
                let f = self.rest_offsets.partition_point(|&o| o <= r) - 1;
                End::Rest(f, r - self.rest_offsets[f])
            }
        }
    }

    /// Direct pairwise feasibility between two capture nodes of the same
    /// follower (used by the DP oracle, which needs no rest chain).
    #[cfg(test)]
    pub(crate) fn pair_feasible(problem: &SchedulingProblem, u: &OppNode, v: &OppNode) -> bool {
        debug_assert_eq!(u.follower, v.follower);
        let dt = v.time_s - u.time_s;
        if dt <= 1e-9 {
            return false;
        }
        let rot = problem.rotation_between(u.offset, v.offset);
        problem.spec().adacs.can_rotate(rot, dt)
    }
}

/// Arc `a`'s row keys (see [`OpportunityGraph::row_arcs`]): its tail's
/// (a follower's source or an endpoint's outgoing arcs), its head's
/// incoming arcs, and the task its head captures, if the head is a
/// capture node. `out_base` is the follower count and `n_ends` the
/// endpoint count.
pub(crate) fn row_keys(
    a: &Arc,
    out_base: usize,
    n_ends: usize,
    nodes: &[OppNode],
) -> (usize, usize, Option<usize>) {
    let in_base = out_base + n_ends;
    (
        a.from.map_or(a.follower, |e| out_base + e),
        in_base + a.to,
        nodes.get(a.to).map(|n| in_base + n_ends + n.task),
    )
}

/// Capture slots in window `w` when `slots` are asked for: one, at the
/// midpoint, when at most one is asked for or the window has zero
/// length.
pub(crate) fn slot_count(w: &TimeWindow, slots: usize) -> usize {
    if slots <= 1 || w.duration_s() < 1e-9 {
        1
    } else {
        slots
    }
}

/// Time of slot `s` of the `k` in window `w`: evenly spaced from its
/// start to its end, nondecreasing in `s` (every step rounds
/// monotonically), so slot order is time order.
pub(crate) fn slot_time(w: &TimeWindow, k: usize, s: usize) -> f64 {
    if k == 1 {
        (w.start_s + w.end_s) / 2.0
    } else {
        w.start_s + w.duration_s() * s as f64 / (k - 1) as f64
    }
}

/// Whether node `n`'s follower can turn from its initial state to
/// capture it in time: the test behind every source-to-node arc.
pub(crate) fn source_reaches(problem: &SchedulingProblem, n: &OppNode) -> bool {
    let state = &problem.followers()[n.follower];
    let dt = n.time_s - state.available_from_s;
    !(dt < -1e-9)
        && problem.spec().adacs.can_rotate(
            problem.rotation_between(state.pointing_offset, n.offset),
            dt,
        )
}

/// Follower `f`'s time-sorted node indices: the block of `order` from
/// `start` whose nodes belong to `f`.
fn follower_block<'a>(
    order: &'a [usize],
    nodes: &[OppNode],
    start: usize,
    f: usize,
) -> &'a [usize] {
    let len = order[start..]
        .iter()
        .take_while(|&&v| nodes[v].follower == f)
        .count();
    &order[start..start + len]
}

// Both lookups binary-search the sorted rest times. Each predicate is
// monotone in `r`, so a linear scan's first match, if any, sits at the
// `partition_point`; re-checking the predicate there keeps the answer
// identical to the scan, even for a NaN query time.

/// First rest at or after `t` (within 1e-9).
fn first_rest_at_or_after(rests: &[f64], t: f64) -> Option<usize> {
    let q = rests.partition_point(|&r| !(r >= t - 1e-9));
    rests.get(q).filter(|&&r| r >= t - 1e-9).map(|_| q)
}

/// First rest within 1e-9 of `t`.
fn rest_index_at(rests: &[f64], t: f64) -> Option<usize> {
    let q = rests.partition_point(|&r| !(r - t > -1e-9));
    rests.get(q).filter(|&&r| (r - t).abs() < 1e-9).map(|_| q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FollowerState, TaskSpec};
    use crate::SensingSpec;
    use eagleeye_check::{check_cases, prop_assert, prop_assert_eq, u64_range, usize_range};
    use eagleeye_rng::SplitMix64;

    fn problem(tasks: Vec<TaskSpec>, followers: Vec<FollowerState>) -> SchedulingProblem {
        SchedulingProblem::new(SensingSpec::paper_default(), tasks, followers).unwrap()
    }

    /// The linear scans the binary-search lookups replaced.
    fn first_rest_at_or_after_linear(rests: &[f64], t: f64) -> Option<usize> {
        rests.iter().position(|&r| r >= t - 1e-9)
    }

    fn rest_index_at_linear(rests: &[f64], t: f64) -> Option<usize> {
        rests.iter().position(|&r| (r - t).abs() < 1e-9)
    }

    /// Seeded rest times built as `build` builds them (sorted, deduped
    /// within 1e-9), with chains of near-equal times whose steps
    /// straddle the dedup tolerance.
    fn seeded_rests(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        let mut times = Vec::new();
        for _ in 0..n {
            let base = rng.range_f64(-10.0, 200.0);
            times.push(base);
            if rng.chance(0.4) {
                let step = [0.4e-9, 0.9e-9, 1e-9, 1.1e-9, 2e-9][rng.range_usize(0, 5)];
                for k in 1..=rng.range_usize(1, 5) {
                    times.push(base + step * k as f64);
                }
            }
        }
        times.sort_by(|a, b| a.total_cmp(b));
        times.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        times
    }

    #[test]
    fn rest_lookups_match_linear_scans() {
        check_cases(
            256,
            "graph_rest_lookups_match_linear_scans",
            (u64_range(0, u64::MAX), usize_range(0, 40)),
            |&(seed, n)| {
                let rests = seeded_rests(seed, n);
                let mut rng = SplitMix64::new(seed ^ 0x7e57);
                let mut queries = vec![f64::NAN, -1e9, 1e9];
                for &r in &rests {
                    for d in [0.0, 0.5e-9, 1e-9, 1.5e-9, 2e-9, 1.0] {
                        queries.extend([r + d, r - d]);
                    }
                }
                queries.extend((0..16).map(|_| rng.range_f64(-20.0, 210.0)));
                for t in queries {
                    prop_assert_eq!(
                        first_rest_at_or_after(&rests, t),
                        first_rest_at_or_after_linear(&rests, t)
                    );
                    prop_assert_eq!(rest_index_at(&rests, t), rest_index_at_linear(&rests, t));
                }
                Ok(())
            },
        );
    }

    /// A reference build's arc: follower, tail, head.
    type RefArc = (usize, End, End);

    /// The per-vector graph build the flat one replaced, kept as its
    /// oracle: a `times` vector per window, rest times as one vector per
    /// follower, and each follower's nodes found by filtering all of
    /// them.
    fn build_reference(
        problem: &SchedulingProblem,
        slots: usize,
        followers: &[usize],
        excluded_tasks: &[bool],
    ) -> (Vec<OppNode>, Vec<Vec<f64>>, Vec<RefArc>) {
        let spec = problem.spec();
        let slots = slots.max(1);
        let t_max = spec
            .adacs
            .min_slew_time_s(spec.max_pointing_separation_rad())
            + 1e-9;
        let mut nodes: Vec<OppNode> = Vec::new();
        let mut rest_times: Vec<Vec<f64>> = vec![Vec::new(); problem.followers().len()];
        for &f in followers {
            for j in 0..problem.tasks().len() {
                if *excluded_tasks.get(j).unwrap_or(&false) {
                    continue;
                }
                let Some(w) = problem.window(f, j) else {
                    continue;
                };
                let times: Vec<f64> = if slots == 1 || w.duration_s() < 1e-9 {
                    vec![(w.start_s + w.end_s) / 2.0]
                } else {
                    (0..slots)
                        .map(|k| w.start_s + w.duration_s() * k as f64 / (slots - 1) as f64)
                        .collect()
                };
                for t in times {
                    nodes.push(OppNode {
                        follower: f,
                        task: j,
                        time_s: t,
                        offset: problem.capture_offset(f, j, t),
                    });
                }
            }
        }
        for n in &nodes {
            rest_times[n.follower].push(n.time_s);
        }
        for times in rest_times.iter_mut() {
            times.sort_by(|a, b| a.total_cmp(b));
            times.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        }
        let mut arcs = Vec::new();
        for &f in followers {
            let mut idx: Vec<usize> = (0..nodes.len())
                .filter(|&i| nodes[i].follower == f)
                .collect();
            idx.sort_by(|&a, &b| nodes[a].time_s.total_cmp(&nodes[b].time_s));
            let rests = &rest_times[f];
            let state = &problem.followers()[f];
            let arc = |from, to| (f, from, to);
            for &v in &idx {
                let n = &nodes[v];
                let dt = n.time_s - state.available_from_s;
                if dt < -1e-9 {
                    continue;
                }
                let rot = problem.rotation_between(state.pointing_offset, n.offset);
                if spec.adacs.can_rotate(rot, dt) {
                    arcs.push(arc(End::Source, End::Node(v)));
                }
            }
            if let Some(q) = first_rest_at_or_after(rests, state.available_from_s + t_max) {
                arcs.push(arc(End::Source, End::Rest(f, q)));
            }
            for (a_pos, &u) in idx.iter().enumerate() {
                let nu = &nodes[u];
                for &v in &idx[a_pos + 1..] {
                    let nv = &nodes[v];
                    let dt = nv.time_s - nu.time_s;
                    if dt <= 1e-9 {
                        continue;
                    }
                    if dt > t_max {
                        break;
                    }
                    if nv.task == nu.task {
                        continue;
                    }
                    let rot = problem.rotation_between(nu.offset, nv.offset);
                    if spec.adacs.can_rotate(rot, dt) {
                        arcs.push(arc(End::Node(u), End::Node(v)));
                    }
                }
                if let Some(q) = first_rest_at_or_after(rests, nu.time_s + t_max) {
                    arcs.push(arc(End::Node(u), End::Rest(f, q)));
                }
            }
            for q in 0..rests.len().saturating_sub(1) {
                arcs.push(arc(End::Rest(f, q), End::Rest(f, q + 1)));
            }
            for &v in &idx {
                if let Some(q) = rest_index_at(rests, nodes[v].time_s) {
                    arcs.push(arc(End::Rest(f, q), End::Node(v)));
                }
            }
        }
        (nodes, rest_times, arcs)
    }

    /// Node fields with every float as its bits.
    fn node_bits(n: &OppNode) -> (usize, usize, u64, u64, u64) {
        (
            n.follower,
            n.task,
            n.time_s.to_bits(),
            n.offset.0.to_bits(),
            n.offset.1.to_bits(),
        )
    }

    /// The flat build gives the reference's nodes, rest times and arcs,
    /// bit for bit and in the same order: over follower subsets,
    /// excluded tasks, clip windows (some of zero length) and the
    /// single-slot path.
    #[test]
    fn flat_build_matches_per_vector_reference() {
        let gen = (
            u64_range(0, u64::MAX),
            usize_range(0, 10),
            usize_range(1, 4),
            usize_range(1, 6),
            usize_range(0, 3),
        );
        // Cases with a follower subset, an exclusion, a clip, a single slot.
        let seen = std::cell::Cell::new([0usize; 4]);
        check_cases(
            192,
            "graph_flat_build_matches_per_vector_reference",
            gen,
            |&(seed, n_tasks, n_followers, slots, clip_kind)| {
                let mut rng = SplitMix64::new(seed);
                let tasks = (0..n_tasks)
                    .map(|_| {
                        TaskSpec::new(
                            rng.range_f64(-60_000.0, 60_000.0),
                            rng.range_f64(-60_000.0, 60_000.0),
                            rng.range_f64(0.5, 4.0),
                        )
                    })
                    .collect();
                let states = (0..n_followers)
                    .map(|k| {
                        let mut f = FollowerState::at_start(-100_000.0 - 20_000.0 * k as f64);
                        if rng.chance(0.5) {
                            f.available_from_s = rng.range_f64(0.0, 6.0);
                            f.pointing_offset = (rng.range_f64(-40_000.0, 40_000.0), 0.0);
                        }
                        f
                    })
                    .collect();
                // No clip, a clip a few seconds long, or a zero-length
                // clip (every window collapses to one instant).
                let clip = match clip_kind {
                    0 => None,
                    1 => {
                        let a = rng.range_f64(0.0, 20.0);
                        Some(TimeWindow::new(a, a + rng.range_f64(0.5, 10.0)).unwrap())
                    }
                    _ => {
                        let a = rng.range_f64(0.0, 20.0);
                        Some(TimeWindow::new(a, a).unwrap())
                    }
                };
                let p = SchedulingProblem::new_with_clip(
                    SensingSpec::paper_default(),
                    tasks,
                    states,
                    clip,
                )
                .unwrap();
                let followers: Vec<usize> = (0..n_followers).filter(|_| rng.chance(0.7)).collect();
                let excluded: Vec<bool> = (0..n_tasks).map(|_| rng.chance(0.25)).collect();

                let g = OpportunityGraph::build(&p, slots, &followers, &excluded);
                let (nodes, rests, arcs) = build_reference(&p, slots, &followers, &excluded);
                let bits = |ns: &[OppNode]| ns.iter().map(node_bits).collect::<Vec<_>>();
                prop_assert_eq!(bits(&g.nodes), bits(&nodes));
                for (f, want) in rests.iter().enumerate() {
                    let got: Vec<u64> = g.rests(f).iter().map(|t| t.to_bits()).collect();
                    let want: Vec<u64> = want.iter().map(|t| t.to_bits()).collect();
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(g.arcs.len(), arcs.len());
                prop_assert!(g.arcs.len() <= g.arcs.capacity());
                // Endpoint numbers: nodes, then each follower's rests in
                // follower order.
                let mut rest_base = vec![nodes.len()];
                for r in &rests {
                    rest_base.push(rest_base.last().unwrap() + r.len());
                }
                let n_ends = *rest_base.last().unwrap();
                prop_assert_eq!(g.n_ends(), n_ends);
                let id = |e: End| match e {
                    End::Source => None,
                    End::Node(v) => Some(v),
                    End::Rest(f, q) => Some(rest_base[f] + q),
                };
                // Arcs per row key: sources, endpoint tails, endpoint
                // heads, captured tasks.
                let n_followers = p.followers().len();
                let mut row_arcs = vec![0; n_followers + 2 * n_ends + n_tasks];
                for (a, &(f, from, to)) in g.arcs.iter().zip(&arcs) {
                    let want = Arc {
                        follower: f,
                        from: id(from),
                        to: id(to).unwrap(),
                    };
                    prop_assert_eq!(*a, want);
                    prop_assert_eq!((g.end(a.from), g.end(Some(a.to))), (from, to));
                    row_arcs[id(from).map_or(f, |e| n_followers + e)] += 1;
                    row_arcs[n_followers + n_ends + a.to] += 1;
                    if let End::Node(v) = to {
                        row_arcs[n_followers + 2 * n_ends + nodes[v].task] += 1;
                    }
                }
                prop_assert_eq!(&g.row_arcs, &row_arcs);

                let single = nodes.iter().any(|n| {
                    slots == 1 || p.window(n.follower, n.task).unwrap().duration_s() < 1e-9
                });
                let mut count = seen.get();
                count[0] += usize::from(followers.len() < n_followers);
                count[1] += usize::from(excluded.contains(&true) && !nodes.is_empty());
                count[2] += usize::from(clip.is_some() && !nodes.is_empty());
                count[3] += usize::from(single);
                seen.set(count);
                Ok(())
            },
        );
        assert!(seen.get().iter().all(|&n| n > 5), "{:?}", seen.get());
    }

    #[test]
    fn nodes_cover_visible_tasks_only() {
        let p = problem(
            vec![
                TaskSpec::new(0.0, 50_000.0, 1.0),
                TaskSpec::new(95_000.0, 50_000.0, 1.0), // beyond cone
            ],
            vec![FollowerState::at_start(-100_000.0)],
        );
        let g = OpportunityGraph::build(&p, 3, &[0], &[false, false]);
        assert!(g.nodes.iter().all(|n| n.task == 0));
        assert_eq!(g.nodes.len(), 3);
    }

    #[test]
    fn excluded_tasks_get_no_nodes() {
        let p = problem(
            vec![
                TaskSpec::new(0.0, 50_000.0, 1.0),
                TaskSpec::new(0.0, 60_000.0, 1.0),
            ],
            vec![FollowerState::at_start(-100_000.0)],
        );
        let g = OpportunityGraph::build(&p, 2, &[0], &[true, false]);
        assert!(g.nodes.iter().all(|n| n.task == 1));
    }

    #[test]
    fn slot_times_span_the_window() {
        let p = problem(
            vec![TaskSpec::new(20_000.0, 50_000.0, 1.0)],
            vec![FollowerState::at_start(-100_000.0)],
        );
        let g = OpportunityGraph::build(&p, 4, &[0], &[false]);
        let w = p.window(0, 0).unwrap();
        assert_eq!(g.nodes.len(), 4);
        assert!((g.nodes[0].time_s - w.start_s).abs() < 1e-9);
        assert!((g.nodes[3].time_s - w.end_s).abs() < 1e-9);
    }

    #[test]
    fn arcs_are_time_forward() {
        let p = problem(
            (0..6)
                .map(|i| TaskSpec::new(i as f64 * 8_000.0, 40_000.0 + i as f64 * 9_000.0, 1.0))
                .collect(),
            vec![FollowerState::at_start(-100_000.0)],
        );
        let g = OpportunityGraph::build(&p, 3, &[0], &[false; 6]);
        for a in &g.arcs {
            if let (End::Node(u), End::Node(v)) = (g.end(a.from), g.end(Some(a.to))) {
                assert!(g.nodes[v].time_s > g.nodes[u].time_s);
            }
        }
    }

    #[test]
    fn rest_chain_connects_distant_slots() {
        // Two tasks far apart in time: no direct arc (beyond t_max) but a
        // rest path must exist.
        let p = problem(
            vec![
                TaskSpec::new(0.0, 0.0, 1.0),
                TaskSpec::new(0.0, 400_000.0, 1.0),
            ],
            vec![FollowerState::at_start(-100_000.0)],
        );
        let g = OpportunityGraph::build(&p, 2, &[0], &[false, false]);
        let has_direct = g.arcs.iter().any(|a| {
            matches!((g.end(a.from), g.end(Some(a.to))), (End::Node(u), End::Node(v))
                if g.nodes[u].task == 0 && g.nodes[v].task == 1)
        });
        assert!(!has_direct, "400 km apart: beyond the direct horizon");
        let node_to_rest = g.arcs.iter().any(
            |a| matches!((g.end(a.from), g.end(Some(a.to))), (End::Node(u), End::Rest(..)) if g.nodes[u].task == 0),
        );
        let rest_to_node = g.arcs.iter().any(
            |a| matches!((g.end(a.from), g.end(Some(a.to))), (End::Rest(..), End::Node(v)) if g.nodes[v].task == 1),
        );
        assert!(node_to_rest && rest_to_node);
    }

    #[test]
    fn follower_restriction_limits_nodes() {
        let p = problem(
            vec![TaskSpec::new(0.0, 50_000.0, 1.0)],
            vec![
                FollowerState::at_start(-100_000.0),
                FollowerState::at_start(-120_000.0),
            ],
        );
        let g = OpportunityGraph::build(&p, 2, &[1], &[false]);
        assert!(g.nodes.iter().all(|n| n.follower == 1));
    }

    #[test]
    fn pair_feasibility_matches_adacs() {
        let p = problem(
            vec![
                TaskSpec::new(0.0, 30_000.0, 1.0),
                TaskSpec::new(0.0, 90_000.0, 1.0),
            ],
            vec![FollowerState::at_start(-100_000.0)],
        );
        let g = OpportunityGraph::build(&p, 2, &[0], &[false, false]);
        // First slot of task 0 to last slot of task 1: plenty of time.
        let u = g.nodes.iter().find(|n| n.task == 0).unwrap();
        let v = g
            .nodes
            .iter()
            .filter(|n| n.task == 1)
            .max_by(|a, b| a.time_s.partial_cmp(&b.time_s).unwrap())
            .unwrap();
        assert!(OpportunityGraph::pair_feasible(&p, u, v));
        // Reverse order: time runs backward, infeasible.
        assert!(!OpportunityGraph::pair_feasible(&p, v, u));
    }
}
