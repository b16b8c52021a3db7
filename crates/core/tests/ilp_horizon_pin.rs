//! Per-horizon regression pins for the ILP scheduler, greedy and
//! repair.
//!
//! Each case is a seeded scheduling problem in the shape of an 8 × 2
//! design point's horizons (two followers trailing the leader by 100 km
//! and 120 km, tasks spread over the 100 km low-resolution swath and
//! one or more 106.5 km frames). The pins record the exact captured task
//! sequences, a digest of every capture time's bits, the total value's
//! bits and the full [`IlpRunStats`]. Solver refactors that claim to be
//! bit-identical must leave every pin unchanged; a pin that moves means
//! a pivot, a branching decision or a row order changed. Greedy and
//! repair place the earliest feasible capture first, so their pins move
//! when a tie is broken differently.

use eagleeye_core::pointing::TimeWindow;
use eagleeye_core::schedule::{
    repair, FollowerState, GreedyScheduler, IlpRunStats, IlpScheduler, Schedule, Scheduler,
    SchedulingProblem, TaskSpec,
};
use eagleeye_core::SensingSpec;
use eagleeye_rng::SplitMix64;
use std::fmt::Debug;

/// A design-point-shaped horizon: `n_tasks` tasks over `frames` leader
/// frames centred on along-track origin 0, two followers at the default
/// trail. With `carried_state`, the followers start busy and off-nadir,
/// as they do after a previous frame's schedule.
fn frame_problem(seed: u64, n_tasks: usize, frames: f64, carried_state: bool) -> SchedulingProblem {
    let mut rng = SplitMix64::new(seed);
    let tasks: Vec<TaskSpec> = (0..n_tasks)
        .map(|_| {
            TaskSpec::new(
                rng.range_f64(-50_000.0, 50_000.0),
                rng.range_f64(-53_250.0 * frames, 53_250.0 * frames),
                rng.range_f64(0.5, 4.0),
            )
        })
        .collect();
    let followers: Vec<FollowerState> = [100_000.0, 120_000.0]
        .iter()
        .map(|&trail| {
            let mut f = FollowerState::at_start(-trail);
            if carried_state {
                f.available_from_s = rng.range_f64(0.0, 6.0);
                f.pointing_offset = (rng.range_f64(-40_000.0, 40_000.0), 0.0);
            }
            f
        })
        .collect();
    SchedulingProblem::new(SensingSpec::paper_default(), tasks, followers)
        .expect("frame problem is well-formed")
}

/// What one solve is pinned to: its schedule and the solver's own
/// account of it (the ILP's [`IlpRunStats`], repair's dropped and
/// reassigned counts).
struct Pin<S, const N: usize> {
    captured: [&'static [usize]; N],
    time_digest: u64,
    total_value_bits: u64,
    stats: S,
}

/// FNV-1a over `(follower, task, time bits)` of every capture, in
/// sequence order.
fn time_digest(schedule: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (f, seq) in schedule.sequences.iter().enumerate() {
        for c in seq {
            eat(f as u64);
            eat(c.task as u64);
            eat(c.time_s.to_bits());
        }
    }
    h
}

fn assert_pinned(
    name: &str,
    scheduler: &IlpScheduler,
    problem: &SchedulingProblem,
    pin: &Pin<IlpRunStats, 2>,
) {
    let (schedule, stats) = scheduler
        .schedule_with_stats(problem)
        .unwrap_or_else(|e| panic!("{name}: solve failed: {e}"));
    assert_schedule_pinned(name, &schedule, stats, pin);
}

fn assert_schedule_pinned<S: PartialEq + Debug, const N: usize>(
    name: &str,
    schedule: &Schedule,
    stats: S,
    pin: &Pin<S, N>,
) {
    let captured: Vec<Vec<usize>> = schedule
        .sequences
        .iter()
        .map(|seq| seq.iter().map(|c| c.task).collect())
        .collect();
    let actual = format!(
        "captured {captured:?}\ntime_digest {:#018x}\ntotal_value_bits {:#018x}\nstats {stats:?}",
        time_digest(schedule),
        schedule.total_value.to_bits(),
    );
    let want: Vec<Vec<usize>> = pin.captured.iter().map(|s| s.to_vec()).collect();
    assert_eq!(captured, want, "{name}: captured tasks moved\n{actual}");
    assert_eq!(
        time_digest(schedule),
        pin.time_digest,
        "{name}: capture times moved\n{actual}"
    );
    assert_eq!(
        schedule.total_value.to_bits(),
        pin.total_value_bits,
        "{name}: total value moved\n{actual}"
    );
    assert_eq!(stats, pin.stats, "{name}: solver effort moved\n{actual}");
}

/// Builds an [`IlpRunStats`] from the counters these pins exercise.
fn stats(
    subproblems: usize,
    nodes: (usize, usize),
    lp: (usize, usize),
    incumbent_updates: usize,
    warm: (usize, usize),
) -> IlpRunStats {
    IlpRunStats {
        subproblems,
        deadline_hits: 0,
        iteration_limit_hits: 0,
        nodes_explored: nodes.0,
        nodes_pruned: nodes.1,
        lp_iterations: lp.0,
        lp_pivots: lp.1,
        incumbent_updates,
        warm_starts: warm.0,
        warm_rejects: warm.1,
        greedy_dominated: false,
    }
}

/// The scheduler under pin. The 20- and 40-task cases use two capture
/// slots per window to keep their LPs small enough for an unoptimised
/// test build. No wall-clock limit can bind: a deadline hit would make
/// the pin depend on the machine.
fn pinned(slots_per_task: usize) -> IlpScheduler {
    IlpScheduler {
        slots_per_task,
        time_limit: std::time::Duration::from_secs(3600),
        ..IlpScheduler::default()
    }
}

#[test]
fn two_followers_eight_tasks() {
    // Automatic slots (5 per window) on one frame: the root LP is
    // integral.
    let p = frame_problem(7, 8, 1.0, false);
    assert_pinned(
        "2x8",
        &pinned(0),
        &p,
        &Pin {
            captured: [&[6, 5, 7, 3, 2, 1, 4], &[0]],
            time_digest: 0x14089be24aab3fc7,
            total_value_bits: 0x4033dd98ed8a7616,
            stats: stats(1, (1, 0), (181, 178), 1, (0, 0)),
        },
    );
}

#[test]
fn two_followers_twenty_tasks() {
    // Warm-started children, two incumbents.
    let p = frame_problem(8, 20, 3.0, true);
    assert_pinned(
        "2x20",
        &pinned(2),
        &p,
        &Pin {
            captured: [&[18, 1, 4, 16, 14, 11, 3], &[12, 17, 6, 19, 0, 9, 15, 13]],
            time_digest: 0xfdf4c6e9aa469c68,
            total_value_bits: 0x4040e6cac1452dcf,
            stats: stats(1, (9, 3), (439, 424), 2, (8, 0)),
        },
    );
}

#[test]
fn two_followers_forty_tasks() {
    // All three pruned nodes are dropped on their parent's bound,
    // unsolved.
    let p = frame_problem(9, 40, 4.0, false);
    assert_pinned(
        "2x40",
        &pinned(2),
        &p,
        &Pin {
            captured: [
                &[30, 36, 35, 34, 24, 19, 37, 9, 6, 18, 0, 12, 23, 2, 17],
                &[11, 4, 29, 21, 32, 28, 26, 38, 8, 33, 25, 22],
            ],
            time_digest: 0x727334f0cd761b87,
            total_value_bits: 0x4050b9e763fc9f5b,
            stats: stats(1, (4, 3), (612, 601), 1, (3, 0)),
        },
    );
}

#[test]
fn two_followers_forty_tasks_carried_state() {
    let p = frame_problem(6, 40, 4.0, true);
    assert_pinned(
        "2x40 carried",
        &pinned(2),
        &p,
        &Pin {
            captured: [
                &[
                    6, 22, 39, 27, 8, 20, 1, 34, 29, 7, 38, 10, 14, 25, 18, 9, 19,
                ],
                &[28, 30, 2, 33, 23, 13, 31, 16, 5, 12, 37, 4, 17, 35, 15],
            ],
            time_digest: 0xae52dfe84d06b655,
            total_value_bits: 0x4050fb8750803d81,
            stats: stats(1, (2, 1), (767, 756), 1, (1, 0)),
        },
    );
}

#[test]
fn sequential_decomposition() {
    // 2 followers x 20 tasks x 2 slots = 80 joint nodes, above this
    // limit: one exact solve per follower, the second excluding the
    // first's captures.
    let p = frame_problem(10, 20, 3.0, true);
    let scheduler = IlpScheduler {
        joint_node_limit: 40,
        ..pinned(2)
    };
    assert_pinned(
        "2x20 decomposed",
        &scheduler,
        &p,
        &Pin {
            captured: [
                &[9, 14, 15, 5, 3, 19, 8, 18, 12, 13, 2, 1, 10, 7],
                &[17, 6, 11, 0, 16, 4],
            ],
            time_digest: 0x8512209de18b2761,
            total_value_bits: 0x40491d3d6f31347e,
            stats: stats(2, (2, 0), (135, 119), 2, (0, 0)),
        },
    );
}

// One-task horizons are three quarters of a design point's. They are
// solved in closed form: the LP's first step is a bound flip onto the
// first follower's first directly reachable slot, so no graph, model
// or tableau is built and no solver effort is counted. The captures,
// times and values below are what the LP path gave (one subproblem, one
// root node, 9 iterations and 7 pivots each).

#[test]
fn one_task_fresh_state() {
    let p = frame_problem(11, 1, 1.0, false);
    assert_pinned(
        "2x1",
        &pinned(0),
        &p,
        &Pin {
            captured: [&[0], &[]],
            time_digest: 0x8d141ace897f4610,
            total_value_bits: 0x4005dd7ccd4c18f6,
            stats: IlpRunStats::default(),
        },
    );
}

#[test]
fn one_task_carried_state() {
    let p = frame_problem(12, 1, 1.0, true);
    assert_pinned(
        "2x1 carried",
        &pinned(0),
        &p,
        &Pin {
            captured: [&[0], &[]],
            time_digest: 0xc372679fecf94af5,
            total_value_bits: 0x3ff52537371263e0,
            stats: IlpRunStats::default(),
        },
    );
}

// Greedy takes the globally earliest feasible (follower, task) capture;
// on an exact tie the first follower, then the first task, wins.

#[test]
fn greedy_two_followers_twenty_tasks() {
    let p = frame_problem(8, 20, 3.0, true);
    let schedule = GreedyScheduler.schedule(&p).expect("greedy schedules");
    assert_schedule_pinned(
        "greedy 2x20 carried",
        &schedule,
        (),
        &Pin {
            captured: [&[4, 16, 7, 14, 19, 3, 0, 9, 15, 13], &[17, 2, 6, 11, 12]],
            time_digest: 0x460a9dea46f1fbcb,
            total_value_bits: 0x40407626da32755b,
            stats: (),
        },
    );
}

#[test]
fn greedy_two_followers_forty_tasks() {
    let p = frame_problem(9, 40, 4.0, false);
    let schedule = GreedyScheduler.schedule(&p).expect("greedy schedules");
    assert_schedule_pinned(
        "greedy 2x40",
        &schedule,
        (),
        &Pin {
            captured: [
                &[35, 34, 24, 5, 3, 38, 6, 8, 33, 17, 12, 0, 18, 25, 23, 2],
                &[15, 13, 1, 29, 4, 36, 21, 7, 20, 19, 28, 26, 39, 9, 37, 22],
            ],
            time_digest: 0xdad4652d94dd4b3b,
            total_value_bits: 0x40509a6b09cbb76a,
            stats: (),
        },
    );
}

// Repair re-plans a failed follower's dropped tasks with greedy's
// search on the survivors, but removes a placed task by swapping the
// last dropped task into its place. That order decides later ties.

#[test]
fn repair_mid_pass() {
    // Greedy's 2x20 schedule above; follower 0 fails at its third
    // capture, and the survivor picks up after its own last capture.
    let p = frame_problem(8, 20, 3.0, true);
    let schedule = GreedyScheduler.schedule(&p).expect("greedy schedules");
    let onset = schedule.sequences[0][2].time_s;
    let repaired = repair(&p, &schedule, &[(0, onset)]).expect("repair validates");
    assert_schedule_pinned(
        "repair 2x20 carried",
        &repaired.schedule,
        (repaired.dropped_tasks, repaired.reassigned_tasks),
        &Pin {
            captured: [&[4, 16], &[17, 2, 6, 11, 12, 9, 15, 13, 3, 0]],
            time_digest: 0x9ae0e19dcceb974c,
            total_value_bits: 0x403b3daccad73182,
            stats: (8, 5),
        },
    );
}

#[test]
fn repair_ties_on_a_shared_window_start() {
    // Three followers whose windows all open at a shared clip start, as
    // the mix camera's compute delay makes them. Follower 0 holds every
    // capture and fails before the first, so both survivors start
    // fresh: each one's first re-planned capture reaches every dropped
    // task at the clip start, a tie to the bit.
    let mut rng = SplitMix64::new(13);
    let tasks: Vec<TaskSpec> = (0..8)
        .map(|_| {
            TaskSpec::new(
                rng.range_f64(-30_000.0, 30_000.0),
                rng.range_f64(-20_000.0, 60_000.0),
                rng.range_f64(0.5, 4.0),
            )
        })
        .collect();
    let followers: Vec<FollowerState> = [100_000.0, 120_000.0, 140_000.0]
        .iter()
        .map(|&trail| FollowerState::at_start(-trail))
        .collect();
    let clip = Some(TimeWindow {
        start_s: 20.0,
        end_s: 60.0,
    });
    let spec = SensingSpec::paper_default();
    let solo = SchedulingProblem::new_with_clip(spec, tasks.clone(), followers[..1].to_vec(), clip)
        .expect("solo problem is well-formed");
    let p = SchedulingProblem::new_with_clip(spec, tasks, followers, clip)
        .expect("clipped problem is well-formed");
    let mut schedule = GreedyScheduler.schedule(&solo).expect("greedy schedules");
    schedule.sequences.resize(3, Vec::new());
    let repaired = repair(&p, &schedule, &[(0, 0.0)]).expect("repair validates");
    assert_schedule_pinned(
        "repair clipped handover",
        &repaired.schedule,
        (repaired.dropped_tasks, repaired.reassigned_tasks),
        &Pin {
            captured: [&[], &[0, 2, 3], &[5, 4, 6, 1]],
            time_digest: 0xe172d0cf4a7a4285,
            total_value_bits: 0x402b9cd77c044c83,
            stats: (7, 7),
        },
    );
}
