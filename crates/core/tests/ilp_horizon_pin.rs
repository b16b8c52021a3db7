//! Per-horizon regression pins for the ILP scheduler.
//!
//! Each case is a seeded scheduling problem in the shape of an 8 × 2
//! design point's horizons (two followers trailing the leader by 100 km
//! and 120 km, tasks spread over the 100 km low-resolution swath and
//! one or more 106.5 km frames). The pins record the exact captured task
//! sequences, a digest of every capture time's bits, the total value's
//! bits and the full [`IlpRunStats`]. Solver refactors that claim to be
//! bit-identical must leave every pin unchanged; a pin that moves means
//! a pivot, a branching decision or a row order changed.

use eagleeye_core::schedule::{
    FollowerState, IlpRunStats, IlpScheduler, Schedule, SchedulingProblem, TaskSpec,
};
use eagleeye_core::SensingSpec;
use eagleeye_rng::SplitMix64;

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

/// What one solve is pinned to.
struct Pin {
    captured: [&'static [usize]; 2],
    time_digest: u64,
    total_value_bits: u64,
    stats: IlpRunStats,
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

fn assert_pinned(name: &str, scheduler: &IlpScheduler, problem: &SchedulingProblem, pin: &Pin) {
    let (schedule, stats) = scheduler
        .schedule_with_stats(problem)
        .unwrap_or_else(|e| panic!("{name}: solve failed: {e}"));
    let captured: Vec<Vec<usize>> = schedule
        .sequences
        .iter()
        .map(|seq| seq.iter().map(|c| c.task).collect())
        .collect();
    let actual = format!(
        "captured {captured:?}\ntime_digest {:#018x}\ntotal_value_bits {:#018x}\nstats {stats:?}",
        time_digest(&schedule),
        schedule.total_value.to_bits(),
    );
    let want: Vec<Vec<usize>> = pin.captured.iter().map(|s| s.to_vec()).collect();
    assert_eq!(captured, want, "{name}: captured tasks moved\n{actual}");
    assert_eq!(
        time_digest(&schedule),
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
            stats: stats(1, (7, 3), (619, 605), 1, (6, 0)),
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
            stats: stats(1, (3, 1), (770, 758), 1, (2, 0)),
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
