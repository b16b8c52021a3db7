//! Allocation budget for one ILP horizon solve (DESIGN.md §15.6).
//!
//! A counting global allocator tallies heap allocations and
//! reallocations made on the test thread while
//! [`IlpScheduler::schedule_with_stats`] solves seeded horizons in the
//! shape of an 8 × 2 design point's (two followers trailing the leader
//! by 100 km and 120 km, one 106.5 km frame, the horizons
//! `ilp_horizon_pin.rs` pins). Each shape's mean count per horizon must
//! stay at or under half of what the per-window, per-row and per-node
//! vectors the solve used to allocate cost. The counter is switched on
//! only around the solve and only on the thread that runs it, so this
//! test sits in a binary of its own and no other test's heap traffic is
//! counted.

use eagleeye_core::schedule::{FollowerState, IlpScheduler, SchedulingProblem, TaskSpec};
use eagleeye_core::SensingSpec;
use eagleeye_rng::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting on threads whose switch
/// is on.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing to count.
    if ON.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `alloc` contract is passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: same layout, same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `alloc_zeroed` contract is passed on to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: same layout, same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's `dealloc` contract is passed on to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller's `realloc` contract is passed on to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations `f` makes on this thread.
fn heap_traffic<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get), out)
}

/// A design-point-shaped horizon, built as `ilp_horizon_pin.rs` builds
/// it: `n_tasks` tasks over one leader frame, two followers at the
/// default trail, busy and off-nadir at the start with `carried_state`.
fn frame_problem(seed: u64, n_tasks: usize, carried_state: bool) -> SchedulingProblem {
    let mut rng = SplitMix64::new(seed);
    let tasks: Vec<TaskSpec> = (0..n_tasks)
        .map(|_| {
            TaskSpec::new(
                rng.range_f64(-50_000.0, 50_000.0),
                rng.range_f64(-53_250.0, 53_250.0),
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

#[test]
fn horizon_solves_allocate_a_fixed_handful_of_buffers() {
    const SEEDS: u64 = 64;
    // Beyond the three slabs each branching copies for its first child,
    // no horizon may allocate or reallocate more than this, however many
    // nodes its search explores: a vector per node or per pivot would
    // break it on the horizons that branch most.
    const FIXED: usize = 42;
    // Per task count, fresh then carried state: the mean allocations
    // plus reallocations per horizon that the per-window, per-row and
    // per-node layout made over these seeds. The budget is half of it.
    let shapes: [(usize, [f64; 2]); 3] = [
        (1, [103.0, 103.0]),
        (2, [163.7, 162.4]),
        (3, [194.4, 189.9]),
    ];
    let scheduler = IlpScheduler::default();
    let mut most_nodes = 0;
    for (n_tasks, befores) in shapes {
        for (carried, before) in [false, true].into_iter().zip(befores) {
            let (mut allocs, mut reallocs, mut branched) = (0usize, 0usize, 0usize);
            for seed in 0..SEEDS {
                let p = frame_problem(1_000 * n_tasks as u64 + seed, n_tasks, carried);
                let (a, r, solved) = heap_traffic(|| scheduler.schedule_with_stats(&p));
                let (schedule, stats) = solved.expect("horizon solves");
                schedule.validate(&p).expect("feasible schedule");
                allocs += a;
                reallocs += r;
                branched += usize::from(stats.nodes_explored > 1);
                most_nodes = most_nodes.max(stats.nodes_explored);
                let copies = 3 * (stats.nodes_explored - stats.subproblems) / 2;
                assert!(
                    (a + r).saturating_sub(copies) <= FIXED,
                    "{n_tasks} task(s), carried {carried}, seed {seed}: {a} allocations and {r} \
                     reallocations over {} nodes, more than {FIXED} beyond {copies} for tableau \
                     copies",
                    stats.nodes_explored
                );
            }
            let per_horizon = (allocs + reallocs) as f64 / SEEDS as f64;
            eprintln!(
                "{n_tasks} task(s), carried {carried}: {:.1} allocations + {:.1} reallocations \
                 per horizon ({branched}/{SEEDS} branched; before: {before})",
                allocs as f64 / SEEDS as f64,
                reallocs as f64 / SEEDS as f64,
            );
            assert!(
                per_horizon <= before / 2.0,
                "{n_tasks} task(s), carried {carried}: {per_horizon:.1} allocations and \
                 reallocations per horizon, over the budget of {}",
                before / 2.0
            );
        }
    }
    assert!(
        most_nodes >= 7,
        "no horizon branched deeply: {most_nodes} nodes at most"
    );
}
