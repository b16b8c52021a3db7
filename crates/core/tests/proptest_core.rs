//! Property-based tests on the core scheduling and clustering
//! invariants, on the `eagleeye-check` harness (replay with
//! `EAGLEEYE_CHECK_SEED`, scale with `EAGLEEYE_CHECK_CASES`): every
//! schedule any solver emits must satisfy the paper's constraints
//! C1–C3, and every clustering must cover every point. The
//! ILP-vs-greedy domination property doubles as a differential oracle
//! between the exact and heuristic schedulers and runs at a higher
//! case budget.

use eagleeye_check::{check_cases, f64_range, prop_assert, u64_range, vec_of, Gen};
use eagleeye_core::clustering::{cluster, Cluster, ClusteringMethod};
use eagleeye_core::pointing::GroundPoint;
use eagleeye_core::schedule::{
    AbbScheduler, FollowerState, GreedyScheduler, IlpScheduler, Scheduler, SchedulingProblem,
    TaskSpec,
};
use eagleeye_core::SensingSpec;
use std::time::Duration;

const CASES: u32 = 48;
/// The acceptance-critical ILP-vs-greedy oracle runs at a higher
/// budget.
const ORACLE_CASES: u32 = 128;

fn tasks_gen(max_n: usize) -> impl Gen<Value = Vec<TaskSpec>> {
    vec_of(
        (
            f64_range(-90_000.0, 90_000.0),
            f64_range(-20_000.0, 140_000.0),
            f64_range(0.1, 5.0),
        ),
        1,
        max_n,
    )
    .map(|v| {
        v.into_iter()
            .map(|(x, y, val)| TaskSpec::new(x, y, val))
            .collect()
    })
}

fn followers_gen() -> impl Gen<Value = Vec<FollowerState>> {
    vec_of(f64_range(-160_000.0, -80_000.0), 1, 4)
        .map(|v| v.into_iter().map(FollowerState::at_start).collect())
}

/// Every ILP schedule validates against C1/C2/C3 and dominates greedy.
/// This is the exact-vs-heuristic differential oracle of the
/// scheduling stack, so it runs on a larger instance pool.
#[test]
fn ilp_schedules_validate_and_dominate_greedy() {
    check_cases(
        ORACLE_CASES,
        "ilp_schedules_validate_and_dominate_greedy",
        (tasks_gen(10), followers_gen()),
        |(tasks, followers)| {
            let p = SchedulingProblem::new(
                SensingSpec::paper_default(),
                tasks.clone(),
                followers.clone(),
            )
            .expect("valid problem");
            let ilp = IlpScheduler::default().schedule(&p).expect("ilp");
            let greedy = GreedyScheduler.schedule(&p).expect("greedy");
            ilp.validate(&p).expect("ilp schedule feasible");
            greedy.validate(&p).expect("greedy schedule feasible");
            prop_assert!(
                ilp.total_value >= greedy.total_value - 1e-9,
                "ilp {} < greedy {}",
                ilp.total_value,
                greedy.total_value
            );
            Ok(())
        },
    );
}

/// AB&B schedules are always feasible, even under tiny deadlines.
#[test]
fn abb_schedules_validate() {
    check_cases(
        CASES,
        "abb_schedules_validate",
        (tasks_gen(8), u64_range(1, 200)),
        |(tasks, millis)| {
            let p = SchedulingProblem::new(
                SensingSpec::paper_default(),
                tasks.clone(),
                vec![FollowerState::at_start(-100_000.0)],
            )
            .expect("valid problem");
            let s = AbbScheduler::new(Duration::from_millis(*millis))
                .schedule(&p)
                .expect("abb");
            s.validate(&p).expect("abb schedule feasible");
            Ok(())
        },
    );
}

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

/// Clustering covers every point, assigns each exactly once, and the
/// ILP cover is never larger than the greedy one.
#[test]
fn clustering_covers_everything() {
    check_cases(
        CASES,
        "clustering_covers_everything",
        (
            vec_of(
                (f64_range(-50_000.0, 50_000.0), f64_range(0.0, 110_000.0)),
                1,
                60,
            ),
            f64_range(2_000.0, 20_000.0),
            f64_range(2_000.0, 20_000.0),
        ),
        |(coords, w, h)| {
            let (w, h) = (*w, *h);
            let points: Vec<(GroundPoint, f64)> = coords
                .iter()
                .map(|&(x, y)| (GroundPoint::new(x, y), 1.0))
                .collect();
            let ilp = cluster(&points, w, h, ClusteringMethod::Ilp).expect("ilp cover");
            let greedy = cluster(&points, w, h, ClusteringMethod::Greedy).expect("greedy cover");
            prop_assert!(covers_all(&points, &ilp, w, h));
            prop_assert!(covers_all(&points, &greedy, w, h));
            prop_assert!(
                ilp.len() <= greedy.len(),
                "ilp used {} boxes, greedy {}",
                ilp.len(),
                greedy.len()
            );

            // Exactly-once assignment.
            let mut count = vec![0usize; points.len()];
            for c in &ilp {
                for &m in &c.members {
                    count[m] += 1;
                }
            }
            prop_assert!(count.iter().all(|&k| k == 1));

            // Cluster values sum to the total point value.
            let total: f64 = ilp.iter().map(|c| c.value).sum();
            prop_assert!((total - points.len() as f64).abs() < 1e-6);
            Ok(())
        },
    );
}

/// The ILP returns a schedule that passes validation at any
/// `time_limit`, including budgets so short that it degrades to its
/// greedy augmentation.
#[test]
fn ilp_schedules_validate_under_any_budget() {
    check_cases(
        CASES,
        "ilp_schedules_validate_under_any_budget",
        (tasks_gen(10), followers_gen(), u64_range(0, 50)),
        |(tasks, followers, budget_ms)| {
            let p = SchedulingProblem::new(
                SensingSpec::paper_default(),
                tasks.clone(),
                followers.clone(),
            )
            .expect("valid problem");
            let ilp = IlpScheduler {
                time_limit: Duration::from_millis(*budget_ms),
                ..IlpScheduler::default()
            };
            let schedule = ilp.schedule(&p).expect("ilp");
            schedule
                .validate(&p)
                .expect("schedule feasible at any budget");
            Ok(())
        },
    );
}

/// Visibility windows always respect the off-nadir cone: sampling the
/// window interior never exceeds theta_max.
#[test]
fn windows_respect_theta_max() {
    check_cases(
        CASES,
        "windows_respect_theta_max",
        (
            f64_range(-95_000.0, 95_000.0),
            f64_range(-50_000.0, 200_000.0),
            f64_range(-200_000.0, -80_000.0),
        ),
        |&(x, y, start)| {
            let spec = SensingSpec::paper_default();
            let p = SchedulingProblem::new(
                spec,
                vec![TaskSpec::new(x, y, 1.0)],
                vec![FollowerState::at_start(start)],
            )
            .expect("valid problem");
            if let Some(w) = p.window(0, 0) {
                for k in 0..=10 {
                    let t = w.start_s + w.duration_s() * k as f64 / 10.0;
                    let sat = p.followers()[0].along_at(t, spec.ground_speed_m_s);
                    let angle = eagleeye_core::pointing::off_nadir_rad(
                        &GroundPoint::new(x, y),
                        sat,
                        spec.altitude_m,
                    );
                    prop_assert!(
                        angle <= spec.theta_max_rad + 1e-6,
                        "angle {} at t {} exceeds cone",
                        angle,
                        t
                    );
                }
            }
            Ok(())
        },
    );
}
