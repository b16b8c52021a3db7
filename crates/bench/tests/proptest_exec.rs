//! Property suite for metric recording on the exec layer's workers:
//! both the fork/absorb discipline of `BenchCli::par_sweep_observed`
//! and concurrent recording through a shared handle under
//! `eagleeye_exec::run_items` lose no updates at any thread count.

use eagleeye_bench::BenchCli;
use eagleeye_check::{check_cases, prop_assert, prop_assert_eq};
use eagleeye_check::{u64_range, usize_range, vec_of};
use eagleeye_exec::{run_items, RunConfig};
use eagleeye_harden::Deadline;
use eagleeye_obs::Metrics;

#[test]
fn forked_recording_through_the_pool_loses_no_updates() {
    check_cases(
        48,
        "exec_forked_counts",
        (usize_range(1, 9), vec_of(u64_range(0, 200), 1, 33)),
        |(threads, increments)| {
            let cli = BenchCli {
                threads: *threads,
                metrics: Metrics::enabled(),
                ..BenchCli::default()
            };
            let indexed: Vec<(usize, u64)> = increments.iter().copied().enumerate().collect();
            let order = cli.par_sweep_observed(&indexed, |&(i, n), m| {
                for _ in 0..n {
                    m.incr("prop/hits");
                }
                m.observe("prop/n", n, &[4, 64]);
                i
            });
            prop_assert_eq!(order, (0..increments.len()).collect::<Vec<_>>());
            let snap = cli.metrics.snapshot();
            prop_assert_eq!(snap.counter("prop/hits"), increments.iter().sum::<u64>());
            let h = snap.histogram("prop/n");
            prop_assert!(h.is_some(), "histogram must survive absorb");
            let h = h.unwrap();
            prop_assert_eq!(h.count(), increments.len() as u64);
            prop_assert_eq!(h.sum(), u128::from(increments.iter().sum::<u64>()));
            Ok(())
        },
    );
}

#[test]
fn shared_handle_concurrent_increments_lose_no_updates() {
    check_cases(
        48,
        "exec_shared_counts",
        (usize_range(1, 9), vec_of(u64_range(0, 200), 1, 33)),
        |(threads, increments)| {
            let config = RunConfig {
                scenario_hash: 0,
                threads: *threads,
                checkpoint: None,
                deadline: Deadline::none(),
            };
            let metrics = Metrics::enabled();
            let outcome = run_items(
                &config,
                increments.len(),
                |i| {
                    for _ in 0..increments[i] {
                        metrics.incr("prop/shared");
                    }
                },
                |_| unreachable!("no checkpoint"),
                |_, _| unreachable!("nothing to resume"),
            );
            prop_assert_eq!(outcome.ok().map(|o| o.completed()), Some(increments.len()));
            prop_assert_eq!(
                metrics.snapshot().counter("prop/shared"),
                increments.iter().sum::<u64>()
            );
            Ok(())
        },
    );
}
