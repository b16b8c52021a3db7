//! Fig. 1b — satellites required to reach a target coverage for each
//! workload, per configuration (Low-Res Only, High-Res Only, EagleEye).
//!
//! The paper uses 90 % coverage over 24 h. Because the default horizon
//! here is shorter, the threshold is set relative to the Low-Res ceiling
//! measured at the largest constellation (the achievable physical bound
//! within the horizon), preserving the figure's shape: EagleEye needs
//! a few times fewer satellites than High-Res Only (up to 4.3×), and a
//! High-Res Only constellation often cannot reach the bar at all.

use eagleeye_bench::{print_csv, BenchCli, SWEEP};
use eagleeye_core::coverage::{ConstellationConfig, CoverageEvaluator};
use eagleeye_datasets::Workload;

fn satellites_to_reach(
    eval: &CoverageEvaluator<'_>,
    make: impl Fn(usize) -> ConstellationConfig,
    threshold: f64,
    max_sats: usize,
) -> Option<usize> {
    let mut sats = 2;
    while sats <= max_sats {
        let cfg = make(sats);
        let r = eval.evaluate(&cfg).expect("coverage evaluation");
        eprintln!(
            "  {} -> {:.1}% (need {:.1}%)",
            cfg.label(),
            100.0 * r.coverage_fraction(),
            100.0 * threshold
        );
        if r.coverage_fraction() >= threshold {
            return Some(cfg.total_satellites());
        }
        sats = (sats as f64 * 1.6).ceil() as usize;
    }
    None
}

fn main() {
    let cli = BenchCli::parse(SWEEP);
    let max_sats = if cli.fast { 48 } else { 160 };
    let workloads: Vec<(Workload, _)> = Workload::ALL
        .into_iter()
        .map(|w| (w, cli.workload(w)))
        .collect();

    // Stage 1: each workload's physical ceiling within the horizon
    // (Low-Res at max size), mirroring the paper's 90% absolute bar at
    // 24 h — four independent evaluations.
    let ceilings = cli.par_sweep_observed(&workloads, |(workload, targets), metrics| {
        let ceiling = CoverageEvaluator::new(targets, cli.options(metrics))
            .evaluate(&ConstellationConfig::LowResOnly {
                satellites: max_sats,
            })
            .expect("coverage evaluation")
            .coverage_fraction();
        eprintln!("{}: ceiling {:.1}%", workload.label(), 100.0 * ceiling);
        ceiling
    });

    // Stage 2: the (workload, configuration family) searches. Each
    // search is adaptive (the next size depends on the last result) so
    // it stays sequential inside its cell; the twelve cells fan out.
    let grid: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|wi| (0..3).map(move |family| (wi, family)))
        .collect();
    let found = cli.par_sweep_observed(&grid, |&(wi, family), metrics| {
        let (_, ref targets) = workloads[wi];
        let eval = CoverageEvaluator::new(targets, cli.options(metrics));
        let threshold = 0.9 * ceilings[wi];
        let make: &dyn Fn(usize) -> ConstellationConfig = match family {
            0 => &|s| ConstellationConfig::LowResOnly { satellites: s },
            1 => &|s| ConstellationConfig::HighResOnly { satellites: s },
            _ => &|s| ConstellationConfig::eagleeye((s / 2).max(1), 1),
        };
        satellites_to_reach(&eval, make, threshold, max_sats)
    });

    let fmt = |o: Option<usize>| {
        o.map(|v| v.to_string())
            .unwrap_or_else(|| format!(">{max_sats}"))
    };
    let rows = workloads.iter().enumerate().map(|(wi, (workload, _))| {
        format!(
            "{},{},{},{}",
            workload.label(),
            fmt(found[wi * 3]),
            fmt(found[wi * 3 + 1]),
            fmt(found[wi * 3 + 2])
        )
    });
    print_csv("workload,low_res_only,high_res_only,eagleeye", rows);
    cli.finish("fig1b_constellation_size");
}
