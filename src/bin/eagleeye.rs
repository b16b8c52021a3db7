//! `eagleeye` — command-line front end for the EagleEye constellation
//! library.
//!
//! Subcommands:
//!
//! * `coverage` — run the coverage evaluator on a workload/configuration.
//! * `schedule` — schedule a synthetic frame and print the capture plan.
//! * `energy`   — per-orbit energy budget for a satellite role.
//! * `orbit`    — print a ground track from the paper's orbit (or a TLE).
//! * `dataset`  — generate a workload and print summary statistics.
//!
//! Run `eagleeye help` for usage.

use eagleeye::core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, HardenOptions,
};
use eagleeye::core::schedule::{
    FollowerState, GreedyScheduler, IlpScheduler, Scheduler, SchedulingProblem, TaskSpec,
};
use eagleeye::core::SensingSpec;
use eagleeye::datasets::Workload;
use eagleeye::harden::{budget_from_secs, CheckpointSpec, Deadline};
use eagleeye::obs::Metrics;
use eagleeye::orbit::{GroundTrack, J2Propagator, Sgp4Propagator, Tle};
use eagleeye::sim::{simulate_orbit, ActivityProfile, PowerProfile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
eagleeye — mixed-resolution leader-follower constellation toolkit

USAGE:
  eagleeye coverage [--workload W] [--config C] [--sats N] [--followers K]
                    [--hours H] [--scale F] [--seed S] [--recall R] [--planes P]
                    [--threads T] [--checkpoint PATH [--resume] [--ckpt-cadence N]]
                    [--deadline SECONDS (0 or less: no budget)]
  eagleeye schedule [--targets N] [--followers K] [--seed S] [--solver ilp|greedy]
  eagleeye energy   [--role leader|follower|baseline|mix] [--tile-factor F]
  eagleeye orbit    [--hours H] [--step SECONDS] [--sgp4]
  eagleeye dataset  [--workload W] [--scale F] [--seed S]
  eagleeye help

WORKLOADS: ships | planes | lakes166k | lakes1m4
CONFIGS:   eagleeye | low-res | high-res | mix-camera";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "coverage" => cmd_coverage(&opts),
        "schedule" => cmd_schedule(&opts),
        "energy" => cmd_energy(&opts),
        "orbit" => cmd_orbit(&opts),
        "dataset" => cmd_dataset(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

type Flags = BTreeMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{a}`"));
        };
        match key {
            // Boolean flags.
            "sgp4" | "resume" => {
                map.insert(key.to_string(), "true".to_string());
            }
            _ => {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                map.insert(key.to_string(), v.clone());
            }
        }
    }
    Ok(map)
}

fn get_f64(o: &Flags, key: &str, default: f64) -> Result<f64, String> {
    match o.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: `{v}` is not a number")),
        None => Ok(default),
    }
}

fn get_usize(o: &Flags, key: &str, default: usize) -> Result<usize, String> {
    match o.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: `{v}` is not an integer")),
        None => Ok(default),
    }
}

/// `--deadline SECONDS` as a wall-clock budget: `None` when absent or
/// not positive, an error when it is not a representable duration
/// ([`budget_from_secs`], the rule the figure binaries share).
fn get_deadline(o: &Flags) -> Result<Option<Duration>, String> {
    budget_from_secs(get_f64(o, "deadline", 0.0)?).map_err(|e| format!("--deadline: {e}"))
}

/// `--checkpoint PATH` with its `--resume` and `--ckpt-cadence N`;
/// either of those without `--checkpoint` is an error, not a no-op.
fn get_checkpoint(o: &Flags) -> Result<Option<CheckpointSpec>, String> {
    let Some(path) = o.get("checkpoint") else {
        return match ["resume", "ckpt-cadence"]
            .into_iter()
            .find(|f| o.contains_key(*f))
        {
            Some(flag) => Err(format!("--{flag} needs --checkpoint")),
            None => Ok(None),
        };
    };
    let mut spec = CheckpointSpec::new(path, get_usize(o, "ckpt-cadence", 1)?);
    spec.resume = o.contains_key("resume");
    Ok(Some(spec))
}

fn get_workload(o: &Flags) -> Result<Workload, String> {
    match o.get("workload").map(String::as_str).unwrap_or("ships") {
        "ships" => Ok(Workload::ShipDetection),
        "planes" => Ok(Workload::AirplaneTracking),
        "lakes166k" => Ok(Workload::LakeMonitoring166K),
        "lakes1m4" => Ok(Workload::LakeMonitoring1M4),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn cmd_coverage(o: &Flags) -> Result<(), String> {
    let workload = get_workload(o)?;
    let sats = get_usize(o, "sats", 4)?;
    let followers = get_usize(o, "followers", 1)?;
    let hours = get_f64(o, "hours", 2.0)?;
    let scale = get_f64(o, "scale", 0.3)?.clamp(1e-4, 1.0);
    let seed = get_usize(o, "seed", 7)? as u64;
    let recall = get_f64(o, "recall", 1.0)?;
    let planes = get_usize(o, "planes", 1)?;
    let threads = get_usize(o, "threads", 1)?;
    let deadline = get_deadline(o)?;
    let checkpoint = get_checkpoint(o)?;

    let config = match o.get("config").map(String::as_str).unwrap_or("eagleeye") {
        "eagleeye" => {
            let groups = (sats / (followers + 1)).max(1);
            ConstellationConfig::eagleeye(groups, followers)
        }
        "low-res" => ConstellationConfig::LowResOnly { satellites: sats },
        "high-res" => ConstellationConfig::HighResOnly { satellites: sats },
        "mix-camera" => ConstellationConfig::MixCamera {
            satellites: sats,
            compute_time_s: get_f64(o, "compute", 1.4)?,
        },
        other => return Err(format!("unknown config `{other}`")),
    };

    let targets = workload.generate_scaled(scale, hours * 3600.0, seed);
    let metrics = Metrics::from_env();
    let options = CoverageOptions {
        duration_s: hours * 3600.0,
        seed,
        recall,
        orbital_planes: planes,
        threads,
        metrics: metrics.clone(),
        ..CoverageOptions::default()
    };
    let eval = CoverageEvaluator::new(&targets, options);

    // --checkpoint / --deadline configure the crash-safe run layer
    // (DESIGN.md §12); without them its options are inert.
    let mut harden = HardenOptions {
        checkpoint,
        ..HardenOptions::new()
    };
    if let Some(budget) = deadline {
        harden.deadline = Deadline::after(budget);
    }
    let out = eval
        .evaluate_hardened(&config, &harden)
        .map_err(|e| e.to_string())?;
    if out.resumed_passes > 0 {
        eprintln!(
            "resumed {} of {} leader passes from checkpoint",
            out.resumed_passes, out.report.leader_passes_total
        );
    }
    let report = out.report;
    if let Err(e) = eagleeye::obs::export::write_run("eagleeye", &metrics) {
        eprintln!("warning: failed to write metrics: {e}");
    }
    println!(
        "workload:  {} ({} targets at scale {scale})",
        workload.label(),
        targets.len()
    );
    println!(
        "config:    {} ({} satellites)",
        config.label(),
        config.total_satellites()
    );
    println!("horizon:   {hours} h");
    println!(
        "coverage:  {:.2}% of targets ({} of {}); value-weighted {:.2}%",
        100.0 * report.coverage_fraction(),
        report.captured,
        report.total,
        100.0 * report.value_fraction()
    );
    println!(
        "captures:  {} commanded across {} scheduler calls (mean {:.2} ms)",
        report.captures_commanded,
        report.scheduler_calls,
        report.mean_scheduler_latency().as_secs_f64() * 1e3
    );
    if report.degraded {
        println!(
            "degraded:  stopped early with {:.0}% of leader passes merged ({} of {})",
            100.0 * report.completion_fraction(),
            report.leader_passes_completed,
            report.leader_passes_total
        );
    }
    // A fully deterministic one-line digest (no wall-clock fields) so
    // cross-process runs can be compared bit-for-bit.
    println!(
        "digest:    captured={} total={} value_bits={:016x} frames={} commanded={} \
         sched_calls={} ilp_nodes={} degraded={} passes={}/{}",
        report.captured,
        report.total,
        report.captured_value.to_bits(),
        report.frames_processed,
        report.captures_commanded,
        report.scheduler_calls,
        report.ilp_nodes_explored,
        report.degraded,
        report.leader_passes_completed,
        report.leader_passes_total
    );
    Ok(())
}

fn cmd_schedule(o: &Flags) -> Result<(), String> {
    let n = get_usize(o, "targets", 8)?;
    let followers = get_usize(o, "followers", 1)?;
    let seed = get_usize(o, "seed", 7)? as u64;

    let tasks: Vec<TaskSpec> = (0..n)
        .map(|i| {
            let r = (seed.wrapping_mul(2654435761).wrapping_add(i as u64 * 40503)) % 10_000;
            TaskSpec::new(
                (r % 170) as f64 * 1_000.0 - 85_000.0,
                ((r / 170) % 110) as f64 * 1_000.0,
                0.5 + (r % 50) as f64 / 100.0,
            )
        })
        .collect();
    let fs: Vec<FollowerState> = (0..followers.max(1))
        .map(|k| FollowerState::at_start(-100_000.0 - 20_000.0 * k as f64))
        .collect();
    let problem = SchedulingProblem::new(SensingSpec::paper_default(), tasks, fs)
        .map_err(|e| e.to_string())?;

    let schedule = match o.get("solver").map(String::as_str).unwrap_or("ilp") {
        "ilp" => IlpScheduler::default().schedule(&problem),
        "greedy" => GreedyScheduler.schedule(&problem),
        other => return Err(format!("unknown solver `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    schedule.validate(&problem).map_err(|e| e.to_string())?;

    println!(
        "{} of {} targets captured (value {:.2})",
        schedule.captured_count(),
        n,
        schedule.total_value
    );
    for (f, seq) in schedule.sequences.iter().enumerate() {
        for cap in seq {
            let t = &problem.tasks()[cap.task];
            println!(
                "  follower {f}: t={:+8.2}s  target {:>3} at ({:+9.0}, {:+9.0}) m  value {:.2}",
                cap.time_s, cap.task, t.point.cross_m, t.point.along_m, t.value
            );
        }
    }
    Ok(())
}

fn cmd_energy(o: &Flags) -> Result<(), String> {
    let tile_factor = get_f64(o, "tile-factor", 1.0)?;
    let activity = match o.get("role").map(String::as_str).unwrap_or("leader") {
        "leader" => ActivityProfile::leader_default(tile_factor),
        "follower" => ActivityProfile::follower_default(400.0, 3.0),
        "baseline" => ActivityProfile::baseline_default(tile_factor),
        "mix" => ActivityProfile::mix_camera_default(tile_factor, 200.0, 3.0),
        other => return Err(format!("unknown role `{other}`")),
    };
    let r = simulate_orbit(&PowerProfile::cubesat_3u(), &activity, 0.62, 5_640.0);
    let s = r.subsystems;
    println!("harvested: {:>8.0} J/orbit", r.harvested_j);
    println!("camera:    {:>8.0} J", s.camera_j);
    println!("adacs:     {:>8.0} J", s.adacs_j);
    println!("compute:   {:>8.0} J", s.compute_j);
    println!("tx:        {:>8.0} J", s.tx_j);
    println!("idle:      {:>8.0} J", s.idle_j);
    println!(
        "total:     {:>8.0} J ({:.1}% of harvest) -> {}",
        s.total_j(),
        100.0 * r.normalized_consumption(),
        if r.is_energy_feasible() {
            "FEASIBLE"
        } else {
            "INFEASIBLE"
        }
    );
    Ok(())
}

fn cmd_orbit(o: &Flags) -> Result<(), String> {
    let hours = get_f64(o, "hours", 0.5)?;
    let step = get_f64(o, "step", 120.0)?.max(1.0);
    let tle = Tle::paper_orbit();
    let use_sgp4 = o.contains_key("sgp4");
    let track = GroundTrack::new(J2Propagator::from_tle(&tle).map_err(|e| e.to_string())?);
    let sgp4 = Sgp4Propagator::new(&tle).map_err(|e| e.to_string())?;

    println!(
        "t_s,lat_deg,lon_deg,alt_km,sunlit ({})",
        if use_sgp4 { "sgp4" } else { "j2" }
    );
    let mut t = 0.0;
    while t <= hours * 3600.0 {
        let (pos, lit) = if use_sgp4 {
            let s = sgp4.state_at(t).map_err(|e| e.to_string())?;
            (s.position, track.is_sunlit(s.position))
        } else {
            let s = track.state_at(t).map_err(|e| e.to_string())?;
            (s.eci.position, s.in_sunlight)
        };
        let geo = track
            .eci_to_ecef(pos, t)
            .to_geodetic_spherical()
            .map_err(|e| e.to_string())?;
        println!(
            "{t:.0},{:.3},{:.3},{:.1},{}",
            geo.lat_deg(),
            geo.lon_deg(),
            geo.alt_m() / 1000.0,
            lit
        );
        t += step;
    }
    Ok(())
}

fn cmd_dataset(o: &Flags) -> Result<(), String> {
    let workload = get_workload(o)?;
    let scale = get_f64(o, "scale", 0.1)?.clamp(1e-4, 1.0);
    let seed = get_usize(o, "seed", 7)? as u64;
    let set = workload.generate_scaled(scale, 86_400.0, seed);
    println!("workload: {}", workload.label());
    println!(
        "targets:  {} (scale {scale} of {})",
        set.len(),
        workload.paper_count()
    );
    println!("value:    {:.0} total priority", set.total_value());
    println!("moving:   max speed {:.0} m/s", set.max_speed_m_s());
    let north = set.iter().filter(|t| t.position.lat_deg() > 50.0).count();
    println!(
        "boreal:   {:.1}% above 50N",
        100.0 * north as f64 / set.len().max(1) as f64
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("valid flags")
    }

    #[test]
    fn parses_key_value_flags() {
        let f = flags(&["--sats", "8", "--hours", "2.5"]);
        assert_eq!(get_usize(&f, "sats", 0).unwrap(), 8);
        assert!((get_f64(&f, "hours", 0.0).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn defaults_apply_when_missing() {
        let f = flags(&[]);
        assert_eq!(get_usize(&f, "sats", 4).unwrap(), 4);
        assert_eq!(get_f64(&f, "scale", 0.3).unwrap(), 0.3);
    }

    #[test]
    fn boolean_sgp4_flag() {
        let f = flags(&["--sgp4"]);
        assert!(f.contains_key("sgp4"));
    }

    #[test]
    fn rejects_bad_values_and_positional_args() {
        let f = flags(&["--sats", "many"]);
        assert!(get_usize(&f, "sats", 0).is_err());
        let args: Vec<String> = vec!["loose".into()];
        assert!(parse_flags(&args).is_err());
        let args: Vec<String> = vec!["--sats".into()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn deadline_flag_never_panics() {
        assert_eq!(get_deadline(&flags(&[])).unwrap(), None);
        assert_eq!(get_deadline(&flags(&["--deadline", "0"])).unwrap(), None);
        assert_eq!(
            get_deadline(&flags(&["--deadline", "2.5"])).unwrap(),
            Some(Duration::from_millis(2_500))
        );
        for bad in ["inf", "NaN", "1e300"] {
            assert!(get_deadline(&flags(&["--deadline", bad])).is_err(), "{bad}");
        }
        // Representable as a duration but not as an instant: no deadline.
        let budget = get_deadline(&flags(&["--deadline", "1e19"])).unwrap();
        assert!(Deadline::after(budget.expect("positive budget"))
            .instant()
            .is_none());
    }

    #[test]
    fn checkpoint_companions_need_a_checkpoint() {
        assert!(get_checkpoint(&flags(&[])).unwrap().is_none());
        let spec = get_checkpoint(&flags(&[
            "--checkpoint",
            "ck",
            "--resume",
            "--ckpt-cadence",
            "3",
        ]))
        .unwrap()
        .expect("checkpoint spec");
        assert!(spec.resume && spec.cadence == 3);
        for (args, flag) in [
            (&["--resume"][..], "--resume"),
            (&["--ckpt-cadence", "3"], "--ckpt-cadence"),
        ] {
            let err = get_checkpoint(&flags(args)).unwrap_err();
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn workload_names_resolve() {
        for (name, want) in [
            ("ships", Workload::ShipDetection),
            ("planes", Workload::AirplaneTracking),
            ("lakes166k", Workload::LakeMonitoring166K),
            ("lakes1m4", Workload::LakeMonitoring1M4),
        ] {
            let f = flags(&["--workload", name]);
            assert_eq!(get_workload(&f).unwrap(), want);
        }
        let f = flags(&["--workload", "asteroids"]);
        assert!(get_workload(&f).is_err());
    }
}
