//! `eagleeye` — command-line front end for the EagleEye constellation
//! library.
//!
//! Subcommands:
//!
//! * `coverage` — run the coverage evaluator on a workload/configuration.
//! * `schedule` — schedule a synthetic frame and print the capture plan.
//! * `energy`   — per-orbit energy budget for a satellite role.
//! * `orbit`    — print the J2 ground track of the paper's orbit.
//! * `dataset`  — generate a workload and print summary statistics.
//!
//! Each subcommand reads the flags its table lists and no others
//! (`eagleeye_harden::cli`). Exit status: 0 on success, 1 when the run
//! fails, 2 on a usage error. Run `eagleeye help` for usage.

use eagleeye::core::coverage::{
    ConstellationConfig, CoverageEvaluator, CoverageOptions, HardenOptions,
};
use eagleeye::core::schedule::{
    FollowerState, GreedyScheduler, IlpScheduler, Scheduler, SchedulingProblem, TaskSpec,
};
use eagleeye::core::SensingSpec;
use eagleeye::datasets::Workload;

use eagleeye::geo::earth::MU_M3_S2;
use eagleeye::harden::{cli, Args, Flag, UsageError, RUN_LAYER, USAGE_STATUS};
use eagleeye::obs::Metrics;
use eagleeye::orbit::{GroundTrack, J2Propagator, KeplerianElements, OrbitError};
use eagleeye::sim::{simulate_orbit, ActivityProfile, PowerProfile};
use std::error::Error;
use std::io::{self, BufWriter, ErrorKind, Write};
use std::process::ExitCode;

/// What a subcommand returns: a [`UsageError`] exits 2, any other
/// error 1.
type Outcome = Result<(), Box<dyn Error>>;
type Run = fn(&Args) -> Outcome;

const COVERAGE: &[Flag] = &[
    Flag("workload", "W", "workload to generate (default ships)"),
    Flag("config", "C", "constellation (default eagleeye)"),
    Flag("sats", "N", "satellites (default 4)"),
    Flag(
        "followers",
        "K",
        "followers per group, eagleeye only (default 1)",
    ),
    Flag("compute", "SECS", "mix-camera compute time (default 1.4)"),
    Flag("hours", "H", "simulation horizon (default 2)"),
    Flag("scale", "F", "dataset scale in [1e-4, 1] (default 0.3)"),
    Flag("seed", "S", "RNG seed (default 7)"),
    Flag(
        "recall",
        "R",
        "detector recall, eagleeye and mix-camera only (default 1)",
    ),
    Flag("planes", "P", "orbital planes (default 1)"),
    Flag("threads", "T", "worker threads (default 1)"),
];
const SCHEDULE: &[Flag] = &[
    Flag("targets", "N", "targets in the frame (default 8)"),
    Flag("followers", "K", "followers (default 1)"),
    Flag("seed", "S", "frame seed (default 7)"),
    Flag("solver", "ilp|greedy", "scheduler (default ilp)"),
];
const ENERGY: &[Flag] = &[
    Flag("role", "R", "leader|follower|baseline|mix (default leader)"),
    Flag(
        "tile-factor",
        "F",
        "detector tiling factor, not for follower (default 1)",
    ),
];
const ORBIT: &[Flag] = &[
    Flag("hours", "H", "track length (default 0.5)"),
    Flag("step", "SECONDS", "sample step, at least 1 (default 120)"),
];
const DATASET: &[Flag] = &[
    Flag("workload", "W", "workload to generate (default ships)"),
    Flag("scale", "F", "dataset scale in [1e-4, 1] (default 0.1)"),
    Flag("seed", "S", "RNG seed (default 7)"),
];

/// Each subcommand with the tables of flags it reads.
const COMMANDS: &[(&str, &[&[Flag]], Run)] = &[
    ("coverage", &[COVERAGE, RUN_LAYER], cmd_coverage),
    ("schedule", &[SCHEDULE], cmd_schedule),
    ("energy", &[ENERGY], cmd_energy),
    ("orbit", &[ORBIT], cmd_orbit),
    ("dataset", &[DATASET], cmd_dataset),
];

/// The usage text, rendered from the subcommands' flag tables.
fn usage() -> String {
    let mut text =
        String::from("eagleeye — mixed-resolution leader-follower constellation toolkit\n");
    for (name, tables, _) in COMMANDS {
        text += &format!("\n  eagleeye {name}\n{}", cli::usage(&tables.concat()));
    }
    text + "\n  eagleeye help\n
WORKLOADS: ships | planes | lakes166k | lakes1m4
CONFIGS:   eagleeye | low-res | high-res | mix-camera
EXIT:      0 success, 1 the run failed, 2 usage error"
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is::<UsageError>() => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::from(USAGE_STATUS)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the subcommand `args` names with the flags that follow it.
fn run(mut args: impl Iterator<Item = String>) -> Outcome {
    let name = args.next().ok_or(UsageError("missing subcommand".into()))?;
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        Args::parse(args, &[])?;
        println!("{}", usage());
        return Ok(());
    }
    let Some((_, tables, command)) = COMMANDS.iter().find(|c| c.0 == name) else {
        return Err(UsageError(format!("unknown subcommand `{name}`")).into());
    };
    command(&Args::parse(args, &tables.concat())?)
}

fn get_workload(a: &Args) -> Result<Workload, UsageError> {
    match a.str("workload").unwrap_or("ships") {
        "ships" => Ok(Workload::ShipDetection),
        "planes" => Ok(Workload::AirplaneTracking),
        "lakes166k" => Ok(Workload::LakeMonitoring166K),
        "lakes1m4" => Ok(Workload::LakeMonitoring1M4),
        other => Err(UsageError(format!(
            "--workload: unknown workload `{other}`"
        ))),
    }
}

fn cmd_coverage(a: &Args) -> Outcome {
    let workload = get_workload(a)?;
    let sats = a.integer("sats")?.unwrap_or(4);
    let followers = a.integer("followers")?.unwrap_or(1);
    let compute_time_s = a.finite("compute")?.unwrap_or(1.4);
    let hours = a.non_negative("hours")?.unwrap_or(2.0);
    let scale = a.finite("scale")?.map_or(0.3, |s| s.clamp(1e-4, 1.0));
    let seed = a.integer("seed")?.unwrap_or(7);
    let recall = a.finite("recall")?.unwrap_or(1.0);
    let planes = a.integer("planes")?.unwrap_or(1);
    let threads = a.integer("threads")?.unwrap_or(1);
    let (checkpoint, deadline) = a.run_layer()?;

    let name = a.str("config").unwrap_or("eagleeye");
    let config = match name {
        "eagleeye" => {
            let groups = (sats / (followers + 1)).max(1);
            ConstellationConfig::eagleeye(groups, followers)
        }
        "low-res" => ConstellationConfig::LowResOnly { satellites: sats },
        "high-res" => ConstellationConfig::HighResOnly { satellites: sats },
        "mix-camera" => ConstellationConfig::MixCamera {
            satellites: sats,
            compute_time_s,
        },
        other => return Err(UsageError(format!("--config: unknown config `{other}`")).into()),
    };
    // A flag that only some constellations read is a usage error beside
    // any other, rather than a silent no-op.
    for (flag, readers) in [
        ("followers", &["eagleeye"][..]),
        ("compute", &["mix-camera"]),
        ("recall", &["eagleeye", "mix-camera"]),
    ] {
        if a.has(flag) && !readers.contains(&name) {
            return Err(UsageError(format!(
                "--{flag}: only --config {} reads it, not --config {name}",
                readers.join(" or --config ")
            ))
            .into());
        }
    }

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
    let harden = HardenOptions {
        checkpoint,
        deadline,
    };
    let out = eval.evaluate_hardened(&config, &harden)?;
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

fn cmd_schedule(a: &Args) -> Outcome {
    let n = a.integer("targets")?.unwrap_or(8);
    let followers: usize = a.integer("followers")?.unwrap_or(1);
    let seed: u64 = a.integer("seed")?.unwrap_or(7);

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
    let problem = SchedulingProblem::new(SensingSpec::paper_default(), tasks, fs)?;

    let schedule = match a.str("solver").unwrap_or("ilp") {
        "ilp" => IlpScheduler::default().schedule(&problem),
        "greedy" => GreedyScheduler.schedule(&problem),
        other => return Err(UsageError(format!("--solver: unknown solver `{other}`")).into()),
    }?;
    schedule.validate(&problem)?;

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

fn cmd_energy(a: &Args) -> Outcome {
    let tile_factor = a.finite("tile-factor")?.unwrap_or(1.0);
    let activity = match a.str("role").unwrap_or("leader") {
        "leader" => ActivityProfile::leader_default(tile_factor),
        "follower" if a.has("tile-factor") => {
            return Err(UsageError("--tile-factor: --role follower does not read it".into()).into())
        }
        "follower" => ActivityProfile::follower_default(400.0, 3.0),
        "baseline" => ActivityProfile::baseline_default(tile_factor),
        "mix" => ActivityProfile::mix_camera_default(tile_factor, 200.0, 3.0),
        other => return Err(UsageError(format!("--role: unknown role `{other}`")).into()),
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

fn cmd_orbit(a: &Args) -> Outcome {
    let hours = a.non_negative("hours")?.unwrap_or(0.5);
    let step = a.finite("step")?.unwrap_or(120.0).max(1.0);
    let track = GroundTrack::new(J2Propagator::new(paper_orbit()?));
    match print_track(&track, hours, step) {
        // The reader closed the pipe (`eagleeye orbit | head`): it has
        // all the rows it wants.
        Err(e) if e.downcast_ref().is_some_and(is_broken_pipe) => Ok(()),
        result => result,
    }
}

fn is_broken_pipe(e: &io::Error) -> bool {
    e.kind() == ErrorKind::BrokenPipe
}

/// The paper's orbit (§5): a 94-minute period at 97.2° inclination,
/// near circular, with the semi-major axis recovered from the mean
/// motion.
fn paper_orbit() -> Result<KeplerianElements, OrbitError> {
    let rev_per_day = 86_400.0 / (94.0 * 60.0);
    let n_rad_s = rev_per_day * std::f64::consts::TAU / 86_400.0;
    let a = (MU_M3_S2 / (n_rad_s * n_rad_s)).cbrt();
    KeplerianElements::new(a, 0.0001, 97.2_f64.to_radians(), 0.0, 0.0, 0.0)
}

/// Writes one CSV row per `step` seconds of the first `hours` of
/// `track` to stdout.
fn print_track(track: &GroundTrack, hours: f64, step: f64) -> Outcome {
    let mut out = BufWriter::new(io::stdout().lock());
    writeln!(out, "t_s,lat_deg,lon_deg,alt_km,sunlit (j2)")?;
    let mut t = 0.0;
    while t <= hours * 3600.0 {
        let s = track.state_at(t)?;
        let geo = track
            .eci_to_ecef(s.eci.position, t)
            .to_geodetic_spherical()?;
        writeln!(
            out,
            "{t:.0},{:.3},{:.3},{:.1},{}",
            geo.lat_deg(),
            geo.lon_deg(),
            geo.alt_m() / 1000.0,
            s.in_sunlight
        )?;
        t += step;
    }
    out.flush()?;
    Ok(())
}

fn cmd_dataset(a: &Args) -> Outcome {
    let workload = get_workload(a)?;
    let scale = a.finite("scale")?.map_or(0.1, |s| s.clamp(1e-4, 1.0));
    let seed = a.integer("seed")?.unwrap_or(7);
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
    use eagleeye::harden::Deadline;

    fn parse(command: &str, args: &[&str]) -> Result<Args, UsageError> {
        let (_, tables, _) = COMMANDS.iter().find(|c| c.0 == command).expect("command");
        Args::parse(args.iter().map(|s| s.to_string()), &tables.concat())
    }

    fn flags(command: &str, args: &[&str]) -> Args {
        parse(command, args).expect("valid flags")
    }

    /// Whether `eagleeye <args>` is a usage error (checked before any
    /// work starts).
    fn is_usage_error(args: &[&str]) -> bool {
        run(args.iter().map(|s| s.to_string())).is_err_and(|e| e.is::<UsageError>())
    }

    #[test]
    fn parses_key_value_flags() {
        let f = flags("coverage", &["--sats", "8", "--hours", "2.5"]);
        assert_eq!(f.integer::<usize>("sats").unwrap(), Some(8));
        assert_eq!(f.non_negative("hours").unwrap(), Some(2.5));
    }

    #[test]
    fn defaults_apply_when_missing() {
        for (name, ..) in COMMANDS {
            assert_eq!(flags(name, &[]), Args::default(), "{name}");
        }
        let (checkpoint, deadline) = flags("coverage", &[]).run_layer().unwrap();
        assert!(checkpoint.is_none());
        assert_eq!(deadline, Deadline::none());
        assert_eq!(
            get_workload(&Args::default()).unwrap(),
            Workload::ShipDetection
        );
    }

    #[test]
    fn boolean_resume_flag() {
        let f = flags("coverage", &["--resume", "--hours", "1"]);
        assert!(f.has("resume"));
        assert_eq!(f.non_negative("hours").unwrap(), Some(1.0));
    }

    /// Malformed command lines are usage errors naming the flag; each
    /// subcommand takes only the flags its table lists.
    #[test]
    fn rejects_bad_values_and_positional_args() {
        let f = flags("coverage", &["--sats", "many"]);
        assert!(f.integer::<usize>("sats").is_err());
        for (command, args, named) in [
            ("coverage", &["loose"][..], "`loose`"),
            ("coverage", &["--sats"], "--sats"),
            (
                "coverage",
                &["--checkpoint-cadence", "3"],
                "--checkpoint-cadence",
            ),
            ("dataset", &["--bogus", "3"], "--bogus"),
            ("dataset", &["--seed", "1", "--seed", "2"], "--seed"),
            ("coverage", &["--resume", "--resume"], "--resume"),
            ("schedule", &["--deadline", "5"], "--deadline"),
        ] {
            let err = parse(command, args).unwrap_err();
            assert!(err.0.starts_with(named), "{command} {args:?}: {err}");
        }
        // Horizons and scales that are not finite numbers (and negative
        // horizons) fail in the getter rather than print an empty track
        // or an all-zero run.
        for (command, args) in [
            ("orbit", &["--hours", "nan"][..]),
            ("orbit", &["--hours", "-1"]),
            ("coverage", &["--hours", "inf"]),
            ("coverage", &["--scale", "nan"]),
            ("dataset", &["--scale", "inf"]),
            ("energy", &["--tile-factor", "nan"]),
        ] {
            let mut argv = vec![command];
            argv.extend_from_slice(args);
            assert!(is_usage_error(&argv), "{argv:?}");
        }
        for argv in [
            &[][..],
            &["frobnicate"],
            &["help", "--all"],
            &["coverage", "--resume"],
            &["coverage", "--workload", "asteroids"],
            &["coverage", "--config", "mono"],
            &["schedule", "--solver", "dp"],
            &["energy", "--role", "pilot"],
        ] {
            assert!(is_usage_error(argv), "{argv:?}");
        }
    }

    /// A flag that only some modes read is a usage error naming it
    /// when the chosen mode ignores it, and is accepted where it is read.
    #[test]
    fn flags_the_chosen_mode_ignores_are_rejected() {
        for (argv, named) in [
            (
                &["coverage", "--config", "low-res", "--followers", "3"][..],
                "--followers",
            ),
            (
                &["coverage", "--config", "mix-camera", "--followers", "3"],
                "--followers",
            ),
            (
                &["coverage", "--config", "high-res", "--compute", "9"],
                "--compute",
            ),
            (&["coverage", "--compute", "9"], "--compute"),
            (
                &["coverage", "--config", "low-res", "--recall", "0.5"],
                "--recall",
            ),
            (
                &["coverage", "--config", "high-res", "--recall", "0.5"],
                "--recall",
            ),
            (
                &["energy", "--role", "follower", "--tile-factor", "4"],
                "--tile-factor",
            ),
        ] {
            let err = run(argv.iter().map(|s| s.to_string())).unwrap_err();
            let usage = err.downcast_ref::<UsageError>().expect("a usage error");
            assert!(usage.0.starts_with(named), "{argv:?}: {usage}");
        }
        for argv in [
            &["energy", "--role", "leader", "--tile-factor", "4"][..],
            &["energy", "--role", "follower"],
        ] {
            assert!(run(argv.iter().map(|s| s.to_string())).is_ok(), "{argv:?}");
        }
    }

    #[test]
    fn deadline_flag_never_panics() {
        let deadline = |args: &[&str]| flags("coverage", args).run_layer().map(|(_, d)| d);
        assert_eq!(deadline(&["--deadline", "0"]).unwrap(), Deadline::none());
        let budget = deadline(&["--deadline", "2.5"]).unwrap();
        assert!(budget != Deadline::none() && !budget.expired());
        for bad in ["inf", "NaN", "1e300"] {
            assert!(deadline(&["--deadline", bad]).is_err(), "{bad}");
        }
        // Representable as a duration but not as an instant: no deadline.
        assert_eq!(deadline(&["--deadline", "1e19"]).unwrap(), Deadline::none());
    }

    #[test]
    fn checkpoint_companions_need_a_checkpoint() {
        let checkpoint = |args: &[&str]| flags("coverage", args).run_layer().map(|(c, _)| c);
        assert!(checkpoint(&[]).unwrap().is_none());
        let spec = checkpoint(&["--checkpoint", "ck", "--resume", "--ckpt-cadence", "3"])
            .unwrap()
            .expect("checkpoint spec");
        assert!(spec.resume && spec.cadence == 3);
        for (args, flag) in [
            (&["--resume"][..], "--resume"),
            (&["--ckpt-cadence", "3"], "--ckpt-cadence"),
        ] {
            let err = checkpoint(args).unwrap_err();
            assert!(err.0.starts_with(flag), "{args:?}: {err}");
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
            let f = flags("dataset", &["--workload", name]);
            assert_eq!(get_workload(&f).unwrap(), want);
        }
        let f = flags("dataset", &["--workload", "asteroids"]);
        assert!(get_workload(&f).unwrap_err().0.starts_with("--workload: "));
    }

    /// The usage text is rendered from the tables, so every flag a
    /// subcommand reads is in it (`--compute` once was not).
    #[test]
    fn usage_lists_every_declared_flag() {
        let text = usage();
        for (name, tables, _) in COMMANDS {
            let section = text
                .split(&format!("  eagleeye {name}\n"))
                .nth(1)
                .and_then(|rest| rest.split("  eagleeye ").next())
                .expect("a section per subcommand");
            for Flag(flag, ..) in tables.concat() {
                assert!(section.contains(&format!("--{flag} ")), "{name}: --{flag}");
            }
        }
    }
}
