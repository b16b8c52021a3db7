//! The one command-line parser every binary in the workspace shares.
//!
//! A binary (or an `eagleeye` subcommand) declares the flags it reads
//! as a table of [`Flag`]s. [`Args::parse`] accepts exactly those and
//! rejects a positional argument, an unknown or repeated flag, or a
//! missing value with a [`UsageError`] naming the argument; the typed
//! getters reject malformed and non-finite numbers the same way, and
//! [`usage`] renders the same table. Every binary exits 0 on success, 1
//! when the run fails and [`USAGE_STATUS`] on a usage error.

use crate::snapshot::CheckpointSpec;
use crate::watchdog::{budget_from_secs, Deadline};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Exit status of a binary given a command line it cannot run.
pub const USAGE_STATUS: u8 = 2;

/// One `--flag` a command reads: its name without `--`, the placeholder
/// of its value (`""` for a switch, which takes none) and one line of
/// help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag(pub &'static str, pub &'static str, pub &'static str);

/// The crash-safe run layer's flags (DESIGN.md §12), read by
/// [`Args::run_layer`]. A command honours them exactly when its table
/// lists them.
pub const RUN_LAYER: &[Flag] = &[
    Flag("checkpoint", "PATH", "file to checkpoint the run to"),
    Flag("resume", "", "restore finished work from --checkpoint"),
    Flag("ckpt-cadence", "N", "checkpoint every N items (default 1)"),
    Flag("deadline", "SECS", "budget in seconds (0 or less: none)"),
];

/// A command line the command cannot run; the message names the
/// offending argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// The flags given on one command line, each with its value (`None`
/// for a switch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args(BTreeMap<&'static str, Option<String>>);

impl Args {
    /// Reads `args` (without the program name) against `table`.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        table: &[Flag],
    ) -> Result<Args, UsageError> {
        let mut given = BTreeMap::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(UsageError(format!("`{arg}`: expected a --flag")));
            };
            let Some(&Flag(name, placeholder, _)) = table.iter().find(|f| f.0 == name) else {
                return Err(UsageError(format!("{arg}: not a flag of this command")));
            };
            let value =
                match placeholder {
                    "" => None,
                    _ => Some(args.next().ok_or_else(|| {
                        UsageError(format!("{arg} needs a value ({placeholder})"))
                    })?),
                };
            if given.insert(name, value).is_some() {
                return Err(UsageError(format!("{arg}: given more than once")));
            }
        }
        Ok(Args(given))
    }

    /// Whether `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The value of `--name`, if given.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.0.get(name).and_then(|v| v.as_deref())
    }

    /// The value of `--name` parsed as `T` and passing `valid`; `what`
    /// names the expected kind of value in the error.
    fn parsed<T: FromStr>(
        &self,
        name: &str,
        what: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, UsageError> {
        self.str(name)
            .map(|v| match v.parse() {
                Ok(x) if valid(&x) => Ok(x),
                _ => Err(UsageError(format!("--{name}: `{v}` is not {what}"))),
            })
            .transpose()
    }

    /// The value of `--name` as a whole number (a count, a seed).
    pub fn integer<T: FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        self.parsed(name, "a whole number", |_| true)
    }

    /// The value of `--name` as a finite number.
    pub fn finite(&self, name: &str) -> Result<Option<f64>, UsageError> {
        self.parsed(name, "a finite number", |x: &f64| x.is_finite())
    }

    /// The value of `--name` as a finite number of at least 0 (a
    /// horizon).
    pub fn non_negative(&self, name: &str) -> Result<Option<f64>, UsageError> {
        let valid = |x: &f64| x.is_finite() && *x >= 0.0;
        self.parsed(name, "a finite number of at least 0", valid)
    }

    /// The run-layer flags: the checkpoint to write, if any, and the
    /// run's budget. `--resume` and `--ckpt-cadence` need
    /// `--checkpoint`, the cadence defaults to 1, and `--deadline`
    /// follows [`budget_from_secs`]: 0 or less means no budget.
    pub fn run_layer(&self) -> Result<(Option<CheckpointSpec>, Deadline), UsageError> {
        let cadence = self.integer("ckpt-cadence")?;
        let checkpoint = match self.str("checkpoint") {
            Some(path) => Some(CheckpointSpec {
                path: path.into(),
                resume: self.has("resume"),
                cadence: cadence.unwrap_or(1),
            }),
            None => match ["resume", "ckpt-cadence"].into_iter().find(|f| self.has(f)) {
                Some(flag) => return Err(UsageError(format!("--{flag} needs --checkpoint"))),
                None => None,
            },
        };
        let secs = self.parsed("deadline", "a number of seconds", |_| true)?;
        let budget = budget_from_secs(secs.unwrap_or(0.0))
            .map_err(|e| UsageError(format!("--deadline: {e}")))?;
        Ok((checkpoint, budget.map_or(Deadline::none(), Deadline::after)))
    }
}

/// `table` as help text: one indented line per flag.
pub fn usage(table: &[Flag]) -> String {
    let line = |&Flag(name, placeholder, help): &Flag| {
        format!("    {:<22} {help}\n", format!("--{name} {placeholder}"))
    };
    table.iter().map(line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        Flag("fast", "", "shorter run"),
        Flag("hours", "H", "horizon"),
        Flag("seed", "N", "seed"),
    ];

    fn parse(args: &[&str], table: &[Flag]) -> Result<Args, UsageError> {
        Args::parse(args.iter().map(|a| a.to_string()), table)
    }

    fn run_layer(args: &[&str]) -> Result<(Option<CheckpointSpec>, Deadline), UsageError> {
        parse(args, RUN_LAYER)?.run_layer()
    }

    #[test]
    fn reads_switches_and_values() {
        let a = parse(&["--hours", "2.5", "--fast"], TABLE).unwrap();
        assert!(a.has("fast") && !a.has("seed"));
        assert_eq!(a.finite("hours").unwrap(), Some(2.5));
        assert_eq!(a.integer::<u64>("seed").unwrap(), None);
        assert_eq!(parse(&[], TABLE).unwrap(), Args::default());
    }

    /// Every rejection names the argument it rejects.
    #[test]
    fn malformed_command_lines_name_the_argument() {
        for (args, named) in [
            (&["loose"][..], "`loose`"),
            (&["--bogus", "3"], "--bogus: not a flag"),
            (
                &["--checkpoint-cadence", "3"],
                "--checkpoint-cadence: not a flag",
            ),
            (&["--seed"], "--seed needs a value"),
            (&["--fast", "--fast"], "--fast: given more than once"),
            (
                &["--seed", "1", "--seed", "1"],
                "--seed: given more than once",
            ),
        ] {
            let err = parse(args, TABLE).unwrap_err();
            assert!(err.0.starts_with(named), "{args:?}: {err}");
        }
        assert!(parse(&["--fast"], &[]).is_err());
    }

    /// The satellites of the horizon and scale getters: NaN, infinities
    /// and (for a horizon) negative values are usage errors.
    #[test]
    fn numeric_getters_reject_malformed_and_non_finite_values() {
        let get = |v: &str| parse(&["--hours", v], TABLE).unwrap();
        for bad in ["nan", "NaN", "inf", "-inf", "1e999", "two"] {
            assert!(get(bad).finite("hours").is_err(), "{bad}");
            assert!(get(bad).non_negative("hours").is_err(), "{bad}");
        }
        assert_eq!(get("-1").finite("hours").unwrap(), Some(-1.0));
        let err = get("-1").non_negative("hours").unwrap_err();
        assert!(err.0.starts_with("--hours: "), "{err}");
        assert_eq!(get("0").non_negative("hours").unwrap(), Some(0.0));
        for bad in ["-1", "1.5", "x"] {
            let a = parse(&["--seed", bad], TABLE).unwrap();
            assert!(a.integer::<u64>("seed").is_err(), "{bad}");
        }
    }

    #[test]
    fn run_layer_flags_follow_one_rule() {
        let (ckpt, deadline) = run_layer(&[]).unwrap();
        assert!(ckpt.is_none());
        assert_eq!(deadline, Deadline::none());
        let (ckpt, _) = run_layer(&["--checkpoint", "x.ckpt"]).unwrap();
        let ckpt = ckpt.expect("checkpoint spec");
        assert!(!ckpt.resume && ckpt.cadence == 1);
        let (ckpt, _) =
            run_layer(&["--checkpoint", "x.ckpt", "--resume", "--ckpt-cadence", "4"]).unwrap();
        let ckpt = ckpt.expect("checkpoint spec");
        assert!(ckpt.resume && ckpt.cadence == 4);
        for (args, named) in [
            (&["--resume"][..], "--resume needs --checkpoint"),
            (
                &["--ckpt-cadence", "2"],
                "--ckpt-cadence needs --checkpoint",
            ),
            (
                &["--checkpoint", "x", "--ckpt-cadence", "1.5"],
                "--ckpt-cadence: ",
            ),
        ] {
            let err = run_layer(args).unwrap_err();
            assert!(err.0.starts_with(named), "{args:?}: {err}");
        }
        for none in ["0", "-0", "-1.5", "-inf"] {
            let (_, deadline) = run_layer(&["--deadline", none]).unwrap();
            assert_eq!(deadline, Deadline::none(), "{none}");
        }
        let (_, deadline) = run_layer(&["--deadline", "2.5"]).unwrap();
        assert!(deadline != Deadline::none() && !deadline.expired());
        for bad in ["NaN", "inf", "1e300", "soon"] {
            let err = run_layer(&["--deadline", bad]).unwrap_err();
            assert!(err.0.starts_with("--deadline: "), "{bad}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_flag() {
        let text = usage(RUN_LAYER);
        for Flag(name, ..) in RUN_LAYER {
            assert!(text.contains(&format!("--{name} ")), "{name}");
        }
        assert!(text.contains("--checkpoint PATH"));
    }
}
