//! CLI for the workspace lint engine.
//!
//! ```text
//! eagleeye-lint [--root DIR] [--deny] [--format text|json]
//!               [--list-suppressions] [--baseline FILE]
//!               [--explain RULE]
//! ```
//!
//! * default: print diagnostics, exit 0 (advisory mode);
//! * `--deny`: exit 1 when any diagnostic survives (CI mode);
//! * `--format json`: machine-readable diagnostics;
//! * `--list-suppressions`: audit every inline suppression instead of
//!   printing diagnostics;
//! * `--baseline FILE`: with `--list-suppressions`, compare the
//!   suppression inventory against a checked-in allowlist and exit 1
//!   on any new or stale entry;
//! * `--explain RULE`: print the rule's rationale block and exit.

use eagleeye_lint::diag::{diagnostics_json, explain, json_escape, RULES};
use eagleeye_lint::engine::lint_workspace;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    root: PathBuf,
    deny: bool,
    json: bool,
    list_suppressions: bool,
    baseline: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: eagleeye-lint [--root DIR] [--deny] [--format text|json] \
         [--list-suppressions] [--baseline FILE] [--explain RULE]\n\nrules:"
    );
    for (id, summary) in RULES {
        eprintln!("  {id:<18} {summary}");
    }
    std::process::exit(2)
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        root: PathBuf::from("."),
        deny: false,
        json: false,
        list_suppressions: false,
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => cli.root = PathBuf::from(v),
                None => usage(),
            },
            "--deny" => cli.deny = true,
            "--format" => match args.next().as_deref() {
                Some("text") => cli.json = false,
                Some("json") => cli.json = true,
                _ => usage(),
            },
            "--list-suppressions" => cli.list_suppressions = true,
            "--explain" => match args.next() {
                Some(rule) => run_explain(&rule),
                None => usage(),
            },
            "--baseline" => match args.next() {
                Some(v) => cli.baseline = Some(PathBuf::from(v)),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    cli
}

/// Prints the rationale block for one rule (or the `suppression`
/// meta-rule) and exits; unknown rules list the known ids and exit 2.
fn run_explain(rule: &str) -> ! {
    match explain(rule) {
        Some(block) => {
            println!("{rule}\n{}\n\n{block}", "=".repeat(rule.len()));
            std::process::exit(0)
        }
        None => {
            eprintln!(
                "unknown rule `{rule}`; known rules: {}, suppression",
                RULES
                    .iter()
                    .map(|(id, _)| *id)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2)
        }
    }
}

/// `(file, rule) -> count` inventory of the given suppressions.
fn inventory(report: &eagleeye_lint::LintReport) -> BTreeMap<(String, String), usize> {
    let mut inv = BTreeMap::new();
    for (file, s) in &report.suppressions {
        for rule in &s.rules {
            *inv.entry((file.clone(), rule.clone())).or_insert(0) += 1;
        }
    }
    inv
}

/// Baseline file format: `<count> <rule> <path>` per line, `#`
/// comments and blank lines ignored.
fn parse_baseline(text: &str) -> Result<BTreeMap<(String, String), usize>, String> {
    let mut inv = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (count, rule, path) = match (parts.next(), parts.next(), parts.next()) {
            (Some(c), Some(r), Some(p)) => (c, r, p),
            _ => {
                return Err(format!(
                    "baseline line {}: expected `<count> <rule> <path>`",
                    lineno + 1
                ))
            }
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("baseline line {}: bad count `{count}`", lineno + 1))?;
        inv.insert((path.to_string(), rule.to_string()), count);
    }
    Ok(inv)
}

fn run_list_suppressions(cli: &Cli, report: &eagleeye_lint::LintReport) -> ExitCode {
    if cli.json {
        let mut out = String::from("{\n  \"suppressions\": [");
        for (i, (file, s)) in report.suppressions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rules\": [{}], \
                 \"used\": {}, \"justification\": \"{}\"}}",
                json_escape(file),
                s.line,
                s.rules
                    .iter()
                    .map(|r| format!("\"{}\"", json_escape(r)))
                    .collect::<Vec<_>>()
                    .join(", "),
                s.used,
                json_escape(&s.justification)
            ));
        }
        out.push_str("\n  ]\n}");
        println!("{out}");
    } else {
        for (file, s) in &report.suppressions {
            println!(
                "{}:{}: allow({}) [{}] {}",
                file,
                s.line,
                s.rules.join(", "),
                if s.used { "used" } else { "UNUSED" },
                s.justification
            );
        }
        eprintln!(
            "{} suppression(s) across {} file(s) scanned",
            report.suppressions.len(),
            report.files_scanned
        );
    }

    let Some(baseline_path) = &cli.baseline else {
        return ExitCode::SUCCESS;
    };
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: cannot read baseline {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let baseline = match parse_baseline(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let current = inventory(report);
    let mut drift = false;
    for ((file, rule), n) in &current {
        let allowed = baseline
            .get(&(file.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if *n > allowed {
            eprintln!(
                "NEW suppression(s): {n} x allow({rule}) in {file} but baseline allows {allowed} \
                 — justify and add to the allowlist, or fix the code"
            );
            drift = true;
        }
    }
    for ((file, rule), allowed) in &baseline {
        let n = current
            .get(&(file.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if n < *allowed {
            eprintln!(
                "STALE baseline entry: allowlist has {allowed} x {rule} in {file} but the \
                 source has {n} — prune the allowlist"
            );
            drift = true;
        }
    }
    if drift {
        ExitCode::FAILURE
    } else {
        eprintln!("suppressions match baseline {}", baseline_path.display());
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let cli = parse_args();
    let report = match lint_workspace(&cli.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot lint {}: {e}", cli.root.display());
            return ExitCode::from(2);
        }
    };

    if cli.list_suppressions {
        return run_list_suppressions(&cli, &report);
    }

    if cli.json {
        print!("{}", diagnostics_json(&report.diagnostics));
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        eprintln!(
            "{} diagnostic(s) across {} file(s) scanned",
            report.diagnostics.len(),
            report.files_scanned
        );
    }
    if cli.deny && !report.diagnostics.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
