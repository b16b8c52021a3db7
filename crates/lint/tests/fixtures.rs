//! Golden-file fixture tests for the lint engine.
//!
//! Each `tests/fixtures/<name>.rs` file opens with a `//@ path:`
//! directive naming the virtual workspace path the engine should
//! classify it under (crate, role, test regions); the rendered
//! diagnostics must match `tests/fixtures/<name>.expected` line for
//! line. Regenerate goldens after an intentional rule change with
//!
//! ```text
//! EAGLEEYE_LINT_BLESS=1 cargo test -p eagleeye-lint --test fixtures
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use eagleeye_lint::{lint_source, lint_workspace};

/// Fixture stems with a `#[test]` below; `goldens_cover_every_fixture`
/// keeps this list honest against the directory contents.
const FIXTURES: &[&str] = &[
    "clock_exempt",
    "clock_sim",
    "determinism_core",
    "determinism_exempt",
    "float_eq",
    "lexer_tricky",
    "metric_namespace",
    "no_exit",
    "no_unwrap_bin",
    "no_unwrap_lib",
    "suppression_audit",
    "unsafe_hygiene",
];

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lints one fixture under its `//@ path:` directive and renders the
/// diagnostics as `line: [rule] message`, one per line.
fn render(name: &str) -> String {
    let path = fixtures_dir().join(format!("{name}.rs"));
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let virt = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//@ path:"))
        .unwrap_or_else(|| panic!("{name}.rs must start with a `//@ path:` directive"))
        .trim()
        .to_string();
    let lint = lint_source(&virt, &src);
    let mut out = String::new();
    for d in &lint.diagnostics {
        out.push_str(&format!("{}: [{}] {}\n", d.line, d.rule, d.message));
    }
    out
}

fn check(name: &str) {
    let got = render(name);
    let golden = fixtures_dir().join(format!("{name}.expected"));
    if std::env::var_os("EAGLEEYE_LINT_BLESS").is_some() {
        fs::write(&golden, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with EAGLEEYE_LINT_BLESS=1",
            golden.display()
        )
    });
    assert_eq!(
        got, want,
        "diagnostics for fixture `{name}` drifted from its golden; if the change is \
         intentional, regenerate with EAGLEEYE_LINT_BLESS=1 cargo test -p eagleeye-lint \
         --test fixtures"
    );
}

#[test]
fn no_unwrap_lib() {
    check("no_unwrap_lib");
}

#[test]
fn no_unwrap_bin() {
    check("no_unwrap_bin");
}

#[test]
fn determinism_core() {
    check("determinism_core");
}

#[test]
fn determinism_exempt() {
    check("determinism_exempt");
}

#[test]
fn clock_sim() {
    check("clock_sim");
}

#[test]
fn clock_exempt() {
    check("clock_exempt");
}

#[test]
fn float_eq() {
    check("float_eq");
}

#[test]
fn unsafe_hygiene() {
    check("unsafe_hygiene");
}

#[test]
fn metric_namespace() {
    check("metric_namespace");
}

#[test]
fn no_exit() {
    check("no_exit");
}

#[test]
fn lexer_tricky() {
    check("lexer_tricky");
}

#[test]
fn suppression_audit() {
    check("suppression_audit");
}

/// A fixture dropped into the directory without a matching `#[test]`
/// (or a stale entry in [`FIXTURES`]) fails here instead of silently
/// never running.
#[test]
fn goldens_cover_every_fixture() {
    let mut found: Vec<String> = fs::read_dir(fixtures_dir())
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect();
    found.sort();
    let found: Vec<&str> = found.iter().map(String::as_str).collect();
    assert_eq!(
        found, FIXTURES,
        "FIXTURES list out of sync with tests/fixtures/*.rs"
    );
}

/// The crate-level half of `unsafe-hygiene` needs a whole workspace:
/// `alpha` (unsafe-free, no forbid) must be flagged at lib.rs:1, while
/// `beta` (has the attribute) and `gamma` (contains justified unsafe)
/// must not.
#[test]
fn workspace_pass_requires_forbid_unsafe() {
    let report = lint_workspace(&fixtures_dir().join("ws_forbid")).unwrap();
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(report.files_scanned, 3);
    assert_eq!(
        rendered.len(),
        1,
        "expected exactly one diagnostic: {rendered:#?}"
    );
    assert!(rendered[0].starts_with("crates/alpha/src/lib.rs:1: [unsafe-hygiene]"));
    assert!(rendered[0].contains("crate `alpha`"));
}
