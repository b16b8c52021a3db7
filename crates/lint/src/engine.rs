//! File classification, test-region detection, per-file rule driving,
//! and the workspace walk (including the crate-level
//! `#![forbid(unsafe_code)]` pass).

use crate::diag::{self, Diagnostic};
use crate::lexer::{self, TokKind, Token};
use crate::rules;
use crate::suppress::{self, Suppression};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// What kind of compilation target a file belongs to. Rules scope
/// themselves by role (e.g. `no-unwrap` only fires in `Lib`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library code under `src/` (the default).
    Lib,
    /// Binary targets: `src/bin/**`, `src/main.rs`, `build.rs`.
    Bin,
    /// Integration tests under `tests/`.
    Test,
    /// Bench targets under `benches/`.
    Bench,
    /// Examples under `examples/`.
    Example,
}

/// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` /
/// `#[bench]` items.
#[derive(Debug, Default, Clone)]
pub struct LineSet(Vec<(u32, u32)>);

impl LineSet {
    pub fn contains(&self, line: u32) -> bool {
        self.0.iter().any(|&(a, b)| a <= line && line <= b)
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Everything a rule needs to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Short crate name: `core`, `obs`, …, or `eagleeye` for the root
    /// package.
    pub crate_name: &'a str,
    pub role: FileRole,
    /// Full token stream, comments included.
    pub tokens: &'a [Token],
    /// Indices into `tokens` of the non-comment tokens.
    pub sig: &'a [usize],
    /// Lines inside test-gated regions.
    pub test_lines: &'a LineSet,
}

impl FileCtx<'_> {
    /// Significant token at `sig` position `i`.
    pub fn s(&self, i: usize) -> &Token {
        &self.tokens[self.sig[i]]
    }

    /// True when the significant token at `i` is an identifier with
    /// exactly this text.
    pub fn is_ident(&self, i: usize, text: &str) -> bool {
        let t = self.s(i);
        t.kind == TokKind::Ident && t.text == text
    }

    /// True when the significant token at `i` is punctuation with
    /// exactly this text.
    pub fn is_punct(&self, i: usize, text: &str) -> bool {
        let t = self.s(i);
        t.kind == TokKind::Punct && t.text == text
    }

    pub fn diag(&self, line: u32, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic::new(self.path, line, rule, message)
    }
}

/// Derives `(crate_name, role)` from a workspace-relative path.
pub fn classify(path: &str) -> (String, FileRole) {
    let crate_name = path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("eagleeye")
        .to_string();
    let role = if path.contains("/tests/") || path.starts_with("tests/") {
        FileRole::Test
    } else if path.contains("/benches/") || path.starts_with("benches/") {
        FileRole::Bench
    } else if path.contains("/examples/") || path.starts_with("examples/") {
        FileRole::Example
    } else if path.contains("/bin/") || path.ends_with("/main.rs") || path.ends_with("build.rs") {
        FileRole::Bin
    } else {
        FileRole::Lib
    };
    (crate_name, role)
}

/// Renders the attribute token texts between `[` and its matching `]`
/// as one concatenated string (`cfg(test)`, `cfg(not(test))`, …) and
/// returns it with the significant-index just past the `]`.
fn attr_text(tokens: &[Token], sig: &[usize], open: usize) -> (String, usize) {
    let mut depth = 0usize;
    let mut text = String::new();
    let mut i = open;
    while i < sig.len() {
        let t = &tokens[sig[i]];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    return (text, i + 1);
                }
            }
            _ => text.push_str(&t.text),
        }
        i += 1;
    }
    (text, i)
}

fn attr_is_test(attr: &str) -> bool {
    attr == "test"
        || attr == "bench"
        || (attr.starts_with("cfg") && attr.contains("test") && !attr.contains("not(test"))
}

/// Finds the line ranges of items annotated `#[cfg(test)]`, `#[test]`,
/// or `#[bench]`. The item extends to the matching close brace of its
/// first block, or to the terminating `;` for brace-less items.
pub fn test_regions(tokens: &[Token], sig: &[usize]) -> LineSet {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if !(tokens[sig[i]].text == "#"
            && i + 1 < sig.len()
            && tokens[sig[i + 1]].kind == TokKind::Punct
            && tokens[sig[i + 1]].text == "[")
        {
            i += 1;
            continue;
        }
        let start_line = tokens[sig[i]].line;
        let (attr, mut j) = attr_text(tokens, sig, i + 1);
        if !attr_is_test(&attr) {
            i = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while j + 1 < sig.len() && tokens[sig[j]].text == "#" && tokens[sig[j + 1]].text == "[" {
            let (_, next) = attr_text(tokens, sig, j + 1);
            j = next;
        }
        // Scan to the end of the item: the matching `}` of its first
        // brace block, or a `;` reached before any `{`.
        let mut depth = 0usize;
        let mut end_line = start_line;
        let mut entered = false;
        while j < sig.len() {
            let t = &tokens[sig[j]];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => {
                    depth += 1;
                    entered = true;
                }
                (TokKind::Punct, "}") => {
                    depth = depth.saturating_sub(1);
                    if entered && depth == 0 {
                        end_line = t.line;
                        break;
                    }
                }
                (TokKind::Punct, ";") if !entered => {
                    end_line = t.line;
                    break;
                }
                _ => {}
            }
            end_line = t.line;
            j += 1;
        }
        regions.push((start_line, end_line));
        i += 2; // continue scanning inside the region for nested attrs
    }
    LineSet(regions)
}

/// Result of linting one file.
pub struct FileLint {
    pub diagnostics: Vec<Diagnostic>,
    pub suppressions: Vec<Suppression>,
    /// True when any `unsafe` token appears outside comments/strings.
    pub has_unsafe: bool,
    /// True when the file carries `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
}

/// Lints one file from source. `path` drives crate/role
/// classification; suppressions are already applied, and suppression
/// audit diagnostics (missing justification / unused) are included.
pub fn lint_source(path: &str, src: &str) -> FileLint {
    let tokens = lexer::lex(src);
    let sig: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let test_lines = test_regions(&tokens, &sig);
    let (crate_name, role) = classify(path);
    let ctx = FileCtx {
        path,
        crate_name: &crate_name,
        role,
        tokens: &tokens,
        sig: &sig,
        test_lines: &test_lines,
    };

    let mut raw = Vec::new();
    rules::check_all(&ctx, &mut raw);

    let (mut supps, mut diags) = suppress::scan(path, &tokens);
    diags.extend(suppress::apply(raw, &mut supps));
    diags.extend(suppress::audit(path, &supps));
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));

    let has_unsafe = sig
        .iter()
        .any(|&i| tokens[i].kind == TokKind::Ident && tokens[i].text == "unsafe");
    let has_forbid_unsafe = has_inner_forbid_unsafe(&tokens, &sig);

    FileLint {
        diagnostics: diags,
        suppressions: supps,
        has_unsafe,
        has_forbid_unsafe,
    }
}

/// Detects an inner `#![forbid(unsafe_code)]` attribute.
fn has_inner_forbid_unsafe(tokens: &[Token], sig: &[usize]) -> bool {
    sig.windows(2).enumerate().any(|(i, w)| {
        tokens[w[0]].text == "#" && tokens[w[1]].text == "!" && {
            let (attr, _) = attr_text(tokens, sig, i + 2);
            attr.replace(' ', "").contains("forbid(unsafe_code)")
        }
    })
}

/// Full lint report for a workspace walk.
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    /// `(file, suppression)` for every suppression comment found.
    pub suppressions: Vec<(String, Suppression)>,
    pub files_scanned: usize,
}

/// Directories never descended into. `fixtures` holds the lint
/// crate's own intentionally-dirty test inputs.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

fn walk_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root`'s `crates/`, `src/`, `tests/`,
/// and `examples/` directories, then runs the crate-level
/// `unsafe-hygiene` pass (`#![forbid(unsafe_code)]` required in the
/// `lib.rs` of every crate that contains no `unsafe` at all).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_rs(&dir, &mut files)?;
        }
    }

    let mut diagnostics = Vec::new();
    let mut suppressions = Vec::new();
    // crate name -> (has_unsafe anywhere, lib.rs path, lib.rs forbid)
    let mut crates: BTreeMap<String, (bool, Option<String>, bool)> = BTreeMap::new();

    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path)?;
        let lint = lint_source(&rel, &src);
        diagnostics.extend(lint.diagnostics);
        suppressions.extend(lint.suppressions.into_iter().map(|s| (rel.clone(), s)));

        let entry = crates
            .entry(classify(&rel).0)
            .or_insert((false, None, false));
        entry.0 |= lint.has_unsafe;
        if rel.ends_with("src/lib.rs") {
            entry.1 = Some(rel.clone());
            entry.2 = lint.has_forbid_unsafe;
        }
    }

    for (name, (has_unsafe, lib_rs, forbid)) in &crates {
        if let Some(lib_rs) = lib_rs {
            if !has_unsafe && !forbid {
                diagnostics.push(Diagnostic::new(
                    lib_rs.clone(),
                    1,
                    diag::R5_UNSAFE_HYGIENE,
                    format!(
                        "crate `{name}` contains no unsafe code but its lib.rs lacks \
                         #![forbid(unsafe_code)]"
                    ),
                ));
            }
        }
    }

    diagnostics
        .sort_by(|a, b| (a.file.clone(), a.line, a.rule).cmp(&(b.file.clone(), b.line, b.rule)));
    Ok(LintReport {
        diagnostics,
        suppressions,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_roles() {
        assert_eq!(
            classify("crates/core/src/lib.rs"),
            ("core".into(), FileRole::Lib)
        );
        assert_eq!(
            classify("crates/bench/src/bin/fig1.rs"),
            ("bench".into(), FileRole::Bin)
        );
        assert_eq!(
            classify("crates/ilp/tests/oracle.rs"),
            ("ilp".into(), FileRole::Test)
        );
        assert_eq!(
            classify("crates/bench/benches/solver.rs"),
            ("bench".into(), FileRole::Bench)
        );
        assert_eq!(classify("src/lib.rs"), ("eagleeye".into(), FileRole::Lib));
        assert_eq!(
            classify("src/bin/eagleeye.rs"),
            ("eagleeye".into(), FileRole::Bin)
        );
        assert_eq!(
            classify("examples/demo.rs"),
            ("eagleeye".into(), FileRole::Example)
        );
    }

    fn regions(src: &str) -> LineSet {
        let tokens = lexer::lex(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        test_regions(&tokens, &sig)
    }

    #[test]
    fn cfg_test_mod_region() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn after() {}\n";
        let r = regions(src);
        assert!(!r.contains(1));
        assert!(r.contains(2));
        assert!(r.contains(4));
        assert!(r.contains(5));
        assert!(!r.contains(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        assert!(regions("#[cfg(not(test))]\nmod real { fn f() {} }\n").is_empty());
    }

    #[test]
    fn braceless_item_ends_at_semicolon() {
        let r = regions("#[cfg(test)]\nuse std::collections::HashMap;\nfn f() {}\n");
        assert!(r.contains(2));
        assert!(!r.contains(3));
    }

    #[test]
    fn test_attr_with_extra_attrs() {
        let r = regions("#[test]\n#[ignore]\nfn t() {\n  body();\n}\nfn g() {}\n");
        assert!(r.contains(4));
        assert!(!r.contains(6));
    }

    #[test]
    fn forbid_attr_detection() {
        let l = lint_source("crates/geo/src/lib.rs", "#![forbid(unsafe_code)]\n");
        assert!(l.has_forbid_unsafe);
        let l = lint_source("crates/geo/src/lib.rs", "#![warn(missing_docs)]\n");
        assert!(!l.has_forbid_unsafe);
    }
}
