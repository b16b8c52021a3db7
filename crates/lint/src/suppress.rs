//! Inline suppression comments.
//!
//! Syntax (a plain `//` comment, never a doc comment):
//!
//! ```text
//! // eagleeye-lint: allow(clock): deadline enforcement is wall-clock by design
//! ```
//!
//! A suppression applies to diagnostics of the listed rules on **its
//! own line**, or — when the comment stands alone on its line — on the
//! **next** line. The text after the closing parenthesis is the
//! mandatory justification; a suppression without one is itself a
//! diagnostic, as is a suppression that matches nothing (so stale
//! allows cannot linger) or one naming an unknown rule.

use crate::diag::{self, Diagnostic};
use crate::lexer::{TokKind, Token};

/// One parsed `// eagleeye-lint: allow(...)` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line of the comment itself.
    pub line: u32,
    /// True when no code token shares the comment's line (the
    /// suppression then covers the following line).
    pub standalone: bool,
    /// Rule ids listed inside `allow(...)`.
    pub rules: Vec<String>,
    /// Justification text after the rule list (may be empty — which
    /// the engine reports).
    pub justification: String,
    /// Set by the engine when the suppression absorbed a diagnostic.
    pub used: bool,
}

pub const MARKER: &str = "eagleeye-lint:";

/// Scans the token stream for suppression comments. Malformed marker
/// comments are returned as `suppression` diagnostics.
pub fn scan(file: &str, tokens: &[Token]) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut supps = Vec::new();
    let mut diags = Vec::new();
    // Lines that hold at least one non-comment token: a suppression
    // comment on such a line is trailing, not standalone.
    let code_lines: std::collections::BTreeSet<u32> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|t| t.line)
        .collect();
    for tok in tokens {
        if tok.kind != TokKind::LineComment || tok.doc {
            continue;
        }
        let body = tok.comment_body();
        let Some(at) = body.find(MARKER) else {
            continue;
        };
        let rest = body[at + MARKER.len()..].trim_start();
        let bad = |msg: &str| Diagnostic::new(file.to_string(), tok.line, diag::SUPPRESSION, msg);
        let Some(rest) = rest.strip_prefix("allow") else {
            diags.push(bad("malformed suppression: expected `allow(<rule>, ...)`"));
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            diags.push(bad("malformed suppression: expected `(` after `allow`"));
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(bad("malformed suppression: unclosed rule list"));
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            diags.push(bad("malformed suppression: empty rule list"));
            continue;
        }
        for r in &rules {
            if !diag::is_rule(r) {
                diags.push(bad(&format!(
                    "unknown rule `{r}` in suppression (known: {})",
                    diag::RULES
                        .iter()
                        .map(|(id, _)| *id)
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        let justification = rest[close + 1..]
            .trim_start_matches([':', ' ', '-', '\u{2014}'])
            .trim()
            .to_string();
        supps.push(Suppression {
            line: tok.line,
            standalone: !code_lines.contains(&tok.line),
            rules,
            justification,
            used: false,
        });
    }
    (supps, diags)
}

/// Applies `supps` to `diags`: returns the surviving diagnostics and
/// marks the suppressions that absorbed one as used. `suppression`
/// meta-diagnostics are never themselves suppressible.
pub fn apply(diags: Vec<Diagnostic>, supps: &mut [Suppression]) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| {
            if d.rule == diag::SUPPRESSION {
                return true;
            }
            for s in supps.iter_mut() {
                let covers = s.line == d.line || (s.standalone && s.line + 1 == d.line);
                if covers && s.rules.iter().any(|r| r == d.rule) {
                    s.used = true;
                    return false;
                }
            }
            true
        })
        .collect()
}

/// Post-pass diagnostics about the suppressions themselves: missing
/// justifications and unused entries.
pub fn audit(file: &str, supps: &[Suppression]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for s in supps {
        if s.justification.is_empty() {
            out.push(Diagnostic::new(
                file.to_string(),
                s.line,
                diag::SUPPRESSION,
                format!(
                    "suppression for {} lacks a justification (write `allow({}): <why>`)",
                    s.rules.join(", "),
                    s.rules.join(", ")
                ),
            ));
        }
        if !s.used {
            out.push(Diagnostic::new(
                file.to_string(),
                s.line,
                diag::SUPPRESSION,
                format!(
                    "unused suppression for {} (no diagnostic on this or the next line)",
                    s.rules.join(", ")
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_rules_and_justification() {
        let toks = lex("// eagleeye-lint: allow(clock, no-unwrap): deadline is wall-clock\n");
        let (supps, diags) = scan("f.rs", &toks);
        assert!(diags.is_empty());
        assert_eq!(supps.len(), 1);
        assert_eq!(supps[0].rules, vec!["clock", "no-unwrap"]);
        assert_eq!(supps[0].justification, "deadline is wall-clock");
        assert!(supps[0].standalone);
    }

    #[test]
    fn trailing_comment_is_not_standalone() {
        let toks = lex("let x = 1; // eagleeye-lint: allow(clock): why\n");
        let (supps, _) = scan("f.rs", &toks);
        assert!(!supps[0].standalone);
    }

    #[test]
    fn unknown_rule_is_reported() {
        let toks = lex("// eagleeye-lint: allow(nope): x\n");
        let (_, diags) = scan("f.rs", &toks);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unknown rule"));
    }

    #[test]
    fn standalone_covers_next_line_only() {
        let mut supps = vec![Suppression {
            line: 5,
            standalone: true,
            rules: vec!["clock".into()],
            justification: "why".into(),
            used: false,
        }];
        let mk = |line| Diagnostic::new("f.rs", line, crate::diag::R3_CLOCK, "");
        let left = apply(vec![mk(6), mk(7)], &mut supps);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].line, 7);
        assert!(supps[0].used);
    }

    #[test]
    fn audit_flags_missing_justification_and_unused() {
        let supps = vec![Suppression {
            line: 1,
            standalone: true,
            rules: vec!["clock".into()],
            justification: String::new(),
            used: false,
        }];
        let out = audit("f.rs", &supps);
        assert_eq!(out.len(), 2);
        assert!(out[0].message.contains("lacks a justification"));
        assert!(out[1].message.contains("unused suppression"));
    }
}
