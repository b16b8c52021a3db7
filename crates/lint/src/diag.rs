//! Diagnostics, rule metadata, rationale blocks, and output rendering
//! (text + JSON).

use std::fmt;

/// One lint finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule id (one of [`RULES`], or `"suppression"` for problems
    /// with suppression comments themselves).
    pub rule: &'static str,
    pub message: String,
}

impl Diagnostic {
    pub fn new(
        file: impl Into<String>,
        line: u32,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            file: file.into(),
            line,
            rule,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Stable rule ids — these are the names accepted by
/// `// eagleeye-lint: allow(<rule>)` suppressions.
pub const R1_NO_UNWRAP: &str = "no-unwrap";
pub const R2_DETERMINISM: &str = "determinism";
pub const R3_CLOCK: &str = "clock";
pub const R4_FLOAT_EQ: &str = "float-eq";
pub const R5_UNSAFE_HYGIENE: &str = "unsafe-hygiene";
pub const R6_METRIC_NAMESPACE: &str = "metric-namespace";
pub const R7_NO_EXIT: &str = "no-exit";
/// Meta-rule for malformed, unjustified, or unused suppressions; not
/// itself suppressible.
pub const SUPPRESSION: &str = "suppression";

/// `(id, summary)` for every suppressible rule.
pub const RULES: &[(&str, &str)] = &[
    (
        R1_NO_UNWRAP,
        "ban .unwrap()/.expect(..) in library (non-test, non-bin) code",
    ),
    (
        R2_DETERMINISM,
        "ban HashMap/HashSet in crates feeding serialized or scheduled output",
    ),
    (
        R3_CLOCK,
        "ban Instant::now/SystemTime::now outside obs, exec, and bench",
    ),
    (
        R4_FLOAT_EQ,
        "ban ==/!= against float literals or casts (use total_cmp or epsilon helpers)",
    ),
    (
        R5_UNSAFE_HYGIENE,
        "unsafe blocks need // SAFETY: comments; unsafe-free crates need #![forbid(unsafe_code)]",
    ),
    (
        R6_METRIC_NAMESPACE,
        "metric keys must match the subsystem/name namespace of DESIGN.md \u{a7}10.2",
    ),
    (
        R7_NO_EXIT,
        "ban process::exit/process::abort outside src/bin and the bench harness",
    ),
];

/// True iff `id` names a suppressible rule.
pub fn is_rule(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

/// Rationale block for `--explain <rule>`: why the rule exists in
/// this codebase and how to satisfy or suppress it.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "no-unwrap" => {
            "Library code must stay panic-free: the evaluator runs inside long sweeps and the\n\
             crash-safe executor, where a panic poisons checkpoints. Return Result/Option,\n\
             or use unwrap_or/-default. Tests, benches, and bins are exempt."
        }
        "determinism" => {
            "Crates that feed serialized or scheduled output must iterate deterministically;\n\
             HashMap/HashSet iteration order is randomized per process and silently breaks\n\
             digest stability and golden files. Use BTreeMap/BTreeSet or sorted Vecs."
        }
        "clock" => {
            "Wall-clock reads outside obs/exec/bench make results time-dependent and\n\
             unreproducible. Thread time through the simulation clock or the metrics layer."
        }
        "float-eq" => {
            "==/!= against float literals or casts is almost always a tolerance bug. Compare\n\
             with total_cmp, epsilon helpers, or restructure to integers. Field-to-field\n\
             equality (derived PartialEq semantics) is allowed."
        }
        "unsafe-hygiene" => {
            "Every unsafe block needs a // SAFETY: comment; crates with no unsafe at all\n\
             must say so with #![forbid(unsafe_code)] in lib.rs."
        }
        "metric-namespace" => {
            "Metric keys are a public, grep-able contract (DESIGN.md \u{a7}10.2): literal keys\n\
             must match subsystem/name so dashboards and the obs registry stay coherent."
        }
        "no-exit" => {
            "process::exit/abort skips destructors and flushing; only bins and the bench\n\
             harness may terminate the process."
        }
        "suppression" => {
            "Meta-rule about the suppression comments themselves: malformed markers,\n\
             unknown rules, missing justifications, and unused allows. Not itself\n\
             suppressible."
        }
        _ => return None,
    })
}

/// Minimal JSON string escaping (the only JSON this crate emits).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a JSON document:
/// `{"count": N, "diagnostics": [{"file", "line", "rule", "message"}]}`.
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"count\": ");
    out.push_str(&diags.len().to_string());
    out.push_str(",\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.rule,
            json_escape(&d.message)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_file_line_rule_message() {
        let d = Diagnostic::new("crates/core/src/x.rs", 7, R1_NO_UNWRAP, "found .unwrap()");
        assert_eq!(
            d.to_string(),
            "crates/core/src/x.rs:7: [no-unwrap] found .unwrap()"
        );
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_document_shape() {
        let doc = diagnostics_json(&[Diagnostic::new("f.rs", 1, R3_CLOCK, "m")]);
        assert!(doc.contains("\"count\": 1"));
        assert!(doc.contains("\"rule\": \"clock\""));
    }

    #[test]
    fn rule_ids_are_known() {
        assert!(is_rule("no-unwrap"));
        assert!(is_rule("metric-namespace"));
        assert!(is_rule("no-exit"));
        assert!(!is_rule("digest-coverage"));
        assert!(!is_rule("suppression"));
        assert!(!is_rule("bogus"));
    }

    #[test]
    fn every_rule_and_the_meta_rule_have_rationale() {
        for (id, _) in RULES {
            assert!(explain(id).is_some(), "missing rationale for {id}");
        }
        assert!(explain("suppression").is_some());
        assert!(explain("bogus").is_none());
    }
}
