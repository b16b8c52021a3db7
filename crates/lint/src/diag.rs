//! Diagnostics, rule metadata, rationale blocks, and output rendering
//! (text + JSON).

use std::fmt;

/// Structured payload attached to the coverage-rule diagnostics
/// (R8–R10) so `--format json` consumers get the annotation span and
/// the offending field names without parsing the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageDetail {
    /// Line of the coverage annotation the finding belongs to.
    pub annotation_line: u32,
    /// The annotated struct.
    pub struct_name: String,
    /// Missing / asymmetric field names.
    pub fields: Vec<String>,
}

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
    /// Structured data for coverage-rule findings; `None` for the
    /// token-level rules.
    pub detail: Option<CoverageDetail>,
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
            detail: None,
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
pub const R8_DIGEST_COVERAGE: &str = "digest-coverage";
pub const R9_CODEC_SYMMETRY: &str = "codec-symmetry";
pub const R10_FOLD_COVERAGE: &str = "fold-coverage";
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
    (
        R8_DIGEST_COVERAGE,
        "fns annotated digest-of(Type) must reference every field, or justify the gap",
    ),
    (
        R9_CODEC_SYMMETRY,
        "codec-write/codec-read pairs must cover identical field sets in identical order",
    ),
    (
        R10_FOLD_COVERAGE,
        "fold/compare fns annotated fold-of(Type) must handle every field",
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
        "digest-coverage" => {
            "R8. The memo and checkpoint caches key on hand-enumerated digests\n\
             (the frame memo key, track_digest, ScenarioHasher keys). A field that changes\n\
             results but is missing from its digest is a silent stale-cache bug — the exact\n\
             failure the horizon memo once had when mid-frame repair onsets were invisible\n\
             to its key.\n\n\
             Annotate the digest fn with\n\
                 // eagleeye-lint: digest-of(TypeA, TypeB)\n\
             and the rule requires every field of each named struct to be referenced in the\n\
             fn body. A deliberately cache-invisible field carries a justified exemption:\n\
                 // eagleeye-lint: digest-allow(Type::field): <why it cannot affect results>\n\
             Exemptions are pinned in lint-allowlist.txt and audited (stale or unused\n\
             exemptions are diagnostics)."
        }
        "codec-symmetry" => {
            "R9. Byte codecs here are hand-rolled (CoverageReport::to_bytes/from_bytes,\n\
             snapshot sections) and drift when a field is added to one side only — PR 9\n\
             hand-threaded four counters through the v3 report codec at five call sites.\n\n\
             Annotate the pair, in the same file:\n\
                 // eagleeye-lint: codec-write(Type)   on the encoder\n\
                 // eagleeye-lint: codec-read(Type)    on the decoder\n\
             The rule requires both fns to reference exactly the same field set, in the\n\
             same first-reference order. Fields intentionally outside the wire format take\n\
             codec-allow(Type::field): <why>."
        }
        "fold-coverage" => {
            "R10. Fold/compare fns (absorb, same_outcome, record_metrics, add_ilp_stats)\n\
             must decide something for every field — summing, comparing, or deliberately\n\
             skipping it. An unreferenced field is an unmerged counter or a comparison\n\
             blind spot.\n\n\
             Annotate with\n\
                 // eagleeye-lint: fold-of(Type)\n\
             and justify deliberate skips with fold-allow(Type::field): <why>. Pairing this\n\
             with an exhaustive `let Type { .. } = x;` destructure in the fn makes the\n\
             compiler enforce what the lint reports."
        }
        "suppression" => {
            "Meta-rule about the suppression/annotation comments themselves: malformed\n\
             markers, unknown rules, missing justifications, unused allows, and stale or\n\
             unused coverage exemptions. Not itself suppressible."
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
/// Coverage findings additionally carry `"annotation_line"`,
/// `"struct"`, and `"fields"`.
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"count\": ");
    out.push_str(&diags.len().to_string());
    out.push_str(",\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"",
            json_escape(&d.file),
            d.line,
            d.rule,
            json_escape(&d.message)
        ));
        if let Some(detail) = &d.detail {
            out.push_str(&format!(
                ", \"annotation_line\": {}, \"struct\": \"{}\", \"fields\": [{}]",
                detail.annotation_line,
                json_escape(&detail.struct_name),
                detail
                    .fields
                    .iter()
                    .map(|f| format!("\"{}\"", json_escape(f)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out.push('}');
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
        assert!(!doc.contains("annotation_line"));
    }

    #[test]
    fn json_includes_coverage_detail() {
        let mut d = Diagnostic::new("f.rs", 9, R8_DIGEST_COVERAGE, "missing");
        d.detail = Some(CoverageDetail {
            annotation_line: 9,
            struct_name: "Opts".into(),
            fields: vec!["seed".into(), "recall".into()],
        });
        let doc = diagnostics_json(&[d]);
        assert!(doc.contains("\"annotation_line\": 9"));
        assert!(doc.contains("\"struct\": \"Opts\""));
        assert!(doc.contains("\"fields\": [\"seed\", \"recall\"]"));
    }

    #[test]
    fn rule_ids_are_known() {
        assert!(is_rule("no-unwrap"));
        assert!(is_rule("metric-namespace"));
        assert!(is_rule("digest-coverage"));
        assert!(is_rule("codec-symmetry"));
        assert!(is_rule("fold-coverage"));
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
