//! Metrics artifact export: `results/METRICS_<run>.json` plus a
//! human-readable stderr summary.
//!
//! The JSON schema (see DESIGN.md §10) has five top-level keys:
//!
//! ```json
//! {
//!   "run": "fig11a",
//!   "counters":   {"ilp/nodes_explored": 42, ...},
//!   "gauges":     {"exec/threads": 4.0, ...},
//!   "timers":     {"core/evaluate": {"count": 1, "total_s": 0.8}, ...},
//!   "histograms": {"ilp/lp_iterations": {"bounds": [...], "counts": [...],
//!                   "sum": 123, "count": 9}, ...}
//! }
//! ```
//!
//! Keys inside each section are emitted in sorted order (the registry
//! stores `BTreeMap`s), so two identical registries render to
//! byte-identical documents.

use crate::json::escape;
use crate::metrics::Metrics;
use crate::registry::MetricsRegistry;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        let s = format!("{value}");
        // `{}` prints integral floats without a point; keep the JSON
        // number a float so readers round-trip the type.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // JSON has no Inf/NaN; clamp to null-like sentinel.
        "null".to_string()
    }
}

/// Renders a registry to the artifact JSON document described in the
/// module docs. Deterministic: equal registries render byte-identically.
pub fn render_json(run: &str, registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"run\": \"{}\",", escape(run));

    out.push_str("  \"counters\": {");
    let mut first = true;
    for (k, v) in registry.counters() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", escape(k), v);
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    out.push_str("  \"gauges\": {");
    first = true;
    for (k, v) in registry.gauges() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", escape(k), fmt_f64(v));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    out.push_str("  \"timers\": {");
    first = true;
    for (k, t) in registry.timers() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"total_s\": {}}}",
            escape(k),
            t.count,
            fmt_f64(t.total.as_secs_f64())
        );
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    out.push_str("  \"histograms\": {");
    first = true;
    for (k, h) in registry.histograms() {
        if !first {
            out.push(',');
        }
        first = false;
        let bounds: Vec<String> = h.bounds().iter().map(|b| b.to_string()).collect();
        let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
        let _ = write!(
            out,
            "\n    \"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \"count\": {}}}",
            escape(k),
            bounds.join(", "),
            counts.join(", "),
            h.sum(),
            h.count()
        );
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });

    out.push('}');
    out.push('\n');
    out
}

/// Renders the human-readable summary printed to stderr by
/// [`write_run`].
fn render_summary(run: &str, registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "[eagleeye-obs] metrics summary for run '{run}'");
    if registry.is_empty() {
        let _ = writeln!(out, "  (no metrics recorded)");
        return out;
    }
    let mut timers: Vec<_> = registry.timers().collect();
    if !timers.is_empty() {
        timers.sort_by_key(|t| std::cmp::Reverse(t.1.total));
        let _ = writeln!(out, "  timers (by total):");
        for (k, t) in timers {
            let _ = writeln!(
                out,
                "    {:<40} {:>10.3}s  x{}",
                k,
                t.total.as_secs_f64(),
                t.count
            );
        }
    }
    let counters: Vec<_> = registry.counters().collect();
    if !counters.is_empty() {
        let _ = writeln!(out, "  counters:");
        for (k, v) in counters {
            let _ = writeln!(out, "    {k:<40} {v:>12}");
        }
    }
    let gauges: Vec<_> = registry.gauges().collect();
    if !gauges.is_empty() {
        let _ = writeln!(out, "  gauges (max):");
        for (k, v) in gauges {
            let _ = writeln!(out, "    {k:<40} {v:>12.4}");
        }
    }
    for (k, h) in registry.histograms() {
        let _ = writeln!(
            out,
            "  histogram {:<30} n={} mean={:.2}",
            k,
            h.count(),
            h.mean()
        );
    }
    out
}

/// Writes `results/METRICS_<run>.json` (creating `results/` if needed)
/// and prints the summary to stderr. Returns `Ok(None)` without
/// touching the filesystem when the handle is disabled, otherwise the
/// path written.
pub fn write_run(run: &str, metrics: &Metrics) -> std::io::Result<Option<PathBuf>> {
    write_run_in(Path::new("results"), run, metrics)
}

/// [`write_run`] with an explicit output directory (for tests).
fn write_run_in(dir: &Path, run: &str, metrics: &Metrics) -> std::io::Result<Option<PathBuf>> {
    if !metrics.is_enabled() {
        return Ok(None);
    }
    let registry = metrics.snapshot();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("METRICS_{run}.json"));
    std::fs::write(&path, render_json(run, &registry))?;
    let mut stderr = std::io::stderr().lock();
    let _ = stderr.write_all(render_summary(run, &registry).as_bytes());
    let _ = writeln!(stderr, "[eagleeye-obs] wrote {}", path.display());
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> Metrics {
        let m = Metrics::enabled();
        m.add("ilp/nodes_explored", 42);
        m.add("orbit/grid_hits", 7);
        m.gauge_max("exec/threads", 4.0);
        m.record_duration("core/evaluate", std::time::Duration::from_millis(125));
        m.observe("ilp/lp_iterations", 9, &[4, 16, 64]);
        m
    }

    #[test]
    fn rendered_json_parses_with_expected_keys() {
        let m = sample();
        let doc = render_json("fig11a", &m.snapshot());
        let v = parse(&doc).expect("render_json must emit valid JSON");
        assert_eq!(v.get("run").unwrap().as_str(), Some("fig11a"));
        for key in ["counters", "gauges", "timers", "histograms"] {
            assert!(v.get(key).unwrap().as_object().is_some(), "missing {key}");
        }
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("ilp/nodes_explored")
                .unwrap()
                .as_u64(),
            Some(42)
        );
        let timer = v.get("timers").unwrap().get("core/evaluate").unwrap();
        assert_eq!(timer.get("count").unwrap().as_u64(), Some(1));
        assert!(timer.get("total_s").unwrap().as_f64().unwrap() > 0.1);
        let hist = v
            .get("histograms")
            .unwrap()
            .get("ilp/lp_iterations")
            .unwrap();
        assert_eq!(hist.get("counts").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(hist.get("sum").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn empty_registry_renders_valid_json() {
        let doc = render_json("empty", &MetricsRegistry::default());
        let v = parse(&doc).unwrap();
        assert!(v.get("counters").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn equal_registries_render_identically() {
        let a = sample().snapshot();
        let b = sample().snapshot();
        assert_eq!(render_json("r", &a), render_json("r", &b));
    }

    #[test]
    fn write_run_is_noop_when_disabled() {
        let dir = std::env::temp_dir().join("eagleeye_obs_disabled_test");
        let out = write_run_in(&dir, "nope", &Metrics::disabled()).unwrap();
        assert_eq!(out, None);
        assert!(!dir.join("METRICS_nope.json").exists());
    }

    #[test]
    fn write_run_emits_artifact_when_enabled() {
        let dir =
            std::env::temp_dir().join(format!("eagleeye_obs_export_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_run_in(&dir, "smoke", &sample()).unwrap().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(parse(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_mentions_each_section() {
        let s = render_summary("r", &sample().snapshot());
        for needle in [
            "timers",
            "counters",
            "gauges",
            "histogram",
            "ilp/nodes_explored",
        ] {
            assert!(s.contains(needle), "summary missing {needle}: {s}");
        }
        assert!(render_summary("r", &MetricsRegistry::default()).contains("no metrics"));
    }

    #[test]
    fn fmt_f64_keeps_floats_floats() {
        assert_eq!(fmt_f64(4.0), "4.0");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }
}
