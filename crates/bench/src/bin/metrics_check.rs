//! CI smoke validator for metrics artifacts: parses one or more
//! `results/METRICS_<run>.json` files and checks the DESIGN.md §10
//! schema — the five top-level keys (`run` plus four object-valued
//! sections), every key inside the `subsystem/name` namespace, integer
//! counters, and internally-consistent histograms.
//!
//! Exit code 0 when every artifact validates; 1 with a message on
//! stderr otherwise; 2 when no artifact is named. Usage:
//! `metrics_check <artifact.json>...`.

use eagleeye_harden::USAGE_STATUS;
use eagleeye_obs::json::{parse, Value};
use eagleeye_obs::valid_key;
use std::process::ExitCode;

fn validate(text: &str) -> Result<(), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    doc.get("run")
        .and_then(Value::as_str)
        .ok_or("missing or non-string top-level key 'run'")?;
    for section in ["counters", "gauges", "timers", "histograms"] {
        let entries = doc
            .get(section)
            .and_then(Value::as_object)
            .ok_or(format!("missing or non-object top-level key '{section}'"))?;
        if let Some(key) = entries.keys().find(|k| !valid_key(k)) {
            return Err(format!(
                "{section} key '{key}' is outside the `subsystem/name` namespace"
            ));
        }
    }
    for (key, v) in doc.get("counters").unwrap().as_object().unwrap() {
        v.as_u64()
            .ok_or(format!("counter '{key}' is not a non-negative integer"))?;
    }
    for (key, v) in doc.get("timers").unwrap().as_object().unwrap() {
        v.get("count")
            .and_then(Value::as_u64)
            .ok_or(format!("timer '{key}' lacks an integer 'count'"))?;
        v.get("total_s")
            .and_then(Value::as_f64)
            .ok_or(format!("timer '{key}' lacks a numeric 'total_s'"))?;
    }
    for (key, v) in doc.get("histograms").unwrap().as_object().unwrap() {
        let bounds = v
            .get("bounds")
            .and_then(Value::as_array)
            .ok_or(format!("histogram '{key}' lacks a 'bounds' array"))?;
        let counts = v
            .get("counts")
            .and_then(Value::as_array)
            .ok_or(format!("histogram '{key}' lacks a 'counts' array"))?;
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "histogram '{key}': {} counts for {} bounds (want bounds+1)",
                counts.len(),
                bounds.len()
            ));
        }
        let total: u64 = counts.iter().filter_map(Value::as_u64).sum();
        let count = v
            .get("count")
            .and_then(Value::as_u64)
            .ok_or(format!("histogram '{key}' lacks an integer 'count'"))?;
        if total != count {
            return Err(format!(
                "histogram '{key}': bucket counts sum to {total} but 'count' is {count}"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: metrics_check <METRICS_*.json>...");
        return ExitCode::from(USAGE_STATUS);
    }
    let mut ok = true;
    for path in &paths {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| validate(&text));
        match outcome {
            Ok(()) => println!("{path}: ok"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_obs::export::render_json;
    use eagleeye_obs::Metrics;

    #[test]
    fn accepts_rendered_artifacts() {
        let m = Metrics::enabled();
        m.add("ilp/nodes_explored", 3);
        m.record_duration("core/evaluate", std::time::Duration::from_millis(5));
        m.observe("core/frame_targets", 4, &[1, 2, 5]);
        validate(&render_json("unit", &m.snapshot())).expect("valid artifact");
        validate(&render_json("empty", &Metrics::enabled().snapshot())).expect("empty artifact");
    }

    #[test]
    fn rejects_schema_violations() {
        assert!(validate("not json").is_err());
        assert!(validate(r#"{"run": "r"}"#).is_err());
        assert!(validate(
            r#"{"run": 1, "counters": {}, "gauges": {}, "timers": {}, "histograms": {}}"#
        )
        .is_err());
        assert!(validate(
            r#"{"run": "r", "counters": {"core/a": -1}, "gauges": {}, "timers": {}, "histograms": {}}"#
        )
        .is_err());
        assert!(validate(
            r#"{"run": "r", "counters": {"Core/x": 1}, "gauges": {}, "timers": {}, "histograms": {}}"#
        )
        .is_err());
        assert!(validate(
            r#"{"run": "r", "counters": {}, "gauges": {"exec/threads": 1.0, "threads": 2.0},
                "timers": {}, "histograms": {}}"#
        )
        .is_err());
        assert!(validate(
            r#"{"run": "r", "counters": {}, "gauges": {}, "timers": {},
                "histograms": {"core/h": {"bounds": [1], "counts": [1], "sum": 1, "count": 1}}}"#
        )
        .is_err());
        assert!(validate(
            r#"{"run": "r", "counters": {}, "gauges": {}, "timers": {},
                "histograms": {"core/h": {"bounds": [1], "counts": [1, 2], "sum": 1, "count": 4}}}"#
        )
        .is_err());
    }
}
