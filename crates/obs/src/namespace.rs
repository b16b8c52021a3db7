//! The metric key namespace (DESIGN.md §10.2): `subsystem/name`, two or
//! more `/`-separated segments of `[a-z0-9_]`, the first naming a
//! workspace subsystem. `metrics_check` rejects an artifact with a key
//! outside it, and the golden regression rejects a traced evaluation
//! that records one, so keys built with `format!` are checked too.

/// Subsystems a key may start with: the crate short names plus the
/// root package.
const SUBSYSTEMS: &[&str] = &[
    "bench", "check", "core", "datasets", "detect", "eagleeye", "exec", "geo", "harden", "ilp",
    "obs", "orbit", "rng", "sim",
];

/// True when `key` is inside the metric namespace.
///
/// ```
/// use eagleeye_obs::valid_key;
///
/// assert!(valid_key("core/evaluate/cluster"));
/// assert!(!valid_key("Core/x"));
/// ```
pub fn valid_key(key: &str) -> bool {
    let segments: Vec<&str> = key.split('/').collect();
    segments.len() >= 2
        && SUBSYSTEMS.contains(&segments[0])
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::valid_key;

    #[test]
    fn namespace_shape() {
        assert!(valid_key("core/evaluate"));
        assert!(valid_key("core/evaluate/propagate"));
        assert!(valid_key("ilp/nodes_explored"));
        assert!(!valid_key("core")); // needs >= 2 segments
        assert!(!valid_key("unknown/sub"));
        assert!(!valid_key("core/Evaluate")); // uppercase
        assert!(!valid_key("core//x")); // empty segment
        assert!(!valid_key("core/x/")); // empty trailing segment
        assert!(!valid_key("core.evaluate")); // wrong separator
    }
}
