//! The named metrics registry — Prometheus text exposition over
//! [`Telemetry`](crate::telemetry::Telemetry).
//!
//! Every counter, stage timer, and histogram in a [`Stats`] snapshot is
//! published under a stable `gcatch_*` name:
//!
//! * counters → `gcatch_<name>_total` (TYPE `counter`), e.g.
//!   `gcatch_solver_queries_total`;
//! * stage timers → one `gcatch_stage_seconds` gauge family with a
//!   `stage="<name>"` label;
//! * histograms → a summary family (`quantile="0.5|0.9|0.99"` samples plus
//!   `_sum`/`_count`) and a companion `_max` gauge. Nanosecond metrics drop
//!   their `_ns` suffix and export seconds (`job_wall_ns` →
//!   `gcatch_job_wall_seconds`); count-valued metrics keep their name
//!   (`gcatch_paths_per_channel`).
//!
//! Snapshots carry no Prometheus timestamps, so a rendering is a pure
//! function of the [`Stats`] value; with `zero_time` set every
//! time-derived value renders as 0 and the output is byte-stable across
//! machines (the golden-file mode — sample counts survive, so goldens
//! still pin how many samples each histogram saw).
//!
//! [`validate_exposition`] is the minimal in-repo parser CI uses to check
//! `--metrics-out` artifacts: HELP/TYPE comment syntax, metric-name and
//! label well-formedness, float-parseable sample values, and that every
//! sample belongs to a declared family.

use crate::telemetry::{Counter, Metric, Stats};
use std::time::Duration;

/// The Prometheus family name of one counter. A counter whose own name
/// already ends in `_total` keeps a single suffix
/// (`pset_prims_total` → `gcatch_pset_prims_total`, not `…_total_total`).
pub fn counter_family(c: Counter) -> String {
    let name = c.name();
    match name.strip_suffix("_total") {
        Some(base) => format!("gcatch_{base}_total"),
        None => format!("gcatch_{name}_total"),
    }
}

/// The Prometheus family name of one histogram metric. Nanosecond metrics
/// export as seconds (`_ns` → `_seconds`); count metrics keep their name.
pub fn metric_family(m: Metric) -> String {
    match m.name().strip_suffix("_ns") {
        Some(base) => format!("gcatch_{base}_seconds"),
        None => format!("gcatch_{}", m.name()),
    }
}

/// Exact nanoseconds → seconds with nine decimals (no float rounding).
fn fmt_seconds(ns: u64) -> String {
    format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000)
}

fn duration_seconds(d: Duration, zero_time: bool) -> String {
    if zero_time {
        "0.000000000".to_string()
    } else {
        fmt_seconds(d.as_nanos() as u64)
    }
}

/// Renders a [`Stats`] snapshot in Prometheus text-exposition format.
///
/// With `zero_time` (the `GCATCH_OBS_ZERO_TIME` golden mode) every
/// time-derived value — stage seconds and the quantiles/sum/max of
/// nanosecond histograms — renders as exactly 0; counters and sample
/// counts are kept, so the output is deterministic yet still meaningful.
pub fn render_prometheus(stats: &Stats, zero_time: bool) -> String {
    let mut out = String::new();

    for (c, v) in &stats.counters {
        let family = counter_family(*c);
        out.push_str(&format!("# HELP {family} {}\n", c.help()));
        out.push_str(&format!("# TYPE {family} counter\n"));
        out.push_str(&format!("{family} {v}\n"));
    }

    out.push_str(
        "# HELP gcatch_stage_seconds Wall-clock time attributed to each pipeline stage.\n",
    );
    out.push_str("# TYPE gcatch_stage_seconds gauge\n");
    for (s, d) in &stats.stages {
        out.push_str(&format!(
            "gcatch_stage_seconds{{stage=\"{}\"}} {}\n",
            s.name(),
            duration_seconds(*d, zero_time)
        ));
    }

    for (m, h) in &stats.hists {
        let family = metric_family(*m);
        let value = |v: u64| {
            if m.is_time() {
                if zero_time {
                    "0.000000000".to_string()
                } else {
                    fmt_seconds(v)
                }
            } else {
                v.to_string()
            }
        };
        out.push_str(&format!("# HELP {family} {}\n", m.help()));
        out.push_str(&format!("# TYPE {family} summary\n"));
        for (q, p) in [("0.5", 50), ("0.9", 90), ("0.99", 99)] {
            out.push_str(&format!(
                "{family}{{quantile=\"{q}\"}} {}\n",
                value(h.percentile(p))
            ));
        }
        out.push_str(&format!("{family}_sum {}\n", value(h.sum)));
        out.push_str(&format!("{family}_count {}\n", h.count));
        out.push_str(&format!("# HELP {family}_max Largest recorded sample.\n"));
        out.push_str(&format!("# TYPE {family}_max gauge\n"));
        out.push_str(&format!("{family}_max {}\n", value(h.max)));
    }

    out
}

/// Summary returned by [`validate_exposition`].
#[derive(Debug, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// Number of `# TYPE` family declarations.
    pub families: usize,
    /// Number of sample lines.
    pub samples: usize,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// The family a sample line belongs to: summaries append `_sum`/`_count`
/// and this exporter adds a `_max` companion gauge (declared separately).
fn sample_family<'n>(name: &'n str, declared: &[(String, String)]) -> Option<&'n str> {
    if declared.iter().any(|(n, _)| n == name) {
        return Some(name);
    }
    for suffix in ["_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if declared.iter().any(|(n, t)| n == base && t == "summary") {
                return Some(base);
            }
        }
    }
    None
}

fn validate_labels(labels: &str, line: usize) -> Result<(), String> {
    let mut rest = labels;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line}: label without `=`"))?;
        let name = &rest[..eq];
        if !valid_metric_name(name) {
            return Err(format!("line {line}: bad label name `{name}`"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("line {line}: label value must be quoted"))?;
        // Scan the quoted value, honoring \" \\ \n escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let end = end.ok_or_else(|| format!("line {line}: unterminated label value"))?;
        rest = &rest[end + 1..];
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None if rest.is_empty() => {}
            None => return Err(format!("line {line}: expected `,` or `}}` after label")),
        }
    }
    Ok(())
}

/// Minimal Prometheus text-exposition validator (the CI `obs-smoke`
/// parser): checks comment syntax, metric-name and label well-formedness,
/// float-parseable values, and that every sample belongs to a family
/// declared by a preceding `# TYPE` line.
pub fn validate_exposition(text: &str) -> Result<ExpositionSummary, String> {
    let mut declared: Vec<(String, String)> = Vec::new();
    let mut samples = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {line}: bad metric name `{name}` in TYPE"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("line {line}: bad metric type `{kind}`"));
                }
                if declared.iter().any(|(n, _)| n == name) {
                    return Err(format!("line {line}: duplicate TYPE for `{name}`"));
                }
                declared.push((name.to_string(), kind.to_string()));
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split(' ').next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {line}: bad metric name `{name}` in HELP"));
                }
            }
            // Other comments are legal and ignored.
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match trimmed.find(['{', ' ']) {
            Some(i) if trimmed.as_bytes()[i] == b'{' => {
                let close = trimmed[i..]
                    .find('}')
                    .map(|j| i + j)
                    .ok_or_else(|| format!("line {line}: unterminated label set"))?;
                validate_labels(&trimmed[i + 1..close], line)?;
                (&trimmed[..i], trimmed[close + 1..].trim_start())
            }
            Some(i) => (&trimmed[..i], trimmed[i + 1..].trim_start()),
            None => return Err(format!("line {line}: sample without a value")),
        };
        if !valid_metric_name(name_part) {
            return Err(format!("line {line}: bad metric name `{name_part}`"));
        }
        if sample_family(name_part, &declared).is_none() {
            return Err(format!(
                "line {line}: sample `{name_part}` has no preceding TYPE declaration"
            ));
        }
        let value = value_part.split(' ').next().unwrap_or("");
        if value.parse::<f64>().is_err() {
            return Err(format!("line {line}: unparseable value `{value}`"));
        }
        samples += 1;
    }
    Ok(ExpositionSummary {
        families: declared.len(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Stage;
    use crate::telemetry::Telemetry;

    fn sample_stats() -> Stats {
        let t = Telemetry::new();
        t.add(Counter::SolverQueries, 41);
        t.record(Stage::Constraints, Duration::from_millis(12));
        t.observe(Metric::SolverQueryNs, 2_500_000);
        t.observe(Metric::PathsPerChannel, 9);
        t.snapshot()
    }

    #[test]
    fn rendering_is_valid_and_covers_every_family() {
        let text = render_prometheus(&sample_stats(), false);
        let summary = validate_exposition(&text).expect("self-rendered exposition validates");
        // One family per counter, one stage gauge, and a summary + max
        // gauge per histogram metric.
        let expected = Counter::all().len() + 1 + 2 * Metric::all().len();
        assert_eq!(summary.families, expected);
        for c in Counter::all() {
            assert!(text.contains(&counter_family(c)), "missing {}", c.name());
        }
        for s in Stage::all() {
            assert!(text.contains(&format!("stage=\"{}\"", s.name())));
        }
        for m in Metric::all() {
            assert!(text.contains(&metric_family(m)), "missing {}", m.name());
        }
        assert!(text.contains("gcatch_solver_queries_total 41\n"));
        assert!(text.contains("gcatch_solver_query_seconds_count 1\n"));
        // Nanosecond metrics export seconds.
        assert!(text.contains("gcatch_job_wall_seconds"));
        assert!(!text.contains("_ns_"));
    }

    #[test]
    fn zero_time_zeroes_time_values_but_keeps_counts() {
        let text = render_prometheus(&sample_stats(), true);
        assert!(text.contains("gcatch_stage_seconds{stage=\"constraints\"} 0.000000000\n"));
        assert!(text.contains("gcatch_solver_query_seconds_sum 0.000000000\n"));
        assert!(text.contains("gcatch_solver_query_seconds_count 1\n"));
        assert!(text.contains("gcatch_solver_queries_total 41\n"));
        // Count-valued summaries are untouched.
        assert!(text.contains("gcatch_paths_per_channel_sum 9\n"));
        // Byte-stable: rendering twice is identical.
        assert_eq!(text, render_prometheus(&sample_stats(), true));
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(
            validate_exposition("gcatch_x 1\n").is_err(),
            "undeclared family"
        );
        assert!(
            validate_exposition("# TYPE gcatch_x counter\ngcatch_x nope\n").is_err(),
            "bad value"
        );
        assert!(
            validate_exposition("# TYPE 9bad counter\n").is_err(),
            "bad name"
        );
        assert!(
            validate_exposition("# TYPE gcatch_x flavor\n").is_err(),
            "bad type"
        );
        assert!(
            validate_exposition("# TYPE gcatch_x counter\ngcatch_x{l=\"v} 1\n").is_err(),
            "unterminated label"
        );
        assert!(
            validate_exposition("# TYPE gcatch_x counter\n# TYPE gcatch_x counter\n").is_err(),
            "duplicate TYPE"
        );
        let ok = "# HELP gcatch_x h\n# TYPE gcatch_x summary\n\
                  gcatch_x{quantile=\"0.5\"} 1.5\ngcatch_x_sum 3\ngcatch_x_count 2\n";
        assert_eq!(
            validate_exposition(ok).unwrap(),
            ExpositionSummary {
                families: 1,
                samples: 3
            }
        );
    }

    #[test]
    fn seconds_format_is_exact() {
        assert_eq!(fmt_seconds(0), "0.000000000");
        assert_eq!(fmt_seconds(1), "0.000000001");
        assert_eq!(fmt_seconds(2_500_000_000), "2.500000000");
    }
}
