//! The benchmark's metric catalogue, the validation of `BENCHMARK.json`
//! against it, and `--compare`.

use crate::json::{self, Value};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = ["corpus", "probe", "serve_edit", "fix"];

/// `(name, unit, better)` of every end-to-end metric, reported on every
/// workload by an untraced run.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("modules_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, reported on every
/// workload by a traced run. Each layer's time is given as its share of
/// the time the operation's layers took together, 0 where the workload
/// bypasses the layer; the only times are those every workload measures,
/// `op.traced_ms` among them.
pub const PER_LAYER: [(&str, &str, &str); 48] = [
    ("op.traced_ms", "ms", "lower"),
    ("parse.self_pct", "%", "lower"),
    ("parse.mb_per_s", "MB/s", "higher"),
    ("lower.self_pct", "%", "lower"),
    ("lower.ir_funcs", "count", "lower"),
    ("alias.self_pct", "%", "lower"),
    ("alias.queries_solved", "count", "lower"),
    ("alias.functions_skipped", "count", "higher"),
    ("disentangle.self_pct", "%", "lower"),
    ("disentangle.psets", "count", "lower"),
    ("disentangle.pset_prims", "count", "lower"),
    ("paths.self_pct", "%", "lower"),
    ("paths.enumerated", "count", "lower"),
    ("paths.combos", "count", "lower"),
    ("constraints.self_pct", "%", "lower"),
    ("constraints.solver_queries", "count", "lower"),
    ("constraints.solver_steps", "count", "lower"),
    ("constraints.solver_conflicts", "count", "lower"),
    ("constraints.encodings_shared", "count", "higher"),
    ("constraints.share_ratio", "ratio", "higher"),
    ("traditional.self_pct", "%", "lower"),
    ("detector.unattributed_pct", "%", "lower"),
    ("render.self_pct", "%", "lower"),
    ("render.report_bytes", "bytes", "lower"),
    ("teardown.self_pct", "%", "lower"),
    ("harness.self_pct", "%", "lower"),
    ("gfix.self_pct", "%", "lower"),
    ("gfix.redetect_pct", "%", "lower"),
    ("gfix.rounds", "count", "lower"),
    ("gfix.patches", "count", "higher"),
    ("warm.self_pct", "%", "lower"),
    ("warm.replay_ratio", "ratio", "higher"),
    ("warm.reanalyzed", "count", "lower"),
    ("diff.shape_pct", "%", "lower"),
    ("diff.changed_funcs", "count", "lower"),
    ("serve.overhead_pct", "%", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("batch.self_pct", "%", "lower"),
    ("batch.jobs_hedged", "count", "lower"),
    ("batch.jobs_retried", "count", "lower"),
    ("process.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
    ("trace.ops", "count", "higher"),
    ("edit.tail_helper.reanalyzed", "count", "lower"),
    ("edit.pset_op.reanalyzed", "count", "lower"),
    ("edit.line_shift.reanalyzed", "count", "lower"),
    ("edit.revert.reanalyzed", "count", "lower"),
];

/// `(name, unit)` of the times a traced run prints but keeps out of its
/// result line, because some workload never runs them: each layer's self
/// time, and the serve-only latencies.
pub const TABLE_ONLY: [(&str, &str); 24] = [
    ("parse.self_ms", "ms"),
    ("lower.self_ms", "ms"),
    ("alias.self_ms", "ms"),
    ("disentangle.self_ms", "ms"),
    ("paths.self_ms", "ms"),
    ("constraints.self_ms", "ms"),
    ("traditional.self_ms", "ms"),
    ("detector.unattributed_ms", "ms"),
    ("render.self_ms", "ms"),
    ("teardown.self_ms", "ms"),
    ("harness.self_ms", "ms"),
    ("gfix.self_ms", "ms"),
    ("gfix.redetect_ms", "ms"),
    ("warm.self_ms", "ms"),
    ("warm.check_ms", "ms"),
    ("diff.shape_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.restart_ms", "ms"),
    ("batch.self_ms", "ms"),
    ("edit.tail_helper.check_ms", "ms"),
    ("edit.pset_op.check_ms", "ms"),
    ("edit.line_shift.check_ms", "ms"),
    ("edit.revert.check_ms", "ms"),
    ("process.inproc_ms", "ms"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, u, _)| (*n, *u))
        .chain(TABLE_ONLY)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

fn valid_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-/".contains(&b))
}

fn keys_exactly(v: &Value, keys: &[&str], what: &str) -> Result<(), String> {
    let obj = v
        .as_obj()
        .ok_or_else(|| format!("{what} is not an object"))?;
    let have: Vec<&str> = obj.keys().map(String::as_str).collect();
    let mut want = keys.to_vec();
    want.sort_unstable();
    if have != want {
        return Err(format!("{what} has keys {have:?}, expected {want:?}"));
    }
    Ok(())
}

fn str_field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: `{key}` is not a string"))
}

/// Checks `BENCHMARK.json` against the format it must have and against
/// this benchmark's own catalogue.
pub fn validate(text: &str) -> Result<(), String> {
    if text.len() > 64 * 1024 {
        return Err("BENCHMARK.json is larger than 64 KiB".into());
    }
    let v = json::parse(text)?;
    keys_exactly(
        &v,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
    )?;
    let command = v.get("command").map(Value::as_arr).unwrap_or(&[]);
    if command.is_empty() || command.len() > 32 {
        return Err("`command` must hold 1 to 32 strings".into());
    }
    for c in command {
        let s = c.as_str().ok_or("`command` holds a non-string")?;
        if s.len() > 200 || s.starts_with('/') || s.split('/').any(|p| p == "..") {
            return Err(format!("bad command element `{s}`"));
        }
    }
    let paths = v.get("paths").map(Value::as_arr).unwrap_or(&[]);
    if paths.is_empty() || paths.len() > 16 {
        return Err("`paths` must hold 1 to 16 directories".into());
    }
    for p in paths {
        if !p.as_str().is_some_and(valid_path) {
            return Err(format!("bad path {p:?}"));
        }
    }
    let secs = v.get("run_seconds").and_then(Value::as_f64).unwrap_or(0.0);
    if secs.fract() != 0.0 || !(1.0..=60.0).contains(&secs) {
        return Err("`run_seconds` must be a whole number from 1 to 60".into());
    }

    let mut names = std::collections::BTreeSet::new();
    let mut name_once = |name: &str, what: &str| -> Result<(), String> {
        if !valid_name(name) {
            return Err(format!("{what}: bad name `{name}`"));
        }
        if !names.insert(name.to_string()) {
            return Err(format!("{what}: name `{name}` used twice"));
        }
        Ok(())
    };

    let workloads = v.get("workloads").map(Value::as_arr).unwrap_or(&[]);
    if !(2..=8).contains(&workloads.len()) {
        return Err("`workloads` must hold 2 to 8 entries".into());
    }
    for w in workloads {
        keys_exactly(w, &["name", "why"], "workload")?;
        let name = str_field(w, "name", "workload")?;
        name_once(name, "workload")?;
        let why = str_field(w, "why", name)?;
        if why.trim().is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workload `{name}` needs a one-line `why` of at most 200 chars"
            ));
        }
    }
    let listed: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    if listed != WORKLOADS {
        return Err(format!("workloads {listed:?} differ from {WORKLOADS:?}"));
    }

    let check_metrics = |key: &str,
                         max: usize,
                         with_bound: bool,
                         catalogue: &[(&str, &str, &str)],
                         name_once: &mut dyn FnMut(&str, &str) -> Result<(), String>|
     -> Result<(), String> {
        let list = v.get(key).map(Value::as_arr).unwrap_or(&[]);
        if list.is_empty() || list.len() > max {
            return Err(format!("`{key}` must hold 1 to {max} metrics"));
        }
        let mut seen = Vec::new();
        for m in list {
            let keys: &[&str] = if with_bound {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            keys_exactly(m, keys, key)?;
            let name = str_field(m, "name", key)?;
            name_once(name, key)?;
            let unit = str_field(m, "unit", name)?;
            if !valid_unit(unit) {
                return Err(format!("{name}: bad unit `{unit}`"));
            }
            let better = str_field(m, "better", name)?;
            if better != "lower" && better != "higher" {
                return Err(format!("{name}: `better` must be lower or higher"));
            }
            if with_bound {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(-1.0);
                if !(0.0..=0.25).contains(&bound) || bound == 0.0 {
                    return Err(format!("{name}: bound must be in (0, 0.25]"));
                }
            }
            match catalogue.iter().find(|(n, _, _)| *n == name) {
                Some((_, u, b)) if *u == unit && *b == better => {}
                _ => return Err(format!("{name}: not in the benchmark's catalogue as given")),
            }
            seen.push(name);
        }
        if seen.len() != catalogue.len() {
            return Err(format!(
                "`{key}` lists {} metrics, the benchmark reports {}",
                seen.len(),
                catalogue.len()
            ));
        }
        Ok(())
    };
    check_metrics("end_to_end", 16, true, &END_TO_END, &mut name_once)?;
    check_metrics("per_layer", 128, false, &PER_LAYER, &mut name_once)?;
    let setup = v
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .ok_or("`end_to_end` lacks setup_s")?;
    let bounds: Vec<f64> = v
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("bound").and_then(Value::as_f64))
        .collect();
    let setup_bound = setup.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
    if bounds.iter().any(|&b| b > setup_bound) {
        return Err("setup_s must carry the largest bound".into());
    }
    Ok(())
}

/// One run's result as `--out` records it.
struct Run {
    workload: String,
    metrics: BTreeMap<String, f64>,
}

fn read_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = str_field(&v, "workload", path)?.to_string();
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{path}:{}: no result metrics", i + 1))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.push(Run { workload, metrics });
    }
    Ok(runs)
}

/// The verdict for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The base runs spread wider than the bound, so neither a gain nor a
    /// regression within the bound can be told apart from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies a metric's bound to two sets of runs, the i-th run of each a
/// pair: a median worse by more than the bound is a regression; a gain
/// needs the new run to win at least nine pairs in ten and a median
/// better by more than the base runs' own interquartile range; a base
/// spread wider than the bound is unresolved unless every new run beats
/// every base run.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let better = |n: f64, b: f64| sign * (n - b) < 0.0;
    let (mb, mn) = (median(base), median(new));
    let worse = sign * (mn - mb) / mb.abs().max(f64::MIN_POSITIVE);
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let pairs = base.len().min(new.len());
    let wins = base.iter().zip(new).filter(|(&b, &n)| better(n, b)).count();
    let s = spread(base);
    if base.len() < 2 || new.is_empty() || s > bound {
        return if all_better && !base.is_empty() && !new.is_empty() {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if -worse > s && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `--compare BASE NEW`: one row per (workload, end-to-end metric).
/// Returns the rendered table and whether anything regressed.
pub fn compare(bench_json: &str, base: &str, new: &str) -> Result<(String, bool), String> {
    let bench = json::parse(bench_json)?;
    let (base, new) = (read_runs(base)?, read_runs(new)?);
    let mut out = format!(
        "{:<11} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    );
    let mut regressed = false;
    for w in WORKLOADS {
        for m in bench.get("end_to_end").map(Value::as_arr).unwrap_or(&[]) {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (b, n) = (values(&base), values(&new));
            if b.is_empty() && n.is_empty() {
                continue;
            }
            let v = verdict(&b, &n, bound, higher);
            regressed |= v == Verdict::Regressed;
            let (mb, mn) = (median(&b), median(&n));
            out.push_str(&format!(
                "{w:<11} {name:<16} {mb:>12.4} {mn:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}\n",
                (mn - mb) / mb.abs().max(f64::MIN_POSITIVE) * 100.0,
                spread(&b) * 100.0,
                bound * 100.0,
                v.name()
            ));
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    #[test]
    fn benchmark_json_validates_against_its_catalogue() {
        validate(&bench_json()).unwrap();
    }

    #[test]
    fn validation_rejects_malformed_files() {
        let good = bench_json();
        assert!(validate(&good.replacen("\"setup_s\"", "\"setup s\"", 1)).is_err());
        assert!(validate(&good.replacen("\"why\"", "\"reason\"", 1)).is_err());
        assert!(validate(&good.replacen("\"run_seconds\": ", "\"run_seconds\": 9", 1)).is_err());
        let dup = good.replacen("\"modules_per_s\"", "\"setup_s\"", 1);
        assert!(validate(&dup).is_err(), "names are used once");
        assert!(validate("{}").is_err());
    }

    #[test]
    fn catalogue_fits_the_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for (n, u, b) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{u}");
            assert!(*b == "lower" || *b == "higher");
        }
        assert!(END_TO_END
            .iter()
            .any(|(n, u, b)| *n == "setup_s" && *u == "s" && *b == "lower"));
        assert!(valid_path("perf") && !valid_path("../x") && !valid_path("/abs"));
    }

    #[test]
    fn verdicts_apply_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&base, &[100.2, 99.8, 100.1], 0.05, false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &[110.0, 111.0, 109.0], 0.05, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.0], 0.05, false),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &[110.0, 111.0], 0.05, true),
            Verdict::Improved
        );
        // A better median without nine wins in ten pairs is no gain.
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 101.0], 0.05, false),
            Verdict::Unchanged
        );
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(
            verdict(&noisy, &[101.0, 99.0], 0.05, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[50.0, 55.0], 0.05, false),
            Verdict::Improved
        );
    }
}
