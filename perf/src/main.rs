//! `perf` — the benchmark of the GCatch/GFix reproduction.
//!
//! ```console
//! $ cargo run --release --manifest-path perf/Cargo.toml -- --seed 2026
//! $ cargo run --release --manifest-path perf/Cargo.toml -- --workload probe --seconds 20
//! $ cargo run --release --manifest-path perf/Cargo.toml -- --workload fix --trace 1
//! $ cargo run --release --manifest-path perf/Cargo.toml -- --smoke
//! $ cargo run --release --manifest-path perf/Cargo.toml -- --compare base.jsonl new.jsonl
//! ```
//!
//! Run from the repository root. The untraced run builds the shipped
//! `gcatch-suite` binary and drives every operation through it; `--trace
//! 1` runs the same operations in process with a span around each layer.
//! The last line of standard output is the JSON result of the (last)
//! workload; the exit code is 1 when any answer was wrong.

mod check;
mod child;
mod e2e;
mod inputs;
mod json;
mod spec;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perf [--workload corpus|probe|serve_edit|fix|all] [--seed N] \
[--seconds S] [--trace 0|1 | --traced] [--smoke] [--out FILE]\n       perf --compare BASE.jsonl NEW.jsonl";

/// Seconds per interleaving slice; every workload gets one per round.
const SLICE_SECS: f64 = 5.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The tail percentile each workload reports: the highest of
/// p99/p95/p90/p80 that leaves at least ten samples beyond it at the
/// fewest samples the quieter half of a 20 s run held while the baseline
/// was measured.
fn tail_percentile(workload: &str) -> u32 {
    match workload {
        "serve_edit" => 95,
        _ => 80,
    }
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: spec::WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 2026,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                a.workloads = if w == "all" {
                    spec::WORKLOADS.iter().map(|w| w.to_string()).collect()
                } else if spec::WORKLOADS.contains(&w.as_str()) {
                    vec![w]
                } else {
                    return Err(format!("unknown workload `{w}`"));
                };
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                }
            }
            "--traced" => a.trace = true,
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value("--out")?),
            "--compare" => a.compare = Some((value("--compare")?, value("--compare")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(a)
}

/// Builds the shipped binary from the checkout in the working directory
/// and returns its path.
fn build_binary() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/main.rs").is_file() {
        return Err("run from the repository root: no Cargo.toml / src/main.rs here".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    eprintln!("perf: building gcatch-suite (release)");
    let status = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--bin",
            "gcatch-suite",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building gcatch-suite failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("gcatch-suite");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// One workload's result line, in the benchmark's output format.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::quote(name, &mut out);
        out.push_str(&format!(": {{\"value\": {v}, \"unit\": "));
        json::quote(spec::unit_of(name), &mut out);
        out.push('}');
    }
    out.push_str("}}");
    out
}

fn append_out(
    path: &str,
    workload: &str,
    seed: u64,
    trace: bool,
    result: &str,
) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut line = String::from("{\"workload\": ");
    json::quote(workload, &mut line);
    line.push_str(&format!(
        ", \"seed\": {seed}, \"trace\": {}, \"result\": {result}}}\n",
        u8::from(trace)
    ));
    f.write_all(line.as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Whether a metric goes into the result line: every end-to-end metric
/// of an untraced run, the `per_layer` catalogue of a traced one.
fn in_result_line(name: &str, traced: bool) -> bool {
    !traced || spec::PER_LAYER.iter().any(|m| m.0 == name)
}

/// A finished workload, ready to print.
struct Report {
    workload: String,
    rows: Vec<(&'static str, f64, String)>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

fn untraced(a: &Args, bin: &Path, work: &Path) -> Vec<Report> {
    let seconds = a.seconds.unwrap_or(if a.smoke { 2.0 } else { 30.0 });
    let slice = if a.smoke { 1.0 } else { SLICE_SECS };
    let slices = ((seconds / slice).round() as usize).max(1);
    let ctx = e2e::Ctx {
        bin: bin.to_path_buf(),
        work: work.to_path_buf(),
        seed: a.seed,
        smoke: a.smoke,
    };
    let mut workloads: Vec<Box<dyn e2e::Workload>> = a
        .workloads
        .iter()
        .map(|w| -> Box<dyn e2e::Workload> {
            match w.as_str() {
                "corpus" => Box::new(e2e::Corpus::new()),
                "probe" => Box::new(e2e::Probe::new()),
                "serve_edit" => Box::new(e2e::ServeEdit::new()),
                _ => Box::new(e2e::Fix::new()),
            }
        })
        .collect();
    let setups = if a.smoke { 1 } else { SETUPS };
    let recs = e2e::run(
        &ctx,
        &mut workloads,
        setups,
        slices,
        Duration::from_secs_f64(seconds / slices as f64),
    );
    a.workloads
        .iter()
        .zip(recs)
        .map(|(w, r)| {
            let p = tail_percentile(w);
            let q = r.quiet();
            let n = q.len();
            let of = format!("n={n} of {}", r.attempted);
            let rows = vec![
                (
                    "setup_s",
                    stats::median(&r.setups),
                    format!("n={}", r.setups.len()),
                ),
                ("modules_per_s", q.modules_per_s(), of.clone()),
                ("latency_p50_ms", q.p50_ms(), of.clone()),
                (
                    "latency_tail_ms",
                    q.tail_ms(p),
                    if stats::tail_percentile(n).is_some_and(|t| t >= p) {
                        format!("p{p}, {of}")
                    } else {
                        format!("p{p}, {of}: fewer than 10 samples beyond")
                    },
                ),
                (
                    "peak_rss_mb",
                    stats::median(
                        &r.rss_kib
                            .iter()
                            .map(|&k| k as f64 / 1024.0)
                            .collect::<Vec<_>>(),
                    ),
                    format!("n={}", r.rss_kib.len()),
                ),
            ];
            Report {
                workload: w.clone(),
                rows,
                attempted: r.attempted,
                failed: r.failed,
                errors: r.errors,
            }
        })
        .collect()
}

fn traced_reports(a: &Args, bin: Option<&Path>, work: &Path) -> Vec<Report> {
    let mut reports = Vec::new();
    for w in &a.workloads {
        let settings = traced::Settings {
            seed: a.seed,
            smoke: a.smoke,
            seconds: a.seconds.unwrap_or(if a.smoke { 1.0 } else { 10.0 }),
            work,
            bin,
        };
        eprintln!("perf: traced {w}");
        let report = match traced::run(w, &settings) {
            Ok(o) => {
                let dir = Path::new(".perf_out");
                let spans = dir.join(format!("spans-{w}.json"));
                if let Err(e) = std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&spans, &o.spans_json))
                {
                    eprintln!("perf: cannot write {}: {e}", spans.display());
                }
                let rows = o
                    .metrics
                    .iter()
                    .map(|(k, v)| {
                        let note = if in_result_line(k, true) {
                            ""
                        } else {
                            "table only"
                        };
                        (*k, *v, note.to_string())
                    })
                    .collect();
                Report {
                    workload: w.clone(),
                    rows,
                    attempted: o.attempted,
                    failed: o.failed,
                    errors: o.errors,
                }
            }
            Err(e) => Report {
                workload: w.clone(),
                rows: Vec::new(),
                attempted: 0,
                failed: 0,
                errors: vec![e],
            },
        };
        reports.push(report);
    }
    reports
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some(child::RSS_FLAG) {
        return child::rss_main(&args[2..]);
    }
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &a.compare {
        let bench = match std::fs::read_to_string("BENCHMARK.json") {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perf: cannot read BENCHMARK.json: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = spec::validate(&bench) {
            eprintln!("perf: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
        return match spec::compare(&bench, base, new) {
            Ok((table, regressed)) => {
                print!("{table}");
                ExitCode::from(u8::from(regressed))
            }
            Err(e) => {
                eprintln!("perf: {e}");
                ExitCode::from(2)
            }
        };
    }
    let bin = match build_binary() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perf_work");
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perf: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let reports = if a.trace {
        traced_reports(&a, Some(&bin), &work)
    } else {
        untraced(&a, &bin, &work)
    };
    let _ = std::fs::remove_dir_all(&work);

    let mut all_ok = true;
    let mut lines = Vec::new();
    for r in &reports {
        let correct = r.failed == 0 && r.errors.is_empty() && r.attempted > 0;
        all_ok &= correct;
        println!(
            "{}: {} op(s), {} failed, {}",
            r.workload,
            r.attempted,
            r.failed,
            if correct { "correct" } else { "WRONG" }
        );
        for e in &r.errors {
            println!("  error: {e}");
        }
        for (name, v, note) in &r.rows {
            println!("  {name:<30} {v:>14.4} {:<6} {note}", spec::unit_of(name));
        }
        let metrics: Vec<(&str, f64)> = r
            .rows
            .iter()
            .filter(|(n, _, _)| in_result_line(n, a.trace))
            .map(|(n, v, _)| (*n, *v))
            .collect();
        let line = result_json(correct, r.attempted, r.failed, &metrics);
        if let Some(out) = &a.out {
            if let Err(e) = append_out(out, &r.workload, a.seed, a.trace, &line) {
                eprintln!("perf: {e}");
            }
        }
        lines.push(line);
    }
    for line in lines {
        println!("{line}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload's correctness check, in process, at smoke scale.
    #[test]
    fn smoke_traced_run_checks_every_workload() {
        let work = std::env::temp_dir().join(format!("perf-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        for w in spec::WORKLOADS {
            let s = traced::Settings {
                seed: 2026,
                smoke: true,
                seconds: 0.5,
                work: &work,
                bin: None,
            };
            let o = traced::run(w, &s).unwrap();
            assert!(o.errors.is_empty(), "{w}: {:?}", o.errors);
            assert!(o.attempted > 0, "{w}");
            for (name, _, _) in spec::PER_LAYER {
                assert!(o.metrics.contains_key(name), "{w}: {name} missing");
            }
            assert!(o.metrics["op.traced_ms"] > 0.0, "{w}");
        }
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn result_line_has_the_benchmark_shape() {
        let line = result_json(true, 3, 0, &[("setup_s", 0.25), ("latency_p50_ms", 1.5)]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn tail_percentiles_leave_ten_samples_at_the_baseline_minimum() {
        // Fewest samples the quieter half of a 20 s run held per workload
        // while the baseline was measured.
        for (w, min) in [
            ("corpus", 55),
            ("probe", 59),
            ("serve_edit", 228),
            ("fix", 99),
        ] {
            let p = tail_percentile(w);
            assert!(stats::tail_percentile(min).is_some_and(|q| q >= p), "{w}");
        }
    }
}
