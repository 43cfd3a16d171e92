//! End-to-end observability contracts: the event stream is byte-identical
//! across worker counts, reports are byte-identical with observability on
//! or off, a quarantined job's whole lifecycle is recoverable from the
//! stream by job id, and `--metrics-out` always writes a parseable
//! exposition.

use std::path::{Path, PathBuf};
use std::process::Command;

fn gcatch() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcatch-suite"))
}

/// A scratch directory unique to this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcatch-obs-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The checked-in batch corpus plus one module that can never parse, so
/// every run exercises the retry → quarantine path.
fn corpus_with_quarantine(dir: &Path) -> PathBuf {
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    for entry in std::fs::read_dir("examples/batch").expect("examples/batch") {
        let p = entry.expect("dir entry").path();
        std::fs::copy(&p, corpus.join(p.file_name().unwrap())).expect("copy module");
    }
    std::fs::write(corpus.join("broken.go"), "func main() {\n  broken((\n}\n")
        .expect("write broken module");
    corpus
}

/// Runs `gcatch batch` over `corpus` under zeroed observability time.
fn run_batch(corpus: &Path, extra: &[&str]) -> std::process::Output {
    let out = gcatch()
        .arg("batch")
        .arg(corpus)
        .args(["--max-attempts", "2"])
        .args(extra)
        .env("GCATCH_OBS_ZERO_TIME", "1")
        .output()
        .expect("gcatch batch runs");
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A sweep's event stream carries the worker-lifecycle kinds (spawn,
/// lease) alongside the run frame, all correlated by one run id — the
/// same contract the batch stream honors, extended to the fleet.
#[test]
fn sweep_event_stream_carries_worker_lifecycle() {
    let dir = scratch("sweep");
    let events = dir.join("events.jsonl");
    let out = gcatch()
        .args([
            "sweep",
            "examples/batch",
            "--workers",
            "2",
            "--events-out",
            events.to_str().unwrap(),
        ])
        .env("GCATCH_OBS_ZERO_TIME", "1")
        .output()
        .expect("gcatch sweep runs");
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stream = std::fs::read_to_string(&events).expect("events file");
    for kind in ["run_start", "worker_spawned", "job_leased", "run_end"] {
        assert!(
            stream.contains(&format!("\"event\":\"{kind}\"")),
            "sweep stream must carry {kind}: {stream}"
        );
    }
    let run_ids: std::collections::BTreeSet<&str> = stream
        .lines()
        .filter_map(|l| l.split("\"run\":\"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert_eq!(run_ids.len(), 1, "one sweep, one run id: {run_ids:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn event_stream_is_byte_identical_across_worker_counts() {
    let dir = scratch("jobs");
    let corpus = corpus_with_quarantine(&dir);
    let mut streams = Vec::new();
    for jobs in ["1", "4"] {
        let events = dir.join(format!("events-{jobs}.jsonl"));
        run_batch(
            &corpus,
            &["--jobs", jobs, "--events-out", events.to_str().unwrap()],
        );
        streams.push(std::fs::read(&events).expect("events file"));
    }
    assert!(!streams[0].is_empty(), "event stream must not be empty");
    assert_eq!(
        streams[0], streams[1],
        "--jobs changed the canonical event stream"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_is_byte_identical_with_observability_on_and_off() {
    let dir = scratch("inert");
    let corpus = corpus_with_quarantine(&dir);
    let plain = dir.join("plain.json");
    let observed = dir.join("observed.json");
    run_batch(&corpus, &["--report", plain.to_str().unwrap()]);
    run_batch(
        &corpus,
        &[
            "--report",
            observed.to_str().unwrap(),
            "--events-out",
            dir.join("e.jsonl").to_str().unwrap(),
            "--metrics-out",
            dir.join("m.prom").to_str().unwrap(),
        ],
    );
    let plain_bytes = std::fs::read(&plain).unwrap();
    assert!(!plain_bytes.is_empty());
    assert_eq!(
        plain_bytes,
        std::fs::read(&observed).unwrap(),
        "observability flags changed the report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantined_job_lifecycle_is_recoverable_by_job_id() {
    let dir = scratch("lifecycle");
    let corpus = corpus_with_quarantine(&dir);
    let events = dir.join("events.jsonl");
    let report = dir.join("report.json");
    run_batch(
        &corpus,
        &[
            "--events-out",
            events.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ],
    );
    let stream = std::fs::read_to_string(&events).expect("events file");
    let broken = corpus.join("broken.go");
    let needle = format!("\"job\":\"{}\"", broken.display());

    // One grep by job id reconstructs the whole lifecycle, in order.
    let lifecycle: Vec<&str> = stream.lines().filter(|l| l.contains(&needle)).collect();
    let kinds: Vec<&str> = lifecycle
        .iter()
        .map(|l| {
            let start = l.find("\"event\":\"").expect("event key") + 9;
            &l[start..start + l[start..].find('"').expect("event close")]
        })
        .collect();
    assert_eq!(
        kinds,
        [
            "attempt_start",
            "attempt_end",
            "job_retry",
            "attempt_start",
            "attempt_end",
            "job_quarantined"
        ],
        "unexpected lifecycle: {lifecycle:#?}"
    );
    // Every event of the stream is one well-formed JSON object with the
    // run id, and the stream is bracketed by run_start/run_end.
    let lines: Vec<&str> = stream.lines().collect();
    assert!(lines[0].contains("\"event\":\"run_start\""));
    assert!(lines.last().unwrap().contains("\"event\":\"run_end\""));
    for line in &lines {
        assert!(line.contains("\"run\":\"r"), "missing run id: {line}");
    }
    // The quarantine incident in the report carries the flight dump.
    let report = std::fs::read_to_string(&report).unwrap();
    assert!(report.contains("\"quarantined\":true"));
    assert!(report.contains("\"flight\":[\"attempt 1: started\""));
    assert!(report.contains("quarantined after 2 attempt(s)"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_mode_writes_deterministic_metrics_and_events() {
    let dir = scratch("check");
    let mut outputs = Vec::new();
    for round in 0..2 {
        let metrics = dir.join(format!("m{round}.prom"));
        let events = dir.join(format!("e{round}.jsonl"));
        let out = gcatch()
            .args([
                "check",
                "examples/figure1.go",
                "--metrics-out",
                metrics.to_str().unwrap(),
                "--events-out",
                events.to_str().unwrap(),
            ])
            .env("GCATCH_OBS_ZERO_TIME", "1")
            .output()
            .expect("gcatch check runs");
        assert_eq!(out.status.code(), Some(1), "figure 1 reports a bug");
        outputs.push((
            std::fs::read(&metrics).expect("metrics file"),
            std::fs::read(&events).expect("events file"),
        ));
    }
    assert_eq!(outputs[0], outputs[1], "check observability is not stable");
    let metrics = String::from_utf8(outputs[0].0.clone()).unwrap();
    assert!(metrics.contains("gcatch_channels_analyzed_total 2\n"));
    let events = String::from_utf8(outputs[0].1.clone()).unwrap();
    assert!(events.contains("\"event\":\"channel_analyzed\""));
    assert!(events.contains("\"channel\":\"outDone\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn observability_flags_are_rejected_outside_their_commands() {
    // `--progress` and the observability file flags are batch/check-level
    // concerns; commands that do not support them must exit 2.
    for args in [
        vec!["check", "examples/figure1.go", "--progress"],
        vec!["fix", "examples/figure1.go", "--metrics-out", "x.prom"],
        vec!["simulate", "examples/figure1.go", "--events-out", "x.jsonl"],
    ] {
        let out = gcatch().args(&args).output().expect("gcatch runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} should be a usage error"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    }
}
