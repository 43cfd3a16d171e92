//! Goldens for the run-level observation streams, byte for byte where the
//! stream is deterministic:
//!
//! * a fault-injected `batch --jobs 1` over `examples/batch` (retries and
//!   quarantines): its zero-time `--events-out` and `--metrics-out`, its
//!   journal, its `--explain` flight dumps and the trace instants of its
//!   worker lane (timestamps stripped);
//! * a `check` whose channel exhausts the degradation ladder: its events
//!   and trace instants;
//! * a `serve --stdio` session with a cache miss, a cache hit, a warm
//!   session reuse, cache and session evictions and an unparseable line:
//!   its zero-time sinks and its stdout transcript, with each session
//!   event filed under the request that caused it;
//! * a one-worker `sweep`: its merged report, stdout and final counters;
//! * [`ProgressSnapshot::render_line`] for a batch and a sweep snapshot.
//!
//! Bless with `GCATCH_BLESS=1`.

use gcatch_suite::gcatch::ProgressSnapshot;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn gcatch() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gcatch-suite"));
    cmd.env("GCATCH_OBS_ZERO_TIME", "1");
    cmd
}

/// A scratch directory unique to this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcatch-run-golden-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Compares `actual` with `tests/goldens/<name>`, or rewrites the file
/// under `GCATCH_BLESS=1`.
fn golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    if std::env::var_os("GCATCH_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("goldens dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {name} (GCATCH_BLESS=1 to create)"));
    assert!(actual == expected, "{name} moved:\n{actual}");
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The instant events of a Chrome trace, one per line, with their
/// timestamps removed.
fn trace_instants(trace: &str) -> String {
    let mut out = String::new();
    for line in trace.lines().filter(|l| l.contains("\"ph\":\"i\"")) {
        let start = line.find("\"ts\":").expect("instant carries ts");
        let end = start + line[start..].find(',').expect("ts is followed by a field");
        out.push_str(&line[..start]);
        out.push_str(line[end + 1..].trim_end_matches(','));
        out.push('\n');
    }
    out
}

fn assert_exit(out: &std::process::Output, codes: &[i32]) {
    assert!(
        out.status.code().is_some_and(|c| codes.contains(&c)),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fault_injected_batch_streams_match_their_goldens() {
    let dir = scratch("batch");
    let events = dir.join("events.jsonl");
    let metrics = dir.join("metrics.prom");
    let journal = dir.join("journal.jsonl");
    let trace = dir.join("trace.json");
    let out = gcatch()
        .args(["batch", "examples/batch", "--jobs", "1"])
        .args(["--max-attempts", "2", "--backoff-ms", "5"])
        .args(["--inject-faults", "0.3", "--fault-seed", "6", "--explain"])
        .arg("--events-out")
        .arg(&events)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--journal")
        .arg(&journal)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("gcatch batch runs");
    assert_exit(&out, &[1]);
    let events = read(&events);
    assert!(events.contains("\"event\":\"job_retry\""), "{events}");
    assert!(events.contains("\"event\":\"job_quarantined\""), "{events}");
    golden("batch_faults.events.jsonl", &events);
    golden("batch_faults.metrics.prom", &read(&metrics));
    golden("batch_faults.journal.jsonl", &read(&journal));
    golden(
        "batch_faults.explain.txt",
        &String::from_utf8(out.stdout).expect("utf-8 stdout"),
    );
    golden("batch_faults.instants.txt", &trace_instants(&read(&trace)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ladder_exhaustion_streams_match_their_goldens() {
    let dir = scratch("ladder");
    let events = dir.join("events.jsonl");
    let trace = dir.join("trace.json");
    let out = gcatch()
        .args(["check", "examples/figure1.go", "--solver-steps", "10"])
        .args(["--channel-timeout", "60000", "--jobs", "1"])
        .arg("--events-out")
        .arg(&events)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("gcatch check runs");
    assert_exit(&out, &[0]);
    let events = read(&events);
    assert!(
        events.contains("\"event\":\"budget_exhausted\""),
        "{events}"
    );
    golden("ladder.events.jsonl", &events);
    golden("ladder.instants.txt", &trace_instants(&read(&trace)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_session_streams_match_their_goldens() {
    let dir = scratch("serve");
    let figure1 = read(Path::new("examples/figure1.go"));
    std::fs::write(dir.join("m.go"), &figure1).expect("write m.go");
    std::fs::copy("examples/batch/leak_unbuffered.go", dir.join("n.go")).expect("copy n.go");
    let mut daemon = gcatch()
        .current_dir(&dir)
        .args(["serve", "--stdio", "--cache-dir", "cache", "--workers", "1"])
        .args(["--max-cache", "1", "--max-sessions", "1"])
        .args([
            "--events-out",
            "events.jsonl",
            "--metrics-out",
            "metrics.prom",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gcatch serve starts");
    let mut stdin = daemon.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(daemon.stdout.take().expect("stdout"));
    let mut transcript = String::new();
    // Each request waits for the previous response, so which request
    // hits the cache and which session gets evicted is fixed.
    let mut ask = |line: &str, transcript: &mut String| {
        writeln!(stdin, "{line}").expect("write request");
        stdin.flush().expect("flush request");
        let mut response = String::new();
        stdout.read_line(&mut response).expect("read response");
        transcript.push_str(&response);
    };
    ask(
        r#"{"id":"miss","op":"check","module":"m.go"}"#,
        &mut transcript,
    );
    ask(
        r#"{"id":"hit","op":"check","module":"m.go"}"#,
        &mut transcript,
    );
    std::fs::write(dir.join("m.go"), format!("// edited\n{figure1}")).expect("edit m.go");
    ask(
        r#"{"id":"reuse","op":"check","module":"m.go"}"#,
        &mut transcript,
    );
    ask(
        r#"{"id":"other","op":"check","module":"n.go"}"#,
        &mut transcript,
    );
    ask("this is not a request", &mut transcript);
    drop(stdin);
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).expect("drain stdout");
    transcript.push_str(&rest);
    let status = daemon.wait().expect("serve exits");
    assert_eq!(status.code(), Some(0));
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut daemon.stderr.take().unwrap(), &mut stderr)
        .expect("read stderr");
    let events = read(&dir.join("events.jsonl"));
    for kind in [
        "cache_hit",
        "cache_evicted",
        "session_reuse",
        "session_evict",
        "request_failed",
    ] {
        assert!(
            events.contains(&format!("\"event\":\"{kind}\"")),
            "{kind}: {events}"
        );
    }
    // Filtering the stream by request id finds each session event under
    // the request that caused it.
    for (id, kind) in [("reuse", "session_reuse"), ("other", "session_evict")] {
        let (job, event) = (format!("\"job\":\"{id}\""), format!("\"event\":\"{kind}\""));
        assert!(
            events
                .lines()
                .any(|l| l.contains(&job) && l.contains(&event)),
            "{kind} under request {id}: {events}"
        );
    }
    golden("serve_session.transcript.jsonl", &transcript);
    golden("serve_session.stderr.txt", &stderr);
    golden("serve_session.events.jsonl", &events);
    golden(
        "serve_session.metrics.prom",
        &read(&dir.join("metrics.prom")),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_worker_sweep_matches_its_goldens() {
    let dir = scratch("sweep");
    let report = dir.join("report.json");
    let metrics = dir.join("metrics.prom");
    let events = dir.join("events.jsonl");
    let out = gcatch()
        .args([
            "sweep",
            "examples/batch",
            "--workers",
            "1",
            "--lease-ms",
            "10000",
        ])
        .arg("--dir")
        .arg(dir.join("sweep"))
        .arg("--report")
        .arg(&report)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--events-out")
        .arg(&events)
        .output()
        .expect("gcatch sweep runs");
    assert_exit(&out, &[1]);
    golden("sweep_one_worker.report.json", &read(&report));
    golden(
        "sweep_one_worker.stdout.txt",
        &String::from_utf8(out.stdout).expect("utf-8 stdout"),
    );
    golden("sweep_one_worker.metrics.prom", &read(&metrics));
    // Which leases the coordinator sees depends on its poll timing, so the
    // event stream is pinned by its fleet counts and its run frame.
    let events = read(&events);
    let count = |kind: &str| {
        events
            .lines()
            .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
            .count()
    };
    assert_eq!(count("worker_spawned"), 1, "{events}");
    assert_eq!(count("worker_lost"), 0, "{events}");
    assert_eq!(count("job_released"), 0, "{events}");
    assert_eq!(count("job_quarantined"), 0, "{events}");
    assert!(count("job_leased") <= 6, "{events}");
    let run_end = events.lines().last().expect("run_end closes the stream");
    golden(
        "sweep_one_worker.run_end.json",
        &format!("{}\n", &run_end[run_end.find("\"modules\"").unwrap()..]),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_lines_match_their_goldens() {
    let batch = ProgressSnapshot {
        total: 9,
        done: 5,
        resumed: 1,
        retried: 3,
        quarantined: 2,
        p50_ms: 12.4,
        p99_ms: 80.6,
        eta_ms: Some(61_500),
        ..ProgressSnapshot::default()
    };
    let sweep = ProgressSnapshot {
        sweep: true,
        total: 6,
        done: 4,
        quarantined: 1,
        released: 2,
        workers_lost: 1,
        ..ProgressSnapshot::default()
    };
    golden(
        "progress.txt",
        &format!("{}\n{}\n", batch.render_line(), sweep.render_line()),
    );
}
