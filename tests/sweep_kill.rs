//! Chaos drills for `gcatch sweep`: SIGKILL a live worker mid-job,
//! suppress heartbeats and lease renewals, and assert that the merged
//! report stays byte-identical to a single-process `gcatch batch` run —
//! with every killed worker's jobs re-leased and zero decisions lost or
//! duplicated in the output.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn gcatch() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcatch-suite"))
}

/// A scratch directory unique to this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcatch-sweep-it-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The checked-in batch corpus, relative to the workspace root the test
/// binary runs from.
fn corpus() -> &'static str {
    "examples/batch"
}

/// The single-process reference report every sweep must reproduce
/// byte-for-byte, in the default configuration.
fn batch_reference(inputs: &[&str], report: &Path) {
    let out = gcatch()
        .args(["batch", "--report", report.to_str().unwrap()])
        .args(inputs)
        .output()
        .expect("gcatch batch runs");
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The pids of the live children of process `pid` (the sweep's worker
/// fleet), from `/proc/<pid>/task/*/children`.
fn children(pid: u32) -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("children")).ok())
        .flat_map(|list| {
            list.split_whitespace()
                .filter_map(|p| p.parse().ok())
                .collect::<Vec<u32>>()
        })
        .collect()
}

/// Waits until the sweep `pid` running in `sweep_dir` has started `n`
/// workers (each worker creates its journal before it reads its first
/// assignment), then returns the sweep's child pids.
fn started_workers(pid: u32, sweep_dir: &Path, n: usize) -> Vec<u32> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "workers never started");
        let started = (0..n).all(|w| sweep_dir.join(format!("journals/w{w}.jsonl")).exists());
        let pids = children(pid);
        if started && !pids.is_empty() {
            return pids;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The entries of a sweep directory, sorted.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("sweep dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn read_counter(metrics: &Path, name: &str) -> u64 {
    let text = std::fs::read_to_string(metrics).expect("metrics file");
    text.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} not found in {}", metrics.display()))
}

/// SIGKILL drill: start a sweep whose jobs are slowed by injected
/// `batch.delay` faults (report-neutral), SIGKILL the first live worker
/// we can find mid-job, and assert the coordinator re-leases its jobs,
/// the sweep completes, and the merged report is byte-identical to an
/// uninterrupted single-process batch run.
#[test]
fn sigkilled_worker_jobs_are_released_and_the_report_is_unchanged() {
    let dir = scratch("kill");
    let reference = dir.join("reference.json");
    batch_reference(&[corpus()], &reference);

    let sweep_dir = dir.join("sweep");
    let report = dir.join("sweep.json");
    let metrics = dir.join("metrics.prom");
    let mut child = gcatch()
        .args([
            "sweep",
            corpus(),
            "--workers",
            "2",
            "--lease-ms",
            "200",
            "--dir",
            sweep_dir.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        // Delay-only faults: every job attempt sleeps 300 ms but decides
        // identically, giving us a window to SIGKILL a busy worker.
        .env("GCATCH_FAULT_RATE", "1.0")
        .env("GCATCH_FAULT_SITES", "batch.delay")
        .env("GCATCH_FAULT_DELAY_MS", "300")
        .spawn()
        .expect("sweep starts");

    // Once both initial workers are up — the coordinator hands each its
    // first job as soon as the fleet is spawned, and every job sleeps
    // 300 ms — SIGKILL one of the sweep's children mid-job: no signal
    // handler can run, exactly like an OOM kill.
    let victim = started_workers(child.id(), &sweep_dir, 2)[0];
    let out = Command::new("kill")
        .args(["-9", &victim.to_string()])
        .output()
        .expect("kill runs");
    assert!(
        out.status.success(),
        "worker {victim} was not alive to SIGKILL"
    );

    let status = child.wait().expect("sweep finishes");
    assert_eq!(status.code(), Some(1), "corpus has bugs: sweep exits 1");

    let reference_bytes = std::fs::read(&reference).unwrap();
    let sweep_bytes = std::fs::read(&report).unwrap();
    assert!(!reference_bytes.is_empty());
    assert_eq!(
        reference_bytes, sweep_bytes,
        "SIGKILL changed the merged report"
    );
    assert!(
        read_counter(&metrics, "gcatch_workers_lost_total") >= 1,
        "the killed worker must be declared lost"
    );
    assert!(
        read_counter(&metrics, "gcatch_jobs_releases_total") >= 1,
        "the killed worker's job must be re-leased"
    );
    assert!(
        read_counter(&metrics, "gcatch_workers_spawned_total") >= 3,
        "a replacement worker must be spawned"
    );
    assert_eq!(entries(&sweep_dir), ["journals", "manifest"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Duplicate-decision drill: `sweep.lease` at rate 1.0 stops every claim
/// from renewing, and `batch.delay` makes each job outlive its lease, so
/// the job is re-leased to a second worker while the first keeps working.
/// Both decide; the merge must keep exactly one record (the report stays
/// byte-identical) and surface the duplicate as a warning.
#[test]
fn duplicate_decisions_keep_one_record_and_surface_an_incident() {
    let dir = scratch("dup");
    let module = "examples/batch/leak_unbuffered.go";
    let reference = dir.join("reference.json");
    batch_reference(&[module], &reference);

    let report = dir.join("sweep.json");
    let out = gcatch()
        .args([
            "sweep",
            module,
            "--workers",
            "2",
            "--lease-ms",
            "100",
            // A generous re-lease budget: this drill is about duplicate
            // decisions, not the quarantine path.
            "--max-releases",
            "10",
            "--report",
            report.to_str().unwrap(),
        ])
        .env("GCATCH_FAULT_RATE", "1.0")
        .env("GCATCH_FAULT_SITES", "sweep.lease,batch.delay")
        .env("GCATCH_FAULT_DELAY_MS", "400")
        .output()
        .expect("sweep runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "module has a bug: sweep exits 1 (stderr: {})",
        String::from_utf8_lossy(&out.stderr)
    );

    let reference_bytes = std::fs::read(&reference).unwrap();
    let sweep_bytes = std::fs::read(&report).unwrap();
    assert_eq!(
        reference_bytes, sweep_bytes,
        "a duplicate decision corrupted the report"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("duplicate decision for examples/batch/leak_unbuffered.go"),
        "duplicate must surface on stderr, got: {stderr}"
    );
    assert!(
        stderr.contains("all decisions agreed"),
        "both decisions are pure functions of the module, got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Heartbeat drill: `sweep.heartbeat` at rate 1.0 makes every worker
/// live-but-silent, so the coordinator must cull and replace the fleet on
/// staleness alone — and the sweep still converges to the exact
/// single-process report.
#[test]
fn silent_workers_are_culled_and_the_sweep_still_converges() {
    let dir = scratch("hb");
    let reference = dir.join("reference.json");
    batch_reference(&[corpus()], &reference);

    let report = dir.join("sweep.json");
    let metrics = dir.join("metrics.prom");
    let out = gcatch()
        .args([
            "sweep",
            corpus(),
            "--workers",
            "2",
            "--lease-ms",
            "150",
            "--report",
            report.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .env("GCATCH_FAULT_RATE", "1.0")
        .env("GCATCH_FAULT_SITES", "sweep.heartbeat,batch.delay")
        .env("GCATCH_FAULT_DELAY_MS", "250")
        .output()
        .expect("sweep runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&report).unwrap(),
        "heartbeat suppression changed the merged report"
    );
    assert!(
        read_counter(&metrics, "gcatch_workers_lost_total") >= 1,
        "silent workers must be culled"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Quarantine drill: `sweep.worker` at rate 1.0 kills every claimant, so
/// the job burns through its re-lease budget and the coordinator must
/// quarantine it with the full lease history attached — and terminate
/// rather than re-lease forever.
#[test]
fn release_cap_quarantines_with_the_coordinator_postmortem() {
    let dir = scratch("cap");
    let module = "examples/batch/leak_unbuffered.go";
    let report = dir.join("sweep.json");
    let out = gcatch()
        .args([
            "sweep",
            module,
            "--workers",
            "2",
            "--lease-ms",
            "200",
            "--max-releases",
            "2",
            "--strict",
            "--report",
            report.to_str().unwrap(),
        ])
        .env("GCATCH_FAULT_RATE", "1.0")
        .env("GCATCH_FAULT_SITES", "sweep.worker")
        .output()
        .expect("sweep runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "--strict + quarantine exits 2, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&report).unwrap();
    assert!(
        report.contains("\"quarantined\":true"),
        "job must be quarantined: {report}"
    );
    assert!(
        report.contains("re-lease budget 2"),
        "quarantine message names the budget: {report}"
    );
    assert!(
        report.contains("lost while holding lease"),
        "the coordinator's flight recorder rides along: {report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Fleet-size determinism: the merged report is byte-identical across
/// `--workers 1` and `--workers 4` (and to single-process batch), because
/// each decision is a pure function of its module.
#[test]
fn report_is_identical_across_fleet_sizes() {
    let dir = scratch("sizes");
    let reference = dir.join("reference.json");
    batch_reference(&[corpus()], &reference);
    let reference_bytes = std::fs::read(&reference).unwrap();

    for workers in ["1", "4"] {
        let report = dir.join(format!("sweep-{workers}.json"));
        let out = gcatch()
            .args([
                "sweep",
                corpus(),
                "--workers",
                workers,
                "--report",
                report.to_str().unwrap(),
            ])
            .output()
            .expect("sweep runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            reference_bytes,
            std::fs::read(&report).unwrap(),
            "--workers {workers} diverged from single-process batch"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Usage errors exit 2 before any worker spawns.
#[test]
fn sweep_usage_errors_exit_2() {
    for args in [
        vec!["sweep"],
        vec!["sweep", "--workers", "0", "examples/batch"],
        vec!["sweep", "--bogus-flag", "examples/batch"],
        vec!["sweep", "--fault-seed", "3", "examples/batch"],
        vec!["worker", "--id", "w0"],
        vec!["worker", "--dir", "/nonexistent-gcatch", "--id", "w0"],
    ] {
        let out = gcatch().args(&args).output().expect("gcatch runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
    }
}

/// SIGTERM drill: interrupt a live sweep coordinator mid-run. The
/// coordinator must close its workers' stdin, let them finish their
/// current job, merge every decided job into the report, name the
/// undecided ones, and exit 130 — leaving no orphan workers behind and
/// nothing in its directory but the manifest and the journals.
#[test]
fn sigterm_interrupts_the_sweep_cleanly_with_partial_results() {
    let dir = scratch("term");
    let sweep_dir = dir.join("sweep");
    let report = dir.join("sweep.json");
    let mut child = gcatch()
        .args([
            "sweep",
            corpus(),
            "--workers",
            "2",
            "--dir",
            sweep_dir.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ])
        // Delay-only faults slow every job down so the interrupt lands
        // while most of the corpus is still undecided.
        .env("GCATCH_FAULT_RATE", "1.0")
        .env("GCATCH_FAULT_SITES", "batch.delay")
        .env("GCATCH_FAULT_DELAY_MS", "400")
        .stderr(Stdio::piped())
        .spawn()
        .expect("sweep starts");

    // Wait for the fleet to be running its first jobs, then SIGTERM the
    // coordinator.
    let worker_pids = started_workers(child.id(), &sweep_dir, 2);
    let out = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .output()
        .expect("kill runs");
    assert!(out.status.success(), "SIGTERM delivered");

    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .expect("stderr read");
    let status = child.wait().expect("sweep exits");
    assert_eq!(
        status.code(),
        Some(130),
        "interrupted sweep exits 130 (stderr: {stderr})"
    );

    // The decided jobs are merged into the report; the undecided ones are
    // named on stderr, one per line after the summary.
    let summary = stderr
        .lines()
        .position(|l| l.contains("sweep interrupted"))
        .unwrap_or_else(|| panic!("no interrupt summary: {stderr}"));
    let counts: Vec<usize> = stderr
        .lines()
        .nth(summary)
        .unwrap()
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|n| n.parse().ok())
        .collect();
    let &[decided, undecided] = counts.as_slice() else {
        panic!("summary carries two counts: {stderr}");
    };
    assert!(decided >= 1, "the jobs in flight finish: {stderr}");
    assert_eq!(decided + undecided, 6, "{stderr}");
    let report = std::fs::read_to_string(&report).expect("report written");
    assert_eq!(report.matches("{\"module\":").count(), decided, "{report}");
    let listed: Vec<&str> = stderr.lines().skip(summary + 1).collect();
    assert_eq!(listed.len(), undecided, "{stderr}");
    for line in listed {
        let module = line.trim();
        assert!(module.starts_with("examples/batch/"), "{stderr}");
        assert!(
            !report.contains(module),
            "{module} is decided and undecided"
        );
    }

    // No orphans: every worker the coordinator had spawned is gone.
    for pid in &worker_pids {
        let gone = Command::new("kill")
            .args(["-0", &pid.to_string()])
            .output()
            .expect("kill -0 runs");
        assert!(
            !gone.status.success(),
            "worker {pid} still alive after coordinator exit"
        );
    }
    assert_eq!(entries(&sweep_dir), ["journals", "manifest"]);
    std::fs::remove_dir_all(&dir).ok();
}
