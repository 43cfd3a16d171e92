//! End-to-end resilience tests for `gcatch batch`: fault injection must
//! not change the merged report, and a killed run must resume from its
//! checkpoint journal to a byte-identical result.

use std::path::{Path, PathBuf};
use std::process::Command;

fn gcatch() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcatch-suite"))
}

/// A scratch directory unique to this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcatch-batch-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The checked-in batch corpus, relative to the workspace root the test
/// binary runs from.
fn corpus() -> &'static str {
    "examples/batch"
}

fn run_report(args: &[&str], report: &Path) -> std::process::Output {
    let out = gcatch()
        .args(["batch", corpus(), "--report", report.to_str().unwrap()])
        .args(args)
        .output()
        .expect("gcatch batch runs");
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn fault_injection_does_not_change_the_merged_report() {
    let dir = scratch("faults");
    let clean = dir.join("clean.json");
    let faulty = dir.join("faulty.json");
    run_report(&[], &clean);
    run_report(&["--inject-faults", "0.3", "--fault-seed", "7"], &faulty);
    let clean_bytes = std::fs::read(&clean).unwrap();
    let faulty_bytes = std::fs::read(&faulty).unwrap();
    assert!(
        !clean_bytes.is_empty(),
        "faultless report must not be empty"
    );
    assert_eq!(
        clean_bytes, faulty_bytes,
        "injected faults leaked into the report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_journal_resumes_to_a_byte_identical_report() {
    let dir = scratch("resume");
    let clean = dir.join("clean.json");
    let journal = dir.join("run.jsonl");
    let resumed = dir.join("resumed.json");
    run_report(&[], &clean);

    // A full faulted run writing a journal...
    let full = dir.join("full.json");
    run_report(
        &[
            "--inject-faults",
            "0.3",
            "--fault-seed",
            "7",
            "--journal",
            journal.to_str().unwrap(),
        ],
        &full,
    );
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert!(lines.len() >= 4, "journal has a header and decided jobs");

    // ...killed mid-write: keep the header, two decided jobs, and half of
    // the third record (a torn line, as a real crash leaves behind).
    let mut torn = String::new();
    torn.push_str(lines[0]);
    torn.push_str(lines[1]);
    torn.push_str(lines[2]);
    torn.push_str(&lines[3][..lines[3].len() / 2]);
    std::fs::write(&journal, torn).unwrap();

    let out = gcatch()
        .args([
            "batch",
            corpus(),
            "--inject-faults",
            "0.3",
            "--fault-seed",
            "7",
            "--resume",
            journal.to_str().unwrap(),
            "--report",
            resumed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 resumed"), "stdout: {stdout}");

    assert_eq!(
        std::fs::read(&clean).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resumed report differs from the uninterrupted faultless run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_journal_for_a_different_job_set() {
    let dir = scratch("refuse");
    let journal = dir.join("other.jsonl");
    std::fs::write(
        &journal,
        "{\"gcatch_batch_journal\":1,\"jobs\":1,\"fingerprint\":\"0000000000000000\"}\n",
    )
    .unwrap();
    let out = gcatch()
        .args(["batch", corpus(), "--resume", journal.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different job set"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_and_resume_flags_are_mutually_exclusive() {
    let out = gcatch()
        .args(["batch", corpus(), "--journal", "a", "--resume", "b"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "stderr: {stderr}");
}

#[test]
fn quarantined_module_is_reported_and_strict_exits_2() {
    let dir = scratch("quarantine");
    let broken = dir.join("broken.go");
    std::fs::write(&broken, "package main\nfunc main( {\n").unwrap();
    let good = dir.join("good.go");
    std::fs::write(
        &good,
        "package main\nfunc main() {\n ch := make(chan int, 1)\n ch <- 1\n}\n",
    )
    .unwrap();
    let out = gcatch()
        .args([
            "batch",
            broken.to_str().unwrap(),
            good.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "quarantine is not fatal");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"quarantined\":true"), "stdout: {stdout}");
    assert!(stdout.contains("\"quarantined\":1"), "stdout: {stdout}");

    let strict = gcatch()
        .args([
            "batch",
            broken.to_str().unwrap(),
            good.to_str().unwrap(),
            "--strict",
        ])
        .output()
        .unwrap();
    assert_eq!(
        strict.status.code(),
        Some(2),
        "--strict escalates quarantined jobs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_garbage_line_between_records_is_dropped_and_healed_on_resume() {
    let dir = scratch("garbage");
    let clean = dir.join("clean.json");
    let journal = dir.join("run.jsonl");
    let resumed = dir.join("resumed.json");
    run_report(&["--journal", journal.to_str().unwrap()], &clean);
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert!(lines.len() >= 4, "journal has a header and decided jobs");

    // The header, a record, one complete line of garbage, then a second
    // record: the garbage must not hide the record after it.
    let garbage = "{\"job\":\"not a record\n";
    let damaged = [lines[0], lines[1], garbage, lines[2]].concat();
    std::fs::write(&journal, &damaged).unwrap();

    let out = gcatch()
        .args([
            "batch",
            corpus(),
            "--resume",
            journal.to_str().unwrap(),
            "--report",
            resumed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 resumed"), "stdout: {stdout}");
    assert_eq!(
        std::fs::read(&clean).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resumed report differs from the uninterrupted run"
    );

    // Healed: the garbage is gone, both restored records and every job
    // decided since are there, each line once.
    let healed = std::fs::read_to_string(&journal).unwrap();
    assert!(!healed.contains(garbage), "healed journal:\n{healed}");
    assert!(healed.starts_with(lines[0]));
    assert!(healed.contains(lines[1]) && healed.contains(lines[2]));
    assert_eq!(
        healed.lines().count(),
        lines.len(),
        "healed journal:\n{healed}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
