//! Integration tests for the `gcatch` CLI binary.

use std::process::Command;

fn gcatch() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcatch-suite"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("gcatch-cli-{name}-{}.go", std::process::id()));
    std::fs::write(&path, contents).expect("temp file written");
    path
}

const BUGGY: &str = r#"
package main

func main() {
    done := make(chan int)
    quit := make(chan int, 1)
    quit <- 1
    go func() {
        done <- 1
    }()
    select {
    case <-done:
    case <-quit:
    }
}
"#;

const CLEAN: &str = r#"
package main

func main() {
    ch := make(chan int)
    go func() {
        ch <- 1
    }()
    <-ch
}
"#;

#[test]
fn check_reports_bugs_with_exit_1() {
    let path = write_temp("check-buggy", BUGGY);
    let out = gcatch()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("BMOC-C"), "stdout: {stdout}");
    assert!(stdout.contains("done"), "stdout: {stdout}");
    std::fs::remove_file(path).ok();
}

/// A goroutine whose root function (`relay`) calls the function that holds
/// the blocking send (`worker`).
const RELAY: &str = r#"
package main

func worker(ch chan int) {
    ch <- 1
}

func relay(ch chan int) {
    worker(ch)
}

func main() {
    ch := make(chan int)
    go relay(ch)
}
"#;

#[test]
fn blocked_ops_name_the_function_that_holds_them() {
    let path = write_temp("check-relay", RELAY);
    let text = gcatch()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(text.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(
        stdout.contains("blocked: send on ch at 5:5 in worker\n"),
        "stdout: {stdout}"
    );
    let json = gcatch()
        .args(["check", "--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(json.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(
        stdout.contains(r#""ops":[{"what":"send on ch","func":"worker","span":"5:5"}]"#),
        "stdout: {stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn check_clean_program_exits_0() {
    let path = write_temp("check-clean", CLEAN);
    let out = gcatch()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn fix_prints_a_strategy1_diff() {
    let path = write_temp("fix-buggy", BUGGY);
    let out = gcatch()
        .args(["fix", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[S-I]"), "stdout: {stdout}");
    assert!(stdout.contains("make(chan int, 1)"), "stdout: {stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn fix_write_applies_the_patch() {
    let path = write_temp("fix-write", BUGGY);
    let out = gcatch()
        .args(["fix", "--write", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let patched = std::fs::read_to_string(&path).unwrap();
    assert!(
        patched.contains("done := make(chan int, 1)"),
        "patched:\n{patched}"
    );
    // The patched file must now be clean.
    let out = gcatch()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn fix_write_keeps_non_ascii_string_literals() {
    let path = write_temp(
        "fix-utf8",
        "package main\n\nfunc main() {\n\tdone := make(chan int)\n\tgo func() {\n\
         \t\tfmt.Println(\"café\")\n\t\tdone <- 1\n\t}()\n}\n",
    );
    let out = gcatch()
        .args(["fix", "--write", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let patched = std::fs::read_to_string(&path).unwrap();
    assert!(
        patched.contains("done := make(chan int, 1)") && patched.contains("fmt.Println(\"café\")"),
        "patched:\n{patched}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn a_nul_byte_is_an_error_not_the_end_of_the_source() {
    let path = write_temp("nul", "func main() {}\0func broken() { x = }\n");
    let out = gcatch()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        !out.stderr.contains(&0),
        "the message holds no raw NUL byte"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("parse error at 1:15: unexpected character `\\0`"),
        "stderr: {stderr}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn simulate_counts_blocked_schedules() {
    let path = write_temp("simulate", BUGGY);
    let out = gcatch()
        .args(["simulate", path.to_str().unwrap(), "--seeds", "40"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("blocked"), "stdout: {stdout}");
    assert!(
        stdout.contains("example blocked schedule"),
        "stdout: {stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn extended_detects_send_on_closed() {
    let src = r#"
package main

func main() {
    ch := make(chan int, 1)
    go func() {
        ch <- 1
    }()
    close(ch)
}
"#;
    let path = write_temp("extended", src);
    let out = gcatch()
        .args(["extended", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SendOnClosed"), "stdout: {stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn extended_labels_panicking_operations_op_not_blocked() {
    let out = gcatch()
        .args(["extended", "examples/send_on_closed.go"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("  op: send on "), "stdout: {stdout}");
    assert!(!stdout.contains("blocked:"), "stdout: {stdout}");
}

#[test]
fn explain_words_solver_queries_by_kind() {
    // Send-on-closed asks (send, close) pair queries, BMOC blocking-group
    // queries; --explain names each by what it asked.
    let out = gcatch()
        .args(["extended", "--explain", "examples/send_on_closed.go"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(" pair(s) checked;"), "stdout: {stdout}");
    assert!(!stdout.contains("group(s) checked"), "stdout: {stdout}");
    let out = gcatch()
        .args(["check", "--explain", "examples/figure1.go"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(" group(s) checked;"), "stdout: {stdout}");
    assert!(!stdout.contains("pair(s) checked"), "stdout: {stdout}");
}

#[test]
fn usage_errors_exit_2() {
    let out = gcatch().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = gcatch().args(["bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = gcatch()
        .args(["check", "/nonexistent/x.go"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flags_are_rejected_with_exit_2() {
    let path = write_temp("unknown-flag", CLEAN);
    for args in [
        vec!["check", "--frobnicate"],
        vec!["check", "--write"], // a fix flag, not a check flag
        vec!["fix", "--json"],    // a check flag, not a fix flag
        vec!["simulate", "--jobs", "2"],
        vec!["simulate", "--trace", "/tmp/t.json"], // tracing is check/fix/extended only
        vec!["simulate", "--explain"],
        vec!["extended", "--only", "bmoc"],
        // The budget flags belong to check/extended only.
        vec!["fix", "--strict"],
        vec!["fix", "--timeout", "1"],
        vec!["simulate", "--timeout", "1"],
        vec!["simulate", "--channel-timeout", "5"],
        vec!["simulate", "--strict"],
        vec!["fix", "--solver-steps", "10"],
        vec!["simulate", "--step-pool", "100"],
        // Solver strategy, alias scheduling and encoding sharing never
        // change a report, so no command takes them as flags.
        vec!["check", "--solver-mode", "fresh"],
        vec!["batch", "--alias-mode", "eager"],
        vec!["serve", "--no-share-encodings"],
        // Batch decides each job in one loop; there is no second dispatch
        // to tune or turn off.
        vec!["batch", "--no-hedge"],
        vec!["batch", "--hedge-ms", "5"],
    ] {
        let mut full = args.clone();
        let p = path.to_str().unwrap();
        full.push(p);
        let out = gcatch().args(&full).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} should be rejected"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag"),
            "stderr for {args:?}: {stderr}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn check_json_emits_structured_diagnostics() {
    let path = write_temp("check-json", BUGGY);
    let out = gcatch()
        .args(["check", "--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("{\"version\":1,\"diagnostics\":["),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("\"id\":\"GC-"), "stdout: {stdout}");
    assert!(stdout.contains("\"checker\":\"bmoc\""), "stdout: {stdout}");
    assert!(
        stdout.contains("\"severity\":\"error\""),
        "stdout: {stdout}"
    );
    assert!(
        !stdout.contains("\"stats\""),
        "no stats unless --stats: {stdout}"
    );

    let out = gcatch()
        .args(["check", "--json", "--stats", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"stats\":{\"counters\":{"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("\"solver_queries\":"), "stdout: {stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn check_only_and_skip_select_checkers() {
    let path = write_temp("check-only", BUGGY);
    let p = path.to_str().unwrap();
    // The bug is BMOC-only, so skipping bmoc makes the run clean...
    let out = gcatch()
        .args(["check", "--skip", "bmoc", p])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // ...and selecting only bmoc still reports it.
    let out = gcatch()
        .args(["check", "--only", "bmoc", p])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Unknown checker names are usage errors.
    let out = gcatch()
        .args(["check", "--only", "nope", p])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown checker"), "stderr: {stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn check_jobs_values_agree() {
    let path = write_temp("check-jobs", BUGGY);
    let p = path.to_str().unwrap();
    let run = |command: &str, file: &str, jobs: &str| {
        let out = gcatch()
            .args([command, "--json", "--jobs", jobs, file])
            .output()
            .unwrap();
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    for (command, file) in [("check", p), ("extended", "examples/send_on_closed.go")] {
        let one = run(command, file, "1");
        assert!(one.contains("\"id\":"), "{command} {file}: {one}");
        assert_eq!(
            one,
            run(command, file, "8"),
            "--jobs must not change the {command} diagnostics"
        );
    }
    std::fs::remove_file(path).ok();
}

/// The value of counter `name` in a `--json --stats` report.
fn counter(report: &str, name: &str) -> u64 {
    let counters = &report[report.find("\"counters\":").expect("a stats report")..];
    let key = format!("\"{name}\":");
    let at = counters
        .find(&key)
        .unwrap_or_else(|| panic!("no {name}: {report}"))
        + key.len();
    let digits: String = counters[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a counter value")
}

/// Workers that miss one canonical encoding at once solve it once, so the
/// solver counters of a two-worker check equal a one-worker check's on
/// every run, not only the report.
#[test]
fn solver_counters_do_not_depend_on_jobs() {
    let source = bench::amplifier::generate(&bench::amplifier::AmpConfig {
        channels: 240,
        leak_every: 60,
        ballast: 160,
    });
    let path = write_temp("check-jobs-counters", &source);
    let counters = |jobs: &str| {
        let out = gcatch()
            .args(["check", "--json", "--stats", "--jobs", jobs])
            .arg(&path)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1));
        let report = String::from_utf8_lossy(&out.stdout).into_owned();
        ["solver_queries", "channel_encodings_shared", "solver_steps"]
            .map(|name| counter(&report, name))
    };
    let one = counters("1");
    assert!(one[1] > 0, "the module shares encodings: {one:?}");
    for run in 0..10 {
        assert_eq!(counters("2"), one, "run {run} at --jobs 2");
    }
    std::fs::remove_file(path).ok();
}

/// A `--timeout` too large for a deadline to hold is no deadline: the
/// report is the untimed one, byte for byte.
#[test]
fn huge_timeout_matches_an_untimed_check() {
    let path = write_temp("check-huge-timeout", BUGGY);
    let p = path.to_str().unwrap();
    let run = |extra: &[&str]| {
        let mut args = vec!["check", "--json"];
        args.extend_from_slice(extra);
        args.push(p);
        gcatch().args(&args).output().unwrap()
    };
    let untimed = run(&[]);
    let huge = run(&["--timeout", "18446744073709551615"]);
    assert_eq!(huge.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&huge.stdout),
        String::from_utf8_lossy(&untimed.stdout)
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn check_stats_prints_counters() {
    let path = write_temp("check-stats", CLEAN);
    let out = gcatch()
        .args(["check", "--stats", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stage timings:"), "stdout: {stdout}");
    assert!(stdout.contains("channels_analyzed"), "stdout: {stdout}");
    // Durations render as fixed-point milliseconds, and the percentile
    // section reports every histogram metric.
    assert!(stdout.contains(" ms\n"), "stdout: {stdout}");
    assert!(
        stdout.contains("percentiles (p50/p90/p99/max):"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("channel_detect_ns"), "stdout: {stdout}");
    assert!(stdout.contains("solver_query_ns"), "stdout: {stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn check_trace_writes_chrome_trace_events() {
    let path = write_temp("check-trace", BUGGY);
    let trace = std::env::temp_dir().join(format!("gcatch-cli-trace-{}.json", std::process::id()));
    let out = gcatch()
        .args([
            "check",
            "--trace",
            trace.to_str().unwrap(),
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(text.starts_with("{\"traceEvents\":["), "trace: {text}");
    for needle in [
        "\"name\":\"session\"",
        "\"name\":\"bmoc_channel\"",
        "\"name\":\"dpll\"",
        "\"bmoc-worker-0\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in trace: {text}");
    }
    std::fs::remove_file(path).ok();
    std::fs::remove_file(trace).ok();
}

#[test]
fn check_explain_prints_provenance() {
    let path = write_temp("check-explain", BUGGY);
    let out = gcatch()
        .args(["check", "--explain", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("why: channel `done`"), "stdout: {stdout}");
    assert!(
        stdout.contains("solver verdict `blocking`"),
        "stdout: {stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn check_json_carries_provenance() {
    let path = write_temp("check-json-prov", BUGGY);
    let out = gcatch()
        .args(["check", "--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"provenance\":{\"channel\":\"done\""),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("\"solver_verdict\":\"blocking\""),
        "stdout: {stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn fix_explain_and_trace_cover_the_first_round() {
    let path = write_temp("fix-explain", BUGGY);
    let trace = std::env::temp_dir().join(format!("gcatch-cli-fixtr-{}.json", std::process::id()));
    let out = gcatch()
        .args(["fix", "--explain", "--trace", trace.to_str().unwrap()])
        .arg(path.to_str().unwrap())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("why: channel `done`"), "stdout: {stdout}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(text.contains("\"name\":\"fix_bug\""), "trace: {text}");
    assert!(text.contains("\"name\":\"fix_applied\""), "trace: {text}");
    std::fs::remove_file(path).ok();
    std::fs::remove_file(trace).ok();
}

#[test]
fn bad_budget_flag_values_exit_2() {
    let path = write_temp("bad-budget", CLEAN);
    let p = path.to_str().unwrap();
    for args in [
        vec!["check", "--timeout", "abc"],
        vec!["check", "--channel-timeout", "-5"],
        vec!["check", "--solver-steps", "many"],
        vec!["extended", "--step-pool", "1.5"],
        // 2^32 fits a u64 but not the u32 attempt counter.
        vec!["batch", "--max-attempts", "4294967296"],
    ] {
        let mut full = args.clone();
        full.push(p);
        let out = gcatch().args(&full).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} should be rejected"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad --"), "stderr for {args:?}: {stderr}");
    }
    std::fs::remove_file(path).ok();
}

/// A value that would silently do nothing is a usage error naming its
/// flag: a zero step limit (every query unknown, every bug missed), a zero
/// serve pool or response cache (there is no off mode to map 0 to), and a
/// checker selection that names no checker.
#[test]
fn flag_values_that_would_do_nothing_exit_2() {
    let path = write_temp("no-op-values", BUGGY);
    let p = path.to_str().unwrap();
    for (args, flag) in [
        (vec!["check", "--solver-steps", "0", p], "--solver-steps"),
        (vec!["check", "--only", "", p], "--only"),
        (vec!["check", "--skip", ",", p], "--skip"),
        (vec!["serve", "--stdio", "--workers", "0"], "--workers"),
        (vec!["serve", "--stdio", "--max-cache", "0"], "--max-cache"),
    ] {
        let out = gcatch()
            .args(&args)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "stderr for {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "args {args:?} ran: {:?}", out.stdout);
    }
    std::fs::remove_file(path).ok();
}

/// Every flag a command accepts, as its unknown-flag error lists them,
/// appears in that command's entry of the usage text. `worker`'s
/// `[exec flags as for sweep]` stands for the flags of sweep's entry.
#[test]
fn usage_lists_every_flag_each_command_accepts() {
    let out = gcatch().arg("help").output().unwrap();
    let usage = String::from_utf8(out.stdout).unwrap();
    let commands = usage
        .split("\n\n")
        .find(|block| block.starts_with("commands:"))
        .expect("a commands block");
    // An entry starts at a two-space indent and runs to the next one.
    let mut entries: Vec<(String, String)> = Vec::new();
    for line in commands.lines().skip(1) {
        if let Some(head) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
            let name = head.split_whitespace().next().unwrap().to_string();
            entries.push((name, String::new()));
        }
        let entry = &mut entries.last_mut().expect("an entry").1;
        entry.push_str(line);
        entry.push('\n');
    }
    let entry_of = |command: &str| {
        entries
            .iter()
            .find(|(name, _)| name == command)
            .map(|(_, text)| text.as_str())
            .unwrap_or_else(|| panic!("no usage entry for {command}"))
    };
    let mentions = |text: &str, flag: &str| {
        text.match_indices(flag).any(|(at, _)| {
            !text[at + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        })
    };
    assert!(entries.len() >= 8, "entries: {entries:?}");
    for (command, text) in &entries {
        let out = gcatch()
            .args([command.as_str(), "--no-such-flag"])
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let known = match stderr.split_once("(known: ") {
            Some((_, rest)) => rest.split(')').next().unwrap().to_string(),
            None => {
                assert!(stderr.contains("takes no flags"), "{command}: {stderr}");
                String::new()
            }
        };
        for flag in known.split(", ").filter(|f| !f.is_empty()) {
            let listed = mentions(text, flag)
                || (text.contains("[exec flags as for sweep]")
                    && mentions(entry_of("sweep"), flag));
            assert!(
                listed,
                "`{command}` accepts {flag}, but its usage entry omits it"
            );
        }
    }
}

/// A checker that panics (the env-gated `panic-test` debug hook) must not
/// abort the run: the other checkers still report, exactly one incident is
/// printed, output is bit-identical across `--jobs`, and only `--strict`
/// turns the incident into exit code 2.
#[test]
fn panicking_checker_becomes_one_deterministic_incident() {
    let path = write_temp("panic-checker", CLEAN);
    let p = path.to_str().unwrap();
    let run = |extra: &[&str]| {
        let mut args = vec!["check"];
        args.extend_from_slice(extra);
        args.push(p);
        gcatch()
            .args(&args)
            .env("GCATCH_DEBUG_PANIC_CHECKER", "1")
            .output()
            .unwrap()
    };

    let out = run(&[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "incidents alone must not fail the run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        stdout.matches("incident:").count(),
        1,
        "exactly one incident: {stdout}"
    );
    assert!(
        stdout.contains("incident: checker `panic-test`: deliberate panic"),
        "stdout: {stdout}"
    );

    let jobs1 = run(&["--jobs", "1"]);
    let jobs4 = run(&["--jobs", "4"]);
    assert_eq!(
        jobs1.stdout, jobs4.stdout,
        "incident output must be bit-identical across --jobs"
    );

    let strict = run(&["--strict"]);
    assert_eq!(
        strict.status.code(),
        Some(2),
        "--strict turns incidents into exit 2"
    );

    let json = run(&["--json"]);
    let jtext = String::from_utf8_lossy(&json.stdout);
    assert!(
        jtext.contains("\"incidents\":[{\"kind\":\"checker\",\"name\":\"panic-test\""),
        "json: {jtext}"
    );
    std::fs::remove_file(path).ok();
}

/// A ring of circularly-waiting goroutines whose blocking queries need
/// real DPLL search — the CLI-level pathological input for the budget and
/// degradation-ladder flags (same shape as `examples/pathological.go`).
const RING: &str = r#"
package main

func main() {
    ch0 := make(chan int)
    ch1 := make(chan int)
    ch2 := make(chan int)
    go func() {
        ch0 <- 1
        <-ch1
    }()
    go func() {
        ch1 <- 1
        <-ch2
    }()
    go func() {
        ch2 <- 1
        <-ch0
    }()
    <-ch0
}
"#;

/// `check` and `extended` end the process as soon as their answer is out,
/// without tearing the module down: with `--trace`, `--metrics-out` and
/// `--events-out` armed, stdout still equals a run without sinks byte for
/// byte, every sink file is complete, and the exit code still says clean
/// (0), bugs (1) or an incident under `--strict` (2).
#[test]
fn one_shot_commands_flush_every_sink_before_exiting() {
    let clean = write_temp("exit-clean", CLEAN);
    let buggy = write_temp("exit-buggy", BUGGY);
    let ring = write_temp("exit-ring", RING);
    let strict = [
        "--solver-steps",
        "10",
        "--channel-timeout",
        "60000",
        "--strict",
    ];
    let sink = |name: &str| {
        std::env::temp_dir().join(format!("gcatch-cli-exit-{}.{name}", std::process::id()))
    };
    let (trace, metrics, events) = (sink("trace.json"), sink("prom"), sink("jsonl"));
    let cases: [(&str, &std::path::Path, &[&str], i32); 4] = [
        ("check", &clean, &[], 0),
        ("check", &buggy, &[], 1),
        (
            "extended",
            std::path::Path::new("examples/send_on_closed.go"),
            &[],
            1,
        ),
        ("check", &ring, &strict, 2),
    ];
    for (command, file, extra, code) in cases {
        let run = |sinks: bool| {
            let mut cmd = gcatch();
            cmd.args([command, "--json"]).args(extra);
            if sinks {
                cmd.arg("--trace").arg(&trace);
                cmd.arg("--metrics-out").arg(&metrics);
                cmd.arg("--events-out").arg(&events);
            }
            cmd.arg(file).output().unwrap()
        };
        let plain = run(false);
        for stale in [&trace, &metrics, &events] {
            std::fs::remove_file(stale).ok();
        }
        let armed = run(true);
        let case = format!("{command} {}", file.display());
        assert_eq!(plain.status.code(), Some(code), "{case}");
        assert_eq!(armed.status.code(), Some(code), "{case} with sinks");
        assert!(!plain.stdout.is_empty(), "{case}");
        assert_eq!(armed.stdout, plain.stdout, "{case}: sinks moved stdout");

        let trace_text = std::fs::read_to_string(&trace).expect("trace written");
        gcatch_suite::gcatch::codec::validate_json(&trace_text)
            .unwrap_or_else(|e| panic!("{case}: trace: {e}"));
        assert!(trace_text.contains("\"traceEvents\""), "{case}");
        let prom = std::fs::read_to_string(&metrics).expect("metrics written");
        gcatch_suite::gcatch::validate_exposition(&prom)
            .unwrap_or_else(|e| panic!("{case}: metrics: {e}"));
        let stream = std::fs::read_to_string(&events).expect("events written");
        for line in stream.lines() {
            gcatch_suite::gcatch::codec::validate_json(line)
                .unwrap_or_else(|e| panic!("{case}: event {line}: {e}"));
        }
        let last = stream.lines().last().expect("events");
        assert!(last.contains("\"event\":\"run_end\""), "{case}: {last}");
    }
    for path in [clean, buggy, ring, trace, metrics, events] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn exhausted_budget_reports_incidents_and_strict_exit() {
    let path = write_temp("budget-ring", RING);
    let p = path.to_str().unwrap();
    // 10 solver steps per query: every query gives up deterministically,
    // the ladder runs dry, and the run says so instead of reporting bugs.
    let out = gcatch()
        .args([
            "check",
            "--solver-steps",
            "10",
            "--channel-timeout",
            "60000",
            p,
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("incident: channel"), "stdout: {stdout}");
    assert!(
        stdout.contains("gave up at ladder rung"),
        "stdout: {stdout}"
    );

    let strict = gcatch()
        .args([
            "check",
            "--solver-steps",
            "10",
            "--channel-timeout",
            "60000",
            "--strict",
            p,
        ])
        .output()
        .unwrap();
    assert_eq!(
        strict.status.code(),
        Some(2),
        "--strict escalates incidents"
    );

    // The incomplete-channel count surfaces in --stats.
    let stats = gcatch()
        .args([
            "check",
            "--solver-steps",
            "10",
            "--channel-timeout",
            "60000",
            "--stats",
            p,
        ])
        .output()
        .unwrap();
    let stext = String::from_utf8_lossy(&stats.stdout);
    assert!(stext.contains("incomplete_channels"), "stats: {stext}");
    std::fs::remove_file(path).ok();
}

#[test]
fn ladder_recovers_findings_and_explains_the_rung() {
    let path = write_temp("ladder-ring", RING);
    let p = path.to_str().unwrap();
    // 200 steps per query: rung 0/1 formulas go Unknown, rung 2's
    // channel-only Pset shrinks them enough to solve.
    let out = gcatch()
        .args([
            "check",
            "--solver-steps",
            "200",
            "--channel-timeout",
            "60000",
            "--explain",
            p,
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "the ring deadlock must still be found: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("found at ladder rung"), "stdout: {stdout}");

    // And a whole-run --timeout is accepted and finishes promptly.
    let out = gcatch()
        .args(["check", "--timeout", "10", p])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(path).ok();
}

/// Two independent bugs: the old CLI applied only the first patch under
/// `--write`; the fixpoint loop must apply both.
const TWO_BUGS: &str = r#"
package main

func a() {
    d1 := make(chan int)
    go func() {
        d1 <- 1
    }()
    select {
    case <-d1:
    default:
    }
}

func b() {
    d2 := make(chan int)
    go func() {
        d2 <- 2
    }()
    select {
    case <-d2:
    default:
    }
}

func main() {
    a()
    b()
}
"#;

#[test]
fn fix_write_applies_all_patches_to_fixpoint() {
    let path = write_temp("fix-fixpoint", TWO_BUGS);
    let p = path.to_str().unwrap();
    let out = gcatch().args(["fix", "--write", p]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 patch(es) applied"), "stdout: {stdout}");
    let patched = std::fs::read_to_string(&path).unwrap();
    assert!(
        patched.contains("d1 := make(chan int, 1)"),
        "patched:\n{patched}"
    );
    assert!(
        patched.contains("d2 := make(chan int, 1)"),
        "patched:\n{patched}"
    );
    // The patched file must now be clean.
    let out = gcatch().args(["check", p]).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_file(path).ok();
}

/// A module with `n` independent Figure-1 leaks, each in its own function:
/// no leak's patch can influence another leak's channel, so one detection
/// round patches them all.
fn leaks(n: usize) -> String {
    let mut src = String::from("package main\n");
    for i in 0..n {
        src.push_str(&format!(
            "\nfunc leak{i}() {{\n    d := make(chan int)\n    go func() {{\n        d <- {i}\n    }}()\n    select {{\n    case <-d:\n    default:\n    }}\n}}\n"
        ));
    }
    src.push_str("\nfunc main() {\n");
    for i in 0..n {
        src.push_str(&format!("    leak{i}()\n"));
    }
    src.push_str("}\n");
    src
}

/// `n` Figure-1 leaks in a call chain: `leak{i}` calls `leak{i-1}`, so each
/// leak's scope reaches the function the previous leak's patch edits, and
/// a detection round can apply only one patch.
fn leak_chain(n: usize) -> String {
    let mut src = String::from("package main\n");
    for i in 0..n {
        let call = if i > 0 {
            format!("    leak{}()\n", i - 1)
        } else {
            String::new()
        };
        src.push_str(&format!(
            "\nfunc leak{i}() {{\n    d := make(chan int)\n    go func() {{\n        d <- {i}\n    }}()\n    select {{\n    case <-d:\n    default:\n    }}\n{call}}}\n"
        ));
    }
    src.push_str(&format!("\nfunc main() {{\n    leak{}()\n}}\n", n - 1));
    src
}

#[test]
fn fix_reports_a_round_cap_without_claiming_a_fixpoint() {
    // 31 patching rounds leave the 32nd round to confirm the fixpoint.
    let path = write_temp("fix-cap-31", &leak_chain(31));
    let out = gcatch()
        .args(["fix", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.ends_with("\n31 patch(es) applied (fixpoint after 31 round(s))\n"),
        "stdout: {stdout}"
    );
    std::fs::remove_file(path).ok();

    // 33 chained leaks: every round applies a patch and none confirms a
    // fixpoint.
    let path = write_temp("fix-cap-33", &leak_chain(33));
    let p = path.to_str().unwrap();
    let out = gcatch().args(["fix", "--write", p]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stdout: {stdout}");
    assert!(!stdout.contains("fixpoint after"), "stdout: {stdout}");
    let summary = stdout
        .lines()
        .find(|l| l.contains("patch(es) applied ("))
        .expect("summary line");
    assert_eq!(
        summary,
        "32 patch(es) applied (no fixpoint: stopped at the 32-round cap)"
    );
    // The applied patches are still written; one leak is left.
    let patched = std::fs::read_to_string(&path).unwrap();
    assert_eq!(patched.matches("make(chan int, 1)").count(), 32);
    let out = gcatch().args(["check", p]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(path).ok();
}

#[test]
fn fix_patches_independent_leaks_in_one_round() {
    // More leaks than the round cap: one round patches every one of them.
    let path = write_temp("fix-leaks-33", &leaks(33));
    let p = path.to_str().unwrap();
    let out = gcatch().args(["fix", "--write", p]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("\n33 patch(es) applied (fixpoint after 1 round(s))\n"),
        "stdout: {stdout}"
    );
    let patched = std::fs::read_to_string(&path).unwrap();
    assert_eq!(patched.matches("make(chan int, 1)").count(), 33);
    let out = gcatch().args(["check", p]).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_file(path).ok();
}

/// Figure 4 of the paper: Strategy III inserts lines, shifting every line
/// after the channel's declaration.
const FIGURE4: &str = r#"
package main

func Input() (string, error) {
    return "line", nil
}

func Interactive(abort chan struct{}) {
    scheduler := make(chan string)
    go func() {
        for {
            line, err := Input()
            if err != nil {
                close(scheduler)
                return
            }
            scheduler <- line
        }
    }()
    for {
        select {
        case <-abort:
            return
        case _, ok := <-scheduler:
            if !ok {
                return
            }
        }
    }
}

func main() {
    abort := make(chan struct{}, 1)
    abort <- struct{}{}
    Interactive(abort)
}
"#;

#[test]
fn fix_prints_exactly_the_changed_lines() {
    let path = write_temp("fix-figure4", FIGURE4);
    let out = gcatch()
        .args(["fix", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let header = stdout
        .lines()
        .find(|l| l.starts_with("[S-III] "))
        .unwrap_or_else(|| panic!("no Strategy III patch: {stdout}"));
    let changed: usize = header
        .rsplit_once(" (")
        .and_then(|(_, n)| n.strip_suffix(" changed lines)"))
        .and_then(|n| n.parse().ok())
        .expect("changed-lines count");
    let diff: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("  - ") || l.starts_with("  + "))
        .collect();
    assert_eq!(diff.len(), changed, "stdout: {stdout}");
    assert!(
        !diff.iter().any(|l| l.contains("func main() {")),
        "stdout: {stdout}"
    );
    std::fs::remove_file(path).ok();
}

/// One channel `ch` whose combinations hit `MAX_COMBOS` (192) exactly: a
/// goroutine sends in both arms of four `if/else`s, and `main` receives
/// in one `if/else` and in three `if`s.
const COMBO_CAP: &str = r#"
package main

func main() {
    ch := make(chan int)
    a := 1
    b := 2
    go func() {
        if a > 0 {
            ch <- 1
        } else {
            ch <- 2
        }
        if b > 0 {
            ch <- 3
        } else {
            ch <- 4
        }
        if a > b {
            ch <- 5
        } else {
            ch <- 6
        }
        if b > a {
            ch <- 7
        } else {
            ch <- 8
        }
    }()
    if a > 0 {
        <-ch
    } else {
        <-ch
    }
    if b > 0 {
        <-ch
    }
    if a > b {
        <-ch
    }
    if b > a {
        <-ch
    }
}
"#;

#[test]
fn batch_reports_match_check_byte_for_byte() {
    // A batch job runs the module exactly as `check` does: the
    // combo-capped channel must not go down the degradation ladder, and
    // verdict sharing must stay on.
    let cap = write_temp("batch-combo-cap", COMBO_CAP);
    let mut examples: Vec<String> = std::fs::read_dir("examples/batch")
        .expect("examples/batch")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "go"))
        .map(|p| p.to_str().expect("utf-8 path").to_string())
        .collect();
    examples.sort();
    let mut modules = vec![cap.to_str().unwrap().to_string()];
    modules.extend(examples);
    let out = gcatch()
        .args(["batch", "--json"])
        .args(&modules)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let batch = String::from_utf8(out.stdout).expect("utf-8 batch report");
    for module in &modules {
        let out = gcatch().args(["check", "--json", module]).output().unwrap();
        let check = String::from_utf8(out.stdout).expect("utf-8 check report");
        let check = check.trim_end();
        let entry = format!("{{\"module\":\"{module}\",");
        let at = batch
            .find(&entry)
            .unwrap_or_else(|| panic!("{module} missing from batch: {batch}"));
        let rest = &batch[at..];
        let report = &rest[rest.find("\"report\":").expect("report field") + "\"report\":".len()..];
        // The report is the check object itself, then the brace that
        // closes the module entry.
        assert!(
            report.starts_with(check) && report[check.len()..].starts_with('}'),
            "{module}: batch report differs from check\nbatch: {}\ncheck: {check}",
            report.get(..check.len() + 160).unwrap_or(report)
        );
    }
    std::fs::remove_file(cap).ok();
}
