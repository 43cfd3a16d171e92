//! Incremental re-analysis drills for `gcatch serve`: fuzzed edit chains
//! against a warm daemon, byte-compared per step with a session-less
//! daemon (`--max-sessions 0`) and with single-shot `gcatch check --json`;
//! injected `serve.session` faults (warmth loss must never change bytes);
//! SIGKILL + restart (sessions are memory-only, the restart runs cold);
//! and the bypass rules — `--max-sessions 0` and non-`check` ops must
//! never populate the warm store.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn gcatch() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcatch-suite"))
}

/// A scratch directory unique to this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcatch-serve-inc-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A daemon child in `--stdio` mode with piped stdin/stdout.
struct StdioDaemon {
    child: Child,
    stdin: Option<std::process::ChildStdin>,
    stdout: BufReader<std::process::ChildStdout>,
}

impl StdioDaemon {
    fn spawn(extra: &[&str], envs: &[(&str, &str)]) -> StdioDaemon {
        let mut cmd = gcatch();
        cmd.args(["serve", "--stdio"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("serve --stdio starts");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        StdioDaemon {
            child,
            stdin: Some(stdin),
            stdout,
        }
    }

    fn send(&mut self, line: &str) {
        let stdin = self.stdin.as_mut().expect("stdin open");
        stdin.write_all(line.as_bytes()).expect("request written");
        stdin.write_all(b"\n").expect("newline written");
        stdin.flush().expect("request flushed");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("response read");
        assert!(n > 0, "daemon closed stdout unexpectedly");
        line.trim_end().to_string()
    }

    /// Send-then-receive for a single request.
    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Closes stdin (EOF drain) and waits for a clean exit.
    fn finish(mut self) -> (i32, String) {
        drop(self.stdin.take());
        let out = self.child.wait_with_output().expect("daemon exits");
        (
            out.status.code().expect("daemon exit code"),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    }
}

fn check_request(id: &str, module: &str) -> String {
    format!(r#"{{"id":"{id}","op":"check","module":"{module}"}}"#)
}

/// The exact envelope the daemon must produce for a `check`: the
/// single-shot `gcatch check --json` bytes wrapped unchanged.
fn single_shot_envelope(id: &str, module: &str) -> String {
    let out = gcatch()
        .args(["check", module, "--json"])
        .output()
        .expect("gcatch check runs");
    let report = String::from_utf8(out.stdout).expect("utf8 report");
    format!(
        r#"{{"id":"{id}","ok":true,"op":"check","module":"{module}","result":{}}}"#,
        report.trim_end()
    )
}

/// Editable module: every fuzz dimension owns one knob, and each knob
/// exercises a different row of the dirty-set rule.
#[derive(Clone)]
struct ModState {
    /// Constant in a helper no channel scope reaches: empty dirty set.
    tweak: u64,
    /// Result-channel buffering: `false` is the Fig. 1 leak (blocking
    /// report), `true` is safe. Toggling is a Pset edit whose re-analysis
    /// must flip the verdict.
    buffered: bool,
    /// Constant inside a send operand: Pset-touching, verdict unchanged.
    relay: u64,
    /// Whether an extra top-level function exists: a roster change, which
    /// makes shapes incomparable and forces a full cold rerun.
    extra: bool,
    /// Trailing blank lines: source bytes change, the IR does not.
    pad: usize,
    /// Blank and comment lines above `LeakRun`, plus as many lines inside
    /// `RelayRun` above its closure: every later function moves without
    /// changing (replayed at new positions) while `RelayRun` itself
    /// changes (re-analyzed).
    lead: usize,
}

impl ModState {
    fn base() -> ModState {
        ModState {
            tweak: 11,
            buffered: false,
            relay: 1,
            extra: false,
            pad: 0,
            lead: 0,
        }
    }

    fn render(&self) -> String {
        let done = if self.buffered {
            "done := make(chan error, 1)"
        } else {
            "done := make(chan error)"
        };
        let extra = if self.extra {
            "\nfunc extraFn() int {\n    return 7\n}\n"
        } else {
            ""
        };
        let lead: String = (0..self.lead)
            .map(|i| if i % 2 == 0 { "\n" } else { "// lead\n" })
            .collect();
        format!(
            r#"func tweak() int {{
    return {tweak}
}}

func job() error {{
    return nil
}}
{lead}
func LeakRun() {{
    {done}
    quit := make(chan struct{{}}, 1)
    quit <- struct{{}}{{}}
    go func() {{
        done <- job()
    }}()
    select {{
    case err := <-done:
        _ = err
    case <-quit:
        return
    }}
}}

func RelayRun() {{
    msg := make(chan int)
{relay_lead}    go func() {{
        msg <- {relay}
    }}()
    <-msg
}}
{extra}
type relayBox struct {{
    n int
}}
{pad}"#,
            tweak = self.tweak,
            done = done,
            relay_lead = "    // lead\n".repeat(self.lead),
            relay = self.relay,
            extra = extra,
            pad = "\n".repeat(self.pad),
        )
    }

    /// Applies the `pick`-th mutation kind in place.
    fn mutate(&mut self, pick: u64) {
        match pick % 6 {
            0 => self.tweak += 1,
            1 => self.buffered = !self.buffered,
            2 => self.relay += 1,
            3 => self.extra = !self.extra,
            4 => self.pad += 1,
            _ => self.lead += 1,
        }
    }
}

/// Deterministic LCG (same constants as `minstd`), seeded per chain.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(48271) % 0x7fff_ffff;
    *state
}

fn fuzz_cases() -> usize {
    std::env::var("GCATCH_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// Drives one edit chain through a warm daemon and a session-less daemon
/// in lockstep, asserting every response matches the other daemon AND
/// the single-shot check, byte for byte.
fn run_chain(dir: &Path, chain: usize, steps: usize, warm_flags: &[&str], envs: &[(&str, &str)]) {
    let module = dir.join(format!("chain{chain}.go"));
    let module_str = module.to_str().unwrap().to_string();
    let mut warm = StdioDaemon::spawn(warm_flags, envs);
    let mut cold = StdioDaemon::spawn(&["--max-sessions", "0"], &[]);

    let mut state = ModState::base();
    let mut rng = 0x9e37 + chain as u64;
    for step in 0..steps {
        std::fs::write(&module, state.render()).expect("module written");
        let id = format!("c{chain}s{step}");
        let req = check_request(&id, &module_str);
        let warm_line = warm.roundtrip(&req);
        let cold_line = cold.roundtrip(&req);
        let expected = single_shot_envelope(&id, &module_str);
        assert_eq!(
            warm_line, expected,
            "chain {chain} step {step}: warm daemon != single-shot check"
        );
        assert_eq!(
            cold_line, expected,
            "chain {chain} step {step}: session-less daemon != single-shot check"
        );
        state.mutate(lcg(&mut rng));
    }

    let status = warm.roundtrip(r#"{"id":"st","op":"status"}"#);
    assert!(status.contains(r#""sessions":{"capacity":"#), "{status}");
    let (code, _) = warm.finish();
    assert_eq!(code, 0);
    let (code, _) = cold.finish();
    assert_eq!(code, 0);
}

/// Fuzzed edit chains: every warm response is byte-identical to both a
/// session-less daemon and single-shot `gcatch check --json`, across
/// empty-dirty-set edits, verdict-flipping Pset edits, roster changes,
/// IR-invisible whitespace edits, and lines inserted above and inside
/// functions (moved code replayed at its new position).
#[test]
fn fuzzed_edit_chains_are_byte_identical_to_cold_and_single_shot() {
    let dir = scratch("fuzz");
    for chain in 0..fuzz_cases() {
        run_chain(&dir, chain, 6, &[], &[]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected session loss at `serve.session` (rate 1.0): every check
/// drops its warm entry and recomputes cold, so responses must still be
/// byte-identical — warmth is a latency property, never a correctness
/// one. The daemon survives the whole chain.
#[test]
fn injected_session_faults_never_change_response_bytes() {
    let dir = scratch("faults");
    run_chain(
        &dir,
        0,
        5,
        &[],
        &[
            ("GCATCH_FAULT_RATE", "1.0"),
            ("GCATCH_FAULT_SITES", "serve.session"),
            ("GCATCH_FAULT_DELAY_MS", "0"),
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Sessions are memory-only: SIGKILL forfeits all warmth, and a restart
/// over the same flags answers from the cold path with the exact
/// single-shot bytes.
#[test]
fn sigkill_forfeits_sessions_and_restart_runs_cold() {
    let dir = scratch("sigkill");
    let module = dir.join("mod.go");
    let module_str = module.to_str().unwrap().to_string();
    let mut state = ModState::base();
    std::fs::write(&module, state.render()).expect("module written");

    let mut victim = StdioDaemon::spawn(&[], &[]);
    let first = victim.roundtrip(&check_request("k1", &module_str));
    assert!(first.contains(r#""ok":true"#), "{first}");
    state.tweak += 1;
    std::fs::write(&module, state.render()).expect("edit written");
    victim.send(&check_request("k2", &module_str));
    victim.child.kill().expect("SIGKILL delivered");
    victim.child.wait().expect("victim reaped");

    let mut restarted = StdioDaemon::spawn(&[], &[]);
    let status = restarted.roundtrip(r#"{"id":"s","op":"status"}"#);
    assert!(
        status.contains(r#""resident":0"#),
        "restart must start with no resident sessions: {status}"
    );
    let line = restarted.roundtrip(&check_request("k3", &module_str));
    assert_eq!(
        line,
        single_shot_envelope("k3", &module_str),
        "cold restart must answer with single-shot bytes"
    );
    let (code, _) = restarted.finish();
    assert_eq!(code, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `--max-sessions 0` disables the warm store outright, and non-`check`
/// ops (`explain`, `fix-dry-run`) never populate it: the `status`
/// sessions block stays empty in both cases, while eligible checks on a
/// default daemon do take residence and score hits on re-analysis.
#[test]
fn bypass_rules_and_status_occupancy() {
    let dir = scratch("bypass");
    let module = dir.join("mod.go");
    let module_str = module.to_str().unwrap().to_string();
    let mut state = ModState::base();
    std::fs::write(&module, state.render()).expect("module written");

    // Disabled store: checks run, nothing takes residence.
    let mut off = StdioDaemon::spawn(&["--max-sessions", "0"], &[]);
    let line = off.roundtrip(&check_request("o1", &module_str));
    assert!(line.contains(r#""ok":true"#), "{line}");
    let status = off.roundtrip(r#"{"id":"s","op":"status"}"#);
    assert!(
        status.contains(r#""sessions":{"capacity":0,"resident":0,"hits":0,"misses":0"#),
        "disabled store must stay empty: {status}"
    );
    let (code, _) = off.finish();
    assert_eq!(code, 0);

    // Default daemon: explain and fix-dry-run bypass; checks populate.
    let metrics = dir.join("metrics.prom");
    let mut on = StdioDaemon::spawn(&["--metrics-out", metrics.to_str().unwrap()], &[]);
    for (id, op) in [("e1", "explain"), ("f1", "fix-dry-run")] {
        let line = on.roundtrip(&format!(
            r#"{{"id":"{id}","op":"{op}","module":"{module_str}"}}"#
        ));
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
    let status = on.roundtrip(r#"{"id":"s1","op":"status"}"#);
    assert!(
        status.contains(r#""resident":0"#),
        "non-check ops must not populate the store: {status}"
    );

    let line = on.roundtrip(&check_request("c1", &module_str));
    assert!(line.contains(r#""ok":true"#), "{line}");
    state.tweak += 1;
    std::fs::write(&module, state.render()).expect("edit written");
    let line = on.roundtrip(&check_request("c2", &module_str));
    assert_eq!(
        line,
        single_shot_envelope("c2", &module_str),
        "warm re-check must match single-shot bytes"
    );
    let status = on.roundtrip(r#"{"id":"s2","op":"status"}"#);
    assert!(
        status.contains(r#""resident":1,"hits":1,"misses":1"#),
        "one module resident, one warm hit: {status}"
    );
    assert!(
        status.contains(r#""fingerprint":""#),
        "status lists resident fingerprints: {status}"
    );
    let (code, _) = on.finish();
    assert_eq!(code, 0);

    // The satellite counters flow through the Prometheus exposition.
    let rendered = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        rendered.contains("sessions_reused_total 1"),
        "sessions_reused must reach the metrics sink: {rendered}"
    );
    assert!(
        rendered.contains("channels_replayed_total"),
        "channels_replayed must be exposed: {rendered}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
