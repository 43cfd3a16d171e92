//! `gcatch` — command-line front end for the GCatch/GFix reproduction.
//!
//! ```console
//! $ gcatch check file.go              # detect bugs (BMOC + traditional)
//! $ gcatch check --json --stats file.go
//! $ gcatch check --only bmoc --jobs 4 file.go
//! $ gcatch fix file.go                # detect, patch, print the diffs
//! $ gcatch fix --write file.go        # apply patches in place, to fixpoint
//! $ gcatch simulate file.go --seeds 50 --entry main
//! $ gcatch extended file.go           # §6 send-on-closed panic detector
//! ```

use gcatch_suite::gcatch::codec::escape_json;
use gcatch_suite::gcatch::durable::write_atomic;
use gcatch_suite::gcatch::events::{Decision, Field, Recorder};
use gcatch_suite::gcatch::serve::current_request;
use gcatch_suite::gcatch::{
    derive_run_id, faults, obs_zero_time, read_manifest, render_explain, render_json_with,
    render_prometheus, render_stats_json, run_worker, serve_socket, serve_stdio, warm_check,
    write_manifest, AliasMode, BatchConfig, BatchEngine, BatchJob, Budget, Coordinator, Counter,
    DetectorConfig, Diagnostic, EventBus, EventKind, FaultPlan, GCatch, Incident, IncidentKind,
    JobRecord, Journal, Metric, ObsScope, ProgressSnapshot, Selection, ServeConfig, Stats,
    SweepConfig, SweepLayout, Telemetry, TraceLevel, TraceSnapshot, Tracer, WarmSessions, WorkKind,
    WorkerConfig,
};
use gcatch_suite::{gfix, sim};
use std::collections::BTreeMap;
use std::convert::identity;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "check" => cmd_check(rest),
        "fix" => cmd_fix(rest),
        "simulate" => cmd_simulate(rest),
        "extended" => cmd_extended(rest),
        "batch" => cmd_batch(rest),
        "sweep" => cmd_sweep(rest),
        "worker" => cmd_worker(rest),
        "serve" => cmd_serve(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("gcatch: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: gcatch <command> [options] <file.go>

commands:
  check [--json] [--stats] [--explain] [--trace FILE] [--only C] [--skip C] [--jobs N]
        [--timeout SECS] [--channel-timeout MS] [--solver-steps N] [--step-pool N]
        [--metrics-out FILE] [--events-out FILE] [--strict]
                        detect concurrency bugs via the checker registry;
                        --only/--skip select checkers by name (repeatable,
                        comma-separated lists accepted), --jobs shards the
                        per-channel passes (BMOC, send-on-closed) over N
                        worker threads (0 = all cores), --json emits
                        structured diagnostics, --stats adds pipeline
                        counters, stage timings, and percentiles, --explain
                        adds per-bug provenance (channel, paths, solver
                        verdict), --trace writes a Chrome trace-event JSON
                        of the analysis spans to FILE
  fix [--write] [--explain] [--trace FILE]
                        detect and patch to a fixpoint: each detection
                        round applies the patch of every fixable BMOC bug
                        that no earlier patch of the round can influence,
                        and the next round re-detects on the patched
                        source; prints each patch's changed lines. --write
                        applies the final result in place (atomically, via
                        a temp file + rename). When 32 rounds each applied
                        a patch, fix stops without a fixpoint and exits 2
  simulate [--seeds N] [--entry F]
                        explore schedules and report outcomes
  batch [--jobs N] [--max-attempts N] [--backoff-ms MS]
        [--inject-faults RATE] [--fault-seed N] [--journal FILE | --resume FILE]
        [--report FILE] [--json] [--stats] [--strict] [--explain] [--trace FILE]
        [--metrics-out FILE] [--events-out FILE] [--progress]
        [--timeout SECS] [--channel-timeout MS] [--solver-steps N] [--step-pool N]
        <file.go|dir>...
                        check many modules on a pool of --jobs worker
                        threads, each deciding one module at a time:
                        a failed module retries with exponential backoff,
                        and persistent failures are quarantined after
                        --max-attempts. --journal appends each decided job
                        to a crash-safe JSONL checkpoint; --resume JOURNAL
                        skips the jobs it already decided. --inject-faults
                        arms the deterministic fault layer (see below).
                        Directories expand to their *.go files
                        (non-recursive, sorted)
  sweep [--workers N] [--dir DIR] [--lease-ms MS] [--max-releases N]
        [--max-attempts N] [--backoff-ms MS]
        [--inject-faults RATE] [--fault-seed N]
        [--report FILE] [--json] [--stats] [--strict] [--progress]
        [--metrics-out FILE] [--events-out FILE]
        [--timeout SECS] [--channel-timeout MS] [--solver-steps N] [--step-pool N]
        <file.go|dir>...
                        check many modules across a fleet of --workers N
                        worker *processes*, each driven over its stdin and
                        stdout: the coordinator hands an idle worker one
                        job at a time and keeps every job's assignment,
                        deadline and release count in memory, so --dir (a
                        fresh temp directory by default) holds only the
                        manifest and each worker's crash-safe JSONL
                        journal. Workers heartbeat, and hold their job
                        while it runs; the coordinator re-leases jobs from
                        workers that die (even SIGKILLed), miss the
                        heartbeat deadline or stop holding their job,
                        quarantines jobs released more than --max-releases
                        times, and finally merges all journals into one
                        report that is byte-identical to a single-process
                        `gcatch batch` run over the same modules. A job
                        decided by two workers keeps exactly one record
                        and surfaces a duplicate-decision warning on
                        stderr without changing the report bytes.
                        SIGINT/SIGTERM reports the decided jobs, lists the
                        undecided ones on stderr and exits 130; nothing
                        resumes a sweep (a new one needs a fresh --dir)
  worker --dir DIR --id W [--lease-ms MS] [exec flags as for sweep]
                        internal: one sweep worker process, spawned by
                        `gcatch sweep`: it runs each `run JOB GEN` line
                        read on stdin and answers `beat`, `hold JOB` and
                        `done JOB` on stdout until stdin ends
  serve (--socket PATH | --stdio) [--workers N] [--max-queue N]
        [--request-timeout-ms MS] [--cache-dir DIR] [--max-cache N]
        [--max-sessions N] [--inject-faults RATE] [--fault-seed N]
        [--metrics-out FILE] [--events-out FILE]
        [--channel-timeout MS] [--solver-steps N] [--step-pool N]
                        crash-only analysis daemon speaking a JSON-lines
                        protocol (one request object per line, each
                        echoing its client-supplied id): ops `check`,
                        `explain`, and `fix-dry-run` take a `module` path
                        and run on a bounded worker pool; `status` and
                        `shutdown` answer inline. Every request runs
                        isolated under its own deadline — panics and
                        expired deadlines come back as structured
                        incident responses, never a dead connection.
                        Past --max-queue outstanding requests admission
                        control sheds deterministically with an
                        `overloaded` response and a retry-after hint.
                        `check` responses are cached by content hash
                        under --cache-dir through an fsync'd journal
                        index that drops torn entries on startup, so a
                        kill -9 mid-request plus restart replays
                        responses byte-identical to a cold single-shot
                        `gcatch check --json`. Up to --max-sessions
                        modules (default 8, 0 = none) keep a warm
                        session, so a re-checked module re-analyzes only
                        the channels its edit can reach. SIGTERM/SIGINT
                        drain gracefully (finish in flight, flush, exit 0)
  extended [--json] [--stats] [--explain] [--trace FILE] [--jobs N]
        [--timeout SECS] [--channel-timeout MS] [--solver-steps N] [--step-pool N]
        [--metrics-out FILE] [--events-out FILE] [--strict]
                        run the send-on-closed (panic) detector (paper §6)

budgets (check / extended / batch / sweep / serve):
  --timeout SECS        wall-clock deadline for the whole run (not serve,
                        whose requests have --request-timeout-ms)
  --channel-timeout MS  wall-clock deadline per analyzed channel
  --solver-steps N      solver step limit per query (default 400000); a
                        query that reaches it is dropped as unknown
  --step-pool N         global solver-step pool shared by all queries
                        a channel that exhausts a deadline or the step
                        pool is retried at degraded limits (reduced
                        unroll, then a reduced Pset); if the last rung
                        still exhausts it, the run keeps going and reports
                        an incident for the channel
  --strict              (not serve) treat any incident (panic or exhausted
                        budget) as fatal: exit 2 instead of 0/1

observability (check / extended / batch / sweep / serve):
  --metrics-out FILE    write every pipeline counter, stage timing, and
                        histogram as Prometheus text exposition under the
                        stable gcatch_* name schema (written atomically at
                        the end of the run; batch and serve also republish
                        the file every ~200 ms while running)
  --events-out FILE     write the structured run event stream as JSONL;
                        every event carries the run id plus the job,
                        attempt, and channel that produced it, so one
                        grep reconstructs any job's full lifecycle
  --progress            (batch / sweep) render a live progress line on
                        stderr: done/retried/quarantined counts,
                        p50/p99 job wall, and an ETA; auto-disabled when
                        stderr is not a tty or under --json
  --explain             (batch) print each quarantined job's flight
                        recorder: the last lifecycle lines (attempts,
                        faults, retries, incidents) before the job was
                        given up on

fault injection (batch / sweep / serve):
  --inject-faults RATE  inject deterministic faults (panics, delays,
                        solver-step exhaustion) at named sites with the
                        given probability; decisions are a pure function
                        of (--fault-seed, site, job, attempt), so a fixed
                        seed reproduces the exact failure schedule
  --fault-seed N        seed for the fault schedule (default 0)

environment:
  GCATCH_FAULT_RATE     arm fault injection without CLI flags (batch /
                        sweep / serve); GCATCH_FAULT_SEED,
                        GCATCH_FAULT_SITES, and GCATCH_FAULT_DELAY_MS
                        refine the plan
  GCATCH_OBS_ZERO_TIME  zero every --metrics-out/--events-out timestamp
                        and derive the run id deterministically (golden
                        files, byte-exact diffs)

fault injection (sweep adds three process-level sites):
  sweep.worker          a worker self-terminates right after it reads an
                        assignment (exit code 17); the coordinator
                        re-leases the job
  sweep.heartbeat       a worker never sends heartbeats; the coordinator
                        kills and replaces it after four leases
  sweep.lease           a worker never holds one assignment; it expires
                        mid-job and the job is re-leased while the
                        original owner keeps working (the
                        duplicate-decision path)

exit status: 0 = clean, 1 = bugs found, 2 = usage or input error;
with --strict, a run that recorded incidents (or, for batch/sweep,
quarantined any job) also exits 2; fix exits 2 when its 32-round cap
stops it before a fixpoint";

/// A parsed `--flag [value]` pair.
type Flag = (String, Option<String>);

/// `(name, takes_value)` — the flags a command accepts.
type FlagSpec = (&'static str, bool);

// Every command's accepted-flag table is composed from these shared
// groups by [`spec`], so each flag's name and arity is declared exactly
// once — a new flag (say, serve's `--socket`) registers in one place and
// cannot drift between the commands that accept it.

/// Output shaping shared by check/extended/batch/sweep.
const REPORT_FLAGS: &[FlagSpec] = &[("json", false), ("stats", false), ("strict", false)];

/// The observability sinks (`--metrics-out` / `--events-out`).
const OBS_FLAGS: &[FlagSpec] = &[("metrics-out", true), ("events-out", true)];

/// The whole-run wall-clock budget.
const TIMEOUT_FLAG: &[FlagSpec] = &[("timeout", true)];

/// Per-analysis budgets: they can shape report bytes, so sweep forwards
/// them to its workers and serve fingerprints its cache with them.
const ANALYSIS_FLAGS: &[FlagSpec] = &[
    ("channel-timeout", true),
    ("solver-steps", true),
    ("step-pool", true),
];

/// Retry policy shared by batch/sweep/worker.
const RETRY_FLAGS: &[FlagSpec] = &[("max-attempts", true), ("backoff-ms", true)];

/// The deterministic fault-injection plan.
const FAULT_FLAGS: &[FlagSpec] = &[("inject-faults", true), ("fault-seed", true)];

/// Composes a command's flag table from shared groups plus
/// command-specific extras.
fn spec(groups: &[&[FlagSpec]], extra: &[FlagSpec]) -> Vec<FlagSpec> {
    let mut out: Vec<FlagSpec> = Vec::new();
    for group in groups {
        out.extend_from_slice(group);
    }
    out.extend_from_slice(extra);
    out
}

/// Splits `rest` into flags, rejecting any flag not in `spec`, and at
/// most `max_args` positional arguments (exit code 2 at the caller).
fn parse_args(
    rest: &[String],
    spec: &[FlagSpec],
    max_args: usize,
) -> Result<(Vec<String>, Vec<Flag>), String> {
    let mut args = Vec::new();
    let mut flags = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let Some(&(_, takes_value)) = spec.iter().find(|(n, _)| *n == name) else {
                let known: Vec<String> = spec.iter().map(|(n, _)| format!("--{n}")).collect();
                return Err(if known.is_empty() {
                    format!("unknown flag `--{name}` (this command takes no flags)")
                } else {
                    format!("unknown flag `--{name}` (known: {})", known.join(", "))
                });
            };
            let value = if takes_value {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                )
            } else {
                None
            };
            flags.push((name.to_string(), value));
        } else if args.len() < max_args {
            args.push(arg.clone());
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    Ok((args, flags))
}

/// [`parse_args`] for the commands that take exactly one input file.
fn parse_common(rest: &[String], spec: &[FlagSpec]) -> Result<(String, Vec<Flag>), String> {
    let (args, flags) = parse_args(rest, spec, 1)?;
    let file = args.into_iter().next().ok_or("missing input file")?;
    Ok((file, flags))
}

/// [`parse_args`] for the commands that take one or more inputs.
fn parse_multi(rest: &[String], spec: &[FlagSpec]) -> Result<(Vec<String>, Vec<Flag>), String> {
    let (inputs, flags) = parse_args(rest, spec, usize::MAX)?;
    if inputs.is_empty() {
        return Err("missing input files (batch takes one or more files or directories)".into());
    }
    Ok((inputs, flags))
}

fn has_flag(flags: &[Flag], name: &str) -> bool {
    flags.iter().any(|(n, _)| n == name)
}

/// The value of a single-occurrence flag, if present.
fn flag_value<'a>(flags: &'a [Flag], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| v.as_deref())
}

/// The tracing level: `--trace FILE` records at full detail, and its
/// absence disables tracing entirely (zero overhead on the hot path).
fn trace_level(trace_path: Option<&str>) -> TraceLevel {
    if trace_path.is_some() {
        TraceLevel::Full
    } else {
        TraceLevel::Off
    }
}

/// Writes a trace snapshot as Chrome trace-event JSON.
fn write_trace(path: &str, snapshot: &TraceSnapshot) -> Result<(), String> {
    std::fs::write(path, snapshot.render_chrome())
        .map_err(|e| format!("cannot write trace file {path}: {e}"))
}

/// All values of a repeatable flag, with comma-separated lists split up.
/// An occurrence that names nothing (`--only ''`, `--skip ,`) is a usage
/// error, not a silent no-op.
fn flag_values(flags: &[Flag], name: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for (_, value) in flags.iter().filter(|(n, _)| n == name) {
        let value = value.as_deref().unwrap_or_default();
        let before = out.len();
        out.extend(
            value
                .split(',')
                .map(str::trim)
                .filter(|v| !v.is_empty())
                .map(str::to_string),
        );
        if out.len() == before {
            return Err(format!("--{name} {value:?} names nothing"));
        }
    }
    Ok(out)
}

/// The value of a single-occurrence flag parsed as `T`, if present; a
/// malformed or out-of-range value is a usage error (exit code 2 at the
/// caller).
fn parse_flag<T: std::str::FromStr>(flags: &[Flag], name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    flag_value(flags, name)
        .map(|v| v.parse::<T>().map_err(|e| format!("bad --{name}: {e}")))
        .transpose()
}

/// The detector configuration a command analyzes its modules under.
/// `sharded` commands (`check`, `extended`) split one module's channels
/// over `--jobs` threads (0 = all cores). The others (batch jobs, sweep
/// workers, serve requests) analyze each module single-threaded: their
/// parallelism comes from their own pools, and fault schedules key on
/// deterministic per-channel decisions.
fn analysis_config(flags: &[Flag], sharded: bool) -> Result<DetectorConfig, String> {
    let mut config = DetectorConfig {
        jobs: if sharded {
            parse_flag(flags, "jobs")?.unwrap_or(0)
        } else {
            1
        },
        timeout: parse_flag(flags, "timeout")?.map(Duration::from_secs),
        channel_timeout: parse_flag(flags, "channel-timeout")?.map(Duration::from_millis),
        solver_step_pool: parse_flag(flags, "step-pool")?,
        ..DetectorConfig::default()
    };
    if let Some(steps) = parse_flag(flags, "solver-steps")? {
        if steps == 0 {
            return Err("--solver-steps must be at least 1".into());
        }
        config.solver_steps = steps;
    }
    Ok(config)
}

/// A run's exit code: bugs mean 1, failures (incidents, quarantined jobs)
/// under `--strict` mean 2 (honest-failure semantics), otherwise 0.
fn exit_status(found_bugs: bool, failures: usize, strict: bool) -> u8 {
    if strict && failures > 0 {
        2
    } else if found_bugs {
        1
    } else {
        0
    }
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// A run's observability sinks: the `--metrics-out` exposition and the
/// `--events-out` stream, which `run_start` and `run_end` bracket.
struct Sinks<'f> {
    metrics_out: Option<&'f str>,
    events_out: Option<&'f str>,
    zero_time: bool,
    /// The run's event bus; armed only under `--events-out`.
    bus: Option<Arc<EventBus>>,
}

impl<'f> Sinks<'f> {
    /// Arms the sinks `flags` ask for and opens the event stream with
    /// `run_start`. `run_inputs` seed the run id; `modules` is how many
    /// modules the run knows of up front.
    fn open(flags: &'f [Flag], run_inputs: &[String], modules: usize) -> Sinks<'f> {
        let zero_time = obs_zero_time();
        let events_out = flag_value(flags, "events-out");
        let bus = events_out.map(|_| {
            Arc::new(EventBus::new(
                derive_run_id(run_inputs, zero_time),
                zero_time,
            ))
        });
        if let Some(bus) = &bus {
            // Worker counts are deliberately absent: the stream must be
            // byte-identical across --jobs once timestamps are normalized.
            bus.emit_run(
                EventKind::RunStart,
                vec![("modules", Field::U64(modules as u64))],
            );
        }
        Sinks {
            metrics_out: flag_value(flags, "metrics-out"),
            events_out,
            zero_time,
            bus,
        }
    }

    /// Runs `work` while a ticker thread republishes `--metrics-out` from
    /// `telemetry` every ~200 ms, so external scrapers see a batch or a
    /// daemon move while it runs; [`Sinks::close`] writes the final
    /// (authoritative) exposition once `work` returns.
    fn live<R>(&self, telemetry: &Telemetry, work: impl FnOnce() -> R) -> R {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let ticker = self.metrics_out.map(|path| {
                let stop = &stop;
                scope.spawn(move || {
                    // A failing live republish degrades to one warning, not
                    // a warning every tick and never an aborted run; the
                    // final post-run write reports again through write_sink.
                    let mut warned = false;
                    loop {
                        for _ in 0..8 {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        let rendered = render_prometheus(&telemetry.snapshot(), self.zero_time);
                        if let Err(e) = write_out(path, &rendered) {
                            if !warned {
                                eprintln!("gcatch: warning: live metrics republish failed: {e}");
                                warned = true;
                            }
                        }
                    }
                })
            });
            let result = work();
            stop.store(true, Ordering::Relaxed);
            if let Some(t) = ticker {
                let _ = t.join();
            }
            result
        })
    }

    /// Writes the final `--metrics-out` exposition of `stats`, then closes
    /// the event stream with a `run_end` carrying `fields` and writes it
    /// to `--events-out`.
    fn close(&self, stats: &Stats, fields: Vec<(&'static str, Field)>) {
        if let Some(path) = self.metrics_out {
            write_sink(path, &render_prometheus(stats, self.zero_time));
        }
        if let (Some(bus), Some(path)) = (&self.bus, self.events_out) {
            bus.emit_run(EventKind::RunEnd, fields);
            write_sink(path, &bus.render_jsonl());
        }
    }
}

/// What checking one module produced.
struct Checked {
    diagnostics: Vec<Diagnostic>,
    incidents: Vec<Incident>,
    /// The session's counters, the module's wall time included.
    stats: Stats,
    /// The span recording (empty unless traced).
    trace: TraceSnapshot,
}

/// Checks one module: lowers `source`, builds its analysis session, runs
/// the selected checkers under `config`, and hands what they produced to
/// `finish` while the module and session are still alive. `check`,
/// `extended`, every batch job and serve's cold requests all come through
/// here, which is what keeps their reports byte-identical.
fn check_module<R>(
    source: &str,
    level: TraceLevel,
    config: &DetectorConfig,
    selection: &Selection,
    finish: impl FnOnce(Checked) -> R,
) -> Result<R, String> {
    let started = std::time::Instant::now();
    let module = gcatch_suite::ir::lower_source(source)?;
    let gcatch = GCatch::with_trace(&module, level);
    selection.validate(&gcatch.registry())?;
    let diagnostics = gcatch.diagnostics(config, selection);
    let incidents = gcatch.incidents();
    gcatch
        .session()
        .telemetry()
        .observe(Metric::ModuleWallNs, started.elapsed().as_nanos() as u64);
    Ok(finish(Checked {
        diagnostics,
        incidents,
        stats: gcatch.stats(),
        trace: gcatch.trace_snapshot(),
    }))
}

/// Shared body of `check` and `extended`: run the selected checkers, print
/// diagnostics as text or JSON, and end the process.
fn run_diagnostics(
    path: &str,
    flags: &[Flag],
    selection: Selection,
    empty_message: &str,
) -> Result<ExitCode, String> {
    let sinks = Sinks::open(flags, &[path.to_string()], 1);
    let level = trace_level(flag_value(flags, "trace"));
    let mut config = analysis_config(flags, true)?;
    config.obs = ObsScope {
        bus: sinks.bus.clone(),
        ..ObsScope::default()
    };
    let src = read_source(path)?;
    check_module(&src, level, &config, &selection, |checked| {
        let code = print_diagnostics(path, flags, &sinks, checked, empty_message)?;
        // The answer is out: exit from inside `check_module`, so neither
        // the module nor its analysis session is dropped. The operating
        // system takes their memory back in one piece; freeing it one
        // allocation at a time cost milliseconds on a large module.
        std::io::stdout()
            .flush()
            .map_err(|e| format!("cannot write to stdout: {e}"))?;
        std::process::exit(i32::from(code))
    })?
}

/// Writes the trace and sinks of a checked module, prints its report, and
/// returns the run's exit code.
fn print_diagnostics(
    path: &str,
    flags: &[Flag],
    sinks: &Sinks,
    checked: Checked,
    empty_message: &str,
) -> Result<u8, String> {
    let json = has_flag(flags, "json");
    let want_stats = has_flag(flags, "stats");
    let Checked {
        diagnostics,
        incidents,
        stats,
        trace,
    } = checked;
    if let Some(tp) = flag_value(flags, "trace") {
        write_trace(tp, &trace)?;
    }
    sinks.close(
        &stats,
        vec![
            ("diagnostics", Field::U64(diagnostics.len() as u64)),
            ("incidents", Field::U64(incidents.len() as u64)),
        ],
    );
    let code = exit_status(
        !diagnostics.is_empty(),
        incidents.len(),
        has_flag(flags, "strict"),
    );
    if json {
        println!(
            "{}",
            render_json_with(&diagnostics, want_stats.then_some(&stats), &incidents)
        );
        return Ok(code);
    }
    if diagnostics.is_empty() {
        println!("{path}: {empty_message}");
    } else {
        println!("{path}: {} diagnostic(s)\n", diagnostics.len());
        if has_flag(flags, "explain") {
            print!("{}", render_explain(&diagnostics));
        } else {
            for d in &diagnostics {
                println!(
                    "{} [{}] ({}) {}",
                    d.id,
                    d.severity.name(),
                    d.checker,
                    d.report
                );
            }
        }
    }
    for incident in &incidents {
        print!("{}", incident.render());
    }
    if want_stats {
        print!("{}", stats.render_text());
    }
    Ok(code)
}

fn cmd_check(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[REPORT_FLAGS, OBS_FLAGS, TIMEOUT_FLAG, ANALYSIS_FLAGS],
        &[
            ("explain", false),
            ("trace", true),
            ("only", true),
            ("skip", true),
            ("jobs", true),
        ],
    );
    let (path, flags) = parse_common(rest, &spec)?;
    let selection = Selection {
        only: flag_values(&flags, "only")?,
        skip: flag_values(&flags, "skip")?,
    };
    run_diagnostics(&path, &flags, selection, "no concurrency bugs detected")
}

fn cmd_extended(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[REPORT_FLAGS, OBS_FLAGS, TIMEOUT_FLAG, ANALYSIS_FLAGS],
        &[("explain", false), ("trace", true), ("jobs", true)],
    );
    let (path, flags) = parse_common(rest, &spec)?;
    let selection = Selection {
        only: vec!["send-on-closed".to_string()],
        skip: Vec::new(),
    };
    run_diagnostics(
        &path,
        &flags,
        selection,
        "no send-on-closed panics detected",
    )
}

/// `gcatch fix`: detect and patch to a fixpoint ([`gfix::fixpoint`]),
/// printing each applied patch's changed lines. A round applies every
/// patch it can prove independent, and at most [`gfix::MAX_FIX_ROUNDS`]
/// rounds run. When every round applied a patch, no round confirmed a
/// fixpoint: the summary says so and `fix` exits 2, the partial-result
/// code (`--write` still writes the patches it applied).
fn cmd_fix(rest: &[String]) -> Result<ExitCode, String> {
    let spec: &[FlagSpec] = &[("write", false), ("explain", false), ("trace", true)];
    let (path, flags) = parse_common(rest, spec)?;
    let write = has_flag(&flags, "write");
    let explain = has_flag(&flags, "explain");
    let trace_path = flag_value(&flags, "trace");
    let level = trace_level(trace_path);
    let original = read_source(&path)?;

    let fixed = gfix::fixpoint(&original, &DetectorConfig::default(), level)?;
    if let Some(tp) = trace_path {
        write_trace(tp, &fixed.trace)?;
    }
    if fixed.bugs.is_empty() {
        println!("{path}: no concurrency bugs detected");
        return Ok(ExitCode::SUCCESS);
    }
    println!("{path}: {} bug(s) detected\n", fixed.bugs.len());
    if explain {
        for bug in &fixed.bugs {
            print!("{bug}");
            match &bug.provenance {
                Some(p) => print!("{}", p.render()),
                None => println!("  why: reported by a flow-analysis checker (no solver query)"),
            }
            println!();
        }
    }
    for patch in &fixed.patches {
        println!(
            "[{}] {} ({} changed lines)",
            patch.strategy, patch.description, patch.changed_lines
        );
        for edit in golite::line_edits(&patch.before, &patch.after) {
            match edit {
                golite::LineEdit::Removed(line) => println!("  - {line}"),
                golite::LineEdit::Added(line) => println!("  + {line}"),
            }
        }
        println!();
    }
    for (bug, why) in &fixed.rejections {
        println!("not fixed: {} — {why}", bug.primitive_name);
    }
    let applied = fixed.patches.len();
    if fixed.converged {
        println!(
            "{applied} patch(es) applied (fixpoint after {} round(s))",
            fixed.rounds
        );
    } else {
        println!(
            "{applied} patch(es) applied (no fixpoint: stopped at the {}-round cap)",
            gfix::MAX_FIX_ROUNDS
        );
    }
    if write && applied > 0 {
        write_out(&path, &fixed.source)?;
        println!("wrote patched source to {path} ({applied} patch(es) applied)");
    }
    Ok(if fixed.converged {
        ExitCode::FAILURE
    } else {
        ExitCode::from(2)
    })
}

/// Writes one output file (a report, a sink, or `fix --write`'s patched
/// source) through [`write_atomic`], so an interrupted run never leaves
/// a truncated file behind.
fn write_out(path: &str, contents: &str) -> Result<(), String> {
    write_atomic(std::path::Path::new(path), |w| {
        w.write_all(contents.as_bytes())
    })
    .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Writes an observability sink file (`--metrics-out` / `--events-out`).
/// A sink failure — full disk, yanked directory — must never kill the run
/// that produced the results: it degrades to a structured `sink` incident
/// on stderr, and the run's own exit code stands.
fn write_sink(path: &str, contents: &str) {
    if let Err(message) = write_out(path, contents) {
        let incident = Incident {
            kind: IncidentKind::Sink,
            name: path.to_string(),
            message,
            rung: 0,
            flight: Vec::new(),
        };
        eprint!("gcatch: warning: {}", incident.render());
    }
}

fn cmd_simulate(rest: &[String]) -> Result<ExitCode, String> {
    let (path, flags) = parse_common(rest, &[("seeds", true), ("entry", true)])?;
    let seeds: u64 = parse_flag(&flags, "seeds")?.unwrap_or(30);
    let entry = flag_value(&flags, "entry").unwrap_or("main").to_string();
    let src = read_source(&path)?;
    let module = gcatch_suite::ir::lower_source(&src)?;
    let simulator = sim::Simulator::new(&module);
    let config = sim::Config {
        entry,
        ..sim::Config::default()
    };
    let mut blocked = 0usize;
    let mut panicked = 0usize;
    let mut clean = 0usize;
    let mut sample: Option<sim::RunReport> = None;
    for report in simulator.explore(&config, 0..seeds) {
        match report.outcome {
            sim::Outcome::Clean => clean += 1,
            sim::Outcome::Panic(_) => panicked += 1,
            sim::Outcome::Leak | sim::Outcome::GlobalDeadlock => {
                blocked += 1;
                if sample.is_none() {
                    sample = Some(report);
                }
            }
            sim::Outcome::StepLimit => {}
        }
    }
    println!("{path}: {seeds} schedules — {clean} clean, {blocked} blocked, {panicked} panicked");
    if let Some(report) = sample {
        println!("example blocked schedule:");
        for b in &report.blocked {
            println!(
                "  goroutine {} blocked in `{}` at {} ({:?})",
                b.id, b.func, b.span, b.reason
            );
        }
    }
    Ok(if blocked + panicked > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Expands the batch inputs into a deduplicated module list: files pass
/// through as-is; a directory contributes its `*.go` files
/// (non-recursive), sorted by name so the job set — and therefore the
/// journal fingerprint — is stable across runs.
fn expand_modules(inputs: &[String]) -> Result<Vec<String>, String> {
    let mut modules = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for input in inputs {
        let path = std::path::Path::new(input);
        let mut batch = Vec::new();
        if path.is_dir() {
            let entries =
                std::fs::read_dir(path).map_err(|e| format!("cannot read {input}: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot read {input}: {e}"))?;
                let p = entry.path();
                if p.is_file() && p.extension().is_some_and(|e| e == "go") {
                    batch.push(p.to_string_lossy().into_owned());
                }
            }
            batch.sort();
            if batch.is_empty() {
                return Err(format!("{input} contains no .go files"));
            }
        } else if path.is_file() {
            batch.push(input.clone());
        } else {
            return Err(format!("cannot read {input}: not a file or directory"));
        }
        for m in batch {
            if seen.insert(m.clone()) {
                modules.push(m);
            }
        }
    }
    Ok(modules)
}

/// Extracts the `"bugs":N` count from a batch job payload. The payload is
/// produced by [`batch_job`], whose escaped module name can never
/// contain a raw `"`, so the first `","bugs":` is always the real field.
fn payload_bugs(payload: &str) -> usize {
    payload
        .find("\",\"bugs\":")
        .map(|i| {
            payload[i + 9..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// A batch or sweep run's merged result.
struct Merged<'r> {
    records: &'r [JobRecord<String>],
    quarantined: usize,
    /// The merged JSON report.
    report: String,
    total_bugs: usize,
}

impl<'r> Merged<'r> {
    /// Renders the merged report from decided records and writes it to
    /// `--report` when asked. The output is deterministic — submission
    /// order, no attempt counts or timings, payloads that are pure
    /// functions of each module — so a resumed batch, and a multi-process
    /// sweep, are byte-identical to an uninterrupted single-process run.
    /// Sweep uses this renderer verbatim (including `"command":"batch"`):
    /// the report describes *what was decided*, not which topology
    /// decided it.
    fn new(
        flags: &[Flag],
        records: &'r [JobRecord<String>],
        quarantined: usize,
    ) -> Result<Merged<'r>, String> {
        let mut total_bugs = 0usize;
        let mut report = String::from("{\"version\":1,\"command\":\"batch\",\"modules\":[");
        for (i, rec) in records.iter().enumerate() {
            if i > 0 {
                report.push(',');
            }
            match &rec.payload {
                Some(p) => {
                    total_bugs += payload_bugs(p);
                    report.push_str(p);
                }
                None => {
                    report.push_str("{\"module\":\"");
                    escape_json(&rec.id, &mut report);
                    report.push_str("\",\"quarantined\":true,\"message\":\"");
                    if let Some(inc) = &rec.incident {
                        escape_json(&inc.message, &mut report);
                    }
                    // The flight-recorder dump rides along unconditionally:
                    // it is deterministic (attempt lifecycle only, no wall
                    // times), so the report stays byte-identical whether or
                    // not observability flags were passed.
                    report.push_str("\",\"flight\":[");
                    if let Some(inc) = &rec.incident {
                        for (i, line) in inc.flight.iter().enumerate() {
                            if i > 0 {
                                report.push(',');
                            }
                            report.push('"');
                            escape_json(line, &mut report);
                            report.push('"');
                        }
                    }
                    report.push_str("]}");
                }
            }
        }
        report.push_str("],\"total_bugs\":");
        report.push_str(&total_bugs.to_string());
        report.push_str(",\"quarantined\":");
        report.push_str(&quarantined.to_string());
        report.push('}');
        if let Some(path) = flag_value(flags, "report") {
            write_out(path, &format!("{report}\n"))?;
        }
        Ok(Merged {
            records,
            quarantined,
            report,
            total_bugs,
        })
    }

    /// Prints the outcome — the merged report under `--json` (with
    /// `--stats` folded in), otherwise `header`, one line per module
    /// (`--explain` adds each quarantined job's flight recorder) and the
    /// total — and returns the run's exit code.
    fn print(&self, flags: &[Flag], header: &str, stats: &Stats) -> ExitCode {
        let want_stats = has_flag(flags, "stats");
        if has_flag(flags, "json") {
            if want_stats {
                let mut with_stats = self.report[..self.report.len() - 1].to_string();
                with_stats.push_str(",\"stats\":");
                with_stats.push_str(&render_stats_json(stats));
                with_stats.push('}');
                println!("{with_stats}");
            } else {
                println!("{}", self.report);
            }
        } else {
            println!("{header}");
            for rec in self.records {
                match &rec.payload {
                    Some(p) => println!("  {}: {} bug(s)", rec.id, payload_bugs(p)),
                    None => {
                        let why = rec.incident.as_ref().map_or("", |inc| inc.message.as_str());
                        println!("  {}: quarantined — {why}", rec.id);
                        if has_flag(flags, "explain") {
                            if let Some(inc) = &rec.incident {
                                print!("{}", inc.render());
                            }
                        }
                    }
                }
            }
            println!("total: {} bug(s)", self.total_bugs);
            if want_stats {
                print!("{}", stats.render_text());
            }
        }
        ExitCode::from(exit_status(
            self.total_bugs > 0,
            self.quarantined,
            has_flag(flags, "strict"),
        ))
    }
}

/// How often to redraw the live `--progress` line, if it is drawn at all:
/// only on a terminal stderr, and never under `--json`.
fn progress_every(flags: &[Flag]) -> Option<Duration> {
    (has_flag(flags, "progress")
        && !has_flag(flags, "json")
        && std::io::IsTerminal::is_terminal(&std::io::stderr()))
    .then_some(Duration::from_millis(100))
}

/// Redraws the live progress line in place on stderr.
fn draw_progress(snap: &ProgressSnapshot) {
    use std::io::Write;
    let mut err = std::io::stderr().lock();
    let _ = write!(err, "\r\x1b[K{}", snap.render_line());
    let _ = err.flush();
}

/// One batch job: check the module at `path` and return a self-contained
/// JSON payload. Failures surface as `Err` so the engine retries
/// (transient, e.g. injected faults) or quarantines (deterministic, e.g. a
/// syntax error) the module instead of killing the run.
fn batch_job(
    path: String,
    base: DetectorConfig,
    telemetry: &Telemetry,
    bus: Option<Arc<EventBus>>,
) -> BatchJob<'_, String> {
    BatchJob::new(path.clone(), move |ctx| {
        let src = read_source(&path)?;
        // The flight recorder is always attached (its lines feed the
        // quarantine postmortem, which must be byte-identical whether or
        // not --events-out was passed); the bus only when the run armed one.
        let config = DetectorConfig {
            obs: ObsScope {
                bus: bus.clone(),
                flight: Some(ctx.flight.clone()),
                job: Some(ctx.job_id.clone()),
                group: Some(ctx.index as u64),
                attempt: Some(ctx.attempt),
            },
            ..base.clone()
        };
        let checked = check_module(
            &src,
            TraceLevel::Off,
            &config,
            &Selection::default(),
            identity,
        )?;
        // An injected fault contained by an inner degradation rung would
        // leave a partial report behind; surface it as a failed attempt so
        // the retry produces a clean, deterministic payload instead.
        if let Some(inc) = checked
            .incidents
            .iter()
            .find(|i| faults::is_injected(&i.message))
        {
            return Err(inc.message.clone());
        }
        telemetry.absorb(&checked.stats);
        let mut payload = String::from("{\"module\":\"");
        escape_json(&path, &mut payload);
        payload.push_str("\",\"bugs\":");
        payload.push_str(&checked.diagnostics.len().to_string());
        payload.push_str(",\"report\":");
        payload.push_str(&render_json_with(
            &checked.diagnostics,
            None,
            &checked.incidents,
        ));
        payload.push('}');
        Ok(payload)
    })
}

/// The engine configuration batch jobs are decided under. Every
/// record-shaping knob (attempt budget, backoff schedule, fault plan)
/// comes from the same flags for `batch` and a sweep worker; only the
/// topology differs: `batch` runs `--jobs` workers (0 = all cores), a
/// sweep worker one. Either way each decision is a pure function of its
/// module, which is what makes the merged sweep report byte-identical to
/// `gcatch batch` regardless of fleet size, kills, or re-leases.
fn engine_config(flags: &[Flag], sweep_worker: bool) -> Result<BatchConfig, String> {
    let (plan, fault_seed) = fault_plan(flags)?;
    let max_attempts = parse_flag(flags, "max-attempts")?.unwrap_or(3);
    if max_attempts == 0 {
        return Err("--max-attempts must be at least 1".into());
    }
    let mut batch = BatchConfig {
        workers: 1,
        max_attempts,
        faults: plan.map(Arc::new),
        ..BatchConfig::default()
    };
    if !sweep_worker {
        batch.workers = match parse_flag(flags, "jobs")?.unwrap_or(0) {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
            n => n,
        };
    }
    if let Some(ms) = parse_flag(flags, "backoff-ms")? {
        batch.backoff.base = Duration::from_millis(ms);
    }
    batch.backoff.seed = fault_seed.unwrap_or(0);
    Ok(batch)
}

fn cmd_batch(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[
            REPORT_FLAGS,
            OBS_FLAGS,
            RETRY_FLAGS,
            FAULT_FLAGS,
            TIMEOUT_FLAG,
            ANALYSIS_FLAGS,
        ],
        &[
            ("jobs", true),
            ("journal", true),
            ("resume", true),
            ("report", true),
            ("explain", false),
            ("progress", false),
            ("trace", true),
        ],
    );
    let (inputs, flags) = parse_multi(rest, &spec)?;
    let modules = expand_modules(&inputs)?;
    let trace_path = flag_value(&flags, "trace");
    let level = trace_level(trace_path);
    let sinks = Sinks::open(&flags, &modules, modules.len());
    let batch = engine_config(&flags, false)?;
    let base = analysis_config(&flags, false)?;

    let journal_flag = flag_value(&flags, "journal");
    let resume_flag = flag_value(&flags, "resume");
    if journal_flag.is_some() && resume_flag.is_some() {
        return Err("--journal and --resume are mutually exclusive".into());
    }
    let (journal, restored) = match (journal_flag, resume_flag) {
        (Some(p), None) => {
            let journal = Journal::create(std::path::Path::new(p), &modules)
                .map_err(|e| format!("cannot create journal {p}: {e}"))?;
            (Some(journal), BTreeMap::new())
        }
        (None, Some(p)) => {
            let (journal, restored) = Journal::open_resume(std::path::Path::new(p), &modules)?;
            (Some(journal), restored)
        }
        _ => (None, BTreeMap::new()),
    };

    let telemetry = Telemetry::new();
    let tracer = Tracer::new(level);
    let jobs: Vec<BatchJob<String>> = modules
        .iter()
        .map(|path| batch_job(path.clone(), base.clone(), &telemetry, sinks.bus.clone()))
        .collect();
    let mut engine = BatchEngine::new(batch, &telemetry, &tracer);
    if let Some(bus) = &sinks.bus {
        engine = engine.with_events(bus);
    }
    let progress = progress_every(&flags);
    if let Some(every) = progress {
        engine = engine.with_progress(draw_progress, every);
    }
    let journal = journal
        .as_ref()
        .map(|j| (j, String::clone as fn(&String) -> String));
    let outcome = sinks.live(&telemetry, || engine.run(&jobs, journal, restored));
    if progress.is_some() {
        eprint!("\r\x1b[K");
    }
    drop(jobs);
    if let Some(tp) = trace_path {
        write_trace(tp, &tracer.snapshot())?;
    }
    if let Some(err) = &outcome.journal_error {
        eprintln!("gcatch: warning: journal write failed: {err}");
    }

    let merged = Merged::new(&flags, &outcome.records, outcome.quarantined)?;
    let stats = telemetry.snapshot();
    let modules = stats.counter(Counter::JobsTotal);
    let resumed = stats.counter(Counter::JobsResumed);
    sinks.close(
        &stats,
        vec![
            ("modules", Field::U64(modules)),
            ("executed", Field::U64(modules - resumed)),
            ("resumed", Field::U64(resumed)),
            ("quarantined", Field::U64(outcome.quarantined as u64)),
            ("total_bugs", Field::U64(merged.total_bugs as u64)),
        ],
    );
    let header = format!(
        "batch: {modules} module(s) — {} executed, {resumed} resumed, {} quarantined",
        modules - resumed,
        outcome.quarantined
    );
    Ok(merged.print(&flags, &header, &stats))
}

/// Exec-layer flags shared by `batch`, `sweep`, and `worker`: everything
/// here shapes a job's decided record (attempt budget, backoff schedule,
/// fault plan, analysis budgets), so `sweep` forwards them verbatim to
/// every worker process — otherwise the merged report would diverge from
/// a single-process `batch` run over the same modules.
fn exec_flags() -> Vec<FlagSpec> {
    spec(
        &[RETRY_FLAGS, FAULT_FLAGS, TIMEOUT_FLAG, ANALYSIS_FLAGS],
        &[],
    )
}

/// Resolves the fault plan shared by batch/sweep/worker/serve: CLI flags
/// override the `GCATCH_FAULT_*` environment. Also returns the CLI
/// `--fault-seed` (it doubles as the retry-backoff seed).
fn fault_plan(flags: &[Flag]) -> Result<(Option<FaultPlan>, Option<u64>), String> {
    let fault_rate: Option<f64> = parse_flag(flags, "inject-faults")?;
    let fault_seed = parse_flag(flags, "fault-seed")?;
    if fault_seed.is_some() && fault_rate.is_none() {
        return Err("--fault-seed needs --inject-faults".into());
    }
    let plan = match fault_rate {
        Some(rate) => {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("bad --inject-faults: {rate} is not in [0, 1]"));
            }
            Some(FaultPlan::new(rate, fault_seed.unwrap_or(0)))
        }
        None => FaultPlan::from_env()?,
    };
    Ok((plan, fault_seed))
}

/// The subset of `flags` in [`exec_flags`], re-rendered as command-line
/// arguments for a spawned worker process.
fn forward_exec_flags(flags: &[Flag]) -> Vec<String> {
    let exec = exec_flags();
    let mut out = Vec::new();
    for (name, value) in flags {
        if exec.iter().any(|(n, _)| n == name) {
            out.push(format!("--{name}"));
            if let Some(v) = value {
                out.push(v.clone());
            }
        }
    }
    out
}

/// How long a sweep assignment lasts unless its worker holds it again
/// (`--lease-ms`, default 1 s, at least 20 ms). The coordinator passes
/// its value to every worker it spawns, which beats and holds every
/// quarter of it.
fn lease(flags: &[Flag]) -> Result<Duration, String> {
    Ok(Duration::from_millis(
        parse_flag(flags, "lease-ms")?.unwrap_or(1_000).max(20),
    ))
}

/// One sweep worker process (spawned by `gcatch sweep`): runs the jobs
/// its coordinator assigns on stdin, each through a single-job batch
/// engine that journals the decided record to this worker's own journal,
/// and reports on stdout.
fn cmd_worker(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[&exec_flags()],
        &[("dir", true), ("id", true), ("lease-ms", true)],
    );
    let (_, flags) = parse_args(rest, &spec, 0)?;
    let dir = flag_value(&flags, "dir").ok_or("worker needs --dir")?;
    let id = flag_value(&flags, "id")
        .ok_or("worker needs --id")?
        .to_string();
    let lease = lease(&flags)?;

    let layout = SweepLayout::new(dir);
    let ids = read_manifest(&layout)?;
    let batch = engine_config(&flags, true)?;
    let base = analysis_config(&flags, false)?;

    let journal = Journal::create(&layout.journal_path(&id), &ids)
        .map_err(|e| format!("cannot create worker journal: {e}"))?;
    let telemetry = Telemetry::new();
    let tracer = Tracer::new(TraceLevel::Off);
    let config = WorkerConfig {
        id,
        lease,
        plan: batch.faults.clone(),
    };
    let stdout = std::sync::Mutex::new(std::io::stdout());
    run_worker(
        &ids,
        std::io::stdin().lock(),
        &stdout,
        &config,
        |_, module| {
            let job = batch_job(module.to_string(), base.clone(), &telemetry, None);
            let engine = BatchEngine::new(batch.clone(), &telemetry, &tracer);
            let outcome = engine.run(&[job], Some((&journal, String::clone)), BTreeMap::new());
            match outcome.journal_error {
                Some(err) => Err(format!("journal write failed: {err}")),
                None => Ok(()),
            }
        },
    )?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[REPORT_FLAGS, OBS_FLAGS, &exec_flags()],
        &[
            ("workers", true),
            ("dir", true),
            ("lease-ms", true),
            ("max-releases", true),
            ("report", true),
            ("progress", false),
        ],
    );
    let (inputs, flags) = parse_multi(rest, &spec)?;
    let modules = expand_modules(&inputs)?;

    // Validate every exec-layer flag up front so usage errors surface
    // here, with exit code 2, instead of inside a spawned worker.
    engine_config(&flags, true)?;
    analysis_config(&flags, false)?;

    let workers = match parse_flag(&flags, "workers")?.unwrap_or(4) {
        0 => return Err("--workers must be at least 1".into()),
        n => n,
    };
    let lease = lease(&flags)?;
    let max_releases = parse_flag(&flags, "max-releases")?.unwrap_or(3);

    // The sweep directory: caller-provided (kept afterwards, must be
    // fresh) or an ephemeral temp directory (removed after the run).
    let ephemeral = flag_value(&flags, "dir").is_none();
    let root = match flag_value(&flags, "dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("gcatch-sweep-{}", std::process::id())),
    };
    let layout = SweepLayout::new(&root);
    if layout.manifest_path().exists() {
        return Err(format!(
            "sweep directory {} already contains a manifest; use a fresh --dir",
            root.display()
        ));
    }
    layout
        .init()
        .map_err(|e| format!("cannot create sweep directory {}: {e}", root.display()))?;
    write_manifest(&layout, &modules).map_err(|e| format!("cannot write sweep manifest: {e}"))?;

    let sinks = Sinks::open(&flags, &modules, modules.len());
    let telemetry = Telemetry::new();
    let config = SweepConfig {
        workers,
        lease,
        max_releases,
    };
    let mut coordinator = Coordinator::new(layout.clone(), modules.clone(), config, &telemetry);
    if let Some(bus) = &sinks.bus {
        coordinator = coordinator.with_events(bus);
    }
    let progress = progress_every(&flags);
    if let Some(every) = progress {
        coordinator = coordinator.with_progress(draw_progress, every);
    }

    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the gcatch executable: {e}"))?;
    let forwarded = forward_exec_flags(&flags);
    let outcome = coordinator.run(|name| {
        let mut worker = std::process::Command::new(&exe);
        worker
            .arg("worker")
            .arg("--dir")
            .arg(&root)
            .arg("--id")
            .arg(name)
            .arg("--lease-ms")
            .arg(lease.as_millis().to_string())
            .args(&forwarded);
        worker
    })?;
    if progress.is_some() {
        eprint!("\r\x1b[K");
    }

    // Duplicate decisions never change the report (the kept record is
    // byte-identical to what a single-process run would have produced);
    // they surface as warnings and structured incidents instead.
    for dup in &outcome.merge.duplicates {
        let incident = dup.incident();
        eprintln!(
            "gcatch: warning: duplicate decision for {}: {}",
            dup.job, incident.message
        );
    }

    let records = &outcome.merge.records;
    let quarantined = records.iter().filter(|r| r.payload.is_none()).count();
    let merged = Merged::new(&flags, records, quarantined)?;
    let stats = telemetry.snapshot();
    let spawned = stats.counter(Counter::WorkersSpawned);
    let lost = stats.counter(Counter::WorkersLost);
    let releases = stats.counter(Counter::JobsReleases);
    sinks.close(
        &stats,
        vec![
            ("modules", Field::U64(records.len() as u64)),
            ("quarantined", Field::U64(quarantined as u64)),
            ("total_bugs", Field::U64(merged.total_bugs as u64)),
            ("workers_spawned", Field::U64(spawned)),
            ("workers_lost", Field::U64(lost)),
            ("releases", Field::U64(releases)),
        ],
    );
    let header = format!(
        "sweep: {} module(s) — {spawned} workers spawned, {lost} lost, {releases} releases, \
         {quarantined} quarantined",
        records.len(),
    );
    let code = merged.print(&flags, &header, &stats);
    if outcome.interrupted {
        // Nothing resumes an interrupted sweep, so name what it left.
        let missing = &outcome.merge.missing;
        eprintln!(
            "gcatch: sweep interrupted — {} decided job(s) merged, {} undecided{}",
            records.len(),
            missing.len(),
            if missing.is_empty() { "" } else { ":" }
        );
        for id in missing {
            eprintln!("  {id}");
        }
    }
    if ephemeral {
        let _ = std::fs::remove_dir_all(&root);
    }
    // The conventional 128 + SIGINT exit for a run wound down early;
    // decided work was merged and reported above.
    Ok(if outcome.interrupted {
        ExitCode::from(130)
    } else {
        code
    })
}

/// Fingerprint of every flag that shapes a serve response byte. The
/// cache index records it in its header; an index written under a
/// different fingerprint is discarded wholesale on startup, because its
/// cached responses would no longer match what this daemon computes. The
/// leading version changes with the response text itself: `v2` labels the
/// operations of non-blocking reports `op:` in `explain` text, and `v3`
/// names each blocking operation's own function, not its goroutine's root.
fn serve_fingerprint(flags: &[Flag]) -> String {
    let mut fp = String::from("v3");
    for (name, takes_value) in ANALYSIS_FLAGS {
        fp.push(';');
        fp.push_str(name);
        fp.push('=');
        if *takes_value {
            fp.push_str(flag_value(flags, name).unwrap_or("default"));
        } else {
            fp.push_str(if has_flag(flags, name) { "on" } else { "off" });
        }
    }
    fp
}

/// One serve work request, executed on a daemon pool thread. `check`
/// returns the exact report `gcatch check --json` would print for the
/// module (that byte-identity is what makes the response cache sound);
/// `explain` wraps the provenance text; `fix-dry-run` summarizes the
/// patches GFix would apply without writing anything.
fn serve_execute(
    op: WorkKind,
    source: &str,
    budget: &Budget,
    base: &DetectorConfig,
) -> Result<String, String> {
    // The request deadline flows into the analysis budget, so a slow
    // module degrades through the usual rungs instead of running
    // unbounded; the daemon still issues the authoritative deadline
    // verdict after the call returns.
    let mut config = base.clone();
    if let Some(deadline) = budget.deadline() {
        config.timeout = Some(deadline.saturating_duration_since(std::time::Instant::now()));
    }
    match op {
        WorkKind::Check => {
            let checked = check_module(
                source,
                TraceLevel::Off,
                &config,
                &Selection::default(),
                identity,
            )?;
            Ok(render_json_with(
                &checked.diagnostics,
                None,
                &checked.incidents,
            ))
        }
        WorkKind::Explain => {
            let checked = check_module(
                source,
                TraceLevel::Off,
                &config,
                &Selection::default(),
                identity,
            )?;
            let text = render_explain(&checked.diagnostics);
            let mut out = String::from("{\"diagnostics\":");
            out.push_str(&checked.diagnostics.len().to_string());
            out.push_str(",\"explain\":\"");
            escape_json(&text, &mut out);
            out.push_str("\"}");
            Ok(out)
        }
        WorkKind::FixDryRun => {
            let pipeline = gfix::Pipeline::from_source(source)?;
            let results = pipeline.run(&config);
            let mut out = String::from("{\"bugs\":");
            out.push_str(&results.bugs.len().to_string());
            out.push_str(",\"patches\":[");
            for (i, patch) in results.patches.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"strategy\":\"");
                escape_json(&patch.strategy.to_string(), &mut out);
                out.push_str("\",\"description\":\"");
                escape_json(&patch.description, &mut out);
                out.push_str("\",\"changed_lines\":");
                out.push_str(&patch.changed_lines.to_string());
                out.push('}');
            }
            out.push_str("]}");
            Ok(out)
        }
    }
}

fn cmd_serve(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[OBS_FLAGS, FAULT_FLAGS, ANALYSIS_FLAGS],
        &[
            ("socket", true),
            ("stdio", false),
            ("cache-dir", true),
            ("max-queue", true),
            ("workers", true),
            ("request-timeout-ms", true),
            ("max-cache", true),
            ("max-sessions", true),
        ],
    );
    let (_, flags) = parse_args(rest, &spec, 0)?;
    let socket = flag_value(&flags, "socket").map(std::path::PathBuf::from);
    let stdio = has_flag(&flags, "stdio");
    if socket.is_some() && stdio {
        return Err("--socket and --stdio are mutually exclusive".into());
    }
    if socket.is_none() && !stdio {
        return Err("serve needs --socket PATH or --stdio".into());
    }
    let (plan, _fault_seed) = fault_plan(&flags)?;
    let base = analysis_config(&flags, false)?;
    let workers = match parse_flag(&flags, "workers")?.unwrap_or(4) {
        0 => return Err("--workers must be at least 1".into()),
        n => n,
    };
    let max_queue = parse_flag(&flags, "max-queue")?.unwrap_or(64);
    let request_timeout = parse_flag(&flags, "request-timeout-ms")?.map(Duration::from_millis);
    let cache_capacity = match parse_flag(&flags, "max-cache")?.unwrap_or(512) {
        0 => return Err("--max-cache must be at least 1".into()),
        n => n,
    };
    let max_sessions: usize = parse_flag(&flags, "max-sessions")?.unwrap_or(8);
    let cache_dir = flag_value(&flags, "cache-dir").map(std::path::PathBuf::from);
    let sinks = Sinks::open(&flags, &["serve".to_string()], 0);

    // Warm-session eligibility. Sessions carry analysis artifacts across
    // requests, so they are only sound when every request computes the
    // same bytes a cold run would: no budgets that could truncate a rung
    // mid-module, disentangling on (the dirty-set rule is scope-based),
    // and no fault plan other than one scoped to the session-loss site
    // itself (whose injection is handled inside `warm_check`).
    let warm_plan_ok = plan.as_ref().is_none_or(|p| {
        p.sites
            .as_ref()
            .is_some_and(|s| s.iter().all(|site| site == faults::SITE_SERVE_SESSION))
    });
    let warm_base_ok = base.timeout.is_none()
        && base.channel_timeout.is_none()
        && base.solver_step_pool.is_none()
        && base.disentangle;
    let warm_store = (max_sessions > 0 && warm_plan_ok && warm_base_ok)
        .then(|| Arc::new(WarmSessions::new(max_sessions)));

    let config = ServeConfig {
        workers,
        max_queue,
        request_timeout,
        cache_dir,
        cache_capacity,
        config_fingerprint: serve_fingerprint(&flags),
        plan: plan.map(Arc::new),
        warm: warm_store.clone(),
    };
    let telemetry = Telemetry::new();
    let executor = |op: WorkKind, path: &str, source: &str, budget: &Budget| {
        // Timed requests bypass the warm layer: a deadline can truncate
        // analysis rungs, and truncated verdicts must never be harvested
        // into (or replayed from) a session.
        if op == WorkKind::Check && budget.deadline().is_none() {
            if let Some(store) = warm_store.as_deref() {
                let outcome = warm_check(store, path, source, &base, AliasMode::default())?;
                // Filed under the request, so its events group and filter
                // with the rest of that request's.
                let (group, id) = current_request().unwrap_or_default();
                let rec = Recorder {
                    telemetry: Some(&telemetry),
                    bus: sinks.bus.as_deref(),
                    group,
                    job: Some(&id),
                    ..Recorder::default()
                };
                rec.record(Decision::SessionUse {
                    reused: outcome.reused,
                    replayed: outcome.replayed,
                    reanalyzed: outcome.reanalyzed,
                });
                rec.record(Decision::SessionEvict {
                    evicted: outcome.evicted,
                    fault: outcome.fault_evicted,
                });
                return Ok(outcome.json);
            }
        }
        serve_execute(op, source, budget, &base)
    };

    let summary = sinks.live(&telemetry, || match &socket {
        Some(path) => serve_socket(path, &config, &executor, &telemetry, sinks.bus.clone()),
        None => serve_stdio(&config, &executor, &telemetry, sinks.bus.clone()),
    })?;

    sinks.close(
        &telemetry.snapshot(),
        vec![
            ("requests", Field::U64(summary.requests)),
            ("shed", Field::U64(summary.shed)),
            ("failed", Field::U64(summary.failed)),
            ("cache_hits", Field::U64(summary.cache_hits)),
        ],
    );
    // The summary goes to stderr: in --stdio mode stdout is the protocol
    // stream and must carry response lines only.
    eprintln!(
        "gcatch: serve drained — {} request(s), {} shed, {} failed, {} cache hit(s), \
         cache warm {} / dropped {}",
        summary.requests,
        summary.shed,
        summary.failed,
        summary.cache_hits,
        summary.cache_warm,
        summary.cache_dropped,
    );
    Ok(ExitCode::SUCCESS)
}
