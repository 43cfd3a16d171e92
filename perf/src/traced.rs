//! The traced run: the same operations as the end-to-end workloads, run
//! in process with single-threaded detection (`jobs: 1`, so counts repeat
//! exactly), with a span recorded around each call into a layer's public
//! entry point. Spans stay in memory and are folded into per-layer
//! metrics when the run ends; stage times and counters come from the
//! program's own `Stats`.

use crate::check::{self, Finding, PatchText};
use crate::e2e::{Ctx, Daemon};
use crate::inputs::{self, EditKind, EditScript, MAX_FIX_ROUNDS};
use crate::spec::{PER_LAYER, TABLE_ONLY};
use crate::stats::{covered, median};
use gcatch::serve::serve_lines;
use gcatch::{
    render_json_with, warm_check, AliasMode, BatchConfig, BatchEngine, BatchJob, Budget, Counter,
    DetectorConfig, Diagnostic, GCatch, JobCtx, ObsScope, Selection, ServeConfig, Stage, Stats,
    Telemetry, TraceLevel, Tracer, WarmSessions, WorkKind,
};
use go_corpus::apps::GeneratedApp;
use golite::Program;
use golite_ir::diff::{changed_funcs, module_shape, ModuleShape};
use golite_ir::Module;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// In-memory span store shared by every thread of the run.
pub struct Recorder {
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            base: Instant::now(),
            // Room for the spans of a long run, so growing the store does
            // not land inside a span.
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no span writer panics")
    }

    fn open(&self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let mut spans = self.lock();
        spans.reserve(1);
        let start = self.base.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end = self.base.elapsed().as_nanos() as u64;
        self.lock()[id].end = end;
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.lock().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start,
                s.end
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Where a piece of work records its spans; `rec: None` runs the same
/// code untraced, which is what `trace.overhead_pct` compares against.
#[derive(Clone, Copy)]
pub struct Tr<'a> {
    rec: Option<&'a Recorder>,
    op: u64,
    parent: Option<usize>,
}

impl<'a> Tr<'a> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce(Tr<'a>) -> T) -> T {
        match self.rec {
            None => f(*self),
            Some(r) => {
                let id = r.open(name, self.op, self.parent);
                let out = f(Tr {
                    parent: Some(id),
                    ..*self
                });
                r.close(id);
                out
            }
        }
    }

    /// Opens a span that [`Tr::exit`] closes, for work a closure cannot
    /// hold (dropping values that borrow one another).
    fn enter(&self, name: &'static str) -> Option<usize> {
        self.rec.map(|r| r.open(name, self.op, self.parent))
    }

    fn exit(&self, id: Option<usize>) {
        if let (Some(r), Some(id)) = (self.rec, id) {
            r.close(id);
        }
    }
}

/// Tally key of the bytes an operation handed to `golite::parse`.
const PARSE_BYTES: &str = "parse.bytes";

/// Runs work without recording spans.
const UNTRACED: Tr<'static> = Tr {
    rec: None,
    op: 0,
    parent: None,
};

/// Per-operation values, keyed by per-layer metric name.
type Tally = BTreeMap<&'static str, f64>;

fn add(t: &mut Tally, key: &'static str, v: f64) {
    *t.entry(key).or_default() += v;
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The detection layers of one module, from source text to diagnostics.
struct Analyzed {
    findings: Vec<Finding>,
    stats: Stats,
    funcs: usize,
    /// Time inside `GCatch::diagnostics` not covered by its stage timers.
    unattributed_ms: f64,
    /// Disentangling done lazily inside `diagnostics`.
    late_disentangle_ms: f64,
}

/// parse → lower → session (alias analysis and primitive discovery) →
/// disentangle → diagnostics, then `then` on the live analysis.
fn analyze<R>(
    src: &str,
    config: &DetectorConfig,
    tr: Tr<'_>,
    then: impl FnOnce(&Program, &Module, &GCatch<'_>, &[Diagnostic]) -> R,
) -> Result<(Analyzed, R), String> {
    let program = tr
        .span("parse", |_| golite::parse(src))
        .map_err(|e| e.to_string())?;
    let module = tr
        .span("lower", |_| golite_ir::lower(&program))
        .map_err(|e| e.to_string())?;
    let gcatch = tr.span("alias", |_| {
        GCatch::with_options(&module, TraceLevel::Off, AliasMode::default())
    });
    tr.span("disentangle", |_| {
        gcatch.session().dependency_graph();
        gcatch.session().scopes();
    });
    let before = gcatch.session().telemetry().stage_time(Stage::Disentangle);
    let (diagnostics, detect) = secs_of(|| {
        tr.span("detect", |_| {
            gcatch.diagnostics(config, &Selection::default())
        })
    });
    let out = then(&program, &module, &gcatch, &diagnostics);
    let analyzed = tr.span("harness", |_| {
        let stats = gcatch.stats();
        let late = stats.stage(Stage::Disentangle).saturating_sub(before);
        let staged = stats.stage(Stage::Paths)
            + stats.stage(Stage::Constraints)
            + stats.stage(Stage::Traditional)
            + late;
        Analyzed {
            findings: check::findings_from_diagnostics(&diagnostics),
            funcs: module.funcs.len(),
            unattributed_ms: (detect - staged.as_secs_f64()).max(0.0) * 1e3,
            late_disentangle_ms: ms(late),
            stats,
        }
    });
    let teardown = tr.enter("teardown");
    drop(diagnostics);
    drop(gcatch);
    drop(module);
    drop(program);
    // The allocator defers part of freeing a large analysis until the next
    // large allocation; making one here bills that work to teardown rather
    // than to whatever allocates next.
    drop(std::hint::black_box(Vec::<u8>::with_capacity(1 << 16)));
    tr.exit(teardown);
    Ok((analyzed, out))
}

/// `render_json_with`, returning the report length.
fn render(gcatch: &GCatch<'_>, diagnostics: &[Diagnostic], tr: Tr<'_>) -> usize {
    let incidents = gcatch.incidents();
    tr.span("render", |_| {
        render_json_with(diagnostics, None, &incidents)
    })
    .len()
}

/// Folds the analyses of one operation into its tally: their stage times
/// and counters.
fn tally_analyses<'x>(analyses: impl IntoIterator<Item = &'x Analyzed>, tally: &mut Tally) {
    let tel = Telemetry::new();
    for a in analyses {
        tel.absorb(&a.stats);
        add(tally, "lower.ir_funcs", a.funcs as f64);
        add(tally, "detector.unattributed_ms", a.unattributed_ms);
        add(tally, "disentangle.self_ms", a.late_disentangle_ms);
    }
    let s = tel.snapshot();
    let c = |k| s.counter(k) as f64;
    for (key, v) in [
        ("paths.self_ms", ms(s.stage(Stage::Paths))),
        ("constraints.self_ms", ms(s.stage(Stage::Constraints))),
        ("traditional.self_ms", ms(s.stage(Stage::Traditional))),
        ("alias.queries_solved", c(Counter::AliasQueriesSolved)),
        ("alias.functions_skipped", c(Counter::AliasFunctionsSkipped)),
        ("disentangle.psets", c(Counter::PsetsComputed)),
        ("disentangle.pset_prims", c(Counter::PsetPrimsTotal)),
        ("paths.enumerated", c(Counter::PathsEnumerated)),
        ("paths.combos", c(Counter::CombosBuilt)),
        ("constraints.solver_queries", c(Counter::SolverQueries)),
        ("constraints.solver_steps", c(Counter::SolverSteps)),
        ("constraints.solver_conflicts", c(Counter::SolverConflicts)),
        (
            "constraints.encodings_shared",
            c(Counter::ChannelEncodingsShared),
        ),
    ] {
        add(tally, key, v);
    }
    let channels = c(Counter::ChannelsAnalyzed);
    if channels > 0.0 {
        add(
            tally,
            "constraints.share_ratio",
            c(Counter::ChannelEncodingsShared) / channels,
        );
    }
}

/// Times reported both in ms and as a share in %. The first [`LAYERS`]
/// are the layers an operation's time is split into, and each share is of
/// their sum: the operation's wall time, or its busy time when batch
/// workers overlap. The last cuts across the layers. The shares go into
/// the result line: a workload that bypasses a layer reads 0 there, which
/// is a share, not a time that never moves.
const SHARES: [(&str, &str); 17] = [
    ("parse.self_ms", "parse.self_pct"),
    ("lower.self_ms", "lower.self_pct"),
    ("alias.self_ms", "alias.self_pct"),
    ("disentangle.self_ms", "disentangle.self_pct"),
    ("paths.self_ms", "paths.self_pct"),
    ("constraints.self_ms", "constraints.self_pct"),
    ("traditional.self_ms", "traditional.self_pct"),
    ("detector.unattributed_ms", "detector.unattributed_pct"),
    ("render.self_ms", "render.self_pct"),
    ("teardown.self_ms", "teardown.self_pct"),
    ("gfix.self_ms", "gfix.self_pct"),
    ("warm.self_ms", "warm.self_pct"),
    ("diff.shape_ms", "diff.shape_pct"),
    ("serve.overhead_ms", "serve.overhead_pct"),
    ("batch.self_ms", "batch.self_pct"),
    ("harness.self_ms", "harness.self_pct"),
    ("gfix.redetect_ms", "gfix.redetect_pct"),
];

/// How many of [`SHARES`] partition an operation.
const LAYERS: usize = 16;

/// The layer a span's self time belongs to. `harness` is the benchmark
/// reading the program's counters and results between layer calls; `op`
/// is what no span explains; `detect` is split by the stage timers.
/// `side.*` spans replay, outside the operation, the public calls
/// `warm_check` makes inside it, so they are taken out of `warm`.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "parse" | "side.parse" => "parse.self_ms",
        "lower" | "side.lower" => "lower.self_ms",
        "alias" | "side.alias" => "alias.self_ms",
        "disentangle" => "disentangle.self_ms",
        "render" => "render.self_ms",
        "gfix" => "gfix.self_ms",
        "batch" | "job" => "batch.self_ms",
        "serve" => "serve.overhead_ms",
        "warm" => "warm.self_ms",
        "side.diff" => "diff.shape_ms",
        "teardown" => "teardown.self_ms",
        "harness" => "harness.self_ms",
        _ => return None,
    })
}

/// One operation of the traced run.
struct Op {
    id: u64,
    traced: bool,
    secs: f64,
    tally: Tally,
}

/// Everything a traced run measured.
#[derive(Default)]
struct Run {
    ops: Vec<Op>,
    /// In-process operations configured as the CLI runs them, and the
    /// binary doing the same, for `process.overhead_ms`.
    inproc_cli: Vec<f64>,
    binary: Vec<f64>,
    restarts_ms: Vec<f64>,
    cache_hits: Vec<f64>,
    failed: usize,
    /// The first few failures.
    errors: Vec<String>,
}

impl Run {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

/// Settings shared by the traced workloads.
pub struct Settings<'a> {
    pub seed: u64,
    pub smoke: bool,
    pub seconds: f64,
    pub work: &'a Path,
    /// The shipped binary, for `process.overhead_ms`; `None` skips it.
    pub bin: Option<&'a Path>,
}

fn traced_config() -> DetectorConfig {
    DetectorConfig {
        jobs: 1,
        ..DetectorConfig::default()
    }
}

/// Every second pair is also run through the binary.
const BINARY_EVERY: usize = 2;

fn time_binary(bin: &Path, args: &[&str]) -> Result<f64, String> {
    let t = Instant::now();
    let out = crate::child::run(std::process::Command::new(bin).args(args))
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let secs = t.elapsed().as_secs_f64();
    if out.exit.ok() {
        Ok(secs)
    } else {
        Err(format!(
            "`{}` exited with {}",
            args.join(" "),
            out.exit.status
        ))
    }
}

/// What an operation hands back: it fills the operation's tally and checks
/// its answer after the timing ends, so the harness's bookkeeping stays
/// out of the measured span.
type After<'a> = Box<dyn FnOnce(&mut Tally) -> Result<(), String> + 'a>;

/// Runs traced and untraced copies of each operation, alternating which
/// goes first, until the deadline and at least `min` pairs, stopping on
/// a multiple of `unit` pairs. Every [`BINARY_EVERY`]-th pair, `binary`
/// then runs outside both timings and returns the seconds the shipped
/// binary and the same operation in process, configured as the binary
/// runs it, each took.
fn pairs<'a>(
    rec: &Recorder,
    run: &mut Run,
    s: &Settings<'_>,
    min: usize,
    unit: usize,
    mut op: impl FnMut(Tr<'_>, usize) -> Result<After<'a>, String>,
    mut binary: impl FnMut(&Path, usize) -> Result<(f64, f64), String>,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(s.seconds);
    let mut i = 0usize;
    while i < min || Instant::now() < deadline || !i.is_multiple_of(unit) {
        let order = if i.is_multiple_of(2) {
            [true, false]
        } else {
            [false, true]
        };
        for traced in order {
            let id = run.ops.len() as u64 + 1;
            let tr = Tr {
                rec: traced.then_some(rec),
                op: id,
                parent: None,
            };
            let (result, secs) = secs_of(|| tr.span("op", |tr| op(tr, i)));
            let mut tally = Tally::new();
            if let Err(e) = result.and_then(|after| after(&mut tally)) {
                run.fail(e);
            }
            run.ops.push(Op {
                id,
                traced,
                secs,
                tally,
            });
        }
        if let (Some(bin), 0) = (s.bin, i % BINARY_EVERY) {
            match binary(bin, i) {
                Ok((shipped, inproc)) => {
                    run.binary.push(shipped);
                    run.inproc_cli.push(inproc);
                }
                Err(e) => run.fail(e),
            }
        }
        i += 1;
    }
}

/// Seconds `f` takes.
fn secs_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

// ------------------------------------------------------------------ corpus

/// One `BatchEngine::run` round over the replicas, each job configured as
/// `gcatch batch` configures it.
fn corpus_op<'a>(apps: &'a [GeneratedApp], dir: &Path, tr: Tr<'_>) -> Result<After<'a>, String> {
    let engine_tel = Telemetry::new();
    let tracer = Tracer::disabled();
    let engine = BatchEngine::new(
        BatchConfig {
            workers: 2,
            ..BatchConfig::default()
        },
        &engine_tel,
        &tracer,
    );
    let outcome = tr.span("batch", |btr| {
        let jobs: Vec<BatchJob<'_, (Analyzed, usize)>> = apps
            .iter()
            .map(|app| {
                let path = dir.join(format!("{}.go", app.name));
                BatchJob::new(app.name, move |ctx: &JobCtx| {
                    btr.span("job", |jtr| {
                        let src = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                        let config = DetectorConfig {
                            cancel: Some(ctx.cancel.clone()),
                            obs: ObsScope {
                                bus: None,
                                flight: Some(ctx.flight.clone()),
                                job: Some(ctx.job_id.clone()),
                                group: Some(ctx.index as u64),
                                attempt: Some(ctx.attempt),
                            },
                            ..traced_config()
                        };
                        let out = analyze(&src, &config, jtr, |_, _, g, d| render(g, d, jtr))?;
                        if ctx.cancel.is_cancelled() {
                            return Err("cancelled mid-run".to_string());
                        }
                        Ok(out)
                    })
                })
            })
            .collect();
        engine.run(&jobs, None, BTreeMap::new())
    });
    let hedged = engine_tel.get(Counter::JobsHedged);
    let retried = engine_tel.get(Counter::JobsRetried);
    Ok(Box::new(move |tally| {
        let mut analyses = Vec::new();
        for (rec, app) in outcome.records.into_iter().zip(apps) {
            let (a, bytes) = rec
                .payload
                .ok_or_else(|| format!("{}: quarantined", app.name))?;
            add(tally, "render.report_bytes", bytes as f64);
            add(tally, PARSE_BYTES, app.source.len() as f64);
            analyses.push((app, a));
        }
        tally_analyses(analyses.iter().map(|(_, a)| a), tally);
        add(tally, "batch.jobs_hedged", hedged as f64);
        add(tally, "batch.jobs_retried", retried as f64);
        analyses
            .iter()
            .try_for_each(|(app, a)| check::check_plants(app, &a.findings))
    }))
}

fn run_corpus(rec: &Recorder, s: &Settings<'_>) -> Result<Run, String> {
    let apps = inputs::corpus(s.seed);
    let dir = s.work.join("traced-corpus");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    for app in &apps {
        std::fs::write(dir.join(format!("{}.go", app.name)), &app.source)
            .map_err(|e| e.to_string())?;
    }
    let dir_s = dir.to_str().expect("UTF-8 work path").to_string();
    let mut run = Run::default();
    pairs(
        rec,
        &mut run,
        s,
        3,
        1,
        |tr, _| corpus_op(&apps, &dir, tr),
        // `gcatch batch` runs every job with `jobs: 1` too.
        |bin, _| {
            let (op, inproc) = secs_of(|| corpus_op(&apps, &dir, UNTRACED));
            op?(&mut Tally::new())?;
            Ok((
                time_binary(bin, &["batch", "--json", "--jobs", "2", &dir_s])?,
                inproc,
            ))
        },
    );
    Ok(run)
}

// ------------------------------------------------------------------- probe

fn run_probe(rec: &Recorder, s: &Settings<'_>) -> Result<Run, String> {
    let amp = inputs::probe_config(s.smoke);
    let src = inputs::probe_source(&amp);
    let leaks = inputs::probe_leaks(&amp);
    let file = s.work.join("traced-probe.go");
    std::fs::write(&file, &src).map_err(|e| e.to_string())?;
    let file_s = file.to_str().expect("UTF-8 work path").to_string();
    let config = traced_config();
    let (src, leaks) = (&src, &leaks);
    let probe_op = |tr: Tr<'_>| -> Result<After<'_>, String> {
        let (a, bytes) = analyze(src, &config, tr, |_, _, g, d| render(g, d, tr))?;
        Ok(Box::new(move |tally: &mut Tally| {
            tally_analyses([&a], tally);
            add(tally, "render.report_bytes", bytes as f64);
            add(tally, PARSE_BYTES, src.len() as f64);
            check::check_leaks(&a.findings, leaks, 1)
        }))
    };
    let mut run = Run::default();
    pairs(
        rec,
        &mut run,
        s,
        5,
        1,
        |tr, _| probe_op(tr),
        |bin, _| {
            let (op, inproc) = secs_of(|| probe_op(UNTRACED));
            op?(&mut Tally::new())?;
            Ok((
                time_binary(bin, &["check", "--json", "--jobs", "1", &file_s])?,
                inproc,
            ))
        },
    );
    Ok(run)
}

// --------------------------------------------------------------------- fix

/// The `gcatch fix` round loop: detect, patch the first fixable BMOC bug,
/// re-detect on the patched source, until no patch applies.
fn fix_op<'a>(
    app: &'a GeneratedApp,
    config: &DetectorConfig,
    tr: Tr<'_>,
) -> Result<After<'a>, String> {
    let mut source = app.source.clone();
    let mut applied = Vec::new();
    let mut rounds = Vec::new();
    for round in 0..MAX_FIX_ROUNDS {
        let (analyzed, secs) = secs_of(|| {
            analyze(
                &source,
                config,
                tr,
                |program, module, gcatch, diagnostics| {
                    secs_of(|| {
                        tr.span("gfix", |_| {
                            let s = gcatch.session();
                            let gfix = gfix::GFix::new(program, module, &s.analysis, &s.prims);
                            let patches: Vec<gfix::Patch> = diagnostics
                                .iter()
                                .filter(|d| d.report.kind.is_bmoc())
                                .filter_map(|d| gfix.fix(&d.report).ok())
                                .collect();
                            patches.into_iter().next()
                        })
                    })
                },
            )
        });
        let (a, (patch, gfix_secs)) = analyzed?;
        let next = tr.span("harness", |_| {
            let redetect_ms = if round > 0 {
                (secs - gfix_secs) * 1e3
            } else {
                0.0
            };
            rounds.push((a, source.len(), redetect_ms));
            let patch = patch?;
            applied.push(PatchText {
                label: patch.strategy.label().to_string(),
                texts: vec![patch.primitive_name.clone()],
            });
            Some(patch.after)
        });
        match next {
            Some(patched) => source = patched,
            None => break,
        }
    }
    Ok(Box::new(move |tally| {
        tally_analyses(rounds.iter().map(|(a, _, _)| a), tally);
        for (_, bytes, redetect_ms) in &rounds {
            add(tally, PARSE_BYTES, *bytes as f64);
            add(tally, "gfix.redetect_ms", *redetect_ms);
        }
        add(tally, "gfix.rounds", rounds.len() as f64);
        add(tally, "gfix.patches", applied.len() as f64);
        if applied.len() >= MAX_FIX_ROUNDS {
            return Err(format!("{}: fix did not converge", app.name));
        }
        check::check_patches(app, &applied)
    }))
}

fn run_fix(rec: &Recorder, s: &Settings<'_>) -> Result<Run, String> {
    let apps = inputs::corpus(s.seed);
    let (ok, _) = inputs::fix_modules(&apps);
    let order: Vec<&GeneratedApp> = inputs::shuffled(ok.len(), s.seed)
        .into_iter()
        .map(|i| ok[i].app)
        .collect();
    let dir = s.work.join("traced-fix");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let config = traced_config();
    let mut run = Run::default();
    pairs(
        rec,
        &mut run,
        s,
        order.len(),
        order.len(),
        |tr, i| fix_op(order[i % order.len()], &config, tr),
        |bin, i| {
            // `gcatch fix` detects with the default configuration (all
            // cores), so the in-process side here does too.
            let app = order[i % order.len()];
            let (op, inproc) = secs_of(|| fix_op(app, &DetectorConfig::default(), UNTRACED));
            op?(&mut Tally::new())?;
            let file = dir.join(format!("{}.go", app.name));
            std::fs::write(&file, &app.source).map_err(|e| e.to_string())?;
            let shipped = time_binary(bin, &["fix", file.to_str().expect("UTF-8 work path")])?;
            Ok((shipped, inproc))
        },
    );
    Ok(run)
}

// -------------------------------------------------------------- serve_edit

/// Collects what `serve_lines` writes, one response per line.
struct LineSink {
    tx: mpsc::Sender<String>,
    buf: Vec<u8>,
}

impl std::io::Write for LineSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        for &b in bytes {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.buf).into_owned();
                self.buf.clear();
                // The client hangs up only after the last response.
                let _ = self.tx.send(line);
            } else {
                self.buf.push(b);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn edit_keys(kind: EditKind) -> (&'static str, &'static str) {
    match kind {
        EditKind::TailHelper => ("edit.tail_helper.check_ms", "edit.tail_helper.reanalyzed"),
        EditKind::PsetOp => ("edit.pset_op.check_ms", "edit.pset_op.reanalyzed"),
        EditKind::LineShift => ("edit.line_shift.check_ms", "edit.line_shift.reanalyzed"),
        EditKind::Revert => ("edit.revert.check_ms", "edit.revert.reanalyzed"),
    }
}

/// Requests per daemon lifetime; the daemon restarts in between.
fn serve_slice_len(smoke: bool) -> usize {
    if smoke {
        10
    } else {
        50
    }
}

/// The serve edit script through `serve_lines` with an executor that
/// calls `warm_check`, restarting over the same cache directory every
/// slice. Operations alternate between traced and untraced.
fn run_serve(rec: &Recorder, s: &Settings<'_>) -> Result<Run, String> {
    let total = if s.smoke { 40 } else { 200 };
    let dir = s.work.join("traced-serve");
    std::fs::create_dir_all(dir.join("cache")).map_err(|e| e.to_string())?;
    let module_path = dir.join("module.go");
    let module_s = module_path.to_str().expect("UTF-8 work path").to_string();
    let request = |id: u64| {
        let mut line = format!("{{\"id\":\"r{id}\",\"op\":\"check\",\"module\":");
        crate::json::quote(&module_s, &mut line);
        line.push('}');
        line
    };
    let mut script = EditScript::new(s.seed);
    let mut run = Run::default();
    let mut prev: Option<ModuleShape> = None;
    let base = traced_config();
    while run.ops.len() < total {
        let store = Arc::new(WarmSessions::new(8));
        let config = ServeConfig {
            workers: 1,
            cache_dir: Some(dir.join("cache")),
            config_fingerprint: "perf".to_string(),
            warm: Some(store.clone()),
            ..ServeConfig::default()
        };
        let current = AtomicU64::new(0);
        let parent = AtomicUsize::new(usize::MAX);
        let tracing = AtomicBool::new(false);
        // What the executor did for the request in flight: channels
        // replayed, channels re-analyzed, report bytes. `None` when the
        // response cache answered.
        let outcome: Mutex<Option<(u64, u64, usize)>> = Mutex::new(None);
        let executor = |op: WorkKind, path: &str, source: &str, _: &Budget| {
            if op != WorkKind::Check {
                return Err("only `check` is exercised".to_string());
            }
            let p = parent.load(Ordering::SeqCst);
            let tr = Tr {
                rec: tracing.load(Ordering::SeqCst).then_some(rec),
                op: current.load(Ordering::SeqCst),
                parent: (p != usize::MAX).then_some(p),
            };
            let o = tr.span("warm", |_| {
                warm_check(&store, path, source, &base, AliasMode::default())
            })?;
            *outcome.lock().expect("no executor panics") =
                Some((o.replayed, o.reanalyzed, o.json.len()));
            Ok(o.json)
        };
        let telemetry = Telemetry::new();
        let result = std::thread::scope(|scope| -> Result<(), String> {
            let (line_tx, line_rx) = mpsc::channel::<String>();
            let (resp_tx, resp_rx) = mpsc::channel::<String>();
            let t = Instant::now();
            let server = {
                let (config, executor, telemetry) = (&config, &executor, &telemetry);
                scope.spawn(move || {
                    let mut sink = LineSink {
                        tx: resp_tx,
                        buf: Vec::new(),
                    };
                    serve_lines(
                        config,
                        executor,
                        telemetry,
                        None,
                        line_rx.into_iter(),
                        &mut sink,
                    )
                })
            };
            let ask = |line: String| -> Result<String, String> {
                line_tx
                    .send(line)
                    .map_err(|_| "serve_lines stopped".to_string())?;
                resp_rx
                    .recv()
                    .map_err(|_| "serve_lines stopped".to_string())
            };
            ask("{\"id\":\"ready\",\"op\":\"status\"}".to_string())?;
            run.restarts_ms.push(ms(t.elapsed()));
            // Warm the fresh session, as the end-to-end run does.
            std::fs::write(&module_path, script.refresh()).map_err(|e| e.to_string())?;
            check::check_serve_response(&ask(request(0))?)?;
            if outcome.lock().expect("no executor panics").take().is_some() {
                prev = Some(side(
                    script.text(),
                    UNTRACED,
                    &mut Tally::new(),
                    prev.as_ref(),
                )?);
            }
            for _ in 0..serve_slice_len(s.smoke).min(total - run.ops.len()) {
                let (kind, source) = script.next_edit();
                let source = source.to_string();
                std::fs::write(&module_path, &source).map_err(|e| e.to_string())?;
                let id = run.ops.len() as u64 + 1;
                let traced = id.is_multiple_of(2);
                let tr = Tr {
                    rec: traced.then_some(rec),
                    op: id,
                    parent: None,
                };
                current.store(id, Ordering::SeqCst);
                tracing.store(traced, Ordering::SeqCst);
                let t = Instant::now();
                let resp = tr.span("op", |tr| {
                    tr.span("serve", |tr| {
                        parent.store(tr.parent.unwrap_or(usize::MAX), Ordering::SeqCst);
                        ask(request(id))
                    })
                })?;
                let secs = t.elapsed().as_secs_f64();
                let mut tally = Tally::new();
                if let Err(e) = check::check_serve_response(&resp) {
                    run.fail(format!("serve {}: {e}", kind.name()));
                }
                let (check_key, reanalyzed_key) = edit_keys(kind);
                add(&mut tally, check_key, secs * 1e3);
                let executed = outcome.lock().expect("no executor panics").take();
                let (replayed, reanalyzed, bytes) = executed.unwrap_or((0, 0, 0));
                add(&mut tally, reanalyzed_key, reanalyzed as f64);
                if traced {
                    run.cache_hits
                        .push(if executed.is_some() { 0.0 } else { 1.0 });
                }
                if executed.is_some() {
                    add(&mut tally, "render.report_bytes", bytes as f64);
                    add(&mut tally, "warm.reanalyzed", reanalyzed as f64);
                    if replayed + reanalyzed > 0 {
                        add(
                            &mut tally,
                            "warm.replay_ratio",
                            replayed as f64 / (replayed + reanalyzed) as f64,
                        );
                    }
                    let side_tr = Tr { parent: None, ..tr };
                    prev = Some(side(&source, side_tr, &mut tally, prev.as_ref())?);
                    add(&mut tally, PARSE_BYTES, source.len() as f64);
                }
                run.ops.push(Op {
                    id,
                    traced,
                    secs,
                    tally,
                });
            }
            drop(line_tx);
            server
                .join()
                .map_err(|_| "serve_lines panicked".to_string())?
                .map(|_| ())
        });
        if let Err(e) = result {
            run.fail(e);
            break;
        }
    }
    if let Some(bin) = s.bin {
        let shipped = serve_binary(bin, s, &dir, total)?;
        for op in run.ops.iter().filter(|o| !o.traced) {
            run.binary.push(shipped[op.id as usize - 1]);
            run.inproc_cli.push(op.secs);
        }
    }
    Ok(run)
}

/// The same edit script through the shipped binary's daemon, restarted at
/// the same points as [`run_serve`]: the seconds each request took, in
/// script order.
fn serve_binary(
    bin: &Path,
    s: &Settings<'_>,
    dir: &Path,
    total: usize,
) -> Result<Vec<f64>, String> {
    let ctx = Ctx {
        bin: bin.to_path_buf(),
        work: s.work.to_path_buf(),
        seed: s.seed,
        smoke: s.smoke,
    };
    let cache = dir.join("binary-cache");
    let module = dir.join("binary.go");
    let write = |text: &str| std::fs::write(&module, text).map_err(|e| e.to_string());
    let mut script = EditScript::new(s.seed);
    let mut secs = Vec::with_capacity(total);
    while secs.len() < total {
        let mut daemon = Daemon::start(&ctx, &cache, &dir.join("binary.log"))?;
        write(script.refresh())?;
        check::check_serve_response(&daemon.check(&module)?)?;
        for _ in 0..serve_slice_len(s.smoke).min(total - secs.len()) {
            write(script.next_edit().1)?;
            let (resp, t) = secs_of(|| daemon.check(&module));
            check::check_serve_response(&resp?)?;
            secs.push(t);
        }
        daemon.stop()?;
    }
    Ok(secs)
}

/// Side measurement after an executed request, outside the operation:
/// the public calls `warm_check` makes on the same source (parse, lower,
/// session construction, module shape and diff), timed one by one.
/// Returns the new module shape.
fn side(
    source: &str,
    tr: Tr<'_>,
    tally: &mut Tally,
    prev: Option<&ModuleShape>,
) -> Result<ModuleShape, String> {
    let program = tr
        .span("side.parse", |_| golite::parse(source))
        .map_err(|e| e.to_string())?;
    let module = tr
        .span("side.lower", |_| golite_ir::lower(&program))
        .map_err(|e| e.to_string())?;
    tr.span("side.alias", |_| {
        drop(GCatch::with_options(
            &module,
            TraceLevel::Off,
            AliasMode::default(),
        ))
    });
    let (shape, changed) = tr.span("side.diff", |_| {
        let shape = module_shape(&module);
        let changed = prev.and_then(|p| changed_funcs(p, &shape));
        (shape, changed)
    });
    add(
        tally,
        "diff.changed_funcs",
        changed.map_or(module.funcs.len(), |c| c.len()) as f64,
    );
    add(tally, "lower.ir_funcs", module.funcs.len() as f64);
    Ok(shape)
}

// -------------------------------------------------------------- aggregation

/// Folds spans and tallies into every per-layer metric. Returns the
/// metrics and the operations whose layer spans fall short of the whole,
/// as `(op, uncovered %)`.
fn metrics(run: &Run, rec: &Recorder) -> (BTreeMap<&'static str, f64>, Vec<(u64, f64)>) {
    let spans = rec.lock().clone();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut by_op: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
        by_op.entry(s.op).or_default().push(i);
    }
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut worst_gap = 0.0f64;
    let mut short = Vec::new();
    let mut parse_secs = 0.0;
    for op in run.ops.iter().filter(|o| o.traced) {
        let mut tally = op.tally.clone();
        for (ms_key, _) in SHARES {
            tally.entry(ms_key).or_default();
        }
        let mut side_ns = 0;
        for &i in by_op.get(&op.id).map(Vec::as_slice).unwrap_or(&[]) {
            let s = spans[i];
            let kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start, spans[c].end))
                .collect();
            let dur = s.end - s.start;
            let own = dur - covered((s.start, s.end), &kids);
            if s.name == "op" {
                let pct = own as f64 / dur.max(1) as f64 * 100.0;
                worst_gap = worst_gap.max(pct);
                if !spans_cover(own, dur) {
                    short.push((op.id, pct));
                }
                continue;
            }
            if let Some(key) = layer_of(s.name) {
                add(&mut tally, key, own as f64 / 1e6);
            }
            if s.name.starts_with("side.") {
                side_ns += own;
            }
            if s.name == "warm" {
                add(&mut tally, "warm.check_ms", dur as f64 / 1e6);
            }
            if s.name == "parse" || s.name == "side.parse" {
                parse_secs += dur as f64 / 1e9;
            }
        }
        if side_ns > 0 {
            let warm = tally.entry("warm.self_ms").or_default();
            *warm = (*warm - side_ns as f64 / 1e6).max(0.0);
        }
        let busy: f64 = SHARES[..LAYERS]
            .iter()
            .map(|(ms_key, _)| tally[ms_key])
            .sum();
        if busy > 0.0 {
            for (ms_key, pct_key) in SHARES {
                tally.insert(pct_key, tally[ms_key] / busy * 100.0);
            }
        }
        for (k, v) in tally {
            samples.entry(k).or_default().push(v);
        }
    }
    let secs = |traced: bool| -> Vec<f64> {
        run.ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.secs)
            .collect()
    };
    let (traced, untraced) = (median(&secs(true)), median(&secs(false)));
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let names = PER_LAYER
        .iter()
        .map(|m| m.0)
        .chain(TABLE_ONLY.iter().map(|m| m.0));
    for name in names {
        let v = match name {
            "parse.mb_per_s" if parse_secs > 0.0 => {
                samples
                    .get(PARSE_BYTES)
                    .map_or(0.0, |b| b.iter().sum::<f64>())
                    / 1e6
                    / parse_secs
            }
            "serve.cache_hit_ratio" if !run.cache_hits.is_empty() => {
                run.cache_hits.iter().sum::<f64>() / run.cache_hits.len() as f64
            }
            "serve.restart_ms" => median(&run.restarts_ms),
            "process.overhead_ms" if !run.binary.is_empty() => {
                (median(&run.binary) - median(&run.inproc_cli)) * 1e3
            }
            "process.inproc_ms" => median(&run.inproc_cli) * 1e3,
            "op.traced_ms" => traced * 1e3,
            "trace.overhead_pct" if untraced > 0.0 => (traced - untraced) / untraced * 100.0,
            "trace.unattributed_pct" => worst_gap,
            "trace.ops" => run.ops.iter().filter(|o| o.traced).count() as f64,
            _ => samples.get(name).map_or(0.0, |v| median(v)),
        };
        out.insert(name, v);
    }
    (out, short)
}

/// Largest share of an operation that may fall outside every layer span.
pub const MAX_UNATTRIBUTED_PCT: f64 = 2.0;

/// Uncovered time always allowed: on sub-millisecond operations (serve
/// requests the response cache answers) 2% is a few microseconds, less
/// than one preemption.
const UNATTRIBUTED_FLOOR_NS: u64 = 20_000;

/// The span-sum check: an operation's top-level layer spans add up to
/// the whole of it, but for `own` nanoseconds out of `dur`.
fn spans_cover(own: u64, dur: u64) -> bool {
    own <= UNATTRIBUTED_FLOOR_NS || own as f64 <= dur as f64 * MAX_UNATTRIBUTED_PCT / 100.0
}

/// What a traced run reports.
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, and a failed span-sum check.
    pub errors: Vec<String>,
    pub spans_json: String,
}

/// Runs one workload traced.
pub fn run(workload: &str, s: &Settings<'_>) -> Result<Outcome, String> {
    let rec = Recorder::new();
    let run = match workload {
        "corpus" => run_corpus(&rec, s)?,
        "probe" => run_probe(&rec, s)?,
        "serve_edit" => run_serve(&rec, s)?,
        "fix" => run_fix(&rec, s)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let (metrics, short) = metrics(&run, &rec);
    let mut errors = run.errors.clone();
    if let Some((op, pct)) = short.first() {
        errors.push(format!(
            "{} operation(s) have more than {MAX_UNATTRIBUTED_PCT}% of their time outside every layer span (op {op}: {pct:.2}%)",
            short.len()
        ));
    }
    Ok(Outcome {
        metrics,
        attempted: run.ops.len(),
        failed: run.failed,
        errors,
        spans_json: rec.to_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_sum_check_allows_two_percent_or_the_floor() {
        // 2% of a 100 ms operation.
        assert!(spans_cover(2_000_000, 100_000_000));
        assert!(!spans_cover(2_000_001, 100_000_000));
        // A 300 us cache hit may leave 20 us uncovered, not more.
        assert!(spans_cover(20_000, 300_000));
        assert!(!spans_cover(20_001, 300_000));
    }

    #[test]
    fn shares_partition_an_operation() {
        let rec = Recorder::new();
        let tr = Tr {
            rec: Some(&rec),
            op: 1,
            parent: None,
        };
        tr.span("op", |tr| {
            tr.span("parse", |_| std::thread::sleep(Duration::from_millis(2)));
            tr.span("lower", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let run = Run {
            ops: vec![Op {
                id: 1,
                traced: true,
                secs: 0.004,
                tally: Tally::new(),
            }],
            ..Run::default()
        };
        let (m, short) = metrics(&run, &rec);
        assert!(short.is_empty(), "{short:?}");
        let sum: f64 = SHARES[..LAYERS].iter().map(|(_, pct)| m[pct]).sum();
        assert!((sum - 100.0).abs() < 1e-9, "{sum}");
        assert!(m["parse.self_pct"] > 0.0 && m["lower.self_pct"] > 0.0);
    }
}
