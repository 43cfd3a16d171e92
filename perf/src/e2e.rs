//! End-to-end runs: every operation goes through the shipped
//! `gcatch-suite` binary, one closed loop with one client per workload,
//! and every answer is checked against a known one.

use crate::check;
use crate::child;
use crate::inputs::{self, EditScript};
use crate::json;
use crate::stats::{median, percentile};
use go_corpus::apps::GeneratedApp;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Everything a workload needs from the run.
pub struct Ctx {
    pub bin: PathBuf,
    /// Scratch directory inside the checkout; removed when the run ends.
    pub work: PathBuf,
    pub seed: u64,
    pub smoke: bool,
}

/// Width of the windows [`Record::quiet`] ranks.
const QUIET_WINDOW_SECS: f64 = 1.0;

/// One timed operation.
struct Sample {
    start: Instant,
    /// The input it ran on, where operations differ by input (fix: the
    /// module; serve_edit: the edit kind); 0 elsewhere.
    kind: usize,
    secs: f64,
    modules: usize,
}

/// What one workload measured.
#[derive(Default)]
pub struct Record {
    pub setups: Vec<f64>,
    samples: Vec<Sample>,
    /// Take the median per kind first, then across kinds (fix): a plain
    /// median over a few very different inputs sits on the border between
    /// two of them and jumps between runs.
    p50_per_kind: bool,
    /// Peak RSS in KiB of each process measured outside the window.
    pub rss_kib: Vec<u64>,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl Record {
    fn op(&mut self, start: Instant, modules: usize, kind: usize) {
        let secs = start.elapsed().as_secs_f64();
        self.attempted += 1;
        self.samples.push(Sample {
            start,
            kind,
            secs,
            modules,
        });
    }

    fn fail(&mut self, err: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(err);
        }
    }

    /// The operations the metrics are computed over: those that started
    /// in the quieter half of the run's one-second windows. Other tenants
    /// of a shared machine only ever add time, in bursts: ranking the
    /// windows by how slow their operations ran against each input's
    /// median over the run, and keeping the faster half, leaves most
    /// bursts out.
    pub fn quiet(&self) -> Quiet<'_> {
        let Some(origin) = self.samples.iter().map(|s| s.start).min() else {
            return Quiet {
                samples: Vec::new(),
                p50_per_kind: self.p50_per_kind,
            };
        };
        let window = |s: &Sample| {
            (s.start.duration_since(origin).as_secs_f64() / QUIET_WINDOW_SECS) as usize
        };
        let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            by_kind.entry(s.kind).or_default().push(s.secs);
        }
        let typical: BTreeMap<usize, f64> = by_kind.iter().map(|(k, v)| (*k, median(v))).collect();
        let mut by_window: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            by_window
                .entry(window(s))
                .or_default()
                .push(s.secs / typical[&s.kind]);
        }
        let mut ranked: Vec<(f64, usize)> =
            by_window.iter().map(|(w, v)| (median(v), *w)).collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep: BTreeSet<usize> = ranked[..ranked.len().div_ceil(2)]
            .iter()
            .map(|&(_, w)| w)
            .collect();
        Quiet {
            samples: self
                .samples
                .iter()
                .filter(|s| keep.contains(&window(s)))
                .collect(),
            p50_per_kind: self.p50_per_kind,
        }
    }
}

/// The operations the metrics are computed over; see [`Record::quiet`].
pub struct Quiet<'a> {
    samples: Vec<&'a Sample>,
    p50_per_kind: bool,
}

impl Quiet<'_> {
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn secs(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.secs).collect()
    }

    /// Median operation latency in ms.
    pub fn p50_ms(&self) -> f64 {
        let m = if self.p50_per_kind {
            let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for s in &self.samples {
                by_kind.entry(s.kind).or_default().push(s.secs);
            }
            median(&by_kind.values().map(|v| median(v)).collect::<Vec<_>>())
        } else {
            median(&self.secs())
        };
        m * 1e3
    }

    pub fn tail_ms(&self, p: u32) -> f64 {
        percentile(&self.secs(), f64::from(p)) * 1e3
    }

    /// Modules completed per second the operations were busy.
    pub fn modules_per_s(&self) -> f64 {
        let busy: f64 = self.samples.iter().map(|s| s.secs).sum();
        let modules: usize = self.samples.iter().map(|s| s.modules).sum();
        if busy > 0.0 {
            modules as f64 / busy
        } else {
            0.0
        }
    }
}

/// One workload's closed loop, run in time slices.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// Generates the inputs and brings the system to ready. Timed by the
    /// caller as one `setup_s` sample.
    fn setup(&mut self, ctx: &Ctx, rec: &mut Record) -> Result<(), String>;
    /// Runs operations until `deadline`; the last slice may finish the
    /// pass in progress.
    fn run_slice(&mut self, ctx: &Ctx, deadline: Instant, last: bool, rec: &mut Record);
    /// Checks, and the peak-RSS measurement, done once outside the
    /// measured window.
    fn finish(&mut self, ctx: &Ctx, rec: &mut Record) -> Result<(), String>;
}

fn gcatch(ctx: &Ctx, args: &[&str]) -> Command {
    let mut cmd = Command::new(&ctx.bin);
    cmd.args(args);
    cmd
}

/// Runs one timed operation on input `kind`; returns its stdout when it
/// ran and exited 0 or 1.
fn timed(
    ctx: &Ctx,
    args: &[&str],
    modules: usize,
    kind: usize,
    rec: &mut Record,
) -> Option<String> {
    let start = Instant::now();
    let out = child::run(&mut gcatch(ctx, args));
    match out {
        Ok(o) => {
            rec.op(start, modules, kind);
            if !o.exit.ok() {
                rec.fail(format!(
                    "`{}` exited with {}: {}",
                    args.join(" "),
                    o.exit.status,
                    String::from_utf8_lossy(&o.stderr).trim()
                ));
                return None;
            }
            Some(String::from_utf8_lossy(&o.stdout).into_owned())
        }
        Err(e) => {
            rec.op(start, modules, kind);
            rec.fail(format!("cannot run {}: {e}", ctx.bin.display()));
            None
        }
    }
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are UTF-8")
}

/// Runs one untimed operation through [`child::measured`], outside the
/// window. Returns its stdout and peak RSS in KiB when it exited 0 or 1.
fn measure(ctx: &Ctx, args: &[&str]) -> Result<(String, u64), String> {
    let out = child::measured(&ctx.bin, args, &ctx.work.join("rss"))
        .map_err(|e| format!("`{}`: {e}", args.join(" ")))?;
    if !out.exit.ok() {
        return Err(format!(
            "`{}` exited with {}",
            args.join(" "),
            out.exit.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    Ok((stdout, out.exit.maxrss_kib))
}

// ------------------------------------------------------------------ corpus

/// The 21 Table 1 replicas, checked as one `batch` round per operation.
pub struct Corpus {
    apps: Vec<GeneratedApp>,
    dir: PathBuf,
    /// The first round's report; every later round must repeat it.
    reference: Option<String>,
}

impl Corpus {
    pub fn new() -> Corpus {
        Corpus {
            apps: Vec::new(),
            dir: PathBuf::new(),
            reference: None,
        }
    }

    fn args(&self) -> [&str; 5] {
        ["batch", "--json", "--jobs", "2", path_str(&self.dir)]
    }

    fn round(&mut self, ctx: &Ctx, rec: &mut Record) {
        let Some(out) = timed(ctx, &self.args(), self.apps.len(), 0, rec) else {
            return;
        };
        let verdict = match &self.reference {
            Some(r) if *r == out => Ok(()),
            Some(_) => Err("batch report bytes differ from the first round".to_string()),
            None => json::parse(out.trim())
                .and_then(|v| check::check_corpus_report(&v, &self.apps))
                .map(|()| self.reference = Some(out)),
        };
        if let Err(e) = verdict {
            rec.fail(e);
        }
    }
}

impl Workload for Corpus {
    fn name(&self) -> &'static str {
        "corpus"
    }

    fn setup(&mut self, ctx: &Ctx, _rec: &mut Record) -> Result<(), String> {
        self.apps = inputs::corpus(ctx.seed);
        self.dir = ctx.work.join("corpus");
        fresh_dir(&self.dir)?;
        for app in &self.apps {
            write(&self.dir.join(format!("{}.go", app.name)), &app.source)?;
        }
        self.reference = None;
        let mut warm = Record::default();
        self.round(ctx, &mut warm);
        warm.errors.first().map_or(Ok(()), |e| Err(e.clone()))
    }

    fn run_slice(&mut self, ctx: &Ctx, deadline: Instant, _last: bool, rec: &mut Record) {
        while Instant::now() < deadline {
            self.round(ctx, rec);
        }
    }

    fn finish(&mut self, ctx: &Ctx, rec: &mut Record) -> Result<(), String> {
        let (out, kib) = measure(ctx, &self.args())?;
        rec.rss_kib.push(kib);
        if self.reference.as_deref() != Some(out.as_str()) {
            return Err("the measured round's report differs from the first round".into());
        }
        Ok(())
    }
}

// ------------------------------------------------------------------- probe

/// One huge amplified module, checked whole per operation.
pub struct Probe {
    file: PathBuf,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            file: PathBuf::new(),
        }
    }

    /// One thread: on a shared two-core host the second core comes and
    /// goes, and a sharded check swings with it far more than one run on
    /// one core does.
    fn args(&self) -> [&str; 5] {
        ["check", "--json", "--jobs", "1", path_str(&self.file)]
    }

    fn verify(&self, ctx: &Ctx, out: &str) -> Result<(), String> {
        let config = inputs::probe_config(ctx.smoke);
        json::parse(out.trim())
            .and_then(|v| check::findings_from_json(&v))
            .and_then(|f| check::check_leaks(&f, &inputs::probe_leaks(&config), 1))
            .map_err(|e| format!("probe: {e}"))
    }

    fn check(&self, ctx: &Ctx, rec: &mut Record) {
        let Some(out) = timed(ctx, &self.args(), 1, 0, rec) else {
            return;
        };
        if let Err(e) = self.verify(ctx, &out) {
            rec.fail(e);
        }
    }
}

impl Workload for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn setup(&mut self, ctx: &Ctx, _rec: &mut Record) -> Result<(), String> {
        let dir = ctx.work.join("probe");
        fresh_dir(&dir)?;
        self.file = dir.join("probe.go");
        write(
            &self.file,
            &inputs::probe_source(&inputs::probe_config(ctx.smoke)),
        )?;
        let mut warm = Record::default();
        self.check(ctx, &mut warm);
        warm.errors.first().map_or(Ok(()), |e| Err(e.clone()))
    }

    fn run_slice(&mut self, ctx: &Ctx, deadline: Instant, _last: bool, rec: &mut Record) {
        while Instant::now() < deadline {
            self.check(ctx, rec);
        }
    }

    fn finish(&mut self, ctx: &Ctx, rec: &mut Record) -> Result<(), String> {
        let (out, kib) = measure(ctx, &self.args())?;
        rec.rss_kib.push(kib);
        self.verify(ctx, &out)
    }
}

// -------------------------------------------------------------- serve_edit

/// A `gcatch serve --stdio` daemon with one client.
pub struct Daemon {
    /// `None` once reaped.
    child: Option<Child>,
    /// `None` once closed, which asks the daemon to drain.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    next: u64,
}

impl Drop for Daemon {
    /// A daemon an error cut short is killed and reaped, so no process
    /// outlives the run.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Daemon {
    /// One worker: the single client never has two requests in flight,
    /// and a second worker that only sometimes picks one up adds a malloc
    /// arena, and about 8 MiB of peak RSS, in some runs and not others.
    pub fn start(ctx: &Ctx, cache: &Path, log: &Path) -> Result<Daemon, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("cannot create log: {e}"))?;
        let mut child = gcatch(
            ctx,
            &[
                "serve",
                "--stdio",
                "--workers",
                "1",
                "--cache-dir",
                path_str(cache),
            ],
        )
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot start serve: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut d = Daemon {
            child: Some(child),
            stdin: Some(stdin),
            stdout,
            next: 0,
        };
        let status = d.request("{\"id\":\"ready\",\"op\":\"status\"}")?;
        if !status.contains("\"ok\":true") {
            return Err(format!("serve status failed: {status}"));
        }
        Ok(d)
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("serve stdin is closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("serve stdin: {e}"))?;
        let mut resp = String::new();
        match self.stdout.read_line(&mut resp) {
            Ok(0) => Err("serve closed its stdout".into()),
            Ok(_) => Ok(resp.trim_end().to_string()),
            Err(e) => Err(format!("serve stdout: {e}")),
        }
    }

    pub fn check(&mut self, module: &Path) -> Result<String, String> {
        self.next += 1;
        let mut line = format!("{{\"id\":\"r{}\",\"op\":\"check\",\"module\":", self.next);
        json::quote(path_str(module), &mut line);
        line.push('}');
        self.request(&line)
    }

    /// Whether the process has exited (and is reaped).
    fn exited(&mut self) -> bool {
        self.child
            .as_mut()
            .is_none_or(|c| c.try_wait().is_ok_and(|s| s.is_some()))
    }

    /// Asks for a graceful drain and reaps the process. Returns the
    /// daemon's peak RSS in KiB, read just before the drain.
    pub fn stop(mut self) -> Result<u64, String> {
        let child = self.child.take().expect("a running daemon has its child");
        let hwm = child::hwm_kib(child.id());
        let ack = self.request("{\"id\":\"bye\",\"op\":\"shutdown\"}");
        drop(self.stdin.take());
        let exit = child::reap(child).map_err(|e| format!("cannot reap serve: {e}"))?;
        ack?;
        if !exit.status.success() {
            return Err(format!("serve exited with {}", exit.status));
        }
        hwm.map_err(|e| format!("serve peak RSS: {e}"))
    }
}

/// Sources kept for the cold re-check: one request in this many.
const COLD_RECHECK_EVERY: usize = 20;

/// The serve daemon under a seeded edit script.
pub struct ServeEdit {
    script: Option<EditScript>,
    dir: PathBuf,
    daemon: Option<Daemon>,
    requests: usize,
    /// `(source, result bytes)` of every `COLD_RECHECK_EVERY`-th request.
    saved: Vec<(String, String)>,
}

impl ServeEdit {
    pub fn new() -> ServeEdit {
        ServeEdit {
            script: None,
            dir: PathBuf::new(),
            daemon: None,
            requests: 0,
            saved: Vec::new(),
        }
    }

    fn module(&self) -> PathBuf {
        self.dir.join("module.go")
    }

    /// Stops the daemon, if one runs; returns its peak RSS in KiB.
    fn stop(&mut self) -> Result<Option<u64>, String> {
        self.daemon.take().map(Daemon::stop).transpose()
    }

    /// Starts the daemon over the existing cache and warms its session
    /// with one untimed check of the current source.
    fn start(&mut self, ctx: &Ctx) -> Result<(), String> {
        let mut d = Daemon::start(ctx, &self.dir.join("cache"), &self.dir.join("serve.log"))?;
        let module = self.module();
        let script = self.script.as_mut().expect("set up");
        write(&module, script.refresh())?;
        let resp = d.check(&self.module())?;
        check::check_serve_response(&resp).map_err(|e| format!("serve warm-up: {e}"))?;
        self.daemon = Some(d);
        Ok(())
    }
}

impl Workload for ServeEdit {
    fn name(&self) -> &'static str {
        "serve_edit"
    }

    fn setup(&mut self, ctx: &Ctx, _rec: &mut Record) -> Result<(), String> {
        // A daemon that only served its warm-up check does not count
        // towards `peak_rss_mb`.
        self.stop()?;
        self.dir = ctx.work.join("serve");
        fresh_dir(&self.dir)?;
        self.script = Some(EditScript::new(ctx.seed));
        self.saved.clear();
        self.requests = 0;
        self.start(ctx)
    }

    fn run_slice(&mut self, ctx: &Ctx, deadline: Instant, _last: bool, rec: &mut Record) {
        if self.daemon.is_none() {
            let t = Instant::now();
            if let Err(e) = self.start(ctx) {
                rec.fail(format!("serve restart: {e}"));
                return;
            }
            rec.setups.push(t.elapsed().as_secs_f64());
        }
        let module = self.module();
        while Instant::now() < deadline {
            let script = self.script.as_mut().expect("set up");
            let (kind, source) = script.next_edit();
            let source = source.to_string();
            if let Err(e) = write(&module, &source) {
                rec.fail(e);
                return;
            }
            let daemon = self.daemon.as_mut().expect("started");
            let start = Instant::now();
            let resp = daemon.check(&module);
            rec.op(start, 1, kind as usize);
            self.requests += 1;
            match resp.and_then(|r| check::check_serve_response(&r)) {
                Ok(result) => {
                    if self.requests.is_multiple_of(COLD_RECHECK_EVERY) {
                        self.saved.push((source, result));
                    }
                }
                Err(e) => {
                    rec.fail(format!("serve {}: {e}", kind.name()));
                    if self.daemon.as_mut().is_some_and(Daemon::exited) {
                        self.daemon = None;
                        return;
                    }
                }
            }
        }
        // Shut down at the slice boundary; the next slice restarts over
        // the same cache directory.
        match self.stop() {
            Ok(kib) => rec.rss_kib.extend(kib),
            Err(e) => rec.fail(e),
        }
    }

    fn finish(&mut self, ctx: &Ctx, rec: &mut Record) -> Result<(), String> {
        rec.rss_kib.extend(self.stop()?);
        let cold = self.dir.join("cold.go");
        for (source, result) in &self.saved {
            write(&cold, source)?;
            let out = child::run(&mut gcatch(ctx, &["check", "--json", path_str(&cold)]))
                .map_err(|e| format!("cold check: {e}"))?;
            if String::from_utf8_lossy(&out.stdout).trim_end() != result {
                return Err("a warm serve response differs from a cold `check --json`".into());
            }
        }
        Ok(())
    }
}

// --------------------------------------------------------------------- fix

/// `gcatch fix` (read-only) over every replica with planted fixable bugs.
pub struct Fix {
    apps: Vec<GeneratedApp>,
    /// Indices into `apps` of the modules in the loop, in seeded order.
    order: Vec<usize>,
    files: Vec<PathBuf>,
    cursor: usize,
}

impl Fix {
    pub fn new() -> Fix {
        Fix {
            apps: Vec::new(),
            order: Vec::new(),
            files: Vec::new(),
            cursor: 0,
        }
    }

    fn fix_one(&self, ctx: &Ctx, slot: usize, rec: &mut Record) {
        let app = &self.apps[self.order[slot]];
        let Some(out) = timed(ctx, &["fix", path_str(&self.files[slot])], 1, slot, rec) else {
            return;
        };
        let verdict = check::parse_fix_output(&out).and_then(|(patches, applied)| {
            if applied >= inputs::MAX_FIX_ROUNDS {
                return Err(format!("{}: fix did not converge", app.name));
            }
            check::check_patches(app, &patches)
        });
        if let Err(e) = verdict {
            rec.fail(e);
        }
    }
}

impl Workload for Fix {
    fn name(&self) -> &'static str {
        "fix"
    }

    fn setup(&mut self, ctx: &Ctx, rec: &mut Record) -> Result<(), String> {
        self.apps = inputs::corpus(ctx.seed);
        let (ok, _) = inputs::fix_modules(&self.apps);
        let index = |name: &str| {
            self.apps
                .iter()
                .position(|a| a.name == name)
                .expect("listed")
        };
        let mut members: Vec<usize> = ok.iter().map(|m| index(m.app.name)).collect();
        members.sort_unstable();
        self.order = inputs::shuffled(members.len(), ctx.seed)
            .into_iter()
            .map(|i| members[i])
            .collect();
        let dir = ctx.work.join("fix");
        fresh_dir(&dir)?;
        self.files = self
            .order
            .iter()
            .map(|&i| dir.join(format!("{}.go", self.apps[i].name)))
            .collect();
        for (slot, &i) in self.order.iter().enumerate() {
            write(&self.files[slot], &self.apps[i].source)?;
        }
        rec.p50_per_kind = true;
        self.cursor = 0;
        // Warm up on the same replica whatever the seed, so set-up time
        // does not depend on which module the seeded order puts first.
        let warm_slot = (0..self.order.len())
            .min_by_key(|&s| self.apps[self.order[s]].name)
            .ok_or("no fixable replica")?;
        let mut warm = Record::default();
        self.fix_one(ctx, warm_slot, &mut warm);
        warm.errors.first().map_or(Ok(()), |e| Err(e.clone()))
    }

    fn run_slice(&mut self, ctx: &Ctx, deadline: Instant, last: bool, rec: &mut Record) {
        while Instant::now() < deadline || (last && self.cursor != 0) {
            self.fix_one(ctx, self.cursor, rec);
            self.cursor = (self.cursor + 1) % self.order.len();
        }
    }

    /// Applies each module's fix with `--write` to a scratch copy and
    /// validates it dynamically (25 seeded schedules, with and without
    /// injected sleeps) for every planted real bug with an entry point.
    fn finish(&mut self, ctx: &Ctx, rec: &mut Record) -> Result<(), String> {
        let scratch = ctx.work.join("fix-write");
        fresh_dir(&scratch)?;
        // One value per pass: the largest module's.
        let mut peak = 0;
        for &i in &self.order {
            let app = &self.apps[i];
            let file = scratch.join(format!("{}.go", app.name));
            write(&file, &app.source)?;
            peak = peak.max(measure(ctx, &["fix", "--write", path_str(&file)])?.1);
            let patched = std::fs::read_to_string(&file).map_err(|e| e.to_string())?;
            for plant in app.plants.iter().filter(|p| !p.fp && p.fix.is_some()) {
                let Some(entry) = &plant.entry else { continue };
                let v = gfix::try_validate(&app.source, &patched, entry, 25)
                    .map_err(|e| format!("{}: {e}", app.name))?;
                if !v.is_correct() {
                    return Err(format!(
                        "{}: patch for `{}` fails validation (blocks_never={}, semantics={})",
                        app.name, plant.marker, v.patch_blocks_never, v.semantics_preserved
                    ));
                }
            }
        }
        rec.rss_kib.push(peak);
        Ok(())
    }
}

/// Runs `workloads` interleaved: set-up `setups` times each, then
/// `slices` rounds in which every workload gets one slice of
/// `slice` seconds, then the checks outside the window.
pub fn run(
    ctx: &Ctx,
    workloads: &mut [Box<dyn Workload>],
    setups: usize,
    slices: usize,
    slice: Duration,
) -> Vec<Record> {
    let mut recs: Vec<Record> = workloads.iter().map(|_| Record::default()).collect();
    for (w, rec) in workloads.iter_mut().zip(recs.iter_mut()) {
        for _ in 0..setups {
            let t = Instant::now();
            match w.setup(ctx, rec) {
                Ok(()) => rec.setups.push(t.elapsed().as_secs_f64()),
                Err(e) => {
                    rec.fail(format!("{} set-up: {e}", w.name()));
                    break;
                }
            }
        }
    }
    for s in 0..slices {
        for (w, rec) in workloads.iter_mut().zip(recs.iter_mut()) {
            if rec.setups.is_empty() {
                continue;
            }
            w.run_slice(ctx, Instant::now() + slice, s + 1 == slices, rec);
        }
    }
    for (w, rec) in workloads.iter_mut().zip(recs.iter_mut()) {
        if let Err(e) = w.finish(ctx, rec) {
            rec.fail(format!("{}: {e}", w.name()));
        }
    }
    recs
}
