//! A supervised, checkpointed batch engine over module-level jobs.
//!
//! The paper's evaluation (§5) is a long batch run over 21 applications —
//! exactly the shape where one crash, one pathological module, or one
//! straggling solver query can cost the whole run. This module supplies
//! the fleet-style driver on top of the PR 3 resilience layer:
//!
//! * a **worker pool** over a shared work queue of [`BatchJob`]s, each
//!   attempt executed under [`catch_isolated`] so a panic becomes a
//!   classified failure, never a process abort;
//! * **retry with exponential backoff** and deterministic jitter
//!   ([`BackoffPolicy`], seeded from the `prng` crate): transient
//!   failures (including every [`faults`]-injected one) are re-dispatched
//!   with a fresh attempt number; a job that keeps failing — twice with
//!   the *same* non-injected message, or [`BatchConfig::max_attempts`]
//!   times in total — is **quarantined** as an
//!   [`Incident`]`{ kind: `[`IncidentKind::Quarantined`]` }` so the rest
//!   of the batch still finishes;
//! * **straggler hedging** ([`HedgePolicy`]): once enough jobs have
//!   completed, a job running past the p99 of completed wall-clock times
//!   gets a second dispatch of the same attempt; the first result wins
//!   and the loser is cancelled through the [`CancelToken`] on its
//!   [`JobCtx`] (cooperatively, via the budget it is attached to);
//! * an **append-only checkpoint journal** ([`Journal`]): one fsynced
//!   JSONL line per decided job on a [`durable`] log, so a killed run can
//!   be resumed with the completed jobs restored instead of re-run. A
//!   torn line (the kill arrived mid-write) or any other line that does
//!   not parse is dropped, and the journal compacted without it.
//!
//! The engine itself is deterministic *in content*: job results land in
//! submission order in [`BatchOutcome::records`] regardless of worker
//! interleaving, so a report built from the records is bit-identical
//! across worker counts, interruptions, and (injected-)fault schedules —
//! the property the kill-and-resume tests pin down.

use crate::codec::{escape_json, unquote};
use crate::durable::{self, Log};
use crate::events::{Event as ObsEvent, EventBus, EventKind, Field, FlightRecorder};
use crate::faults::{self, FaultPlan};
use crate::progress::ProgressSnapshot;
use crate::resilience::{catch_isolated, CancelToken, Incident, IncidentKind};
use crate::telemetry::{Counter, Metric, Telemetry};
use crate::trace::{ArgValue, Tracer};
use golite_ir::fnv;
use prng::Prng;
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

// ------------------------------------------------------------------ jobs

/// Ambient context handed to a job's work closure.
#[derive(Clone, Debug)]
pub struct JobCtx {
    /// The job's stable identifier (a module path in the CLI).
    pub job_id: String,
    /// 1-based attempt number (hedge twins share the attempt number).
    pub attempt: u32,
    /// Cancellation signal: set when a hedge twin already won. Attach it
    /// to the attempt's [`Budget`](crate::Budget) (via
    /// [`Budget::with_cancel`](crate::Budget::with_cancel)) so the losing
    /// twin stops at its next cooperative budget check.
    pub cancel: CancelToken,
    /// The job's submission index — the canonical event-ordering group
    /// for anything the job emits on an event bus.
    pub index: usize,
    /// The job's flight recorder: lifecycle lines pushed here end up in
    /// the quarantine postmortem if the job is given up on. The engine
    /// records attempt starts/ends and retry decisions itself; work
    /// closures may push additional context.
    pub flight: FlightRecorder,
}

/// One unit of batch work: a stable id plus the closure that produces a
/// payload (or a failure message). The closure must be callable from any
/// worker thread, and is re-invoked on retries and hedges — it should be
/// a pure function of `(job, attempt)` for deterministic reports.
pub struct BatchJob<'a, T> {
    /// Stable identifier; must be unique within one batch.
    pub id: String,
    /// The work itself. A returned `Err` and a contained panic are both
    /// treated as a failed attempt.
    #[allow(clippy::type_complexity)]
    pub work: Box<dyn Fn(&JobCtx) -> Result<T, String> + Send + Sync + 'a>,
}

impl<'a, T> BatchJob<'a, T> {
    /// Convenience constructor.
    pub fn new(
        id: impl Into<String>,
        work: impl Fn(&JobCtx) -> Result<T, String> + Send + Sync + 'a,
    ) -> BatchJob<'a, T> {
        BatchJob {
            id: id.into(),
            work: Box::new(work),
        }
    }
}

/// How a job ended up in the final record set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed in this run.
    Done,
    /// Restored from a checkpoint journal instead of re-run.
    Resumed,
    /// Set aside after exhausting its retry budget (see
    /// [`JobRecord::incident`]).
    Quarantined,
}

impl JobStatus {
    /// Stable lower-case label (journal lines, JSON output).
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Resumed => "resumed",
            JobStatus::Quarantined => "quarantined",
        }
    }
}

/// The decided outcome of one job.
#[derive(Clone, Debug)]
pub struct JobRecord<T> {
    /// The job's id.
    pub id: String,
    /// How the job was decided.
    pub status: JobStatus,
    /// Attempts launched (1 for a first-try success; 0 for a restored
    /// record, which carries the original count from the journal).
    pub attempts: u32,
    /// The payload, for [`JobStatus::Done`] / [`JobStatus::Resumed`].
    pub payload: Option<T>,
    /// The quarantine incident, for [`JobStatus::Quarantined`].
    pub incident: Option<Incident>,
    /// Wall-clock from first dispatch start to decision (zero for
    /// restored records).
    pub wall: Duration,
}

/// Everything a finished batch produced.
#[derive(Debug)]
pub struct BatchOutcome<T> {
    /// One record per submitted job, in submission order.
    pub records: Vec<JobRecord<T>>,
    /// Jobs restored from the journal.
    pub resumed: usize,
    /// Jobs actually executed this run.
    pub executed: usize,
    /// Jobs quarantined (this run or restored).
    pub quarantined: usize,
    /// First journal write error, if journaling broke mid-run (the batch
    /// still completes; later resume simply re-runs more jobs).
    pub journal_error: Option<String>,
}

// -------------------------------------------------------------- policies

/// Exponential backoff with deterministic jitter.
///
/// The delay before retry `n + 1` after `n` failed attempts is
/// `min(base · 2^(n-1), cap)` scaled by a jitter factor in `[0.5, 1.0)`
/// derived (via FNV + SplitMix) from `(seed, job, n)` — so a fixed seed
/// reproduces the exact retry schedule, while different jobs still
/// decorrelate.
#[derive(Clone, Debug)]
pub struct BackoffPolicy {
    /// First-retry delay.
    pub base: Duration,
    /// Upper bound on the un-jittered delay.
    pub cap: Duration,
    /// Seed for the jitter factor.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// The delay to sleep before the attempt that follows `failed_attempt`
    /// (1-based) failures of `job`.
    pub fn delay(&self, job: &str, failed_attempt: u32) -> Duration {
        let shift = failed_attempt.saturating_sub(1).min(20);
        let exp = self
            .base
            .saturating_mul(1u32 << shift.min(20))
            .min(self.cap);
        let mut h = fnv::OFFSET ^ self.seed;
        h = fnv::fnv(h, job.as_bytes());
        h = fnv::fnv(h, &failed_attempt.to_le_bytes());
        let jitter = 0.5 + 0.5 * Prng::seed_from_u64(h).next_f64();
        exp.mul_f64(jitter)
    }
}

/// When to hedge a straggling job with a second dispatch.
#[derive(Clone, Debug)]
pub struct HedgePolicy {
    /// Completed jobs required before p99 is considered meaningful.
    pub min_completed: usize,
    /// Floor on the straggler threshold, so tiny corpora with fast jobs
    /// don't hedge everything.
    pub min_age: Duration,
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy {
            min_completed: 5,
            min_age: Duration::from_millis(50),
        }
    }
}

/// Batch engine configuration.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Attempts before a persistently failing job is quarantined.
    pub max_attempts: u32,
    /// Retry backoff policy.
    pub backoff: BackoffPolicy,
    /// Straggler hedging; `None` disables hedging.
    pub hedge: Option<HedgePolicy>,
    /// Fault-injection plan armed around every attempt; `None` (the
    /// default) leaves the fault layer completely inert.
    pub faults: Option<std::sync::Arc<FaultPlan>>,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            workers: 4,
            max_attempts: 3,
            backoff: BackoffPolicy::default(),
            hedge: Some(HedgePolicy::default()),
            faults: None,
        }
    }
}

// --------------------------------------------------------------- journal

/// Magic key of the journal header line.
const JOURNAL_MAGIC: &str = "gcatch_batch_journal";

/// FNV fingerprint of the submitted job-id set, written into the header
/// so `--resume` refuses a journal from a different job set.
fn fingerprint(ids: &[String]) -> String {
    let mut h = fnv::OFFSET;
    for id in ids {
        h = fnv::fnv(h, id.as_bytes());
        h = fnv::fnv(h, b"\x1f");
    }
    format!("{h:016x}")
}

/// The header line of a job-set log (this journal, the sweep manifest):
/// its magic key and format version 1, the job count, and the job-set
/// fingerprint.
pub(crate) fn job_set_header(magic: &str, ids: &[String]) -> String {
    format!(
        "{{\"{magic}\":1,\"jobs\":{},\"fingerprint\":\"{}\"}}",
        ids.len(),
        fingerprint(ids)
    )
}

/// An append-only, fsync-per-line JSONL checkpoint journal on a
/// [`durable`] log.
///
/// The header identifies the job set; every later line is one decided
/// job, its payload embedded verbatim as a raw JSON value. After a kill at
/// any instant the journal holds complete records plus at most one torn
/// line, which [`Journal::open_resume`] drops under the log's heal rule.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    log: Mutex<Log>,
}

impl Journal {
    /// Creates (truncating) a journal for the given job set.
    pub fn create(path: &Path, ids: &[String]) -> std::io::Result<Journal> {
        Ok(Journal {
            path: path.to_path_buf(),
            log: Mutex::new(Log::create(path, &job_set_header(JOURNAL_MAGIC, ids))?),
        })
    }

    /// Opens an existing journal for resumption: validates the header
    /// against the submitted job set, restores every decided job from the
    /// records the log keeps, and reopens the file for appending —
    /// compacted first when a torn or malformed line was dropped, so the
    /// next record never lands after garbage.
    ///
    /// # Errors
    ///
    /// Reports an unreadable file, a missing/foreign header, or a job-set
    /// fingerprint mismatch. A line that fails to parse is *not* an error
    /// — its job is simply re-run.
    pub fn open_resume(
        path: &Path,
        ids: &[String],
    ) -> Result<(Journal, BTreeMap<String, JobRecord<String>>), String> {
        let (records, load) = Journal::read_records(path, ids)?;
        let restored: BTreeMap<String, JobRecord<String>> = records
            .into_iter()
            .map(|rec| (rec.id.clone(), rec))
            .collect();
        let log = Log::open(
            path,
            &load,
            restored.len(),
            &job_set_header(JOURNAL_MAGIC, ids),
            restored
                .values()
                .map(|rec| render_record(rec, String::clone)),
        )
        .map_err(|e| format!("cannot append to journal {}: {e}", path.display()))?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                log: Mutex::new(log),
            },
            restored,
        ))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads a journal without opening it for appending: validates the
    /// header against `ids` and returns every record the log keeps, in
    /// file order — but never rewrites the file. The sweep merge uses this
    /// to fold every worker's journal into one record set while the files
    /// stay untouched for postmortem inspection.
    pub(crate) fn read_records(
        path: &Path,
        ids: &[String],
    ) -> Result<(Vec<JobRecord<String>>, durable::Load), String> {
        let mut records = Vec::new();
        let load = durable::load(
            path,
            |header| match header {
                Some(h) if h == job_set_header(JOURNAL_MAGIC, ids) => Ok(true),
                Some(h) if h.starts_with(&format!("{{\"{JOURNAL_MAGIC}\":")) => Err(format!(
                    "journal {} was written for a different job set",
                    path.display()
                )),
                _ => Err(format!("{} is not a gcatch batch journal", path.display())),
            },
            |line| match parse_record_line(line) {
                Some(rec) => {
                    records.push(rec);
                    true
                }
                None => false,
            },
        )
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))??;
        Ok((records, load))
    }

    /// Appends one decided job and fsyncs; `encode` renders the payload as
    /// one self-contained raw JSON value.
    pub fn record<T>(&self, rec: &JobRecord<T>, encode: fn(&T) -> String) -> std::io::Result<()> {
        let line = render_record(rec, encode);
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .append(line)
    }
}

/// Where [`BatchEngine::run`] journals decided jobs: the journal, and the
/// function rendering a payload as one self-contained raw JSON value.
pub type JournalSink<'j, T> = (&'j Journal, fn(&T) -> String);

/// Renders one journal record line (without its newline).
fn render_record<T>(rec: &JobRecord<T>, encode: fn(&T) -> String) -> String {
    let mut line = String::from("{\"job\":\"");
    escape_json(&rec.id, &mut line);
    line.push_str("\",\"status\":\"");
    // Resumed records are not re-journaled; callers only pass
    // Done/Quarantined, but keep the label honest either way.
    line.push_str(match rec.status {
        JobStatus::Quarantined => "quarantined",
        _ => "done",
    });
    line.push_str("\",\"attempts\":");
    line.push_str(&rec.attempts.to_string());
    if let Some(inc) = &rec.incident {
        line.push_str(",\"incident\":\"");
        escape_json(&inc.message, &mut line);
        line.push('"');
        // The flight dump rides along so a resumed run reconstructs
        // the quarantine postmortem byte-for-byte.
        if !inc.flight.is_empty() {
            line.push_str(",\"flight\":[");
            for (i, fl) in inc.flight.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                escape_json(fl, &mut line);
                line.push('"');
            }
            line.push(']');
        }
    }
    line.push_str(",\"payload\":");
    match &rec.payload {
        Some(p) => line.push_str(&encode(p)),
        None => line.push_str("null"),
    }
    line.push('}');
    line
}

/// Parses one journal record line (without its newline).
fn parse_record_line(line: &str) -> Option<JobRecord<String>> {
    let rest = line.strip_prefix("{\"job\":")?;
    let (id, rest) = unquote(rest)?;
    let rest = rest.strip_prefix(",\"status\":")?;
    let (status, rest) = unquote(rest)?;
    let rest = rest.strip_prefix(",\"attempts\":")?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    let attempts: u32 = digits.parse().ok()?;
    let rest = &rest[digits.len()..];
    let (incident, rest) = match rest.strip_prefix(",\"incident\":") {
        Some(r) => {
            let (msg, r) = unquote(r)?;
            let (flight, r) = match r.strip_prefix(",\"flight\":[") {
                Some(mut fl_rest) => {
                    let mut lines = Vec::new();
                    match fl_rest.strip_prefix(']') {
                        Some(after) => (lines, after),
                        None => loop {
                            let (fl, after) = unquote(fl_rest)?;
                            lines.push(fl);
                            if let Some(more) = after.strip_prefix(',') {
                                fl_rest = more;
                            } else {
                                break (lines, after.strip_prefix(']')?);
                            }
                        },
                    }
                }
                None => (Vec::new(), r),
            };
            (
                Some(Incident {
                    kind: IncidentKind::Quarantined,
                    name: id.clone(),
                    message: msg,
                    rung: 0,
                    flight,
                }),
                r,
            )
        }
        None => (None, rest),
    };
    let payload = rest.strip_prefix(",\"payload\":")?.strip_suffix('}')?;
    match status.as_str() {
        "done" => Some(JobRecord {
            id,
            status: JobStatus::Done,
            attempts,
            payload: Some(payload.to_string()),
            incident: None,
            wall: Duration::ZERO,
        }),
        "quarantined" => Some(JobRecord {
            id,
            status: JobStatus::Quarantined,
            attempts,
            payload: None,
            incident,
            wall: Duration::ZERO,
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------- engine

/// One queued execution of a job attempt.
struct Dispatch {
    index: usize,
    attempt: u32,
    hedge: bool,
    /// Backoff to sleep (on the worker) before a retry attempt runs.
    backoff: Option<Duration>,
    cancel: CancelToken,
    /// The job's shared flight recorder (same ring for every attempt).
    flight: FlightRecorder,
}

/// Worker → supervisor events.
enum Event<T> {
    Started {
        index: usize,
        at: Instant,
    },
    Finished {
        index: usize,
        attempt: u32,
        result: Result<T, String>,
    },
}

/// The shared work queue.
struct Queue {
    items: VecDeque<Dispatch>,
    shutdown: bool,
}

/// Supervisor-side per-job bookkeeping.
struct JobState {
    attempts_launched: u32,
    /// Dispatches queued or running for the current attempt.
    active: u32,
    hedged: bool,
    first_started: Option<Instant>,
    started: Option<Instant>,
    cancels: Vec<CancelToken>,
    last_failure: Option<String>,
    identical_failures: u32,
    done: bool,
    /// Lifecycle ring shared with every dispatch of this job; dumped into
    /// the incident if the job is quarantined.
    flight: FlightRecorder,
}

impl JobState {
    fn new() -> JobState {
        JobState {
            attempts_launched: 1,
            active: 1,
            hedged: false,
            first_started: None,
            started: None,
            cancels: Vec::new(),
            last_failure: None,
            identical_failures: 0,
            done: false,
            flight: FlightRecorder::new(),
        }
    }
}

/// Supervisor-side counters backing `--progress` snapshots.
struct Meter {
    total: usize,
    resumed: usize,
    retried: u64,
    hedged: u64,
    quarantined: u64,
}

/// Exact p99 (in the [`crate::trace::HistSnapshot::percentile`] sense:
/// the sample at rank `ceil(0.99 n)`) of the completed wall times.
fn p99(walls: &[Duration]) -> Duration {
    if walls.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = walls.to_vec();
    sorted.sort_unstable();
    let rank = (walls.len() * 99).div_ceil(100).clamp(1, walls.len());
    sorted[rank - 1]
}

/// The supervised batch engine. See the [module docs](self).
pub struct BatchEngine<'t> {
    config: BatchConfig,
    telemetry: &'t Telemetry,
    tracer: &'t Tracer,
    /// How a worker waits out a backoff delay; tests install a recorder.
    #[allow(clippy::type_complexity)]
    sleeper: Box<dyn Fn(&str, u32, Duration) + Send + Sync + 't>,
    /// Supervisor tick: how often the hedge scan runs while idle.
    tick: Duration,
    /// Structured event sink (`--events-out`); `None` leaves it inert.
    events: Option<&'t EventBus>,
    /// Progress callback plus its minimum emission interval
    /// (`--progress`); `None` leaves it inert.
    #[allow(clippy::type_complexity)]
    progress: Option<(Box<dyn Fn(&ProgressSnapshot) + Send + Sync + 't>, Duration)>,
}

impl<'t> BatchEngine<'t> {
    /// An engine recording into `telemetry`/`tracer` (pass
    /// [`Tracer::disabled`] when not tracing).
    pub fn new(config: BatchConfig, telemetry: &'t Telemetry, tracer: &'t Tracer) -> Self {
        BatchEngine {
            config,
            telemetry,
            tracer,
            sleeper: Box::new(|_job, _attempt, d| std::thread::sleep(d)),
            tick: Duration::from_millis(5),
            events: None,
            progress: None,
        }
    }

    /// Replaces the backoff sleep (deterministic tests record the exact
    /// schedule instead of sleeping through it).
    pub fn with_sleeper(
        mut self,
        sleeper: impl Fn(&str, u32, Duration) + Send + Sync + 't,
    ) -> Self {
        self.sleeper = Box::new(sleeper);
        self
    }

    /// Attaches a structured event bus: every attempt start/end, fault
    /// injection, retry, hedge, quarantine, and resume is emitted with
    /// the job's id and submission index as correlation keys.
    pub fn with_events(mut self, events: &'t EventBus) -> Self {
        self.events = Some(events);
        self
    }

    /// Attaches a live progress callback, invoked from the supervisor at
    /// most once per `every` (plus once at start and once at the end).
    pub fn with_progress(
        mut self,
        callback: impl Fn(&ProgressSnapshot) + Send + Sync + 't,
        every: Duration,
    ) -> Self {
        self.progress = Some((Box::new(callback), every));
        self
    }

    /// Emits one job-correlated event when a bus is attached.
    fn emit(
        &self,
        kind: EventKind,
        index: usize,
        job: &str,
        attempt: Option<u32>,
        fields: Vec<(&'static str, Field)>,
    ) {
        if let Some(bus) = self.events {
            bus.emit(ObsEvent {
                kind,
                group: index as u64,
                job: Some(job.to_string()),
                attempt,
                channel: None,
                fields,
            });
        }
    }

    /// Hands a progress snapshot to the callback, throttled to its
    /// configured interval unless `force`d (start/end of the run).
    fn emit_progress(&self, meter: &Meter, remaining: usize, last: &mut Instant, force: bool) {
        let Some((callback, every)) = &self.progress else {
            return;
        };
        if !force && last.elapsed() < *every {
            return;
        }
        *last = Instant::now();
        let hist = self.telemetry.hist(Metric::JobWallNs).snapshot();
        let eta_ms = (hist.count > 0 && remaining > 0).then(|| {
            let per_job_ms = hist.mean() as f64 / 1e6;
            (per_job_ms * remaining as f64 / self.config.workers.max(1) as f64) as u64
        });
        callback(&ProgressSnapshot {
            total: meter.total,
            done: meter.total - remaining,
            resumed: meter.resumed,
            retried: meter.retried,
            hedged: meter.hedged,
            quarantined: meter.quarantined,
            p50_ms: hist.percentile(50) as f64 / 1e6,
            p99_ms: hist.percentile(99) as f64 / 1e6,
            eta_ms,
            ..ProgressSnapshot::default()
        });
    }

    /// Runs the batch to completion and returns one record per job in
    /// submission order. Jobs present in `restored` (from
    /// [`Journal::open_resume`]) are not re-run. Every decided job is
    /// appended to `journal` if one is given.
    pub fn run<'a, T: Send>(
        &self,
        jobs: &[BatchJob<'a, T>],
        journal: Option<JournalSink<'_, T>>,
        mut restored: BTreeMap<String, JobRecord<T>>,
    ) -> BatchOutcome<T> {
        self.telemetry.add(Counter::JobsTotal, jobs.len() as u64);
        let mut records: Vec<Option<JobRecord<T>>> = Vec::with_capacity(jobs.len());
        let mut states: Vec<JobState> = Vec::with_capacity(jobs.len());
        let mut pending: Vec<usize> = Vec::new();
        let mut resumed = 0usize;
        let mut sup_lane = self.tracer.lane(0, "batch-supervisor");
        for (i, job) in jobs.iter().enumerate() {
            if let Some(mut rec) = restored.remove(&job.id) {
                if rec.status == JobStatus::Done {
                    rec.status = JobStatus::Resumed;
                }
                self.telemetry.add(Counter::JobsResumed, 1);
                resumed += 1;
                sup_lane.instant(
                    "job_resumed",
                    vec![("job", ArgValue::from(job.id.as_str()))],
                );
                self.emit(
                    EventKind::JobResumed,
                    i,
                    &job.id,
                    None,
                    vec![("attempts", Field::U64(u64::from(rec.attempts)))],
                );
                records.push(Some(rec));
            } else {
                pending.push(i);
                records.push(None);
            }
            states.push(JobState::new());
        }
        let executed = pending.len();
        let mut journal_error: Option<String> = None;

        if executed > 0 {
            let queue = Mutex::new(Queue {
                items: VecDeque::new(),
                shutdown: false,
            });
            let ready = Condvar::new();
            {
                let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                for &i in &pending {
                    let cancel = CancelToken::new();
                    states[i].cancels.push(cancel.clone());
                    q.items.push_back(Dispatch {
                        index: i,
                        attempt: 1,
                        hedge: false,
                        backoff: None,
                        cancel,
                        flight: states[i].flight.clone(),
                    });
                }
            }
            let (tx, rx) = mpsc::channel::<Event<T>>();
            let workers = self.config.workers.max(1).min(executed.max(1));
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let tx = tx.clone();
                    let queue = &queue;
                    let ready = &ready;
                    scope.spawn(move || self.worker_loop(w, jobs, queue, ready, tx));
                }
                drop(tx);
                self.supervise(
                    jobs,
                    &queue,
                    &ready,
                    rx,
                    &mut states,
                    &mut records,
                    executed,
                    resumed,
                    journal,
                    &mut journal_error,
                    &mut sup_lane,
                );
                // Release the workers.
                let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                q.shutdown = true;
                ready.notify_all();
            });
        }

        let records: Vec<JobRecord<T>> = records
            .into_iter()
            .map(|r| r.expect("every job decided"))
            .collect();
        let quarantined = records
            .iter()
            .filter(|r| r.status == JobStatus::Quarantined)
            .count();
        BatchOutcome {
            records,
            resumed,
            executed,
            quarantined,
            journal_error,
        }
    }

    /// One worker: pop dispatches, run attempts under isolation (and
    /// under the fault scope when a plan is armed), report events.
    fn worker_loop<'a, T: Send>(
        &self,
        worker: usize,
        jobs: &[BatchJob<'a, T>],
        queue: &Mutex<Queue>,
        ready: &Condvar,
        tx: mpsc::Sender<Event<T>>,
    ) {
        let mut lane = self
            .tracer
            .lane(1 + worker as u32, format!("batch-worker-{worker}"));
        loop {
            let dispatch = {
                let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(d) = q.items.pop_front() {
                        break Some(d);
                    }
                    if q.shutdown {
                        break None;
                    }
                    q = ready.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            let Some(d) = dispatch else { return };
            if let Some(delay) = d.backoff {
                (self.sleeper)(&jobs[d.index].id, d.attempt, delay);
            }
            if d.cancel.is_cancelled() {
                // The job was decided while this dispatch sat in queue.
                let _ = tx.send(Event::Finished {
                    index: d.index,
                    attempt: d.attempt,
                    result: Err("cancelled before start".to_string()),
                });
                continue;
            }
            let _ = tx.send(Event::Started {
                index: d.index,
                at: Instant::now(),
            });
            let job = &jobs[d.index];
            let ctx = JobCtx {
                job_id: job.id.clone(),
                attempt: d.attempt,
                cancel: d.cancel.clone(),
                index: d.index,
                flight: d.flight.clone(),
            };
            // Hedge twins race the original attempt, so their lifecycle is
            // schedule-dependent; they go to the event bus (operators want
            // them) but never into the flight ring, which must stay
            // deterministic for byte-identical quarantine postmortems.
            if !d.hedge {
                d.flight.push(format!("attempt {}: started", d.attempt));
            }
            self.emit(
                EventKind::AttemptStart,
                d.index,
                &job.id,
                Some(d.attempt),
                vec![("hedge", Field::Bool(d.hedge))],
            );
            lane.begin(
                "batch_job",
                vec![
                    ("job", ArgValue::from(job.id.as_str())),
                    ("attempt", ArgValue::from(u64::from(d.attempt))),
                    ("hedge", ArgValue::from(u64::from(d.hedge))),
                ],
            );
            let attempt_result = match &self.config.faults {
                Some(plan) => {
                    let plan = plan.clone();
                    catch_isolated(|| {
                        faults::with_scope(plan, &job.id, d.attempt, || {
                            faults::maybe_delay(faults::SITE_BATCH_DELAY, &job.id);
                            faults::maybe_panic(faults::SITE_BATCH_JOB, &job.id);
                            (job.work)(&ctx)
                        })
                    })
                }
                None => catch_isolated(|| (job.work)(&ctx)),
            };
            let result = match attempt_result {
                Ok(r) => r,
                Err(panic_message) => Err(panic_message),
            };
            lane.rewind();
            match &result {
                Ok(_) => {
                    if !d.hedge {
                        d.flight.push(format!("attempt {}: succeeded", d.attempt));
                    }
                    self.emit(
                        EventKind::AttemptEnd,
                        d.index,
                        &job.id,
                        Some(d.attempt),
                        vec![("ok", Field::Bool(true)), ("hedge", Field::Bool(d.hedge))],
                    );
                }
                Err(message) => {
                    if let Some(site) = faults::injected_site(message) {
                        self.emit(
                            EventKind::FaultInjected,
                            d.index,
                            &job.id,
                            Some(d.attempt),
                            vec![("site", Field::Str(site.to_string()))],
                        );
                    }
                    if !d.hedge {
                        d.flight
                            .push(format!("attempt {}: failed: {message}", d.attempt));
                    }
                    self.emit(
                        EventKind::AttemptEnd,
                        d.index,
                        &job.id,
                        Some(d.attempt),
                        vec![
                            ("ok", Field::Bool(false)),
                            ("hedge", Field::Bool(d.hedge)),
                            ("error", Field::Str(message.clone())),
                        ],
                    );
                }
            }
            let _ = tx.send(Event::Finished {
                index: d.index,
                attempt: d.attempt,
                result,
            });
        }
    }

    /// The supervisor: consume worker events, decide retries, hedges,
    /// quarantines; journal every decision.
    #[allow(clippy::too_many_arguments)]
    fn supervise<'a, T: Send>(
        &self,
        jobs: &[BatchJob<'a, T>],
        queue: &Mutex<Queue>,
        ready: &Condvar,
        rx: mpsc::Receiver<Event<T>>,
        states: &mut [JobState],
        records: &mut [Option<JobRecord<T>>],
        mut remaining: usize,
        resumed: usize,
        journal: Option<JournalSink<'_, T>>,
        journal_error: &mut Option<String>,
        lane: &mut crate::trace::Lane<'_>,
    ) {
        let mut walls: Vec<Duration> = Vec::new();
        let mut meter = Meter {
            total: records.len(),
            resumed,
            retried: 0,
            hedged: 0,
            quarantined: 0,
        };
        let mut last_progress = Instant::now();
        self.emit_progress(&meter, remaining, &mut last_progress, true);
        while remaining > 0 {
            let event = match rx.recv_timeout(self.tick) {
                Ok(ev) => ev,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.scan_stragglers(jobs, queue, ready, states, &walls, &mut meter, lane);
                    self.emit_progress(&meter, remaining, &mut last_progress, false);
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            match event {
                Event::Started { index, at } => {
                    let st = &mut states[index];
                    st.first_started.get_or_insert(at);
                    st.started.get_or_insert(at);
                }
                Event::Finished {
                    index,
                    attempt,
                    result,
                } => {
                    let st = &mut states[index];
                    st.active = st.active.saturating_sub(1);
                    if st.done {
                        continue; // a twin already decided this job
                    }
                    match result {
                        Ok(payload) => {
                            st.done = true;
                            remaining -= 1;
                            for c in &st.cancels {
                                c.cancel();
                            }
                            let wall = st.first_started.map(|s| s.elapsed()).unwrap_or_default();
                            walls.push(wall);
                            self.telemetry
                                .observe(Metric::JobWallNs, wall.as_nanos() as u64);
                            let rec = JobRecord {
                                id: jobs[index].id.clone(),
                                status: JobStatus::Done,
                                attempts: attempt,
                                payload: Some(payload),
                                incident: None,
                                wall,
                            };
                            self.journal_record(&rec, journal, journal_error);
                            records[index] = Some(rec);
                            self.emit(
                                EventKind::JobDone,
                                index,
                                &jobs[index].id,
                                Some(attempt),
                                vec![("attempts", Field::U64(u64::from(attempt)))],
                            );
                            self.emit_progress(&meter, remaining, &mut last_progress, false);
                        }
                        Err(message) => {
                            if message == st.last_failure.as_deref().unwrap_or("") {
                                st.identical_failures += 1;
                            } else {
                                st.identical_failures = 1;
                                st.last_failure = Some(message.clone());
                            }
                            if st.active > 0 {
                                continue; // a hedge twin is still in flight
                            }
                            let injected = faults::is_injected(&message);
                            let deterministic = !injected && st.identical_failures >= 2;
                            if st.attempts_launched >= self.config.max_attempts || deterministic {
                                st.done = true;
                                remaining -= 1;
                                meter.quarantined += 1;
                                self.telemetry.add(Counter::JobsQuarantined, 1);
                                lane.instant(
                                    "job_quarantined",
                                    vec![
                                        ("job", ArgValue::from(jobs[index].id.as_str())),
                                        (
                                            "attempts",
                                            ArgValue::from(u64::from(st.attempts_launched)),
                                        ),
                                    ],
                                );
                                let wall =
                                    st.first_started.map(|s| s.elapsed()).unwrap_or_default();
                                st.flight.push(format!(
                                    "quarantined after {} attempt(s)",
                                    st.attempts_launched
                                ));
                                self.emit(
                                    EventKind::JobQuarantined,
                                    index,
                                    &jobs[index].id,
                                    Some(st.attempts_launched),
                                    vec![
                                        ("attempts", Field::U64(u64::from(st.attempts_launched))),
                                        ("error", Field::Str(message.clone())),
                                    ],
                                );
                                let rec = JobRecord {
                                    id: jobs[index].id.clone(),
                                    status: JobStatus::Quarantined,
                                    attempts: st.attempts_launched,
                                    payload: None,
                                    incident: Some(Incident {
                                        kind: IncidentKind::Quarantined,
                                        name: jobs[index].id.clone(),
                                        message,
                                        rung: 0,
                                        flight: st.flight.dump(),
                                    }),
                                    wall,
                                };
                                self.journal_record(&rec, journal, journal_error);
                                records[index] = Some(rec);
                                self.emit_progress(&meter, remaining, &mut last_progress, false);
                            } else {
                                let next = st.attempts_launched + 1;
                                st.attempts_launched = next;
                                st.active = 1;
                                st.hedged = false;
                                st.started = None;
                                meter.retried += 1;
                                self.telemetry.add(Counter::JobsRetried, 1);
                                lane.instant(
                                    "job_retry",
                                    vec![
                                        ("job", ArgValue::from(jobs[index].id.as_str())),
                                        ("attempt", ArgValue::from(u64::from(next))),
                                    ],
                                );
                                let cancel = CancelToken::new();
                                st.cancels = vec![cancel.clone()];
                                let backoff = self.config.backoff.delay(&jobs[index].id, next - 1);
                                st.flight.push(format!(
                                    "retry: attempt {next} scheduled (backoff {} ms)",
                                    backoff.as_millis()
                                ));
                                self.emit(
                                    EventKind::JobRetry,
                                    index,
                                    &jobs[index].id,
                                    Some(next),
                                    vec![("backoff_ms", Field::U64(backoff.as_millis() as u64))],
                                );
                                let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                                q.items.push_back(Dispatch {
                                    index,
                                    attempt: next,
                                    hedge: false,
                                    backoff: Some(backoff),
                                    cancel,
                                    flight: st.flight.clone(),
                                });
                                ready.notify_one();
                            }
                        }
                    }
                }
            }
        }
        self.emit_progress(&meter, remaining, &mut last_progress, true);
    }

    /// Hedge any job running past `max(p99, min_age)` once enough jobs
    /// have completed.
    #[allow(clippy::too_many_arguments)]
    fn scan_stragglers<'a, T>(
        &self,
        jobs: &[BatchJob<'a, T>],
        queue: &Mutex<Queue>,
        ready: &Condvar,
        states: &mut [JobState],
        walls: &[Duration],
        meter: &mut Meter,
        lane: &mut crate::trace::Lane<'_>,
    ) {
        let Some(hedge) = &self.config.hedge else {
            return;
        };
        if walls.len() < hedge.min_completed {
            return;
        }
        let threshold = p99(walls).max(hedge.min_age);
        for (i, st) in states.iter_mut().enumerate() {
            if st.done || st.hedged || st.active != 1 {
                continue;
            }
            let Some(started) = st.started else { continue };
            if started.elapsed() <= threshold {
                continue;
            }
            st.hedged = true;
            st.active += 1;
            meter.hedged += 1;
            self.telemetry.add(Counter::JobsHedged, 1);
            lane.instant(
                "job_hedged",
                vec![
                    ("job", ArgValue::from(jobs[i].id.as_str())),
                    ("attempt", ArgValue::from(u64::from(st.attempts_launched))),
                ],
            );
            // Bus only: hedge launches are schedule-dependent, so they
            // never enter the deterministic flight ring.
            self.emit(
                EventKind::JobHedged,
                i,
                &jobs[i].id,
                Some(st.attempts_launched),
                Vec::new(),
            );
            let cancel = CancelToken::new();
            st.cancels.push(cancel.clone());
            let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
            q.items.push_back(Dispatch {
                index: i,
                attempt: st.attempts_launched,
                hedge: true,
                backoff: None,
                cancel,
                flight: st.flight.clone(),
            });
            ready.notify_one();
        }
    }

    fn journal_record<T>(
        &self,
        rec: &JobRecord<T>,
        journal: Option<JournalSink<'_, T>>,
        journal_error: &mut Option<String>,
    ) {
        let Some((journal, encode)) = journal else {
            return;
        };
        if journal_error.is_some() {
            return; // journaling already broke; don't spam errors
        }
        if let Err(e) = journal.record(rec, encode) {
            *journal_error = Some(format!(
                "journal write failed at {}: {e}",
                journal.path().display()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceLevel;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn engine_parts() -> (Telemetry, Tracer) {
        (Telemetry::new(), Tracer::new(TraceLevel::Off))
    }

    fn no_hedge(mut config: BatchConfig) -> BatchConfig {
        config.hedge = None;
        config
    }

    #[test]
    fn backoff_schedule_is_exponential_jittered_and_deterministic() {
        let policy = BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 42,
        };
        for attempt in 1..=6u32 {
            let exp = Duration::from_millis(10 * (1 << (attempt - 1))).min(policy.cap);
            let d = policy.delay("job-x", attempt);
            assert_eq!(d, policy.delay("job-x", attempt), "deterministic");
            assert!(
                d >= exp.mul_f64(0.5) && d < exp,
                "jitter in [0.5, 1.0) of {exp:?}: {d:?}"
            );
        }
        assert_ne!(
            policy.delay("job-x", 1),
            policy.delay("job-y", 1),
            "jobs decorrelate"
        );
        let reseeded = BackoffPolicy {
            seed: 43,
            ..policy.clone()
        };
        assert_ne!(policy.delay("job-x", 1), reseeded.delay("job-x", 1));
    }

    #[test]
    fn failing_job_follows_the_exact_retry_schedule_then_succeeds() {
        let (telemetry, tracer) = engine_parts();
        let config = no_hedge(BatchConfig {
            workers: 1,
            max_attempts: 5,
            ..BatchConfig::default()
        });
        let backoff = config.backoff.clone();
        let slept: Arc<Mutex<Vec<(String, u32, Duration)>>> = Arc::default();
        let slept_rec = slept.clone();
        let engine = BatchEngine::new(config, &telemetry, &tracer).with_sleeper(
            move |job: &str, attempt: u32, d: Duration| {
                slept_rec
                    .lock()
                    .unwrap()
                    .push((job.to_string(), attempt, d));
            },
        );
        let calls = AtomicUsize::new(0);
        let jobs = vec![BatchJob::new("flaky", |ctx: &JobCtx| {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(format!("transient glitch on attempt {}", ctx.attempt))
            } else {
                Ok(ctx.attempt)
            }
        })];
        let outcome = engine.run(&jobs, None, BTreeMap::new());
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.records[0].status, JobStatus::Done);
        assert_eq!(outcome.records[0].attempts, 3);
        assert_eq!(outcome.records[0].payload, Some(3));
        let slept = slept.lock().unwrap().clone();
        assert_eq!(
            slept,
            vec![
                ("flaky".to_string(), 2, backoff.delay("flaky", 1)),
                ("flaky".to_string(), 3, backoff.delay("flaky", 2)),
            ],
            "exact, seed-reproducible retry schedule"
        );
        assert_eq!(telemetry.get(Counter::JobsRetried), 2);
        assert_eq!(telemetry.get(Counter::JobsQuarantined), 0);
        assert_eq!(telemetry.get(Counter::JobsTotal), 1);
    }

    #[test]
    fn repeated_identical_failures_quarantine_early_with_structured_incident() {
        let (telemetry, tracer) = engine_parts();
        let config = no_hedge(BatchConfig {
            workers: 2,
            max_attempts: 9,
            ..BatchConfig::default()
        });
        let engine = BatchEngine::new(config, &telemetry, &tracer).with_sleeper(|_, _, _| {});
        let jobs = vec![
            BatchJob::new("sick", |_: &JobCtx| -> Result<u32, String> {
                Err("segfault in module lowering".to_string())
            }),
            BatchJob::new("healthy", |_: &JobCtx| Ok(7)),
        ];
        let outcome = engine.run(&jobs, None, BTreeMap::new());
        let sick = &outcome.records[0];
        assert_eq!(sick.status, JobStatus::Quarantined);
        assert_eq!(sick.attempts, 2, "identical messages quarantine early");
        let incident = sick.incident.as_ref().expect("structured incident");
        assert_eq!(incident.kind, IncidentKind::Quarantined);
        assert_eq!(incident.name, "sick");
        assert_eq!(incident.message, "segfault in module lowering");
        assert_eq!(outcome.records[1].status, JobStatus::Done);
        assert_eq!(outcome.quarantined, 1);
        assert_eq!(telemetry.get(Counter::JobsQuarantined), 1);
    }

    #[test]
    fn varying_failures_quarantine_at_max_attempts() {
        let (telemetry, tracer) = engine_parts();
        let config = no_hedge(BatchConfig {
            workers: 1,
            max_attempts: 4,
            ..BatchConfig::default()
        });
        let engine = BatchEngine::new(config, &telemetry, &tracer).with_sleeper(|_, _, _| {});
        let jobs = vec![BatchJob::new(
            "doomed",
            |ctx: &JobCtx| -> Result<u32, String> {
                Err(format!("distinct failure #{}", ctx.attempt))
            },
        )];
        let outcome = engine.run(&jobs, None, BTreeMap::new());
        assert_eq!(outcome.records[0].status, JobStatus::Quarantined);
        assert_eq!(outcome.records[0].attempts, 4);
        assert_eq!(telemetry.get(Counter::JobsRetried), 3);
    }

    #[test]
    fn injected_marker_panics_are_transient_even_when_identical() {
        let (telemetry, tracer) = engine_parts();
        let config = no_hedge(BatchConfig {
            workers: 1,
            max_attempts: 4,
            ..BatchConfig::default()
        });
        let engine = BatchEngine::new(config, &telemetry, &tracer).with_sleeper(|_, _, _| {});
        let calls = AtomicUsize::new(0);
        let jobs = vec![BatchJob::new("glitchy", |_: &JobCtx| {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                // Same message both times; the marker keeps it transient.
                panic!("injected fault: synthetic");
            }
            Ok(1u32)
        })];
        let outcome = engine.run(&jobs, None, BTreeMap::new());
        assert_eq!(outcome.records[0].status, JobStatus::Done);
        assert_eq!(outcome.records[0].attempts, 3);
        assert_eq!(telemetry.get(Counter::JobsRetried), 2);
        assert_eq!(telemetry.get(Counter::JobsQuarantined), 0);
    }

    #[test]
    fn straggler_gets_hedged_and_the_loser_is_cancelled() {
        let (telemetry, tracer) = engine_parts();
        let config = BatchConfig {
            workers: 2,
            max_attempts: 3,
            hedge: Some(HedgePolicy {
                min_completed: 3,
                min_age: Duration::from_millis(20),
            }),
            ..BatchConfig::default()
        };
        let engine = BatchEngine::new(config, &telemetry, &tracer);
        let straggler_runs = AtomicUsize::new(0);
        let loser_saw_cancel = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let saw = loser_saw_cancel.clone();
        let mut jobs: Vec<BatchJob<'_, u32>> = (0..4)
            .map(|i| BatchJob::new(format!("fast-{i}"), |_: &JobCtx| Ok(0u32)))
            .collect();
        jobs.push(BatchJob::new("straggler", move |ctx: &JobCtx| {
            if straggler_runs.fetch_add(1, Ordering::SeqCst) == 0 {
                // First execution stalls until its hedge twin wins.
                let start = Instant::now();
                while !ctx.cancel.is_cancelled() {
                    if start.elapsed() > Duration::from_secs(10) {
                        return Err("never cancelled".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                saw.store(true, Ordering::SeqCst);
                Err("cancelled".to_string())
            } else {
                Ok(99)
            }
        }));
        let outcome = engine.run(&jobs, None, BTreeMap::new());
        let rec = outcome
            .records
            .iter()
            .find(|r| r.id == "straggler")
            .unwrap();
        assert_eq!(rec.status, JobStatus::Done);
        assert_eq!(rec.payload, Some(99));
        assert_eq!(telemetry.get(Counter::JobsHedged), 1);
        assert!(
            loser_saw_cancel.load(Ordering::SeqCst),
            "losing twin observed its CancelToken"
        );
        assert_eq!(telemetry.get(Counter::JobsQuarantined), 0);
    }

    #[test]
    fn journal_round_trips_and_resume_skips_completed_jobs() {
        let dir = std::env::temp_dir().join(format!(
            "gcatch-batch-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let ids: Vec<String> = (0..3).map(|i| format!("mod-{i}")).collect();
        let (telemetry, tracer) = engine_parts();
        let engine = BatchEngine::new(
            no_hedge(BatchConfig {
                workers: 2,
                ..BatchConfig::default()
            }),
            &telemetry,
            &tracer,
        );
        let jobs: Vec<BatchJob<'_, String>> = ids
            .iter()
            .map(|id| {
                let id = id.clone();
                BatchJob::new(id.clone(), move |_: &JobCtx| {
                    Ok(format!("{{\"module\":\"{id}\"}}"))
                })
            })
            .collect();
        {
            let journal = Journal::create(&path, &ids).unwrap();
            let outcome = engine.run(&jobs, Some((&journal, String::clone)), BTreeMap::new());
            assert_eq!(outcome.executed, 3);
            assert!(outcome.journal_error.is_none());
        }

        // Full resume: everything restored, nothing re-run.
        let (telemetry2, tracer2) = engine_parts();
        let engine2 = BatchEngine::new(BatchConfig::default(), &telemetry2, &tracer2);
        let (journal2, restored) = Journal::open_resume(&path, &ids).unwrap();
        assert_eq!(restored.len(), 3);
        let poisoned: Vec<BatchJob<'_, String>> = ids
            .iter()
            .map(|id| {
                BatchJob::new(id.clone(), |_: &JobCtx| {
                    panic!("restored job must not re-run")
                })
            })
            .collect();
        let outcome = engine2.run(&poisoned, Some((&journal2, String::clone)), restored);
        assert_eq!(outcome.resumed, 3);
        assert_eq!(outcome.executed, 0);
        assert!(outcome
            .records
            .iter()
            .all(|r| r.status == JobStatus::Resumed));
        assert_eq!(telemetry2.get(Counter::JobsResumed), 3);
        assert_eq!(
            outcome.records[1].payload.as_deref(),
            Some("{\"module\":\"mod-1\"}")
        );

        // Truncation mid-line: the torn record is dropped, its job re-runs.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 7);
        std::fs::write(&path, &bytes).unwrap();
        let (torn, partial) = Journal::open_resume(&path, &ids).unwrap();
        assert_eq!(partial.len(), 2, "torn trailing line dropped");

        // Self-healing: the journal is compacted without the torn tail
        // before appending, so a record written now is visible to the
        // *next* resume too. The two
        // workers finish in either order, so the torn record may be any
        // job's: re-record whichever one was lost.
        let lost = ids
            .iter()
            .find(|id| !partial.contains_key(*id))
            .expect("the torn record's job is missing");
        torn.record(
            &JobRecord {
                id: lost.clone(),
                status: JobStatus::Done,
                attempts: 1,
                payload: Some(format!("{{\"module\":\"{lost}\"}}")),
                incident: None,
                wall: Duration::ZERO,
            },
            String::clone,
        )
        .unwrap();
        drop(torn);
        let (_, healed) = Journal::open_resume(&path, &ids).unwrap();
        assert_eq!(healed.len(), 3, "appended record survives a second resume");

        // A different job set is refused.
        let other: Vec<String> = vec!["unrelated".to_string()];
        let err = Journal::open_resume(&path, &other).unwrap_err();
        assert!(err.contains("different job set"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantined_records_survive_the_journal() {
        let dir = std::env::temp_dir().join(format!(
            "gcatch-batch-quarantine-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let ids = vec!["bad \"name\"\n".to_string()];
        let journal = Journal::create(&path, &ids).unwrap();
        journal
            .record(
                &JobRecord {
                    id: ids[0].clone(),
                    status: JobStatus::Quarantined,
                    attempts: 3,
                    payload: None,
                    incident: Some(Incident {
                        kind: IncidentKind::Quarantined,
                        name: ids[0].clone(),
                        message: "panic: \"boom\"\nwith newline".to_string(),
                        rung: 0,
                        flight: vec![
                            "attempt 1: failed: panic: \"boom\"\nwith newline".to_string(),
                            "quarantined after 3 attempt(s)".to_string(),
                        ],
                    }),
                    wall: Duration::from_millis(5),
                },
                String::clone,
            )
            .unwrap();
        let (_, restored) = Journal::open_resume(&path, &ids).unwrap();
        let rec = restored.get(ids[0].as_str()).expect("restored");
        assert_eq!(rec.status, JobStatus::Quarantined);
        assert_eq!(rec.attempts, 3);
        let inc = rec.incident.as_ref().unwrap();
        assert_eq!(inc.message, "panic: \"boom\"\nwith newline");
        assert_eq!(
            inc.flight,
            vec![
                "attempt 1: failed: panic: \"boom\"\nwith newline".to_string(),
                "quarantined after 3 attempt(s)".to_string(),
            ],
            "flight dump round-trips through the journal"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal as the previous journal code wrote it, byte for byte.
    const OLD_JOURNAL: [&str; 4] = [
        r#"{"gcatch_batch_journal":1,"jobs":3,"fingerprint":"82dd652fffaaaded"}"#,
        r#"{"job":"a.go","status":"done","attempts":1,"payload":{"module":"a.go","bugs":0,"report":{"version":1,"diagnostics":[]}}}"#,
        r#"{"job":"dir/b \"q\".go","status":"quarantined","attempts":2,"incident":"parse error at 2:12: expected identifier, found `{`\n\ttab","flight":["attempt 1: started","attempt 1: failed: \"x\"\u0001"],"payload":null}"#,
        "{\"job\":\"c\u{e9}\u{1F642}.go\",\"status\":\"done\",\"attempts\":3,\"payload\":{\"module\":\"c\u{e9}\u{1F642}.go\",\"bugs\":1,\"report\":{}}}",
    ];

    #[test]
    fn old_journals_load_intact_and_heal_around_garbage() {
        use std::os::unix::fs::MetadataExt;
        let dir = std::env::temp_dir().join(format!(
            "gcatch-batch-old-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.journal");
        let ids: Vec<String> = ["a.go", "dir/b \"q\".go", "c\u{e9}\u{1F642}.go"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let text: String = OLD_JOURNAL.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, &text).unwrap();
        let ino = std::fs::metadata(&path).unwrap().ino();
        let (journal, restored) = Journal::open_resume(&path, &ids).unwrap();
        drop(journal);
        assert_eq!(restored.len(), 3);
        assert_eq!(
            std::fs::metadata(&path).unwrap().ino(),
            ino,
            "intact: not rewritten"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let quarantined = &restored[&ids[1]];
        assert_eq!(quarantined.status, JobStatus::Quarantined);
        let inc = quarantined.incident.as_ref().unwrap();
        assert_eq!(
            inc.message,
            "parse error at 2:12: expected identifier, found `{`\n\ttab"
        );
        assert_eq!(inc.flight[1], "attempt 1: failed: \"x\"\u{1}");
        // Records re-render to the very bytes they were read from.
        for (line, id) in OLD_JOURNAL[1..].iter().zip(&ids) {
            assert_eq!(render_record(&restored[id], String::clone), *line);
        }

        // A garbage line between records: both neighbours survive, and
        // the compacted journal holds every record (in job-id order) and
        // no garbage.
        let damaged = format!(
            "{}\n{}\nnot a record\n{}\n{}\n",
            OLD_JOURNAL[0], OLD_JOURNAL[1], OLD_JOURNAL[2], OLD_JOURNAL[3]
        );
        std::fs::write(&path, damaged).unwrap();
        let (_, restored) = Journal::open_resume(&path, &ids).unwrap();
        assert_eq!(restored.len(), 3);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!(
                "{}\n{}\n{}\n{}\n",
                OLD_JOURNAL[0], OLD_JOURNAL[1], OLD_JOURNAL[3], OLD_JOURNAL[2]
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_job_fault_site_drives_retry_then_success() {
        let (telemetry, tracer) = engine_parts();
        let mut config = no_hedge(BatchConfig {
            workers: 2,
            max_attempts: 6,
            ..BatchConfig::default()
        });
        config.faults = Some(Arc::new(
            FaultPlan::new(0.5, 7)
                .with_sites([faults::SITE_BATCH_JOB])
                .with_delay(Duration::ZERO),
        ));
        let engine = BatchEngine::new(config, &telemetry, &tracer).with_sleeper(|_, _, _| {});
        let jobs: Vec<BatchJob<'_, u32>> = (0..8)
            .map(|i| BatchJob::new(format!("mod-{i}"), |ctx: &JobCtx| Ok(ctx.attempt)))
            .collect();
        let outcome = engine.run(&jobs, None, BTreeMap::new());
        assert!(outcome.records.iter().all(|r| r.status == JobStatus::Done));
        // With rate 0.5 over 8 jobs some first attempts must fire; all
        // injected faults are transient, so everything still completes.
        assert!(telemetry.get(Counter::JobsRetried) > 0);
        assert_eq!(telemetry.get(Counter::JobsQuarantined), 0);
        // And the same seed reproduces the same attempt counts.
        let (telemetry2, tracer2) = engine_parts();
        let mut config2 = no_hedge(BatchConfig {
            workers: 2,
            max_attempts: 6,
            ..BatchConfig::default()
        });
        config2.faults = Some(Arc::new(
            FaultPlan::new(0.5, 7)
                .with_sites([faults::SITE_BATCH_JOB])
                .with_delay(Duration::ZERO),
        ));
        let engine2 = BatchEngine::new(config2, &telemetry2, &tracer2).with_sleeper(|_, _, _| {});
        let outcome2 = engine2.run(&jobs, None, BTreeMap::new());
        let attempts =
            |o: &BatchOutcome<u32>| o.records.iter().map(|r| r.attempts).collect::<Vec<_>>();
        assert_eq!(attempts(&outcome), attempts(&outcome2));
    }

    #[test]
    fn exact_p99_matches_rank_definition() {
        assert_eq!(p99(&[]), Duration::ZERO);
        let walls: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(p99(&walls), Duration::from_millis(99));
        assert_eq!(p99(&walls[..10]), Duration::from_millis(10));
    }
}
