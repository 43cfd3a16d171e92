//! A checkpointed batch engine over module-level jobs.
//!
//! The paper's evaluation (§5) is a long batch run over 21 applications —
//! exactly the shape where one crash or one pathological module can cost
//! the whole run. This module runs such a batch on top of the
//! resilience layer:
//!
//! * a **worker pool**: each worker claims the next pending [`BatchJob`]
//!   through an atomic index and runs that job's attempts in one loop,
//!   each under [`catch_isolated`] so a panic becomes a classified
//!   failure, never a process abort;
//! * **retry with exponential backoff** and deterministic jitter
//!   ([`BackoffPolicy`], seeded from the `prng` crate): a transient
//!   failure (including every [`faults`]-injected one) is retried with a
//!   fresh attempt number; a job that keeps failing — twice with the
//!   *same* non-injected message, or [`BatchConfig::max_attempts`] times
//!   in total — is **quarantined** as an
//!   [`Incident`]`{ kind: `[`IncidentKind::Quarantined`]` }` so the rest
//!   of the batch still finishes;
//! * an **append-only checkpoint journal** ([`Journal`]): one fsynced
//!   JSONL line per decided job on a [`durable`] log, so a killed run can
//!   be resumed with the completed jobs restored instead of re-run. A
//!   torn line (the kill arrived mid-write) or any other line that does
//!   not parse is dropped, and the journal compacted without it.
//!
//! The engine is deterministic *in content*: a job's attempts, retries
//! and decision depend only on the job and the fault plan, and results
//! land in submission order in [`BatchOutcome::records`] regardless of
//! worker interleaving, so a report built from the records is
//! bit-identical across worker counts, interruptions, and
//! (injected-)fault schedules — the property the kill-and-resume tests
//! pin down.

use crate::codec::{escape_json, unquote};
use crate::durable::{self, Log};
use crate::events::{Decision, EventBus, FlightRecorder, Recorder};
use crate::faults::{self, FaultPlan};
use crate::progress::ProgressSnapshot;
use crate::resilience::{catch_isolated, CancelToken, Incident, IncidentKind};
use crate::telemetry::{Counter, Metric, Telemetry};
use crate::trace::{ArgValue, Lane, Tracer};
use golite_ir::fnv;
use prng::Prng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ------------------------------------------------------------------ jobs

/// Ambient context handed to a job's work closure.
#[derive(Clone, Debug)]
pub struct JobCtx {
    /// The job's stable identifier (a module path in the CLI).
    pub job_id: String,
    /// 1-based attempt number.
    pub attempt: u32,
    /// A fresh token per attempt that the engine never fires. It stays
    /// only because the benchmark's traced corpus op (`perf/`) compiles
    /// against it; attached to a budget it changes nothing.
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
/// worker thread, and is re-invoked on retries — it should be a pure
/// function of `(job, attempt)` for deterministic reports.
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
    /// Wall-clock from the first attempt's start to the decision (zero
    /// for restored records).
    pub wall: Duration,
}

/// Everything a finished batch produced.
#[derive(Debug)]
pub struct BatchOutcome<T> {
    /// One record per submitted job, in submission order. How many were
    /// restored and how many executed is in the engine's counters
    /// ([`Counter::JobsResumed`], [`Counter::JobsTotal`]).
    pub records: Vec<JobRecord<T>>,
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

/// Batch engine configuration.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Attempts before a persistently failing job is quarantined.
    pub max_attempts: u32,
    /// Retry backoff policy.
    pub backoff: BackoffPolicy,
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

/// The batch engine. See the [module docs](self).
pub struct BatchEngine<'t> {
    config: BatchConfig,
    telemetry: &'t Telemetry,
    tracer: &'t Tracer,
    /// How a worker waits out a backoff delay; tests install a recorder.
    #[allow(clippy::type_complexity)]
    sleeper: Box<dyn Fn(&str, u32, Duration) + Send + Sync + 't>,
    /// Structured event sink (`--events-out`); `None` leaves it inert.
    events: Option<&'t EventBus>,
    /// Progress callback plus its minimum emission interval
    /// (`--progress`); `None` leaves it inert.
    #[allow(clippy::type_complexity)]
    progress: Option<(Box<dyn Fn(&ProgressSnapshot) + Send + Sync + 't>, Duration)>,
}

/// How far a run has got, shared by its workers for progress snapshots.
struct Tally {
    total: usize,
    decided: AtomicUsize,
    /// When the last snapshot went out; the lock also keeps two workers
    /// from drawing at once.
    last_emit: Mutex<Instant>,
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
    /// injection, retry, quarantine, and resume is emitted with the job's
    /// id and submission index as correlation keys.
    pub fn with_events(mut self, events: &'t EventBus) -> Self {
        self.events = Some(events);
        self
    }

    /// Attaches a live progress callback, invoked at most once per
    /// `every` as jobs are decided (plus once at start and once at the
    /// end).
    pub fn with_progress(
        mut self,
        callback: impl Fn(&ProgressSnapshot) + Send + Sync + 't,
        every: Duration,
    ) -> Self {
        self.progress = Some((Box::new(callback), every));
        self
    }

    /// The recorder of one job's decisions: the engine's sinks, the job's
    /// flight ring, and the job's id, submission index and `attempt`.
    fn recorder<'r>(
        &'r self,
        job: &'r str,
        index: usize,
        attempt: Option<u32>,
        flight: Option<&'r FlightRecorder>,
    ) -> Recorder<'r> {
        Recorder {
            telemetry: Some(self.telemetry),
            bus: self.events,
            flight,
            group: index as u64,
            job: Some(job),
            attempt,
            channel: None,
        }
    }

    /// Hands a progress snapshot to the callback, throttled to its
    /// configured interval unless `force`d (start/end of the run).
    fn emit_progress(&self, tally: &Tally, force: bool) {
        let Some((callback, every)) = &self.progress else {
            return;
        };
        let mut last = tally.last_emit.lock().unwrap_or_else(|e| e.into_inner());
        if !force && last.elapsed() < *every {
            return;
        }
        *last = Instant::now();
        callback(&ProgressSnapshot::from_stats(
            false,
            &self.telemetry.snapshot(),
            tally.total,
            tally.decided.load(Ordering::Relaxed),
            self.config.workers,
        ));
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
        let mut lane = self.tracer.lane(0, "batch");
        let mut pending: Vec<usize> = Vec::new();
        let slots: Vec<Mutex<Option<JobRecord<T>>>> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let rec = restored.remove(&job.id).map(|mut rec| {
                    if rec.status == JobStatus::Done {
                        rec.status = JobStatus::Resumed;
                    }
                    self.recorder(&job.id, i, None, None).record_on(
                        &mut lane,
                        Decision::Resumed {
                            attempts: rec.attempts,
                        },
                    );
                    rec
                });
                if rec.is_none() {
                    pending.push(i);
                }
                Mutex::new(rec)
            })
            .collect();
        let journal_error: Mutex<Option<String>> = Mutex::new(None);

        if !pending.is_empty() {
            let tally = Tally {
                total: jobs.len(),
                decided: AtomicUsize::new(jobs.len() - pending.len()),
                last_emit: Mutex::new(Instant::now()),
            };
            self.emit_progress(&tally, true);
            let next = AtomicUsize::new(0);
            let workers = self.config.workers.max(1).min(pending.len());
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let (pending, next, slots) = (&pending, &next, &slots);
                    let (tally, journal_error) = (&tally, &journal_error);
                    scope.spawn(move || {
                        let mut lane = self.tracer.lane(1 + w as u32, format!("batch-worker-{w}"));
                        while let Some(&index) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let rec = self.decide(&jobs[index], index, &mut lane);
                            self.journal_record(&rec, journal, journal_error);
                            *slots[index].lock().unwrap_or_else(|e| e.into_inner()) = Some(rec);
                            tally.decided.fetch_add(1, Ordering::Relaxed);
                            self.emit_progress(tally, false);
                        }
                    });
                }
            });
            self.emit_progress(&tally, true);
        }

        let records: Vec<JobRecord<T>> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every job decided")
            })
            .collect();
        let quarantined = records
            .iter()
            .filter(|r| r.status == JobStatus::Quarantined)
            .count();
        BatchOutcome {
            records,
            quarantined,
            journal_error: journal_error
                .into_inner()
                .unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Runs job `index`'s attempts until it is decided. A success is
    /// done. A failure is retried after the backoff, unless it was the
    /// last of [`BatchConfig::max_attempts`] or repeated the previous
    /// failure's non-injected message, which quarantines the job.
    fn decide<T>(&self, job: &BatchJob<'_, T>, index: usize, lane: &mut Lane<'_>) -> JobRecord<T> {
        let id = job.id.as_str();
        let flight = FlightRecorder::new();
        let started = Instant::now();
        let mut last_failure: Option<String> = None;
        let mut identical_failures = 0;
        let mut attempt = 1;
        loop {
            let rec = self.recorder(id, index, Some(attempt), Some(&flight));
            let message = match self.attempt(job, index, attempt, &flight, &rec, lane) {
                Ok(payload) => {
                    let wall = started.elapsed();
                    self.telemetry
                        .observe(Metric::JobWallNs, wall.as_nanos() as u64);
                    rec.record(Decision::Done { attempts: attempt });
                    return JobRecord {
                        id: id.to_string(),
                        status: JobStatus::Done,
                        attempts: attempt,
                        payload: Some(payload),
                        incident: None,
                        wall,
                    };
                }
                Err(message) => message,
            };
            identical_failures = if last_failure.as_ref() == Some(&message) {
                identical_failures + 1
            } else {
                1
            };
            let deterministic = identical_failures >= 2 && !faults::is_injected(&message);
            if attempt >= self.config.max_attempts || deterministic {
                rec.record_on(
                    lane,
                    Decision::Quarantined {
                        attempts: attempt,
                        error: &message,
                    },
                );
                return JobRecord {
                    id: id.to_string(),
                    status: JobStatus::Quarantined,
                    attempts: attempt,
                    payload: None,
                    incident: Some(Incident {
                        kind: IncidentKind::Quarantined,
                        name: id.to_string(),
                        message,
                        rung: 0,
                        flight: flight.dump(),
                    }),
                    wall: started.elapsed(),
                };
            }
            let backoff = self.config.backoff.delay(id, attempt);
            attempt += 1;
            self.recorder(id, index, Some(attempt), Some(&flight))
                .record_on(
                    lane,
                    Decision::Retry {
                        next: attempt,
                        backoff_ms: backoff.as_millis() as u64,
                    },
                );
            (self.sleeper)(id, attempt, backoff);
            last_failure = Some(message);
        }
    }

    /// Runs one attempt under isolation (and under the fault scope when a
    /// plan is armed), recording its start, any injected fault and its
    /// end through `rec`.
    fn attempt<T>(
        &self,
        job: &BatchJob<'_, T>,
        index: usize,
        attempt: u32,
        flight: &FlightRecorder,
        rec: &Recorder<'_>,
        lane: &mut Lane<'_>,
    ) -> Result<T, String> {
        let ctx = JobCtx {
            job_id: job.id.clone(),
            attempt,
            cancel: CancelToken::new(),
            index,
            flight: flight.clone(),
        };
        rec.record(Decision::AttemptStart);
        lane.begin(
            "batch_job",
            vec![
                ("job", ArgValue::from(job.id.as_str())),
                ("attempt", ArgValue::from(u64::from(attempt))),
            ],
        );
        let result = match &self.config.faults {
            Some(plan) => catch_isolated(|| {
                faults::with_scope(plan.clone(), &job.id, attempt, || {
                    faults::maybe_delay(faults::SITE_BATCH_DELAY, &job.id);
                    faults::maybe_panic(faults::SITE_BATCH_JOB, &job.id);
                    (job.work)(&ctx)
                })
            }),
            None => catch_isolated(|| (job.work)(&ctx)),
        }
        .and_then(|result| result);
        lane.rewind();
        let error = result.as_ref().err().map(String::as_str);
        if let Some(site) = error.and_then(faults::injected_site) {
            rec.record(Decision::FaultInjected { site });
        }
        rec.record(Decision::AttemptEnd { error });
        result
    }

    /// Appends `rec` to the journal, if one is given, until the first
    /// write error; that error is kept for the outcome.
    fn journal_record<T>(
        &self,
        rec: &JobRecord<T>,
        journal: Option<JournalSink<'_, T>>,
        journal_error: &Mutex<Option<String>>,
    ) {
        let Some((journal, encode)) = journal else {
            return;
        };
        let mut journal_error = journal_error.lock().unwrap_or_else(|e| e.into_inner());
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
        let config = BatchConfig {
            workers: 1,
            max_attempts: 5,
            ..BatchConfig::default()
        };
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
        let config = BatchConfig {
            workers: 2,
            max_attempts: 9,
            ..BatchConfig::default()
        };
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
        let config = BatchConfig {
            workers: 1,
            max_attempts: 4,
            ..BatchConfig::default()
        };
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
        let config = BatchConfig {
            workers: 1,
            max_attempts: 4,
            ..BatchConfig::default()
        };
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
            BatchConfig {
                workers: 2,
                ..BatchConfig::default()
            },
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
            assert_eq!(telemetry.get(Counter::JobsTotal), 3);
            assert_eq!(telemetry.get(Counter::JobsResumed), 0, "all three executed");
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
        let mut config = BatchConfig {
            workers: 2,
            max_attempts: 6,
            ..BatchConfig::default()
        };
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
        let mut config2 = BatchConfig {
            workers: 2,
            max_attempts: 6,
            ..BatchConfig::default()
        };
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
}
