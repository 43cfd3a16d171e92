//! The multi-process sweep coordinator: worker-fleet supervision over each
//! worker's pipes, and the byte-deterministic journal merge.
//!
//! `gcatch sweep --workers N` scales the batch engine from "one machine's
//! cores" to "a fleet of processes": the coordinator writes the job list
//! as an on-disk [manifest](write_manifest), spawns N `gcatch worker`
//! child processes, and supervises them over their stdin and stdout. Job
//! state — each job's assignment, its deadline and its release count —
//! lives in the coordinator's memory; the sweep directory holds only the
//! manifest and the worker journals.
//!
//! * **Protocol** ([`Line`]): assignments go down a worker's stdin; beats,
//!   holds and decisions come up its stdout. Closing a worker's stdin
//!   means "finish your current job, then exit 0".
//! * **Supervision** ([`Coordinator`]): an assignment not held within one
//!   lease expires and the job is released. A worker with no `beat` for
//!   four leases is killed — alive but silent is indistinguishable from
//!   hung. A worker whose stdout ends before its stdin was closed is
//!   lost: its assignment is released and a replacement spawned. A job
//!   released more than `max_releases` times is quarantined by the
//!   coordinator itself, with the job's lease history (its coordinator-side
//!   flight recorder) attached to the incident as the postmortem.
//! * **Journals**: every worker appends decided jobs to its own
//!   fsync-per-line [`Journal`] (fingerprinted over the *full* job set),
//!   so any prefix of any worker's work survives any crash.
//! * **Merge** ([`merge_journals`]): once every job is decided the
//!   coordinator folds every journal into one record set in manifest
//!   order. Because each decision is a pure function of its module (the
//!   per-job engine runs with the same attempt budget, backoff seed, and
//!   fault plan as single-process `gcatch batch`), the merged report is
//!   **byte-identical** to a faultless single-process run. A job decided
//!   by more than one worker (an expired assignment re-issued while the
//!   original owner kept working) keeps exactly one record — `Done`
//!   preferred, then lowest worker name — and surfaces a
//!   [`DuplicateDecision`] incident instead of corrupting the report.

use crate::batch::{job_set_header, JobRecord, JobStatus, Journal};
use crate::codec::{escape_json, unquote};
use crate::durable::{self, fsync_dir};
use crate::events::{Decision, EventBus, FlightRecorder, Recorder};
use crate::progress::ProgressSnapshot;
use crate::resilience::{Incident, IncidentKind};
use crate::telemetry::{Counter, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit code a worker uses when the `sweep.worker` fault site fires and
/// the process self-terminates mid-job (a simulated crash, distinguishable
/// from real panics in CI logs).
pub const WORKER_KILL_EXIT: i32 = 17;

/// How long the coordinator waits for a worker line between deadline checks.
const TICK: Duration = Duration::from_millis(15);

/// How long a wound-down worker may take to finish its job before it is
/// killed.
const GRACE: Duration = Duration::from_secs(5);

// -------------------------------------------------------------- protocol

/// One line of the sweep protocol; [`Line::parse`] reads what `Display`
/// writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Line {
    /// Coordinator → worker, `run <job> <generation>`: run the job, whose
    /// release count so far is the generation.
    Run(usize, u64),
    /// Worker → coordinator, `beat`: the worker is alive.
    Beat,
    /// Worker → coordinator, `hold <job>`: the job still runs here.
    Hold(usize),
    /// Worker → coordinator, `done <job>`: the job's decision is journaled.
    Done(usize),
}

impl Line {
    /// Parses one line (without its newline); anything else is `None`.
    pub fn parse(text: &str) -> Option<Line> {
        let words: Vec<&str> = text.split(' ').collect();
        Some(match words[..] {
            ["run", job, generation] => Line::Run(job.parse().ok()?, generation.parse().ok()?),
            ["beat"] => Line::Beat,
            ["hold", job] => Line::Hold(job.parse().ok()?),
            ["done", job] => Line::Done(job.parse().ok()?),
            _ => return None,
        })
    }
}

impl std::fmt::Display for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Line::Run(job, generation) => write!(f, "run {job} {generation}"),
            Line::Beat => f.write_str("beat"),
            Line::Hold(job) => write!(f, "hold {job}"),
            Line::Done(job) => write!(f, "done {job}"),
        }
    }
}

// ---------------------------------------------------------------- layout

/// The on-disk layout of one sweep: the manifest and the journals
/// directory under a root that coordinator and workers share.
#[derive(Clone, Debug)]
pub struct SweepLayout {
    root: PathBuf,
}

impl SweepLayout {
    /// A layout rooted at `root` (not created yet; see
    /// [`SweepLayout::init`]).
    pub fn new(root: impl Into<PathBuf>) -> SweepLayout {
        SweepLayout { root: root.into() }
    }

    /// The job-list manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest")
    }

    /// Directory of per-worker decision journals.
    pub fn journals_dir(&self) -> PathBuf {
        self.root.join("journals")
    }

    /// One worker's journal file.
    pub fn journal_path(&self, worker: &str) -> PathBuf {
        self.journals_dir().join(format!("{worker}.jsonl"))
    }

    /// Creates the root and its journals directory, durably.
    pub fn init(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(self.journals_dir())?;
        fsync_dir(&self.root)?;
        durable::fsync_parent(&self.root)
    }
}

// -------------------------------------------------------------- manifest

/// Magic key of the manifest header line.
const MANIFEST_MAGIC: &str = "gcatch_sweep_manifest";

/// Writes the job list as the sweep manifest (atomically): a fingerprinted
/// header line followed by one JSON string per job id, in submission
/// order. Workers reconstruct the job list — and thus every job's index
/// and journal fingerprint — from this file alone.
pub fn write_manifest(layout: &SweepLayout, ids: &[String]) -> std::io::Result<()> {
    durable::write_log(
        &layout.manifest_path(),
        &job_set_header(MANIFEST_MAGIC, ids),
        ids.iter().map(|id| {
            let mut line = String::from("\"");
            escape_json(id, &mut line);
            line.push('"');
            line
        }),
    )
}

/// Reads and validates the manifest, returning the job ids in submission
/// order. A line the log drops (torn, or not one JSON string) changes the
/// job list, so the header's fingerprint then refuses it.
pub fn read_manifest(layout: &SweepLayout) -> Result<Vec<String>, String> {
    let path = layout.manifest_path();
    let mut header = String::new();
    let mut ids = Vec::new();
    durable::load(
        &path,
        |h| match h {
            Some(h) if h.starts_with(&format!("{{\"{MANIFEST_MAGIC}\":")) => {
                header = h.to_string();
                Ok(true)
            }
            _ => Err(format!("{} is not a gcatch sweep manifest", path.display())),
        },
        |line| match unquote(line) {
            Some((id, "")) => {
                ids.push(id);
                true
            }
            _ => false,
        },
    )
    .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))??;
    if header != job_set_header(MANIFEST_MAGIC, &ids) {
        return Err(format!(
            "manifest {} fingerprint does not match its job list",
            path.display()
        ));
    }
    Ok(ids)
}

// ----------------------------------------------------------------- merge

/// One job that was decided by more than one worker.
#[derive(Clone, Debug)]
pub struct DuplicateDecision {
    /// The job id.
    pub job: String,
    /// Every worker that journaled a decision, in merge-preference order
    /// (the first one's record was kept).
    pub workers: Vec<String>,
    /// Whether all decisions agreed byte-for-byte (status, attempts,
    /// payload, and incident message all equal). Disagreement means the
    /// decision was not a pure function of the job — worth investigating.
    pub agreed: bool,
}

impl DuplicateDecision {
    /// Renders the collision as a structured [`Incident`].
    pub fn incident(&self) -> Incident {
        Incident {
            kind: IncidentKind::DuplicateDecision,
            name: self.job.clone(),
            message: format!(
                "decided by {} workers ({}); kept {}'s record ({})",
                self.workers.len(),
                self.workers.join(", "),
                self.workers[0],
                if self.agreed {
                    "all decisions agreed"
                } else {
                    "decisions DISAGREED"
                }
            ),
            rung: 0,
            flight: Vec::new(),
        }
    }
}

/// Everything [`merge_journals`] produced.
#[derive(Debug)]
pub struct MergeOutcome {
    /// One record per manifest job, in manifest order.
    pub records: Vec<JobRecord<String>>,
    /// Jobs decided by more than one worker (exactly one record kept).
    pub duplicates: Vec<DuplicateDecision>,
    /// Jobs with no journaled decision anywhere (a supervision bug,
    /// unless the sweep was interrupted: the coordinator only merges once
    /// every job is decided).
    pub missing: Vec<String>,
}

/// Rank used to pick the kept record among duplicates: `Done` beats
/// `Quarantined` (a completed decision is never shadowed by a give-up),
/// ties broken by worker name — both orderings are stable across runs.
fn dedup_rank(status: JobStatus) -> u8 {
    match status {
        JobStatus::Done | JobStatus::Resumed => 0,
        JobStatus::Quarantined => 1,
    }
}

/// Folds every worker journal under `journals/` into one record set in
/// manifest order. Journals are read without modification (lines the log
/// drops are skipped, not healed); each must carry the full job set's
/// fingerprint.
pub fn merge_journals(layout: &SweepLayout, ids: &[String]) -> Result<MergeOutcome, String> {
    let dir = layout.journals_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot list journals in {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();

    let mut by_job: BTreeMap<&str, Vec<(String, JobRecord<String>)>> = BTreeMap::new();
    for path in &paths {
        let worker = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let (records, _) = Journal::read_records(path, ids)?;
        for rec in records {
            by_job
                .entry(
                    ids.iter()
                        .find(|id| **id == rec.id)
                        .map(|id| id.as_str())
                        .unwrap_or(""),
                )
                .or_default()
                .push((worker.clone(), rec));
        }
    }

    let mut records = Vec::with_capacity(ids.len());
    let mut duplicates = Vec::new();
    let mut missing = Vec::new();
    for id in ids {
        let Some(mut candidates) = by_job.remove(id.as_str()) else {
            missing.push(id.clone());
            continue;
        };
        // Files were visited in sorted order, so a stable sort by
        // (status rank, worker) is fully deterministic.
        candidates.sort_by(|a, b| {
            (dedup_rank(a.1.status), a.0.as_str()).cmp(&(dedup_rank(b.1.status), b.0.as_str()))
        });
        if candidates.len() > 1 {
            let first = &candidates[0].1;
            let agreed = candidates.iter().all(|(_, rec)| {
                rec.status == first.status
                    && rec.attempts == first.attempts
                    && rec.payload == first.payload
                    && rec.incident.as_ref().map(|i| &i.message)
                        == first.incident.as_ref().map(|i| &i.message)
            });
            duplicates.push(DuplicateDecision {
                job: id.clone(),
                workers: candidates.iter().map(|(w, _)| w.clone()).collect(),
                agreed,
            });
        }
        records.push(candidates.into_iter().next().expect("non-empty").1);
    }
    Ok(MergeOutcome {
        records,
        duplicates,
        missing,
    })
}

// ----------------------------------------------------------- coordinator

/// Sweep coordinator configuration.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Worker processes to keep alive (clamped to at least 1).
    pub workers: usize,
    /// Lease time-to-live: an assignment its worker does not hold again
    /// within one lease is released, and a worker with no `beat` for four
    /// leases is killed and replaced.
    pub lease: Duration,
    /// Releases a job may survive before the coordinator quarantines it.
    pub max_releases: u64,
}

/// Everything a finished sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The merged record set (manifest order) plus duplicate incidents.
    /// Spawned and lost workers, expired leases and releases are in the
    /// coordinator's counters.
    pub merge: MergeOutcome,
    /// True when the sweep was wound down early by SIGINT/SIGTERM: every
    /// worker's stdin was closed, the workers finished their current job,
    /// every decided job was merged, and the jobs that never got a
    /// decision are listed in `merge.missing`. Nothing resumes them: a new
    /// sweep needs a fresh directory and runs every module again.
    pub interrupted: bool,
}

/// The sweep coordinator. Building a worker's command line is delegated
/// to a caller closure so the CLI decides it; everything else — the pipes,
/// supervision, re-leasing, quarantining, merging — lives here.
pub struct Coordinator<'t> {
    layout: SweepLayout,
    ids: Vec<String>,
    config: SweepConfig,
    telemetry: &'t Telemetry,
    bus: Option<&'t EventBus>,
    #[allow(clippy::type_complexity)]
    progress: Option<(Box<dyn Fn(&ProgressSnapshot) + 't>, Duration)>,
}

impl<'t> Coordinator<'t> {
    /// A coordinator over an initialized layout and manifest job list.
    pub fn new(
        layout: SweepLayout,
        ids: Vec<String>,
        config: SweepConfig,
        telemetry: &'t Telemetry,
    ) -> Coordinator<'t> {
        Coordinator {
            layout,
            ids,
            config,
            telemetry,
            bus: None,
            progress: None,
        }
    }

    /// Attaches a structured event bus for worker-lifecycle and lease
    /// events.
    pub fn with_events(mut self, bus: &'t EventBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Attaches a live progress callback, invoked at most once per
    /// `every` (plus once at start and end).
    pub fn with_progress(
        mut self,
        callback: impl Fn(&ProgressSnapshot) + 't,
        every: Duration,
    ) -> Self {
        self.progress = Some((Box::new(callback), every));
        self
    }

    /// The recorder of fleet-level decisions (worker spawns and losses).
    fn fleet(&self) -> Recorder<'_> {
        Recorder {
            telemetry: Some(self.telemetry),
            bus: self.bus,
            ..Recorder::default()
        }
    }

    /// Runs the sweep to completion: spawns the fleet from the commands
    /// `worker` builds (the coordinator pipes their stdin and stdout),
    /// supervises it until every job is decided, winds it down, then
    /// merges the journals.
    pub fn run(&self, worker: impl FnMut(&str) -> Command) -> Result<SweepOutcome, String> {
        let n = self.ids.len();
        let (tx, rx) = mpsc::channel();
        let mut run = Run {
            coordinator: self,
            worker,
            journal: Journal::create(&self.layout.journal_path("coordinator"), &self.ids)
                .map_err(|e| format!("cannot create coordinator journal: {e}"))?,
            flights: (0..n).map(|_| FlightRecorder::new()).collect(),
            releases: vec![0; n],
            pending: (0..n).collect(),
            leases: BTreeMap::new(),
            quarantined: 0,
            fleet: BTreeMap::new(),
            next_worker: 0,
            tx,
            last_progress: Instant::now(),
        };
        crate::signals::install_shutdown_handler();
        let result = run.supervise(&rx);
        // Wind down whatever happened: a closed stdin asks each worker to
        // finish its current job and exit; a worker still running after
        // the grace period is killed.
        for proc in run.fleet.values_mut() {
            proc.stdin = None;
        }
        let grace = Instant::now() + GRACE;
        for (_, mut proc) in std::mem::take(&mut run.fleet) {
            while matches!(proc.child.try_wait(), Ok(None)) && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(5));
            }
            proc.reap();
        }
        let interrupted = result?;

        let merge = merge_journals(&self.layout, &self.ids)?;
        if !merge.missing.is_empty() && !interrupted {
            return Err(format!(
                "sweep finished with undecided jobs: {}",
                merge.missing.join(", ")
            ));
        }
        for dup in &merge.duplicates {
            let job = self.ids.iter().position(|id| *id == dup.job);
            run.job(job.expect("a manifest job"))
                .record(Decision::DuplicateDecision {
                    workers: dup.workers.len() as u64,
                    agreed: dup.agreed,
                });
        }
        self.telemetry.add(Counter::JobsTotal, n as u64);
        let quarantined = merge
            .records
            .iter()
            .filter(|r| r.status == JobStatus::Quarantined)
            .count();
        self.telemetry
            .add(Counter::JobsQuarantined, quarantined as u64);
        run.emit_progress(true);
        Ok(SweepOutcome { merge, interrupted })
    }
}

/// One supervised worker process.
struct WorkerProc {
    name: String,
    child: Child,
    /// Where its assignments go; `None` once closed.
    stdin: Option<ChildStdin>,
    /// The job it runs, from its `run` line until its `done`.
    running: Option<usize>,
    last_beat: Instant,
    /// Forwards its stdout; ends at the end of it.
    reader: JoinHandle<()>,
}

impl WorkerProc {
    /// Kills the worker unless it exited, reaps it and joins its reader.
    fn reap(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = self.reader.join();
    }
}

/// A job's current assignment. Its generation is the job's release count.
struct Lease {
    worker: usize,
    deadline: Instant,
}

/// A worker's number and one line from it, or `None` at its stdout's end.
type WorkerLine = (usize, Option<String>);

/// The state of one [`Coordinator::run`]. Each undecided job is either
/// pending or leased; a job in neither is decided.
struct Run<'c, 't, F> {
    coordinator: &'c Coordinator<'t>,
    worker: F,
    /// The coordinator's own journal, for the jobs it quarantines.
    journal: Journal,
    flights: Vec<FlightRecorder>,
    releases: Vec<u64>,
    pending: BTreeSet<usize>,
    leases: BTreeMap<usize, Lease>,
    /// How many jobs the coordinator quarantined.
    quarantined: u64,
    fleet: BTreeMap<usize, WorkerProc>,
    next_worker: usize,
    tx: mpsc::Sender<WorkerLine>,
    last_progress: Instant,
}

impl<F: FnMut(&str) -> Command> Run<'_, '_, F> {
    /// Supervises the fleet until every job is decided or a signal
    /// interrupts the sweep; returns whether one did.
    fn supervise(&mut self, rx: &mpsc::Receiver<WorkerLine>) -> Result<bool, String> {
        // The full fleet spawns even when it outnumbers the jobs: surplus
        // workers idle, and that idle capacity is exactly what picks up a
        // released job while its original owner is still working.
        for _ in 0..self.coordinator.config.workers.max(1) {
            self.spawn()?;
        }
        self.emit_progress(true);
        let silence = self.coordinator.config.lease * 4;
        loop {
            if self.pending.is_empty() && self.leases.is_empty() {
                return Ok(false);
            }
            self.assign();
            self.emit_progress(false);
            // Wait for a worker line. A signal winds the sweep down before
            // any line is acted on (a Ctrl-C reaches the workers too, and
            // their deaths are no losses to replace); otherwise every
            // queued line is taken before any deadline is judged.
            let mut next = rx.recv_timeout(TICK).ok();
            if crate::signals::shutdown_signaled() {
                return Ok(true);
            }
            while let Some((worker, line)) = next {
                self.on_line(worker, line)?;
                next = rx.try_recv().ok();
            }
            let now = Instant::now();
            let expired: Vec<usize> = self
                .leases
                .iter()
                .filter(|(_, l)| l.deadline < now)
                .map(|(&job, _)| job)
                .collect();
            for job in expired {
                let name = &self.fleet[&self.leases[&job].worker].name;
                self.job(job).record(Decision::LeaseExpired {
                    worker: name,
                    generation: self.releases[job],
                });
                self.release(job)?;
            }
            let silent: Vec<usize> = self
                .fleet
                .iter()
                .filter(|(_, w)| w.last_beat.elapsed() > silence)
                .map(|(&w, _)| w)
                .collect();
            for worker in silent {
                self.lose(worker)?;
            }
        }
    }

    /// The recorder of one job's decisions, with its flight ring.
    fn job(&self, job: usize) -> Recorder<'_> {
        Recorder {
            flight: Some(&self.flights[job]),
            group: job as u64,
            job: Some(&self.coordinator.ids[job]),
            ..self.coordinator.fleet()
        }
    }

    /// Hands pending jobs, in manifest order, to idle workers.
    fn assign(&mut self) {
        let idle: Vec<usize> = self
            .fleet
            .iter()
            .filter(|(_, w)| w.running.is_none())
            .map(|(&w, _)| w)
            .collect();
        for worker in idle {
            let Some(job) = self.pending.pop_first() else {
                return;
            };
            let generation = self.releases[job];
            self.job(job).record(Decision::Leased {
                worker: &self.fleet[&worker].name,
                generation,
            });
            let proc = self.fleet.get_mut(&worker).expect("an idle worker");
            // A worker that died since is found by its reader thread.
            if let Some(stdin) = &mut proc.stdin {
                let _ = writeln!(stdin, "{}", Line::Run(job, generation));
            }
            proc.running = Some(job);
            let deadline = Instant::now() + self.coordinator.config.lease;
            self.leases.insert(job, Lease { worker, deadline });
        }
    }

    /// Acts on one line from `worker`, or on the end of its stdout.
    fn on_line(&mut self, worker: usize, line: Option<String>) -> Result<(), String> {
        let Some(proc) = self.fleet.get_mut(&worker) else {
            // A worker this run already lost.
            return Ok(());
        };
        let Some(line) = line else {
            return self.lose(worker);
        };
        match Line::parse(&line) {
            Some(Line::Beat) => proc.last_beat = Instant::now(),
            Some(Line::Hold(job)) => {
                if let Some(lease) = self.leases.get_mut(&job).filter(|l| l.worker == worker) {
                    lease.deadline = Instant::now() + self.coordinator.config.lease;
                }
            }
            Some(Line::Done(job)) => {
                proc.running = None;
                // The job is decided. A second decision of it is left to the
                // merge, which keeps one record and reports the duplicate.
                self.leases.remove(&job);
                self.pending.remove(&job);
            }
            _ => {}
        }
        Ok(())
    }

    /// Declares `worker` lost: kills and reaps it, releases its
    /// assignment and spawns a replacement.
    fn lose(&mut self, worker: usize) -> Result<(), String> {
        let proc = self.fleet.remove(&worker).expect("a live worker");
        let (name, running) = (proc.name.clone(), proc.running);
        proc.reap();
        self.coordinator
            .fleet()
            .record(Decision::WorkerLost { worker: &name });
        let held = running.filter(|job| self.leases.get(job).is_some_and(|l| l.worker == worker));
        if let Some(job) = held {
            self.job(job).record(Decision::LeaseHolderLost {
                worker: &name,
                generation: self.releases[job],
            });
            self.release(job)?;
        }
        self.spawn()
    }

    fn spawn(&mut self) -> Result<(), String> {
        let number = self.next_worker;
        self.next_worker += 1;
        let name = format!("w{number}");
        let mut child = (self.worker)(&name)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {name}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let tx = self.tx.clone();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).split(b'\n') {
                let Ok(line) = line else { break };
                let line = String::from_utf8_lossy(&line).into_owned();
                if tx.send((number, Some(line))).is_err() {
                    return;
                }
            }
            let _ = tx.send((number, None));
        });
        self.coordinator
            .fleet()
            .record(Decision::WorkerSpawned { worker: &name });
        self.fleet.insert(
            number,
            WorkerProc {
                name,
                stdin: child.stdin.take(),
                child,
                running: None,
                last_beat: Instant::now(),
                reader,
            },
        );
        Ok(())
    }

    /// Takes a job's assignment back and makes it pending again; a job
    /// past the re-lease budget is quarantined by the coordinator instead,
    /// with the coordinator-side lease history as the postmortem.
    fn release(&mut self, job: usize) -> Result<(), String> {
        self.leases.remove(&job);
        self.releases[job] += 1;
        let count = self.releases[job];
        let max = self.coordinator.config.max_releases;
        let rec = self.job(job);
        rec.record(Decision::Released { releases: count });
        if count <= max {
            self.pending.insert(job);
            return Ok(());
        }
        let message = format!("released {count} times (re-lease budget {max}); giving up");
        rec.record(Decision::CoordinatorQuarantined {
            releases: count,
            error: &message,
        });
        let id = &self.coordinator.ids[job];
        let record = JobRecord {
            id: id.clone(),
            status: JobStatus::Quarantined,
            attempts: count as u32,
            payload: None,
            incident: Some(Incident {
                kind: IncidentKind::Quarantined,
                name: id.clone(),
                message,
                rung: 0,
                flight: self.flights[job].dump(),
            }),
            wall: Duration::ZERO,
        };
        self.journal
            .record(&record, String::clone)
            .map_err(|e| format!("cannot journal coordinator quarantine: {e}"))?;
        self.quarantined += 1;
        Ok(())
    }

    fn emit_progress(&mut self, force: bool) {
        let Some((callback, every)) = &self.coordinator.progress else {
            return;
        };
        if !force && self.last_progress.elapsed() < *every {
            return;
        }
        self.last_progress = Instant::now();
        let total = self.coordinator.ids.len();
        callback(&ProgressSnapshot {
            // Workers quarantine in their own processes; until the merge
            // the coordinator knows only the jobs it gave up on itself.
            quarantined: self.quarantined,
            ..ProgressSnapshot::from_stats(
                true,
                &self.coordinator.telemetry.snapshot(),
                total,
                total - self.pending.len() - self.leases.len(),
                self.coordinator.config.workers,
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> SweepLayout {
        let root = std::env::temp_dir().join(format!(
            "gcatch-sweep-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&root).ok();
        let layout = SweepLayout::new(root);
        layout.init().unwrap();
        layout
    }

    fn cleanup(layout: &SweepLayout) {
        std::fs::remove_dir_all(layout.manifest_path().parent().unwrap()).ok();
    }

    #[test]
    fn manifest_round_trips_with_escaping() {
        let layout = scratch("manifest");
        let ids = vec![
            "examples/a.go".to_string(),
            "weird \"name\"\nwith newline.go".to_string(),
        ];
        write_manifest(&layout, &ids).unwrap();
        assert_eq!(read_manifest(&layout).unwrap(), ids);
        cleanup(&layout);
    }

    #[test]
    fn manifest_bytes_match_the_previous_writer() {
        // As the previous manifest code wrote it, byte for byte.
        let old = concat!(
            r#"{"gcatch_sweep_manifest":1,"jobs":3,"fingerprint":"82dd652fffaaaded"}"#,
            "\n\"a.go\"\n",
            r#""dir/b \"q\".go""#,
            "\n\"c\u{e9}\u{1F642}.go\"\n",
        );
        let ids: Vec<String> = ["a.go", "dir/b \"q\".go", "c\u{e9}\u{1F642}.go"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let layout = scratch("manifest-old");
        std::fs::write(layout.manifest_path(), old).unwrap();
        assert_eq!(read_manifest(&layout).unwrap(), ids);
        write_manifest(&layout, &ids).unwrap();
        assert_eq!(
            std::fs::read_to_string(layout.manifest_path()).unwrap(),
            old
        );
        cleanup(&layout);
    }

    #[test]
    fn manifest_rejects_tampered_job_lists() {
        let layout = scratch("manifest-tamper");
        let ids = vec!["a.go".to_string(), "b.go".to_string()];
        write_manifest(&layout, &ids).unwrap();
        // Drop a job line: the fingerprint no longer matches.
        let text = std::fs::read_to_string(layout.manifest_path()).unwrap();
        let truncated: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(layout.manifest_path(), truncated).unwrap();
        let err = read_manifest(&layout).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        cleanup(&layout);
    }

    fn record(
        id: &str,
        status: JobStatus,
        attempts: u32,
        payload: Option<&str>,
    ) -> JobRecord<String> {
        JobRecord {
            id: id.to_string(),
            status,
            attempts,
            payload: payload.map(|p| p.to_string()),
            incident: (status == JobStatus::Quarantined).then(|| Incident {
                kind: IncidentKind::Quarantined,
                name: id.to_string(),
                message: "gave up".to_string(),
                rung: 0,
                flight: Vec::new(),
            }),
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn merge_dedups_deterministically_and_reports_duplicates() {
        let layout = scratch("merge");
        let ids: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let j0 = Journal::create(&layout.journal_path("w0"), &ids).unwrap();
        j0.record(
            &record("a", JobStatus::Done, 1, Some("{\"m\":\"a\"}")),
            String::clone,
        )
        .unwrap();
        j0.record(
            &record("b", JobStatus::Done, 2, Some("{\"m\":\"b\"}")),
            String::clone,
        )
        .unwrap();
        let j1 = Journal::create(&layout.journal_path("w1"), &ids).unwrap();
        // Duplicate decision for `b` (identical bytes) and a quarantine
        // for `c` that a later Done from w2 must shadow.
        j1.record(
            &record("b", JobStatus::Done, 2, Some("{\"m\":\"b\"}")),
            String::clone,
        )
        .unwrap();
        j1.record(&record("c", JobStatus::Quarantined, 3, None), String::clone)
            .unwrap();
        let j2 = Journal::create(&layout.journal_path("w2"), &ids).unwrap();
        j2.record(
            &record("c", JobStatus::Done, 1, Some("{\"m\":\"c\"}")),
            String::clone,
        )
        .unwrap();

        let merge = merge_journals(&layout, &ids).unwrap();
        assert!(merge.missing.is_empty());
        assert_eq!(merge.records.len(), 3);
        assert_eq!(
            merge
                .records
                .iter()
                .map(|r| r.id.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"],
            "manifest order"
        );
        // `c`: Done beats Quarantined regardless of worker order.
        assert_eq!(merge.records[2].status, JobStatus::Done);
        assert_eq!(merge.records[2].payload.as_deref(), Some("{\"m\":\"c\"}"));
        assert_eq!(merge.duplicates.len(), 2);
        let dup_b = merge.duplicates.iter().find(|d| d.job == "b").unwrap();
        assert!(dup_b.agreed);
        assert_eq!(dup_b.workers, vec!["w0", "w1"]);
        let dup_c = merge.duplicates.iter().find(|d| d.job == "c").unwrap();
        assert!(!dup_c.agreed, "Done vs Quarantined disagree");
        assert_eq!(dup_c.workers[0], "w2", "the kept record's worker leads");
        let incident = dup_c.incident();
        assert_eq!(incident.kind, IncidentKind::DuplicateDecision);
        assert!(incident.message.contains("w2"), "{}", incident.message);
        cleanup(&layout);
    }

    #[test]
    fn merge_reports_missing_jobs() {
        let layout = scratch("merge-missing");
        let ids: Vec<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let j0 = Journal::create(&layout.journal_path("w0"), &ids).unwrap();
        j0.record(&record("a", JobStatus::Done, 1, Some("1")), String::clone)
            .unwrap();
        let merge = merge_journals(&layout, &ids).unwrap();
        assert_eq!(merge.missing, vec!["b".to_string()]);
        cleanup(&layout);
    }

    #[test]
    fn merge_skips_a_bad_line_and_leaves_the_journal_as_it_was() {
        let layout = scratch("merge-garbage");
        let ids: Vec<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let path = layout.journal_path("w0");
        let j0 = Journal::create(&path, &ids).unwrap();
        j0.record(&record("a", JobStatus::Done, 1, Some("1")), String::clone)
            .unwrap();
        j0.record(&record("b", JobStatus::Done, 1, Some("2")), String::clone)
            .unwrap();
        drop(j0);
        // A garbage line between the two records: the merge steps over it.
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(|l| format!("{l}\n"))
            .collect();
        lines.insert(2, "garbage\n".to_string());
        let text = lines.concat();
        std::fs::write(&path, &text).unwrap();
        let merge = merge_journals(&layout, &ids).unwrap();
        assert!(merge.missing.is_empty(), "{:?}", merge.missing);
        assert_eq!(merge.records[1].payload.as_deref(), Some("2"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "not healed");
        cleanup(&layout);
    }

    #[test]
    fn protocol_lines_round_trip() {
        for line in [Line::Run(7, 2), Line::Beat, Line::Hold(0), Line::Done(41)] {
            assert_eq!(Line::parse(&line.to_string()), Some(line));
        }
        assert_eq!(Line::Done(3).to_string(), "done 3");
        for garbage in [
            "", "beat 1", "done", "done x", "hold -1", "run 1", "done 3 4", "DONE 3",
        ] {
            assert_eq!(Line::parse(garbage), None, "{garbage:?}");
        }
    }
}
