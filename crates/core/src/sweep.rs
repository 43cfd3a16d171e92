//! The multi-process sweep coordinator: a lease-based on-disk work queue,
//! worker-fleet supervision, and the byte-deterministic journal merge.
//!
//! `gcatch sweep --workers N` scales the PR 4 batch engine from "one
//! machine's cores" to "a fleet of processes": the coordinator materializes
//! the job list as an on-disk [manifest](write_manifest), spawns N
//! `gcatch worker` child processes, and supervises them through plain
//! files — no sockets, no shared memory, every transition crash-safe:
//!
//! * **Leases** ([`try_claim`]): one file per job under `leases/`, created
//!   with `O_EXCL` (`create_new`) so exactly one worker wins a claim. A
//!   lease carries the owner id, a generation (the job's release count at
//!   claim time), and a deadline; owners renew it via atomic
//!   temp-file-plus-rename ([`renew_lease`]).
//! * **Heartbeats**: each worker bumps a counter file under `heartbeats/`;
//!   the coordinator kills and replaces any worker whose counter stalls
//!   past the staleness deadline — a worker that is alive but silent is
//!   indistinguishable from a hung one, so both are culled.
//! * **Re-lease** ([`Coordinator`]): when a lease deadline passes or a
//!   worker dies (including SIGKILL), the job's lease is removed and its
//!   release counter bumped, making it claimable again. A job released
//!   more than `max_releases` times is quarantined by the coordinator
//!   itself, with the coordinator-side flight-recorder postmortem (the
//!   full lease history) attached to the incident.
//! * **Journals**: every worker appends decided jobs to its own PR 4
//!   fsync-per-line [`Journal`] (fingerprinted over the *full* job set),
//!   so any prefix of any worker's work survives any crash.
//! * **Merge** ([`merge_journals`]): after all jobs carry `done/` markers
//!   the coordinator folds every journal into one record set in manifest
//!   order. Because each decision is a pure function of its module (the
//!   per-job engine runs with the same attempt budget, backoff seed, and
//!   fault plan as single-process `gcatch batch`), the merged report is
//!   **byte-identical** to a faultless single-process run. A job decided
//!   by more than one worker (an expired lease re-leased while the
//!   original owner kept working) keeps exactly one record — `Done`
//!   preferred, then lowest worker name — and surfaces a
//!   [`DuplicateDecision`] incident instead of corrupting the report.
//!
//! Directory-entry durability is part of the protocol: every create,
//! rename, and remove under the sweep directory is followed by an fsync of
//! the containing directory ([`fsync_dir`]), so a metadata-losing crash
//! cannot orphan a decided job or resurrect a released lease.

use crate::batch::{job_set_header, JobRecord, JobStatus, Journal};
use crate::codec::{self, escape_json, unquote};
use crate::durable::{self, fsync_dir, write_atomic};
use crate::events::{Decision, EventBus, FlightRecorder, Recorder};
use crate::progress::ProgressSnapshot;
use crate::resilience::{Incident, IncidentKind};
use crate::telemetry::{Counter, Telemetry};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Exit code a worker uses when the `sweep.worker` fault site fires and
/// the process self-terminates mid-job (a simulated crash, distinguishable
/// from real panics in CI logs).
pub const WORKER_KILL_EXIT: i32 = 17;

/// Milliseconds since the UNIX epoch (lease deadlines; all sweep
/// processes run on one machine, so one clock serves them all).
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------- layout

/// The on-disk layout of one sweep: fixed subdirectories under a root
/// that coordinator and workers share.
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

    /// The sweep root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The job-list manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest")
    }

    /// Directory of per-job lease files.
    pub fn leases_dir(&self) -> PathBuf {
        self.root.join("leases")
    }

    /// The lease file of one job (by manifest index).
    pub fn lease_path(&self, job: usize) -> PathBuf {
        self.leases_dir().join(format!("{job}.lease"))
    }

    /// Directory of per-worker heartbeat counter files.
    pub fn heartbeats_dir(&self) -> PathBuf {
        self.root.join("heartbeats")
    }

    /// One worker's heartbeat file.
    pub fn heartbeat_path(&self, worker: &str) -> PathBuf {
        self.heartbeats_dir().join(format!("{worker}.hb"))
    }

    /// Directory of per-worker decision journals.
    pub fn journals_dir(&self) -> PathBuf {
        self.root.join("journals")
    }

    /// One worker's journal file.
    pub fn journal_path(&self, worker: &str) -> PathBuf {
        self.journals_dir().join(format!("{worker}.jsonl"))
    }

    /// Directory of per-job done markers.
    pub fn done_dir(&self) -> PathBuf {
        self.root.join("done")
    }

    /// One job's done marker.
    pub fn done_path(&self, job: usize) -> PathBuf {
        self.done_dir().join(job.to_string())
    }

    /// Directory of per-job release counters.
    pub fn releases_dir(&self) -> PathBuf {
        self.root.join("releases")
    }

    /// One job's release-counter file.
    pub fn release_path(&self, job: usize) -> PathBuf {
        self.releases_dir().join(job.to_string())
    }

    /// Directory of per-worker pid files.
    pub fn pids_dir(&self) -> PathBuf {
        self.root.join("pids")
    }

    /// One worker's pid file.
    pub fn pid_path(&self, worker: &str) -> PathBuf {
        self.pids_dir().join(format!("{worker}.pid"))
    }

    /// The shutdown marker: its existence tells workers to drain and exit.
    pub fn shutdown_path(&self) -> PathBuf {
        self.root.join("shutdown")
    }

    /// Creates the whole directory tree and makes it durable.
    pub fn init(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        for dir in [
            self.leases_dir(),
            self.heartbeats_dir(),
            self.journals_dir(),
            self.done_dir(),
            self.releases_dir(),
            self.pids_dir(),
        ] {
            std::fs::create_dir_all(&dir)?;
        }
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

// ---------------------------------------------------------------- leases

/// The parsed contents of one lease file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lease {
    /// The leased job's manifest index.
    pub job: usize,
    /// The owning worker's id.
    pub worker: String,
    /// The job's release count at claim time. Re-leases bump it, so fault
    /// decisions keyed on the generation decorrelate across re-runs.
    pub generation: u64,
    /// Epoch-milliseconds deadline; the coordinator releases the job once
    /// this passes un-renewed.
    pub deadline_ms: u64,
}

impl Lease {
    fn render(&self) -> String {
        let mut out = format!("{{\"job\":{},\"worker\":\"", self.job);
        escape_json(&self.worker, &mut out);
        out.push_str(&format!(
            "\",\"generation\":{},\"deadline_ms\":{}}}\n",
            self.generation, self.deadline_ms
        ));
        out
    }

    fn parse(text: &str) -> Option<Lease> {
        let (mut job, mut worker, mut generation, mut deadline_ms) = (None, None, None, None);
        for (key, value) in codec::flat_object(text).ok()? {
            match (key.as_str(), value) {
                ("job", codec::Value::Num(n)) => job = usize::try_from(n).ok(),
                ("worker", codec::Value::Str(w)) => worker = Some(w),
                ("generation", codec::Value::Num(n)) => generation = Some(n),
                ("deadline_ms", codec::Value::Num(n)) => deadline_ms = Some(n),
                _ => return None,
            }
        }
        Some(Lease {
            job: job?,
            worker: worker?,
            generation: generation?,
            deadline_ms: deadline_ms?,
        })
    }
}

/// Attempts to claim a job by creating its lease file with `create_new`
/// (`O_EXCL`) — the filesystem arbitrates, so exactly one claimant wins.
/// Returns `false` when the lease already exists.
pub fn try_claim(
    layout: &SweepLayout,
    job: usize,
    worker: &str,
    generation: u64,
    ttl: Duration,
) -> std::io::Result<bool> {
    let lease = Lease {
        job,
        worker: worker.to_string(),
        generation,
        deadline_ms: now_ms() + ttl.as_millis() as u64,
    };
    let mut file = match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(layout.lease_path(job))
    {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(false),
        Err(e) => return Err(e),
    };
    file.write_all(lease.render().as_bytes())?;
    file.sync_all()?;
    drop(file);
    fsync_dir(&layout.leases_dir())?;
    Ok(true)
}

/// Reads a job's current lease, if any (unparseable contents read as
/// `None` — a torn write is treated like no lease and expires naturally).
pub fn read_lease(layout: &SweepLayout, job: usize) -> Option<Lease> {
    let text = std::fs::read_to_string(layout.lease_path(job)).ok()?;
    Lease::parse(&text)
}

/// Pushes a lease's deadline forward, but only while `worker` still owns
/// it at the same generation (an expired-and-re-leased job must not be
/// resurrected by its previous owner). Returns whether the lease was
/// renewed.
pub fn renew_lease(
    layout: &SweepLayout,
    job: usize,
    worker: &str,
    generation: u64,
    ttl: Duration,
) -> std::io::Result<bool> {
    match read_lease(layout, job) {
        Some(cur) if cur.worker == worker && cur.generation == generation => {
            let renewed = Lease {
                deadline_ms: now_ms() + ttl.as_millis() as u64,
                ..cur
            };
            write_atomic(&layout.lease_path(job), |w| {
                w.write_all(renewed.render().as_bytes())
            })?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Removes a job's lease file (idempotent) and makes the removal durable.
pub fn remove_lease(layout: &SweepLayout, job: usize) -> std::io::Result<()> {
    match std::fs::remove_file(layout.lease_path(job)) {
        Ok(()) => fsync_dir(&layout.leases_dir()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// A job's release count: how many times its lease was revoked and the
/// job made claimable again. Doubles as the generation of the next claim.
pub fn release_count(layout: &SweepLayout, job: usize) -> u64 {
    std::fs::read_to_string(layout.release_path(job))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Increments a job's release counter durably and returns the new count.
pub fn bump_release_count(layout: &SweepLayout, job: usize) -> std::io::Result<u64> {
    let next = release_count(layout, job) + 1;
    write_atomic(&layout.release_path(job), |w| writeln!(w, "{next}"))?;
    Ok(next)
}

// --------------------------------------------------------------- markers

/// Durably marks a job decided (idempotent: a concurrent duplicate
/// decision racing to the same marker is fine — the merge deduplicates).
pub fn mark_done(layout: &SweepLayout, job: usize) -> std::io::Result<()> {
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(layout.done_path(job))
    {
        Ok(_) => fsync_dir(&layout.done_dir()),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(()),
        Err(e) => Err(e),
    }
}

/// Whether a job carries a done marker.
pub fn is_done(layout: &SweepLayout, job: usize) -> bool {
    layout.done_path(job).exists()
}

/// Writes the shutdown marker; workers drain and exit once they see it.
pub fn request_shutdown(layout: &SweepLayout) -> std::io::Result<()> {
    write_atomic(&layout.shutdown_path(), |w| w.write_all(b"shutdown\n"))
}

/// Whether the shutdown marker exists.
pub fn shutdown_requested(layout: &SweepLayout) -> bool {
    layout.shutdown_path().exists()
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
    /// Jobs with no journaled decision anywhere (a supervision bug —
    /// the coordinator only merges once every job carries a done marker).
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
    /// Lease time-to-live; owners renew at a fraction of this, and the
    /// coordinator releases jobs whose lease deadline passes un-renewed.
    pub lease: Duration,
    /// Releases a job may survive before the coordinator quarantines it.
    pub max_releases: u64,
    /// Coordinator supervision tick.
    pub poll: Duration,
    /// Heartbeat staleness: a worker whose counter has not changed for
    /// this long is killed and replaced.
    pub stale_after: Duration,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        let lease = Duration::from_millis(1_000);
        SweepConfig {
            workers: 4,
            lease,
            max_releases: 3,
            poll: Duration::from_millis(15),
            stale_after: lease * 4,
        }
    }
}

/// Everything a finished sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The merged record set (manifest order) plus duplicate incidents.
    /// Spawned and lost workers, expired leases and releases are in the
    /// coordinator's counters.
    pub merge: MergeOutcome,
    /// True when the sweep was wound down early by SIGINT/SIGTERM: the
    /// shutdown marker was written, workers drained after their current
    /// job, every decided job was merged, and the jobs that never got a
    /// decision are listed in `merge.missing` (a later sweep over the same
    /// directory picks them up).
    pub interrupted: bool,
    /// Jobs quarantined by the coordinator after exhausting the re-lease
    /// budget (already included in the merged records).
    pub coordinator_quarantined: u64,
}

/// One supervised worker process.
struct WorkerProc {
    name: String,
    child: Child,
    hb_value: Option<u64>,
    hb_changed: Instant,
}

/// The sweep coordinator. Spawning is delegated to a caller closure so
/// the CLI decides the exact command line; everything else — supervision,
/// re-leasing, quarantining, merging — lives here.
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

    /// The recorder of one job's decisions, its coordinator-side flight
    /// ring included.
    fn job<'r>(&'r self, job: usize, flights: &'r [FlightRecorder]) -> Recorder<'r> {
        Recorder {
            flight: Some(&flights[job]),
            group: job as u64,
            job: Some(&self.ids[job]),
            ..self.fleet()
        }
    }

    /// Runs the sweep to completion: spawns the fleet via `spawn`,
    /// supervises it until every job carries a done marker, then merges
    /// the journals.
    pub fn run(
        &self,
        mut spawn: impl FnMut(&str) -> std::io::Result<Child>,
    ) -> Result<SweepOutcome, String> {
        let n = self.ids.len();
        let coordinator_journal =
            Journal::create(&self.layout.journal_path("coordinator"), &self.ids)
                .map_err(|e| format!("cannot create coordinator journal: {e}"))?;
        let flights: Vec<FlightRecorder> = (0..n).map(|_| FlightRecorder::new()).collect();
        let mut fleet: Vec<WorkerProc> = Vec::new();
        let mut next_worker = 0usize;
        let mut stats = SweepOutcome {
            merge: MergeOutcome {
                records: Vec::new(),
                duplicates: Vec::new(),
                missing: Vec::new(),
            },
            interrupted: false,
            coordinator_quarantined: 0,
        };
        // Highest lease generation already announced per job, so each
        // claim is reported once.
        let mut announced: Vec<Option<u64>> = vec![None; n];
        let mut last_progress = Instant::now() - self.config.poll;

        // The full fleet spawns even when it outnumbers the jobs: surplus
        // workers idle-poll, and that idle capacity is exactly what picks
        // up a re-leased job while its original owner is still working.
        let initial = self.config.workers.max(1);
        for _ in 0..initial {
            self.spawn_worker(&mut spawn, &mut fleet, &mut next_worker)?;
        }
        self.emit_progress(n, &stats, &mut last_progress, true);
        crate::signals::install_shutdown_handler();

        loop {
            // Ctrl-C / SIGTERM: stop supervising (no more respawns or
            // re-leases), hand the fleet the shutdown marker below, and
            // merge whatever was decided.
            if crate::signals::shutdown_signaled() {
                stats.interrupted = true;
                break;
            }
            let done = (0..n).filter(|&j| is_done(&self.layout, j)).count();
            self.emit_progress(n, &stats, &mut last_progress, false);
            if done == n {
                break;
            }

            // Reap exited workers. A clean exit means the worker saw all
            // jobs decided (or drained); anything else is a loss.
            let mut lost: Vec<String> = Vec::new();
            fleet.retain_mut(|w| match w.child.try_wait() {
                Ok(Some(status)) if status.success() => false,
                Ok(Some(_)) => {
                    lost.push(w.name.clone());
                    false
                }
                Ok(None) => true,
                Err(_) => {
                    lost.push(w.name.clone());
                    false
                }
            });

            // Cull silent workers: a stalled heartbeat counter past the
            // staleness deadline gets the process killed (it may still be
            // running — SIGKILL it so its leases can be re-issued safely).
            let mut idx = 0;
            while idx < fleet.len() {
                let w = &mut fleet[idx];
                let hb = std::fs::read_to_string(self.layout.heartbeat_path(&w.name))
                    .ok()
                    .and_then(|s| s.trim().parse::<u64>().ok());
                if hb.is_some() && hb != w.hb_value {
                    w.hb_value = hb;
                    w.hb_changed = Instant::now();
                    idx += 1;
                } else if w.hb_changed.elapsed() > self.config.stale_after {
                    let _ = w.child.kill();
                    let _ = w.child.wait();
                    let mut w = fleet.remove(idx);
                    let _ = w.child.wait();
                    lost.push(w.name);
                } else {
                    idx += 1;
                }
            }

            for name in lost {
                self.fleet().record(Decision::WorkerLost { worker: &name });
                // Free every lease the dead worker still held.
                for job in 0..n {
                    if is_done(&self.layout, job) {
                        continue;
                    }
                    if let Some(lease) = read_lease(&self.layout, job) {
                        if lease.worker == name {
                            self.job(job, &flights).record(Decision::LeaseHolderLost {
                                worker: &name,
                                generation: lease.generation,
                            });
                            self.release_job(job, &flights, &coordinator_journal, &mut stats)?;
                        }
                    }
                }
                self.spawn_worker(&mut spawn, &mut fleet, &mut next_worker)?;
            }

            // Lease scan: announce new claims, expire stale deadlines.
            let now = now_ms();
            for (job, announced) in announced.iter_mut().enumerate() {
                if is_done(&self.layout, job) {
                    continue;
                }
                let Some(lease) = read_lease(&self.layout, job) else {
                    continue;
                };
                if *announced < Some(lease.generation + 1) {
                    *announced = Some(lease.generation + 1);
                    self.job(job, &flights).record(Decision::Leased {
                        worker: &lease.worker,
                        generation: lease.generation,
                    });
                }
                if lease.deadline_ms < now {
                    self.job(job, &flights).record(Decision::LeaseExpired {
                        worker: &lease.worker,
                        generation: lease.generation,
                    });
                    self.release_job(job, &flights, &coordinator_journal, &mut stats)?;
                }
            }

            // The fleet must never drain while jobs remain undecided.
            if fleet.is_empty() {
                self.spawn_worker(&mut spawn, &mut fleet, &mut next_worker)?;
            }

            std::thread::sleep(self.config.poll);
        }

        let _ = request_shutdown(&self.layout);
        let grace = Instant::now();
        for w in &mut fleet {
            // Workers exit on their own once every job is done; give them
            // a moment, then insist.
            loop {
                match w.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if grace.elapsed() > Duration::from_secs(5) => {
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(_) => break,
                }
            }
        }

        if stats.interrupted {
            // Every worker is reaped by now; their pid files and any lease
            // they still held are stale. Remove both so nothing points at
            // dead processes and a later sweep over this directory starts
            // from a clean queue.
            if let Ok(entries) = std::fs::read_dir(self.layout.pids_dir()) {
                for entry in entries.flatten() {
                    let _ = std::fs::remove_file(entry.path());
                }
                let _ = fsync_dir(&self.layout.pids_dir());
            }
            for job in 0..n {
                if !is_done(&self.layout, job) && read_lease(&self.layout, job).is_some() {
                    let _ = remove_lease(&self.layout, job);
                }
            }
        }

        stats.merge = merge_journals(&self.layout, &self.ids)?;
        if !stats.merge.missing.is_empty() && !stats.interrupted {
            return Err(format!(
                "sweep finished with undecided jobs: {}",
                stats.merge.missing.join(", ")
            ));
        }
        for dup in &stats.merge.duplicates {
            let rec = Recorder {
                group: self.ids.iter().position(|id| *id == dup.job).unwrap_or(0) as u64,
                job: Some(&dup.job),
                ..self.fleet()
            };
            rec.record(Decision::DuplicateDecision {
                workers: dup.workers.len() as u64,
                agreed: dup.agreed,
            });
        }
        self.telemetry.add(Counter::JobsTotal, n as u64);
        let quarantined = stats
            .merge
            .records
            .iter()
            .filter(|r| r.status == JobStatus::Quarantined)
            .count() as u64;
        if quarantined > 0 {
            self.telemetry.add(Counter::JobsQuarantined, quarantined);
        }
        self.emit_progress(n, &stats, &mut last_progress, true);
        Ok(stats)
    }

    fn spawn_worker(
        &self,
        spawn: &mut impl FnMut(&str) -> std::io::Result<Child>,
        fleet: &mut Vec<WorkerProc>,
        next_worker: &mut usize,
    ) -> Result<(), String> {
        let name = format!("w{}", *next_worker);
        *next_worker += 1;
        let child = spawn(&name).map_err(|e| format!("cannot spawn worker {name}: {e}"))?;
        self.fleet()
            .record(Decision::WorkerSpawned { worker: &name });
        fleet.push(WorkerProc {
            name,
            child,
            hb_value: None,
            hb_changed: Instant::now(),
        });
        Ok(())
    }

    /// Revokes a job's lease and makes it claimable again; a job past the
    /// re-lease budget is quarantined by the coordinator instead, with the
    /// coordinator-side lease history as the postmortem.
    fn release_job(
        &self,
        job: usize,
        flights: &[FlightRecorder],
        coordinator_journal: &Journal,
        stats: &mut SweepOutcome,
    ) -> Result<(), String> {
        remove_lease(&self.layout, job)
            .map_err(|e| format!("cannot remove lease for job {job}: {e}"))?;
        let count = bump_release_count(&self.layout, job)
            .map_err(|e| format!("cannot bump release count for job {job}: {e}"))?;
        let rec = self.job(job, flights);
        rec.record(Decision::Released { releases: count });
        if count > self.config.max_releases && !is_done(&self.layout, job) {
            let message = format!(
                "released {count} times (re-lease budget {}); giving up",
                self.config.max_releases
            );
            rec.record(Decision::CoordinatorQuarantined {
                releases: count,
                error: &message,
            });
            let record = JobRecord {
                id: self.ids[job].clone(),
                status: JobStatus::Quarantined,
                attempts: count as u32,
                payload: None,
                incident: Some(Incident {
                    kind: IncidentKind::Quarantined,
                    name: self.ids[job].clone(),
                    message,
                    rung: 0,
                    flight: flights[job].dump(),
                }),
                wall: Duration::ZERO,
            };
            coordinator_journal
                .record(&record, String::clone)
                .map_err(|e| format!("cannot journal coordinator quarantine: {e}"))?;
            mark_done(&self.layout, job).map_err(|e| format!("cannot mark job {job} done: {e}"))?;
            stats.coordinator_quarantined += 1;
        }
        Ok(())
    }

    fn emit_progress(&self, total: usize, stats: &SweepOutcome, last: &mut Instant, force: bool) {
        let Some((callback, every)) = &self.progress else {
            return;
        };
        if !force && last.elapsed() < *every {
            return;
        }
        *last = Instant::now();
        let done = (0..total).filter(|&j| is_done(&self.layout, j)).count();
        callback(&ProgressSnapshot {
            // Workers quarantine in their own processes; until the merge
            // the coordinator knows only the jobs it gave up on itself.
            quarantined: stats.coordinator_quarantined,
            ..ProgressSnapshot::from_stats(
                true,
                &self.telemetry.snapshot(),
                total,
                done,
                self.config.workers,
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
        std::fs::remove_dir_all(layout.root()).ok();
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

    #[test]
    fn claims_are_mutually_exclusive_until_released() {
        let layout = scratch("claims");
        let ttl = Duration::from_secs(60);
        assert!(try_claim(&layout, 0, "w0", 0, ttl).unwrap());
        assert!(!try_claim(&layout, 0, "w1", 0, ttl).unwrap(), "O_EXCL lost");
        let lease = read_lease(&layout, 0).unwrap();
        assert_eq!(lease.worker, "w0");
        assert_eq!(lease.generation, 0);
        assert!(lease.deadline_ms > now_ms());

        remove_lease(&layout, 0).unwrap();
        let gen = bump_release_count(&layout, 0).unwrap();
        assert_eq!(gen, 1);
        assert!(try_claim(&layout, 0, "w1", gen, ttl).unwrap());
        assert_eq!(read_lease(&layout, 0).unwrap().worker, "w1");
        cleanup(&layout);
    }

    #[test]
    fn renew_only_works_for_the_current_owner_and_generation() {
        let layout = scratch("renew");
        let ttl = Duration::from_millis(100);
        assert!(try_claim(&layout, 3, "w0", 0, ttl).unwrap());
        let before = read_lease(&layout, 3).unwrap().deadline_ms;
        std::thread::sleep(Duration::from_millis(5));
        assert!(renew_lease(&layout, 3, "w0", 0, ttl).unwrap());
        assert!(read_lease(&layout, 3).unwrap().deadline_ms >= before);
        // A stranger, or the owner at a stale generation, cannot renew.
        assert!(!renew_lease(&layout, 3, "w1", 0, ttl).unwrap());
        assert!(!renew_lease(&layout, 3, "w0", 1, ttl).unwrap());
        // After release + re-claim, the old owner cannot resurrect it.
        remove_lease(&layout, 3).unwrap();
        bump_release_count(&layout, 3).unwrap();
        assert!(try_claim(&layout, 3, "w1", 1, ttl).unwrap());
        assert!(!renew_lease(&layout, 3, "w0", 0, ttl).unwrap());
        cleanup(&layout);
    }

    #[test]
    fn done_markers_and_shutdown_are_idempotent() {
        let layout = scratch("markers");
        assert!(!is_done(&layout, 2));
        mark_done(&layout, 2).unwrap();
        mark_done(&layout, 2).unwrap();
        assert!(is_done(&layout, 2));
        assert!(!shutdown_requested(&layout));
        request_shutdown(&layout).unwrap();
        assert!(shutdown_requested(&layout));
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
    fn lease_render_parse_round_trips() {
        let lease = Lease {
            job: 42,
            worker: "w\"7\"".to_string(),
            generation: 3,
            deadline_ms: 1_723_000_000_123,
        };
        assert_eq!(Lease::parse(&lease.render()).unwrap(), lease);
        assert!(Lease::parse("garbage").is_none());
        assert!(Lease::parse("{\"job\":1,\"worker\":\"w0\"").is_none());
        // As the previous lease code wrote it, byte for byte.
        let old = "{\"job\":4,\"worker\":\"w-\\\"7\\\"\",\"generation\":2,\"deadline_ms\":1760000000000}\n";
        let lease = Lease {
            job: 4,
            worker: "w-\"7\"".to_string(),
            generation: 2,
            deadline_ms: 1_760_000_000_000,
        };
        assert_eq!(Lease::parse(old), Some(lease.clone()));
        assert_eq!(lease.render(), old);
        // A repeated field is malformed, whichever value comes last.
        assert!(Lease::parse(
            "{\"job\":4,\"worker\":\"w0\",\"worker\":\"w1\",\"generation\":2,\"deadline_ms\":1}"
        )
        .is_none());
    }
}
