//! Run decisions and where they are observed: the structured, correlated
//! event bus (the `--events-out` layer), the flight recorder, and the one
//! mapping from a decision to its observations.
//!
//! Every consequential run-level decision — attempt starts and ends, fault
//! injections, retries, quarantines, budget exhaustions, per-channel
//! incidents, sweep leases and releases, serve requests and cache and
//! session outcomes — is a [`Decision`] recorded by one call,
//! [`Recorder::record`]. That call bumps the decision's counter, emits its
//! bus event, writes its trace instant on the caller's lane and pushes its
//! flight line, each only on a sink the caller attached and without
//! building anything for the others. Counters are the only tallies: the
//! batch and sweep headers, `run_end` and the progress line read them back.
//!
//! On the bus each decision is one JSON object on an append-only JSONL
//! stream. Each event carries correlation IDs (run id, module, job id,
//! attempt, channel), so a single `grep` over the stream reconstructs any
//! job's full lifecycle.
//!
//! Determinism contract: the rendered stream is byte-identical across
//! `--jobs 1` and `--jobs N` once timestamps are normalized. Two mechanisms
//! make that hold:
//!
//! 1. **Canonical ordering.** Events are buffered as they arrive and sorted
//!    at render time by `(class, group, arrival)` where `class` places
//!    `run_start` first and `run_end` last, and `group` is the job's
//!    submission index (batch) or the channel's discovery index (check).
//!    Within one group the arrival order is causally determined (one
//!    worker runs all of a job's attempts in sequence), so the stable sort
//!    yields one canonical interleaving regardless of worker count.
//! 2. **Zeroable timestamps.** Under `GCATCH_OBS_ZERO_TIME=1` every
//!    `ts_ns` renders as 0 and the run id becomes a pure function of the
//!    job list, so golden files and cross-`--jobs` diffs are byte-exact.
//!
//! The [`FlightRecorder`] is a bounded ring of human-readable lifecycle
//! lines kept per job, whose dump is attached to `Quarantined` incidents as
//! a postmortem (the "flight recorder" of a crashed job). Every line it
//! holds comes from the job's own attempts, so the dump is byte-identical
//! from run to run.

use crate::codec::escape_json;
use crate::telemetry::{observation_enum, Counter, Telemetry};
use crate::trace::{ArgValue, Lane};
use golite_ir::fnv::{fnv, OFFSET};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Returns true when `GCATCH_OBS_ZERO_TIME` is set to something other than
/// `0`/empty: timestamps render as 0 and run ids become deterministic.
pub fn obs_zero_time() -> bool {
    match std::env::var("GCATCH_OBS_ZERO_TIME") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// Derives the run correlation id. Deterministic (an FNV digest of the
/// inputs) under `zero_time`; otherwise the digest is salted with wall
/// clock and pid so concurrent runs remain distinguishable.
pub fn derive_run_id(inputs: &[String], zero_time: bool) -> String {
    let mut h = OFFSET;
    for input in inputs {
        h = fnv(h, input.as_bytes());
        h = fnv(h, b"\0");
    }
    if !zero_time {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        h = fnv(h, &now.to_le_bytes());
        h = fnv(h, &std::process::id().to_le_bytes());
    }
    format!("r{h:016x}")
}

/// An [`EventKind`]'s row: its wire name.
#[derive(Clone, Copy)]
struct EventSpec {
    name: &'static str,
}

observation_enum! {
    /// Event taxonomy. Every variant renders under a stable snake_case name;
    /// the class controls canonical ordering (run_start first, run_end last).
    #[allow(missing_docs)]
    pub enum EventKind: EventSpec {
        RunStart { name: "run_start" },
        JobResumed { name: "job_resumed" },
        AttemptStart { name: "attempt_start" },
        FaultInjected { name: "fault_injected" },
        BudgetExhausted { name: "budget_exhausted" },
        ChannelAnalyzed { name: "channel_analyzed" },
        IncidentRecorded { name: "incident" },
        AttemptEnd { name: "attempt_end" },
        JobRetry { name: "job_retry" },
        JobDone { name: "job_done" },
        JobQuarantined { name: "job_quarantined" },
        WorkerSpawned { name: "worker_spawned" },
        WorkerLost { name: "worker_lost" },
        JobLeased { name: "job_leased" },
        LeaseExpired { name: "lease_expired" },
        JobReleased { name: "job_released" },
        DuplicateDecision { name: "duplicate_decision" },
        RequestReceived { name: "request_received" },
        RequestShed { name: "request_shed" },
        RequestDone { name: "request_done" },
        RequestFailed { name: "request_failed" },
        CacheHit { name: "cache_hit" },
        CacheEvicted { name: "cache_evicted" },
        SessionReuse { name: "session_reuse" },
        SessionEvict { name: "session_evict" },
        RunEnd { name: "run_end" },
    }
}

impl EventKind {
    fn class(self) -> u8 {
        match self {
            EventKind::RunStart => 0,
            EventKind::RunEnd => 2,
            _ => 1,
        }
    }
}

/// An extra event payload value.
#[derive(Clone, Debug)]
pub enum Field {
    /// Unsigned integer payload.
    U64(u64),
    /// String payload (JSON-escaped at render time).
    Str(String),
    /// Boolean payload.
    Bool(bool),
}

/// One event as submitted to the bus. Correlation fields are optional so
/// run-level events (`run_start`/`run_end`) reuse the same shape.
#[derive(Clone, Debug)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Canonical ordering group: job submission index (batch) or channel
    /// discovery index (check). Run-level events use 0.
    pub group: u64,
    /// Job id, when the event belongs to a batch job.
    pub job: Option<String>,
    /// Attempt number, when the event belongs to one attempt.
    pub attempt: Option<u32>,
    /// Channel name, for per-channel analysis events.
    pub channel: Option<String>,
    /// Extra key/value payload, rendered after the correlation fields.
    pub fields: Vec<(&'static str, Field)>,
}

struct Stored {
    event: Event,
    ts_ns: u64,
}

/// Thread-safe append-only event sink. Cheap to share (`Arc<EventBus>`);
/// every emitter takes one short mutex hold. Rendering produces the
/// canonical JSONL stream described in the module docs.
pub struct EventBus {
    run_id: String,
    zero_time: bool,
    epoch: Instant,
    events: Mutex<Vec<Stored>>,
}

impl EventBus {
    /// Creates a bus for one run. `zero_time` zeroes every timestamp at
    /// render time (goldens, determinism tests).
    pub fn new(run_id: String, zero_time: bool) -> EventBus {
        EventBus {
            run_id,
            zero_time,
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The run correlation id every rendered event carries.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Appends one event; the bus stamps arrival order and a timestamp.
    /// A poisoned lock (an emitter panicked mid-push and the panic was
    /// contained) degrades to appending past the poison rather than
    /// cascading the panic into every later emitter.
    pub fn emit(&self, event: Event) {
        let ts_ns = if self.zero_time {
            0
        } else {
            self.epoch.elapsed().as_nanos() as u64
        };
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Stored { event, ts_ns });
    }

    /// Appends a run-frame event (`run_start`, `run_end`): group 0, no
    /// job, attempt or channel, so canonical ordering brackets the stream
    /// with it.
    pub fn emit_run(&self, kind: EventKind, fields: Vec<(&'static str, Field)>) {
        self.emit(Event {
            kind,
            group: 0,
            job: None,
            attempt: None,
            channel: None,
            fields,
        });
    }

    /// Number of events buffered so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no events have been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the canonical JSONL stream: stable sort by
    /// `(class, group, arrival)`, then a per-group `seq` counter so
    /// consumers can order a job's events without trusting file order.
    pub fn render_jsonl(&self) -> String {
        let events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| (events[i].event.kind.class(), events[i].event.group, i));

        let mut out = String::new();
        let mut current_group: Option<(u8, u64)> = None;
        let mut seq = 0u64;
        for &i in &order {
            let stored = &events[i];
            let ev = &stored.event;
            let key = (ev.kind.class(), ev.group);
            if current_group != Some(key) {
                current_group = Some(key);
                seq = 0;
            }
            out.push_str("{\"ts_ns\":");
            out.push_str(&stored.ts_ns.to_string());
            out.push_str(",\"seq\":");
            out.push_str(&seq.to_string());
            out.push_str(",\"event\":\"");
            out.push_str(ev.kind.name());
            out.push_str("\",\"run\":\"");
            escape_json(&self.run_id, &mut out);
            out.push('"');
            if let Some(job) = &ev.job {
                out.push_str(",\"job\":\"");
                escape_json(job, &mut out);
                out.push_str("\",\"job_index\":");
                out.push_str(&ev.group.to_string());
            }
            if let Some(attempt) = ev.attempt {
                out.push_str(",\"attempt\":");
                out.push_str(&attempt.to_string());
            }
            if let Some(channel) = &ev.channel {
                out.push_str(",\"channel\":\"");
                escape_json(channel, &mut out);
                out.push('"');
            }
            for (name, value) in &ev.fields {
                out.push_str(",\"");
                out.push_str(name);
                out.push_str("\":");
                match value {
                    Field::U64(n) => out.push_str(&n.to_string()),
                    Field::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                    Field::Str(s) => {
                        out.push('"');
                        escape_json(s, &mut out);
                        out.push('"');
                    }
                }
            }
            out.push_str("}\n");
            seq += 1;
        }
        out
    }
}

/// Capacity of one job's flight-recorder ring.
pub const FLIGHT_CAPACITY: usize = 24;

#[derive(Debug, Default)]
struct Flight {
    dropped: u64,
    lines: VecDeque<String>,
}

/// A bounded ring buffer of the last [`FLIGHT_CAPACITY`] lifecycle lines
/// for one job, shared between the engine deciding the job and the work
/// closure running its attempt. When a job is quarantined the dump is
/// attached to the `Quarantined` incident, turning "quarantined after 3
/// attempts" into a readable postmortem. Cloning shares the same ring.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder(Arc<Mutex<Flight>>);

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Appends a line, evicting the oldest once the ring is full. Like the
    /// bus, a poisoned ring (its pusher panicked and was contained)
    /// degrades to writing past the poison.
    pub fn push(&self, line: impl Into<String>) {
        let mut flight = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if flight.lines.len() == FLIGHT_CAPACITY {
            flight.lines.pop_front();
            flight.dropped += 1;
        }
        flight.lines.push_back(line.into());
    }

    /// The recorded lines, oldest first. When the ring overflowed, the
    /// first line notes how many earlier entries were evicted.
    pub fn dump(&self) -> Vec<String> {
        let flight = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let mut lines = Vec::with_capacity(flight.lines.len() + 1);
        if flight.dropped > 0 {
            lines.push(format!("({} earlier line(s) dropped)", flight.dropped));
        }
        lines.extend(flight.lines.iter().cloned());
        lines
    }
}

/// The observability context threaded into the analysis layers. Default
/// is fully inert (every [`Recorder`] sink is `None`); the batch engine
/// and CLI fill in whichever sinks the run enabled, plus the correlation
/// ids the analysis cannot know by itself.
#[derive(Clone, Default)]
pub struct ObsScope {
    /// Event sink, when `--events-out` armed one.
    pub bus: Option<Arc<EventBus>>,
    /// Flight recorder of the enclosing job, when running under `batch`.
    pub flight: Option<FlightRecorder>,
    /// Enclosing job id.
    pub job: Option<String>,
    /// Canonical ordering group of the enclosing job.
    pub group: Option<u64>,
    /// Enclosing attempt number.
    pub attempt: Option<u32>,
}

impl std::fmt::Debug for ObsScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsScope")
            .field("bus", &self.bus.is_some())
            .field("flight", &self.flight.is_some())
            .field("job", &self.job)
            .field("group", &self.group)
            .field("attempt", &self.attempt)
            .finish()
    }
}

impl ObsScope {
    /// The recorder of one channel's decisions: this scope's sinks and
    /// correlation ids, `telemetry` for counters, and `channel` (the
    /// `index`-th channel, which orders its events outside a job).
    pub(crate) fn recorder<'a>(
        &'a self,
        telemetry: &'a Telemetry,
        index: u64,
        channel: &'a str,
    ) -> Recorder<'a> {
        Recorder {
            telemetry: Some(telemetry),
            bus: self.bus.as_deref(),
            flight: self.flight.as_ref(),
            group: self.group.unwrap_or(index),
            job: self.job.as_deref(),
            attempt: self.attempt,
            channel: Some(channel),
        }
    }
}

/// One run decision of the batch engine, the sweep coordinator, the serve
/// daemon or the detector. [`Recorder::record`] maps it to every
/// observation it has: its counter, its bus event, its trace instant and
/// its flight line. Each variant's doc names what its fields carry.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub enum Decision<'a> {
    /// Batch: the job was restored from the journal, where it took
    /// `attempts` attempts.
    Resumed { attempts: u32 },
    /// Batch: an attempt started.
    AttemptStart,
    /// Batch: an attempt ended, with the failure message as `error` when
    /// it failed.
    AttemptEnd { error: Option<&'a str> },
    /// Batch: the fault layer fired at `site` during the attempt.
    FaultInjected { site: &'a str },
    /// Batch: a failed job will run again as attempt `next`, after
    /// `backoff_ms`.
    Retry { next: u32, backoff_ms: u64 },
    /// Batch: the job was given up on after `attempts` attempts, the last
    /// failing with `error`.
    Quarantined { attempts: u32, error: &'a str },
    /// Batch: the job succeeded on attempt `attempts`.
    Done { attempts: u32 },
    /// Sweep: the coordinator spawned worker process `worker`.
    WorkerSpawned { worker: &'a str },
    /// Sweep: the coordinator declared worker `worker` dead.
    WorkerLost { worker: &'a str },
    /// Sweep: `worker` died holding the job's lease of `generation`; the
    /// job's release follows.
    LeaseHolderLost { worker: &'a str, generation: u64 },
    /// Sweep: the coordinator leased the job to `worker` at `generation`.
    Leased { worker: &'a str, generation: u64 },
    /// Sweep: `worker`'s lease of `generation` passed its deadline
    /// without a hold.
    LeaseExpired { worker: &'a str, generation: u64 },
    /// Sweep: the job went back to the queue for the `releases`-th time.
    Released { releases: u64 },
    /// Sweep: the coordinator gave up on the job after `releases`
    /// releases, saying `error`.
    CoordinatorQuarantined { releases: u64, error: &'a str },
    /// Sweep: `workers` workers decided the job, `agreed` or not; one
    /// record was kept.
    DuplicateDecision { workers: u64, agreed: bool },
    /// Serve: a request line arrived, carrying `op` when it parsed (an
    /// unparseable line is counted but has no `request_received` event).
    RequestReceived { op: Option<&'a str> },
    /// Serve: admission control shed the request at the queue bound with
    /// `outstanding` requests in flight, or (`None`) while draining.
    RequestShed { outstanding: Option<u64> },
    /// Serve: the request was answered.
    RequestDone,
    /// Serve: the request was answered with an incident saying `message`.
    RequestFailed { message: &'a str },
    /// Serve: the response came from the cache under `key`.
    CacheHit { key: &'a str },
    /// Serve: caching the response evicted `evicted` entries.
    CacheEvicted { evicted: u64 },
    /// Serve: persisting the response to the cache index failed with
    /// `message`.
    CacheIncident { message: &'a str },
    /// Serve: a check ran on the warm store, `reused` a prior session of
    /// its module or not, replaying `replayed` channels and analyzing
    /// `reanalyzed` afresh.
    SessionUse {
        reused: bool,
        replayed: u64,
        reanalyzed: u64,
    },
    /// Serve: a check evicted `evicted` warm sessions; `fault` marks an
    /// injected session loss.
    SessionEvict { evicted: u64, fault: bool },
    /// Detector: the channel finished with `findings` reports.
    ChannelAnalyzed { findings: u64 },
    /// Detector: the channel exhausted its budget at ladder rung `rung`.
    BudgetExhausted { rung: u32 },
    /// Detector: the channel gave up (a contained panic or an exhausted
    /// budget) with an incident of `kind` saying `message`.
    ChannelIncident { kind: &'a str, message: &'a str },
    /// Detector: a solver verdict became a report on the channel.
    ReportEmitted,
    /// Detector: path enumeration pruned `count` infeasible branches.
    BranchesPruned { count: u64 },
    /// Detector: a report of `kind` duplicated an earlier one.
    DedupDropped { kind: &'a str },
}

/// Where a decision's observations go: the sinks a caller attached and
/// the correlation ids its bus event carries. A sink left `None` costs one
/// branch; nothing is formatted for it.
#[derive(Clone, Copy, Default)]
pub struct Recorder<'a> {
    /// Counter sink.
    pub telemetry: Option<&'a Telemetry>,
    /// Event sink (`--events-out`).
    pub bus: Option<&'a EventBus>,
    /// The job's flight recorder.
    pub flight: Option<&'a FlightRecorder>,
    /// Canonical ordering group of the event.
    pub group: u64,
    /// The job, request or module the decision concerns.
    pub job: Option<&'a str>,
    /// The attempt the decision concerns.
    pub attempt: Option<u32>,
    /// The channel the decision concerns.
    pub channel: Option<&'a str>,
}

impl Recorder<'_> {
    /// Records `decision` on every attached sink.
    pub fn record(&self, decision: Decision<'_>) {
        self.observe(None, decision);
    }

    /// [`Recorder::record`], writing the decision's trace instant, if it
    /// has one, on `lane`.
    pub(crate) fn record_on(&self, lane: &mut Lane<'_>, decision: Decision<'_>) {
        self.observe(Some(lane), decision);
    }

    /// The one mapping from a decision to its observations.
    fn observe(&self, mut lane: Option<&mut Lane<'_>>, decision: Decision<'_>) {
        use Decision as D;
        use Field::{Bool, Str, U64};
        let count = |counter: Counter, n: u64| {
            if let Some(telemetry) = self.telemetry {
                telemetry.add(counter, n);
            }
        };
        let mut instant = |name: &'static str, args: &dyn Fn() -> Vec<(&'static str, ArgValue)>| {
            if let Some(lane) = lane.as_deref_mut().filter(|lane| lane.enabled()) {
                lane.instant(name, args());
            }
        };
        let flight = |line: &dyn Fn() -> String| {
            if let Some(flight) = self.flight {
                flight.push(line());
            }
        };
        let event = |kind: EventKind, fields: &dyn Fn() -> Vec<(&'static str, Field)>| {
            if let Some(bus) = self.bus {
                bus.emit(Event {
                    kind,
                    group: self.group,
                    job: self.job.map(str::to_string),
                    attempt: self.attempt,
                    channel: self.channel.map(str::to_string),
                    fields: fields(),
                });
            }
        };
        let job = || ArgValue::from(self.job.unwrap_or_default());
        let attempt = self.attempt.unwrap_or_default();
        let channel = self.channel.unwrap_or_default();
        match decision {
            D::Resumed { attempts } => {
                count(Counter::JobsResumed, 1);
                instant("job_resumed", &|| vec![("job", job())]);
                event(EventKind::JobResumed, &|| {
                    vec![("attempts", U64(attempts.into()))]
                });
            }
            D::AttemptStart => {
                flight(&|| format!("attempt {attempt}: started"));
                event(EventKind::AttemptStart, &Vec::new);
            }
            D::AttemptEnd { error } => {
                flight(&|| match error {
                    None => format!("attempt {attempt}: succeeded"),
                    Some(error) => format!("attempt {attempt}: failed: {error}"),
                });
                event(EventKind::AttemptEnd, &|| {
                    let mut fields = vec![("ok", Bool(error.is_none()))];
                    fields.extend(error.map(|error| ("error", Str(error.into()))));
                    fields
                });
            }
            D::FaultInjected { site } => {
                event(EventKind::FaultInjected, &|| {
                    vec![("site", Str(site.into()))]
                });
            }
            D::Retry { next, backoff_ms } => {
                count(Counter::JobsRetried, 1);
                instant("job_retry", &|| {
                    vec![("job", job()), ("attempt", next.into())]
                });
                flight(&|| format!("retry: attempt {next} scheduled (backoff {backoff_ms} ms)"));
                event(EventKind::JobRetry, &|| {
                    vec![("backoff_ms", U64(backoff_ms))]
                });
            }
            D::Quarantined { attempts, error } => {
                count(Counter::JobsQuarantined, 1);
                instant("job_quarantined", &|| {
                    vec![("job", job()), ("attempts", attempts.into())]
                });
                flight(&|| format!("quarantined after {attempts} attempt(s)"));
                event(EventKind::JobQuarantined, &|| {
                    vec![
                        ("attempts", U64(attempts.into())),
                        ("error", Str(error.into())),
                    ]
                });
            }
            D::Done { attempts } => {
                event(EventKind::JobDone, &|| {
                    vec![("attempts", U64(attempts.into()))]
                });
            }
            D::WorkerSpawned { worker } => {
                count(Counter::WorkersSpawned, 1);
                event(EventKind::WorkerSpawned, &|| {
                    vec![("worker", Str(worker.into()))]
                });
            }
            D::WorkerLost { worker } => {
                count(Counter::WorkersLost, 1);
                event(EventKind::WorkerLost, &|| {
                    vec![("worker", Str(worker.into()))]
                });
            }
            D::LeaseHolderLost { worker, generation } => flight(&|| {
                format!("worker {worker} lost while holding lease (generation {generation})")
            }),
            D::Leased { worker, generation } => {
                flight(&|| format!("leased by {worker} (generation {generation})"));
                event(EventKind::JobLeased, &|| {
                    vec![
                        ("worker", Str(worker.into())),
                        ("generation", U64(generation)),
                    ]
                });
            }
            D::LeaseExpired { worker, generation } => {
                count(Counter::LeasesExpired, 1);
                flight(&|| format!("lease expired (owner {worker}, generation {generation})"));
                event(EventKind::LeaseExpired, &|| {
                    vec![
                        ("worker", Str(worker.into())),
                        ("generation", U64(generation)),
                    ]
                });
            }
            D::Released { releases } => {
                count(Counter::JobsReleases, 1);
                flight(&|| format!("released back to the queue (release #{releases})"));
                event(EventKind::JobReleased, &|| {
                    vec![("releases", U64(releases))]
                });
            }
            D::CoordinatorQuarantined { releases, error } => {
                flight(&|| format!("quarantined by coordinator: {error}"));
                event(EventKind::JobQuarantined, &|| {
                    vec![("releases", U64(releases)), ("error", Str(error.into()))]
                });
            }
            D::DuplicateDecision { workers, agreed } => {
                event(EventKind::DuplicateDecision, &|| {
                    vec![("workers", U64(workers)), ("agreed", Bool(agreed))]
                });
            }
            D::RequestReceived { op } => {
                count(Counter::RequestsTotal, 1);
                if let Some(op) = op {
                    event(EventKind::RequestReceived, &|| vec![("op", Str(op.into()))]);
                }
            }
            D::RequestShed { outstanding } => {
                count(Counter::RequestsShed, 1);
                event(EventKind::RequestShed, &|| match outstanding {
                    Some(n) => vec![("outstanding", U64(n))],
                    None => vec![("draining", Bool(true))],
                });
            }
            D::RequestDone => event(EventKind::RequestDone, &Vec::new),
            D::RequestFailed { message } => {
                count(Counter::RequestsFailed, 1);
                event(EventKind::RequestFailed, &|| {
                    vec![("message", Str(message.into()))]
                });
            }
            D::CacheHit { key } => {
                count(Counter::CacheHits, 1);
                event(EventKind::CacheHit, &|| vec![("key", Str(key.into()))]);
            }
            D::CacheEvicted { evicted } => {
                count(Counter::CacheEvictions, evicted);
                event(EventKind::CacheEvicted, &|| vec![("evicted", U64(evicted))]);
            }
            D::CacheIncident { message } => {
                event(EventKind::IncidentRecorded, &|| {
                    vec![
                        ("kind", Str("cache".into())),
                        ("message", Str(message.into())),
                    ]
                });
            }
            D::SessionUse {
                reused,
                replayed,
                reanalyzed,
            } => {
                count(Counter::SessionsReused, u64::from(reused));
                count(Counter::ChannelsReplayed, replayed);
                count(Counter::ChannelsReanalyzed, reanalyzed);
                if reused {
                    event(EventKind::SessionReuse, &|| {
                        vec![("replayed", U64(replayed)), ("reanalyzed", U64(reanalyzed))]
                    });
                }
            }
            D::SessionEvict { evicted, fault } => {
                count(Counter::SessionEvictions, evicted);
                if evicted > 0 || fault {
                    event(EventKind::SessionEvict, &|| {
                        vec![("evicted", U64(evicted)), ("fault", Bool(fault))]
                    });
                }
            }
            D::ChannelAnalyzed { findings } => {
                event(EventKind::ChannelAnalyzed, &|| {
                    vec![("findings", U64(findings))]
                });
            }
            D::BudgetExhausted { rung } => {
                flight(&|| format!("channel `{channel}`: budget exhausted at rung {rung}"));
                event(EventKind::BudgetExhausted, &|| {
                    vec![("rung", U64(rung.into()))]
                });
            }
            D::ChannelIncident { kind, message } => {
                count(Counter::IncompleteChannels, 1);
                instant("incident", &|| {
                    vec![("kind", kind.into()), ("name", channel.into())]
                });
                flight(&|| format!("channel `{channel}`: incident ({kind}): {message}"));
                event(EventKind::IncidentRecorded, &|| {
                    vec![("kind", Str(kind.into())), ("message", Str(message.into()))]
                });
            }
            D::ReportEmitted => {
                count(Counter::ReportsEmitted, 1);
                instant("report_emitted", &|| vec![("chan", channel.into())]);
            }
            D::BranchesPruned { count: pruned } => {
                count(Counter::BranchesPruned, pruned);
                if pruned > 0 {
                    instant("branch_pruned", &|| vec![("count", pruned.into())]);
                }
            }
            D::DedupDropped { kind } => {
                count(Counter::DuplicatesDropped, 1);
                instant("dedup_dropped", &|| vec![("kind", kind.into())]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_event(kind: EventKind, group: u64, job: &str, attempt: u32) -> Event {
        Event {
            kind,
            group,
            job: Some(job.to_string()),
            attempt: Some(attempt),
            channel: None,
            fields: Vec::new(),
        }
    }

    #[test]
    fn canonical_order_sorts_by_class_then_group_then_arrival() {
        let bus = EventBus::new("r0".into(), true);
        // Arrival order deliberately interleaves groups and puts run
        // events in the middle.
        bus.emit(job_event(EventKind::AttemptStart, 1, "b", 1));
        bus.emit(Event {
            kind: EventKind::RunStart,
            group: 0,
            job: None,
            attempt: None,
            channel: None,
            fields: vec![("jobs", Field::U64(2))],
        });
        bus.emit(job_event(EventKind::AttemptStart, 0, "a", 1));
        bus.emit(job_event(EventKind::AttemptEnd, 1, "b", 1));
        bus.emit(Event {
            kind: EventKind::RunEnd,
            group: 0,
            job: None,
            attempt: None,
            channel: None,
            fields: Vec::new(),
        });
        bus.emit(job_event(EventKind::AttemptEnd, 0, "a", 1));

        let jsonl = bus.render_jsonl();
        let events: Vec<&str> = jsonl.lines().collect();
        assert_eq!(events.len(), 6);
        assert!(events[0].contains("\"event\":\"run_start\""));
        assert!(events[1].contains("\"job\":\"a\"") && events[1].contains("attempt_start"));
        assert!(events[2].contains("\"job\":\"a\"") && events[2].contains("attempt_end"));
        assert!(events[3].contains("\"job\":\"b\"") && events[3].contains("attempt_start"));
        assert!(events[4].contains("\"job\":\"b\"") && events[4].contains("attempt_end"));
        assert!(events[5].contains("\"event\":\"run_end\""));
        // Per-group seq restarts.
        assert!(events[1].contains("\"seq\":0"));
        assert!(events[2].contains("\"seq\":1"));
        assert!(events[3].contains("\"seq\":0"));
        // Zero-time renders ts_ns as 0 and every line is valid JSON.
        for line in &events {
            assert!(line.starts_with("{\"ts_ns\":0,"), "{line}");
            crate::codec::validate_json(line).expect("event line is valid JSON");
        }
    }

    #[test]
    fn flight_recorder_bounds_the_ring_and_reports_evictions() {
        let flight = FlightRecorder::new();
        for i in 0..FLIGHT_CAPACITY + 3 {
            flight.push(format!("line {i}"));
        }
        let dump = flight.dump();
        assert_eq!(dump.len(), FLIGHT_CAPACITY + 1);
        assert_eq!(dump[0], "(3 earlier line(s) dropped)");
        assert_eq!(dump[1], "line 3");
        assert_eq!(
            *dump.last().unwrap(),
            format!("line {}", FLIGHT_CAPACITY + 2)
        );
        // Clones share the ring.
        let twin = flight.clone();
        twin.push("from the twin");
        assert_eq!(*flight.dump().last().unwrap(), "from the twin");
    }

    #[test]
    fn run_id_is_deterministic_under_zero_time() {
        let a = derive_run_id(&["m1".into(), "m2".into()], true);
        let b = derive_run_id(&["m1".into(), "m2".into()], true);
        assert_eq!(a, b);
        let c = derive_run_id(&["m1".into(), "m3".into()], true);
        assert_ne!(a, c);
    }

    #[test]
    fn inert_scope_records_nothing() {
        let scope = ObsScope::default();
        let telemetry = Telemetry::new();
        // No bus and no flight: only the counter moves.
        let rec = scope.recorder(&telemetry, 0, "ch");
        rec.record(Decision::ChannelAnalyzed { findings: 1 });
        rec.record(Decision::BudgetExhausted { rung: 2 });
        rec.record(Decision::ChannelIncident {
            kind: "channel",
            message: "boom",
        });
        assert_eq!(telemetry.get(Counter::IncompleteChannels), 1);
        // No sink at all: a no-op.
        Recorder::default().record(Decision::AttemptStart);
    }

    #[test]
    fn scope_routes_to_bus_and_flight() {
        let bus = Arc::new(EventBus::new("r1".into(), true));
        let flight = FlightRecorder::new();
        let scope = ObsScope {
            bus: Some(bus.clone()),
            flight: Some(flight.clone()),
            job: Some("job-7".into()),
            group: Some(7),
            attempt: Some(2),
        };
        let telemetry = Telemetry::new();
        let rec = scope.recorder(&telemetry, 3, "ch");
        rec.record(Decision::ChannelAnalyzed { findings: 0 });
        rec.record(Decision::ChannelIncident {
            kind: "channel",
            message: "injected fault: panic",
        });
        let jsonl = bus.render_jsonl();
        assert!(jsonl.contains("\"event\":\"channel_analyzed\""));
        assert!(jsonl.contains("\"job\":\"job-7\""));
        assert!(jsonl.contains("\"job_index\":7"));
        assert!(jsonl.contains("\"attempt\":2"));
        assert!(jsonl.contains("\"channel\":\"ch\""));
        let dump = flight.dump();
        assert_eq!(dump.len(), 1);
        assert!(dump[0].contains("incident (channel)"));
    }

    #[test]
    fn one_call_reaches_every_attached_sink() {
        let bus = EventBus::new("r2".into(), true);
        let flight = FlightRecorder::new();
        let telemetry = Telemetry::new();
        let tracer = crate::trace::Tracer::new(crate::trace::TraceLevel::Full);
        let rec = Recorder {
            telemetry: Some(&telemetry),
            bus: Some(&bus),
            flight: Some(&flight),
            group: 4,
            job: Some("m.go"),
            attempt: Some(2),
            channel: None,
        };
        {
            let mut lane = tracer.lane(0, "main");
            rec.record_on(
                &mut lane,
                Decision::Quarantined {
                    attempts: 2,
                    error: "boom",
                },
            );
        }
        assert_eq!(telemetry.get(Counter::JobsQuarantined), 1);
        assert_eq!(
            bus.render_jsonl(),
            "{\"ts_ns\":0,\"seq\":0,\"event\":\"job_quarantined\",\"run\":\"r2\",\
             \"job\":\"m.go\",\"job_index\":4,\"attempt\":2,\"attempts\":2,\
             \"error\":\"boom\"}\n"
        );
        assert_eq!(flight.dump(), ["quarantined after 2 attempt(s)"]);
        let trace = tracer.snapshot();
        let instant = &trace.events.last().expect("one instant").1;
        assert_eq!(instant.name, "job_quarantined");
        assert_eq!(
            instant.args,
            [
                ("job", ArgValue::from("m.go")),
                ("attempts", ArgValue::U64(2))
            ]
        );
    }
}
