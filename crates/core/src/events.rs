//! Structured, correlated event bus — the `--events-out` layer.
//!
//! Every consequential run-level decision — attempt starts and ends, fault
//! injections, retries, hedges, quarantines, budget exhaustions, per-channel
//! incidents — is emitted as one JSON object on an append-only JSONL stream.
//! Each event carries correlation IDs (run id, module, job id, attempt,
//! channel), so a single `grep` over the stream reconstructs any job's full
//! lifecycle.
//!
//! Determinism contract: the rendered stream is byte-identical across
//! `--jobs 1` and `--jobs N` once timestamps are normalized. Two mechanisms
//! make that hold:
//!
//! 1. **Canonical ordering.** Events are buffered as they arrive and sorted
//!    at render time by `(class, group, arrival)` where `class` places
//!    `run_start` first and `run_end` last, and `group` is the job's
//!    submission index (batch) or the channel's discovery index (check).
//!    Within one group the arrival order is causally determined (a single
//!    worker drives the job's attempts in sequence), so the stable sort
//!    yields one canonical interleaving regardless of worker count.
//! 2. **Zeroable timestamps.** Under `GCATCH_OBS_ZERO_TIME=1` every
//!    `ts_ns` renders as 0 and the run id becomes a pure function of the
//!    job list, so golden files and cross-`--jobs` diffs are byte-exact.
//!
//! Timing-driven events that are *not* deterministic across schedules
//! (hedge launches) are still emitted — operators want them — but tests
//! disable hedging (`--no-hedge`) when asserting byte equality.
//!
//! The [`FlightRecorder`] lives here too: a bounded ring of human-readable
//! lifecycle lines kept per job, whose dump is attached to `Quarantined`
//! incidents as a postmortem (the "flight recorder" of a crashed job).

use crate::codec::escape_json;
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

/// Event taxonomy. Every variant renders under a stable snake_case name;
/// the class controls canonical ordering (run_start first, run_end last).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum EventKind {
    RunStart,
    JobResumed,
    AttemptStart,
    FaultInjected,
    BudgetExhausted,
    ChannelAnalyzed,
    IncidentRecorded,
    AttemptEnd,
    JobRetry,
    JobHedged,
    JobDone,
    JobQuarantined,
    WorkerSpawned,
    WorkerLost,
    JobLeased,
    LeaseExpired,
    JobReleased,
    DuplicateDecision,
    RequestReceived,
    RequestShed,
    RequestDone,
    RequestFailed,
    CacheHit,
    CacheEvicted,
    SessionReuse,
    SessionEvict,
    RunEnd,
}

impl EventKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RunStart => "run_start",
            EventKind::JobResumed => "job_resumed",
            EventKind::AttemptStart => "attempt_start",
            EventKind::FaultInjected => "fault_injected",
            EventKind::BudgetExhausted => "budget_exhausted",
            EventKind::ChannelAnalyzed => "channel_analyzed",
            EventKind::IncidentRecorded => "incident",
            EventKind::AttemptEnd => "attempt_end",
            EventKind::JobRetry => "job_retry",
            EventKind::JobHedged => "job_hedged",
            EventKind::JobDone => "job_done",
            EventKind::JobQuarantined => "job_quarantined",
            EventKind::WorkerSpawned => "worker_spawned",
            EventKind::WorkerLost => "worker_lost",
            EventKind::JobLeased => "job_leased",
            EventKind::LeaseExpired => "lease_expired",
            EventKind::JobReleased => "job_released",
            EventKind::DuplicateDecision => "duplicate_decision",
            EventKind::RequestReceived => "request_received",
            EventKind::RequestShed => "request_shed",
            EventKind::RequestDone => "request_done",
            EventKind::RequestFailed => "request_failed",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheEvicted => "cache_evicted",
            EventKind::SessionReuse => "session_reuse",
            EventKind::SessionEvict => "session_evict",
            EventKind::RunEnd => "run_end",
        }
    }

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
    /// A poisoned lock (an emitter panicked mid-push — contained by the
    /// supervisor) degrades to appending past the poison rather than
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
/// for one job, shared between the worker executing an attempt and the
/// supervisor that decides its fate. When a job is quarantined the dump is
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
/// is fully inert (every probe is a single `Option` check); the batch
/// engine and CLI fill in whichever sinks the run enabled, plus the
/// correlation ids the analysis cannot know by itself.
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
    /// True when any sink is attached; callers may skip formatting work
    /// entirely when false.
    pub fn enabled(&self) -> bool {
        self.bus.is_some() || self.flight.is_some()
    }

    fn emit(
        &self,
        kind: EventKind,
        fallback_group: u64,
        channel: &str,
        fields: Vec<(&'static str, Field)>,
    ) {
        if let Some(bus) = &self.bus {
            bus.emit(Event {
                kind,
                group: self.group.unwrap_or(fallback_group),
                job: self.job.clone(),
                attempt: self.attempt,
                channel: Some(channel.to_string()),
                fields,
            });
        }
    }

    /// One channel finished analysis with `findings` reports.
    pub fn channel_analyzed(&self, index: u64, channel: &str, findings: u64) {
        self.emit(
            EventKind::ChannelAnalyzed,
            index,
            channel,
            vec![("findings", Field::U64(findings))],
        );
    }

    /// A channel's analysis budget ran dry at ladder rung `rung`.
    pub fn budget_exhausted(&self, index: u64, channel: &str, rung: u32) {
        self.emit(
            EventKind::BudgetExhausted,
            index,
            channel,
            vec![("rung", Field::U64(u64::from(rung)))],
        );
        if let Some(flight) = &self.flight {
            flight.push(format!(
                "channel `{channel}`: budget exhausted at rung {rung}"
            ));
        }
    }

    /// An incident (contained panic, exhausted budget) was recorded for a
    /// channel.
    pub fn incident(&self, index: u64, channel: &str, kind_label: &str, message: &str) {
        self.emit(
            EventKind::IncidentRecorded,
            index,
            channel,
            vec![
                ("kind", Field::Str(kind_label.to_string())),
                ("message", Field::Str(message.to_string())),
            ],
        );
        if let Some(flight) = &self.flight {
            flight.push(format!(
                "channel `{channel}`: incident ({kind_label}): {message}"
            ));
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
    fn inert_scope_emits_nothing() {
        let scope = ObsScope::default();
        assert!(!scope.enabled());
        // No sinks: these must be cheap no-ops.
        scope.channel_analyzed(0, "ch", 1);
        scope.budget_exhausted(0, "ch", 2);
        scope.incident(0, "ch", "channel", "boom");
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
        scope.channel_analyzed(3, "ch", 0);
        scope.incident(3, "ch", "channel", "injected fault: panic");
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
}
