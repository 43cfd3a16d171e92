//! Hierarchical span tracing, log-bucketed histograms, and trace export.
//!
//! This module is the observability substrate layered on top of
//! [`Telemetry`](crate::telemetry::Telemetry): where telemetry answers "how
//! much, in total", tracing answers "which channel, which path enumeration,
//! which solver query". A [`Tracer`] lives on the
//! [`AnalysisSession`](crate::session::AnalysisSession); each worker thread
//! opens a [`Lane`] (a thread-confined event buffer, merged into the tracer
//! when the lane drops — no lock is held while recording), and the pipeline
//! records nested spans:
//!
//! ```text
//! session
//! ├── analysis                     (points-to / call graph / primitives)
//! ├── disentangle                  (dependency graph + scopes)
//! └── checker:bmoc
//!     └── bmoc_channel{chan}       (one per channel, on its worker's lane)
//!         ├── build_combos
//!         │   └── enumerate_paths
//!         └── solve{group}
//!             └── dpll             (steps/decisions/conflicts attributes)
//! ```
//!
//! plus point events (`branch_pruned`, `report_emitted`, `dedup_dropped`) at
//! [`TraceLevel::Full`]. [`TraceSnapshot::render_chrome`] exports the whole
//! run in Chrome trace-event format (loadable in `chrome://tracing` or
//! Perfetto) with one lane per BMOC worker; `gcatch check --trace out.json`
//! writes it. Tracing at [`TraceLevel::Off`] records nothing and costs one
//! branch per call site, so the detection pipeline stays untouched when
//! observability is not requested. Because lanes only buffer locally and the
//! diagnostic-facing data (provenance, histograms of deterministic counts)
//! is merged in channel order, `--jobs N` stays bit-identical in diagnostic
//! output for every `N`.

use crate::codec::escape_json;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- levels

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing (the default; near-zero overhead).
    #[default]
    Off,
    /// Record hierarchical spans only.
    Spans,
    /// Record spans plus point events (branch pruned, report emitted,
    /// dedup dropped).
    Full,
}

impl TraceLevel {
    /// Parses a level name as accepted by `GCATCH_TRACE_LEVEL`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<TraceLevel, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Ok(TraceLevel::Off),
            "spans" | "1" => Ok(TraceLevel::Spans),
            "full" | "2" => Ok(TraceLevel::Full),
            other => Err(format!(
                "bad trace level `{other}` (accepted: off, spans, full)"
            )),
        }
    }

    /// Whether any recording happens at this level.
    pub fn enabled(self) -> bool {
        self != TraceLevel::Off
    }
}

// ---------------------------------------------------------------- events

/// Chrome trace-event phase of one recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span open (`ph: "B"`).
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// Complete span with a duration (`ph: "X"`).
    Complete,
    /// Point event (`ph: "i"`).
    Instant,
}

impl Phase {
    fn chrome(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Complete => "X",
            Phase::Instant => "i",
        }
    }
}

/// An event argument value (rendered into the Chrome `args` object).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An unsigned integer argument.
    U64(u64),
    /// A string argument.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> ArgValue {
        ArgValue::U64(u64::from(v))
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Global sequence number (total order across all lanes).
    pub seq: u64,
    /// Nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// Duration for [`Phase::Complete`] events.
    pub dur_ns: u64,
    /// Event phase.
    pub phase: Phase,
    /// Span or event name.
    pub name: Cow<'static, str>,
    /// Arguments (stable key order: as recorded).
    pub args: Vec<(&'static str, ArgValue)>,
}

// ---------------------------------------------------------------- tracer

struct LaneBuffer {
    tid: u32,
    thread_name: Cow<'static, str>,
    events: Vec<TraceEvent>,
}

/// The session-wide trace sink: hands out per-worker [`Lane`]s and merges
/// their buffers at snapshot time.
#[derive(Debug)]
pub struct Tracer {
    level: TraceLevel,
    epoch: Instant,
    seq: AtomicU64,
    done: Mutex<Vec<LaneBuffer>>,
}

impl std::fmt::Debug for LaneBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneBuffer")
            .field("tid", &self.tid)
            .field("thread_name", &self.thread_name)
            .field("events", &self.events.len())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(TraceLevel::Off)
    }
}

impl Tracer {
    /// A tracer recording at `level`.
    pub fn new(level: TraceLevel) -> Tracer {
        Tracer {
            level,
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer::new(TraceLevel::Off)
    }

    /// The recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether spans are recorded at all.
    pub fn enabled(&self) -> bool {
        self.level.enabled()
    }

    /// Whether point events are recorded too.
    pub fn full(&self) -> bool {
        self.level == TraceLevel::Full
    }

    /// Opens a lane: a thread-confined event buffer tagged with a Chrome
    /// thread id. Lane 0 is the main thread; BMOC workers use `1 + index`.
    /// The buffer is merged into the tracer when the lane drops.
    pub fn lane(&self, tid: u32, thread_name: impl Into<Cow<'static, str>>) -> Lane<'_> {
        Lane {
            tracer: self,
            tid,
            thread_name: thread_name.into(),
            events: Vec::new(),
            open_spans: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Freezes everything recorded so far into a [`TraceSnapshot`]. All
    /// lanes must have been dropped (their buffers merged) for their events
    /// to appear; a synthetic `session` span covering the tracer's whole
    /// lifetime is added on lane 0.
    pub fn snapshot(&self) -> TraceSnapshot {
        let done = self.done.lock().expect("trace buffers");
        let mut threads: Vec<(u32, String)> = vec![(0, "main".to_string())];
        let mut events: Vec<(u32, TraceEvent)> = Vec::new();
        if self.enabled() {
            events.push((
                0,
                TraceEvent {
                    seq: 0,
                    ts_ns: 0,
                    dur_ns: self.now_ns(),
                    phase: Phase::Complete,
                    name: Cow::Borrowed("session"),
                    args: Vec::new(),
                },
            ));
        }
        for buf in done.iter() {
            if !threads.iter().any(|(t, _)| *t == buf.tid) {
                threads.push((buf.tid, buf.thread_name.to_string()));
            }
            for e in &buf.events {
                events.push((buf.tid, e.clone()));
            }
        }
        threads.sort();
        // Within a lane the sequence is monotone; across lanes that share a
        // tid the global sequence recovers the real recording order.
        events.sort_by_key(|(tid, e)| (*tid, e.seq));
        TraceSnapshot { threads, events }
    }
}

// ------------------------------------------------------------------ lanes

/// A thread-confined trace buffer. Recording never takes a lock; the
/// buffer is pushed into the owning [`Tracer`] when the lane drops.
#[derive(Debug)]
pub struct Lane<'t> {
    tracer: &'t Tracer,
    tid: u32,
    thread_name: Cow<'static, str>,
    events: Vec<TraceEvent>,
    /// Depth of currently open Begin spans; lets [`Lane::rewind`] emit
    /// the matching End events after a contained panic.
    open_spans: u32,
}

impl Lane<'_> {
    /// Whether this lane records spans.
    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Whether this lane records point events too.
    pub fn full(&self) -> bool {
        self.tracer.full()
    }

    fn push(&mut self, phase: Phase, name: Cow<'static, str>, args: Vec<(&'static str, ArgValue)>) {
        self.events.push(TraceEvent {
            seq: self.tracer.next_seq(),
            ts_ns: self.tracer.now_ns(),
            dur_ns: 0,
            phase,
            name,
            args,
        });
    }

    /// Opens a span. Pair with [`Lane::end`] (or use [`Lane::span`]).
    pub fn begin(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.enabled() {
            self.open_spans += 1;
            self.push(Phase::Begin, name.into(), args);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if self.enabled() {
            self.open_spans = self.open_spans.saturating_sub(1);
            self.push(Phase::End, Cow::Borrowed(""), Vec::new());
        }
    }

    /// Closes every span still open on this lane.
    ///
    /// Used after a contained panic: the panicking unit never reached
    /// its [`Lane::end`] calls, and the Begin/End balance every lane
    /// guarantees must be restored before the buffer merges.
    pub fn rewind(&mut self) {
        while self.open_spans > 0 {
            self.end();
        }
    }

    /// Runs `f` inside a `name` span.
    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(&'static str, ArgValue)>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.begin(name, args);
        let out = f(self);
        self.end();
        out
    }

    /// Records a complete span that just finished and took `dur` (used when
    /// the timed region reports its own duration, e.g. one solver call).
    pub fn complete(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        dur: Duration,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.enabled() {
            let dur_ns = dur.as_nanos() as u64;
            let now = self.tracer.now_ns();
            self.events.push(TraceEvent {
                seq: self.tracer.next_seq(),
                ts_ns: now.saturating_sub(dur_ns),
                dur_ns,
                phase: Phase::Complete,
                name: name.into(),
                args,
            });
        }
    }

    /// Records a point event ([`TraceLevel::Full`] only).
    pub fn instant(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.full() {
            self.push(Phase::Instant, name.into(), args);
        }
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let buf = LaneBuffer {
            tid: self.tid,
            thread_name: std::mem::replace(&mut self.thread_name, Cow::Borrowed("")),
            events: std::mem::take(&mut self.events),
        };
        self.tracer.done.lock().expect("trace buffers").push(buf);
    }
}

// -------------------------------------------------------------- snapshot

/// A frozen, mergeable view of everything a [`Tracer`] recorded.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// `(tid, thread name)` pairs, sorted by tid.
    pub threads: Vec<(u32, String)>,
    /// `(tid, event)` pairs, sorted by `(tid, seq)`.
    pub events: Vec<(u32, TraceEvent)>,
}

impl TraceSnapshot {
    /// The distinct span names recorded (Begin/Complete events).
    pub fn span_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .events
            .iter()
            .filter(|(_, e)| matches!(e.phase, Phase::Begin | Phase::Complete))
            .map(|(_, e)| e.name.as_ref())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// A copy with every timestamp, duration, and sequence number zeroed —
    /// the deterministic projection golden tests compare.
    pub fn zeroed(&self) -> TraceSnapshot {
        let mut out = self.clone();
        for (_, e) in &mut out.events {
            e.seq = 0;
            e.ts_ns = 0;
            e.dur_ns = 0;
        }
        out
    }

    /// Renders the snapshot in Chrome trace-event JSON (an object with a
    /// `traceEvents` array), loadable in `chrome://tracing` and Perfetto.
    /// Timestamps are microseconds with nanosecond precision; each lane
    /// becomes a named thread via `thread_name` metadata events.
    pub fn render_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push_event = |s: &str, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(s);
        };
        for (tid, name) in &self.threads {
            let mut e = String::new();
            e.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            e.push_str(&tid.to_string());
            e.push_str(",\"args\":{\"name\":\"");
            escape_json(name, &mut e);
            e.push_str("\"}}");
            push_event(&e, &mut out);
        }
        for (tid, ev) in &self.events {
            let mut e = String::new();
            e.push_str("{\"name\":\"");
            escape_json(&ev.name, &mut e);
            e.push_str("\",\"ph\":\"");
            e.push_str(ev.phase.chrome());
            e.push_str("\",\"ts\":");
            e.push_str(&micros(ev.ts_ns));
            if ev.phase == Phase::Complete {
                e.push_str(",\"dur\":");
                e.push_str(&micros(ev.dur_ns));
            }
            if ev.phase == Phase::Instant {
                e.push_str(",\"s\":\"t\"");
            }
            e.push_str(",\"pid\":1,\"tid\":");
            e.push_str(&tid.to_string());
            if !ev.args.is_empty() {
                e.push_str(",\"args\":{");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        e.push(',');
                    }
                    e.push('"');
                    e.push_str(k);
                    e.push_str("\":");
                    match v {
                        ArgValue::U64(n) => e.push_str(&n.to_string()),
                        ArgValue::Str(s) => {
                            e.push('"');
                            escape_json(s, &mut e);
                            e.push('"');
                        }
                    }
                }
                e.push('}');
            }
            e.push('}');
            push_event(&e, &mut out);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Nanoseconds rendered as decimal microseconds (`1234` → `1.234`), the
/// Chrome trace `ts` unit, without going through floats.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

// ------------------------------------------------------------- histogram

/// Number of bins in a [`Histogram`]: bin 0 holds the value 0, bin `k`
/// (1 ≤ k ≤ 64) holds values in `[2^(k-1), 2^k)`.
pub const HIST_BINS: usize = 65;

/// A thread-safe, log2-bucketed histogram of `u64` samples.
///
/// Fixed bins, integer keys, relaxed atomics: concurrent workers can record
/// without locks, and because bin counts commute under addition the merged
/// snapshot is independent of recording order (so `--jobs N` cannot change
/// a distribution built from deterministic per-channel counts).
#[derive(Debug)]
pub struct Histogram {
    bins: [AtomicU64; HIST_BINS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bin a value lands in: 0 for 0, else `floor(log2(v)) + 1`.
pub fn bin_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive `[lo, hi]` value range of bin `i`.
pub fn bin_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.bins[bin_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Folds a frozen snapshot into this live histogram (bin-wise
    /// addition, like [`HistSnapshot::merge`] but onto the atomic side) —
    /// how the batch engine merges per-job session histograms into the
    /// run-wide telemetry.
    pub fn absorb(&self, snap: &HistSnapshot) {
        for (b, &n) in self.bins.iter().zip(snap.bins.iter()) {
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// Freezes the bins into a plain snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut bins = [0u64; HIST_BINS];
        for (i, b) in self.bins.iter().enumerate() {
            bins[i] = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            bins,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable [`Histogram`] snapshot with percentile queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bin sample counts (see [`bin_index`]).
    pub bins: [u64; HIST_BINS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            bins: [0; HIST_BINS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// The `p`-th percentile (0–100): the upper bound of the bin containing
    /// the sample of that rank, clamped to the observed maximum (so `p100`
    /// is exactly the max). Returns 0 for an empty histogram.
    pub fn percentile(&self, p: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // rank = ceil(p/100 * count), clamped to [1, count].
        let rank = (u128::from(self.count) * u128::from(p.min(100))).div_ceil(100) as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bin_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Folds another snapshot into this one (bin-wise addition).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let mut lane = t.lane(0, "main");
            lane.begin("x", vec![]);
            lane.instant("y", vec![]);
            lane.end();
        }
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
    }

    #[test]
    fn spans_nest_and_merge_across_lanes() {
        let t = Tracer::new(TraceLevel::Full);
        {
            let mut main = t.lane(0, "main");
            main.span("analysis", vec![], |_| ());
        }
        std::thread::scope(|s| {
            for w in 0..2u32 {
                let t = &t;
                s.spawn(move || {
                    let mut lane = t.lane(1 + w, format!("bmoc-worker-{w}"));
                    lane.span("bmoc_channel", vec![("chan", ArgValue::from("c"))], |l| {
                        l.instant("report_emitted", vec![]);
                    });
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.threads.len(), 3);
        let names = snap.span_names();
        assert!(names.contains(&"session"));
        assert!(names.contains(&"analysis"));
        assert!(names.contains(&"bmoc_channel"));
        // Begin/End pairs balance on every lane.
        for tid in [0u32, 1, 2] {
            let mut depth = 0i64;
            for (t, e) in snap.events.iter().filter(|(t, _)| *t == tid) {
                let _ = t;
                match e.phase {
                    Phase::Begin => depth += 1,
                    Phase::End => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0);
            }
            assert_eq!(depth, 0, "unbalanced spans on tid {tid}");
        }
    }

    #[test]
    fn rewind_rebalances_open_spans() {
        let t = Tracer::new(TraceLevel::Spans);
        {
            let mut lane = t.lane(0, "main");
            lane.begin("a", vec![]);
            lane.begin("b", vec![]);
            // A panic would skip the matching end() calls; rewind restores
            // the balance.
            lane.rewind();
            lane.rewind(); // idempotent
        }
        let snap = t.snapshot();
        let begins = snap
            .events
            .iter()
            .filter(|(_, e)| e.phase == Phase::Begin)
            .count();
        let ends = snap
            .events
            .iter()
            .filter(|(_, e)| e.phase == Phase::End)
            .count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
    }

    #[test]
    fn spans_level_drops_instants() {
        let t = Tracer::new(TraceLevel::Spans);
        {
            let mut lane = t.lane(0, "main");
            lane.span("solve", vec![], |l| l.instant("branch_pruned", vec![]));
        }
        let snap = t.snapshot();
        assert!(snap.events.iter().all(|(_, e)| e.phase != Phase::Instant));
    }

    #[test]
    fn chrome_rendering_is_wellformed_json() {
        let t = Tracer::new(TraceLevel::Full);
        {
            let mut lane = t.lane(0, "main");
            lane.span("solve", vec![("group", ArgValue::U64(3))], |l| {
                l.complete(
                    "dpll",
                    Duration::from_micros(12),
                    vec![
                        ("steps", ArgValue::U64(99)),
                        ("why", ArgValue::from("a\"b")),
                    ],
                );
            });
        }
        let json = t.snapshot().render_chrome();
        crate::codec::validate_json(&json).expect("chrome trace is valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"steps\":99"));
    }

    #[test]
    fn zeroed_projection_is_deterministic() {
        let mk = || {
            let t = Tracer::new(TraceLevel::Spans);
            {
                let mut lane = t.lane(0, "main");
                lane.span("analysis", vec![], |_| ());
            }
            t.snapshot().zeroed().render_chrome()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn trace_level_parsing() {
        assert_eq!(TraceLevel::parse("off"), Ok(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("SPANS"), Ok(TraceLevel::Spans));
        assert_eq!(TraceLevel::parse(" full "), Ok(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("2"), Ok(TraceLevel::Full));
        assert!(TraceLevel::parse("verbose").is_err());
    }

    #[test]
    fn histogram_bin_boundaries() {
        assert_eq!(bin_index(0), 0);
        assert_eq!(bin_index(1), 1);
        assert_eq!(bin_index(2), 2);
        assert_eq!(bin_index(3), 2);
        assert_eq!(bin_index(4), 3);
        assert_eq!(bin_index(7), 3);
        assert_eq!(bin_index(8), 4);
        assert_eq!(bin_index(u64::MAX), 64);
        assert_eq!(bin_bounds(0), (0, 0));
        assert_eq!(bin_bounds(1), (1, 1));
        assert_eq!(bin_bounds(2), (2, 3));
        assert_eq!(bin_bounds(3), (4, 7));
        assert_eq!(bin_bounds(64), (1 << 63, u64::MAX));
        // Every bin's bounds round-trip through bin_index.
        for i in 0..HIST_BINS {
            let (lo, hi) = bin_bounds(i);
            assert_eq!(bin_index(lo), i, "lo of bin {i}");
            assert_eq!(bin_index(hi), i, "hi of bin {i}");
        }
    }

    #[test]
    fn histogram_percentile_math() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().percentile(50), 0, "empty histogram");
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100);
        assert_eq!(s.percentile(100), 100);
        // The rank-50 sample (the value 50) lands in bin [32, 63].
        assert_eq!(s.percentile(50), 63);
        // The rank-90 sample (90) lands in bin [64, 127], clamped to max.
        assert_eq!(s.percentile(90), 100);
        assert_eq!(s.percentile(0), 1, "p0 is the smallest sample's bin");
        assert_eq!(s.mean(), 5050 / 100);
    }

    #[test]
    fn histogram_merge_is_binwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1);
        a.record(4);
        b.record(4);
        b.record(1000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 4);
        assert_eq!(m.max, 1000);
        assert_eq!(m.bins[bin_index(4)], 2);
        assert_eq!(m.sum, 1 + 4 + 4 + 1000);
    }

    #[test]
    fn histogram_is_shareable_across_threads() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in 0..100u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 400);
    }
}
