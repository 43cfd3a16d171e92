//! `gcatch serve` — the crash-only analysis daemon.
//!
//! A long-running process serving a JSON-lines request/response protocol
//! over a unix socket (`--socket PATH`) or stdin/stdout (`--stdio`).
//! Requests are flat JSON objects, one per line, each carrying a
//! client-supplied `id` that is echoed back on the response line:
//!
//! ```text
//! {"id":"r1","op":"check","module":"examples/figure1.go"}
//! {"id":"r1","ok":true,"op":"check","module":"examples/figure1.go","result":{...}}
//! ```
//!
//! Ops: `check`, `explain`, `fix-dry-run` (work requests executed by a
//! bounded worker pool), `status` and `shutdown` (answered inline).
//!
//! Robustness contract:
//!
//! * **Isolation.** Every work request runs under [`catch_isolated`] with
//!   its own [`Budget`] deadline (`--request-timeout-ms`, overridable per
//!   request via `timeout_ms`). Panics and expired deadlines become
//!   structured incident responses, never a dead connection or a dead
//!   daemon.
//! * **Admission control.** Outstanding work (queued + executing) is
//!   bounded by `workers + max_queue`; past that, requests are shed
//!   immediately with an `overloaded` response carrying a deterministic
//!   `retry_after_ms` hint. The bound counts *outstanding* work, so the
//!   shed decision for a given request sequence does not depend on how
//!   far the pool happens to have drained the queue.
//! * **Graceful drain.** SIGTERM/SIGINT (via [`signals`]) or a
//!   `shutdown` request stops accepting new work, finishes everything
//!   in flight, flushes, and returns — the CLI exits 0.
//! * **Crash-only.** Responses for work requests are cached keyed by
//!   `(op, content hash of module source, effective deadline)` — the
//!   deadline is in the key because a tight budget can shape result bytes
//!   through the degradation ladder, and a deadline-shaped response must
//!   never be replayed to an untimed request — and persisted through an
//!   append-only, fsync'd index on the [`durable`] log. On startup the
//!   index is reloaded with torn/corrupt/stale entries dropped (the same
//!   heal rule as `--resume`) and compacted atomically when anything was
//!   dropped; an intact index is reopened untouched. A
//!   `kill -9` mid-request therefore loses at most warmth: the restarted
//!   daemon serves responses byte-identical to a cold single-shot
//!   `gcatch check`, because a cached response is the byte-for-byte
//!   result of a pure function of `(op, source, config)`.
//!
//! Fault sites [`SITE_SERVE_ACCEPT`] (contained connection-setup panic),
//! [`SITE_SERVE_REQUEST`] (injected request panic / slow request, keys
//! `exec` and `delay`), and [`SITE_SERVE_CACHE`] (a cache index
//! entry written deliberately corrupt) drive every failure path
//! deterministically in `(seed, site, request id)`.

use crate::codec::{escape_json, flat_object, unquote, Value};
use crate::durable::{self, Log};
use crate::events::{Decision, EventBus, Recorder};
use crate::faults::{self, FaultPlan, SITE_SERVE_ACCEPT, SITE_SERVE_CACHE, SITE_SERVE_REQUEST};
use crate::resilience::{catch_isolated, Budget, Incident, IncidentKind};
use crate::signals;
use crate::telemetry::{Counter, Telemetry};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// The three request ops executed by the worker pool (as opposed to
/// `status`/`shutdown`, which are answered inline by the reader).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkKind {
    /// Full detection; `result` is the exact `gcatch check --json` report.
    Check,
    /// Human-readable provenance; `result` is a JSON string.
    Explain,
    /// Patch synthesis without writing; `result` summarizes the patches.
    FixDryRun,
}

impl WorkKind {
    /// Stable wire name (also the cache-key prefix).
    pub fn name(self) -> &'static str {
        match self {
            WorkKind::Check => "check",
            WorkKind::Explain => "explain",
            WorkKind::FixDryRun => "fix-dry-run",
        }
    }
}

/// A parsed request op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A pooled work request.
    Work(WorkKind),
    /// Inline: report daemon counters and queue state.
    Status,
    /// Inline: acknowledge, then drain gracefully.
    Shutdown,
}

impl Op {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Work(w) => w.name(),
            Op::Status => "status",
            Op::Shutdown => "shutdown",
        }
    }
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-supplied correlation id, echoed on the response.
    pub id: String,
    /// What to do.
    pub op: Op,
    /// Module path for work ops.
    pub module: Option<String>,
    /// Per-request deadline override in milliseconds.
    pub timeout_ms: Option<u64>,
}

/// The work-request executor the CLI supplies: `(op, module path, module
/// source, budget) -> raw JSON result value`. Runs inside
/// [`catch_isolated`] on a pool thread; a panic becomes an incident
/// response. [`current_request`] names the request it runs for. The result
/// must be a deterministic pure function of its inputs (plus the run
/// configuration) — the cache depends on it.
pub type ExecutorFn<'e> =
    dyn Fn(WorkKind, &str, &str, &Budget) -> Result<String, String> + Sync + 'e;

thread_local! {
    static REQUEST: RefCell<Option<(u64, String)>> = const { RefCell::new(None) };
}

/// The request an [`ExecutorFn`] call on this thread runs for: its
/// arrival index, which groups its events, and its id. `None` outside
/// such a call.
pub fn current_request() -> Option<(u64, String)> {
    REQUEST.with(|r| r.borrow().clone())
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker-pool size.
    pub workers: usize,
    /// Admission bound: outstanding work past `workers + max_queue` is
    /// shed with an `overloaded` response.
    pub max_queue: usize,
    /// Default per-request deadline; `None` (the default) leaves requests
    /// unbounded, which is what keeps responses byte-identical to a cold
    /// `gcatch check`.
    pub request_timeout: Option<Duration>,
    /// Directory holding the persistent response cache; `None` keeps the
    /// cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Cache capacity in entries; the oldest insertion is evicted first.
    pub cache_capacity: usize,
    /// Fingerprint of everything that affects results (alias mode, solver
    /// flags, …). A persisted index written under a different fingerprint
    /// is discarded wholesale on load.
    pub config_fingerprint: String,
    /// Deterministic fault plan for the `serve.*` sites.
    pub plan: Option<Arc<FaultPlan>>,
    /// Warm per-module session store (`--max-sessions`); `None` disables
    /// incremental re-analysis. The CLI shares this store with its
    /// executor closure; the daemon itself only reads it for `status`.
    pub warm: Option<Arc<crate::warm::WarmSessions>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            max_queue: 64,
            request_timeout: None,
            cache_dir: None,
            cache_capacity: 512,
            config_fingerprint: "default".to_string(),
            plan: None,
            warm: None,
        }
    }
}

/// What a finished daemon run reports back to the CLI.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests received (every parsed line, control ops included).
    pub requests: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests answered with an incident response.
    pub failed: u64,
    /// Requests answered from the response cache.
    pub cache_hits: u64,
    /// Cache index entries dropped as torn/corrupt/stale on startup.
    pub cache_dropped: usize,
    /// Cache entries restored from the persisted index on startup.
    pub cache_warm: usize,
}

/// Parses one request line. Field order is free; unknown, repeated or
/// mistyped fields are errors (a typo'd `"timeout_ms":"50"` must not
/// silently become an unbounded request).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut id = None;
    let mut op = None;
    let mut module = None;
    let mut timeout_ms = None;
    for (key, val) in flat_object(line)? {
        match (key.as_str(), val) {
            ("id", Value::Str(s)) => id = Some(s),
            ("op", Value::Str(s)) => op = Some(s),
            ("module", Value::Str(s)) => module = Some(s),
            ("timeout_ms", Value::Num(n)) => timeout_ms = Some(n),
            (k, _) => return Err(format!("unknown or mistyped field `{k}`")),
        }
    }
    let id = id.ok_or("missing `id`")?;
    let op_name = op.ok_or("missing `op`")?;
    let op = match op_name.as_str() {
        "check" => Op::Work(WorkKind::Check),
        "explain" => Op::Work(WorkKind::Explain),
        "fix-dry-run" => Op::Work(WorkKind::FixDryRun),
        "status" => Op::Status,
        "shutdown" => Op::Shutdown,
        other => {
            return Err(format!(
                "unknown op `{other}`; expected check|explain|fix-dry-run|status|shutdown"
            ))
        }
    };
    if matches!(op, Op::Work(_)) && module.is_none() {
        return Err(format!("op `{op_name}` requires `module`"));
    }
    Ok(Request {
        id,
        op,
        module,
        timeout_ms,
    })
}

// ---------------------------------------------------------------------------
// Response rendering.
// ---------------------------------------------------------------------------

fn response_head(id: &str, ok: bool, op: &str, module: Option<&str>) -> String {
    let mut out = String::from("{\"id\":\"");
    escape_json(id, &mut out);
    out.push_str("\",\"ok\":");
    out.push_str(if ok { "true" } else { "false" });
    out.push_str(",\"op\":\"");
    escape_json(op, &mut out);
    out.push('"');
    if let Some(m) = module {
        out.push_str(",\"module\":\"");
        escape_json(m, &mut out);
        out.push('"');
    }
    out
}

fn ok_response(id: &str, op: &str, module: Option<&str>, result_raw: &str) -> String {
    let mut out = response_head(id, true, op, module);
    out.push_str(",\"result\":");
    out.push_str(result_raw);
    out.push('}');
    out
}

fn incident_response(id: &str, op: &str, module: Option<&str>, incident: &Incident) -> String {
    let mut out = response_head(id, false, op, module);
    out.push_str(",\"incident\":{\"kind\":\"");
    escape_json(incident.kind.label(), &mut out);
    out.push_str("\",\"name\":\"");
    escape_json(&incident.name, &mut out);
    out.push_str("\",\"message\":\"");
    escape_json(&incident.message, &mut out);
    out.push_str(&format!("\",\"rung\":{}}}}}", incident.rung));
    out
}

fn overloaded_response(
    id: &str,
    op: &str,
    module: Option<&str>,
    depth: usize,
    retry_ms: u64,
) -> String {
    let mut out = response_head(id, false, op, module);
    out.push_str(&format!(
        ",\"overloaded\":true,\"queue_depth\":{depth},\"retry_after_ms\":{retry_ms}}}"
    ));
    out
}

fn request_incident(id: &str, message: impl Into<String>) -> Incident {
    Incident {
        kind: IncidentKind::Request,
        name: id.to_string(),
        message: message.into(),
        rung: 0,
        flight: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// The persistent response cache.
// ---------------------------------------------------------------------------

const CACHE_INDEX: &str = "index.jsonl";

/// What [`ResponseCache::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLoad {
    /// Entries restored intact.
    pub restored: usize,
    /// Lines dropped as torn, corrupt, or written under a different
    /// config fingerprint.
    pub dropped: usize,
}

/// Content-addressed response cache with a [`durable`] log as its
/// on-disk index.
///
/// Each insert appends one fsync'd line on the log's held handle; loading
/// drops anything the log's heal rule rejects (torn tail from a crash
/// mid-append, injected corruption) and compacts atomically only when it
/// dropped, superseded or evicted something, so the index is *always* a
/// valid log — never a parse error — and an intact index is not rewritten.
pub struct ResponseCache {
    log: Option<Log>,
    header: String,
    entries: BTreeMap<String, CacheEntry>,
    /// Every distinct response body, held once and shared by all entries
    /// with byte-identical responses: sources that differ only in what no
    /// report reads (comments, constants, revision headers).
    bodies: HashSet<Arc<str>>,
    order: VecDeque<String>,
    capacity: usize,
}

/// One cached response plus the module path it was first computed for
/// (advisory — kept so the persisted index stays human-debuggable across
/// compactions; the key alone decides hits).
struct CacheEntry {
    module: String,
    result: Arc<str>,
}

/// The shared copy of `result`, interned on first sight.
fn intern_body(bodies: &mut HashSet<Arc<str>>, result: &str) -> Arc<str> {
    if let Some(body) = bodies.get(result) {
        return body.clone();
    }
    let body: Arc<str> = Arc::from(result);
    bodies.insert(body.clone());
    body
}

/// Lets go of one entry's body, dropping it from the set once no other
/// entry shares it (the set's handle and this one are all that is left).
fn release_body(bodies: &mut HashSet<Arc<str>>, body: Arc<str>) {
    if Arc::strong_count(&body) == 2 {
        bodies.remove(&*body);
    }
}

impl ResponseCache {
    /// Opens (and self-heals) the cache under `dir`, or an in-memory
    /// cache when `dir` is `None`.
    pub fn open(
        dir: Option<&Path>,
        capacity: usize,
        fingerprint: &str,
    ) -> Result<(ResponseCache, CacheLoad), String> {
        let capacity = capacity.max(1);
        let mut header = String::from("{\"gcatch_serve_cache\":1,\"config\":\"");
        escape_json(fingerprint, &mut header);
        header.push_str("\"}");
        let mut cache = ResponseCache {
            log: None,
            header,
            entries: BTreeMap::new(),
            bodies: HashSet::new(),
            order: VecDeque::new(),
            capacity,
        };
        let Some(dir) = dir else {
            return Ok((cache, CacheLoad::default()));
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
        let index = dir.join(CACHE_INDEX);
        // A different fingerprint (or garbage where the header should be)
        // makes the whole index stale.
        let loaded = durable::load(
            &index,
            |h| Ok(h == Some(cache.header.as_str())),
            |line| {
                let Some((key, module, result)) = parse_cache_entry(line) else {
                    return false;
                };
                let result = intern_body(&mut cache.bodies, &result);
                match cache
                    .entries
                    .insert(key.clone(), CacheEntry { module, result })
                {
                    None => cache.order.push_back(key),
                    Some(old) => {
                        release_body(&mut cache.bodies, old.result);
                        cache.order.retain(|k| *k != key);
                        cache.order.push_back(key);
                    }
                }
                true
            },
        );
        let load = match loaded {
            Ok(load) => load?,
            // No index yet: nothing kept and no header, so opening the log
            // below writes a fresh one.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => durable::Load::default(),
            Err(e) => {
                return Err(format!(
                    "cannot read cache index `{}`: {e}",
                    index.display()
                ))
            }
        };
        let mut counts = CacheLoad {
            restored: load.kept,
            dropped: load.dropped,
        };
        while cache.order.len() > capacity {
            if let Some(old) = cache.order.pop_front() {
                cache.evict(&old);
                counts.restored -= 1;
                counts.dropped += 1;
            }
        }
        let log = Log::open(
            &index,
            &load,
            cache.entries.len(),
            &cache.header,
            index_lines(&cache.order, &cache.entries),
        )
        .map_err(|e| format!("cannot open cache index `{}`: {e}", index.display()))?;
        cache.log = Some(log);
        Ok((cache, counts))
    }

    /// Looks a response up by cache key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(|e| &*e.result)
    }

    /// Drops one entry (not its place in `order`).
    fn evict(&mut self, key: &str) {
        if let Some(entry) = self.entries.remove(key) {
            release_body(&mut self.bodies, entry.result);
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a response, appending one fsync'd index line — or, when the
    /// insert evicts, compacting the index to the survivors so it stays
    /// bounded too. With `corrupt` (the [`SITE_SERVE_CACHE`] injection)
    /// the appended line is deliberately truncated — the in-memory entry
    /// stays correct, and the next startup drops the bad line and
    /// recomputes. Returns the number of evicted entries. Disk errors
    /// degrade the cache to memory-only for this entry (the response is
    /// already correct); the caller surfaces them — `Server::execute`
    /// warns once on stderr and emits an `incident` event per failed
    /// append.
    pub fn insert(
        &mut self,
        key: &str,
        module: &str,
        result: &str,
        corrupt: bool,
    ) -> std::io::Result<usize> {
        if self.entries.contains_key(key) {
            return Ok(0);
        }
        let entry = CacheEntry {
            module: module.to_string(),
            result: intern_body(&mut self.bodies, result),
        };
        self.entries.insert(key.to_string(), entry);
        self.order.push_back(key.to_string());
        let mut evicted = 0;
        while self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.evict(&old);
                evicted += 1;
            }
        }
        let Some(log) = &mut self.log else {
            return Ok(evicted);
        };
        if evicted > 0 {
            log.compact(&self.header, index_lines(&self.order, &self.entries))?;
        } else {
            let mut line = render_entry(key, module, result);
            if corrupt {
                // The log adds the newline, so later appends stay
                // line-aligned; the half-line itself can never parse
                // back. The midpoint may fall inside a multibyte
                // character — back up to a boundary so the cut cannot
                // panic.
                let mut mid = line.len() / 2;
                while !line.is_char_boundary(mid) {
                    mid -= 1;
                }
                line.truncate(mid);
            }
            log.append(line)?;
        }
        Ok(evicted)
    }
}

/// One index line (without its newline).
fn render_entry(key: &str, module: &str, result: &str) -> String {
    let mut line = String::from("{\"key\":\"");
    escape_json(key, &mut line);
    line.push_str("\",\"module\":\"");
    escape_json(module, &mut line);
    line.push_str("\",\"result\":");
    line.push_str(result);
    line.push('}');
    line
}

/// Every entry's index line, oldest first, rendered one at a time so a
/// compaction never holds the cache twice in memory.
fn index_lines<'a>(
    order: &'a VecDeque<String>,
    entries: &'a BTreeMap<String, CacheEntry>,
) -> impl Iterator<Item = String> + 'a {
    order.iter().filter_map(|key| {
        entries
            .get(key)
            .map(|e| render_entry(key, &e.module, &e.result))
    })
}

fn parse_cache_entry(line: &str) -> Option<(String, String, String)> {
    let rest = line.strip_prefix("{\"key\":")?;
    let (key, rest) = unquote(rest)?;
    let rest = rest.strip_prefix(",\"module\":")?;
    let (module, rest) = unquote(rest)?;
    let rest = rest.strip_prefix(",\"result\":")?;
    let raw = rest.strip_suffix('}')?;
    if raw.is_empty() {
        return None;
    }
    Some((key, module, raw.to_string()))
}

/// The cache key of one work request: op name + FNV of the module source,
/// plus the effective deadline when one applies. The deadline is part of
/// the key because it shapes result bytes — the degradation ladder can
/// complete early with a degraded report under a tight budget, and
/// replaying that to an untimed request would break byte-identity with a
/// cold `gcatch check --json`. Untimed requests keep the bare
/// `op:hash` key, so persisted indexes from untimed runs stay valid.
pub fn cache_key(op: WorkKind, source: &str, timeout_ms: Option<u64>) -> String {
    let h = golite_ir::fnv::fnv(golite_ir::fnv::OFFSET, source.as_bytes());
    match timeout_ms {
        None => format!("{}:{h:016x}", op.name()),
        Some(ms) => format!("{}:{h:016x}:t{ms}", op.name()),
    }
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

type Reply = (u64, String);

struct QueuedWork {
    seq: u64,
    arrival: u64,
    id: String,
    op: WorkKind,
    module: String,
    source: String,
    key: String,
    timeout_ms: Option<u64>,
    reply: Sender<Reply>,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<QueuedWork>,
    executing: usize,
    closed: bool,
}

struct Server<'a> {
    config: &'a ServeConfig,
    executor: &'a ExecutorFn<'a>,
    telemetry: &'a Telemetry,
    bus: Option<Arc<EventBus>>,
    queue: Mutex<QueueState>,
    cond: Condvar,
    /// Shared with the caller's line source (stdin pump, socket poll) so a
    /// `shutdown` request handled here is observable by an iterator that
    /// is blocked waiting for the next line.
    drain: Arc<AtomicBool>,
    cache: Mutex<ResponseCache>,
    cache_warned: AtomicBool,
    arrivals: AtomicU64,
    load: CacheLoad,
}

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<'a> Server<'a> {
    fn new(
        config: &'a ServeConfig,
        executor: &'a ExecutorFn<'a>,
        telemetry: &'a Telemetry,
        bus: Option<Arc<EventBus>>,
        drain: Arc<AtomicBool>,
    ) -> Result<Server<'a>, String> {
        let (cache, load) = ResponseCache::open(
            config.cache_dir.as_deref(),
            config.cache_capacity,
            &config.config_fingerprint,
        )?;
        Ok(Server {
            config,
            executor,
            telemetry,
            bus,
            queue: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            drain,
            cache: Mutex::new(cache),
            cache_warned: AtomicBool::new(false),
            arrivals: AtomicU64::new(0),
            load,
        })
    }

    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst) || signals::shutdown_signaled()
    }

    /// The deadline a work request will actually run under, in ms: the
    /// per-request override, else the daemon default. Feeds the cache key,
    /// so it must match what [`Server::execute`] derives.
    fn effective_timeout_ms(&self, request_override: Option<u64>) -> Option<u64> {
        request_override.or_else(|| self.config.request_timeout.map(|t| t.as_millis() as u64))
    }

    fn begin_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
        self.cond.notify_all();
    }

    fn close_queue(&self) {
        lock(&self.queue).closed = true;
        self.cond.notify_all();
    }

    /// The recorder of one request's decisions, ordered by its arrival.
    fn recorder<'r>(&'r self, arrival: u64, id: &'r str) -> Recorder<'r> {
        Recorder {
            telemetry: Some(self.telemetry),
            bus: self.bus.as_deref(),
            group: arrival,
            job: Some(id),
            ..Recorder::default()
        }
    }

    fn status_result(&self) -> String {
        let q = lock(&self.queue);
        let outstanding = q.items.len() + q.executing;
        drop(q);
        let cached = lock(&self.cache).len();
        let sessions = match &self.config.warm {
            Some(warm) => warm.status_json(),
            None => concat!(
                "{\"capacity\":0,\"resident\":0,\"hits\":0,",
                "\"misses\":0,\"evictions\":0,\"modules\":[]}"
            )
            .to_string(),
        };
        format!(
            "{{\"requests_total\":{},\"requests_shed\":{},\"requests_failed\":{},\
             \"cache_hits\":{},\"cache_evictions\":{},\"cache_entries\":{cached},\
             \"sessions\":{sessions},\
             \"outstanding\":{outstanding},\"workers\":{},\"draining\":{}}}",
            self.telemetry.get(Counter::RequestsTotal),
            self.telemetry.get(Counter::RequestsShed),
            self.telemetry.get(Counter::RequestsFailed),
            self.telemetry.get(Counter::CacheHits),
            self.telemetry.get(Counter::CacheEvictions),
            self.config.workers,
            self.draining(),
        )
    }

    /// Handles one request line from a connection; inline responses go
    /// straight to `reply`, work requests are enqueued (their response is
    /// sent by a pool worker under the same `seq`).
    fn handle_line(&self, line: &str, seq: u64, reply: &Sender<Reply>) {
        let arrival = self.arrivals.fetch_add(1, Ordering::Relaxed);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(msg) => {
                let rec = self.recorder(arrival, "");
                rec.record(Decision::RequestReceived { op: None });
                rec.record(Decision::RequestFailed { message: &msg });
                let incident = request_incident("", format!("bad request: {msg}"));
                let _ = reply.send((seq, incident_response("", "invalid", None, &incident)));
                return;
            }
        };
        self.recorder(arrival, &req.id)
            .record(Decision::RequestReceived {
                op: Some(req.op.name()),
            });
        match req.op {
            Op::Status => {
                let _ = reply.send((
                    seq,
                    ok_response(&req.id, "status", None, &self.status_result()),
                ));
            }
            Op::Shutdown => {
                let _ = reply.send((
                    seq,
                    ok_response(&req.id, "shutdown", None, "{\"draining\":true}"),
                ));
                self.recorder(arrival, &req.id)
                    .record(Decision::RequestDone);
                self.begin_drain();
            }
            Op::Work(op) => self.handle_work(req, op, arrival, seq, reply),
        }
    }

    fn handle_work(
        &self,
        req: Request,
        op: WorkKind,
        arrival: u64,
        seq: u64,
        reply: &Sender<Reply>,
    ) {
        let module = req.module.clone().unwrap_or_default();
        let op_name = op.name();
        let rec = self.recorder(arrival, &req.id);
        if self.draining() {
            // Late arrival during drain: shed, with an honest hint.
            rec.record(Decision::RequestShed { outstanding: None });
            let _ = reply.send((
                seq,
                overloaded_response(&req.id, op_name, Some(&module), 0, 0),
            ));
            return;
        }
        let source = match std::fs::read_to_string(&module) {
            Ok(s) => s,
            Err(e) => {
                rec.record(Decision::RequestFailed {
                    message: &format!("cannot read module: {e}"),
                });
                let incident = request_incident(&req.id, format!("cannot read `{module}`: {e}"));
                let _ = reply.send((
                    seq,
                    incident_response(&req.id, op_name, Some(&module), &incident),
                ));
                return;
            }
        };
        let key = cache_key(op, &source, self.effective_timeout_ms(req.timeout_ms));
        if let Some(result) = lock(&self.cache).get(&key).map(str::to_string) {
            rec.record(Decision::CacheHit { key: &key });
            let _ = reply.send((seq, ok_response(&req.id, op_name, Some(&module), &result)));
            return;
        }
        let mut q = lock(&self.queue);
        let outstanding = q.items.len() + q.executing;
        if q.closed || outstanding >= self.config.workers + self.config.max_queue {
            drop(q);
            rec.record(Decision::RequestShed {
                outstanding: Some(outstanding as u64),
            });
            // A deterministic function of the load the client just saw.
            let retry_ms = 50 * (outstanding as u64 + 1);
            let _ = reply.send((
                seq,
                overloaded_response(&req.id, op_name, Some(&module), outstanding, retry_ms),
            ));
            return;
        }
        q.items.push_back(QueuedWork {
            seq,
            arrival,
            id: req.id,
            op,
            module,
            source,
            key,
            timeout_ms: req.timeout_ms,
            reply: reply.clone(),
        });
        drop(q);
        self.cond.notify_one();
    }

    fn worker_loop(&self) {
        loop {
            let work = {
                let mut q = lock(&self.queue);
                loop {
                    if let Some(w) = q.items.pop_front() {
                        q.executing += 1;
                        break Some(w);
                    }
                    if q.closed {
                        break None;
                    }
                    q = self.cond.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            let Some(work) = work else { return };
            let response = self.execute(&work);
            let _ = work.reply.send((work.seq, response));
            lock(&self.queue).executing -= 1;
            self.cond.notify_all();
        }
    }

    /// Executes one work request on a pool thread: fault scope armed for
    /// the request id, panics contained, deadline checked, result cached.
    fn execute(&self, work: &QueuedWork) -> String {
        let timeout = work
            .timeout_ms
            .map(Duration::from_millis)
            .or(self.config.request_timeout);
        let budget = Budget::new(timeout, None);
        let rec = self.recorder(work.arrival, &work.id);
        let body = || {
            // The request scope brackets the contained call, so a panic
            // cannot leave it set.
            REQUEST.with(|r| *r.borrow_mut() = Some((work.arrival, work.id.clone())));
            let result = catch_isolated(|| {
                faults::maybe_delay(SITE_SERVE_REQUEST, "delay");
                faults::maybe_panic(SITE_SERVE_REQUEST, "exec");
                (self.executor)(work.op, &work.module, &work.source, &budget)
            });
            REQUEST.with(|r| *r.borrow_mut() = None);
            // The deadline verdict outranks the payload: a partial result
            // from an expired budget must not be cached or returned as
            // authoritative (it would differ from a cold `gcatch check`).
            if timeout.is_some() && budget.expired() {
                let ms = timeout.map(|t| t.as_millis() as u64).unwrap_or(0);
                return Err(format!("request deadline of {ms} ms expired"));
            }
            match result {
                Ok(Ok(raw)) => {
                    let corrupt = faults::should_inject(SITE_SERVE_CACHE, &work.key);
                    let inserted = {
                        let mut cache = lock(&self.cache);
                        cache.insert(&work.key, &work.module, &raw, corrupt)
                    };
                    let evicted = match inserted {
                        Ok(n) => n,
                        Err(e) => {
                            // The response itself is correct; only its
                            // persistence failed. Degrading to memory-only
                            // silently would hide a full disk — warn once
                            // and surface every failure as an incident
                            // event so telemetry consumers see it.
                            if !self.cache_warned.swap(true, Ordering::Relaxed) {
                                eprintln!(
                                    "gcatch: warning: response cache index append failed \
                                     (cache degrades to memory-only): {e}"
                                );
                            }
                            rec.record(Decision::CacheIncident {
                                message: &format!("cache index append failed: {e}"),
                            });
                            0
                        }
                    };
                    if evicted > 0 {
                        rec.record(Decision::CacheEvicted {
                            evicted: evicted as u64,
                        });
                    }
                    Ok(raw)
                }
                Ok(Err(e)) => Err(e),
                Err(panic_msg) => Err(panic_msg),
            }
        };
        let outcome = match &self.config.plan {
            Some(plan) => faults::with_scope(plan.clone(), &work.id, 1, body),
            None => body(),
        };
        match outcome {
            Ok(raw) => {
                rec.record(Decision::RequestDone);
                ok_response(&work.id, work.op.name(), Some(&work.module), &raw)
            }
            Err(message) => {
                rec.record(Decision::RequestFailed { message: &message });
                let incident = request_incident(&work.id, message);
                incident_response(&work.id, work.op.name(), Some(&work.module), &incident)
            }
        }
    }

    /// Reads request lines from one connection until EOF (or until the
    /// line source observes the drain), tagging each with a per-connection
    /// sequence number so the writer can reorder responses into arrival
    /// order regardless of pool scheduling.
    fn reader_loop(&self, lines: impl Iterator<Item = String>, reply: Sender<Reply>) {
        let mut seq = 0u64;
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            self.handle_line(&line, seq, &reply);
            seq += 1;
        }
    }

    /// The contained `serve.accept` probe: returns the incident response
    /// line to send (and drop the connection) when the injected
    /// connection-setup panic fires.
    fn accept_fault(&self, conn_id: &str) -> Option<String> {
        let plan = self.config.plan.clone()?;
        let caught = faults::with_scope(plan, conn_id, 1, || {
            catch_isolated(|| faults::maybe_panic(SITE_SERVE_ACCEPT, "accept"))
        });
        let message = caught.err()?;
        let arrival = self.arrivals.fetch_add(1, Ordering::Relaxed);
        self.recorder(arrival, conn_id)
            .record(Decision::RequestFailed { message: &message });
        let incident = request_incident(conn_id, message);
        Some(incident_response(conn_id, "accept", None, &incident))
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            requests: self.telemetry.get(Counter::RequestsTotal),
            shed: self.telemetry.get(Counter::RequestsShed),
            failed: self.telemetry.get(Counter::RequestsFailed),
            cache_hits: self.telemetry.get(Counter::CacheHits),
            cache_dropped: self.load.dropped,
            cache_warm: self.load.restored,
        }
    }
}

/// Writes `(seq, line)` replies in strict `seq` order, buffering any that
/// complete early. Write failures mean the client went away — the writer
/// just stops; work already queued for this connection still completes
/// (its sends go nowhere) and the daemon is unaffected.
fn write_ordered(out: &mut (dyn Write + Send), rx: Receiver<Reply>) {
    let mut next = 0u64;
    let mut pending: BTreeMap<u64, String> = BTreeMap::new();
    for (seq, line) in rx {
        pending.insert(seq, line);
        while let Some(line) = pending.remove(&next) {
            if out
                .write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush())
                .is_err()
            {
                return;
            }
            next += 1;
        }
    }
}

/// Serves a fixed line source to a single writer — the engine behind
/// `--stdio` and the in-crate tests. Returns after the source is
/// exhausted (EOF or drain) and every in-flight request has answered.
pub fn serve_lines(
    config: &ServeConfig,
    executor: &ExecutorFn<'_>,
    telemetry: &Telemetry,
    bus: Option<Arc<EventBus>>,
    lines: impl Iterator<Item = String>,
    out: &mut (dyn Write + Send),
) -> Result<ServeSummary, String> {
    serve_lines_shared(
        config,
        executor,
        telemetry,
        bus,
        lines,
        out,
        Arc::new(AtomicBool::new(false)),
    )
}

/// Like [`serve_lines`], but the server's drain flag *is* the
/// caller-supplied `AtomicBool`: a `shutdown` request handled by the
/// server flips the very flag the external line source (stdin pump)
/// polls, so an iterator blocked waiting for the next line still
/// observes the drain and terminates — there is no mirror to race.
fn serve_lines_shared(
    config: &ServeConfig,
    executor: &ExecutorFn<'_>,
    telemetry: &Telemetry,
    bus: Option<Arc<EventBus>>,
    lines: impl Iterator<Item = String>,
    out: &mut (dyn Write + Send),
    drain: Arc<AtomicBool>,
) -> Result<ServeSummary, String> {
    let server = Server::new(config, executor, telemetry, bus, drain)?;
    if let Some(line) = server.accept_fault("conn-0") {
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
        let _ = out.flush();
        return Ok(server.summary());
    }
    std::thread::scope(|s| {
        for _ in 0..config.workers.max(1) {
            s.spawn(|| server.worker_loop());
        }
        let (tx, rx) = mpsc::channel::<Reply>();
        let writer = s.spawn(move || write_ordered(out, rx));
        server.reader_loop(lines, tx);
        // Reader done: no new work can arrive. Let the pool drain what is
        // queued, then release the workers and the writer.
        server.close_queue();
        let _ = writer.join();
    });
    Ok(server.summary())
}

/// An iterator over stdin lines that also honors the drain flag: stdin is
/// pumped by a detached thread (a blocked `read_line` cannot be
/// interrupted), and `next` polls the drain between lines so a SIGTERM
/// with an idle stdin still winds the daemon down.
struct DrainingLines<'a> {
    rx: Receiver<String>,
    drain: &'a dyn Fn() -> bool,
}

impl Iterator for DrainingLines<'_> {
    type Item = String;
    fn next(&mut self) -> Option<String> {
        loop {
            if (self.drain)() {
                return None;
            }
            match self.rx.recv_timeout(Duration::from_millis(25)) {
                Ok(line) => return Some(line),
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

/// Runs the daemon over stdin/stdout until EOF, SIGTERM/SIGINT, or a
/// `shutdown` request; finishes in flight work before returning.
pub fn serve_stdio(
    config: &ServeConfig,
    executor: &ExecutorFn<'_>,
    telemetry: &Telemetry,
    bus: Option<Arc<EventBus>>,
) -> Result<ServeSummary, String> {
    signals::install_shutdown_handler();
    let drain_flag = Arc::new(AtomicBool::new(false));
    let (line_tx, line_rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            if line_tx.send(line).is_err() {
                break;
            }
        }
    });
    // The server drains through the SAME flag the line iterator polls:
    // a `shutdown` request flips it from inside `handle_line`, so the
    // iterator wakes within one poll interval even while stdin stays
    // open and idle — the daemon never waits for another line to notice.
    let flag = drain_flag.clone();
    let drain = move || flag.load(Ordering::SeqCst) || signals::shutdown_signaled();
    let lines = DrainingLines {
        rx: line_rx,
        drain: &drain,
    };
    let mut stdout = std::io::stdout();
    serve_lines_shared(
        config,
        executor,
        telemetry,
        bus,
        lines,
        &mut stdout,
        drain_flag,
    )
}

/// Binds `socket_path` and serves connections until SIGTERM/SIGINT or a
/// `shutdown` request, then drains gracefully: stop accepting, half-close
/// every connection's read side, finish in-flight work, remove the
/// socket file.
pub fn serve_socket(
    socket_path: &Path,
    config: &ServeConfig,
    executor: &ExecutorFn<'_>,
    telemetry: &Telemetry,
    bus: Option<Arc<EventBus>>,
) -> Result<ServeSummary, String> {
    signals::install_shutdown_handler();
    // A stale socket file from a `kill -9` would make bind fail; crash-only
    // startup removes it (connections to the dead daemon are gone anyway).
    match std::fs::remove_file(socket_path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(format!(
                "cannot remove stale socket `{}`: {e}",
                socket_path.display()
            ))
        }
    }
    let listener = UnixListener::bind(socket_path)
        .map_err(|e| format!("cannot bind `{}`: {e}", socket_path.display()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure listener: {e}"))?;
    let server = Server::new(
        config,
        executor,
        telemetry,
        bus,
        Arc::new(AtomicBool::new(false)),
    )?;
    // Live connections only: each writer removes its own entry when the
    // connection finishes, so a long-running daemon holds fds for open
    // connections, not for every connection it ever accepted.
    let streams: Mutex<BTreeMap<u64, UnixStream>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..config.workers.max(1) {
            s.spawn(|| server.worker_loop());
        }
        let mut readers = Vec::new();
        let mut conn = 0u64;
        let mut last_accept_err: Option<std::io::ErrorKind> = None;
        while !server.draining() {
            // Finished connections joined lazily here; the scope joins
            // whatever is still running at drain.
            readers.retain(|r: &std::thread::ScopedJoinHandle<'_, ()>| !r.is_finished());
            match listener.accept() {
                Ok((stream, _addr)) => {
                    last_accept_err = None;
                    conn += 1;
                    let conn_id = format!("conn-{conn}");
                    if let Some(line) = server.accept_fault(&conn_id) {
                        let mut stream = stream;
                        let _ = stream.write_all(line.as_bytes());
                        let _ = stream.write_all(b"\n");
                        continue;
                    }
                    let Ok(read_half) = stream.try_clone() else {
                        continue;
                    };
                    if let Ok(clone) = stream.try_clone() {
                        lock(&streams).insert(conn, clone);
                    }
                    let (tx, rx) = mpsc::channel::<Reply>();
                    let server = &server;
                    let streams = &streams;
                    s.spawn(move || {
                        let mut write_half = stream;
                        write_ordered(&mut write_half, rx);
                        // The drain registry holds a dup of this socket, so
                        // dropping `write_half` alone would never EOF a
                        // client reading to connection close — half-close
                        // explicitly once every response is out.
                        let _ = write_half.shutdown(std::net::Shutdown::Write);
                        // Connection done: release its registry fd.
                        lock(streams).remove(&conn);
                    });
                    readers.push(s.spawn(move || {
                        let lines = BufReader::new(read_half).lines().map_while(Result::ok);
                        server.reader_loop(lines, tx);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(e) => {
                    // Transient accept failures (EMFILE under fd pressure,
                    // ECONNABORTED, EINTR) shed that one connection; a
                    // long-running daemon must not die over them. Warn once
                    // per error kind to avoid log storms, then keep
                    // accepting — drain remains the only exit.
                    if last_accept_err != Some(e.kind()) {
                        last_accept_err = Some(e.kind());
                        eprintln!("gcatch: warning: accept failed (will keep serving): {e}");
                    }
                    std::thread::sleep(Duration::from_millis(15));
                }
            }
        }
        // Drain: half-close every live connection so blocked readers see
        // EOF, join them, then let the pool finish what is queued.
        for stream in lock(&streams).values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        for reader in readers {
            let _ = reader.join();
        }
        server.close_queue();
    });
    let _ = std::fs::remove_file(socket_path);
    Ok(server.summary())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gcatch-serve-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_request_accepts_any_field_order() {
        let a = parse_request(r#"{"id":"r1","op":"check","module":"m.go"}"#).unwrap();
        let b = parse_request(r#"{"module":"m.go","op":"check","id":"r1"}"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.op, Op::Work(WorkKind::Check));
        let c = parse_request(r#"{"id":"r2","op":"explain","module":"m.go","timeout_ms":250}"#)
            .unwrap();
        assert_eq!(c.timeout_ms, Some(250));
        let d = parse_request(r#"{"id":"s","op":"status"}"#).unwrap();
        assert_eq!(d.op, Op::Status);
        assert_eq!(d.module, None);
    }

    #[test]
    fn parse_request_rejects_malformed_lines() {
        assert!(parse_request("").is_err());
        assert!(parse_request("not json").is_err());
        assert!(
            parse_request(r#"{"op":"check","module":"m.go"}"#).is_err(),
            "missing id"
        );
        assert!(
            parse_request(r#"{"id":"r","op":"fly"}"#).is_err(),
            "unknown op"
        );
        assert!(
            parse_request(r#"{"id":"r","op":"check"}"#).is_err(),
            "missing module"
        );
        assert!(
            parse_request(r#"{"id":"r","op":"status","bogus":"x"}"#).is_err(),
            "unknown field"
        );
        assert!(
            parse_request(r#"{"id":"r","op":"check","module":"m","timeout_ms":"50"}"#).is_err(),
            "mistyped timeout"
        );
        assert!(parse_request(r#"{"id":"r","op":"status"} trailing"#).is_err());
        let dup = parse_request(r#"{"id":"a","id":"b","op":"status"}"#).unwrap_err();
        assert!(dup.contains("duplicate field `id`"), "{dup}");
        assert!(
            parse_request(
                r#"{"id":"c","op":"check","module":"examples/batch/clean_buffered.go","module":"examples/figure1.go"}"#
            )
            .is_err(),
            "a repeated module must not silently pick the last one"
        );
        assert!(
            parse_request(r#"{"id":"\ud83d","op":"status"}"#).is_err(),
            "lone surrogate"
        );
    }

    #[test]
    fn parse_request_decodes_surrogate_pairs() {
        // What Python's `json.dumps({"id": "🙂", "op": "status"})` prints.
        let req = parse_request(r#"{"id": "\ud83d\ude42", "op": "status"}"#).unwrap();
        assert_eq!(req.id, "\u{1F642}");
        assert_eq!(req.op, Op::Status);
    }

    #[test]
    fn cache_round_trips_and_heals_corruption() {
        let dir = scratch("cache");
        {
            let (mut cache, load) = ResponseCache::open(Some(&dir), 8, "fp1").unwrap();
            assert_eq!(load, CacheLoad::default());
            cache
                .insert("check:aaaa", "m1.go", "{\"bugs\":1}", false)
                .unwrap();
            cache
                .insert("check:bbbb", "m2.go", "{\"bugs\":0}", false)
                .unwrap();
            // Injected corruption: persisted torn, in-memory intact.
            cache
                .insert("check:cccc", "m3.go", "{\"bugs\":2}", true)
                .unwrap();
            assert_eq!(cache.len(), 3);
        }
        // Simulate a crash mid-append: torn final line.
        let index = dir.join(CACHE_INDEX);
        let mut contents = std::fs::read_to_string(&index).unwrap();
        contents.push_str("{\"key\":\"check:dddd\",\"mod");
        std::fs::write(&index, &contents).unwrap();

        let (cache, load) = ResponseCache::open(Some(&dir), 8, "fp1").unwrap();
        assert_eq!(load.restored, 2, "intact entries survive");
        assert_eq!(load.dropped, 2, "corrupt + torn entries dropped");
        assert_eq!(cache.get("check:aaaa").unwrap(), "{\"bugs\":1}");
        assert_eq!(cache.get("check:bbbb").unwrap(), "{\"bugs\":0}");
        assert!(cache.get("check:cccc").is_none());

        // The compacted index reloads cleanly byte-for-byte.
        let first = std::fs::read_to_string(&index).unwrap();
        let (_, load2) = ResponseCache::open(Some(&dir), 8, "fp1").unwrap();
        assert_eq!(load2.dropped, 0);
        assert_eq!(load2.restored, 2);
        assert_eq!(first, std::fs::read_to_string(&index).unwrap());

        // A different config fingerprint discards everything.
        let (cache, load3) = ResponseCache::open(Some(&dir), 8, "fp2").unwrap();
        assert!(cache.is_empty());
        assert_eq!(load3.restored, 0);
        assert!(load3.dropped >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_responses_share_one_body_until_the_last_is_evicted() {
        let dir = scratch("bodies");
        let (mut cache, _) = ResponseCache::open(Some(&dir), 2, "fp").unwrap();
        cache
            .insert("check:1111", "m.go", "{\"bugs\":1}", false)
            .unwrap();
        cache
            .insert("check:2222", "m.go", "{\"bugs\":1}", false)
            .unwrap();
        assert_eq!(cache.bodies.len(), 1, "one copy for two entries");
        // Capacity 2: this evicts the first entry, whose body stays shared.
        cache
            .insert("check:3333", "m.go", "{\"bugs\":0}", false)
            .unwrap();
        assert_eq!(cache.bodies.len(), 2);
        assert_eq!(cache.get("check:2222"), Some("{\"bugs\":1}"));
        // Evicting the last holder drops the body too.
        cache
            .insert("check:4444", "m.go", "{\"bugs\":0}", false)
            .unwrap();
        assert_eq!(cache.bodies.len(), 1);
        assert!(cache.get("check:2222").is_none());
        // Reloading interns again: both surviving entries share one body.
        let (reloaded, load) = ResponseCache::open(Some(&dir), 2, "fp").unwrap();
        assert_eq!(load.restored, 2);
        assert_eq!(reloaded.bodies.len(), 1);
        assert_eq!(reloaded.get("check:4444"), Some("{\"bugs\":0}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_injection_truncates_at_a_char_boundary() {
        let dir = scratch("utf8");
        let (mut cache, _) = ResponseCache::open(Some(&dir), 8, "fp").unwrap();
        // Multibyte result text: growing a run of 2-byte characters one
        // character at a time moves the line midpoint by one byte per
        // step, so consecutive lengths are guaranteed to put the midpoint
        // inside a character at least once — the truncation must back up
        // to a boundary instead of panicking.
        // The run must dominate the line so the midpoint lands inside it:
        // the fixed prefix (key + module + field syntax) is 74 bytes, so
        // an 80+ byte run puts the midpoint in the run, and stepping the
        // length makes its run-relative offset hit both parities.
        for i in 0..4 {
            let key = format!("check:{i:016x}");
            let result = format!("{{\"text\":\"{}\"}}", "é".repeat(40 + i));
            cache.insert(&key, "mödülé.go", &result, true).unwrap();
        }
        assert_eq!(cache.len(), 4, "in-memory entries stay intact");
        // Every persisted line was torn: the reload drops them all.
        let (reloaded, load) = ResponseCache::open(Some(&dir), 8, "fp").unwrap();
        assert!(reloaded.is_empty());
        assert_eq!(load.dropped, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_key_separates_deadlines_from_untimed_requests() {
        let src = "package m\n";
        let untimed = cache_key(WorkKind::Check, src, None);
        let timed = cache_key(WorkKind::Check, src, Some(50));
        assert_ne!(untimed, timed, "a deadline shapes result bytes");
        assert_ne!(timed, cache_key(WorkKind::Check, src, Some(51)));
        assert!(timed.starts_with(&untimed), "untimed key format unchanged");
    }

    #[test]
    fn timed_requests_never_replay_untimed_cache_entries() {
        crate::signals::reset_for_tests();
        let dir = scratch("timedkey");
        let m = module_file(&dir, "m.go", "package m\n");
        let config = ServeConfig {
            workers: 1,
            cache_dir: Some(dir.join("cache")),
            ..ServeConfig::default()
        };
        // Untimed first: populates the bare-key entry.
        let (lines, summary) = run(
            &config,
            vec![format!(r#"{{"id":"r1","op":"check","module":"{m}"}}"#)],
        );
        assert!(lines[0].contains(r#""ok":true"#), "{}", lines[0]);
        assert_eq!(summary.cache_hits, 0);
        // Same module under a deadline, on a warm restart: must be
        // computed fresh, not served from the untimed entry.
        let timed = format!(r#"{{"id":"r2","op":"check","module":"{m}","timeout_ms":5000}}"#);
        let (lines, summary) = run(&config, vec![timed.clone()]);
        assert!(lines[0].contains(r#""ok":true"#), "{}", lines[0]);
        assert_eq!(summary.cache_warm, 1, "untimed entry restored");
        assert_eq!(summary.cache_hits, 0, "a deadline never replays untimed");
        // An identical timed request does hit the timed entry.
        let (_, summary) = run(&config, vec![timed]);
        assert_eq!(summary.cache_warm, 2);
        assert_eq!(summary.cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_evicts_oldest_past_capacity() {
        let dir = scratch("evict");
        let (mut cache, _) = ResponseCache::open(Some(&dir), 2, "fp").unwrap();
        assert_eq!(cache.insert("k1", "m", "1", false).unwrap(), 0);
        assert_eq!(cache.insert("k2", "m", "2", false).unwrap(), 0);
        assert_eq!(
            cache.insert("k3", "m", "3", false).unwrap(),
            1,
            "k1 evicted"
        );
        assert!(cache.get("k1").is_none());
        assert!(cache.get("k2").is_some() && cache.get("k3").is_some());
        // Eviction compacts the on-disk index too.
        let (reloaded, load) = ResponseCache::open(Some(&dir), 2, "fp").unwrap();
        assert_eq!(load.restored, 2);
        assert!(reloaded.get("k1").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inserts_after_an_evicting_compaction_survive_a_reload() {
        let dir = scratch("compact-append");
        let (mut cache, _) = ResponseCache::open(Some(&dir), 2, "fp").unwrap();
        cache.insert("k1", "m", "1", false).unwrap();
        cache.insert("k2", "m", "2", false).unwrap();
        assert_eq!(cache.insert("k3", "m", "3", false).unwrap(), 1, "compacts");
        assert_eq!(cache.insert("k4", "m", "4", false).unwrap(), 1);
        drop(cache);
        let (reloaded, load) = ResponseCache::open(Some(&dir), 2, "fp").unwrap();
        assert_eq!(
            load,
            CacheLoad {
                restored: 2,
                dropped: 0
            }
        );
        assert_eq!(reloaded.get("k4"), Some("4"), "the insert after compaction");
        assert_eq!(reloaded.get("k3"), Some("3"));

        // A load that drops a line compacts, and the next append lands in
        // the compacted file.
        let index = dir.join(CACHE_INDEX);
        let mut text = std::fs::read_to_string(&index).unwrap();
        text.push_str("garbage\n");
        std::fs::write(&index, text).unwrap();
        let (mut cache, load) = ResponseCache::open(Some(&dir), 8, "fp").unwrap();
        assert_eq!(
            load,
            CacheLoad {
                restored: 2,
                dropped: 1
            }
        );
        cache.insert("k5", "m", "5", false).unwrap();
        drop(cache);
        let (reloaded, load) = ResponseCache::open(Some(&dir), 8, "fp").unwrap();
        assert_eq!(
            load,
            CacheLoad {
                restored: 3,
                dropped: 0
            }
        );
        assert_eq!(reloaded.get("k5"), Some("5"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_an_intact_index_keeps_its_inode_and_bytes() {
        use std::os::unix::fs::MetadataExt;
        let dir = scratch("intact");
        // An index as the previous cache code wrote it, byte for byte.
        let old = concat!(
            r#"{"gcatch_serve_cache":1,"config":"v1;alias-mode=default"}"#,
            "\n",
            "{\"key\":\"check:00000000000000aa\",\"module\":\"m\u{e9}.go\",\"result\":{\"version\":1,\"diagnostics\":[]}}\n",
            r#"{"key":"explain:00000000000000bb:t50","module":"dir/\"q\".go","result":{"diagnostics":0,"explain":"a\nb"}}"#,
            "\n",
        );
        let index = dir.join(CACHE_INDEX);
        std::fs::write(&index, old).unwrap();
        let ino = std::fs::metadata(&index).unwrap().ino();
        let (cache, load) = ResponseCache::open(Some(&dir), 8, "v1;alias-mode=default").unwrap();
        assert_eq!(
            load,
            CacheLoad {
                restored: 2,
                dropped: 0
            }
        );
        assert_eq!(
            cache.get("explain:00000000000000bb:t50"),
            Some(r#"{"diagnostics":0,"explain":"a\nb"}"#)
        );
        drop(cache);
        assert_eq!(
            std::fs::metadata(&index).unwrap().ino(),
            ino,
            "not rewritten"
        );
        assert_eq!(std::fs::read_to_string(&index).unwrap(), old);

        // A fresh cache writes the same entries as the very same bytes.
        let fresh = scratch("intact-fresh");
        let (mut cache, _) = ResponseCache::open(Some(&fresh), 8, "v1;alias-mode=default").unwrap();
        cache
            .insert(
                "check:00000000000000aa",
                "m\u{e9}.go",
                r#"{"version":1,"diagnostics":[]}"#,
                false,
            )
            .unwrap();
        cache
            .insert(
                "explain:00000000000000bb:t50",
                "dir/\"q\".go",
                r#"{"diagnostics":0,"explain":"a\nb"}"#,
                false,
            )
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(fresh.join(CACHE_INDEX)).unwrap(),
            old
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh);
    }

    fn module_file(dir: &Path, name: &str, body: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// An executor that answers instantly, panics on modules containing
    /// "boom", and sleeps on modules containing "slow".
    fn stub_executor() -> Box<ExecutorFn<'static>> {
        Box::new(|op, module, source, _budget| {
            if source.contains("boom") {
                panic!("stub exploded on {module}");
            }
            if source.contains("slow") {
                std::thread::sleep(Duration::from_millis(300));
            }
            Ok(format!(
                "{{\"op\":\"{}\",\"len\":{}}}",
                op.name(),
                source.len()
            ))
        })
    }

    fn run(config: &ServeConfig, lines: Vec<String>) -> (Vec<String>, ServeSummary) {
        let telemetry = Telemetry::new();
        let executor = stub_executor();
        let mut out: Vec<u8> = Vec::new();
        let summary = serve_lines(
            config,
            &*executor,
            &telemetry,
            None,
            lines.into_iter(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_string).collect(), summary)
    }

    #[test]
    fn responses_echo_ids_in_request_order() {
        crate::signals::reset_for_tests();
        let dir = scratch("order");
        let m1 = module_file(&dir, "a.go", "package a\n");
        let m2 = module_file(&dir, "b.go", "package b // longer\n");
        let config = ServeConfig::default();
        let (lines, summary) = run(
            &config,
            vec![
                format!(r#"{{"id":"r1","op":"check","module":"{m1}"}}"#),
                format!(r#"{{"id":"r2","op":"explain","module":"{m2}"}}"#),
                r#"{"id":"r3","op":"status"}"#.to_string(),
            ],
        );
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].starts_with(r#"{"id":"r1","ok":true,"op":"check""#),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with(r#"{"id":"r2","ok":true,"op":"explain""#),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains(r#""op":"status""#), "{}", lines[2]);
        assert!(lines[2].contains(r#""requests_total":"#));
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.failed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each executor call sees the request it runs for: its arrival index
    /// and its id, also after an earlier call on the same thread panicked.
    #[test]
    fn the_executor_sees_its_own_request() {
        crate::signals::reset_for_tests();
        let dir = scratch("scope");
        let good = module_file(&dir, "a.go", "package a\n");
        let bad = module_file(&dir, "b.go", "package b // boom\n");
        let executor = |_: WorkKind, _: &str, source: &str, _: &Budget| {
            let (arrival, id) = current_request().expect("inside a request");
            assert!(!source.contains("boom"), "boom");
            Ok(format!("{{\"arrival\":{arrival},\"id\":\"{id}\"}}"))
        };
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let lines = [
            ("r1", "check", &good),
            ("r2", "check", &bad),
            ("r3", "explain", &good),
        ]
        .map(|(id, op, m)| format!(r#"{{"id":"{id}","op":"{op}","module":"{m}"}}"#));
        let mut out: Vec<u8> = Vec::new();
        let telemetry = Telemetry::new();
        serve_lines(
            &config,
            &executor,
            &telemetry,
            None,
            lines.into_iter(),
            &mut out,
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines[0].ends_with(r#""result":{"arrival":0,"id":"r1"}}"#),
            "{out}"
        );
        assert!(lines[1].contains(r#""ok":false"#), "{out}");
        assert!(
            lines[2].ends_with(r#""result":{"arrival":2,"id":"r3"}}"#),
            "{out}"
        );
        assert_eq!(current_request(), None, "no request outside a call");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_is_contained_and_later_requests_still_answer() {
        crate::signals::reset_for_tests();
        let dir = scratch("panic");
        let bad = module_file(&dir, "bad.go", "package bad // boom\n");
        let good = module_file(&dir, "good.go", "package good\n");
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let (lines, summary) = run(
            &config,
            vec![
                format!(r#"{{"id":"r1","op":"check","module":"{bad}"}}"#),
                format!(r#"{{"id":"r2","op":"check","module":"{good}"}}"#),
            ],
        );
        assert!(lines[0].contains(r#""ok":false"#), "{}", lines[0]);
        assert!(lines[0].contains("stub exploded"), "{}", lines[0]);
        assert!(lines[0].contains(r#""kind":"request""#), "{}", lines[0]);
        assert!(lines[1].contains(r#""ok":true"#), "{}", lines[1]);
        assert_eq!(summary.failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_identical_request_is_a_cache_hit_with_identical_bytes() {
        crate::signals::reset_for_tests();
        let dir = scratch("hit");
        let m = module_file(&dir, "m.go", "package m\n");
        let config = ServeConfig {
            cache_dir: Some(dir.join("cache")),
            ..ServeConfig::default()
        };
        let req = format!(r#"{{"id":"r1","op":"check","module":"{m}"}}"#);
        let (cold, summary) = run(&config, vec![req.clone()]);
        assert_eq!(summary.cache_hits, 0);
        assert_eq!(summary.cache_warm, 0);
        // A fresh daemon on the same cache dir starts warm and answers
        // from the cache with the exact bytes the cold daemon computed.
        let (warm, summary2) = run(&config, vec![req]);
        assert_eq!(summary2.cache_warm, 1);
        assert_eq!(summary2.cache_hits, 1);
        assert_eq!(cold, warm, "warm response is byte-identical to cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_expiry_is_a_deterministic_incident() {
        crate::signals::reset_for_tests();
        let dir = scratch("deadline");
        let slow = module_file(&dir, "slow.go", "package slow\n");
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let req = format!(r#"{{"id":"r1","op":"check","module":"{slow}","timeout_ms":20}}"#);
        let (lines, summary) = run(&config, vec![req]);
        assert!(
            lines[0].contains("request deadline of 20 ms expired"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains(r#""ok":false"#));
        assert_eq!(summary.failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outstanding_work_past_the_bound_is_shed_deterministically() {
        crate::signals::reset_for_tests();
        let dir = scratch("shed");
        let s1 = module_file(&dir, "s1-slow.go", "package s1 // slow\n");
        let s2 = module_file(&dir, "s2-slow.go", "package s2 // slow\n");
        let s3 = module_file(&dir, "s3-slow.go", "package s3 // slow\n");
        let config = ServeConfig {
            workers: 1,
            max_queue: 1,
            ..ServeConfig::default()
        };
        // Bound = workers + max_queue = 2: r1 and r2 admitted, r3 shed —
        // regardless of how quickly the pool dequeues r1.
        let lines_in = vec![
            format!(r#"{{"id":"r1","op":"check","module":"{s1}"}}"#),
            format!(r#"{{"id":"r2","op":"check","module":"{s2}"}}"#),
            format!(r#"{{"id":"r3","op":"check","module":"{s3}"}}"#),
        ];
        let (first, summary) = run(&config, lines_in.clone());
        assert!(first[2].contains(r#""overloaded":true"#), "{}", first[2]);
        assert!(first[2].contains("retry_after_ms"), "{}", first[2]);
        assert!(first[0].contains(r#""ok":true"#));
        assert!(first[1].contains(r#""ok":true"#));
        assert_eq!(summary.shed, 1);
        // Deterministic: the same request sequence sheds the same request
        // with the same response bytes.
        let (second, _) = run(&config, lines_in);
        assert_eq!(first[2], second[2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_request_drains_and_sheds_late_arrivals() {
        crate::signals::reset_for_tests();
        let dir = scratch("shutdown");
        let m = module_file(&dir, "m.go", "package m\n");
        let config = ServeConfig::default();
        let (lines, _) = run(
            &config,
            vec![
                r#"{"id":"q","op":"shutdown"}"#.to_string(),
                format!(r#"{{"id":"late","op":"check","module":"{m}"}}"#),
            ],
        );
        assert!(lines[0].contains(r#""draining":true"#), "{}", lines[0]);
        // The work request arriving after the shutdown ack is shed, not
        // silently dropped: the client still gets an answer per line.
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains(r#""overloaded":true"#), "{}", lines[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_are_deterministic_per_request_id() {
        crate::signals::reset_for_tests();
        let dir = scratch("faults");
        // One module per request: identical sources share a cache key, and
        // a response served from the cache never reaches the fault site,
        // which would make the injection pattern depend on completion
        // timing rather than on (seed, site, request id).
        let modules: Vec<String> = (0..8)
            .map(|i| module_file(&dir, &format!("m{i}.go"), &format!("package m{i}\n")))
            .collect();
        let plan = Arc::new(FaultPlan::new(0.5, 11).with_sites([SITE_SERVE_REQUEST]));
        let config = ServeConfig {
            workers: 1,
            plan: Some(plan),
            ..ServeConfig::default()
        };
        let lines_in: Vec<String> = (0..8)
            .map(|i| format!(r#"{{"id":"r{i}","op":"check","module":"{}"}}"#, modules[i]))
            .collect();
        let (first, summary) = run(&config, lines_in.clone());
        let (second, _) = run(&config, lines_in);
        assert_eq!(first, second, "same seed, same faults, same bytes");
        assert!(summary.failed > 0, "rate 0.5 over 8 requests must fire");
        assert!(
            first.iter().any(|l| l.contains("injected fault")),
            "incident responses carry the injection marker"
        );
        assert!(
            first.iter().any(|l| l.contains(r#""ok":true"#)),
            "rate 0.5 must also let some requests through"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accept_fault_is_contained_into_a_response_line() {
        crate::signals::reset_for_tests();
        let plan = Arc::new(FaultPlan::new(1.0, 1).with_sites([SITE_SERVE_ACCEPT]));
        let config = ServeConfig {
            plan: Some(plan),
            ..ServeConfig::default()
        };
        let (lines, _) = run(&config, vec![r#"{"id":"r1","op":"status"}"#.to_string()]);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains(r#""op":"accept""#), "{}", lines[0]);
        assert!(lines[0].contains("injected fault"), "{}", lines[0]);
    }

    #[test]
    fn unparseable_lines_get_an_incident_response() {
        crate::signals::reset_for_tests();
        let (lines, summary) = run(
            &ServeConfig::default(),
            vec!["this is not json".to_string()],
        );
        assert!(lines[0].contains(r#""ok":false"#), "{}", lines[0]);
        assert!(lines[0].contains("bad request"), "{}", lines[0]);
        assert_eq!(summary.failed, 1);
    }
}
