//! Warm per-module analysis sessions for `gcatch serve` (incremental
//! re-analysis).
//!
//! The daemon's response cache keys final *responses*: any edit, however
//! small, misses it and pays full module cost. This module adds warmth
//! below the response level. After every eligible `check`, the daemon keeps
//! a [`WarmEntry`] for the module path: the diffable shape of the lowered
//! IR ([`golite_ir::diff::ModuleShape`]), one [`ChannelRecord`] per
//! analyzed channel (its disentangling metadata plus its full outcome —
//! findings, witnesses, provenance, incident), and a snapshot of the
//! session's cross-channel solver-verdict cache.
//!
//! On the next `check` of the same path, [`warm_check`] diffs the new IR
//! against the cached shape at function granularity
//! ([`golite_ir::diff::module_diff`]): the changed functions, plus how far
//! every unchanged function moved. It computes the dirty set with the
//! memoized reverse-reachability of the alias analysis: a channel is
//! re-analyzed only if its Pset/scope can reach a changed function (see
//! `disentangle::influences`); every other channel's outcome is replayed
//! from the warm entry, moved onto the new text, and the re-analyzed
//! channels reuse the imported solver verdicts instead of rebuilding
//! encodings.
//!
//! # Soundness / byte-identity
//!
//! The correctness bar is the established one: a warm response must be
//! byte-identical to a cold daemon and to single-shot `gcatch check
//! --json`. Replay is therefore gated on *everything* a channel's analysis
//! reads being provably unchanged up to a move:
//!
//! * function fingerprints cover the CFG dump, all source spans relative
//!   to the function's own position, register names/types, and the
//!   `FuncId` itself, so a replayed report's `Loc`s are valid in the new
//!   module and each of its spans sits at a known offset;
//! * shapes are incomparable (full cold re-analysis) when module-level
//!   items change — globals, structs, or the function roster;
//! * the channel's scope root, Pset member sites, creation-site metadata,
//!   and the operation lists of every Pset member must be identical, with
//!   spans compared relative to their functions;
//! * no changed function may be inside the channel's scope, reach into it,
//!   or hold an operation of a Pset member;
//! * every span in the recorded findings — the primitive's, each
//!   operation's, each witness step's — is rebased by the shift of the
//!   function it lies in; a span in a function without a shift (a changed
//!   one) sends the channel to re-analysis instead.
//!
//! Sessions are memory-only by design (crash-only: a killed daemon
//! restarts cold and falls back to the persisted response cache), bounded
//! by `--max-sessions` with least-recently-used eviction, and bypassed
//! entirely for non-`check` ops, deadline-bearing requests, and fault
//! plans that can fire anywhere but the `serve.session` site.

use crate::detector::{DetectorConfig, GroupKey};
use crate::diagnostics::render_json_with;
use crate::faults;
use crate::primitives::{OpKind, PrimId, PrimKind, Primitive, Primitives};
use crate::report::BugReport;
use crate::resilience::Incident;
use crate::trace::TraceLevel;
use crate::{checkers::Selection, GCatch};
use golite_ir::diff::{hash_span, module_diff, module_shape, ModuleDiff, ModuleShape};
use golite_ir::fnv::Fnv;
use golite_ir::ir::{FuncId, Loc, Module};
use golite_ir::AliasMode;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn hash_loc(h: &mut Fnv, loc: Loc) {
    h.u32(loc.func.0).u32(loc.block.0).u32(loc.idx);
}

/// Fingerprint of a channel's creation site: kind, buffer size, name, site,
/// and source span relative to its function. Two records only match if the
/// primitive itself is the same, wherever its function now sits.
pub(crate) fn channel_meta(module: &Module, prim: &Primitive) -> u64 {
    let mut h = Fnv::new();
    match prim.kind {
        PrimKind::Chan { buffer } => {
            h.u8(0);
            match buffer {
                Some(n) => h.u8(1).i64(n),
                None => h.u8(0),
            };
        }
        PrimKind::Mutex { rw } => {
            h.u8(1).u8(u8::from(rw));
        }
    }
    h.str(&prim.name);
    hash_loc(&mut h, prim.site);
    hash_span(&mut h, prim.span, module.func(prim.site.func).span);
    h.finish()
}

/// Fingerprint of the operation lists of every Pset member, in Pset order,
/// with spans relative to their functions. Operations are alias-analysis
/// products, so comparing old vs new op hashes catches points-to changes
/// the function diff alone cannot see (an edit far away adding or removing
/// an aliased operation).
pub(crate) fn ops_hash(module: &Module, prims: &Primitives, pset: &[PrimId]) -> u64 {
    let mut h = Fnv::new();
    for &p in pset {
        h.u8(b'p');
        for op in prims.ops_of(p) {
            h.u8(match op.kind {
                OpKind::Send => 0,
                OpKind::Recv => 1,
                OpKind::Close => 2,
            });
            hash_loc(&mut h, op.loc);
            hash_span(&mut h, op.span, module.func(op.loc.func).span);
            match op.select_case {
                Some(case) => h.u8(1).len(case),
                None => h.u8(0),
            };
            h.u8(u8::from(op.from_mutex));
        }
    }
    h.finish()
}

/// One recorded report moved onto the new module's text: the primitive's
/// span, every operation's span, and every witness step's span, each by
/// the shift of the function it lies in. `None` when any of them lies in a
/// function without a shift (a changed one).
fn rebase_report(diff: &ModuleDiff, report: &BugReport) -> Option<BugReport> {
    let mut out = report.clone();
    let site = report.primitive?;
    out.primitive_span = diff.shift(site.func)?.apply(report.primitive_span);
    for op in &mut out.ops {
        op.span = diff.shift(op.loc.func)?.apply(op.span);
    }
    for step in &mut out.witness_order {
        if let Some((loc, span)) = &mut step.at {
            *span = diff.shift(loc.func)?.apply(*span);
        }
    }
    Some(out)
}

/// One channel's cached analysis: the disentangling metadata replay is
/// gated on, plus the full outcome to replay.
#[derive(Debug, Clone)]
pub struct ChannelRecord {
    pub(crate) site: Loc,
    pub(crate) meta: u64,
    pub(crate) ops_hash: u64,
    pub(crate) root: FuncId,
    pub(crate) pset_sites: Vec<Loc>,
    pub(crate) findings: Vec<(GroupKey, BugReport)>,
    pub(crate) incident: Option<Incident>,
}

/// Everything the daemon keeps warm for one module path.
pub struct WarmEntry {
    /// Diffable shape of the lowered module this entry was built against.
    pub shape: ModuleShape,
    /// Per-channel outcomes keyed by creation site.
    pub(crate) records: HashMap<Loc, ChannelRecord>,
    /// Cross-channel solver-outcome snapshot
    /// ([`EncodingCache::export`](crate::constraints::EncodingCache::export)).
    pub encodings: Vec<(Vec<u64>, crate::constraints::Outcome)>,
}

impl fmt::Debug for WarmEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WarmEntry")
            .field(
                "fingerprint",
                &format_args!("{:016x}", self.shape.fingerprint),
            )
            .field("channels", &self.records.len())
            .field("encodings", &self.encodings.len())
            .finish()
    }
}

/// Per-request incremental context, threaded to the BMOC driver through
/// [`DetectorConfig::warm`]. Carries the prior entry and its diff against
/// the new module in; carries the harvested records and replay counts out.
pub struct WarmCheck {
    prior: Option<Arc<WarmEntry>>,
    diff: ModuleDiff,
    harvest: Mutex<HashMap<Loc, ChannelRecord>>,
    replayed: AtomicU64,
    reanalyzed: AtomicU64,
}

impl fmt::Debug for WarmCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WarmCheck")
            .field("prior", &self.prior.is_some())
            .field("changed", &self.diff.changed.len())
            .finish()
    }
}

impl WarmCheck {
    fn new(prior: Option<Arc<WarmEntry>>, diff: ModuleDiff) -> WarmCheck {
        WarmCheck {
            prior,
            diff,
            harvest: Mutex::new(HashMap::new()),
            replayed: AtomicU64::new(0),
            reanalyzed: AtomicU64::new(0),
        }
    }

    /// The prior record for a channel creation site, if any.
    pub(crate) fn prior_record(&self, site: Loc) -> Option<&ChannelRecord> {
        self.prior.as_ref()?.records.get(&site)
    }

    /// Functions whose fingerprint changed since the prior entry.
    pub(crate) fn changed(&self) -> &[FuncId] {
        &self.diff.changed
    }

    /// A prior record's findings moved onto the new module's text, or
    /// `None` when a span lies in a changed function — the channel is then
    /// re-analyzed, which is always sound.
    pub(crate) fn rebase(
        &self,
        findings: &[(GroupKey, BugReport)],
    ) -> Option<Vec<(GroupKey, BugReport)>> {
        findings
            .iter()
            .map(|(key, report)| Some((key.clone(), rebase_report(&self.diff, report)?)))
            .collect()
    }

    /// Counts one channel decision.
    pub(crate) fn note(&self, replayed: bool) {
        if replayed {
            self.replayed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reanalyzed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one channel's fresh (or replayed) outcome for the next
    /// request's entry.
    pub(crate) fn record(&self, record: ChannelRecord) {
        self.harvest
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(record.site, record);
    }
}

/// The daemon's warm-session store: one [`WarmEntry`] per module path,
/// bounded by `--max-sessions` with LRU eviction. Memory-only on purpose —
/// a restarted daemon must fall back to the response cache / cold path.
pub struct WarmSessions {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Arc<WarmEntry>>,
    /// Recency order, oldest first.
    order: Vec<String>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl fmt::Debug for WarmSessions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("WarmSessions")
            .field("capacity", &self.capacity)
            .field("resident", &inner.entries.len())
            .field("hits", &inner.hits)
            .field("misses", &inner.misses)
            .field("evictions", &inner.evictions)
            .finish()
    }
}

impl WarmSessions {
    /// An empty store holding at most `capacity` module sessions
    /// (`capacity` must be non-zero; `--max-sessions 0` disables the store
    /// by not constructing one).
    pub fn new(capacity: usize) -> WarmSessions {
        WarmSessions {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident session count.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether no sessions are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches (and freshens) the entry for a module path.
    fn get(&self, path: &str) -> Option<Arc<WarmEntry>> {
        let mut inner = self.lock();
        let entry = inner.entries.get(path).cloned()?;
        if let Some(pos) = inner.order.iter().position(|p| p == path) {
            let p = inner.order.remove(pos);
            inner.order.push(p);
        }
        Some(entry)
    }

    /// Installs (or replaces) the entry for a module path, evicting the
    /// least-recently-used sessions past capacity. Returns how many were
    /// evicted.
    fn insert(&self, path: &str, entry: WarmEntry) -> u64 {
        let mut inner = self.lock();
        if inner
            .entries
            .insert(path.to_string(), Arc::new(entry))
            .is_some()
        {
            if let Some(pos) = inner.order.iter().position(|p| p == path) {
                inner.order.remove(pos);
            }
        }
        inner.order.push(path.to_string());
        let mut evicted = 0;
        while inner.entries.len() > self.capacity {
            let oldest = inner.order.remove(0);
            inner.entries.remove(&oldest);
            evicted += 1;
        }
        inner.evictions += evicted;
        evicted
    }

    /// Drops the entry for a module path (injected `serve.session` fault).
    /// Returns whether an entry was actually dropped.
    pub fn evict(&self, path: &str) -> bool {
        let mut inner = self.lock();
        let dropped = inner.entries.remove(path).is_some();
        if dropped {
            inner.order.retain(|p| p != path);
            inner.evictions += 1;
        }
        dropped
    }

    /// The `status` payload fragment: occupancy, hit/miss/eviction counts,
    /// and the resident modules with their shape fingerprints (sorted by
    /// path for determinism).
    pub fn status_json(&self) -> String {
        let inner = self.lock();
        let mut paths: Vec<&String> = inner.entries.keys().collect();
        paths.sort();
        let mut out = format!(
            "{{\"capacity\":{},\"resident\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"modules\":[",
            self.capacity,
            inner.entries.len(),
            inner.hits,
            inner.misses,
            inner.evictions,
        );
        for (i, path) in paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let fp = inner.entries[*path].shape.fingerprint;
            out.push_str("{\"module\":\"");
            crate::codec::escape_json(path, &mut out);
            out.push_str(&format!("\",\"fingerprint\":\"{fp:016x}\"}}"));
        }
        out.push_str("]}");
        out
    }
}

/// What one warm `check` did, for the daemon's telemetry and events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmOutcome {
    /// The exact `gcatch check --json` report bytes.
    pub json: String,
    /// Whether a comparable prior session contributed to this response.
    pub reused: bool,
    /// Channels replayed from the warm session.
    pub replayed: u64,
    /// Channels re-analyzed because the diff could reach them.
    pub reanalyzed: u64,
    /// Sessions evicted while serving this request (LRU pressure,
    /// injected `serve.session` fault, or incomparable module shape).
    pub evicted: u64,
    /// Whether an injected `serve.session` fault killed the warmth.
    pub fault_evicted: bool,
}

/// Runs one `check` request against the warm store: diff, replay, harvest.
///
/// The caller has already established eligibility (op is `check`, no
/// request deadline, `--max-sessions > 0`, and any fault plan restricted
/// to the `serve.session` site); this function handles the `serve.session`
/// fault draw itself and degrades to a cold analysis — never to a wrong
/// response.
pub fn warm_check(
    store: &WarmSessions,
    path: &str,
    source: &str,
    base: &DetectorConfig,
    alias: AliasMode,
) -> Result<WarmOutcome, String> {
    // Injected session loss: evict and run the request cold, without
    // re-warming (the next clean request warms the store again).
    if faults::armed() && faults::should_inject(faults::SITE_SERVE_SESSION, path) {
        let evicted = store.evict(path);
        let module = golite_ir::lower_source(source)?;
        let gcatch = GCatch::with_options(&module, TraceLevel::Off, alias);
        let diagnostics = gcatch.diagnostics(base, &Selection::default());
        let incidents = gcatch.incidents();
        return Ok(WarmOutcome {
            json: render_json_with(&diagnostics, None, &incidents),
            reused: false,
            replayed: 0,
            reanalyzed: 0,
            evicted: u64::from(evicted),
            fault_evicted: true,
        });
    }

    let module = golite_ir::lower_source(source)?;
    let shape = module_shape(&module);
    let prior = store.get(path);
    let mut evicted = 0u64;
    let (prior, diff) = match prior {
        Some(entry) => match module_diff(&entry.shape, &shape) {
            Some(diff) => {
                store.lock().hits += 1;
                (Some(entry), diff)
            }
            None => {
                // Incomparable shape (toplevel items changed): the stale
                // session is useless — count its replacement as an
                // eviction and run cold.
                store.lock().evictions += 1;
                store.lock().misses += 1;
                evicted += 1;
                (None, ModuleDiff::default())
            }
        },
        None => {
            store.lock().misses += 1;
            (None, ModuleDiff::default())
        }
    };
    let reused = prior.is_some();

    let gcatch = GCatch::with_options(&module, TraceLevel::Off, alias);
    if let Some(entry) = &prior {
        gcatch.session().seed_encodings(&entry.encodings);
    }
    let warm = Arc::new(WarmCheck::new(prior, diff));
    let mut config = base.clone();
    config.warm = Some(warm.clone());
    let diagnostics = gcatch.diagnostics(&config, &Selection::default());
    let incidents = gcatch.incidents();
    let json = render_json_with(&diagnostics, None, &incidents);

    let records = std::mem::take(&mut *warm.harvest.lock().unwrap_or_else(|e| e.into_inner()));
    let entry = WarmEntry {
        shape,
        records,
        encodings: gcatch.session().export_encodings(),
    };
    evicted += store.insert(path, entry);

    Ok(WarmOutcome {
        json,
        reused,
        replayed: warm.replayed.load(Ordering::Relaxed),
        reanalyzed: warm.reanalyzed.load(Ordering::Relaxed),
        evicted,
        fault_evicted: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEAKY: &str = r#"
package main

func tweak(n int) int {
    return n + 1
}

func leaker() {
    ch := make(chan int, 0)
    go func() {
        ch <- 1
    }()
}

func safe() {
    done := make(chan int, 1)
    done <- tweak(1)
    <-done
}

func main() {
    leaker()
    safe()
}
"#;

    fn cold_json(source: &str) -> String {
        let module = golite_ir::lower_source(source).unwrap();
        let gcatch = GCatch::new(&module);
        let diagnostics = gcatch.diagnostics(&DetectorConfig::default(), &Selection::default());
        render_json_with(&diagnostics, None, &gcatch.incidents())
    }

    #[test]
    fn warm_replay_is_byte_identical_and_scoped() {
        let store = WarmSessions::new(4);
        let base = DetectorConfig::default();
        let first = warm_check(&store, "m.go", LEAKY, &base, AliasMode::default()).unwrap();
        assert!(!first.reused);
        assert_eq!(first.json, cold_json(LEAKY));

        // Edit only the helper `safe` calls: the leaker channel replays.
        let edited = LEAKY.replace("return n + 1", "return n + 2");
        let second = warm_check(&store, "m.go", &edited, &base, AliasMode::default()).unwrap();
        assert!(second.reused);
        assert_eq!(second.json, cold_json(&edited));
        assert!(second.replayed >= 1, "untouched channel must replay");
        assert!(second.reanalyzed >= 1, "edited channel must re-analyze");
    }

    #[test]
    fn line_shift_replays_every_channel_at_its_new_position() {
        let store = WarmSessions::new(4);
        let base = DetectorConfig::default();
        warm_check(&store, "m.go", LEAKY, &base, AliasMode::default()).unwrap();
        // A comment and a blank line above every function: all of them
        // move, none of them changes.
        let shifted = LEAKY.replace("func tweak", "// moved\n\nfunc tweak");
        let out = warm_check(&store, "m.go", &shifted, &base, AliasMode::default()).unwrap();
        assert!(out.reused);
        assert_eq!(out.reanalyzed, 0);
        assert!(out.replayed >= 2);
        assert_eq!(out.json, cold_json(&shifted));
        assert_ne!(out.json, cold_json(LEAKY), "the report moved with the code");
    }

    #[test]
    fn identical_resubmission_replays_everything() {
        let store = WarmSessions::new(4);
        let base = DetectorConfig::default();
        warm_check(&store, "m.go", LEAKY, &base, AliasMode::default()).unwrap();
        let again = warm_check(&store, "m.go", LEAKY, &base, AliasMode::default()).unwrap();
        assert!(again.reused);
        assert_eq!(again.reanalyzed, 0);
        assert!(again.replayed >= 2);
        assert_eq!(again.json, cold_json(LEAKY));
    }

    #[test]
    fn roster_change_falls_back_cold_and_counts_an_eviction() {
        let store = WarmSessions::new(4);
        let base = DetectorConfig::default();
        warm_check(&store, "m.go", LEAKY, &base, AliasMode::default()).unwrap();
        let grown = format!("{LEAKY}\nfunc extra() {{\n}}\n");
        let out = warm_check(&store, "m.go", &grown, &base, AliasMode::default()).unwrap();
        assert!(!out.reused, "incomparable shape must not reuse");
        assert_eq!(out.evicted, 1);
        assert_eq!(out.json, cold_json(&grown));
    }

    #[test]
    fn lru_evicts_oldest_path() {
        let store = WarmSessions::new(2);
        let base = DetectorConfig::default();
        for path in ["a.go", "b.go", "c.go"] {
            let out = warm_check(&store, path, LEAKY, &base, AliasMode::default()).unwrap();
            assert_eq!(out.json, cold_json(LEAKY));
        }
        assert_eq!(store.len(), 2);
        // `a.go` was the oldest: re-checking it is a miss now.
        let out = warm_check(&store, "a.go", LEAKY, &base, AliasMode::default()).unwrap();
        assert!(!out.reused);
        let status = store.status_json();
        assert!(status.contains("\"capacity\":2"));
        assert!(status.contains("\"evictions\":"));
    }

    #[test]
    fn status_lists_resident_fingerprints() {
        let store = WarmSessions::new(4);
        let base = DetectorConfig::default();
        warm_check(&store, "b.go", LEAKY, &base, AliasMode::default()).unwrap();
        warm_check(&store, "a.go", LEAKY, &base, AliasMode::default()).unwrap();
        let status = store.status_json();
        let a = status.find("\"module\":\"a.go\"").expect("a.go listed");
        let b = status.find("\"module\":\"b.go\"").expect("b.go listed");
        assert!(a < b, "modules sorted by path");
        assert!(status.contains("\"fingerprint\":\""));
    }
}
