//! The per-module analysis session.
//!
//! An [`AnalysisSession`] owns every whole-module analysis the checkers
//! consume — the points-to / call-graph [`Analysis`], the discovered
//! [`Primitives`], and the lazily built disentangling artifacts (the
//! channel [`DependencyGraph`] and per-primitive [`Scope`]s). Each is
//! computed **once** and then shared immutably: the session is `Sync`, so
//! the parallel per-channel BMOC workers, the traditional checkers, and
//! GFix all borrow the same analyses instead of re-deriving them.
//!
//! The session also carries the [`Telemetry`] sink; every stage and every
//! solver query records into it, and [`AnalysisSession::stats`] snapshots
//! the totals for `--stats` output.
//!
//! The BMOC detector is a method of the session
//! ([`AnalysisSession::detect_bmoc`]); [`GCatch`](crate::GCatch) wraps a
//! session and runs it through the process-wide checker registry.

use crate::constraints::EncodingCache;
use crate::disentangle::{build_dependency_graph, compute_scope, DependencyGraph, Scope};
use crate::primitives::{collect, Primitives};
use crate::resilience::{Budget, Incident};
use crate::telemetry::{Stage, Stats, Telemetry};
use crate::trace::{TraceLevel, TraceSnapshot, Tracer};
use crate::traditional::LockSummary;
use golite_ir::alias::{AliasMode, Analysis};
use golite_ir::ir::Module;
use std::sync::{Arc, Mutex, OnceLock};

/// Shared per-module analyses plus telemetry, built once per checked module.
pub struct AnalysisSession<'m> {
    pub(crate) module: &'m Module,
    /// Shared points-to / call-graph results. In demand mode the engine
    /// solves lazily behind this shared handle, so every detector shard
    /// transparently reuses each component solve.
    pub analysis: Analysis<'m>,
    /// Discovered primitives and operations.
    pub prims: Primitives,
    /// Channel dependency graph (disentangling §3.2), built on first use.
    dg: OnceLock<DependencyGraph>,
    /// Per-primitive scopes, built on first use.
    scopes: OnceLock<Vec<Scope>>,
    /// Shared lock-exploration results for the three lock checkers.
    lock_summary: OnceLock<LockSummary>,
    pub(crate) telemetry: Telemetry,
    /// Span/event sink; a no-op unless built with
    /// [`AnalysisSession::with_trace`].
    tracer: Tracer,
    /// Contained failures (panics, exhausted budgets) recorded by the
    /// detector and the registry, in deterministic order.
    incidents: Mutex<Vec<Incident>>,
    /// Run-wide analysis budget, anchored at the first detector call so
    /// `--timeout` bounds the whole run rather than each checker.
    budget: OnceLock<Budget>,
    /// Cross-channel verdict cache: structurally identical channel
    /// encodings share solver outcomes across every worker shard.
    encoding_cache: Arc<EncodingCache>,
}

impl<'m> AnalysisSession<'m> {
    /// Runs the preparatory whole-module analyses (Algorithm 1, lines 2–7).
    pub fn new(module: &'m Module) -> AnalysisSession<'m> {
        Self::with_trace(module, TraceLevel::Off)
    }

    /// [`AnalysisSession::new`] with span tracing at `level`; retrieve the
    /// recording with [`AnalysisSession::trace_snapshot`].
    pub fn with_trace(module: &'m Module, level: TraceLevel) -> AnalysisSession<'m> {
        Self::with_options(module, level, AliasMode::default())
    }

    /// [`AnalysisSession::with_trace`] with an explicit alias-analysis
    /// scheduling mode. Both modes yield byte-identical reports; demand
    /// mode (the default) skips points-to work for functions no checker
    /// ever asks about, and eager mode stays as the reference that tests
    /// and bench bins compare it against.
    pub fn with_options(
        module: &'m Module,
        level: TraceLevel,
        alias_mode: AliasMode,
    ) -> AnalysisSession<'m> {
        Self::with_encodings(module, level, alias_mode, Arc::default())
    }

    /// [`AnalysisSession::with_options`] over a verdict cache that outlives
    /// the session: the serve daemon builds each warm check of a module
    /// path over the cache its previous check filled. Sound across module
    /// versions: the canonical keys are fully structural (no names or
    /// positions), and a `Blocking` outcome's witness is event indices
    /// that render over the actual combination, so reports stay
    /// byte-identical.
    pub(crate) fn with_encodings(
        module: &'m Module,
        level: TraceLevel,
        alias_mode: AliasMode,
        encoding_cache: Arc<EncodingCache>,
    ) -> AnalysisSession<'m> {
        let telemetry = Telemetry::new();
        let tracer = Tracer::new(level);
        let (analysis, prims) = {
            // The lane borrows the tracer, so it must drop before the
            // tracer moves into the session.
            let mut lane = tracer.lane(0, "main");
            lane.span("analysis", Vec::new(), |_| {
                telemetry.time(Stage::Analysis, || {
                    let analysis = golite_ir::analyze_with_mode(module, alias_mode);
                    let prims = collect(module, &analysis);
                    (analysis, prims)
                })
            })
        };
        AnalysisSession {
            module,
            analysis,
            prims,
            dg: OnceLock::new(),
            scopes: OnceLock::new(),
            lock_summary: OnceLock::new(),
            telemetry,
            tracer,
            incidents: Mutex::new(Vec::new()),
            budget: OnceLock::new(),
            encoding_cache,
        }
    }

    /// The session's cross-channel verdict cache.
    pub(crate) fn encoding_cache(&self) -> &EncodingCache {
        &self.encoding_cache
    }

    /// The module under analysis.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The channel dependency graph, built on first call and cached.
    pub fn dependency_graph(&self) -> &DependencyGraph {
        self.dg.get_or_init(|| {
            let mut lane = self.tracer.lane(0, "main");
            lane.span(
                "disentangle",
                vec![("what", "dependency_graph".into())],
                |_| {
                    self.telemetry.time(Stage::Disentangle, || {
                        build_dependency_graph(self.module, &self.analysis, &self.prims)
                    })
                },
            )
        })
    }

    /// Per-primitive scopes (indexed by `PrimId.0`), built once and cached.
    pub fn scopes(&self) -> &[Scope] {
        self.scopes.get_or_init(|| {
            let mut lane = self.tracer.lane(0, "main");
            lane.span("disentangle", vec![("what", "scopes".into())], |_| {
                self.telemetry.time(Stage::Disentangle, || {
                    self.prims
                        .all
                        .iter()
                        .map(|p| compute_scope(&self.analysis, &self.prims, p.id))
                        .collect()
                })
            })
        })
    }

    /// Lock-exploration results shared by the double-lock, missing-unlock,
    /// and lock-order checkers; computed once and cached.
    pub(crate) fn lock_summary(&self) -> &LockSummary {
        self.lock_summary.get_or_init(|| {
            self.telemetry.time(Stage::Traditional, || {
                crate::traditional::lock_summary(self.module, &self.analysis, &self.prims)
            })
        })
    }

    /// The telemetry sink shared by every checker run on this session.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The trace sink shared by every checker run on this session.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Freezes everything traced so far (all lanes must be dropped).
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Snapshot of all counters and stage timings recorded so far.
    ///
    /// The alias engine's live tallies are folded into the snapshot here
    /// (rather than `add`ed to the sink) so repeated calls stay idempotent.
    pub fn stats(&self) -> Stats {
        let mut stats = self.telemetry.snapshot();
        let alias = self.analysis.alias_stats();
        for (c, v) in stats.counters.iter_mut() {
            match c {
                crate::telemetry::Counter::AliasQueriesSolved => *v += alias.queries_solved,
                crate::telemetry::Counter::AliasFunctionsSkipped => *v += alias.functions_skipped,
                _ => {}
            }
        }
        stats
    }

    /// Records a contained failure. Callers are responsible for calling
    /// this in deterministic order (channels in module order, checkers
    /// in registry order) so incident output is jobs-independent.
    pub fn record_incident(&self, incident: Incident) {
        self.incidents
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(incident);
    }

    /// The run-wide [`Budget`] derived from `config`, created on first
    /// use so its wall-clock deadline spans every subsequent checker
    /// instead of restarting per call.
    pub(crate) fn run_budget(&self, config: &crate::detector::DetectorConfig) -> &Budget {
        self.budget.get_or_init(|| {
            let budget = Budget::new(config.timeout, config.solver_step_pool);
            match &config.cancel {
                Some(token) => budget.with_cancel(token.clone()),
                None => budget,
            }
        })
    }

    /// All incidents recorded so far, in recording order.
    pub fn incidents(&self) -> Vec<Incident> {
        self.incidents
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session_for(src: &str) -> (Module, ()) {
        (golite_ir::lower_source(src).expect("lowering"), ())
    }

    #[test]
    fn session_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<AnalysisSession<'_>>();
    }

    #[test]
    fn disentangling_artifacts_are_cached() {
        let (module, ()) =
            session_for("func main() {\n ch := make(chan int)\n go func() { ch <- 1 }()\n <-ch\n}");
        let s = AnalysisSession::new(&module);
        let dg1 = s.dependency_graph() as *const _;
        let dg2 = s.dependency_graph() as *const _;
        assert_eq!(dg1, dg2, "dependency graph built once");
        assert_eq!(s.scopes().len(), s.prims.all.len());
    }

    #[test]
    fn analysis_stage_time_is_recorded() {
        let (module, ()) = session_for("func main() {\n ch := make(chan int, 1)\n ch <- 1\n}");
        let s = AnalysisSession::new(&module);
        assert!(s.stats().stage(Stage::Analysis) > std::time::Duration::ZERO);
    }
}
