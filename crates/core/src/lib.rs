//! # gcatch — the BMOC detector of the GCatch/GFix reproduction
//!
//! GCatch (ASPLOS '21) statically detects **blocking misuse-of-channel
//! (BMOC)** bugs in Go software. This crate reimplements it over the GoLite
//! toolchain:
//!
//! * [`primitives`] — discovers channels/mutexes by creation site and
//!   resolves every synchronization operation through points-to analysis
//!   (Algorithm 1, lines 2–5);
//! * [`disentangle`] — computes each channel's analysis scope (call-graph
//!   LCA) and its `Pset` of circularly dependent primitives (§3.2);
//! * [`paths`] — enumerates inter-procedural execution paths per goroutine
//!   with bounded loop unrolling and infeasible-branch pruning (§3.3);
//! * [`constraints`] — encodes `ΦR ∧ ΦB` over order variables, `P(s,r)`
//!   match booleans, and channel-buffer counters, discharging them with the
//!   [`minismt`] DPLL(T) solver (§3.4, Z3 in the original); one entry
//!   point answers both blocking-group and §6 send-after-close queries;
//! * [`session`] — the [`AnalysisSession`]: every whole-module analysis
//!   built once and shared immutably by all checkers;
//! * [`detector`] — the one per-channel driver, sharded across worker
//!   threads, under two passes: BMOC with suspicious-group enumeration and
//!   the §6 send-on-closed extension; plus the whole-program ablation mode
//!   (§5.2);
//! * [`traditional`] — the five classic checkers: double lock, missing
//!   unlock, conflicting lock order, struct-field lockset races, and
//!   `testing.Fatal` on child goroutines (§3.5);
//! * [`checkers`] — the static table of [`Checker`] rows and the
//!   process-wide [`Registry`] unifying every detector behind stable names
//!   with `--only`/`--skip` selection;
//! * [`codec`] — the one JSON codec: string escaping and decoding, the
//!   flat-object reader behind serve requests and sweep leases, and the
//!   well-formedness validator;
//! * [`diagnostics`] — structured [`Diagnostic`]s with stable IDs,
//!   severities, and dependency-free JSON rendering;
//! * [`durable`] — crash-safe files: fsync helpers, the atomic write, and
//!   the one header-plus-lines log (with its single heal rule) under the
//!   batch and sweep journals, the sweep manifest, and the serve cache
//!   index;
//! * [`resilience`] — cooperative [`Budget`]s (wall-clock deadline +
//!   solver-step pool), panic containment, the degradation ladder, and
//!   structured [`Incident`] reporting for contained failures;
//! * [`telemetry`] — counters, per-stage timings, and percentile
//!   histograms recorded throughout the pipeline;
//! * [`trace`] — hierarchical span tracing (Chrome trace-event export,
//!   per-worker lanes) and bug provenance plumbing;
//! * [`metrics`] — the named `gcatch_*` metrics registry over telemetry
//!   snapshots with Prometheus text-exposition rendering (`--metrics-out`);
//! * [`events`] — the correlated structured event bus (`--events-out`
//!   JSONL) and the per-job [`FlightRecorder`] attached to quarantine
//!   incidents;
//! * [`progress`] — live batch progress snapshots (`batch --progress`);
//! * [`sweep`] — the multi-process sweep coordinator: lease-based on-disk
//!   work queue, heartbeat supervision, dead-worker re-lease, and the
//!   byte-deterministic journal merge (`gcatch sweep`);
//! * [`serve`] — the crash-only analysis daemon (`gcatch serve`):
//!   JSON-lines request protocol, bounded admission with deterministic
//!   load shedding, per-request deadlines, and a persistent warm response
//!   cache that self-heals after `kill -9`;
//! * [`signals`] — SIGINT/SIGTERM as a pollable graceful-drain flag
//!   shared by the daemon and the sweep coordinator;
//! * [`worker`] — the sweep worker loop (`gcatch worker`): claim, execute,
//!   journal, mark done, release.
//!
//! # Examples
//!
//! Detect the Figure 1 Docker bug:
//!
//! ```
//! let module = golite_ir::lower_source(r#"
//! func Exec(ctx context.Context) error {
//!     outDone := make(chan error)
//!     go func() {
//!         outDone <- nil
//!     }()
//!     select {
//!     case err := <-outDone:
//!         return err
//!     case <-ctx.Done():
//!         return ctx.Err()
//!     }
//! }
//!
//! func main() {
//!     ctx, cancel := context.WithCancel(context.Background())
//!     defer cancel()
//!     Exec(ctx)
//! }
//! "#).unwrap();
//! let gcatch = gcatch::GCatch::new(&module);
//! let bugs = gcatch.detect_all(&gcatch::DetectorConfig::default());
//! assert!(bugs.iter().any(|b| b.primitive_name == "outDone"));
//! ```

#![warn(missing_docs)]

pub mod alias_ext;
pub mod batch;
pub mod checkers;
pub mod codec;
pub mod constraints;
pub mod detector;
pub mod diagnostics;
pub mod disentangle;
pub mod durable;
pub mod events;
pub mod faults;
pub mod metrics;
pub mod paths;
pub mod primitives;
pub mod progress;
pub mod report;
pub mod resilience;
pub mod serve;
pub mod session;
pub mod signals;
pub mod sweep;
pub mod telemetry;
pub mod trace;
pub mod traditional;
pub mod warm;
pub mod worker;

pub use batch::{
    BackoffPolicy, BatchConfig, BatchEngine, BatchJob, BatchOutcome, JobCtx, JobRecord, JobStatus,
    Journal,
};
pub use checkers::{Checker, Registry, RunOutput, Selection};
pub use constraints::{EncodingCache, SolverStrategy};
pub use detector::DetectorConfig;
pub use diagnostics::{
    render_explain, render_json, render_json_with, render_stats_json, Diagnostic, Severity,
};
pub use events::{
    derive_run_id, obs_zero_time, Event, EventBus, EventKind, FlightRecorder, ObsScope,
};
pub use faults::FaultPlan;
pub use golite_ir::{AliasMode, AliasStats};
pub use metrics::{render_prometheus, validate_exposition, ExpositionSummary};
pub use progress::ProgressSnapshot;
pub use report::{BugKind, BugReport, OpRef, Provenance, WitnessStep};
pub use resilience::{Budget, CancelToken, Incident, IncidentKind};
pub use serve::{
    serve_socket, serve_stdio, Request, ResponseCache, ServeConfig, ServeSummary, WorkKind,
};
pub use session::AnalysisSession;
pub use sweep::{
    merge_journals, read_manifest, write_manifest, Coordinator, DuplicateDecision, MergeOutcome,
    SweepConfig, SweepLayout, SweepOutcome, WORKER_KILL_EXIT,
};
pub use telemetry::{Counter, Metric, Stage, Stats, Telemetry};
pub use trace::{HistSnapshot, Histogram, TraceLevel, TraceSnapshot, Tracer};
pub use warm::{warm_check, WarmOutcome, WarmSessions};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

/// The complete GCatch system: one [`AnalysisSession`] run through the
/// checker [`Registry`] behind one entry point.
pub struct GCatch<'m> {
    session: AnalysisSession<'m>,
}

impl<'m> GCatch<'m> {
    /// Builds the whole-module analyses once.
    pub fn new(module: &'m golite_ir::Module) -> GCatch<'m> {
        Self::with_trace(module, TraceLevel::Off)
    }

    /// [`GCatch::new`] with span tracing at `level`; retrieve the
    /// recording with [`GCatch::trace_snapshot`] after running checkers.
    pub fn with_trace(module: &'m golite_ir::Module, level: TraceLevel) -> GCatch<'m> {
        Self::with_options(module, level, golite_ir::AliasMode::default())
    }

    /// [`GCatch::with_trace`] with an explicit alias-analysis scheduling
    /// mode: `Demand` (the default) solves points-to lazily per queried
    /// reference component, `Eager` solves the whole module up front and
    /// is kept as the reference that tests and bench bins compare against.
    /// Reports are byte-identical either way.
    pub fn with_options(
        module: &'m golite_ir::Module,
        level: TraceLevel,
        alias_mode: golite_ir::AliasMode,
    ) -> GCatch<'m> {
        GCatch {
            session: AnalysisSession::with_options(module, level, alias_mode),
        }
    }

    /// Runs the BMOC detector only.
    pub fn detect_bmoc(&self, config: &DetectorConfig) -> Vec<BugReport> {
        self.session.detect_bmoc(config)
    }

    /// Runs every default-enabled checker (Figure 2's full GCatch box).
    pub fn detect_all(&self, config: &DetectorConfig) -> Vec<BugReport> {
        checkers::flatten(self.run(config, &Selection::default()))
    }

    /// Runs the registered checkers under a selection, keeping the reports
    /// grouped by checker.
    pub fn run(&self, config: &DetectorConfig, selection: &Selection) -> Vec<RunOutput> {
        Registry::standard().run(&self.session, config, selection)
    }

    /// Runs the selected checkers and wraps every report as a
    /// [`Diagnostic`] with a stable ID and severity.
    pub fn diagnostics(&self, config: &DetectorConfig, selection: &Selection) -> Vec<Diagnostic> {
        Diagnostic::from_run(self.run(config, selection))
    }

    /// The underlying analysis session (exposes analyses for GFix).
    pub fn session(&self) -> &AnalysisSession<'m> {
        &self.session
    }

    /// The process-wide checker registry backing [`GCatch::run`].
    pub fn registry(&self) -> Registry {
        Registry::standard()
    }

    /// Snapshot of every counter and stage timing recorded so far.
    pub fn stats(&self) -> Stats {
        self.session.stats()
    }

    /// Incidents (contained panics, exhausted budgets) recorded so far,
    /// in deterministic order. Empty on a fully clean run.
    pub fn incidents(&self) -> Vec<Incident> {
        self.session.incidents()
    }

    /// Snapshot of every span and point event traced so far (empty unless
    /// built with [`GCatch::with_trace`]).
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.session.trace_snapshot()
    }
}
