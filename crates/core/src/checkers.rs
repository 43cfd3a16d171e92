//! The checker registry.
//!
//! Every detector in the suite — the BMOC detector, the five traditional
//! checkers (§3.5), and the §6 send-on-closed extension — implements
//! [`Checker`]: a stable name, the set of [`BugKind`]s it owns, and a `run`
//! method over a shared [`AnalysisSession`]. The [`Registry`] lists them in
//! a fixed order, applies a user [`Selection`] (`--only` / `--skip`), and
//! deduplicates reports across checkers by [`BugReport::dedup_key`].
//!
//! Invariant (tested in `tests/registry.rs`): every `BugKind` is owned by
//! exactly one registered checker, so cross-checker deduplication can never
//! merge reports from different checkers and per-checker counts are stable.

use crate::detector::DetectorConfig;
use crate::events::{Decision, Recorder};
use crate::report::{BugKind, BugReport};
use crate::resilience::{catch_isolated, Incident, IncidentKind};
use crate::session::AnalysisSession;
use crate::telemetry::Stage;
use std::collections::HashSet;

/// One registered detector.
pub trait Checker: Sync {
    /// Stable kebab-case name, used by `--only` / `--skip` and in
    /// diagnostics.
    fn name(&self) -> &'static str;

    /// One-line description for `--help`-style listings.
    fn description(&self) -> &'static str;

    /// The bug kinds this checker (and only this checker) can report.
    fn kinds(&self) -> &'static [BugKind];

    /// Whether the checker runs when no explicit `--only` selection is
    /// given. The send-on-closed extension is opt-in (`gcatch extended` /
    /// `--only send-on-closed`); everything else is on by default.
    fn default_enabled(&self) -> bool {
        true
    }

    /// Runs the checker over a shared session.
    fn run(&self, session: &AnalysisSession<'_>, config: &DetectorConfig) -> Vec<BugReport>;
}

// ---------------------------------------------------------------- checkers

struct Bmoc;

impl Checker for Bmoc {
    fn name(&self) -> &'static str {
        "bmoc"
    }
    fn description(&self) -> &'static str {
        "blocking misuse-of-channel detection via path enumeration + constraint solving"
    }
    fn kinds(&self) -> &'static [BugKind] {
        &[BugKind::BmocChannel, BugKind::BmocChannelMutex]
    }
    fn run(&self, session: &AnalysisSession<'_>, config: &DetectorConfig) -> Vec<BugReport> {
        session.detect_bmoc(config)
    }
}

struct DoubleLock;

impl Checker for DoubleLock {
    fn name(&self) -> &'static str {
        "double-lock"
    }
    fn description(&self) -> &'static str {
        "acquiring a mutex already held on the same path"
    }
    fn kinds(&self) -> &'static [BugKind] {
        &[BugKind::DoubleLock]
    }
    fn run(&self, session: &AnalysisSession<'_>, _config: &DetectorConfig) -> Vec<BugReport> {
        session.lock_summary().double_locks.clone()
    }
}

struct MissingUnlock;

impl Checker for MissingUnlock {
    fn name(&self) -> &'static str {
        "missing-unlock"
    }
    fn description(&self) -> &'static str {
        "a return reachable with a mutex still held"
    }
    fn kinds(&self) -> &'static [BugKind] {
        &[BugKind::MissingUnlock]
    }
    fn run(&self, session: &AnalysisSession<'_>, _config: &DetectorConfig) -> Vec<BugReport> {
        session.lock_summary().missing_unlocks.clone()
    }
}

struct LockOrder;

impl Checker for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }
    fn description(&self) -> &'static str {
        "two mutexes acquired in conflicting orders on different paths"
    }
    fn kinds(&self) -> &'static [BugKind] {
        &[BugKind::ConflictingLockOrder]
    }
    fn run(&self, session: &AnalysisSession<'_>, _config: &DetectorConfig) -> Vec<BugReport> {
        session.lock_summary().order_conflicts.clone()
    }
}

struct StructFieldRace;

impl Checker for StructFieldRace {
    fn name(&self) -> &'static str {
        "struct-field-race"
    }
    fn description(&self) -> &'static str {
        "a struct field usually guarded by a mutex, accessed without it"
    }
    fn kinds(&self) -> &'static [BugKind] {
        &[BugKind::StructFieldRace]
    }
    fn run(&self, session: &AnalysisSession<'_>, _config: &DetectorConfig) -> Vec<BugReport> {
        session.telemetry().time(Stage::Traditional, || {
            crate::traditional::lockset_race_reports(
                session.module(),
                &session.analysis,
                &session.prims,
            )
        })
    }
}

struct FatalInChild;

impl Checker for FatalInChild {
    fn name(&self) -> &'static str {
        "fatal-in-child"
    }
    fn description(&self) -> &'static str {
        "t.Fatal/FailNow called from a goroutine other than the test's"
    }
    fn kinds(&self) -> &'static [BugKind] {
        &[BugKind::FatalInChildGoroutine]
    }
    fn run(&self, session: &AnalysisSession<'_>, _config: &DetectorConfig) -> Vec<BugReport> {
        session.telemetry().time(Stage::Traditional, || {
            crate::traditional::fatal_in_child_reports(session.module(), &session.analysis)
        })
    }
}

/// The §6 extension: the send-on-closed pass of the per-channel driver
/// that also runs BMOC, so it shards over `--jobs` and descends the same
/// degradation ladder.
struct SendOnClosed;

impl Checker for SendOnClosed {
    fn name(&self) -> &'static str {
        "send-on-closed"
    }
    fn description(&self) -> &'static str {
        "a schedule that executes a send after a close of the same channel (§6 extension)"
    }
    fn kinds(&self) -> &'static [BugKind] {
        &[BugKind::SendOnClosedChannel]
    }
    fn default_enabled(&self) -> bool {
        false
    }
    fn run(&self, session: &AnalysisSession<'_>, config: &DetectorConfig) -> Vec<BugReport> {
        session.detect_send_on_closed(config)
    }
}

/// Test hook: a checker that always panics, registered only when the
/// `GCATCH_DEBUG_PANIC_CHECKER` environment variable is set. It owns no
/// bug kinds, so the registry invariant is untouched; it exists to
/// exercise checker-level fault isolation end to end (one deterministic
/// incident, exit code unchanged unless `--strict`).
struct PanicTest;

impl Checker for PanicTest {
    fn name(&self) -> &'static str {
        "panic-test"
    }
    fn description(&self) -> &'static str {
        "deliberately panics to exercise fault isolation (debug hook)"
    }
    fn kinds(&self) -> &'static [BugKind] {
        &[]
    }
    fn run(&self, _session: &AnalysisSession<'_>, _config: &DetectorConfig) -> Vec<BugReport> {
        panic!("deliberate panic from the panic-test checker");
    }
}

static BMOC: Bmoc = Bmoc;
static DOUBLE_LOCK: DoubleLock = DoubleLock;
static MISSING_UNLOCK: MissingUnlock = MissingUnlock;
static LOCK_ORDER: LockOrder = LockOrder;
static STRUCT_FIELD_RACE: StructFieldRace = StructFieldRace;
static FATAL_IN_CHILD: FatalInChild = FatalInChild;
static SEND_ON_CLOSED: SendOnClosed = SendOnClosed;
static PANIC_TEST: PanicTest = PanicTest;

// ---------------------------------------------------------------- registry

/// Which checkers to run: an allow-list (`--only`, empty = defaults) and a
/// deny-list (`--skip`).
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// When non-empty, run exactly these checkers (by name).
    pub only: Vec<String>,
    /// Checkers to exclude (by name); applies after `only`.
    pub skip: Vec<String>,
}

impl Selection {
    /// Whether `checker` should run under this selection.
    pub fn enables(&self, checker: &dyn Checker) -> bool {
        let name = checker.name();
        let picked = if self.only.is_empty() {
            checker.default_enabled()
        } else {
            self.only.iter().any(|o| o == name)
        };
        picked && !self.skip.iter().any(|s| s == name)
    }

    /// Rejects names that match no registered checker (typo protection for
    /// the CLI, which turns the error into exit code 2).
    pub fn validate(&self, registry: &Registry) -> Result<(), String> {
        for name in self.only.iter().chain(self.skip.iter()) {
            if registry.find(name).is_none() {
                return Err(format!(
                    "unknown checker `{name}` (known: {})",
                    registry.names().join(", ")
                ));
            }
        }
        Ok(())
    }
}

/// The ordered list of registered checkers.
pub struct Registry {
    checkers: Vec<&'static dyn Checker>,
}

impl Registry {
    /// The standard registry: every checker in the suite, in report order
    /// (BMOC first, then the traditional checkers, then the opt-in
    /// send-on-closed extension).
    pub fn standard() -> Registry {
        let mut checkers: Vec<&'static dyn Checker> = vec![
            &BMOC,
            &DOUBLE_LOCK,
            &MISSING_UNLOCK,
            &LOCK_ORDER,
            &STRUCT_FIELD_RACE,
            &FATAL_IN_CHILD,
            &SEND_ON_CLOSED,
        ];
        if std::env::var_os("GCATCH_DEBUG_PANIC_CHECKER").is_some() {
            checkers.push(&PANIC_TEST);
        }
        Registry { checkers }
    }

    /// All registered checkers, in order.
    pub fn checkers(&self) -> impl Iterator<Item = &dyn Checker> {
        self.checkers.iter().copied()
    }

    /// Looks a checker up by its stable name.
    pub fn find(&self, name: &str) -> Option<&dyn Checker> {
        self.checkers.iter().copied().find(|c| c.name() == name)
    }

    /// The stable names of all registered checkers, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.checkers.iter().map(|c| c.name()).collect()
    }

    /// Runs the selected checkers over `session` in registry order and
    /// deduplicates across checkers by [`BugReport::dedup_key`]. With each
    /// checker's kinds disjoint (the registry invariant), the dedup only
    /// ever drops true duplicates within one checker's output.
    pub fn run(
        &self,
        session: &AnalysisSession<'_>,
        config: &DetectorConfig,
        selection: &Selection,
    ) -> Vec<RunOutput> {
        let dedup = Recorder {
            telemetry: Some(session.telemetry()),
            ..Recorder::default()
        };
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for checker in self.checkers() {
            if !selection.enables(checker) {
                continue;
            }
            // The per-checker span lives on the main lane; detectors that
            // shard work (BMOC) open their own per-worker lanes inside it.
            let mut lane = session.tracer().lane(0, "main");
            lane.begin(format!("checker:{}", checker.name()), Vec::new());
            // Fault isolation: one panicking checker becomes an incident
            // (in registry order, so output is deterministic) and the
            // remaining checkers still run.
            let mut reports = match catch_isolated(|| checker.run(session, config)) {
                Ok(reports) => reports,
                Err(message) => {
                    lane.rewind();
                    lane.instant(
                        "incident",
                        vec![
                            ("kind", crate::trace::ArgValue::from("checker")),
                            ("name", crate::trace::ArgValue::from(checker.name())),
                        ],
                    );
                    session.record_incident(Incident {
                        kind: IncidentKind::Checker,
                        name: checker.name().to_string(),
                        message,
                        rung: 0,
                        flight: Vec::new(),
                    });
                    out.push(RunOutput {
                        checker: checker.name(),
                        reports: Vec::new(),
                    });
                    continue;
                }
            };
            reports.retain(|r| {
                let fresh = seen.insert(r.dedup_key());
                if !fresh {
                    dedup.record_on(
                        &mut lane,
                        Decision::DedupDropped {
                            kind: r.kind.label(),
                        },
                    );
                }
                fresh
            });
            lane.end();
            out.push(RunOutput {
                checker: checker.name(),
                reports,
            });
        }
        out
    }
}

/// One checker's deduplicated reports from a [`Registry::run`].
#[derive(Debug)]
pub struct RunOutput {
    /// The checker's stable name.
    pub checker: &'static str,
    /// Its reports, already deduplicated across the whole run.
    pub reports: Vec<BugReport>,
}

/// Flattens a run into a plain report list (registry order preserved).
pub fn flatten(outputs: Vec<RunOutput>) -> Vec<BugReport> {
    outputs.into_iter().flat_map(|o| o.reports).collect()
}
