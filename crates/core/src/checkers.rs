//! The checker registry.
//!
//! Every detector in the suite — the BMOC detector, the five traditional
//! checkers (§3.5), and the §6 send-on-closed extension — is one row of a
//! static table: a stable name, a description, the set of [`BugKind`]s it
//! owns, whether it runs by default, and a run function over a shared
//! [`AnalysisSession`]. The process-wide [`Registry`] lists the rows in
//! table order, applies a user [`Selection`] (`--only` / `--skip`), and
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
use crate::traditional::{fatal_in_child, lockset_race};
use std::collections::HashSet;
use std::sync::OnceLock;

/// One registered detector: a row of the checker table.
#[derive(Clone, Copy)]
pub struct Checker {
    name: &'static str,
    description: &'static str,
    kinds: &'static [BugKind],
    default_enabled: bool,
    run: fn(&AnalysisSession<'_>, &DetectorConfig) -> Vec<BugReport>,
}

impl Checker {
    /// Stable kebab-case name, used by `--only` / `--skip` and in
    /// diagnostics.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for `--help`-style listings.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The bug kinds this checker (and only this checker) can report.
    pub fn kinds(&self) -> &'static [BugKind] {
        self.kinds
    }

    /// Whether the checker runs when no explicit `--only` selection is
    /// given. The send-on-closed extension is opt-in (`gcatch extended` /
    /// `--only send-on-closed`); everything else is on by default.
    pub fn default_enabled(&self) -> bool {
        self.default_enabled
    }
}

/// Every checker in the suite, in report order: BMOC first, then the
/// traditional checkers, then the opt-in send-on-closed extension. The
/// last row is a test hook, registered only when the
/// `GCATCH_DEBUG_PANIC_CHECKER` environment variable is set: it always
/// panics, to exercise checker-level fault isolation end to end (one
/// deterministic incident, exit code unchanged unless `--strict`), and it
/// owns no bug kinds, so the registry invariant is untouched.
static CHECKERS: [Checker; 8] = [
    Checker {
        name: "bmoc",
        description:
            "blocking misuse-of-channel detection via path enumeration + constraint solving",
        kinds: &[BugKind::BmocChannel, BugKind::BmocChannelMutex],
        default_enabled: true,
        run: |session, config| session.detect_bmoc(config),
    },
    Checker {
        name: "double-lock",
        description: "acquiring a mutex already held on the same path",
        kinds: &[BugKind::DoubleLock],
        default_enabled: true,
        run: |session, _| session.lock_summary().double_locks.clone(),
    },
    Checker {
        name: "missing-unlock",
        description: "a return reachable with a mutex still held",
        kinds: &[BugKind::MissingUnlock],
        default_enabled: true,
        run: |session, _| session.lock_summary().missing_unlocks.clone(),
    },
    Checker {
        name: "lock-order",
        description: "two mutexes acquired in conflicting orders on different paths",
        kinds: &[BugKind::ConflictingLockOrder],
        default_enabled: true,
        run: |session, _| session.lock_summary().order_conflicts.clone(),
    },
    Checker {
        name: "struct-field-race",
        description: "a struct field usually guarded by a mutex, accessed without it",
        kinds: &[BugKind::StructFieldRace],
        default_enabled: true,
        run: |session, _| {
            session.telemetry().time(Stage::Traditional, || {
                lockset_race(session.module(), &session.analysis, &session.prims)
            })
        },
    },
    Checker {
        name: "fatal-in-child",
        description: "t.Fatal/FailNow called from a goroutine other than the test's",
        kinds: &[BugKind::FatalInChildGoroutine],
        default_enabled: true,
        run: |session, _| {
            session.telemetry().time(Stage::Traditional, || {
                fatal_in_child(session.module(), &session.analysis)
            })
        },
    },
    // The §6 extension: the send-on-closed pass of the per-channel driver
    // that also runs BMOC, so it shards over `--jobs` and descends the same
    // degradation ladder.
    Checker {
        name: "send-on-closed",
        description:
            "a schedule that executes a send after a close of the same channel (§6 extension)",
        kinds: &[BugKind::SendOnClosedChannel],
        default_enabled: false,
        run: |session, config| session.detect_send_on_closed(config),
    },
    Checker {
        name: "panic-test",
        description: "deliberately panics to exercise fault isolation (debug hook)",
        kinds: &[],
        default_enabled: true,
        run: |_, _| panic!("deliberate panic from the panic-test checker"),
    },
];

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
    pub fn enables(&self, checker: Checker) -> bool {
        let name = checker.name;
        let picked = if self.only.is_empty() {
            checker.default_enabled
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

/// The ordered list of registered checkers: a view of the static table.
#[derive(Clone, Copy)]
pub struct Registry {
    checkers: &'static [Checker],
}

impl Registry {
    /// The process-wide registry: every checker in the suite, in report
    /// order, plus the `panic-test` hook when `GCATCH_DEBUG_PANIC_CHECKER`
    /// was set at the first call.
    pub fn standard() -> Registry {
        static STANDARD: OnceLock<Registry> = OnceLock::new();
        *STANDARD.get_or_init(|| {
            let hidden = usize::from(std::env::var_os("GCATCH_DEBUG_PANIC_CHECKER").is_none());
            Registry {
                checkers: &CHECKERS[..CHECKERS.len() - hidden],
            }
        })
    }

    /// All registered checkers, in order.
    pub fn checkers(&self) -> impl Iterator<Item = Checker> {
        self.checkers.iter().copied()
    }

    /// Looks a checker up by its stable name.
    pub fn find(&self, name: &str) -> Option<Checker> {
        self.checkers().find(|c| c.name == name)
    }

    /// The stable names of all registered checkers, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.checkers.iter().map(|c| c.name).collect()
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
            lane.begin(format!("checker:{}", checker.name), Vec::new());
            // Fault isolation: one panicking checker becomes an incident
            // (in registry order, so output is deterministic) and the
            // remaining checkers still run.
            let mut reports = match catch_isolated(|| (checker.run)(session, config)) {
                Ok(reports) => reports,
                Err(message) => {
                    lane.rewind();
                    lane.instant(
                        "incident",
                        vec![
                            ("kind", crate::trace::ArgValue::from("checker")),
                            ("name", crate::trace::ArgValue::from(checker.name)),
                        ],
                    );
                    session.record_incident(Incident {
                        kind: IncidentKind::Checker,
                        name: checker.name.to_string(),
                        message,
                        rung: 0,
                        flight: Vec::new(),
                    });
                    out.push(RunOutput {
                        checker: checker.name,
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
                checker: checker.name,
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
