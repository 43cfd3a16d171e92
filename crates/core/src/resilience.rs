//! Budgets, incidents, and the degradation ladder.
//!
//! GCatch only scales because every expensive step is bounded and the
//! analysis *keeps going* when a bound trips (§3.3, §3.5 of the paper).
//! This module supplies the three pieces the bounds hang off:
//!
//! * [`Budget`] — a shared wall-clock deadline plus an optional global
//!   solver-step pool, threaded cooperatively into the path enumerator
//!   and the DPLL loop. The analogue of the paper's Z3 query timeout.
//! * [`Incident`] — the structured record left behind when a unit of
//!   work (a channel's BMOC task, a registered checker, a corpus app)
//!   panics or exhausts its budget. Incidents are reported honestly in
//!   `--stats`, `--json`, `--explain`, and the trace instead of either
//!   aborting the process or silently truncating results.
//! * The degradation ladder ([`ladder_limits`]) — when a channel
//!   exhausts its budget, it is retried with tightened [`Limits`]
//!   (reduced unroll, then a reduced Pset) before the detector gives
//!   up, mirroring §3.3's constraint-blowup strategy.
//!
//! The whole layer is inert unless a budget
//! [rations](Budget::rations) work: with no `--timeout`,
//! `--channel-timeout` or `--step-pool` the detector takes the exact
//! same code paths (and produces byte-identical output) as before. A
//! [`CancelToken`] never changes that: it only aborts.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use crate::paths::Limits;

/// A shared cooperative cancellation flag.
///
/// The batch engine hands one token to every dispatched attempt; when a
/// hedged twin wins the race, the loser's token is cancelled and its
/// [`Budget`] starts reporting [`expired`](Budget::expired), so the
/// loser winds down at the next cooperative check instead of burning a
/// worker to completion. Clones share the flag.
///
/// A token only aborts: it does not make a budget
/// [ration](Budget::rations) work, so an uncancelled run takes the same
/// code paths (and produces the same bytes) as a run without one.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flips the token; every budget carrying it expires from now on.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A cooperative analysis budget shared across workers.
///
/// A budget combines an optional wall-clock deadline with an optional
/// global solver-step pool. Both are checked cooperatively: the path
/// enumerator consults [`Budget::expired`] between blocks and the DPLL
/// loop checks its deadline every few hundred steps, so an expired
/// budget degrades the result (to an [`Incident`]) rather than killing
/// the process.
///
/// The deadline and the pool *ration* work ([`Budget::rations`]): only
/// they send a channel down the degradation ladder, turn a combination
/// blowup or an unknown verdict into an incomplete channel, and switch
/// off verdict sharing and warm replay. An attached [`CancelToken`] only
/// aborts: once cancelled the budget reports [`expired`](Budget::expired)
/// and the run stops at its next cooperative check, but an uncancelled
/// token changes nothing.
///
/// `Budget::default()` is unbounded: it never rations, never expires and
/// never withholds steps, which is what keeps the default configuration
/// byte-identical to the pre-budget detector.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    pool: Option<Arc<AtomicU64>>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// Build a budget from optional wall-clock and step allowances.
    ///
    /// `timeout` sets a deadline of `now + timeout`; `step_pool` seeds
    /// a global pool that every solver query draws from. A deadline too
    /// far out for [`Instant`] to hold is never reached, so it sets none.
    pub fn new(timeout: Option<Duration>, step_pool: Option<u64>) -> Self {
        Budget {
            deadline: timeout.and_then(|t| Instant::now().checked_add(t)),
            pool: step_pool.map(|n| Arc::new(AtomicU64::new(n))),
            cancel: None,
        }
    }

    /// Attaches a [`CancelToken`]: once the token is cancelled this
    /// budget (and every budget [`tightened`](Budget::tightened) from
    /// it) reports [`expired`](Budget::expired).
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Whether a bound that rations work (a deadline or a step pool) is
    /// in force. Only such a bound may shape results; a cancel token
    /// alone does not count.
    pub fn rations(&self) -> bool {
        self.deadline.is_some() || self.pool.is_some()
    }

    /// Whether the budget has been used up (deadline passed, step pool
    /// drained, or cancel token flipped). A budget with no bound never
    /// expires.
    pub fn expired(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        if let Some(p) = &self.pool {
            if p.load(Ordering::Relaxed) == 0 {
                return true;
            }
        }
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return true;
            }
        }
        false
    }

    /// The wall-clock deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Reserve up to `want` solver steps from the pool.
    ///
    /// Returns the number of steps actually granted (`want` when no
    /// pool is configured). Unused steps should be handed back with
    /// [`Budget::refund`] once the query's true cost is known.
    pub fn draw(&self, want: u64) -> u64 {
        let Some(p) = &self.pool else { return want };
        let mut cur = p.load(Ordering::Relaxed);
        loop {
            let grant = cur.min(want);
            match p.compare_exchange_weak(cur, cur - grant, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return grant,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Return unused steps to the pool.
    pub fn refund(&self, unused: u64) {
        if let Some(p) = &self.pool {
            p.fetch_add(unused, Ordering::Relaxed);
        }
    }

    /// Derive a per-task budget: same shared step pool, deadline
    /// tightened to `min(self.deadline, now + timeout)` when a
    /// per-task `timeout` is given (and [`Instant`] can hold it).
    pub fn tightened(&self, timeout: Option<Duration>) -> Budget {
        let local = timeout.and_then(|t| Instant::now().checked_add(t));
        let deadline = match (self.deadline, local) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Budget {
            deadline,
            pool: self.pool.clone(),
            cancel: self.cancel.clone(),
        }
    }
}

/// What kind of work unit an [`Incident`] is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum IncidentKind {
    /// A per-channel BMOC analysis task.
    Channel,
    /// A registered checker run through the [`Registry`](crate::Registry).
    Checker,
    /// A corpus application in a batch sweep.
    App,
    /// A batch job that kept failing after its retry budget: it is set
    /// aside (quarantined) so the rest of the batch can finish, never
    /// silently dropped.
    Quarantined,
    /// A sweep job decided by more than one worker (an expired lease was
    /// re-leased while the original owner kept working). The merge keeps
    /// exactly one decision; this incident records the collision.
    DuplicateDecision,
    /// One request handled by the serve daemon: a contained panic, an
    /// expired request deadline, or an executor error. Delivered to the
    /// client as a structured response instead of a dead connection.
    Request,
    /// An observability sink (`--metrics-out`/`--events-out`) could not
    /// be written — full disk, yanked path. The run keeps its results and
    /// reports the sink failure instead of aborting.
    Sink,
}

impl IncidentKind {
    /// Stable lower-case label used in text, JSON, and trace output.
    pub fn label(self) -> &'static str {
        match self {
            IncidentKind::Channel => "channel",
            IncidentKind::Checker => "checker",
            IncidentKind::App => "app",
            IncidentKind::Quarantined => "quarantined",
            IncidentKind::DuplicateDecision => "duplicate-decision",
            IncidentKind::Request => "request",
            IncidentKind::Sink => "sink",
        }
    }
}

/// A structured record of a contained failure.
///
/// Incidents replace both process aborts (a panicking checker or
/// channel task) and silent truncation (a channel that exhausted its
/// [`Budget`] on every rung of the degradation ladder). They are
/// collected in deterministic order — channels in module order,
/// checkers in registry order — so incident output is bit-identical
/// across `--jobs` values.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Incident {
    /// What kind of work unit failed.
    pub kind: IncidentKind,
    /// The unit's name: channel name, checker name, or app name.
    pub name: String,
    /// Human-readable cause: the panic message or the budget bound hit.
    pub message: String,
    /// The degradation-ladder rung reached before giving up
    /// (0 when the ladder was not involved, e.g. a checker panic).
    pub rung: u32,
    /// Flight-recorder dump: the last lifecycle lines recorded for the
    /// failed unit before it was given up on. Populated for `Quarantined`
    /// incidents by the batch engine; empty elsewhere.
    pub flight: Vec<String>,
}

impl Incident {
    /// One-line rendering used by the CLI text and `--explain` output;
    /// when a flight-recorder dump is attached it follows as an indented
    /// block, oldest line first.
    pub fn render(&self) -> String {
        let rung = if self.rung > 0 {
            format!(" (gave up at ladder rung {})", self.rung)
        } else {
            String::new()
        };
        let mut out = format!(
            "incident: {} `{}`: {}{}\n",
            self.kind.label(),
            self.name,
            self.message,
            rung
        );
        if !self.flight.is_empty() {
            out.push_str("  flight recorder:\n");
            for line in &self.flight {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// Number of rungs on the degradation ladder (rung 0 is the configured
/// limits; the last rung is the most aggressively tightened retry).
pub const LADDER_RUNGS: u32 = 3;

/// The tightened [`Limits`] for a degradation-ladder rung.
///
/// * rung 0 — the configured limits, untouched;
/// * rung 1 — reduced unroll: half the paths, one block visit, a
///   shallower call depth (the paper's first response to constraint
///   blowup, §3.3);
/// * rung 2+ — minimal unroll; the detector additionally shrinks the
///   Pset to the channel's own operations at this rung.
pub fn ladder_limits(base: &Limits, rung: u32) -> Limits {
    match rung {
        0 => base.clone(),
        1 => Limits {
            max_block_visits: 1,
            max_paths_per_func: (base.max_paths_per_func / 2).max(8),
            max_events: base.max_events,
            max_depth: base.max_depth.min(4),
        },
        _ => Limits {
            max_block_visits: 1,
            max_paths_per_func: (base.max_paths_per_func / 4).max(4),
            max_events: base.max_events,
            max_depth: 2,
        },
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Run `f`, converting a panic into `Err(message)` instead of
/// unwinding further.
///
/// The default panic hook is wrapped (once, process-wide) so contained
/// panics do not spray backtraces onto stderr; panics outside
/// `catch_isolated` still print normally. The closure is asserted
/// unwind-safe: callers only consume the returned value, and any
/// shared state touched by a panicking unit is discarded along with
/// its partial results.
pub fn catch_isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
    QUIET_PANICS.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET_PANICS.with(|q| q.set(false));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_never_rations_or_expires() {
        let b = Budget::default();
        assert!(!b.rations());
        assert!(!b.expired());
        assert_eq!(b.draw(1000), 1000);
    }

    #[test]
    fn step_pool_is_rationed_and_refundable() {
        let b = Budget::new(None, Some(100));
        assert!(b.rations());
        assert_eq!(b.draw(60), 60);
        assert_eq!(b.draw(60), 40);
        assert!(b.expired(), "drained pool expires the budget");
        b.refund(25);
        assert!(!b.expired());
        assert_eq!(b.draw(100), 25);
    }

    #[test]
    fn zero_timeout_expires_immediately() {
        let b = Budget::new(Some(Duration::ZERO), None);
        assert!(b.rations());
        assert!(b.expired());
    }

    #[test]
    fn unrepresentable_timeout_sets_no_deadline() {
        let huge = Some(Duration::from_secs(u64::MAX));
        let b = Budget::new(huge, None);
        assert!(b.deadline().is_none());
        assert!(
            !b.rations(),
            "a deadline that never arrives rations nothing"
        );
        assert!(!b.expired());
        assert!(b.tightened(huge).deadline().is_none());
        let bounded = Budget::new(Some(Duration::from_secs(3600)), None);
        assert_eq!(bounded.tightened(huge).deadline(), bounded.deadline());
    }

    #[test]
    fn tightened_keeps_the_earlier_deadline_and_shares_the_pool() {
        let b = Budget::new(Some(Duration::from_secs(3600)), Some(10));
        let t = b.tightened(Some(Duration::ZERO));
        assert!(t.expired(), "per-task deadline must tighten");
        assert!(!b.expired(), "parent deadline unaffected");
        assert_eq!(t.draw(4), 4);
        assert_eq!(b.draw(10), 6, "pool is shared with the parent");
    }

    #[test]
    fn cancel_token_expires_the_budget_and_its_children() {
        let token = CancelToken::new();
        let b = Budget::default().with_cancel(token.clone());
        assert!(!b.rations(), "a token only aborts; it rations nothing");
        assert!(!b.expired());
        let child = b.tightened(None);
        assert!(!child.rations());
        token.cancel();
        assert!(b.expired());
        assert!(!b.rations(), "cancelling does not make it ration");
        assert!(child.expired(), "children share the token");
        assert!(
            !Budget::default().expired(),
            "a fresh budget without a token is unexpired"
        );
    }

    #[test]
    fn ladder_limits_tighten_monotonically() {
        let base = Limits::default();
        let r1 = ladder_limits(&base, 1);
        let r2 = ladder_limits(&base, 2);
        assert_eq!(ladder_limits(&base, 0), base);
        assert!(r1.max_paths_per_func < base.max_paths_per_func);
        assert!(r1.max_block_visits <= base.max_block_visits);
        assert!(r2.max_paths_per_func <= r1.max_paths_per_func);
        assert!(r2.max_depth <= r1.max_depth);
    }

    #[test]
    fn catch_isolated_returns_the_panic_message() {
        assert_eq!(catch_isolated(|| 7), Ok(7));
        assert_eq!(
            catch_isolated(|| -> i32 { panic!("boom") }),
            Err("boom".to_string())
        );
        let msg = catch_isolated(|| -> i32 { panic!("chan {}", 3) });
        assert_eq!(msg, Err("chan 3".to_string()));
    }

    #[test]
    fn incident_render_mentions_kind_name_message_and_rung() {
        let i = Incident {
            kind: IncidentKind::Channel,
            name: "done".to_string(),
            message: "budget exhausted".to_string(),
            rung: 2,
            flight: Vec::new(),
        };
        let s = i.render();
        assert!(s.contains("channel `done`"), "{s}");
        assert!(s.contains("budget exhausted"), "{s}");
        assert!(s.contains("rung 2"), "{s}");
        assert!(!s.contains("flight recorder"), "{s}");
        let j = Incident {
            kind: IncidentKind::Checker,
            name: "panic-test".to_string(),
            message: "boom".to_string(),
            rung: 0,
            flight: Vec::new(),
        };
        assert!(!j.render().contains("rung"), "{}", j.render());
    }

    #[test]
    fn incident_render_appends_flight_dump() {
        let i = Incident {
            kind: IncidentKind::Quarantined,
            name: "job-3".to_string(),
            message: "gave up".to_string(),
            rung: 0,
            flight: vec![
                "attempt 1: started".to_string(),
                "attempt 1: failed".to_string(),
            ],
        };
        let s = i.render();
        assert!(s.contains("  flight recorder:\n"), "{s}");
        assert!(s.contains("    attempt 1: started\n"), "{s}");
        assert!(s.contains("    attempt 1: failed\n"), "{s}");
    }
}
