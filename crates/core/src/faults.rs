//! Deterministic fault injection at named sites.
//!
//! Resilience machinery that is only exercised by real failures is
//! resilience machinery that is never exercised. This module lets the
//! batch engine ([`batch`](crate::batch)), tests, and CI *deliberately*
//! drive the failure paths — retry, quarantine, the degradation ladder,
//! checkpoint resume — by injecting panics, artificial delays, and
//! solver-step exhaustion at a small registry of named sites:
//!
//! | site               | effect when it fires                             |
//! |--------------------|--------------------------------------------------|
//! | `batch.job`        | panic at the start of a batch job attempt        |
//! | `batch.delay`      | artificial delay at the start of a job attempt   |
//! | `detector.channel` | panic inside one channel's BMOC pipeline         |
//! | `solver.steps`     | step-exhaustion panic inside the DPLL loop       |
//! | `corpus.app`       | panic while running one corpus replica           |
//! | `sweep.worker`     | a sweep worker process self-terminates mid-job   |
//! | `sweep.heartbeat`  | a sweep worker stops writing heartbeats          |
//! | `sweep.lease`      | a sweep worker stops renewing its job lease      |
//! | `serve.accept`     | panic while setting up an accepted connection    |
//! | `serve.request`    | panic or delay inside one daemon request         |
//! | `serve.cache`      | a serve cache index entry is written corrupted   |
//!
//! Every decision is a pure function of the [`FaultPlan`] seed, the site
//! name, the enclosing scope (job id + attempt number), and a per-call
//! key — so a given `--fault-seed` produces the *same* faults in the
//! same places on every run, which is what makes kill-and-resume tests
//! reproducible.
//!
//! The layer is scope-confined rather than process-global: faults fire
//! only on a thread that has explicitly entered [`with_scope`]. Without
//! a scope every probe is a single thread-local read that returns
//! `false`, so detection outside the batch engine (and every golden
//! test) is byte-identical to a build without this module.

use golite_ir::fnv::{fnv, OFFSET};
use prng::Prng;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Panic at the start of a batch job attempt (engine-level fault).
pub const SITE_BATCH_JOB: &str = "batch.job";
/// Artificial delay at the start of a batch job attempt (report-neutral).
pub const SITE_BATCH_DELAY: &str = "batch.delay";
/// Panic inside one channel's BMOC detection pipeline.
pub const SITE_DETECT_CHANNEL: &str = "detector.channel";
/// Solver-step exhaustion: the DPLL engine panics mid-search.
pub const SITE_SOLVER_STEPS: &str = "solver.steps";
/// Panic while running one corpus replica through the census.
pub const SITE_CORPUS_APP: &str = "corpus.app";
/// A sweep worker process self-terminates (simulated crash) right after
/// claiming a job, leaving an orphaned lease behind.
pub const SITE_SWEEP_WORKER: &str = "sweep.worker";
/// A sweep worker silently stops writing heartbeat files while it keeps
/// working, so the coordinator must detect and kill it.
pub const SITE_SWEEP_HEARTBEAT: &str = "sweep.heartbeat";
/// A sweep worker stops renewing the lease of its current job, letting
/// the lease expire mid-run (drives the duplicate-decision path).
pub const SITE_SWEEP_LEASE: &str = "sweep.lease";
/// Panic while the serve daemon sets up an accepted connection; the
/// daemon must survive and keep accepting.
pub const SITE_SERVE_ACCEPT: &str = "serve.accept";
/// Panic (key `exec`) or artificial delay (key `delay`) inside one serve
/// request's execution; both must surface as structured incident
/// responses, never a dead connection.
pub const SITE_SERVE_REQUEST: &str = "serve.request";
/// A serve cache index entry is persisted as a deliberately corrupt line,
/// which the warm-restart load must drop and recompute.
pub const SITE_SERVE_CACHE: &str = "serve.cache";
/// The warm per-module session for a check request is lost (simulated
/// daemon-side session corruption): the request must evict the session and
/// fall back to a cold analysis, never to a wrong or partial response.
pub const SITE_SERVE_SESSION: &str = "serve.session";

/// All registered fault sites, in documentation order.
pub const ALL_SITES: [&str; 12] = [
    SITE_BATCH_JOB,
    SITE_BATCH_DELAY,
    SITE_DETECT_CHANNEL,
    SITE_SOLVER_STEPS,
    SITE_CORPUS_APP,
    SITE_SWEEP_WORKER,
    SITE_SWEEP_HEARTBEAT,
    SITE_SWEEP_LEASE,
    SITE_SERVE_ACCEPT,
    SITE_SERVE_REQUEST,
    SITE_SERVE_CACHE,
    SITE_SERVE_SESSION,
];

/// Prefix of every injected-fault panic message; the batch engine uses it
/// to classify a failure as transient (retry) rather than deterministic.
pub const INJECTED_PREFIX: &str = "injected fault:";

/// Whether a failure message came from this module.
pub fn is_injected(message: &str) -> bool {
    message.starts_with(INJECTED_PREFIX)
}

/// The site name embedded in an injected panic message
/// (`"injected fault: panic at SITE (KEY)"`), for event-bus correlation.
/// `None` for non-injected messages or injections without a site marker.
pub fn injected_site(message: &str) -> Option<&str> {
    let rest = message.strip_prefix(INJECTED_PREFIX)?;
    let rest = rest.trim_start().strip_prefix("panic at ")?;
    Some(rest.split(" (").next().unwrap_or(rest))
}

/// A deterministic fault-injection plan: how often faults fire, from
/// which seed, at which sites.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that an eligible probe fires.
    pub rate: f64,
    /// Seed all decisions derive from.
    pub seed: u64,
    /// Enabled sites; `None` enables every registered site.
    pub sites: Option<BTreeSet<String>>,
    /// Length of the artificial delay injected at [`SITE_BATCH_DELAY`].
    pub delay: Duration,
}

impl FaultPlan {
    /// A plan firing at `rate` with decisions derived from `seed`, all
    /// sites enabled, and a 25 ms artificial delay.
    pub fn new(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            rate,
            seed,
            sites: None,
            delay: Duration::from_millis(25),
        }
    }

    /// Restricts the plan to the given sites.
    pub fn with_sites<I: IntoIterator<Item = S>, S: Into<String>>(mut self, sites: I) -> FaultPlan {
        self.sites = Some(sites.into_iter().map(Into::into).collect());
        self
    }

    /// Overrides the injected delay length.
    pub fn with_delay(mut self, delay: Duration) -> FaultPlan {
        self.delay = delay;
        self
    }

    /// Whether `site` participates in this plan.
    pub fn site_enabled(&self, site: &str) -> bool {
        match &self.sites {
            None => true,
            Some(s) => s.contains(site),
        }
    }

    /// Builds a plan from the `GCATCH_FAULT_*` environment:
    /// `GCATCH_FAULT_RATE` (required; plan is `None` without it),
    /// `GCATCH_FAULT_SEED` (default 0), `GCATCH_FAULT_SITES`
    /// (comma-separated, default all), `GCATCH_FAULT_DELAY_MS`
    /// (default 25). Malformed values are reported as errors, not
    /// silently defaulted.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        let Ok(rate) = std::env::var("GCATCH_FAULT_RATE") else {
            return Ok(None);
        };
        let rate: f64 = rate
            .parse()
            .map_err(|e| format!("bad GCATCH_FAULT_RATE: {e}"))?;
        let seed = match std::env::var("GCATCH_FAULT_SEED") {
            Ok(s) => s
                .parse()
                .map_err(|e| format!("bad GCATCH_FAULT_SEED: {e}"))?,
            Err(_) => 0,
        };
        let mut plan = FaultPlan::new(rate, seed);
        if let Ok(sites) = std::env::var("GCATCH_FAULT_SITES") {
            plan = plan.with_sites(sites.split(',').map(|s| s.trim().to_string()));
        }
        if let Ok(ms) = std::env::var("GCATCH_FAULT_DELAY_MS") {
            let ms: u64 = ms
                .parse()
                .map_err(|e| format!("bad GCATCH_FAULT_DELAY_MS: {e}"))?;
            plan = plan.with_delay(Duration::from_millis(ms));
        }
        Ok(Some(plan))
    }
}

/// The thread's active fault scope: the plan plus the identity of the
/// unit of work whose probes should be considered.
struct Scope {
    plan: Arc<FaultPlan>,
    job: String,
    attempt: u32,
    /// Per-scope solver-query counter, so each query gets a distinct
    /// (but reproducible) decision key.
    queries: u64,
}

thread_local! {
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Runs `f` with fault injection armed on this thread for the given
/// job/attempt. Scopes nest by replacement: the previous scope (if any)
/// is restored afterwards, including on unwind — a panic injected inside
/// the scope must not leave injection armed for the catcher.
pub fn with_scope<T>(plan: Arc<FaultPlan>, job: &str, attempt: u32, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Scope>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            SCOPE.with(|s| *s.borrow_mut() = prev);
        }
    }
    let prev = SCOPE.with(|s| {
        s.borrow_mut().replace(Scope {
            plan,
            job: job.to_string(),
            attempt,
            queries: 0,
        })
    });
    let _restore = Restore(prev);
    f()
}

/// Whether any fault scope is active on this thread.
pub fn armed() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

/// The deterministic decision: does the probe at `site` with `key` fire
/// under the current scope?
pub fn should_inject(site: &str, key: &str) -> bool {
    SCOPE.with(|s| {
        let scope = s.borrow();
        let Some(scope) = scope.as_ref() else {
            return false;
        };
        if !scope.plan.site_enabled(site) {
            return false;
        }
        decide(&scope.plan, &scope.job, scope.attempt, site, key)
    })
}

fn decide(plan: &FaultPlan, job: &str, attempt: u32, site: &str, key: &str) -> bool {
    let mut h = OFFSET ^ plan.seed;
    h = fnv(h, site.as_bytes());
    h = fnv(h, job.as_bytes());
    h = fnv(h, &attempt.to_le_bytes());
    h = fnv(h, key.as_bytes());
    Prng::seed_from_u64(h).gen_bool(plan.rate)
}

/// Panics with an [`INJECTED_PREFIX`] message if the probe fires.
pub fn maybe_panic(site: &str, key: &str) {
    if should_inject(site, key) {
        panic!("{INJECTED_PREFIX} panic at {site} ({key})");
    }
}

/// Sleeps for the plan's delay if the probe fires. Returns the injected
/// delay so callers can attribute the time.
pub fn maybe_delay(site: &str, key: &str) -> Option<Duration> {
    if !should_inject(site, key) {
        return None;
    }
    let delay = SCOPE.with(|s| s.borrow().as_ref().map(|sc| sc.plan.delay))?;
    std::thread::sleep(delay);
    Some(delay)
}

/// Consulted once per solver query: when the [`SITE_SOLVER_STEPS`] probe
/// fires, returns the step count after which the DPLL engine should
/// panic (exhaustion is only observable once the search is underway).
/// Queries within a scope are numbered, so with a single-threaded
/// detection run (`jobs = 1`, the batch engine's configuration) the
/// decision sequence is reproducible.
pub fn solver_fault_threshold() -> Option<u64> {
    let fire = SCOPE.with(|s| {
        let mut scope = s.borrow_mut();
        let scope = scope.as_mut()?;
        if !scope.plan.site_enabled(SITE_SOLVER_STEPS) {
            return None;
        }
        let q = scope.queries;
        scope.queries += 1;
        Some(decide(
            &scope.plan,
            &scope.job.clone(),
            scope.attempt,
            SITE_SOLVER_STEPS,
            &format!("q{q}"),
        ))
    })?;
    fire.then_some(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rate: f64, seed: u64) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(rate, seed).with_delay(Duration::from_millis(1)))
    }

    #[test]
    fn inert_without_a_scope() {
        assert!(!armed());
        assert!(!should_inject(SITE_BATCH_JOB, "x"));
        assert!(maybe_delay(SITE_BATCH_DELAY, "x").is_none());
        maybe_panic(SITE_DETECT_CHANNEL, "x"); // must not panic
        assert_eq!(solver_fault_threshold(), None);
    }

    #[test]
    fn decisions_are_deterministic_and_scope_dependent() {
        let p = plan(0.5, 7);
        let one = with_scope(p.clone(), "job-a", 1, || {
            (0..32)
                .map(|i| should_inject(SITE_BATCH_JOB, &format!("k{i}")))
                .collect::<Vec<_>>()
        });
        let two = with_scope(p.clone(), "job-a", 1, || {
            (0..32)
                .map(|i| should_inject(SITE_BATCH_JOB, &format!("k{i}")))
                .collect::<Vec<_>>()
        });
        assert_eq!(one, two, "same scope, same decisions");
        assert!(one.iter().any(|&b| b) && one.iter().any(|&b| !b));
        let other_attempt = with_scope(p, "job-a", 2, || {
            (0..32)
                .map(|i| should_inject(SITE_BATCH_JOB, &format!("k{i}")))
                .collect::<Vec<_>>()
        });
        assert_ne!(one, other_attempt, "attempt is part of the key");
    }

    #[test]
    fn rate_extremes() {
        with_scope(plan(1.0, 3), "j", 1, || {
            assert!(should_inject(SITE_CORPUS_APP, "k"));
        });
        with_scope(plan(0.0, 3), "j", 1, || {
            assert!(!should_inject(SITE_CORPUS_APP, "k"));
            assert_eq!(solver_fault_threshold(), None);
        });
    }

    #[test]
    fn site_filter_is_honored() {
        let p = Arc::new(FaultPlan::new(1.0, 0).with_sites([SITE_BATCH_DELAY]));
        with_scope(p, "j", 1, || {
            assert!(!should_inject(SITE_BATCH_JOB, "k"));
            assert!(should_inject(SITE_BATCH_DELAY, "k"));
        });
    }

    #[test]
    fn injected_panics_carry_the_marker() {
        let err = crate::resilience::catch_isolated(|| {
            with_scope(plan(1.0, 1), "j", 1, || maybe_panic(SITE_BATCH_JOB, "j"))
        })
        .expect_err("rate 1.0 must fire");
        assert!(is_injected(&err), "{err}");
    }

    #[test]
    fn scope_restores_on_unwind() {
        let _ = crate::resilience::catch_isolated(|| {
            with_scope(plan(1.0, 1), "j", 1, || maybe_panic(SITE_BATCH_JOB, "j"))
        });
        assert!(!armed(), "panic inside a scope must disarm it");
    }

    #[test]
    fn solver_threshold_numbers_queries() {
        // With rate 1.0 every query fires; the threshold is always the
        // same, but consecutive calls must keep advancing the counter
        // (distinct keys) rather than re-deciding query 0 forever.
        with_scope(plan(1.0, 9), "j", 1, || {
            assert_eq!(solver_fault_threshold(), Some(1));
            assert_eq!(solver_fault_threshold(), Some(1));
        });
        // With a middling rate the per-query sequence is reproducible.
        let seq = |attempt| {
            with_scope(plan(0.5, 9), "j", attempt, || {
                (0..16)
                    .map(|_| solver_fault_threshold().is_some())
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(seq(1), seq(1));
        assert_ne!(seq(1), seq(2));
    }

    #[test]
    fn injected_site_parses_panic_messages() {
        assert_eq!(
            injected_site("injected fault: panic at batch.job (mod-a)"),
            Some("batch.job")
        );
        assert_eq!(injected_site("real panic"), None);
        assert_eq!(injected_site("injected fault: solver budget"), None);
    }

    #[test]
    fn env_plan_requires_rate_and_validates() {
        // Not set in the test environment: no plan, no error. (Tests that
        // *set* the variables exercise this through the CLI, where the
        // process is isolated.)
        if std::env::var("GCATCH_FAULT_RATE").is_err() {
            assert!(matches!(FaultPlan::from_env(), Ok(None)));
        }
    }
}
