//! The BMOC constraint system (§3.4 of the paper) and its §6 extension.
//!
//! Given one path combination, this module builds a **guarded** encoding of
//! `Φ = ΦR ∧ ΦB` over the [`minismt`] constraint language, shared by every
//! query on that combination:
//!
//! * every event gets an order variable `O`, a guard `kept` (the event
//!   executes in this scenario), and — for blockable events — a guard `blk`
//!   (the event is a member of the blocking group). `part = kept ∧ ¬blk`
//!   selects the events that participate in matching and channel-state
//!   counters;
//! * `Φorder` chains each goroutine's events; `Φspawn` orders `go`
//!   statements before the child's first event (guarded by the child's
//!   first event being kept);
//! * each cross-goroutine (send, recv) occurrence pair on the same primitive
//!   gets a match variable `P(s, r)` implying participation of both ends and
//!   `O_s = O_r`;
//! * the channel-state counters are pseudo-boolean sums over auxiliary
//!   variables `q ⇔ part ∧ O_o < at`: `CB` = number of participating sends
//!   ordered before `at` minus receives, and `CLOSED` ⇔ some participating
//!   close is ordered before `at`;
//! * `ΦR` (reachability) asserts every participating operation proceeds: a
//!   send needs buffer room or exactly one match, a receive needs a buffered
//!   element, a close, or exactly one match;
//! * `ΦB` (blocking) asserts every `blk` operation blocks and is ordered
//!   after every participating event.
//!
//! A [`Query`] is either a suspicious group (`ΦR ∧ ΦB`: can the group
//! block forever?) or a §6 (send, close) pair (`ΦR` plus the panic
//! constraint `O_close < O_send`: can the send run after the close?).
//! Because all per-query variation lives in the `kept`/`blk` guards and
//! the pair's order atom, one encoding serves every query of a
//! combination: each query is a [`minismt::Solver::solve_under`] call whose
//! assumptions fix them. [`ChannelSolver::check`] answers both kinds and
//! manages that reuse (one persistent solver per channel, one
//! [`minismt::Solver::push`] scope per combination); it also implements the
//! fresh-per-query strategies used for differential testing.
//!
//! Mutexes were already rewritten into the channel view (`Lock` = send on a
//! buffer-1 channel, `Unlock` = receive), so a single encoding covers both.

use crate::detector::{Combo, GroupMember};
use crate::faults;
use crate::paths::{Event, PathOp};
use crate::primitives::{OpKind, PrimId, Primitives};
use crate::report::WitnessStep;
use crate::resilience::Budget;
use minismt::{Atom, BoolVar, IntVar, SolveResult, Solver, SolverMode, SolverStats, Term};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Condvar, Mutex, MutexGuard};

/// A communication occurrence inside a combination.
#[derive(Debug, Clone)]
struct Occurrence {
    goroutine: usize,
    prim: PrimId,
    kind: OpKind,
    order: IntVar,
    /// The event this occurrence belongs to (selects contribute their
    /// chosen case as an occurrence at the select's order point).
    event: (usize, usize),
}

/// The verdict for one (combination, query) pair.
#[derive(Debug)]
pub enum Verdict {
    /// A witness interleaving exists (the group blocks, or the send runs
    /// after the close): its events in execution order.
    Blocking(Vec<WitnessStep>),
    /// No such interleaving exists under this combination.
    Safe,
    /// The solver gave up (budget).
    Unknown,
}

/// How the detector discharges its solver queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverStrategy {
    /// One persistent watched-literal solver per channel; each combination
    /// is a push/pop scope and each group query an assumption query that
    /// reuses the combination's encoding and learned clauses. The default.
    #[default]
    Incremental,
    /// A fresh watched-literal solver and encoding per query. The
    /// differential baseline for the incremental strategy.
    Fresh,
    /// A fresh solver per query running the legacy rescan propagation
    /// engine ([`minismt::SolverMode::Rescan`]).
    Rescan,
}

impl SolverStrategy {
    /// The [`minismt`] propagation engine this strategy runs.
    pub fn engine_mode(self) -> SolverMode {
        match self {
            SolverStrategy::Incremental | SolverStrategy::Fresh => SolverMode::Watched,
            SolverStrategy::Rescan => SolverMode::Rescan,
        }
    }
}

/// The result of one query.
#[derive(Debug)]
pub struct GroupCheck {
    /// The verdict.
    pub verdict: Verdict,
    /// Solver effort behind the verdict, for provenance and telemetry;
    /// `None` when no solver decided it. Whenever the canonical solve runs
    /// (every verdict but an incremental refutation), these are its
    /// stats, so provenance is the same under every strategy.
    pub stats: Option<SolverStats>,
    /// Whether the query reused a previously built combination encoding.
    pub reused: bool,
    /// Whether a structurally identical query's stored [`Outcome`]
    /// answered this one: no solver ran, so `stats` are provenance only
    /// and count toward no solver counter.
    pub shared: bool,
}

/// One question asked of a combination.
#[derive(Debug, Clone)]
pub enum Query {
    /// Can this suspicious group block forever (`ΦR ∧ ΦB`, §3.4)?
    Group(Vec<GroupMember>),
    /// Can `send` execute after `close` on the same channel, a runtime
    /// panic (`ΦR ∧ O_close < O_send`, §6)?
    Pair {
        /// The send operation.
        send: GroupMember,
        /// The close operation.
        close: GroupMember,
    },
}

impl Query {
    /// Whether the combination's encoding asserts that a default-chosen
    /// select found every case blocked: blocking-group queries need it,
    /// and the reachability-only pair queries keep the historical
    /// encoding without it.
    fn blocking(&self) -> bool {
        matches!(self, Query::Group(_))
    }
}

/// The canonical structure of one query's encoding, modulo channel (and
/// primitive) identity: primitives are renamed to their first-appearance
/// index over the combination walk, and only verdict-relevant structure
/// (event shapes, spawn links, buffer sizes, the guard assignment, the
/// step limit, the engine mode) enters the key. Two queries with equal
/// keys produce isomorphic encodings and therefore identical verdicts —
/// full structural equality, never a bare hash, so a collision cannot
/// produce a wrong verdict.
type CanonKey = Vec<u64>;

/// Builds the [`CanonKey`] of one query from its pre-encoding inputs.
fn canon_key(
    prims: &Primitives,
    combo: &Combo,
    query: &Query,
    step_limit: u64,
    mode: SolverMode,
) -> CanonKey {
    let mut key: Vec<u64> = Vec::with_capacity(64);
    key.push(if query.blocking() { 0 } else { 1 });
    key.push(match mode {
        SolverMode::Watched => 0,
        SolverMode::Rescan => 1,
    });
    key.push(step_limit);

    // Primitive renaming: first appearance over the deterministic walk.
    let mut canon_of: HashMap<PrimId, u64> = HashMap::new();
    let mut buffers: Vec<u64> = Vec::new();
    let mut canon = |p: PrimId, buffers: &mut Vec<u64>| -> u64 {
        *canon_of.entry(p).or_insert_with(|| {
            buffers.push(prims.all[p.0].buffer_size().unwrap_or(0) as u64);
            (buffers.len() - 1) as u64
        })
    };

    key.push(combo.gos.len() as u64);
    for g in &combo.gos {
        match g.spawned_at {
            Some((parent, ev)) => {
                key.push(1);
                key.push(parent as u64);
                key.push(ev as u64);
            }
            None => key.push(0),
        }
        key.push(g.path.events.len() as u64);
        for event in &g.path.events {
            match event {
                Event::Op(op) => {
                    key.push(0);
                    key.push(canon(op.prim, &mut buffers));
                    key.push(op.kind as u64);
                }
                Event::Select { cases, chosen, .. } => {
                    key.push(1);
                    key.push(u64::from(chosen.is_some()));
                    key.push(cases.len() as u64);
                    for (case_idx, op) in cases {
                        key.push(u64::from(Some(case_idx) == chosen.as_ref()));
                        key.push(canon(op.prim, &mut buffers));
                        key.push(op.kind as u64);
                    }
                }
                // Spawns and facts only occupy an order slot (part ⇔ kept);
                // the spawn *links* are captured by `spawned_at` above.
                _ => key.push(2),
            }
        }
    }
    key.push(buffers.len() as u64);
    key.extend(buffers);
    match query {
        Query::Group(group) => {
            key.push(0);
            key.push(group.len() as u64);
            for m in group {
                key.push(m.goroutine as u64);
                key.push(m.event as u64);
            }
        }
        Query::Pair { send, close } => {
            key.push(1);
            key.push(send.goroutine as u64);
            key.push(send.event as u64);
            key.push(close.goroutine as u64);
            key.push(close.event as u64);
        }
    }
    key
}

/// A decided query's answer, as the canonical solve gave it. Queries with
/// equal canonical keys issue the same solver calls there, so the outcome
/// is a function of the key: any structurally identical query may take it
/// as its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// No witness interleaving exists.
    Safe,
    /// A witness interleaving exists.
    Blocking {
        /// The witness's kept events in execution order, as
        /// `(goroutine, event)` indices into the combination. They name
        /// no primitive, so they render over any combination with the
        /// same key.
        witness: Vec<(usize, usize)>,
        /// The canonical solve's effort, which the report's provenance
        /// carries.
        stats: SolverStats,
    },
}

impl Outcome {
    /// The verdict this outcome gives on `combo`: a blocking witness
    /// names `combo`'s own events.
    fn verdict(&self, prims: &Primitives, combo: &Combo) -> Verdict {
        match self {
            Outcome::Safe => Verdict::Safe,
            Outcome::Blocking { witness, .. } => Verdict::Blocking(
                witness
                    .iter()
                    .map(|&(gi, ei)| describe_event(prims, combo, gi, ei))
                    .collect(),
            ),
        }
    }
}

/// Session-global cross-channel verdict cache: structurally identical
/// queries (see `canon_key`) share one [`Outcome`]. Only decided outcomes
/// are stored; `Unknown` is never cached. A `Blocking` hit renders the
/// stored witness over its own combination and runs no solver, and its
/// report carries the stored canonical stats, so reports are
/// byte-identical with sharing off.
///
/// Concurrent workers solve each key once, so the counters of a
/// `--jobs N` run equal a one-worker run's: a miss claims its key, and a
/// worker that finds the key claimed waits for the claimant's verdict and
/// shares it. An `Unknown` verdict, or a claimant that unwinds, releases
/// the claim instead; the waiters then solve the key themselves.
#[derive(Debug, Default)]
pub struct EncodingCache {
    state: Mutex<CacheState>,
    /// Signalled when a claim settles while workers wait on one.
    settled: Condvar,
}

#[derive(Debug, Default)]
struct CacheState {
    slots: HashMap<CanonKey, Slot>,
    /// Workers blocked on a claim.
    waiting: usize,
}

/// One canonical key's entry.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    /// A worker is solving the key.
    Claimed,
    /// The key's outcome.
    Decided(Outcome),
}

/// What [`EncodingCache::lookup`] found.
enum Lookup<'c> {
    /// A decided outcome, possibly after waiting for the worker that
    /// solved it.
    Hit(Outcome),
    /// The key was free and is now the caller's to solve.
    Claimed(Claim<'c>),
    /// The claim the caller waited on was released without a verdict:
    /// the caller solves the key itself, uncached.
    Released,
}

/// A worker's claim on a key it is solving. Dropping it settles the key:
/// it stores [`Claim::outcome`] or, when that is `None` (an `Unknown`
/// verdict, or a solve that unwound), releases the key, and it wakes every
/// waiter either way.
struct Claim<'c> {
    cache: &'c EncodingCache,
    key: CanonKey,
    outcome: Option<Outcome>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut state = self.cache.state();
        let key = std::mem::take(&mut self.key);
        match self.outcome.take() {
            Some(outcome) => {
                state.slots.insert(key, Slot::Decided(outcome));
            }
            None => {
                state.slots.remove(&key);
            }
        }
        if state.waiting > 0 {
            self.cache.settled.notify_all();
        }
    }
}

impl EncodingCache {
    /// An empty cache.
    pub fn new() -> EncodingCache {
        EncodingCache::default()
    }

    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks `key` up: a decided outcome is a hit, a free key is claimed
    /// for the caller, and another worker's claim is waited out.
    fn lookup(&self, key: CanonKey) -> Lookup<'_> {
        let mut state = self.state();
        let mut waited = false;
        loop {
            match state.slots.get(&key) {
                Some(Slot::Decided(outcome)) => return Lookup::Hit(outcome.clone()),
                Some(Slot::Claimed) => {
                    state.waiting += 1;
                    state = self.settled.wait(state).unwrap_or_else(|e| e.into_inner());
                    state.waiting -= 1;
                    waited = true;
                }
                None if waited => return Lookup::Released,
                None => {
                    state.slots.insert(key.clone(), Slot::Claimed);
                    return Lookup::Claimed(Claim {
                        cache: self,
                        key,
                        outcome: None,
                    });
                }
            }
        }
    }

    /// Number of distinct canonical encodings with a cached outcome.
    pub fn len(&self) -> usize {
        self.state()
            .slots
            .values()
            .filter(|slot| matches!(slot, Slot::Decided(_)))
            .count()
    }

    /// Snapshots every cached outcome, sorted by key, for carrying solver
    /// warmth across daemon requests. Keys are fully structural (names
    /// renamed by first appearance, no positions) and witnesses are event
    /// indices, so a snapshot taken against one module version is sound
    /// to replay against any other.
    pub fn export(&self) -> Vec<(Vec<u64>, Outcome)> {
        let state = self.state();
        let mut entries: Vec<(Vec<u64>, Outcome)> = state
            .slots
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Decided(outcome) => Some((k.clone(), outcome.clone())),
                Slot::Claimed => None,
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Seeds this cache with outcomes previously taken via
    /// [`EncodingCache::export`]. Existing entries win on collision (both
    /// sides hold the same outcome for the same canonical key anyway).
    pub fn import(&self, entries: &[(Vec<u64>, Outcome)]) {
        let mut state = self.state();
        for (k, outcome) in entries {
            state
                .slots
                .entry(k.clone())
                .or_insert_with(|| Slot::Decided(outcome.clone()));
        }
    }

    /// Whether no outcome is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The guarded encoding of one combination.
#[derive(Debug)]
struct Encoding {
    blocking: bool,
    order: BTreeMap<(usize, usize), IntVar>,
    kept: BTreeMap<(usize, usize), BoolVar>,
    blk: BTreeMap<(usize, usize), BoolVar>,
}

/// The guard assignment of one query, plus the kept-event set for
/// witness reconstruction.
struct Assumptions {
    terms: Vec<Term>,
    kept_events: Vec<(usize, usize)>,
}

/// Per-channel solving context: owns the persistent incremental solver (if
/// the strategy uses one) and the telemetry counters for encoding reuse.
#[derive(Debug)]
pub struct ChannelSolver<'p> {
    prims: &'p Primitives,
    strategy: SolverStrategy,
    solver: Option<Solver>,
    /// The current combination's encoding, built lazily by its first query
    /// that misses the cross-channel cache, so fully shared combinations
    /// never pay for an encoding at all.
    enc: Option<Encoding>,
    base_clauses: usize,
    combo_queries: u64,
    /// Cross-channel verdict cache; `None` disables sharing.
    cache: Option<&'p EncodingCache>,
    /// Queries answered against an already-built combination encoding.
    pub encodings_reused: u64,
    /// Learned clauses retained from earlier queries at the moment a
    /// reusing query starts.
    pub learned_kept: u64,
    /// Queries answered from a structurally identical channel's cached
    /// outcome instead of fresh solver work.
    pub encodings_shared: u64,
}

impl<'p> ChannelSolver<'p> {
    /// Creates a context for one channel's queries.
    pub fn new(prims: &'p Primitives, strategy: SolverStrategy) -> ChannelSolver<'p> {
        Self::with_cache(prims, strategy, None)
    }

    /// [`ChannelSolver::new`] with an optional cross-channel verdict
    /// cache shared by every channel of the session.
    pub fn with_cache(
        prims: &'p Primitives,
        strategy: SolverStrategy,
        cache: Option<&'p EncodingCache>,
    ) -> ChannelSolver<'p> {
        ChannelSolver {
            prims,
            strategy,
            solver: None,
            enc: None,
            base_clauses: 0,
            combo_queries: 0,
            cache,
            encodings_reused: 0,
            learned_kept: 0,
            encodings_shared: 0,
        }
    }

    /// Builds the combination's shared guarded encoding into a fresh
    /// push scope of the persistent solver, once per combination.
    fn ensure_encoding(&mut self, combo: &Combo, blocking: bool) {
        if self.enc.is_some() {
            return;
        }
        let solver = self
            .solver
            .get_or_insert_with(|| Solver::with_mode(SolverMode::Watched));
        solver.push();
        let enc = build_encoding(solver, self.prims, combo, blocking);
        self.base_clauses = solver.num_clauses();
        self.combo_queries = 0;
        self.enc = Some(enc);
    }

    /// Closes the current combination: discards the encoding scope its
    /// first cache-missing query opened, if any (the persistent solver
    /// survives for the next combination). Every query until the next
    /// call belongs to one combination and asks one kind of question.
    pub fn end_combo(&mut self) {
        if self.enc.take().is_some() {
            if let Some(s) = self.solver.as_mut() {
                s.pop();
            }
        }
    }

    /// Answers one query on the current combination under a cooperative
    /// [`Budget`]: the query's step limit is rationed from the budget's
    /// global step pool and its deadline is handed to the DPLL engine; an
    /// already-expired budget short-circuits to [`Verdict::Unknown`]
    /// without running the solver.
    pub fn check(
        &mut self,
        combo: &Combo,
        query: &Query,
        step_limit: u64,
        budget: &Budget,
    ) -> GroupCheck {
        // Cross-channel sharing is bypassed whenever the budget rations
        // work (cache hits would skip deadline checks and step draws,
        // changing later queries' rationing) or fault injection is armed
        // (hits would skip fault draws, breaking the reproducible fault
        // schedule). A cancel token alone rations nothing: a hit only
        // skips a solve whose verdict is already known.
        let shareable = self.cache.is_some() && !budget.rations() && !faults::armed();
        if !shareable {
            return self
                .check_uncached(combo, query, step_limit, budget)
                .render(self.prims, combo);
        }
        let cache = self.cache.expect("checked above");
        let key = canon_key(
            self.prims,
            combo,
            query,
            step_limit,
            self.strategy.engine_mode(),
        );
        match cache.lookup(key) {
            Lookup::Hit(outcome) => {
                // A structurally identical query was decided; its outcome
                // is this one's, and a blocking witness renders over this
                // combination's own events.
                self.encodings_shared += 1;
                GroupCheck {
                    verdict: outcome.verdict(self.prims, combo),
                    stats: match outcome {
                        Outcome::Blocking { stats, .. } => Some(stats),
                        Outcome::Safe => None,
                    },
                    reused: false,
                    shared: true,
                }
            }
            Lookup::Claimed(mut claim) => {
                let solved = self.check_uncached(combo, query, step_limit, budget);
                let check = solved.render(self.prims, combo);
                claim.outcome = solved.outcome;
                check
            }
            Lookup::Released => self
                .check_uncached(combo, query, step_limit, budget)
                .render(self.prims, combo),
        }
    }

    fn check_uncached(
        &mut self,
        combo: &Combo,
        query: &Query,
        step_limit: u64,
        budget: &Budget,
    ) -> Solved {
        if budget.expired() {
            return Solved::UNKNOWN;
        }
        let granted = budget.draw(step_limit);
        if granted == 0 {
            return Solved::UNKNOWN;
        }
        // One fault-injection draw per logical query, before any
        // short-circuit: the `solver.steps` site numbers queries per scope,
        // and the historical engine drew at solver construction, so both
        // the count and the order of draws are part of the reproducible
        // fault schedule.
        let fault = faults::solver_fault_threshold();
        let Some(kept) = kept_lengths(combo, query) else {
            // A group member's goroutine never starts: no encoding is
            // built and the solver is not run.
            budget.refund(granted);
            return Solved {
                outcome: Some(Outcome::Safe),
                stats: None,
                reused: false,
            };
        };

        // The incremental strategy first tries to refute the query on the
        // combination's shared encoding.
        let mut spent = 0;
        let mut reused = false;
        if self.strategy == SolverStrategy::Incremental {
            self.ensure_encoding(combo, query.blocking());
            let enc = self.enc.as_ref().expect("ensure_encoding built it");
            debug_assert_eq!(
                enc.blocking,
                query.blocking(),
                "combo was opened for a different query kind"
            );
            let assume = assumptions(enc, combo, query, &kept);
            self.combo_queries += 1;
            reused = self.combo_queries > 1;
            let solver = self.solver.as_mut().expect("solver exists with encoding");
            if reused {
                self.encodings_reused += 1;
                self.learned_kept += (solver.num_clauses() - self.base_clauses) as u64;
            }
            solver.set_step_limit(granted);
            solver.set_deadline(budget.deadline());
            solver.set_step_fault(fault);
            let refuted = solver.solve_under(&assume.terms).is_unsat();
            let stats = solver.stats();
            if refuted {
                budget.refund(granted.saturating_sub(stats.steps));
                return Solved {
                    outcome: Some(Outcome::Safe),
                    stats: Some(stats),
                    reused,
                };
            }
            spent = stats.steps;
        }
        // Not refuted. Learned-clause retention makes an incremental model,
        // its step count, and whether it finishes within the limit depend
        // on query history, so the canonical solve decides: the verdict,
        // witness and provenance of every query the incremental solve does
        // not refute are the fresh strategy's.
        let (outcome, stats) = self.solve_canonical(combo, query, &kept, granted, budget, fault);
        budget.refund(granted.saturating_sub(spent + stats.steps));
        Solved {
            outcome,
            stats: Some(stats),
            reused,
        }
    }

    /// The canonical solve: a fresh solver builds the query's encoding and
    /// solves under its guards. Equal [`CanonKey`]s issue the same solver
    /// calls here, so the outcome, witness indices and stats included, is
    /// a function of the key.
    fn solve_canonical(
        &self,
        combo: &Combo,
        query: &Query,
        kept: &[usize],
        granted: u64,
        budget: &Budget,
        fault: Option<u64>,
    ) -> (Option<Outcome>, SolverStats) {
        let mut solver = Solver::with_mode(self.strategy.engine_mode());
        solver.set_step_limit(granted);
        solver.set_deadline(budget.deadline());
        solver.set_step_fault(fault);
        let enc = build_encoding(&mut solver, self.prims, combo, query.blocking());
        let assume = assumptions(&enc, combo, query, kept);
        let result = solver.solve_under(&assume.terms);
        let stats = solver.stats();
        let outcome = match result {
            SolveResult::Sat(model) => Some(Outcome::Blocking {
                witness: witness_order(&enc, &assume, &model),
                stats,
            }),
            SolveResult::Unsat => Some(Outcome::Safe),
            SolveResult::Unknown => None,
        };
        (outcome, stats)
    }
}

/// One query's answer before its witness is rendered.
struct Solved {
    /// The answer; `None` when the solver gave up.
    outcome: Option<Outcome>,
    /// Effort of the solver run behind the answer; `None` when none ran.
    stats: Option<SolverStats>,
    reused: bool,
}

impl Solved {
    const UNKNOWN: Solved = Solved {
        outcome: None,
        stats: None,
        reused: false,
    };

    fn render(&self, prims: &Primitives, combo: &Combo) -> GroupCheck {
        GroupCheck {
            verdict: self
                .outcome
                .as_ref()
                .map_or(Verdict::Unknown, |o| o.verdict(prims, combo)),
            stats: self.stats,
            reused: self.reused,
            shared: false,
        }
    }
}

/// Lazily reifies the channel-state auxiliary variables of one encoding:
/// `q(o, at) ⇔ part_o ∧ O_o < at`, shared across every pseudo-boolean sum
/// that references the same occurrence/time-point pair.
struct StateVars<'a> {
    occs: &'a [Occurrence],
    part: &'a BTreeMap<(usize, usize), BoolVar>,
    prims: &'a Primitives,
    q_vars: HashMap<(usize, u32), BoolVar>,
}

impl StateVars<'_> {
    fn q_var(&mut self, solver: &mut Solver, i: usize, at: IntVar) -> BoolVar {
        if let Some(&v) = self.q_vars.get(&(i, at.0)) {
            return v;
        }
        let v = solver.fresh_bool();
        solver.assert(Term::iff(
            Term::var(v),
            Term::and([
                Term::var(self.part[&self.occs[i].event]),
                Term::Atom(Atom::DiffLe {
                    x: self.occs[i].order,
                    y: at,
                    c: -1,
                }),
            ]),
        ));
        self.q_vars.insert((i, at.0), v);
        v
    }

    /// The `CB` counter at `at`: participating sends before minus
    /// participating receives before.
    fn cb_terms(
        &mut self,
        solver: &mut Solver,
        at: IntVar,
        prim: PrimId,
        skip: usize,
    ) -> Vec<(i64, Atom)> {
        let mut terms: Vec<(i64, Atom)> = Vec::new();
        for k in 0..self.occs.len() {
            if k == skip || self.occs[k].prim != prim {
                continue;
            }
            match self.occs[k].kind {
                OpKind::Send => terms.push((1, Atom::Bool(self.q_var(solver, k, at)))),
                OpKind::Recv => terms.push((-1, Atom::Bool(self.q_var(solver, k, at)))),
                OpKind::Close => {}
            }
        }
        terms
    }

    /// `CLOSED` at `at`: some participating close is ordered before.
    fn closed_term(&mut self, solver: &mut Solver, at: IntVar, prim: PrimId) -> Term {
        let mut closes: Vec<Term> = Vec::new();
        for k in 0..self.occs.len() {
            if self.occs[k].prim == prim && self.occs[k].kind == OpKind::Close {
                closes.push(Term::var(self.q_var(solver, k, at)));
            }
        }
        Term::or(closes)
    }

    fn buffer_size(&self, prim: PrimId) -> i64 {
        self.prims.all[prim.0].buffer_size().unwrap_or(0)
    }

    /// The condition under which `op` blocks at time point `at`.
    fn blocked_case(&mut self, solver: &mut Solver, op: &PathOp, at: IntVar) -> Term {
        let bs = self.buffer_size(op.prim);
        match op.kind {
            OpKind::Send => {
                // Buffer full: CB >= BS.
                let cb = self.cb_terms(solver, at, op.prim, usize::MAX);
                Term::Linear {
                    terms: cb,
                    cmp: minismt::Cmp::Ge,
                    k: bs,
                }
            }
            OpKind::Recv => {
                // Empty and not closed: CB <= 0 ∧ ¬CLOSED.
                let cb = self.cb_terms(solver, at, op.prim, usize::MAX);
                let empty = Term::Linear {
                    terms: cb,
                    cmp: minismt::Cmp::Le,
                    k: 0,
                };
                let not_closed = Term::not(self.closed_term(solver, at, op.prim));
                Term::and([empty, not_closed])
            }
            OpKind::Close => Term::False, // close never blocks
        }
    }
}

/// Builds the combination's guarded encoding into `solver`'s current scope,
/// for blocking-group queries or, with `blocking` false, for pair queries
/// (see [`Query::blocking`]).
fn build_encoding(
    solver: &mut Solver,
    prims: &Primitives,
    combo: &Combo,
    blocking: bool,
) -> Encoding {
    // All maps are BTreeMaps: iteration order feeds term assertion order,
    // which decides atom numbering — and with it the DPLL search path and
    // step counts, which provenance exposes and the `--jobs` contract
    // requires to be bit-identical across runs.
    let mut order: BTreeMap<(usize, usize), IntVar> = BTreeMap::new();
    for (gi, g) in combo.gos.iter().enumerate() {
        for ei in 0..g.path.events.len() {
            order.insert((gi, ei), solver.fresh_int());
        }
    }
    let mut kept: BTreeMap<(usize, usize), BoolVar> = BTreeMap::new();
    let mut blk: BTreeMap<(usize, usize), BoolVar> = BTreeMap::new();
    let mut part: BTreeMap<(usize, usize), BoolVar> = BTreeMap::new();
    for (gi, g) in combo.gos.iter().enumerate() {
        for (ei, event) in g.path.events.iter().enumerate() {
            let k = solver.fresh_bool();
            kept.insert((gi, ei), k);
            if matches!(event, Event::Op(_) | Event::Select { .. }) {
                let b = solver.fresh_bool();
                let p = solver.fresh_bool();
                solver.assert(Term::iff(
                    Term::var(p),
                    Term::and([Term::var(k), Term::not(Term::var(b))]),
                ));
                blk.insert((gi, ei), b);
                part.insert((gi, ei), p);
            } else {
                // Spawns and facts are never group members: part ⇔ kept.
                part.insert((gi, ei), k);
            }
        }
    }

    // Φorder: per-goroutine chains (unconditional — ordering events that a
    // query truncates away is always satisfiable and keeps the skeleton
    // shared across queries).
    for (gi, g) in combo.gos.iter().enumerate() {
        for ei in 1..g.path.events.len() {
            solver.assert(Term::lt(order[&(gi, ei - 1)], order[&(gi, ei)]));
        }
    }

    // Φspawn: guarded by the child's first event being kept (the guard
    // assignments only keep it when the parent's spawn event is kept).
    for (gi, g) in combo.gos.iter().enumerate() {
        if g.path.events.is_empty() {
            continue;
        }
        if let Some((parent, ev)) = g.spawned_at {
            solver.assert(Term::implies(
                Term::var(kept[&(gi, 0)]),
                Term::lt(order[&(parent, ev)], order[&(gi, 0)]),
            ));
        }
    }

    // Collect communication occurrences: ops and chosen select cases.
    // Participation is decided per query by the event's `part` guard.
    let mut occs: Vec<Occurrence> = Vec::new();
    for (gi, g) in combo.gos.iter().enumerate() {
        for (ei, event) in g.path.events.iter().enumerate() {
            let o = order[&(gi, ei)];
            match event {
                Event::Op(op) => occs.push(Occurrence {
                    goroutine: gi,
                    prim: op.prim,
                    kind: op.kind,
                    order: o,
                    event: (gi, ei),
                }),
                Event::Select {
                    cases,
                    chosen: Some(ci),
                    ..
                } => {
                    for (case_idx, op) in cases {
                        if case_idx == ci {
                            occs.push(Occurrence {
                                goroutine: gi,
                                prim: op.prim,
                                kind: op.kind,
                                order: o,
                                event: (gi, ei),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Match variables P(s, r) between cross-goroutine pairs. A match
    // implies both ends participate, so guards subsume the historical
    // "non-group occurrences only" filter.
    let mut p_vars: BTreeMap<(usize, usize), BoolVar> = BTreeMap::new();
    for (i, s) in occs.iter().enumerate() {
        if s.kind != OpKind::Send {
            continue;
        }
        for (j, r) in occs.iter().enumerate() {
            if r.kind != OpKind::Recv || s.prim != r.prim || s.goroutine == r.goroutine {
                continue;
            }
            let p = solver.fresh_bool();
            p_vars.insert((i, j), p);
            solver.assert(Term::implies(
                Term::var(p),
                Term::and([
                    Term::var(part[&s.event]),
                    Term::var(part[&r.event]),
                    Term::eq_int(s.order, r.order),
                ]),
            ));
        }
    }
    // At most one match per occurrence.
    for (i, o) in occs.iter().enumerate() {
        let atoms: Vec<Atom> = match o.kind {
            OpKind::Send => p_vars
                .iter()
                .filter(|((si, _), _)| *si == i)
                .map(|(_, &p)| Atom::Bool(p))
                .collect(),
            OpKind::Recv => p_vars
                .iter()
                .filter(|((_, rj), _)| *rj == i)
                .map(|(_, &p)| Atom::Bool(p))
                .collect(),
            OpKind::Close => Vec::new(),
        };
        if atoms.len() > 1 {
            solver.assert(Term::at_most_one(atoms));
        }
    }

    // Channel-state helper builder: q(o, at) ⇔ part_o ∧ O_o < at. The q
    // variables are shared across every sum that references the same
    // occurrence/time-point pair — the payoff of building one encoding
    // per combination.
    let mut state = StateVars {
        occs: &occs,
        part: &part,
        prims,
        q_vars: HashMap::new(),
    };

    // ΦR: every participating occurrence proceeds.
    for (i, occ) in occs.iter().enumerate() {
        let bs = state.buffer_size(occ.prim);
        let proceed = match occ.kind {
            OpKind::Send => {
                // CB < BS ∨ exactly-one match.
                let cb = state.cb_terms(solver, occ.order, occ.prim, i);
                let room = Term::Linear {
                    terms: cb,
                    cmp: minismt::Cmp::Lt,
                    k: bs,
                };
                let match_atoms: Vec<Atom> = p_vars
                    .iter()
                    .filter(|((si, _), _)| *si == i)
                    .map(|(_, &p)| Atom::Bool(p))
                    .collect();
                Term::or([room, Term::exactly_one(match_atoms)])
            }
            OpKind::Recv => {
                // CB > 0 ∨ CLOSED ∨ exactly-one match.
                let cb = state.cb_terms(solver, occ.order, occ.prim, i);
                let has_elem = Term::Linear {
                    terms: cb,
                    cmp: minismt::Cmp::Gt,
                    k: 0,
                };
                let closed = state.closed_term(solver, occ.order, occ.prim);
                let match_atoms: Vec<Atom> = p_vars
                    .iter()
                    .filter(|((_, rj), _)| *rj == i)
                    .map(|(_, &p)| Atom::Bool(p))
                    .collect();
                Term::or([has_elem, closed, Term::exactly_one(match_atoms)])
            }
            OpKind::Close => continue,
        };
        solver.assert(Term::implies(Term::var(part[&occ.event]), proceed));
    }

    // ΦR for default-chosen selects (blocking queries only, matching the
    // historical encodings): every Pset case is blocked at the moment the
    // select executes.
    if blocking {
        for (gi, g) in combo.gos.iter().enumerate() {
            for (ei, event) in g.path.events.iter().enumerate() {
                if let Event::Select {
                    cases,
                    chosen: None,
                    ..
                } = event
                {
                    let at = order[&(gi, ei)];
                    for (_, op) in cases {
                        let b = state.blocked_case(solver, op, at);
                        solver.assert(Term::implies(Term::var(kept[&(gi, ei)]), b));
                    }
                }
            }
        }
    }

    // ΦB: a blk event blocks and is ordered after every participating
    // event (fellow group members stay mutually unordered because their
    // own `part` guard is false).
    for (&(bgi, bei), &b) in &blk {
        for (&(agi, aei), &o_a) in &order {
            if (agi, aei) == (bgi, bei) {
                continue;
            }
            solver.assert(Term::implies(
                Term::and([Term::var(part[&(agi, aei)]), Term::var(b)]),
                Term::lt(o_a, order[&(bgi, bei)]),
            ));
        }
        let at = order[&(bgi, bei)];
        let blocked = match &combo.gos[bgi].path.events[bei] {
            Event::Op(op) => state.blocked_case(solver, op, at),
            Event::Select { cases, .. } => {
                let mut all: Vec<Term> = Vec::new();
                for (_, op) in cases {
                    all.push(state.blocked_case(solver, op, at));
                }
                Term::and(all)
            }
            other => unreachable!("blk guards cover ops and selects, got {other:?}"),
        };
        solver.assert(Term::implies(Term::var(b), blocked));
    }

    Encoding {
        blocking,
        order,
        kept,
        blk,
    }
}

/// How many leading events of each goroutine a query keeps: a group
/// query truncates each goroutine after its members and keeps only the
/// goroutines whose spawn is kept; a pair query keeps everything. `None`
/// when a group member's goroutine never starts (the query is trivially
/// safe).
fn kept_lengths(combo: &Combo, query: &Query) -> Option<Vec<usize>> {
    let Query::Group(group) = query else {
        return Some(combo.gos.iter().map(|g| g.path.events.len()).collect());
    };
    // Truncation point per goroutine: events after a group member's event
    // never execute.
    let mut cutoff: Vec<usize> = combo.gos.iter().map(|g| g.path.events.len()).collect();
    for m in group {
        cutoff[m.goroutine] = cutoff[m.goroutine].min(m.event + 1);
    }
    // A goroutine is alive if it is the root or its spawn event is kept.
    let mut alive = vec![false; combo.gos.len()];
    alive[0] = true;
    for (gi, g) in combo.gos.iter().enumerate().skip(1) {
        if let Some((parent, ev)) = g.spawned_at {
            if alive[parent] && ev < cutoff[parent] {
                alive[gi] = true;
            }
        }
    }
    if group.iter().any(|m| !alive[m.goroutine]) {
        return None;
    }
    Some(
        cutoff
            .into_iter()
            .zip(alive)
            .map(|(cut, alive)| if alive { cut } else { 0 })
            .collect(),
    )
}

/// Computes the guard assignment for one query from its
/// [`kept_lengths`]: which events are kept and which are blocking-group
/// members, plus a pair query's panic constraint.
fn assumptions(enc: &Encoding, combo: &Combo, query: &Query, kept: &[usize]) -> Assumptions {
    let mut terms = Vec::with_capacity(enc.kept.len() + enc.blk.len() + 1);
    let mut kept_events = Vec::new();
    for (&(gi, ei), &k) in &enc.kept {
        if ei < kept[gi] {
            terms.push(Term::var(k));
            kept_events.push((gi, ei));
        } else {
            terms.push(Term::not(Term::var(k)));
        }
    }
    match query {
        Query::Group(group) => {
            let is_member =
                |gi: usize, ei: usize| group.iter().any(|m| m.goroutine == gi && m.event == ei);
            for m in group.iter() {
                assert!(
                    enc.blk.contains_key(&(m.goroutine, m.event)),
                    "group member must be an op or select, got {:?}",
                    combo.gos[m.goroutine].path.events[m.event]
                );
            }
            for (&(gi, ei), &b) in &enc.blk {
                if is_member(gi, ei) {
                    terms.push(Term::var(b));
                } else {
                    terms.push(Term::not(Term::var(b)));
                }
            }
        }
        Query::Pair { send, close } => {
            for &b in enc.blk.values() {
                terms.push(Term::not(Term::var(b)));
            }
            // The panic constraint: close strictly before the send.
            terms.push(Term::Atom(Atom::DiffLe {
                x: enc.order[&(close.goroutine, close.event)],
                y: enc.order[&(send.goroutine, send.event)],
                c: -1,
            }));
        }
    }
    Assumptions { terms, kept_events }
}

/// Orders a satisfying model's kept events by their order-variable values:
/// the witness, as `(goroutine, event)` indices. Events of one goroutine
/// are strictly ordered, so ties only join goroutines; they break on the
/// witness labels' `g{i}:` prefixes, compared as text (the order the
/// rendered steps' text gives), so no primitive name can move a step.
fn witness_order(
    enc: &Encoding,
    assume: &Assumptions,
    model: &minismt::Model,
) -> Vec<(usize, usize)> {
    let mut timeline: Vec<(i64, (usize, usize))> = assume
        .kept_events
        .iter()
        .map(|&ev| (model.int_value(enc.order[&ev]).unwrap_or(0), ev))
        .collect();
    timeline.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| cmp_goroutine_labels(a.1 .0, b.1 .0))
    });
    timeline.into_iter().map(|(_, ev)| ev).collect()
}

/// Compares goroutines as their witness labels' `g{i}:` prefixes compare
/// bytewise: `g10:` sorts before `g1:` because `'0'` sorts before `':'`.
fn cmp_goroutine_labels(a: usize, b: usize) -> Ordering {
    format!("g{a}:").cmp(&format!("g{b}:"))
}

fn describe_event(prims: &Primitives, combo: &Combo, gi: usize, ei: usize) -> WitnessStep {
    match &combo.gos[gi].path.events[ei] {
        Event::Op(op) => {
            let name = &prims.all[op.prim.0].name;
            let verb = match (op.kind, op.from_mutex) {
                (OpKind::Send, false) => "send",
                (OpKind::Recv, false) => "recv",
                (OpKind::Close, _) => "close",
                (OpKind::Send, true) => "lock",
                (OpKind::Recv, true) => "unlock",
            };
            WitnessStep {
                label: format!("g{gi}:{verb}({name})"),
                at: Some((op.loc, op.span)),
            }
        }
        Event::Select {
            chosen, loc, span, ..
        } => WitnessStep {
            label: match chosen {
                Some(ci) => format!("g{gi}:select.case{ci}"),
                None => format!("g{gi}:select.default"),
            },
            at: Some((*loc, *span)),
        },
        Event::Spawn { target, .. } => format!("g{gi}:go(f{})", target.0).into(),
        Event::Fact { value, .. } => format!("g{gi}:branch({value})").into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Combo, GoroutinePath, GroupMember};
    use crate::paths::{Event, Path, PathOp};
    use crate::primitives::collect;
    use golite::Span;
    use golite_ir::ir::{BlockId, FuncId, Loc};

    /// Hand-builds a two-goroutine combination over one channel: the parent
    /// spawns a child; ops are injected directly as path events.
    fn combo_with(parent_ops: Vec<Event>, child_ops: Vec<Event>) -> (Combo, Primitives) {
        combo_with_cap(parent_ops, child_ops, 0)
    }

    fn combo_with_cap(
        parent_ops: Vec<Event>,
        child_ops: Vec<Event>,
        cap: usize,
    ) -> (Combo, Primitives) {
        // A real module supplies the primitive table (one channel).
        let module = golite_ir::lower_source(&format!(
            "func main() {{\n ch := make(chan int, {cap})\n close(ch)\n}}",
        ))
        .unwrap();
        let analysis = golite_ir::analyze(&module);
        let prims = collect(&module, &analysis);
        let mut parent = vec![Event::Spawn {
            site: Loc {
                func: FuncId(0),
                block: BlockId(0),
                idx: 0,
            },
            target: FuncId(0),
        }];
        parent.extend(parent_ops);
        let combo = Combo {
            gos: vec![
                GoroutinePath {
                    path: Path { events: parent },
                    spawned_at: None,
                    root_func: FuncId(0),
                },
                GoroutinePath {
                    path: Path { events: child_ops },
                    spawned_at: Some((0, 0)),
                    root_func: FuncId(0),
                },
            ],
        };
        (combo, prims)
    }

    /// Asks one query of `combo` on a fresh-strategy solver.
    fn check(prims: &Primitives, combo: &Combo, query: Query) -> Verdict {
        ChannelSolver::new(prims, SolverStrategy::Fresh)
            .check(combo, &query, 100_000, &Budget::default())
            .verdict
    }

    fn op(prim: PrimId, kind: OpKind, idx: u32) -> Event {
        Event::Op(PathOp {
            prim,
            kind,
            loc: Loc {
                func: FuncId(0),
                block: BlockId(0),
                idx,
            },
            span: Span::synthetic(),
            from_mutex: false,
        })
    }

    #[test]
    fn orphan_send_blocks() {
        let (combo, prims) = combo_with(vec![], vec![op(PrimId(0), OpKind::Send, 9)]);
        let group = [GroupMember {
            goroutine: 1,
            event: 0,
        }];
        assert!(matches!(
            check(&prims, &combo, Query::Group(group.to_vec())),
            Verdict::Blocking(_)
        ));
    }

    #[test]
    fn matched_send_cannot_block() {
        // Parent receives: the child's send must match it, so claiming the
        // send blocks forever is UNSAT (the recv could not proceed).
        let (combo, prims) = combo_with(
            vec![op(PrimId(0), OpKind::Recv, 5)],
            vec![op(PrimId(0), OpKind::Send, 9)],
        );
        let group = [GroupMember {
            goroutine: 1,
            event: 0,
        }];
        assert!(matches!(
            check(&prims, &combo, Query::Group(group.to_vec())),
            Verdict::Safe
        ));
    }

    #[test]
    fn close_unblocks_receiver() {
        // Parent closes: the child's recv can always proceed via CLOSED.
        let (combo, prims) = combo_with(
            vec![op(PrimId(0), OpKind::Close, 5)],
            vec![op(PrimId(0), OpKind::Recv, 9)],
        );
        let group = [GroupMember {
            goroutine: 1,
            event: 0,
        }];
        assert!(matches!(
            check(&prims, &combo, Query::Group(group.to_vec())),
            Verdict::Safe
        ));
    }

    #[test]
    fn recv_after_group_send_truncates() {
        // The parent's recv comes AFTER its own later event... here: child
        // sends twice; group at the first send truncates the second away,
        // leaving the parent recv unmatched — so the scenario is UNSAT.
        let (combo, prims) = combo_with(
            vec![op(PrimId(0), OpKind::Recv, 5)],
            vec![
                op(PrimId(0), OpKind::Send, 9),
                op(PrimId(0), OpKind::Send, 10),
            ],
        );
        // Group = second send: first send matches the recv, second blocks.
        let group = [GroupMember {
            goroutine: 1,
            event: 1,
        }];
        assert!(matches!(
            check(&prims, &combo, Query::Group(group.to_vec())),
            Verdict::Blocking(_)
        ));
    }

    #[test]
    fn send_after_close_is_reachable() {
        // Same-channel close (parent) and send (child) with free ordering on
        // a buffered channel (the send can proceed without a receiver): the
        // panic interleaving exists.
        let (combo, prims) = combo_with_cap(
            vec![op(PrimId(0), OpKind::Close, 5)],
            vec![op(PrimId(0), OpKind::Send, 9)],
            1,
        );
        let verdict = check(
            &prims,
            &combo,
            Query::Pair {
                send: GroupMember {
                    goroutine: 1,
                    event: 0,
                },
                close: GroupMember {
                    goroutine: 0,
                    event: 1,
                },
            },
        );
        assert!(matches!(verdict, Verdict::Blocking(_)));
    }

    /// Every strategy must agree on verdicts, and the incremental strategy
    /// must produce byte-identical witnesses to the fresh strategy.
    #[test]
    fn strategies_agree_on_hand_built_combos() {
        let cases: Vec<(Combo, Primitives, Vec<GroupMember>)> = vec![
            {
                let (c, p) = combo_with(vec![], vec![op(PrimId(0), OpKind::Send, 9)]);
                (
                    c,
                    p,
                    vec![GroupMember {
                        goroutine: 1,
                        event: 0,
                    }],
                )
            },
            {
                let (c, p) = combo_with(
                    vec![op(PrimId(0), OpKind::Recv, 5)],
                    vec![op(PrimId(0), OpKind::Send, 9)],
                );
                (
                    c,
                    p,
                    vec![GroupMember {
                        goroutine: 1,
                        event: 0,
                    }],
                )
            },
            {
                let (c, p) = combo_with(
                    vec![op(PrimId(0), OpKind::Recv, 5)],
                    vec![
                        op(PrimId(0), OpKind::Send, 9),
                        op(PrimId(0), OpKind::Send, 10),
                    ],
                );
                (
                    c,
                    p,
                    vec![GroupMember {
                        goroutine: 1,
                        event: 1,
                    }],
                )
            },
        ];
        for (combo, prims, group) in &cases {
            let query = Query::Group(group.clone());
            let run = |strategy: SolverStrategy| {
                let mut cs = ChannelSolver::new(prims, strategy);
                let check = cs.check(combo, &query, 100_000, &Budget::default());
                cs.end_combo();
                check
            };
            let inc = run(SolverStrategy::Incremental);
            let fresh = run(SolverStrategy::Fresh);
            let rescan = run(SolverStrategy::Rescan);
            let label = |v: &Verdict| match v {
                Verdict::Blocking(w) => format!("blocking:{w:?}"),
                Verdict::Safe => "safe".into(),
                Verdict::Unknown => "unknown".into(),
            };
            assert_eq!(
                label(&inc.verdict),
                label(&fresh.verdict),
                "incremental vs fresh diverged"
            );
            assert_eq!(
                matches!(rescan.verdict, Verdict::Safe),
                matches!(fresh.verdict, Verdict::Safe),
                "rescan verdict diverged"
            );
        }
    }

    /// Reusing a combination encoding across that combination's groups
    /// must bump the reuse counters and keep verdicts stable.
    #[test]
    fn incremental_reuse_counts_queries() {
        let (combo, prims) = combo_with(
            vec![op(PrimId(0), OpKind::Recv, 5)],
            vec![
                op(PrimId(0), OpKind::Send, 9),
                op(PrimId(0), OpKind::Send, 10),
            ],
        );
        let mut cs = ChannelSolver::new(&prims, SolverStrategy::Incremental);
        let g0 = cs.check(
            &combo,
            &Query::Group(vec![GroupMember {
                goroutine: 1,
                event: 0,
            }]),
            100_000,
            &Budget::default(),
        );
        let g1 = cs.check(
            &combo,
            &Query::Group(vec![GroupMember {
                goroutine: 1,
                event: 1,
            }]),
            100_000,
            &Budget::default(),
        );
        cs.end_combo();
        assert!(!g0.reused);
        assert!(g1.reused);
        assert_eq!(cs.encodings_reused, 1);
        assert!(matches!(g0.verdict, Verdict::Safe));
        assert!(matches!(g1.verdict, Verdict::Blocking(_)));
    }

    /// A tie between two goroutines' events orders them as their rendered
    /// witness steps order, whatever the rest of each label says.
    #[test]
    fn goroutine_ties_order_as_their_rendered_labels() {
        for a in 0..25 {
            for b in (0..25).filter(|&b| b != a) {
                assert_eq!(
                    cmp_goroutine_labels(a, b),
                    format!("g{a}:send(zz)@9:9").cmp(&format!("g{b}:close(a)")),
                    "g{a} vs g{b}"
                );
            }
        }
    }

    /// Blocks until `n` workers wait on a claim: the interleaving under
    /// test is forced, never left to timing.
    fn await_waiters(cache: &EncodingCache, n: usize) {
        while cache.state().waiting < n {
            std::thread::yield_now();
        }
    }

    /// Workers that miss one key together solve it once: the first claims
    /// it, the rest wait and share its verdict.
    #[test]
    fn concurrent_misses_on_one_key_solve_it_once() {
        let cache = EncodingCache::new();
        let key: CanonKey = vec![3, 1, 4];
        let Lookup::Claimed(mut claim) = cache.lookup(key.clone()) else {
            panic!("the first lookup claims the key")
        };
        let workers = 3;
        let start = std::sync::Barrier::new(workers + 1);
        let solves = std::sync::atomic::AtomicUsize::new(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        match cache.lookup(key.clone()) {
                            Lookup::Hit(outcome) => Some(outcome),
                            Lookup::Claimed(_) | Lookup::Released => {
                                solves.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                None
                            }
                        }
                    })
                })
                .collect();
            start.wait();
            await_waiters(&cache, workers);
            claim.outcome = Some(Outcome::Safe);
            drop(claim);
            for handle in handles {
                assert_eq!(handle.join().expect("worker"), Some(Outcome::Safe));
            }
        });
        assert_eq!(solves.into_inner(), 1, "one solve for the key");
        assert_eq!(cache.export(), vec![(key, Outcome::Safe)]);
    }

    /// A claim released without a verdict (an `Unknown`, or a claimant
    /// that unwound) wakes its waiter, which then solves the key itself;
    /// the key stays uncached and free to claim.
    #[test]
    fn a_released_claim_wakes_its_waiter() {
        let cache = EncodingCache::new();
        let key: CanonKey = vec![2, 7];
        let Lookup::Claimed(claim) = cache.lookup(key.clone()) else {
            panic!("the first lookup claims the key")
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| matches!(cache.lookup(key.clone()), Lookup::Released));
            await_waiters(&cache, 1);
            drop(claim);
            assert!(waiter.join().expect("waiter"), "the waiter was released");
        });
        assert!(cache.is_empty(), "nothing was decided");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _claim = cache.lookup(key.clone());
            panic!("solver unwound");
        }));
        assert!(unwound.is_err());
        assert!(matches!(cache.lookup(key), Lookup::Claimed(_)));
    }
}
