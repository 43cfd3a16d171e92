//! The DPLL(T) engine.
//!
//! The engine combines three propagation mechanisms over one assignment
//! trail:
//!
//! 1. **Clauses** from the Tseitin encoding of asserted [`Term`]s,
//!    propagated either by two-watched-literal lists
//!    ([`SolverMode::Watched`], the default) or by full occurrence-list
//!    rescans ([`SolverMode::Rescan`], the legacy engine kept for
//!    differential testing);
//! 2. **Pseudo-boolean constraints** (reified `Σ cᵢ·litᵢ <= k`), used for
//!    GCatch's channel-buffer counters and exactly-one matching;
//! 3. **Difference logic** for order atoms `x - y <= c`, checked eagerly by
//!    the incremental [`DiffLogic`] theory whenever an order atom is
//!    assigned.
//!
//! Search is DPLL with chronological backtracking plus conflict clauses
//! harvested from theory cycles and violated PB constraints. The watched
//! engine adds an activity-bumped (VSIDS-lite) decision heuristic that is
//! fully deterministic: ties break toward the lowest variable index.
//!
//! The solver is **incremental**: assertions are encoded eagerly into a
//! persistent engine, and [`Solver::solve_under`] answers queries under
//! assumption literals without touching the assertions. Conflict clauses
//! learned by a query are retained for later queries (they are
//! consequences of the asserted formula and the theory, never of the
//! assumptions, so retention is sound) until [`Solver::reset`] forgets
//! the formula, keeping the allocations for the next one.

use crate::dl::DiffLogic;
use crate::term::{Atom, BoolVar, Cmp, IntVar, Term};
use std::collections::HashMap;

/// A satisfying assignment.
#[derive(Debug, Clone, Default)]
pub struct Model {
    bools: HashMap<BoolVar, bool>,
    ints: HashMap<IntVar, i64>,
}

impl Model {
    /// Value of a boolean variable, if it was mentioned in the problem.
    pub fn bool_value(&self, v: BoolVar) -> Option<bool> {
        self.bools.get(&v).copied()
    }

    /// Value of an integer variable, if it was mentioned in the problem.
    /// Unconstrained variables default to 0.
    pub fn int_value(&self, v: IntVar) -> Option<i64> {
        self.ints.get(&v).copied()
    }

    /// Iterates over all integer variable values.
    pub fn ints(&self) -> impl Iterator<Item = (IntVar, i64)> + '_ {
        self.ints.iter().map(|(v, x)| (*v, *x))
    }
}

/// Search-effort counters for one [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Propagation/decision steps consumed (the budgeted quantity).
    pub steps: u64,
    /// Decision points: unassigned variables picked during search.
    pub decisions: u64,
    /// Conflicts: clause/PB violations and theory cycles hit.
    pub conflicts: u64,
    /// Wall-clock time of the call (encode + search). Unlike the effort
    /// counters this is *not* deterministic; consumers exporting
    /// reproducible output must use `steps`/`decisions`/`conflicts`.
    pub elapsed: std::time::Duration,
}

/// The outcome of [`Solver::solve`].
#[derive(Debug, Clone)]
pub enum SolveResult {
    /// A model satisfying all asserted terms.
    Sat(Model),
    /// No model exists (under the assumptions, if any were given).
    Unsat,
    /// The step limit or wall-clock deadline was exhausted before a
    /// verdict.
    Unknown,
}

impl SolveResult {
    /// `true` if the result is [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// `true` if the result is [`SolveResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }

    /// Extracts the model, if satisfiable.
    pub fn model(self) -> Option<Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Which propagation engine the solver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Two-watched-literal clause propagation with the VSIDS-lite decision
    /// heuristic. The default.
    #[default]
    Watched,
    /// The legacy clone-free occurrence-list rescan engine with the
    /// first-unassigned-index heuristic. Kept as an escape hatch for
    /// differential testing against the watched engine.
    Rescan,
}

/// A constraint-solving context: create variables, assert terms, solve.
///
/// # Examples
///
/// ```
/// use minismt::{Solver, Term};
///
/// let mut s = Solver::new();
/// let a = s.fresh_int();
/// let b = s.fresh_int();
/// let c = s.fresh_int();
/// s.assert(Term::lt(a, b));
/// s.assert(Term::lt(b, c));
/// let model = s.solve().model().expect("a < b < c is satisfiable");
/// assert!(model.int_value(a) < model.int_value(b));
///
/// let mut s2 = Solver::new();
/// let x = s2.fresh_int();
/// let y = s2.fresh_int();
/// s2.assert(Term::lt(x, y));
/// s2.assert(Term::lt(y, x));
/// assert!(s2.solve().is_unsat());
/// ```
///
/// Incremental use — assumptions, then a reset for the next formula:
///
/// ```
/// use minismt::{Solver, Term};
///
/// let mut s = Solver::new();
/// let p = s.fresh_bool();
/// let q = s.fresh_bool();
/// s.assert(Term::or([Term::var(p), Term::var(q)]));
/// s.assert(Term::not(Term::var(p)));
/// assert!(s.solve_under(&[Term::not(Term::var(q))]).is_unsat());
/// assert!(s.solve().is_sat()); // assumptions do not persist
///
/// s.reset(); // forget the formula, keep the allocations
/// let r = s.fresh_bool();
/// assert_eq!(r, p); // variables are numbered afresh
/// assert!(s.solve_under(&[Term::not(Term::var(r))]).is_sat());
/// ```
#[derive(Debug)]
pub struct Solver {
    n_bool: u32,
    n_int: u32,
    engine: Engine,
    step_limit: u64,
    deadline: Option<std::time::Instant>,
    fault_step: Option<u64>,
    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with the default engine
    /// ([`SolverMode::Watched`]), the default step limit, and no deadline.
    pub fn new() -> Self {
        Solver::with_mode(SolverMode::default())
    }

    /// Creates an empty solver running the given propagation engine.
    pub fn with_mode(mode: SolverMode) -> Self {
        Solver {
            n_bool: 0,
            n_int: 0,
            engine: Engine::new(mode),
            step_limit: 5_000_000,
            deadline: None,
            fault_step: None,
            stats: SolverStats::default(),
        }
    }

    /// The propagation engine this solver runs.
    pub fn mode(&self) -> SolverMode {
        self.engine.mode
    }

    /// Creates a fresh boolean variable.
    pub fn fresh_bool(&mut self) -> BoolVar {
        let v = BoolVar(self.n_bool);
        self.n_bool += 1;
        v
    }

    /// Creates a fresh integer variable.
    pub fn fresh_int(&mut self) -> IntVar {
        let v = IntVar(self.n_int);
        self.n_int += 1;
        v
    }

    /// Sets the search budget (number of propagation/decision steps) for
    /// subsequent solve calls.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Sets (or clears) a wall-clock deadline for [`Solver::solve`].
    ///
    /// The search checks the clock cooperatively every few hundred
    /// steps and returns [`SolveResult::Unknown`] once the deadline
    /// passes. Unlike the step limit this makes the *verdict*
    /// timing-dependent, so callers needing reproducible output should
    /// prefer the step limit and treat the deadline as a last-resort
    /// bound.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Arms (`Some(after)`) or clears a test-only fault: the search
    /// panics once it has consumed `after` steps, simulating pathological
    /// step exhaustion at the same site where the real step limit is
    /// enforced. The panic message carries the `injected fault:` marker so
    /// supervisors can classify it as transient. Never armed in production
    /// paths; callers opt in explicitly (see the fault-injection layer in
    /// `gcatch`), and incremental callers re-arm per query.
    pub fn set_step_fault(&mut self, after: Option<u64>) {
        self.fault_step = after;
    }

    /// Asserts that `t` must hold in any model. The term is encoded into
    /// the persistent engine immediately and holds until [`Solver::reset`].
    pub fn assert(&mut self, t: Term) {
        self.engine.assert_term(&t);
    }

    /// Total clauses in the engine (base, Tseitin, and learned). The delta
    /// across queries on one formula counts retained learned clauses.
    pub fn num_clauses(&self) -> usize {
        self.engine.clauses.len()
    }

    /// Forgets every variable, assertion and learned clause, and the last
    /// query's stats, but keeps the allocations: the solver then behaves
    /// exactly like a new [`Solver::with_mode`] of its mode. The step
    /// limit, deadline and step fault are settings, and stay as set.
    pub fn reset(&mut self) {
        self.n_bool = 0;
        self.n_int = 0;
        self.stats = SolverStats::default();
        self.engine.reset();
    }

    /// Solves the conjunction of all asserted terms.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_under(&[])
    }

    /// Solves the asserted terms under additional assumption terms.
    ///
    /// Assumptions hold only for this query: they are assigned on the
    /// trail below every decision (so backtracking can never flip them)
    /// and are fully retracted afterwards. An [`SolveResult::Unsat`]
    /// answer means "unsatisfiable under these assumptions". Conflict
    /// clauses learned during the query are kept for later queries until
    /// the next [`Solver::reset`].
    pub fn solve_under(&mut self, assumptions: &[Term]) -> SolveResult {
        let start = std::time::Instant::now();
        self.engine.limit = self.step_limit;
        self.engine.deadline = self.deadline;
        self.engine.fault_step = self.fault_step;
        let mut lits = Vec::with_capacity(assumptions.len());
        for t in assumptions {
            // Register atoms first so the model covers every mentioned var.
            let mut atoms = Vec::new();
            t.collect_atoms(&mut atoms);
            for a in atoms {
                self.engine.atom_var(&a);
            }
            lits.push(self.engine.encode(t));
        }
        let result = self.engine.search(&lits);
        self.stats = SolverStats {
            steps: self.engine.steps,
            decisions: self.engine.decisions,
            conflicts: self.engine.conflicts,
            elapsed: start.elapsed(),
        };
        self.engine.reset_trail();
        result
    }

    /// Effort counters of the most recent [`Solver::solve`] call.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }
}

// ---------------------------------------------------------------- internals

/// A literal: variable index with polarity in the low bit (`v<<1 | neg`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Lit(u32);

impl Lit {
    fn pos(v: u32) -> Lit {
        Lit(v << 1)
    }

    fn var(self) -> u32 {
        self.0 >> 1
    }

    fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    fn neg(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// The value this literal requires its variable to take.
    fn target(self) -> bool {
        !self.is_neg()
    }

    /// Index into per-literal tables (two slots per variable).
    fn code(self) -> usize {
        self.0 as usize
    }
}

/// A composite term as the cons table keys it: its connective over what
/// its operands already encode to. Operands are encoded before their
/// parent, so two subterms share an entry exactly when their operands
/// encode to the same literals, and no `Term` is hashed or copied.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Cons {
    And(Vec<Lit>),
    Or(Vec<Lit>),
    /// `Σ coefᵢ·atomᵢ cmp k`, each atom as its variable.
    Linear {
        terms: Vec<(i64, u32)>,
        cmp: Cmp,
        k: i64,
    },
}

#[derive(Debug, Clone, Copy)]
enum VarKind {
    /// A free boolean (or Tseitin auxiliary) variable.
    Free,
    /// A difference-logic atom `x - y <= c`.
    Diff { x: u32, y: u32, c: i64 },
}

#[derive(Debug)]
struct PbConstraint {
    /// Activation literal: `act` true ⇔ `Σ cᵢ·litᵢ <= k`.
    act: Lit,
    /// Positive-coefficient terms; a true literal contributes its coefficient.
    terms: Vec<(i64, Lit)>,
    k: i64,
}

#[derive(Debug, Clone, Copy)]
struct TrailEntry {
    var: u32,
    value: bool,
    /// Whether this was a decision (searchable) or an implication.
    decision: bool,
    /// Whether the decision has already been flipped once.
    flipped: bool,
    /// Number of DL edges asserted before this entry.
    dl_mark: usize,
}

/// Activity decay factor: each conflict scales the bump increment by
/// `1/ACTIVITY_DECAY`, geometrically favouring recent conflicts.
const ACTIVITY_DECAY: f64 = 0.95;

/// Rescale threshold keeping activities inside f64 range. Rescaling
/// divides every activity by the same constant, so comparisons — and with
/// them decisions and step counts — are unaffected.
const ACTIVITY_RESCALE: f64 = 1e100;

#[derive(Debug, Default)]
struct Engine {
    mode: SolverMode,
    kinds: Vec<VarKind>,
    values: Vec<Option<bool>>,
    atom_ids: HashMap<Atom, u32>,
    /// Cons table: composite terms already Tseitin-encoded map to their
    /// activation literal, so re-encoding an identical subterm is a lookup
    /// instead of fresh clauses.
    intern: HashMap<Cons, Lit>,
    clauses: Vec<Vec<Lit>>,
    /// var -> clause indices containing it (Rescan engine only).
    occurs: Vec<Vec<u32>>,
    /// lit code -> clauses currently watching that literal (Watched engine
    /// only). The watched literals of clause `ci` are `clauses[ci][0..2]`.
    watches: Vec<Vec<u32>>,
    /// Literals that must hold unconditionally: unit clauses plus ground
    /// PB propagations. Replayed at the start of every watched search.
    units: Vec<Lit>,
    /// Unit conflict clauses learned during the current search; replayed
    /// after every backtrack (the queue is cleared by trail pops).
    fresh_units: Vec<Lit>,
    empty_clauses: u32,
    pbs: Vec<PbConstraint>,
    /// var -> PB indices containing it (as term or activation).
    pb_occurs: Vec<Vec<u32>>,
    trail: Vec<TrailEntry>,
    /// var -> trail index, `u32::MAX` when unassigned. Lets conflict
    /// learning watch the deepest-assigned literals.
    trail_pos: Vec<u32>,
    queue: std::collections::VecDeque<Lit>,
    /// VSIDS-lite activity per variable (Watched engine only).
    activity: Vec<f64>,
    var_inc: f64,
    dl: DiffLogic,
    steps: u64,
    decisions: u64,
    conflicts: u64,
    limit: u64,
    /// Optional wall-clock bound, checked every `DEADLINE_STRIDE` steps.
    deadline: Option<std::time::Instant>,
    /// Step count at which the deadline is next consulted.
    next_deadline_check: u64,
    /// Test-only armed fault: panic once `steps` reaches this value.
    fault_step: Option<u64>,
    true_var: u32,
}

/// How many search steps pass between wall-clock deadline checks; keeps
/// `Instant::now()` off the hot path.
const DEADLINE_STRIDE: u64 = 256;

impl Engine {
    fn new(mode: SolverMode) -> Engine {
        let mut e = Engine {
            mode,
            ..Engine::default()
        };
        e.reset();
        e
    }

    /// Empties the engine down to its initial state, the constant-true
    /// variable and its unit clause, keeping every allocation. Search
    /// counters and the budget are set per search, so they are left alone.
    fn reset(&mut self) {
        self.kinds.clear();
        self.values.clear();
        self.atom_ids.clear();
        self.intern.clear();
        self.clauses.clear();
        self.occurs.clear();
        self.watches.clear();
        self.units.clear();
        self.fresh_units.clear();
        self.empty_clauses = 0;
        self.pbs.clear();
        self.pb_occurs.clear();
        self.trail.clear();
        self.trail_pos.clear();
        self.queue.clear();
        self.activity.clear();
        self.var_inc = 1.0;
        self.dl.clear();
        self.true_var = self.fresh_var(VarKind::Free);
        self.add_clause(vec![Lit::pos(self.true_var)]);
    }

    fn fresh_var(&mut self, kind: VarKind) -> u32 {
        let v = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.values.push(None);
        self.occurs.push(Vec::new());
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.pb_occurs.push(Vec::new());
        self.trail_pos.push(u32::MAX);
        self.activity.push(0.0);
        v
    }

    fn atom_var(&mut self, atom: &Atom) -> u32 {
        if let Some(&v) = self.atom_ids.get(atom) {
            return v;
        }
        let kind = match atom {
            Atom::Bool(_) => VarKind::Free,
            Atom::DiffLe { x, y, c } => VarKind::Diff {
                x: x.0,
                y: y.0,
                c: *c,
            },
        };
        let v = self.fresh_var(kind);
        self.atom_ids.insert(*atom, v);
        v
    }

    fn assert_term(&mut self, t: &Term) {
        // Register any variable the formula mentions so the model covers it.
        let mut atoms = Vec::new();
        t.collect_atoms(&mut atoms);
        for a in atoms {
            self.atom_var(&a);
        }
        let lit = self.encode(t);
        self.add_clause(vec![lit]);
    }

    fn add_clause(&mut self, lits: Vec<Lit>) {
        let idx = self.clauses.len() as u32;
        match self.mode {
            SolverMode::Rescan => {
                for l in &lits {
                    self.occurs[l.var() as usize].push(idx);
                }
            }
            SolverMode::Watched => {
                if lits.len() >= 2 {
                    self.watches[lits[0].code()].push(idx);
                    self.watches[lits[1].code()].push(idx);
                }
            }
        }
        match lits.len() {
            0 => self.empty_clauses += 1,
            1 => self.units.push(lits[0]),
            _ => {}
        }
        self.clauses.push(lits);
    }

    /// Records a conflict clause: bumps the involved variables, orders the
    /// two deepest-assigned literals into the watch slots (so the watched
    /// invariant survives the chronological backtrack that follows), and
    /// adds the clause permanently, until the next reset.
    fn learn_clause(&mut self, mut lits: Vec<Lit>) {
        for &lit in &lits {
            self.bump(lit.var());
        }
        if self.mode == SolverMode::Watched && lits.len() >= 2 {
            for slot in 0..2 {
                let mut best = slot;
                for k in (slot + 1)..lits.len() {
                    if self.watch_rank(lits[k]) > self.watch_rank(lits[best]) {
                        best = k;
                    }
                }
                lits.swap(slot, best);
            }
        }
        if lits.len() == 1 {
            self.fresh_units.push(lits[0]);
        }
        self.add_clause(lits);
    }

    /// Watch preference for a learned-clause literal: unassigned beats
    /// assigned, deeper trail positions beat shallower ones. Backtracking
    /// pops the trail from the top, so the two top-ranked literals are
    /// the last to stay falsified — exactly the watched invariant.
    fn watch_rank(&self, l: Lit) -> u64 {
        match self.trail_pos[l.var() as usize] {
            u32::MAX => u64::MAX,
            p => p as u64,
        }
    }

    fn bump(&mut self, var: u32) {
        if self.mode != SolverMode::Watched {
            return;
        }
        self.activity[var as usize] += self.var_inc;
        if self.activity[var as usize] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
    }

    fn decay(&mut self) {
        if self.mode != SolverMode::Watched {
            return;
        }
        self.var_inc /= ACTIVITY_DECAY;
    }

    // -------------------------------------------------------- CNF encoding

    fn encode(&mut self, t: &Term) -> Lit {
        let key = match t {
            Term::True => return Lit::pos(self.true_var),
            Term::False => return Lit::pos(self.true_var).neg(),
            Term::Atom(a) => return Lit::pos(self.atom_var(a)),
            Term::Not(inner) => return self.encode(inner).neg(),
            Term::And(ts) => Cons::And(ts.iter().map(|t| self.encode(t)).collect()),
            Term::Or(ts) => Cons::Or(ts.iter().map(|t| self.encode(t)).collect()),
            Term::Linear { terms, cmp, k } => Cons::Linear {
                terms: terms.iter().map(|(c, a)| (*c, self.atom_var(a))).collect(),
                cmp: *cmp,
                k: *k,
            },
        };
        if let Some(&l) = self.intern.get(&key) {
            return l;
        }
        let l = match &key {
            Cons::And(lits) => {
                let v = Lit::pos(self.fresh_var(VarKind::Free));
                // v -> each lit
                for &l in lits {
                    self.add_clause(vec![v.neg(), l]);
                }
                // all lits -> v
                let mut clause: Vec<Lit> = lits.iter().map(|l| l.neg()).collect();
                clause.push(v);
                self.add_clause(clause);
                v
            }
            Cons::Or(lits) => {
                let v = Lit::pos(self.fresh_var(VarKind::Free));
                // v -> (l1 | ... | ln)
                let mut clause = vec![v.neg()];
                clause.extend(lits.iter().copied());
                self.add_clause(clause);
                // each lit -> v
                for &l in lits {
                    self.add_clause(vec![l.neg(), v]);
                }
                v
            }
            Cons::Linear { terms, cmp, k } => self.encode_linear(terms, *cmp, *k),
        };
        self.intern.insert(key, l);
        l
    }

    /// Reifies `Σ cᵢ·vᵢ cmp k` over atom variables into an activation
    /// literal.
    fn encode_linear(&mut self, terms: &[(i64, u32)], cmp: Cmp, k: i64) -> Lit {
        let negated = || -> Vec<(i64, u32)> { terms.iter().map(|&(c, v)| (-c, v)).collect() };
        match cmp {
            Cmp::Le => self.encode_le(terms, k),
            Cmp::Lt => self.encode_le(terms, k - 1),
            Cmp::Ge => self.encode_le(&negated(), -k),
            Cmp::Gt => self.encode_le(&negated(), -k - 1),
            Cmp::Eq => {
                let le = self.encode_le(terms, k);
                let ge = self.encode_le(&negated(), -k);
                // v <-> le & ge
                let v = Lit::pos(self.fresh_var(VarKind::Free));
                self.add_clause(vec![v.neg(), le]);
                self.add_clause(vec![v.neg(), ge]);
                self.add_clause(vec![le.neg(), ge.neg(), v]);
                v
            }
        }
    }

    /// Core reified `Σ cᵢ·aᵢ <= k` with arbitrary-sign coefficients.
    /// Normalized to positive coefficients over possibly negated literals:
    /// `-c·a == c·(¬a) - c`.
    fn encode_le(&mut self, terms: &[(i64, u32)], k: i64) -> Lit {
        let mut norm: Vec<(i64, Lit)> = Vec::with_capacity(terms.len());
        for &(c, v) in terms {
            if c > 0 {
                norm.push((c, Lit::pos(v)));
            } else if c < 0 {
                // -|c|·a = |c|·(¬a) - |c|, so the bound k gains +|c|.
                norm.push((-c, Lit::pos(v).neg()));
            }
        }
        let shift: i64 = terms
            .iter()
            .filter(|(c, _)| *c < 0)
            .map(|(c, _)| c.abs())
            .sum();
        let k = k + shift;

        let act = Lit::pos(self.fresh_var(VarKind::Free));
        let idx = self.pbs.len() as u32;
        for (_, l) in &norm {
            self.pb_occurs[l.var() as usize].push(idx);
        }
        self.pb_occurs[act.var() as usize].push(idx);
        // Ground propagations (the only ones possible with nothing
        // assigned): record them as units so the watched engine need not
        // rescan every PB at each solve.
        let total: i64 = norm.iter().map(|(c, _)| *c).sum();
        if total <= k {
            self.units.push(act);
        } else if k < 0 {
            self.units.push(act.neg());
        }
        self.pbs.push(PbConstraint {
            act,
            terms: norm,
            k,
        });
        act
    }

    // ------------------------------------------------------------- search

    fn value_of(&self, l: Lit) -> Option<bool> {
        self.values[l.var() as usize].map(|v| v != l.is_neg())
    }

    fn enqueue(&mut self, l: Lit) {
        self.queue.push_back(l);
    }

    /// Assigns `l`; returns false on an immediate theory conflict.
    fn assign(&mut self, l: Lit, decision: bool) -> bool {
        let var = l.var();
        let value = l.target();
        debug_assert!(self.values[var as usize].is_none());
        let dl_mark = self.dl.active_len();
        self.values[var as usize] = Some(value);
        self.trail_pos[var as usize] = self.trail.len() as u32;
        self.trail.push(TrailEntry {
            var,
            value,
            decision,
            flipped: false,
            dl_mark,
        });

        if let VarKind::Diff { x, y, c } = self.kinds[var as usize] {
            let result = if value {
                self.dl.assert(x as usize, y as usize, c, var)
            } else {
                // ¬(x - y <= c)  ⇔  y - x <= -c - 1
                self.dl.assert(y as usize, x as usize, -c - 1, var)
            };
            if let Err(cycle) = result {
                // Learn the cycle clause: at least one involved atom must flip.
                let clause: Vec<Lit> = cycle
                    .iter()
                    .map(|&tag| {
                        let val = self.values[tag as usize].expect("cycle atoms are assigned");
                        if val {
                            Lit::pos(tag).neg()
                        } else {
                            Lit::pos(tag)
                        }
                    })
                    .collect();
                self.learn_clause(clause);
                return false;
            }
        }
        true
    }

    /// Undoes trail entries above `len`.
    fn pop_to(&mut self, len: usize) {
        while self.trail.len() > len {
            let e = self.trail.pop().expect("len checked");
            self.values[e.var as usize] = None;
            self.trail_pos[e.var as usize] = u32::MAX;
            self.dl.retract_to(e.dl_mark);
        }
        self.queue.clear();
    }

    /// Fully retracts the trail after a solve, restoring the engine to
    /// its quiescent between-queries state.
    fn reset_trail(&mut self) {
        self.pop_to(0);
    }

    /// Propagates until fixpoint. Returns false on conflict.
    fn propagate(&mut self) -> bool {
        loop {
            let Some(l) = self.queue.pop_front() else {
                return true;
            };
            self.steps += 1;
            match self.value_of(l) {
                Some(true) => continue,
                Some(false) => {
                    self.bump(l.var());
                    return false;
                }
                None => {
                    if !self.assign(l, false) {
                        return false;
                    }
                }
            }
            if !self.post_assign(l) {
                return false;
            }
        }
    }

    /// Mode dispatch for the work following an assignment of `l`.
    fn post_assign(&mut self, l: Lit) -> bool {
        match self.mode {
            SolverMode::Rescan => self.process_var(l.var()),
            SolverMode::Watched => self.on_assigned_watched(l) && self.process_pbs(l.var()),
        }
    }

    /// Re-evaluates every clause and PB constraint mentioning `var` after it
    /// was assigned (Rescan engine). Returns false on conflict.
    ///
    /// Iterates by index rather than cloning the occurrence lists: new
    /// entries are appended only by conflict learning, which makes the
    /// enclosing check return false before the next iteration, so the
    /// iteration never observes a stale snapshot.
    fn process_var(&mut self, var: u32) -> bool {
        let mut i = 0;
        while i < self.occurs[var as usize].len() {
            let ci = self.occurs[var as usize][i] as usize;
            if !self.check_clause(ci) {
                return false;
            }
            i += 1;
        }
        self.process_pbs(var)
    }

    /// Re-evaluates every PB constraint mentioning `var` (both engines).
    fn process_pbs(&mut self, var: u32) -> bool {
        let mut i = 0;
        while i < self.pb_occurs[var as usize].len() {
            let pi = self.pb_occurs[var as usize][i] as usize;
            if !self.check_pb(pi) {
                return false;
            }
            i += 1;
        }
        true
    }

    /// Visits every clause watching the falsification of `p`'s complement
    /// (Watched engine): moves watches to non-false literals, propagates
    /// units, detects conflicts. Returns false on conflict.
    fn on_assigned_watched(&mut self, p: Lit) -> bool {
        let false_lit = p.neg();
        let code = false_lit.code();
        let mut i = 0;
        'clauses: while i < self.watches[code].len() {
            let ci = self.watches[code][i] as usize;
            // Normalize: the falsified watched literal sits in slot 1.
            if self.clauses[ci][0] == false_lit {
                self.clauses[ci].swap(0, 1);
            }
            let first = self.clauses[ci][0];
            if self.value_of(first) == Some(true) {
                i += 1;
                continue;
            }
            // Find a replacement watch among the tail literals.
            for k in 2..self.clauses[ci].len() {
                let cand = self.clauses[ci][k];
                if self.value_of(cand) != Some(false) {
                    self.clauses[ci].swap(1, k);
                    self.watches[cand.code()].push(ci as u32);
                    self.watches[code].swap_remove(i);
                    continue 'clauses;
                }
            }
            // No replacement: the clause is unit or conflicting.
            if self.value_of(first) == Some(false) {
                for k in 0..self.clauses[ci].len() {
                    let v = self.clauses[ci][k].var();
                    self.bump(v);
                }
                return false;
            }
            self.enqueue(first);
            i += 1;
        }
        true
    }

    /// Evaluates clause `ci`: detects conflict or unit-propagates
    /// (Rescan engine).
    fn check_clause(&mut self, ci: usize) -> bool {
        let mut unassigned: Option<Lit> = None;
        let mut n_unassigned = 0;
        for &l in &self.clauses[ci] {
            match self.value_of(l) {
                Some(true) => return true,
                Some(false) => {}
                None => {
                    n_unassigned += 1;
                    unassigned = Some(l);
                }
            }
        }
        match n_unassigned {
            0 => false,
            1 => {
                self.enqueue(unassigned.expect("counted one"));
                true
            }
            _ => true,
        }
    }

    /// Evaluates PB constraint `pi`: bounds checking plus propagation.
    fn check_pb(&mut self, pi: usize) -> bool {
        let (act, k) = (self.pbs[pi].act, self.pbs[pi].k);
        let mut min = 0i64;
        let mut max = 0i64;
        for &(c, l) in &self.pbs[pi].terms {
            match self.value_of(l) {
                Some(true) => {
                    min += c;
                    max += c;
                }
                Some(false) => {}
                None => max += c,
            }
        }
        match self.value_of(act) {
            Some(true) => {
                // Σ <= k must hold.
                if min > k {
                    return self.pb_conflict(pi, true);
                }
                if max > k {
                    // Force false any literal whose coefficient would overflow.
                    let pending: Vec<Lit> = self.pbs[pi]
                        .terms
                        .iter()
                        .filter(|&&(c, l)| self.value_of(l).is_none() && min + c > k)
                        .map(|&(_, l)| l.neg())
                        .collect();
                    for l in pending {
                        self.enqueue(l);
                    }
                }
                true
            }
            Some(false) => {
                // Σ >= k + 1 must hold.
                if max < k + 1 {
                    return self.pb_conflict(pi, false);
                }
                if min < k + 1 {
                    let pending: Vec<Lit> = self.pbs[pi]
                        .terms
                        .iter()
                        .filter(|&&(c, l)| self.value_of(l).is_none() && max - c < k + 1)
                        .map(|&(_, l)| l)
                        .collect();
                    for l in pending {
                        self.enqueue(l);
                    }
                }
                true
            }
            None => {
                if max <= k {
                    self.enqueue(act);
                } else if min > k {
                    self.enqueue(act.neg());
                }
                true
            }
        }
    }

    /// Records a learned clause for a violated PB constraint and reports
    /// conflict. `act_true` says which side of the reification was violated.
    fn pb_conflict(&mut self, pi: usize, act_true: bool) -> bool {
        let mut clause: Vec<Lit> = Vec::new();
        let act = self.pbs[pi].act;
        clause.push(if act_true { act.neg() } else { act });
        let lits: Vec<(i64, Lit)> = self.pbs[pi].terms.clone();
        for (_, l) in lits {
            match self.value_of(l) {
                // For the <= side, true literals push the sum up; for the >=
                // side, false literals pull the max down.
                Some(true) if act_true => clause.push(l.neg()),
                Some(false) if !act_true => clause.push(l),
                _ => {}
            }
        }
        self.learn_clause(clause);
        false
    }

    fn search(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.steps = 0;
        self.decisions = 0;
        self.conflicts = 0;
        self.next_deadline_check = 0;
        self.fresh_units.clear();
        debug_assert!(self.trail.is_empty());
        if self.empty_clauses > 0 {
            return SolveResult::Unsat;
        }
        // Initial pass: the Rescan engine scans every constraint (handles
        // unit clauses and ground PB facts); the Watched engine replays
        // the precomputed unit list instead.
        match self.mode {
            SolverMode::Rescan => {
                for ci in 0..self.clauses.len() {
                    if !self.check_clause(ci) {
                        return SolveResult::Unsat;
                    }
                }
                for pi in 0..self.pbs.len() {
                    if !self.check_pb(pi) {
                        return SolveResult::Unsat;
                    }
                }
            }
            SolverMode::Watched => {
                for i in 0..self.units.len() {
                    let u = self.units[i];
                    self.enqueue(u);
                }
            }
        }
        if !self.propagate() {
            self.conflicts += 1;
            return SolveResult::Unsat;
        }
        // Assumptions sit below every decision on the trail, so backtrack
        // can never flip them: a conflict with no flippable decision left
        // is Unsat-under-assumptions.
        for &a in assumptions {
            match self.value_of(a) {
                Some(true) => {}
                Some(false) => return SolveResult::Unsat,
                None => {
                    self.enqueue(a);
                    if !self.propagate() {
                        self.conflicts += 1;
                        return SolveResult::Unsat;
                    }
                }
            }
        }
        loop {
            if let Some(after) = self.fault_step {
                if self.steps >= after {
                    panic!(
                        "injected fault: solver-step exhaustion after {} steps",
                        self.steps
                    );
                }
            }
            if self.steps > self.limit {
                return SolveResult::Unknown;
            }
            if self.deadline_hit() {
                return SolveResult::Unknown;
            }
            if self.propagate() {
                // Pick the next unassigned variable.
                match self.pick_branch() {
                    None => return SolveResult::Sat(self.extract_model()),
                    Some(var) => {
                        self.decisions += 1;
                        let l = Lit::pos(var).neg(); // try false first
                        if (!self.assign(l, true) || !self.post_assign(l)) && !self.recover() {
                            return SolveResult::Unsat;
                        }
                    }
                }
            } else if !self.recover() {
                return SolveResult::Unsat;
            }
        }
    }

    /// Conflict bookkeeping: count, decay activities, backtrack, and
    /// replay any unit conflict clauses the search has learned (trail
    /// pops cleared them from the queue). Returns false when no
    /// flippable decision remains.
    fn recover(&mut self) -> bool {
        self.conflicts += 1;
        self.decay();
        if !self.backtrack() {
            return false;
        }
        if self.mode == SolverMode::Watched {
            for i in 0..self.fresh_units.len() {
                let u = self.fresh_units[i];
                if self.value_of(u) != Some(true) {
                    self.enqueue(u);
                }
            }
        }
        true
    }

    /// The next decision variable: highest activity (ties toward the
    /// lowest index) under the watched engine, first unassigned index
    /// under the rescan engine. Both are deterministic.
    fn pick_branch(&self) -> Option<u32> {
        match self.mode {
            SolverMode::Rescan => self
                .values
                .iter()
                .position(|v| v.is_none())
                .map(|v| v as u32),
            SolverMode::Watched => {
                let mut best: Option<u32> = None;
                let mut best_act = f64::NEG_INFINITY;
                for (v, val) in self.values.iter().enumerate() {
                    if val.is_none() && self.activity[v] > best_act {
                        best_act = self.activity[v];
                        best = Some(v as u32);
                    }
                }
                best
            }
        }
    }

    /// Whether the wall-clock deadline has passed (amortized check).
    fn deadline_hit(&mut self) -> bool {
        let Some(d) = self.deadline else { return false };
        if self.steps < self.next_deadline_check {
            return false;
        }
        self.next_deadline_check = self.steps + DEADLINE_STRIDE;
        std::time::Instant::now() >= d
    }

    /// Flips the most recent unflipped decision; false if none remains.
    fn backtrack(&mut self) -> bool {
        loop {
            let Some(pos) = self.trail.iter().rposition(|e| e.decision && !e.flipped) else {
                return false;
            };
            let entry = self.trail[pos];
            self.pop_to(pos);
            let flipped_lit = if entry.value {
                Lit::pos(entry.var).neg()
            } else {
                Lit::pos(entry.var)
            };
            if self.assign(flipped_lit, true) {
                // Mark as flipped so we never flip it back.
                let last = self.trail.len() - 1;
                self.trail[last].flipped = true;
                if self.post_assign(flipped_lit) {
                    return true;
                }
            }
            // Flipping caused an immediate conflict; undo and search for an
            // earlier decision.
            self.conflicts += 1;
            self.decay();
            self.pop_to(pos);
            self.steps += 1;
            if self.steps > self.limit {
                return false;
            }
        }
    }

    fn extract_model(&self) -> Model {
        let mut model = Model::default();
        for (atom, &var) in &self.atom_ids {
            if let Atom::Bool(b) = atom {
                model
                    .bools
                    .insert(*b, self.values[var as usize].unwrap_or(false));
            }
        }
        // Integer values come from the difference-logic potential.
        let mut int_vars: Vec<u32> = Vec::new();
        for atom in self.atom_ids.keys() {
            if let Atom::DiffLe { x, y, .. } = atom {
                int_vars.push(x.0);
                int_vars.push(y.0);
            }
        }
        int_vars.sort_unstable();
        int_vars.dedup();
        for v in int_vars {
            model.ints.insert(IntVar(v), self.dl.value(v as usize));
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Atom, Term};

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        s.assert(Term::True);
        assert!(s.solve().is_sat());

        let mut s = Solver::new();
        s.assert(Term::False);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn boolean_contradiction() {
        let mut s = Solver::new();
        let a = s.fresh_bool();
        s.assert(Term::var(a));
        s.assert(Term::not(Term::var(a)));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn disjunction_finds_witness() {
        let mut s = Solver::new();
        let a = s.fresh_bool();
        let b = s.fresh_bool();
        s.assert(Term::or([Term::var(a), Term::var(b)]));
        s.assert(Term::not(Term::var(a)));
        let m = s.solve().model().unwrap();
        assert_eq!(m.bool_value(a), Some(false));
        assert_eq!(m.bool_value(b), Some(true));
    }

    #[test]
    fn order_cycle_is_unsat() {
        let mut s = Solver::new();
        let vars: Vec<_> = (0..4).map(|_| s.fresh_int()).collect();
        for w in vars.windows(2) {
            s.assert(Term::lt(w[0], w[1]));
        }
        s.assert(Term::lt(vars[3], vars[0]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn order_chain_model_is_ordered() {
        let mut s = Solver::new();
        let vars: Vec<_> = (0..6).map(|_| s.fresh_int()).collect();
        for w in vars.windows(2) {
            s.assert(Term::lt(w[0], w[1]));
        }
        let m = s.solve().model().unwrap();
        for w in vars.windows(2) {
            assert!(m.int_value(w[0]).unwrap() < m.int_value(w[1]).unwrap());
        }
    }

    #[test]
    fn conditional_order_via_bool() {
        // p -> (a < b), ¬p -> (b < a), and a < b forced: p must be true.
        let mut s = Solver::new();
        let p = s.fresh_bool();
        let a = s.fresh_int();
        let b = s.fresh_int();
        s.assert(Term::implies(Term::var(p), Term::lt(a, b)));
        s.assert(Term::implies(Term::not(Term::var(p)), Term::lt(b, a)));
        s.assert(Term::lt(a, b));
        let m = s.solve().model().unwrap();
        assert_eq!(m.bool_value(p), Some(true));
    }

    #[test]
    fn exactly_one_picks_one() {
        let mut s = Solver::new();
        let vars: Vec<_> = (0..5).map(|_| s.fresh_bool()).collect();
        s.assert(Term::exactly_one(vars.iter().map(|&v| Atom::Bool(v))));
        let m = s.solve().model().unwrap();
        let count = vars
            .iter()
            .filter(|&&v| m.bool_value(v) == Some(true))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn exactly_one_conflicts_with_two_forced() {
        let mut s = Solver::new();
        let a = s.fresh_bool();
        let b = s.fresh_bool();
        s.assert(Term::exactly_one([Atom::Bool(a), Atom::Bool(b)]));
        s.assert(Term::var(a));
        s.assert(Term::var(b));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn linear_ge_counts() {
        // At least 2 of 3 must hold, and one is forced false.
        let mut s = Solver::new();
        let vars: Vec<_> = (0..3).map(|_| s.fresh_bool()).collect();
        s.assert(Term::Linear {
            terms: vars.iter().map(|&v| (1, Atom::Bool(v))).collect(),
            cmp: Cmp::Ge,
            k: 2,
        });
        s.assert(Term::not(Term::var(vars[0])));
        let m = s.solve().model().unwrap();
        assert_eq!(m.bool_value(vars[1]), Some(true));
        assert_eq!(m.bool_value(vars[2]), Some(true));
    }

    #[test]
    fn negative_coefficients_subtract() {
        // a - b <= 0 with a forced true requires b true.
        let mut s = Solver::new();
        let a = s.fresh_bool();
        let b = s.fresh_bool();
        s.assert(Term::Linear {
            terms: vec![(1, Atom::Bool(a)), (-1, Atom::Bool(b))],
            cmp: Cmp::Le,
            k: 0,
        });
        s.assert(Term::var(a));
        let m = s.solve().model().unwrap();
        assert_eq!(m.bool_value(b), Some(true));
    }

    #[test]
    fn channel_buffer_style_encoding() {
        // Mimics GCatch's unbuffered-send blocking constraint: a send with
        // BS = 0 cannot proceed via the buffer, so the matching disjunct
        // must hold, forcing P and the order equality.
        let mut s = Solver::new();
        let p = s.fresh_bool(); // P(send, recv)
        let o_send = s.fresh_int();
        let o_recv = s.fresh_int();
        let o_before = s.fresh_int();
        // "buffer has room" is CB < 0 which is false for an empty sum:
        let buffer_ok = Term::Linear {
            terms: vec![],
            cmp: Cmp::Lt,
            k: 0,
        };
        let matched = Term::and([Term::var(p), Term::eq_int(o_send, o_recv)]);
        s.assert(Term::or([buffer_ok, matched]));
        s.assert(Term::lt(o_before, o_send));
        let m = s.solve().model().unwrap();
        assert_eq!(m.bool_value(p), Some(true));
        assert_eq!(m.int_value(o_send), m.int_value(o_recv));
        assert!(m.int_value(o_before).unwrap() < m.int_value(o_send).unwrap());
    }

    #[test]
    fn eq_linear_reification() {
        let mut s = Solver::new();
        let vars: Vec<_> = (0..4).map(|_| s.fresh_bool()).collect();
        // Exactly 2 of 4.
        s.assert(Term::Linear {
            terms: vars.iter().map(|&v| (1, Atom::Bool(v))).collect(),
            cmp: Cmp::Eq,
            k: 2,
        });
        let m = s.solve().model().unwrap();
        let count = vars
            .iter()
            .filter(|&&v| m.bool_value(v) == Some(true))
            .count();
        assert_eq!(count, 2);
    }

    #[test]
    fn unknown_on_tiny_budget() {
        let mut s = Solver::new();
        s.set_step_limit(1);
        let vars: Vec<_> = (0..30).map(|_| s.fresh_bool()).collect();
        // A moderately hard pigeonhole-ish instance.
        for chunk in vars.chunks(3) {
            s.assert(Term::exactly_one(chunk.iter().map(|&v| Atom::Bool(v))));
        }
        assert!(matches!(
            s.solve(),
            SolveResult::Unknown | SolveResult::Sat(_)
        ));
    }

    #[test]
    fn unknown_on_expired_deadline() {
        let mut s = Solver::new();
        s.set_deadline(Some(std::time::Instant::now()));
        let vars: Vec<_> = (0..30).map(|_| s.fresh_bool()).collect();
        for chunk in vars.chunks(3) {
            s.assert(Term::exactly_one(chunk.iter().map(|&v| Atom::Bool(v))));
        }
        assert!(matches!(s.solve(), SolveResult::Unknown));
        // Clearing the deadline restores a verdict.
        s.set_deadline(None);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn injected_step_fault_panics_with_marker() {
        let mut s = Solver::new();
        s.set_step_fault(Some(0));
        let vars: Vec<_> = (0..6).map(|_| s.fresh_bool()).collect();
        for chunk in vars.chunks(3) {
            s.assert(Term::exactly_one(chunk.iter().map(|&v| Atom::Bool(v))));
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.solve()))
            .expect_err("armed fault must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_default();
        assert!(
            msg.starts_with("injected fault:"),
            "unexpected panic: {msg}"
        );
    }

    #[test]
    fn mixed_theory_and_boolean_backtracking() {
        // Force the solver to backtrack across theory assignments:
        // (a<b ∨ b<a) ∧ (b<c) ∧ (c<a ∨ q) — the only consistent choice in the
        // first disjunct with c<a is b<a...a<b... exercise search.
        let mut s = Solver::new();
        let a = s.fresh_int();
        let b = s.fresh_int();
        let c = s.fresh_int();
        let q = s.fresh_bool();
        s.assert(Term::or([Term::lt(a, b), Term::lt(b, a)]));
        s.assert(Term::lt(b, c));
        s.assert(Term::or([Term::lt(c, a), Term::var(q)]));
        s.assert(Term::not(Term::var(q)));
        // c < a forces b < c < a, so first disjunct must pick b < a.
        let m = s.solve().model().unwrap();
        assert!(m.int_value(b).unwrap() < m.int_value(a).unwrap());
    }

    // ----------------------------------------------- incremental interface

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = Solver::new();
        let a = s.fresh_bool();
        let b = s.fresh_bool();
        s.assert(Term::or([Term::var(a), Term::var(b)]));
        let m = s
            .solve_under(&[Term::not(Term::var(a))])
            .model()
            .expect("sat under ¬a");
        assert_eq!(m.bool_value(a), Some(false));
        assert_eq!(m.bool_value(b), Some(true));
        assert!(s
            .solve_under(&[Term::not(Term::var(a)), Term::not(Term::var(b))])
            .is_unsat());
        // The solver itself is still satisfiable with no assumptions.
        assert!(s.solve().is_sat());
        // ...and a can be true again.
        assert!(s.solve_under(&[Term::var(a)]).is_sat());
    }

    #[test]
    fn assumptions_over_theory_atoms() {
        let mut s = Solver::new();
        let a = s.fresh_int();
        let b = s.fresh_int();
        s.assert(Term::or([Term::lt(a, b), Term::lt(b, a)]));
        assert!(s.solve_under(&[Term::lt(a, b)]).is_sat());
        assert!(s.solve_under(&[Term::lt(b, a)]).is_sat());
        assert!(s.solve_under(&[Term::lt(a, b), Term::lt(b, a)]).is_unsat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn learned_clauses_are_retained_until_reset() {
        let chain = |s: &mut Solver| {
            let vars: Vec<_> = (0..4).map(|_| s.fresh_int()).collect();
            for w in vars.windows(2) {
                s.assert(Term::lt(w[0], w[1]));
            }
            vars
        };
        let mut s = Solver::new();
        let vars = chain(&mut s);
        let encoded = s.num_clauses();
        let closing = [Term::lt(vars[3], vars[0])];
        assert!(s.solve_under(&closing).is_unsat());
        let learned = s.num_clauses() - encoded;
        assert!(learned > 0, "cycle conflicts must learn");
        // The second identical query is refuted by the retained cycle
        // clause and learns nothing new.
        assert!(s.solve_under(&closing).is_unsat());
        assert_eq!(s.num_clauses(), encoded + learned);
        s.reset();
        assert_eq!(s.num_clauses(), 1, "only the constant-true unit is left");
        chain(&mut s);
        assert_eq!(s.num_clauses(), encoded, "no learned clause survives");
        assert!(s.solve().is_sat());
    }

    #[test]
    fn watched_and_rescan_agree() {
        // A differential harness over mixed boolean/theory/PB instances:
        // both engines must produce the same verdict.
        let build = |s: &mut Solver, variant: usize| {
            let ints: Vec<_> = (0..4).map(|_| s.fresh_int()).collect();
            let bools: Vec<_> = (0..4).map(|_| s.fresh_bool()).collect();
            for w in ints.windows(2) {
                s.assert(Term::lt(w[0], w[1]));
            }
            s.assert(Term::exactly_one(bools.iter().map(|&v| Atom::Bool(v))));
            s.assert(Term::implies(
                Term::var(bools[0]),
                Term::lt(ints[3], ints[0]),
            ));
            if variant.is_multiple_of(2) {
                s.assert(Term::var(bools[0]));
            }
            if variant.is_multiple_of(3) {
                s.assert(Term::Linear {
                    terms: bools.iter().map(|&v| (1, Atom::Bool(v))).collect(),
                    cmp: Cmp::Ge,
                    k: 2,
                });
            }
        };
        for variant in 0..6 {
            let mut w = Solver::with_mode(SolverMode::Watched);
            build(&mut w, variant);
            let mut r = Solver::with_mode(SolverMode::Rescan);
            build(&mut r, variant);
            let (rw, rr) = (w.solve(), r.solve());
            assert_eq!(
                rw.is_sat(),
                rr.is_sat(),
                "engines disagree on variant {variant}"
            );
            assert_eq!(
                rw.is_unsat(),
                rr.is_unsat(),
                "engines disagree on variant {variant}"
            );
        }
    }

    #[test]
    fn interner_shares_repeated_subterms() {
        let mut s = Solver::new();
        let a = s.fresh_int();
        let b = s.fresh_int();
        let p = s.fresh_bool();
        s.assert(Term::implies(Term::var(p), Term::eq_int(a, b)));
        let clauses_once = s.num_clauses();
        // Re-asserting a structurally identical implication re-uses the
        // interned encoding: only the top-level unit clause is new.
        s.assert(Term::implies(Term::var(p), Term::eq_int(a, b)));
        assert_eq!(s.num_clauses(), clauses_once + 1);
    }

    /// One query's observable effort: the verdict (`S`at, `U`nsat,
    /// `?` unknown), `(steps, decisions, conflicts)`, the engine's clause
    /// count afterwards, and the model's value of each order variable
    /// (`i64::MIN` when the query has no model).
    type Pin = (char, [u64; 3], usize, Vec<i64>);

    fn pin(s: &mut Solver, assumptions: &[Term], ints: &[IntVar]) -> Pin {
        let result = s.solve_under(assumptions);
        let st = s.stats();
        let (verdict, values) = match result {
            SolveResult::Sat(m) => (
                'S',
                ints.iter()
                    .map(|&v| m.int_value(v).unwrap_or(i64::MIN))
                    .collect(),
            ),
            SolveResult::Unsat => ('U', Vec::new()),
            SolveResult::Unknown => ('?', Vec::new()),
        };
        (
            verdict,
            [st.steps, st.decisions, st.conflicts],
            s.num_clauses(),
            values,
        )
    }

    /// A GCatch-shaped formula: three order chains, guarded matches,
    /// one-of and at-most-one choices over the guards, and a signed
    /// counter.
    fn matching_formula(s: &mut Solver) -> (Vec<IntVar>, Vec<BoolVar>) {
        let o: Vec<_> = (0..6).map(|_| s.fresh_int()).collect();
        let p: Vec<_> = (0..4).map(|_| s.fresh_bool()).collect();
        s.assert(Term::lt(o[0], o[1]));
        s.assert(Term::lt(o[1], o[2]));
        s.assert(Term::lt(o[3], o[4]));
        s.assert(Term::implies(Term::var(p[0]), Term::eq_int(o[1], o[4])));
        s.assert(Term::implies(Term::var(p[1]), Term::eq_int(o[2], o[3])));
        s.assert(Term::implies(Term::var(p[2]), Term::lt(o[5], o[0])));
        s.assert(Term::implies(Term::var(p[3]), Term::lt(o[4], o[1])));
        s.assert(Term::exactly_one(p[..3].iter().map(|&v| Atom::Bool(v))));
        s.assert(Term::at_most_one([Atom::Bool(p[2]), Atom::Bool(p[3])]));
        s.assert(Term::Linear {
            terms: vec![
                (1, Atom::Bool(p[0])),
                (1, Atom::Bool(p[3])),
                (-1, Atom::Bool(p[1])),
            ],
            cmp: Cmp::Ge,
            k: 1,
        });
        s.assert(Term::or([
            Term::var(p[3]),
            Term::Atom(Atom::DiffLe {
                x: o[5],
                y: o[2],
                c: 2,
            }),
        ]));
        (o, p)
    }

    /// Three pigeons, two holes, each pigeon ordered after its hole's
    /// previous occupant: unsatisfiable, reached through conflicts.
    fn pigeonhole_formula(s: &mut Solver) -> Vec<IntVar> {
        let o: Vec<_> = (0..3).map(|_| s.fresh_int()).collect();
        let x: Vec<Vec<BoolVar>> = (0..3)
            .map(|_| (0..2).map(|_| s.fresh_bool()).collect())
            .collect();
        for row in &x {
            s.assert(Term::exactly_one(row.iter().map(|&v| Atom::Bool(v))));
        }
        for hole in 0..2 {
            s.assert(Term::at_most_one(x.iter().map(|row| Atom::Bool(row[hole]))));
            for i in 1..3 {
                s.assert(Term::implies(
                    Term::and([Term::var(x[i - 1][hole]), Term::var(x[i][hole])]),
                    Term::lt(o[i - 1], o[i]),
                ));
            }
        }
        o
    }

    /// Exact effort, clause counts and model values of fixed formulas.
    /// Variable numbering and clause order decide every step count and
    /// witness the detector reports, so an encoding change that moves
    /// either shows here first.
    #[test]
    fn pinned_effort_on_fixed_formulas() {
        let mut s = Solver::new();
        let (o, _) = matching_formula(&mut s);
        assert_eq!(
            pin(&mut s, &[], &o),
            ('S', [26, 6, 2], 38, vec![-3, -2, 0, -3, -2, 0])
        );

        let mut s = Solver::new();
        let o = pigeonhole_formula(&mut s);
        assert_eq!(pin(&mut s, &[], &o), ('U', [36, 1, 2], 45, vec![]));

        let mut s = Solver::with_mode(SolverMode::Rescan);
        let (o, _) = matching_formula(&mut s);
        assert_eq!(
            pin(&mut s, &[], &o),
            ('S', [26, 6, 2], 38, vec![-3, -2, 0, -3, -2, 0])
        );
    }

    /// [`matching_formula`] plus three guarded order atoms for assumption
    /// queries to switch on.
    fn guarded_formula(s: &mut Solver) -> (Vec<IntVar>, Vec<BoolVar>, Vec<BoolVar>) {
        let (o, p) = matching_formula(s);
        let g: Vec<_> = (0..3).map(|_| s.fresh_bool()).collect();
        s.assert(Term::implies(Term::var(g[0]), Term::lt(o[0], o[3])));
        s.assert(Term::implies(Term::var(g[1]), Term::lt(o[3], o[5])));
        s.assert(Term::implies(Term::var(g[2]), Term::lt(o[5], o[0])));
        (o, p, g)
    }

    /// The same pins across assumption queries, assertions between them,
    /// and a reset: what earlier queries leave behind (learned clauses,
    /// activities, potentials) reaches the numbers until the reset, and
    /// nothing after it.
    #[test]
    fn pinned_effort_across_assumptions_and_reset() {
        let mut s = Solver::new();
        let (o, p, g) = guarded_formula(&mut s);
        let mut got: Vec<Pin> = vec![pin(&mut s, &[Term::var(g[0])], &o)];
        s.assert(Term::implies(
            Term::var(g[0]),
            Term::and([Term::lt(o[1], o[5]), Term::lt(o[5], o[2])]),
        ));
        got.push(pin(
            &mut s,
            &[Term::var(g[0]), Term::var(g[1]), Term::var(g[2])],
            &o,
        ));
        got.push(pin(
            &mut s,
            &[Term::var(g[0]), Term::not(Term::var(g[2]))],
            &o,
        ));
        s.assert(Term::exactly_one(g.iter().map(|&v| Atom::Bool(v))));
        s.assert(Term::implies(Term::var(p[1]), Term::var(g[1])));
        got.push(pin(&mut s, &[Term::var(g[1])], &o));
        got.push(pin(&mut s, &[Term::var(g[0]), Term::var(g[1])], &o));
        got.push(pin(&mut s, &[Term::lt(o[4], o[0])], &o));
        let after_reset = |s: &mut Solver| {
            let (o, p, g) = guarded_formula(s);
            vec![
                pin(s, &[Term::var(g[0]), Term::var(g[1])], &o),
                pin(s, &[], &o),
                pin(s, &[Term::var(g[2]), Term::var(p[2])], &o),
            ]
        };
        s.reset();
        got.extend(after_reset(&mut s));
        let want: Vec<Pin> = vec![
            ('S', [32, 8, 2], 50, vec![-4, -2, 0, -3, -2, -3]),
            ('U', [27, 0, 1], 58, vec![]),
            ('S', [35, 5, 1], 59, vec![-6, -4, 0, -5, -4, -3]),
            ('S', [45, 7, 2], 69, vec![-6, -5, 0, -6, -5, -5]),
            ('U', [39, 0, 0], 69, vec![]),
            ('U', [71, 10, 11], 79, vec![]),
            ('S', [34, 6, 2], 50, vec![-4, -2, 0, -3, -2, 0]),
            ('S', [29, 9, 1], 51, vec![-4, -2, 0, -4, -2, -4]),
            ('U', [22, 0, 1], 52, vec![]),
        ];
        assert_eq!(got, want);
        // From the reset on, the numbers are a new solver's.
        assert_eq!(got[6..], after_reset(&mut Solver::new()));
    }

    /// A solver that has answered queries, so it holds learned clauses,
    /// bumped activities and moved potentials, answers like a new one
    /// once reset: same verdict, effort, clause count and model on the
    /// formulas `pinned_effort_on_fixed_formulas` pins.
    #[test]
    fn a_reset_solver_answers_like_a_new_one() {
        for mode in [SolverMode::Watched, SolverMode::Rescan] {
            let mut used = Solver::with_mode(mode);
            let (o, p, g) = guarded_formula(&mut used);
            let encoded = used.num_clauses();
            pin(&mut used, &[Term::var(g[0]), Term::var(g[2])], &o);
            pin(&mut used, &[Term::var(p[2]), Term::var(g[1])], &o);
            pin(&mut used, &[Term::lt(o[4], o[0]), Term::var(g[0])], &o);
            assert!(used.num_clauses() > encoded, "{mode:?}: nothing learned");
            assert!(
                (0..o.len()).any(|v| used.engine.dl.value(v) != 0),
                "{mode:?}: potentials never moved"
            );
            if mode == SolverMode::Watched {
                assert!(used.engine.var_inc > 1.0, "activities never decayed");
            }

            used.reset();
            let mut new = Solver::with_mode(mode);
            let (o, _) = matching_formula(&mut used);
            assert_eq!(matching_formula(&mut new).0, o);
            assert_eq!(pin(&mut used, &[], &o), pin(&mut new, &[], &o), "{mode:?}");

            used.reset();
            let mut new = Solver::with_mode(mode);
            let o = pigeonhole_formula(&mut used);
            assert_eq!(pigeonhole_formula(&mut new), o);
            assert_eq!(pin(&mut used, &[], &o), pin(&mut new, &[], &o), "{mode:?}");
        }
    }

    /// The cons table lives as long as the formula: a subterm asserted
    /// twice is encoded once, and after a reset the same terms are encoded
    /// afresh, into the same variables and clauses as the first time.
    #[test]
    fn cons_table_is_emptied_by_reset() {
        let build = |s: &mut Solver| {
            let a = s.fresh_int();
            let b = s.fresh_int();
            let p = s.fresh_bool();
            let q = s.fresh_bool();
            let outer = || Term::implies(Term::var(p), Term::eq_int(a, b));
            s.assert(outer());
            let (vars, clauses) = (s.engine.kinds.len(), s.num_clauses());
            // Shared: only the top-level unit is new.
            s.assert(outer());
            assert_eq!(s.num_clauses(), clauses + 1);
            assert_eq!(s.engine.kinds.len(), vars);
            s.assert(Term::implies(
                Term::var(q),
                Term::and([
                    Term::or([Term::lt(a, b), Term::var(p)]),
                    Term::or([Term::le(b, a), Term::not(Term::var(p))]),
                ]),
            ));
            assert!(s.engine.kinds.len() > vars && s.num_clauses() > clauses + 2);
            (
                q,
                s.engine.kinds.len(),
                s.num_clauses(),
                s.engine.intern.len(),
            )
        };
        let mut s = Solver::new();
        let first = build(&mut s);
        assert!(s.solve_under(&[Term::var(first.0)]).is_sat());
        s.reset();
        assert!(s.engine.intern.is_empty() && s.engine.atom_ids.is_empty());
        assert_eq!(build(&mut s), first);
        assert!(s.solve_under(&[Term::var(first.0)]).is_sat());
    }

    #[test]
    fn incremental_query_sequence_matches_fresh() {
        // Verdict equivalence between one incremental solver answering a
        // query sequence under assumptions and fresh solvers per query.
        let assumptions: Vec<Vec<usize>> = vec![vec![0], vec![1], vec![0, 1], vec![2], vec![]];
        let mut inc = Solver::new();
        let ints: Vec<_> = (0..3).map(|_| inc.fresh_int()).collect();
        let flags: Vec<_> = (0..3).map(|_| inc.fresh_bool()).collect();
        let encode = |s: &mut Solver, ints: &[IntVar], flags: &[BoolVar]| {
            s.assert(Term::implies(
                Term::var(flags[0]),
                Term::lt(ints[0], ints[1]),
            ));
            s.assert(Term::implies(
                Term::var(flags[1]),
                Term::lt(ints[1], ints[0]),
            ));
            s.assert(Term::implies(
                Term::var(flags[2]),
                Term::lt(ints[2], ints[2]),
            ));
        };
        encode(&mut inc, &ints, &flags);
        for set in &assumptions {
            let assume: Vec<Term> = set.iter().map(|&i| Term::var(flags[i])).collect();
            let inc_result = inc.solve_under(&assume);
            let mut fresh = Solver::new();
            let fints: Vec<_> = (0..3).map(|_| fresh.fresh_int()).collect();
            let fflags: Vec<_> = (0..3).map(|_| fresh.fresh_bool()).collect();
            encode(&mut fresh, &fints, &fflags);
            let fresh_assume: Vec<Term> = set.iter().map(|&i| Term::var(fflags[i])).collect();
            let fresh_result = fresh.solve_under(&fresh_assume);
            assert_eq!(
                inc_result.is_sat(),
                fresh_result.is_sat(),
                "incremental vs fresh disagree under {set:?}"
            );
        }
    }
}
