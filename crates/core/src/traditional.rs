//! The five traditional checkers (§3.5 of the paper).
//!
//! These reuse ideas that work on classic languages:
//!
//! 1. **missing unlock** — intra-procedural, path-sensitive lock tracking:
//!    a path from a `Lock` to a `return` without `Unlock`/deferred unlock;
//! 2. **double lock** — inter-procedural, path-sensitive: acquiring a mutex
//!    already held (callees holding lock ops are inlined);
//! 3. **conflicting lock order** — a cycle in the held-before graph;
//! 4. **struct-field lockset races** — a field protected by a mutex on most
//!    accesses, accessed somewhere without it;
//! 5. **`testing.Fatal` from a child goroutine** — `Fatal`/`Fatalf`/
//!    `FailNow` must only run on the main test goroutine.

use crate::alias_ext::mutex_sites_of;
use crate::primitives::{PrimId, Primitives};
use crate::report::{BugKind, BugReport, OpRef};
use golite_ir::alias::{AbstractObject, Analysis, CallKind};
use golite_ir::ir::*;
use std::collections::{HashMap, HashSet};

/// The shared product of the path-sensitive lock exploration, consumed by
/// three checkers (double lock, missing unlock, conflicting lock order).
/// Computing it once and letting each checker pick its slice keeps the
/// checkers independently selectable without tripling the exploration cost;
/// the session caches one instance per module.
#[derive(Debug, Default, Clone)]
pub(crate) struct LockSummary {
    pub(crate) double_locks: Vec<BugReport>,
    pub(crate) missing_unlocks: Vec<BugReport>,
    pub(crate) order_conflicts: Vec<BugReport>,
}

/// Runs the lock exploration over every function and formats its findings.
pub(crate) fn lock_summary(
    module: &Module,
    analysis: &Analysis,
    prims: &Primitives,
) -> LockSummary {
    let mut explorer = LockExplorer::new(module, analysis, prims);
    for f in &module.funcs {
        explorer.explore_function(f);
    }
    explorer.summary()
}

fn dedup(reports: Vec<BugReport>) -> Vec<BugReport> {
    let mut seen = HashSet::new();
    reports
        .into_iter()
        .filter(|r| seen.insert(r.dedup_key()))
        .collect()
}

fn op_ref(module: &Module, loc: Loc, span: golite::Span, what: impl Into<String>) -> OpRef {
    OpRef {
        loc,
        span,
        what: what.into(),
        func_name: module.func(loc.func).name.to_string(),
    }
}

// ----------------------------------------------------------- lock explorer

/// Shared path-sensitive exploration for checkers 1–3: walks every function
/// with an empty lockset, tracking acquisitions (inlining single-target
/// callees that contain lock operations), and records double locks, missing
/// unlocks, and the held-before graph.
struct LockExplorer<'a> {
    module: &'a Module,
    analysis: &'a Analysis<'a>,
    prims: &'a Primitives,
    /// Functions containing (transitively) a lock/unlock operation.
    touchers: HashSet<FuncId>,
    double_locks: Vec<(PrimId, Loc, golite::Span)>,
    missing_unlocks: Vec<(PrimId, Loc, golite::Span)>,
    /// held-before edges: (held, acquired) → witness locs.
    order_edges: HashMap<(PrimId, PrimId), (Loc, golite::Span)>,
    paths_budget: usize,
}

/// Exploration state for one path.
#[derive(Clone, Default)]
struct LockState {
    /// Mutexes currently held: prim → acquisition site.
    held: HashMap<PrimId, (Loc, golite::Span)>,
    /// Mutexes with a pending deferred unlock in the current frame stack.
    deferred: HashSet<PrimId>,
    /// Mutexes acquired within the current root function's exploration.
    acquired_here: HashSet<PrimId>,
}

impl<'a> LockExplorer<'a> {
    fn new(module: &'a Module, analysis: &'a Analysis, prims: &'a Primitives) -> Self {
        let mut direct = HashSet::new();
        for f in module.funcs.iter() {
            for block in &f.blocks {
                if block
                    .instrs
                    .iter()
                    .any(|i| matches!(i, Instr::Lock { .. } | Instr::Unlock { .. }))
                {
                    direct.insert(f.id);
                }
            }
        }
        // `f` touches a lock ⟺ some direct function is reachable from `f`
        // ⟺ `f` can reach a direct function, so the union of the memoized
        // reverse-reachability slices is the set: it costs the lock
        // functions' caller slices, not a walk from every module function.
        let mut touchers = HashSet::new();
        for &d in &direct {
            touchers.extend(analysis.reaching(d).iter().copied());
        }
        LockExplorer {
            module,
            analysis,
            prims,
            touchers,
            double_locks: Vec::new(),
            missing_unlocks: Vec::new(),
            order_edges: HashMap::new(),
            paths_budget: 0,
        }
    }

    fn explore_function(&mut self, f: &Function) {
        if !self.touchers.contains(&f.id) {
            return;
        }
        self.paths_budget = 256;
        let mut visits = HashMap::new();
        self.walk(f, BlockId(0), 0, &mut visits, LockState::default(), 0);
    }

    fn mutex_prims(&self, func: FuncId, op: &Operand) -> Vec<PrimId> {
        mutex_sites_of(self.analysis, func, op)
            .into_iter()
            .filter_map(|site| self.prims.by_site(site).map(|p| p.id))
            .collect()
    }

    fn walk(
        &mut self,
        f: &Function,
        block: BlockId,
        start: usize,
        visits: &mut HashMap<(FuncId, BlockId), u32>,
        mut state: LockState,
        depth: usize,
    ) {
        if self.paths_budget == 0 {
            return;
        }
        let blk = f.block(block);
        for idx in start..blk.instrs.len() {
            let loc = Loc {
                func: f.id,
                block,
                idx: idx as u32,
            };
            let span = blk.spans[idx];
            match &blk.instrs[idx] {
                Instr::Lock { mutex, .. } => {
                    for p in self.mutex_prims(f.id, mutex) {
                        if state.held.contains_key(&p) {
                            self.double_locks.push((p, loc, span));
                        } else {
                            // Held-before edges to every currently held mutex.
                            for &h in state.held.keys() {
                                self.order_edges.entry((h, p)).or_insert((loc, span));
                            }
                            state.held.insert(p, (loc, span));
                            state.acquired_here.insert(p);
                        }
                    }
                }
                Instr::Unlock { mutex, .. } => {
                    for p in self.mutex_prims(f.id, mutex) {
                        state.held.remove(&p);
                    }
                }
                Instr::DeferCall { func: FuncRef::Static(fid), args } => {
                    let name = &self.module.func(*fid).name;
                    if name == "__unlock" || name == "__runlock" {
                        for p in self.mutex_prims(f.id, &args[0]) {
                            state.deferred.insert(p);
                        }
                    }
                }
                Instr::Call { func: FuncRef::Static(target), .. }
                    // Inline callees that touch locks (depth-bounded).
                    if depth < 3 && self.touchers.contains(target) && *target != f.id => {
                        let callee = self.module.func(*target).clone();
                        let mut visits2 = HashMap::new();
                        // Approximation: walk the callee for its lock effects
                        // against the current lockset, then continue assuming
                        // it balanced its own locks (its leaks are reported
                        // when it is explored as a root).
                        self.walk(&callee, BlockId(0), 0, &mut visits2, state.clone(), depth + 1);
                    }
                _ => {}
            }
        }

        match &blk.term {
            Terminator::Return(_) | Terminator::Unreachable => {
                self.paths_budget = self.paths_budget.saturating_sub(1);
                if depth == 0 {
                    for (p, (loc, span)) in &state.held {
                        if state.acquired_here.contains(p) && !state.deferred.contains(p) {
                            self.missing_unlocks.push((*p, *loc, *span));
                        }
                    }
                }
            }
            term => {
                for succ in term.successors() {
                    let key = (f.id, succ);
                    let count = visits.entry(key).or_insert(0);
                    if *count >= 1 {
                        continue; // one loop iteration is enough for locksets
                    }
                    *count += 1;
                    self.walk(f, succ, 0, visits, state.clone(), depth);
                    if let Some(c) = visits.get_mut(&key) {
                        *c -= 1;
                    }
                }
            }
        }
    }

    fn summary(self) -> LockSummary {
        let mut double = Vec::new();
        for (p, loc, span) in &self.double_locks {
            let prim = &self.prims.all[p.0];
            double.push(BugReport {
                kind: BugKind::DoubleLock,
                primitive: Some(prim.site),
                primitive_span: prim.span,
                primitive_name: prim.name.clone(),
                ops: vec![op_ref(
                    self.module,
                    *loc,
                    *span,
                    format!("second lock of {}", prim.name),
                )],
                witness_order: vec![],
                notes: "mutex already held on this path".into(),
                provenance: None,
            });
        }
        let mut missing = Vec::new();
        for (p, loc, span) in &self.missing_unlocks {
            let prim = &self.prims.all[p.0];
            missing.push(BugReport {
                kind: BugKind::MissingUnlock,
                primitive: Some(prim.site),
                primitive_span: prim.span,
                primitive_name: prim.name.clone(),
                ops: vec![op_ref(
                    self.module,
                    *loc,
                    *span,
                    format!("lock of {} with no unlock on some path", prim.name),
                )],
                witness_order: vec![],
                notes: "a return is reachable with the mutex held".into(),
                provenance: None,
            });
        }
        // Conflicting order: cycle (a held before b) and (b held before a).
        // Walk edges sorted by primitive pair so report order never depends
        // on HashMap iteration.
        let mut conflicts = Vec::new();
        let mut reported = HashSet::new();
        let mut edges: Vec<_> = self.order_edges.iter().collect();
        edges.sort_by_key(|((a, b), _)| (a.0, b.0));
        for (&(a, b), &(loc_ab, span_ab)) in edges {
            if a < b {
                if let Some(&(loc_ba, span_ba)) = self.order_edges.get(&(b, a)) {
                    if !reported.insert((a, b)) {
                        continue;
                    }
                    let pa = &self.prims.all[a.0];
                    let pb = &self.prims.all[b.0];
                    conflicts.push(BugReport {
                        kind: BugKind::ConflictingLockOrder,
                        primitive: Some(pa.site),
                        primitive_span: pa.span,
                        primitive_name: format!("{} / {}", pa.name, pb.name),
                        ops: vec![
                            op_ref(
                                self.module,
                                loc_ab,
                                span_ab,
                                format!("{} acquired while {} held", pb.name, pa.name),
                            ),
                            op_ref(
                                self.module,
                                loc_ba,
                                span_ba,
                                format!("{} acquired while {} held", pa.name, pb.name),
                            ),
                        ],
                        witness_order: vec![],
                        notes: "lock acquisition order differs between paths".into(),
                        provenance: None,
                    });
                }
            }
        }
        LockSummary {
            double_locks: dedup(double),
            missing_unlocks: dedup(missing),
            order_conflicts: dedup(conflicts),
        }
    }
}

// ---------------------------------------------------------- lockset races

/// Checker 4: struct-field accesses mostly protected by a mutex, with at
/// least one unprotected access, deduplicated. The lockset is collected
/// intra-procedurally and path-insensitively (meet = union of locks held on
/// any path reaching the block), which reproduces the paper's
/// calling-context false positives: an access protected by a caller-held
/// lock looks unprotected here.
pub(crate) fn lockset_race(
    module: &Module,
    analysis: &Analysis,
    prims: &Primitives,
) -> Vec<BugReport> {
    // Access record: (struct site, field) → [(loc, span, lockset, is_write)].
    // `Symbol` orders by text, so the deterministic sort below matches the
    // old `(Loc, String)` key exactly.
    type Key = (Loc, golite_ir::Symbol);
    type Access = (Loc, golite::Span, HashSet<PrimId>, bool);
    let mut accesses: HashMap<Key, Vec<Access>> = HashMap::new();

    for f in &module.funcs {
        // Forward may-analysis of held locks per block (intersection over
        // predecessors would be sound; we use intersection to avoid claiming
        // protection that only holds on some path).
        let n = f.blocks.len();
        let mut entry_sets: Vec<Option<HashSet<PrimId>>> = vec![None; n];
        entry_sets[0] = Some(HashSet::new());
        let preds = golite_ir::dom::predecessors(f);
        // Iterate to fixpoint.
        for _ in 0..n + 2 {
            for b in 0..n {
                let Some(start) = entry_sets[b].clone() else {
                    continue;
                };
                let exit = apply_block_locks(module, analysis, prims, f, BlockId(b as u32), &start);
                for succ in f.blocks[b].term.successors() {
                    let s = succ.0 as usize;
                    let merged = match &entry_sets[s] {
                        None => exit.clone(),
                        Some(cur) => cur.intersection(&exit).copied().collect(),
                    };
                    entry_sets[s] = Some(merged);
                }
            }
        }
        let _ = preds;

        // Record accesses with the lockset at their program point.
        for (bid, block) in f.iter_blocks() {
            let Some(mut held) = entry_sets[bid.0 as usize].clone() else {
                continue;
            };
            for (idx, instr) in block.instrs.iter().enumerate() {
                let loc = Loc {
                    func: f.id,
                    block: bid,
                    idx: idx as u32,
                };
                let span = block.spans[idx];
                match instr {
                    Instr::Lock { mutex, .. } => {
                        for site in mutex_sites_of(analysis, f.id, mutex) {
                            if let Some(p) = prims.by_site(site) {
                                held.insert(p.id);
                            }
                        }
                    }
                    Instr::Unlock { mutex, .. } => {
                        for site in mutex_sites_of(analysis, f.id, mutex) {
                            if let Some(p) = prims.by_site(site) {
                                held.remove(&p.id);
                            }
                        }
                    }
                    Instr::FieldLoad { obj, field, .. } | Instr::FieldStore { obj, field, .. } => {
                        let is_write = matches!(instr, Instr::FieldStore { .. });
                        for o in analysis.operand_points_to(f.id, obj) {
                            if let AbstractObject::Struct(site) = o {
                                accesses.entry((site, *field)).or_default().push((
                                    loc,
                                    span,
                                    held.clone(),
                                    is_write,
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Deterministic report order: walk fields by (site, name), not in
    // HashMap order.
    let mut keyed: Vec<(Key, Vec<Access>)> = accesses.into_iter().collect();
    keyed.sort_by_key(|((site, field), _)| (site.func.0, site.block.0, site.idx, *field));

    let mut out = Vec::new();
    for ((_site, field), accs) in keyed {
        if accs.len() < 3 {
            continue; // too few accesses to infer a protection discipline
        }
        // Find a mutex protecting the majority of accesses; ties go to the
        // lowest PrimId so the chosen guard never depends on map order.
        let mut counts: HashMap<PrimId, usize> = HashMap::new();
        for (_, _, held, _) in &accs {
            for &p in held {
                *counts.entry(p).or_insert(0) += 1;
            }
        }
        let Some((&guard, &protected)) = counts
            .iter()
            .max_by_key(|(&p, &c)| (c, std::cmp::Reverse(p.0)))
        else {
            continue;
        };
        let unprotected: Vec<&Access> = accs
            .iter()
            .filter(|(_, _, held, _)| !held.contains(&guard))
            .collect();
        // "Protected for most accesses": strictly more protected than not,
        // and at least one unprotected write-or-read to report.
        if protected > unprotected.len() && !unprotected.is_empty() {
            let guard_prim = &prims.all[guard.0];
            for (loc, span, _, is_write) in unprotected {
                out.push(BugReport {
                    kind: BugKind::StructFieldRace,
                    primitive: Some(guard_prim.site),
                    primitive_span: guard_prim.span,
                    primitive_name: guard_prim.name.clone(),
                    ops: vec![op_ref(
                        module,
                        *loc,
                        *span,
                        format!(
                            "unprotected {} of field `{}` (usually guarded by {})",
                            if *is_write { "write" } else { "read" },
                            field,
                            guard_prim.name
                        ),
                    )],
                    witness_order: vec![],
                    notes: format!("{protected} of {} accesses hold the lock", accs.len()),
                    provenance: None,
                });
            }
        }
    }
    dedup(out)
}

fn apply_block_locks(
    _module: &Module,
    analysis: &Analysis,
    prims: &Primitives,
    f: &Function,
    b: BlockId,
    start: &HashSet<PrimId>,
) -> HashSet<PrimId> {
    let mut held = start.clone();
    for instr in &f.block(b).instrs {
        match instr {
            Instr::Lock { mutex, .. } => {
                for site in mutex_sites_of(analysis, f.id, mutex) {
                    if let Some(p) = prims.by_site(site) {
                        held.insert(p.id);
                    }
                }
            }
            Instr::Unlock { mutex, .. } => {
                for site in mutex_sites_of(analysis, f.id, mutex) {
                    if let Some(p) = prims.by_site(site) {
                        held.remove(&p.id);
                    }
                }
            }
            _ => {}
        }
    }
    held
}

// ------------------------------------------------------- Fatal in children

/// Checker 5: `t.Fatal` (and friends) called on a goroutine other than the
/// one running the test function, deduplicated.
pub(crate) fn fatal_in_child(module: &Module, analysis: &Analysis) -> Vec<BugReport> {
    // Functions reachable from any `go` target.
    let mut child_funcs: HashSet<FuncId> = HashSet::new();
    for cs in analysis.call_sites() {
        if matches!(cs.kind, CallKind::Go) && !cs.ambiguous {
            for &t in &cs.targets {
                child_funcs.extend(analysis.reachable_from(t).iter().copied());
            }
        }
    }
    let mut out = Vec::new();
    for f in &module.funcs {
        if !child_funcs.contains(&f.id) {
            continue;
        }
        for (bid, block) in f.iter_blocks() {
            for (idx, instr) in block.instrs.iter().enumerate() {
                if matches!(instr, Instr::Fatal) {
                    let loc = Loc {
                        func: f.id,
                        block: bid,
                        idx: idx as u32,
                    };
                    out.push(BugReport {
                        kind: BugKind::FatalInChildGoroutine,
                        primitive: None,
                        primitive_span: block.spans[idx],
                        primitive_name: f.name.to_string(),
                        ops: vec![op_ref(
                            module,
                            loc,
                            block.spans[idx],
                            "t.Fatal called from a child goroutine",
                        )],
                        witness_order: vec![],
                        notes: "Fatal/FailNow only stop the goroutine that calls them; \
                                the test keeps running"
                            .into(),
                        provenance: None,
                    });
                }
            }
        }
    }
    dedup(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::{flatten, Registry, Selection};
    use crate::detector::DetectorConfig;
    use crate::primitives::collect;
    use crate::session::AnalysisSession;
    use golite_ir::{analyze, lower_source};

    /// Every traditional checker through the registry: the defaults with
    /// `bmoc` skipped.
    fn detect(src: &str) -> Vec<BugReport> {
        let module = lower_source(src).expect("lowering");
        let session = AnalysisSession::new(&module);
        let traditional = Selection {
            only: Vec::new(),
            skip: vec!["bmoc".to_string()],
        };
        flatten(Registry::standard().run(&session, &DetectorConfig::default(), &traditional))
    }

    fn kinds(reports: &[BugReport]) -> Vec<BugKind> {
        reports.iter().map(|r| r.kind).collect()
    }

    #[test]
    fn detects_double_lock() {
        let bugs =
            detect("func main() {\n var mu sync.Mutex\n mu.Lock()\n mu.Lock()\n mu.Unlock()\n}");
        assert!(kinds(&bugs).contains(&BugKind::DoubleLock), "got {bugs:?}");
    }

    #[test]
    fn detects_interprocedural_double_lock() {
        let bugs = detect(
            r#"
func helper(mu *sync.Mutex) {
    mu.Lock()
    mu.Unlock()
}

func main() {
    var mu sync.Mutex
    mu.Lock()
    helper(&mu)
    mu.Unlock()
}
"#,
        );
        assert!(kinds(&bugs).contains(&BugKind::DoubleLock), "got {bugs:?}");
    }

    #[test]
    fn balanced_locking_is_clean() {
        let bugs = detect(
            "func main() {\n var mu sync.Mutex\n mu.Lock()\n mu.Unlock()\n mu.Lock()\n mu.Unlock()\n}",
        );
        assert!(bugs.is_empty(), "got {bugs:?}");
    }

    #[test]
    fn detects_missing_unlock_on_error_path() {
        let bugs = detect(
            r#"
func get(fail bool) int {
    var mu sync.Mutex
    mu.Lock()
    if fail {
        return 0
    }
    mu.Unlock()
    return 1
}
"#,
        );
        assert!(
            kinds(&bugs).contains(&BugKind::MissingUnlock),
            "got {bugs:?}"
        );
    }

    #[test]
    fn deferred_unlock_is_clean() {
        let bugs = detect(
            r#"
func get(fail bool) int {
    var mu sync.Mutex
    mu.Lock()
    defer mu.Unlock()
    if fail {
        return 0
    }
    return 1
}
"#,
        );
        assert!(
            !kinds(&bugs).contains(&BugKind::MissingUnlock),
            "defer covers all paths; got {bugs:?}"
        );
    }

    #[test]
    fn detects_conflicting_lock_order() {
        let bugs = detect(
            r#"
func a(m1 *sync.Mutex, m2 *sync.Mutex) {
    m1.Lock()
    m2.Lock()
    m2.Unlock()
    m1.Unlock()
}

func b(m1 *sync.Mutex, m2 *sync.Mutex) {
    m2.Lock()
    m1.Lock()
    m1.Unlock()
    m2.Unlock()
}

func main() {
    var m1 sync.Mutex
    var m2 sync.Mutex
    go a(&m1, &m2)
    b(&m1, &m2)
}
"#,
        );
        assert!(
            kinds(&bugs).contains(&BugKind::ConflictingLockOrder),
            "got {bugs:?}"
        );
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let bugs = detect(
            r#"
func a(m1 *sync.Mutex, m2 *sync.Mutex) {
    m1.Lock()
    m2.Lock()
    m2.Unlock()
    m1.Unlock()
}

func main() {
    var m1 sync.Mutex
    var m2 sync.Mutex
    a(&m1, &m2)
    a(&m1, &m2)
}
"#,
        );
        assert!(
            !kinds(&bugs).contains(&BugKind::ConflictingLockOrder),
            "got {bugs:?}"
        );
    }

    #[test]
    fn detects_unprotected_field_access() {
        let bugs = detect(
            r#"
type Counter struct {
    mu sync.Mutex
    n int
}

func add(c *Counter) {
    c.mu.Lock()
    c.n = c.n + 1
    c.mu.Unlock()
}

func sneak(c *Counter) {
    c.n = 0
}

func main() {
    c := Counter{n: 0}
    add(&c)
    add(&c)
    go sneak(&c)
}
"#,
        );
        assert!(
            kinds(&bugs).contains(&BugKind::StructFieldRace),
            "got {bugs:?}"
        );
    }

    #[test]
    fn fully_protected_field_is_clean() {
        let bugs = detect(
            r#"
type Counter struct {
    mu sync.Mutex
    n int
}

func add(c *Counter) {
    c.mu.Lock()
    c.n = c.n + 1
    c.mu.Unlock()
}

func main() {
    c := Counter{n: 0}
    add(&c)
    add(&c)
    add(&c)
}
"#,
        );
        assert!(
            !kinds(&bugs).contains(&BugKind::StructFieldRace),
            "got {bugs:?}"
        );
    }

    #[test]
    fn detects_fatal_in_child_goroutine() {
        let bugs = detect(
            r#"
func TestX(t *testing.T) {
    go func() {
        t.Fatalf("inside child")
    }()
}
"#,
        );
        assert!(
            kinds(&bugs).contains(&BugKind::FatalInChildGoroutine),
            "got {bugs:?}"
        );
    }

    #[test]
    fn fatal_on_main_test_goroutine_is_clean() {
        let bugs = detect("func TestX(t *testing.T) {\n t.Fatalf(\"fine here\")\n}");
        assert!(
            !kinds(&bugs).contains(&BugKind::FatalInChildGoroutine),
            "got {bugs:?}"
        );
    }

    #[test]
    fn lock_touchers_through_reaching_match_the_reachability_scan() {
        // A three-deep chain (top → middle → leaf), a `go` closure, a call
        // through a function value, and a function that reaches no lock.
        let src = r#"
func leaf(mu *sync.Mutex) {
    mu.Lock()
    mu.Unlock()
}

func middle(mu *sync.Mutex) {
    leaf(mu)
}

func top(mu *sync.Mutex) {
    middle(mu)
}

func run(f func(*sync.Mutex), mu *sync.Mutex) {
    f(mu)
}

func unrelated() {
    ch := make(chan int, 1)
    ch <- 1
}

func main() {
    var mu sync.Mutex
    go func() {
        top(&mu)
    }()
    run(leaf, &mu)
    unrelated()
}
"#;
        let module = lower_source(src).expect("lowering");
        let analysis = analyze(&module);
        let prims = collect(&module, &analysis);
        // The old definition: a full scan for lock functions, then a
        // reachability walk from every module function.
        let direct: HashSet<FuncId> = module
            .funcs
            .iter()
            .filter(|f| {
                f.blocks
                    .iter()
                    .flat_map(|b| &b.instrs)
                    .any(|i| matches!(i, Instr::Lock { .. } | Instr::Unlock { .. }))
            })
            .map(|f| f.id)
            .collect();
        let want: HashSet<FuncId> = module
            .funcs
            .iter()
            .map(|f| f.id)
            .filter(|&f| {
                analysis
                    .reachable_from(f)
                    .iter()
                    .any(|g| direct.contains(g))
            })
            .collect();
        let explorer = LockExplorer::new(&module, &analysis, &prims);
        assert_eq!(explorer.touchers, want);
        // The reference is not vacuous: it spans the chain, the closure and
        // the function-value call, and excludes `unrelated`.
        let id = |n: &str| module.func_by_name(n).unwrap().id;
        let closure = module.funcs.iter().find(|f| f.is_closure).unwrap().id;
        for f in ["leaf", "middle", "top", "run", "main"]
            .map(id)
            .into_iter()
            .chain([closure])
        {
            assert!(want.contains(&f), "{} touches a lock", module.func(f).name);
        }
        assert!(!want.contains(&id("unrelated")));
    }
}
