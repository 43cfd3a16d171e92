//! Path enumeration (§3.3 of the paper).
//!
//! For every goroutine in a channel's analysis scope, GCatch enumerates
//! inter-procedural execution paths:
//!
//! * callees that perform no operation on any `Pset` primitive (directly or
//!   transitively) are skipped;
//! * loops whose bounds are not statically evident are unrolled at most
//!   twice (each block may appear at most twice per frame), which is the
//!   paper's documented source of both false positives and negatives;
//! * deferred operations are appended at returns (LIFO), including the
//!   `defer close(ch)` / `defer mu.Unlock()` helpers and deferred closures;
//! * `t.Fatal` ends the goroutine's path after draining defers;
//! * branch outcomes over *read-only* booleans are recorded as facts and
//!   contradictory paths are pruned — the paper's infeasible-path filter.

use crate::primitives::{OpKind, PrimId, Primitives};
use crate::resilience::Budget;
use golite::Span;
use golite_ir::alias::Analysis;
use golite_ir::ir::*;
use std::collections::{HashMap, HashSet};

/// A synchronization operation occurrence on a path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathOp {
    /// The primitive operated on.
    pub prim: PrimId,
    /// Send/recv/close in the unified channel view.
    pub kind: OpKind,
    /// Static instruction location.
    pub loc: Loc,
    /// Source span.
    pub span: Span,
    /// Whether the op came from a mutex.
    pub from_mutex: bool,
}

/// One event along a goroutine's path.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A plain synchronization operation (on a Pset primitive).
    Op(PathOp),
    /// A `select`: either one case was chosen (`chosen = Some(i)`) or the
    /// `default` arm ran (`chosen = None`). `cases` lists the communication
    /// ops of all non-default cases that touch Pset primitives.
    Select {
        /// Location of the select terminator.
        loc: Loc,
        /// Source span.
        span: Span,
        /// Case operations on Pset primitives (case index preserved).
        cases: Vec<(usize, PathOp)>,
        /// Index into the select's cases, or `None` for `default`.
        chosen: Option<usize>,
        /// Whether the select has a default arm.
        has_default: bool,
        /// Total number of communication cases in the source select (may
        /// exceed `cases` when some wait on primitives outside the Pset).
        n_cases: usize,
    },
    /// A goroutine spawn whose target is statically known.
    Spawn {
        /// The `go` instruction.
        site: Loc,
        /// The spawned function.
        target: FuncId,
    },
    /// A branch decision over a read-only boolean (for infeasibility
    /// filtering).
    Fact {
        /// Function owning the variable.
        func: FuncId,
        /// The read-only variable.
        var: Var,
        /// The direction taken.
        value: bool,
    },
}

/// An enumerated execution path of one goroutine.
#[derive(Debug, Clone, Default)]
pub struct Path {
    /// Events in execution order.
    pub events: Vec<Event>,
}

impl Path {
    /// Indices of events that could block forever (candidates for the
    /// suspicious group): sends, receives, and selects without default.
    pub fn blocking_candidates(&self) -> Vec<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| match e {
                Event::Op(op) => op.kind.can_block(),
                Event::Select {
                    has_default,
                    cases,
                    n_cases,
                    ..
                } => {
                    // A select is only a credible blocking candidate when
                    // every one of its cases is modeled; a case on a
                    // primitive outside the Pset could fire and unblock it.
                    let distinct: HashSet<usize> = cases.iter().map(|(ci, _)| *ci).collect();
                    !has_default && !cases.is_empty() && distinct.len() == *n_cases
                }
                _ => false,
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Enumeration limits (paper defaults: unroll 2; ours add explicit caps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Maximum visits of one block within one frame (loop unrolling).
    pub max_block_visits: u32,
    /// Maximum paths returned per function.
    pub max_paths_per_func: usize,
    /// Maximum events per path.
    pub max_events: usize,
    /// Maximum call-inlining depth.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_block_visits: 2,
            max_paths_per_func: 96,
            max_events: 160,
            max_depth: 6,
        }
    }
}

/// The path enumerator for one (channel, Pset, scope) instance.
pub struct Enumerator<'a> {
    module: &'a Module,
    analysis: &'a Analysis<'a>,
    prims: &'a Primitives,
    pset: HashSet<PrimId>,
    /// Functions that (transitively) touch a Pset primitive.
    touchers: HashSet<FuncId>,
    limits: Limits,
    /// Cache of enumerated paths per function.
    cache: HashMap<FuncId, Vec<Path>>,
    /// Read-only boolean vars per function.
    read_only: HashMap<FuncId, HashSet<Var>>,
    /// Paths enumerated (unique per function; cache hits don't recount).
    paths_enumerated: u64,
    /// Branches discarded by the infeasible-path filter.
    branches_pruned: u64,
    /// Cooperative wall-clock/step budget (unbounded by default).
    budget: Budget,
    /// Set once the budget expires mid-enumeration; remaining walks are
    /// abandoned and the paths collected so far are returned truncated.
    exhausted: bool,
}

impl<'a> Enumerator<'a> {
    /// Creates an enumerator for the given Pset.
    pub fn new(
        module: &'a Module,
        analysis: &'a Analysis,
        prims: &'a Primitives,
        pset: &[PrimId],
        limits: Limits,
    ) -> Enumerator<'a> {
        let pset: HashSet<PrimId> = pset.iter().copied().collect();
        // A function "touches" the Pset if any function reachable from it
        // contains an op on a Pset primitive. The functions holding such
        // an op come from each member's own op index, so this costs the
        // Pset's ops, not the module's.
        let direct: HashSet<FuncId> = pset
            .iter()
            .flat_map(|&p| prims.funcs_with_ops_of(p).iter().copied())
            .collect();
        // `f` touches the Pset ⟺ some direct function is reachable from
        // `f` ⟺ `f` can reach a direct function — so the union of the
        // (memoized) reverse-reachability slices gives the same set
        // without scanning every module function per channel.
        let mut touchers = HashSet::new();
        for &d in &direct {
            touchers.extend(analysis.reaching(d).iter().copied());
        }
        Enumerator {
            module,
            analysis,
            prims,
            pset,
            touchers,
            limits,
            cache: HashMap::new(),
            read_only: HashMap::new(),
            paths_enumerated: 0,
            branches_pruned: 0,
            budget: Budget::default(),
            exhausted: false,
        }
    }

    /// Attach a cooperative [`Budget`]: enumeration checks it between
    /// blocks and stops early (marking the enumerator
    /// [`exhausted`](Enumerator::exhausted)) once it expires.
    pub fn with_budget(mut self, budget: Budget) -> Enumerator<'a> {
        self.budget = budget;
        self
    }

    /// Whether the budget expired during enumeration (results are
    /// truncated and the caller should degrade or report an incident).
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Total paths enumerated so far (fresh enumerations only).
    pub fn paths_enumerated(&self) -> u64 {
        self.paths_enumerated
    }

    /// Total branch directions discarded as infeasible so far.
    pub fn branches_pruned(&self) -> u64 {
        self.branches_pruned
    }

    /// Enumerates the paths of `func` (goroutine root or inlined callee).
    pub fn paths_of(&mut self, func: FuncId) -> Vec<Path> {
        if let Some(cached) = self.cache.get(&func) {
            return cached.clone();
        }
        // Mark in-progress with an empty entry to cut call-graph cycles.
        self.cache.insert(func, vec![Path::default()]);
        let mut out = Vec::new();
        let f = self.module.func(func);
        let mut visits = HashMap::new();
        self.walk(
            f,
            BlockId(0),
            0,
            &mut visits,
            Path::default(),
            &mut Vec::new(),
            &mut HashMap::new(),
            &mut out,
            0,
        );
        if out.is_empty() {
            out.push(Path::default());
        }
        out.truncate(self.limits.max_paths_per_func);
        self.paths_enumerated += out.len() as u64;
        self.cache.insert(func, out.clone());
        out
    }

    /// Read-only boolean variables of `func`: assigned exactly once.
    fn read_only_vars(&mut self, func: FuncId) -> HashSet<Var> {
        if let Some(cached) = self.read_only.get(&func) {
            return cached.clone();
        }
        let f = self.module.func(func);
        let mut def_count: HashMap<Var, u32> = HashMap::new();
        for block in &f.blocks {
            for instr in &block.instrs {
                for d in instr_defs(instr) {
                    *def_count.entry(d).or_insert(0) += 1;
                }
            }
        }
        let mut out: HashSet<Var> = HashSet::new();
        for (v, count) in def_count {
            if count <= 1 {
                out.insert(v);
            }
        }
        // Parameters are read-only if never reassigned (count absent).
        for &p in &f.params {
            if !f
                .blocks
                .iter()
                .flat_map(|b| &b.instrs)
                .flat_map(instr_defs)
                .any(|d| d == p)
            {
                out.insert(p);
            }
        }
        self.read_only.insert(func, out.clone());
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn walk(
        &mut self,
        f: &Function,
        block: BlockId,
        start_idx: usize,
        visits: &mut HashMap<BlockId, u32>,
        mut path: Path,
        defers: &mut Vec<Vec<Event>>,
        facts: &mut HashMap<(FuncId, Var), bool>,
        out: &mut Vec<Path>,
        depth: usize,
    ) {
        if out.len() >= self.limits.max_paths_per_func {
            return;
        }
        if self.exhausted {
            return;
        }
        if self.budget.expired() {
            // Emit the partial path so the ops observed so far still
            // participate in combinations, then abandon the walk.
            self.exhausted = true;
            out.push(path);
            return;
        }
        if path.events.len() > self.limits.max_events {
            out.push(path);
            return;
        }
        let blk = f.block(block);
        for idx in start_idx..blk.instrs.len() {
            let loc = Loc {
                func: f.id,
                block,
                idx: idx as u32,
            };
            let span = blk.spans[idx];
            let instr = &blk.instrs[idx];
            match instr {
                Instr::Send { chan, .. } => {
                    self.push_ops(&mut path, f.id, loc, span, OpKind::Send, chan);
                }
                Instr::Recv { chan, .. } => {
                    self.push_ops(&mut path, f.id, loc, span, OpKind::Recv, chan);
                }
                Instr::Close { chan } => {
                    self.push_ops(&mut path, f.id, loc, span, OpKind::Close, chan);
                }
                Instr::Lock { mutex, .. } => {
                    self.push_ops(&mut path, f.id, loc, span, OpKind::Send, mutex);
                }
                Instr::Unlock { mutex, .. } => {
                    self.push_ops(&mut path, f.id, loc, span, OpKind::Recv, mutex);
                }
                Instr::Go { .. } => {
                    if let Some(target) = self.single_target(loc) {
                        if self.touchers.contains(&target) {
                            path.events.push(Event::Spawn { site: loc, target });
                        }
                    }
                }
                Instr::Call { .. } => {
                    if let Some(target) = self.single_target(loc) {
                        if self.touchers.contains(&target) && depth < self.limits.max_depth {
                            // Inline: splice each callee path, then continue.
                            let callee_paths = self.paths_of(target);
                            for cp in callee_paths {
                                let mut branched = path.clone();
                                branched.events.extend(cp.events);
                                let mut defers2 = defers.clone();
                                let mut facts2 = facts.clone();
                                let mut visits2 = visits.clone();
                                self.walk(
                                    f,
                                    block,
                                    idx + 1,
                                    &mut visits2,
                                    branched,
                                    &mut defers2,
                                    &mut facts2,
                                    out,
                                    depth,
                                );
                            }
                            return;
                        }
                    }
                }
                Instr::DeferCall { func, args } => {
                    if let Some(events) = self.defer_events(f.id, loc, span, func, args, depth) {
                        defers.push(events);
                    }
                }
                Instr::Fatal => {
                    // Goroutine exit: drain defers and end the path.
                    self.drain_defers(&mut path, defers);
                    out.push(path);
                    return;
                }
                Instr::Panic { .. } => {
                    out.push(path);
                    return;
                }
                _ => {}
            }
        }

        // Terminator. Paths that cannot continue (every successor exhausted
        // its unroll budget) are emitted truncated: the operations observed
        // so far still participate in combinations, mirroring the paper's
        // bounded unrolling of non-terminating loops.
        let term_loc = Loc {
            func: f.id,
            block,
            idx: blk.instrs.len() as u32,
        };
        match &blk.term {
            Terminator::Jump(b) => {
                if self.enter(f, *b, visits) {
                    self.walk(f, *b, 0, visits, path, defers, facts, out, depth);
                    self.leave(*b, visits);
                } else {
                    out.push(path);
                }
            }
            Terminator::Branch { cond, then, els } => {
                let fact_var = match cond {
                    Operand::Var(v) if self.read_only_vars(f.id).contains(v) => Some(*v),
                    _ => None,
                };
                let mut advanced = false;
                for (target, value) in [(*then, true), (*els, false)] {
                    if let Some(v) = fact_var {
                        if let Some(&prev) = facts.get(&(f.id, v)) {
                            if prev != value {
                                advanced = true; // infeasible, not truncated
                                self.branches_pruned += 1;
                                continue;
                            }
                        }
                    }
                    if self.enter(f, target, visits) {
                        advanced = true;
                        let mut p2 = path.clone();
                        if let Some(v) = fact_var {
                            p2.events.push(Event::Fact {
                                func: f.id,
                                var: v,
                                value,
                            });
                        }
                        let mut facts2 = facts.clone();
                        if let Some(v) = fact_var {
                            facts2.insert((f.id, v), value);
                        }
                        let mut defers2 = defers.clone();
                        self.walk(
                            f,
                            target,
                            0,
                            visits,
                            p2,
                            &mut defers2,
                            &mut facts2,
                            out,
                            depth,
                        );
                        self.leave(target, visits);
                    }
                }
                if !advanced {
                    out.push(path);
                }
            }
            Terminator::Return(_) | Terminator::Unreachable => {
                let mut p2 = path;
                if matches!(blk.term, Terminator::Return(_)) {
                    self.drain_defers(&mut p2, defers);
                }
                out.push(p2);
            }
            Terminator::Select { cases, default } => {
                // Collect Pset ops for each case.
                let mut case_ops: Vec<(usize, PathOp)> = Vec::new();
                for (ci, case) in cases.iter().enumerate() {
                    let kind = match case.op {
                        SelectOp::Send { .. } => OpKind::Send,
                        SelectOp::Recv { .. } => OpKind::Recv,
                    };
                    for (prim, from_mutex) in self.resolve(f.id, case.op.chan()) {
                        case_ops.push((
                            ci,
                            PathOp {
                                prim,
                                kind,
                                loc: term_loc,
                                span: blk.term_span,
                                from_mutex,
                            },
                        ));
                    }
                }
                // One continuation per case (plus default).
                for (ci, case) in cases.iter().enumerate() {
                    if self.enter(f, case.target, visits) {
                        let mut p2 = path.clone();
                        p2.events.push(Event::Select {
                            loc: term_loc,
                            span: blk.term_span,
                            cases: case_ops.clone(),
                            chosen: Some(ci),
                            has_default: default.is_some(),
                            n_cases: cases.len(),
                        });
                        let mut defers2 = defers.clone();
                        let mut facts2 = facts.clone();
                        self.walk(
                            f,
                            case.target,
                            0,
                            visits,
                            p2,
                            &mut defers2,
                            &mut facts2,
                            out,
                            depth,
                        );
                        self.leave(case.target, visits);
                    }
                }
                if let Some(d) = default {
                    if self.enter(f, *d, visits) {
                        let mut p2 = path.clone();
                        p2.events.push(Event::Select {
                            loc: term_loc,
                            span: blk.term_span,
                            cases: case_ops,
                            chosen: None,
                            has_default: true,
                            n_cases: cases.len(),
                        });
                        let mut defers2 = defers.clone();
                        let mut facts2 = facts.clone();
                        self.walk(f, *d, 0, visits, p2, &mut defers2, &mut facts2, out, depth);
                        self.leave(*d, visits);
                    }
                }
            }
        }
    }

    fn enter(&self, _f: &Function, b: BlockId, visits: &mut HashMap<BlockId, u32>) -> bool {
        let count = visits.entry(b).or_insert(0);
        if *count >= self.limits.max_block_visits {
            return false;
        }
        *count += 1;
        true
    }

    fn leave(&self, b: BlockId, visits: &mut HashMap<BlockId, u32>) {
        if let Some(c) = visits.get_mut(&b) {
            *c -= 1;
        }
    }

    fn resolve(&self, func: FuncId, op: &Operand) -> Vec<(PrimId, bool)> {
        crate::alias_ext::chan_sites_of(self.analysis, func, op)
            .into_iter()
            .filter_map(|(site, is_mutex)| self.prims.by_site(site).map(|p| (p.id, is_mutex)))
            .filter(|(id, _)| self.pset.contains(id))
            .collect()
    }

    fn push_ops(
        &self,
        path: &mut Path,
        func: FuncId,
        loc: Loc,
        span: Span,
        kind: OpKind,
        operand: &Operand,
    ) {
        for (prim, from_mutex) in self.resolve(func, operand) {
            path.events.push(Event::Op(PathOp {
                prim,
                kind,
                loc,
                span,
                from_mutex,
            }));
        }
    }

    /// The unique unambiguous target of the call at `loc`, if any.
    fn single_target(&self, loc: Loc) -> Option<FuncId> {
        let cs = self.analysis.calls_in(loc.func).find(|cs| cs.loc == loc)?;
        if cs.ambiguous || cs.targets.len() != 1 {
            return None;
        }
        Some(cs.targets[0])
    }

    /// Events a `defer` contributes when its frame returns (one group per
    /// defer statement, `None` when it touches no Pset primitive).
    fn defer_events(
        &mut self,
        func: FuncId,
        loc: Loc,
        span: Span,
        target: &FuncRef,
        args: &[Operand],
        depth: usize,
    ) -> Option<Vec<Event>> {
        match target {
            FuncRef::Static(fid) => {
                let name = self.module.func(*fid).name;
                match name.as_str() {
                    // Helper defers: resolve the primitive from the argument
                    // *at the defer site* (context-sensitive).
                    "__close" | "__unlock" | "__runlock" => {
                        let kind = if name == "__close" {
                            OpKind::Close
                        } else {
                            OpKind::Recv
                        };
                        let ops: Vec<Event> = self
                            .resolve(func, &args[0])
                            .into_iter()
                            .map(|(prim, from_mutex)| {
                                Event::Op(PathOp {
                                    prim,
                                    kind,
                                    loc,
                                    span,
                                    from_mutex,
                                })
                            })
                            .collect();
                        if ops.is_empty() {
                            None
                        } else {
                            Some(ops)
                        }
                    }
                    _ => self.deferred_body_events(*fid, depth),
                }
            }
            FuncRef::Dynamic(op) => {
                // Deferred closure: resolve via points-to.
                let mut targets: Vec<FuncId> = Vec::new();
                for obj in self.analysis.operand_points_to(func, op) {
                    if let Some(fid) = obj.callee() {
                        targets.push(fid);
                    }
                }
                targets.sort_unstable();
                targets.dedup();
                if targets.len() == 1 {
                    self.deferred_body_events(targets[0], depth)
                } else {
                    None
                }
            }
            FuncRef::External(_) => None,
        }
    }

    /// Events of a deferred function body (first enumerated path only —
    /// deferred cleanup code is almost always straight-line; taking one
    /// alternative keeps defers from exploding the path count).
    fn deferred_body_events(&mut self, fid: FuncId, depth: usize) -> Option<Vec<Event>> {
        if !self.touchers.contains(&fid) || depth >= self.limits.max_depth {
            return None;
        }
        let paths = self.paths_of(fid);
        paths
            .into_iter()
            .next()
            .filter(|p| !p.events.is_empty())
            .map(|p| p.events)
    }

    /// Appends deferred event groups in LIFO order.
    fn drain_defers(&self, path: &mut Path, defers: &mut Vec<Vec<Event>>) {
        while let Some(events) = defers.pop() {
            path.events.extend(events);
        }
    }
}

/// Helper: registers written by an instruction.
fn instr_defs(instr: &Instr) -> Vec<Var> {
    match instr {
        Instr::Const { dst, .. }
        | Instr::Copy { dst, .. }
        | Instr::UnOp { dst, .. }
        | Instr::BinOp { dst, .. }
        | Instr::MakeChan { dst, .. }
        | Instr::MakeMutex { dst, .. }
        | Instr::MakeWaitGroup { dst }
        | Instr::MakeCond { dst }
        | Instr::MakeStruct { dst, .. }
        | Instr::MakeSlice { dst, .. }
        | Instr::MakeClosure { dst, .. }
        | Instr::Len { dst, .. }
        | Instr::IndexLoad { dst, .. }
        | Instr::FieldLoad { dst, .. }
        | Instr::LoadGlobal { dst, .. } => vec![*dst],
        Instr::Recv { dst, ok, .. } => {
            let mut out = Vec::new();
            if let Some(d) = dst {
                out.push(*d);
            }
            if let Some(o) = ok {
                out.push(*o);
            }
            out
        }
        Instr::Call { dsts, .. } => dsts.clone(),
        _ => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::collect;
    use golite_ir::{analyze, lower_source};

    struct Setup {
        module: &'static Module,
        analysis: Analysis<'static>,
        prims: Primitives,
    }

    fn setup(src: &str) -> Setup {
        // Leaked so the analysis (which borrows the module) can live in
        // the same struct; test-only.
        let module: &'static Module = Box::leak(Box::new(lower_source(src).expect("lowering")));
        let analysis = analyze(module);
        let prims = collect(module, &analysis);
        Setup {
            module,
            analysis,
            prims,
        }
    }

    fn all_prims(s: &Setup) -> Vec<PrimId> {
        s.prims.all.iter().map(|p| p.id).collect()
    }

    #[test]
    fn straight_line_has_one_path() {
        let s = setup("func main() {\n ch := make(chan int, 1)\n ch <- 1\n <-ch\n}");
        let pset = all_prims(&s);
        let mut e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
        let main = s.module.func_by_name("main").unwrap().id;
        let paths = e.paths_of(main);
        assert_eq!(paths.len(), 1);
        let ops: Vec<&PathOp> = paths[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Op(op) => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].kind, OpKind::Send);
        assert_eq!(ops[1].kind, OpKind::Recv);
    }

    #[test]
    fn figure1_parent_has_three_paths() {
        // Paper: "Since there is a select statement with two cases at line 9
        // and an if statement at line 11, GCatch finds three possible paths
        // for the parent goroutine."
        let s = setup(
            r#"
func Exec(done chan struct{}) {
    outDone := make(chan error)
    go func() {
        outDone <- StdCopy()
    }()
    select {
    case err := <-outDone:
        if err != nil {
            return
        }
    case <-done:
        return
    }
}

func StdCopy() error {
    return nil
}
"#,
        );
        let pset = all_prims(&s);
        let mut e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
        let exec = s.module.func_by_name("Exec").unwrap().id;
        let paths = e.paths_of(exec);
        assert_eq!(paths.len(), 3, "case1/err!=nil, case1/err==nil, case2");
        // Every path contains the spawn event.
        for p in &paths {
            assert!(p.events.iter().any(|e| matches!(e, Event::Spawn { .. })));
        }
    }

    #[test]
    fn callee_without_pset_ops_is_skipped() {
        let s = setup(
            "func busy() {\n x := 1\n _ = x\n}\nfunc main() {\n ch := make(chan int, 1)\n busy()\n ch <- 1\n}",
        );
        let pset = all_prims(&s);
        let mut e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
        let main = s.module.func_by_name("main").unwrap().id;
        let paths = e.paths_of(main);
        assert_eq!(paths.len(), 1, "busy() contributes no path split");
    }

    #[test]
    fn callee_with_pset_ops_is_inlined() {
        let s = setup(
            "func helper(ch chan int) {\n ch <- 1\n}\nfunc main() {\n ch := make(chan int, 1)\n helper(ch)\n <-ch\n}",
        );
        let pset = all_prims(&s);
        let mut e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
        let main = s.module.func_by_name("main").unwrap().id;
        let paths = e.paths_of(main);
        assert_eq!(paths.len(), 1);
        let ops: Vec<OpKind> = paths[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Op(op) => Some(op.kind),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![OpKind::Send, OpKind::Recv],
            "helper's send spliced in"
        );
    }

    #[test]
    fn loops_unrolled_at_most_twice() {
        let s = setup("func main() {\n ch := make(chan int, 8)\n for {\n  ch <- 1\n }\n}");
        let pset = all_prims(&s);
        let mut e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
        let main = s.module.func_by_name("main").unwrap().id;
        let paths = e.paths_of(main);
        let max_sends = paths
            .iter()
            .map(|p| {
                p.events
                    .iter()
                    .filter(|e| matches!(e, Event::Op(op) if op.kind == OpKind::Send))
                    .count()
            })
            .max()
            .unwrap_or(0);
        assert!(
            max_sends <= 2,
            "at most two unrolled sends, got {max_sends}"
        );
    }

    #[test]
    fn defer_close_appends_at_return() {
        let s = setup("func main() {\n ch := make(chan int)\n defer close(ch)\n x := 1\n _ = x\n}");
        let pset = all_prims(&s);
        let mut e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
        let main = s.module.func_by_name("main").unwrap().id;
        let paths = e.paths_of(main);
        assert_eq!(paths.len(), 1);
        let last = paths[0].events.last().expect("has events");
        assert!(
            matches!(last, Event::Op(op) if op.kind == OpKind::Close),
            "deferred close is the final event"
        );
    }

    #[test]
    fn fatal_ends_path_draining_defers() {
        let s = setup(
            r#"
func TestX(t *testing.T, fail bool) {
    stop := make(chan struct{})
    defer close(stop)
    if fail {
        t.Fatalf("boom")
    }
    stop <- struct{}{}
}
"#,
        );
        let pset = all_prims(&s);
        let mut e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
        let f = s.module.func_by_name("TestX").unwrap().id;
        let paths = e.paths_of(f);
        assert_eq!(paths.len(), 2);
        // The Fatal path still ends with the deferred close.
        let fatal_path = paths
            .iter()
            .find(|p| {
                p.events
                    .iter()
                    .filter(|e| matches!(e, Event::Op(op) if op.kind == OpKind::Send))
                    .count()
                    == 0
            })
            .expect("a path without the send exists");
        assert!(matches!(
            fatal_path.events.last(),
            Some(Event::Op(op)) if op.kind == OpKind::Close
        ));
    }

    #[test]
    fn contradictory_readonly_branches_pruned() {
        // `cond` is read-only; a path taking cond==true then cond==false is
        // impossible and must not be enumerated.
        let s = setup(
            "func main(cond bool) {\n ch := make(chan int, 4)\n if cond {\n  ch <- 1\n }\n if cond {\n  ch <- 2\n }\n}",
        );
        let pset = all_prims(&s);
        let mut e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
        let main = s.module.func_by_name("main").unwrap().id;
        let paths = e.paths_of(main);
        // Consistent worlds only: cond=true (2 sends) or cond=false (0 sends).
        assert_eq!(paths.len(), 2);
        let send_counts: Vec<usize> = paths
            .iter()
            .map(|p| {
                p.events
                    .iter()
                    .filter(|e| matches!(e, Event::Op(op) if op.kind == OpKind::Send))
                    .count()
            })
            .collect();
        assert!(send_counts.contains(&2));
        assert!(send_counts.contains(&0));
        assert!(!send_counts.contains(&1), "mixed world is infeasible");
    }

    #[test]
    fn select_paths_cover_all_cases() {
        let s = setup(
            "func main() {\n a := make(chan int)\n b := make(chan int)\n select {\n case <-a:\n case <-b:\n default:\n }\n}",
        );
        let pset = all_prims(&s);
        let mut e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
        let main = s.module.func_by_name("main").unwrap().id;
        let paths = e.paths_of(main);
        assert_eq!(paths.len(), 3, "two cases plus default");
        let chosens: Vec<Option<usize>> = paths
            .iter()
            .filter_map(|p| {
                p.events.iter().find_map(|e| match e {
                    Event::Select { chosen, .. } => Some(*chosen),
                    _ => None,
                })
            })
            .collect();
        assert!(chosens.contains(&Some(0)));
        assert!(chosens.contains(&Some(1)));
        assert!(chosens.contains(&None));
    }

    #[test]
    fn blocking_candidates_identified() {
        let s = setup(
            "func main() {\n ch := make(chan int)\n select {\n case <-ch:\n default:\n }\n ch <- 1\n close(ch)\n}",
        );
        let pset = all_prims(&s);
        let mut e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
        let main = s.module.func_by_name("main").unwrap().id;
        let paths = e.paths_of(main);
        for p in &paths {
            for &c in &p.blocking_candidates() {
                match &p.events[c] {
                    Event::Op(op) => assert!(op.kind.can_block()),
                    Event::Select { has_default, .. } => {
                        assert!(!has_default, "select with default cannot block")
                    }
                    other => panic!("bad candidate {other:?}"),
                }
            }
        }
    }

    /// The toucher definition the enumerator used to compute by scanning
    /// every op of the module: the functions holding a Pset op, then every
    /// function from which one of them is reachable.
    fn touchers_by_full_scan(s: &Setup, pset: &[PrimId]) -> HashSet<FuncId> {
        let direct: HashSet<FuncId> = s
            .prims
            .ops
            .iter()
            .filter(|op| pset.contains(&op.prim))
            .map(|op| op.func)
            .collect();
        s.module
            .funcs
            .iter()
            .map(|f| f.id)
            .filter(|&f| {
                s.analysis
                    .reachable_from(f)
                    .iter()
                    .any(|g| direct.contains(g))
            })
            .collect()
    }

    #[test]
    fn touchers_from_the_pset_op_index_match_the_full_scan() {
        // A three-deep chain (top → middle → leaf), a `go` closure, a call
        // through a function value, and a function that reaches no Pset op.
        let s = setup(
            r#"
func leaf(ch chan int) {
    ch <- 1
}

func middle(ch chan int) {
    leaf(ch)
}

func top(ch chan int) {
    middle(ch)
}

func run(f func(chan int), ch chan int) {
    f(ch)
}

func unrelated() {
    other := make(chan int, 1)
    other <- 1
}

func main() {
    ch := make(chan int)
    go func() {
        top(ch)
    }()
    run(leaf, ch)
    <-ch
    unrelated()
}
"#,
        );
        let name = |f: FuncId| s.module.func(f).name.to_string();
        let id = |n: &str| s.module.func_by_name(n).unwrap().id;
        let ch = s.prims.all.iter().find(|p| p.name == "ch").unwrap().id;
        let other = s.prims.all.iter().find(|p| p.name == "other").unwrap().id;
        for pset in [vec![ch], vec![other], vec![ch, other], all_prims(&s)] {
            let e = Enumerator::new(s.module, &s.analysis, &s.prims, &pset, Limits::default());
            assert_eq!(
                e.touchers,
                touchers_by_full_scan(&s, &pset),
                "Pset {pset:?}"
            );
        }
        // The reference is not vacuous: `ch`'s touchers span the chain, the
        // closure and the function-value call, and exclude `unrelated`.
        let e = Enumerator::new(s.module, &s.analysis, &s.prims, &[ch], Limits::default());
        let closure = s.module.funcs.iter().find(|f| f.is_closure).unwrap().id;
        for f in ["leaf", "middle", "top", "run", "main"]
            .map(id)
            .into_iter()
            .chain([closure])
        {
            assert!(e.touchers.contains(&f), "{} touches ch", name(f));
        }
        assert!(!e.touchers.contains(&id("unrelated")));
    }
}
