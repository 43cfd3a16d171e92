//! Andersen-style points-to analysis with on-the-fly call-graph
//! construction — eager (whole-module) or demand-driven (per component).
//!
//! This replaces the `golang.org/x/tools/go/pointer` and `go/callgraph`
//! packages the original GCatch builds on. The analysis is flow- and
//! context-insensitive, field-sensitive per struct allocation site, and
//! resolves closures precisely through `MakeClosure` bindings.
//!
//! Two imprecisions of the original toolchain are reproduced *deliberately*,
//! because the paper's §5.2 false-positive census attributes 17 BMOC false
//! positives to them:
//!
//! * a channel **sent through another channel** is not tracked: `Recv`
//!   destinations get an empty points-to set, so the receiving side's
//!   operations cannot be matched to the sending side's channel;
//! * a channel **stored into a slice** and loaded back by index is not
//!   tracked: `IndexLoad` destinations get an empty points-to set.
//!
//! Dynamic calls whose operand has an empty points-to set fall back to
//! arity matching over all module functions (the CHA-style behavior of the
//! paper's call-graph package); call sites that end up with more than one
//! candidate are marked [`ambiguous`](CallSite::ambiguous), and GCatch
//! ignores their targets exactly as §5.1 of the paper describes.
//!
//! # Demand-driven mode
//!
//! [`AliasMode::Demand`] partitions the module into *reference components*:
//! the connected components of the syntactic reference graph over functions
//! and globals, where an edge joins two elements whenever a value could
//! flow between them (static call/go/defer, `MakeClosure` lifting, a
//! function-constant mention, or a global load/store). Every points-to
//! constraint the eager solver would install stays inside one component —
//! flows between functions are themselves mediated by those same syntactic
//! edges — so solving a component in isolation yields exactly the eager
//! solution restricted to it. Components are solved lazily, at most once,
//! behind [`std::sync::OnceLock`]s, so parallel detector shards share
//! results; functions whose component is never demanded (no sync ops, no
//! dynamic calls — the bulk of a realistic corpus) are never solved at all.
//! Verdicts are identical in both modes by construction; only the work
//! differs.

use crate::intern::Symbol;
use crate::ir::*;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// An abstract heap object, identified by its creation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbstractObject {
    /// A channel created by `make(chan ..)` at the given site.
    Chan(Loc),
    /// A mutex created at the given site.
    Mutex(Loc),
    /// A wait group created at the given site.
    WaitGroup(Loc),
    /// A condition variable created at the given site.
    Cond(Loc),
    /// A struct object allocated at the given site.
    Struct(Loc),
    /// A slice allocated at the given site.
    Slice(Loc),
    /// A closure created at the given site.
    Closure {
        /// The lifted function.
        func: FuncId,
        /// The `MakeClosure` site.
        site: Loc,
    },
    /// A plain function constant.
    Func(FuncId),
}

impl AbstractObject {
    /// The target function, if this object is callable.
    pub fn callee(&self) -> Option<FuncId> {
        match self {
            AbstractObject::Closure { func, .. } => Some(*func),
            AbstractObject::Func(func) => Some(*func),
            _ => None,
        }
    }
}

/// A node in the points-to constraint graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Node {
    /// A function-local register.
    Var(FuncId, Var),
    /// A module global.
    Global(GlobalId),
    /// A field of a struct allocation site (field names are interned, so
    /// the symbol itself is the field key — no per-solver intern table).
    Field(Loc, Symbol),
    /// The i-th return value of a function.
    Ret(FuncId, u32),
}

/// What kind of invocation a call site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// Ordinary call.
    Call,
    /// `go` spawn.
    Go,
    /// `defer`red call.
    Defer,
}

/// A resolved call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The calling function.
    pub caller: FuncId,
    /// Location of the call instruction.
    pub loc: Loc,
    /// Call, go, or defer.
    pub kind: CallKind,
    /// Candidate callees.
    pub targets: Vec<FuncId>,
    /// External callee name, when the target is not in the module.
    pub external: Option<Symbol>,
    /// True when the targets came from arity matching with more than one
    /// candidate; GCatch ignores such sites (paper §5.1).
    pub ambiguous: bool,
}

/// How the points-to analysis schedules its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AliasMode {
    /// Solve the whole module up front (the original behavior).
    Eager,
    /// Partition into reference components and solve each lazily, on first
    /// demand. Identical results; work proportional to what the detectors
    /// actually query.
    #[default]
    Demand,
}

/// Work counters for the alias layer (surfaced as telemetry by the
/// detector session).
#[derive(Debug, Clone, Copy, Default)]
pub struct AliasStats {
    /// Points-to solves performed: one per solved component in demand
    /// mode, exactly 1 in eager mode.
    pub queries_solved: u64,
    /// Functions whose component was never demanded, and were therefore
    /// never solved (always 0 in eager mode).
    pub functions_skipped: u64,
}

/// Fully solved points-to + call-graph state (eager mode, and the shape a
/// demand component solve produces for its slice).
#[derive(Debug)]
struct Solved {
    /// Sorted points-to sets per register (sorted so iteration order never
    /// depends on hash state).
    points_to: HashMap<(FuncId, Var), Vec<AbstractObject>>,
    /// All call sites, sorted by location.
    call_sites: Vec<CallSite>,
    /// callee → call-site indices.
    callers_of: HashMap<FuncId, Vec<usize>>,
    /// caller → call-site indices.
    calls_in: HashMap<FuncId, Vec<usize>>,
}

/// One reference component of the demand engine.
#[derive(Debug)]
struct Component {
    /// Member functions, ascending.
    funcs: Vec<FuncId>,
    /// Whether any member has a dynamic call (such components must be
    /// solved before the call graph is complete).
    has_dyn_calls: bool,
}

/// The solved slice of one component.
#[derive(Debug)]
struct CompSolved {
    /// Sorted points-to sets for the component's registers.
    points_to: HashMap<(FuncId, Var), Vec<AbstractObject>>,
    /// Dynamic call sites per member function, sorted by location.
    dyn_sites_in: HashMap<FuncId, Vec<CallSite>>,
}

/// The merged whole-module call-site view (built on first demand of
/// [`Analysis::call_sites`] / [`Analysis::callers_of`]).
#[derive(Debug)]
struct FullSites {
    sites: Vec<CallSite>,
    callers_of: HashMap<FuncId, Vec<usize>>,
}

/// Demand-driven engine state.
#[derive(Debug)]
struct DemandState {
    /// Component index per function.
    comp_of_func: Vec<u32>,
    /// All components.
    comps: Vec<Component>,
    /// Lazily solved component slices (OnceLock: solved at most once, then
    /// shared by every detector shard).
    solved: Vec<OnceLock<CompSolved>>,
    /// Syntactic (static + external) call sites per function, sorted by
    /// location; materialized in one cheap scan, no points-to needed.
    static_sites_in: HashMap<FuncId, Vec<CallSite>>,
    /// Merged whole-module call-site view, built only if demanded.
    full: OnceLock<FullSites>,
    /// Number of component solves performed.
    solves: AtomicU64,
}

/// Mode-specific state behind [`Analysis`].
#[derive(Debug)]
enum ModeState {
    Eager(Solved),
    Demand(DemandState),
}

/// Results of the combined points-to / call-graph analysis.
///
/// Borrows the module it analyzed: the demand engine lowers components
/// lazily from the IR on first query.
#[derive(Debug)]
pub struct Analysis<'m> {
    module: &'m Module,
    mode: ModeState,
    /// Memoized transitive-reachability sets (queried heavily by the
    /// detectors and GFix's dispatcher). Lock-guarded so a shared `Analysis`
    /// can serve the parallel per-channel detector workers.
    reach_cache: RwLock<HashMap<FuncId, Arc<HashSet<FuncId>>>>,
    /// Reverse call-graph adjacency (callee → callers), built once on the
    /// first [`Analysis::reaching`] query from the same unambiguous edges
    /// [`Analysis::reachable_from`] walks forward.
    rev_adj: OnceLock<HashMap<FuncId, Vec<FuncId>>>,
    /// Memoized reverse-reachability sets (who can reach a target).
    reaching_cache: RwLock<HashMap<FuncId, Arc<HashSet<FuncId>>>>,
}

/// Iterator over a function's call sites, unified across both engine
/// modes.
pub struct CallSiteIter<'a> {
    inner: CallSiteIterInner<'a>,
}

enum CallSiteIterInner<'a> {
    /// Indices into a shared site vector (eager engine, full demand view).
    Indexed {
        sites: &'a [CallSite],
        idx: std::slice::Iter<'a, usize>,
    },
    /// Two loc-sorted slices merged on the fly (demand engine: syntactic
    /// sites + the component's dynamic sites).
    Merge {
        a: &'a [CallSite],
        b: &'a [CallSite],
        i: usize,
        j: usize,
    },
}

impl<'a> Iterator for CallSiteIter<'a> {
    type Item = &'a CallSite;
    fn next(&mut self) -> Option<&'a CallSite> {
        match &mut self.inner {
            CallSiteIterInner::Indexed { sites, idx } => idx.next().map(|&i| &sites[i]),
            CallSiteIterInner::Merge { a, b, i, j } => {
                let take_a = match (a.get(*i), b.get(*j)) {
                    (Some(x), Some(y)) => x.loc <= y.loc,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => return None,
                };
                if take_a {
                    *i += 1;
                    Some(&a[*i - 1])
                } else {
                    *j += 1;
                    Some(&b[*j - 1])
                }
            }
        }
    }
}

const NO_SITES: &[CallSite] = &[];
const NO_INDICES: &[usize] = &[];

impl<'m> Analysis<'m> {
    /// The points-to set of a register (sorted, deterministic order).
    pub fn points_to(&self, func: FuncId, var: Var) -> impl Iterator<Item = &AbstractObject> {
        let set: Option<&Vec<AbstractObject>> = match &self.mode {
            ModeState::Eager(s) => s.points_to.get(&(func, var)),
            ModeState::Demand(d) => d
                .comp_solved(self.module, d.comp_of_func[func.0 as usize] as usize)
                .points_to
                .get(&(func, var)),
        };
        set.into_iter().flatten()
    }

    /// The points-to set of an operand (constants resolve to function
    /// objects or nothing).
    pub fn operand_points_to(&self, func: FuncId, op: &Operand) -> Vec<AbstractObject> {
        match op {
            Operand::Var(v) => self.points_to(func, *v).copied().collect(),
            Operand::Const(ConstVal::Func(f)) => vec![AbstractObject::Func(*f)],
            Operand::Const(_) => vec![],
        }
    }

    /// Whether two operands may alias (share at least one abstract object).
    pub fn may_alias(&self, f1: FuncId, op1: &Operand, f2: FuncId, op2: &Operand) -> bool {
        let a = self.operand_points_to(f1, op1);
        if a.is_empty() {
            return false;
        }
        let b = self.operand_points_to(f2, op2);
        a.iter().any(|o| b.contains(o))
    }

    /// All call sites in the module, in deterministic (location) order.
    /// In demand mode this forces the components that contain dynamic
    /// calls (and only those) to be solved.
    pub fn call_sites(&self) -> &[CallSite] {
        match &self.mode {
            ModeState::Eager(s) => &s.call_sites,
            ModeState::Demand(d) => &d.full(self.module).sites,
        }
    }

    /// Call sites inside `func`. In demand mode this solves `func`'s
    /// component only if the component contains dynamic calls; purely
    /// static callers answer from the syntactic site table.
    pub fn calls_in(&self, func: FuncId) -> CallSiteIter<'_> {
        match &self.mode {
            ModeState::Eager(s) => CallSiteIter {
                inner: CallSiteIterInner::Indexed {
                    sites: &s.call_sites,
                    idx: s
                        .calls_in
                        .get(&func)
                        .map_or(NO_INDICES, Vec::as_slice)
                        .iter(),
                },
            },
            ModeState::Demand(d) => {
                let statics = d
                    .static_sites_in
                    .get(&func)
                    .map(Vec::as_slice)
                    .unwrap_or(NO_SITES);
                let comp = d.comp_of_func[func.0 as usize] as usize;
                let dyns = if d.comps[comp].has_dyn_calls {
                    d.comp_solved(self.module, comp)
                        .dyn_sites_in
                        .get(&func)
                        .map(Vec::as_slice)
                        .unwrap_or(NO_SITES)
                } else {
                    NO_SITES
                };
                CallSiteIter {
                    inner: CallSiteIterInner::Merge {
                        a: statics,
                        b: dyns,
                        i: 0,
                        j: 0,
                    },
                }
            }
        }
    }

    /// Call sites that may target `func` (whole-module question: demand
    /// mode builds the merged view, solving dynamic-call components).
    pub fn callers_of(&self, func: FuncId) -> CallSiteIter<'_> {
        match &self.mode {
            ModeState::Eager(s) => CallSiteIter {
                inner: CallSiteIterInner::Indexed {
                    sites: &s.call_sites,
                    idx: s
                        .callers_of
                        .get(&func)
                        .map_or(NO_INDICES, Vec::as_slice)
                        .iter(),
                },
            },
            ModeState::Demand(d) => {
                let full = d.full(self.module);
                CallSiteIter {
                    inner: CallSiteIterInner::Indexed {
                        sites: &full.sites,
                        idx: full
                            .callers_of
                            .get(&func)
                            .map_or(NO_INDICES, Vec::as_slice)
                            .iter(),
                    },
                }
            }
        }
    }

    /// Functions transitively reachable from `root` through unambiguous
    /// call/go/defer edges (including `root`). Memoized.
    pub fn reachable_from(&self, root: FuncId) -> Arc<HashSet<FuncId>> {
        if let Some(cached) = self.reach_cache.read().expect("reach cache").get(&root) {
            return cached.clone();
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(root);
        queue.push_back(root);
        while let Some(f) = queue.pop_front() {
            for cs in self.calls_in(f) {
                if cs.ambiguous {
                    continue;
                }
                for &t in &cs.targets {
                    if seen.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
        let rc = Arc::new(seen);
        self.reach_cache
            .write()
            .expect("reach cache")
            .insert(root, rc.clone());
        rc
    }

    /// Functions that can transitively reach `target` through the same
    /// unambiguous call/go/defer edges [`Analysis::reachable_from`] walks
    /// (including `target`). Memoized; the inverse adjacency is built once
    /// on first use, so `f ∈ reaching(t) ⟺ t ∈ reachable_from(f)` at a
    /// per-query cost proportional to the caller slice instead of the
    /// whole module.
    pub fn reaching(&self, target: FuncId) -> Arc<HashSet<FuncId>> {
        if let Some(cached) = self
            .reaching_cache
            .read()
            .expect("reaching cache")
            .get(&target)
        {
            return cached.clone();
        }
        let rev = self.rev_adj.get_or_init(|| {
            let mut rev: HashMap<FuncId, Vec<FuncId>> = HashMap::new();
            for f in &self.module.funcs {
                for cs in self.calls_in(f.id) {
                    if cs.ambiguous {
                        continue;
                    }
                    for &t in &cs.targets {
                        rev.entry(t).or_default().push(f.id);
                    }
                }
            }
            rev
        });
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(target);
        queue.push_back(target);
        while let Some(f) = queue.pop_front() {
            if let Some(callers) = rev.get(&f) {
                for &c in callers {
                    if seen.insert(c) {
                        queue.push_back(c);
                    }
                }
            }
        }
        let rc = Arc::new(seen);
        self.reaching_cache
            .write()
            .expect("reaching cache")
            .insert(target, rc.clone());
        rc
    }

    /// Work counters for this analysis so far.
    pub fn alias_stats(&self) -> AliasStats {
        match &self.mode {
            ModeState::Eager(_) => AliasStats {
                queries_solved: 1,
                functions_skipped: 0,
            },
            ModeState::Demand(d) => {
                let skipped: u64 = d
                    .comps
                    .iter()
                    .zip(&d.solved)
                    .filter(|(_, s)| s.get().is_none())
                    .map(|(c, _)| c.funcs.len() as u64)
                    .sum();
                AliasStats {
                    queries_solved: d.solves.load(Ordering::Relaxed),
                    functions_skipped: skipped,
                }
            }
        }
    }
}

/// Runs the analysis over a module in the default (demand-driven) mode.
pub fn analyze(module: &Module) -> Analysis<'_> {
    analyze_with_mode(module, AliasMode::default())
}

/// Runs the analysis over a module with an explicit scheduling mode. Both
/// modes produce identical answers to every query; they differ only in
/// when (and whether) each function's constraints are solved.
pub fn analyze_with_mode(module: &Module, mode: AliasMode) -> Analysis<'_> {
    let mode = match mode {
        AliasMode::Eager => {
            ModeState::Eager(Solver::new(module).run(module.funcs.iter().map(|f| f.id)))
        }
        AliasMode::Demand => ModeState::Demand(DemandState::build(module)),
    };
    Analysis {
        module,
        mode,
        reach_cache: RwLock::new(HashMap::new()),
        rev_adj: OnceLock::new(),
        reaching_cache: RwLock::new(HashMap::new()),
    }
}

/// Union-find over functions + globals (path-halving, union by index).
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Calls `visit` for every function constant mentioned by an operand.
fn func_consts_in_operand(op: &Operand, visit: &mut impl FnMut(FuncId)) {
    if let Operand::Const(ConstVal::Func(f)) = op {
        visit(*f);
    }
}

/// Calls `visit` for every function constant mentioned by an instruction.
fn func_consts_in_instr(instr: &Instr, visit: &mut impl FnMut(FuncId)) {
    let mut each = |op: &Operand| func_consts_in_operand(op, visit);
    match instr {
        Instr::Const { value, .. } => {
            if let ConstVal::Func(f) = value {
                visit(*f);
            }
        }
        Instr::Copy { src, .. } => each(src),
        Instr::UnOp { src, .. } => each(src),
        Instr::BinOp { l, r, .. } => {
            each(l);
            each(r);
        }
        Instr::MakeChan { cap, .. } => each(cap),
        Instr::MakeStruct { fields, .. } => fields.iter().for_each(|(_, op)| each(op)),
        Instr::MakeSlice { elems, .. } => elems.iter().for_each(&mut each),
        Instr::MakeClosure { bound, .. } => bound.iter().for_each(&mut each),
        Instr::Len { obj, .. } => each(obj),
        Instr::IndexLoad { obj, index, .. } => {
            each(obj);
            each(index);
        }
        Instr::IndexStore { obj, index, value } => {
            each(obj);
            each(index);
            each(value);
        }
        Instr::FieldLoad { obj, .. } => each(obj),
        Instr::FieldStore { obj, value, .. } => {
            each(obj);
            each(value);
        }
        Instr::StoreGlobal { src, .. } => each(src),
        Instr::Send { chan, value } => {
            each(chan);
            each(value);
        }
        Instr::Recv { chan, .. } | Instr::Close { chan } => each(chan),
        Instr::Lock { mutex, .. } | Instr::Unlock { mutex, .. } => each(mutex),
        Instr::WgAdd { wg, n } => {
            each(wg);
            each(n);
        }
        Instr::WgDone { wg } | Instr::WgWait { wg } => each(wg),
        Instr::CondWait { cond } | Instr::CondSignal { cond } | Instr::CondBroadcast { cond } => {
            each(cond)
        }
        Instr::Go { func, args } | Instr::DeferCall { func, args } => {
            if let FuncRef::Dynamic(op) = func {
                each(op);
            }
            args.iter().for_each(&mut each);
        }
        Instr::Call { func, args, .. } => {
            if let FuncRef::Dynamic(op) = func {
                each(op);
            }
            args.iter().for_each(&mut each);
        }
        Instr::Sleep { n } => each(n),
        Instr::Panic { value } => each(value),
        Instr::Print { args } => args.iter().for_each(&mut each),
        Instr::MakeMutex { .. }
        | Instr::MakeWaitGroup { .. }
        | Instr::MakeCond { .. }
        | Instr::LoadGlobal { .. }
        | Instr::Fatal
        | Instr::Nop => {}
    }
}

/// Calls `visit` for every function constant mentioned by a terminator.
fn func_consts_in_term(term: &Terminator, visit: &mut impl FnMut(FuncId)) {
    let mut each = |op: &Operand| func_consts_in_operand(op, visit);
    match term {
        Terminator::Jump(_) | Terminator::Unreachable => {}
        Terminator::Branch { cond, .. } => each(cond),
        Terminator::Return(vals) => vals.iter().for_each(&mut each),
        Terminator::Select { cases, .. } => {
            for c in cases {
                match &c.op {
                    SelectOp::Send { chan, value } => {
                        each(chan);
                        each(value);
                    }
                    SelectOp::Recv { chan, .. } => each(chan),
                }
            }
        }
    }
}

impl DemandState {
    /// One cheap syntactic pass over the module: build the reference
    /// components, materialize static/external call sites, and note which
    /// components contain dynamic calls. No points-to constraints are
    /// solved here.
    fn build(module: &Module) -> DemandState {
        let nf = module.funcs.len();
        let ng = module.globals.len();
        let mut uf = UnionFind::new(nf + ng);
        let mut static_sites_in: HashMap<FuncId, Vec<CallSite>> = HashMap::new();
        let mut func_has_dyn = vec![false; nf];

        for function in &module.funcs {
            let fid = function.id;
            for (bid, block) in function.iter_blocks() {
                for (idx, instr) in block.instrs.iter().enumerate() {
                    let loc = Loc {
                        func: fid,
                        block: bid,
                        idx: idx as u32,
                    };
                    match instr {
                        Instr::Call { func, .. }
                        | Instr::Go { func, .. }
                        | Instr::DeferCall { func, .. } => {
                            let kind = match instr {
                                Instr::Go { .. } => CallKind::Go,
                                Instr::DeferCall { .. } => CallKind::Defer,
                                _ => CallKind::Call,
                            };
                            match func {
                                FuncRef::Static(t) => {
                                    uf.union(fid.0, t.0);
                                    static_sites_in.entry(fid).or_default().push(CallSite {
                                        caller: fid,
                                        loc,
                                        kind,
                                        targets: vec![*t],
                                        external: None,
                                        ambiguous: false,
                                    });
                                }
                                FuncRef::External(name) => {
                                    static_sites_in.entry(fid).or_default().push(CallSite {
                                        caller: fid,
                                        loc,
                                        kind,
                                        targets: vec![],
                                        external: Some(*name),
                                        ambiguous: false,
                                    });
                                }
                                FuncRef::Dynamic(_) => func_has_dyn[fid.0 as usize] = true,
                            }
                        }
                        Instr::MakeClosure { func, .. } => uf.union(fid.0, func.0),
                        Instr::LoadGlobal { global, .. } | Instr::StoreGlobal { global, .. } => {
                            uf.union(fid.0, nf as u32 + global.0)
                        }
                        _ => {}
                    }
                    func_consts_in_instr(instr, &mut |t| uf.union(fid.0, t.0));
                }
                func_consts_in_term(&block.term, &mut |t| uf.union(fid.0, t.0));
            }
        }

        // Densify component ids (function members only; globals ride along
        // through the union-find but need no per-component bookkeeping).
        let mut comp_ids: HashMap<u32, u32> = HashMap::new();
        let mut comps: Vec<Component> = Vec::new();
        let mut comp_of_func = vec![0u32; nf];
        for f in 0..nf as u32 {
            let root = uf.find(f);
            let comp = *comp_ids.entry(root).or_insert_with(|| {
                comps.push(Component {
                    funcs: Vec::new(),
                    has_dyn_calls: false,
                });
                comps.len() as u32 - 1
            });
            comp_of_func[f as usize] = comp;
            comps[comp as usize].funcs.push(FuncId(f));
            if func_has_dyn[f as usize] {
                comps[comp as usize].has_dyn_calls = true;
            }
        }

        let solved = (0..comps.len()).map(|_| OnceLock::new()).collect();
        DemandState {
            comp_of_func,
            comps,
            solved,
            static_sites_in,
            full: OnceLock::new(),
            solves: AtomicU64::new(0),
        }
    }

    /// The solved slice of a component, computed on first demand.
    fn comp_solved(&self, module: &Module, comp: usize) -> &CompSolved {
        self.solved[comp].get_or_init(|| {
            self.solves.fetch_add(1, Ordering::Relaxed);
            let solved = Solver::new(module).run(self.comps[comp].funcs.iter().copied());
            // Keep only the dynamic call sites: static/external sites are
            // already materialized syntactically for every function.
            let mut dyn_sites_in: HashMap<FuncId, Vec<CallSite>> = HashMap::new();
            for cs in solved.call_sites {
                if matches!(
                    module.func(cs.caller).instr_at(cs.loc),
                    Some(
                        Instr::Call {
                            func: FuncRef::Dynamic(_),
                            ..
                        } | Instr::Go {
                            func: FuncRef::Dynamic(_),
                            ..
                        } | Instr::DeferCall {
                            func: FuncRef::Dynamic(_),
                            ..
                        }
                    )
                ) {
                    dyn_sites_in.entry(cs.caller).or_default().push(cs);
                }
            }
            for sites in dyn_sites_in.values_mut() {
                sites.sort_by_key(|cs| cs.loc);
            }
            CompSolved {
                points_to: solved.points_to,
                dyn_sites_in,
            }
        })
    }

    /// The merged whole-module call-site view; solves every component that
    /// contains dynamic calls (and only those).
    fn full(&self, module: &Module) -> &FullSites {
        self.full.get_or_init(|| {
            let mut sites: Vec<CallSite> = Vec::new();
            for f in &module.funcs {
                if let Some(s) = self.static_sites_in.get(&f.id) {
                    sites.extend(s.iter().cloned());
                }
            }
            for comp in 0..self.comps.len() {
                if self.comps[comp].has_dyn_calls {
                    let cs = self.comp_solved(module, comp);
                    for per_func in cs.dyn_sites_in.values() {
                        sites.extend(per_func.iter().cloned());
                    }
                }
            }
            sites.sort_by_key(|cs| cs.loc);
            let mut callers_of: HashMap<FuncId, Vec<usize>> = HashMap::new();
            for (i, cs) in sites.iter().enumerate() {
                for &t in &cs.targets {
                    callers_of.entry(t).or_default().push(i);
                }
            }
            FullSites { sites, callers_of }
        })
    }
}

struct Solver<'m> {
    module: &'m Module,
    pts: HashMap<Node, HashSet<AbstractObject>>,
    /// Simple inclusion edges src → dsts.
    copy_edges: HashMap<Node, Vec<Node>>,
    /// Worklist of nodes whose sets grew.
    worklist: VecDeque<Node>,
    /// Dynamic call sites awaiting resolution: (caller, loc, kind, operand node, args, dsts).
    dyn_calls: Vec<DynCall>,
    /// Already-installed (dyn-call-index, callee) bindings.
    installed: HashSet<(usize, FuncId)>,
    /// Field loads awaiting struct objects: (base node, field, destination).
    deferred_field_loads: Vec<(Node, Symbol, Node)>,
    /// Field stores awaiting struct objects: (base node, field, value, fn).
    deferred_field_stores: Vec<(Node, Symbol, Operand, FuncId)>,
    call_sites: Vec<CallSite>,
}

struct DynCall {
    caller: FuncId,
    loc: Loc,
    kind: CallKind,
    op_node: Option<Node>,
    const_target: Option<FuncId>,
    args: Vec<Operand>,
    dsts: Vec<Var>,
}

impl<'m> Solver<'m> {
    fn new(module: &'m Module) -> Solver<'m> {
        Solver {
            module,
            pts: HashMap::new(),
            copy_edges: HashMap::new(),
            worklist: VecDeque::new(),
            dyn_calls: Vec::new(),
            installed: HashSet::new(),
            deferred_field_loads: Vec::new(),
            deferred_field_stores: Vec::new(),
            call_sites: Vec::new(),
        }
    }

    fn add_obj(&mut self, node: Node, obj: AbstractObject) {
        if self.pts.entry(node).or_default().insert(obj) {
            self.worklist.push_back(node);
        }
    }

    fn add_edge(&mut self, src: Node, dst: Node) {
        let edges = self.copy_edges.entry(src).or_default();
        if !edges.contains(&dst) {
            edges.push(dst);
            // Propagate current contents immediately.
            let objs: Vec<AbstractObject> =
                self.pts.get(&src).into_iter().flatten().copied().collect();
            for o in objs {
                self.add_obj(dst, o);
            }
        }
    }

    fn operand_node(&mut self, func: FuncId, op: &Operand) -> Option<Node> {
        match op {
            Operand::Var(v) => Some(Node::Var(func, *v)),
            Operand::Const(_) => None,
        }
    }

    /// Links an operand into a destination node (constant functions become
    /// direct objects).
    fn flow(&mut self, func: FuncId, src: &Operand, dst: Node) {
        match src {
            Operand::Var(v) => self.add_edge(Node::Var(func, *v), dst),
            Operand::Const(ConstVal::Func(f)) => self.add_obj(dst, AbstractObject::Func(*f)),
            Operand::Const(_) => {}
        }
    }

    /// Seeds and solves the constraint system over `seeds`, in ascending
    /// id order: every function for the eager whole-module run, or one
    /// component's members for the demand engine's per-component slice,
    /// whose answers coincide with the eager run's answers for those
    /// functions because constraint edges never cross reference
    /// components. Seeding reads only the given functions, so a component
    /// solve costs its own slice, not the module.
    fn run(mut self, seeds: impl IntoIterator<Item = FuncId>) -> Solved {
        let module = self.module;
        // Phase 1: seed constraints from every selected instruction.
        for fid in seeds {
            let function = module.func(fid);
            for (bid, block) in function.iter_blocks() {
                for (idx, instr) in block.instrs.iter().enumerate() {
                    let loc = Loc {
                        func: fid,
                        block: bid,
                        idx: idx as u32,
                    };
                    self.seed_instr(fid, loc, instr);
                }
                // Select terminators bind received values — which we do not
                // track (channel-through-channel imprecision), so nothing to
                // seed for them.
                if let Terminator::Return(vals) = &block.term {
                    for (i, v) in vals.iter().enumerate() {
                        self.flow(fid, &v.clone(), Node::Ret(fid, i as u32));
                    }
                }
            }
        }

        // Phase 2: fixpoint — propagate sets and resolve dynamic calls.
        loop {
            while let Some(node) = self.worklist.pop_front() {
                let objs: Vec<AbstractObject> =
                    self.pts.get(&node).into_iter().flatten().copied().collect();
                let dsts = self.copy_edges.get(&node).cloned().unwrap_or_default();
                for dst in dsts {
                    for &o in &objs {
                        self.add_obj(dst, o);
                    }
                }
            }
            // Re-evaluate field constraints against the current struct sets
            // (add_edge/flow are idempotent, so this is safe to repeat).
            for i in 0..self.deferred_field_loads.len() {
                let (base, f, dst) = self.deferred_field_loads[i];
                let structs: Vec<Loc> = self
                    .pts
                    .get(&base)
                    .into_iter()
                    .flatten()
                    .filter_map(|o| match o {
                        AbstractObject::Struct(loc) => Some(*loc),
                        _ => None,
                    })
                    .collect();
                for s in structs {
                    self.add_edge(Node::Field(s, f), dst);
                }
            }
            for i in 0..self.deferred_field_stores.len() {
                let (base, f, value, fid) = self.deferred_field_stores[i].clone();
                let structs: Vec<Loc> = self
                    .pts
                    .get(&base)
                    .into_iter()
                    .flatten()
                    .filter_map(|o| match o {
                        AbstractObject::Struct(loc) => Some(*loc),
                        _ => None,
                    })
                    .collect();
                for s in structs {
                    self.flow(fid, &value, Node::Field(s, f));
                }
            }
            // Resolve dynamic calls with newly discovered callees.
            let mut changed = false;
            for i in 0..self.dyn_calls.len() {
                let (op_node, const_target) =
                    (self.dyn_calls[i].op_node, self.dyn_calls[i].const_target);
                let mut callees: Vec<(FuncId, bool)> = Vec::new();
                if let Some(f) = const_target {
                    callees.push((f, false));
                }
                if let Some(node) = op_node {
                    let objs: Vec<AbstractObject> =
                        self.pts.get(&node).into_iter().flatten().copied().collect();
                    for o in objs {
                        match o {
                            AbstractObject::Closure { func, .. } => callees.push((func, true)),
                            AbstractObject::Func(func) => callees.push((func, false)),
                            _ => {}
                        }
                    }
                }
                for (callee, via_closure) in callees {
                    if self.installed.insert((i, callee)) {
                        self.install_binding(i, callee, via_closure);
                        changed = true;
                    }
                }
            }
            if !changed && self.worklist.is_empty() {
                break;
            }
        }

        // Phase 3: materialize call sites.
        for i in 0..self.dyn_calls.len() {
            let dc = &self.dyn_calls[i];
            let mut targets: Vec<FuncId> = self
                .installed
                .iter()
                .filter(|(j, _)| *j == i)
                .map(|(_, f)| *f)
                .collect();
            targets.sort_unstable();
            targets.dedup();
            let mut ambiguous = false;
            if targets.is_empty() {
                // CHA-style arity fallback (paper's workaround source).
                // Whole-module metadata by design, even in a restricted
                // run: the fallback installs no bindings, so it cannot leak
                // points-to facts across components.
                let arity = dc.args.len();
                targets = self
                    .module
                    .funcs
                    .iter()
                    .filter(|f| f.params.len() - f.n_captures == arity && f.is_closure)
                    .map(|f| f.id)
                    .collect();
                ambiguous = targets.len() > 1;
            }
            self.call_sites.push(CallSite {
                caller: dc.caller,
                loc: dc.loc,
                kind: dc.kind,
                targets,
                external: None,
                ambiguous,
            });
        }

        let mut callers_of: HashMap<FuncId, Vec<usize>> = HashMap::new();
        let mut calls_in: HashMap<FuncId, Vec<usize>> = HashMap::new();
        self.call_sites.sort_by_key(|cs| cs.loc);
        for (i, cs) in self.call_sites.iter().enumerate() {
            calls_in.entry(cs.caller).or_default().push(i);
            for &t in &cs.targets {
                callers_of.entry(t).or_default().push(i);
            }
        }

        let mut points_to = HashMap::new();
        for (node, objs) in &self.pts {
            if let Node::Var(f, v) = node {
                let mut sorted: Vec<AbstractObject> = objs.iter().copied().collect();
                sorted.sort_unstable();
                points_to.insert((*f, *v), sorted);
            }
        }

        Solved {
            points_to,
            call_sites: self.call_sites,
            callers_of,
            calls_in,
        }
    }

    fn seed_instr(&mut self, fid: FuncId, loc: Loc, instr: &Instr) {
        match instr {
            Instr::MakeChan { dst, .. } => {
                self.add_obj(Node::Var(fid, *dst), AbstractObject::Chan(loc));
            }
            Instr::MakeMutex { dst, .. } => {
                self.add_obj(Node::Var(fid, *dst), AbstractObject::Mutex(loc));
            }
            Instr::MakeWaitGroup { dst } => {
                self.add_obj(Node::Var(fid, *dst), AbstractObject::WaitGroup(loc));
            }
            Instr::MakeCond { dst } => {
                self.add_obj(Node::Var(fid, *dst), AbstractObject::Cond(loc));
            }
            Instr::MakeStruct { dst, fields, .. } => {
                self.add_obj(Node::Var(fid, *dst), AbstractObject::Struct(loc));
                for (fname, op) in fields {
                    self.flow(fid, op, Node::Field(loc, *fname));
                }
            }
            Instr::MakeSlice { dst, .. } => {
                // Slice contents are deliberately untracked (paper §5.2).
                self.add_obj(Node::Var(fid, *dst), AbstractObject::Slice(loc));
            }
            Instr::MakeClosure { dst, func, bound } => {
                self.add_obj(
                    Node::Var(fid, *dst),
                    AbstractObject::Closure {
                        func: *func,
                        site: loc,
                    },
                );
                // Bind captures directly to the closure's leading params.
                let callee = self.module.func(*func);
                for (i, b) in bound.iter().enumerate() {
                    if let Some(&param) = callee.params.get(i) {
                        self.flow(fid, b, Node::Var(*func, param));
                    }
                }
            }
            Instr::Copy { dst, src } => {
                self.flow(fid, src, Node::Var(fid, *dst));
            }
            Instr::FieldLoad { dst, obj, field } => {
                // Complex constraint: for each struct object the base may
                // point to, the field node flows into the destination.
                // Re-evaluated every fixpoint round (idempotent).
                if let Some(base) = self.operand_node(fid, obj) {
                    self.deferred_field_loads
                        .push((base, *field, Node::Var(fid, *dst)));
                }
            }
            Instr::FieldStore { obj, field, value } => {
                if let Some(base) = self.operand_node(fid, obj) {
                    self.deferred_field_stores
                        .push((base, *field, value.clone(), fid));
                }
            }
            Instr::LoadGlobal { dst, global } => {
                self.add_edge(Node::Global(*global), Node::Var(fid, *dst));
            }
            Instr::StoreGlobal { global, src } => {
                self.flow(fid, src, Node::Global(*global));
            }
            Instr::Call { dsts, func, args } => {
                self.seed_call(fid, loc, CallKind::Call, func, args, dsts);
            }
            Instr::Go { func, args } => {
                self.seed_call(fid, loc, CallKind::Go, func, args, &[]);
            }
            Instr::DeferCall { func, args } => {
                self.seed_call(fid, loc, CallKind::Defer, func, args, &[]);
            }
            // Recv and IndexLoad destinations: intentionally no constraints
            // (reproduces the paper's alias-analysis false positives).
            _ => {}
        }
    }

    fn seed_call(
        &mut self,
        fid: FuncId,
        loc: Loc,
        kind: CallKind,
        func: &FuncRef,
        args: &[Operand],
        dsts: &[Var],
    ) {
        match func {
            FuncRef::Static(callee) => {
                self.install_static(fid, *callee, args, dsts, 0);
                self.call_sites.push(CallSite {
                    caller: fid,
                    loc,
                    kind,
                    targets: vec![*callee],
                    external: None,
                    ambiguous: false,
                });
            }
            FuncRef::External(name) => {
                self.call_sites.push(CallSite {
                    caller: fid,
                    loc,
                    kind,
                    targets: vec![],
                    external: Some(*name),
                    ambiguous: false,
                });
            }
            FuncRef::Dynamic(op) => {
                let op_node = self.operand_node(fid, op);
                let const_target = match op {
                    Operand::Const(ConstVal::Func(f)) => Some(*f),
                    _ => None,
                };
                self.dyn_calls.push(DynCall {
                    caller: fid,
                    loc,
                    kind,
                    op_node,
                    const_target,
                    args: args.to_vec(),
                    dsts: dsts.to_vec(),
                });
            }
        }
    }

    /// Installs parameter/return bindings for a static call.
    fn install_static(
        &mut self,
        caller: FuncId,
        callee: FuncId,
        args: &[Operand],
        dsts: &[Var],
        skip_params: usize,
    ) {
        let callee_fn = self.module.func(callee);
        for (i, a) in args.iter().enumerate() {
            if let Some(&param) = callee_fn.params.get(skip_params + i) {
                self.flow(caller, a, Node::Var(callee, param));
            }
        }
        for (i, &d) in dsts.iter().enumerate() {
            self.add_edge(Node::Ret(callee, i as u32), Node::Var(caller, d));
        }
    }

    /// Installs bindings for a dynamic call resolved to `callee`.
    fn install_binding(&mut self, dyn_idx: usize, callee: FuncId, via_closure: bool) {
        let dc = &self.dyn_calls[dyn_idx];
        let (caller, args, dsts) = (dc.caller, dc.args.clone(), dc.dsts.clone());
        let skip = if via_closure {
            self.module.func(callee).n_captures
        } else {
            0
        };
        self.install_static(caller, callee, &args, &dsts, skip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_source;

    /// Test helper: both modes must agree, so tests run their assertions
    /// against each. The module must outlive the analysis, hence the
    /// callback shape.
    fn with_both_modes(src: &str, check: impl Fn(&Module, &Analysis<'_>)) {
        let m = lower_source(src).expect("lowering");
        for mode in [AliasMode::Eager, AliasMode::Demand] {
            let a = analyze_with_mode(&m, mode);
            check(&m, &a);
        }
    }

    /// Finds the first instruction in `func` matching the predicate.
    fn find_instr<'m>(
        m: &'m Module,
        func: &str,
        pred: impl Fn(&Instr) -> bool,
    ) -> (Loc, &'m Instr) {
        let f = m.func_by_name(func).unwrap();
        for (bid, block) in f.iter_blocks() {
            for (idx, instr) in block.instrs.iter().enumerate() {
                if pred(instr) {
                    return (
                        Loc {
                            func: f.id,
                            block: bid,
                            idx: idx as u32,
                        },
                        instr,
                    );
                }
            }
        }
        panic!("no matching instruction in {func}");
    }

    #[test]
    fn channel_flows_through_call() {
        with_both_modes(
            "func worker(ch chan int) {\n ch <- 1\n}\nfunc main() {\n ch := make(chan int)\n go worker(ch)\n <-ch\n}",
            |m, a| {
                let (make_loc, _) = find_instr(m, "main", |i| matches!(i, Instr::MakeChan { .. }));
                let worker = m.func_by_name("worker").unwrap();
                let pts: Vec<AbstractObject> =
                    a.points_to(worker.id, worker.params[0]).copied().collect();
                assert_eq!(pts, vec![AbstractObject::Chan(make_loc)]);
            },
        );
    }

    #[test]
    fn closure_capture_aliases_parent_channel() {
        with_both_modes(
            "func main() {\n ch := make(chan int)\n go func() {\n  ch <- 1\n }()\n <-ch\n}",
            |m, a| {
                let closure = m.funcs.iter().find(|f| f.is_closure).unwrap();
                let main = m.func_by_name("main").unwrap();
                let send = closure
                    .blocks
                    .iter()
                    .flat_map(|b| &b.instrs)
                    .find(|i| matches!(i, Instr::Send { .. }))
                    .unwrap();
                let Instr::Send { chan, .. } = send else {
                    unreachable!()
                };
                let (_, recv) = find_instr(m, "main", |i| matches!(i, Instr::Recv { .. }));
                let Instr::Recv { chan: rchan, .. } = recv else {
                    unreachable!()
                };
                assert!(a.may_alias(closure.id, chan, main.id, rchan));
            },
        );
    }

    #[test]
    fn channel_through_channel_is_untracked() {
        // The paper's alias FP source: a channel received from another
        // channel has an unknown points-to set.
        with_both_modes(
            "func main() {\n carrier := make(chan chan int)\n inner := make(chan int)\n carrier <- inner\n got := <-carrier\n <-got\n}",
            |m, a| {
                let main = m.func_by_name("main").unwrap();
                // `got` is the Recv destination; its points-to set must be empty.
                let (_, recv) = find_instr(m, "main", |i| {
                    matches!(i, Instr::Recv { dst: Some(_), .. })
                });
                let Instr::Recv { dst: Some(got), .. } = recv else {
                    unreachable!()
                };
                assert_eq!(a.points_to(main.id, *got).count(), 0);
            },
        );
    }

    #[test]
    fn slice_element_is_untracked() {
        with_both_modes(
            "func main() {\n chans := []chan int{}\n ch := chans[0]\n <-ch\n}",
            |m, a| {
                let main = m.func_by_name("main").unwrap();
                let (_, load) = find_instr(m, "main", |i| matches!(i, Instr::IndexLoad { .. }));
                let Instr::IndexLoad { dst, .. } = load else {
                    unreachable!()
                };
                assert_eq!(a.points_to(main.id, *dst).count(), 0);
            },
        );
    }

    #[test]
    fn struct_field_is_tracked() {
        with_both_modes(
            "type Box struct {\n ch chan int\n}\nfunc main() {\n b := Box{ch: make(chan int)}\n c := b.ch\n <-c\n}",
            |m, a| {
                let main = m.func_by_name("main").unwrap();
                let (make_loc, _) = find_instr(m, "main", |i| matches!(i, Instr::MakeChan { .. }));
                let c = main
                    .var_names
                    .iter()
                    .position(|n| *n == "c")
                    .map(|i| Var(i as u32))
                    .unwrap();
                let pts: Vec<AbstractObject> = a.points_to(main.id, c).copied().collect();
                assert_eq!(pts, vec![AbstractObject::Chan(make_loc)]);
            },
        );
    }

    #[test]
    fn go_call_site_resolves_closure_precisely() {
        with_both_modes(
            "func main() {\n ch := make(chan int)\n go func() {\n  ch <- 1\n }()\n <-ch\n}",
            |m, a| {
                let main = m.func_by_name("main").unwrap();
                let closure = m.funcs.iter().find(|f| f.is_closure).unwrap();
                let go_sites: Vec<&CallSite> = a
                    .calls_in(main.id)
                    .filter(|cs| matches!(cs.kind, CallKind::Go))
                    .collect();
                assert_eq!(go_sites.len(), 1);
                assert_eq!(go_sites[0].targets, vec![closure.id]);
                assert!(!go_sites[0].ambiguous);
            },
        );
    }

    #[test]
    fn reachability_follows_call_chain() {
        with_both_modes(
            "func leaf() {\n}\nfunc mid() {\n leaf()\n}\nfunc main() {\n mid()\n}\nfunc unrelated() {\n}",
            |m, a| {
                let main = m.func_by_name("main").unwrap().id;
                let reach = a.reachable_from(main);
                assert!(reach.contains(&m.func_by_name("mid").unwrap().id));
                assert!(reach.contains(&m.func_by_name("leaf").unwrap().id));
                assert!(!reach.contains(&m.func_by_name("unrelated").unwrap().id));
            },
        );
    }

    #[test]
    fn globals_propagate() {
        with_both_modes(
            "var shared chan int\nfunc setup() {\n shared = make(chan int)\n}\nfunc use() {\n <-shared\n}",
            |m, a| {
                let use_fn = m.func_by_name("use").unwrap();
                let (_, recv) = find_instr(m, "use", |i| matches!(i, Instr::Recv { .. }));
                let Instr::Recv { chan, .. } = recv else {
                    unreachable!()
                };
                let pts = a.operand_points_to(use_fn.id, chan);
                assert_eq!(pts.len(), 1, "global channel must be tracked");
                assert!(matches!(pts[0], AbstractObject::Chan(_)));
            },
        );
    }

    #[test]
    fn function_value_parameter_resolves() {
        with_both_modes(
            "func run(f func()) {\n f()\n}\nfunc task() {\n}\nfunc main() {\n run(task)\n}",
            |m, a| {
                let run = m.func_by_name("run").unwrap();
                let task = m.func_by_name("task").unwrap();
                let dyn_sites: Vec<&CallSite> = a
                    .calls_in(run.id)
                    .filter(|cs| cs.external.is_none())
                    .collect();
                assert_eq!(dyn_sites.len(), 1);
                assert_eq!(dyn_sites[0].targets, vec![task.id]);
            },
        );
    }

    #[test]
    fn external_calls_are_recorded() {
        with_both_modes("func main() {\n Mystery()\n}", |_, a| {
            let ext: Vec<&CallSite> = a
                .call_sites()
                .iter()
                .filter(|cs| cs.external.is_some())
                .collect();
            assert_eq!(ext.len(), 1);
            assert_eq!(ext[0].external.map(|s| s.as_str()), Some("Mystery"));
        });
    }

    #[test]
    fn demand_mode_skips_unreferenced_functions() {
        // `ballast` has no sync ops and only static calls: in demand mode
        // its component must never be solved by a points-to query against
        // `main`'s component.
        let m = lower_source(
            "func ballastLeaf() {\n}\nfunc ballast() {\n ballastLeaf()\n}\nfunc main() {\n ch := make(chan int)\n go func() {\n  ch <- 1\n }()\n <-ch\n}",
        )
        .expect("lowering");
        let a = analyze_with_mode(&m, AliasMode::Demand);
        let main = m.func_by_name("main").unwrap();
        let (_, recv) = find_instr(&m, "main", |i| matches!(i, Instr::Recv { .. }));
        let Instr::Recv { chan, .. } = recv else {
            unreachable!()
        };
        assert_eq!(a.operand_points_to(main.id, chan).len(), 1);
        let stats = a.alias_stats();
        assert_eq!(stats.queries_solved, 1, "only main's component solved");
        assert_eq!(
            stats.functions_skipped, 2,
            "ballast + ballastLeaf never solved"
        );
        // Reachability over static calls must not force a solve either.
        let ballast = m.func_by_name("ballast").unwrap().id;
        assert!(a
            .reachable_from(ballast)
            .contains(&m.func_by_name("ballastLeaf").unwrap().id));
        assert_eq!(a.alias_stats().queries_solved, 1);
    }

    #[test]
    fn demand_and_eager_call_sites_are_identical() {
        let src = "func run(f func()) {\n f()\n}\nfunc task() {\n}\nfunc util() {\n Mystery()\n}\nfunc main() {\n run(task)\n util()\n}";
        let m = lower_source(src).expect("lowering");
        let eager = analyze_with_mode(&m, AliasMode::Eager);
        let demand = analyze_with_mode(&m, AliasMode::Demand);
        let fmt = |cs: &CallSite| {
            format!(
                "{}:{:?}:{:?}:{:?}:{:?}:{}",
                cs.loc, cs.kind, cs.caller, cs.targets, cs.external, cs.ambiguous
            )
        };
        let a: Vec<String> = eager.call_sites().iter().map(fmt).collect();
        let b: Vec<String> = demand.call_sites().iter().map(fmt).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn eager_stats_report_single_solve() {
        let m = lower_source("func main() {\n}").expect("lowering");
        let a = analyze_with_mode(&m, AliasMode::Eager);
        let stats = a.alias_stats();
        assert_eq!(stats.queries_solved, 1);
        assert_eq!(stats.functions_skipped, 0);
    }
}
