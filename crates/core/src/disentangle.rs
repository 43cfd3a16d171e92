//! Disentangling the input program (§3.2 of the paper).
//!
//! To scale to large programs, GCatch analyzes each channel in a small
//! *scope* — from its creation site to the end of the lowest-common-ancestor
//! (LCA) function that can invoke all of the channel's operations — together
//! with a small set of related primitives (*Pset*): primitives that
//! circularly depend on the channel and have a scope no larger than its own.

use crate::primitives::{OpKind, PrimId, Primitives, SyncOp};
use golite_ir::alias::Analysis;
use golite_ir::ir::*;
use std::collections::{HashMap, HashSet};

/// The analysis scope of one primitive.
#[derive(Debug, Clone)]
pub struct Scope {
    /// The LCA function (analysis entry).
    pub root: FuncId,
    /// Functions covered by the scope (reachable from the root).
    pub funcs: HashSet<FuncId>,
}

impl Scope {
    /// Scope "size" used for Pset ordering (number of covered functions).
    pub fn size(&self) -> usize {
        self.funcs.len()
    }

    /// Whether a function is inside the scope.
    pub fn contains(&self, f: FuncId) -> bool {
        self.funcs.contains(&f)
    }
}

/// Computes the scope of primitive `p`: the lowest function from which the
/// creation site and every operation are reachable. Returns `None` when no
/// single function covers all operations (the paper falls back to per-
/// function scopes for libraries; we fall back to the creation function,
/// which reproduces the paper's LCA-related misses).
pub fn compute_scope(analysis: &Analysis, prims: &Primitives, p: PrimId) -> Scope {
    let prim = &prims.all[p.0];
    let mut must_cover: HashSet<FuncId> = prims.funcs_with_ops_of(p).clone();
    must_cover.insert(prim.site.func);

    // The candidate roots are exactly ∩ reaching(m) over the functions the
    // scope must cover (`must_cover ⊆ reachable_from(f)` ⟺ `f` reaches
    // every `m`). Intersecting the usually-tiny reverse-reachability
    // slices replaces the old scan over every module function, which made
    // scope computation quadratic in corpus size.
    let mut candidates: Option<HashSet<FuncId>> = None;
    for &m in &must_cover {
        let reaching = analysis.reaching(m);
        candidates = Some(match candidates {
            None => reaching.as_ref().clone(),
            Some(mut set) => {
                set.retain(|f| reaching.contains(f));
                set
            }
        });
        if candidates.as_ref().is_some_and(HashSet::is_empty) {
            break;
        }
    }

    // `min_by_key` over (size, id) is iteration-order independent, so the
    // winner matches the old in-order scan exactly.
    let mut best: Option<(usize, FuncId)> = None;
    for &f in candidates.iter().flatten() {
        let size = analysis.reachable_from(f).len();
        let better = match &best {
            None => true,
            Some((bsize, bid)) => size < *bsize || (size == *bsize && f < *bid),
        };
        if better {
            best = Some((size, f));
        }
    }
    match best {
        Some((_, root)) => Scope {
            root,
            funcs: analysis.reachable_from(root).as_ref().clone(),
        },
        None => {
            let root = prim.site.func;
            let funcs = analysis.reachable_from(root).as_ref().clone();
            Scope { root, funcs }
        }
    }
}

/// The dependence graph over primitives (§3.2): `a depends on b` when how
/// `a`'s blocking operations proceed is influenced by `b`.
#[derive(Debug)]
pub struct DependencyGraph {
    /// `depends[a]` = primitives that `a` depends on.
    depends: Vec<HashSet<PrimId>>,
}

impl DependencyGraph {
    /// Whether `a` transitively depends on `b`.
    pub fn depends_on(&self, a: PrimId, b: PrimId) -> bool {
        self.depends[a.0].contains(&b)
    }

    /// Whether `a` and `b` are circularly dependent.
    pub fn circular(&self, a: PrimId, b: PrimId) -> bool {
        self.depends_on(a, b) && self.depends_on(b, a)
    }
}

/// Builds the dependence graph:
///
/// 1. `a` depends on `b` if an operation of `a` able to unblock others
///    (send, recv, close) is reachable from a blocking operation of `b` —
///    whether `b`'s blocking op proceeds decides whether `a`'s unblocking
///    op is ever reached;
/// 2. two channels waited on by the same `select` depend on each other;
/// 3. dependence is transitive.
pub fn build_dependency_graph(
    module: &Module,
    analysis: &Analysis,
    prims: &Primitives,
) -> DependencyGraph {
    let n = prims.all.len();
    let mut depends: Vec<HashSet<PrimId>> = vec![HashSet::new(); n];

    // Rule 2: same select.
    let mut by_select: HashMap<Loc, Vec<PrimId>> = HashMap::new();
    for op in &prims.ops {
        if op.select_case.is_some() {
            by_select.entry(op.loc).or_default().push(op.prim);
        }
    }
    for prims_in_select in by_select.values() {
        for &a in prims_in_select {
            for &b in prims_in_select {
                if a != b {
                    depends[a.0].insert(b);
                }
            }
        }
    }

    // Rule 1: unblocking op of `a` reachable from blocking op of `b`.
    // Indexing the unblocking ops by function and walking only the
    // functions a blocking op can actually reach keeps this linear in the
    // number of genuinely related op pairs — the old all-pairs sweep was
    // quadratic in corpus size even though unrelated channels never
    // produce an edge.
    let blocking: Vec<&SyncOp> = prims.ops.iter().filter(|o| o.kind.can_block()).collect();
    let mut unblock_by_func: HashMap<FuncId, Vec<&SyncOp>> = HashMap::new();
    for o in &prims.ops {
        if matches!(o.kind, OpKind::Send | OpKind::Recv | OpKind::Close) {
            unblock_by_func.entry(o.func).or_default().push(o);
        }
    }
    for ob in &blocking {
        let reach = analysis.reachable_from(ob.func);
        // Iterate whichever side is smaller; membership tests on the other.
        let funcs: Vec<FuncId> = if reach.len() <= unblock_by_func.len() {
            let mut v: Vec<FuncId> = reach
                .iter()
                .copied()
                .filter(|f| unblock_by_func.contains_key(f))
                .collect();
            v.sort_unstable();
            v
        } else {
            let mut v: Vec<FuncId> = unblock_by_func
                .keys()
                .copied()
                .filter(|f| reach.contains(f))
                .collect();
            v.sort_unstable();
            v
        };
        for g in funcs {
            for oa in &unblock_by_func[&g] {
                if oa.prim == ob.prim && oa.loc == ob.loc {
                    continue;
                }
                // Same-function pairs need CFG ordering; a different
                // reachable function is always a valid continuation —
                // exactly `op_reachable_from`'s two cases.
                if g == ob.func {
                    if intra_reachable(module.func(ob.func), ob.loc, oa.loc) {
                        depends[oa.prim.0].insert(ob.prim);
                    }
                } else {
                    depends[oa.prim.0].insert(ob.prim);
                }
            }
        }
    }

    // Rule 3: transitive closure.
    let mut changed = true;
    while changed {
        changed = false;
        for a in 0..n {
            let via: Vec<PrimId> = depends[a].iter().copied().collect();
            for b in via {
                let extra: Vec<PrimId> = depends[b.0].iter().copied().collect();
                for c in extra {
                    if c != PrimId(a) && depends[a].insert(c) {
                        changed = true;
                    }
                }
            }
        }
    }

    DependencyGraph { depends }
}

/// Intra-procedural reachability between two locations.
fn intra_reachable(f: &Function, from: Loc, to: Loc) -> bool {
    if from.block == to.block && from.idx <= to.idx {
        return true;
    }
    // BFS over successors starting at from.block.
    let mut seen = HashSet::new();
    let mut stack = vec![from.block];
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.successors() {
            if s == to.block {
                return true;
            }
            if seen.insert(s) {
                stack.push(s);
            }
        }
    }
    false
}

/// Computes the Pset of channel `c` (§3.2): `c` plus every primitive that
/// circularly depends on `c` and whose scope is not larger.
pub fn pset(c: PrimId, dg: &DependencyGraph, scopes: &[Scope]) -> Vec<PrimId> {
    // A circular partner must appear in `depends[c]`, so only those
    // candidates are tested (instead of every primitive in the module);
    // sorting restores the old ascending-id output order.
    let mut circ: Vec<PrimId> = dg.depends[c.0]
        .iter()
        .copied()
        .filter(|&p| p != c && dg.depends_on(p, c) && scopes[p.0].size() <= scopes[c.0].size())
        .collect();
    circ.sort_unstable();
    let mut out = vec![c];
    out.extend(circ);
    out
}

/// Whether an edited function can influence the analysis of a channel
/// scoped at `scope` with Pset `pset` — the dirty-set rule of the serve
/// daemon's incremental re-analysis. An edit is influential when the
/// function is inside the scope (the enumerator can walk into it), when
/// the scope root can reach it through the call graph (tested with the
/// memoized reverse-reachability: `root ∈ reaching(edited)`), or when it
/// holds an operation of any Pset member (it shapes the encodings). A
/// channel none of whose influence functions changed re-solves to the
/// same verdict, witnesses, and provenance, so its cached outcome can be
/// replayed verbatim.
pub fn influences(
    scope: &Scope,
    analysis: &Analysis,
    prims: &Primitives,
    pset: &[PrimId],
    edited: FuncId,
) -> bool {
    if scope.contains(edited) || analysis.reaching(edited).contains(&scope.root) {
        return true;
    }
    pset.iter()
        .any(|&p| prims.funcs_with_ops_of(p).contains(&edited))
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

    fn prim_named(s: &Setup, name: &str) -> PrimId {
        s.prims
            .all
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no primitive named {name}"))
            .id
    }

    #[test]
    fn scope_is_creating_function_for_local_channel() {
        let s = setup(
            "func work(ch chan int) {\n ch <- 1\n}\nfunc driver() {\n ch := make(chan int)\n go work(ch)\n <-ch\n}\nfunc main() {\n driver()\n}",
        );
        let ch = prim_named(&s, "ch");
        let scope = compute_scope(&s.analysis, &s.prims, ch);
        let driver = s.module.func_by_name("driver").unwrap().id;
        assert_eq!(scope.root, driver, "LCA is driver, not main");
        assert!(scope.contains(s.module.func_by_name("work").unwrap().id));
    }

    #[test]
    fn select_channels_are_mutually_dependent() {
        let s = setup(
            "func main() {\n a := make(chan int)\n b := make(chan int)\n go func() {\n  a <- 1\n }()\n go func() {\n  b <- 1\n }()\n select {\n case <-a:\n case <-b:\n }\n}",
        );
        let dg = build_dependency_graph(s.module, &s.analysis, &s.prims);
        let a = prim_named(&s, "a");
        let b = prim_named(&s, "b");
        assert!(dg.circular(a, b));
    }

    #[test]
    fn pset_includes_same_scope_select_peer() {
        let s = setup(
            "func main() {\n a := make(chan int)\n b := make(chan int)\n go func() {\n  a <- 1\n }()\n go func() {\n  b <- 1\n }()\n select {\n case <-a:\n case <-b:\n }\n}",
        );
        let dg = build_dependency_graph(s.module, &s.analysis, &s.prims);
        let scopes: Vec<Scope> = s
            .prims
            .all
            .iter()
            .map(|p| compute_scope(&s.analysis, &s.prims, p.id))
            .collect();
        let a = prim_named(&s, "a");
        let b = prim_named(&s, "b");
        let pset_a = pset(a, &dg, &scopes);
        assert!(
            pset_a.contains(&b),
            "same-scope select peer belongs to Pset"
        );
    }

    #[test]
    fn larger_scope_primitive_excluded_from_pset() {
        // Mirrors the Figure 1 situation: ctx's channel is created in main
        // (larger scope) and waited on in the same select as outDone (created
        // in Exec). outDone's Pset must not include ctx's channel.
        let s = setup(
            r#"
func Exec(ctx context.Context) {
    outDone := make(chan error)
    go func() {
        outDone <- nil
    }()
    select {
    case <-outDone:
    case <-ctx.Done():
    }
}

func main() {
    ctx, cancel := context.WithCancel(context.Background())
    defer cancel()
    Exec(ctx)
}
"#,
        );
        let dg = build_dependency_graph(s.module, &s.analysis, &s.prims);
        let scopes: Vec<Scope> = s
            .prims
            .all
            .iter()
            .map(|p| compute_scope(&s.analysis, &s.prims, p.id))
            .collect();
        let out_done = prim_named(&s, "outDone");
        let ctx = prim_named(&s, "ctx");
        assert!(
            dg.circular(out_done, ctx),
            "same select makes them circular"
        );
        assert!(
            scopes[ctx.0].size() > scopes[out_done.0].size(),
            "ctx channel has the larger scope"
        );
        let ps = pset(out_done, &dg, &scopes);
        assert!(!ps.contains(&ctx), "ctx is excluded from outDone's Pset");
        // ...but analyzing ctx includes outDone (paper: "inspected together
        // when GCatch analyzes ctx.Done()").
        let ps_ctx = pset(ctx, &dg, &scopes);
        assert!(ps_ctx.contains(&out_done));
    }

    #[test]
    fn unblock_reachability_creates_dependence() {
        // mu's unlock is reachable only after ch's recv proceeds, so mu
        // depends on ch.
        let s = setup(
            "func main() {\n ch := make(chan int)\n var mu sync.Mutex\n go func() {\n  mu.Lock()\n  <-ch\n  mu.Unlock()\n }()\n ch <- 1\n mu.Lock()\n mu.Unlock()\n}",
        );
        let dg = build_dependency_graph(s.module, &s.analysis, &s.prims);
        let ch = prim_named(&s, "ch");
        let mu = prim_named(&s, "mu");
        assert!(dg.depends_on(mu, ch));
    }
}
