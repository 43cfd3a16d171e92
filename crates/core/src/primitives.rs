//! Discovery of synchronization primitives and their operations
//! (Algorithm 1, lines 2–5 of the paper).
//!
//! GCatch identifies each primitive by its **static creation site** — the
//! `make(chan ..)` or mutex-creating instruction — and uses the points-to
//! analysis to decide which primitive(s) each synchronization operation
//! touches. Operations through deferred helper calls (`defer close(ch)`,
//! `defer mu.Unlock()`) are resolved at the defer site, where the argument's
//! points-to set is precise.

use crate::alias_ext::chan_sites_of;
use golite::Span;
use golite_ir::alias::Analysis;
use golite_ir::ir::*;
use std::collections::{HashMap, HashSet};

/// Index of a primitive in [`Primitives::all`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrimId(pub usize);

/// What kind of primitive a creation site makes.
#[derive(Debug, Clone, PartialEq)]
pub enum PrimKind {
    /// A channel with a statically known buffer size (`None` when the
    /// capacity expression is not a constant).
    Chan {
        /// Buffer size if statically known.
        buffer: Option<i64>,
    },
    /// A mutex (GCatch models it as a buffer-1 channel, §3.4).
    Mutex {
        /// Whether this is an `sync.RWMutex`.
        rw: bool,
    },
}

/// A synchronization primitive, identified by creation site.
#[derive(Debug, Clone)]
pub struct Primitive {
    /// Stable id.
    pub id: PrimId,
    /// Channel or mutex.
    pub kind: PrimKind,
    /// The creation instruction.
    pub site: Loc,
    /// Source span of the creation site.
    pub span: Span,
    /// Source-level name of the variable first bound to it.
    pub name: String,
}

impl Primitive {
    /// The buffer size GCatch's constraint system uses (`BS`): mutexes are
    /// buffer-1 channels; dynamic capacities are unsupported (`None`).
    pub fn buffer_size(&self) -> Option<i64> {
        match &self.kind {
            PrimKind::Chan { buffer } => *buffer,
            PrimKind::Mutex { .. } => Some(1),
        }
    }

    /// Whether this primitive is a channel.
    pub fn is_chan(&self) -> bool {
        matches!(self.kind, PrimKind::Chan { .. })
    }
}

/// The operation kinds GCatch's constraint system models (§3.4). Mutex
/// lock/unlock are already translated to the channel view: `Lock` behaves
/// as a send on a buffer-1 channel and `Unlock` as a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Channel send (or mutex lock, after translation).
    Send,
    /// Channel receive (or mutex unlock, after translation).
    Recv,
    /// Channel close.
    Close,
}

impl OpKind {
    /// Whether this operation can block its goroutine.
    pub fn can_block(&self) -> bool {
        matches!(self, OpKind::Send | OpKind::Recv)
    }
}

/// A static synchronization operation on a known primitive.
#[derive(Debug, Clone)]
pub struct SyncOp {
    /// The primitive operated on.
    pub prim: PrimId,
    /// Send/recv/close in the unified channel view.
    pub kind: OpKind,
    /// Instruction (or select-terminator) location.
    pub loc: Loc,
    /// Source span.
    pub span: Span,
    /// Containing function.
    pub func: FuncId,
    /// For select cases: the case index within the select terminator.
    pub select_case: Option<usize>,
    /// True when this op came from a mutex (for BMOC-C vs BMOC-M).
    pub from_mutex: bool,
}

impl SyncOp {
    /// Human-readable description for reports.
    pub fn describe(&self, prims: &Primitives) -> String {
        let name = &prims.all[self.prim.0].name;
        let verb = match (self.kind, self.from_mutex) {
            (OpKind::Send, false) => "send on",
            (OpKind::Recv, false) => "recv from",
            (OpKind::Close, _) => "close of",
            (OpKind::Send, true) => "lock of",
            (OpKind::Recv, true) => "unlock of",
        };
        match self.select_case {
            Some(i) => format!("select case {i}: {verb} {name}"),
            None => format!("{verb} {name}"),
        }
    }
}

/// All primitives and operations of a module.
#[derive(Debug)]
pub struct Primitives {
    /// Primitives in deterministic (creation-site) order.
    pub all: Vec<Primitive>,
    site_to_prim: HashMap<Loc, PrimId>,
    /// Every statically collected operation.
    pub ops: Vec<SyncOp>,
    ops_by_prim: Vec<Vec<usize>>,
    funcs_with_ops: Vec<HashSet<FuncId>>,
}

impl Primitives {
    /// The primitive created at `site`, if any.
    pub fn by_site(&self, site: Loc) -> Option<&Primitive> {
        self.site_to_prim.get(&site).map(|id| &self.all[id.0])
    }

    /// All operations on primitive `p`.
    pub fn ops_of(&self, p: PrimId) -> impl Iterator<Item = &SyncOp> {
        self.ops_by_prim[p.0].iter().map(move |&i| &self.ops[i])
    }

    /// Functions containing at least one operation on `p`.
    pub fn funcs_with_ops_of(&self, p: PrimId) -> &HashSet<FuncId> {
        &self.funcs_with_ops[p.0]
    }

    /// Channels only (the primitives the BMOC detector iterates, line 8 of
    /// Algorithm 1).
    pub fn channels(&self) -> impl Iterator<Item = &Primitive> {
        self.all.iter().filter(|p| p.is_chan())
    }
}

/// Scans the module for primitives and operations.
pub fn collect(module: &Module, analysis: &Analysis) -> Primitives {
    let mut all = Vec::new();
    let mut site_to_prim = HashMap::new();

    // Pass 1: creation sites.
    for f in &module.funcs {
        for (bid, block) in f.iter_blocks() {
            for (idx, instr) in block.instrs.iter().enumerate() {
                let loc = Loc {
                    func: f.id,
                    block: bid,
                    idx: idx as u32,
                };
                let span = block.spans[idx];
                let (kind, name) = match instr {
                    Instr::MakeChan { dst, cap, .. } => (
                        PrimKind::Chan {
                            buffer: cap.as_int(),
                        },
                        f.var_name(*dst).to_string(),
                    ),
                    Instr::MakeMutex { dst, rw } => {
                        (PrimKind::Mutex { rw: *rw }, f.var_name(*dst).to_string())
                    }
                    _ => continue,
                };
                let id = PrimId(all.len());
                all.push(Primitive {
                    id,
                    kind,
                    site: loc,
                    span,
                    name,
                });
                site_to_prim.insert(loc, id);
            }
        }
    }

    // Pass 2: operations.
    let mut ops: Vec<SyncOp> = Vec::new();
    let resolve = |func: FuncId, op: &Operand| -> Vec<(PrimId, bool)> {
        chan_sites_of(analysis, func, op)
            .into_iter()
            .filter_map(|(site, is_mutex)| site_to_prim.get(&site).map(|&id| (id, is_mutex)))
            .collect()
    };
    for f in &module.funcs {
        for (bid, block) in f.iter_blocks() {
            for (idx, instr) in block.instrs.iter().enumerate() {
                let loc = Loc {
                    func: f.id,
                    block: bid,
                    idx: idx as u32,
                };
                let span = block.spans[idx];
                let mut push = |kind: OpKind, operand: &Operand| {
                    for (prim, from_mutex) in resolve(f.id, operand) {
                        ops.push(SyncOp {
                            prim,
                            kind,
                            loc,
                            span,
                            func: f.id,
                            select_case: None,
                            from_mutex,
                        });
                    }
                };
                match instr {
                    Instr::Send { chan, .. } => push(OpKind::Send, chan),
                    Instr::Recv { chan, .. } => push(OpKind::Recv, chan),
                    Instr::Close { chan } => push(OpKind::Close, chan),
                    // Mutexes become buffer-1 channels (§3.4).
                    Instr::Lock { mutex, .. } => push(OpKind::Send, mutex),
                    Instr::Unlock { mutex, .. } => push(OpKind::Recv, mutex),
                    _ => {}
                }
            }
            if let Terminator::Select { cases, .. } = &block.term {
                let loc = Loc {
                    func: f.id,
                    block: bid,
                    idx: block.instrs.len() as u32,
                };
                for (ci, case) in cases.iter().enumerate() {
                    let kind = match case.op {
                        SelectOp::Send { .. } => OpKind::Send,
                        SelectOp::Recv { .. } => OpKind::Recv,
                    };
                    for (prim, from_mutex) in resolve(f.id, case.op.chan()) {
                        ops.push(SyncOp {
                            prim,
                            kind,
                            loc,
                            span: block.term_span,
                            func: f.id,
                            select_case: Some(ci),
                            from_mutex,
                        });
                    }
                }
            }
        }
    }

    let mut ops_by_prim = vec![Vec::new(); all.len()];
    let mut funcs_with_ops = vec![HashSet::new(); all.len()];
    for (i, op) in ops.iter().enumerate() {
        ops_by_prim[op.prim.0].push(i);
        funcs_with_ops[op.prim.0].insert(op.func);
    }

    Primitives {
        all,
        site_to_prim,
        ops,
        ops_by_prim,
        funcs_with_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use golite_ir::{analyze, lower_source};

    fn collect_src(src: &str) -> (Module, Primitives) {
        let m = lower_source(src).expect("lowering");
        let a = analyze(&m);
        let p = collect(&m, &a);
        (m, p)
    }

    #[test]
    fn finds_channel_creation_and_ops() {
        let (_, p) = collect_src(
            "func main() {\n ch := make(chan int, 2)\n go func() {\n  ch <- 1\n }()\n <-ch\n close(ch)\n}",
        );
        assert_eq!(p.all.len(), 1);
        let prim = &p.all[0];
        assert_eq!(prim.name, "ch");
        assert_eq!(prim.buffer_size(), Some(2));
        let kinds: Vec<OpKind> = p.ops_of(prim.id).map(|o| o.kind).collect();
        assert!(kinds.contains(&OpKind::Send));
        assert!(kinds.contains(&OpKind::Recv));
        assert!(kinds.contains(&OpKind::Close));
    }

    #[test]
    fn mutex_ops_become_channel_view() {
        let (_, p) = collect_src("func main() {\n var mu sync.Mutex\n mu.Lock()\n mu.Unlock()\n}");
        assert_eq!(p.all.len(), 1);
        let prim = &p.all[0];
        assert_eq!(prim.buffer_size(), Some(1), "mutex = buffer-1 channel");
        let ops: Vec<&SyncOp> = p.ops_of(prim.id).collect();
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().any(|o| o.kind == OpKind::Send && o.from_mutex));
        assert!(ops.iter().any(|o| o.kind == OpKind::Recv && o.from_mutex));
    }

    #[test]
    fn select_cases_recorded_with_index() {
        let (_, p) = collect_src(
            "func main() {\n a := make(chan int)\n b := make(chan int)\n select {\n case <-a:\n case b <- 1:\n }\n}",
        );
        assert_eq!(p.all.len(), 2);
        let select_ops: Vec<&SyncOp> = p.ops.iter().filter(|o| o.select_case.is_some()).collect();
        assert_eq!(select_ops.len(), 2);
        assert_eq!(select_ops[0].select_case, Some(0));
        assert_eq!(select_ops[1].select_case, Some(1));
    }

    #[test]
    fn unbuffered_channel_has_zero_buffer() {
        let (_, p) = collect_src("func main() {\n ch := make(chan struct{})\n close(ch)\n}");
        assert_eq!(p.all[0].buffer_size(), Some(0));
    }

    #[test]
    fn dynamic_capacity_is_unknown() {
        let (_, p) = collect_src("func f(n int) {\n ch := make(chan int, n)\n close(ch)\n}");
        assert_eq!(p.all[0].buffer_size(), None);
    }

    #[test]
    fn funcs_with_ops_spans_closures() {
        let (m, p) = collect_src(
            "func main() {\n ch := make(chan int)\n go func() {\n  ch <- 1\n }()\n <-ch\n}",
        );
        let prim = &p.all[0];
        let funcs = p.funcs_with_ops_of(prim.id);
        assert_eq!(funcs.len(), 2, "main and the closure");
        let closure = m.funcs.iter().find(|f| f.is_closure).unwrap();
        assert!(funcs.contains(&closure.id));
    }
}
