//! The GoLite intermediate representation.
//!
//! A [`Module`] holds one function per GoLite `func` declaration plus one
//! lifted function per closure. Each [`Function`] is a control-flow graph of
//! [`Block`]s; every block carries straight-line [`Instr`]uctions and one
//! [`Terminator`]. This mirrors the role `golang.org/x/tools/go/ssa` plays
//! for the original GCatch: a mid-level IR with explicit channel, mutex, and
//! goroutine operations that the detectors and the simulator both consume.
//!
//! The IR is deliberately *not* SSA: GCatch's path-sensitive enumeration
//! re-executes straight-line code symbolically, so simple registers with
//! reassignment keep lowering and interpretation straightforward while
//! preserving everything the analyses need (creation sites, operation sites,
//! call/spawn structure).

use crate::intern::Symbol;
use golite::{Span, Type};
use std::fmt;

/// Identifies a function in a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifies a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifies a register within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// Identifies a module-level global variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// A program point: instruction `idx` of `block` in `func`. The terminator
/// is addressed by `idx == block.instrs.len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc {
    /// Containing function.
    pub func: FuncId,
    /// Containing block.
    pub block: BlockId,
    /// Index within the block (terminator = number of instructions).
    pub idx: u32,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}:b{}:{}", self.func.0, self.block.0, self.idx)
    }
}

/// A compile-time constant.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstVal {
    /// Integer constant.
    Int(i64),
    /// Boolean constant.
    Bool(bool),
    /// String constant.
    Str(String),
    /// The unit value `struct{}{}`.
    Unit,
    /// `nil`.
    Nil,
    /// A first-class reference to a function (no captured environment).
    Func(FuncId),
}

/// An instruction operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A register.
    Var(Var),
    /// An inline constant.
    Const(ConstVal),
}

impl Operand {
    /// The constant integer, if this operand is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Operand::Const(ConstVal::Int(v)) => Some(*v),
            _ => None,
        }
    }
}

/// How a call names its target.
#[derive(Debug, Clone, PartialEq)]
pub enum FuncRef {
    /// A statically known function.
    Static(FuncId),
    /// A function value held in a register (closure or function parameter).
    Dynamic(Operand),
    /// A call to a function the module does not define (treated as an
    /// opaque no-op by both the analyses and the simulator).
    External(Symbol),
}

/// Binary operators (same set as the AST).
pub type BinOp = golite::BinOp;
/// Unary operators (`Neg`/`Not` survive lowering).
pub type UnOp = golite::UnOp;

/// A straight-line instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = value`
    Const {
        /// Destination register.
        dst: Var,
        /// The constant.
        value: ConstVal,
    },
    /// `dst = src`
    Copy {
        /// Destination register.
        dst: Var,
        /// Source operand.
        src: Operand,
    },
    /// `dst = op src`
    UnOp {
        /// Destination register.
        dst: Var,
        /// Operator.
        op: UnOp,
        /// Operand.
        src: Operand,
    },
    /// `dst = l op r`
    BinOp {
        /// Destination register.
        dst: Var,
        /// Operator.
        op: BinOp,
        /// Left operand.
        l: Operand,
        /// Right operand.
        r: Operand,
    },
    /// `dst = make(chan elem, cap)` — a channel creation site. GCatch uses
    /// the instruction's [`Loc`] as the channel's static identity.
    MakeChan {
        /// Destination register.
        dst: Var,
        /// Element type.
        elem: Type,
        /// Buffer capacity (0 = unbuffered).
        cap: Operand,
    },
    /// Creation of a mutex (from `var mu sync.Mutex` or a struct field).
    MakeMutex {
        /// Destination register.
        dst: Var,
        /// `true` for `sync.RWMutex`.
        rw: bool,
    },
    /// Creation of a `sync.WaitGroup`.
    MakeWaitGroup {
        /// Destination register.
        dst: Var,
    },
    /// Creation of a `sync.Cond`.
    MakeCond {
        /// Destination register.
        dst: Var,
    },
    /// Creation of a struct object (fields are initialized in order; mutex
    /// and waitgroup fields get fresh primitives).
    MakeStruct {
        /// Destination register.
        dst: Var,
        /// Struct type name.
        name: Symbol,
        /// Explicit field initializers.
        fields: Vec<(Symbol, Operand)>,
    },
    /// Creation of a slice with the given elements.
    MakeSlice {
        /// Destination register.
        dst: Var,
        /// Initial elements.
        elems: Vec<Operand>,
    },
    /// `dst = func bound captured args` — closure creation. Captured
    /// variables become the first arguments of the lifted function.
    MakeClosure {
        /// Destination register.
        dst: Var,
        /// The lifted function.
        func: FuncId,
        /// Captured values, prepended to call arguments.
        bound: Vec<Operand>,
    },
    /// `dst = len(obj)`
    Len {
        /// Destination register.
        dst: Var,
        /// The slice (or string).
        obj: Operand,
    },
    /// `dst = obj[index]`
    IndexLoad {
        /// Destination register.
        dst: Var,
        /// The slice.
        obj: Operand,
        /// The index.
        index: Operand,
    },
    /// `obj[index] = value`
    IndexStore {
        /// The slice.
        obj: Operand,
        /// The index.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
    /// `dst = obj.field`
    FieldLoad {
        /// Destination register.
        dst: Var,
        /// The struct object.
        obj: Operand,
        /// Field name.
        field: Symbol,
    },
    /// `obj.field = value`
    FieldStore {
        /// The struct object.
        obj: Operand,
        /// Field name.
        field: Symbol,
        /// Stored value.
        value: Operand,
    },
    /// `dst = *global`
    LoadGlobal {
        /// Destination register.
        dst: Var,
        /// The global.
        global: GlobalId,
    },
    /// `*global = src`
    StoreGlobal {
        /// The global.
        global: GlobalId,
        /// Stored value.
        src: Operand,
    },
    /// `chan <- value` — may block.
    Send {
        /// The channel.
        chan: Operand,
        /// Sent value.
        value: Operand,
    },
    /// `dst, ok = <-chan` — may block.
    Recv {
        /// Value destination (absent for `<-ch` statements).
        dst: Option<Var>,
        /// Comma-ok destination.
        ok: Option<Var>,
        /// The channel.
        chan: Operand,
    },
    /// `close(chan)`
    Close {
        /// The channel.
        chan: Operand,
    },
    /// `mu.Lock()` / `mu.RLock()` — may block.
    Lock {
        /// The mutex.
        mutex: Operand,
        /// `true` for a reader lock.
        read: bool,
    },
    /// `mu.Unlock()` / `mu.RUnlock()`
    Unlock {
        /// The mutex.
        mutex: Operand,
        /// `true` for a reader unlock.
        read: bool,
    },
    /// `wg.Add(n)`
    WgAdd {
        /// The wait group.
        wg: Operand,
        /// The delta.
        n: Operand,
    },
    /// `wg.Done()`
    WgDone {
        /// The wait group.
        wg: Operand,
    },
    /// `wg.Wait()` — may block.
    WgWait {
        /// The wait group.
        wg: Operand,
    },
    /// `c.Wait()` — may block.
    CondWait {
        /// The condition variable.
        cond: Operand,
    },
    /// `c.Signal()`
    CondSignal {
        /// The condition variable.
        cond: Operand,
    },
    /// `c.Broadcast()`
    CondBroadcast {
        /// The condition variable.
        cond: Operand,
    },
    /// `go f(args)`
    Go {
        /// Spawn target.
        func: FuncRef,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `dsts = f(args)`
    Call {
        /// Result registers (one per return value used).
        dsts: Vec<Var>,
        /// Call target.
        func: FuncRef,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `defer f(args)` — arguments evaluated now, call deferred to return.
    DeferCall {
        /// Deferred target.
        func: FuncRef,
        /// Arguments (already evaluated).
        args: Vec<Operand>,
    },
    /// `time.Sleep(n)` — scheduling hint in the simulator, no-op statically.
    Sleep {
        /// Duration in abstract ticks.
        n: Operand,
    },
    /// `t.Fatal(...)` / `t.Fatalf(...)` — stops the current goroutine after
    /// running defers (Go's `runtime.Goexit` semantics).
    Fatal,
    /// `panic(v)`
    Panic {
        /// Panic payload.
        value: Operand,
    },
    /// `print`/`println` — observable output in the simulator.
    Print {
        /// Printed operands.
        args: Vec<Operand>,
    },
    /// No operation (kept so instruction indices stay stable).
    Nop,
}

impl Instr {
    /// Whether this instruction can block the executing goroutine.
    pub fn can_block(&self) -> bool {
        matches!(
            self,
            Instr::Send { .. }
                | Instr::Recv { .. }
                | Instr::Lock { .. }
                | Instr::WgWait { .. }
                | Instr::CondWait { .. }
        )
    }

    /// Whether this is a synchronization operation on a channel or mutex —
    /// the primitives GCatch's constraint system models.
    pub fn is_modeled_sync_op(&self) -> bool {
        matches!(
            self,
            Instr::Send { .. }
                | Instr::Recv { .. }
                | Instr::Close { .. }
                | Instr::Lock { .. }
                | Instr::Unlock { .. }
        )
    }
}

/// One communication case of a `select` terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectOp {
    /// `case ch <- value:`
    Send {
        /// The channel.
        chan: Operand,
        /// Sent value.
        value: Operand,
    },
    /// `case dst, ok := <-ch:`
    Recv {
        /// Value destination.
        dst: Option<Var>,
        /// Comma-ok destination.
        ok: Option<Var>,
        /// The channel.
        chan: Operand,
    },
}

impl SelectOp {
    /// The channel operand of this case.
    pub fn chan(&self) -> &Operand {
        match self {
            SelectOp::Send { chan, .. } | SelectOp::Recv { chan, .. } => chan,
        }
    }
}

/// A select case with its target block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectCase {
    /// The communication operation.
    pub op: SelectOp,
    /// Block to run when this case fires.
    pub target: BlockId,
}

/// The exit of a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a boolean operand.
    Branch {
        /// Condition.
        cond: Operand,
        /// Taken when true.
        then: BlockId,
        /// Taken when false.
        els: BlockId,
    },
    /// Function return.
    Return(Vec<Operand>),
    /// `select` over several channel operations — may block if no `default`.
    Select {
        /// Communication cases.
        cases: Vec<SelectCase>,
        /// `default:` target, if present.
        default: Option<BlockId>,
    },
    /// Block terminator for unreachable-by-construction blocks.
    Unreachable,
}

impl Terminator {
    /// All successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch { then, els, .. } => vec![*then, *els],
            Terminator::Return(_) | Terminator::Unreachable => vec![],
            Terminator::Select { cases, default } => {
                let mut out: Vec<BlockId> = cases.iter().map(|c| c.target).collect();
                if let Some(d) = default {
                    out.push(*d);
                }
                out
            }
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line instructions.
    pub instrs: Vec<Instr>,
    /// Source spans parallel to `instrs` (synthetic spans allowed).
    pub spans: Vec<Span>,
    /// The block's terminator.
    pub term: Terminator,
    /// Span of the terminator.
    pub term_span: Span,
}

impl Default for Block {
    fn default() -> Self {
        Block::new()
    }
}

impl Block {
    /// An empty block with an [`Terminator::Unreachable`] terminator.
    pub fn new() -> Block {
        Block {
            instrs: Vec::new(),
            spans: Vec::new(),
            term: Terminator::Unreachable,
            term_span: Span::synthetic(),
        }
    }
}

/// A lowered function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name (lifted closures get `<outer>$closureN`).
    pub name: Symbol,
    /// This function's id within the module.
    pub id: FuncId,
    /// Registers holding the parameters, in order.
    pub params: Vec<Var>,
    /// Number of leading params that are closure captures.
    pub n_captures: usize,
    /// Declared result types.
    pub results: Vec<Type>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Register names (debugging / reports).
    pub var_names: Vec<Symbol>,
    /// Register types as inferred during lowering.
    pub var_types: Vec<Type>,
    /// Whether this function was lifted from a closure expression.
    pub is_closure: bool,
    /// Source span of the declaration.
    pub span: Span,
}

impl Function {
    /// The block with the given id.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.0 as usize]
    }

    /// Iterate over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// The instruction at `loc`, if `loc` addresses an instruction (not a
    /// terminator) in this function.
    pub fn instr_at(&self, loc: Loc) -> Option<&Instr> {
        if loc.func != self.id {
            return None;
        }
        self.blocks
            .get(loc.block.0 as usize)?
            .instrs
            .get(loc.idx as usize)
    }

    /// The name of a register.
    pub fn var_name(&self, v: Var) -> &'static str {
        self.var_names[v.0 as usize].as_str()
    }
}

/// A module-level global variable.
#[derive(Debug, Clone)]
pub struct Global {
    /// Source name.
    pub name: Symbol,
    /// Declared type.
    pub ty: Type,
    /// Id.
    pub id: GlobalId,
}

/// A lowered GoLite program.
#[derive(Debug, Clone)]
pub struct Module {
    /// All functions; indices match [`FuncId`]s.
    pub funcs: Vec<Function>,
    /// Struct declarations carried over from the AST.
    pub structs: Vec<golite::StructDecl>,
    /// Module-level globals.
    pub globals: Vec<Global>,
    /// Map from function name to id (declared functions only). Keyed by
    /// interned symbol: lookups hash 4 bytes, not the whole name.
    name_to_func: std::collections::HashMap<Symbol, FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module {
            funcs: Vec::new(),
            structs: Vec::new(),
            globals: Vec::new(),
            name_to_func: std::collections::HashMap::new(),
        }
    }

    /// Adds a function, registering its name if it is not a lifted closure.
    /// The function is moved into the module — no clone, and the name
    /// registration copies a 4-byte symbol instead of the name text.
    pub fn add_func(&mut self, mut f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        f.id = id;
        if !f.is_closure {
            self.name_to_func.insert(f.name, id);
        }
        self.funcs.push(f);
        id
    }

    /// Looks up a declared (non-closure) function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.name_to_func
            .get(&Symbol::intern(name))
            .map(|id| &self.funcs[id.0 as usize])
    }

    /// The function with the given id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Looks up a struct declaration.
    pub fn struct_decl(&self, name: &str) -> Option<&golite::StructDecl> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Total number of IR instructions (a coarse size metric used by the
    /// scaling experiments).
    pub fn instr_count(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.instrs.len() + 1).sum::<usize>())
            .sum()
    }
}

impl Default for Module {
    fn default() -> Self {
        Module::new()
    }
}

/// Pretty-prints a function's CFG into `out` (append-only; callers dumping
/// many functions reuse one buffer instead of allocating per call).
pub fn dump_function_into(f: &Function, out: &mut String) {
    use fmt::Write as _;
    let _ = writeln!(out, "func {} (id {}) params={:?}", f.name, f.id.0, f.params);
    for (bid, block) in f.iter_blocks() {
        let _ = writeln!(out, " b{}:", bid.0);
        for (i, instr) in block.instrs.iter().enumerate() {
            let _ = writeln!(out, "   {i:3}: {instr:?}");
        }
        let _ = writeln!(out, "   term: {:?}", block.term);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::Const(ConstVal::Bool(true)),
            then: BlockId(1),
            els: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Terminator::Return(vec![]).successors().is_empty());
        let s = Terminator::Select {
            cases: vec![SelectCase {
                op: SelectOp::Recv {
                    dst: None,
                    ok: None,
                    chan: Operand::Var(Var(0)),
                },
                target: BlockId(3),
            }],
            default: Some(BlockId(4)),
        };
        assert_eq!(s.successors(), vec![BlockId(3), BlockId(4)]);
    }

    #[test]
    fn blocking_classification() {
        let send = Instr::Send {
            chan: Operand::Var(Var(0)),
            value: Operand::Const(ConstVal::Int(1)),
        };
        assert!(send.can_block());
        assert!(send.is_modeled_sync_op());
        let close = Instr::Close {
            chan: Operand::Var(Var(0)),
        };
        assert!(!close.can_block());
        assert!(close.is_modeled_sync_op());
        let wait = Instr::WgWait {
            wg: Operand::Var(Var(0)),
        };
        assert!(wait.can_block());
        assert!(
            !wait.is_modeled_sync_op(),
            "WaitGroup is deliberately unmodeled (§5.2)"
        );
    }

    #[test]
    fn module_name_lookup_skips_closures() {
        let mut m = Module::new();
        let f = Function {
            name: "main".into(),
            id: FuncId(0),
            params: vec![],
            n_captures: 0,
            results: vec![],
            blocks: vec![Block::new()],
            var_names: vec![],
            var_types: vec![],
            is_closure: false,
            span: Span::synthetic(),
        };
        m.add_func(f.clone());
        let mut c = f;
        c.name = Symbol::intern("main$closure0");
        c.is_closure = true;
        m.add_func(c);
        assert!(m.func_by_name("main").is_some());
        assert!(m.func_by_name("main$closure0").is_none());
    }
}
