//! AST → IR lowering.
//!
//! Lowering produces one IR [`Function`] per declared `func` plus one lifted
//! function per closure expression. Closures capture enclosing variables by
//! value for scalars and by reference for channels, mutexes, wait groups,
//! structs, and slices (which are reference values in GoLite, as in Go) —
//! captured variables become leading parameters of the lifted function and
//! are bound at the `MakeClosure` site.
//!
//! Standard-library vocabulary is desugared here so later phases never see
//! it:
//!
//! * `context.Background()` → a fresh never-closed channel;
//!   `context.WithCancel(p)` → a fresh channel plus a closure that closes
//!   it; `ctx.Done()` → the channel itself;
//! * `time.Sleep(n)` → [`Instr::Sleep`]; `time.After(n)` → a fresh buffered
//!   channel plus a spawned helper goroutine that sleeps and sends;
//! * `t.Fatal`/`t.Fatalf`/`t.FailNow` → [`Instr::Fatal`];
//! * mutex/waitgroup/cond methods → dedicated instructions.
//!
//! Deviation from Go, by design: `&&`/`||` are evaluated eagerly (GoLite
//! conditions are side-effect free), which keeps branch conditions first-
//! class values for GCatch's infeasible-path filtering.

use crate::intern::Symbol;
use crate::ir::*;
use golite::ast::{self, ExprKind, SelectCaseKind, StmtKind};
use golite::{Expr, Program, Span, Stmt, Type};
use std::borrow::Cow;
use std::collections::HashMap;

/// An error produced during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Human-readable description.
    pub message: String,
    /// Source location of the offending construct.
    pub span: Span,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LowerError {}

/// Lowers a parsed program into an IR module.
///
/// # Errors
///
/// Returns a [`LowerError`] for constructs outside the GoLite subset (for
/// example assigning to an undeclared variable).
pub fn lower(prog: &Program) -> Result<Module, LowerError> {
    Lowerer::new(prog).run()
}

/// Convenience: parse and lower in one step.
///
/// # Errors
///
/// Returns the parse error or lowering error as a string.
pub fn lower_source(src: &str) -> Result<Module, String> {
    let prog = golite::parse(src).map_err(|e| e.to_string())?;
    lower(&prog).map_err(|e| e.to_string())
}

const UNKNOWN_TYPE: &str = "<unknown>";

fn unknown_ty() -> Type {
    Type::Named(UNKNOWN_TYPE.into())
}

/// Per-function lowering state. A variable's name is interned once, when
/// the variable is made; scopes key on names borrowed from the AST.
struct FuncCtx<'a> {
    name: Symbol,
    id: FuncId,
    params: Vec<Var>,
    n_captures: usize,
    results: Vec<Type>,
    blocks: Vec<Block>,
    current: BlockId,
    var_names: Vec<Symbol>,
    var_types: Vec<Type>,
    scopes: Vec<HashMap<&'a str, Var>>,
    /// Jump targets for `break` (loops and selects) and `continue` (loops).
    break_targets: Vec<BlockId>,
    continue_targets: Vec<BlockId>,
    /// The enclosing function's variable each capture binds, in capture
    /// order.
    captured: Vec<Var>,
    is_closure: bool,
    span: Span,
    /// Whether the current block already ended in a return/jump.
    terminated: bool,
}

impl<'a> FuncCtx<'a> {
    fn new(name: Symbol, id: FuncId, is_closure: bool, span: Span) -> FuncCtx<'a> {
        FuncCtx {
            name,
            id,
            params: Vec::new(),
            n_captures: 0,
            results: Vec::new(),
            blocks: vec![Block::new()],
            current: BlockId(0),
            var_names: Vec::new(),
            var_types: Vec::new(),
            scopes: vec![HashMap::new()],
            break_targets: Vec::new(),
            continue_targets: Vec::new(),
            captured: Vec::new(),
            is_closure,
            span,
            terminated: false,
        }
    }

    fn fresh_var(&mut self, name: impl Into<Symbol>, ty: Type) -> Var {
        let v = Var(self.var_names.len() as u32);
        self.var_names.push(name.into());
        self.var_types.push(ty);
        v
    }

    fn declare(&mut self, name: &'a str, ty: Type) -> Var {
        let v = self.fresh_var(name, ty);
        if name != "_" {
            self.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(name, v);
        }
        v
    }

    fn lookup(&self, name: &str) -> Option<Var> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn new_block(&mut self) -> BlockId {
        let b = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        b
    }

    fn switch_to(&mut self, b: BlockId) {
        self.current = b;
        self.terminated = false;
    }

    fn emit(&mut self, instr: Instr, span: Span) {
        if self.terminated {
            return; // dead code after return/break
        }
        let blk = &mut self.blocks[self.current.0 as usize];
        blk.instrs.push(instr);
        blk.spans.push(span);
    }

    fn terminate(&mut self, term: Terminator, span: Span) {
        if self.terminated {
            return;
        }
        let blk = &mut self.blocks[self.current.0 as usize];
        blk.term = term;
        blk.term_span = span;
        self.terminated = true;
    }

    /// Finishes the function, shrinking every vector it keeps: growth
    /// slack was over a fifth of the module's memory (1.4 of 6.1 MB on the
    /// 960-channel probe), and the module lives as long as its analysis.
    fn into_function(mut self) -> Function {
        for block in &mut self.blocks {
            block.instrs.shrink_to_fit();
            block.spans.shrink_to_fit();
        }
        self.blocks.shrink_to_fit();
        self.var_names.shrink_to_fit();
        self.var_types.shrink_to_fit();
        Function {
            name: self.name,
            id: self.id,
            params: self.params,
            n_captures: self.n_captures,
            results: self.results,
            blocks: self.blocks,
            var_names: self.var_names,
            var_types: self.var_types,
            is_closure: self.is_closure,
            span: self.span,
        }
    }
}

/// Signature info for declared functions (known before bodies are
/// lowered), borrowed from their declarations.
#[derive(Clone, Copy)]
struct FuncSig<'a> {
    id: FuncId,
    params: &'a [golite::Param],
    results: &'a [Type],
}

struct Lowerer<'a> {
    prog: &'a Program,
    sigs: HashMap<&'a str, FuncSig<'a>>,
    /// Struct declarations by name, indexed once in pass 1. The first
    /// declaration of a name wins.
    structs: HashMap<&'a str, &'a golite::StructDecl>,
    globals: Vec<Global>,
    global_ids: HashMap<&'a str, GlobalId>,
    /// Finished functions, indexed by FuncId.
    funcs: Vec<Option<Function>>,
    /// Stack of in-progress function contexts (for closure capture).
    ctxs: Vec<FuncCtx<'a>>,
    /// Lazily created helper functions.
    helpers: HashMap<&'static str, FuncId>,
    /// Operands each lifted closure must bind at its `MakeClosure` site.
    closure_bounds: HashMap<FuncId, Vec<Operand>>,
    closure_counter: u32,
}

impl<'a> Lowerer<'a> {
    fn new(prog: &'a Program) -> Lowerer<'a> {
        Lowerer {
            prog,
            sigs: HashMap::new(),
            structs: HashMap::new(),
            globals: Vec::new(),
            global_ids: HashMap::new(),
            funcs: Vec::new(),
            ctxs: Vec::new(),
            helpers: HashMap::new(),
            closure_bounds: HashMap::new(),
            closure_counter: 0,
        }
    }

    fn err(&self, message: impl Into<String>, span: Span) -> LowerError {
        LowerError {
            message: message.into(),
            span,
        }
    }

    fn ctx(&mut self) -> &mut FuncCtx<'a> {
        self.ctxs.last_mut().expect("no active function")
    }

    fn run(mut self) -> Result<Module, LowerError> {
        // Pass 1: collect signatures, structs, globals.
        let mut decl_funcs = Vec::new();
        for decl in &self.prog.decls {
            match decl {
                ast::Decl::Func(f) => {
                    let id = FuncId(self.funcs.len() as u32);
                    self.funcs.push(None);
                    self.sigs.insert(
                        &f.name,
                        FuncSig {
                            id,
                            params: &f.params,
                            results: &f.results,
                        },
                    );
                    decl_funcs.push((id, f));
                }
                ast::Decl::Struct(s) => {
                    self.structs.entry(&s.name).or_insert(s);
                }
                ast::Decl::GlobalVar { name, ty, .. } => {
                    let id = GlobalId(self.globals.len() as u32);
                    self.globals.push(Global {
                        name: Symbol::intern(name),
                        ty: ty.clone(),
                        id,
                    });
                    self.global_ids.insert(name, id);
                }
            }
        }

        // Pass 2: lower bodies.
        for (id, f) in decl_funcs {
            let mut ctx = FuncCtx::new(Symbol::intern(&f.name), id, false, f.span);
            ctx.results = f.results.clone();
            self.ctxs.push(ctx);
            for p in &f.params {
                let v = self.ctx().declare(&p.name, p.ty.clone());
                self.ctx().params.push(v);
            }
            self.lower_block(&f.body)?;
            self.ctx().terminate(Terminator::Return(vec![]), f.span);
            let ctx = self.ctxs.pop().expect("pushed above");
            self.funcs[id.0 as usize] = Some(ctx.into_function());
        }

        // Synthesize `__init` if any global has an initializer.
        let inits: Vec<(GlobalId, &Expr)> = self
            .prog
            .decls
            .iter()
            .filter_map(|d| match d {
                ast::Decl::GlobalVar {
                    name,
                    init: Some(init),
                    ..
                } => Some((self.global_ids[name.as_str()], init)),
                _ => None,
            })
            .collect();
        if !inits.is_empty() {
            let id = FuncId(self.funcs.len() as u32);
            self.funcs.push(None);
            self.sigs.insert(
                "__init",
                FuncSig {
                    id,
                    params: &[],
                    results: &[],
                },
            );
            let ctx = FuncCtx::new(Symbol::intern("__init"), id, false, Span::synthetic());
            self.ctxs.push(ctx);
            for (gid, init) in inits {
                let op = self.lower_value(init)?;
                self.ctx().emit(
                    Instr::StoreGlobal {
                        global: gid,
                        src: op,
                    },
                    init.span,
                );
            }
            self.ctx()
                .terminate(Terminator::Return(vec![]), Span::synthetic());
            let ctx = self.ctxs.pop().expect("pushed above");
            self.funcs[id.0 as usize] = Some(ctx.into_function());
        }

        let mut module = Module::new();
        module.structs = self
            .prog
            .decls
            .iter()
            .filter_map(|d| match d {
                ast::Decl::Struct(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        module.globals = self.globals;
        for f in self.funcs.into_iter() {
            let f = f.expect("every declared function lowered");
            module.add_func(f);
        }
        Ok(module)
    }

    // ------------------------------------------------------------- helpers

    /// Creates (once) a tiny module-level helper function.
    fn helper(&mut self, kind: &'static str) -> FuncId {
        if let Some(&id) = self.helpers.get(kind) {
            return id;
        }
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(None);
        let mut ctx = FuncCtx::new(
            Symbol::intern(&format!("__{kind}")),
            id,
            false,
            Span::synthetic(),
        );
        match kind {
            "close" => {
                let ch = ctx.declare("ch", Type::Chan(Box::new(Type::Unit)));
                ctx.params.push(ch);
                ctx.emit(
                    Instr::Close {
                        chan: Operand::Var(ch),
                    },
                    Span::synthetic(),
                );
            }
            "unlock" => {
                let m = ctx.declare("mu", Type::Mutex);
                ctx.params.push(m);
                ctx.emit(
                    Instr::Unlock {
                        mutex: Operand::Var(m),
                        read: false,
                    },
                    Span::synthetic(),
                );
            }
            "runlock" => {
                let m = ctx.declare("mu", Type::RwMutex);
                ctx.params.push(m);
                ctx.emit(
                    Instr::Unlock {
                        mutex: Operand::Var(m),
                        read: true,
                    },
                    Span::synthetic(),
                );
            }
            "wgdone" => {
                let wg = ctx.declare("wg", Type::WaitGroup);
                ctx.params.push(wg);
                ctx.emit(
                    Instr::WgDone {
                        wg: Operand::Var(wg),
                    },
                    Span::synthetic(),
                );
            }
            "timer" => {
                let ch = ctx.declare("ch", Type::Chan(Box::new(Type::Unit)));
                let n = ctx.declare("n", Type::Int);
                ctx.params.push(ch);
                ctx.params.push(n);
                ctx.emit(Instr::Sleep { n: Operand::Var(n) }, Span::synthetic());
                ctx.emit(
                    Instr::Send {
                        chan: Operand::Var(ch),
                        value: Operand::Const(ConstVal::Unit),
                    },
                    Span::synthetic(),
                );
            }
            other => unreachable!("unknown helper {other}"),
        }
        ctx.terminate(Terminator::Return(vec![]), Span::synthetic());
        self.funcs[id.0 as usize] = Some(ctx.into_function());
        self.helpers.insert(kind, id);
        id
    }

    /// Resolves a name to a variable, capturing through enclosing closures
    /// if needed. Returns `None` when the name is not a local of any
    /// enclosing function.
    fn resolve_var(&mut self, name: &'a str) -> Option<Var> {
        let depth = self.ctxs.len();
        if let Some(v) = self.ctxs[depth - 1].lookup(name) {
            return Some(v);
        }
        // Search enclosing contexts; capture through every level between.
        for level in (0..depth.saturating_sub(1)).rev() {
            if let Some(found) = self.ctxs[level].lookup(name) {
                // Found: thread the capture down through each closure level.
                // Every level's variable for `name` is named `name`, so each
                // capture reuses the outer variable's symbol.
                let mut outer_var = found;
                for inner in level + 1..depth {
                    let outer_ctx = &self.ctxs[inner - 1];
                    let symbol = outer_ctx.var_names[outer_var.0 as usize];
                    let ty = outer_ctx.var_types[outer_var.0 as usize].clone();
                    let inner_ctx = &mut self.ctxs[inner];
                    let param = inner_ctx.fresh_var(symbol, ty);
                    // Captures are leading params: record and insert.
                    inner_ctx.params.insert(inner_ctx.n_captures, param);
                    inner_ctx.n_captures += 1;
                    inner_ctx.captured.push(outer_var);
                    inner_ctx
                        .scopes
                        .first_mut()
                        .expect("scope stack never empty")
                        .insert(name, param);
                    outer_var = param;
                }
                return Some(outer_var);
            }
        }
        None
    }

    fn var_ty(&self, v: Var) -> &Type {
        &self.ctxs.last().expect("no active function").var_types[v.0 as usize]
    }

    /// Default value initialization for a declared variable.
    fn default_init(&mut self, dst: Var, ty: &Type, span: Span) {
        match ty {
            Type::Int => self.ctx().emit(
                Instr::Const {
                    dst,
                    value: ConstVal::Int(0),
                },
                span,
            ),
            Type::Bool => self.ctx().emit(
                Instr::Const {
                    dst,
                    value: ConstVal::Bool(false),
                },
                span,
            ),
            Type::String => self.ctx().emit(
                Instr::Const {
                    dst,
                    value: ConstVal::Str(String::new()),
                },
                span,
            ),
            Type::Mutex => self.ctx().emit(Instr::MakeMutex { dst, rw: false }, span),
            Type::RwMutex => self.ctx().emit(Instr::MakeMutex { dst, rw: true }, span),
            Type::WaitGroup => self.ctx().emit(Instr::MakeWaitGroup { dst }, span),
            Type::Cond => self.ctx().emit(Instr::MakeCond { dst }, span),
            Type::Named(name) if name != UNKNOWN_TYPE => {
                let inits = self.primitive_field_inits(name, &[], span);
                self.ctx().emit(
                    Instr::MakeStruct {
                        dst,
                        name: Symbol::intern(name),
                        fields: inits,
                    },
                    span,
                );
            }
            Type::Unit => self.ctx().emit(
                Instr::Const {
                    dst,
                    value: ConstVal::Unit,
                },
                span,
            ),
            // Channels, slices, pointers, funcs, contexts default to nil.
            _ => self.ctx().emit(
                Instr::Const {
                    dst,
                    value: ConstVal::Nil,
                },
                span,
            ),
        }
    }

    /// Fresh primitive objects for a struct's declared mutex/waitgroup/cond
    /// fields (Go zero values of these types are ready to use), excluding
    /// fields in `already`. Gives struct-embedded primitives creation sites.
    fn primitive_field_inits(
        &mut self,
        struct_name: &str,
        already: &[Symbol],
        span: Span,
    ) -> Vec<(Symbol, Operand)> {
        let Some(&decl) = self.structs.get(struct_name) else {
            return vec![];
        };
        let mut out = Vec::new();
        for (fname, fty) in &decl.fields {
            if already.iter().any(|a| *a == *fname) {
                continue;
            }
            let make = match fty {
                Type::Mutex => Some(Instr::MakeMutex {
                    dst: Var(0),
                    rw: false,
                }),
                Type::RwMutex => Some(Instr::MakeMutex {
                    dst: Var(0),
                    rw: true,
                }),
                Type::WaitGroup => Some(Instr::MakeWaitGroup { dst: Var(0) }),
                Type::Cond => Some(Instr::MakeCond { dst: Var(0) }),
                _ => None,
            };
            if let Some(template) = make {
                let field = Symbol::intern(fname);
                let dst = self.ctx().fresh_var(field, fty.clone());
                let instr = match template {
                    Instr::MakeMutex { rw, .. } => Instr::MakeMutex { dst, rw },
                    Instr::MakeWaitGroup { .. } => Instr::MakeWaitGroup { dst },
                    Instr::MakeCond { .. } => Instr::MakeCond { dst },
                    _ => unreachable!(),
                };
                self.ctx().emit(instr, span);
                out.push((field, Operand::Var(dst)));
            }
        }
        out
    }

    // ---------------------------------------------------------- statements

    fn lower_block(&mut self, b: &'a golite::Block) -> Result<(), LowerError> {
        self.ctx().scopes.push(HashMap::new());
        for stmt in &b.stmts {
            self.lower_stmt(stmt)?;
        }
        self.ctx().scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &'a Stmt) -> Result<(), LowerError> {
        let span = stmt.span;
        match &stmt.kind {
            StmtKind::Define { names, rhs } => self.lower_define(names, rhs, span),
            StmtKind::Assign { lhs, op, rhs } => self.lower_assign(lhs, *op, rhs, span),
            StmtKind::VarDecl { name, ty, init } => {
                match init {
                    Some(e) => {
                        if let ExprKind::Make {
                            ty: mty @ Type::Chan(_),
                            cap,
                        } = &e.unparen().kind
                        {
                            let cap_op = match cap {
                                Some(c) => self.lower_value(c)?,
                                None => Operand::Const(ConstVal::Int(0)),
                            };
                            let elem = mty.chan_elem().cloned().expect("channel type");
                            let dst = self.ctx().declare(name, ty.clone());
                            self.ctx().emit(
                                Instr::MakeChan {
                                    dst,
                                    elem,
                                    cap: cap_op,
                                },
                                span,
                            );
                        } else {
                            let op = self.lower_value(e)?;
                            let dst = self.ctx().declare(name, ty.clone());
                            self.ctx().emit(Instr::Copy { dst, src: op }, span);
                        }
                    }
                    None => {
                        let dst = self.ctx().declare(name, ty.clone());
                        self.default_init(dst, ty, span);
                    }
                }
                Ok(())
            }
            StmtKind::Send { chan, value } => {
                let c = self.lower_value(chan)?;
                let v = self.lower_value(value)?;
                self.ctx().emit(Instr::Send { chan: c, value: v }, span);
                Ok(())
            }
            StmtKind::Expr(e) => {
                match &e.unparen().kind {
                    ExprKind::Recv(ch) => {
                        let c = self.lower_value(ch)?;
                        self.ctx().emit(
                            Instr::Recv {
                                dst: None,
                                ok: None,
                                chan: c,
                            },
                            span,
                        );
                    }
                    ExprKind::Call { .. } | ExprKind::Method { .. } => {
                        self.lower_call_stmt(e, vec![])?;
                    }
                    _ => {
                        // Evaluate for effect (no-op for pure expressions).
                        self.lower_value(e)?;
                    }
                }
                Ok(())
            }
            StmtKind::Go(call) => self.lower_go(call, span),
            StmtKind::Defer(call) => self.lower_defer(call, span),
            StmtKind::Close(ch) => {
                let c = self.lower_value(ch)?;
                self.ctx().emit(Instr::Close { chan: c }, span);
                Ok(())
            }
            StmtKind::Panic(v) => {
                let op = self.lower_value(v)?;
                self.ctx().emit(Instr::Panic { value: op }, span);
                self.ctx().terminate(Terminator::Unreachable, span);
                Ok(())
            }
            StmtKind::Return(vals) => {
                let mut ops = Vec::with_capacity(vals.len());
                for v in vals {
                    ops.push(self.lower_value(v)?);
                }
                self.ctx().terminate(Terminator::Return(ops), span);
                Ok(())
            }
            StmtKind::If { cond, then, els } => self.lower_if(cond, then, els.as_deref(), span),
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => self.lower_for(init.as_deref(), cond.as_ref(), post.as_deref(), body, span),
            StmtKind::ForRange { var, over, body } => {
                self.lower_for_range(var.as_deref(), over, body, span)
            }
            StmtKind::Select(cases) => self.lower_select(cases, span),
            StmtKind::Break => {
                let target = self.ctx().break_targets.last().copied();
                let target =
                    target.ok_or_else(|| self.err_plain("`break` outside loop or select", span))?;
                self.ctx().terminate(Terminator::Jump(target), span);
                Ok(())
            }
            StmtKind::Continue => {
                let target = self.ctx().continue_targets.last().copied();
                let target =
                    target.ok_or_else(|| self.err_plain("`continue` outside loop", span))?;
                self.ctx().terminate(Terminator::Jump(target), span);
                Ok(())
            }
            StmtKind::IncDec { target, inc } => {
                let name = target
                    .as_ident()
                    .ok_or_else(|| self.err_plain("`++`/`--` requires a variable", span))?;
                let v = self
                    .resolve_var(name)
                    .ok_or_else(|| self.err_plain(format!("unknown variable `{name}`"), span))?;
                let op = if *inc {
                    golite::BinOp::Add
                } else {
                    golite::BinOp::Sub
                };
                self.ctx().emit(
                    Instr::BinOp {
                        dst: v,
                        op,
                        l: Operand::Var(v),
                        r: Operand::Const(ConstVal::Int(1)),
                    },
                    span,
                );
                Ok(())
            }
            StmtKind::Block(b) => self.lower_block(b),
        }
    }

    fn err_plain(&self, message: impl Into<String>, span: Span) -> LowerError {
        LowerError {
            message: message.into(),
            span,
        }
    }

    fn lower_define(
        &mut self,
        names: &'a [String],
        rhs: &'a Expr,
        span: Span,
    ) -> Result<(), LowerError> {
        // Multi-value forms first.
        if names.len() > 1 {
            match &rhs.unparen().kind {
                ExprKind::Recv(ch) => {
                    let (c, cty) = self.lower_expr(ch)?;
                    let elem = cty.chan_elem().cloned().unwrap_or_else(unknown_ty);
                    let dst = self.ctx().declare(&names[0], elem);
                    let ok = self.ctx().declare(&names[1], Type::Bool);
                    self.ctx().emit(
                        Instr::Recv {
                            dst: Some(dst),
                            ok: Some(ok),
                            chan: c,
                        },
                        span,
                    );
                    return Ok(());
                }
                ExprKind::Method { recv, name, args }
                    if recv.as_ident() == Some("context") && name == "WithCancel" =>
                {
                    // ctx, cancel := context.WithCancel(parent)
                    let _ = args; // parent context is independent in GoLite
                    let ctx_var = self.ctx().declare(&names[0], Type::Context);
                    self.ctx().emit(
                        Instr::MakeChan {
                            dst: ctx_var,
                            elem: Type::Unit,
                            cap: Operand::Const(ConstVal::Int(0)),
                        },
                        span,
                    );
                    let close_fn = self.helper("close");
                    let cancel_var = self.ctx().declare(&names[1], Type::Func(vec![], vec![]));
                    self.ctx().emit(
                        Instr::MakeClosure {
                            dst: cancel_var,
                            func: close_fn,
                            bound: vec![Operand::Var(ctx_var)],
                        },
                        span,
                    );
                    return Ok(());
                }
                ExprKind::Call { .. } | ExprKind::Method { .. } => {
                    let result_tys = self.call_result_types(rhs);
                    let dsts: Vec<Var> = names
                        .iter()
                        .enumerate()
                        .map(|(i, n)| {
                            let ty = result_tys.get(i).cloned().unwrap_or_else(unknown_ty);
                            self.ctx().declare(n, ty)
                        })
                        .collect();
                    self.lower_call_stmt(rhs, dsts)?;
                    return Ok(());
                }
                _ => {
                    return Err(
                        self.err("multi-value `:=` requires a call or channel receive", span)
                    )
                }
            }
        }

        // Single name. `make(chan ..)` lowers directly into the declared
        // variable so the creation site carries the source-level name.
        if let ExprKind::Make {
            ty: ty @ Type::Chan(_),
            cap,
        } = &rhs.unparen().kind
        {
            let cap_op = match cap {
                Some(c) => self.lower_value(c)?,
                None => Operand::Const(ConstVal::Int(0)),
            };
            let elem = ty.chan_elem().cloned().expect("channel type");
            let dst = self.ctx().declare(&names[0], ty.clone());
            self.ctx().emit(
                Instr::MakeChan {
                    dst,
                    elem,
                    cap: cap_op,
                },
                span,
            );
            return Ok(());
        }
        let (op, ty) = self.lower_expr(rhs)?;
        let dst = self.ctx().declare(&names[0], ty);
        self.ctx().emit(Instr::Copy { dst, src: op }, span);
        Ok(())
    }

    fn lower_assign(
        &mut self,
        lhs: &'a [Expr],
        op: ast::AssignOp,
        rhs: &'a Expr,
        span: Span,
    ) -> Result<(), LowerError> {
        if lhs.len() > 1 {
            // Multi-assign: rhs must be a call or receive.
            match &rhs.unparen().kind {
                ExprKind::Call { .. } | ExprKind::Method { .. } => {
                    let result_tys = self.call_result_types(rhs);
                    let tmps: Vec<Var> = (0..lhs.len())
                        .map(|i| {
                            let ty = result_tys.get(i).cloned().unwrap_or_else(unknown_ty);
                            self.ctx().fresh_var(format!("tmp{i}"), ty)
                        })
                        .collect();
                    self.lower_call_stmt(rhs, tmps.clone())?;
                    for (target, tmp) in lhs.iter().zip(tmps) {
                        self.store_into(target, Operand::Var(tmp), span)?;
                    }
                    return Ok(());
                }
                ExprKind::Recv(ch) => {
                    let (c, cty) = self.lower_expr(ch)?;
                    let elem = cty.chan_elem().cloned().unwrap_or_else(unknown_ty);
                    let dst = self.ctx().fresh_var("recv", elem);
                    let ok = self.ctx().fresh_var("ok", Type::Bool);
                    self.ctx().emit(
                        Instr::Recv {
                            dst: Some(dst),
                            ok: Some(ok),
                            chan: c,
                        },
                        span,
                    );
                    self.store_into(&lhs[0], Operand::Var(dst), span)?;
                    self.store_into(&lhs[1], Operand::Var(ok), span)?;
                    return Ok(());
                }
                _ => return Err(self.err("multi-assign requires a call on the right", span)),
            }
        }

        let target = &lhs[0];
        match op {
            ast::AssignOp::Assign => {
                let value = self.lower_value(rhs)?;
                self.store_into(target, value, span)
            }
            ast::AssignOp::AddAssign | ast::AssignOp::SubAssign => {
                let bin = if matches!(op, ast::AssignOp::AddAssign) {
                    golite::BinOp::Add
                } else {
                    golite::BinOp::Sub
                };
                let (cur, ty) = self.lower_expr(target)?;
                let value = self.lower_value(rhs)?;
                let tmp = self.ctx().fresh_var("tmp", ty);
                self.ctx().emit(
                    Instr::BinOp {
                        dst: tmp,
                        op: bin,
                        l: cur,
                        r: value,
                    },
                    span,
                );
                self.store_into(target, Operand::Var(tmp), span)
            }
        }
    }

    /// Stores `value` into an lvalue expression.
    fn store_into(
        &mut self,
        target: &'a Expr,
        value: Operand,
        span: Span,
    ) -> Result<(), LowerError> {
        match &target.unparen().kind {
            ExprKind::Ident(name) if name == "_" => Ok(()),
            ExprKind::Ident(name) => {
                if let Some(v) = self.resolve_var(name) {
                    self.ctx().emit(Instr::Copy { dst: v, src: value }, span);
                    Ok(())
                } else if let Some(&gid) = self.global_ids.get(name.as_str()) {
                    self.ctx().emit(
                        Instr::StoreGlobal {
                            global: gid,
                            src: value,
                        },
                        span,
                    );
                    Ok(())
                } else {
                    Err(self.err(format!("assignment to undeclared variable `{name}`"), span))
                }
            }
            ExprKind::Field { obj, name } => {
                let o = self.lower_value(obj)?;
                self.ctx().emit(
                    Instr::FieldStore {
                        obj: o,
                        field: Symbol::intern(name),
                        value,
                    },
                    span,
                );
                Ok(())
            }
            ExprKind::Index { obj, index } => {
                let o = self.lower_value(obj)?;
                let i = self.lower_value(index)?;
                self.ctx().emit(
                    Instr::IndexStore {
                        obj: o,
                        index: i,
                        value,
                    },
                    span,
                );
                Ok(())
            }
            ExprKind::Unary(golite::UnOp::Deref, inner) => {
                // `*p = v` — GoLite pointers to scalars are transparent.
                self.store_into(inner, value, span)
            }
            _ => Err(self.err("unsupported assignment target", span)),
        }
    }

    fn lower_if(
        &mut self,
        cond: &'a Expr,
        then: &'a golite::Block,
        els: Option<&'a Stmt>,
        span: Span,
    ) -> Result<(), LowerError> {
        let c = self.lower_value(cond)?;
        let then_b = self.ctx().new_block();
        let else_b = self.ctx().new_block();
        let join = self.ctx().new_block();
        self.ctx().terminate(
            Terminator::Branch {
                cond: c,
                then: then_b,
                els: else_b,
            },
            span,
        );

        self.ctx().switch_to(then_b);
        self.lower_block(then)?;
        self.ctx().terminate(Terminator::Jump(join), span);

        self.ctx().switch_to(else_b);
        if let Some(els) = els {
            self.lower_stmt(els)?;
        }
        self.ctx().terminate(Terminator::Jump(join), span);

        self.ctx().switch_to(join);
        Ok(())
    }

    fn lower_for(
        &mut self,
        init: Option<&'a Stmt>,
        cond: Option<&'a Expr>,
        post: Option<&'a Stmt>,
        body: &'a golite::Block,
        span: Span,
    ) -> Result<(), LowerError> {
        self.ctx().scopes.push(HashMap::new());
        if let Some(init) = init {
            self.lower_stmt(init)?;
        }
        let head = self.ctx().new_block();
        let body_b = self.ctx().new_block();
        let post_b = self.ctx().new_block();
        let exit = self.ctx().new_block();

        self.ctx().terminate(Terminator::Jump(head), span);
        self.ctx().switch_to(head);
        match cond {
            Some(cond) => {
                let c = self.lower_value(cond)?;
                self.ctx().terminate(
                    Terminator::Branch {
                        cond: c,
                        then: body_b,
                        els: exit,
                    },
                    span,
                );
            }
            None => self.ctx().terminate(Terminator::Jump(body_b), span),
        }

        self.ctx().switch_to(body_b);
        self.ctx().break_targets.push(exit);
        self.ctx().continue_targets.push(post_b);
        self.lower_block(body)?;
        self.ctx().break_targets.pop();
        self.ctx().continue_targets.pop();
        self.ctx().terminate(Terminator::Jump(post_b), span);

        self.ctx().switch_to(post_b);
        if let Some(post) = post {
            self.lower_stmt(post)?;
        }
        self.ctx().terminate(Terminator::Jump(head), span);

        self.ctx().switch_to(exit);
        self.ctx().scopes.pop();
        Ok(())
    }

    fn lower_for_range(
        &mut self,
        var: Option<&'a str>,
        over: &'a Expr,
        body: &'a golite::Block,
        span: Span,
    ) -> Result<(), LowerError> {
        let (over_op, over_ty) = self.lower_expr(over)?;
        self.ctx().scopes.push(HashMap::new());
        match over_ty {
            Type::Chan(elem) => {
                // for v := range ch  ⇒  loop { v, ok := <-ch; if !ok break }
                let head = self.ctx().new_block();
                let body_b = self.ctx().new_block();
                let exit = self.ctx().new_block();
                self.ctx().terminate(Terminator::Jump(head), span);
                self.ctx().switch_to(head);
                let dst = var.map(|v| self.ctx().declare(v, (*elem).clone()));
                let ok = self.ctx().fresh_var("ok", Type::Bool);
                self.ctx().emit(
                    Instr::Recv {
                        dst,
                        ok: Some(ok),
                        chan: over_op,
                    },
                    span,
                );
                self.ctx().terminate(
                    Terminator::Branch {
                        cond: Operand::Var(ok),
                        then: body_b,
                        els: exit,
                    },
                    span,
                );
                self.ctx().switch_to(body_b);
                self.ctx().break_targets.push(exit);
                self.ctx().continue_targets.push(head);
                self.lower_block(body)?;
                self.ctx().break_targets.pop();
                self.ctx().continue_targets.pop();
                self.ctx().terminate(Terminator::Jump(head), span);
                self.ctx().switch_to(exit);
            }
            Type::Slice(elem) => {
                // for i := range s — iterate indices; bind element if named.
                let idx = self.ctx().fresh_var("i", Type::Int);
                self.ctx().emit(
                    Instr::Const {
                        dst: idx,
                        value: ConstVal::Int(0),
                    },
                    span,
                );
                let len = self.ctx().fresh_var("len", Type::Int);
                self.ctx().emit(
                    Instr::Len {
                        dst: len,
                        obj: over_op.clone(),
                    },
                    span,
                );
                if let Some(v) = var {
                    // In GoLite `for v := range s` binds the *index* like Go.
                    let user = self.ctx().declare(v, Type::Int);
                    let _ = elem;
                    self.range_int_loop(idx, Operand::Var(len), Some(user), body, span)?;
                } else {
                    self.range_int_loop(idx, Operand::Var(len), None, body, span)?;
                }
            }
            _ => {
                // for i := range n — integer range (Go 1.22).
                let idx = self.ctx().fresh_var("i", Type::Int);
                self.ctx().emit(
                    Instr::Const {
                        dst: idx,
                        value: ConstVal::Int(0),
                    },
                    span,
                );
                let user = var.map(|v| self.ctx().declare(v, Type::Int));
                self.range_int_loop(idx, over_op, user, body, span)?;
            }
        }
        self.ctx().scopes.pop();
        Ok(())
    }

    /// Shared skeleton for integer-bounded range loops.
    fn range_int_loop(
        &mut self,
        idx: Var,
        bound: Operand,
        user: Option<Var>,
        body: &'a golite::Block,
        span: Span,
    ) -> Result<(), LowerError> {
        let head = self.ctx().new_block();
        let body_b = self.ctx().new_block();
        let post = self.ctx().new_block();
        let exit = self.ctx().new_block();
        self.ctx().terminate(Terminator::Jump(head), span);
        self.ctx().switch_to(head);
        let c = self.ctx().fresh_var("cond", Type::Bool);
        self.ctx().emit(
            Instr::BinOp {
                dst: c,
                op: golite::BinOp::Lt,
                l: Operand::Var(idx),
                r: bound,
            },
            span,
        );
        self.ctx().terminate(
            Terminator::Branch {
                cond: Operand::Var(c),
                then: body_b,
                els: exit,
            },
            span,
        );
        self.ctx().switch_to(body_b);
        if let Some(user) = user {
            self.ctx().emit(
                Instr::Copy {
                    dst: user,
                    src: Operand::Var(idx),
                },
                span,
            );
        }
        self.ctx().break_targets.push(exit);
        self.ctx().continue_targets.push(post);
        self.lower_block(body)?;
        self.ctx().break_targets.pop();
        self.ctx().continue_targets.pop();
        self.ctx().terminate(Terminator::Jump(post), span);
        self.ctx().switch_to(post);
        self.ctx().emit(
            Instr::BinOp {
                dst: idx,
                op: golite::BinOp::Add,
                l: Operand::Var(idx),
                r: Operand::Const(ConstVal::Int(1)),
            },
            span,
        );
        self.ctx().terminate(Terminator::Jump(head), span);
        self.ctx().switch_to(exit);
        Ok(())
    }

    fn lower_select(
        &mut self,
        cases: &'a [golite::SelectCase],
        span: Span,
    ) -> Result<(), LowerError> {
        let join = self.ctx().new_block();
        let mut ir_cases = Vec::new();
        let mut default_block = None;
        // Pre-plan: evaluate all channel operands and sent values first
        // (matching Go's evaluation order), creating case blocks.
        let mut planned: Vec<(usize, BlockId)> = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            let target = self.ctx().new_block();
            planned.push((i, target));
            match &case.kind {
                SelectCaseKind::Recv { value, ok, chan } => {
                    let (c, cty) = self.lower_expr(chan)?;
                    let elem = cty.chan_elem().cloned().unwrap_or_else(unknown_ty);
                    let dst = value
                        .as_deref()
                        .filter(|&v| v != "_")
                        .map(|v| self.ctx().declare(v, elem));
                    let okv = ok
                        .as_deref()
                        .filter(|&v| v != "_")
                        .map(|v| self.ctx().declare(v, Type::Bool));
                    ir_cases.push(SelectCase {
                        op: SelectOp::Recv {
                            dst,
                            ok: okv,
                            chan: c,
                        },
                        target,
                    });
                }
                SelectCaseKind::Send { chan, value } => {
                    let c = self.lower_value(chan)?;
                    let v = self.lower_value(value)?;
                    ir_cases.push(SelectCase {
                        op: SelectOp::Send { chan: c, value: v },
                        target,
                    });
                }
                SelectCaseKind::Default => {
                    default_block = Some(target);
                }
            }
        }
        self.ctx().terminate(
            Terminator::Select {
                cases: ir_cases,
                default: default_block,
            },
            span,
        );
        // Lower case bodies.
        for (i, target) in planned {
            self.ctx().switch_to(target);
            self.ctx().break_targets.push(join);
            self.lower_block(&cases[i].body)?;
            self.ctx().break_targets.pop();
            self.ctx().terminate(Terminator::Jump(join), span);
        }
        self.ctx().switch_to(join);
        Ok(())
    }

    fn lower_go(&mut self, call: &'a Expr, span: Span) -> Result<(), LowerError> {
        let (func, args) = self.lower_callee(call)?;
        self.ctx().emit(Instr::Go { func, args }, span);
        Ok(())
    }

    fn lower_defer(&mut self, call: &'a Expr, span: Span) -> Result<(), LowerError> {
        // Special-case deferred primitive operations so they go through
        // dedicated helper functions (visible to path enumeration).
        if let ExprKind::Method { recv, name, args } = &call.unparen().kind {
            if args.is_empty() {
                let recv_ty = self.expr_type(recv);
                let helper = match (recv_ty, name.as_str()) {
                    (Some(Type::Mutex), "Unlock") => Some("unlock"),
                    (Some(Type::RwMutex), "Unlock") => Some("unlock"),
                    (Some(Type::RwMutex), "RUnlock") => Some("runlock"),
                    (Some(Type::WaitGroup), "Done") => Some("wgdone"),
                    _ => None,
                };
                if let Some(h) = helper {
                    let r = self.lower_value(recv)?;
                    let fid = self.helper(h);
                    self.ctx().emit(
                        Instr::DeferCall {
                            func: FuncRef::Static(fid),
                            args: vec![r],
                        },
                        span,
                    );
                    return Ok(());
                }
            }
        }
        if let ExprKind::Call { callee, args } = &call.unparen().kind {
            if callee.as_ident() == Some("close") && args.len() == 1 {
                let c = self.lower_value(&args[0])?;
                let fid = self.helper("close");
                self.ctx().emit(
                    Instr::DeferCall {
                        func: FuncRef::Static(fid),
                        args: vec![c],
                    },
                    span,
                );
                return Ok(());
            }
        }
        let (func, args) = self.lower_callee(call)?;
        self.ctx().emit(Instr::DeferCall { func, args }, span);
        Ok(())
    }

    /// Resolves a call expression into a `FuncRef` plus lowered arguments.
    fn lower_callee(&mut self, call: &'a Expr) -> Result<(FuncRef, Vec<Operand>), LowerError> {
        match &call.unparen().kind {
            ExprKind::Call { callee, args } => {
                let mut ops = Vec::with_capacity(args.len());
                for a in args {
                    ops.push(self.lower_value(a)?);
                }
                match &callee.unparen().kind {
                    ExprKind::Ident(name) => {
                        if let Some(v) = self.resolve_var(name) {
                            Ok((FuncRef::Dynamic(Operand::Var(v)), ops))
                        } else if let Some(sig) = self.sigs.get(name.as_str()) {
                            Ok((FuncRef::Static(sig.id), ops))
                        } else {
                            Ok((FuncRef::External(Symbol::intern(name)), ops))
                        }
                    }
                    ExprKind::Closure { .. } => {
                        let op = self.lower_value(callee)?;
                        Ok((FuncRef::Dynamic(op), ops))
                    }
                    _ => {
                        let op = self.lower_value(callee)?;
                        Ok((FuncRef::Dynamic(op), ops))
                    }
                }
            }
            ExprKind::Method { recv, name, args } => {
                // Method used in `go`/`defer` position that is not a
                // primitive op: treat as external.
                let mut ops = Vec::with_capacity(args.len());
                for a in args {
                    ops.push(self.lower_value(a)?);
                }
                let _ = recv;
                Ok((FuncRef::External(Symbol::intern(name)), ops))
            }
            _ => Err(self.err("expected call expression", call.span)),
        }
    }

    /// Lowers a call in statement position with the given result registers.
    fn lower_call_stmt(&mut self, call: &'a Expr, dsts: Vec<Var>) -> Result<(), LowerError> {
        let span = call.span;
        if let ExprKind::Method { .. } = &call.unparen().kind {
            // Primitive-method statements (mu.Lock() etc.) handled here.
            if self.try_lower_primitive_method(call, &dsts, span)? {
                return Ok(());
            }
        }
        let (func, args) = self.lower_callee(call)?;
        self.ctx().emit(Instr::Call { dsts, func, args }, span);
        Ok(())
    }

    /// Lowers method calls on sync primitives / std packages into dedicated
    /// instructions. Returns `Ok(true)` if the call was handled.
    fn try_lower_primitive_method(
        &mut self,
        call: &'a Expr,
        dsts: &[Var],
        span: Span,
    ) -> Result<bool, LowerError> {
        let ExprKind::Method { recv, name, args } = &call.unparen().kind else {
            return Ok(false);
        };

        // Package-qualified calls.
        if let Some(pkg) = recv.as_ident() {
            if self.resolve_var(pkg).is_none() && !self.global_ids.contains_key(pkg) {
                match (pkg, name.as_str()) {
                    ("time", "Sleep") => {
                        let n = self.lower_value(&args[0])?;
                        self.ctx().emit(Instr::Sleep { n }, span);
                        return Ok(true);
                    }
                    ("time", "After") => {
                        let n = self.lower_value(&args[0])?;
                        let dst = dsts.first().copied().unwrap_or_else(|| {
                            self.ctx()
                                .fresh_var("timer", Type::Chan(Box::new(Type::Unit)))
                        });
                        self.ctx().emit(
                            Instr::MakeChan {
                                dst,
                                elem: Type::Unit,
                                cap: Operand::Const(ConstVal::Int(1)),
                            },
                            span,
                        );
                        let fid = self.helper("timer");
                        self.ctx().emit(
                            Instr::Go {
                                func: FuncRef::Static(fid),
                                args: vec![Operand::Var(dst), n],
                            },
                            span,
                        );
                        return Ok(true);
                    }
                    ("fmt", "Println" | "Printf" | "Print") => {
                        let mut ops = Vec::new();
                        for a in args {
                            ops.push(self.lower_value(a)?);
                        }
                        self.ctx().emit(Instr::Print { args: ops }, span);
                        return Ok(true);
                    }
                    ("errors", "New") | ("fmt", "Errorf" | "Sprintf") => {
                        let s = self.lower_value(&args[0])?;
                        if let Some(&dst) = dsts.first() {
                            self.ctx().emit(Instr::Copy { dst, src: s }, span);
                        }
                        return Ok(true);
                    }
                    ("context", "Background" | "TODO") => {
                        if let Some(&dst) = dsts.first() {
                            self.ctx().emit(
                                Instr::MakeChan {
                                    dst,
                                    elem: Type::Unit,
                                    cap: Operand::Const(ConstVal::Int(0)),
                                },
                                span,
                            );
                        }
                        return Ok(true);
                    }
                    ("runtime", "Gosched") => {
                        self.ctx().emit(
                            Instr::Sleep {
                                n: Operand::Const(ConstVal::Int(0)),
                            },
                            span,
                        );
                        return Ok(true);
                    }
                    _ => return Ok(false), // unknown package call: external
                }
            }
        }

        // Value-receiver methods.
        let Some(recv_ty) = self.expr_type(recv) else {
            return Ok(false);
        };
        match (&recv_ty, name.as_str()) {
            (Type::Mutex, "Lock") | (Type::RwMutex, "Lock") => {
                let m = self.lower_value(recv)?;
                self.ctx().emit(
                    Instr::Lock {
                        mutex: m,
                        read: false,
                    },
                    span,
                );
                Ok(true)
            }
            (Type::Mutex, "Unlock") | (Type::RwMutex, "Unlock") => {
                let m = self.lower_value(recv)?;
                self.ctx().emit(
                    Instr::Unlock {
                        mutex: m,
                        read: false,
                    },
                    span,
                );
                Ok(true)
            }
            (Type::RwMutex, "RLock") => {
                let m = self.lower_value(recv)?;
                self.ctx().emit(
                    Instr::Lock {
                        mutex: m,
                        read: true,
                    },
                    span,
                );
                Ok(true)
            }
            (Type::RwMutex, "RUnlock") => {
                let m = self.lower_value(recv)?;
                self.ctx().emit(
                    Instr::Unlock {
                        mutex: m,
                        read: true,
                    },
                    span,
                );
                Ok(true)
            }
            (Type::WaitGroup, "Add") => {
                let wg = self.lower_value(recv)?;
                let n = self.lower_value(&args[0])?;
                self.ctx().emit(Instr::WgAdd { wg, n }, span);
                Ok(true)
            }
            (Type::WaitGroup, "Done") => {
                let wg = self.lower_value(recv)?;
                self.ctx().emit(Instr::WgDone { wg }, span);
                Ok(true)
            }
            (Type::WaitGroup, "Wait") => {
                let wg = self.lower_value(recv)?;
                self.ctx().emit(Instr::WgWait { wg }, span);
                Ok(true)
            }
            (Type::Cond, "Wait") => {
                let c = self.lower_value(recv)?;
                self.ctx().emit(Instr::CondWait { cond: c }, span);
                Ok(true)
            }
            (Type::Cond, "Signal") => {
                let c = self.lower_value(recv)?;
                self.ctx().emit(Instr::CondSignal { cond: c }, span);
                Ok(true)
            }
            (Type::Cond, "Broadcast") => {
                let c = self.lower_value(recv)?;
                self.ctx().emit(Instr::CondBroadcast { cond: c }, span);
                Ok(true)
            }
            (Type::Context, "Done") => {
                let c = self.lower_value(recv)?;
                if let Some(&dst) = dsts.first() {
                    self.ctx().emit(Instr::Copy { dst, src: c }, span);
                }
                Ok(true)
            }
            (Type::Context, "Err") => {
                if let Some(&dst) = dsts.first() {
                    self.ctx().emit(
                        Instr::Const {
                            dst,
                            value: ConstVal::Str("context canceled".into()),
                        },
                        span,
                    );
                }
                Ok(true)
            }
            (Type::Ptr(inner), _) if matches!(**inner, Type::TestingT) => match name.as_str() {
                "Fatal" | "Fatalf" | "FailNow" => {
                    self.ctx().emit(Instr::Fatal, span);
                    Ok(true)
                }
                "Error" | "Errorf" | "Log" | "Logf" | "Helper" | "Fail" => {
                    let mut ops = Vec::new();
                    for a in args {
                        ops.push(self.lower_value(a)?);
                    }
                    self.ctx().emit(Instr::Print { args: ops }, span);
                    Ok(true)
                }
                _ => Ok(false),
            },
            (Type::Ptr(inner), _) => {
                // Methods through pointers to primitives.
                let inner = (**inner).clone();
                if matches!(
                    inner,
                    Type::Mutex | Type::RwMutex | Type::WaitGroup | Type::Cond
                ) {
                    // Re-dispatch with the pointee type by faking the type.
                    return self.dispatch_ptr_primitive(recv, &inner, name, args, dsts, span);
                }
                Ok(false)
            }
            _ => Ok(false),
        }
    }

    fn dispatch_ptr_primitive(
        &mut self,
        recv: &'a Expr,
        inner: &Type,
        name: &str,
        args: &'a [Expr],
        _dsts: &[Var],
        span: Span,
    ) -> Result<bool, LowerError> {
        let m = self.lower_value(recv)?;
        match (inner, name) {
            (Type::Mutex | Type::RwMutex, "Lock") => {
                self.ctx().emit(
                    Instr::Lock {
                        mutex: m,
                        read: false,
                    },
                    span,
                );
                Ok(true)
            }
            (Type::Mutex | Type::RwMutex, "Unlock") => {
                self.ctx().emit(
                    Instr::Unlock {
                        mutex: m,
                        read: false,
                    },
                    span,
                );
                Ok(true)
            }
            (Type::RwMutex, "RLock") => {
                self.ctx().emit(
                    Instr::Lock {
                        mutex: m,
                        read: true,
                    },
                    span,
                );
                Ok(true)
            }
            (Type::RwMutex, "RUnlock") => {
                self.ctx().emit(
                    Instr::Unlock {
                        mutex: m,
                        read: true,
                    },
                    span,
                );
                Ok(true)
            }
            (Type::WaitGroup, "Add") => {
                let n = self.lower_value(&args[0])?;
                self.ctx().emit(Instr::WgAdd { wg: m, n }, span);
                Ok(true)
            }
            (Type::WaitGroup, "Done") => {
                self.ctx().emit(Instr::WgDone { wg: m }, span);
                Ok(true)
            }
            (Type::WaitGroup, "Wait") => {
                self.ctx().emit(Instr::WgWait { wg: m }, span);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    // -------------------------------------------------------- expressions

    /// Best-effort static type of an expression (no lowering side effects).
    fn expr_type(&mut self, e: &'a Expr) -> Option<Type> {
        match &e.unparen().kind {
            ExprKind::Ident(name) => {
                if let Some(v) = self.resolve_var(name) {
                    Some(self.var_ty(v).clone())
                } else {
                    self.global_ids
                        .get(name.as_str())
                        .map(|gid| self.globals[gid.0 as usize].ty.clone())
                }
            }
            ExprKind::Field { obj, name } => {
                let obj_ty = self.expr_type(obj)?;
                let struct_name = match obj_ty {
                    Type::Named(n) => n,
                    Type::Ptr(inner) => match *inner {
                        Type::Named(n) => n,
                        _ => return None,
                    },
                    _ => return None,
                };
                self.structs
                    .get(struct_name.as_str())?
                    .fields
                    .iter()
                    .find(|(f, _)| f == name)
                    .map(|(_, t)| t.clone())
            }
            ExprKind::Unary(golite::UnOp::Addr, inner) => {
                self.expr_type(inner).map(|t| Type::Ptr(Box::new(t)))
            }
            ExprKind::Unary(golite::UnOp::Deref, inner) => match self.expr_type(inner)? {
                Type::Ptr(t) => Some(*t),
                _ => None,
            },
            ExprKind::Make { ty, .. } => Some(ty.clone()),
            ExprKind::Recv(ch) => self.expr_type(ch)?.chan_elem().cloned(),
            ExprKind::Int(_) => Some(Type::Int),
            ExprKind::Bool(_) => Some(Type::Bool),
            ExprKind::Str(_) => Some(Type::String),
            ExprKind::UnitLit => Some(Type::Unit),
            ExprKind::Index { obj, .. } => match self.expr_type(obj)? {
                Type::Slice(t) => Some(*t),
                _ => None,
            },
            ExprKind::Composite { ty, .. } => Some(ty.clone()),
            _ => None,
        }
    }

    /// Result types of a call expression (for multi-value defines).
    fn call_result_types(&mut self, call: &'a Expr) -> Cow<'a, [Type]> {
        let ExprKind::Call { callee, .. } = &call.unparen().kind else {
            return Cow::Borrowed(&[]);
        };
        if let Some(name) = callee.as_ident() {
            match self.resolve_var(name) {
                None => {
                    if let Some(sig) = self.sigs.get(name) {
                        return Cow::Borrowed(sig.results);
                    }
                }
                Some(v) => {
                    if let Type::Func(_, results) = self.var_ty(v) {
                        return Cow::Owned(results.clone());
                    }
                }
            }
        }
        if let ExprKind::Closure { results, .. } = &callee.unparen().kind {
            return Cow::Borrowed(results);
        }
        Cow::Borrowed(&[])
    }

    /// Lowers an expression for its value alone: a variable read skips
    /// the type clone [`Lowerer::lower_expr`] returns with it.
    fn lower_value(&mut self, e: &'a Expr) -> Result<Operand, LowerError> {
        if let ExprKind::Ident(name) = &e.unparen().kind {
            if name != "_" {
                if let Some(v) = self.resolve_var(name) {
                    return Ok(Operand::Var(v));
                }
            }
        }
        Ok(self.lower_expr(e)?.0)
    }

    /// Lowers an expression to an operand plus its inferred type.
    fn lower_expr(&mut self, e: &'a Expr) -> Result<(Operand, Type), LowerError> {
        let span = e.span;
        match &e.unparen().kind {
            ExprKind::Int(v) => Ok((Operand::Const(ConstVal::Int(*v)), Type::Int)),
            ExprKind::Bool(b) => Ok((Operand::Const(ConstVal::Bool(*b)), Type::Bool)),
            ExprKind::Str(s) => Ok((Operand::Const(ConstVal::Str(s.clone())), Type::String)),
            ExprKind::Nil => Ok((Operand::Const(ConstVal::Nil), unknown_ty())),
            ExprKind::UnitLit => Ok((Operand::Const(ConstVal::Unit), Type::Unit)),
            ExprKind::Ident(name) => {
                if name == "_" {
                    return Ok((Operand::Const(ConstVal::Nil), unknown_ty()));
                }
                if let Some(v) = self.resolve_var(name) {
                    let ty = self.var_ty(v).clone();
                    return Ok((Operand::Var(v), ty));
                }
                if let Some(&gid) = self.global_ids.get(name.as_str()) {
                    let ty = self.globals[gid.0 as usize].ty.clone();
                    let dst = self.ctx().fresh_var(name, ty.clone());
                    self.ctx()
                        .emit(Instr::LoadGlobal { dst, global: gid }, span);
                    return Ok((Operand::Var(dst), ty));
                }
                if let Some(sig) = self.sigs.get(name.as_str()) {
                    let params = sig.params.iter().map(|p| p.ty.clone()).collect();
                    let ty = Type::Func(params, sig.results.to_vec());
                    return Ok((Operand::Const(ConstVal::Func(sig.id)), ty));
                }
                Err(self.err(format!("unknown identifier `{name}`"), span))
            }
            ExprKind::Unary(op, inner) => match op {
                golite::UnOp::Addr => {
                    // GoLite pointers to primitives/structs are transparent
                    // references: `&x` is `x`.
                    let (o, t) = self.lower_expr(inner)?;
                    Ok((o, Type::Ptr(Box::new(t))))
                }
                golite::UnOp::Deref => {
                    let (o, t) = self.lower_expr(inner)?;
                    let t = match t {
                        Type::Ptr(inner) => *inner,
                        other => other,
                    };
                    Ok((o, t))
                }
                golite::UnOp::Neg | golite::UnOp::Not => {
                    let (o, t) = self.lower_expr(inner)?;
                    let dst = self.ctx().fresh_var("tmp", t.clone());
                    self.ctx().emit(
                        Instr::UnOp {
                            dst,
                            op: *op,
                            src: o,
                        },
                        span,
                    );
                    Ok((Operand::Var(dst), t))
                }
            },
            ExprKind::Binary(op, l, r) => {
                let (lo, lt) = self.lower_expr(l)?;
                let ro = self.lower_value(r)?;
                let out_ty = match op {
                    golite::BinOp::Add
                    | golite::BinOp::Sub
                    | golite::BinOp::Mul
                    | golite::BinOp::Div
                    | golite::BinOp::Rem => lt,
                    _ => Type::Bool,
                };
                let dst = self.ctx().fresh_var("tmp", out_ty.clone());
                self.ctx().emit(
                    Instr::BinOp {
                        dst,
                        op: *op,
                        l: lo,
                        r: ro,
                    },
                    span,
                );
                Ok((Operand::Var(dst), out_ty))
            }
            ExprKind::Recv(ch) => {
                let (c, cty) = self.lower_expr(ch)?;
                let elem = cty.chan_elem().cloned().unwrap_or_else(unknown_ty);
                let dst = self.ctx().fresh_var("recv", elem.clone());
                self.ctx().emit(
                    Instr::Recv {
                        dst: Some(dst),
                        ok: None,
                        chan: c,
                    },
                    span,
                );
                Ok((Operand::Var(dst), elem))
            }
            ExprKind::Make { ty, cap } => match ty {
                Type::Chan(elem) => {
                    let cap_op = match cap {
                        Some(c) => self.lower_value(c)?,
                        None => Operand::Const(ConstVal::Int(0)),
                    };
                    let dst = self.ctx().fresh_var("ch", ty.clone());
                    self.ctx().emit(
                        Instr::MakeChan {
                            dst,
                            elem: (**elem).clone(),
                            cap: cap_op,
                        },
                        span,
                    );
                    Ok((Operand::Var(dst), ty.clone()))
                }
                Type::Slice(_) => {
                    let dst = self.ctx().fresh_var("slice", ty.clone());
                    self.ctx()
                        .emit(Instr::MakeSlice { dst, elems: vec![] }, span);
                    Ok((Operand::Var(dst), ty.clone()))
                }
                other => Err(self.err(format!("cannot make({other:?})"), span)),
            },
            ExprKind::Closure {
                params,
                results,
                body,
            } => {
                let fid = self.lower_closure(params, results, body, span)?;
                // Collect the bound operands recorded during closure lowering.
                let captures = self.funcs[fid.0 as usize]
                    .as_ref()
                    .expect("closure lowered")
                    .n_captures;
                let bound: Vec<Operand> = self.closure_bounds.remove(&fid).unwrap_or_default();
                debug_assert_eq!(bound.len(), captures);
                let ty = Type::Func(
                    params.iter().map(|p| p.ty.clone()).collect(),
                    results.clone(),
                );
                let dst = self.ctx().fresh_var("closure", ty.clone());
                self.ctx().emit(
                    Instr::MakeClosure {
                        dst,
                        func: fid,
                        bound,
                    },
                    span,
                );
                Ok((Operand::Var(dst), ty))
            }
            ExprKind::Index { obj, index } => {
                let (o, oty) = self.lower_expr(obj)?;
                let i = self.lower_value(index)?;
                let elem = match oty {
                    Type::Slice(t) => *t,
                    _ => unknown_ty(),
                };
                let dst = self.ctx().fresh_var("elem", elem.clone());
                self.ctx().emit(
                    Instr::IndexLoad {
                        dst,
                        obj: o,
                        index: i,
                    },
                    span,
                );
                Ok((Operand::Var(dst), elem))
            }
            ExprKind::Field { obj, name } => {
                let field_ty = self.expr_type(e).unwrap_or_else(unknown_ty);
                let o = self.lower_value(obj)?;
                let dst = self.ctx().fresh_var(name, field_ty.clone());
                self.ctx().emit(
                    Instr::FieldLoad {
                        dst,
                        obj: o,
                        field: Symbol::intern(name),
                    },
                    span,
                );
                Ok((Operand::Var(dst), field_ty))
            }
            ExprKind::Composite { ty, fields } => match ty {
                Type::Slice(elem) => {
                    let mut elems = Vec::new();
                    for (_, v) in fields {
                        elems.push(self.lower_value(v)?);
                    }
                    let dst = self.ctx().fresh_var("slice", ty.clone());
                    self.ctx().emit(Instr::MakeSlice { dst, elems }, span);
                    let _ = elem;
                    Ok((Operand::Var(dst), ty.clone()))
                }
                Type::Named(name) => {
                    let mut inits: Vec<(Symbol, Operand)> = Vec::new();
                    let decl_fields: &[(String, Type)] =
                        self.structs.get(name.as_str()).map_or(&[], |s| &s.fields);
                    for (i, (fname, v)) in fields.iter().enumerate() {
                        let op = self.lower_value(v)?;
                        let field = match fname.as_deref().or(decl_fields.get(i).map(|f| &*f.0)) {
                            Some(f) => Symbol::intern(f),
                            None => Symbol::intern(&format!("_{i}")),
                        };
                        inits.push((field, op));
                    }
                    let explicit: Vec<Symbol> = inits.iter().map(|(f, _)| *f).collect();
                    let prim_inits = self.primitive_field_inits(name, &explicit, span);
                    inits.extend(prim_inits);
                    let dst = self.ctx().fresh_var("obj", ty.clone());
                    self.ctx().emit(
                        Instr::MakeStruct {
                            dst,
                            name: Symbol::intern(name),
                            fields: inits,
                        },
                        span,
                    );
                    Ok((Operand::Var(dst), ty.clone()))
                }
                other => Err(self.err(format!("unsupported composite literal {other:?}"), span)),
            },
            ExprKind::Call { callee, .. } => {
                // Value-position call: single result.
                if callee.as_ident() == Some("len") {
                    if let ExprKind::Call { args, .. } = &e.unparen().kind {
                        let o = self.lower_value(&args[0])?;
                        let dst = self.ctx().fresh_var("len", Type::Int);
                        self.ctx().emit(Instr::Len { dst, obj: o }, span);
                        return Ok((Operand::Var(dst), Type::Int));
                    }
                }
                let results = self.call_result_types(e);
                let ty = results.first().cloned().unwrap_or_else(unknown_ty);
                let dst = self.ctx().fresh_var("ret", ty.clone());
                self.lower_call_stmt(e, vec![dst])?;
                Ok((Operand::Var(dst), ty))
            }
            ExprKind::Method { .. } => {
                let ty = self.method_result_type(e);
                let dst = self.ctx().fresh_var("ret", ty.clone());
                if !self.try_lower_primitive_method(e, &[dst], span)? {
                    let (func, args) = self.lower_callee(e)?;
                    self.ctx().emit(
                        Instr::Call {
                            dsts: vec![dst],
                            func,
                            args,
                        },
                        span,
                    );
                }
                Ok((Operand::Var(dst), ty))
            }
            ExprKind::Paren(_) => unreachable!("unparen applied"),
        }
    }

    fn method_result_type(&mut self, e: &'a Expr) -> Type {
        if let ExprKind::Method { recv, name, .. } = &e.unparen().kind {
            if recv.as_ident() == Some("context") {
                return Type::Context;
            }
            if recv.as_ident() == Some("time") && name == "After" {
                return Type::Chan(Box::new(Type::Unit));
            }
            if recv.as_ident() == Some("errors") || name == "Errorf" {
                return Type::Error;
            }
            if let Some(Type::Context) = self.expr_type(recv) {
                return match name.as_str() {
                    "Done" => Type::Chan(Box::new(Type::Unit)),
                    "Err" => Type::Error,
                    _ => unknown_ty(),
                };
            }
        }
        unknown_ty()
    }

    fn lower_closure(
        &mut self,
        params: &'a [golite::Param],
        results: &[Type],
        body: &'a golite::Block,
        span: Span,
    ) -> Result<FuncId, LowerError> {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(None);
        let outer_name = self.ctx().name;
        let n = self.closure_counter;
        self.closure_counter += 1;
        let name = Symbol::intern(&format!("{outer_name}$closure{n}"));
        let mut ctx = FuncCtx::new(name, id, true, span);
        ctx.results = results.to_vec();
        self.ctxs.push(ctx);
        for p in params {
            let v = self.ctx().declare(&p.name, p.ty.clone());
            self.ctx().params.push(v);
        }
        self.lower_block(body)?;
        self.ctx().terminate(Terminator::Return(vec![]), span);
        let ctx = self.ctxs.pop().expect("pushed above");
        // Record bound operands (parent vars of the captures) for the
        // MakeClosure in the enclosing function.
        let bound: Vec<Operand> = ctx.captured.iter().map(|&v| Operand::Var(v)).collect();
        self.closure_bounds.insert(id, bound);
        self.funcs[id.0 as usize] = Some(ctx.into_function());
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_ok(src: &str) -> Module {
        lower_source(src).unwrap_or_else(|e| panic!("lowering failed: {e}"))
    }

    #[test]
    fn lowers_figure1_shape() {
        let m = lower_ok(
            r#"
func Exec(ctx context.Context) error {
    outDone := make(chan error)
    go func() {
        outDone <- StdCopy()
    }()
    select {
    case err := <-outDone:
        return err
    case <-ctx.Done():
        return ctx.Err()
    }
}

func StdCopy() error {
    return nil
}
"#,
        );
        let exec = m.func_by_name("Exec").unwrap();
        // The closure was lifted.
        assert!(m.funcs.iter().any(|f| f.is_closure));
        // Entry block has MakeChan, MakeClosure, Go.
        let entry = exec.block(BlockId(0));
        assert!(entry
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::MakeChan { .. })));
        assert!(entry.instrs.iter().any(|i| matches!(i, Instr::Go { .. })));
        assert!(matches!(entry.term, Terminator::Select { .. }));
        // The closure captured outDone and sends on it.
        let closure = m.funcs.iter().find(|f| f.is_closure).unwrap();
        assert_eq!(closure.n_captures, 1);
        assert!(closure
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::Send { .. })));
    }

    #[test]
    fn mutex_methods_become_instrs() {
        let m = lower_ok("func f() {\n var mu sync.Mutex\n mu.Lock()\n mu.Unlock()\n}");
        let f = m.func_by_name("f").unwrap();
        let instrs: Vec<&Instr> = f.blocks.iter().flat_map(|b| &b.instrs).collect();
        assert!(instrs.iter().any(|i| matches!(i, Instr::MakeMutex { .. })));
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::Lock { read: false, .. })));
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::Unlock { read: false, .. })));
    }

    #[test]
    fn defer_unlock_uses_helper() {
        let m = lower_ok("func f() {\n var mu sync.Mutex\n mu.Lock()\n defer mu.Unlock()\n}");
        let f = m.func_by_name("f").unwrap();
        let has_defer = f.blocks.iter().flat_map(|b| &b.instrs).any(|i| {
            matches!(
                i,
                Instr::DeferCall {
                    func: FuncRef::Static(_),
                    ..
                }
            )
        });
        assert!(has_defer);
        assert!(m.funcs.iter().any(|f| f.name == "__unlock"));
    }

    #[test]
    fn defer_close_uses_helper() {
        let m = lower_ok("func f(ch chan int) {\n defer close(ch)\n}");
        assert!(m.funcs.iter().any(|f| f.name == "__close"));
    }

    #[test]
    fn select_lowering_produces_cases() {
        let m = lower_ok(
            "func f(a chan int, b chan int) {\n select {\n case v := <-a:\n  _ = v\n case b <- 1:\n default:\n }\n}",
        );
        let f = m.func_by_name("f").unwrap();
        let select = f
            .blocks
            .iter()
            .find_map(|b| match &b.term {
                Terminator::Select { cases, default } => Some((cases.clone(), *default)),
                _ => None,
            })
            .expect("select terminator");
        assert_eq!(select.0.len(), 2);
        assert!(select.1.is_some());
    }

    #[test]
    fn for_range_over_channel_desugars_to_comma_ok() {
        let m = lower_ok("func f(ch chan int) {\n for v := range ch {\n  _ = v\n }\n}");
        let f = m.func_by_name("f").unwrap();
        let has_ok_recv = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::Recv { ok: Some(_), .. }));
        assert!(has_ok_recv);
    }

    #[test]
    fn waitgroup_ops_lowered() {
        let m = lower_ok(
            "func f() {\n var wg sync.WaitGroup\n wg.Add(1)\n go func() {\n  wg.Done()\n }()\n wg.Wait()\n}",
        );
        let f = m.func_by_name("f").unwrap();
        let instrs: Vec<&Instr> = f.blocks.iter().flat_map(|b| &b.instrs).collect();
        assert!(instrs.iter().any(|i| matches!(i, Instr::WgAdd { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::WgWait { .. })));
        let closure = m.funcs.iter().find(|f| f.is_closure).unwrap();
        assert!(closure
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::WgDone { .. })));
    }

    #[test]
    fn context_with_cancel_desugars() {
        let m = lower_ok(
            "func f() {\n ctx, cancel := context.WithCancel(context.Background())\n defer cancel()\n <-ctx.Done()\n}",
        );
        let f = m.func_by_name("f").unwrap();
        let instrs: Vec<&Instr> = f.blocks.iter().flat_map(|b| &b.instrs).collect();
        assert!(instrs.iter().any(|i| matches!(i, Instr::MakeChan { .. })));
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::MakeClosure { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::Recv { .. })));
    }

    #[test]
    fn fatal_lowering() {
        let m = lower_ok("func TestX(t *testing.T) {\n t.Fatalf(\"boom\")\n}");
        let f = m.func_by_name("TestX").unwrap();
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::Fatal)));
    }

    #[test]
    fn globals_and_init() {
        let m = lower_ok("var count int = 3\nfunc f() int {\n return count\n}");
        assert_eq!(m.globals.len(), 1);
        assert!(m.func_by_name("__init").is_some());
        let f = m.func_by_name("f").unwrap();
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::LoadGlobal { .. })));
    }

    #[test]
    fn external_calls_are_opaque() {
        let m = lower_ok("func f() {\n DoSomething(1, 2)\n}");
        let f = m.func_by_name("f").unwrap();
        assert!(f.blocks.iter().flat_map(|b| &b.instrs).any(
            |i| matches!(i, Instr::Call { func: FuncRef::External(n), .. } if n == "DoSomething")
        ));
    }

    #[test]
    fn nested_closures_capture_transitively() {
        let m = lower_ok(
            "func f() {\n ch := make(chan int)\n go func() {\n  go func() {\n   ch <- 1\n  }()\n }()\n <-ch\n}",
        );
        let closures: Vec<&Function> = m.funcs.iter().filter(|f| f.is_closure).collect();
        assert_eq!(closures.len(), 2);
        for c in closures {
            assert_eq!(c.n_captures, 1, "each closure level captures ch");
        }
    }

    #[test]
    fn break_and_continue_in_loops() {
        let m = lower_ok(
            "func f(n int) {\n for i := 0; i < n; i++ {\n  if i == 2 {\n   continue\n  }\n  if i == 5 {\n   break\n  }\n }\n}",
        );
        assert!(m.func_by_name("f").is_some());
    }

    #[test]
    fn time_after_spawns_timer() {
        let m = lower_ok(
            "func f(ch chan int) {\n select {\n case <-ch:\n case <-time.After(100):\n }\n}",
        );
        assert!(m.funcs.iter().any(|f| f.name == "__timer"));
        let f = m.func_by_name("f").unwrap();
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::Go { .. })));
    }

    #[test]
    fn errors_on_unknown_identifier() {
        assert!(lower_source("func f() {\n x = 1\n}").is_err());
        assert!(lower_source("func f() {\n y := undefined_var\n}").is_err());
    }

    #[test]
    fn instr_count_is_positive() {
        let m = lower_ok("func main() {\n x := 1\n _ = x\n}");
        assert!(m.instr_count() > 0);
    }
}
