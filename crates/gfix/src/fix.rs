//! The GFix dispatcher and the three fixing strategies (§4 of the paper).
//!
//! GFix handles BMOC bugs involving two goroutines and one *local* channel
//! `c`: the parent goroutine Go-A fails to conduct `o1`, leaving the child
//! Go-B blocked forever at `o2`. The dispatcher attempts the strategies in
//! order of patch simplicity (§5.1):
//!
//! * **Strategy I** — single-sending bugs: Go-B's only operation on `c` is
//!   one send on an unbuffered channel → bump the buffer size to 1;
//! * **Strategy II** — missing-interaction bugs: Go-A skips `o1` on some
//!   exit (early `return`, `t.Fatal`) → `defer` the interaction right after
//!   `c`'s declaration and delete the original `o1`s;
//! * **Strategy III** — multiple-operations bugs: Go-B operates on `c`
//!   repeatedly (typically in a loop) → add a `stop` channel closed by a
//!   `defer` in Go-A and turn `o2` into a `select` with a stop case.

use crate::edit::{self, IdGen};
use gcatch::primitives::{OpKind, PrimId, Primitives, SyncOp};
use gcatch::report::{BugKind, BugReport};
use golite::ast::*;
use golite::{print_program, Span};
use golite_ir::alias::{AbstractObject, Analysis, CallKind};
use golite_ir::dom::Dominators;
use golite_ir::ir::{self as ir, FuncId, Instr, Loc, Module, Operand};
use std::borrow::Cow;
use std::collections::HashSet;
use std::rc::Rc;

/// Which strategy produced a patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strategy {
    /// Increase buffer size (§4.2).
    IncreaseBuffer,
    /// Defer the channel operation (§4.3).
    DeferOperation,
    /// Add a stop channel (§4.4).
    AddStopChannel,
}

impl Strategy {
    /// Short label matching Table 1 ("S.-I" etc.).
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::IncreaseBuffer => "S-I",
            Strategy::DeferOperation => "S-II",
            Strategy::AddStopChannel => "S-III",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A synthesized patch.
#[derive(Debug, Clone)]
pub struct Patch {
    /// The strategy used.
    pub strategy: Strategy,
    /// Human-readable summary of the transformation.
    pub description: String,
    /// Canonically printed program the patch applies to: the parsed
    /// program, or the result of the patches [`GFix::apply`] applied.
    pub before: String,
    /// Canonically printed patched program.
    pub after: String,
    /// Changed lines of code (added + removed), the §5.3 readability metric.
    pub changed_lines: usize,
    /// The buggy channel's variable name.
    pub primitive_name: String,
}

/// A patch before it is applied: the [`Patch`] together with the patched
/// program it was printed from. [`GFix::apply`] makes that program the one
/// later patches build on; a draft that is not applied drops it.
#[derive(Debug)]
pub struct Draft {
    /// The patch itself.
    pub patch: Patch,
    /// The IR functions holding the statements the patch changes: the
    /// channel's creating function, plus the child closure for Strategy
    /// III.
    pub edited: Vec<FuncId>,
    program: Program,
}

/// Why GFix declined to fix a bug (§5.3 lists the four reasons).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The report is not a channel-only BMOC bug.
    NotBmocChannel,
    /// The blocking goroutine is the parent, not a child.
    BlockedParent,
    /// Instructions after `o2` have side effects beyond Go-B.
    SideEffectsAfterO2,
    /// `o1` is a receive whose value is used.
    O1ValueUsed,
    /// The bug involves zero or more than one child goroutine, a non-local
    /// channel, or an otherwise unsupported shape.
    UnsupportedShape,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Rejection::NotBmocChannel => "not a channel-only BMOC bug",
            Rejection::BlockedParent => "the blocked goroutine is the parent",
            Rejection::SideEffectsAfterO2 => "side effects after o2",
            Rejection::O1ValueUsed => "o1 receives a value that is used",
            Rejection::UnsupportedShape => "unsupported bug shape",
        };
        f.write_str(s)
    }
}

/// The GFix fixing system bound to one program.
pub struct GFix<'a> {
    /// The working program patches build on: the parsed program until
    /// [`GFix::apply`] replaces it with an applied patch's result.
    prog: Cow<'a, Program>,
    module: &'a Module,
    analysis: &'a Analysis<'a>,
    prims: &'a Primitives,
    /// Memoized channel-locality verdicts (a full-module scan each).
    locality: std::cell::RefCell<std::collections::HashMap<PrimId, bool>>,
    /// The canonically printed working program (shared by every patch).
    printed: std::cell::RefCell<Option<Rc<String>>>,
}

impl<'a> GFix<'a> {
    /// Binds GFix to a parsed program, its IR, and GCatch's analyses.
    pub fn new(
        prog: &'a Program,
        module: &'a Module,
        analysis: &'a Analysis<'a>,
        prims: &'a Primitives,
    ) -> GFix<'a> {
        GFix {
            prog: Cow::Borrowed(prog),
            module,
            analysis,
            prims,
            locality: Default::default(),
            printed: Default::default(),
        }
    }

    /// The printed working program, computed once per working program.
    fn printed_working(&self) -> Rc<String> {
        if let Some(p) = self.printed.borrow().as_ref() {
            return p.clone();
        }
        let p = Rc::new(print_program(&self.prog));
        *self.printed.borrow_mut() = Some(p.clone());
        p
    }

    /// Attempts to patch one detected bug, trying Strategy I, then II, then
    /// III (the dispatcher configuration of §5.1).
    ///
    /// # Errors
    ///
    /// Returns the [`Rejection`] of the *last* applicable strategy when none
    /// succeeds.
    pub fn fix(&self, bug: &BugReport) -> Result<Patch, Rejection> {
        self.fix_annotated(bug).0
    }

    /// [`GFix::fix`], additionally returning the labels of every strategy
    /// attempted, in dispatch order (for fix-iteration trace spans). A bug
    /// rejected by classification attempts no strategy.
    pub fn fix_annotated(&self, bug: &BugReport) -> (Result<Patch, Rejection>, Vec<&'static str>) {
        let (result, attempted) = self.draft_annotated(bug);
        (result.map(|draft| draft.patch), attempted)
    }

    /// [`GFix::fix_annotated`], returning the patch as a [`Draft`] that
    /// [`GFix::apply`] can build on.
    pub fn draft_annotated(
        &self,
        bug: &BugReport,
    ) -> (Result<Draft, Rejection>, Vec<&'static str>) {
        let mut attempted = Vec::new();
        let ctx = match self.classify(bug) {
            Ok(ctx) => ctx,
            Err(r) => return (Err(r), attempted),
        };
        let mut most_specific = Rejection::UnsupportedShape;
        for strategy in [
            Strategy::IncreaseBuffer,
            Strategy::DeferOperation,
            Strategy::AddStopChannel,
        ] {
            attempted.push(strategy.label());
            match self.try_strategy(strategy, &ctx) {
                Ok(draft) => return (Ok(draft), attempted),
                // Keep the most informative decline reason across strategies
                // (the generic shape mismatch is the least informative).
                Err(r) if r != Rejection::UnsupportedShape => most_specific = r,
                Err(_) => {}
            }
        }
        (Err(most_specific), attempted)
    }

    /// Makes `draft`'s patched program the working program, so later
    /// patches build on it, and returns the patch.
    ///
    /// Reports stay addressed by their spans in the parsed program. A
    /// draft edits only the functions in [`Draft::edited`], so the spans
    /// of every other function stay valid; a caller must not fix a report
    /// whose channel an applied patch's edited functions influence
    /// (`gcatch::disentangle::influences`).
    pub fn apply(&mut self, draft: Draft) -> Patch {
        *self.printed.get_mut() = Some(Rc::new(draft.patch.after.clone()));
        self.prog = Cow::Owned(draft.program);
        draft.patch
    }

    // ---------------------------------------------------------- dispatcher

    fn classify(&self, bug: &BugReport) -> Result<BugCtx, Rejection> {
        if bug.kind != BugKind::BmocChannel {
            return Err(Rejection::NotBmocChannel);
        }
        if bug.ops.len() != 1 {
            return Err(Rejection::UnsupportedShape);
        }
        let site = bug.primitive.ok_or(Rejection::UnsupportedShape)?;
        let chan = self
            .prims
            .by_site(site)
            .ok_or(Rejection::UnsupportedShape)?;
        let parent_func = site.func;
        if self.module.func(parent_func).is_closure {
            return Err(Rejection::UnsupportedShape);
        }
        if !self.channel_is_local(chan.id) {
            return Err(Rejection::UnsupportedShape);
        }

        // Child goroutines created in the parent function that touch c.
        let mut children: Vec<(Loc, FuncId)> = Vec::new();
        for cs in self.analysis.calls_in(parent_func) {
            if !matches!(cs.kind, CallKind::Go) || cs.ambiguous {
                continue;
            }
            for &t in &cs.targets {
                let reach = self.analysis.reachable_from(t);
                let touches = self
                    .prims
                    .ops_of(chan.id)
                    .any(|op| reach.contains(&op.func));
                if touches {
                    children.push((cs.loc, t));
                }
            }
        }
        if children.len() != 1 {
            return Err(Rejection::UnsupportedShape);
        }
        let (go_site, child) = children[0];

        // The blocked operation o2 must belong to the child.
        let o2_loc = bug.ops[0].loc;
        let child_reach = self.analysis.reachable_from(child);
        if !child_reach.contains(&o2_loc.func) {
            return Err(Rejection::BlockedParent);
        }
        let o2 = self
            .prims
            .ops_of(chan.id)
            .find(|op| op.loc == o2_loc)
            .cloned()
            .ok_or(Rejection::UnsupportedShape)?;

        // Static operations on c by the child side and the parent side.
        let child_ops: Vec<SyncOp> = self
            .prims
            .ops_of(chan.id)
            .filter(|op| child_reach.contains(&op.func) && op.func != parent_func)
            .cloned()
            .collect();
        let parent_ops: Vec<SyncOp> = self
            .prims
            .ops_of(chan.id)
            .filter(|op| op.func == parent_func)
            .cloned()
            .collect();

        Ok(BugCtx {
            chan: chan.id,
            chan_site: site,
            chan_span: bug.primitive_span,
            chan_name: bug.primitive_name.clone(),
            parent_func,
            child,
            go_site,
            o2,
            child_ops,
            parent_ops,
            unbuffered: self.prims.all[chan.id.0].buffer_size() == Some(0),
        })
    }

    /// A channel is local when it never escapes through globals, struct
    /// fields, slices, or other channels. Memoized (full-module scan).
    fn channel_is_local(&self, c: PrimId) -> bool {
        if let Some(&cached) = self.locality.borrow().get(&c) {
            return cached;
        }
        let verdict = self.channel_is_local_uncached(c);
        self.locality.borrow_mut().insert(c, verdict);
        verdict
    }

    fn channel_is_local_uncached(&self, c: PrimId) -> bool {
        let site = self.prims.all[c.0].site;
        let escapes = |func: FuncId, op: &Operand| {
            self.analysis
                .operand_points_to(func, op)
                .iter()
                .any(|o| matches!(o, AbstractObject::Chan(l) if *l == site))
        };
        for f in &self.module.funcs {
            for block in &f.blocks {
                for instr in &block.instrs {
                    let escaped = match instr {
                        Instr::StoreGlobal { src, .. } => escapes(f.id, src),
                        Instr::FieldStore { value, .. } => escapes(f.id, value),
                        Instr::IndexStore { value, .. } => escapes(f.id, value),
                        Instr::Send { value, .. } => escapes(f.id, value),
                        Instr::MakeSlice { elems, .. } => elems.iter().any(|e| escapes(f.id, e)),
                        _ => false,
                    };
                    if escaped {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn try_strategy(&self, strategy: Strategy, ctx: &BugCtx) -> Result<Draft, Rejection> {
        match strategy {
            Strategy::IncreaseBuffer => self.strategy1(ctx),
            Strategy::DeferOperation => self.strategy2(ctx),
            Strategy::AddStopChannel => self.strategy3(ctx),
        }
    }

    // ---------------------------------------------------------- strategy I

    fn strategy1(&self, ctx: &BugCtx) -> Result<Draft, Rejection> {
        // Single-sending bug: o2 is the child's only op on c, a send, on an
        // unbuffered channel, and unblocking it has no side effects.
        if ctx.o2.kind != OpKind::Send || !ctx.unbuffered || ctx.o2.select_case.is_some() {
            return Err(Rejection::UnsupportedShape);
        }
        if ctx.child_ops.len() != 1 || self.in_loop(ctx.o2.loc) {
            return Err(Rejection::UnsupportedShape);
        }
        if self.has_side_effects_after(ctx, &ctx.o2, true) {
            return Err(Rejection::SideEffectsAfterO2);
        }
        let mut prog = Program::clone(&self.prog);
        let mut ids = IdGen::new(&prog);
        if !edit::set_make_cap(&mut prog, ctx.chan_span, 1, &mut ids) {
            return Err(Rejection::UnsupportedShape);
        }
        Ok(self.finish(
            Strategy::IncreaseBuffer,
            prog,
            ids,
            ctx,
            format!("increase {}'s buffer size from 0 to 1", ctx.chan_name),
        ))
    }

    // --------------------------------------------------------- strategy II

    fn strategy2(&self, ctx: &BugCtx) -> Result<Draft, Rejection> {
        // Missing-interaction bug: the parent can leave without executing
        // o1. Defer o1 right after c's declaration, removing the originals.
        if ctx.o2.select_case.is_some() {
            return Err(Rejection::UnsupportedShape);
        }
        if ctx.child_ops.len() != 1 || self.in_loop(ctx.o2.loc) {
            return Err(Rejection::UnsupportedShape);
        }
        if self.has_side_effects_after(ctx, &ctx.o2, true) {
            return Err(Rejection::SideEffectsAfterO2);
        }
        // o1 candidates: the parent's ops able to unblock o2.
        let o1s: Vec<&SyncOp> = ctx
            .parent_ops
            .iter()
            .filter(|op| match ctx.o2.kind {
                OpKind::Recv => matches!(op.kind, OpKind::Send | OpKind::Close),
                OpKind::Send => matches!(op.kind, OpKind::Recv),
                OpKind::Close => false,
            })
            .collect();
        if o1s.is_empty() || o1s.iter().any(|o| o.select_case.is_some()) {
            return Err(Rejection::UnsupportedShape);
        }
        let kinds: HashSet<OpKind> = o1s.iter().map(|o| o.kind).collect();
        if kinds.len() != 1 {
            return Err(Rejection::UnsupportedShape);
        }
        let Some(&o1_kind) = kinds.iter().next() else {
            return Err(Rejection::UnsupportedShape);
        };

        // Build the deferred replacement and check per-kind conditions.
        let mut prog = Program::clone(&self.prog);
        let mut ids = IdGen::new(&prog);
        let chan_ident = |ids: &mut IdGen| ids.expr(ExprKind::Ident(ctx.chan_name.clone()));
        let deferred: Stmt = match o1_kind {
            OpKind::Close => {
                let ch = chan_ident(&mut ids);
                let callee = ids.expr(ExprKind::Ident("close".into()));
                let call = ids.expr(ExprKind::Call {
                    callee: Box::new(callee),
                    args: vec![ch],
                });
                ids.stmt(StmtKind::Defer(call))
            }
            OpKind::Send => {
                // Every o1 must send the same constant.
                let mut values: Vec<&Expr> = Vec::new();
                for o1 in &o1s {
                    let v = self
                        .sent_value_ast(o1.span)
                        .ok_or(Rejection::UnsupportedShape)?;
                    values.push(v);
                }
                let first = values[0];
                if !is_constant_expr(first) || values.iter().any(|v| v.kind != first.kind) {
                    return Err(Rejection::UnsupportedShape);
                }
                let mut value = first.clone();
                value.id = ids.id();
                let ch = chan_ident(&mut ids);
                let send = ids.stmt(StmtKind::Send { chan: ch, value });
                let body = Block {
                    stmts: vec![send],
                    span: Span::synthetic(),
                };
                let closure = ids.expr(ExprKind::Closure {
                    params: vec![],
                    results: vec![],
                    body,
                });
                let call = ids.expr(ExprKind::Call {
                    callee: Box::new(closure),
                    args: vec![],
                });
                ids.stmt(StmtKind::Defer(call))
            }
            OpKind::Recv => {
                // Allowed only when the received value is discarded.
                if o1s.iter().any(|o| self.recv_value_used(o.loc)) {
                    return Err(Rejection::O1ValueUsed);
                }
                let ch = chan_ident(&mut ids);
                let recv = ids.expr(ExprKind::Recv(Box::new(ch)));
                let stmt = ids.stmt(StmtKind::Expr(recv));
                let body = Block {
                    stmts: vec![stmt],
                    span: Span::synthetic(),
                };
                let closure = ids.expr(ExprKind::Closure {
                    params: vec![],
                    results: vec![],
                    body,
                });
                let call = ids.expr(ExprKind::Call {
                    callee: Box::new(closure),
                    args: vec![],
                });
                ids.stmt(StmtKind::Defer(call))
            }
        };

        if !edit::insert_after(&mut prog, ctx.chan_span, vec![deferred]) {
            return Err(Rejection::UnsupportedShape);
        }
        for o1 in &o1s {
            if !edit::remove_stmt(&mut prog, o1.span) {
                return Err(Rejection::UnsupportedShape);
            }
        }
        Ok(self.finish(
            Strategy::DeferOperation,
            prog,
            ids,
            ctx,
            format!(
                "defer the parent's {} on {} so every exit performs it",
                match o1_kind {
                    OpKind::Close => "close",
                    OpKind::Send => "send",
                    OpKind::Recv => "receive",
                },
                ctx.chan_name
            ),
        ))
    }

    // -------------------------------------------------------- strategy III

    fn strategy3(&self, ctx: &BugCtx) -> Result<Draft, Rejection> {
        // Multiple-operations bug: replace the child's blocking send with a
        // select on a stop channel closed (deferred) by the parent.
        if ctx.o2.kind != OpKind::Send || ctx.o2.select_case.is_some() {
            return Err(Rejection::UnsupportedShape);
        }
        // o2 must be inside the goroutine-creating *function literal* (§4.4:
        // "Go-B conducts o2 in the function used to create Go-B") — the
        // synthesized stop channel is only visible there by capture.
        if ctx.o2.loc.func != ctx.child || !self.module.func(ctx.child).is_closure {
            return Err(Rejection::UnsupportedShape);
        }
        if self.has_side_effects_after(ctx, &ctx.o2, false) {
            return Err(Rejection::SideEffectsAfterO2);
        }
        let stop = self.fresh_name("stop");
        let mut prog = Program::clone(&self.prog);
        let mut ids = IdGen::new(&prog);

        // Parent: stop := make(chan struct{}); defer close(stop).
        let make = ids.expr(ExprKind::Make {
            ty: Type::Chan(Box::new(Type::Unit)),
            cap: None,
        });
        let decl = ids.stmt(StmtKind::Define {
            names: vec![stop.clone()],
            rhs: make,
        });
        let stop_ident = ids.expr(ExprKind::Ident(stop.clone()));
        let close_callee = ids.expr(ExprKind::Ident("close".into()));
        let close_call = ids.expr(ExprKind::Call {
            callee: Box::new(close_callee),
            args: vec![stop_ident],
        });
        let defer_close = ids.stmt(StmtKind::Defer(close_call));
        if !edit::insert_after(&mut prog, ctx.chan_span, vec![decl, defer_close]) {
            return Err(Rejection::UnsupportedShape);
        }

        // Child: replace `c <- v` with select { case c <- v: ; case <-stop: return }.
        let (chan_expr, value_expr) = self
            .send_stmt_parts(ctx.o2.span)
            .ok_or(Rejection::UnsupportedShape)?;
        let mut chan2 = chan_expr.clone();
        chan2.id = ids.id();
        let mut value2 = value_expr.clone();
        value2.id = ids.id();
        let stop_ident2 = ids.expr(ExprKind::Ident(stop.clone()));
        let ret = ids.stmt(StmtKind::Return(vec![]));
        let select = ids.stmt(StmtKind::Select(vec![
            SelectCase {
                kind: SelectCaseKind::Send {
                    chan: chan2,
                    value: value2,
                },
                body: Block {
                    stmts: vec![],
                    span: Span::synthetic(),
                },
                span: Span::synthetic(),
            },
            SelectCase {
                kind: SelectCaseKind::Recv {
                    value: None,
                    ok: None,
                    chan: stop_ident2,
                },
                body: Block {
                    stmts: vec![ret],
                    span: Span::synthetic(),
                },
                span: Span::synthetic(),
            },
        ]));
        if !edit::replace_stmt(&mut prog, ctx.o2.span, vec![select]) {
            return Err(Rejection::UnsupportedShape);
        }
        Ok(self.finish(
            Strategy::AddStopChannel,
            prog,
            ids,
            ctx,
            format!("add channel {stop}, defer closing it, and select on it at the child's send"),
        ))
    }

    // ----------------------------------------------------------- utilities

    fn finish(
        &self,
        strategy: Strategy,
        mut prog: Program,
        ids: IdGen,
        ctx: &BugCtx,
        what: String,
    ) -> Draft {
        ids.commit(&mut prog);
        let before = self.printed_working().as_ref().clone();
        let after = print_program(&prog);
        let changed_lines = golite::diff_lines(&before, &after);
        // Strategies I and II edit only the creating function; Strategy III
        // also rewrites the child closure's send.
        let mut edited = vec![ctx.parent_func];
        if strategy == Strategy::AddStopChannel {
            edited.push(ctx.child);
        }
        Draft {
            patch: Patch {
                strategy,
                description: what,
                before,
                after,
                changed_lines,
                primitive_name: ctx.chan_name.clone(),
            },
            edited,
            program: prog,
        }
    }

    /// Whether `loc`'s block sits on a CFG cycle of its function.
    fn in_loop(&self, loc: Loc) -> bool {
        let f = self.module.func(loc.func);
        let mut seen = HashSet::new();
        let mut stack: Vec<ir::BlockId> = f.block(loc.block).term.successors();
        while let Some(b) = stack.pop() {
            if b == loc.block {
                return true;
            }
            if seen.insert(b) {
                stack.extend(f.block(b).term.successors());
            }
        }
        false
    }

    /// Side-effect check for the code forward-reachable from `o2` without
    /// following back edges. With `strict` (Strategies I/II) any call is a
    /// side effect; Strategy III tolerates calls but not concurrency
    /// operations on other primitives or writes escaping Go-B.
    fn has_side_effects_after(&self, ctx: &BugCtx, o2: &SyncOp, strict: bool) -> bool {
        let f = self.module.func(o2.loc.func);
        let dom = Dominators::compute(f);
        let mut effect = false;
        let mut check = |func: FuncId, instr: &Instr| {
            let on_c = |op: &Operand| {
                self.analysis
                    .operand_points_to(func, op)
                    .iter()
                    .any(|o| matches!(o, AbstractObject::Chan(l) if *l == ctx.chan_site))
            };
            match instr {
                Instr::Send { chan, .. } | Instr::Recv { chan, .. } | Instr::Close { chan }
                    if !on_c(chan) =>
                {
                    effect = true;
                }
                Instr::Lock { .. }
                | Instr::Unlock { .. }
                | Instr::WgAdd { .. }
                | Instr::WgDone { .. }
                | Instr::WgWait { .. }
                | Instr::Go { .. }
                | Instr::StoreGlobal { .. }
                | Instr::FieldStore { .. }
                | Instr::IndexStore { .. }
                | Instr::Panic { .. } => effect = true,
                Instr::Call { .. } | Instr::DeferCall { .. } if strict => effect = true,
                _ => {}
            }
        };
        // Forward walk from just after o2, skipping back edges (edges whose
        // target dominates the source — loop repetitions are Go-B's own
        // continued operation, not new effects).
        let mut work: Vec<(ir::BlockId, usize)> = vec![(o2.loc.block, o2.loc.idx as usize + 1)];
        let mut visited: HashSet<ir::BlockId> = HashSet::new();
        while let Some((b, start)) = work.pop() {
            let blk = f.block(b);
            for instr in blk.instrs.iter().skip(start) {
                check(f.id, instr);
            }
            for succ in blk.term.successors() {
                if dom.dominates(succ, b) {
                    continue; // back edge
                }
                if visited.insert(succ) {
                    work.push((succ, 0));
                }
            }
        }
        effect
    }

    /// The AST value expression of the send statement at `span`.
    fn sent_value_ast(&self, span: Span) -> Option<&Expr> {
        self.find_stmt(span).and_then(|s| match &s.kind {
            StmtKind::Send { value, .. } => Some(value),
            _ => None,
        })
    }

    /// The (channel, value) parts of the send statement at `span`.
    fn send_stmt_parts(&self, span: Span) -> Option<(&Expr, &Expr)> {
        self.find_stmt(span).and_then(|s| match &s.kind {
            StmtKind::Send { chan, value } => Some((chan, value)),
            _ => None,
        })
    }

    /// Whether the receive at `loc` binds its value.
    fn recv_value_used(&self, loc: Loc) -> bool {
        match self.module.func(loc.func).instr_at(loc) {
            Some(Instr::Recv { dst, .. }) => dst.is_some(),
            _ => false,
        }
    }

    /// Finds the AST statement with exactly the given span.
    fn find_stmt(&self, span: Span) -> Option<&Stmt> {
        fn walk(block: &Block, span: Span) -> Option<&Stmt> {
            for stmt in &block.stmts {
                if stmt.span == span {
                    return Some(stmt);
                }
                let found = match &stmt.kind {
                    StmtKind::If { then, els, .. } => walk(then, span).or_else(|| {
                        els.as_deref().and_then(|e| match &e.kind {
                            StmtKind::Block(b) => walk(b, span),
                            StmtKind::If { .. } => walk_stmt(e, span),
                            _ => None,
                        })
                    }),
                    StmtKind::For { body, .. } | StmtKind::ForRange { body, .. } => {
                        walk(body, span)
                    }
                    StmtKind::Select(cases) => cases.iter().find_map(|c| walk(&c.body, span)),
                    StmtKind::Block(b) => walk(b, span),
                    StmtKind::Go(e) | StmtKind::Defer(e) | StmtKind::Expr(e) => walk_expr(e, span),
                    StmtKind::Define { rhs, .. } | StmtKind::Assign { rhs, .. } => {
                        walk_expr(rhs, span)
                    }
                    _ => None,
                };
                if found.is_some() {
                    return found;
                }
            }
            None
        }
        fn walk_stmt(stmt: &Stmt, span: Span) -> Option<&Stmt> {
            if let StmtKind::If { then, els, .. } = &stmt.kind {
                if let Some(s) = walk(then, span) {
                    return Some(s);
                }
                if let Some(els) = els {
                    return walk_stmt(els, span);
                }
            }
            None
        }
        fn walk_expr(e: &Expr, span: Span) -> Option<&Stmt> {
            match &e.kind {
                ExprKind::Closure { body, .. } => walk(body, span),
                ExprKind::Call { callee, args } => {
                    walk_expr(callee, span).or_else(|| args.iter().find_map(|a| walk_expr(a, span)))
                }
                ExprKind::Method { recv, args, .. } => {
                    walk_expr(recv, span).or_else(|| args.iter().find_map(|a| walk_expr(a, span)))
                }
                ExprKind::Paren(inner) => walk_expr(inner, span),
                _ => None,
            }
        }
        self.prog.funcs().find_map(|f| walk(&f.body, span))
    }

    /// A variable name not used anywhere in the program.
    fn fresh_name(&self, base: &str) -> String {
        let printed = self.printed_working();
        if !printed.contains(base) {
            return base.to_string();
        }
        for i in 2..=printed.len() as u64 + 2 {
            let cand = format!("{base}{i}");
            if !printed.contains(&cand) {
                return cand;
            }
        }
        // A suffix longer than the whole program cannot be a substring of
        // it, so this is fresh by construction.
        format!("{base}{}", "9".repeat(printed.len() + 1))
    }
}

/// Context assembled by the dispatcher for one fixable bug.
#[derive(Debug)]
struct BugCtx {
    #[allow(dead_code)] // retained for diagnostics
    chan: PrimId,
    chan_site: Loc,
    chan_span: Span,
    chan_name: String,
    parent_func: FuncId,
    child: FuncId,
    #[allow(dead_code)] // retained for diagnostics
    go_site: Loc,
    o2: SyncOp,
    child_ops: Vec<SyncOp>,
    parent_ops: Vec<SyncOp>,
    unbuffered: bool,
}

/// Whether an expression is a compile-time constant GFix may duplicate into
/// a deferred send.
fn is_constant_expr(e: &Expr) -> bool {
    matches!(
        e.unparen().kind,
        ExprKind::Int(_) | ExprKind::Str(_) | ExprKind::Bool(_) | ExprKind::Nil | ExprKind::UnitLit
    )
}
