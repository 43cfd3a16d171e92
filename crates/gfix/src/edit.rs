//! Span-addressed AST editing.
//!
//! GFix synthesizes patches by cloning the parsed [`Program`], applying a
//! small number of span-addressed edits (replace / remove / insert-after a
//! statement, bump a `make(chan ..)` capacity), and reprinting. Spans come
//! from GCatch's bug reports, so edits land exactly on the statements the
//! detector blamed.

use golite::ast::*;
use golite::Span;

/// Allocates fresh [`NodeId`]s for synthesized nodes.
#[derive(Debug)]
pub struct IdGen {
    next: u32,
}

impl IdGen {
    /// Continues after the program's parser-assigned ids.
    pub fn new(prog: &Program) -> IdGen {
        IdGen {
            next: prog.next_node_id,
        }
    }

    /// Records the ids handed out so far in `prog`, so that a generator
    /// later built on `prog` continues after them.
    pub fn commit(self, prog: &mut Program) {
        prog.next_node_id = self.next;
    }

    /// A fresh id.
    pub fn id(&mut self) -> NodeId {
        let id = NodeId(self.next);
        self.next += 1;
        id
    }

    /// Builds an expression node.
    pub fn expr(&mut self, kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::synthetic(),
            id: self.id(),
        }
    }

    /// Builds a statement node.
    pub fn stmt(&mut self, kind: StmtKind) -> Stmt {
        Stmt {
            kind,
            span: Span::synthetic(),
            id: self.id(),
        }
    }
}

/// What to do with a matched statement.
enum Action {
    Remove,
    Replace(Vec<Stmt>),
    InsertAfter(Vec<Stmt>),
}

/// Applies `action` to the unique statement whose span equals `target`.
/// Returns `true` when a statement was found.
fn edit_stmt(prog: &mut Program, target: Span, action: Action) -> bool {
    fn walk_block(block: &mut Block, target: Span, action: &mut Option<Action>) -> bool {
        let mut i = 0;
        while i < block.stmts.len() {
            if block.stmts[i].span == target {
                // The walk stops at the first match, so the action is still
                // present here; a duplicate span (malformed input) simply
                // leaves later matches untouched.
                let Some(action) = action.take() else {
                    return false;
                };
                match action {
                    Action::Remove => {
                        block.stmts.remove(i);
                    }
                    Action::Replace(with) => {
                        block.stmts.splice(i..=i, with);
                    }
                    Action::InsertAfter(with) => {
                        let at = i + 1;
                        block.stmts.splice(at..at, with);
                    }
                }
                return true;
            }
            if walk_stmt(&mut block.stmts[i], target, action) {
                return true;
            }
            i += 1;
        }
        false
    }

    fn walk_stmt(stmt: &mut Stmt, target: Span, action: &mut Option<Action>) -> bool {
        match &mut stmt.kind {
            StmtKind::If { then, els, .. } => {
                if walk_block(then, target, action) {
                    return true;
                }
                if let Some(els) = els {
                    return walk_stmt(els, target, action);
                }
                false
            }
            StmtKind::For { body, .. } | StmtKind::ForRange { body, .. } => {
                walk_block(body, target, action)
            }
            StmtKind::Select(cases) => cases
                .iter_mut()
                .any(|c| walk_block(&mut c.body, target, action)),
            StmtKind::Block(b) => walk_block(b, target, action),
            // Statements carrying closures (go / defer / expression).
            StmtKind::Go(e) | StmtKind::Defer(e) | StmtKind::Expr(e) => {
                walk_expr(e, target, action)
            }
            StmtKind::Define { rhs, .. } | StmtKind::Assign { rhs, .. } => {
                walk_expr(rhs, target, action)
            }
            _ => false,
        }
    }

    fn walk_expr(expr: &mut Expr, target: Span, action: &mut Option<Action>) -> bool {
        match &mut expr.kind {
            ExprKind::Closure { body, .. } => walk_block(body, target, action),
            ExprKind::Call { callee, args } => {
                if walk_expr(callee, target, action) {
                    return true;
                }
                args.iter_mut().any(|a| walk_expr(a, target, action))
            }
            ExprKind::Method { recv, args, .. } => {
                if walk_expr(recv, target, action) {
                    return true;
                }
                args.iter_mut().any(|a| walk_expr(a, target, action))
            }
            ExprKind::Paren(inner) => walk_expr(inner, target, action),
            _ => false,
        }
    }

    let mut action = Some(action);
    for decl in &mut prog.decls {
        if let Decl::Func(f) = decl {
            if walk_block(&mut f.body, target, &mut action) {
                return true;
            }
        }
    }
    false
}

/// Removes the statement at `target`.
pub fn remove_stmt(prog: &mut Program, target: Span) -> bool {
    edit_stmt(prog, target, Action::Remove)
}

/// Replaces the statement at `target` with `with`.
pub fn replace_stmt(prog: &mut Program, target: Span, with: Vec<Stmt>) -> bool {
    edit_stmt(prog, target, Action::Replace(with))
}

/// Inserts `with` immediately after the statement at `target`.
pub fn insert_after(prog: &mut Program, target: Span, with: Vec<Stmt>) -> bool {
    edit_stmt(prog, target, Action::InsertAfter(with))
}

/// Sets the capacity of the `make(chan ..)` inside the statement at
/// `target` (Strategy I). Returns `true` on success.
pub fn set_make_cap(prog: &mut Program, target: Span, cap: i64, ids: &mut IdGen) -> bool {
    fn fix_expr(e: &mut Expr, ids: &mut IdGen) -> bool {
        match &mut e.kind {
            ExprKind::Make {
                ty: Type::Chan(_),
                cap: c,
            } => {
                *c = Some(Box::new(ids.expr(ExprKind::Int(1))));
                true
            }
            ExprKind::Paren(inner) => fix_expr(inner, ids),
            _ => false,
        }
    }
    let _ = cap; // capacity is always bumped 0 → 1 per the paper
    fn walk(block: &mut Block, target: Span, ids: &mut IdGen) -> bool {
        for stmt in &mut block.stmts {
            if stmt.span == target {
                match &mut stmt.kind {
                    StmtKind::Define { rhs, .. } => return fix_expr(rhs, ids),
                    StmtKind::VarDecl {
                        init: Some(rhs), ..
                    } => return fix_expr(rhs, ids),
                    StmtKind::Assign { rhs, .. } => return fix_expr(rhs, ids),
                    _ => return false,
                }
            }
            let found = match &mut stmt.kind {
                StmtKind::If { then, els, .. } => {
                    walk(then, target, ids)
                        || els.as_mut().is_some_and(|e| match &mut e.kind {
                            StmtKind::Block(b) => walk(b, target, ids),
                            StmtKind::If { .. } => false,
                            _ => false,
                        })
                }
                StmtKind::For { body, .. } | StmtKind::ForRange { body, .. } => {
                    walk(body, target, ids)
                }
                StmtKind::Select(cases) => cases.iter_mut().any(|c| walk(&mut c.body, target, ids)),
                StmtKind::Block(b) => walk(b, target, ids),
                _ => false,
            };
            if found {
                return true;
            }
        }
        false
    }
    for decl in &mut prog.decls {
        if let Decl::Func(f) = decl {
            if walk(&mut f.body, target, ids) {
                return true;
            }
        }
    }
    false
}

/// The function declaration (by name) containing the statement at `span`.
pub fn enclosing_func(prog: &Program, span: Span) -> Option<&FuncDecl> {
    prog.funcs()
        .find(|f| f.span.start <= span.start && span.end <= f.span.end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use golite::{parse, print_program};

    fn find_stmt_span(prog: &Program, needle: &str, src: &str) -> Span {
        // Locate the statement whose printed form contains `needle`.
        fn walk(block: &Block, needle: &str, out: &mut Option<Span>) {
            for stmt in &block.stmts {
                if golite::print_stmt(stmt).contains(needle) && out.is_none() {
                    *out = Some(stmt.span);
                }
                match &stmt.kind {
                    StmtKind::If { then, els, .. } => {
                        walk(then, needle, out);
                        if let Some(els) = els {
                            if let StmtKind::Block(b) = &els.kind {
                                walk(b, needle, out);
                            }
                        }
                    }
                    StmtKind::For { body, .. } | StmtKind::ForRange { body, .. } => {
                        walk(body, needle, out)
                    }
                    StmtKind::Select(cases) => {
                        for c in cases {
                            walk(&c.body, needle, out);
                        }
                    }
                    _ => {}
                }
            }
        }
        let _ = src;
        let mut out = None;
        for f in prog.funcs() {
            walk(&f.body, needle, &mut out);
        }
        out.expect("statement found")
    }

    #[test]
    fn bump_make_capacity() {
        let src = "func f() {\n ch := make(chan int)\n close(ch)\n}";
        let mut prog = parse(src).unwrap();
        let mut ids = IdGen::new(&prog);
        let span = find_stmt_span(&prog, "make(chan int)", src);
        assert!(set_make_cap(&mut prog, span, 1, &mut ids));
        let out = print_program(&prog);
        assert!(out.contains("make(chan int, 1)"), "printed:\n{out}");
    }

    #[test]
    fn remove_and_insert() {
        let src = "func f(ch chan int) {\n ch <- 1\n close(ch)\n}";
        let mut prog = parse(src).unwrap();
        let mut ids = IdGen::new(&prog);
        let send_span = find_stmt_span(&prog, "ch <- 1", src);
        assert!(remove_stmt(&mut prog, send_span));
        let close_span = find_stmt_span(&prog, "close(ch)", src);
        let chan = ids.expr(ExprKind::Ident("ch".into()));
        let value = ids.expr(ExprKind::Int(9));
        let extra = ids.stmt(StmtKind::Send { chan, value });
        assert!(insert_after(&mut prog, close_span, vec![extra]));
        let out = print_program(&prog);
        assert!(!out.contains("ch <- 1"));
        assert!(out.contains("ch <- 9"));
        let close_pos = out.find("close(ch)").unwrap();
        let send_pos = out.find("ch <- 9").unwrap();
        assert!(send_pos > close_pos);
    }

    #[test]
    fn replace_inside_closure() {
        let src = "func f() {\n ch := make(chan int)\n go func() {\n  ch <- 1\n }()\n <-ch\n}";
        let mut prog = parse(src).unwrap();
        let mut ids = IdGen::new(&prog);
        let send_span = find_closure_send(&prog);
        let repl = ids.stmt(StmtKind::Return(vec![]));
        assert!(replace_stmt(&mut prog, send_span, vec![repl]));
        let out = print_program(&prog);
        assert!(!out.contains("ch <- 1"), "printed:\n{out}");
        assert!(out.contains("return"));
    }

    fn find_closure_send(prog: &Program) -> Span {
        for f in prog.funcs() {
            for stmt in &f.body.stmts {
                if let StmtKind::Go(e) = &stmt.kind {
                    if let ExprKind::Call { callee, .. } = &e.kind {
                        if let ExprKind::Closure { body, .. } = &callee.kind {
                            for s in &body.stmts {
                                if matches!(s.kind, StmtKind::Send { .. }) {
                                    return s.span;
                                }
                            }
                        }
                    }
                }
            }
        }
        panic!("send in closure not found");
    }

    #[test]
    fn enclosing_func_lookup() {
        let src = "func a() {\n x := 1\n _ = x\n}\nfunc b() {\n y := 2\n _ = y\n}";
        let prog = parse(src).unwrap();
        let span = find_stmt_span(&prog, "y := 2", src);
        assert_eq!(enclosing_func(&prog, span).unwrap().name, "b");
    }
}
