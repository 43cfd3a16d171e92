//! Recursive-descent parser for GoLite.
//!
//! The grammar is the subset of Go that the GCatch/GFix analyses reason
//! about. Notable Go behaviors preserved here:
//!
//! * automatic semicolon insertion happens in the lexer;
//! * `<-` is not a binary operator, so `ch <- v` parses as a send statement
//!   and `<-ch` as a receive expression;
//! * composite literals are not allowed in `if`/`for` headers (Go's
//!   "composite literal ambiguity" rule), so `if x { ... }` always parses as
//!   a condition followed by a block.

use crate::ast::*;
use crate::lexer::{lex, string_value, LexError};
use crate::token::{Span, Token, TokenKind};

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Location of the offending token.
    pub span: Span,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

/// Parses a full GoLite source file.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error encountered.
///
/// # Examples
///
/// ```
/// let src = r#"
/// package main
///
/// func main() {
///     done := make(chan int, 1)
///     go func() {
///         done <- 1
///     }()
///     <-done
/// }
/// "#;
/// let prog = golite::parse(src)?;
/// assert!(prog.func("main").is_some());
/// # Ok::<(), golite::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        src,
        tokens,
        pos: 0,
        next_id: 0,
        no_composite: 0,
        depth: 0,
        stmt_bufs: Pool::default(),
        expr_bufs: Pool::default(),
        param_bufs: Pool::default(),
        case_bufs: Pool::default(),
        field_bufs: Pool::default(),
    };
    p.program()
}

/// Reusable buffers for one kind of list, one buffer per nesting level in
/// use. A list grows in a buffer, then moves into a `Vec` of exactly its
/// length ([`Pool::finish`]): no list pays for growth or keeps slack.
struct Pool<T>(Vec<Vec<T>>);

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool(Vec::new())
    }
}

impl<T> Pool<T> {
    fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Moves `buf`'s items into an exact-size `Vec` and keeps `buf`.
    fn finish(&mut self, mut buf: Vec<T>) -> Vec<T> {
        let mut list = Vec::with_capacity(buf.len());
        list.append(&mut buf);
        self.0.push(buf);
        list
    }
}

/// Tokens carry no text: the parser slices names and literals out of
/// `src` by span and allocates each identifier once, for its AST node.
///
/// The lists a node keeps (statements, arguments and returned values,
/// parameters, select cases, composite fields) are built in [`Pool`]
/// buffers and stored at their exact length. Growth slack was almost half
/// of the AST's memory (5.2 of 11.2 MB on the 960-channel probe), and the
/// AST sets the front end's peak.
struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Depth of contexts (if/for headers) where composite literals are banned.
    no_composite: u32,
    /// Current recursion depth of the nesting productions (expressions,
    /// blocks, types); capped at [`Parser::MAX_DEPTH`].
    depth: u32,
    stmt_bufs: Pool<Stmt>,
    expr_bufs: Pool<Expr>,
    param_bufs: Pool<Param>,
    case_bufs: Pool<SelectCase>,
    field_bufs: Pool<(Option<String>, Expr)>,
}

impl<'a> Parser<'a> {
    fn id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn peek(&self) -> TokenKind {
        self.tokens[self.pos].kind
    }

    fn peek_at(&self, off: usize) -> TokenKind {
        let i = (self.pos + off).min(self.tokens.len() - 1);
        self.tokens[i].kind
    }

    /// The source text of `tok`.
    fn text(&self, tok: Token) -> &'a str {
        tok.text(self.src)
    }

    /// `tok` as error messages print it: identifiers by name, integers
    /// by value, strings as the quoted value, everything else by kind.
    fn describe(&self, tok: Token) -> String {
        match tok.kind {
            TokenKind::Ident => self.text(tok).to_string(),
            TokenKind::Int => self.int_value(tok).to_string(),
            TokenKind::Str => format!("{:?}", string_value(self.text(tok))),
            kind => kind.to_string(),
        }
    }

    /// The current token, [`described`](Parser::describe).
    fn found(&self) -> String {
        self.describe(self.tokens[self.pos])
    }

    fn int_value(&self, tok: Token) -> i64 {
        self.text(tok)
            .parse()
            .expect("the lexer admits only literals that fit in an i64")
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected `{kind}`, found `{}`", self.found())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            span: self.span(),
        }
    }

    /// Hard cap on recursive-descent depth. Pathological nesting
    /// (`((((…))))`, `chan chan chan …`, thousand-deep blocks) gets a
    /// normal parse error at this depth instead of overflowing the stack,
    /// which no caller could contain. One nesting level costs the whole
    /// expression-precedence chain in stack frames, so the cap is sized
    /// for unoptimized builds on a 2 MiB thread stack (Rust's test-thread
    /// default) with room to spare.
    const MAX_DEPTH: u32 = 80;

    /// Enters one level of a nesting production, failing cleanly past
    /// [`Parser::MAX_DEPTH`]. Every `descend` is paired with a depth
    /// decrement in the guarded wrapper that called it.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth >= Self::MAX_DEPTH {
            return Err(self.err(format!(
                "nesting too deep (more than {} levels)",
                Self::MAX_DEPTH
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn skip_semis(&mut self) {
        while matches!(self.peek(), TokenKind::Semicolon) {
            self.bump();
        }
    }

    fn end_of_stmt(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            TokenKind::Semicolon => {
                self.bump();
                Ok(())
            }
            TokenKind::RBrace | TokenKind::Eof => Ok(()),
            _ => Err(self.err(format!(
                "expected end of statement, found `{}`",
                self.found()
            ))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.ident_text().map(str::to_string)
    }

    /// An identifier (or `_`), borrowed from the source.
    fn ident_text(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            TokenKind::Ident => {
                let tok = self.bump();
                Ok(self.text(tok))
            }
            TokenKind::Underscore => {
                self.bump();
                Ok("_")
            }
            _ => Err(self.err(format!("expected identifier, found `{}`", self.found()))),
        }
    }

    // ---------------------------------------------------------------- program

    fn program(&mut self) -> Result<Program, ParseError> {
        self.skip_semis();
        let mut package = "main".to_string();
        if self.eat(TokenKind::Package) {
            package = self.ident()?;
            self.end_of_stmt()?;
            self.skip_semis();
        }
        let mut imports = Vec::new();
        while matches!(self.peek(), TokenKind::Import) {
            self.bump();
            if self.eat(TokenKind::LParen) {
                self.skip_semis();
                while !self.eat(TokenKind::RParen) {
                    imports.push(self.import_path()?);
                    self.skip_semis();
                }
            } else {
                imports.push(self.import_path()?);
            }
            self.end_of_stmt()?;
            self.skip_semis();
        }

        let mut decls = Vec::new();
        loop {
            self.skip_semis();
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Func => decls.push(Decl::Func(self.func_decl()?)),
                TokenKind::Type => decls.push(Decl::Struct(self.struct_decl()?)),
                TokenKind::Var => {
                    let start = self.span();
                    self.bump();
                    let name = self.ident()?;
                    let ty = self.parse_type()?;
                    let init = if self.eat(TokenKind::Assign) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    let id = self.id();
                    let span = start.to(self.prev_span());
                    self.end_of_stmt()?;
                    decls.push(Decl::GlobalVar {
                        name,
                        ty,
                        init,
                        span,
                        id,
                    });
                }
                _ => {
                    return Err(self.err(format!("expected declaration, found `{}`", self.found())))
                }
            }
        }
        Ok(Program {
            package,
            imports,
            decls,
            next_node_id: self.next_id,
        })
    }

    /// One import path. A non-string is reported at the token after it.
    fn import_path(&mut self) -> Result<String, ParseError> {
        let tok = self.bump();
        match tok.kind {
            TokenKind::Str => Ok(string_value(self.text(tok))),
            _ => Err(self.err(format!(
                "expected import path, found `{}`",
                self.describe(tok)
            ))),
        }
    }

    fn struct_decl(&mut self) -> Result<StructDecl, ParseError> {
        let start = self.span();
        self.expect(TokenKind::Type)?;
        let name = self.ident()?;
        self.expect(TokenKind::Struct)?;
        self.expect(TokenKind::LBrace)?;
        self.skip_semis();
        let mut fields = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace) {
            let mut names = vec![self.ident()?];
            while self.eat(TokenKind::Comma) {
                names.push(self.ident()?);
            }
            let ty = self.parse_type()?;
            for n in names {
                fields.push((n, ty.clone()));
            }
            self.skip_semis();
        }
        self.expect(TokenKind::RBrace)?;
        let id = self.id();
        let span = start.to(self.prev_span());
        self.end_of_stmt()?;
        Ok(StructDecl {
            name,
            fields,
            span,
            id,
        })
    }

    fn func_decl(&mut self) -> Result<FuncDecl, ParseError> {
        let start = self.span();
        self.expect(TokenKind::Func)?;
        let name = self.ident()?;
        let params = self.param_list()?;
        let results = self.result_types()?;
        let body = self.block()?;
        let id = self.id();
        let span = start.to(body.span);
        Ok(FuncDecl {
            name,
            params,
            results,
            body,
            span,
            id,
        })
    }

    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect(TokenKind::LParen)?;
        if self.eat(TokenKind::RParen) {
            return Ok(Vec::new());
        }
        let mut params = self.param_bufs.take();
        loop {
            // Collect a run of names sharing one type: `a, b int`.
            let mut names = vec![self.ident()?];
            while self.eat(TokenKind::Comma) {
                names.push(self.ident()?);
            }
            let ty = self.parse_type()?;
            for n in names {
                params.push(Param {
                    name: n,
                    ty: ty.clone(),
                });
            }
            if self.eat(TokenKind::Comma) {
                continue;
            }
            self.expect(TokenKind::RParen)?;
            break;
        }
        Ok(self.param_bufs.finish(params))
    }

    fn result_types(&mut self) -> Result<Vec<Type>, ParseError> {
        if matches!(self.peek(), TokenKind::LBrace | TokenKind::Semicolon) {
            return Ok(Vec::new());
        }
        if self.eat(TokenKind::LParen) {
            let mut tys = Vec::new();
            if !self.eat(TokenKind::RParen) {
                loop {
                    // Allow optional names in result lists: `(n int, err error)`.
                    if self.peek() == TokenKind::Ident
                        && matches!(
                            self.peek_at(1),
                            TokenKind::Ident
                                | TokenKind::Chan
                                | TokenKind::Star
                                | TokenKind::LBracket
                                | TokenKind::Func
                                | TokenKind::Struct
                        )
                    {
                        self.bump(); // discard the result name
                    }
                    tys.push(self.parse_type()?);
                    if self.eat(TokenKind::Comma) {
                        continue;
                    }
                    self.expect(TokenKind::RParen)?;
                    break;
                }
            }
            Ok(tys)
        } else {
            Ok(vec![self.parse_type()?])
        }
    }

    // ------------------------------------------------------------------ types

    fn starts_type(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Ident
                | TokenKind::Chan
                | TokenKind::Star
                | TokenKind::LBracket
                | TokenKind::Func
                | TokenKind::Struct
        )
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        self.descend()?;
        let result = self.parse_type_inner();
        self.depth -= 1;
        result
    }

    fn parse_type_inner(&mut self) -> Result<Type, ParseError> {
        match self.peek() {
            TokenKind::Chan => {
                self.bump();
                let elem = self.parse_type()?;
                Ok(Type::Chan(Box::new(elem)))
            }
            TokenKind::Star => {
                self.bump();
                let inner = self.parse_type()?;
                Ok(Type::Ptr(Box::new(inner)))
            }
            TokenKind::LBracket => {
                self.bump();
                self.expect(TokenKind::RBracket)?;
                let elem = self.parse_type()?;
                Ok(Type::Slice(Box::new(elem)))
            }
            TokenKind::Struct => {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                self.expect(TokenKind::RBrace)?;
                Ok(Type::Unit)
            }
            TokenKind::Func => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let mut params = Vec::new();
                if !self.eat(TokenKind::RParen) {
                    loop {
                        params.push(self.parse_type()?);
                        if self.eat(TokenKind::Comma) {
                            continue;
                        }
                        self.expect(TokenKind::RParen)?;
                        break;
                    }
                }
                let results = if self.starts_type() || matches!(self.peek(), TokenKind::LParen) {
                    self.result_types()?
                } else {
                    Vec::new()
                };
                Ok(Type::Func(params, results))
            }
            TokenKind::Ident => {
                let tok = self.bump();
                let name = self.text(tok);
                if self.eat(TokenKind::Dot) {
                    let member = self.ident_text()?;
                    return self.qualified_type(name, member);
                }
                Ok(match name {
                    "int" => Type::Int,
                    "bool" => Type::Bool,
                    "string" => Type::String,
                    "error" => Type::Error,
                    _ => Type::Named(name.to_string()),
                })
            }
            _ => Err(self.err(format!("expected type, found `{}`", self.found()))),
        }
    }

    fn qualified_type(&self, pkg: &str, member: &str) -> Result<Type, ParseError> {
        match (pkg, member) {
            ("sync", "Mutex") => Ok(Type::Mutex),
            ("sync", "RWMutex") => Ok(Type::RwMutex),
            ("sync", "WaitGroup") => Ok(Type::WaitGroup),
            ("sync", "Cond") => Ok(Type::Cond),
            ("context", "Context") => Ok(Type::Context),
            ("testing", "T") => Ok(Type::TestingT),
            _ => Ok(Type::Named(format!("{pkg}.{member}"))),
        }
    }

    // ------------------------------------------------------------- statements

    fn block(&mut self) -> Result<Block, ParseError> {
        self.descend()?;
        let result = self.block_inner();
        self.depth -= 1;
        result
    }

    fn block_inner(&mut self) -> Result<Block, ParseError> {
        let start = self.span();
        self.expect(TokenKind::LBrace)?;
        let saved = self.no_composite;
        self.no_composite = 0;
        let mut stmts = self.stmt_bufs.take();
        loop {
            self.skip_semis();
            if matches!(self.peek(), TokenKind::RBrace) {
                break;
            }
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(self.err("unexpected end of file inside block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        self.no_composite = saved;
        Ok(Block {
            stmts: self.stmt_bufs.finish(stmts),
            span: start.to(self.prev_span()),
        })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        match self.peek() {
            TokenKind::Var => {
                self.bump();
                let name = self.ident()?;
                let ty = self.parse_type()?;
                let init = if self.eat(TokenKind::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.finish_stmt(StmtKind::VarDecl { name, ty, init }, start, true)
            }
            TokenKind::Go => {
                self.bump();
                let call = self.expr()?;
                if !matches!(
                    call.unparen().kind,
                    ExprKind::Call { .. } | ExprKind::Method { .. }
                ) {
                    return Err(ParseError {
                        message: "`go` must be followed by a function call".into(),
                        span: call.span,
                    });
                }
                self.finish_stmt(StmtKind::Go(call), start, true)
            }
            TokenKind::Defer => {
                self.bump();
                let call = if matches!(self.peek(), TokenKind::Close) {
                    // `defer close(ch)` — represent close as a builtin call.
                    let cspan = self.span();
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let arg = self.expr()?;
                    self.expect(TokenKind::RParen)?;
                    let callee = Expr {
                        kind: ExprKind::Ident("close".into()),
                        span: cspan,
                        id: self.id(),
                    };
                    Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(callee),
                            args: vec![arg],
                        },
                        span: cspan.to(self.prev_span()),
                        id: self.id(),
                    }
                } else {
                    self.expr()?
                };
                if !matches!(
                    call.unparen().kind,
                    ExprKind::Call { .. } | ExprKind::Method { .. }
                ) {
                    return Err(ParseError {
                        message: "`defer` must be followed by a function call".into(),
                        span: call.span,
                    });
                }
                self.finish_stmt(StmtKind::Defer(call), start, true)
            }
            TokenKind::Close => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let ch = self.expr()?;
                self.expect(TokenKind::RParen)?;
                self.finish_stmt(StmtKind::Close(ch), start, true)
            }
            TokenKind::Panic => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let v = self.expr()?;
                self.expect(TokenKind::RParen)?;
                self.finish_stmt(StmtKind::Panic(v), start, true)
            }
            TokenKind::Return => {
                self.bump();
                let mut vals = self.expr_bufs.take();
                if !matches!(self.peek(), TokenKind::Semicolon | TokenKind::RBrace) {
                    vals.push(self.expr()?);
                    while self.eat(TokenKind::Comma) {
                        vals.push(self.expr()?);
                    }
                }
                let vals = self.expr_bufs.finish(vals);
                self.finish_stmt(StmtKind::Return(vals), start, true)
            }
            TokenKind::If => self.if_stmt(),
            TokenKind::For => self.for_stmt(),
            TokenKind::Select => self.select_stmt(),
            TokenKind::Break => {
                self.bump();
                self.finish_stmt(StmtKind::Break, start, true)
            }
            TokenKind::Continue => {
                self.bump();
                self.finish_stmt(StmtKind::Continue, start, true)
            }
            TokenKind::LBrace => {
                let b = self.block()?;
                self.finish_stmt(StmtKind::Block(b), start, true)
            }
            _ => {
                let s = self.simple_stmt()?;
                self.end_of_stmt()?;
                Ok(s)
            }
        }
    }

    fn finish_stmt(
        &mut self,
        kind: StmtKind,
        start: Span,
        eat_semi: bool,
    ) -> Result<Stmt, ParseError> {
        let span = start.to(self.prev_span());
        let id = self.id();
        if eat_semi {
            self.end_of_stmt()?;
        }
        Ok(Stmt { kind, span, id })
    }

    /// Parses a "simple statement": define, assign, send, inc/dec, or a bare
    /// expression. Does not consume the trailing semicolon.
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        let first = self.expr()?;

        match self.peek() {
            TokenKind::Arrow => {
                self.bump();
                let value = self.expr()?;
                let span = start.to(self.prev_span());
                let id = self.id();
                Ok(Stmt {
                    kind: StmtKind::Send { chan: first, value },
                    span,
                    id,
                })
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let inc = matches!(self.peek(), TokenKind::PlusPlus);
                self.bump();
                let span = start.to(self.prev_span());
                let id = self.id();
                Ok(Stmt {
                    kind: StmtKind::IncDec { target: first, inc },
                    span,
                    id,
                })
            }
            TokenKind::Comma
            | TokenKind::Define
            | TokenKind::Assign
            | TokenKind::PlusAssign
            | TokenKind::MinusAssign => {
                let mut lhs = vec![first];
                while self.eat(TokenKind::Comma) {
                    lhs.push(self.expr()?);
                }
                match self.peek() {
                    TokenKind::Define => {
                        self.bump();
                        let mut names = Vec::with_capacity(lhs.len());
                        for e in lhs {
                            match into_ident(e) {
                                Ok(n) => names.push(n),
                                Err(span) => {
                                    return Err(ParseError {
                                        message: "left side of `:=` must be identifiers".into(),
                                        span,
                                    })
                                }
                            }
                        }
                        let rhs = self.expr()?;
                        let span = start.to(self.prev_span());
                        let id = self.id();
                        Ok(Stmt {
                            kind: StmtKind::Define { names, rhs },
                            span,
                            id,
                        })
                    }
                    TokenKind::Assign => {
                        self.bump();
                        let rhs = self.expr()?;
                        let span = start.to(self.prev_span());
                        let id = self.id();
                        Ok(Stmt {
                            kind: StmtKind::Assign {
                                lhs,
                                op: AssignOp::Assign,
                                rhs,
                            },
                            span,
                            id,
                        })
                    }
                    TokenKind::PlusAssign | TokenKind::MinusAssign => {
                        let op = if matches!(self.peek(), TokenKind::PlusAssign) {
                            AssignOp::AddAssign
                        } else {
                            AssignOp::SubAssign
                        };
                        self.bump();
                        if lhs.len() != 1 {
                            return Err(self.err("compound assignment takes exactly one target"));
                        }
                        let rhs = self.expr()?;
                        let span = start.to(self.prev_span());
                        let id = self.id();
                        Ok(Stmt {
                            kind: StmtKind::Assign { lhs, op, rhs },
                            span,
                            id,
                        })
                    }
                    _ => Err(self.err(format!("expected `:=` or `=`, found `{}`", self.found()))),
                }
            }
            _ => {
                let span = first.span;
                let id = self.id();
                Ok(Stmt {
                    kind: StmtKind::Expr(first),
                    span,
                    id,
                })
            }
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        self.expect(TokenKind::If)?;
        self.no_composite += 1;
        let cond = self.expr()?;
        self.no_composite -= 1;
        let then = self.block()?;
        let els = if self.eat(TokenKind::Else) {
            if matches!(self.peek(), TokenKind::If) {
                Some(Box::new(self.if_stmt()?))
            } else {
                let b = self.block()?;
                let span = b.span;
                let id = self.id();
                Some(Box::new(Stmt {
                    kind: StmtKind::Block(b),
                    span,
                    id,
                }))
            }
        } else {
            None
        };
        let span = start.to(self.prev_span());
        let id = self.id();
        self.skip_semis();
        Ok(Stmt {
            kind: StmtKind::If { cond, then, els },
            span,
            id,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        self.expect(TokenKind::For)?;

        // `for { ... }` — infinite loop.
        if matches!(self.peek(), TokenKind::LBrace) {
            let body = self.block()?;
            let span = start.to(self.prev_span());
            let id = self.id();
            self.skip_semis();
            return Ok(Stmt {
                kind: StmtKind::For {
                    init: None,
                    cond: None,
                    post: None,
                    body,
                },
                span,
                id,
            });
        }

        // `for range e` / `for v := range e`.
        self.no_composite += 1;
        let result = (|| {
            if matches!(self.peek(), TokenKind::Range) {
                self.bump();
                let over = self.expr()?;
                let body_start = self.span();
                let _ = body_start;
                return Ok(Some((None, over)));
            }
            if let (TokenKind::Ident, TokenKind::Define, TokenKind::Range) =
                (self.peek(), self.peek_at(1), self.peek_at(2))
            {
                let var = self.ident()?;
                self.bump();
                self.bump();
                let over = self.expr()?;
                return Ok(Some((Some(var), over)));
            }
            Ok(None)
        })();
        let ranged = match result {
            Ok(r) => r,
            Err(e) => {
                self.no_composite -= 1;
                return Err(e);
            }
        };
        if let Some((var, over)) = ranged {
            self.no_composite -= 1;
            let body = self.block()?;
            let span = start.to(self.prev_span());
            let id = self.id();
            self.skip_semis();
            return Ok(Stmt {
                kind: StmtKind::ForRange { var, over, body },
                span,
                id,
            });
        }

        // Three-clause or condition-only loop. Parse the first clause, then
        // decide based on the delimiter.
        let first: Option<Stmt> = if matches!(self.peek(), TokenKind::Semicolon) {
            None
        } else {
            Some(self.simple_stmt()?)
        };

        let (init, cond, post) = if self.eat(TokenKind::Semicolon) {
            let cond = if matches!(self.peek(), TokenKind::Semicolon) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(TokenKind::Semicolon)?;
            let post = if matches!(self.peek(), TokenKind::LBrace) {
                None
            } else {
                Some(Box::new(self.simple_stmt()?))
            };
            (first.map(Box::new), cond, post)
        } else {
            // Condition-only: `for cond { ... }`.
            match first {
                Some(Stmt {
                    kind: StmtKind::Expr(e),
                    ..
                }) => (None, Some(e), None),
                _ => return Err(self.err("expected loop condition")),
            }
        };
        self.no_composite -= 1;

        let body = self.block()?;
        let span = start.to(self.prev_span());
        let id = self.id();
        self.skip_semis();
        Ok(Stmt {
            kind: StmtKind::For {
                init,
                cond,
                post,
                body,
            },
            span,
            id,
        })
    }

    fn select_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        self.expect(TokenKind::Select)?;
        self.expect(TokenKind::LBrace)?;
        let mut cases = self.case_bufs.take();
        loop {
            self.skip_semis();
            if self.eat(TokenKind::RBrace) {
                break;
            }
            let case_start = self.span();
            let kind = if self.eat(TokenKind::Default) {
                self.expect(TokenKind::Colon)?;
                SelectCaseKind::Default
            } else {
                self.expect(TokenKind::Case)?;
                self.select_comm()?
            };
            // Body: statements until the next `case`/`default`/`}`.
            let mut stmts = self.stmt_bufs.take();
            loop {
                self.skip_semis();
                if matches!(
                    self.peek(),
                    TokenKind::Case | TokenKind::Default | TokenKind::RBrace
                ) {
                    break;
                }
                stmts.push(self.stmt()?);
            }
            let stmts = self.stmt_bufs.finish(stmts);
            let body_span = stmts
                .first()
                .map(|s: &Stmt| s.span.to(stmts.last().unwrap().span))
                .unwrap_or(case_start);
            cases.push(SelectCase {
                kind,
                body: Block {
                    stmts,
                    span: body_span,
                },
                span: case_start,
            });
        }
        let cases = self.case_bufs.finish(cases);
        let span = start.to(self.prev_span());
        let id = self.id();
        self.skip_semis();
        Ok(Stmt {
            kind: StmtKind::Select(cases),
            span,
            id,
        })
    }

    fn select_comm(&mut self) -> Result<SelectCaseKind, ParseError> {
        // `case <-ch:`
        if matches!(self.peek(), TokenKind::Arrow) {
            self.bump();
            let chan = self.expr()?;
            self.expect(TokenKind::Colon)?;
            return Ok(SelectCaseKind::Recv {
                value: None,
                ok: None,
                chan,
            });
        }
        // `case v := <-ch:` / `case v, ok := <-ch:`
        let is_recv_bind = matches!(self.peek(), TokenKind::Ident | TokenKind::Underscore)
            && (matches!(self.peek_at(1), TokenKind::Define)
                || (matches!(self.peek_at(1), TokenKind::Comma)
                    && matches!(self.peek_at(2), TokenKind::Ident | TokenKind::Underscore)
                    && matches!(self.peek_at(3), TokenKind::Define)));
        if is_recv_bind {
            let value = self.ident()?;
            let ok = if self.eat(TokenKind::Comma) {
                Some(self.ident()?)
            } else {
                None
            };
            self.expect(TokenKind::Define)?;
            self.expect(TokenKind::Arrow)?;
            let chan = self.expr()?;
            self.expect(TokenKind::Colon)?;
            return Ok(SelectCaseKind::Recv {
                value: Some(value),
                ok,
                chan,
            });
        }
        // `case ch <- v:`
        let chan = self.expr()?;
        self.expect(TokenKind::Arrow)?;
        let value = self.expr()?;
        self.expect(TokenKind::Colon)?;
        Ok(SelectCaseKind::Send { chan, value })
    }

    // ------------------------------------------------------------ expressions

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::OrOr => BinOp::Or,
                TokenKind::AndAnd => BinOp::And,
                TokenKind::Eq => BinOp::Eq,
                TokenKind::Ne => BinOp::Ne,
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            let id = self.id();
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                span,
                id,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let result = self.unary_expr_inner();
        self.depth -= 1;
        result
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Not => Some(UnOp::Not),
            TokenKind::Amp => Some(UnOp::Addr),
            TokenKind::Star => Some(UnOp::Deref),
            TokenKind::Arrow => {
                self.bump();
                let inner = self.unary_expr()?;
                let span = start.to(inner.span);
                let id = self.id();
                return Ok(Expr {
                    kind: ExprKind::Recv(Box::new(inner)),
                    span,
                    id,
                });
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.unary_expr()?;
            let span = start.to(inner.span);
            let id = self.id();
            return Ok(Expr {
                kind: ExprKind::Unary(op, Box::new(inner)),
                span,
                id,
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let args = self.call_args()?;
                    let span = e.span.to(self.prev_span());
                    let id = self.id();
                    // A call on a field access is a method call.
                    e = match e.kind {
                        ExprKind::Field { obj, name } => Expr {
                            kind: ExprKind::Method {
                                recv: obj,
                                name,
                                args,
                            },
                            span,
                            id,
                        },
                        _ => Expr {
                            kind: ExprKind::Call {
                                callee: Box::new(e),
                                args,
                            },
                            span,
                            id,
                        },
                    };
                }
                TokenKind::Dot => {
                    self.bump();
                    let name = self.ident()?;
                    let span = e.span.to(self.prev_span());
                    let id = self.id();
                    e = Expr {
                        kind: ExprKind::Field {
                            obj: Box::new(e),
                            name,
                        },
                        span,
                        id,
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    let span = e.span.to(self.prev_span());
                    let id = self.id();
                    e = Expr {
                        kind: ExprKind::Index {
                            obj: Box::new(e),
                            index: Box::new(index),
                        },
                        span,
                        id,
                    };
                }
                TokenKind::LBrace if self.composite_allowed(&e) => {
                    let head = e.span;
                    let name = into_ident(e).expect("checked by composite_allowed");
                    let fields = self.composite_body()?;
                    let span = head.to(self.prev_span());
                    let id = self.id();
                    e = Expr {
                        kind: ExprKind::Composite {
                            ty: Type::Named(name),
                            fields,
                        },
                        span,
                        id,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    /// Whether `e {` should be parsed as a composite literal. Mirrors Go's
    /// rule: composite literals of named types are not allowed in `if`/`for`
    /// headers, and only identifiers starting with an uppercase letter (our
    /// corpus convention for struct types) are treated as literal heads.
    fn composite_allowed(&self, e: &Expr) -> bool {
        if self.no_composite > 0 {
            return false;
        }
        match e.as_ident() {
            Some(name) => name.chars().next().is_some_and(|c| c.is_ascii_uppercase()),
            None => false,
        }
    }

    fn composite_body(&mut self) -> Result<Vec<(Option<String>, Expr)>, ParseError> {
        self.expect(TokenKind::LBrace)?;
        let mut fields = self.field_bufs.take();
        self.skip_semis();
        while !matches!(self.peek(), TokenKind::RBrace) {
            // `name: value` or positional `value`.
            let named = self.peek() == TokenKind::Ident && self.peek_at(1) == TokenKind::Colon;
            if named {
                let name = self.ident()?;
                self.expect(TokenKind::Colon)?;
                let value = self.expr()?;
                fields.push((Some(name), value));
            } else {
                fields.push((None, self.expr()?));
            }
            if !self.eat(TokenKind::Comma) {
                self.skip_semis();
                break;
            }
            self.skip_semis();
        }
        self.expect(TokenKind::RBrace)?;
        Ok(self.field_bufs.finish(fields))
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        let saved = self.no_composite;
        self.no_composite = 0;
        if self.eat(TokenKind::RParen) {
            self.no_composite = saved;
            return Ok(Vec::new());
        }
        let mut args = self.expr_bufs.take();
        loop {
            args.push(self.expr()?);
            if self.eat(TokenKind::Comma) {
                continue;
            }
            self.expect(TokenKind::RParen)?;
            break;
        }
        self.no_composite = saved;
        Ok(self.expr_bufs.finish(args))
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        match self.peek() {
            TokenKind::Int => {
                let tok = self.bump();
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Int(self.int_value(tok)),
                    span: start,
                    id,
                })
            }
            TokenKind::Str => {
                let tok = self.bump();
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Str(string_value(self.text(tok))),
                    span: start,
                    id,
                })
            }
            TokenKind::True => {
                self.bump();
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Bool(true),
                    span: start,
                    id,
                })
            }
            TokenKind::False => {
                self.bump();
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Bool(false),
                    span: start,
                    id,
                })
            }
            TokenKind::Nil => {
                self.bump();
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Nil,
                    span: start,
                    id,
                })
            }
            TokenKind::Underscore => {
                self.bump();
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Ident("_".into()),
                    span: start,
                    id,
                })
            }
            TokenKind::Ident => {
                let tok = self.bump();
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Ident(self.text(tok).to_string()),
                    span: start,
                    id,
                })
            }
            TokenKind::Struct => {
                // `struct{}{}` — unit literal.
                self.bump();
                self.expect(TokenKind::LBrace)?;
                self.expect(TokenKind::RBrace)?;
                self.expect(TokenKind::LBrace)?;
                self.expect(TokenKind::RBrace)?;
                let span = start.to(self.prev_span());
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::UnitLit,
                    span,
                    id,
                })
            }
            TokenKind::Make => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let ty = self.parse_type()?;
                let cap = if self.eat(TokenKind::Comma) {
                    Some(Box::new(self.expr()?))
                } else {
                    None
                };
                self.expect(TokenKind::RParen)?;
                let span = start.to(self.prev_span());
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Make { ty, cap },
                    span,
                    id,
                })
            }
            TokenKind::Func => {
                self.bump();
                let params = self.param_list()?;
                let results = self.result_types()?;
                let saved = self.no_composite;
                self.no_composite = 0;
                let body = self.block()?;
                self.no_composite = saved;
                let span = start.to(self.prev_span());
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Closure {
                        params,
                        results,
                        body,
                    },
                    span,
                    id,
                })
            }
            TokenKind::LParen => {
                self.bump();
                let saved = self.no_composite;
                self.no_composite = 0;
                let inner = self.expr()?;
                self.no_composite = saved;
                self.expect(TokenKind::RParen)?;
                let span = start.to(self.prev_span());
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Paren(Box::new(inner)),
                    span,
                    id,
                })
            }
            TokenKind::LBracket => {
                // `[]T{...}` slice literal.
                let ty = self.parse_type()?;
                let fields = self.composite_body()?;
                let span = start.to(self.prev_span());
                let id = self.id();
                Ok(Expr {
                    kind: ExprKind::Composite { ty, fields },
                    span,
                    id,
                })
            }
            _ => Err(self.err(format!("expected expression, found `{}`", self.found()))),
        }
    }
}

/// Moves the name out of a (possibly parenthesized) identifier
/// expression; anything else yields the expression's span.
fn into_ident(e: Expr) -> Result<String, Span> {
    let span = e.span;
    let mut kind = e.kind;
    loop {
        match kind {
            ExprKind::Ident(name) => return Ok(name),
            ExprKind::Paren(inner) => kind = inner.kind,
            _ => return Err(span),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn must(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"))
    }

    #[test]
    fn parses_figure1_docker_bug() {
        let src = r#"
package main

func Exec(ctx context.Context) (string, error) {
    outDone := make(chan error)
    go func() {
        err := StdCopy()
        outDone <- err
    }()
    select {
    case err := <-outDone:
        if err != nil {
            return "", err
        }
    case <-ctx.Done():
        return "", ctx.Err()
    }
    return "ok", nil
}

func StdCopy() error {
    return nil
}
"#;
        let prog = must(src);
        let exec = prog.func("Exec").unwrap();
        assert_eq!(exec.params.len(), 1);
        assert_eq!(exec.params[0].ty, Type::Context);
        assert_eq!(exec.results.len(), 2);
        // Body: define, go, select, return.
        assert_eq!(exec.body.stmts.len(), 4);
        assert!(matches!(exec.body.stmts[1].kind, StmtKind::Go(_)));
        match &exec.body.stmts[2].kind {
            StmtKind::Select(cases) => {
                assert_eq!(cases.len(), 2);
                assert!(matches!(
                    cases[0].kind,
                    SelectCaseKind::Recv { value: Some(_), .. }
                ));
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_figure3_etcd_bug() {
        let src = r#"
func TestRWDialer(t *testing.T) {
    stop := make(chan struct{})
    go Start(stop)
    conn, err := Dial()
    if err != nil {
        t.Fatalf("dial failed")
    }
    _ = conn
    stop <- struct{}{}
}
"#;
        let prog = must(src);
        let f = prog.func("TestRWDialer").unwrap();
        assert_eq!(f.params[0].ty, Type::Ptr(Box::new(Type::TestingT)));
        let last = f.body.stmts.last().unwrap();
        match &last.kind {
            StmtKind::Send { value, .. } => assert!(matches!(value.kind, ExprKind::UnitLit)),
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn parses_figure4_geth_bug() {
        let src = r#"
func Interactive() {
    scheduler := make(chan string)
    go func() {
        for {
            line, err := Input()
            if err != nil {
                close(scheduler)
                return
            }
            scheduler <- line
        }
    }()
    for {
        select {
        case <-abort:
            return
        case _, ok := <-scheduler:
            if !ok {
                return
            }
        }
    }
}
"#;
        let prog = must(src);
        let f = prog.func("Interactive").unwrap();
        assert_eq!(f.body.stmts.len(), 3);
        match &f.body.stmts[2].kind {
            StmtKind::For {
                body, cond: None, ..
            } => match &body.stmts[0].kind {
                StmtKind::Select(cases) => {
                    assert!(matches!(
                        &cases[1].kind,
                        SelectCaseKind::Recv { value: Some(v), ok: Some(_), .. } if v == "_"
                    ));
                }
                other => panic!("expected select, got {other:?}"),
            },
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn send_vs_recv_disambiguation() {
        let prog = must("func f(ch chan int) {\n ch <- 1\n x := <-ch\n _ = x\n}");
        let f = prog.func("f").unwrap();
        assert!(matches!(f.body.stmts[0].kind, StmtKind::Send { .. }));
        match &f.body.stmts[1].kind {
            StmtKind::Define { rhs, .. } => assert!(matches!(rhs.kind, ExprKind::Recv(_))),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn three_clause_for_loop() {
        let prog = must("func f() {\n for i := 0; i < 10; i++ {\n  work(i)\n }\n}");
        let f = prog.func("f").unwrap();
        match &f.body.stmts[0].kind {
            StmtKind::For {
                init: Some(_),
                cond: Some(_),
                post: Some(_),
                ..
            } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn range_loop_over_int() {
        let prog = must("func f(n int) {\n for i := range n {\n  work(i)\n }\n}");
        match &prog.func("f").unwrap().body.stmts[0].kind {
            StmtKind::ForRange { var: Some(v), .. } => assert_eq!(v, "i"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn mutex_methods_parse_as_method_calls() {
        let prog = must("func f() {\n var mu sync.Mutex\n mu.Lock()\n mu.Unlock()\n}");
        let f = prog.func("f").unwrap();
        match &f.body.stmts[1].kind {
            StmtKind::Expr(e) => match &e.kind {
                ExprKind::Method { name, .. } => assert_eq!(name, "Lock"),
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn defer_close_and_defer_closure() {
        let prog =
            must("func f(ch chan int) {\n defer close(ch)\n defer func() {\n  ch <- 1\n }()\n}");
        let f = prog.func("f").unwrap();
        assert!(matches!(f.body.stmts[0].kind, StmtKind::Defer(_)));
        assert!(matches!(f.body.stmts[1].kind, StmtKind::Defer(_)));
    }

    #[test]
    fn go_requires_call() {
        assert!(parse("func f() {\n go 1\n}").is_err());
        assert!(parse("func f(g func()) {\n go g()\n}").is_ok());
    }

    #[test]
    fn struct_decl_and_composite_literal() {
        let src =
            "type Pair struct {\n a int\n b int\n}\nfunc f() Pair {\n return Pair{a: 1, b: 2}\n}";
        let prog = must(src);
        let s = prog.struct_decl("Pair").unwrap();
        assert_eq!(s.fields.len(), 2);
        match &prog.func("f").unwrap().body.stmts[0].kind {
            StmtKind::Return(vals) => {
                assert!(matches!(vals[0].kind, ExprKind::Composite { .. }))
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn composite_banned_in_if_header() {
        // `if x {` must parse the block, not a composite literal, even when
        // a struct named `x`... (uppercase convention: use lowercase here).
        let prog = must("func f(x bool) {\n if x {\n  work()\n }\n}");
        assert!(matches!(
            prog.func("f").unwrap().body.stmts[0].kind,
            StmtKind::If { .. }
        ));
    }

    #[test]
    fn select_with_default() {
        let src = "func f(ch chan int) {\n select {\n case ch <- 1:\n  done()\n default:\n }\n}";
        let prog = must(src);
        match &prog.func("f").unwrap().body.stmts[0].kind {
            StmtKind::Select(cases) => {
                assert_eq!(cases.len(), 2);
                assert!(matches!(cases[0].kind, SelectCaseKind::Send { .. }));
                assert!(matches!(cases[1].kind, SelectCaseKind::Default));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn multi_return_and_multi_assign() {
        let src = "func two() (int, error) {\n return 1, nil\n}\nfunc f() {\n a, err := two()\n _ = a\n _ = err\n}";
        let prog = must(src);
        match &prog.func("f").unwrap().body.stmts[0].kind {
            StmtKind::Define { names, .. } => assert_eq!(names, &["a", "err"]),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn grouped_params_share_type() {
        let prog = must("func f(a, b int, ch chan bool) {\n}");
        let f = prog.func("f").unwrap();
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].ty, Type::Int);
        assert_eq!(f.params[1].ty, Type::Int);
        assert_eq!(f.params[2].ty, Type::Chan(Box::new(Type::Bool)));
    }

    #[test]
    fn global_var_and_imports() {
        let src = "package main\nimport (\n \"sync\"\n \"testing\"\n)\nvar abort chan struct{}\nfunc f() {\n}";
        let prog = must(src);
        assert_eq!(prog.imports, vec!["sync", "testing"]);
        assert!(matches!(prog.decls[0], Decl::GlobalVar { .. }));
    }

    #[test]
    fn waitgroup_methods() {
        let src = "func f() {\n var wg sync.WaitGroup\n wg.Add(1)\n go func() {\n  wg.Done()\n }()\n wg.Wait()\n}";
        must(src);
    }

    #[test]
    fn channel_in_slice_and_index() {
        let src = "func f(chans []chan int) {\n ch := chans[0]\n <-ch\n}";
        let prog = must(src);
        match &prog.func("f").unwrap().body.stmts[0].kind {
            StmtKind::Define { rhs, .. } => assert!(matches!(rhs.kind, ExprKind::Index { .. })),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn nested_select_in_loop_with_break() {
        let src = "func f(a chan int, stop chan struct{}) {\n for {\n  select {\n  case v := <-a:\n   use(v)\n  case <-stop:\n   return\n  }\n }\n}";
        must(src);
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse("func f() { ch <- }").is_err());
        assert!(parse("func f() { select { case } }").is_err());
        assert!(parse("func { }").is_err());
    }

    /// Pathological nesting must yield a normal parse error — never a
    /// stack overflow, which would abort the process uncatchably.
    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        let depth = 5000;
        let parens = format!(
            "func f(a int) int {{ return {}a{} }}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let err = parse(&parens).expect_err("deep parens must fail");
        assert!(err.message.contains("nesting too deep"), "{}", err.message);

        let negs = format!("func f(a int) int {{ return {}a }}", "-".repeat(depth));
        assert!(parse(&negs).is_err(), "deep unary chain must fail");

        let chans = format!("func f(c {} int) {{}}", "chan ".repeat(depth));
        assert!(parse(&chans).is_err(), "deep chan type must fail");

        let blocks = format!(
            "func f() {{ {}{} }}",
            "{ ".repeat(depth),
            "} ".repeat(depth)
        );
        assert!(parse(&blocks).is_err(), "deep blocks must fail");

        // Reasonable nesting (well under the cap) still parses.
        let ok = format!(
            "func f(a int) int {{ return {}a{} }}",
            "(".repeat(50),
            ")".repeat(50)
        );
        assert!(parse(&ok).is_ok(), "shallow nesting must still parse");
    }

    #[test]
    fn if_else_if_chain() {
        let src = "func f(a int) int {\n if a > 1 {\n  return 1\n } else if a > 0 {\n  return 2\n } else {\n  return 3\n }\n}";
        let prog = must(src);
        match &prog.func("f").unwrap().body.stmts[0].kind {
            StmtKind::If { els: Some(e), .. } => {
                assert!(matches!(e.kind, StmtKind::If { .. }))
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn precedence_in_conditions() {
        let src = "func f(a, b int) bool {\n return a+1 < b*2 && b != 0 || a == 3\n}";
        let prog = must(src);
        match &prog.func("f").unwrap().body.stmts[0].kind {
            StmtKind::Return(vals) => match &vals[0].kind {
                ExprKind::Binary(BinOp::Or, _, _) => {}
                other => panic!("expected top-level ||, got {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn context_with_cancel_pattern() {
        let src = "func f() {\n ctx, cancel := context.WithCancel(context.Background())\n defer cancel()\n <-ctx.Done()\n}";
        must(src);
    }
}
