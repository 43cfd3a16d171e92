//! Front-end goldens: the AST and IR of realistic inputs, and the exact
//! text and span of every front-end error message, pinned by value.
//!
//! The print∘parse round trip (`crates/golite/tests/proptest_roundtrip.rs`)
//! only shows that the printer is a fixed point; it cannot see a node id,
//! a span or a name that parsing or lowering gets wrong in the same way
//! both times. These tests hash every program's `Debug` output (streamed
//! into FNV, never materialized) and its lowered [`module_shape`]
//! fingerprint, so a change to the lexer, parser or lowering that moves
//! any AST node, span or IR function fails here.

use bench::amplifier::{generate, generate_deep, AmpConfig};
use gcatch_suite::corpus::apps::{generate_all, GenConfig};
use gcatch_suite::golite::ast::{ExprKind, StmtKind};
use gcatch_suite::golite::{self, Decl, Program, Span, Token, Type};
use gcatch_suite::ir::fnv::Fnv;
use gcatch_suite::ir::{lower, module_shape};
use std::fmt::Write;

/// A `fmt::Write` sink that folds everything written into FNV.
struct FnvSink(Fnv);

impl Write for FnvSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.bytes(s.as_bytes());
        Ok(())
    }
}

/// FNV of `program`'s `Debug` output and its lowered module's shape
/// fingerprint.
fn fingerprints(name: &str, source: &str) -> (u64, u64) {
    let program = golite::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut sink = FnvSink(Fnv::new());
    write!(sink, "{program:?}").expect("hashing cannot fail");
    let module = lower(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
    (sink.0.finish(), module_shape(&module).fingerprint)
}

/// Every golden input, by name: the examples, the 21 Table 1 replicas at
/// two seeds, the 960-channel probe, a string literal holding non-ASCII
/// text and the serve module.
fn inputs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for dir in ["examples", "examples/batch"] {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("examples directory")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "go"))
            .collect();
        files.sort();
        for path in files {
            let source = std::fs::read_to_string(&path).expect("example source");
            out.push((path.display().to_string(), source));
        }
    }
    for seed in [11, 2026] {
        let apps = generate_all(&GenConfig {
            seed,
            filler_per_kloc: 0.05,
        });
        for app in apps {
            out.push((format!("{}@{seed}", app.name), app.source));
        }
    }
    out.push((
        "probe".to_string(),
        generate(&AmpConfig {
            channels: 960,
            leak_every: 60,
            ballast: 640,
        }),
    ));
    // Non-ASCII text in a string literal is decoded as UTF-8.
    out.push((
        "utf8".to_string(),
        "package main\n\nfunc main() {\n\tfmt.Println(\"café\")\n}\n".to_string(),
    ));
    out.push((
        "serve".to_string(),
        generate_deep(&AmpConfig {
            channels: 96,
            leak_every: 16,
            ballast: 48,
        }),
    ));
    out
}

/// `(input, FNV of the program's Debug output, module shape fingerprint)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("examples/figure1.go", 0xe034ca52e001cbdf, 0xd18a1758aa0545e8),
    ("examples/pathological.go", 0x99c7b6bab9133f8f, 0x040b5e04d453c412),
    ("examples/send_on_closed.go", 0xdc5dddf27b793ee5, 0xcaade9e1a67e945c),
    ("examples/batch/clean_buffered.go", 0x58b6d12cfabe8377, 0xb954b3be546b7b78),
    ("examples/batch/clean_rendezvous.go", 0x0d4b7de525588b31, 0xc93074733ee14139),
    ("examples/batch/clean_worker_pair.go", 0x9b9379cc113a91aa, 0xf84bee6ed299ba04),
    ("examples/batch/leak_double_send.go", 0x3a76c911ac405659, 0x3984043103ff1ebe),
    ("examples/batch/leak_no_receiver.go", 0x7728512ec023ef7a, 0x6e99f026fa60bfd9),
    ("examples/batch/leak_unbuffered.go", 0x8cf4eff61760c6fb, 0x27264ec963cfd67d),
    ("Go@11", 0xf943ab2e9bc92b66, 0xea96fd207e7f83a2),
    ("Kubernetes@11", 0x594b6ca653c997e8, 0x2bd55b55ac154644),
    ("Docker@11", 0x0ea77109c1a37ba0, 0xe045e5bb682f1e7f),
    ("HUGO@11", 0x11ce1e7f02b142a0, 0x92559aa0e099c533),
    ("Gin@11", 0x156f792653a83ced, 0x4524b64016608c6a),
    ("frp@11", 0xb86a9dd47ed0a0e8, 0x63e2f1379fc9616a),
    ("Gogs@11", 0x4cd7a7767e16e994, 0x808f4de4687adbea),
    ("Syncthing@11", 0x2b74c23d5a3c5a9e, 0xdf20a5a90ad834f7),
    ("etcd@11", 0x060799f5c0dc0583, 0x7c24ca0ce4eeead5),
    ("v2ray-core@11", 0xcbaa10953e4bf239, 0xca01ad4569545e2c),
    ("Prometheus@11", 0x978c602e07b937c4, 0xd2515b755ee193d0),
    ("fzf@11", 0xe627cfd7293b17c8, 0xcc0158adffac3349),
    ("traefik@11", 0x0a259f96ef87ee82, 0x668aa87c0e4fcbdd),
    ("Caddy@11", 0x73c531a3c7bb988b, 0xa5fba0d26a59ff36),
    ("Go-Ethereum@11", 0xcd274b1cf4f616d9, 0xe6b27be86ab41029),
    ("Beego@11", 0x6d8f80ad4e815a5d, 0x7c081f7c2b3640b6),
    ("mkcert@11", 0xc1ebf37695553fc2, 0xba036e31bd8cdfd7),
    ("TiDB@11", 0xbd7aba961c4ef891, 0xb7dcddfb29cdbc99),
    ("CockroachDB@11", 0x8701cb2dc523de3a, 0x7b79daf22e5d7297),
    ("gRPC@11", 0x67bab0c0d611c057, 0x4675c56ea9724c2d),
    ("bbolt@11", 0xee097df479215eb1, 0xc51de4d6efa1a778),
    ("Go@2026", 0x0f34c4e9bd385f7d, 0xed9ab5d6a64a747c),
    ("Kubernetes@2026", 0x4094b7375f2af1fd, 0x4194ca73fd724475),
    ("Docker@2026", 0xb9941284a91a3ff8, 0xd7a05b8f3e0b80d7),
    ("HUGO@2026", 0x1c765916005ee891, 0x3a3e075cf7188f67),
    ("Gin@2026", 0xd35aaba6c8198f0b, 0x176046f4d291f9b8),
    ("frp@2026", 0x7a944c18dd34c2fa, 0xae9055ad89018259),
    ("Gogs@2026", 0x8adca06f08cc8249, 0x4ea63de7555d0d60),
    ("Syncthing@2026", 0xe0b24014a0a8371f, 0x103adac7c0ea21b5),
    ("etcd@2026", 0xf6ffde48cb5476d2, 0x0c30aeb23e98c880),
    ("v2ray-core@2026", 0x6e96c04583beb04a, 0xd734ee04670cc687),
    ("Prometheus@2026", 0x3c6aa413183bb59e, 0xcb3152a6886874b7),
    ("fzf@2026", 0xa92491b412ef3531, 0x65b23df0a2f8da6c),
    ("traefik@2026", 0xc1106851f225b85e, 0x2e279eaf1b55e5a3),
    ("Caddy@2026", 0x170cfc33b293b93b, 0xcb89cd294fddba02),
    ("Go-Ethereum@2026", 0x1496ed202924c0f3, 0x785b33d60e3a7445),
    ("Beego@2026", 0x03f98e9d01e75b33, 0x8e00b5653c8f2605),
    ("mkcert@2026", 0xd108823059a62603, 0x25579f7aff200bf7),
    ("TiDB@2026", 0xeef5345b7583d477, 0x5da0958b898e279f),
    ("CockroachDB@2026", 0x7bbef0b7fe7ab32e, 0x6950122fa9d83a14),
    ("gRPC@2026", 0xed79c4fe1893b5c8, 0xd422b996dcc29114),
    ("bbolt@2026", 0x8f2e614dd3bb8133, 0xa80e8a6db99460f1),
    ("probe", 0x6c9c856d95e8a1e4, 0x17745e3b0c69799e),
    ("utf8", 0x6278d9bcc313dbae, 0xcb23a6a1b15d3c25),
    ("serve", 0xa584863ce1a1d53d, 0x008a9449c96979c6),
];

#[test]
fn asts_and_ir_match_their_goldens() {
    let actual: Vec<(String, u64, u64)> = inputs()
        .into_iter()
        .map(|(name, source)| {
            let (ast, shape) = fingerprints(&name, &source);
            (name, ast, shape)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, ast, shape)| format!("    ({name:?}, {ast:#018x}, {shape:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(name, ast, shape)| (name.to_string(), ast, shape))
        .collect();
    assert_eq!(actual, expected, "actual table:\n{table}");
}

/// The error a malformed input stops at: its `Display` text and span.
fn front_end_error(source: &str) -> (String, Span) {
    match golite::parse(source) {
        Err(e) => (e.to_string(), e.span),
        Ok(program) => lowering_error(&program),
    }
}

fn lowering_error(program: &Program) -> (String, Span) {
    let e = lower(program).expect_err("input must fail to lower");
    (e.to_string(), e.span)
}

/// A span as `(start, end, line, col)`.
type At = (u32, u32, u32, u32);

fn at(span: Span) -> At {
    (span.start, span.end, span.line, span.col)
}

/// `(malformed input, Display text, span)`: one input per message of the
/// lexer, the parser and lowering, and every message that prints a token
/// with each kind of token it can print.
#[rustfmt::skip]
const ERRORS: &[(&str, &str, At)] = &[
    ("func f() {\n /* open", "parse error at 2:2: unterminated block comment", (12, 19, 2, 2)),
    ("func f() {\n x := 99999999999999999999\n}", "parse error at 2:7: integer literal `99999999999999999999` overflows", (17, 37, 2, 7)),
    ("func f() {\n s := \"abc\n}", "parse error at 2:7: unterminated string literal", (17, 21, 2, 7)),
    ("func f() {\n s := \"abc", "parse error at 2:7: unterminated string literal", (17, 21, 2, 7)),
    ("func f() {\n s := \"a\\qb\"\n}", "parse error at 2:7: unknown escape `\\q`", (17, 21, 2, 7)),
    ("func f() {\n a # b\n}", "parse error at 2:4: unexpected character `#`", (14, 15, 2, 4)),
    ("func f() {\n é\n}", "parse error at 2:2: unexpected character `é`", (12, 14, 2, 2)),
    ("func main() {}\0func broken() { x = }", "parse error at 1:15: unexpected character `\\0`", (14, 15, 1, 15)),
    ("type S struct x {\n}", "parse error at 1:15: expected `{`, found `x`", (14, 15, 1, 15)),
    ("type S struct 007 {\n}", "parse error at 1:15: expected `{`, found `7`", (14, 17, 1, 15)),
    ("type S struct \"a\\tb\\\"c\" {\n}", "parse error at 1:15: expected `{`, found `\"a\\tb\\\"c\"`", (14, 23, 1, 15)),
    ("type S struct \"é\u{1}\" {\n}", "parse error at 1:15: expected `{`, found `\"é\\u{1}\"`", (14, 19, 1, 15)),
    ("type S struct", "parse error at 1:14: expected `{`, found `<eof>`", (13, 13, 1, 14)),
    ("type S struct func", "parse error at 1:15: expected `{`, found `func`", (14, 18, 1, 15)),
    ("func f() int {\n return ((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((1))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))\n}", "parse error at 2:88: nesting too deep (more than 80 levels)", (102, 103, 2, 88)),
    ("package main x", "parse error at 1:14: expected end of statement, found `x`", (13, 14, 1, 14)),
    ("func (", "parse error at 1:6: expected identifier, found `(`", (5, 6, 1, 6)),
    ("func 5() {\n}", "parse error at 1:6: expected identifier, found `5`", (5, 6, 1, 6)),
    ("func \"x\"() {\n}", "parse error at 1:6: expected identifier, found `\"x\"`", (5, 8, 1, 6)),
    ("import (\n x\n)", "parse error at 2:3: expected import path, found `x`", (11, 11, 2, 3)),
    ("import 12", "parse error at 1:10: expected import path, found `12`", (9, 9, 1, 10)),
    ("x := 1", "parse error at 1:1: expected declaration, found `x`", (0, 1, 1, 1)),
    ("func f(a 1) {\n}", "parse error at 1:10: expected type, found `1`", (9, 10, 1, 10)),
    ("func f() {", "parse error at 1:11: unexpected end of file inside block", (10, 10, 1, 11)),
    ("func f() {\n go 1\n}", "parse error at 2:5: `go` must be followed by a function call", (15, 16, 2, 5)),
    ("func f() {\n defer 1\n}", "parse error at 2:8: `defer` must be followed by a function call", (18, 19, 2, 8)),
    ("func f() {\n a.b := 1\n}", "parse error at 2:2: left side of `:=` must be identifiers", (12, 15, 2, 2)),
    ("func f() {\n a, b += 1\n}", "parse error at 2:10: compound assignment takes exactly one target", (20, 21, 2, 10)),
    ("func f() {\n a, b 5\n}", "parse error at 2:7: expected `:=` or `=`, found `5`", (17, 18, 2, 7)),
    ("func f() {\n a, b \"s\"\n}", "parse error at 2:7: expected `:=` or `=`, found `\"s\"`", (17, 20, 2, 7)),
    ("func f() {\n for a := 1 {\n }\n}", "parse error at 2:13: expected loop condition", (23, 24, 2, 13)),
    ("func f() {\n x := \n}", "parse error at 3:1: expected expression, found `}`", (18, 19, 3, 1)),
    ("func f() {\n x := go\n}", "parse error at 2:7: expected expression, found `go`", (17, 19, 2, 7)),
    ("func f() {\n break\n}", "lowering error at 2:2: `break` outside loop or select", (12, 17, 2, 2)),
    ("func f() {\n continue\n}", "lowering error at 2:2: `continue` outside loop", (12, 20, 2, 2)),
    ("func f() {\n a.b++\n}", "lowering error at 2:2: `++`/`--` requires a variable", (12, 17, 2, 2)),
    ("func f() {\n x++\n}", "lowering error at 2:2: unknown variable `x`", (12, 15, 2, 2)),
    ("func f() {\n a, b := 1\n}", "lowering error at 2:2: multi-value `:=` requires a call or channel receive", (12, 21, 2, 2)),
    ("func f() {\n a := 1\n b := 2\n a, b = 3\n}", "lowering error at 4:2: multi-assign requires a call on the right", (28, 36, 4, 2)),
    ("func f() {\n x = 1\n}", "lowering error at 2:2: assignment to undeclared variable `x`", (12, 17, 2, 2)),
    ("func f() {\n g() = 1\n}", "lowering error at 2:2: unsupported assignment target", (12, 19, 2, 2)),
    ("func f() {\n y := undefined_var\n}", "lowering error at 2:7: unknown identifier `undefined_var`", (17, 30, 2, 7)),
    ("func f() {\n x := make(int)\n}", "lowering error at 2:7: cannot make(Int)", (17, 26, 2, 7)),
];

#[test]
fn error_messages_and_spans_match_their_goldens() {
    let actual: Vec<(String, String, At)> = ERRORS
        .iter()
        .map(|&(source, _, _)| {
            let (text, span) = front_end_error(source);
            (source.to_string(), text, at(span))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(source, text, span)| format!("    ({source:?}, {text:?}, {span:?}),\n"))
        .collect();
    let expected: Vec<(String, String, At)> = ERRORS
        .iter()
        .map(|&(source, text, span)| (source.to_string(), text.to_string(), span))
        .collect();
    assert_eq!(actual, expected, "actual table:\n{table}");
}

/// Two lowering errors no source text reaches (the parser rejects the
/// construct first), pinned on a hand-edited AST.
#[test]
fn unreachable_lowering_errors_keep_their_text() {
    let mut program = golite::parse("func f() {\n go g()\n}").expect("parses");
    let Decl::Func(f) = &mut program.decls[0] else {
        panic!("a function")
    };
    let StmtKind::Go(call) = &mut f.body.stmts[0].kind else {
        panic!("a go statement")
    };
    call.kind = ExprKind::Ident("g".into());
    let (text, span) = lowering_error(&program);
    assert_eq!(text, "lowering error at 2:5: expected call expression");
    assert_eq!(at(span), (15, 18, 2, 5));

    let mut program = golite::parse("func f() {\n x := S{}\n _ = x\n}").expect("parses");
    let Decl::Func(f) = &mut program.decls[0] else {
        panic!("a function")
    };
    let StmtKind::Define { rhs, .. } = &mut f.body.stmts[0].kind else {
        panic!("a define")
    };
    let ExprKind::Composite { ty, .. } = &mut rhs.kind else {
        panic!("a composite literal")
    };
    *ty = Type::Int;
    let (text, span) = lowering_error(&program);
    assert_eq!(
        text,
        "lowering error at 2:7: unsupported composite literal Int"
    );
    assert_eq!(at(span), (17, 20, 2, 7));
}

/// Tokens carry no text, so the lexer allocates nothing per token and the
/// parser copies tokens instead of cloning them.
#[test]
fn tokens_are_small_and_copy() {
    fn copy<T: Copy>() {}
    copy::<Token>();
    assert!(std::mem::size_of::<Token>() <= 24);
}
