//! # GoLite — the Go subset analyzed by the GCatch/GFix reproduction
//!
//! The GCatch/GFix paper (ASPLOS '21) analyzes real Go programs through the
//! `go/ast` and `golang.org/x/tools/go/ssa` packages. This crate is the
//! from-scratch replacement for that frontend: a lexer, parser, AST, and
//! canonical printer for *GoLite*, the subset of Go sufficient to express
//! every program pattern the paper reasons about:
//!
//! * goroutines (`go f()`, `go func(){...}()`), closures capturing variables;
//! * buffered and unbuffered channels: `make(chan T, n)`, send, receive,
//!   `close`, comma-ok receives;
//! * `select` with send/receive cases and optional `default`;
//! * `sync.Mutex` / `sync.RWMutex` / `sync.WaitGroup` / `sync.Cond`;
//! * `defer`, `panic`, multi-value returns, `context.WithCancel` /
//!   `ctx.Done()`, `testing.T` with `Fatal`/`Fatalf`;
//! * structs, slices, the usual scalar types and control flow.
//!
//! # Examples
//!
//! Parse the Docker bug from Figure 1 of the paper and print it back:
//!
//! ```
//! let src = r#"
//! func Exec(ctx context.Context) error {
//!     outDone := make(chan error)
//!     go func() {
//!         outDone <- StdCopy()
//!     }()
//!     select {
//!     case err := <-outDone:
//!         return err
//!     case <-ctx.Done():
//!         return ctx.Err()
//!     }
//! }
//!
//! func StdCopy() error {
//!     return nil
//! }
//! "#;
//! let program = golite::parse(src)?;
//! let printed = golite::print_program(&program);
//! assert!(printed.contains("outDone := make(chan error)"));
//! # Ok::<(), golite::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;

pub use ast::{
    AssignOp, BinOp, Block, Decl, Expr, ExprKind, FuncDecl, NodeId, Param, Program, SelectCase,
    SelectCaseKind, Stmt, StmtKind, StructDecl, Type, UnOp,
};
pub use lexer::{lex, LexError};
pub use parser::{parse, ParseError};
pub use printer::{print_expr, print_program, print_stmt, print_type};
pub use token::{Span, Token, TokenKind};

/// One line of a line diff between two sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineEdit<'a> {
    /// A line of the old source that the new one drops.
    Removed(&'a str),
    /// A line of the new source that the old one lacks.
    Added(&'a str),
}

/// The shortest line edit script from `before` to `after`: every line
/// outside one longest common subsequence of their lines, in source order.
/// Within a changed run, removals come before additions, so a replaced
/// line reads as `Removed(old)` then `Added(new)`.
///
/// # Examples
///
/// ```
/// use golite::LineEdit;
/// let edits = golite::line_edits("a\nb\nc", "a\nx\nb\nc");
/// assert_eq!(edits, vec![LineEdit::Added("x")]);
/// ```
pub fn line_edits<'a>(before: &'a str, after: &'a str) -> Vec<LineEdit<'a>> {
    let a: Vec<&str> = before.lines().collect();
    let b: Vec<&str> = after.lines().collect();
    // Trim the common prefix and suffix first: patches touch few lines, so
    // this keeps the quadratic LCS table tiny even for large files.
    let prefix = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    // `lcs[i * w + j]` is the LCS length of `a[i..]` and `b[j..]`.
    let w = b.len() + 1;
    let mut lcs = vec![0u32; (a.len() + 1) * w];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i * w + j] = if a[i] == b[j] {
                lcs[(i + 1) * w + j + 1] + 1
            } else {
                lcs[(i + 1) * w + j].max(lcs[i * w + j + 1])
            };
        }
    }
    let mut edits = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            i += 1;
            j += 1;
        } else if j == b.len() || (i < a.len() && lcs[(i + 1) * w + j] >= lcs[i * w + j + 1]) {
            edits.push(LineEdit::Removed(a[i]));
            i += 1;
        } else {
            edits.push(LineEdit::Added(b[j]));
            j += 1;
        }
    }
    edits
}

/// Computes a line-based diff size between two sources: the length of
/// their [`line_edits`] script, i.e. lines added plus lines removed (a
/// replaced line counts as one removal plus one addition, matching how the
/// paper counts "changed lines of code").
///
/// # Examples
///
/// ```
/// // The Figure 1 patch changes one line.
/// let before = "outDone := make(chan error)\nselect {\n}";
/// let after = "outDone := make(chan error, 1)\nselect {\n}";
/// assert_eq!(golite::diff_lines(before, after), 2); // 1 removed + 1 added
/// ```
pub fn diff_lines(before: &str, after: &str) -> usize {
    line_edits(before, after).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_lines_identical_is_zero() {
        let s = "a\nb\nc";
        assert_eq!(diff_lines(s, s), 0);
    }

    #[test]
    fn diff_lines_pure_insertion() {
        assert_eq!(diff_lines("a\nc", "a\nb\nc"), 1);
    }

    #[test]
    fn diff_lines_pure_removal() {
        assert_eq!(diff_lines("a\nb\nc", "a\nc"), 1);
    }

    #[test]
    fn diff_lines_replacement_counts_two() {
        assert_eq!(diff_lines("a\nb\nc", "a\nx\nc"), 2);
    }

    #[test]
    fn line_edits_list_exactly_the_changed_lines() {
        use LineEdit::{Added, Removed};
        // An insertion shifts every later line; only the new lines differ.
        assert_eq!(
            line_edits("f\nx\ny\nz", "f\nnew\nx\ny\nold\nz"),
            vec![Added("new"), Added("old")]
        );
        assert_eq!(
            line_edits("a\nb\nc", "a\nx\nc"),
            vec![Removed("b"), Added("x")]
        );
        assert_eq!(line_edits("a\nb", ""), vec![Removed("a"), Removed("b")]);
    }

    #[test]
    fn parse_and_print_are_exposed() {
        let prog = parse("func main() {\n}").unwrap();
        assert_eq!(prog.package, "main");
        assert!(print_program(&prog).contains("func main()"));
    }
}
