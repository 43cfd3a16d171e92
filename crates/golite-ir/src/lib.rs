//! # golite-ir — CFG IR and static analyses for GoLite
//!
//! This crate replaces the `golang.org/x/tools/go/ssa`, `go/pointer`, and
//! `go/callgraph` packages the original GCatch builds on:
//!
//! * [`ir`] — a mid-level control-flow-graph IR with explicit channel,
//!   mutex, wait-group, goroutine-spawn, and defer operations;
//! * [`mod@lower`] — AST → IR lowering, including closure lifting and
//!   desugaring of the `context`/`time`/`testing` vocabulary;
//! * [`alias`] — Andersen-style points-to analysis with an on-the-fly call
//!   graph (closures resolve precisely; the paper's documented alias
//!   imprecisions are reproduced deliberately);
//! * [`dom`] — dominators and post-dominators used by GFix's safety checks;
//! * [`diff`] — shift-invariant module shapes and function-granular diffs
//!   for warm re-analysis, hashed with the workspace's one [`fnv`] hash.
//!
//! # Examples
//!
//! ```
//! let src = "
//! func main() {
//!     ch := make(chan int)
//!     go func() {
//!         ch <- 1
//!     }()
//!     <-ch
//! }
//! ";
//! let module = golite_ir::lower_source(src).unwrap();
//! let analysis = golite_ir::analyze(&module);
//! assert_eq!(module.funcs.len(), 2); // main + lifted closure
//! assert!(analysis.call_sites().iter().any(|cs| matches!(cs.kind, golite_ir::CallKind::Go)));
//! ```

#![warn(missing_docs)]

pub mod alias;
pub mod diff;
pub mod dom;
pub mod fnv;
pub mod intern;
pub mod ir;
pub mod lower;

pub use alias::{
    analyze, analyze_with_mode, AbstractObject, AliasMode, AliasStats, Analysis, CallKind, CallSite,
};
pub use diff::{changed_funcs, module_diff, module_shape, ModuleDiff, ModuleShape, Shift};
pub use dom::{predecessors, reachable_blocks, Dominators, PostDominators};
pub use intern::Symbol;
pub use ir::*;
pub use lower::{lower, lower_source, LowerError};
