//! # minismt — the constraint solver behind the GCatch reproduction
//!
//! The GCatch/GFix paper (ASPLOS '21) discharges its blocking-bug
//! constraints with Z3. This crate is the from-scratch replacement: a
//! DPLL(T) solver specialized to exactly the constraint language GCatch's
//! encoding (§3.4 of the paper) needs:
//!
//! * **free booleans** — the `P(s, r)` send/receive match variables and the
//!   `CLOSED` channel-state variables;
//! * **difference logic** over integer order variables — `Oᵢ < Oⱼ`
//!   (program/spawn order) and `Oᵢ = Oⱼ` (a matched send and receive execute
//!   together);
//! * **pseudo-boolean sums** — the channel-buffer counters `CB`, computed as
//!   "number of sends before minus number of receives before" and compared
//!   against the buffer size `BS`, plus exactly-one matching cardinality.
//!
//! The architecture is DPLL with chronological backtracking, Tseitin CNF
//! conversion, a counter-based pseudo-boolean propagator with reification,
//! and an eager incremental difference-logic theory that maintains a
//! feasible potential and learns negative-cycle conflict clauses.
//!
//! Solving is incremental in the one way GCatch needs:
//! [`Solver::solve_under`] answers a query under assumption literals and
//! keeps the clauses it learns for later queries on the same formula, and
//! [`Solver::reset`] starts the next formula in the same allocations.
//!
//! # Examples
//!
//! Prove that a send on an unbuffered channel must synchronize with its
//! receive:
//!
//! ```
//! use minismt::{Solver, Term};
//!
//! let mut s = Solver::new();
//! let o_send = s.fresh_int();
//! let o_recv = s.fresh_int();
//! let p = s.fresh_bool();
//!
//! // The send proceeds only when matched (buffer size 0), and matching
//! // makes both operations execute at the same time.
//! s.assert(Term::implies(
//!     Term::var(p),
//!     Term::eq_int(o_send, o_recv),
//! ));
//! s.assert(Term::var(p));
//!
//! let model = s.solve().model().expect("satisfiable");
//! assert_eq!(model.int_value(o_send), model.int_value(o_recv));
//! ```

#![warn(missing_docs)]

mod dl;
mod solver;
mod term;

pub use dl::DiffLogic;
pub use solver::{Model, SolveResult, Solver, SolverMode, SolverStats};
pub use term::{Atom, BoolVar, Cmp, IntVar, Term};
