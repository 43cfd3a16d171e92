//! The constraint language consumed by the solver.
//!
//! GCatch's constraint system (§3.4 of the paper) needs exactly three kinds of
//! atoms:
//!
//! * free boolean variables — the `P(s, r)` match variables and `CLOSED`
//!   variables;
//! * difference atoms over integer *order* variables — `O_i < O_j` and
//!   `O_i = O_j`;
//! * pseudo-boolean sums of atoms — the channel-buffer counters `CB`, which
//!   count "sends before minus receives before" and compare against the
//!   buffer size `BS`.
//!
//! [`Term`] closes these atoms under the usual boolean connectives.

use std::fmt;

/// A free boolean variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoolVar(pub u32);

/// An integer variable (an execution-order variable in GCatch's encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntVar(pub u32);

impl fmt::Display for BoolVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for IntVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// An atomic constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Atom {
    /// A free boolean variable.
    Bool(BoolVar),
    /// `x - y <= c` — the difference-logic atom. Strict `x < y` is
    /// `x - y <= -1`; `x <= y` is `x - y <= 0`.
    DiffLe {
        /// Left variable.
        x: IntVar,
        /// Right variable.
        y: IntVar,
        /// The constant bound.
        c: i64,
    },
}

/// Comparison operators for [`Term::Linear`] constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
}

/// A formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// An atom.
    Atom(Atom),
    /// Negation.
    Not(Box<Term>),
    /// Conjunction (empty = true).
    And(Vec<Term>),
    /// Disjunction (empty = false).
    Or(Vec<Term>),
    /// A pseudo-boolean constraint `Σ coefᵢ·atomᵢ cmp k` where a true atom
    /// contributes its coefficient and a false atom contributes 0.
    Linear {
        /// Signed terms of the sum.
        terms: Vec<(i64, Atom)>,
        /// The comparison operator.
        cmp: Cmp,
        /// The right-hand constant.
        k: i64,
    },
}

impl Term {
    /// A free boolean variable as a term.
    pub fn var(v: BoolVar) -> Term {
        Term::Atom(Atom::Bool(v))
    }

    /// `x < y` over integer variables.
    pub fn lt(x: IntVar, y: IntVar) -> Term {
        Term::Atom(Atom::DiffLe { x, y, c: -1 })
    }

    /// `x <= y` over integer variables.
    pub fn le(x: IntVar, y: IntVar) -> Term {
        Term::Atom(Atom::DiffLe { x, y, c: 0 })
    }

    /// `x == y` over integer variables.
    pub fn eq_int(x: IntVar, y: IntVar) -> Term {
        Term::And(vec![Term::le(x, y), Term::le(y, x)])
    }

    /// Negation, with immediate simplification of double negation.
    #[allow(clippy::should_implement_trait)] // constructor named after the connective
    pub fn not(t: Term) -> Term {
        match t {
            Term::Not(inner) => *inner,
            Term::True => Term::False,
            Term::False => Term::True,
            other => Term::Not(Box::new(other)),
        }
    }

    /// N-ary conjunction with constant folding.
    pub fn and(ts: impl IntoIterator<Item = Term>) -> Term {
        let mut out = Vec::new();
        for t in ts {
            match t {
                Term::True => {}
                Term::False => return Term::False,
                Term::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Term::True,
            1 => out.pop().expect("len checked"),
            _ => Term::And(out),
        }
    }

    /// N-ary disjunction with constant folding.
    pub fn or(ts: impl IntoIterator<Item = Term>) -> Term {
        let mut out = Vec::new();
        for t in ts {
            match t {
                Term::False => {}
                Term::True => return Term::True,
                Term::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Term::False,
            1 => out.pop().expect("len checked"),
            _ => Term::Or(out),
        }
    }

    /// `a → b`.
    pub fn implies(a: Term, b: Term) -> Term {
        Term::or([Term::not(a), b])
    }

    /// `a ↔ b`.
    pub fn iff(a: Term, b: Term) -> Term {
        Term::and([Term::implies(a.clone(), b.clone()), Term::implies(b, a)])
    }

    /// Exactly one of `atoms` is true — GCatch's "one and only one receive
    /// matches the send" requirement. The empty case is `false`.
    pub fn exactly_one(atoms: impl IntoIterator<Item = Atom>) -> Term {
        let atoms: Vec<Atom> = atoms.into_iter().collect();
        if atoms.is_empty() {
            return Term::False;
        }
        Term::Linear {
            terms: atoms.into_iter().map(|a| (1, a)).collect(),
            cmp: Cmp::Eq,
            k: 1,
        }
    }

    /// At most one of `atoms` is true.
    pub fn at_most_one(atoms: impl IntoIterator<Item = Atom>) -> Term {
        let terms: Vec<(i64, Atom)> = atoms.into_iter().map(|a| (1, a)).collect();
        if terms.is_empty() {
            return Term::True;
        }
        Term::Linear {
            terms,
            cmp: Cmp::Le,
            k: 1,
        }
    }

    /// Collects every atom mentioned in the term into `out`.
    pub fn collect_atoms(&self, out: &mut Vec<Atom>) {
        match self {
            Term::True | Term::False => {}
            Term::Atom(a) => out.push(*a),
            Term::Not(t) => t.collect_atoms(out),
            Term::And(ts) | Term::Or(ts) => {
                for t in ts {
                    t.collect_atoms(out);
                }
            }
            Term::Linear { terms, .. } => out.extend(terms.iter().map(|(_, a)| *a)),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::True => write!(f, "true"),
            Term::False => write!(f, "false"),
            Term::Atom(Atom::Bool(v)) => write!(f, "{v}"),
            Term::Atom(Atom::DiffLe { x, y, c }) => match c {
                -1 => write!(f, "({x} < {y})"),
                0 => write!(f, "({x} <= {y})"),
                c => write!(f, "({x} - {y} <= {c})"),
            },
            Term::Not(t) => write!(f, "¬{t}"),
            Term::And(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Term::Or(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Term::Linear { terms, cmp, k } => {
                write!(f, "(")?;
                for (i, (c, a)) in terms.iter().enumerate() {
                    if i > 0 || *c < 0 {
                        write!(f, "{}", if *c < 0 { " - " } else { " + " })?;
                    }
                    write!(f, "{}", Term::Atom(*a))?;
                }
                let op = match cmp {
                    Cmp::Lt => "<",
                    Cmp::Le => "<=",
                    Cmp::Gt => ">",
                    Cmp::Ge => ">=",
                    Cmp::Eq => "==",
                };
                write!(f, " {op} {k})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_folds_constants() {
        assert_eq!(Term::and([Term::True, Term::True]), Term::True);
        assert_eq!(Term::and([Term::True, Term::False]), Term::False);
        let v = Term::var(BoolVar(0));
        assert_eq!(Term::and([Term::True, v.clone()]), v);
    }

    #[test]
    fn or_folds_constants() {
        assert_eq!(Term::or([Term::False, Term::False]), Term::False);
        assert_eq!(Term::or([Term::False, Term::True]), Term::True);
    }

    #[test]
    fn nested_ands_flatten() {
        let a = Term::var(BoolVar(0));
        let b = Term::var(BoolVar(1));
        let c = Term::var(BoolVar(2));
        let t = Term::and([Term::and([a.clone(), b.clone()]), c.clone()]);
        assert_eq!(t, Term::And(vec![a, b, c]));
    }

    #[test]
    fn double_negation_cancels() {
        let a = Term::var(BoolVar(0));
        assert_eq!(Term::not(Term::not(a.clone())), a);
    }

    #[test]
    fn strict_lt_encodes_minus_one() {
        match Term::lt(IntVar(0), IntVar(1)) {
            Term::Atom(Atom::DiffLe { c, .. }) => assert_eq!(c, -1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exactly_one_of_empty_is_false() {
        assert_eq!(Term::exactly_one([]), Term::False);
    }

    #[test]
    fn collect_atoms_walks_everything() {
        let t = Term::and([
            Term::var(BoolVar(0)),
            Term::or([
                Term::lt(IntVar(0), IntVar(1)),
                Term::not(Term::var(BoolVar(1))),
            ]),
            Term::exactly_one([Atom::Bool(BoolVar(2))]),
        ]);
        let mut atoms = Vec::new();
        t.collect_atoms(&mut atoms);
        assert_eq!(atoms.len(), 4);
    }

    #[test]
    fn display_is_readable() {
        let t = Term::lt(IntVar(3), IntVar(7));
        assert_eq!(t.to_string(), "(i3 < i7)");
    }
}
