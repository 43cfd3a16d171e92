//! Differential testing: the DPLL(T) solver must agree with a brute-force
//! reference on small random instances.
//!
//! The reference enumerates every truth assignment of the atoms appearing in
//! the formula, evaluates the boolean structure (with linear constraints
//! evaluated arithmetically), and checks difference-logic consistency of the
//! implied edge set with Floyd–Warshall. Random terms come from a seeded
//! generator (no external property-testing crate).

use minismt::{Atom, BoolVar, Cmp, IntVar, SolveResult, Solver, SolverMode, Term};
use prng::Prng;

const N_INT: u32 = 4;
const N_BOOL: u32 = 3;
const CASES: u64 = 512;

fn gen_atom(rng: &mut Prng) -> Atom {
    if rng.gen_bool(0.5) {
        Atom::Bool(BoolVar(rng.gen_range(0..N_BOOL)))
    } else {
        Atom::DiffLe {
            x: IntVar(rng.gen_range(0..N_INT)),
            y: IntVar(rng.gen_range(0..N_INT)),
            c: rng.gen_range(-1i64..=1),
        }
    }
}

fn gen_leaf(rng: &mut Prng) -> Term {
    // Weighted like the original strategy: atom 4, True 1, False 1, linear 2.
    match rng.gen_range(0..8usize) {
        0..=3 => Term::Atom(gen_atom(rng)),
        4 => Term::True,
        5 => Term::False,
        _ => {
            let n = rng.gen_range(1..4usize);
            let terms: Vec<(i64, Atom)> = (0..n)
                .map(|_| (rng.gen_range(-1i64..=1), gen_atom(rng)))
                .filter(|(c, _)| *c != 0)
                .collect();
            let k = rng.gen_range(-2i64..=3);
            if terms.is_empty() {
                Term::True
            } else {
                Term::Linear {
                    terms,
                    cmp: Cmp::Le,
                    k,
                }
            }
        }
    }
}

fn gen_term(rng: &mut Prng, depth: usize) -> Term {
    if depth == 0 || rng.gen_bool(0.4) {
        return gen_leaf(rng);
    }
    let n = rng.gen_range(1..4usize);
    match rng.gen_range(0..3usize) {
        0 => Term::And((0..n).map(|_| gen_term(rng, depth - 1)).collect()),
        1 => Term::Or((0..n).map(|_| gen_term(rng, depth - 1)).collect()),
        _ => Term::Not(Box::new(gen_term(rng, depth - 1))),
    }
}

/// Collect distinct atoms of a term.
fn atoms_of(t: &Term) -> Vec<Atom> {
    let mut atoms = Vec::new();
    t.collect_atoms(&mut atoms);
    let mut seen = Vec::new();
    for a in atoms {
        if !seen.contains(&a) {
            seen.push(a);
        }
    }
    seen
}

fn eval(t: &Term, atoms: &[Atom], assignment: u32) -> bool {
    let truth = |a: &Atom| -> bool {
        let idx = atoms.iter().position(|x| x == a).expect("atom registered");
        assignment >> idx & 1 == 1
    };
    fn go(t: &Term, truth: &dyn Fn(&Atom) -> bool) -> bool {
        match t {
            Term::True => true,
            Term::False => false,
            Term::Atom(a) => truth(a),
            Term::Not(inner) => !go(inner, truth),
            Term::And(ts) => ts.iter().all(|t| go(t, truth)),
            Term::Or(ts) => ts.iter().any(|t| go(t, truth)),
            Term::Linear { terms, cmp, k } => {
                let sum: i64 = terms
                    .iter()
                    .map(|(c, a)| if truth(a) { *c } else { 0 })
                    .sum();
                match cmp {
                    Cmp::Lt => sum < *k,
                    Cmp::Le => sum <= *k,
                    Cmp::Gt => sum > *k,
                    Cmp::Ge => sum >= *k,
                    Cmp::Eq => sum == *k,
                }
            }
        }
    }
    go(t, &truth)
}

/// Floyd–Warshall feasibility of the difference constraints implied by an
/// atom assignment (true: `x - y <= c`; false: `y - x <= -c-1`).
fn diff_consistent(atoms: &[Atom], assignment: u32) -> bool {
    let n = N_INT as usize;
    let inf = i64::MAX / 4;
    let mut d = vec![vec![inf; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for (idx, atom) in atoms.iter().enumerate() {
        if let Atom::DiffLe { x, y, c } = atom {
            let (x, y) = (x.0 as usize, y.0 as usize);
            let (fx, fy, fc) = if assignment >> idx & 1 == 1 {
                (x, y, *c)
            } else {
                (y, x, -c - 1)
            };
            // Constraint fx - fy <= fc: edge fy -> fx of weight fc.
            if d[fy][fx] > fc {
                d[fy][fx] = fc;
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if d[i][k] + d[k][j] < d[i][j] {
                    d[i][j] = d[i][k] + d[k][j];
                }
            }
        }
    }
    (0..n).all(|i| d[i][i] >= 0)
}

fn brute_force_sat(t: &Term) -> bool {
    let atoms = atoms_of(t);
    assert!(atoms.len() <= 20, "instance too large for brute force");
    (0u32..1 << atoms.len())
        .any(|assignment| eval(t, &atoms, assignment) && diff_consistent(&atoms, assignment))
}

/// Validates a SAT model against the original term.
fn model_satisfies(t: &Term, model: &minismt::Model) -> bool {
    fn truth(a: &Atom, model: &minismt::Model) -> bool {
        match a {
            Atom::Bool(v) => model.bool_value(*v).unwrap_or(false),
            Atom::DiffLe { x, y, c } => {
                let vx = model.int_value(*x).unwrap_or(0);
                let vy = model.int_value(*y).unwrap_or(0);
                vx - vy <= *c
            }
        }
    }
    fn go(t: &Term, model: &minismt::Model) -> bool {
        match t {
            Term::True => true,
            Term::False => false,
            Term::Atom(a) => truth(a, model),
            Term::Not(inner) => !go(inner, model),
            Term::And(ts) => ts.iter().all(|t| go(t, model)),
            Term::Or(ts) => ts.iter().any(|t| go(t, model)),
            Term::Linear { terms, cmp, k } => {
                let sum: i64 = terms
                    .iter()
                    .map(|(c, a)| if truth(a, model) { *c } else { 0 })
                    .sum();
                match cmp {
                    Cmp::Lt => sum < *k,
                    Cmp::Le => sum <= *k,
                    Cmp::Gt => sum > *k,
                    Cmp::Ge => sum >= *k,
                    Cmp::Eq => sum == *k,
                }
            }
        }
    }
    go(t, model)
}

/// Solver verdicts agree with brute force, and SAT models actually
/// satisfy the formula.
#[test]
fn solver_agrees_with_bruteforce() {
    for seed in 0..CASES {
        let t = gen_term(&mut Prng::seed_from_u64(seed), 3);
        let expected = brute_force_sat(&t);
        let mut s = Solver::new();
        s.assert(t.clone());
        match s.solve() {
            SolveResult::Sat(model) => {
                assert!(
                    expected,
                    "seed {seed}: solver said SAT, brute force says UNSAT: {t}"
                );
                assert!(
                    model_satisfies(&t, &model),
                    "seed {seed}: model does not satisfy the formula: {t}"
                );
            }
            SolveResult::Unsat => {
                assert!(
                    !expected,
                    "seed {seed}: solver said UNSAT, brute force says SAT: {t}"
                );
            }
            SolveResult::Unknown => panic!("seed {seed}: budget exhausted on a tiny instance"),
        }
    }
}

/// Conjunction of two terms is SAT only if each conjunct is SAT.
#[test]
fn conjunction_soundness() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed ^ 0xC0_FFEE);
        let a = gen_term(&mut rng, 3);
        let b = gen_term(&mut rng, 3);
        let mut s = Solver::new();
        s.assert(a.clone());
        s.assert(b.clone());
        if s.solve().is_sat() {
            let mut sa = Solver::new();
            sa.assert(a);
            assert!(sa.solve().is_sat(), "seed {seed}");
            let mut sb = Solver::new();
            sb.assert(b);
            assert!(sb.solve().is_sat(), "seed {seed}");
        }
    }
}

/// One query's observable answer: the verdict (`S`at, `U`nsat, `?`
/// unknown), the model's value of every variable the generator draws, and
/// `(steps, decisions, conflicts)`.
type Answer = (char, Vec<Option<bool>>, Vec<Option<i64>>, [u64; 3]);

fn answer(s: &mut Solver, assumptions: &[Term]) -> Answer {
    let (verdict, bools, ints) = match s.solve_under(assumptions) {
        SolveResult::Sat(m) => (
            'S',
            (0..N_BOOL).map(|v| m.bool_value(BoolVar(v))).collect(),
            (0..N_INT).map(|v| m.int_value(IntVar(v))).collect(),
        ),
        SolveResult::Unsat => ('U', Vec::new(), Vec::new()),
        SolveResult::Unknown => ('?', Vec::new(), Vec::new()),
    };
    let st = s.stats();
    (verdict, bools, ints, [st.steps, st.decisions, st.conflicts])
}

/// An assumption as the detector writes them: an atom or its negation.
fn gen_literal(rng: &mut Prng) -> Term {
    let atom = Term::Atom(gen_atom(rng));
    if rng.gen_bool(0.5) {
        Term::not(atom)
    } else {
        atom
    }
}

fn gen_assumptions(rng: &mut Prng) -> Vec<Term> {
    (0..rng.gen_range(0..4usize))
        .map(|_| gen_literal(rng))
        .collect()
}

/// One solver reused through `reset` answers every random formula exactly
/// as a new solver does, in both engines: same verdict, model and effort,
/// whatever the previous formulas left behind.
#[test]
fn a_reset_solver_answers_like_a_new_one() {
    for mode in [SolverMode::Watched, SolverMode::Rescan] {
        let mut reused = Solver::with_mode(mode);
        for seed in 0..4 * CASES {
            let mut rng = Prng::seed_from_u64(seed ^ 0x5EED);
            let t = gen_term(&mut rng, 3);
            let assumptions = gen_assumptions(&mut rng);
            reused.reset();
            reused.assert(t.clone());
            let mut new = Solver::with_mode(mode);
            new.assert(t.clone());
            assert_eq!(
                answer(&mut reused, &assumptions),
                answer(&mut new, &assumptions),
                "{mode:?} seed {seed}: {t}"
            );
            // Leave more history behind for the next reset.
            reused.solve_under(&gen_assumptions(&mut rng));
        }
    }
}

/// One solver answers a sequence of random assumption sets over one
/// formula, keeping what each query learned, as the detector's
/// per-channel solver does. Every answer agrees with brute force on the
/// formula and the assumptions, and every model satisfies both: the
/// soundness every incremental `Safe` verdict rests on.
#[test]
fn incremental_queries_agree_with_bruteforce() {
    for seed in 0..2 * CASES {
        let mut rng = Prng::seed_from_u64(seed ^ 0xA55E);
        let t = gen_term(&mut rng, 3);
        let mut s = Solver::new();
        s.assert(t.clone());
        for query in 0..4 {
            let assumptions = gen_assumptions(&mut rng);
            let conj = Term::And(
                std::iter::once(t.clone())
                    .chain(assumptions.clone())
                    .collect(),
            );
            let expected = brute_force_sat(&conj);
            match s.solve_under(&assumptions) {
                SolveResult::Sat(model) => {
                    assert!(
                        expected,
                        "seed {seed} query {query}: SAT, brute force UNSAT: {conj}"
                    );
                    assert!(
                        model_satisfies(&conj, &model),
                        "seed {seed} query {query}: model violates {conj}"
                    );
                }
                SolveResult::Unsat => {
                    assert!(
                        !expected,
                        "seed {seed} query {query}: UNSAT, brute force SAT: {conj}"
                    );
                }
                SolveResult::Unknown => panic!("seed {seed}: budget exhausted on a tiny instance"),
            }
        }
    }
}
