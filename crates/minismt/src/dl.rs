//! Incremental difference-logic theory solver.
//!
//! Maintains a set of constraints of the form `x - y <= c` over integer
//! variables and answers feasibility incrementally. The implementation keeps
//! a *feasible potential* `π` (an assignment satisfying every active
//! constraint). Asserting a new constraint triggers a label-correcting
//! relaxation; if the relaxation wraps around to the constraint's own
//! right-hand variable, the constraint closes a negative cycle and the
//! theory reports the cycle's tags as an explanation.
//!
//! Retracting constraints (on solver backtracking) is free: a potential that
//! is feasible for a superset of constraints is feasible for any subset.

/// Identifies the external fact (a solver literal) that caused an edge.
pub type Tag = u32;

#[derive(Debug, Clone)]
struct Edge {
    /// Constraint `x - y <= c`.
    x: usize,
    y: usize,
    c: i64,
    tag: Tag,
    active: bool,
}

/// The incremental difference-logic solver.
#[derive(Debug, Default)]
pub struct DiffLogic {
    pi: Vec<i64>,
    edges: Vec<Edge>,
    /// For vertex `y`, edges `x - y <= c` (i.e. edges whose bound depends on
    /// `π[y]`).
    out: Vec<Vec<usize>>,
    /// Assertion-ordered stack of edge indices, for backtracking.
    trail: Vec<usize>,
}

impl DiffLogic {
    /// Creates an empty theory state.
    pub fn new() -> Self {
        DiffLogic::default()
    }

    /// Ensures variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: usize) {
        while self.pi.len() < n {
            self.pi.push(0);
            self.out.push(Vec::new());
        }
    }

    /// Forgets every variable and constraint, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.pi.clear();
        self.edges.clear();
        self.out.clear();
        self.trail.clear();
    }

    /// Number of currently active constraints.
    pub fn active_len(&self) -> usize {
        self.trail.len()
    }

    /// The current feasible value of variable `v`.
    ///
    /// Values satisfy every active constraint, so they form a model of the
    /// asserted difference constraints.
    pub fn value(&self, v: usize) -> i64 {
        self.pi.get(v).copied().unwrap_or(0)
    }

    /// Asserts `x - y <= c`.
    ///
    /// # Errors
    ///
    /// If the constraint closes a negative cycle, returns the tags of every
    /// constraint on that cycle (including `tag` itself); the theory state is
    /// unchanged.
    pub fn assert(&mut self, x: usize, y: usize, c: i64, tag: Tag) -> Result<(), Vec<Tag>> {
        self.ensure_vars(x.max(y) + 1);
        if x == y {
            if c < 0 {
                return Err(vec![tag]);
            }
            // Trivially true; record an inert edge so backtracking stays aligned.
            let idx = self.edges.len();
            self.edges.push(Edge {
                x,
                y,
                c,
                tag,
                active: true,
            });
            self.trail.push(idx);
            return Ok(());
        }

        let idx = self.edges.len();
        self.edges.push(Edge {
            x,
            y,
            c,
            tag,
            active: true,
        });
        self.out[y].push(idx);
        self.trail.push(idx);

        if self.pi[x] <= self.pi[y] + c {
            return Ok(()); // Already satisfied; potential unchanged.
        }

        // Relax: lower π[x] and propagate decreases. Record prior values so
        // the whole attempt can be rolled back on conflict.
        let mut saved: Vec<(usize, i64)> = Vec::new();
        let mut parent: Vec<Option<usize>> = vec![None; self.pi.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();

        saved.push((x, self.pi[x]));
        self.pi[x] = self.pi[y] + c;
        parent[x] = Some(idx);
        queue.push_back(x);

        while let Some(u) = queue.pop_front() {
            // Relax all edges `z - u <= cz`: π[z] must be ≤ π[u] + cz.
            for &ei in &self.out[u].clone() {
                let e = &self.edges[ei];
                if !e.active {
                    continue;
                }
                let (z, cz) = (e.x, e.c);
                if self.pi[z] > self.pi[u] + cz {
                    if z == y {
                        // Negative cycle: new edge plus the parent chain from
                        // `u` back to `x`, plus this closing edge.
                        let mut tags = vec![self.edges[ei].tag];
                        let mut cur = u;
                        loop {
                            let pe = parent[cur].expect("relaxed vertices have parents");
                            tags.push(self.edges[pe].tag);
                            if pe == idx {
                                break;
                            }
                            cur = self.edges[pe].y;
                        }
                        // Roll back the attempted relaxation and the edge.
                        for &(v, old) in saved.iter().rev() {
                            self.pi[v] = old;
                        }
                        self.retract_last();
                        tags.dedup();
                        return Err(tags);
                    }
                    saved.push((z, self.pi[z]));
                    self.pi[z] = self.pi[u] + cz;
                    parent[z] = Some(ei);
                    queue.push_back(z);
                }
            }
        }
        Ok(())
    }

    /// Retracts the most recently asserted constraint.
    ///
    /// # Panics
    ///
    /// Panics if no constraint is active.
    pub fn retract_last(&mut self) {
        let idx = self.trail.pop().expect("retract on empty trail");
        self.edges[idx].active = false;
        // Remove from adjacency (it is at the back by construction).
        let y = self.edges[idx].y;
        if self.edges[idx].x != y {
            if let Some(pos) = self.out[y].iter().rposition(|&e| e == idx) {
                self.out[y].remove(pos);
            }
        }
        self.edges.truncate(self.edges.len().min(idx + 1));
        if self.edges.len() == idx + 1 && !self.edges[idx].active {
            self.edges.pop();
        }
    }

    /// Retracts constraints until only `n` remain active.
    pub fn retract_to(&mut self, n: usize) {
        while self.trail.len() > n {
            self.retract_last();
        }
    }

    /// Checks that the current potential satisfies every active constraint.
    /// Exposed for tests and debug assertions.
    pub fn check_invariant(&self) -> bool {
        self.trail.iter().all(|&ei| {
            let e = &self.edges[ei];
            !e.active || self.pi[e.x] <= self.pi[e.y] + e.c
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_chain_is_feasible() {
        let mut dl = DiffLogic::new();
        // a < b < c  (a-b <= -1, b-c <= -1)
        dl.assert(0, 1, -1, 1).unwrap();
        dl.assert(1, 2, -1, 2).unwrap();
        assert!(dl.check_invariant());
        assert!(dl.value(0) < dl.value(1));
        assert!(dl.value(1) < dl.value(2));
    }

    #[test]
    fn two_cycle_is_conflict() {
        let mut dl = DiffLogic::new();
        dl.assert(0, 1, -1, 10).unwrap(); // a < b
        let err = dl.assert(1, 0, -1, 20).unwrap_err(); // b < a
        assert!(err.contains(&10) && err.contains(&20));
        // State must be unchanged: re-asserting a compatible constraint works.
        assert!(dl.check_invariant());
        dl.assert(1, 0, 5, 30).unwrap(); // b - a <= 5 is fine
        assert!(dl.check_invariant());
    }

    #[test]
    fn long_cycle_reports_all_tags() {
        let mut dl = DiffLogic::new();
        dl.assert(0, 1, -1, 1).unwrap();
        dl.assert(1, 2, -1, 2).unwrap();
        dl.assert(2, 3, -1, 3).unwrap();
        let err = dl.assert(3, 0, -1, 4).unwrap_err();
        let mut tags = err.clone();
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2, 3, 4]);
    }

    #[test]
    fn equality_via_two_le_edges() {
        let mut dl = DiffLogic::new();
        dl.assert(0, 1, 0, 1).unwrap();
        dl.assert(1, 0, 0, 2).unwrap();
        assert_eq!(dl.value(0), dl.value(1));
        // x = y plus x < y is a conflict.
        assert!(dl.assert(0, 1, -1, 3).is_err());
    }

    #[test]
    fn retract_restores_feasibility() {
        let mut dl = DiffLogic::new();
        dl.assert(0, 1, -1, 1).unwrap();
        let mark = dl.active_len();
        dl.assert(1, 2, -1, 2).unwrap();
        dl.retract_to(mark);
        // Now 2 < 0 is fine because 1 < 2 is gone.
        dl.assert(2, 0, -5, 3).unwrap();
        assert!(dl.check_invariant());
    }

    #[test]
    fn self_edge_negative_is_conflict() {
        let mut dl = DiffLogic::new();
        assert_eq!(dl.assert(0, 0, -1, 7).unwrap_err(), vec![7]);
        dl.assert(0, 0, 0, 8).unwrap(); // x - x <= 0 trivially true
        assert!(dl.check_invariant());
    }

    #[test]
    fn bounded_difference_constraints() {
        let mut dl = DiffLogic::new();
        dl.assert(0, 1, 3, 1).unwrap(); // x - y <= 3
        dl.assert(1, 0, -2, 2).unwrap(); // y - x <= -2, i.e. x >= y + 2
        assert!(dl.check_invariant());
        let (x, y) = (dl.value(0), dl.value(1));
        assert!(x - y <= 3 && y - x <= -2);
        // Tighten into infeasibility: x - y <= 1 contradicts x - y >= 2.
        assert!(dl.assert(0, 1, 1, 3).is_err());
        assert!(dl.check_invariant());
    }

    #[test]
    fn many_vars_independent_groups() {
        let mut dl = DiffLogic::new();
        for i in 0..50usize {
            let base = i * 3;
            dl.assert(base, base + 1, -1, i as u32).unwrap();
            dl.assert(base + 1, base + 2, -1, 100 + i as u32).unwrap();
        }
        assert!(dl.check_invariant());
        for i in 0..50usize {
            let base = i * 3;
            assert!(dl.value(base) < dl.value(base + 1));
            assert!(dl.value(base + 1) < dl.value(base + 2));
        }
    }
}
