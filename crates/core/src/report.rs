//! Bug reports produced by GCatch's detectors.

use golite::Span;
use golite_ir::Loc;
use std::fmt;

/// Which detector produced a report (Table 1's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BugKind {
    /// Blocking misuse-of-channel bug involving only channels (BMOC-C).
    BmocChannel,
    /// Blocking misuse-of-channel bug involving channels and mutexes
    /// (BMOC-M).
    BmocChannelMutex,
    /// A lock acquired on some path without a matching unlock.
    MissingUnlock,
    /// The same mutex acquired twice by one goroutine.
    DoubleLock,
    /// Two mutexes acquired in conflicting orders.
    ConflictingLockOrder,
    /// A struct field usually accessed under a lock, accessed without it.
    StructFieldRace,
    /// `testing.T.Fatal` called from a goroutine other than the test's.
    FatalInChildGoroutine,
    /// A send that can execute after a close of the same channel — a
    /// runtime panic (§6's non-blocking misuse-of-channel extension).
    SendOnClosedChannel,
}

impl BugKind {
    /// Whether this is one of the two BMOC categories.
    pub fn is_bmoc(&self) -> bool {
        matches!(self, BugKind::BmocChannel | BugKind::BmocChannelMutex)
    }

    /// Whether the reported operations block forever: the BMOC and lock
    /// kinds. A field race, a `Fatal` in a child goroutine, and a send on a
    /// closed channel are reported at operations that do not block.
    pub fn is_blocking(&self) -> bool {
        matches!(
            self,
            BugKind::BmocChannel
                | BugKind::BmocChannelMutex
                | BugKind::MissingUnlock
                | BugKind::DoubleLock
                | BugKind::ConflictingLockOrder
        )
    }

    /// Short column label matching Table 1.
    pub fn label(&self) -> &'static str {
        match self {
            BugKind::BmocChannel => "BMOC-C",
            BugKind::BmocChannelMutex => "BMOC-M",
            BugKind::MissingUnlock => "ForgetUnlock",
            BugKind::DoubleLock => "DoubleLock",
            BugKind::ConflictingLockOrder => "ConflictLock",
            BugKind::StructFieldRace => "StructField",
            BugKind::FatalInChildGoroutine => "Fatal",
            BugKind::SendOnClosedChannel => "SendOnClosed",
        }
    }
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One operation participating in a bug (e.g. a blocking send).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRef {
    /// Instruction location in the IR.
    pub loc: Loc,
    /// Source span.
    pub span: Span,
    /// Human-readable description, e.g. `send on outDone`.
    pub what: String,
    /// Name of the containing function.
    pub func_name: String,
}

/// One step of a witness interleaving: a position-free label such as
/// `g0:send(ch)`, plus the IR location and source span of the operation
/// when the step is one. Rendered as `label@line:col` (or the bare label),
/// so the span can be moved without re-parsing rendered text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// What ran, without its position.
    pub label: String,
    /// Where it ran, for steps that are source operations.
    pub at: Option<(Loc, Span)>,
}

impl fmt::Display for WitnessStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)?;
        if let Some((_, span)) = &self.at {
            write!(f, "@{span}")?;
        }
        Ok(())
    }
}

impl From<&str> for WitnessStep {
    fn from(label: &str) -> WitnessStep {
        WitnessStep::from(label.to_string())
    }
}

impl From<String> for WitnessStep {
    fn from(label: String) -> WitnessStep {
        WitnessStep { label, at: None }
    }
}

/// How a BMOC report came to be: the detection work behind one finding.
///
/// Built from per-channel analysis state at the moment the solver returns a
/// satisfying model, so it is deterministic (no wall-clock values) and
/// bit-identical across `--jobs` settings. Surfaced in `--json` as the
/// optional `provenance` object and rendered by `--explain`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Name of the channel the detector was examining.
    pub channel: String,
    /// Size of the disentangled Pset (§3.2) for that channel.
    pub pset_size: usize,
    /// Execution paths enumerated within the channel's scope (§3.3).
    pub paths_enumerated: u64,
    /// Branches pruned as infeasible during that enumeration.
    pub branches_pruned: u64,
    /// Path combinations built for the channel.
    pub combos_tried: usize,
    /// Solver queries submitted for the channel: suspicious groups for
    /// BMOC, (send, close) pairs for send-on-closed.
    pub groups_checked: u64,
    /// Verdict of the satisfying query (`blocking` for BMOC,
    /// `panic-schedule` for send-on-closed).
    pub solver_verdict: &'static str,
    /// Propagation/decision steps of the satisfying solver query.
    pub solver_steps: u64,
    /// Decisions of the satisfying solver query.
    pub solver_decisions: u64,
    /// Conflicts of the satisfying solver query.
    pub solver_conflicts: u64,
    /// Degradation-ladder rung (§3.3 limit tightening) the finding was
    /// produced at: 0 means full limits, higher rungs mean the channel's
    /// budget forced reduced unrolling / a shrunken Pset first.
    pub degradation_rung: u32,
}

impl Provenance {
    /// Renders the record as indented human-readable lines (the body of
    /// the `--explain` output).
    pub fn render(&self) -> String {
        let queries = if self.solver_verdict == "panic-schedule" {
            "pair(s)"
        } else {
            "group(s)"
        };
        let mut text = format!(
            "  why: channel `{}` — Pset of {} primitive(s); {} path(s) enumerated \
             ({} branch(es) pruned), {} combo(s) built, {} {queries} checked;\n  \
             solver verdict `{}` after {} step(s), {} decision(s), {} conflict(s)\n",
            self.channel,
            self.pset_size,
            self.paths_enumerated,
            self.branches_pruned,
            self.combos_tried,
            self.groups_checked,
            self.solver_verdict,
            self.solver_steps,
            self.solver_decisions,
            self.solver_conflicts,
        );
        if self.degradation_rung > 0 {
            text.push_str(&format!(
                "  degraded: found at ladder rung {} (limits tightened under budget pressure)\n",
                self.degradation_rung
            ));
        }
        text
    }
}

/// A detected bug.
#[derive(Debug, Clone)]
pub struct BugReport {
    /// Which detector fired.
    pub kind: BugKind,
    /// Creation site of the primary primitive (channel/mutex), if any.
    pub primitive: Option<Loc>,
    /// Source span of the primitive's creation site.
    pub primitive_span: Span,
    /// Human-readable primitive description (e.g. variable name).
    pub primitive_name: String,
    /// The operations that block forever (the suspicious group), or the
    /// offending accesses for traditional bugs.
    pub ops: Vec<OpRef>,
    /// The witness interleaving from the solver, in execution order (empty
    /// for traditional detectors).
    pub witness_order: Vec<WitnessStep>,
    /// Free-form notes: analysis scope, path combination, etc.
    pub notes: String,
    /// Detection provenance (BMOC-family detectors only). Excluded from
    /// [`BugReport::dedup_key`] and from stable diagnostic IDs.
    pub provenance: Option<Provenance>,
}

impl BugReport {
    /// A stable deduplication key: detector plus the involved op locations.
    pub fn dedup_key(&self) -> (BugKind, Option<Loc>, Vec<Loc>) {
        let mut locs: Vec<Loc> = self.ops.iter().map(|o| o.loc).collect();
        locs.sort_unstable();
        (self.kind, self.primitive, locs)
    }
}

impl fmt::Display for BugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} ({})",
            self.kind, self.primitive_name, self.primitive_span
        )?;
        let label = if self.kind.is_blocking() {
            "blocked"
        } else {
            "op"
        };
        for op in &self.ops {
            writeln!(
                f,
                "  {label}: {} at {} in {}",
                op.what, op.span, op.func_name
            )?;
        }
        if !self.witness_order.is_empty() {
            f.write_str("  witness: ")?;
            for (i, step) in self.witness_order.iter().enumerate() {
                if i > 0 {
                    f.write_str(" -> ")?;
                }
                write!(f, "{step}")?;
            }
            writeln!(f)?;
        }
        if !self.notes.is_empty() {
            writeln!(f, "  note: {}", self.notes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use golite_ir::{BlockId, FuncId};

    fn mk_report() -> BugReport {
        BugReport {
            kind: BugKind::BmocChannel,
            primitive: Some(Loc {
                func: FuncId(0),
                block: BlockId(0),
                idx: 0,
            }),
            primitive_span: Span::new(0, 5, 3, 5),
            primitive_name: "outDone".into(),
            ops: vec![OpRef {
                loc: Loc {
                    func: FuncId(1),
                    block: BlockId(0),
                    idx: 2,
                },
                span: Span::new(10, 12, 7, 5),
                what: "send on outDone".into(),
                func_name: "Exec$closure0".into(),
            }],
            witness_order: vec!["make".into(), "send".into()],
            notes: "scope: Exec".into(),
            provenance: None,
        }
    }

    #[test]
    fn display_mentions_everything() {
        let text = mk_report().to_string();
        assert!(text.contains("BMOC-C"));
        assert!(text.contains("outDone"));
        assert!(text.contains("send on outDone"));
        assert!(text.contains("witness"));
    }

    #[test]
    fn display_labels_only_blocking_operations_blocked() {
        let mut r = mk_report();
        assert!(r
            .to_string()
            .contains("  blocked: send on outDone at 7:5 in Exec$closure0\n"));
        for kind in [
            BugKind::StructFieldRace,
            BugKind::FatalInChildGoroutine,
            BugKind::SendOnClosedChannel,
        ] {
            r.kind = kind;
            let text = r.to_string();
            assert!(
                text.contains("  op: send on outDone at 7:5 in Exec$closure0\n"),
                "{text}"
            );
            assert!(!text.contains("blocked:"), "{text}");
        }
    }

    #[test]
    fn witness_steps_render_label_at_span() {
        let at = Loc {
            func: FuncId(1),
            block: BlockId(0),
            idx: 2,
        };
        let send = WitnessStep {
            label: "g1:send(outDone)".into(),
            at: Some((at, Span::new(10, 12, 7, 5))),
        };
        assert_eq!(send.to_string(), "g1:send(outDone)@7:5");
        assert_eq!(WitnessStep::from("g0:go(f2)").to_string(), "g0:go(f2)");
        let mut r = mk_report();
        r.witness_order = vec!["g0:go(f2)".into(), send];
        assert!(r
            .to_string()
            .contains("  witness: g0:go(f2) -> g1:send(outDone)@7:5\n"));
    }

    #[test]
    fn dedup_key_ignores_op_order() {
        let mut a = mk_report();
        let extra = OpRef {
            loc: Loc {
                func: FuncId(0),
                block: BlockId(1),
                idx: 0,
            },
            span: Span::synthetic(),
            what: "recv".into(),
            func_name: "main".into(),
        };
        a.ops.push(extra.clone());
        let mut b = a.clone();
        b.ops.reverse();
        assert_eq!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn dedup_key_ignores_provenance() {
        let a = mk_report();
        let mut b = a.clone();
        b.provenance = Some(Provenance {
            channel: "outDone".into(),
            pset_size: 1,
            solver_verdict: "blocking",
            ..Provenance::default()
        });
        assert_eq!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn provenance_renders_every_field() {
        let p = Provenance {
            channel: "outDone".into(),
            pset_size: 2,
            paths_enumerated: 7,
            branches_pruned: 1,
            combos_tried: 3,
            groups_checked: 4,
            solver_verdict: "blocking",
            solver_steps: 120,
            solver_decisions: 11,
            solver_conflicts: 2,
            degradation_rung: 1,
        };
        let text = p.render();
        assert!(text.contains("outDone"));
        assert!(text.contains("2 primitive(s)"));
        assert!(text.contains("7 path(s)"));
        assert!(text.contains("4 group(s) checked"));
        assert!(text.contains("blocking"));
        assert!(text.contains("120 step(s)"));
        assert!(text.contains("ladder rung 1"));
    }

    #[test]
    fn provenance_omits_rung_line_at_full_limits() {
        let p = Provenance {
            channel: "outDone".into(),
            solver_verdict: "blocking",
            ..Provenance::default()
        };
        assert!(!p.render().contains("ladder rung"));
    }

    #[test]
    fn bmoc_classification() {
        assert!(BugKind::BmocChannel.is_bmoc());
        assert!(BugKind::BmocChannelMutex.is_bmoc());
        assert!(!BugKind::DoubleLock.is_bmoc());
    }
}
