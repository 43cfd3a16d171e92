//! Structured diagnostics.
//!
//! A [`Diagnostic`] wraps a [`BugReport`] with the presentation-layer
//! fields tools consume: a stable ID (`GC-` + 8 hex digits of an FNV-1a
//! hash over the bug kind, the involved operation locations, and the
//! primitive site — invariant under checker ordering and parallelism), a
//! [`Severity`], and the owning checker's name. [`render_json`] serializes
//! a whole run — diagnostics plus optional [`Stats`] — as JSON without any
//! external dependency (`gcatch check --json`).

use crate::checkers::RunOutput;
use crate::codec::escape_json;
use crate::report::{BugKind, BugReport};
use crate::resilience::Incident;
use crate::telemetry::Stats;
use golite_ir::fnv::Fnv;
use std::fmt::Write as _;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Guaranteed misbehavior when the witness schedule runs: a goroutine
    /// blocks forever or the program panics.
    Error,
    /// A latent hazard: racy access, leaked lock, inconsistent order.
    Warning,
}

impl Severity {
    /// Stable lowercase name (JSON, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }

    /// The severity of a bug kind.
    pub fn of(kind: BugKind) -> Severity {
        match kind {
            BugKind::BmocChannel
            | BugKind::BmocChannelMutex
            | BugKind::DoubleLock
            | BugKind::SendOnClosedChannel => Severity::Error,
            BugKind::MissingUnlock
            | BugKind::ConflictingLockOrder
            | BugKind::StructFieldRace
            | BugKind::FatalInChildGoroutine => Severity::Warning,
        }
    }
}

/// A bug report with stable identity and presentation metadata.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable ID, `GC-` plus eight hex digits; identical across runs,
    /// checker selections, and `--jobs` values.
    pub id: String,
    /// Name of the checker that produced the report.
    pub checker: &'static str,
    /// Severity derived from the bug kind.
    pub severity: Severity,
    /// The underlying report.
    pub report: BugReport,
}

impl Diagnostic {
    /// Wraps a report produced by `checker`.
    pub fn new(checker: &'static str, report: BugReport) -> Diagnostic {
        let id = stable_id(&report);
        let severity = Severity::of(report.kind);
        Diagnostic {
            id,
            checker,
            severity,
            report,
        }
    }

    /// Wraps every report of a registry run, preserving order.
    pub fn from_run(outputs: Vec<RunOutput>) -> Vec<Diagnostic> {
        outputs
            .into_iter()
            .flat_map(|o| {
                o.reports
                    .into_iter()
                    .map(move |r| Diagnostic::new(o.checker, r))
            })
            .collect()
    }
}

/// `GC-xxxxxxxx` from an FNV-1a hash over the report's stable identity:
/// the kind label, the sorted op locations, and the primitive site. Spans,
/// notes, and witness text are deliberately excluded so cosmetic wording
/// changes do not move IDs.
fn stable_id(report: &BugReport) -> String {
    let (kind, primitive, locs) = report.dedup_key();
    let mut h = Fnv::new();
    h.bytes(kind.label().as_bytes());
    if let Some(p) = primitive {
        h.bytes(format!("@f{}b{}i{}", p.func.0, p.block.0, p.idx).as_bytes());
    }
    for loc in locs {
        h.bytes(format!("|f{}b{}i{}", loc.func.0, loc.block.0, loc.idx).as_bytes());
    }
    let h = h.finish();
    // Fold to 32 bits for a compact, still collision-resistant-enough ID.
    let folded = (h >> 32) as u32 ^ (h as u32);
    format!("GC-{folded:08x}")
}

// ------------------------------------------------------------------- JSON

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    escape_json(value, out);
    out.push('"');
}

/// Renders a run as a stable JSON document:
///
/// ```json
/// {
///   "version": 1,
///   "diagnostics": [
///     {"id": "GC-…", "checker": "bmoc", "kind": "BMOC-C",
///      "severity": "error", "primitive": {…}, "ops": […],
///      "witness": […], "notes": "…",
///      "provenance": {"channel": "…", "pset_size": N,
///                     "paths_enumerated": N, "branches_pruned": N,
///                     "combos_tried": N, "groups_checked": N,
///                     "solver_verdict": "blocking",
///                     "solver_steps": N, "solver_decisions": N,
///                     "solver_conflicts": N}},
///     …
///   ],
///   "stats": {"counters": {…}, "stage_ms": {…},
///             "hist": {"<metric>": {"count": N, "max": N,
///                      "p50": N, "p90": N, "p99": N}, …}}
/// }
/// ```
///
/// `stats` is present only when requested (`--stats`).
///
/// Schema evolution notes (for downstream consumers):
/// * `version` stays 1 — every addition below is optional/additive, and
///   pre-existing fields keep their exact shape, so old consumers that
///   ignore unknown keys must not break.
/// * `provenance` (added with the observability layer) appears only on
///   diagnostics from the BMOC-family detectors; traditional-checker
///   diagnostics omit the key entirely (it is never `null`). Its counts
///   are deterministic and identical across `--jobs` values.
/// * `stats.hist` (same addition) maps metric names to percentile
///   summaries of log-bucketed histograms; time-valued metrics
///   (`*_ns` suffix) are integer nanoseconds.
/// * `incidents` (added with the resilience layer, via
///   [`render_json_with`]) appears only when the run recorded contained
///   failures; each entry is `{"kind", "name", "message", "rung"}` plus
///   an optional `"flight"` array of flight-recorder lines (added with
///   the run-level observability layer; present only when non-empty, so
///   flight-free runs keep their exact prior bytes).
///   Likewise `provenance.degradation_rung` appears only on findings
///   produced below full limits, so budget-free runs are byte-identical
///   to earlier versions.
pub fn render_json(diagnostics: &[Diagnostic], stats: Option<&Stats>) -> String {
    render_json_with(diagnostics, stats, &[])
}

/// [`render_json`] plus the run's [`Incident`]s: when `incidents` is
/// non-empty, an `"incidents"` array is emitted after `"diagnostics"`.
pub fn render_json_with(
    diagnostics: &[Diagnostic],
    stats: Option<&Stats>,
    incidents: &[Incident],
) -> String {
    let mut out = String::new();
    out.push_str("{\"version\":1,\"diagnostics\":[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_str_field(&mut out, "id", &d.id);
        out.push(',');
        push_str_field(&mut out, "checker", d.checker);
        out.push(',');
        push_str_field(&mut out, "kind", d.report.kind.label());
        out.push(',');
        push_str_field(&mut out, "severity", d.severity.name());
        out.push(',');
        out.push_str("\"primitive\":");
        if d.report.primitive.is_some() {
            out.push('{');
            push_str_field(&mut out, "name", &d.report.primitive_name);
            out.push(',');
            push_str_field(&mut out, "span", &d.report.primitive_span.to_string());
            out.push('}');
        } else {
            out.push_str("null");
        }
        out.push_str(",\"ops\":[");
        for (j, op) in d.report.ops.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('{');
            push_str_field(&mut out, "what", &op.what);
            out.push(',');
            push_str_field(&mut out, "func", &op.func_name);
            out.push(',');
            push_str_field(&mut out, "span", &op.span.to_string());
            out.push('}');
        }
        out.push_str("],\"witness\":[");
        for (j, w) in d.report.witness_order.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            // Written in place: a position is digits and `:` only.
            escape_json(&w.label, &mut out);
            if let Some((_, span)) = &w.at {
                let _ = write!(out, "@{span}");
            }
            out.push('"');
        }
        out.push_str("],");
        push_str_field(&mut out, "notes", &d.report.notes);
        if let Some(p) = &d.report.provenance {
            out.push_str(",\"provenance\":{");
            push_str_field(&mut out, "channel", &p.channel);
            let num = |key: &str, v: u64, out: &mut String| {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                out.push_str(&v.to_string());
            };
            num("pset_size", p.pset_size as u64, &mut out);
            num("paths_enumerated", p.paths_enumerated, &mut out);
            num("branches_pruned", p.branches_pruned, &mut out);
            num("combos_tried", p.combos_tried as u64, &mut out);
            num("groups_checked", p.groups_checked, &mut out);
            out.push(',');
            push_str_field(&mut out, "solver_verdict", p.solver_verdict);
            num("solver_steps", p.solver_steps, &mut out);
            num("solver_decisions", p.solver_decisions, &mut out);
            num("solver_conflicts", p.solver_conflicts, &mut out);
            if p.degradation_rung > 0 {
                num("degradation_rung", u64::from(p.degradation_rung), &mut out);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push(']');
    if !incidents.is_empty() {
        out.push_str(",\"incidents\":[");
        for (i, inc) in incidents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_str_field(&mut out, "kind", inc.kind.label());
            out.push(',');
            push_str_field(&mut out, "name", &inc.name);
            out.push(',');
            push_str_field(&mut out, "message", &inc.message);
            out.push_str(",\"rung\":");
            out.push_str(&inc.rung.to_string());
            if !inc.flight.is_empty() {
                out.push_str(",\"flight\":[");
                for (j, line) in inc.flight.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json(line, &mut out);
                    out.push('"');
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push(']');
    }
    if let Some(stats) = stats {
        out.push_str(",\"stats\":");
        out.push_str(&render_stats_json(stats));
    }
    out.push('}');
    out
}

/// Renders a [`Stats`] snapshot as one JSON object
/// (`{"counters":{…},"stage_ms":{…},"hist":{…}}`) — the same shape the
/// `"stats"` key of [`render_json`] carries; the `batch` subcommand embeds
/// it in its merged report.
pub fn render_stats_json(stats: &Stats) -> String {
    let mut out = String::new();
    out.push_str("{\"counters\":{");
    for (i, (c, v)) in stats.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(c.name());
        out.push_str("\":");
        out.push_str(&v.to_string());
    }
    out.push_str("},\"stage_ms\":{");
    for (i, (s, d)) in stats.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(s.name());
        out.push_str("\":");
        out.push_str(&format!("{:.3}", d.as_secs_f64() * 1000.0));
    }
    out.push_str("},\"hist\":{");
    for (i, (m, h)) in stats.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(m.name());
        out.push_str("\":{\"count\":");
        out.push_str(&h.count.to_string());
        out.push_str(",\"max\":");
        out.push_str(&h.max.to_string());
        for p in [50u32, 90, 99] {
            out.push_str(&format!(",\"p{p}\":{}", h.percentile(p)));
        }
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Renders diagnostics as the human-readable `--explain` text: each
/// finding's normal display followed by its provenance (how the detector
/// arrived at it), when available.
pub fn render_explain(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&format!("{} ", d.id));
        out.push_str(&d.report.to_string());
        match &d.report.provenance {
            Some(p) => out.push_str(&p.render()),
            None => out.push_str(&format!(
                "  why: reported by the `{}` checker (flow analysis; no solver query)\n",
                d.checker
            )),
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::OpRef;
    use golite::Span;
    use golite_ir::{BlockId, FuncId, Loc};

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
            notes: "scope root: Exec".into(),
            provenance: None,
        }
    }

    #[test]
    fn ids_are_stable_and_wording_insensitive() {
        let a = Diagnostic::new("bmoc", mk_report());
        let mut reworded = mk_report();
        reworded.notes = "completely different".into();
        reworded.witness_order.clear();
        let b = Diagnostic::new("bmoc", reworded);
        assert_eq!(a.id, b.id, "notes/witness must not move the ID");
        assert!(
            a.id.starts_with("GC-") && a.id.len() == 3 + 8,
            "got {}",
            a.id
        );
    }

    #[test]
    fn ids_distinguish_kinds_and_locations() {
        let a = Diagnostic::new("bmoc", mk_report());
        let mut other_kind = mk_report();
        other_kind.kind = BugKind::DoubleLock;
        let mut other_loc = mk_report();
        other_loc.ops[0].loc = Loc {
            func: FuncId(2),
            block: BlockId(0),
            idx: 0,
        };
        assert_ne!(a.id, Diagnostic::new("double-lock", other_kind).id);
        assert_ne!(a.id, Diagnostic::new("bmoc", other_loc).id);
    }

    #[test]
    fn severity_mapping() {
        assert_eq!(Severity::of(BugKind::BmocChannel), Severity::Error);
        assert_eq!(Severity::of(BugKind::SendOnClosedChannel), Severity::Error);
        assert_eq!(Severity::of(BugKind::StructFieldRace), Severity::Warning);
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut r = mk_report();
        r.notes = "quote \" backslash \\ newline \n".into();
        let d = Diagnostic::new("bmoc", r);
        let json = render_json(&[d], None);
        assert!(json.starts_with("{\"version\":1,\"diagnostics\":["));
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"checker\":\"bmoc\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(!json.contains("\"stats\""));
    }

    #[test]
    fn json_carries_provenance_only_when_present() {
        let plain = render_json(&[Diagnostic::new("bmoc", mk_report())], None);
        assert!(!plain.contains("provenance"));

        let mut r = mk_report();
        r.provenance = Some(crate::report::Provenance {
            channel: "outDone".into(),
            pset_size: 1,
            paths_enumerated: 4,
            branches_pruned: 0,
            combos_tried: 2,
            groups_checked: 3,
            solver_verdict: "blocking",
            solver_steps: 55,
            solver_decisions: 6,
            solver_conflicts: 1,
            degradation_rung: 0,
        });
        let with = render_json(&[Diagnostic::new("bmoc", r)], None);
        assert!(with.contains("\"provenance\":{\"channel\":\"outDone\""));
        assert!(with.contains("\"pset_size\":1"));
        assert!(with.contains("\"solver_verdict\":\"blocking\""));
        assert!(with.contains("\"solver_steps\":55"));
        assert!(
            !with.contains("degradation_rung"),
            "rung 0 must not change the schema"
        );
        crate::codec::validate_json(&with).expect("well-formed");
    }

    #[test]
    fn json_carries_incidents_and_rung_only_when_present() {
        let clean = render_json_with(&[], None, &[]);
        assert!(!clean.contains("incidents"));

        let mut r = mk_report();
        r.provenance = Some(crate::report::Provenance {
            channel: "outDone".into(),
            solver_verdict: "blocking",
            degradation_rung: 2,
            ..Default::default()
        });
        let incident = crate::resilience::Incident {
            kind: crate::resilience::IncidentKind::Checker,
            name: "panic-test".into(),
            message: "boom \"quoted\"".into(),
            rung: 0,
            flight: Vec::new(),
        };
        let json = render_json_with(
            &[Diagnostic::new("bmoc", r)],
            None,
            std::slice::from_ref(&incident),
        );
        assert!(json.contains("\"degradation_rung\":2"));
        assert!(json.contains(
            "\"incidents\":[{\"kind\":\"checker\",\"name\":\"panic-test\",\
             \"message\":\"boom \\\"quoted\\\"\",\"rung\":0}]"
        ));
        crate::codec::validate_json(&json).expect("well-formed");
    }

    #[test]
    fn json_incidents_carry_flight_dump_only_when_present() {
        let incident = crate::resilience::Incident {
            kind: crate::resilience::IncidentKind::Quarantined,
            name: "job-1".into(),
            message: "gave up".into(),
            rung: 0,
            flight: vec!["attempt 1: failed: \"boom\"".into()],
        };
        let json = render_json_with(&[], None, std::slice::from_ref(&incident));
        assert!(json.contains("\"rung\":0,\"flight\":[\"attempt 1: failed: \\\"boom\\\"\"]"));
        crate::codec::validate_json(&json).expect("well-formed");
    }

    #[test]
    fn explain_renders_provenance_or_fallback() {
        let mut r = mk_report();
        r.provenance = Some(crate::report::Provenance {
            channel: "outDone".into(),
            pset_size: 1,
            solver_verdict: "blocking",
            ..Default::default()
        });
        let text = render_explain(&[
            Diagnostic::new("bmoc", r),
            Diagnostic::new("double-lock", {
                let mut d = mk_report();
                d.kind = BugKind::DoubleLock;
                d
            }),
        ]);
        assert!(text.contains("why: channel `outDone`"));
        assert!(text.contains("why: reported by the `double-lock` checker"));
    }

    #[test]
    fn json_includes_stats_when_asked() {
        let t = crate::telemetry::Telemetry::new();
        t.add(crate::telemetry::Counter::SolverQueries, 3);
        let json = render_json(&[], Some(&t.snapshot()));
        assert!(json.contains("\"stats\""));
        assert!(json.contains("\"solver_queries\":3"));
        assert!(json.contains("\"stage_ms\""));
        assert!(json.contains("\"hist\""));
        assert!(json.contains("\"solver_query_ns\":{\"count\":0"));
        crate::codec::validate_json(&json).expect("well-formed");
    }
}
