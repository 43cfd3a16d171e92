//! Known answers for every workload. None of them comes from the program
//! under test: the corpus and probe answers are the generators' planted
//! ground truth, and the serve answer is pinned by the benchmark.

use crate::inputs::{serve_expected_diagnostics, serve_leaks, DIAGS_PER_DEEP_LEAK, MAX_FIX_ROUNDS};
use crate::json::Value;
use go_corpus::apps::GeneratedApp;
use go_corpus::patterns::{marker_hit, Plant};
use std::collections::{BTreeMap, BTreeSet};

/// One reported bug, reduced to what the oracles look at.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The `BugKind` label (`BMOC-C`, `DoubleLock`, ...).
    pub kind: String,
    pub primitive: String,
    /// Every operation's function name and description.
    pub op_texts: Vec<String>,
}

/// The findings of one `gcatch check --json` report.
pub fn findings_from_json(report: &Value) -> Result<Vec<Finding>, String> {
    let diags = report
        .get("diagnostics")
        .ok_or("report has no `diagnostics`")?;
    let text = |v: Option<&Value>| v.and_then(Value::as_str).unwrap_or("").to_string();
    Ok(diags
        .as_arr()
        .iter()
        .map(|d| Finding {
            kind: text(d.get("kind")),
            primitive: text(d.get("primitive").and_then(|p| p.get("name"))),
            op_texts: d
                .get("ops")
                .map(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .flat_map(|o| [text(o.get("func")), text(o.get("what"))])
                .collect(),
        })
        .collect())
}

/// The findings of an in-process run.
pub fn findings_from_diagnostics(diagnostics: &[gcatch::Diagnostic]) -> Vec<Finding> {
    diagnostics
        .iter()
        .map(|d| Finding {
            kind: d.report.kind.label().to_string(),
            primitive: d.report.primitive_name.clone(),
            op_texts: d
                .report
                .ops
                .iter()
                .flat_map(|o| [o.func_name.clone(), o.what.clone()])
                .collect(),
        })
        .collect()
}

fn hits(f: &Finding, plant: &Plant) -> bool {
    f.kind == plant.kind.label()
        && (marker_hit(&f.primitive, &plant.marker)
            || f.op_texts.iter().any(|t| marker_hit(t, &plant.marker)))
}

/// Every planted instance, real bug or known false positive, must be
/// reported with its kind.
pub fn check_plants(app: &GeneratedApp, findings: &[Finding]) -> Result<(), String> {
    match app
        .plants
        .iter()
        .find(|p| !findings.iter().any(|f| hits(f, p)))
    {
        Some(p) => Err(format!(
            "{}: planted {} `{}` not reported",
            app.name,
            p.kind.label(),
            p.marker
        )),
        None => Ok(()),
    }
}

/// A batch report must list every replica exactly once, each with all
/// its plants reported.
pub fn check_corpus_report(report: &Value, apps: &[GeneratedApp]) -> Result<(), String> {
    let modules = report
        .get("modules")
        .ok_or("batch report has no `modules`")?;
    let mut seen = BTreeSet::new();
    for m in modules.as_arr() {
        let path = m.get("module").and_then(Value::as_str).unwrap_or("");
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("");
        let app = apps
            .iter()
            .find(|a| a.name == name)
            .ok_or_else(|| format!("unexpected module `{path}` in batch report"))?;
        let inner = m
            .get("report")
            .ok_or_else(|| format!("{name}: quarantined or missing report"))?;
        check_plants(app, &findings_from_json(inner)?)?;
        seen.insert(name);
    }
    if seen.len() != apps.len() {
        return Err(format!(
            "batch report covers {} of {} replicas",
            seen.len(),
            apps.len()
        ));
    }
    Ok(())
}

/// Exactly one BMOC report per planted leak channel, and nothing else.
pub fn check_leaks(
    findings: &[Finding],
    leaks: &BTreeSet<String>,
    per_leak: usize,
) -> Result<(), String> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        if f.kind != "BMOC-C" || !leaks.contains(&f.primitive) {
            return Err(format!("unexpected {} report on `{}`", f.kind, f.primitive));
        }
        *counts.entry(&f.primitive).or_default() += 1;
    }
    match leaks
        .iter()
        .find(|l| counts.get(l.as_str()).copied().unwrap_or(0) != per_leak)
    {
        Some(l) => Err(format!(
            "`{l}` reported {} time(s), expected {per_leak}",
            counts.get(l.as_str()).copied().unwrap_or(0)
        )),
        None => Ok(()),
    }
}

/// A serve `check` response: `ok:true` and the pinned diagnostics.
/// Returns the raw `result` bytes for the cold re-check.
pub fn check_serve_response(line: &str) -> Result<String, String> {
    let v = crate::json::parse(line).map_err(|e| format!("bad response: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("response not ok: {}", truncate(line)));
    }
    let result = v.get("result").ok_or("response has no `result`")?;
    let findings = findings_from_json(result)?;
    if findings.len() != serve_expected_diagnostics() {
        return Err(format!(
            "{} diagnostics, expected {}",
            findings.len(),
            serve_expected_diagnostics()
        ));
    }
    check_leaks(&findings, &serve_leaks(), DIAGS_PER_DEEP_LEAK)?;
    let at = line
        .find(",\"result\":")
        .ok_or("response has no `result`")?
        + 10;
    Ok(line[at..line.len() - 1].to_string())
}

fn truncate(s: &str) -> &str {
    &s[..s.floor_char_boundary(200)]
}

/// One patch GFix printed: its strategy label and the text that names the
/// patched channel (the description, then the changed lines).
pub struct PatchText {
    pub label: String,
    pub texts: Vec<String>,
}

/// Splits `gcatch fix` output into patches. Returns them with the
/// applied-patch count from the summary line.
pub fn parse_fix_output(out: &str) -> Result<(Vec<PatchText>, usize), String> {
    let mut patches: Vec<PatchText> = Vec::new();
    let mut applied = None;
    for line in out.lines() {
        if let Some(rest) = line.strip_prefix('[') {
            let (label, desc) = rest.split_once("] ").ok_or("malformed patch header")?;
            patches.push(PatchText {
                label: label.to_string(),
                texts: vec![desc.to_string()],
            });
        } else if let Some(diff) = line.strip_prefix("  - ").or(line.strip_prefix("  + ")) {
            if let Some(p) = patches.last_mut() {
                p.texts.push(diff.to_string());
            }
        } else if let Some(n) = line
            .strip_suffix(" patch(es) applied")
            .or_else(|| line.split_once(" patch(es) applied (").map(|(n, _)| n))
        {
            applied = n.parse::<usize>().ok();
        }
    }
    let applied = applied.ok_or("no `patch(es) applied` summary")?;
    if applied != patches.len() {
        return Err(format!(
            "summary says {applied} patch(es), output shows {}",
            patches.len()
        ));
    }
    Ok((patches, applied))
}

/// The plant a patch fixes: the first text that names exactly one plant.
fn patched_plant<'a>(app: &'a GeneratedApp, patch: &PatchText) -> Result<&'a Plant, String> {
    for t in &patch.texts {
        let named: Vec<&Plant> = app
            .plants
            .iter()
            .filter(|p| marker_hit(t, &p.marker))
            .collect();
        match named.as_slice() {
            [] => continue,
            [one] => return Ok(one),
            _ => {
                return Err(format!(
                    "{}: patch text `{t}` names several plants",
                    app.name
                ))
            }
        }
    }
    Err(format!(
        "{}: [{}] patch names no plant",
        app.name, patch.label
    ))
}

/// Every patch carries the strategy its plant expects (a patch of a
/// planted false positive is allowed: GFix fixes what GCatch reports).
/// When the fix converged, every expected plant is patched exactly once.
pub fn check_patches(app: &GeneratedApp, patches: &[PatchText]) -> Result<(), String> {
    let mut patched: BTreeMap<&str, usize> = BTreeMap::new();
    for patch in patches {
        let plant = patched_plant(app, patch)?;
        match plant.fix {
            Some(s) if s.label() == patch.label => {}
            None if plant.fp => {}
            expected => {
                return Err(format!(
                    "{}: `{}` patched with {}, expected {}",
                    app.name,
                    plant.marker,
                    patch.label,
                    expected.map_or("no patch", |s| s.label())
                ))
            }
        }
        *patched.entry(&plant.marker).or_default() += 1;
    }
    if patches.len() >= MAX_FIX_ROUNDS {
        return Ok(());
    }
    for p in app.plants.iter().filter(|p| !p.fp && p.fix.is_some()) {
        let n = patched.get(p.marker.as_str()).copied().unwrap_or(0);
        if n != 1 {
            return Err(format!("{}: `{}` patched {n} time(s)", app.name, p.marker));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fix_output_parses_into_patches() {
        let out = "m.go: 3 bug(s) detected\n\n\
                   [S-I] increase done5's buffer size from 0 to 1 (2 changed lines)\n\
                   \x20 - \tdone5 := make(chan error)\n\
                   \x20 + \tdone5 := make(chan error, 1)\n\n\
                   [S-III] add channel stop, defer closing it, and select on it at the child's send (8 changed lines)\n\
                   \x20 - \tgo func() {\n\
                   \x20 + \tstop := make(chan struct{})\n\n\
                   not fixed: fpInner6 — unsupported bug shape\n\
                   2 patch(es) applied (fixpoint after 2 round(s))\n";
        let (patches, applied) = parse_fix_output(out).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(patches[0].label, "S-I");
        assert_eq!(patches[0].texts.len(), 3);
        assert_eq!(patches[1].label, "S-III");
        assert!(parse_fix_output("[S-I] x\n3 patch(es) applied (fixpoint)\n").is_err());
    }

    #[test]
    fn leak_check_wants_each_leak_exactly_per_leak_times() {
        let f = |name: &str| Finding {
            kind: "BMOC-C".into(),
            primitive: name.into(),
            op_texts: Vec::new(),
        };
        let leaks: BTreeSet<String> = ["a1".to_string(), "a2".to_string()].into();
        assert!(check_leaks(&[f("a1"), f("a2")], &leaks, 1).is_ok());
        assert!(check_leaks(&[f("a1")], &leaks, 1).is_err());
        assert!(check_leaks(&[f("a1"), f("a2"), f("a3")], &leaks, 1).is_err());
        assert!(check_leaks(&[f("a1"), f("a2"), f("a2")], &leaks, 1).is_err());
    }
}
