//! Registry invariants, checker selection, parallel determinism, and the
//! golden JSON rendering of the Figure 1 Docker bug.

use gcatch::{
    render_json, AnalysisSession, BugKind, DetectorConfig, Diagnostic, GCatch, Registry, Selection,
};
use std::collections::HashMap;

/// The Figure 1 Docker#24991 program (select with an unbuffered channel;
/// the child's send blocks forever when `ctx.Done()` wins).
const FIGURE1: &str = r#"
func Exec(ctx context.Context) error {
    outDone := make(chan error)
    go func() {
        outDone <- nil
    }()
    select {
    case err := <-outDone:
        return err
    case <-ctx.Done():
        return ctx.Err()
    }
}

func main() {
    ctx, cancel := context.WithCancel(context.Background())
    defer cancel()
    Exec(ctx)
}
"#;

/// Every `BugKind` must be owned by exactly one registered checker —
/// otherwise cross-checker deduplication could merge reports of different
/// checkers and per-checker counts would depend on registry order.
#[test]
fn every_bug_kind_is_owned_by_exactly_one_checker() {
    let registry = Registry::standard();
    let mut owners: HashMap<BugKind, Vec<&'static str>> = HashMap::new();
    for checker in registry.checkers() {
        for &kind in checker.kinds() {
            owners.entry(kind).or_default().push(checker.name());
        }
    }
    let all_kinds = [
        BugKind::BmocChannel,
        BugKind::BmocChannelMutex,
        BugKind::MissingUnlock,
        BugKind::DoubleLock,
        BugKind::ConflictingLockOrder,
        BugKind::StructFieldRace,
        BugKind::FatalInChildGoroutine,
        BugKind::SendOnClosedChannel,
    ];
    for kind in all_kinds {
        let who = owners.get(&kind).cloned().unwrap_or_default();
        assert_eq!(
            who.len(),
            1,
            "{kind:?} owned by {who:?}, expected exactly one checker"
        );
    }
}

#[test]
fn checker_names_are_unique_and_findable() {
    let registry = Registry::standard();
    let names = registry.names();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        names.len(),
        "duplicate checker names in {names:?}"
    );
    for name in &names {
        assert_eq!(registry.find(name).map(|c| c.name()), Some(*name));
    }
    assert!(registry.find("no-such-checker").is_none());
}

/// `--only X` runs exactly X; `--skip X` runs the defaults minus X; the
/// send-on-closed extension is opt-in.
#[test]
fn selection_only_and_skip_round_trip() {
    let registry = Registry::standard();
    let defaults: Vec<&str> = registry
        .checkers()
        .filter(|c| Selection::default().enables(*c))
        .map(|c| c.name())
        .collect();
    assert!(defaults.contains(&"bmoc"));
    assert!(
        !defaults.contains(&"send-on-closed"),
        "§6 extension must be opt-in"
    );

    for name in registry.names() {
        let only = Selection {
            only: vec![name.to_string()],
            skip: Vec::new(),
        };
        let enabled: Vec<&str> = registry
            .checkers()
            .filter(|c| only.enables(*c))
            .map(|c| c.name())
            .collect();
        assert_eq!(enabled, vec![name], "--only {name}");

        let skip = Selection {
            only: Vec::new(),
            skip: vec![name.to_string()],
        };
        let enabled: Vec<&str> = registry
            .checkers()
            .filter(|c| skip.enables(*c))
            .map(|c| c.name())
            .collect();
        let expected: Vec<&str> = defaults.iter().copied().filter(|n| *n != name).collect();
        assert_eq!(enabled, expected, "--skip {name}");

        // Skip beats only when both name the same checker.
        let both = Selection {
            only: vec![name.to_string()],
            skip: vec![name.to_string()],
        };
        assert!(registry.checkers().filter(|c| both.enables(*c)).count() == 0);
    }

    let bogus = Selection {
        only: vec!["nope".to_string()],
        skip: Vec::new(),
    };
    assert!(bogus.validate(&registry).is_err());
    assert!(Selection::default().validate(&registry).is_ok());
}

/// Sharding the BMOC detector must not change the reports: every `--jobs`
/// value yields the bit-identical diagnostic list.
#[test]
fn parallel_detection_is_deterministic() {
    let module = golite_ir::lower_source(FIGURE1).expect("figure 1 lowers");
    let render = |jobs: usize| {
        let gcatch = GCatch::new(&module);
        let config = DetectorConfig {
            jobs,
            ..DetectorConfig::default()
        };
        let diagnostics = gcatch.diagnostics(&config, &Selection::default());
        render_json(&diagnostics, None)
    };
    let sequential = render(1);
    for jobs in [0, 2, 8] {
        assert_eq!(
            sequential,
            render(jobs),
            "--jobs {jobs} diverged from --jobs 1"
        );
    }
}

/// Golden test: the exact JSON document for Figure 1. Deliberately strict —
/// diagnostic IDs, field order, and the witness schedule are all part of
/// the stable output contract (`gcatch check --json`).
#[test]
fn figure1_golden_json() {
    let module = golite_ir::lower_source(FIGURE1).expect("figure 1 lowers");
    let gcatch = GCatch::new(&module);
    let diagnostics = gcatch.diagnostics(&DetectorConfig::default(), &Selection::default());
    let json = render_json(&diagnostics, None);
    let golden = concat!(
        r#"{"version":1,"diagnostics":[{"id":"GC-27df4fd4","checker":"bmoc","#,
        r#""kind":"BMOC-C","severity":"error","#,
        r#""primitive":{"name":"outDone","span":"3:5"},"#,
        r#""ops":[{"what":"send on outDone","func":"Exec$closure0","span":"5:9"}],"#,
        r#""witness":["g0:go(f2)","g0:select.case1@7:5","g1:send(outDone)@5:9"],"#,
        r#""notes":"scope root: Exec","#,
        r#""provenance":{"channel":"outDone","pset_size":1,"paths_enumerated":3,"#,
        r#""branches_pruned":0,"combos_tried":2,"groups_checked":2,"#,
        r#""solver_verdict":"blocking","solver_steps":46,"solver_decisions":2,"#,
        r#""solver_conflicts":0}}]}"#,
    );
    assert_eq!(json, golden);
}

/// Diagnostic IDs must not move when the same module is re-analyzed or when
/// checkers run under a narrower selection.
#[test]
fn diagnostic_ids_are_stable_across_sessions_and_selections() {
    let module = golite_ir::lower_source(FIGURE1).expect("figure 1 lowers");
    let ids = |selection: &Selection| -> Vec<String> {
        let gcatch = GCatch::new(&module);
        let mut ids: Vec<String> = gcatch
            .diagnostics(&DetectorConfig::default(), selection)
            .into_iter()
            .map(|d| d.id)
            .collect();
        ids.sort();
        ids
    };
    let full = ids(&Selection::default());
    assert!(!full.is_empty());
    assert_eq!(full, ids(&Selection::default()), "re-analysis moved IDs");
    let only_bmoc = Selection {
        only: vec!["bmoc".to_string()],
        skip: Vec::new(),
    };
    assert_eq!(full, ids(&only_bmoc), "selection moved IDs");
}

/// The session's own BMOC detector finds Figure 1's bug under its
/// stable ID.
#[test]
fn session_detects_figure1_under_its_stable_id() {
    let module = golite_ir::lower_source(FIGURE1).expect("figure 1 lowers");
    let session = AnalysisSession::new(&module);
    let bugs = session.detect_bmoc(&DetectorConfig::default());
    assert_eq!(bugs.len(), 1);
    let diag = Diagnostic::new("bmoc", bugs[0].clone());
    assert_eq!(diag.id, "GC-27df4fd4");
}
