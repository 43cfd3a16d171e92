//! Golden Chrome-trace output for the Figure 1 program, span-name and
//! worker-lane structure checks, and the `--jobs` determinism contract for
//! bug provenance.

use gcatch::{DetectorConfig, GCatch, Provenance, Selection, TraceLevel};

/// The Figure 1 Docker#24991 program (same source as the registry golden).
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

fn run_traced(jobs: usize) -> (GCatchRun, gcatch::TraceSnapshot) {
    let module = golite_ir::lower_source(FIGURE1).expect("figure 1 lowers");
    let gcatch = GCatch::with_trace(&module, TraceLevel::Full);
    let config = DetectorConfig {
        jobs,
        ..DetectorConfig::default()
    };
    let diagnostics = gcatch.diagnostics(&config, &Selection::default());
    let provenance = diagnostics
        .iter()
        .map(|d| d.report.provenance.clone())
        .collect();
    let snapshot = gcatch.trace_snapshot();
    (GCatchRun { provenance }, snapshot)
}

struct GCatchRun {
    provenance: Vec<Option<Provenance>>,
}

/// Golden test: the exact zeroed Chrome trace-event document for Figure 1
/// under `--jobs 1`. Timestamps are projected to zero so the document is
/// fully deterministic; structure (event order, span names, lanes, args)
/// is part of the `--trace` output contract.
#[test]
fn figure1_zeroed_trace_matches_golden() {
    let (_, snapshot) = run_traced(1);
    let json = snapshot.zeroed().render_chrome();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/figure1_trace.golden.json"
    );
    if std::env::var_os("GCATCH_BLESS").is_some() {
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file (GCATCH_BLESS=1 to create)");
    assert_eq!(json.trim_end(), golden.trim_end());
}

/// The recorded trace must expose the hierarchy the issue promises: at
/// least four distinct span names and a dedicated lane per BMOC worker.
#[test]
fn trace_has_required_spans_and_worker_lanes() {
    let (_, snapshot) = run_traced(2);
    let names = snapshot.span_names();
    for required in [
        "session",
        "analysis",
        "disentangle",
        "bmoc_channel",
        "enumerate_paths",
        "build_combos",
        "solve",
        "dpll",
    ] {
        assert!(names.contains(&required), "missing span `{required}`");
    }
    assert!(
        snapshot.threads.iter().any(|(_, n)| n == "main"),
        "missing main lane"
    );
    assert!(
        snapshot
            .threads
            .iter()
            .any(|(_, n)| n.starts_with("bmoc-worker-")),
        "missing worker lanes: {:?}",
        snapshot.threads
    );
}

/// Provenance is assembled from deterministic per-channel counts, so it
/// must be bit-identical no matter how detection is sharded.
#[test]
fn provenance_is_identical_across_jobs() {
    let (sequential, _) = run_traced(1);
    assert!(
        sequential.provenance.iter().any(Option::is_some),
        "figure 1 should carry provenance"
    );
    for jobs in [0, 4] {
        let (sharded, _) = run_traced(jobs);
        assert_eq!(
            sequential.provenance, sharded.provenance,
            "--jobs {jobs} changed provenance"
        );
    }
}

/// The Chrome rendering must stay dependency-free *and* well-formed; the
/// validator is the same one the CI trace smoke check uses.
#[test]
fn rendered_trace_is_wellformed_json() {
    let (_, snapshot) = run_traced(1);
    let json = snapshot.render_chrome();
    gcatch::codec::validate_json(&json).expect("trace JSON is well-formed");
}
