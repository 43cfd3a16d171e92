//! Fresh-vs-incremental solver sweep over the 21 Table 1 replicas (seed
//! 2026, the benchmark corpus) plus `examples/` and `examples/batch/`.
//!
//! Runs the full checker registry (BMOC defaults plus the §6 send-on-closed
//! extension) over every module twice — once with a fresh solver per query
//! (`SolverStrategy::Fresh`) and once with the per-channel incremental
//! solver (`SolverStrategy::Incremental`) — at the default step limit and
//! again at a tight one ([`TIGHT_STEPS`]) where some queries run out of
//! steps. It writes `BENCH_solver.json` with each mode's query counts, total
//! `Stage::Constraints` time and p50/p99 per-query latency at both limits,
//! and the default limit's fresh/incremental speedup. The rendered
//! diagnostics must be byte-identical between the two modes at both limits;
//! a mismatch is a hard error (exit 1), which is what the CI `perf-smoke`
//! step keys on.

use gcatch::{
    render_json, Counter, DetectorConfig, GCatch, Metric, Selection, SolverStrategy, Stage,
    Telemetry,
};
use go_corpus::apps::{generate_all, GenConfig};
use std::path::{Path, PathBuf};

/// A per-query step limit at which some corpus queries run out of steps,
/// so a verdict that depended on which queries a solver answered before
/// would show as a report difference.
const TIGHT_STEPS: u64 = 160;

/// Per-mode aggregate over the whole sweep.
struct ModeStats {
    queries: u64,
    total_solve_ns: u64,
    p50_query_ns: u64,
    p99_query_ns: u64,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("bench crate lives at crates/bench inside the repo")
}

/// All `*.go` files directly inside `dir`, sorted by name.
fn go_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "go"))
        .collect();
    files.sort();
    files
}

/// Runs every module under `strategy` at `steps` per query, returning the
/// aggregate solver stats and the concatenated JSON reports (for
/// byte-comparison).
fn run_mode(
    strategy: SolverStrategy,
    steps: u64,
    sources: &[(String, String)],
) -> (ModeStats, String) {
    // One worker: with several, which of two structurally identical
    // channels solves first (and which one reads the shared verdict) depends
    // on thread interleaving, so the query counts compared below would too.
    let config = DetectorConfig {
        solver_strategy: strategy,
        jobs: 1,
        solver_steps: steps,
        ..DetectorConfig::default()
    };
    let extended = Selection {
        only: vec!["send-on-closed".to_string()],
        skip: Vec::new(),
    };
    let total = Telemetry::new();
    let mut reports = String::new();
    for (name, source) in sources {
        let module = golite_ir::lower_source(source)
            .unwrap_or_else(|e| panic!("{name} does not lower: {e}"));
        let gcatch = GCatch::new(&module);
        for selection in [&Selection::default(), &extended] {
            let diagnostics = gcatch.diagnostics(&config, selection);
            reports.push_str(name);
            reports.push('\n');
            reports.push_str(&render_json(&diagnostics, None));
            reports.push('\n');
        }
        total.absorb(&gcatch.stats());
    }
    let stats = total.snapshot();
    let hist = stats.hist(Metric::SolverQueryNs);
    let mode = ModeStats {
        queries: stats.counter(Counter::SolverQueries),
        total_solve_ns: stats.stage(Stage::Constraints).as_nanos() as u64,
        p50_query_ns: hist.percentile(50),
        p99_query_ns: hist.percentile(99),
    };
    (mode, reports)
}

fn mode_json(label: &str, m: &ModeStats) -> String {
    format!(
        concat!(
            "  \"{}\": {{\"queries\": {}, \"total_solve_ns\": {}, ",
            "\"p50_query_ns\": {}, \"p99_query_ns\": {}}}"
        ),
        label, m.queries, m.total_solve_ns, m.p50_query_ns, m.p99_query_ns
    )
}

/// Runs both modes at `steps`; exits 1 when their reports differ or the
/// incremental mode solved fewer queries than the fresh one.
fn compare_modes(steps: u64, sources: &[(String, String)]) -> (ModeStats, ModeStats) {
    let (fresh, fresh_reports) = run_mode(SolverStrategy::Fresh, steps, sources);
    let (incremental, incremental_reports) = run_mode(SolverStrategy::Incremental, steps, sources);
    if fresh_reports != incremental_reports {
        eprintln!("solver_bench: FRESH and INCREMENTAL reports diverge at {steps} steps per query");
        std::process::exit(1);
    }
    if incremental.queries < fresh.queries {
        eprintln!(
            "solver_bench: incremental solved fewer queries than fresh at {steps} steps ({} < {})",
            incremental.queries, fresh.queries
        );
        std::process::exit(1);
    }
    (fresh, incremental)
}

fn main() {
    let root = repo_root();
    let mut sources: Vec<(String, String)> = generate_all(&GenConfig {
        seed: 2026,
        filler_per_kloc: 0.05,
    })
    .into_iter()
    .map(|app| (format!("replica {}", app.name), app.source))
    .collect();
    let mut files = go_files(&root.join("examples"));
    files.extend(go_files(&root.join("examples/batch")));
    assert!(!files.is_empty(), "no example programs found");
    sources.extend(files.iter().map(|p| {
        let name = p
            .strip_prefix(&root)
            .unwrap_or(p)
            .to_string_lossy()
            .into_owned();
        let source = std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()));
        (name, source)
    }));

    let default_steps = DetectorConfig::default().solver_steps;
    // Warm-up pass so neither measured mode pays first-touch costs.
    let _ = run_mode(SolverStrategy::Fresh, default_steps, &sources);

    let (fresh, incremental) = compare_modes(default_steps, &sources);
    let (tight_fresh, tight_incremental) = compare_modes(TIGHT_STEPS, &sources);

    let speedup = fresh.total_solve_ns as f64 / incremental.total_solve_ns.max(1) as f64;
    let json = format!(
        concat!(
            "{{\n  \"modules\": {},\n{},\n{},\n  \"speedup\": {:.3},\n",
            "  \"tight_limit\": {{\"solver_steps\": {},\n{},\n{}}},\n",
            "  \"reports_identical\": true\n}}\n"
        ),
        sources.len(),
        mode_json("fresh", &fresh),
        mode_json("incremental", &incremental),
        speedup,
        TIGHT_STEPS,
        mode_json("fresh", &tight_fresh),
        mode_json("incremental", &tight_incremental),
    );
    let out = root.join("BENCH_solver.json");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    print!("{json}");
    println!(
        "solver_bench: {} modules, {:.3}x speedup (fresh {} ns -> incremental {} ns), reports identical at {} and {} steps, wrote {}",
        sources.len(),
        speedup,
        fresh.total_solve_ns,
        incremental.total_solve_ns,
        default_steps,
        TIGHT_STEPS,
        out.display()
    );
}
