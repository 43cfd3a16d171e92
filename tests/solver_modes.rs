//! Differential testing of the solver strategies: the incremental
//! per-channel solver must be a pure optimization. Over the example corpus
//! and a stream of random programs, `SolverStrategy::Incremental` and
//! `SolverStrategy::Fresh` must produce byte-identical diagnostics and
//! incident sets, and the legacy rescan engine must agree on which bugs
//! exist (its witnesses may pick a different satisfying schedule). The
//! Table 1 replicas must also render identically under the two strategies
//! at a step limit tight enough that some queries run out of steps.

use gcatch_suite::corpus::apps::{generate_all, GenConfig};
use gcatch_suite::gcatch::{render_json, DetectorConfig, GCatch, Selection, SolverStrategy};
use prng::Prng;

/// Rendered diagnostics + rendered incidents for one module under one
/// strategy, across both the default registry and the §6 extension.
fn run_module(source: &str, strategy: SolverStrategy, jobs: usize) -> (String, Vec<String>) {
    run_module_at(
        source,
        strategy,
        jobs,
        DetectorConfig::default().solver_steps,
    )
}

/// [`run_module`] at a per-query step limit of `steps`.
fn run_module_at(
    source: &str,
    strategy: SolverStrategy,
    jobs: usize,
    steps: u64,
) -> (String, Vec<String>) {
    let module = golite_ir::lower_source(source).expect("module lowers");
    let gcatch = GCatch::new(&module);
    let config = DetectorConfig {
        solver_strategy: strategy,
        jobs,
        solver_steps: steps,
        ..DetectorConfig::default()
    };
    let extended = Selection {
        only: vec!["send-on-closed".to_string()],
        skip: Vec::new(),
    };
    let mut rendered = String::new();
    for selection in [&Selection::default(), &extended] {
        let diagnostics = gcatch.diagnostics(&config, selection);
        rendered.push_str(&render_json(&diagnostics, None));
        rendered.push('\n');
    }
    let incidents = gcatch
        .session()
        .incidents()
        .iter()
        .map(|i| i.render())
        .collect();
    (rendered, incidents)
}

/// The diagnostic IDs embedded in a rendered report (strategy-independent
/// fingerprint of *which* bugs were found).
fn ids(rendered: &str) -> Vec<&str> {
    rendered
        .split("\"id\":\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

/// Every example module, as `(name, source)`.
fn example_sources() -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in ["examples", "examples/batch"] {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .expect("examples directory exists")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "go"))
            .collect();
        entries.sort();
        files.extend(entries);
    }
    files
        .into_iter()
        .map(|p| {
            let name = p.display().to_string();
            let source = std::fs::read_to_string(&p).expect("example readable");
            (name, source)
        })
        .collect()
}

/// Same snippet-composition generator as the robustness fuzzer (tests are
/// separate crates, so the generator is replicated here verbatim).
fn random_program(seed: u64) -> String {
    let mut rng = Prng::seed_from_u64(seed);
    let n_funcs = rng.gen_range(1..4usize);
    let mut src = String::from("package main\n");
    for f in 0..n_funcs {
        let cap = rng.gen_range(0..3u32);
        let spawn = rng.gen_bool(0.7);
        let select = rng.gen_bool(0.5);
        let deferred = rng.gen_bool(0.4);
        let recv_count = rng.gen_range(0..3u32);
        let mut body = format!("    ch{f} := make(chan int, {cap})\n");
        if deferred {
            body.push_str(&format!("    defer close(ch{f})\n"));
        }
        if spawn {
            let sends = rng.gen_range(0..3u32);
            body.push_str("    go func() {\n");
            for s in 0..sends {
                body.push_str(&format!("        ch{f} <- {s}\n"));
            }
            body.push_str("    }()\n");
        }
        if select {
            body.push_str(&format!(
                "    select {{\n    case v := <-ch{f}:\n        _ = v\n    default:\n    }}\n"
            ));
        }
        for _ in 0..recv_count {
            body.push_str(&format!(
                "    select {{\n    case <-ch{f}:\n    default:\n    }}\n"
            ));
        }
        src.push_str(&format!("func scenario{f}() {{\n{body}}}\n"));
    }
    src.push_str("func main() {\n");
    for f in 0..n_funcs {
        src.push_str(&format!("    scenario{f}()\n"));
    }
    src.push_str("}\n");
    src
}

/// Number of random cases, raised in CI via `GCATCH_FUZZ_CASES`.
fn fuzz_cases() -> u64 {
    std::env::var("GCATCH_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Asserts the three strategies agree on `source`: incremental == fresh
/// byte-for-byte (reports and incidents), rescan at the bug-set level.
fn assert_modes_agree(name: &str, source: &str) {
    let (fresh, fresh_incidents) = run_module(source, SolverStrategy::Fresh, 1);
    let (incremental, incremental_incidents) = run_module(source, SolverStrategy::Incremental, 1);
    assert_eq!(
        fresh, incremental,
        "{name}: incremental diagnostics diverge from fresh"
    );
    assert_eq!(
        fresh_incidents, incremental_incidents,
        "{name}: incremental incidents diverge from fresh"
    );
    let (rescan, _) = run_module(source, SolverStrategy::Rescan, 1);
    assert_eq!(
        ids(&fresh),
        ids(&rescan),
        "{name}: rescan found a different bug set"
    );
}

/// The whole example corpus (the same sweep `solver_bench` times) must be
/// strategy-independent.
#[test]
fn example_corpus_agrees_across_solver_modes() {
    let sources = example_sources();
    assert!(!sources.is_empty(), "no example programs found");
    for (name, source) in &sources {
        assert_modes_agree(name, source);
    }
}

/// Random adversarial programs must be strategy-independent too.
#[test]
fn fuzz_programs_agree_across_solver_modes() {
    let mut pick = Prng::seed_from_u64(0x50F7);
    for _ in 0..fuzz_cases() {
        let seed = pick.gen_range(0u64..10_000);
        let src = random_program(seed);
        assert_modes_agree(&format!("fuzz seed {seed}"), &src);
    }
}

/// The seed-2026 replicas (the benchmark corpus) at a step limit where
/// some queries run out of steps. An incremental solve that exhausts its
/// steps, or finds a model shaped by the queries its solver answered
/// before, must not decide a report: the fresh strategy's canonical solve
/// does.
#[test]
fn table1_replicas_agree_across_solver_modes_at_a_tight_step_limit() {
    let apps = generate_all(&GenConfig {
        seed: 2026,
        filler_per_kloc: 0.05,
    });
    assert_eq!(apps.len(), 21);
    for app in &apps {
        let fresh = run_module_at(&app.source, SolverStrategy::Fresh, 1, 160);
        let incremental = run_module_at(&app.source, SolverStrategy::Incremental, 1, 160);
        assert_eq!(
            fresh.0, incremental.0,
            "{}: incremental diagnostics diverge from fresh at 160 steps",
            app.name
        );
        assert_eq!(
            fresh.1, incremental.1,
            "{}: incremental incidents diverge from fresh at 160 steps",
            app.name
        );
    }
}

/// Under the incremental default, sharding must not move a byte: the
/// per-channel solvers are worker-local, but report order and content are
/// canonicalized downstream.
#[test]
fn incremental_reports_are_jobs_invariant() {
    for (name, source) in &example_sources() {
        let (one, one_incidents) = run_module(source, SolverStrategy::Incremental, 1);
        let (four, four_incidents) = run_module(source, SolverStrategy::Incremental, 4);
        assert_eq!(one, four, "{name}: --jobs 4 diverged from --jobs 1");
        assert_eq!(
            one_incidents, four_incidents,
            "{name}: --jobs 4 incidents diverged from --jobs 1"
        );
    }
}
