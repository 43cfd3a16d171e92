//! Robustness fuzzing: the whole pipeline (parse → lower → detect → fix →
//! simulate) must never panic on arbitrary well-formed GoLite programs, and
//! any patch it produces must itself re-parse and re-lower. Random programs
//! come from a seeded generator (no external fuzzing crate).

use gcatch_suite::gcatch::{DetectorConfig, GCatch, IncidentKind, Selection};
use gcatch_suite::sim::{Config, Simulator};
use prng::Prng;
use std::time::Duration;

/// Generates a random small concurrent program from composable snippets.
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

/// Number of random cases per fuzz test: 64 by default, raised in CI's
/// robustness smoke step via `GCATCH_FUZZ_CASES`.
fn fuzz_cases() -> u64 {
    std::env::var("GCATCH_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// End-to-end pipeline robustness on random programs.
#[test]
fn pipeline_never_panics() {
    let mut pick = Prng::seed_from_u64(0xF0712);
    for case in 0..fuzz_cases() {
        let seed = pick.gen_range(0u64..10_000);
        let src = random_program(seed);
        let pipeline = gcatch_suite::gfix::Pipeline::from_source(&src)
            .unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"));
        let results = pipeline.run(&DetectorConfig::default());
        // Any produced patch must round-trip through the toolchain.
        for patch in &results.patches {
            let reparsed = gcatch_suite::golite::parse(&patch.after);
            assert!(
                reparsed.is_ok(),
                "case {case}: patch does not reparse:\n{}",
                patch.after
            );
            assert!(gcatch_suite::ir::lower(&reparsed.unwrap()).is_ok());
        }
        // The simulator must terminate with a verdict on the original.
        // (Program-level panics are legitimate outcomes — e.g. a generated
        // `defer close` racing a send is a real Go panic — the requirement
        // is only that the *toolchain* never crashes.)
        let sim = Simulator::new(pipeline.module());
        let report = sim.run(&Config {
            max_steps: 20_000,
            ..Config::default()
        });
        let _ = report.outcome;
    }
}

// ------------------------------------------------- adversarial generators

/// An expression nested `depth` parentheses deep.
fn nested_parens_program(depth: usize) -> String {
    format!(
        "package main\nfunc main() {{\n    x := {}1{}\n    _ = x\n}}\n",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

/// A storm of zero-capacity channels: every channel is sent to from its own
/// goroutine and drained through blocking selects that mix several
/// channels, so path enumeration and the Pset both blow up together.
fn select_storm_program(chans: usize) -> String {
    let mut body = String::new();
    for c in 0..chans {
        body.push_str(&format!("    ch{c} := make(chan int)\n"));
    }
    for c in 0..chans {
        body.push_str(&format!("    go func() {{\n        ch{c} <- 1\n    }}()\n"));
    }
    for c in 0..chans {
        let other = (c + 1) % chans;
        body.push_str(&format!(
            "    select {{\n    case <-ch{c}:\n    case <-ch{other}:\n    }}\n"
        ));
    }
    format!("package main\nfunc main() {{\n{body}}}\n")
}

/// Many channels touched by one goroutine pair, so each channel's Pset
/// (§3.3) contains every other channel as a dependent primitive.
fn wide_pset_program(chans: usize) -> String {
    let mut body = String::new();
    for c in 0..chans {
        body.push_str(&format!("    ch{c} := make(chan int)\n"));
    }
    body.push_str("    go func() {\n");
    for c in 0..chans {
        body.push_str(&format!("        ch{c} <- 1\n"));
    }
    body.push_str("    }()\n");
    for c in 0..chans {
        body.push_str(&format!(
            "    select {{\n    case <-ch{c}:\n    default:\n    }}\n"
        ));
    }
    format!("package main\nfunc main() {{\n{body}}}\n")
}

// ----------------------------------------------------- adversarial tests

/// Pathological nesting: a parseable depth round-trips; an absurd depth is
/// a normal parse error ("nesting too deep"), not a stack overflow.
#[test]
fn parser_survives_pathological_nesting() {
    let ok = gcatch_suite::golite::parse(&nested_parens_program(64));
    assert!(ok.is_ok(), "64 levels should parse: {:?}", ok.err());

    let err = gcatch_suite::golite::parse(&nested_parens_program(5_000))
        .expect_err("5000 levels must be rejected");
    assert!(
        err.to_string().contains("nesting too deep"),
        "unexpected error: {err}"
    );
}

/// Adversarial programs under a punishing per-channel deadline: the run
/// must complete (no panic, no hang), and anything it gave up on must be
/// declared as a channel incident rather than silently dropped.
#[test]
fn adversarial_programs_complete_under_tight_channel_timeout() {
    for src in [
        select_storm_program(10),
        wide_pset_program(12),
        nested_parens_program(64),
    ] {
        let module = gcatch_suite::ir::lower_source(&src).expect("adversarial program lowers");
        let gcatch = GCatch::new(&module);
        let config = DetectorConfig {
            channel_timeout: Some(Duration::from_millis(1)),
            ..DetectorConfig::default()
        };
        let diagnostics = gcatch.diagnostics(&config, &Selection::default());
        let _ = diagnostics; // partial results are fine; completing is the test
        for incident in gcatch.incidents() {
            assert_eq!(incident.kind, IncidentKind::Channel);
            assert!(!incident.render().is_empty());
        }
    }
}

/// A ring of goroutines in a circular wait (`go_i` sends on `ch_i`, then
/// receives `ch_{i+1}`): the order constraints interlock, so the blocking
/// queries need real DPLL search rather than pure unit propagation.
fn circular_ring_program(n: usize) -> String {
    let mut body = String::new();
    for c in 0..n {
        body.push_str(&format!("    ch{c} := make(chan int)\n"));
    }
    for c in 0..n {
        let next = (c + 1) % n;
        body.push_str(&format!(
            "    go func() {{\n        ch{c} <- 1\n        <-ch{next}\n    }}()\n"
        ));
    }
    body.push_str("    <-ch0\n");
    format!("package main\nfunc main() {{\n{body}}}\n")
}

/// Budget incidents are deterministic across worker counts. The trigger is
/// a tiny per-query solver-step budget (step counting is exact, so every
/// query gives up identically no matter which worker runs it) with a
/// deadline far in the future, so the exhaustion pattern is
/// timing-independent.
#[test]
fn budget_incidents_are_identical_across_jobs() {
    let src = circular_ring_program(3);
    let module = gcatch_suite::ir::lower_source(&src).expect("ring lowers");
    let render = |jobs: usize| {
        let gcatch = GCatch::new(&module);
        let config = DetectorConfig {
            jobs,
            solver_steps: 10,
            channel_timeout: Some(Duration::from_secs(60)),
            ..DetectorConfig::default()
        };
        let diagnostics = gcatch.diagnostics(&config, &Selection::default());
        let incidents: Vec<String> = gcatch.incidents().iter().map(|i| i.render()).collect();
        (
            gcatch_suite::gcatch::render_json(&diagnostics, None),
            incidents,
        )
    };
    let (json1, incidents1) = render(1);
    let (json4, incidents4) = render(4);
    assert_eq!(json1, json4, "--jobs must not change diagnostics");
    assert_eq!(incidents1, incidents4, "--jobs must not change incidents");
    assert!(
        !incidents1.is_empty(),
        "a 10-step solver budget must exhaust the ladder"
    );
}

/// The degradation ladder recovers findings the full limits cannot reach:
/// with ~200 solver steps per query the wide-Pset rung-0/1 formulas go
/// Unknown, but rung 2's channel-only Pset shrinks them enough to solve —
/// and the finding's provenance records the rung it was found at.
#[test]
fn ladder_findings_record_their_degradation_rung() {
    let src = circular_ring_program(3);
    let module = gcatch_suite::ir::lower_source(&src).expect("ring lowers");
    let gcatch = GCatch::new(&module);
    let config = DetectorConfig {
        solver_steps: 200,
        channel_timeout: Some(Duration::from_secs(60)),
        ..DetectorConfig::default()
    };
    let diagnostics = gcatch.diagnostics(&config, &Selection::default());
    assert!(!diagnostics.is_empty(), "the ring deadlock must be found");
    let max_rung = diagnostics
        .iter()
        .filter_map(|d| d.report.provenance.as_ref())
        .map(|p| p.degradation_rung)
        .max()
        .expect("findings carry provenance");
    assert!(
        max_rung > 0,
        "findings under a tight step budget must come from a tightened rung"
    );
    let explain = gcatch_suite::gcatch::render_explain(&diagnostics);
    assert!(
        explain.contains("ladder rung"),
        "--explain must mention the rung:\n{explain}"
    );
}

/// The extended (§6) detector is panic-free too.
#[test]
fn send_on_closed_detector_never_panics() {
    let mut pick = Prng::seed_from_u64(0x50C);
    for _ in 0..fuzz_cases() {
        let seed = pick.gen_range(0u64..2_000);
        let src = random_program(seed);
        let module = gcatch_suite::ir::lower_source(&src).expect("generated program lowers");
        let gcatch = GCatch::new(&module);
        let _ = gcatch
            .session()
            .detect_send_on_closed(&DetectorConfig::default());
    }
}
