//! Differential testing of the corpus-scale optimizations: demand-driven
//! alias analysis and cross-channel encoding sharing must be pure
//! optimizations. Over the example corpus, a stream of random programs,
//! small relay programs, the Table 1 replicas, and an amplified synthetic
//! suite, every combination of `AliasMode::{Eager, Demand}`, sharing
//! on/off, and `jobs` 1|4 must produce byte-identical diagnostics and
//! incident sets. So must sharing and `jobs` under a step limit tight
//! enough that some queries run out of steps.

use bench::amplifier::{expected_leaks, generate, AmpConfig};
use gcatch_suite::corpus::apps::{generate_all, GenConfig};
use gcatch_suite::gcatch::{
    render_json, AliasMode, Counter, DetectorConfig, GCatch, Selection, TraceLevel,
};
use prng::Prng;

/// One configuration axis point.
#[derive(Clone, Copy)]
struct Cfg {
    alias: AliasMode,
    share: bool,
    jobs: usize,
    /// The per-query step limit; `None` keeps the default.
    steps: Option<u64>,
}

impl Cfg {
    fn name(&self) -> String {
        format!(
            "alias={}/share={}/jobs={}/steps={}",
            match self.alias {
                AliasMode::Eager => "eager",
                AliasMode::Demand => "demand",
            },
            self.share,
            self.jobs,
            self.steps
                .map_or_else(|| "default".to_string(), |n| n.to_string())
        )
    }
}

/// Rendered diagnostics + rendered incidents for one module under one
/// configuration, across both the default registry and the §6 extension.
fn run_module(source: &str, cfg: Cfg) -> (String, Vec<String>) {
    let module = golite_ir::lower_source(source).expect("module lowers");
    let gcatch = GCatch::with_options(&module, TraceLevel::Off, cfg.alias);
    let mut config = DetectorConfig {
        share_encodings: cfg.share,
        jobs: cfg.jobs,
        ..DetectorConfig::default()
    };
    if let Some(steps) = cfg.steps {
        config.solver_steps = steps;
    }
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

/// The reference configuration every other axis point must match.
const BASELINE: Cfg = Cfg {
    alias: AliasMode::Eager,
    share: false,
    jobs: 1,
    steps: None,
};

/// The axis points compared against [`BASELINE`].
const VARIANTS: [Cfg; 4] = [
    Cfg {
        alias: AliasMode::Demand,
        share: false,
        jobs: 1,
        steps: None,
    },
    Cfg {
        alias: AliasMode::Eager,
        share: true,
        jobs: 1,
        steps: None,
    },
    Cfg {
        alias: AliasMode::Demand,
        share: true,
        jobs: 1,
        steps: None,
    },
    Cfg {
        alias: AliasMode::Demand,
        share: true,
        jobs: 4,
        steps: None,
    },
];

fn assert_axes_agree(name: &str, source: &str) {
    assert_points_agree(name, source, BASELINE, &VARIANTS);
}

/// Asserts every configuration in `variants` renders `source` exactly as
/// `baseline` does.
fn assert_points_agree(name: &str, source: &str, baseline: Cfg, variants: &[Cfg]) {
    let (want, want_incidents) = run_module(source, baseline);
    for cfg in variants {
        let (got, got_incidents) = run_module(source, *cfg);
        assert_eq!(
            want,
            got,
            "{name}: {} diagnostics diverge from {}",
            cfg.name(),
            baseline.name()
        );
        assert_eq!(
            want_incidents,
            got_incidents,
            "{name}: {} incidents diverge from {}",
            cfg.name(),
            baseline.name()
        );
    }
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

/// The whole example corpus must be invariant across every optimization
/// axis.
#[test]
fn example_corpus_agrees_across_alias_and_sharing() {
    let sources = example_sources();
    assert!(!sources.is_empty(), "no example programs found");
    for (name, source) in &sources {
        assert_axes_agree(name, source);
    }
}

/// Random adversarial programs must be axis-invariant too.
#[test]
fn fuzz_programs_agree_across_alias_and_sharing() {
    let mut pick = Prng::seed_from_u64(0xA11A5);
    for _ in 0..fuzz_cases() {
        let seed = pick.gen_range(0u64..10_000);
        let src = random_program(seed);
        assert_axes_agree(&format!("fuzz seed {seed}"), &src);
    }
}

/// Programs whose channel reaches its operations only through functions
/// that hold no sync operation: a relay call, a relaying `go` closure, a
/// struct built by a helper, a global set by a helper, and a function
/// value applied by a helper. A component solve that skipped such members
/// would lose the flow.
const RELAY_PROGRAMS: [(&str, &str); 5] = [
    (
        "relay call",
        "func worker(ch chan int) {\n ch <- 1\n}\nfunc relay(ch chan int) {\n worker(ch)\n}\n\
         func main() {\n ch := make(chan int)\n go relay(ch)\n}\n",
    ),
    (
        "relay closure",
        "func worker(ch chan int) {\n ch <- 1\n}\n\
         func main() {\n ch := make(chan int)\n go func() {\n  worker(ch)\n }()\n}\n",
    ),
    (
        "struct from a helper",
        "type Box struct {\n ch chan int\n}\nfunc wrap(c chan int) Box {\n return Box{ch: c}\n}\n\
         func fill(b *Box) {\n b.ch <- 1\n}\n\
         func main() {\n c := make(chan int)\n b := wrap(c)\n go fill(&b)\n}\n",
    ),
    (
        "global from a helper",
        "var shared chan int\nfunc setup(c chan int) {\n shared = c\n}\nfunc use() {\n shared <- 1\n}\n\
         func main() {\n c := make(chan int)\n setup(c)\n go use()\n}\n",
    ),
    (
        "function value applied by a helper",
        "func send(c chan int) {\n c <- 1\n}\nfunc apply(f func(chan int), c chan int) {\n f(c)\n}\n\
         func main() {\n c := make(chan int)\n go apply(send, c)\n}\n",
    ),
];

#[test]
fn relay_programs_agree_across_alias_and_sharing() {
    for (name, source) in RELAY_PROGRAMS {
        let (diagnostics, _) = run_module(source, BASELINE);
        assert!(diagnostics.contains("BMOC-C"), "{name}: the leak is found");
        assert_axes_agree(name, source);
    }
}

/// The 21 Table 1 replicas: unlike the examples and the fuzz programs,
/// their component solves carry dynamic calls, struct fields, globals and
/// mutexes.
#[test]
fn table1_replicas_agree_across_alias_and_sharing() {
    let apps = generate_all(&GenConfig {
        seed: 11,
        filler_per_kloc: 0.01,
    });
    assert_eq!(apps.len(), 21);
    for app in &apps {
        assert_axes_agree(app.name, &app.source);
    }
}

/// The seed-2026 replicas (the benchmark corpus) under a step limit at
/// which some queries run out of steps. A query's verdict and witness must
/// still not depend on which structurally identical channel, or which
/// worker, solved its key first, nor on what that channel's solver
/// answered before.
#[test]
fn table1_replicas_agree_across_sharing_and_jobs_at_a_tight_step_limit() {
    let apps = generate_all(&GenConfig {
        seed: 2026,
        filler_per_kloc: 0.05,
    });
    assert_eq!(apps.len(), 21);
    let point = |share: bool, jobs: usize| Cfg {
        alias: AliasMode::Demand,
        share,
        jobs,
        steps: Some(160),
    };
    let variants = [point(true, 1), point(false, 4), point(true, 4)];
    for app in &apps {
        assert_points_agree(app.name, &app.source, point(false, 1), &variants);
    }
}

/// The amplified suite — many structurally identical channels plus
/// alias-analysis ballast — must be axis-invariant, and the optimized
/// configuration must actually exercise both fast paths: solver verdicts
/// shared across channels, ballast components never solved.
#[test]
fn amplified_suite_agrees_and_exercises_fast_paths() {
    let amp = AmpConfig {
        channels: 36,
        leak_every: 6,
        ballast: 12,
    };
    let src = generate(&amp);
    assert_axes_agree("amplified suite", &src);

    let module = golite_ir::lower_source(&src).expect("amplified suite lowers");
    let gcatch = GCatch::with_options(&module, TraceLevel::Off, AliasMode::Demand);
    let bugs = gcatch.detect_all(&DetectorConfig::default());
    assert_eq!(bugs.len(), expected_leaks(&amp), "one report per leak");
    let stats = gcatch.stats();
    assert!(
        stats.counter(Counter::ChannelEncodingsShared) > 0,
        "structurally identical channels must share solver verdicts"
    );
    assert!(
        stats.counter(Counter::AliasFunctionsSkipped) > 0,
        "demand mode must skip the ballast components"
    );
    assert!(
        stats.counter(Counter::AliasQueriesSolved) > 0,
        "demand mode solves the queried components"
    );
}
