//! `scale_bench` — the corpus-scale before/after benchmark.
//!
//! Generates an amplified suite (thousands of channels plus alias-analysis
//! ballast), analyzes it under the pre-refactor configuration (`fresh`
//! solvers, eager alias analysis, no encoding sharing) and the optimized
//! one (incremental solvers, demand-driven alias analysis, cross-channel
//! verdict sharing), asserts the reports are byte-identical across every
//! configuration axis, and writes `BENCH_scale.json`.
//!
//! ```console
//! $ cargo run --release --bin scale_bench                  # full preset
//! $ cargo run --release --bin scale_bench -- --preset smoke
//! $ cargo run --release --bin scale_bench -- --channels 5000 --ballast 2500
//! ```

use bench::amplifier::{expected_leaks, generate, AmpConfig};
use gcatch::{
    render_json, AliasMode, Counter, DetectorConfig, EventBus, GCatch, ObsScope, Selection,
    SolverStrategy, Stats, TraceLevel,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct RunResult {
    wall: Duration,
    report: String,
    bugs: usize,
    stats: Stats,
}

/// One full analysis of the module: session construction (where alias
/// analysis runs) through diagnostics. Lowering is excluded — it is
/// identical in every configuration.
fn run(module: &golite_ir::Module, alias: AliasMode, config: &DetectorConfig) -> RunResult {
    let start = Instant::now();
    let gcatch = GCatch::with_options(module, TraceLevel::Off, alias);
    let diagnostics = gcatch.diagnostics(config, &Selection::default());
    let wall = start.elapsed();
    RunResult {
        wall,
        report: render_json(&diagnostics, None),
        bugs: diagnostics.len(),
        stats: gcatch.stats(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Alternating plain/bus pairs behind `observability.overhead_pct`.
const OBS_PAIRS: usize = 10;

/// Median and quartiles of a sample (linear interpolation between ranks).
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    fn of(samples: &mut [f64]) -> Quartiles {
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (samples.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
        };
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = AmpConfig {
        channels: 2400,
        leak_every: 60,
        ballast: 1600,
    };
    let mut out = "BENCH_scale.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("--{name} needs a value"))
                .parse::<usize>()
                .unwrap_or_else(|e| panic!("bad --{name}: {e}"))
        };
        match arg.as_str() {
            "--channels" => config.channels = value("channels"),
            "--leak-every" => config.leak_every = value("leak-every"),
            "--ballast" => config.ballast = value("ballast"),
            "--preset" => match it.next().map(String::as_str) {
                Some("smoke") => {
                    config = AmpConfig {
                        channels: 240,
                        leak_every: 60,
                        ballast: 160,
                    }
                }
                Some("full") => {}
                other => panic!("bad --preset: {other:?} (expected smoke or full)"),
            },
            "--out" => out = it.next().expect("--out needs a value").clone(),
            other => panic!("unknown argument `{other}`"),
        }
    }

    eprintln!(
        "scale_bench: generating {} channels ({} planted leaks) + {} ballast clusters",
        config.channels,
        expected_leaks(&config),
        config.ballast
    );
    let src = generate(&config);
    let module = golite_ir::lower_source(&src).expect("amplified suite lowers");

    // "Before": the pre-refactor cost model — one fresh solver per query,
    // whole-module alias analysis, no cross-channel sharing.
    let before_config = DetectorConfig {
        solver_strategy: SolverStrategy::Fresh,
        share_encodings: false,
        ..DetectorConfig::default()
    };
    // "After": the optimized defaults.
    let after_config = DetectorConfig::default();

    let before = run(&module, AliasMode::Eager, &before_config);
    eprintln!(
        "scale_bench: before (fresh/eager/no-share): {:.1} ms",
        ms(before.wall)
    );
    let after = run(&module, AliasMode::Demand, &after_config);
    eprintln!(
        "scale_bench: after (incremental/demand/share): {:.1} ms",
        ms(after.wall)
    );

    // Differential sweep: every axis must reproduce the same report bytes.
    let divergences = {
        let mut bad: Vec<&'static str> = Vec::new();
        let eager_shared = run(&module, AliasMode::Eager, &after_config);
        if eager_shared.report != after.report {
            bad.push("alias-mode (eager vs demand)");
        }
        let unshared = run(
            &module,
            AliasMode::Demand,
            &DetectorConfig {
                share_encodings: false,
                ..DetectorConfig::default()
            },
        );
        if unshared.report != after.report {
            bad.push("encoding sharing (on vs off)");
        }
        let sharded = run(
            &module,
            AliasMode::Demand,
            &DetectorConfig {
                jobs: 4,
                ..DetectorConfig::default()
            },
        );
        if sharded.report != after.report {
            bad.push("--jobs (1 vs 4)");
        }
        if before.report != after.report {
            bad.push("before vs after");
        }
        bad
    };
    // Observability overhead: the optimized run with a live event bus
    // attached (every channel_analyzed emitted) against a plain run, in
    // alternating pairs at `jobs: 1` (thread scheduling would swamp a
    // difference of a few percent), compared by their medians. The
    // quartiles say whether that difference is resolved at all. The bus
    // must never change the report.
    let plain_config = DetectorConfig {
        jobs: 1,
        ..DetectorConfig::default()
    };
    let mut base_ms = Vec::with_capacity(OBS_PAIRS);
    let mut events_ms = Vec::with_capacity(OBS_PAIRS);
    let mut emitted = 0;
    let mut bus_diverged = false;
    for _ in 0..OBS_PAIRS {
        let plain = run(&module, AliasMode::Demand, &plain_config);
        let bus = Arc::new(EventBus::new("scale-bench".to_string(), false));
        let obs_config = DetectorConfig {
            obs: ObsScope {
                bus: Some(bus.clone()),
                ..ObsScope::default()
            },
            ..plain_config.clone()
        };
        let with_bus = run(&module, AliasMode::Demand, &obs_config);
        emitted = bus.len();
        bus_diverged |= with_bus.report != plain.report;
        base_ms.push(ms(plain.wall));
        events_ms.push(ms(with_bus.wall));
    }
    let base = Quartiles::of(&mut base_ms);
    let events = Quartiles::of(&mut events_ms);
    let obs_overhead_pct = (events.median - base.median) / base.median.max(1e-9) * 100.0;
    let base_iqr_pct = (base.q3 - base.q1) / base.median.max(1e-9) * 100.0;
    eprintln!(
        "scale_bench: observability ({OBS_PAIRS} pairs, jobs 1): median {:.1} ms plain vs {:.1} ms with events ({} emitted, {:+.2}% overhead; plain IQR {:.1}% of its median)",
        base.median, events.median, emitted, obs_overhead_pct, base_iqr_pct
    );
    let mut divergences = divergences;
    if bus_diverged {
        divergences.push("event bus (on vs off)");
    }
    let reports_identical = divergences.is_empty();

    let expected = expected_leaks(&config);
    if after.bugs != expected {
        eprintln!(
            "scale_bench: WARNING: {} report(s), expected {expected}",
            after.bugs
        );
    }

    let per_1k = |r: &RunResult| ms(r.wall) * 1000.0 / config.channels.max(1) as f64;
    let speedup = ms(before.wall) / ms(after.wall).max(1e-9);
    let shared = after.stats.counter(Counter::ChannelEncodingsShared);
    let alias_skipped = after.stats.counter(Counter::AliasFunctionsSkipped);
    let alias_solved = after.stats.counter(Counter::AliasQueriesSolved);

    let json = format!(
        concat!(
            "{{\"version\":1,\"suite\":{{\"channels\":{},\"leaks\":{},\"ballast_clusters\":{}}},",
            "\"before\":{{\"solver_mode\":\"fresh\",\"alias_mode\":\"eager\",\"share_encodings\":false,",
            "\"wall_ms\":{:.2},\"ms_per_1k_channels\":{:.2}}},",
            "\"after\":{{\"solver_mode\":\"incremental\",\"alias_mode\":\"demand\",\"share_encodings\":true,",
            "\"wall_ms\":{:.2},\"ms_per_1k_channels\":{:.2},",
            "\"channel_encodings_shared\":{},\"alias_queries_solved\":{},\"alias_functions_skipped\":{}}},",
            "\"observability\":{{\"pairs\":{},\"jobs\":1,",
            "\"base_wall_ms\":{:.2},\"base_q1_ms\":{:.2},\"base_q3_ms\":{:.2},",
            "\"events_wall_ms\":{:.2},\"events_q1_ms\":{:.2},\"events_q3_ms\":{:.2},",
            "\"overhead_pct\":{:.2},\"base_iqr_pct\":{:.2},\"events\":{}}},",
            "\"speedup\":{:.2},\"reports_identical\":{},\"bugs\":{}}}"
        ),
        config.channels,
        expected,
        config.ballast,
        ms(before.wall),
        per_1k(&before),
        ms(after.wall),
        per_1k(&after),
        shared,
        alias_solved,
        alias_skipped,
        OBS_PAIRS,
        base.median,
        base.q1,
        base.q3,
        events.median,
        events.q1,
        events.q3,
        obs_overhead_pct,
        base_iqr_pct,
        emitted,
        speedup,
        reports_identical,
        after.bugs,
    );
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_scale.json");
    println!("{json}");
    eprintln!(
        "scale_bench: speedup {speedup:.2}x, {shared} encodings shared, {alias_skipped} alias functions skipped -> {out}"
    );

    if !reports_identical {
        eprintln!(
            "scale_bench: FAIL: report divergence on: {}",
            divergences.join(", ")
        );
        std::process::exit(1);
    }
}
