//! Cold-vs-warm re-check latency over a serve-style edit script.
//!
//! Models the `gcatch serve` incremental loop at the library level: a warm
//! [`WarmSessions`] store is populated with an amplified module, the module
//! is edited, and the edited source is re-checked through [`warm_check`].
//! Four edits exercise the dirty-set rule end to end:
//!
//! - `single_function` — a helper no channel scope can reach changes; the
//!   dirty set is empty and every verdict replays from the warm session.
//! - `pset_touching`  — a function holding a channel's own operations
//!   changes; exactly that channel re-analyzes, the rest replay.
//! - `whitespace`     — a trailing no-op edit; the IR is unchanged and the
//!   whole module replays.
//! - `line_shift`     — one blank line before a mid-module `DeepRun`; every
//!   later function moves without changing, so the whole module replays
//!   with its reports rebased onto the new lines.
//!
//! Each warm response is byte-compared against a cold run of the same edited
//! source; any divergence is a hard error (exit 1), as is a warm speedup
//! below 5x on the `single_function` or `line_shift` edit — the CI
//! `serve-perf-smoke` step keys on both. Results land in `BENCH_serve.json`.

use bench::amplifier::{generate_deep, AmpConfig};
use gcatch::{render_json_with, warm_check, DetectorConfig, GCatch, Selection, WarmSessions};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Minimum warm-vs-cold speedup the empty-dirty-set edits must clear.
const MIN_SPEEDUP: f64 = 5.0;
/// The edits held to [`MIN_SPEEDUP`]: neither re-analyzes any channel.
const FLOORED: [&str; 2] = ["single_function", "line_shift"];
/// Timed repetitions per edit; the fastest run is reported, which is the
/// stable statistic on a shared CI box.
const RUNS: usize = 3;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("bench crate lives at crates/bench inside the repo")
}

/// Exactly what the daemon computes on a cold `check`: lower, analyze,
/// render the single-shot `gcatch check --json` bytes.
fn cold_check(source: &str, config: &DetectorConfig) -> String {
    let module = golite_ir::lower_source(source).expect("amplified module lowers");
    let gcatch = GCatch::new(&module);
    let diagnostics = gcatch.diagnostics(config, &Selection::default());
    let incidents = gcatch.incidents();
    render_json_with(&diagnostics, None, &incidents)
}

struct EditResult {
    name: &'static str,
    cold_ns: u64,
    warm_ns: u64,
    replayed: u64,
    reanalyzed: u64,
}

impl EditResult {
    fn speedup(&self) -> f64 {
        self.cold_ns as f64 / self.warm_ns.max(1) as f64
    }
}

/// Runs one edit scenario: populate a fresh warm store with `base`, apply
/// the edit, measure the warm re-check against a cold check of the same
/// edited bytes. Returns the best-of-`RUNS` timings.
fn run_edit(
    name: &'static str,
    base: &str,
    edited: &str,
    config: &DetectorConfig,
) -> Result<EditResult, String> {
    let mut best_cold = u64::MAX;
    let mut best_warm = u64::MAX;
    let mut replayed = 0;
    let mut reanalyzed = 0;
    for _ in 0..RUNS {
        let t = Instant::now();
        let cold_json = cold_check(edited, config);
        best_cold = best_cold.min(t.elapsed().as_nanos() as u64);

        // A fresh store per run so every measurement times the same
        // base -> edited transition, not an identical resubmission.
        let store = WarmSessions::new(8);
        let seed = warm_check(&store, "bench.go", base, config, Default::default())?;
        if seed.reused {
            return Err("seeding run unexpectedly reused a session".into());
        }
        let t = Instant::now();
        let warm = warm_check(&store, "bench.go", edited, config, Default::default())?;
        best_warm = best_warm.min(t.elapsed().as_nanos() as u64);
        if !warm.reused {
            return Err(format!("{name}: warm run did not reuse the session"));
        }
        if warm.json != cold_json {
            return Err(format!("{name}: warm and cold reports diverge"));
        }
        replayed = warm.replayed;
        reanalyzed = warm.reanalyzed;
    }
    Ok(EditResult {
        name,
        cold_ns: best_cold,
        warm_ns: best_warm,
        replayed,
        reanalyzed,
    })
}

fn main() {
    let amp = AmpConfig {
        channels: 96,
        leak_every: 16,
        ballast: 48,
    };
    // A tail helper no channel scope reaches, so editing it leaves the
    // dirty set empty; the edit is length-preserving so no spans shift.
    let base = format!(
        "{}\nfunc tailKnob() int {{\n    return 101\n}}\n",
        generate_deep(&amp)
    );
    let edits: [(&'static str, String); 4] = [
        ("single_function", base.replace("return 101", "return 202")),
        (
            "pset_touching",
            base.replace("deepch1 <- 1", "deepch1 <- 9"),
        ),
        ("whitespace", format!("{base}\n")),
        (
            "line_shift",
            base.replace("\nfunc DeepRun48(", "\n\nfunc DeepRun48("),
        ),
    ];
    for (name, edited) in &edits {
        assert_ne!(edited, &base, "{name}: edit did not apply");
    }

    let config = DetectorConfig::default();
    // Warm-up so neither measured side pays first-touch costs.
    let _ = cold_check(&base, &config);

    let mut results = Vec::new();
    for (name, edited) in &edits {
        match run_edit(name, &base, edited, &config) {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("serve_bench: {e}");
                std::process::exit(1);
            }
        }
    }

    for r in results.iter().filter(|r| FLOORED.contains(&r.name)) {
        if r.speedup() < MIN_SPEEDUP {
            eprintln!(
                "serve_bench: {} warm speedup {:.2}x is below the {MIN_SPEEDUP}x floor",
                r.name,
                r.speedup()
            );
            std::process::exit(1);
        }
    }

    let mut json = format!(
        "{{\n  \"module\": {{\"channels\": {}, \"leak_every\": {}, \"ballast\": {}, \"bytes\": {}}},\n  \"edits\": [\n",
        amp.channels,
        amp.leak_every,
        amp.ballast,
        base.len()
    );
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"edit\": \"{}\", \"cold_ns\": {}, \"warm_ns\": {}, ",
                "\"speedup\": {:.3}, \"channels_replayed\": {}, \"channels_reanalyzed\": {}}}{}\n"
            ),
            r.name,
            r.cold_ns,
            r.warm_ns,
            r.speedup(),
            r.replayed,
            r.reanalyzed,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"min_required_speedup\": {MIN_SPEEDUP:.1},\n  \"reports_identical\": true\n}}\n"
    ));

    let out = repo_root().join("BENCH_serve.json");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    print!("{json}");
    for r in &results {
        println!(
            "serve_bench: {} cold {} ns -> warm {} ns ({:.2}x), {} replayed / {} reanalyzed",
            r.name,
            r.cold_ns,
            r.warm_ns,
            r.speedup(),
            r.replayed,
            r.reanalyzed
        );
    }
    println!("serve_bench: wrote {}", out.display());
}
