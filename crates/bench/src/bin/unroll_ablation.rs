//! Design-choice ablation: the loop-unrolling bound (§3.3 fixes it at 2).
//!
//! The paper notes that 2-bounded unrolling causes both false positives and
//! false negatives. This harness sweeps the bound over representative
//! programs and shows why 2 is the sweet spot: bound 1 loses real
//! multiple-operations bugs (the producer's looped send never reappears
//! after truncation), while larger bounds multiply paths and combinations
//! without changing verdicts.

use bench::render_table;
use gcatch::paths::Limits;
use gcatch::{AnalysisSession, DetectorConfig};
use go_corpus::patterns::{emit, PatternKind};
use std::time::Instant;

fn main() {
    let programs: Vec<(&str, String, &str)> = vec![
        (
            "MultipleOps (real, Fig. 4)",
            wrap(emit(PatternKind::MultipleOps, 42).source),
            "sched42",
        ),
        (
            "FpLoopUnroll (false positive)",
            wrap(emit(PatternKind::FpLoopUnroll, 43).source),
            "fpLoop43",
        ),
        (
            "SingleSend (real, Fig. 1)",
            wrap(emit(PatternKind::SingleSend, 44).source),
            "done44",
        ),
    ];
    let mut rows = Vec::new();
    for bound in [1u32, 2, 3, 4] {
        for (name, src, marker) in &programs {
            let module = golite_ir::lower_source(src).expect("program lowers");
            let detector = AnalysisSession::new(&module);
            let config = DetectorConfig {
                limits: Limits {
                    max_block_visits: bound,
                    ..Limits::default()
                },
                ..DetectorConfig::default()
            };
            let t0 = Instant::now();
            let bugs = detector.detect_bmoc(&config);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let hit = bugs.iter().any(|b| b.primitive_name.contains(marker));
            rows.push(vec![
                bound.to_string(),
                name.to_string(),
                if hit {
                    "reported".into()
                } else {
                    "silent".into()
                },
                format!("{ms:.1}"),
            ]);
        }
    }
    println!("Loop-unrolling bound ablation (§3.3 fixes the bound at 2)\n");
    println!(
        "{}",
        render_table(&["bound", "program", "verdict", "ms"], &rows)
    );
    println!(
        "paper behavior at bound 2: real bugs reported, the loop-unroll FP reported\n\
         (that FP is the price of bounding; see the §5.2 census)"
    );
}

fn wrap(body: String) -> String {
    format!("package main\n{body}\nfunc main() {{\n}}\n")
}
