//! E6 — bench: the §5.2 disentangling ablation.
//!
//! Paper shape: disabling disentangling (analyzing every channel from
//! `main` with *all* primitives in its Pset) slows detection by over 115×
//! on the package containing `main`. The replica interconnects many
//! channels from one `main` so whole-program mode pays the full
//! path-combination and constraint-size cost.

use bench::timing::bench;
use gcatch::{AnalysisSession, DetectorConfig};
use golite_ir::Module;

/// A program with `n` producer/consumer channel pairs all rooted in main —
/// disentangled analysis sees tiny scopes; whole-program analysis sees one
/// giant combination space.
fn interconnected(n: usize) -> Module {
    let mut src = String::from("package main\n");
    for i in 0..n {
        src.push_str(&format!(
            r#"
func stage{i}() {{
    ch{i} := make(chan int)
    fin{i} := make(chan int, 1)
    fin{i} <- 1
    go func() {{
        ch{i} <- {i}
    }}()
    select {{
    case v := <-ch{i}:
        _ = v
    case <-fin{i}:
        return
    }}
}}
"#
        ));
    }
    src.push_str("\nfunc main() {\n");
    for i in 0..n {
        src.push_str(&format!("    stage{i}()\n"));
    }
    src.push_str("}\n");
    golite_ir::lower_source(&src).expect("ablation program lowers")
}

fn main() {
    let module = interconnected(6);

    bench("disentangling_ablation/disentangled", 10, || {
        let detector = AnalysisSession::new(&module);
        let config = DetectorConfig {
            disentangle: true,
            ..DetectorConfig::default()
        };
        detector.detect_bmoc(&config).len()
    });
    bench("disentangling_ablation/whole_program", 10, || {
        let detector = AnalysisSession::new(&module);
        let config = DetectorConfig {
            disentangle: false,
            ..DetectorConfig::default()
        };
        detector.detect_bmoc(&config).len()
    });
}
