//! E5 — bench: BMOC detection time versus application size.
//!
//! Paper shape (§5.2): analysis time grows with application size — the
//! largest application dominates, small applications are near-instant.

use bench::timing::bench;
use gcatch::{AnalysisSession, DetectorConfig};
use go_corpus::apps::{generate_all, GenConfig};

fn main() {
    let apps = generate_all(&GenConfig {
        seed: 7,
        filler_per_kloc: 0.02,
    });
    for name in ["mkcert", "bbolt", "gRPC", "etcd", "Docker", "Kubernetes"] {
        let app = apps.iter().find(|a| a.name == name).expect("app exists");
        let module = golite_ir::lower_source(&app.source).expect("replica lowers");
        let size = module.instr_count();
        bench(
            &format!("detect_by_app_size/gcatch/{name}-{size}instrs"),
            10,
            || {
                let detector = AnalysisSession::new(&module);
                detector.detect_bmoc(&DetectorConfig::default()).len()
            },
        );
    }
}
