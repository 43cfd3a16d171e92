//! E12 — bench: GFix phase split — preprocessing (IR, call graph,
//! alias analysis, detection) versus patch synthesis.
//!
//! Paper shape (§5.3): ~98% of GFix's time is preprocessing; the actual
//! transformation averages 1.9 s versus 90 s end-to-end.

use bench::timing::bench;
use gcatch::GCatch;
use gfix::Pipeline;
use go_corpus::apps::{generate_all, GenConfig};

fn main() {
    let apps = generate_all(&GenConfig {
        seed: 7,
        filler_per_kloc: 0.02,
    });
    let app = apps.iter().find(|a| a.name == "gRPC").expect("app exists");
    let pipeline = Pipeline::from_source(&app.source).expect("replica lowers");
    let config = gcatch::DetectorConfig::default();

    bench("gfix_phases/preprocess_and_detect", 10, || {
        let gcatch = GCatch::new(pipeline.module());
        gcatch.detect_bmoc(&config).len()
    });

    // Pre-built analyses: measure the pure transformation step.
    let gcatch = GCatch::new(pipeline.module());
    let bugs = gcatch.detect_bmoc(&config);
    let detector = gcatch.session();
    let gfix_sys = gfix::GFix::new(
        pipeline.program(),
        pipeline.module(),
        &detector.analysis,
        &detector.prims,
    );
    bench("gfix_phases/transform_only", 10, || {
        bugs.iter().filter(|bug| gfix_sys.fix(bug).is_ok()).count()
    });
}
