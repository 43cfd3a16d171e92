//! `gfix::fixpoint` against a one-patch-per-round reference. A fixpoint
//! round applies every patch whose report no earlier patch of the round
//! can influence; the result must equal re-detecting after every single
//! patch, on the Table 1 replicas, on every example, and on a module whose
//! round has to stop early.

use gcatch_suite::corpus::apps::{generate_all, GenConfig};
use gcatch_suite::corpus::patterns::marker_hit;
use gcatch_suite::gcatch::{DetectorConfig, TraceLevel};
use gcatch_suite::gfix::{self, Fixpoint, Patch, Pipeline, Strategy};
use std::collections::BTreeMap;

/// The reference: detect, apply the first patch, detect again on the
/// patched source, until no patch applies. No round cap.
fn one_patch_per_round(source: &str) -> (String, Vec<Patch>) {
    let config = DetectorConfig::default();
    let mut source = source.to_string();
    let mut applied = Vec::new();
    loop {
        let pipeline = Pipeline::from_source(&source).expect("source parses");
        let Some(patch) = pipeline.run(&config).patches.into_iter().next() else {
            return (source, applied);
        };
        source = patch.after.clone();
        applied.push(patch);
    }
}

fn sequence(patches: &[Patch]) -> Vec<(Strategy, &str, usize)> {
    patches
        .iter()
        .map(|p| (p.strategy, p.description.as_str(), p.changed_lines))
        .collect()
}

/// Runs the fixpoint at `level` and the reference, and requires the same
/// final source and the same patch sequence.
fn matches_reference(name: &str, source: &str, level: TraceLevel) -> Fixpoint {
    let fixed = gfix::fixpoint(source, &DetectorConfig::default(), level).expect("source parses");
    let (reference, patches) = one_patch_per_round(source);
    assert!(
        fixed.converged,
        "{name}: no fixpoint within {} rounds",
        gfix::MAX_FIX_ROUNDS
    );
    assert_eq!(
        sequence(&fixed.patches),
        sequence(&patches),
        "{name}: patch sequence"
    );
    assert_eq!(fixed.source, reference, "{name}: final source");
    fixed
}

/// Every replica converges to the reference's source after one patching
/// round, and the patches of planted real bugs are Table 1's GFix column:
/// 124 patches, 99/4/21 by strategy, each plant patched once.
#[test]
fn replicas_match_the_one_patch_per_round_reference() {
    let apps = generate_all(&GenConfig {
        seed: 11,
        filler_per_kloc: 0.01,
    });
    let mut by_strategy: BTreeMap<Strategy, usize> = BTreeMap::new();
    for app in &apps {
        let fixed = matches_reference(app.name, &app.source, TraceLevel::Off);
        assert!(fixed.rounds <= 1, "{}: {} rounds", app.name, fixed.rounds);
        let mut patched: BTreeMap<&str, usize> = BTreeMap::new();
        for patch in &fixed.patches {
            let plants: Vec<_> = app
                .plants
                .iter()
                .filter(|p| marker_hit(&patch.primitive_name, &p.marker))
                .collect();
            let [plant] = plants.as_slice() else {
                panic!(
                    "{}: patch of `{}` names {} plants",
                    app.name,
                    patch.primitive_name,
                    plants.len()
                );
            };
            if plant.fp {
                continue;
            }
            assert_eq!(plant.fix, Some(patch.strategy), "{}", plant.marker);
            *by_strategy.entry(patch.strategy).or_default() += 1;
            *patched.entry(&plant.marker).or_default() += 1;
        }
        for plant in app.plants.iter().filter(|p| !p.fp && p.fix.is_some()) {
            assert_eq!(
                patched.get(plant.marker.as_str()),
                Some(&1),
                "{}: {}",
                app.name,
                plant.marker
            );
        }
    }
    let count = |s| by_strategy.get(&s).copied().unwrap_or(0);
    assert_eq!(
        (
            count(Strategy::IncreaseBuffer),
            count(Strategy::DeferOperation),
            count(Strategy::AddStopChannel)
        ),
        (99, 4, 21)
    );
}

#[test]
fn examples_match_the_one_patch_per_round_reference() {
    let mut files = Vec::new();
    for dir in ["examples", "examples/batch"] {
        for entry in std::fs::read_dir(dir).expect("examples directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "go") {
                files.push(path);
            }
        }
    }
    files.sort();
    assert!(files.len() >= 9, "{files:?}");
    for path in &files {
        let source = std::fs::read_to_string(path).expect("example reads");
        matches_reference(&path.display().to_string(), &source, TraceLevel::Off);
    }
}

/// Two fixable reports on `c`, then an independent Strategy III bug on
/// `d`. The first patch edits `Pair`, which `c`'s second report depends
/// on, so the round must stop there: skipping that report and patching
/// `d` in the same round would name `d`'s stop channel `stop2` where the
/// reference names it `stop3`.
const TWO_ON_ONE_CHANNEL: &str = r#"
package main

func Pair() {
    c := make(chan int)
    quit := make(chan int, 1)
    quit <- 1
    go func() {
        c <- 1
        c <- 2
    }()
    select {
    case <-c:
    case <-quit:
    }
}

func Solo() {
    d := make(chan int)
    quit := make(chan int, 1)
    quit <- 1
    go func() {
        for {
            d <- 1
        }
    }()
    select {
    case <-d:
    case <-quit:
    }
}

func main() {
    Pair()
    Solo()
}
"#;

#[test]
fn a_round_stops_at_the_first_influenced_report() {
    let fixed = matches_reference("two-on-one-channel", TWO_ON_ONE_CHANNEL, TraceLevel::Full);
    assert_eq!(fixed.rounds, 2);
    let names: Vec<&str> = fixed
        .patches
        .iter()
        .map(|p| p.primitive_name.as_str())
        .collect();
    assert_eq!(names, ["c", "c", "d"]);
    assert!(fixed.patches[2].description.contains("stop3"));
    // The first round defers `c`'s second report and `d`'s.
    let deferred = fixed
        .trace
        .events
        .iter()
        .filter(|(_, e)| e.name == "fix_deferred")
        .count();
    assert_eq!(deferred, 2);
}
