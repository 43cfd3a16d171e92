//! Running the detectors over generated replicas and classifying reports
//! against the planted ground truth — the machinery behind the Table 1,
//! FP-census, and patch-statistics harnesses.

use crate::apps::GeneratedApp;
use crate::patterns::{FpCause, Plant};
use gcatch::report::{BugKind, BugReport};
use gcatch::resilience::catch_isolated;
use gcatch::{
    faults, BatchConfig, BatchEngine, DetectorConfig, GCatch, Incident, IncidentKind, JobCtx,
    Stage, Stats, Telemetry, Tracer,
};
use gfix::{Pipeline, Strategy};
use std::collections::HashMap;
use std::time::Duration;

/// One Table 1 cell: detected real bugs and reported false positives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellResult {
    /// Planted real bugs that were detected.
    pub real: usize,
    /// Planted FP triggers that were (falsely) reported.
    pub fp: usize,
}

/// The outcome of one application replica run.
#[derive(Debug)]
pub struct AppResult {
    /// Application name.
    pub name: &'static str,
    /// Per-category results keyed by [`BugKind`].
    pub cells: HashMap<BugKind, CellResult>,
    /// GFix patches by strategy.
    pub gfix: HashMap<Strategy, usize>,
    /// Per-strategy changed-lines samples.
    pub patch_lines: Vec<(Strategy, usize)>,
    /// Attributed time of the detection stages (from session telemetry).
    pub detect_time: Duration,
    /// Attributed time of the fixing stage (from session telemetry).
    pub fix_time: Duration,
    /// Full telemetry snapshot: stage timings plus pipeline counters
    /// (paths enumerated, solver queries, ...).
    pub stats: Stats,
    /// Planted real bugs that were *not* detected (should be zero).
    pub missed: Vec<String>,
    /// Reports matching no plant (should be zero).
    pub unexpected: Vec<String>,
    /// FP census by cause.
    pub fp_causes: HashMap<FpCause, usize>,
    /// Program size in IR instructions (scaling metric).
    pub instr_count: usize,
}

impl AppResult {
    /// Total detected real bugs.
    pub fn total_real(&self) -> usize {
        self.cells.values().map(|c| c.real).sum()
    }

    /// Total reported false positives.
    pub fn total_fp(&self) -> usize {
        self.cells.values().map(|c| c.fp).sum()
    }

    /// Total patches.
    pub fn total_fixed(&self) -> usize {
        self.gfix.values().sum()
    }
}

fn report_matches(report: &BugReport, plant: &Plant) -> bool {
    crate::patterns::report_hits_plant(report, plant)
}

/// Fault-isolated [`run_app`]: one replica whose lowering or analysis
/// panics becomes an `Err` carrying an app [`Incident`] instead of
/// aborting the whole sweep — the same containment the per-channel BMOC
/// workers and the checker registry use.
pub fn try_run_app(app: &GeneratedApp, config: &DetectorConfig) -> Result<AppResult, Incident> {
    catch_isolated(|| run_app(app, config)).map_err(|message| Incident {
        kind: IncidentKind::App,
        name: app.name.to_string(),
        message,
        rung: 0,
        flight: Vec::new(),
    })
}

/// Runs a whole replica sweep through the supervised batch engine: one
/// job per application, each attempt isolated via [`try_run_app`], so a
/// replica that panics or refuses to lower degrades to a quarantine
/// [`Incident`] while every other replica still produces its
/// [`AppResult`]. Results come back in `apps` order; incidents carry the
/// replica name.
pub fn run_apps_supervised(
    apps: &[GeneratedApp],
    config: &DetectorConfig,
    batch: BatchConfig,
) -> (Vec<AppResult>, Vec<Incident>) {
    let telemetry = Telemetry::new();
    let tracer = Tracer::disabled();
    let engine = BatchEngine::new(batch, &telemetry, &tracer);
    let jobs: Vec<gcatch::BatchJob<'_, AppResult>> = apps
        .iter()
        .map(|app| {
            gcatch::BatchJob::new(app.name, move |_ctx: &JobCtx| {
                try_run_app(app, config).map_err(|inc| inc.message)
            })
        })
        .collect();
    let outcome = engine.run(&jobs, None, std::collections::BTreeMap::new());
    let mut results = Vec::new();
    let mut incidents = Vec::new();
    for rec in outcome.records {
        match (rec.payload, rec.incident) {
            (Some(result), _) => results.push(result),
            (None, Some(incident)) => incidents.push(incident),
            (None, None) => incidents.push(Incident {
                kind: IncidentKind::Quarantined,
                name: rec.id,
                message: "quarantined without a recorded failure".to_string(),
                rung: 0,
                flight: Vec::new(),
            }),
        }
    }
    (results, incidents)
}

/// Runs GCatch and GFix over one replica, classifying every report against
/// the planted ground truth.
///
/// Panics if the replica does not lower; batch callers want
/// [`try_run_app`] (or [`run_apps_supervised`]), which contain the panic
/// as an [`Incident`].
pub fn run_app(app: &GeneratedApp, config: &DetectorConfig) -> AppResult {
    faults::maybe_panic(faults::SITE_CORPUS_APP, app.name);
    let pipeline = Pipeline::from_source(&app.source)
        .unwrap_or_else(|e| panic!("{} does not lower: {e}", app.name));
    let instr_count = pipeline.module().instr_count();

    // The session telemetry attributes every analysis/enumeration/solving
    // duration to its stage; classification below happens under the `fix`
    // stage since patch synthesis dominates it.
    let gcatch = GCatch::new(pipeline.module());
    let bugs = gcatch.detect_all(config);

    let session = gcatch.session();
    let gfix_sys = gfix::GFix::new(
        pipeline.program(),
        pipeline.module(),
        &session.analysis,
        &session.prims,
    );
    let fix_timer = std::time::Instant::now();
    let mut cells: HashMap<BugKind, CellResult> = HashMap::new();
    let mut gfix_counts: HashMap<Strategy, usize> = HashMap::new();
    let mut patch_lines = Vec::new();
    let mut missed = Vec::new();
    let mut fp_causes: HashMap<FpCause, usize> = HashMap::new();
    let mut matched_reports: Vec<bool> = vec![false; bugs.len()];

    for plant in &app.plants {
        let hits: Vec<usize> = bugs
            .iter()
            .enumerate()
            .filter(|(_, r)| report_matches(r, plant))
            .map(|(i, _)| i)
            .collect();
        for &i in &hits {
            matched_reports[i] = true;
        }
        if hits.is_empty() {
            missed.push(format!("{}: {}", app.name, plant.marker));
            continue;
        }
        let cell = cells.entry(plant.kind).or_default();
        if plant.fp {
            cell.fp += 1;
            if let Some(cause) = plant.fp_cause {
                *fp_causes.entry(cause).or_default() += 1;
            }
        } else {
            cell.real += 1;
        }
        // Fix the first matching BMOC-C report when the plant promises one.
        if let Some(expected) = plant.fix {
            let fixed = hits.iter().find_map(|&i| gfix_sys.fix(&bugs[i]).ok());
            if let Some(patch) = fixed {
                debug_assert_eq!(patch.strategy, expected, "{}", plant.marker);
                *gfix_counts.entry(patch.strategy).or_default() += 1;
                patch_lines.push((patch.strategy, patch.changed_lines));
            } else {
                missed.push(format!("{}: {} (unfixed)", app.name, plant.marker));
            }
        }
    }
    session.telemetry().record(Stage::Fix, fix_timer.elapsed());
    let stats = gcatch.stats();

    let unexpected = bugs
        .iter()
        .zip(&matched_reports)
        .filter(|(_, &m)| !m)
        .map(|(r, _)| r.to_string())
        .collect();

    AppResult {
        name: app.name,
        cells,
        gfix: gfix_counts,
        patch_lines,
        detect_time: stats.detect_time(),
        fix_time: stats.stage(Stage::Fix),
        missed,
        unexpected,
        fp_causes,
        instr_count,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{generate_all, GenConfig};

    /// The smallest interesting replica (bbolt: 2 BMOC-C + 4 Fatal) must
    /// reproduce its Table 1 row exactly.
    #[test]
    fn bbolt_reproduces_its_table1_row() {
        let config = GenConfig {
            seed: 5,
            filler_per_kloc: 0.05,
        };
        let apps = generate_all(&config);
        let bbolt = apps.iter().find(|a| a.name == "bbolt").unwrap();
        let result = run_app(bbolt, &DetectorConfig::default());
        assert!(result.missed.is_empty(), "missed: {:?}", result.missed);
        assert_eq!(result.cells[&BugKind::BmocChannel].real, 2);
        assert_eq!(result.cells[&BugKind::FatalInChildGoroutine].real, 4);
        assert_eq!(result.total_fp(), 0);
        assert_eq!(result.gfix.get(&Strategy::IncreaseBuffer), Some(&1));
        assert_eq!(result.gfix.get(&Strategy::AddStopChannel), Some(&1));
    }

    /// Sharded BMOC detection must be bit-identical to sequential on every
    /// corpus replica: same reports, same order, same rendered diagnostics.
    #[test]
    fn parallel_detection_matches_sequential_on_corpus_apps() {
        let config = GenConfig {
            seed: 5,
            filler_per_kloc: 0.02,
        };
        for app in generate_all(&config) {
            let pipeline = Pipeline::from_source(&app.source)
                .unwrap_or_else(|e| panic!("{} does not lower: {e}", app.name));
            let render = |jobs: usize| {
                let gcatch = GCatch::new(pipeline.module());
                let cfg = DetectorConfig {
                    jobs,
                    ..DetectorConfig::default()
                };
                let diagnostics = gcatch.diagnostics(&cfg, &gcatch::Selection::default());
                gcatch::render_json(&diagnostics, None)
            };
            assert_eq!(render(1), render(8), "{}: --jobs 8 diverged", app.name);
        }
    }

    /// A replica that does not even lower must surface as an app incident
    /// from `try_run_app`, not abort the sweep.
    #[test]
    fn broken_replica_yields_an_incident_not_a_panic() {
        let bad = GeneratedApp {
            name: "broken",
            source: "func main( {".to_string(),
            plants: Vec::new(),
        };
        let err = try_run_app(&bad, &DetectorConfig::default())
            .expect_err("a non-lowering replica must fail");
        assert_eq!(err.kind, gcatch::IncidentKind::App);
        assert_eq!(err.name, "broken");
        assert!(err.message.contains("does not lower"), "{}", err.message);
    }

    /// The supervised sweep must contain a broken replica as a quarantine
    /// incident while every healthy replica still yields its result.
    #[test]
    fn supervised_sweep_quarantines_broken_replicas_and_finishes() {
        let config = GenConfig {
            seed: 5,
            filler_per_kloc: 0.02,
        };
        let mut apps = generate_all(&config);
        apps.truncate(3);
        apps.push(GeneratedApp {
            name: "broken",
            source: "func main( {".to_string(),
            plants: Vec::new(),
        });
        let batch = BatchConfig {
            workers: 2,
            max_attempts: 2,
            ..BatchConfig::default()
        };
        let (results, incidents) = run_apps_supervised(&apps, &DetectorConfig::default(), batch);
        assert_eq!(results.len(), 3);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].kind, IncidentKind::Quarantined);
        assert_eq!(incidents[0].name, "broken");
        assert!(
            incidents[0].message.contains("does not lower"),
            "{}",
            incidents[0].message
        );
        // Healthy results keep apps order.
        let names: Vec<&str> = results.iter().map(|r| r.name).collect();
        assert_eq!(names, apps[..3].iter().map(|a| a.name).collect::<Vec<_>>());
    }

    /// gRPC exercises five categories including a conflict and a fatal.
    #[test]
    fn grpc_reproduces_its_table1_row() {
        let config = GenConfig {
            seed: 5,
            filler_per_kloc: 0.02,
        };
        let apps = generate_all(&config);
        let grpc = apps.iter().find(|a| a.name == "gRPC").unwrap();
        let result = run_app(grpc, &DetectorConfig::default());
        assert!(result.missed.is_empty(), "missed: {:?}", result.missed);
        assert_eq!(result.cells[&BugKind::BmocChannel].real, 6);
        assert_eq!(result.cells[&BugKind::ConflictingLockOrder].real, 1);
        assert_eq!(result.cells[&BugKind::StructFieldRace].real, 1);
        assert_eq!(result.cells[&BugKind::FatalInChildGoroutine].real, 2);
        assert_eq!(result.cells[&BugKind::DoubleLock].fp, 1);
        assert_eq!(result.total_fixed(), 5);
    }
}
