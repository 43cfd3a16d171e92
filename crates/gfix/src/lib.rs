//! # gfix — automated patching of BMOC bugs detected by GCatch
//!
//! GFix (ASPLOS '21, §4) turns each blocking misuse-of-channel bug into a
//! small source-to-source patch using Go's channel-related language
//! features, chosen for readability: Strategy I changes one line (a buffer
//! size), Strategy II defers the missed interaction, and Strategy III adds a
//! stop channel.
//!
//! The pipeline ([`Pipeline`]) mirrors Figure 2: GCatch reports feed the
//! dispatcher, each bug gets the simplest applicable strategy, and every
//! patch can be validated dynamically with the simulator
//! ([`validate::validate`]) — automating the patch-testing process the
//! paper performs manually. [`fixpoint`] applies the patches: it detects
//! and patches until a detection round finds nothing left to patch, as
//! `gcatch fix` does.
//!
//! # Examples
//!
//! Fix the Figure 1 Docker bug end to end:
//!
//! ```
//! let src = r#"
//! func Exec(ctx context.Context) error {
//!     outDone := make(chan error)
//!     go func() {
//!         outDone <- nil
//!     }()
//!     select {
//!     case err := <-outDone:
//!         return err
//!     case <-ctx.Done():
//!         return ctx.Err()
//!     }
//! }
//!
//! func main() {
//!     ctx, cancel := context.WithCancel(context.Background())
//!     defer cancel()
//!     Exec(ctx)
//! }
//! "#;
//! let pipeline = gfix::Pipeline::from_source(src).unwrap();
//! let results = pipeline.run(&gcatch::DetectorConfig::default());
//! let patch = results.patches.first().expect("Figure 1 is fixable");
//! assert_eq!(patch.strategy, gfix::Strategy::IncreaseBuffer);
//! assert!(patch.after.contains("make(chan error, 1)"));
//! assert_eq!(patch.changed_lines, 2); // one line replaced
//! ```

#![warn(missing_docs)]

pub mod edit;
pub mod fix;
pub mod validate;

pub use fix::{Draft, GFix, Patch, Rejection, Strategy};
pub use validate::{try_validate, validate, Validation};

use gcatch::disentangle::{influences, pset};
use gcatch::trace::ArgValue;
use gcatch::{
    AnalysisSession, BugReport, DetectorConfig, GCatch, Selection, Stage, Stats, TraceLevel,
    TraceSnapshot,
};
use golite::Program;
use golite_ir::{FuncId, Module};

/// End-to-end detect-then-fix results.
#[derive(Debug)]
pub struct PipelineResults {
    /// Every bug GCatch reported.
    pub bugs: Vec<gcatch::BugReport>,
    /// Patches for the bugs GFix could fix, in report order.
    pub patches: Vec<Patch>,
    /// Rejections for the BMOC bugs GFix declined, in report order.
    pub rejections: Vec<(gcatch::BugReport, Rejection)>,
}

/// The full GCatch → GFix pipeline over one source file (Figure 2).
pub struct Pipeline {
    program: Program,
    module: Module,
}

impl Pipeline {
    /// Parses and lowers `src`.
    ///
    /// # Errors
    ///
    /// Returns the parse or lowering error message.
    pub fn from_source(src: &str) -> Result<Pipeline, String> {
        let program = golite::parse(src).map_err(|e| e.to_string())?;
        let module = golite_ir::lower(&program).map_err(|e| e.to_string())?;
        Ok(Pipeline { program, module })
    }

    /// The lowered module (for simulation or further analysis).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Detects all bugs and patches every fixable BMOC bug.
    pub fn run(&self, config: &DetectorConfig) -> PipelineResults {
        self.run_with_stats(config, &Selection::default()).0
    }

    /// Runs the selected checkers through one shared [`AnalysisSession`],
    /// patches every fixable BMOC bug under the `fix` telemetry stage, and
    /// returns the results together with the session's [`Stats`] snapshot
    /// (stage timings and pipeline counters).
    pub fn run_with_stats(
        &self,
        config: &DetectorConfig,
        selection: &Selection,
    ) -> (PipelineResults, Stats) {
        let (results, stats, _) = self.run_traced(config, selection, TraceLevel::Off);
        (results, stats)
    }

    /// [`Pipeline::run_with_stats`] with span tracing at `level`: detection
    /// spans come from the shared session's tracer, and the per-bug fix loop
    /// is wrapped in a `fix` span with one `fix_bug` child per BMOC bug
    /// whose `outcome` argument records the winning strategy label
    /// (`S-I`/`S-II`/`S-III`) or the rejection reason.
    pub fn run_traced(
        &self,
        config: &DetectorConfig,
        selection: &Selection,
        level: TraceLevel,
    ) -> (PipelineResults, Stats, TraceSnapshot) {
        self.detect_and_fix(config, selection, level, false)
    }

    /// Detects, then fixes the BMOC bugs in report order. With `in_place`,
    /// each patch becomes the program the next one builds on, and the fix
    /// loop stops at the first BMOC bug whose channel an applied patch
    /// influences: that bug and every later one get a `fix_deferred`
    /// instant and wait for a detection of the patched source.
    fn detect_and_fix(
        &self,
        config: &DetectorConfig,
        selection: &Selection,
        level: TraceLevel,
        in_place: bool,
    ) -> (PipelineResults, Stats, TraceSnapshot) {
        let gcatch = GCatch::with_trace(&self.module, level);
        let bugs = gcatch::checkers::flatten(gcatch.run(config, selection));
        let session = gcatch.session();
        let mut gfix = GFix::new(
            &self.program,
            &self.module,
            &session.analysis,
            &session.prims,
        );
        let (patches, rejections) = session.telemetry().time(Stage::Fix, || {
            let mut lane = session.tracer().lane(0, "main");
            lane.begin("fix", Vec::new());
            let mut patches = Vec::new();
            let mut rejections = Vec::new();
            // The IR functions the applied patches changed.
            let mut edited: Vec<FuncId> = Vec::new();
            let bmoc: Vec<&BugReport> = bugs.iter().filter(|b| b.kind.is_bmoc()).collect();
            for (i, &bug) in bmoc.iter().enumerate() {
                if influenced(session, config, bug, &edited) {
                    for later in &bmoc[i..] {
                        lane.instant(
                            "fix_deferred",
                            vec![("primitive", ArgValue::from(later.primitive_name.as_str()))],
                        );
                    }
                    break;
                }
                lane.begin(
                    "fix_bug",
                    vec![("primitive", ArgValue::from(bug.primitive_name.as_str()))],
                );
                let (result, attempted) = gfix.draft_annotated(bug);
                for label in &attempted {
                    lane.instant("strategy_tried", vec![("strategy", ArgValue::from(*label))]);
                }
                match result {
                    Ok(draft) => {
                        lane.instant(
                            "fix_applied",
                            vec![("outcome", draft.patch.strategy.label().into())],
                        );
                        patches.push(if in_place {
                            edited.extend(&draft.edited);
                            gfix.apply(draft)
                        } else {
                            draft.patch
                        });
                    }
                    Err(r) => {
                        lane.instant("fix_rejected", vec![("outcome", r.to_string().into())]);
                        rejections.push((bug.clone(), r));
                    }
                }
                lane.end();
            }
            lane.end();
            (patches, rejections)
        });
        (
            PipelineResults {
                bugs,
                patches,
                rejections,
            },
            gcatch.stats(),
            gcatch.trace_snapshot(),
        )
    }
}

/// Whether a patch that changed the IR functions `edited` can change what
/// detection reports for `bug`'s channel: [`influences`], the rule warm
/// re-analysis uses to prove a channel's outcome unchanged. Any edit
/// counts for a report with no primitive, and without disentangling,
/// where no scope bounds a channel's analysis (warm replay never replays
/// then either).
fn influenced(
    session: &AnalysisSession<'_>,
    config: &DetectorConfig,
    bug: &BugReport,
    edited: &[FuncId],
) -> bool {
    if edited.is_empty() {
        return false;
    }
    let prim = bug.primitive.and_then(|site| session.prims.by_site(site));
    let (true, Some(prim)) = (config.disentangle, prim) else {
        return true;
    };
    let scopes = session.scopes();
    let prim_set = pset(prim.id, session.dependency_graph(), scopes, &session.prims);
    edited.iter().any(|&f| {
        influences(
            &scopes[prim.id.0],
            &session.analysis,
            &session.prims,
            &prim_set,
            f,
        )
    })
}

/// How many detection rounds [`fixpoint`] runs at most. A round applies
/// every patch it can prove independent, so this bounds rounds, not
/// patches. When every round applies a patch, no round confirmed a
/// fixpoint, and [`Fixpoint::converged`] is false.
pub const MAX_FIX_ROUNDS: usize = 32;

/// What [`fixpoint`] did to one source file.
#[derive(Debug)]
pub struct Fixpoint {
    /// Every bug the first detection round reported on the original source.
    pub bugs: Vec<BugReport>,
    /// The applied patches, in the order they were applied.
    pub patches: Vec<Patch>,
    /// The detection rounds that applied at least one patch.
    pub rounds: usize,
    /// The BMOC bugs the last detection round declined, with the reasons.
    pub rejections: Vec<(BugReport, Rejection)>,
    /// The source with every applied patch (the original text when none
    /// applied).
    pub source: String,
    /// Whether a detection round found nothing left to patch within
    /// [`MAX_FIX_ROUNDS`] rounds.
    pub converged: bool,
    /// The first round's trace, the only round traced.
    pub trace: TraceSnapshot,
}

/// Detects and patches `source` until a detection round finds nothing
/// left to patch, for at most [`MAX_FIX_ROUNDS`] rounds.
///
/// A round runs one detection and then applies, in report order, the
/// patch of every fixable BMOC report, each building on the ones before
/// it. The round ends at the first BMOC report whose channel an earlier
/// patch of the round influences ([`gcatch::disentangle::influences`]);
/// that report and every later one wait for the next round, which detects
/// on the patched source. So every patch a round applies is the patch a
/// fresh detection of the partly patched source would produce. Only the
/// first round is traced, at `level`: it sees the original source.
///
/// # Errors
///
/// Returns the parse or lowering error of `source`.
pub fn fixpoint(
    source: &str,
    config: &DetectorConfig,
    level: TraceLevel,
) -> Result<Fixpoint, String> {
    let round = |source: &str, level| -> Result<_, String> {
        let pipeline = Pipeline::from_source(source)?;
        let (results, _, trace) =
            pipeline.detect_and_fix(config, &Selection::default(), level, true);
        Ok((results, trace))
    };
    let (mut results, trace) = round(source, level)?;
    let mut fixed = Fixpoint {
        bugs: std::mem::take(&mut results.bugs),
        patches: Vec::new(),
        rounds: 0,
        rejections: Vec::new(),
        source: source.to_string(),
        converged: false,
        trace,
    };
    loop {
        fixed.rejections = results.rejections;
        let Some(last) = results.patches.last() else {
            fixed.converged = true;
            break;
        };
        fixed.source = last.after.clone();
        fixed.patches.extend(results.patches);
        fixed.rounds += 1;
        if fixed.rounds == MAX_FIX_ROUNDS {
            break;
        }
        results = round(&fixed.source, TraceLevel::Off)?.0;
    }
    Ok(fixed)
}
