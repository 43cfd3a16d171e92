//! The per-channel detector driver (Algorithm 1 of the paper) and its two
//! passes.
//!
//! For every channel: compute its scope and Pset (disentangling, §3.2),
//! enumerate path combinations for the goroutines in scope (§3.3), and ask
//! the constraint solver the pass's queries on each combination (§3.4).
//! The BMOC pass asks whether a suspicious group can block forever; the §6
//! send-on-closed pass asks, on channels with both a send and a close,
//! whether a send can run after a close. The passes differ only in the
//! channels they visit, the queries they ask and the reports they build;
//! sharding, fault isolation, the degradation ladder, the solver and the
//! merge are one code path. The `disentangle` switch exists solely for the
//! paper's ablation (§5.2, ">115× slowdown without disentangling"): when
//! off, every channel is analyzed from `main` with *all* primitives in its
//! Pset.
//!
//! Channels are independent once the shared analyses are built, so the
//! per-channel work is sharded across `config.jobs` worker threads
//! ([`std::thread::scope`]); each worker returns its findings keyed by the
//! query, and a deterministic merge in channel order applies the
//! cross-channel deduplication. One channel's detection is fully
//! sequential, so `jobs = 1` and `jobs = N` produce identical reports.

use crate::constraints::{ChannelSolver, Query, SolverStrategy, Verdict};
use crate::disentangle::{influences, pset};
use crate::events::{Decision, Recorder};
use crate::faults;
use crate::paths::{Enumerator, Event, Limits, Path};
use crate::primitives::{OpKind, PrimId, Primitives};
use crate::report::{BugKind, BugReport, OpRef, Provenance, WitnessStep};
use crate::resilience::{
    catch_isolated, ladder_limits, Budget, Incident, IncidentKind, LADDER_RUNGS,
};
use crate::session::AnalysisSession;
use crate::telemetry::{Counter, Metric, Stage};
use crate::trace::{ArgValue, Lane};
use golite_ir::ir::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One goroutine of a path combination.
#[derive(Debug, Clone)]
pub struct GoroutinePath {
    /// The chosen execution path.
    pub path: Path,
    /// `(parent goroutine index, event index of the spawn)`, `None` for the
    /// root goroutine.
    pub spawned_at: Option<(usize, usize)>,
    /// The function the goroutine starts in.
    pub root_func: FuncId,
}

/// A path combination: one path per goroutine (Algorithm 1, line 12).
#[derive(Debug, Clone)]
pub struct Combo {
    /// Goroutines; index 0 is the scope root.
    pub gos: Vec<GoroutinePath>,
}

/// One member of a suspicious group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMember {
    /// Goroutine index in the combination.
    pub goroutine: usize,
    /// Event index of the blocking operation (an `Op` or `Select`).
    pub event: usize,
}

/// Maximum path combinations examined per channel.
const MAX_COMBOS: usize = 192;

/// Maximum goroutines per combination.
const MAX_GOROUTINES: usize = 5;

/// Maximum suspicious-group size (the paper's bugs involve 1–2 blocked
/// goroutines).
const MAX_GROUP_SIZE: usize = 2;

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Path-enumeration limits.
    pub limits: Limits,
    /// Disentangling on (default) or off (ablation mode).
    pub disentangle: bool,
    /// Solver step budget per query.
    pub solver_steps: u64,
    /// How solver queries are discharged: one incremental solver per
    /// channel reusing each combination's encoding across its groups (the
    /// default), or a fresh solver per query (`Fresh`/`Rescan`, the
    /// references that tests and bench bins compare it against; the CLI
    /// always runs the default). All strategies produce identical reports.
    pub solver_strategy: SolverStrategy,
    /// Worker threads sharding the per-channel detection; `0` (the
    /// default) uses all available cores. Reports are identical for every
    /// value.
    pub jobs: usize,
    /// Wall-clock deadline for the whole run (`--timeout`); anchored at
    /// the first detector call so it covers every checker. `None` (the
    /// default) leaves the run unbounded.
    pub timeout: Option<Duration>,
    /// Per-channel wall-clock deadline (`--channel-timeout`); each
    /// channel's budget is the tighter of this and the run deadline.
    pub channel_timeout: Option<Duration>,
    /// Global solver-step pool shared by every query of the run; each
    /// query draws up to `solver_steps` from it and refunds what it does
    /// not use. `None` (the default) leaves queries bounded only by
    /// `solver_steps`.
    pub solver_step_pool: Option<u64>,
    /// External cancellation attached to the run [`Budget`]: when the
    /// token fires, every cooperative budget check reports expiry and the
    /// run winds down with partial results. Nothing in the CLI fires one;
    /// it stays as the library's abort path, which the detector tests
    /// cover, and because the benchmark (`perf/`) compiles against it.
    /// The token only aborts: until it fires the run takes the same code
    /// paths, sharing and ladder included, as one without a token.
    pub cancel: Option<crate::resilience::CancelToken>,
    /// Cross-channel encoding reuse (the default): structurally identical
    /// channels share solver verdicts through the session's
    /// [`EncodingCache`](crate::constraints::EncodingCache). Reports are
    /// byte-identical either way; tests and bench bins turn it off as the
    /// unshared reference (the CLI always shares). Sharing is
    /// automatically bypassed while a deadline or a step pool rations the
    /// run, or fault injection is armed; a cancel token does not bypass it.
    pub share_encodings: bool,
    /// Observability context (`--events-out`, the batch flight recorder).
    /// Default is fully inert; the CLI and batch engine fill in the sinks
    /// and correlation ids. Detection results are identical either way.
    pub obs: crate::events::ObsScope,
    /// Warm-session context for `gcatch serve` incremental re-analysis
    /// (`None` everywhere else): carries the prior module's per-channel
    /// records and changed-function set in, and the fresh harvest out.
    /// Replay is byte-identity-preserving by construction — see
    /// [`crate::warm`].
    pub warm: Option<std::sync::Arc<crate::warm::WarmCheck>>,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            limits: Limits::default(),
            disentangle: true,
            solver_steps: 400_000,
            solver_strategy: SolverStrategy::default(),
            jobs: 0,
            timeout: None,
            channel_timeout: None,
            solver_step_pool: None,
            cancel: None,
            share_encodings: true,
            obs: crate::events::ObsScope::default(),
            warm: None,
        }
    }
}

/// Cross-channel deduplication key of one query's finding.
pub(crate) type GroupKey = (BugKind, Option<Loc>, Vec<Loc>);

/// One channel's detection result: findings keyed for the cross-channel
/// merge, plus the incident (panic or exhausted budget), if any.
pub(crate) type ChannelOutcome = (Vec<(GroupKey, BugReport)>, Option<Incident>);

/// A per-channel detection pass. Passes differ in the channels they visit
/// ([`Pass::visits`]), the queries they ask of each combination and the
/// reports their findings become; everything else is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Blocking misuse of channel (Algorithm 1): suspicious groups.
    Bmoc,
    /// §6 extension: every (send, close) pair on the channel.
    SendOnClosed,
}

impl Pass {
    /// Whether the pass analyzes `chan`: BMOC visits every channel, and
    /// send-on-closed only those with at least one send and one close.
    fn visits(self, prims: &Primitives, chan: PrimId) -> bool {
        let has = |kind| prims.ops_of(chan).any(|o| o.kind == kind);
        self == Pass::Bmoc || (has(OpKind::Send) && has(OpKind::Close))
    }
}

/// Resolves the worker count: `0` means every available core, and there is
/// never a reason to spawn more workers than work items.
fn effective_jobs(requested: usize, work_items: usize) -> usize {
    let jobs = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    jobs.min(work_items.max(1))
}

impl<'m> AnalysisSession<'m> {
    /// Runs the BMOC detector over every channel (Algorithm 1, lines 8–25).
    ///
    /// Channels are processed by `config.jobs` workers; the merge is
    /// deterministic, so the result is independent of the worker count.
    pub fn detect_bmoc(&self, config: &DetectorConfig) -> Vec<BugReport> {
        self.detect_channels(Pass::Bmoc, config)
    }

    /// §6 extension: detects *non-blocking* misuse of channels — a send
    /// that some interleaving can execute after a close of the same channel
    /// (a guaranteed runtime panic). The paper describes this as a new bug
    /// constraint `O_close < O_send` over the same ΦR machinery; it runs
    /// on the same per-channel driver as [`AnalysisSession::detect_bmoc`].
    pub fn detect_send_on_closed(&self, config: &DetectorConfig) -> Vec<BugReport> {
        self.detect_channels(Pass::SendOnClosed, config)
    }

    /// The per-channel driver of both passes: shards the pass's channels
    /// over `config.jobs` workers and merges their findings in channel
    /// order.
    fn detect_channels(&self, pass: Pass, config: &DetectorConfig) -> Vec<BugReport> {
        // Force the shared disentangling artifacts once, outside the
        // workers, so their cost is attributed (and paid) exactly once.
        if config.disentangle {
            self.dependency_graph();
            self.scopes();
        }
        let channels: Vec<PrimId> = self
            .prims
            .channels()
            .filter(|c| c.buffer_size().is_some()) // dynamic capacity: not modeled
            .map(|c| c.id)
            .filter(|&c| pass.visits(&self.prims, c))
            .collect();
        self.telemetry
            .add(Counter::ChannelsAnalyzed, channels.len() as u64);

        let budget = self.run_budget(config).clone();
        let jobs = effective_jobs(config.jobs, channels.len());
        let per_channel: Vec<ChannelOutcome> = if jobs <= 1 {
            let mut lane = self.tracer().lane(1, "bmoc-worker-0");
            channels
                .iter()
                .map(|&c| self.detect_channel(pass, c, config, &budget, &mut lane))
                .collect()
        } else {
            let slots: Vec<Mutex<ChannelOutcome>> = channels
                .iter()
                .map(|_| Mutex::new((Vec::new(), None)))
                .collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let (channels, slots, next, budget) = (&channels, &slots, &next, &budget);
                for w in 0..jobs {
                    scope.spawn(move || {
                        // One trace lane per worker: events land on their
                        // own Chrome thread row, buffered without locks.
                        let mut lane = self.tracer().lane(1 + w as u32, format!("bmoc-worker-{w}"));
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= channels.len() {
                                break;
                            }
                            let found =
                                self.detect_channel(pass, channels[i], config, budget, &mut lane);
                            // Panics are contained inside `detect_channel`,
                            // so a poisoned slot can only hold the default
                            // value; recover it rather than cascading.
                            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = found;
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
                .collect()
        };

        // Deterministic merge in channel order with cross-channel dedup.
        // Incidents are recorded here, not in the workers, so their order
        // (channel order) is independent of `jobs`.
        let mut merge_lane = self.tracer().lane(0, "main");
        let merge = Recorder {
            telemetry: Some(&self.telemetry),
            ..Recorder::default()
        };
        let mut seen: HashSet<GroupKey> = HashSet::new();
        let mut reports: Vec<BugReport> = Vec::new();
        for (found, incident) in per_channel {
            if let Some(incident) = incident {
                self.record_incident(incident);
            }
            for (key, report) in found {
                if seen.insert(key) {
                    reports.push(report);
                } else {
                    merge.record_on(
                        &mut merge_lane,
                        Decision::DedupDropped {
                            kind: report.kind.label(),
                        },
                    );
                }
            }
        }
        reports
    }

    /// One channel's detection task, fault-isolated: a panic anywhere in
    /// the pipeline is contained here and converted into an [`Incident`]
    /// (with the worker's trace lane rebalanced), so one bad channel
    /// cannot take down the run or the other workers.
    fn detect_channel(
        &self,
        pass: Pass,
        chan: PrimId,
        config: &DetectorConfig,
        budget: &Budget,
        lane: &mut Lane<'_>,
    ) -> ChannelOutcome {
        let started = Instant::now();
        let chan_name = self.prims.all[chan.0].name.clone();
        lane.begin(
            "bmoc_channel",
            vec![("chan", ArgValue::from(chan_name.as_str()))],
        );
        // Warm records hold BMOC outcomes keyed by channel site, so only
        // the BMOC pass replays them.
        let attempt = catch_isolated(|| match config.warm.as_deref() {
            Some(warm) if pass == Pass::Bmoc => {
                self.detect_channel_warm(warm, chan, &chan_name, config, budget, lane)
            }
            _ => self.detect_channel_laddered(pass, chan, &chan_name, config, budget, lane),
        });
        let (found, incident) = match attempt {
            Ok(outcome) => {
                lane.end();
                outcome
            }
            Err(message) => {
                // The panic left the lane mid-span; close every open span
                // so the trace stays well-formed.
                lane.rewind();
                let incident = Incident {
                    kind: IncidentKind::Channel,
                    name: chan_name.clone(),
                    message,
                    rung: 0,
                    flight: Vec::new(),
                };
                (Vec::new(), Some(incident))
            }
        };
        let rec = config
            .obs
            .recorder(&self.telemetry, chan.0 as u64, &chan_name);
        rec.record(Decision::ChannelAnalyzed {
            findings: found.len() as u64,
        });
        if let Some(incident) = &incident {
            rec.record_on(
                lane,
                Decision::ChannelIncident {
                    kind: incident.kind.label(),
                    message: &incident.message,
                },
            );
        }
        self.telemetry
            .observe(Metric::ChannelDetectNs, started.elapsed().as_nanos() as u64);
        (found, incident)
    }

    /// The warm-session wrapper around one channel's detection: decides
    /// replay vs re-analysis against the prior module's record, and
    /// harvests this channel's record (either way) for the next request.
    ///
    /// Replay requires *all* of: disentangling on, a budget with neither
    /// a deadline nor a step pool (the ladder changes outcomes), a prior
    /// record at the same creation site with identical metadata
    /// (kind/buffer/name/function-relative span), identical scope root
    /// and Pset member sites, identical Pset operation lists, no changed
    /// function that can influence the channel — inside its scope,
    /// reaching into it (the memoized reverse-reachability), or holding a
    /// Pset operation — and every recorded span lying in a function that
    /// merely moved, so the findings can be rebased onto the new text.
    /// Anything less re-analyzes from scratch, which is always sound.
    fn detect_channel_warm(
        &self,
        warm: &crate::warm::WarmCheck,
        chan: PrimId,
        chan_name: &str,
        config: &DetectorConfig,
        budget: &Budget,
        lane: &mut Lane<'_>,
    ) -> ChannelOutcome {
        if !config.disentangle || budget.tightened(config.channel_timeout).rations() {
            // No disentangling metadata to gate replay on, or a rationing
            // budget (whose draining is stateful): run cold, no harvest.
            return self.detect_channel_laddered(Pass::Bmoc, chan, chan_name, config, budget, lane);
        }
        let prim = &self.prims.all[chan.0];
        let scopes = self.scopes();
        let scope = &scopes[chan.0];
        let prim_set = pset(chan, self.dependency_graph(), scopes);
        let pset_sites: Vec<Loc> = prim_set.iter().map(|&p| self.prims.all[p.0].site).collect();
        let meta = crate::warm::channel_meta(self.module, prim);
        let ops_hash = crate::warm::ops_hash(self.module, &self.prims, &prim_set);
        let replay = warm.prior_record(prim.site).and_then(|old| {
            let same_shape = old.meta == meta
                && old.ops_hash == ops_hash
                && old.root == scope.root
                && old.pset_sites == pset_sites;
            let clean = same_shape
                && !warm
                    .changed()
                    .iter()
                    .any(|&f| influences(scope, &self.analysis, &self.prims, &prim_set, f));
            if !clean {
                return None;
            }
            Some((warm.rebase(&old.findings)?, old.incident.clone()))
        });
        let (outcome, replayed) = match replay {
            Some(outcome) => (outcome, true),
            None => (
                self.detect_channel_laddered(Pass::Bmoc, chan, chan_name, config, budget, lane),
                false,
            ),
        };
        warm.note(replayed);
        warm.record(crate::warm::ChannelRecord {
            site: prim.site,
            meta,
            ops_hash,
            root: scope.root,
            pset_sites,
            findings: outcome.0.clone(),
            incident: outcome.1.clone(),
        });
        outcome
    }

    /// Runs the channel pipeline under its budget, descending the
    /// degradation ladder (§3.3) on exhaustion: the configured limits
    /// first, then reduced unroll, then a minimal unroll with the Pset
    /// shrunk to the channel itself. Findings from every rung are kept
    /// (deduplicated by group key, fullest-limits rung first); only if
    /// the last rung still exhausts the budget does the channel give up,
    /// with an [`Incident`] recording the rung reached. Unless a deadline
    /// or a step pool rations the channel this is a single rung-0 run —
    /// the legacy behavior; a cancel token alone does not enter the
    /// ladder.
    fn detect_channel_laddered(
        &self,
        pass: Pass,
        chan: PrimId,
        chan_name: &str,
        config: &DetectorConfig,
        budget: &Budget,
        lane: &mut Lane<'_>,
    ) -> ChannelOutcome {
        faults::maybe_panic(faults::SITE_DETECT_CHANNEL, chan_name);
        let chan_budget = budget.tightened(config.channel_timeout);
        if !chan_budget.rations() {
            let (found, _) = self.detect_channel_pipeline(
                pass,
                chan,
                chan_name,
                config,
                &config.limits,
                0,
                &chan_budget,
                lane,
            );
            return (found, None);
        }
        let mut acc: Vec<(GroupKey, BugReport)> = Vec::new();
        let mut seen: HashSet<GroupKey> = HashSet::new();
        for rung in 0..LADDER_RUNGS {
            let limits = ladder_limits(&config.limits, rung);
            let (found, exhausted) = self.detect_channel_pipeline(
                pass,
                chan,
                chan_name,
                config,
                &limits,
                rung,
                &chan_budget,
                lane,
            );
            for (key, report) in found {
                if seen.insert(key.clone()) {
                    acc.push((key, report));
                }
            }
            if !exhausted {
                return (acc, None);
            }
            if rung + 1 < LADDER_RUNGS {
                lane.instant(
                    "ladder_retry",
                    vec![("rung", ArgValue::U64(u64::from(rung + 1)))],
                );
            }
        }
        config
            .obs
            .recorder(&self.telemetry, chan.0 as u64, chan_name)
            .record(Decision::BudgetExhausted {
                rung: LADDER_RUNGS - 1,
            });
        let incident = Incident {
            kind: IncidentKind::Channel,
            name: chan_name.to_string(),
            message: "analysis budget exhausted; results for this channel are partial".into(),
            rung: LADDER_RUNGS - 1,
            flight: Vec::new(),
        };
        (acc, Some(incident))
    }

    /// The full detection pipeline for one channel at one ladder rung:
    /// disentangle, enumerate, query, solve. Pure with respect to the
    /// session (telemetry and the caller's trace lane aside), so workers
    /// can run it concurrently; findings carry their query key for the
    /// cross-channel merge. The second return value reports whether the
    /// budget cut the work short (always `false` with a budget that
    /// rations nothing and carries no cancelled token).
    #[allow(clippy::too_many_arguments)]
    fn detect_channel_pipeline(
        &self,
        pass: Pass,
        chan: PrimId,
        chan_name: &str,
        config: &DetectorConfig,
        limits: &Limits,
        rung: u32,
        budget: &Budget,
        lane: &mut Lane<'_>,
    ) -> (Vec<(GroupKey, BugReport)>, bool) {
        let (root, mut prim_set): (FuncId, Vec<PrimId>) = if config.disentangle {
            let scopes = self.scopes();
            let set = pset(chan, self.dependency_graph(), scopes);
            if rung == 0 {
                self.telemetry.add(Counter::PsetsComputed, 1);
                self.telemetry
                    .add(Counter::PsetPrimsTotal, set.len() as u64);
            }
            (scopes[chan.0].root, set)
        } else {
            // Ablation: whole program from main, all primitives.
            let Some(main) = self.module.func_by_name("main") else {
                return (Vec::new(), false);
            };
            (main.id, self.prims.all.iter().map(|p| p.id).collect())
        };
        if rung >= 2 {
            // Last rung of the ladder: shrink the Pset to the channel
            // itself, the cheapest analysis that can still find a bug.
            prim_set.retain(|&p| p == chan);
        }
        let pset_size = prim_set.len();
        let mut enumerator = Enumerator::new(
            self.module,
            &self.analysis,
            &self.prims,
            &prim_set,
            limits.clone(),
        )
        .with_budget(budget.clone());
        lane.begin("build_combos", vec![]);
        let combos = self.telemetry.time(Stage::Paths, || {
            self.build_combos(&mut enumerator, root, lane)
        });
        lane.end();
        let paths_enumerated = enumerator.paths_enumerated();
        let branches_pruned = enumerator.branches_pruned();
        let rec = config
            .obs
            .recorder(&self.telemetry, chan.0 as u64, chan_name);
        self.telemetry
            .add(Counter::PathsEnumerated, paths_enumerated);
        rec.record_on(
            lane,
            Decision::BranchesPruned {
                count: branches_pruned,
            },
        );
        self.telemetry
            .add(Counter::CombosBuilt, combos.len() as u64);
        self.telemetry
            .observe(Metric::PathsPerChannel, paths_enumerated);
        self.telemetry
            .observe(Metric::CombosPerChannel, combos.len() as u64);
        let mut exhausted = enumerator.exhausted();
        if budget.rations() && combos.len() >= MAX_COMBOS {
            // Combination blowup under a rationing budget counts as
            // incomplete: the ladder's tighter limits produce fewer,
            // shorter paths.
            exhausted = true;
        }

        let mut groups_checked = 0u64;
        let mut local_seen: HashSet<GroupKey> = HashSet::new();
        let mut found: Vec<(GroupKey, BugReport)> = Vec::new();
        // One solving context for the whole channel: under the incremental
        // strategy one solver serves every combination, reset between
        // them, and each combination's encoding is built once, then
        // shared by every query on it. The session's cross-channel cache
        // extends that reuse to structurally identical channels.
        let cache = config.share_encodings.then(|| self.encoding_cache());
        let mut solver = ChannelSolver::with_cache(&self.prims, config.solver_strategy, cache);
        for combo in &combos {
            if budget.expired() {
                exhausted = true;
                break;
            }
            for query in self.queries(pass, combo, chan) {
                let key = self.query_key(combo, &query);
                if local_seen.contains(&key) {
                    continue;
                }
                self.telemetry.add(Counter::GroupsChecked, 1);
                groups_checked += 1;
                lane.begin("solve", vec![("group", ArgValue::U64(groups_checked))]);
                let check = self.telemetry.time(Stage::Constraints, || {
                    solver.check(combo, &query, config.solver_steps, budget)
                });
                let (verdict, solver_stats) = (check.verdict, check.stats);
                // A shared outcome's stats are the canonical solve's that
                // decided it elsewhere: provenance, not a solver run.
                if let Some(s) = solver_stats.filter(|_| !check.shared) {
                    self.telemetry.add_solver_stats(s);
                    lane.complete(
                        "dpll",
                        s.elapsed,
                        vec![
                            ("steps", ArgValue::U64(s.steps)),
                            ("decisions", ArgValue::U64(s.decisions)),
                            ("conflicts", ArgValue::U64(s.conflicts)),
                            ("solver_reuse", ArgValue::U64(u64::from(check.reused))),
                        ],
                    );
                }
                lane.end();
                match verdict {
                    Verdict::Blocking(witness) => {
                        local_seen.insert(key.clone());
                        rec.record_on(lane, Decision::ReportEmitted);
                        let (mut report, solver_verdict) = match &query {
                            Query::Group(group) => (
                                self.make_report(chan, combo, group, witness, root),
                                "blocking",
                            ),
                            Query::Pair { send, close } => (
                                self.send_on_closed_report(chan, combo, *send, *close, witness),
                                "panic-schedule",
                            ),
                        };
                        let s = solver_stats.unwrap_or_default();
                        report.provenance = Some(Provenance {
                            channel: chan_name.to_string(),
                            pset_size,
                            paths_enumerated,
                            branches_pruned,
                            combos_tried: combos.len(),
                            groups_checked,
                            solver_verdict,
                            solver_steps: s.steps,
                            solver_decisions: s.decisions,
                            solver_conflicts: s.conflicts,
                            degradation_rung: rung,
                        });
                        found.push((key, report));
                    }
                    Verdict::Safe => {}
                    Verdict::Unknown => {
                        // Under a rationing budget, an unknown verdict
                        // means the query ran out of steps or time — the
                        // channel's answer is incomplete at these limits.
                        if budget.rations() {
                            exhausted = true;
                        }
                    }
                }
            }
            solver.end_combo();
        }
        self.telemetry
            .add(Counter::SolverEncodingsReused, solver.encodings_reused);
        self.telemetry
            .add(Counter::LearnedClausesKept, solver.learned_kept);
        self.telemetry
            .add(Counter::ChannelEncodingsShared, solver.encodings_shared);
        (found, exhausted)
    }

    // ------------------------------------------------------- combinations

    fn build_combos(
        &self,
        enumerator: &mut Enumerator<'_>,
        root: FuncId,
        lane: &mut Lane<'_>,
    ) -> Vec<Combo> {
        let mut out: Vec<Combo> = Vec::new();
        let root_paths = lane.span(
            "enumerate_paths",
            vec![("root", ArgValue::from(self.module.func(root).name.as_str()))],
            |_| enumerator.paths_of(root),
        );
        for rp in root_paths {
            let partial = vec![GoroutinePath {
                path: rp,
                spawned_at: None,
                root_func: root,
            }];
            self.expand_goroutine(enumerator, partial, 0, &mut out);
            if out.len() >= MAX_COMBOS {
                break;
            }
        }
        out.truncate(MAX_COMBOS);
        out
    }

    /// Expands spawn events of goroutine `gi`, then moves to `gi + 1`.
    fn expand_goroutine(
        &self,
        enumerator: &mut Enumerator<'_>,
        partial: Vec<GoroutinePath>,
        gi: usize,
        out: &mut Vec<Combo>,
    ) {
        if out.len() >= MAX_COMBOS {
            return;
        }
        if gi == partial.len() {
            out.push(Combo { gos: partial });
            return;
        }
        let spawns: Vec<(usize, FuncId)> = partial[gi]
            .path
            .events
            .iter()
            .enumerate()
            .filter_map(|(ei, e)| match e {
                Event::Spawn { target, .. } => Some((ei, *target)),
                _ => None,
            })
            .collect();
        self.choose_children(enumerator, partial, gi, &spawns, 0, out);
    }

    fn choose_children(
        &self,
        enumerator: &mut Enumerator<'_>,
        partial: Vec<GoroutinePath>,
        gi: usize,
        spawns: &[(usize, FuncId)],
        si: usize,
        out: &mut Vec<Combo>,
    ) {
        if out.len() >= MAX_COMBOS {
            return;
        }
        if si == spawns.len() {
            self.expand_goroutine(enumerator, partial, gi + 1, out);
            return;
        }
        let (ev, target) = spawns[si];
        if partial.len() >= MAX_GOROUTINES {
            // Goroutine budget exhausted: ignore further spawns.
            self.choose_children(enumerator, partial, gi, spawns, si + 1, out);
            return;
        }
        for child_path in enumerator.paths_of(target) {
            let mut next = partial.clone();
            next.push(GoroutinePath {
                path: child_path,
                spawned_at: Some((gi, ev)),
                root_func: target,
            });
            self.choose_children(enumerator, next, gi, spawns, si + 1, out);
            if out.len() >= MAX_COMBOS {
                return;
            }
        }
    }

    // ------------------------------------------------------------ queries

    /// The queries `pass` asks of one combination: BMOC's suspicious
    /// groups, or every (send, close) pair on `chan` — sends in goroutine
    /// and event order, each with every close in that order.
    fn queries(&self, pass: Pass, combo: &Combo, chan: PrimId) -> Vec<Query> {
        if pass == Pass::Bmoc {
            return self
                .suspicious_groups(combo, chan)
                .into_iter()
                .map(Query::Group)
                .collect();
        }
        let ops_on_chan = |kind: OpKind| -> Vec<GroupMember> {
            let mut members = Vec::new();
            for (gi, g) in combo.gos.iter().enumerate() {
                for (ei, event) in g.path.events.iter().enumerate() {
                    if matches!(event, Event::Op(op) if op.prim == chan && op.kind == kind) {
                        members.push(GroupMember {
                            goroutine: gi,
                            event: ei,
                        });
                    }
                }
            }
            members
        };
        let closes = ops_on_chan(OpKind::Close);
        let mut pairs = Vec::new();
        for send in ops_on_chan(OpKind::Send) {
            for &close in &closes {
                pairs.push(Query::Pair { send, close });
            }
        }
        pairs
    }

    /// Suspicious groups (Algorithm 1, line 15): up to [`MAX_GROUP_SIZE`]
    /// blocking operations from distinct goroutines, at least one on
    /// channel `c`, that cannot unblock each other.
    fn suspicious_groups(&self, combo: &Combo, c: PrimId) -> Vec<Vec<GroupMember>> {
        // Candidates per goroutine.
        let mut per_go: Vec<Vec<GroupMember>> = Vec::new();
        for (gi, g) in combo.gos.iter().enumerate() {
            let cands: Vec<GroupMember> = g
                .path
                .blocking_candidates()
                .into_iter()
                .map(|event| GroupMember {
                    goroutine: gi,
                    event,
                })
                .collect();
            per_go.push(cands);
        }
        let on_channel =
            |m: &GroupMember| -> bool { self.member_ops(combo, m).iter().any(|(p, _)| *p == c) };

        let mut out: Vec<Vec<GroupMember>> = Vec::new();
        // Size 1.
        for cands in &per_go {
            for &m in cands {
                if on_channel(&m) {
                    out.push(vec![m]);
                }
            }
        }
        // Size 2 (distinct goroutines, non-complementary).
        if MAX_GROUP_SIZE >= 2 {
            for (gi, ci) in per_go.iter().enumerate() {
                for cj in per_go.iter().skip(gi + 1) {
                    for &a in ci {
                        for &b in cj {
                            if !(on_channel(&a) || on_channel(&b)) {
                                continue;
                            }
                            if self.can_unblock_each_other(combo, &a, &b) {
                                continue;
                            }
                            out.push(vec![a, b]);
                        }
                    }
                }
            }
        }
        out
    }

    /// The (primitive, kind) pairs a group member waits on.
    fn member_ops(&self, combo: &Combo, m: &GroupMember) -> Vec<(PrimId, OpKind)> {
        match &combo.gos[m.goroutine].path.events[m.event] {
            Event::Op(op) => vec![(op.prim, op.kind)],
            Event::Select { cases, .. } => cases.iter().map(|(_, op)| (op.prim, op.kind)).collect(),
            _ => vec![],
        }
    }

    /// Whether two blocked operations could unblock each other (a send and
    /// a receive on the same primitive) — such pairs are not suspicious.
    fn can_unblock_each_other(&self, combo: &Combo, a: &GroupMember, b: &GroupMember) -> bool {
        let oa = self.member_ops(combo, a);
        let ob = self.member_ops(combo, b);
        for (pa, ka) in &oa {
            for (pb, kb) in &ob {
                if pa == pb && ka != kb {
                    return true;
                }
            }
        }
        false
    }

    /// The deduplication key of one query: a group's sorted operation
    /// sites, or a pair's close and send sites.
    fn query_key(&self, combo: &Combo, query: &Query) -> GroupKey {
        let loc = |m: &GroupMember| match &combo.gos[m.goroutine].path.events[m.event] {
            Event::Op(op) => Some(op.loc),
            Event::Select { loc, .. } => Some(*loc),
            _ => None,
        };
        match query {
            Query::Group(group) => {
                let mut locs: Vec<Loc> = group.iter().filter_map(loc).collect();
                locs.sort_unstable();
                (BugKind::BmocChannel, None, locs)
            }
            Query::Pair { send, close } => (
                BugKind::SendOnClosedChannel,
                loc(close),
                loc(send).into_iter().collect(),
            ),
        }
    }

    fn make_report(
        &self,
        chan: PrimId,
        combo: &Combo,
        group: &[GroupMember],
        witness: Vec<WitnessStep>,
        root: FuncId,
    ) -> BugReport {
        let prim = &self.prims.all[chan.0];
        // BMOC-M when any kept event in the combination touches a mutex.
        let involves_mutex = combo
            .gos
            .iter()
            .flat_map(|g| &g.path.events)
            .any(|e| match e {
                Event::Op(op) => op.from_mutex,
                Event::Select { cases, .. } => cases.iter().any(|(_, op)| op.from_mutex),
                _ => false,
            });
        let kind = if involves_mutex {
            BugKind::BmocChannelMutex
        } else {
            BugKind::BmocChannel
        };
        let ops: Vec<OpRef> = group
            .iter()
            .filter_map(|m| {
                let func_name = |loc: Loc| self.module.func(loc.func).name.to_string();
                match &combo.gos[m.goroutine].path.events[m.event] {
                    Event::Op(op) => Some(OpRef {
                        loc: op.loc,
                        span: op.span,
                        what: format!(
                            "{} {}",
                            match (op.kind, op.from_mutex) {
                                (OpKind::Send, false) => "send on",
                                (OpKind::Recv, false) => "recv from",
                                (OpKind::Close, _) => "close of",
                                (OpKind::Send, true) => "lock of",
                                (OpKind::Recv, true) => "unlock of",
                            },
                            self.prims.all[op.prim.0].name
                        ),
                        func_name: func_name(op.loc),
                    }),
                    Event::Select { loc, span, .. } => Some(OpRef {
                        loc: *loc,
                        span: *span,
                        what: "select with no runnable case".to_string(),
                        func_name: func_name(*loc),
                    }),
                    _ => None,
                }
            })
            .collect();
        BugReport {
            kind,
            primitive: Some(prim.site),
            primitive_span: prim.span,
            primitive_name: prim.name.clone(),
            ops,
            witness_order: witness,
            notes: format!("scope root: {}", self.module.func(root).name),
            provenance: None,
        }
    }

    /// The report of a (send, close) pair some schedule runs close-first.
    fn send_on_closed_report(
        &self,
        chan: PrimId,
        combo: &Combo,
        send: GroupMember,
        close: GroupMember,
        witness: Vec<WitnessStep>,
    ) -> BugReport {
        let prim = &self.prims.all[chan.0];
        let op_ref = |m: GroupMember, what: String| {
            let Event::Op(op) = &combo.gos[m.goroutine].path.events[m.event] else {
                unreachable!("pair members are channel operations");
            };
            OpRef {
                loc: op.loc,
                span: op.span,
                what,
                func_name: self.module.func(op.loc.func).name.to_string(),
            }
        };
        BugReport {
            kind: BugKind::SendOnClosedChannel,
            primitive: Some(prim.site),
            primitive_span: prim.span,
            primitive_name: prim.name.clone(),
            ops: vec![
                op_ref(send, format!("send on {} after close", prim.name)),
                op_ref(close, format!("close of {}", prim.name)),
            ],
            witness_order: witness,
            notes: "a schedule orders the close before the send (runtime panic)".into(),
            provenance: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::CancelToken;

    /// Two leaks whose channels differ only in identity, so the second
    /// channel's query is answered by the first one's cached verdict.
    const TWIN_LEAKS: &str = "func leakA() {
    ch := make(chan int)
    go func() {
        ch <- 1
    }()
}

func leakB() {
    ch := make(chan int)
    go func() {
        ch <- 1
    }()
}

func main() {
    leakA()
    leakB()
}
";

    /// Runs BMOC on a fresh session (the run budget is fixed per session)
    /// and returns the rendered reports and the session's counters.
    fn run(cancel: Option<CancelToken>) -> (Vec<String>, u64, u64) {
        let module = golite_ir::lower_source(TWIN_LEAKS).expect("lowering");
        let session = AnalysisSession::new(&module);
        // One worker, as in a batch job: two concurrent workers could
        // both miss the cache before either stores its verdict.
        let config = DetectorConfig {
            cancel,
            jobs: 1,
            ..DetectorConfig::default()
        };
        let reports = session.detect_bmoc(&config);
        let t = session.telemetry();
        (
            reports.iter().map(|r| format!("{r:?}")).collect(),
            t.get(Counter::ChannelEncodingsShared),
            t.get(Counter::SolverQueries),
        )
    }

    #[test]
    fn an_uncancelled_token_changes_neither_reports_nor_sharing() {
        let (plain, plain_shared, plain_queries) = run(None);
        let (tokened, tokened_shared, tokened_queries) = run(Some(CancelToken::new()));
        assert_eq!(plain.len(), 2, "both leaks are reported: {plain:?}");
        assert_eq!(tokened, plain);
        assert_eq!(plain_shared, 1, "the twin channel reuses the verdict");
        assert_eq!(tokened_shared, plain_shared);
        assert_eq!(tokened_queries, plain_queries);
    }

    #[test]
    fn a_cancelled_token_aborts_before_any_solver_query() {
        let token = CancelToken::new();
        token.cancel();
        let (reports, shared, queries) = run(Some(token));
        assert!(reports.is_empty(), "{reports:?}");
        assert_eq!(shared, 0);
        assert_eq!(queries, 0);
    }

    /// A close racing a send on a channel of capacity `cap`.
    fn close_race(cap: usize) -> String {
        format!(
            "func main() {{
    ch := make(chan int, {cap})
    go func() {{
        ch <- 1
    }}()
    close(ch)
}}
"
        )
    }

    /// The rungs of the incidents one pass records on `src` under a step
    /// limit no query can meet and a channel deadline that rations the
    /// run, so every exhausted channel walks the degradation ladder.
    fn incident_rungs(
        src: &str,
        pass: impl Fn(&AnalysisSession<'_>, &DetectorConfig) -> Vec<BugReport>,
    ) -> Vec<u32> {
        let module = golite_ir::lower_source(src).expect("lowering");
        let session = AnalysisSession::new(&module);
        let config = DetectorConfig {
            solver_steps: 10,
            channel_timeout: Some(Duration::from_secs(60)),
            ..DetectorConfig::default()
        };
        let reports = pass(&session, &config);
        assert!(reports.is_empty(), "{reports:?}");
        session.incidents().iter().map(|i| i.rung).collect()
    }

    #[test]
    fn send_on_closed_descends_the_ladder_like_bmoc() {
        // Buffered, the (send, close) pair query outgrows 10 steps;
        // unbuffered, the leaked send's group query does.
        let soc = incident_rungs(&close_race(1), |s, c| s.detect_send_on_closed(c));
        let bmoc = incident_rungs(&close_race(0), |s, c| s.detect_bmoc(c));
        assert_eq!(bmoc, vec![LADDER_RUNGS - 1]);
        assert_eq!(soc, bmoc);
    }
}
