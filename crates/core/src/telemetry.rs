//! Counters and stage timers threaded through the detection pipeline.
//!
//! A [`Telemetry`] lives on the
//! [`AnalysisSession`](crate::session::AnalysisSession) and is written with
//! relaxed atomics so the per-channel BMOC workers can share it across
//! [`std::thread::scope`] threads without locks. [`Telemetry::snapshot`]
//! freezes the counters into a plain [`Stats`] value for reporting
//! (`gcatch check --stats`, the census harness, the bench binaries).

use crate::trace::{HistSnapshot, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Declares an observation enum from one table: each row is a variant,
/// its doc comment and its spec (wire name plus whatever else the enum
/// renders), so adding a variant edits one row. Declaration order is the
/// reporting order of `all()` and of every rendering.
macro_rules! observation_enum {
    (
        $(#[$attr:meta])*
        pub enum $enum:ident: $spec:ident {
            $( $(#[doc = $doc:literal])* $variant:ident $row:tt, )*
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $enum {
            $( $(#[doc = $doc])* $variant, )*
        }

        impl $enum {
            const COUNT: usize = [$(stringify!($variant)),*].len();
            const SPECS: [$spec; $enum::COUNT] = [$($spec $row),*];

            /// Every variant, in reporting order.
            pub fn all() -> [$enum; $enum::COUNT] {
                [$($enum::$variant),*]
            }

            fn spec(self) -> $spec {
                $enum::SPECS[self as usize]
            }

            /// Stable snake_case wire name (JSON keys, `--stats` output,
            /// event and metric names).
            pub fn name(self) -> &'static str {
                self.spec().name
            }
        }
    };
}
pub(crate) use observation_enum;

/// A [`Stage`]'s row: its wire name.
#[derive(Clone, Copy)]
struct StageSpec {
    name: &'static str,
}

observation_enum! {
    /// Pipeline stages with an attributed wall-clock time.
    pub enum Stage: StageSpec {
        /// Whole-module points-to / call-graph analysis + primitive discovery.
        Analysis { name: "analysis" },
        /// Scope computation and Pset construction (§3.2).
        Disentangle { name: "disentangle" },
        /// Path enumeration and combination building (§3.3).
        Paths { name: "paths" },
        /// Constraint encoding and solving (§3.4).
        Constraints { name: "constraints" },
        /// The five traditional checkers (§3.5).
        Traditional { name: "traditional" },
        /// GFix patch synthesis (§4); recorded by the fixing pipeline, not by
        /// detection itself.
        Fix { name: "fix" },
    }
}

/// A [`Counter`]'s row: its wire name, the subsystem it is grouped under
/// and its Prometheus HELP text.
#[derive(Clone, Copy)]
struct CounterSpec {
    name: &'static str,
    subsystem: &'static str,
    help: &'static str,
}

observation_enum! {
    /// Monotonic event counters recorded during detection.
    pub enum Counter: CounterSpec {
        /// Channels examined by the BMOC driver.
        ChannelsAnalyzed { name: "channels_analyzed", subsystem: "detector",
            help: "Channels examined by the BMOC driver." },
        /// Psets computed (one per disentangled channel).
        PsetsComputed { name: "psets_computed", subsystem: "detector",
            help: "Psets computed (one per disentangled channel)." },
        /// Total primitives across all computed Psets.
        PsetPrimsTotal { name: "pset_prims_total", subsystem: "detector",
            help: "Total primitives across all computed Psets." },
        /// Execution paths enumerated.
        PathsEnumerated { name: "paths_enumerated", subsystem: "detector",
            help: "Execution paths enumerated." },
        /// Branches pruned as infeasible during path enumeration.
        BranchesPruned { name: "branches_pruned", subsystem: "detector",
            help: "Branches pruned as infeasible during path enumeration." },
        /// Path combinations built.
        CombosBuilt { name: "combos_built", subsystem: "detector",
            help: "Path combinations built." },
        /// Suspicious groups submitted to the solver.
        GroupsChecked { name: "groups_checked", subsystem: "detector",
            help: "Suspicious groups submitted to the solver." },
        /// Solver queries issued.
        SolverQueries { name: "solver_queries", subsystem: "solver",
            help: "Solver queries issued." },
        /// Total solver propagation/decision steps.
        SolverSteps { name: "solver_steps", subsystem: "solver",
            help: "Total solver propagation/decision steps." },
        /// Total solver decisions.
        SolverDecisions { name: "solver_decisions", subsystem: "solver",
            help: "Total solver decisions." },
        /// Total solver conflicts.
        SolverConflicts { name: "solver_conflicts", subsystem: "solver",
            help: "Total solver conflicts." },
        /// Queries answered by reusing an already-built combination encoding
        /// (incremental strategy: one encoding per combination, one assumption
        /// query per group).
        SolverEncodingsReused { name: "solver_encodings_reused", subsystem: "solver",
            help: "Queries answered by reusing an already-built combination encoding." },
        /// Learned clauses retained from earlier queries of the same
        /// combination at the moment a reusing query started.
        LearnedClausesKept { name: "learned_clauses_kept", subsystem: "solver",
            help: "Learned clauses retained from earlier queries of the same combination." },
        /// Bug reports emitted (before cross-checker dedup).
        ReportsEmitted { name: "reports_emitted", subsystem: "detector",
            help: "Bug reports emitted (before cross-checker dedup)." },
        /// Reports dropped by cross-checker deduplication.
        DuplicatesDropped { name: "duplicates_dropped", subsystem: "detector",
            help: "Reports dropped by cross-checker deduplication." },
        /// Channels whose analysis gave up after exhausting every rung of
        /// the degradation ladder (results for them are partial).
        IncompleteChannels { name: "incomplete_channels", subsystem: "detector",
            help: "Channels whose analysis gave up after exhausting the degradation ladder." },
        /// Jobs submitted to the batch engine (restored + executed).
        JobsTotal { name: "jobs_total", subsystem: "batch",
            help: "Jobs submitted to the batch engine (restored + executed)." },
        /// Batch job attempts re-dispatched after a contained failure.
        JobsRetried { name: "jobs_retried", subsystem: "batch",
            help: "Batch job attempts re-dispatched after a contained failure." },
        /// Always 0: the batch engine no longer hedges stragglers. The row
        /// stays only because the benchmark (`perf/`) compiles against it,
        /// and its `.prom` line stays byte-identical.
        JobsHedged { name: "jobs_hedged", subsystem: "batch",
            help: "Batch jobs that got a hedge twin after straggling past the p99." },
        /// Batch jobs set aside after exhausting their retry budget.
        JobsQuarantined { name: "jobs_quarantined", subsystem: "batch",
            help: "Batch jobs set aside after exhausting their retry budget." },
        /// Batch jobs restored from a checkpoint journal instead of re-run.
        JobsResumed { name: "jobs_resumed", subsystem: "batch",
            help: "Batch jobs restored from a checkpoint journal instead of re-run." },
        /// Points-to component solves actually performed by the alias engine
        /// (demand mode solves one per queried reference component; eager
        /// mode reports a single whole-module solve).
        AliasQueriesSolved { name: "alias_queries_solved", subsystem: "alias",
            help: "Points-to component solves performed by the alias engine." },
        /// Functions whose points-to constraints were never solved because no
        /// checker asked about them (demand mode only).
        AliasFunctionsSkipped { name: "alias_functions_skipped", subsystem: "alias",
            help: "Functions whose points-to constraints were never solved (demand mode)." },
        /// Channel verdicts answered from a structurally identical channel's
        /// cached encoding instead of fresh solver work.
        ChannelEncodingsShared { name: "channel_encodings_shared", subsystem: "solver",
            help: "Channel verdicts answered from a structurally identical channel's cache." },
        /// Sweep jobs released back to the queue after their lease expired or
        /// their worker died (each release makes the job claimable again).
        JobsReleases { name: "jobs_releases", subsystem: "sweep",
            help: "Sweep jobs released back to the queue after lease expiry or worker death." },
        /// Sweep leases whose deadline passed before the owner renewed them.
        LeasesExpired { name: "leases_expired", subsystem: "sweep",
            help: "Sweep leases whose deadline passed before renewal." },
        /// Worker processes spawned by the sweep coordinator (initial fleet
        /// plus replacements).
        WorkersSpawned { name: "workers_spawned", subsystem: "sweep",
            help: "Worker processes spawned by the sweep coordinator." },
        /// Worker processes the coordinator declared dead (exited abnormally
        /// or missed the heartbeat deadline and were killed).
        WorkersLost { name: "workers_lost", subsystem: "sweep",
            help: "Worker processes the sweep coordinator declared dead." },
        /// Requests received by the serve daemon (every parsed request line,
        /// control ops and shed requests included).
        RequestsTotal { name: "requests_total", subsystem: "serve",
            help: "Requests received by the serve daemon." },
        /// Requests shed by admission control because the queue was at
        /// `--max-queue` depth (answered with an `overloaded` response).
        RequestsShed { name: "requests_shed", subsystem: "serve",
            help: "Requests shed by serve admission control (queue full)." },
        /// Requests answered with an incident response (contained panic,
        /// expired deadline, executor error, or unparseable request line).
        RequestsFailed { name: "requests_failed", subsystem: "serve",
            help: "Requests answered with an incident response." },
        /// Requests answered from the content-hashed response cache instead
        /// of re-running the analysis.
        CacheHits { name: "cache_hits", subsystem: "serve",
            help: "Requests answered from the serve response cache." },
        /// Cache entries evicted after the cache exceeded `--max-cache`
        /// (oldest insertion first).
        CacheEvictions { name: "cache_evictions", subsystem: "serve",
            help: "Serve cache entries evicted past capacity." },
        /// Check requests answered with help from a warm per-module session
        /// (at least the diff ran against cached artifacts; see
        /// `channels_replayed` for how much work was actually skipped).
        SessionsReused { name: "sessions_reused", subsystem: "serve",
            help: "Check requests answered with help from a warm session." },
        /// Channels re-analyzed from scratch on a warm check because the
        /// module diff could reach them.
        ChannelsReanalyzed { name: "channels_reanalyzed", subsystem: "serve",
            help: "Channels re-analyzed on a warm check (diff-reachable)." },
        /// Channels whose verdict, witnesses, and provenance were replayed
        /// from a warm session instead of being re-analyzed.
        ChannelsReplayed { name: "channels_replayed", subsystem: "serve",
            help: "Channel verdicts replayed from a warm session." },
        /// Warm sessions dropped: LRU pressure past `--max-sessions`, an
        /// injected `serve.session` fault, or an incomparable module shape.
        SessionEvictions { name: "session_evictions", subsystem: "serve",
            help: "Warm sessions evicted (LRU, fault, or incomparable shape)." },
    }
}

impl Counter {
    /// The subsystem a counter belongs to (grouping for `--stats` text
    /// and the Prometheus metric HELP lines). Every counter maps to
    /// exactly one of [`Counter::subsystems`].
    pub fn subsystem(self) -> &'static str {
        self.spec().subsystem
    }

    /// One-line Prometheus HELP text of the counter's family.
    pub fn help(self) -> &'static str {
        self.spec().help
    }

    /// Subsystem display order for grouped `--stats` text.
    pub fn subsystems() -> [&'static str; 6] {
        ["alias", "solver", "batch", "sweep", "serve", "detector"]
    }
}

/// A [`Metric`]'s row: its wire name, its Prometheus HELP text and whether
/// its samples are nanosecond durations.
#[derive(Clone, Copy)]
struct MetricSpec {
    name: &'static str,
    help: &'static str,
    time: bool,
}

observation_enum! {
    /// Distributions recorded as log-bucketed [`Histogram`]s.
    ///
    /// The four `*Ns` metrics are wall-clock samples in nanoseconds; the
    /// remaining metrics are plain counts whose distributions are
    /// deterministic (independent of `--jobs` and machine speed).
    pub enum Metric: MetricSpec {
        /// Per-channel BMOC detection latency (ns; one sample per channel).
        ChannelDetectNs { name: "channel_detect_ns", time: true,
            help: "Per-channel BMOC detection latency in seconds." },
        /// Per-query solver time (ns; one sample per `minismt` query).
        SolverQueryNs { name: "solver_query_ns", time: true,
            help: "Per-query solver time in seconds." },
        /// Paths enumerated per channel.
        PathsPerChannel { name: "paths_per_channel", time: false,
            help: "Paths enumerated per channel." },
        /// Path combinations built per channel.
        CombosPerChannel { name: "combos_per_channel", time: false,
            help: "Path combinations built per channel." },
        /// Per-job wall-clock time in the batch engine (ns; one sample per
        /// completed job, its retries and their backoff included).
        JobWallNs { name: "job_wall_ns", time: true,
            help: "Per-job wall-clock time in the batch engine, in seconds." },
        /// End-to-end wall-clock per checked module (ns; one sample per
        /// module — analysis through report rendering).
        ModuleWallNs { name: "module_wall_ns", time: true,
            help: "End-to-end wall-clock per checked module, in seconds." },
    }
}

impl Metric {
    /// One-line Prometheus HELP text of the metric's family.
    pub fn help(self) -> &'static str {
        self.spec().help
    }

    /// Whether samples are nanosecond durations (rendered as ms) rather
    /// than plain counts.
    pub fn is_time(self) -> bool {
        self.spec().time
    }
}

/// Shared, thread-safe telemetry sink.
#[derive(Debug)]
pub struct Telemetry {
    counters: [AtomicU64; Counter::COUNT],
    stage_ns: [AtomicU64; Stage::COUNT],
    hists: [Histogram; Metric::COUNT],
}

impl Default for Telemetry {
    // Hand-written: `Default` for arrays stops at 32 elements and the
    // counter family is past that now.
    fn default() -> Telemetry {
        Telemetry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl Telemetry {
    /// A zeroed telemetry sink.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Attributes `d` of wall-clock time to a stage.
    pub fn record(&self, stage: Stage, d: Duration) {
        self.stage_ns[stage as usize].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Runs `f`, attributing its wall-clock time to `stage`.
    ///
    /// Stage times are additive: concurrent workers timing the same stage
    /// sum their individual durations (CPU-time-like, not elapsed).
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(stage, start.elapsed());
        out
    }

    /// Accumulated time of one stage.
    pub fn stage_time(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.stage_ns[stage as usize].load(Ordering::Relaxed))
    }

    /// Records one sample into a metric's histogram.
    pub fn observe(&self, metric: Metric, v: u64) {
        self.hists[metric as usize].record(v);
    }

    /// The live histogram behind one metric.
    pub fn hist(&self, metric: Metric) -> &Histogram {
        &self.hists[metric as usize]
    }

    /// Folds another solver run's effort counters in, and samples its
    /// elapsed time into [`Metric::SolverQueryNs`].
    pub fn add_solver_stats(&self, stats: minismt::SolverStats) {
        self.add(Counter::SolverQueries, 1);
        self.add(Counter::SolverSteps, stats.steps);
        self.add(Counter::SolverDecisions, stats.decisions);
        self.add(Counter::SolverConflicts, stats.conflicts);
        self.observe(Metric::SolverQueryNs, stats.elapsed.as_nanos() as u64);
    }

    /// Folds a frozen [`Stats`] snapshot from another session into this
    /// sink: counters add, stage times add, histograms merge bin-wise.
    /// The batch engine uses this to aggregate each job's session stats
    /// into one run-wide view (the `--jobs` histogram-merge idea, one
    /// level up).
    pub fn absorb(&self, stats: &Stats) {
        for (c, v) in &stats.counters {
            if *v > 0 {
                self.add(*c, *v);
            }
        }
        for (s, d) in &stats.stages {
            if !d.is_zero() {
                self.record(*s, *d);
            }
        }
        for (m, h) in &stats.hists {
            self.hist(*m).absorb(h);
        }
    }

    /// Freezes all counters, timers, and histograms into a plain snapshot.
    pub fn snapshot(&self) -> Stats {
        Stats {
            counters: Counter::all().map(|c| (c, self.get(c))),
            stages: Stage::all().map(|s| (s, self.stage_time(s))),
            hists: Metric::all().map(|m| (m, self.hists[m as usize].snapshot())),
        }
    }
}

/// An immutable snapshot of a [`Telemetry`] sink.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Every counter with its value, in reporting order.
    pub counters: [(Counter, u64); Counter::COUNT],
    /// Every stage with its accumulated time, in reporting order.
    pub stages: [(Stage, Duration); Stage::COUNT],
    /// Every metric with its histogram snapshot, in reporting order.
    pub hists: [(Metric, HistSnapshot); Metric::COUNT],
}

impl Stats {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == c)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Accumulated time of one stage.
    pub fn stage(&self, s: Stage) -> Duration {
        self.stages
            .iter()
            .find(|(k, _)| *k == s)
            .map(|(_, v)| *v)
            .unwrap_or_default()
    }

    /// Attributed detection time: every stage except [`Stage::Fix`].
    pub fn detect_time(&self) -> Duration {
        self.stages
            .iter()
            .filter(|(s, _)| *s != Stage::Fix)
            .map(|(_, d)| *d)
            .sum()
    }

    /// Histogram snapshot of one metric.
    pub fn hist(&self, m: Metric) -> &HistSnapshot {
        self.hists
            .iter()
            .find(|(k, _)| *k == m)
            .map(|(_, v)| v)
            .expect("every metric is present in a snapshot")
    }

    /// Renders the snapshot as aligned `name  value` text lines.
    ///
    /// Durations are always milliseconds with three decimals (a fixed unit,
    /// so output stays diffable across magnitudes); histogram metrics are
    /// rendered as p50/p90/p99/max percentiles.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("stage timings:\n");
        for (s, d) in &self.stages {
            out.push_str(&format!("  {:<22} {:>12} ms\n", s.name(), fmt_ms(*d)));
        }
        out.push_str("counters:\n");
        for subsystem in Counter::subsystems() {
            out.push_str(&format!("  {subsystem}:\n"));
            for (c, v) in &self.counters {
                if c.subsystem() == subsystem {
                    out.push_str(&format!("    {:<24} {v:>12}\n", c.name()));
                }
            }
        }
        out.push_str("percentiles (p50/p90/p99/max):\n");
        for (m, h) in &self.hists {
            let cell = |v: u64| {
                if m.is_time() {
                    format!("{} ms", fmt_ms(Duration::from_nanos(v)))
                } else {
                    v.to_string()
                }
            };
            out.push_str(&format!(
                "  {:<22} {} / {} / {} / {}  (n={})\n",
                m.name(),
                cell(h.percentile(50)),
                cell(h.percentile(90)),
                cell(h.percentile(99)),
                cell(h.max),
                h.count,
            ));
        }
        out
    }
}

/// A duration as fixed-point milliseconds with three decimals (`1.234`).
fn fmt_ms(d: Duration) -> String {
    let us = d.as_micros();
    format!("{}.{:03}", us / 1_000, us % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.add(Counter::SolverQueries, 2);
        t.add(Counter::SolverQueries, 3);
        assert_eq!(t.get(Counter::SolverQueries), 5);
        assert_eq!(t.get(Counter::PathsEnumerated), 0);
    }

    #[test]
    fn stage_times_accumulate() {
        let t = Telemetry::new();
        t.record(Stage::Paths, Duration::from_millis(2));
        t.record(Stage::Paths, Duration::from_millis(3));
        assert_eq!(t.stage_time(Stage::Paths), Duration::from_millis(5));
    }

    #[test]
    fn absorb_merges_counters_stages_and_histograms() {
        let inner = Telemetry::new();
        inner.add(Counter::SolverQueries, 4);
        inner.record(Stage::Paths, Duration::from_millis(3));
        inner.observe(Metric::PathsPerChannel, 17);
        let outer = Telemetry::new();
        outer.add(Counter::SolverQueries, 1);
        outer.absorb(&inner.snapshot());
        assert_eq!(outer.get(Counter::SolverQueries), 5);
        assert_eq!(outer.stage_time(Stage::Paths), Duration::from_millis(3));
        let snap = outer.snapshot();
        assert_eq!(snap.hist(Metric::PathsPerChannel).count, 1);
        assert_eq!(snap.hist(Metric::PathsPerChannel).max, 17);
    }

    #[test]
    fn snapshot_is_stable_and_renders() {
        let t = Telemetry::new();
        t.add(Counter::CombosBuilt, 7);
        t.record(Stage::Constraints, Duration::from_micros(10));
        let s = t.snapshot();
        assert_eq!(s.counter(Counter::CombosBuilt), 7);
        assert_eq!(s.stage(Stage::Constraints), Duration::from_micros(10));
        let text = s.render_text();
        assert!(text.contains("combos_built"));
        assert!(text.contains("constraints"));
    }

    #[test]
    fn durations_render_as_fixed_ms() {
        assert_eq!(fmt_ms(Duration::from_micros(1_234_567)), "1234.567");
        assert_eq!(fmt_ms(Duration::from_nanos(999)), "0.000");
        assert_eq!(fmt_ms(Duration::ZERO), "0.000");
        assert_eq!(fmt_ms(Duration::from_millis(2)), "2.000");
    }

    #[test]
    fn histograms_surface_in_snapshot_and_text() {
        let t = Telemetry::new();
        t.observe(Metric::ChannelDetectNs, 1_000_000);
        t.observe(Metric::PathsPerChannel, 12);
        let s = t.snapshot();
        assert_eq!(s.hist(Metric::ChannelDetectNs).count, 1);
        assert_eq!(s.hist(Metric::PathsPerChannel).max, 12);
        assert_eq!(s.hist(Metric::SolverQueryNs).count, 0);
        let text = s.render_text();
        assert!(text.contains("percentiles (p50/p90/p99/max):"));
        assert!(text.contains("channel_detect_ns"));
        assert!(text.contains("solver_query_ns"));
    }

    /// A telemetry sink where every counter, stage, and metric carries a
    /// distinct nonzero value — the probe for the exhaustiveness guards.
    fn saturated() -> Telemetry {
        let t = Telemetry::new();
        for (i, c) in Counter::all().into_iter().enumerate() {
            t.add(c, i as u64 + 1);
        }
        for (i, s) in Stage::all().into_iter().enumerate() {
            t.record(s, Duration::from_micros(i as u64 + 1));
        }
        for (i, m) in Metric::all().into_iter().enumerate() {
            t.observe(m, i as u64 + 1);
        }
        t
    }

    #[test]
    fn every_counter_belongs_to_exactly_one_subsystem() {
        let subsystems = Counter::subsystems();
        for c in Counter::all() {
            assert!(
                subsystems.contains(&c.subsystem()),
                "{} maps to unknown subsystem {}",
                c.name(),
                c.subsystem()
            );
        }
        let grouped: usize = subsystems
            .iter()
            .map(|sub| {
                Counter::all()
                    .into_iter()
                    .filter(|c| c.subsystem() == *sub)
                    .count()
            })
            .sum();
        assert_eq!(grouped, Counter::all().len());
    }

    #[test]
    fn absorb_covers_every_counter_stage_and_histogram() {
        let inner = saturated();
        let outer = Telemetry::new();
        outer.absorb(&inner.snapshot());
        for (i, c) in Counter::all().into_iter().enumerate() {
            assert_eq!(outer.get(c), i as u64 + 1, "absorb dropped {}", c.name());
        }
        for (i, s) in Stage::all().into_iter().enumerate() {
            assert_eq!(
                outer.stage_time(s),
                Duration::from_micros(i as u64 + 1),
                "absorb dropped {}",
                s.name()
            );
        }
        let snap = outer.snapshot();
        for m in Metric::all() {
            assert_eq!(snap.hist(m).count, 1, "absorb dropped {}", m.name());
        }
    }

    #[test]
    fn render_stats_json_covers_every_counter_stage_and_histogram() {
        let json = crate::diagnostics::render_stats_json(&saturated().snapshot());
        for c in Counter::all() {
            assert!(
                json.contains(&format!("\"{}\":", c.name())),
                "render_stats_json missing counter {}",
                c.name()
            );
        }
        for s in Stage::all() {
            assert!(
                json.contains(&format!("\"{}\":", s.name())),
                "render_stats_json missing stage {}",
                s.name()
            );
        }
        for m in Metric::all() {
            assert!(
                json.contains(&format!("\"{}\":", m.name())),
                "render_stats_json missing histogram {}",
                m.name()
            );
        }
    }

    #[test]
    fn render_text_groups_counters_by_subsystem_and_covers_all() {
        let text = saturated().snapshot().render_text();
        for sub in Counter::subsystems() {
            assert!(text.contains(&format!("  {sub}:\n")), "missing group {sub}");
        }
        for c in Counter::all() {
            assert!(text.contains(c.name()), "missing counter {}", c.name());
        }
        // Subsystem groups appear in the documented stable order.
        let positions: Vec<usize> = Counter::subsystems()
            .iter()
            .map(|sub| text.find(&format!("  {sub}:\n")).unwrap())
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
        // PR-6 counters surface in the text output, not just JSON.
        assert!(text.contains("alias_queries_solved"));
        assert!(text.contains("alias_functions_skipped"));
        assert!(text.contains("channel_encodings_shared"));
    }

    #[test]
    fn telemetry_is_shareable_across_threads() {
        let t = Telemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        t.add(Counter::GroupsChecked, 1);
                    }
                });
            }
        });
        assert_eq!(t.get(Counter::GroupsChecked), 400);
    }
}
