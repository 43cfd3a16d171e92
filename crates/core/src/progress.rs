//! Live progress snapshots for `gcatch batch --progress` and
//! `gcatch sweep --progress`.
//!
//! The batch engine (as it decides jobs) or the sweep coordinator
//! periodically builds a [`ProgressSnapshot`] from its run's counters and
//! hands it to a caller-supplied callback; the CLI renders it as a single
//! carriage-return-refreshed TTY status line. The snapshot is
//! derived entirely from the [`Stats`] the run already records — counters
//! plus the `job_wall_ns` histogram — so enabling progress changes no
//! analysis behavior and no report bytes.

use crate::telemetry::{Counter, Metric, Stats};

/// A point-in-time view of a batch run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgressSnapshot {
    /// True for a multi-process sweep (renders a `sweep` prefix instead of
    /// `batch`).
    pub sweep: bool,
    /// Jobs in the run (restored + executed).
    pub total: usize,
    /// Jobs decided so far (succeeded, quarantined, or restored).
    pub done: usize,
    /// Jobs restored from a checkpoint journal.
    pub resumed: usize,
    /// Retries so far.
    pub retried: u64,
    /// Jobs quarantined so far.
    pub quarantined: u64,
    /// Sweep jobs released back to the queue (lease expiry, worker death).
    pub released: u64,
    /// Sweep worker processes declared dead by the coordinator.
    pub workers_lost: u64,
    /// p50 of completed-job wall time, milliseconds.
    pub p50_ms: f64,
    /// p99 of completed-job wall time, milliseconds.
    pub p99_ms: f64,
    /// Estimated milliseconds until the run drains, from the mean
    /// completed-job wall time and the live worker count. `None` until the
    /// first job completes.
    pub eta_ms: Option<u64>,
}

fn fmt_eta(ms: u64) -> String {
    let secs = ms / 1000;
    if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else if secs >= 1 {
        format!("{}s", secs)
    } else {
        format!("{ms}ms")
    }
}

impl ProgressSnapshot {
    /// The snapshot of a batch (or, with `sweep`, a sweep) run with `done`
    /// of `total` jobs decided by `workers` workers. Every other figure
    /// comes from the run's counters in `stats`, and the percentiles and
    /// ETA from its `job_wall_ns` histogram.
    pub(crate) fn from_stats(
        sweep: bool,
        stats: &Stats,
        total: usize,
        done: usize,
        workers: usize,
    ) -> ProgressSnapshot {
        let hist = stats.hist(Metric::JobWallNs);
        let remaining = total - done;
        let eta_ms = (hist.count > 0 && remaining > 0).then(|| {
            let per_job_ms = hist.mean() as f64 / 1e6;
            (per_job_ms * remaining as f64 / workers.max(1) as f64) as u64
        });
        ProgressSnapshot {
            sweep,
            total,
            done,
            resumed: stats.counter(Counter::JobsResumed) as usize,
            retried: stats.counter(Counter::JobsRetried),
            quarantined: stats.counter(Counter::JobsQuarantined),
            released: stats.counter(Counter::JobsReleases),
            workers_lost: stats.counter(Counter::WorkersLost),
            p50_ms: hist.percentile(50) as f64 / 1e6,
            p99_ms: hist.percentile(99) as f64 / 1e6,
            eta_ms,
        }
    }

    /// Renders the one-line TTY status, e.g.
    /// `batch 5/8 done · 1 retried · 1 quarantined · p50 12 ms · p99 80 ms · eta 3s`.
    /// Zero-valued optional segments are omitted to keep the line short.
    pub fn render_line(&self) -> String {
        let verb = if self.sweep { "sweep" } else { "batch" };
        let mut line = format!("{verb} {}/{} done", self.done, self.total);
        if self.resumed > 0 {
            line.push_str(&format!(" · {} resumed", self.resumed));
        }
        if self.retried > 0 {
            line.push_str(&format!(" · {} retried", self.retried));
        }
        if self.quarantined > 0 {
            line.push_str(&format!(" · {} quarantined", self.quarantined));
        }
        if self.released > 0 {
            line.push_str(&format!(" · {} released", self.released));
        }
        if self.workers_lost > 0 {
            line.push_str(&format!(" · {} workers lost", self.workers_lost));
        }
        if self.p50_ms > 0.0 || self.p99_ms > 0.0 {
            line.push_str(&format!(
                " · p50 {:.0} ms · p99 {:.0} ms",
                self.p50_ms, self.p99_ms
            ));
        }
        match self.eta_ms {
            Some(ms) if self.done < self.total => {
                line.push_str(&format!(" · eta {}", fmt_eta(ms)));
            }
            _ => {}
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_line_omits_zero_segments() {
        let snap = ProgressSnapshot {
            total: 8,
            done: 3,
            ..ProgressSnapshot::default()
        };
        assert_eq!(snap.render_line(), "batch 3/8 done");
    }

    #[test]
    fn render_line_includes_everything_when_present() {
        let snap = ProgressSnapshot {
            total: 8,
            done: 5,
            resumed: 1,
            retried: 2,
            quarantined: 1,
            p50_ms: 12.4,
            p99_ms: 80.2,
            eta_ms: Some(3_200),
            ..ProgressSnapshot::default()
        };
        assert_eq!(
            snap.render_line(),
            "batch 5/8 done · 1 resumed · 2 retried · 1 quarantined \
             · p50 12 ms · p99 80 ms · eta 3s"
        );
    }

    #[test]
    fn sweep_line_carries_release_and_loss_segments() {
        let snap = ProgressSnapshot {
            sweep: true,
            total: 6,
            done: 4,
            released: 2,
            workers_lost: 1,
            ..ProgressSnapshot::default()
        };
        assert_eq!(
            snap.render_line(),
            "sweep 4/6 done · 2 released · 1 workers lost"
        );
    }

    #[test]
    fn snapshot_reads_its_figures_from_the_run_counters() {
        use crate::telemetry::Telemetry;
        let t = Telemetry::new();
        t.add(Counter::JobsResumed, 1);
        t.add(Counter::JobsRetried, 2);
        t.add(Counter::JobsQuarantined, 1);
        t.add(Counter::JobsReleases, 3);
        t.add(Counter::WorkersLost, 1);
        t.observe(Metric::JobWallNs, 10_000_000);
        t.observe(Metric::JobWallNs, 30_000_000);
        let snap = ProgressSnapshot::from_stats(false, &t.snapshot(), 8, 4, 2);
        assert_eq!((snap.resumed, snap.retried, snap.quarantined), (1, 2, 1));
        assert_eq!((snap.released, snap.workers_lost), (3, 1));
        // Mean job wall 20 ms, four jobs left, two workers.
        assert_eq!(snap.eta_ms, Some(40));
        assert!(snap.p50_ms > 0.0 && snap.p99_ms >= snap.p50_ms);
        let done = ProgressSnapshot::from_stats(true, &t.snapshot(), 8, 8, 2);
        assert_eq!(done.eta_ms, None);
        assert!(done.render_line().starts_with("sweep 8/8 done"));
    }

    #[test]
    fn eta_is_suppressed_once_done() {
        let snap = ProgressSnapshot {
            total: 4,
            done: 4,
            eta_ms: Some(1_000),
            ..ProgressSnapshot::default()
        };
        assert!(!snap.render_line().contains("eta"));
    }

    #[test]
    fn eta_humanizes_minutes() {
        assert_eq!(fmt_eta(61_000), "1m01s");
        assert_eq!(fmt_eta(900), "900ms");
        assert_eq!(fmt_eta(59_000), "59s");
    }
}
