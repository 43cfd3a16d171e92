//! The sweep worker: runs the jobs its coordinator assigns on stdin,
//! journals every decision to its own crash-safe journal, and reports on
//! stdout.
//!
//! A worker is deliberately dumb: it reads one [`Line::Run`] at a time,
//! runs that job through a caller-supplied executor (the CLI wires in a
//! single-job batch engine configured identically to `gcatch batch`, which
//! journals the decided record itself), then writes [`Line::Done`]. The end
//! of its input ends the loop. All supervision — heartbeat staleness,
//! lease expiry, re-leasing, quarantining — lives in the
//! [coordinator](crate::sweep::Coordinator); a worker that dies at any
//! point ends its stdout, and its job goes back to the queue.
//!
//! A background thread keeps the worker visible: every quarter-lease it
//! writes [`Line::Beat`], and [`Line::Hold`] while a job runs. The
//! `sweep.heartbeat` fault site suppresses the beats for the worker's
//! whole life (a live-but-silent worker, culled by the coordinator);
//! `sweep.lease` suppresses the holds of one assignment (it expires
//! mid-job and the job is re-leased while this worker keeps working — the
//! duplicate-decision path). The `sweep.worker` site makes the process
//! exit with [`WORKER_KILL_EXIT`] right after it reads an assignment, the
//! cheapest faithful stand-in for a mid-job crash.

use crate::faults::{
    should_inject, with_scope, FaultPlan, SITE_SWEEP_HEARTBEAT, SITE_SWEEP_LEASE, SITE_SWEEP_WORKER,
};
use crate::sweep::{Line, WORKER_KILL_EXIT};
use std::io::{BufRead, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker-process configuration.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// This worker's id (unique within the sweep; names its journal and
    /// keys its heartbeat fault draw).
    pub id: String,
    /// The coordinator's lease: beats and holds go out every quarter of it.
    pub lease: Duration,
    /// Fault plan for the `sweep.*` sites (`None` disarms them).
    pub plan: Option<Arc<FaultPlan>>,
}

/// Writes one protocol line to the coordinator.
fn send<W: Write>(output: &Mutex<W>, line: Line) -> std::io::Result<()> {
    let mut out = output.lock().unwrap_or_else(|e| e.into_inner());
    writeln!(out, "{line}")?;
    out.flush()
}

/// Runs the worker loop until `input` ends: each `run` line of manifest
/// job list `ids` goes to `exec(index, id)`, which must journal the job's
/// decided record durably before returning `Ok` — the `done` line that
/// follows means "the decision is on disk", nothing weaker.
pub fn run_worker<W: Write + Send>(
    ids: &[String],
    input: impl BufRead,
    output: &Mutex<W>,
    config: &WorkerConfig,
    mut exec: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<(), String> {
    // Sticky per-worker heartbeat suppression: decided once so a
    // suppressed worker stays silent for its whole life (a flaky heartbeat
    // would evade the staleness detector).
    let silent = match &config.plan {
        Some(plan) => with_scope(Arc::clone(plan), &config.id, 1, || {
            should_inject(SITE_SWEEP_HEARTBEAT, "hb")
        }),
        None => false,
    };
    let interval = (config.lease / 4).max(Duration::from_millis(5));
    // The job whose assignment the background thread holds.
    let holding: Mutex<Option<usize>> = Mutex::new(None);
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        // Dropped when this closure returns, which ends the background
        // thread before the scope joins it.
        let _stop = stop;
        let holding = &holding;
        scope.spawn(move || loop {
            if !silent {
                let _ = send(output, Line::Beat);
            }
            if let Some(job) = *holding.lock().unwrap_or_else(|e| e.into_inner()) {
                let _ = send(output, Line::Hold(job));
            }
            if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                return;
            }
        });
        for line in input.lines() {
            let line = line.map_err(|e| format!("cannot read an assignment: {e}"))?;
            let Some(Line::Run(job, generation)) = Line::parse(&line) else {
                return Err(format!("bad assignment {line:?}"));
            };
            let id = ids
                .get(job)
                .ok_or_else(|| format!("job {job} is not in the manifest"))?;
            // Fault probes for this assignment, keyed on the generation so
            // a re-leased job rolls fresh dice each time around.
            let (kill, unheld) = match &config.plan {
                Some(plan) => with_scope(Arc::clone(plan), id, generation as u32 + 1, || {
                    (
                        should_inject(SITE_SWEEP_WORKER, "kill"),
                        should_inject(SITE_SWEEP_LEASE, "renew"),
                    )
                }),
                None => (false, false),
            };
            if kill {
                // A simulated crash: the coordinator sees the end of this
                // worker's stdout and re-leases the job.
                std::process::exit(WORKER_KILL_EXIT);
            }
            *holding.lock().unwrap_or_else(|e| e.into_inner()) = (!unheld).then_some(job);
            let outcome = exec(job, id);
            *holding.lock().unwrap_or_else(|e| e.into_inner()) = None;
            outcome?;
            send(output, Line::Done(job))
                .map_err(|e| format!("cannot report job {job} done: {e}"))?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn config(plan: Option<FaultPlan>) -> WorkerConfig {
        WorkerConfig {
            id: "w0".to_string(),
            lease: Duration::from_millis(20),
            plan: plan.map(Arc::new),
        }
    }

    /// The lines of `output` other than the background thread's.
    fn reports(output: &Mutex<Vec<u8>>) -> Vec<String> {
        String::from_utf8(output.lock().unwrap().clone())
            .unwrap()
            .lines()
            .filter(|l| *l != "beat" && !l.starts_with("hold "))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn each_assignment_runs_once_and_reports_done() {
        let ids: Vec<String> = (0..4).map(|i| format!("job-{i}")).collect();
        let input = Cursor::new("run 2 0\nrun 0 1\nrun 3 0\n");
        let output = Mutex::new(Vec::new());
        let mut ran = Vec::new();
        run_worker(&ids, input, &output, &config(None), |job, id| {
            assert_eq!(id, ids[job]);
            ran.push(job);
            Ok(())
        })
        .unwrap();
        assert_eq!(ran, vec![2, 0, 3], "one exec per run line, in order");
        assert_eq!(reports(&output), vec!["done 2", "done 0", "done 3"]);
    }

    #[test]
    fn a_running_job_is_held() {
        let ids = vec!["only.go".to_string()];
        let output = Mutex::new(Vec::new());
        run_worker(
            &ids,
            Cursor::new("run 0 0\n"),
            &output,
            &config(None),
            |_, _| {
                // Run until the background thread has held the job once.
                let started = std::time::Instant::now();
                while !String::from_utf8_lossy(&output.lock().unwrap()).contains("hold 0\n") {
                    assert!(started.elapsed() < Duration::from_secs(30), "never held");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            },
        )
        .unwrap();
        let text = String::from_utf8(output.lock().unwrap().clone()).unwrap();
        assert!(text.starts_with("beat\n"), "{text}");
        assert!(text.contains("done 0\n"), "{text}");
    }

    #[test]
    fn suppressed_beats_and_holds_are_never_sent() {
        let plan = FaultPlan::new(1.0, 0).with_sites([SITE_SWEEP_HEARTBEAT, SITE_SWEEP_LEASE]);
        let ids = vec!["only.go".to_string()];
        let output = Mutex::new(Vec::new());
        run_worker(
            &ids,
            Cursor::new("run 0 0\n"),
            &output,
            &config(Some(plan)),
            |_, _| {
                std::thread::sleep(Duration::from_millis(30));
                Ok(())
            },
        )
        .unwrap();
        let text = String::from_utf8(output.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "done 0\n");
    }

    #[test]
    fn a_bad_assignment_or_a_failed_job_ends_the_loop_with_an_error() {
        let ids = vec!["only.go".to_string()];
        for (input, exec_fails) in [
            ("run 1 0\n", false),
            ("hello\n", false),
            ("run 0 0\n", true),
        ] {
            let output = Mutex::new(Vec::new());
            let result = run_worker(&ids, Cursor::new(input), &output, &config(None), |_, _| {
                if exec_fails {
                    Err("journal write failed".to_string())
                } else {
                    Ok(())
                }
            });
            assert!(result.is_err(), "{input:?}");
            assert!(reports(&output).is_empty(), "{input:?}");
        }
    }
}
