//! CI smoke check for the observability artifacts: validates a
//! `--metrics-out` Prometheus exposition with the in-repo parser
//! (`gcatch::metrics::validate_exposition`) and an `--events-out` JSONL
//! stream line by line — every line must be one well-formed JSON object
//! carrying the required correlation keys, the stream must be bracketed
//! by exactly one `run_start` and one `run_end`, and every
//! `job_quarantined` event must name its job so the flight-recorder
//! postmortem in the report can be cross-referenced.
//!
//! Usage: `obs_check <metrics.prom> <events.jsonl>`; exits 1 with a
//! message on any failure.

use std::process::ExitCode;

fn check_metrics(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if text.trim().is_empty() {
        return Err(format!("{path} is empty"));
    }
    let summary = gcatch::validate_exposition(&text).map_err(|e| format!("{path}: {e}"))?;
    for family in [
        "gcatch_channels_analyzed_total",
        "gcatch_jobs_total",
        "gcatch_stage_seconds",
        "gcatch_job_wall_seconds",
    ] {
        if !text.contains(family) {
            return Err(format!("{path}: missing family `{family}`"));
        }
    }
    println!(
        "{path}: OK — {} families, {} samples",
        summary.families, summary.samples
    );
    Ok(())
}

fn check_events(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return Err(format!("{path} is empty"));
    }
    let mut run_starts = 0usize;
    let mut run_ends = 0usize;
    let mut quarantined = 0usize;
    for (idx, line) in lines.iter().enumerate() {
        let n = idx + 1;
        gcatch::codec::validate_json(line)
            .map_err(|e| format!("{path}:{n}: malformed JSON: {e}"))?;
        for key in ["\"ts_ns\":", "\"seq\":", "\"event\":\"", "\"run\":\""] {
            if !line.contains(key) {
                return Err(format!("{path}:{n}: missing required key {key}"));
            }
        }
        if line.contains("\"event\":\"run_start\"") {
            run_starts += 1;
            if idx != 0 {
                return Err(format!("{path}:{n}: run_start is not the first event"));
            }
        }
        if line.contains("\"event\":\"run_end\"") {
            run_ends += 1;
            if idx != lines.len() - 1 {
                return Err(format!("{path}:{n}: run_end is not the last event"));
            }
        }
        if line.contains("\"event\":\"job_quarantined\"") {
            quarantined += 1;
            if !line.contains("\"job\":\"") || !line.contains("\"attempt\":") {
                return Err(format!(
                    "{path}:{n}: quarantine event lacks correlation ids"
                ));
            }
        }
        // Job-scoped events must carry the canonical ordering index.
        if line.contains("\"job\":\"") && !line.contains("\"job_index\":") {
            return Err(format!("{path}:{n}: job event without job_index"));
        }
    }
    if run_starts != 1 || run_ends != 1 {
        return Err(format!(
            "{path}: expected exactly one run_start and run_end, got {run_starts}/{run_ends}"
        ));
    }
    println!(
        "{path}: OK — {} events, {} quarantine(s)",
        lines.len(),
        quarantined
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [metrics, events] = args.as_slice() else {
        eprintln!("usage: obs_check <metrics.prom> <events.jsonl>");
        return ExitCode::from(2);
    };
    match check_metrics(metrics).and_then(|()| check_events(events)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs_check: {e}");
            ExitCode::FAILURE
        }
    }
}
