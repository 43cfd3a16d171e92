//! CI smoke check for `gcatch check --trace FILE`: verifies the emitted
//! Chrome trace-event file is non-empty, well-formed JSON (via the
//! dependency-free validator in `gcatch::trace`), and actually carries
//! trace events — a thread-name record plus at least four distinct span
//! names, the shape viewers like `chrome://tracing`/Perfetto expect.
//!
//! Usage: `trace_check <trace.json>`; exits 1 with a message on any failure.

use std::process::ExitCode;

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if text.trim().is_empty() {
        return Err(format!("{path} is empty"));
    }
    gcatch::codec::validate_json(&text).map_err(|e| format!("{path}: malformed JSON: {e}"))?;
    if !text.contains("\"traceEvents\"") {
        return Err(format!("{path}: missing the traceEvents array"));
    }
    if !text.contains("\"thread_name\"") {
        return Err(format!(
            "{path}: no thread_name metadata (no lanes recorded)"
        ));
    }
    // Count distinct recorded span names the cheap way: every event name is
    // rendered as `"name":"<name>"`.
    let mut names: Vec<&str> = text
        .match_indices("\"name\":\"")
        .filter_map(|(i, pat)| {
            let rest = &text[i + pat.len()..];
            rest.split('"').next()
        })
        .filter(|n| !n.is_empty() && *n != "thread_name")
        .collect();
    names.sort_unstable();
    names.dedup();
    if names.len() < 4 {
        return Err(format!(
            "{path}: only {} distinct span name(s) recorded ({:?}); expected at least 4",
            names.len(),
            names
        ));
    }
    println!(
        "{path}: OK — valid trace with {} distinct span names",
        names.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <trace.json>");
        return ExitCode::from(2);
    };
    match check(&path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_check: {e}");
            ExitCode::FAILURE
        }
    }
}
