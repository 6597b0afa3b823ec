//! End-to-end and per-layer benchmark of the smart-ndr request path.
//!
//! Each workload replays a fixed, seeded request sequence through the
//! public API (`snr_serve::{plan, execute}` plus `render`, or the daemon
//! loop `snr_serve::server::serve_io`), checks every output, and reports
//! its timings at reference speed: each measured time is multiplied by
//! nominal ÷ measured time of a frozen reference kernel
//! ([`refkernel`]) timed between requests, so host drift cancels.

#![forbid(unsafe_code)]

pub mod daemon;
pub mod harness;
pub mod host;
pub mod inputs;
pub mod pareto_sweep;
pub mod refkernel;
pub mod replay;
pub mod report;
pub mod run_cold;
pub mod serve_mixed;
pub mod stats;
pub mod trace;

use harness::Args;
use report::{Report, PER_LAYER};
use trace::Tracer;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["run-cold", "pareto-sweep", "serve-mixed"];

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(name: &str, args: &Args) -> Result<Report, String> {
    match name {
        "run-cold" => Ok(run_cold::run(args)),
        "pareto-sweep" => Ok(pareto_sweep::run(args)),
        "serve-mixed" => Ok(serve_mixed::run(args)),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Sets every per-layer metric the workload did not exercise to 0: a
/// layer off the workload's request path did no work.
pub fn zero_unset(report: &mut Report) {
    for m in PER_LAYER {
        report.values.entry(m.name).or_insert(0.0);
    }
}

/// Writes the traced run's spans where the arguments say.
///
/// # Errors
///
/// The file could not be written.
pub fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let Some(path) = &args.trace_out else {
        return Ok(());
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}
