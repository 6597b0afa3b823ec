//! Execution-fault injection (`fault-inject` feature): an injected
//! incremental-engine divergence must be absorbed by the
//! `incremental_to_full` rung, and the degraded run must reproduce the
//! clean result bit for bit.

#![cfg(feature = "fault-inject")]

use snr_core::{DegradationEvent, ExecFault, NdrOptimizer, OptContext, SmartNdr};
use snr_cts::{synthesize, ClockTree, CtsOptions};
use snr_netlist::BenchmarkSpec;
use snr_power::PowerModel;
use snr_tech::Technology;

fn fixture(sinks: usize, seed: u64) -> (ClockTree, Technology) {
    let design = BenchmarkSpec::new("ef", sinks).seed(seed).build().expect("valid spec");
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("synthesizable");
    (tree, tech)
}

#[test]
fn injected_divergence_falls_back_and_matches_the_clean_run() {
    let (tree, tech) = fixture(96, 21);
    let clean = SmartNdr::default().assign(&OptContext::new(&tree, &tech, PowerModel::new(1.0)));
    // Guard on every commit; the injected 1e-3 ps drift is far above the
    // 1e-6 ps epsilon but far below any feasibility margin: the guard must
    // trip on the corrupted commit, before any decision reads the drift.
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
        .with_divergence_guard(1, 1e-6)
        .with_exec_fault(ExecFault::Divergence { at_commit: 2, delta_ps: 1e-3 });
    let faulted = SmartNdr::default().assign_supervised(&ctx);
    let rungs: Vec<&str> = faulted.degradations.iter().map(DegradationEvent::rung).collect();
    assert!(
        rungs.contains(&"incremental_to_full"),
        "corrupted incremental state must trip the guard, got {rungs:?}"
    );
    assert_eq!(clean, faulted.assignment, "full re-analysis must reproduce the clean run");
}
