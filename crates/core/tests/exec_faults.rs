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

/// `SmartNdr` runs two sessions from the conservative start: the downgrade
/// works on a copy, and the stage-net construction hands its own on to its
/// refine. A session whose guard has tripped is not handed on: the refine
/// builds fresh engines for its assignment. Each trip is reported once. A
/// fault at commit 2 trips all three sessions. One at commit 40 trips the
/// two constructions' sessions before the handoff, and the refine's fresh
/// one commits fewer times; a session handed on keeps counting commits. One
/// at commit 400 trips none. The result stays the clean one.
#[test]
fn each_session_reports_its_divergence_once() {
    // Large enough that the refine of the stage-net result commits more
    // than twice.
    let (tree, tech) = fixture(300, 7);
    let clean = SmartNdr::default().assign(&OptContext::new(&tree, &tech, PowerModel::new(1.0)));
    for (at_commit, sessions) in [(2, 3), (40, 2), (400, 0)] {
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_divergence_guard(1, 1e-6)
            .with_exec_fault(ExecFault::Divergence { at_commit, delta_ps: 1e-3 });
        let run = SmartNdr::default().assign_supervised(&ctx);
        let trips: Vec<usize> = run
            .degradations
            .iter()
            .map(|d| match d {
                DegradationEvent::IncrementalToFull(d) => d.at_commit,
                other => panic!("unexpected rung {other}"),
            })
            .collect();
        // The corrupted engine state first shows in the next commit's
        // scalars, where the guard trips.
        assert!(trips.iter().all(|&at| at == at_commit + 1), "fault at {at_commit}: {trips:?}");
        assert_eq!(trips.len(), sessions, "fault at {at_commit}: one trip per session: {trips:?}");
        assert_eq!(clean, run.assignment, "fault at {at_commit}");
    }
}
