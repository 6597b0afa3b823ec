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
/// builds fresh engines for its assignment and counts commits from zero. A
/// session handed on keeps counting. The fault lands on the guard check of
/// its commit, so every session that reaches that commit trips there, once,
/// and no later commit can re-solve the drift away first. On both trees a
/// fault at commit 2 trips all three sessions; later faults trip only the
/// sessions that commit that often. The result stays the clean one.
#[test]
fn each_session_reports_its_divergence_once() {
    // (sinks, seed) and, per fault commit, how many sessions trip.
    let fixtures = [
        ((300, 7), [(2, 3), (20, 2), (80, 1), (400, 0)]),
        ((200, 3), [(2, 3), (3, 2), (40, 1), (400, 0)]),
    ];
    for ((sinks, seed), faults) in fixtures {
        let (tree, tech) = fixture(sinks, seed);
        let clean =
            SmartNdr::default().assign(&OptContext::new(&tree, &tech, PowerModel::new(1.0)));
        for (at_commit, sessions) in faults {
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
            let case = format!("{sinks} sinks, seed {seed}, fault at {at_commit}");
            assert_eq!(trips, vec![at_commit; sessions], "{case}: one trip per session");
            assert_eq!(clean, run.assignment, "{case}");
        }
    }
}
