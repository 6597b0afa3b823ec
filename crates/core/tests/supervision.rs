//! Anytime-semantics proof for the run-supervision layer (ISSUE 5
//! acceptance): an iteration-capped optimizer returns a *feasible*
//! solution no worse than the uniform-2W2S baseline, reports
//! `exhausted: true`, and does so deterministically.

use snr_core::{Budget, CancelToken, NdrOptimizer, OptContext, SmartNdr, Uniform};
use snr_cts::{synthesize, ClockTree, CtsOptions};
use snr_netlist::BenchmarkSpec;
use snr_power::PowerModel;
use snr_tech::Technology;

fn fixture(sinks: usize, seed: u64) -> (ClockTree, Technology) {
    let design = BenchmarkSpec::new("sup", sinks).seed(seed).build().expect("valid spec");
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("synthesizable");
    (tree, tech)
}

#[test]
fn iteration_capped_smart_ndr_is_anytime_and_deterministic() {
    let (tree, tech) = fixture(96, 11);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let baseline = Uniform::conservative().optimize(&ctx);

    let mut results = Vec::new();
    for run in 0..2 {
        let out = SmartNdr::default()
            .with_budget(Budget::unlimited().with_max_iters(7))
            .optimize(&ctx);
        // Anytime: the capped run is still feasible and no worse than the
        // conservative baseline it started from.
        assert!(out.meets_constraints(), "run {run}: capped run must stay feasible");
        assert!(
            out.power().network_uw() <= baseline.power().network_uw() + 1e-9,
            "run {run}: capped power {} must not exceed uniform-2W2S {}",
            out.power().network_uw(),
            baseline.power().network_uw()
        );
        // The receipt says the cap bound.
        assert!(out.budget_exhausted(), "run {run}: 7 iterations must exhaust the cap");
        for b in out.budget_reports() {
            assert!(b.iterations_done <= 7, "run {run}: {b:?} overran the cap");
        }
        let receipts: Vec<_> = out
            .budget_reports()
            .iter()
            .map(|b| (b.phase, b.iterations_done, b.exhausted))
            .collect();
        let rungs: Vec<_> = out.degradations().iter().map(|d| d.rung()).collect();
        results.push((out.assignment().clone(), out.power().network_uw(), receipts, rungs));
    }
    // Deterministic when the iteration cap binds: identical assignment,
    // power, receipts and rungs on every run.
    assert_eq!(results[0], results[1], "two capped runs diverged");
}

#[test]
fn uncapped_run_reports_unexhausted_budgets() {
    let (tree, tech) = fixture(48, 3);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let out = SmartNdr::default().optimize(&ctx);
    assert!(!out.budget_exhausted());
    assert!(!out.budget_reports().is_empty(), "supervised flow must leave receipts");
    assert!(out.degradations().is_empty(), "clean run takes no ladder rungs");
}

#[test]
fn baselines_are_unsupervised() {
    let (tree, tech) = fixture(32, 5);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let out = Uniform::conservative().optimize(&ctx);
    assert!(out.budget_reports().is_empty());
    assert!(!out.budget_exhausted());
}

#[test]
fn pre_fired_token_yields_feasible_result_immediately() {
    let (tree, tech) = fixture(64, 9);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let token = CancelToken::new();
    token.cancel();
    let out = SmartNdr::default()
        .with_budget(Budget::unlimited().with_token(token))
        .optimize(&ctx);
    // Cancelled before the first move: the conservative start is still a
    // feasible answer — anytime means never worse than doing nothing.
    assert!(out.meets_constraints());
    assert!(out.budget_exhausted());
    let baseline = ctx.conservative_baseline();
    assert!(out.power().network_uw() <= baseline.power().network_uw() + 1e-9);
}

/// Every budget phase is timed from its own start to its own end, so the
/// receipts of a 1200-sink `SmartNdr` run, which runs its phases one after
/// another, sum to no more than the run's elapsed time.
#[test]
fn phase_receipts_time_their_own_phase() {
    let (tree, tech) = fixture(1_200, 3);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let out = SmartNdr::default().optimize(&ctx);
    let phases: Vec<&str> = out.budget_reports().iter().map(|b| b.phase).collect();
    assert_eq!(
        phases,
        [
            "greedy-levels",
            "greedy-refine",
            "stage-depths",
            "stage-nets",
            "greedy-levels",
            "greedy-refine"
        ]
    );
    let sum: std::time::Duration = out.budget_reports().iter().map(|b| b.elapsed).sum();
    assert!(sum <= out.elapsed(), "receipts sum to {sum:?}, the run took {:?}", out.elapsed());
}
