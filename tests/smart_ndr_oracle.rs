//! `SmartNdr` against a test-only copy of its former two-branch flow.
//!
//! `SmartNdr` runs the downgrade construction, then upgrade-repair, then a
//! downgrade polish of the repaired assignment, and keeps the cheaper
//! feasible result. When repair returns the uniform-conservative start (its
//! fallback rung, or a repair that ended there), the polish would replay the
//! downgrade run already done, so `SmartNdr` reuses that run instead.
//! [`best_of_both`] is the flow without the reuse: downgrade, repair, full
//! polish, pick. On every cell of a design × constraint grid the two must
//! agree on the assignment, on every budget receipt (phase, iterations,
//! exhausted) and on the degradation events, with and without an iteration
//! cap.
//!
//! The last test pins why the repair branch stays: under tight constraints
//! on N32 it beats a feasible downgrade result.

mod common;

use common::{context, SETS};
use smart_ndr::core::{
    Budget, Constraints, GreedyDowngrade, GreedyUpgradeRepair, NdrOptimizer, OptContext,
    SmartNdr, SupervisedRun,
};
use smart_ndr::cts::{synthesize, ClockTree, CtsOptions};
use smart_ndr::netlist::{BenchmarkSpec, Design};
use smart_ndr::power::PowerModel;
use smart_ndr::tech::Technology;

fn design(tech: &Technology, sinks: usize, seed: u64) -> (Design, ClockTree) {
    let design = BenchmarkSpec::new(format!("oracle{sinks}"), sinks)
        .seed(seed)
        .build()
        .expect("grid spec is valid");
    let tree = synthesize(&design, tech, &CtsOptions::default()).expect("grid design synthesizes");
    (design, tree)
}

/// The flow without the reuse: downgrade, upgrade-repair, downgrade polish
/// of the repaired assignment, then the cheaper feasible result. Also
/// returns whether repair ended at the conservative start — the cells
/// where `SmartNdr` reuses the downgrade run.
fn best_of_both(ctx: &OptContext<'_>, budget: &Budget) -> (SupervisedRun, bool) {
    let downgrade = GreedyDowngrade::default().with_budget(budget.clone());
    let upgrade = GreedyUpgradeRepair::default().with_budget(budget.clone());
    let mut run = downgrade.assign_supervised(ctx);
    let down = std::mem::replace(&mut run.assignment, ctx.conservative_assignment());
    let repaired = run.absorb(upgrade.assign_supervised(ctx));
    let reused = repaired == ctx.conservative_assignment();
    let up = run.absorb(downgrade.refine_supervised(ctx, repaired));
    run.assignment = match (ctx.feasible(&down), ctx.feasible(&up)) {
        (true, true) if ctx.power(&up).network_uw() < ctx.power(&down).network_uw() => up,
        (false, true) => up,
        _ => down,
    };
    (run, reused)
}

/// Runs the grid under `budget`; returns how many cells of each set took
/// the reuse.
fn check_grid(budget: &Budget) -> Vec<(&'static str, usize)> {
    let mut reuses: Vec<(&'static str, usize)> = SETS.iter().map(|&s| (s, 0)).collect();
    for tech in [Technology::n45(), Technology::n32()] {
        for sinks in [60, 180, 400] {
            for seed in 1..=3 {
                let (design, tree) = design(&tech, sinks, seed);
                for (set, count) in &mut reuses {
                    let cell = format!("{} {sinks} sinks seed {seed} {set}", tech.name());
                    let ctx = context(set, &design, &tree, &tech);
                    let (want, reused) = best_of_both(&ctx, budget);
                    let got = SmartNdr::default().with_budget(budget.clone()).assign_supervised(&ctx);
                    assert!(got.assignment == want.assignment, "{cell}: assignments differ");
                    let receipts = |run: &SupervisedRun| {
                        run.budgets
                            .iter()
                            .map(|b| (b.phase, b.iterations_done, b.exhausted))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(receipts(&got), receipts(&want), "{cell}: budget receipts");
                    assert_eq!(got.degradations, want.degradations, "{cell}: degradation events");
                    *count += usize::from(reused);
                }
            }
        }
    }
    reuses
}

#[test]
fn smart_ndr_matches_the_best_of_both_constructions() {
    let reuses = check_grid(&Budget::unlimited());
    // The grid exercises the reuse on every kind of cell where repair falls
    // back: window arcs and corners (repair targets neither) and EM and
    // noise limits (repair's upgrades can only break them).
    assert_eq!(
        reuses,
        [
            ("default", 0),
            ("tight", 0),
            ("loose", 0),
            ("window15", 17),
            ("window40", 9),
            ("corners", 2),
            ("track", 0),
            ("em", 18),
            ("noise", 18),
        ],
        "cells per constraint set where repair ends at the conservative start"
    );
}

#[test]
fn smart_ndr_matches_the_best_of_both_constructions_under_an_iteration_cap() {
    // A 40-step cap cuts repair short on most cells, so it falls back far
    // more often than unbounded (125 of 162 cells when this was written).
    let reuses = check_grid(&Budget::unlimited().with_max_iters(40));
    let total: usize = reuses.iter().map(|(_, n)| n).sum();
    assert!(total > 64, "the capped grid took the reuse on only {total} cells: {reuses:?}");
}

/// The repair branch is not dead weight when downgrade is feasible: at
/// slew margin 1.02 and an 8 ps skew budget on N32 it finds a cheaper
/// feasible assignment than the downgrade run (2 of the grid's
/// downgrade-feasible cells).
#[test]
fn repair_branch_beats_a_feasible_downgrade_on_tight_n32_cells() {
    let tech = Technology::n32();
    // (sinks, seed, minimum saving of SmartNdr over GreedyDowngrade).
    for (sinks, seed, min_saving) in [(400, 1, 0.01), (60, 3, 0.005)] {
        let (design, tree) = design(&tech, sinks, seed);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()))
            .with_constraints(Constraints::relative(&tree, &tech, 1.02, 8.0));
        let smart = SmartNdr::default().optimize(&ctx);
        let down = GreedyDowngrade::default().optimize(&ctx);
        assert!(down.meets_constraints() && smart.meets_constraints(), "{sinks}/{seed}");
        let (s, d) = (smart.power().network_uw(), down.power().network_uw());
        assert!(
            s <= d * (1.0 - min_saving),
            "N32 {sinks} sinks seed {seed}: smart {s:.3} uW vs downgrade {d:.3} uW"
        );
    }
}
