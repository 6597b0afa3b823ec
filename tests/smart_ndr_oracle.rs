//! `SmartNdr` against a test-only copy of its former two-branch flow.
//!
//! `SmartNdr` used to run the downgrade construction, then upgrade-repair
//! from the all-default start, then a downgrade polish of the repaired
//! assignment, and keep the cheaper feasible result. [`best_of_both`] keeps
//! that flow as the reference. `SmartNdr` now runs the downgrade and
//! stage-net constructions from the conservative start, and repair only as
//! the rescue when that start is infeasible. On every cell of a design ×
//! constraint grid it must:
//! - be feasible wherever the reference is, and never dearer;
//! - leave no `upgrade-repair` receipt and no `optimizer_to_baseline`
//!   event when the conservative start is feasible;
//! - return the reference's assignment where the start is infeasible (the
//!   track-budget cells), since the rescue is the reference's repair branch.
//!
//! The strict wins per constraint set are pinned, so a change that loses
//! one shows here.

mod common;

use common::{context, SETS};
use smart_ndr::core::{
    Budget, BudgetReport, Constraints, GreedyDowngrade, GreedyUpgradeRepair, NdrOptimizer,
    OptContext, SmartNdr, SupervisedRun,
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

/// The former flow: downgrade, upgrade-repair, downgrade polish of the
/// repaired assignment, then the cheaper feasible result.
fn best_of_both(ctx: &OptContext<'_>, budget: &Budget) -> SupervisedRun {
    let downgrade = GreedyDowngrade::default().with_budget(budget.clone());
    let upgrade = GreedyUpgradeRepair::default().with_budget(budget.clone());
    let mut run = downgrade.assign_supervised(ctx);
    let down = std::mem::replace(&mut run.assignment, ctx.conservative_assignment());
    let repaired = run.absorb(upgrade.assign_supervised(ctx));
    let up = run.absorb(downgrade.refine_supervised(ctx, repaired));
    run.assignment = match (ctx.feasible(&down), ctx.feasible(&up)) {
        (true, true) if ctx.power(&up).network_uw() < ctx.power(&down).network_uw() => up,
        (false, true) => up,
        _ => down,
    };
    run
}

/// Calls `check` with every cell's name, set, context and whether its
/// conservative start is feasible.
fn for_each_cell(mut check: impl FnMut(&str, &str, &OptContext<'_>, bool)) {
    for tech in [Technology::n45(), Technology::n32()] {
        for sinks in [60, 180, 400] {
            for seed in 1..=3 {
                let (design, tree) = design(&tech, sinks, seed);
                for set in SETS {
                    let cell = format!("{} {sinks} sinks seed {seed} {set}", tech.name());
                    let ctx = context(set, &design, &tree, &tech);
                    let start_ok = ctx.feasible(&ctx.conservative_assignment());
                    check(&cell, set, &ctx, start_ok);
                }
            }
        }
    }
}

/// Asserts the rescue-only contract on one run: without a feasible start
/// nothing else can run, and with one, repair never does.
fn assert_rescue_only(cell: &str, run: &SupervisedRun, start_ok: bool) {
    let repaired = run.budgets.iter().any(|b| b.phase == "upgrade-repair");
    assert_eq!(repaired, !start_ok, "{cell}: upgrade-repair ran iff the start is infeasible");
    if start_ok {
        assert!(
            run.degradations.iter().all(|d| d.rung() != "optimizer_to_baseline"),
            "{cell}: a feasible start took the baseline rung: {:?}",
            run.degradations
        );
    }
}

#[test]
fn smart_ndr_never_loses_to_the_best_of_both_reference() {
    let unlimited = Budget::unlimited();
    let mut wins: Vec<(&str, usize)> = SETS.iter().map(|&s| (s, 0)).collect();
    let mut infeasible_starts = 0;
    let mut largest_win = 0.0f64;
    for_each_cell(|cell, set, ctx, start_ok| {
        let want = best_of_both(ctx, &unlimited);
        let got = SmartNdr::default().assign_supervised(ctx);
        assert_rescue_only(cell, &got, start_ok);
        let (want_ok, got_ok) = (ctx.feasible(&want.assignment), ctx.feasible(&got.assignment));
        assert!(got_ok || !want_ok, "{cell}: infeasible where the reference is feasible");
        let power = |run: &SupervisedRun| ctx.power(&run.assignment).network_uw();
        let (r, s) = (power(&want), power(&got));
        assert!(s <= r, "{cell}: {s:.6} uW is dearer than the reference's {r:.6} uW");
        if !start_ok {
            infeasible_starts += 1;
            assert!(got.assignment == want.assignment, "{cell}: the rescue is not the reference");
        }
        if s < r {
            wins.iter_mut().find(|(name, _)| *name == set).expect("set is in SETS").1 += 1;
            largest_win = largest_win.max(1.0 - s / r);
        }
    });
    assert_eq!(infeasible_starts, 18, "only the track-budget cells start infeasible");
    assert_eq!(
        wins,
        [
            ("default", 5),
            ("tight", 8),
            ("loose", 1),
            ("window15", 8),
            ("window40", 1),
            ("corners", 5),
            ("track", 0),
            ("em", 5),
            ("noise", 4),
        ],
        "cells per constraint set where SmartNdr is strictly cheaper than the reference"
    );
    assert!(
        (0.0255..0.0260).contains(&largest_win),
        "largest win {:.3} %",
        100.0 * largest_win
    );
}

#[test]
fn capped_smart_ndr_runs_agree_and_stay_feasible() {
    // A 40-step cap binds on most cells. Two capped runs must agree on the
    // assignment, every receipt and every event; each stays feasible
    // wherever its start is, and the capped rescue is the capped reference.
    let cap = Budget::unlimited().with_max_iters(40);
    let mut exhausted = 0;
    for_each_cell(|cell, _, ctx, start_ok| {
        let smart = SmartNdr::default().with_budget(cap.clone());
        let (a, b) = (smart.assign_supervised(ctx), smart.assign_supervised(ctx));
        assert!(a.assignment == b.assignment, "{cell}: capped assignments differ");
        let receipts = |run: &SupervisedRun| {
            let receipt = |r: &BudgetReport| (r.phase, r.iterations_done, r.exhausted);
            run.budgets.iter().map(receipt).collect::<Vec<_>>()
        };
        assert_eq!(receipts(&a), receipts(&b), "{cell}: capped receipts differ");
        assert_eq!(a.degradations, b.degradations, "{cell}: capped events differ");
        let capped = a.budgets.iter().all(|r| r.iterations_done <= 40);
        assert!(capped, "{cell}: a phase overran the cap");
        assert_rescue_only(cell, &a, start_ok);
        if start_ok {
            assert!(ctx.feasible(&a.assignment), "{cell}: capped run left the feasible region");
        } else {
            let want = best_of_both(ctx, &cap);
            assert!(a.assignment == want.assignment, "{cell}: capped rescue is not the reference");
        }
        exhausted += usize::from(a.exhausted());
    });
    assert!(exhausted > 81, "the cap bound on only {exhausted} of 162 cells");
}

/// The stage-net construction is what beats the former flow: at slew
/// margin 1.02 and an 8 ps skew budget on N32, where the reference's repair
/// branch won over its own downgrade run, `SmartNdr` is cheaper still.
#[test]
fn stage_construction_beats_the_reference_on_tight_n32_cells() {
    let tech = Technology::n32();
    // (sinks, seed, minimum saving of SmartNdr over the reference).
    for (sinks, seed, min_saving) in [(400, 1, 0.02), (60, 3, 0.01)] {
        let (design, tree) = design(&tech, sinks, seed);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()))
            .with_constraints(Constraints::relative(&tree, &tech, 1.02, 8.0));
        let smart = SmartNdr::default().optimize(&ctx);
        let reference = best_of_both(&ctx, &Budget::unlimited()).assignment;
        assert!(smart.meets_constraints() && ctx.feasible(&reference), "{sinks}/{seed}");
        let (s, r) = (smart.power().network_uw(), ctx.power(&reference).network_uw());
        assert!(
            s <= r * (1.0 - min_saving),
            "N32 {sinks} sinks seed {seed}: smart {s:.3} uW vs reference {r:.3} uW"
        );
    }
}
