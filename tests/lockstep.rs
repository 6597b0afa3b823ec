//! Lockstep equality: `SmartNdr::optimize_all` gives every context exactly
//! the outcome `SmartNdr::optimize` gives it alone — the assignment, the
//! bits of power, skew and worst slew, the verdict, every budget receipt's
//! phase, iterations and `exhausted` flag, and the degradations — at one
//! worker and at three.
//!
//! The contexts of one call share a tree state: the nine constraint sets of
//! `tests/common` and the default Pareto sweep's 15 limit sets, so one call
//! holds rescues (the track set), corner contexts (a group of their own),
//! window members and members that leave their group as forks.

mod common;

use smart_ndr::core::{
    Budget, CancelToken, Constraints, DegradationEvent, EvalMode, ExecFault, NdrOptimizer,
    OptContext, Outcome, Parallelism, SmartNdr, TreeState,
};
use smart_ndr::cts::{synthesize, Assignment, CtsOptions};
use smart_ndr::netlist::{random_timing_arcs, BenchmarkSpec, Design};
use smart_ndr::power::PowerModel;
use smart_ndr::tech::{RuleSet, Technology};

/// Everything of an outcome but its run time.
type Bits = (Assignment, [u64; 3], bool, Vec<(&'static str, u64, bool)>, Vec<DegradationEvent>);

fn bits(out: &Outcome) -> Bits {
    let power = out.power().network_uw().to_bits();
    let timing = [power, out.timing().skew_ps().to_bits(), out.timing().max_slew_ps().to_bits()];
    let receipts = out.budget_reports().iter().map(|b| (b.phase, b.iterations_done, b.exhausted));
    (
        out.assignment().clone(),
        timing,
        out.meets_constraints(),
        receipts.collect(),
        out.degradations().to_vec(),
    )
}

/// Asserts that `opt.optimize_all(ctxs)` at one and at three workers gives
/// each context the outcome `opt.optimize` gives it alone.
fn check(label: &str, opt: &SmartNdr, ctxs: &[OptContext<'_>]) {
    let alone: Vec<Bits> = ctxs.iter().map(|ctx| bits(&opt.optimize(ctx))).collect();
    for jobs in [1, 3] {
        let together = opt.optimize_all(ctxs, Parallelism::new(jobs));
        assert_eq!(together.len(), ctxs.len(), "{label}: one outcome per context");
        for (i, (out, want)) in together.iter().zip(&alone).enumerate() {
            assert!(bits(out) == *want, "{label}, {jobs} jobs: context {i} differs from its solo run");
        }
    }
}

/// The contexts of one call over `start`: the nine constraint sets of
/// `tests/common`, then the default sweep's 15 limit sets (three slew
/// margins under three skew budgets and two ±w ps windows).
fn contexts<'s>(design: &Design, start: &'s TreeState<'s>) -> Vec<OptContext<'s>> {
    let mut ctxs: Vec<OptContext<'s>> =
        common::SETS.iter().map(|set| common::under(set, design, OptContext::sharing(start))).collect();
    let (slew, skew) = (start.timing().max_slew_ps(), start.timing().skew_ps());
    let count = (design.sinks().len() / 2).clamp(1, 400);
    for margin in [1.05, 1.10, 1.25] {
        for budget in [10.0, 30.0, 60.0] {
            let limits = Constraints::try_over_baseline(slew, skew, margin, budget).unwrap();
            ctxs.push(OptContext::sharing(start).with_constraints(limits));
        }
        for w in [40.0, 15.0] {
            let limits = Constraints::try_over_baseline(slew, skew, margin, 150.0).unwrap();
            let arcs = random_timing_arcs(design, count, (w, w), (w, w), 77);
            ctxs.push(OptContext::sharing(start).with_constraints(limits).with_timing_arcs(arcs).unwrap());
        }
    }
    ctxs
}

fn design(sinks: usize, seed: u64) -> Design {
    BenchmarkSpec::new(format!("lock{sinks}"), sinks).seed(seed).build().unwrap()
}

/// The lock corpus on N45 under the standard, extended and shielded menus
/// and on N32, 24 contexts per call.
#[test]
fn every_context_gets_its_solo_outcome() {
    let n45 = Technology::n45();
    let techs = [
        ("n45", n45.clone()),
        ("n45 extended", n45.with_rules(RuleSet::extended())),
        ("n45 shielded", n45.with_rules(RuleSet::with_shielding())),
        ("n32", Technology::n32()),
    ];
    for (sinks, seed) in [(60, 1), (180, 2), (400, 3)] {
        let design = design(sinks, seed);
        for (name, tech) in &techs {
            let tree = synthesize(&design, tech, &CtsOptions::default()).unwrap();
            let start = TreeState::new(&tree, tech, PowerModel::new(design.freq_ghz()));
            let ctxs = contexts(&design, &start);
            check(&format!("{} {name}", design.name()), &SmartNdr::default(), &ctxs);
        }
    }
}

/// Iteration caps binding inside every phase, an already fired token, and
/// contexts on full re-analysis, which run alone.
#[test]
fn budgets_and_full_reanalysis_give_solo_outcomes() {
    let design = design(400, 3);
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
    let start = TreeState::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
    let ctxs = contexts(&design, &start);
    for cap in [3, 100, 197, 500, 870] {
        let capped = SmartNdr::default().with_budget(Budget::unlimited().with_max_iters(cap));
        check(&format!("cap {cap}"), &capped, &ctxs);
    }
    let fired = CancelToken::new();
    fired.cancel();
    let cancelled = SmartNdr::default().with_budget(Budget::unlimited().with_token(fired));
    check("fired token", &cancelled, &ctxs);

    let full: Vec<OptContext<'_>> = ["default", "tight", "window15", "corners"]
        .iter()
        .map(|set| {
            let ctx = OptContext::sharing(&start).with_eval_mode(EvalMode::FullReanalysis);
            common::under(set, &design, ctx)
        })
        .chain(contexts(&design, &start).into_iter().take(2))
        .collect();
    check("full re-analysis", &SmartNdr::default(), &full);
}

/// A group whose contexts share an armed divergence fault trips its guard:
/// its members rerun alone and report their own degradations, as the
/// leader does. With the guard on every commit and the fault on the first,
/// the trip comes while most members are still in their groups.
#[test]
fn a_group_that_diverges_gives_solo_outcomes() {
    let design = design(180, 2);
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
    let start = TreeState::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
    for (every, at_commit) in [(8, 2), (8, 40), (1, 1)] {
        let fault = ExecFault::Divergence { at_commit, delta_ps: 1e-3 };
        let ctxs: Vec<OptContext<'_>> = contexts(&design, &start)
            .into_iter()
            .map(|ctx| ctx.with_divergence_guard(every, 1e-6).with_exec_fault(fault))
            .collect();
        check(&format!("divergence at commit {at_commit}"), &SmartNdr::default(), &ctxs);
        let out = SmartNdr::default().optimize_all(&ctxs, Parallelism::serial());
        let tripped = out.iter().filter(|o| !o.degradations().is_empty()).count();
        assert!(tripped > 10, "commit {at_commit}: {tripped} contexts tripped");
    }
}
