//! Lockstep property test: on random small trees, `SmartNdr::optimize_all`
//! over contexts with random slew margins, skew budgets, useful-skew
//! windows and track budgets gives every context exactly the outcome
//! `SmartNdr::optimize` gives it alone.

use proptest::prelude::*;
use snr_core::{Constraints, NdrOptimizer, OptContext, Outcome, Parallelism, SmartNdr, TreeState};
use snr_cts::{synthesize, Assignment, CtsOptions};
use snr_netlist::{random_timing_arcs, BenchmarkSpec, Design};
use snr_power::PowerModel;
use snr_tech::Technology;

/// Everything of an outcome but its run time: the assignment, the bits of
/// power, skew and slew, the verdict, the receipts and the degradations.
type Bits = (Assignment, [u64; 3], bool, Vec<(&'static str, u64, bool)>, usize);

fn bits(out: &Outcome) -> Bits {
    let timing = [
        out.power().network_uw().to_bits(),
        out.timing().skew_ps().to_bits(),
        out.timing().max_slew_ps().to_bits(),
    ];
    let receipts = out.budget_reports().iter().map(|b| (b.phase, b.iterations_done, b.exhausted));
    (out.assignment().clone(), timing, out.meets_constraints(), receipts.collect(), out.degradations().len())
}

fn arb_design() -> impl Strategy<Value = Design> {
    (8usize..90, 0u64..1_000).prop_map(|(n, seed)| {
        BenchmarkSpec::new(format!("ls{n}-{seed}"), n).seed(seed).build().expect("spec is valid")
    })
}

/// One context's limits: a slew margin, a skew budget, a window (0 for
/// none) and a track fraction (0 for none).
fn arb_limits() -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
    proptest::collection::vec((1.0f64..1.6, 1.0f64..120.0, 0.0f64..40.0, 0.0f64..1.0), 2..9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_context_gets_its_solo_outcome(design in arb_design(), limits in arb_limits(), jobs in 1usize..4) {
        let tech = if design.sinks().len() % 2 == 0 { Technology::n45() } else { Technology::n32() };
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let start = TreeState::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
        let (slew, skew) = (start.timing().max_slew_ps(), start.timing().skew_ps());
        let track_um = start.power().track_cost_um();
        let ctxs: Vec<OptContext<'_>> = limits
            .iter()
            .map(|&(margin, budget, window, frac)| {
                let mut limits = Constraints::try_over_baseline(slew, skew, margin, budget).unwrap();
                // Fractions under a half leave the track budget off.
                if frac >= 0.5 && track_um > 0.0 {
                    limits = limits.with_track_budget_um(frac.max(0.8) * track_um);
                }
                let ctx = OptContext::sharing(&start).with_constraints(limits);
                if window >= 5.0 {
                    let count = (design.sinks().len() / 2).max(1);
                    let arcs = random_timing_arcs(&design, count, (window, window), (window, window), 77);
                    ctx.with_timing_arcs(arcs).unwrap()
                } else {
                    ctx
                }
            })
            .collect();
        let together = SmartNdr::default().optimize_all(&ctxs, Parallelism::new(jobs));
        for (i, (ctx, out)) in ctxs.iter().zip(&together).enumerate() {
            let alone = SmartNdr::default().optimize(ctx);
            prop_assert!(bits(out) == bits(&alone), "context {} differs from its solo run", i);
        }
    }
}
