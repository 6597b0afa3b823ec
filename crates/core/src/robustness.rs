//! Variation-robustness enforcement.
//!
//! NDRs exist to control delay *variability*, so a smart assignment that
//! wins nominal power but loses Monte-Carlo σ-skew has cheated. This module
//! closes the loop: it verifies an assignment's σ-skew against a budget and
//! repairs violations by re-widening the most variation-critical edges.

use crate::OptContext;
use snr_cts::{Assignment, NodeId};
use snr_par::CancelToken;
use snr_variation::{MonteCarlo, VariationModel, VariationReport};

/// A σ-skew budget with the Monte-Carlo engine that measures it.
///
/// # Examples
///
/// ```
/// use snr_core::RobustnessSpec;
/// use snr_variation::VariationModel;
///
/// let spec = RobustnessSpec::new(10.0, VariationModel::default(), 100, 7);
/// assert_eq!(spec.sigma_skew_limit_ps(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessSpec {
    sigma_skew_limit_ps: f64,
    model: VariationModel,
    samples: usize,
    seed: u64,
}

impl RobustnessSpec {
    /// Creates a spec: σ-skew must stay at or below
    /// `sigma_skew_limit_ps` under `model`, measured with `samples`
    /// Monte-Carlo samples at `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the limit is not positive or `samples` is zero.
    pub fn new(sigma_skew_limit_ps: f64, model: VariationModel, samples: usize, seed: u64) -> Self {
        assert!(
            sigma_skew_limit_ps.is_finite() && sigma_skew_limit_ps > 0.0,
            "sigma-skew limit {sigma_skew_limit_ps} must be positive"
        );
        assert!(samples > 0, "need at least one sample");
        RobustnessSpec {
            sigma_skew_limit_ps,
            model,
            samples,
            seed,
        }
    }

    /// The σ-skew budget in ps.
    pub fn sigma_skew_limit_ps(&self) -> f64 {
        self.sigma_skew_limit_ps
    }

    /// The Monte-Carlo engine for this spec.
    pub fn monte_carlo(&self) -> MonteCarlo {
        MonteCarlo::new(self.model, self.samples, self.seed)
    }
}

/// Verifies `assignment` against `spec` and repairs violations by upgrading
/// the most variation-critical edges (longest edges on the cheapest rules)
/// one step at a time, a batch per Monte-Carlo round.
///
/// Upgrades that would break the context's *nominal* constraints are
/// reverted (and retried in later rounds, when other upgrades may have
/// freed slack), so a nominally feasible input stays nominally feasible.
///
/// Every round analyzes the same Monte-Carlo draw, drawn once, so each
/// round's report equals [`MonteCarlo::run`] on that round's assignment.
///
/// Returns the repaired assignment, the final variation report, and the
/// number of edge upgrades performed. Terminates — in the worst case at
/// the point where no further upgrade is nominally legal (the conservative
/// uniform when the start was the conservative family's).
///
/// # Panics
///
/// Panics if the assignment references a rule outside the technology's
/// rule set, as [`MonteCarlo::run`] does.
pub fn enforce_robustness(
    ctx: &OptContext<'_>,
    assignment: Assignment,
    spec: &RobustnessSpec,
) -> (Assignment, VariationReport, usize) {
    enforce_rounds(ctx, assignment, spec, |_, _| {})
}

/// [`enforce_robustness`], handing each round's assignment and report to
/// `on_round`.
fn enforce_rounds(
    ctx: &OptContext<'_>,
    assignment: Assignment,
    spec: &RobustnessSpec,
    mut on_round: impl FnMut(&Assignment, &VariationReport),
) -> (Assignment, VariationReport, usize) {
    let tree = ctx.tree();
    let tech = ctx.tech();
    let rules = tech.rules();
    let layer = tech.clock_layer();
    let mc = spec.monte_carlo();
    let start_feasible = ctx.feasible(&assignment);
    // The token never fires, so the only error left is an out-of-range rule.
    let never = CancelToken::new();
    let deviations = mc
        .deviations(tree, &never)
        .expect("an unfired token never cancels");

    let mut asg = assignment;
    let mut upgrades = 0usize;
    loop {
        let report = mc
            .run_with_deviations(tree, tech, &asg, &deviations, &never)
            .unwrap_or_else(|e| panic!("{e}"));
        on_round(&asg, &report);
        if report.sigma_skew_ps() <= spec.sigma_skew_limit_ps {
            return (asg, report, upgrades);
        }
        // Upgrade the top 5% (at least 1) most variation-critical edges:
        // criticality = relative R sensitivity × edge length.
        let mut critical: Vec<(f64, NodeId)> = tree
            .edges()
            .filter(|e| asg.rule(*e) != rules.most_conservative_id())
            .map(|e| {
                let rule = rules.rule(asg.rule(e));
                let len_um = tree.node(e).edge_len_nm() as f64 / 1_000.0;
                (
                    layer.r_sensitivity(rule, spec.model.sigma_w_um()) * len_um,
                    e,
                )
            })
            .collect();
        if critical.is_empty() {
            // Everything conservative: nothing more this repair can do.
            return (asg, report, upgrades);
        }
        critical.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("criticality is finite"));
        let batch = (critical.len() / 20).max(1);
        let mut applied = 0usize;
        for (_, e) in critical.into_iter().take(batch) {
            let current = asg.rule(e);
            let next = rules
                .pricier_than(current)
                .next()
                .expect("filtered to non-conservative edges");
            asg.set(e, next);
            if start_feasible && !ctx.feasible(&asg) {
                asg.set(e, current); // retried next round if slack frees up
            } else {
                upgrades += 1;
                applied += 1;
            }
        }
        if applied == 0 {
            // No nominally legal upgrade left: report the state as-is.
            return (asg, report, upgrades);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyDowngrade, NdrOptimizer};
    use snr_cts::{synthesize, ClockTree, CtsOptions};
    use snr_netlist::BenchmarkSpec;
    use snr_power::PowerModel;
    use snr_tech::Technology;

    fn fixture(n: usize) -> (ClockTree, Technology) {
        let design = BenchmarkSpec::new("t", n).seed(8).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (tree, tech)
    }

    #[test]
    fn generous_budget_is_a_no_op() {
        let (tree, tech) = fixture(60);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let smart = GreedyDowngrade::default().assign(&ctx);
        let spec = RobustnessSpec::new(1e6, VariationModel::default(), 20, 5);
        let (repaired, report, upgrades) = enforce_robustness(&ctx, smart.clone(), &spec);
        assert_eq!(repaired, smart);
        assert_eq!(upgrades, 0);
        assert_eq!(report.n_samples(), 20);
    }

    #[test]
    fn tight_budget_forces_upgrades() {
        let (tree, tech) = fixture(100);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let spec = RobustnessSpec::new(2.0, VariationModel::default(), 40, 5);
        // Start from the *least* robust assignment.
        let default = ctx.default_assignment();
        let before = spec.monte_carlo().run(&tree, &tech, &default);
        let (repaired, after, upgrades) = enforce_robustness(&ctx, default, &spec);
        assert!(after.sigma_skew_ps() <= before.sigma_skew_ps());
        if before.sigma_skew_ps() > 2.0 {
            assert!(upgrades > 0);
        }
        let _ = repaired;
    }

    #[test]
    fn every_round_matches_a_fresh_run() {
        // The rounds share one draw; each round's report must still equal
        // a fresh `MonteCarlo::run` of that round's assignment, bit for bit.
        let (tree, tech) = fixture(100);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let spec = RobustnessSpec::new(2.0, VariationModel::default(), 37, 5);
        let mc = spec.monte_carlo();
        let mut rounds = Vec::new();
        let (repaired, last, upgrades) =
            enforce_rounds(&ctx, ctx.default_assignment(), &spec, |asg, report| {
                rounds.push((asg.clone(), report.clone()));
            });
        assert!(rounds.len() >= 3, "the tight budget takes several rounds");
        for (i, (asg, report)) in rounds.iter().enumerate() {
            assert_eq!(report, &mc.run(&tree, &tech, asg), "round {i}");
        }
        let (final_asg, final_report) = rounds.last().unwrap();
        assert_eq!((&repaired, &last), (final_asg, final_report));
        assert!(upgrades > 0);
        assert_eq!(
            enforce_robustness(&ctx, ctx.default_assignment(), &spec).0,
            repaired
        );
    }

    #[test]
    fn terminates_at_conservative_for_impossible_budget() {
        let (tree, tech) = fixture(60);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let spec = RobustnessSpec::new(1e-9, VariationModel::default(), 10, 5);
        let (repaired, _, _) = enforce_robustness(&ctx, ctx.default_assignment(), &spec);
        // Budget unreachable: the repair saturates with every edge at the
        // most conservative rule.
        for e in tree.edges() {
            assert_eq!(repaired.rule(e), tech.rules().most_conservative_id());
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_limit_panics() {
        let _ = RobustnessSpec::new(0.0, VariationModel::default(), 10, 5);
    }
}
