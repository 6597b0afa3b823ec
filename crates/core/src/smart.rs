//! The headline smart-NDR flow: best of both greedy constructions.

use crate::{
    Budget, GreedyDowngrade, GreedyUpgradeRepair, NdrOptimizer, OptContext, Parallelism,
    SupervisedRun,
};
use snr_cts::Assignment;

/// The full smart-NDR flow as the experiments report it: run the
/// downgrade construction (from uniform-conservative) *and* the
/// upgrade-repair construction (from uniform-default), and keep the
/// cheaper feasible result.
///
/// The two constructions explore the feasible region from opposite ends;
/// which one wins depends on how much of the tree is constraint-critical,
/// so the flow runs both. Either result alone is already feasible whenever
/// the conservative baseline is, so the combination inherits that
/// guarantee. When upgrade-repair ends at the conservative start (it falls
/// back there on window-arc, corner, EM and noise points it cannot repair),
/// the downgrade polish of that start would replay the downgrade run, so
/// the flow reuses that run instead of repeating it.
///
/// # Examples
///
/// ```
/// use snr_core::SmartNdr;
/// let s = SmartNdr::default();
/// assert_eq!(snr_core::NdrOptimizer::name(&s), "smart-ndr");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SmartNdr {
    downgrade: GreedyDowngrade,
    upgrade: GreedyUpgradeRepair,
}

impl SmartNdr {
    /// Creates the flow with both constructions at their defaults.
    pub fn new() -> Self {
        SmartNdr::default()
    }

    /// Returns a copy with both constructions bounded by `budget`.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.downgrade = self.downgrade.with_budget(budget.clone());
        self.upgrade = self.upgrade.with_budget(budget);
        self
    }

    /// Returns the flow unchanged. The flow always runs serially; this
    /// no-op only keeps existing callers building and goes away with them.
    pub fn with_parallelism(self, _parallelism: Parallelism) -> Self {
        self
    }
}

impl NdrOptimizer for SmartNdr {
    fn name(&self) -> &str {
        "smart-ndr"
    }

    fn assign(&self, ctx: &OptContext<'_>) -> Assignment {
        self.assign_supervised(ctx).assignment
    }

    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun {
        let mut run = self.downgrade.assign_supervised(ctx);
        let (down_receipts, down_events) = (run.budgets.len(), run.degradations.len());
        let down = std::mem::replace(&mut run.assignment, ctx.conservative_assignment());
        // Polish the upgrade-repair result with downgrade passes: repair
        // leaves slack on non-critical edges the downgrades can harvest.
        // Supervision records from *both* branches are kept — the ladder
        // reports everything that happened during the run, not just the
        // winner's path.
        let repaired = run.absorb(self.upgrade.assign_supervised(ctx));
        if repaired == run.assignment {
            // Repair fell back to (or ended at) the conservative start, so
            // its polish would replay the downgrade run step for step: same
            // assignment, same receipts, same guard events. Reuse that run.
            // Exact under unlimited and iteration-capped budgets (caps
            // apply per phase); token-cancelled runs are timing-dependent
            // anyway.
            run.budgets.extend_from_within(..down_receipts);
            run.degradations.extend_from_within(..down_events);
            run.assignment = down;
            return run;
        }
        let up = run.absorb(self.downgrade.refine_supervised(ctx, repaired));
        let down_ok = ctx.feasible(&down);
        let up_ok = ctx.feasible(&up);
        run.assignment = match (down_ok, up_ok) {
            (true, true) => {
                if ctx.power(&up).network_uw() < ctx.power(&down).network_uw() {
                    up
                } else {
                    down
                }
            }
            (true, false) => down,
            (false, true) => up,
            // Both infeasible only when even the conservative start is.
            (false, false) => down,
        };
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn never_worse_than_either_construction() {
        let (tree, tech) = fixture(120);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let smart = SmartNdr::default().optimize(&ctx);
        let down = GreedyDowngrade::default().optimize(&ctx);
        let up = GreedyUpgradeRepair::default().optimize(&ctx);
        assert!(smart.meets_constraints());
        let best = down.power().network_uw().min(up.power().network_uw());
        assert!(smart.power().network_uw() <= best + 1e-9);
    }

    #[test]
    fn beats_every_baseline() {
        use crate::{LevelBased, Uniform};
        let (tree, tech) = fixture(120);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let smart = SmartNdr::default().optimize(&ctx);
        for baseline in [
            Uniform::conservative().optimize(&ctx),
            LevelBased.optimize(&ctx),
        ] {
            assert!(
                smart.power().network_uw() <= baseline.power().network_uw() + 1e-9,
                "smart {} vs {} {}",
                smart.power().network_uw(),
                baseline.name(),
                baseline.power().network_uw()
            );
        }
    }
}
