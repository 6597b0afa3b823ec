//! The headline smart-NDR flow: two downgrade constructions from the
//! conservative start, with upgrade-repair as the rescue.

use crate::supervise::Meter;
use crate::{
    Budget, DegradationEvent, EvalSession, GreedyDowngrade, GreedyUpgradeRepair, NdrOptimizer,
    OptContext, Parallelism, SupervisedRun,
};
use snr_cts::{Assignment, NodeId};

/// The full smart-NDR flow as the experiments report it: downgrade edges
/// from the uniform-conservative rule where their context allows it.
///
/// When the conservative start meets the constraints, the flow runs two
/// downgrade constructions from it and keeps the cheaper result:
///
/// 1. [`GreedyDowngrade`]: depth-synchronized group moves, then per-edge
///    refinement.
/// 2. The *stage-net* construction. A stage net is the wire from one
///    buffer output (or the root) to the next buffer inputs and sinks.
///    - Deepest buffer depth first, all stage nets of one depth move
///      together to the cheapest-capacitance rule that stays feasible
///      (phase `"stage-depths"`, one tick per depth tried).
///    - Passes then move each stage net to its cheapest feasible rule until
///      a pass commits nothing (phase `"stage-nets"`, one tick per net
///      tried).
///    - [`GreedyDowngrade::refine`] polishes the result per edge.
///
/// Both constructions commit only feasible moves, so the result is
/// feasible. A conservative start that violates the constraints (in
/// practice, a track budget below its track cost) cannot be downgraded.
/// Then, and only then, the flow runs the rescue: [`GreedyUpgradeRepair`]
/// from the all-default start, polished by [`GreedyDowngrade::refine`].
/// So only the rescue can take the `optimizer_to_baseline` rung.
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
    budget: Budget,
}

impl SmartNdr {
    /// Creates the flow under an unlimited budget.
    pub fn new() -> Self {
        SmartNdr::default()
    }

    /// Returns a copy with every phase of every construction bounded by
    /// `budget`.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Returns the flow unchanged. The flow always runs serially; this
    /// no-op only keeps existing callers building and goes away with them.
    pub fn with_parallelism(self, _parallelism: Parallelism) -> Self {
        self
    }

    /// The stage-net construction from the feasible committed state of
    /// `session`, which it hands on to the refine.
    fn stage_nets(
        &self,
        ctx: &OptContext<'_>,
        downgrade: &GreedyDowngrade,
        mut session: EvalSession<'_, '_>,
    ) -> SupervisedRun {
        let tree = ctx.tree();
        let by_cap = GreedyDowngrade::rules_by_cap(ctx);
        // The stage nets with their drivers' buffer depths, numbered as first
        // met in id order. The edge above a node joins the net its parent
        // drives (a buffer or the root) or belongs to.
        let mut net_of: Vec<Option<usize>> = vec![None; tree.len()];
        let mut depth = vec![0usize; tree.len()];
        let mut nets: Vec<(usize, Vec<NodeId>)> = Vec::new();
        for v in tree.edges() {
            let p = tree.node(v).parent().expect("an edge has a parent");
            let net = *net_of[p.0].get_or_insert_with(|| {
                nets.push((depth[p.0], Vec::new()));
                nets.len() - 1
            });
            nets[net].1.push(v);
            if tree.node(v).kind().is_buffer() {
                depth[v.0] = depth[p.0] + 1;
            } else {
                (net_of[v.0], depth[v.0]) = (Some(net), depth[p.0]);
            }
        }

        let mut depths = Meter::start(&self.budget, "stage-depths");
        let max_depth = nets.iter().map(|(d, _)| *d).max().unwrap_or(0);
        for d in (0..=max_depth).rev() {
            let group: Vec<NodeId> = nets
                .iter()
                .filter(|(nd, _)| *nd == d)
                .flat_map(|(_, net)| net.iter().copied())
                .collect();
            if group.is_empty() {
                continue;
            }
            if !depths.tick() {
                break;
            }
            GreedyDowngrade::lower_group(ctx, &mut session, &by_cap, &group);
        }
        let depths = depths.report();
        let mut passes = Meter::start(&self.budget, "stage-nets");
        'passes: loop {
            let mut committed = false;
            for (_, net) in &nets {
                if !passes.tick() {
                    break 'passes;
                }
                committed |= GreedyDowngrade::lower_group(ctx, &mut session, &by_cap, net);
            }
            if !committed {
                break;
            }
        }
        let passes = passes.report();
        let events: Vec<DegradationEvent> = session
            .degradations()
            .iter()
            .copied()
            .map(DegradationEvent::IncrementalToFull)
            .collect();
        let mut run = downgrade.refine_session(ctx, session);
        run.budgets.splice(0..0, [depths, passes]);
        run.degradations.splice(0..0, events);
        run
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
        let downgrade = GreedyDowngrade::new().with_budget(self.budget.clone());
        let start = ctx.conservative_assignment();
        if !ctx.feasible(&start) {
            // The rescue: repair the all-default tree, then harvest the
            // slack repair leaves on non-critical edges.
            let upgrade = GreedyUpgradeRepair::new().with_budget(self.budget.clone());
            let mut run = upgrade.assign_supervised(ctx);
            let repaired = std::mem::replace(&mut run.assignment, start);
            run.assignment = run.absorb(downgrade.refine_supervised(ctx, repaired));
            return run;
        }
        // Receipts and events of both constructions are kept: the ladder
        // reports everything that happened during the run. Both start from
        // one session: building its engines costs more than copying them.
        let session = ctx.session_from(start);
        let mut run = downgrade.refine_session(ctx, session.clone());
        let mut staged = self.stage_nets(ctx, &downgrade, session);
        let (down, stage) = (&run.assignment, &staged.assignment);
        let take_stage = ctx.feasible(stage)
            && (!ctx.feasible(down)
                || ctx.power(stage).network_uw() < ctx.power(down).network_uw());
        if take_stage {
            std::mem::swap(&mut run.assignment, &mut staged.assignment);
        }
        run.absorb(staged);
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
    fn never_worse_than_greedy_downgrade() {
        let (tree, tech) = fixture(120);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let smart = SmartNdr::default().optimize(&ctx);
        let down = GreedyDowngrade::default().optimize(&ctx);
        assert!(smart.meets_constraints());
        assert!(smart.power().network_uw() <= down.power().network_uw() + 1e-9);
        let phases: Vec<&str> = smart.budget_reports().iter().map(|b| b.phase).collect();
        assert!(
            !phases.contains(&"upgrade-repair"),
            "feasible start, no rescue: {phases:?}"
        );
    }

    #[test]
    fn rescues_an_infeasible_start_with_upgrade_repair() {
        let (tree, tech) = fixture(120);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let base_um = ctx.conservative_baseline().power().track_cost_um();
        let budget = ctx.constraints().with_track_budget_um(0.8 * base_um);
        let ctx = ctx.with_constraints(budget);
        assert!(!ctx.conservative_baseline().meets_constraints());
        let smart = SmartNdr::default().optimize(&ctx);
        let phases: Vec<&str> = smart.budget_reports().iter().map(|b| b.phase).collect();
        assert_eq!(phases, ["upgrade-repair", "greedy-levels", "greedy-refine"]);
        let up = GreedyUpgradeRepair::default().assign(&ctx);
        assert_eq!(
            smart.assignment(),
            &GreedyDowngrade::default().refine(&ctx, up)
        );
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
