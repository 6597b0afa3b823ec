//! The headline smart-NDR flow: two downgrade constructions from the
//! conservative start, with upgrade-repair as the rescue.

use crate::greedy::Menu;
use crate::start::StageNets;
use crate::supervise::Meter;
use crate::{
    Budget, EvalSession, GreedyDowngrade, GreedyUpgradeRepair, NdrOptimizer, OptContext,
    Outcome, Parallelism, SupervisedRun,
};
use snr_cts::Assignment;
use snr_power::PowerReport;
use snr_timing::TimingReport;

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
        let menu = Menu::new(ctx.tech());
        let StageNets { nets, by_depth } = ctx.start().stage_nets();
        let mut depths = Meter::start(&self.budget, "stage-depths");
        for group in by_depth.iter().rev().filter(|group| !group.is_empty()) {
            if !depths.tick() {
                break;
            }
            GreedyDowngrade::lower_group(ctx, &mut session, &menu, group);
        }
        let depths = depths.report();
        let mut passes = Meter::start(&self.budget, "stage-nets");
        'passes: loop {
            let mut committed = false;
            for net in nets {
                if !passes.tick() {
                    break 'passes;
                }
                committed |= GreedyDowngrade::lower_group(ctx, &mut session, &menu, net);
            }
            if !committed {
                break;
            }
        }
        let passes = passes.report();
        let events = session.degradation_events();
        let mut run = downgrade.refine_session(ctx, session);
        run.budgets.splice(0..0, [depths, passes]);
        run.degradations.splice(0..0, events);
        run
    }

    /// The flow's run, with the pick's evaluation of the result when the
    /// constructions ran: the run's assignment analyzed, its power and its
    /// verdict under `ctx`.
    fn run(&self, ctx: &OptContext<'_>) -> (SupervisedRun, Option<Evaluated>) {
        let downgrade = GreedyDowngrade::new().with_budget(self.budget.clone());
        let start = ctx.start();
        if !ctx.meets(start.assignment(), start.timing()) {
            // The rescue: repair the all-default tree, then harvest the
            // slack repair leaves on non-critical edges.
            let upgrade = GreedyUpgradeRepair::new().with_budget(self.budget.clone());
            let mut run = upgrade.assign_supervised(ctx);
            let repaired = std::mem::replace(&mut run.assignment, start.assignment().clone());
            run.assignment = run.absorb(downgrade.refine_supervised(ctx, repaired));
            return (run, None);
        }
        // Receipts and events of both constructions are kept: the ladder
        // reports everything that happened during the run. Both start from
        // one session, a copy of the tree's engine.
        let session = ctx.session();
        let mut run = downgrade.refine_session(ctx, session.clone());
        let mut staged = self.stage_nets(ctx, &downgrade, session);
        // The stage nets win when feasible and, unless greedy downgrade is
        // infeasible, cheaper.
        let stage = Evaluated::of(ctx, &staged.assignment);
        let mut down = None;
        let take_stage = stage.meets && {
            let d = down.insert(Evaluated::of(ctx, &run.assignment));
            !d.meets || stage.power.network_uw() < d.power.network_uw()
        };
        let picked = if take_stage {
            std::mem::swap(&mut run.assignment, &mut staged.assignment);
            stage
        } else {
            down.unwrap_or_else(|| Evaluated::of(ctx, &run.assignment))
        };
        run.absorb(staged);
        (run, Some(picked))
    }
}

/// An assignment's analysis, power and verdict under one context: what
/// [`OptContext::outcome`] computes.
struct Evaluated {
    timing: TimingReport,
    power: PowerReport,
    meets: bool,
}

impl Evaluated {
    fn of(ctx: &OptContext<'_>, assignment: &Assignment) -> Self {
        let timing = ctx.analyze(assignment);
        let meets = ctx.meets(assignment, &timing);
        Evaluated { timing, power: ctx.power(assignment), meets }
    }
}

impl NdrOptimizer for SmartNdr {
    fn name(&self) -> &str {
        "smart-ndr"
    }

    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun {
        self.run(ctx).0
    }

    /// As the default, but the outcome reuses the pick's evaluation of the
    /// result instead of analyzing it again.
    fn optimize(&self, ctx: &OptContext<'_>) -> Outcome {
        let start = std::time::Instant::now();
        let (run, picked) = self.run(ctx);
        let elapsed = start.elapsed();
        let outcome = match picked {
            Some(Evaluated { timing, power, meets }) => {
                Outcome::new(self.name(), run.assignment, power, timing, meets, elapsed)
            }
            None => ctx.outcome(self.name(), run.assignment, elapsed),
        };
        outcome.with_supervision(run.budgets, run.degradations)
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
