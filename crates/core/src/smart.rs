//! The headline smart-NDR flow: two downgrade constructions from the
//! conservative start, with upgrade-repair as the rescue.

use crate::greedy::Menu;
use crate::session::{Fork, GroupEnd};
use crate::start::StageNets;
use crate::supervise::Meter;
use crate::{
    Budget, BudgetReport, DegradationEvent, EvalSession, GreedyDowngrade, GreedyUpgradeRepair,
    NdrOptimizer, OptContext, Outcome, Parallelism, SupervisedRun,
};
use snr_cts::Assignment;
use snr_par::par_map;
use snr_power::PowerReport;
use snr_timing::{TimingReport, TimingSummary};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

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
/// [`SmartNdr::optimize_all`] runs the flow for many contexts over one
/// tree together, such as the points of a Pareto sweep, and gives each the
/// outcome [`NdrOptimizer::optimize`] gives it alone.
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

/// One of the two downgrade constructions.
#[derive(Debug, Clone, Copy)]
enum Construction {
    Greedy,
    Stage,
}

/// One run of a wave.
enum Job<'c, 'a> {
    /// The rescue of the context of this index.
    Rescue(usize),
    /// A construction from the conservative start for the contexts of these
    /// indices, the first leading.
    Root(Construction, Vec<usize>),
    /// A construction replaying a fork.
    Replay(Construction, Box<Fork<'c, 'a>>),
}

/// What a run of a wave gives.
enum Done<'c, 'a> {
    Rescue(usize, SupervisedRun),
    /// The run every context of the end's members (the leader first)
    /// shares, and its forks and detached contexts.
    Run(Construction, SupervisedRun, GroupEnd<'c, 'a>),
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

    /// Returns the flow unchanged. [`optimize_all`](Self::optimize_all)
    /// takes its parallelism per call, and a single context always runs
    /// serially; this no-op only keeps existing callers building and goes
    /// away with them.
    pub fn with_parallelism(self, _parallelism: Parallelism) -> Self {
        self
    }

    /// Runs the flow for every context of `ctxs`, returning their outcomes
    /// in order. Each outcome is exactly the one [`NdrOptimizer::optimize`]
    /// gives its context alone, run time aside: the same assignment, power,
    /// timing, verdict, budget receipts and degradations, whatever `par`.
    ///
    /// Contexts whose start meets their constraints and that share a tree
    /// state, corners, evaluation mode and divergence guard run each
    /// construction in lockstep: one engine try per committed state, judged
    /// under every context's limits. A context that judges a try the other
    /// way leaves as a fork, which replays the construction from the start
    /// and goes on alone (or with the others that left with it) from the
    /// split. Rescues and contexts that fit no group run alone. Each wave of
    /// runs, first the constructions' roots, then the forks the previous
    /// wave left, runs on `par`'s workers. The picks analyze each distinct
    /// result once.
    pub fn optimize_all(&self, ctxs: &[OptContext<'_>], par: Parallelism) -> Vec<Outcome> {
        let started = Instant::now();
        let downgrade = GreedyDowngrade::new().with_budget(self.budget.clone());
        let mut wave = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, ctx) in ctxs.iter().enumerate() {
            if !ctx.start_meets() {
                wave.push(Job::Rescue(i));
            } else if let Some(group) = groups.iter_mut().find(|g| ctxs[g[0]].groups_with(ctx)) {
                group.push(i);
            } else {
                groups.push(vec![i]);
            }
        }
        for group in &groups {
            wave.push(Job::Root(Construction::Greedy, group.clone()));
            wave.push(Job::Root(Construction::Stage, group.clone()));
        }
        let index = |ctx: &OptContext<'_>| {
            let ctx = (ctx as *const OptContext<'_>).cast::<()>();
            ctxs.iter().position(|c| std::ptr::eq((c as *const OptContext<'_>).cast(), ctx))
                .expect("a run's contexts come from `ctxs`")
        };
        let mut runs: Vec<[Option<SupervisedRun>; 2]> = vec![[None, None]; ctxs.len()];
        let mut rescued: Vec<Option<SupervisedRun>> = vec![None; ctxs.len()];
        while !wave.is_empty() {
            let jobs: Vec<Mutex<Option<Job<'_, '_>>>> =
                wave.into_iter().map(|job| Mutex::new(Some(job))).collect();
            let done = par_map(par, &jobs, |_, job| {
                let job = job.lock().unwrap_or_else(PoisonError::into_inner).take();
                self.run(&downgrade, ctxs, job.expect("every job runs once"))
            });
            wave = Vec::new();
            for done in done {
                match done {
                    Done::Rescue(i, run) => rescued[i] = Some(run),
                    Done::Run(construction, run, end) => {
                        let (last, rest) = end.members.split_last().expect("a run has a leader");
                        for &ctx in rest {
                            runs[index(ctx)][construction as usize] = Some(run.clone());
                        }
                        runs[index(last)][construction as usize] = Some(run);
                        wave.extend(end.forks.into_iter().map(|fork| Job::Replay(construction, Box::new(fork))));
                        wave.extend(
                            end.detached.iter().map(|&ctx| Job::Root(construction, vec![index(ctx)])),
                        );
                    }
                }
            }
        }
        let elapsed = started.elapsed();
        let mut outcomes: Vec<Option<Outcome>> = vec![None; ctxs.len()];
        for (i, run) in rescued.into_iter().enumerate() {
            if let Some(run) = run {
                let outcome = ctxs[i].outcome(self.name(), run.assignment, elapsed);
                outcomes[i] = Some(outcome.with_supervision(run.budgets, run.degradations));
            }
        }
        for group in &groups {
            // The group's leader analyzes each distinct result once for
            // every member.
            let leader = &ctxs[group[0]];
            let mut analyses: Vec<Analysis> = Vec::new();
            for &i in group {
                let ctx = &ctxs[i];
                let [down, staged] = std::mem::take(&mut runs[i]);
                let (mut run, mut staged) = (
                    down.expect("every member ran greedy downgrade"),
                    staged.expect("every member ran the stage nets"),
                );
                let s = Analysis::find(&mut analyses, leader, &staged.assignment);
                let d = Analysis::find(&mut analyses, leader, &run.assignment);
                let (s, d) = (&analyses[s], &analyses[d]);
                // The stage nets win when feasible and, unless greedy
                // downgrade is infeasible, cheaper. Receipts and events of
                // both constructions are kept: the ladder reports everything
                // that happened during the run.
                let take_stage = s.meets(ctx) && (!d.meets(ctx) || s.power.network_uw() < d.power.network_uw());
                let picked = if take_stage {
                    std::mem::swap(&mut run.assignment, &mut staged.assignment);
                    s
                } else {
                    d
                };
                run.absorb(staged);
                let (power, timing, meets) = (picked.power, picked.timing.clone(), picked.meets(ctx));
                let outcome = Outcome::new(self.name(), run.assignment, power, timing, meets, elapsed);
                outcomes[i] = Some(outcome.with_supervision(run.budgets, run.degradations));
            }
        }
        outcomes.into_iter().map(|out| out.expect("every context has an outcome")).collect()
    }

    /// Runs one job of a wave.
    fn run<'c, 'a>(
        &self,
        downgrade: &GreedyDowngrade,
        ctxs: &'c [OptContext<'a>],
        job: Job<'c, 'a>,
    ) -> Done<'c, 'a> {
        let (construction, mut session) = match job {
            Job::Rescue(i) => return Done::Rescue(i, self.rescue(downgrade, &ctxs[i])),
            Job::Root(construction, group) => {
                let members: Vec<&OptContext<'a>> = group[1..].iter().map(|&i| &ctxs[i]).collect();
                (construction, EvalSession::grouped(&ctxs[group[0]], &members))
            }
            Job::Replay(construction, fork) => (construction, EvalSession::replay(*fork)),
        };
        let leader = session.leader();
        let (budgets, degradations) = match construction {
            Construction::Greedy => {
                let budgets = downgrade.refine_in(&mut session);
                (budgets, session.degradation_events())
            }
            Construction::Stage => self.stage_nets(downgrade, &mut session),
        };
        let (assignment, mut end) = session.finish();
        end.members.insert(0, leader);
        Done::Run(construction, SupervisedRun { assignment, budgets, degradations }, end)
    }

    /// The rescue: repair the all-default tree, then harvest the slack
    /// repair leaves on non-critical edges.
    fn rescue(&self, downgrade: &GreedyDowngrade, ctx: &OptContext<'_>) -> SupervisedRun {
        let upgrade = GreedyUpgradeRepair::new().with_budget(self.budget.clone());
        let mut run = upgrade.assign_supervised(ctx);
        let repaired = std::mem::replace(&mut run.assignment, ctx.start().assignment().clone());
        run.assignment = run.absorb(downgrade.refine_supervised(ctx, repaired));
        run
    }

    /// The stage-net construction on `session`, from its feasible committed
    /// state, which it hands on to the refine: the receipts and
    /// degradations of its phases and the refine's.
    fn stage_nets(
        &self,
        downgrade: &GreedyDowngrade,
        session: &mut EvalSession<'_, '_>,
    ) -> (Vec<BudgetReport>, Vec<DegradationEvent>) {
        let ctx = session.leader();
        let menu = Menu::new(ctx.tech());
        let StageNets { nets, by_depth } = ctx.start().stage_nets();
        let mut depths = Meter::start(&self.budget, "stage-depths");
        for group in by_depth.iter().rev().filter(|group| !group.is_empty()) {
            if !depths.tick() {
                break;
            }
            GreedyDowngrade::lower_group(ctx, session, &menu, group);
        }
        let depths = depths.report();
        let mut passes = Meter::start(&self.budget, "stage-nets");
        'passes: loop {
            let mut committed = false;
            for net in nets {
                if !passes.tick() {
                    break 'passes;
                }
                committed |= GreedyDowngrade::lower_group(ctx, session, &menu, net);
            }
            if !committed {
                break;
            }
        }
        let mut budgets = vec![depths, passes.report()];
        // A tripped guard gives the refine fresh engines, and the session
        // then holds the refine's degradations only.
        let mut degradations = session.degradation_events();
        budgets.extend(downgrade.refine_in(session));
        degradations.extend(session.degradation_events());
        (budgets, degradations)
    }
}

/// One distinct result of a group's constructions, analyzed once: its
/// nominal report, power and corner summaries, which every member's verdict
/// reads.
struct Analysis {
    assignment: Assignment,
    timing: TimingReport,
    power: PowerReport,
    corners: Vec<TimingSummary>,
}

impl Analysis {
    fn of(ctx: &OptContext<'_>, assignment: &Assignment) -> Self {
        Analysis {
            assignment: assignment.clone(),
            timing: ctx.analyze(assignment),
            power: ctx.power(assignment),
            corners: ctx.corner_summaries(assignment),
        }
    }

    /// The index in `analyses` of `assignment`'s analysis, run by `ctx` and
    /// appended when it is not there yet.
    fn find(analyses: &mut Vec<Analysis>, ctx: &OptContext<'_>, assignment: &Assignment) -> usize {
        analyses.iter().position(|a| a.assignment == *assignment).unwrap_or_else(|| {
            analyses.push(Analysis::of(ctx, assignment));
            analyses.len() - 1
        })
    }

    /// [`OptContext::meets`] under `ctx`.
    fn meets(&self, ctx: &OptContext<'_>) -> bool {
        ctx.meets_report(&self.assignment, &self.timing) && ctx.meets_corners(&self.corners)
    }
}

impl NdrOptimizer for SmartNdr {
    fn name(&self) -> &str {
        "smart-ndr"
    }

    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun {
        let out = self.optimize(ctx);
        SupervisedRun {
            assignment: out.assignment().clone(),
            budgets: out.budget_reports().to_vec(),
            degradations: out.degradations().to_vec(),
        }
    }

    /// [`SmartNdr::optimize_all`] over `ctx` alone, on this thread.
    fn optimize(&self, ctx: &OptContext<'_>) -> Outcome {
        let mut outcomes = self.optimize_all(std::slice::from_ref(ctx), Parallelism::serial());
        outcomes.pop().expect("one outcome per context")
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
