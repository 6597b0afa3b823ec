//! The smart-NDR method: sensitivity-ordered greedy downgrading.

use crate::supervise::Meter;
use crate::{Budget, DegradationEvent, EvalSession, NdrOptimizer, OptContext, SupervisedRun};
use snr_cts::{Assignment, NodeId};

/// The paper's "smart" NDR assignment.
///
/// Two phases, both starting from the constraint-clean uniform-conservative
/// tree:
///
/// 1. **Depth-synchronized group downgrades** — all edges of one tree depth
///    are re-ruled together. Because the DME tree is delay-balanced, a
///    whole-level change perturbs every root-sink path nearly equally, so
///    these moves are skew-neutral and harvest the bulk of the saving.
/// 2. **Per-edge refinement** — edges in order of remaining power gain
///    (capacitance removable per edge, which is exact and closed-form —
///    power is separable per edge), each moved to the lowest-capacitance
///    rule that keeps the tree inside the slew/skew envelope; passes repeat
///    to a fixed point since downgrades consume shared slack.
///
/// Properties the tests verify:
///
/// * the result always meets the constraints when the conservative start
///   does (moves that violate are reverted);
/// * power is monotonically non-increasing over the run, so the result is
///   never worse than the industrial baseline;
/// * with unlimited constraints it collapses to the uniform
///   minimum-capacitance rule, and with zero-slack constraints it returns
///   the conservative start unchanged.
///
/// # Examples
///
/// ```
/// use snr_core::GreedyDowngrade;
/// let g = GreedyDowngrade::default();
/// assert_eq!(snr_core::NdrOptimizer::name(&g), "smart-greedy");
/// ```
#[derive(Debug, Clone)]
pub struct GreedyDowngrade {
    budget: Budget,
}

/// Per-edge refinement passes run at most (each stops early at a fixed
/// point).
const MAX_PASSES: usize = 4;

impl GreedyDowngrade {
    /// Creates the optimizer under an unlimited budget.
    pub fn new() -> Self {
        GreedyDowngrade {
            budget: Budget::unlimited(),
        }
    }

    /// Returns a copy bounded by `budget`. Phases: `"greedy-levels"` ticks
    /// once per non-empty tree depth; `"greedy-refine"` ticks once per
    /// edge visit, so an iteration cap binds deterministically.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

impl Default for GreedyDowngrade {
    fn default() -> Self {
        GreedyDowngrade::new()
    }
}

impl NdrOptimizer for GreedyDowngrade {
    fn name(&self) -> &str {
        "smart-greedy"
    }

    fn assign(&self, ctx: &OptContext<'_>) -> Assignment {
        self.assign_supervised(ctx).assignment
    }

    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun {
        self.refine_supervised(ctx, ctx.conservative_assignment())
    }
}

impl GreedyDowngrade {
    /// Runs the downgrade passes from an arbitrary starting assignment —
    /// used by [`NdrOptimizer::assign`] (from the conservative uniform)
    /// and by [`crate::SmartNdr`] to refine its stage-net construction and
    /// to polish its upgrade-repair rescue. Power never increases;
    /// feasibility is preserved. A starting assignment that already
    /// violates the constraints is returned unchanged.
    pub fn refine(&self, ctx: &OptContext<'_>, start: Assignment) -> Assignment {
        self.refine_supervised(ctx, start).assignment
    }

    /// [`refine`](Self::refine) with the full supervision record.
    pub fn refine_supervised(&self, ctx: &OptContext<'_>, start: Assignment) -> SupervisedRun {
        let mut session = ctx.session_from(start);
        let mut levels = Meter::start(&self.budget, "greedy-levels");
        let mut refine = Meter::start(&self.budget, "greedy-refine");
        // An infeasible start is returned unchanged (no downgrade can
        // help); the caller's feasibility check flags it.
        if session.feasible() {
            self.run(ctx, &mut session, &mut levels, &mut refine);
        }
        let degradations = session
            .degradations()
            .iter()
            .copied()
            .map(DegradationEvent::IncrementalToFull)
            .collect();
        SupervisedRun {
            assignment: session.into_assignment(),
            budgets: vec![levels.report(), refine.report()],
            degradations,
        }
    }

    /// Removable capacitance (fF) if `e` moved from its current rule to the
    /// target rule — the exact power gain up to constant factors.
    fn gain(ctx: &OptContext<'_>, session: &EvalSession<'_, '_>, e: NodeId, to: snr_tech::RuleId) -> f64 {
        let tree = ctx.tree();
        let rules = ctx.tech().rules();
        let layer = ctx.tech().clock_layer();
        let len_um = tree.node(e).edge_len_nm() as f64 / 1_000.0;
        (layer.unit_c(rules.rule(session.rule(e))) - layer.unit_c(rules.rule(to))) * len_um
    }

    /// Candidate target rules in *capacitance* order, cheapest first.
    /// Track-cost order is wrong here: a spacing-only rule (1W2S) costs
    /// more track than the default but carries less capacitance, and
    /// capacitance is what the objective pays for.
    pub(crate) fn rules_by_cap(ctx: &OptContext<'_>) -> Vec<snr_tech::RuleId> {
        let rules = ctx.tech().rules();
        let layer = ctx.tech().clock_layer();
        let mut by_cap: Vec<snr_tech::RuleId> = rules.iter().map(|(id, _)| id).collect();
        by_cap.sort_by(|a, b| {
            layer
                .unit_c(rules.rule(*a))
                .partial_cmp(&layer.unit_c(rules.rule(*b)))
                .expect("capacitances are finite")
        });
        by_cap
    }

    /// Moves `group` to the cheapest rule in `by_cap` whose move keeps the
    /// session feasible, as one candidate; only the group's edges for which
    /// that rule is a downgrade that removes capacitance move. Returns
    /// whether a move committed.
    pub(crate) fn lower_group(
        ctx: &OptContext<'_>,
        session: &mut EvalSession<'_, '_>,
        by_cap: &[snr_tech::RuleId],
        group: &[NodeId],
    ) -> bool {
        for &to in by_cap {
            let moves: Vec<(NodeId, snr_tech::RuleId)> = group
                .iter()
                .filter(|e| to.0 < session.rule(**e).0 && Self::gain(ctx, session, **e, to) > 0.0)
                .map(|e| (*e, to))
                .collect();
            if moves.is_empty() {
                continue;
            }
            if session.try_moves(&moves).feasible {
                session.commit();
                return true; // cheapest feasible group rule wins
            }
            session.rollback();
        }
        false
    }

    fn run(
        &self,
        ctx: &OptContext<'_>,
        session: &mut EvalSession<'_, '_>,
        levels: &mut Meter<'_>,
        refine: &mut Meter<'_>,
    ) {
        let tree = ctx.tree();
        let by_cap = Self::rules_by_cap(ctx);

        // Phase 1: depth-synchronized group downgrades. The DME tree is
        // delay-balanced, so re-ruling *every* edge at one depth perturbs
        // all root-sink paths nearly equally — a skew-neutral move that
        // single-edge greedy can never compose from accepted steps (each
        // individual step would blow the skew budget). Deepest levels
        // first: they carry the most total wirelength.
        let depths = tree.depths();
        let max_depth = depths.iter().copied().max().unwrap_or(0);
        for d in (1..=max_depth).rev() {
            let level: Vec<NodeId> = tree.edges().filter(|e| depths[e.0] == d).collect();
            if level.is_empty() {
                continue;
            }
            if !levels.tick() {
                break;
            }
            Self::lower_group(ctx, session, &by_cap, &level);
        }

        // Phase 2: per-edge refinement passes.
        'passes: for _pass in 0..MAX_PASSES {
            // Order edges by their best possible remaining gain, descending.
            let order = Self::phase2_order(ctx, session);
            let mut accepted = 0usize;
            for (_, e) in order {
                if !refine.tick() {
                    break 'passes;
                }
                let current = session.rule(e);
                // Lowest-capacitance (= biggest gain) candidate first.
                // Moves that do not remove capacitance (zero-length edges,
                // or lower track cost with *higher* coupling cap like
                // 2W2S -> 2W1S) are never power wins and are skipped.
                for &to in &by_cap {
                    if to.0 >= current.0 || Self::gain(ctx, session, e, to) <= 0.0 {
                        continue;
                    }
                    if session.try_edge(e, to).feasible {
                        session.commit();
                        accepted += 1;
                        break;
                    }
                    session.rollback();
                }
            }
            if accepted == 0 {
                break;
            }
        }
    }

    /// Phase-2 edge order: best possible remaining gain, descending.
    fn phase2_order(ctx: &OptContext<'_>, session: &EvalSession<'_, '_>) -> Vec<(f64, NodeId)> {
        let tree = ctx.tree();
        let default = ctx.tech().rules().default_id();
        let mut order: Vec<(f64, NodeId)> = tree
            .edges()
            .filter(|e| session.rule(*e) != default)
            .map(|e| (Self::gain(ctx, session, e, default), e))
            .collect();
        order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("gains are finite"));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Constraints;
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
    fn saves_power_and_stays_feasible() {
        let (tree, tech) = fixture(150);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let smart = GreedyDowngrade::default().optimize(&ctx);
        let base = ctx.conservative_baseline();
        assert!(smart.meets_constraints());
        let saving = smart.network_saving_vs(&base);
        assert!(
            saving > 0.05,
            "expected meaningful saving, got {:.1}%",
            100.0 * saving
        );
    }

    #[test]
    fn unlimited_constraints_collapse_to_min_cap_rule() {
        let (tree, tech) = fixture(60);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_constraints(Constraints::absolute(1e9, 1e9));
        let asg = GreedyDowngrade::default().assign(&ctx);
        // With no constraints the power-minimal rule is the one with the
        // lowest unit capacitance — 1W2S in this technology (spacing cuts
        // coupling without paying area cap), not the 1W1S default.
        let layer = tech.clock_layer();
        let min_cap_rule = tech
            .rules()
            .iter()
            .min_by(|a, b| {
                layer
                    .unit_c(a.1)
                    .partial_cmp(&layer.unit_c(b.1))
                    .expect("caps are finite")
            })
            .map(|(id, _)| id)
            .expect("rule set non-empty");
        assert_eq!(min_cap_rule, snr_tech::RuleId(1), "1W2S in the N45 menu");
        for e in tree.edges() {
            // Zero-length edges carry no capacitance: downgrading them is
            // not a power win, so they may keep any rule.
            if tree.node(e).edge_len_nm() > 0 {
                assert_eq!(asg.rule(e), min_cap_rule);
            }
        }
    }

    #[test]
    fn zero_slack_returns_conservative() {
        let (tree, tech) = fixture(60);
        // Limits exactly at the conservative baseline: every downgrade
        // raises slew/skew, so nothing can move.
        let base = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let rep = snr_timing::analyze(&tree, &tech, &base);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0)).with_constraints(
            Constraints::absolute(rep.max_slew_ps() + 1e-9, rep.skew_ps().max(1e-6) + 1e-9),
        );
        let asg = GreedyDowngrade::default().assign(&ctx);
        assert_eq!(asg, base);
    }

    #[test]
    fn infeasible_start_returned_unchanged() {
        let (tree, tech) = fixture(40);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_constraints(Constraints::absolute(1.0, 0.001));
        let asg = GreedyDowngrade::default().assign(&ctx);
        assert_eq!(asg, ctx.conservative_assignment());
    }

    #[test]
    fn more_slack_never_less_saving() {
        let (tree, tech) = fixture(120);
        let mk = |margin: f64, budget: f64| {
            let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
                .with_constraints(Constraints::relative(&tree, &tech, margin, budget));
            let base = ctx.conservative_baseline();
            GreedyDowngrade::default()
                .optimize(&ctx)
                .network_saving_vs(&base)
        };
        let tight = mk(1.02, 5.0);
        let loose = mk(1.5, 100.0);
        assert!(
            loose >= tight - 1e-9,
            "loose {loose} should beat tight {tight}"
        );
    }

    #[test]
    fn beats_level_based_baseline() {
        use crate::LevelBased;
        let (tree, tech) = fixture(150);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let smart = GreedyDowngrade::default().optimize(&ctx);
        let level = LevelBased.optimize(&ctx);
        assert!(
            smart.power().network_uw() <= level.power().network_uw() + 1e-9,
            "smart {} µW vs level {} µW",
            smart.power().network_uw(),
            level.power().network_uw()
        );
    }
}
