//! The smart-NDR method: sensitivity-ordered greedy downgrading.

use crate::supervise::Meter;
use crate::{Budget, EvalSession, NdrOptimizer, OptContext, SupervisedRun};
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
        self.refine_session(ctx, ctx.session_from(start))
    }

    /// [`refine_supervised`](Self::refine_supervised) from the committed
    /// state of `session`. A session whose divergence guard has tripped runs
    /// on full re-analyses; the refine gets fresh engines for its assignment
    /// instead, so the degradations it reports are all its own.
    pub(crate) fn refine_session(
        &self,
        ctx: &OptContext<'_>,
        session: EvalSession<'_, '_>,
    ) -> SupervisedRun {
        let mut session = if session.degradations().is_empty() {
            session
        } else {
            ctx.session_from(session.into_assignment())
        };
        let by_cap = Self::rules_by_cap(ctx);
        // An infeasible start is returned unchanged (no downgrade can
        // help); the caller's feasibility check flags it.
        let feasible = session.feasible();
        let mut levels = Meter::start(&self.budget, "greedy-levels");
        if feasible {
            Self::lower_levels(ctx, &mut session, &by_cap, &mut levels);
        }
        let levels = levels.report();
        let mut refine = Meter::start(&self.budget, "greedy-refine");
        if feasible {
            Self::refine_edges(ctx, &mut session, &by_cap, &mut refine);
        }
        let degradations = session.degradation_events();
        SupervisedRun {
            assignment: session.into_assignment(),
            budgets: vec![levels, refine.report()],
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

    /// Phase 1: depth-synchronized group downgrades. The DME tree is
    /// delay-balanced, so re-ruling *every* edge at one depth perturbs all
    /// root-sink paths nearly equally — a skew-neutral move that single-edge
    /// greedy can never compose from accepted steps (each individual step
    /// would blow the skew budget). Deepest levels first: they carry the
    /// most total wirelength.
    fn lower_levels(
        ctx: &OptContext<'_>,
        session: &mut EvalSession<'_, '_>,
        by_cap: &[snr_tech::RuleId],
        levels: &mut Meter<'_>,
    ) {
        let tree = ctx.tree();
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
            Self::lower_group(ctx, session, by_cap, &level);
        }
    }

    /// Phase 2: per-edge refinement passes.
    fn refine_edges(
        ctx: &OptContext<'_>,
        session: &mut EvalSession<'_, '_>,
        by_cap: &[snr_tech::RuleId],
        refine: &mut Meter<'_>,
    ) {
        // Edges by their best possible remaining gain, descending.
        let mut order = Self::phase2_order(ctx, session);
        for pass in 0..MAX_PASSES {
            if pass > 0 {
                order = Self::next_order(ctx, session, &order);
            }
            let mut accepted = 0usize;
            for &(_, e) in &order {
                if !refine.tick() {
                    return;
                }
                let current = session.rule(e);
                // Lowest-capacitance (= biggest gain) candidate first.
                // Moves that do not remove capacitance (zero-length edges,
                // or lower track cost with *higher* coupling cap like
                // 2W2S -> 2W1S) are never power wins and are skipped.
                for &to in by_cap {
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

    /// Phase-2 edge order: best possible remaining gain first.
    fn phase2_order(ctx: &OptContext<'_>, session: &EvalSession<'_, '_>) -> Vec<(f64, NodeId)> {
        let tree = ctx.tree();
        let default = ctx.tech().rules().default_id();
        let mut order: Vec<(f64, NodeId)> = tree
            .edges()
            .filter(|e| session.rule(*e) != default)
            .map(|e| (Self::gain(ctx, session, e, default), e))
            .collect();
        order.sort_by(by_gain);
        order
    }

    /// [`phase2_order`](Self::phase2_order) after a pass over `order`. Only
    /// the edges of `order` can have moved, and an edge's gain depends on its
    /// own rule only, so the entries whose gain kept its bits are still in
    /// order: sorting that run with the re-gained entries appended takes
    /// about linear time.
    fn next_order(
        ctx: &OptContext<'_>,
        session: &EvalSession<'_, '_>,
        order: &[(f64, NodeId)],
    ) -> Vec<(f64, NodeId)> {
        let default = ctx.tech().rules().default_id();
        let mut next = Vec::with_capacity(order.len());
        let mut regained = Vec::new();
        for &(gain, e) in order {
            if session.rule(e) == default {
                continue;
            }
            let now = Self::gain(ctx, session, e, default);
            if now.to_bits() == gain.to_bits() {
                next.push((gain, e));
            } else {
                regained.push((now, e));
            }
        }
        next.append(&mut regained);
        next.sort_by(by_gain);
        next
    }
}

/// The phase-2 order: larger gain first (`-0.0` equals `0.0`), ties in id
/// order — what a stable sort by gain gives edges listed in id order.
fn by_gain(a: &(f64, NodeId), b: &(f64, NodeId)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0).expect("gains are finite").then(a.1.cmp(&b.1))
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

    /// Deterministic splitmix64 draws.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    fn bits(order: &[(f64, NodeId)]) -> Vec<(u64, NodeId)> {
        order.iter().map(|(g, e)| (g.to_bits(), *e)).collect()
    }

    /// The pass order as every pass used to build it: the non-default edges
    /// in id order, stably sorted by gain, descending.
    fn former_order(ctx: &OptContext<'_>, session: &EvalSession<'_, '_>) -> Vec<(f64, NodeId)> {
        let default = ctx.tech().rules().default_id();
        let mut order: Vec<(f64, NodeId)> = ctx
            .tree()
            .edges()
            .filter(|e| session.rule(*e) != default)
            .map(|e| (GreedyDowngrade::gain(ctx, session, e, default), e))
            .collect();
        order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("gains are finite"));
        order
    }

    /// Every pass order equals the former per-pass sort bit for bit, on
    /// random committed states of N45 and N32 trees: rules with negative
    /// gain (less capacitance than the default), moves to the default,
    /// which leave the order, zero-length edges (gains of `0.0` and
    /// `-0.0`) and equal lengths included.
    #[test]
    fn pass_orders_match_the_former_sort() {
        for tech in [Technology::n45(), Technology::n32()] {
            let design = BenchmarkSpec::new("order", 400).seed(6).build().unwrap();
            let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
            let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
            let n_rules = tech.rules().len();
            let default = tech.rules().default_id();
            let layer = tech.clock_layer();
            let default_c = layer.unit_c(tech.rules().rule(default));
            let negative = tech.rules().iter().filter(|(_, r)| layer.unit_c(*r) < default_c);
            assert!(negative.count() > 0, "{}: a rule with negative gain", tech.name());
            let mut lens: Vec<i64> = tree.edges().map(|e| tree.node(e).edge_len_nm()).collect();
            lens.sort_unstable();
            assert_eq!(lens[0], 0, "{}: zero-length edges", tech.name());
            let equal = lens.windows(2).any(|w| w[0] == w[1] && w[0] > 0);
            assert!(equal, "{}: equal lengths", tech.name());

            let mut rng = SplitMix(tech.name().len() as u64);
            let mut start = ctx.conservative_assignment();
            for e in tree.edges() {
                start.set(e, snr_tech::RuleId(rng.below(n_rules)));
            }
            let mut session = ctx.session_from(start);
            let mut order = GreedyDowngrade::phase2_order(&ctx, &session);
            assert_eq!(bits(&order), bits(&former_order(&ctx, &session)), "{}", tech.name());
            let mut to_default = 0;
            for round in 0..40 {
                for &(_, e) in &order {
                    if rng.below(3) == 0 {
                        let to = snr_tech::RuleId(rng.below(n_rules));
                        to_default += usize::from(to == default);
                        session.try_edge(e, to);
                        session.commit();
                    }
                }
                order = GreedyDowngrade::next_order(&ctx, &session, &order);
                let former = former_order(&ctx, &session);
                assert_eq!(bits(&order), bits(&former), "{} round {round}", tech.name());
                if order.len() < 50 {
                    // Move edges off the default again so later rounds
                    // have an order to work on.
                    let idle: Vec<NodeId> =
                        tree.edges().filter(|e| session.rule(*e) == default).collect();
                    for e in idle {
                        session.try_edge(e, snr_tech::RuleId(rng.below(n_rules)));
                        session.commit();
                    }
                    order = GreedyDowngrade::phase2_order(&ctx, &session);
                }
            }
            assert!(to_default > 100, "{to_default} moves to the default");
        }
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
