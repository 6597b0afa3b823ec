//! The smart-NDR method: sensitivity-ordered greedy downgrading.

use crate::supervise::Meter;
use crate::{Budget, BudgetReport, EvalSession, NdrOptimizer, OptContext, SupervisedRun};
use snr_cts::{Assignment, NodeId};
use snr_tech::{RuleId, Technology};

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
        self.refine_session(ctx.session())
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
        self.refine_session(ctx.session_from(start))
    }

    /// [`refine_supervised`](Self::refine_supervised) from the committed
    /// state of `session`.
    pub(crate) fn refine_session(&self, mut session: EvalSession<'_, '_>) -> SupervisedRun {
        let budgets = self.refine_in(&mut session);
        SupervisedRun {
            degradations: session.degradation_events(),
            assignment: session.into_assignment(),
            budgets,
        }
    }

    /// The refine's two phases on `session`, from its committed state; their
    /// receipts. A session whose divergence guard has tripped runs on full
    /// re-analyses; the refine gets fresh engines for its assignment
    /// instead, so the degradations the session holds after it are all the
    /// refine's own.
    pub(crate) fn refine_in(&self, session: &mut EvalSession<'_, '_>) -> Vec<BudgetReport> {
        if !session.degradations().is_empty() {
            session.restart();
        }
        let ctx = session.leader();
        let menu = Menu::new(ctx.tech());
        // An infeasible start is returned unchanged (no downgrade can
        // help); the caller's feasibility check flags it.
        let feasible = session.feasible();
        let mut levels = Meter::start(&self.budget, "greedy-levels");
        if feasible {
            Self::lower_levels(ctx, session, &menu, &mut levels);
        }
        let levels = levels.report();
        let mut refine = Meter::start(&self.budget, "greedy-refine");
        if feasible {
            Self::refine_edges(ctx, session, &menu, &mut refine);
        }
        vec![levels, refine.report()]
    }

    /// Moves `group` to the cheapest rule in capacitance order whose move
    /// keeps the session feasible, as one candidate; only the group's edges
    /// for which that rule is a downgrade that removes capacitance move.
    /// Returns whether a move committed.
    pub(crate) fn lower_group(
        ctx: &OptContext<'_>,
        session: &mut EvalSession<'_, '_>,
        menu: &Menu,
        group: &[NodeId],
    ) -> bool {
        let len_um = ctx.tree().arena().len_um();
        for &to in &menu.by_cap {
            let moves: Vec<(NodeId, RuleId)> = group
                .iter()
                .filter(|e| {
                    let from = session.rule(**e);
                    to.0 < from.0 && menu.gain(len_um[e.0], from, to) > 0.0
                })
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
        menu: &Menu,
        levels: &mut Meter<'_>,
    ) {
        for level in ctx.start().levels().iter().rev().filter(|level| !level.is_empty()) {
            if !levels.tick() {
                break;
            }
            Self::lower_group(ctx, session, menu, level);
        }
    }

    /// Phase 2: per-edge refinement passes, each over [`Passes::steps`].
    fn refine_edges(
        ctx: &OptContext<'_>,
        session: &mut EvalSession<'_, '_>,
        menu: &Menu,
        refine: &mut Meter<'_>,
    ) {
        let mut passes = Passes::new(ctx, session, menu);
        let mut steps = Vec::new();
        for pass in 0..MAX_PASSES {
            if pass > 0 {
                passes.advance(ctx, session, menu);
            }
            passes.steps(ctx, session, menu, &mut steps);
            let mut accepted = 0usize;
            for &step in &steps {
                match step {
                    Step::Skip(n) => {
                        if !refine.ticks(n as u64) {
                            return;
                        }
                    }
                    Step::Try(e) => {
                        if !refine.tick() {
                            return;
                        }
                        accepted += usize::from(Self::lower_edge(ctx, session, menu, e));
                    }
                }
            }
            if accepted == 0 {
                break;
            }
        }
    }

    /// Moves `e` to the lowest-capacitance (= biggest gain) rule among its
    /// downgrade targets whose move keeps the session feasible. Every target
    /// removes capacitance from an edge of positive length. Returns whether
    /// a move committed.
    fn lower_edge(
        ctx: &OptContext<'_>,
        session: &mut EvalSession<'_, '_>,
        menu: &Menu,
        e: NodeId,
    ) -> bool {
        let current = session.rule(e);
        for &to in &menu.targets[current.0] {
            debug_assert!(menu.gain(ctx.tree().arena().len_um()[e.0], current, to) > 0.0);
            if session.try_edge(e, to).feasible {
                session.commit();
                return true;
            }
            session.rollback();
        }
        false
    }
}

/// The rule tables the downgrade passes read, built once per run from the
/// technology.
pub(crate) struct Menu {
    /// Rule ids in *capacitance* order, cheapest first. Track-cost order is
    /// wrong here: a spacing-only rule (1W2S) costs more track than the
    /// default but carries less capacitance, and capacitance is what the
    /// objective pays for.
    by_cap: Vec<RuleId>,
    /// Per rule id: the clock layer's unit switching capacitance, fF/µm.
    cap: Vec<f64>,
    /// Per rule id: the rules of `by_cap` with a lower id and a strictly
    /// lower capacitance, the only downgrades that remove capacitance.
    targets: Vec<Vec<RuleId>>,
}

impl Menu {
    pub(crate) fn new(tech: &Technology) -> Self {
        let layer = tech.clock_layer();
        let cap: Vec<f64> = tech.rules().iter().map(|(_, rule)| layer.unit_c(rule)).collect();
        let mut by_cap: Vec<RuleId> = (0..cap.len()).map(RuleId).collect();
        by_cap.sort_by(|a, b| cap[a.0].partial_cmp(&cap[b.0]).expect("capacitances are finite"));
        let targets = (0..cap.len())
            .map(|from| by_cap.iter().copied().filter(|to| to.0 < from && cap[to.0] < cap[from]).collect())
            .collect();
        Menu { by_cap, cap, targets }
    }

    /// Removable capacitance (fF) if an edge of `len_um` moved from rule
    /// `from` to rule `to` — the exact power gain up to constant factors.
    fn gain(&self, len_um: f64, from: RuleId, to: RuleId) -> f64 {
        (self.cap[from.0] - self.cap[to.0]) * len_um
    }

    /// Whether a downgrade can remove capacitance from an edge of `len_um`
    /// on rule `rule`. An immovable edge has zero length, or no lower-id
    /// rule has less capacitance than its own; it keeps its rule for the
    /// whole refine. Its gain to the default, `RuleId(0)`, is at most 0.
    fn movable(&self, len_um: f64, rule: RuleId) -> bool {
        len_um > 0.0 && !self.targets[rule.0].is_empty()
    }
}

/// One step of a refine pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Visit a movable edge: one tick, then its downgrades.
    Try(NodeId),
    /// Pass over this many immovable edges: one tick each, nothing to try.
    Skip(usize),
}

/// The per-edge refine's pass order over the edges off the default rule:
/// by gain to the default, larger first, ties in id order ([`by_gain`]).
/// Only the movable edges are sorted; each immovable edge gets its tick at
/// its place in that order without any gain being computed, so a pass
/// ticks exactly where a pass over every such edge would.
struct Passes {
    /// Movable edges with their gains to the default, in pass order.
    movable: Vec<(f64, NodeId)>,
    /// Immovable edges, in the order they became immovable.
    immovable: Vec<NodeId>,
    /// The first `ordered.len()` edges of `immovable` with their gains to
    /// the default, in pass order: built only when a movable edge's gain is
    /// at most 0, so that it interleaves with the immovable ones.
    ordered: Vec<(f64, NodeId)>,
}

impl Passes {
    fn new(ctx: &OptContext<'_>, session: &EvalSession<'_, '_>, menu: &Menu) -> Self {
        let tree = ctx.tree();
        let len_um = tree.arena().len_um();
        let default = ctx.tech().rules().default_id();
        let mut passes = Passes { movable: Vec::new(), immovable: Vec::new(), ordered: Vec::new() };
        for e in tree.edges() {
            let rule = session.rule(e);
            if rule == default {
                continue;
            }
            if menu.movable(len_um[e.0], rule) {
                passes.movable.push((menu.gain(len_um[e.0], rule, default), e));
            } else {
                passes.immovable.push(e);
            }
        }
        passes.movable.sort_by(by_gain);
        passes
    }

    /// The next pass's order, after a pass over this one. Only movable edges
    /// can have moved. One on the default leaves the order, one on an
    /// immovable rule joins the immovable edges, and an edge's gain depends
    /// on its own rule only, so the entries whose gain kept its bits are
    /// still in order: sorting that run with the re-gained entries appended
    /// takes about linear time.
    fn advance(&mut self, ctx: &OptContext<'_>, session: &EvalSession<'_, '_>, menu: &Menu) {
        let len_um = ctx.tree().arena().len_um();
        let default = ctx.tech().rules().default_id();
        let mut next = Vec::with_capacity(self.movable.len());
        let mut regained = Vec::new();
        for &(gain, e) in &self.movable {
            let rule = session.rule(e);
            if rule == default {
                continue;
            }
            if !menu.movable(len_um[e.0], rule) {
                self.immovable.push(e);
                continue;
            }
            let now = menu.gain(len_um[e.0], rule, default);
            if now.to_bits() == gain.to_bits() {
                next.push((gain, e));
            } else {
                regained.push((now, e));
            }
        }
        next.append(&mut regained);
        next.sort_by(by_gain);
        self.movable = next;
    }

    /// The steps of the current pass, into `steps`. Immovable edges have a
    /// gain of at most 0, so the movable edges of positive gain come first.
    /// The movable ones of gain at most 0 (on the shielded menu, `1W1S+SH`
    /// has the default's capacitance) interleave with the immovable ones.
    fn steps(
        &mut self,
        ctx: &OptContext<'_>,
        session: &EvalSession<'_, '_>,
        menu: &Menu,
        steps: &mut Vec<Step>,
    ) {
        steps.clear();
        let head = self.movable.partition_point(|(gain, _)| *gain > 0.0);
        steps.extend(self.movable[..head].iter().map(|&(_, e)| Step::Try(e)));
        let mut skipped = 0;
        if head < self.movable.len() {
            self.order_immovable(ctx, session, menu);
            for entry in &self.movable[head..] {
                let before = self.ordered[skipped..].partition_point(|f| by_gain(f, entry).is_lt());
                if before > 0 {
                    steps.push(Step::Skip(before));
                }
                skipped += before;
                steps.push(Step::Try(entry.1));
            }
        }
        if skipped < self.immovable.len() {
            steps.push(Step::Skip(self.immovable.len() - skipped));
        }
    }

    /// Extends `ordered` over every immovable edge: the new entries are
    /// appended to the sorted run, which the sort then merges.
    fn order_immovable(&mut self, ctx: &OptContext<'_>, session: &EvalSession<'_, '_>, menu: &Menu) {
        if self.ordered.len() == self.immovable.len() {
            return;
        }
        let len_um = ctx.tree().arena().len_um();
        let default = ctx.tech().rules().default_id();
        let fresh = self.immovable[self.ordered.len()..].iter();
        let gained = fresh.map(|&e| (menu.gain(len_um[e.0], session.rule(e), default), e));
        self.ordered.extend(gained);
        self.ordered.sort_by(by_gain);
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
    use snr_tech::RuleSet;

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

    /// The former gain: the node's length and the rules' capacitances read
    /// afresh on every call.
    fn former_gain(ctx: &OptContext<'_>, session: &EvalSession<'_, '_>, e: NodeId, to: RuleId) -> f64 {
        let rules = ctx.tech().rules();
        let layer = ctx.tech().clock_layer();
        let len_um = ctx.tree().node(e).edge_len_nm() as f64 / 1_000.0;
        (layer.unit_c(rules.rule(session.rule(e))) - layer.unit_c(rules.rule(to))) * len_um
    }

    /// The pass order as every pass used to build it: the non-default edges
    /// in id order, stably sorted by gain, descending.
    fn former_order(ctx: &OptContext<'_>, session: &EvalSession<'_, '_>) -> Vec<(f64, NodeId)> {
        let default = ctx.tech().rules().default_id();
        let mut order: Vec<(f64, NodeId)> = ctx
            .tree()
            .edges()
            .filter(|e| session.rule(*e) != default)
            .map(|e| (former_gain(ctx, session, e, default), e))
            .collect();
        order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("gains are finite"));
        order
    }

    /// The rules a former visit of `e` tried, in capacitance order: lower
    /// ids with a positive gain.
    fn former_candidates(ctx: &OptContext<'_>, session: &EvalSession<'_, '_>, e: NodeId) -> Vec<RuleId> {
        let current = session.rule(e);
        Menu::new(ctx.tech())
            .by_cap
            .into_iter()
            .filter(|&to| to.0 < current.0 && former_gain(ctx, session, e, to) > 0.0)
            .collect()
    }

    /// Per tick of a former pass over `order`: the edge when the visit
    /// tried a downgrade, `None` when it only ticked.
    fn former_visits(
        ctx: &OptContext<'_>,
        session: &EvalSession<'_, '_>,
        order: &[(f64, NodeId)],
    ) -> Vec<Option<NodeId>> {
        order
            .iter()
            .map(|&(_, e)| (!former_candidates(ctx, session, e).is_empty()).then_some(e))
            .collect()
    }

    /// Per tick of `steps`: the edge of a [`Step::Try`], `None` for each
    /// edge a [`Step::Skip`] passes over.
    fn visits(steps: &[Step]) -> Vec<Option<NodeId>> {
        let mut out = Vec::new();
        for step in steps {
            match *step {
                Step::Try(e) => out.push(Some(e)),
                Step::Skip(n) => out.extend(std::iter::repeat_n(None, n)),
            }
        }
        out
    }

    /// On random committed states of N45 and N32 trees under the standard,
    /// extended and shielded menus, every pass visits the former order's
    /// movable entries in its order, tries the same rules on each, and
    /// ticks exactly where the former order ticked. The states include
    /// rules with negative gain (less capacitance than the default), moves
    /// to the default, which leave the order, moves onto immovable rules,
    /// which join the immovable edges, zero-length edges (gains of `0.0`
    /// and `-0.0`) and equal lengths; on the shielded menu, movable
    /// `1W1S+SH` edges of gain 0 interleave with the immovable ones.
    #[test]
    fn pass_orders_match_the_former_sort() {
        let design = BenchmarkSpec::new("order", 400).seed(6).build().unwrap();
        let menus = [
            ("standard", RuleSet::standard()),
            ("extended", RuleSet::extended()),
            ("shielded", RuleSet::with_shielding()),
        ];
        for base in [Technology::n45(), Technology::n32()] {
            for (name, rules) in &menus {
                let tech = base.with_rules(rules.clone());
                let label = format!("{} {name}", tech.name());
                let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
                let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
                let menu = Menu::new(&tech);
                let len_um = tree.arena().len_um();
                let n_rules = tech.rules().len();
                let default = tech.rules().default_id();
                let negative = menu.cap.iter().filter(|&&c| c < menu.cap[default.0]);
                assert!(negative.count() > 0, "{label}: a rule with negative gain");
                let mut lens: Vec<i64> = tree.edges().map(|e| tree.node(e).edge_len_nm()).collect();
                lens.sort_unstable();
                assert_eq!(lens[0], 0, "{label}: zero-length edges");
                let equal = lens.windows(2).any(|w| w[0] == w[1] && w[0] > 0);
                assert!(equal, "{label}: equal lengths");

                let mut rng = SplitMix(label.len() as u64);
                let mut start = ctx.conservative_assignment();
                for e in tree.edges() {
                    start.set(e, RuleId(rng.below(n_rules)));
                }
                let mut session = ctx.session_from(start);
                let mut passes = Passes::new(&ctx, &session, &menu);
                let mut steps = Vec::new();
                let (mut to_default, mut joined, mut interleaved) = (0, 0, 0);
                for round in 0..40 {
                    passes.steps(&ctx, &session, &menu, &mut steps);
                    let former = former_order(&ctx, &session);
                    let want = former_visits(&ctx, &session, &former);
                    assert_eq!(visits(&steps), want, "{label} round {round}");
                    let tried: Vec<NodeId> = visits(&steps).into_iter().flatten().collect();
                    for &e in &tried {
                        let rule = session.rule(e);
                        assert_eq!(menu.targets[rule.0], former_candidates(&ctx, &session, e));
                    }
                    let after_skip = steps.windows(2).filter(|w| matches!(w, [Step::Skip(_), Step::Try(_)]));
                    interleaved += after_skip.count();
                    // Move some of the movable edges, to any rule, as the
                    // passes see it between two passes.
                    for e in tried {
                        if rng.below(3) == 0 {
                            let to = RuleId(rng.below(n_rules));
                            to_default += usize::from(to == default);
                            joined += usize::from(to != default && !menu.movable(len_um[e.0], to));
                            session.try_edge(e, to);
                            session.commit();
                        }
                    }
                    passes.advance(&ctx, &session, &menu);
                    if passes.movable.len() < 50 {
                        // Move edges off the default again so later rounds
                        // have movable edges to work on.
                        let idle: Vec<NodeId> =
                            tree.edges().filter(|e| session.rule(*e) == default).collect();
                        for e in idle {
                            session.try_edge(e, RuleId(rng.below(n_rules)));
                            session.commit();
                        }
                        passes = Passes::new(&ctx, &session, &menu);
                    }
                }
                assert!(to_default > 100, "{label}: {to_default} moves to the default");
                assert!(joined > 100, "{label}: {joined} moves onto immovable rules");
                assert_eq!(
                    interleaved > 0,
                    *name == "shielded",
                    "{label}: movable edges among the immovable ones"
                );
            }
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
