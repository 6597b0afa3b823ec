//! Dual construction: repair the all-default tree by targeted upgrades.

use crate::session::ViolationSites;
use crate::supervise::Meter;
use crate::{Budget, DegradationEvent, EvalSession, NdrOptimizer, OptContext, SupervisedRun};
use snr_cts::{Assignment, ClockTree, NodeId};
use std::cmp::Reverse;

/// Upgrade-repair: start with *no* NDR anywhere (uniform default) and,
/// while the tree violates the envelope, upgrade the most effective edge
/// one rule step at a time.
///
/// Candidates are restricted to edges that can actually help: the stages
/// containing slew-violating nodes, and the root paths of the extreme
/// (earliest/latest) sinks when skew violates. Each iteration applies the
/// candidate with the best violation reduction per added capacitance.
///
/// This is the natural dual of [`crate::GreedyDowngrade`]; the ablation
/// experiment compares the two constructions' power at identical
/// constraints. [`crate::SmartNdr`] runs it as its rescue, only when the
/// conservative start is infeasible (a track budget below its track cost):
/// its candidates come from slew and skew violations, so it cannot repair
/// window-arc, corner, EM or noise violations.
#[derive(Debug, Clone)]
pub struct GreedyUpgradeRepair {
    budget: Budget,
}

/// Repair iterations after which the loop stops even under an unlimited
/// budget; a tighter cap comes from the budget.
const MAX_ITERS: usize = 100_000;

impl GreedyUpgradeRepair {
    /// Creates the optimizer under an unlimited budget.
    pub fn new() -> Self {
        GreedyUpgradeRepair {
            budget: Budget::unlimited(),
        }
    }

    /// Returns a copy bounded by `budget`. The single phase
    /// `"upgrade-repair"` ticks once per repair iteration.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Edges worth upgrading for the committed state's violation sites:
    /// stage edges of slew-violating nodes plus the latest sink's root
    /// path, ascending id.
    fn candidates(ctx: &OptContext<'_>, asg: &Assignment, sites: &ViolationSites) -> Vec<NodeId> {
        let tree = ctx.tree();
        let mut marked = Vec::new();

        // Slew violations: walk from each violating checked node up to its
        // stage source, marking the stage's path edges.
        for &v in &sites.slew_violators {
            let mut cur = v;
            while let Some(p) = tree.node(cur).parent() {
                marked.push(cur);
                if tree.node(p).kind().is_buffer() {
                    break;
                }
                cur = p;
            }
        }

        // Skew violations: the latest sink's root path is where upgrades
        // reduce delay (the earliest sink cannot be slowed by upgrading).
        if let Some(latest) = sites.latest_sink {
            let mut cur = latest;
            while let Some(p) = tree.node(cur).parent() {
                marked.push(cur);
                cur = p;
            }
        }

        let most = ctx.tech().rules().most_conservative_id();
        marked.sort_unstable();
        marked.dedup();
        marked.retain(|&e| asg.rule(e) != most);
        marked
    }

    /// Every edge in plateau-fallback order: longest first, equal lengths
    /// by descending id — the order in which `max_by_key` over ascending
    /// ids would pick them, since it returns the last maximum.
    fn plateau_order(tree: &ClockTree) -> Vec<NodeId> {
        let mut edges: Vec<NodeId> = tree.edges().collect();
        edges.sort_unstable_by_key(|&e| Reverse((tree.node(e).edge_len_nm(), e)));
        edges
    }
}

impl Default for GreedyUpgradeRepair {
    fn default() -> Self {
        GreedyUpgradeRepair::new()
    }
}

impl NdrOptimizer for GreedyUpgradeRepair {
    fn name(&self) -> &str {
        "upgrade-repair"
    }

    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun {
        let mut session = ctx.session_from(ctx.default_assignment());
        let mut meter = Meter::start(&self.budget, "upgrade-repair");
        self.repair_loop(ctx, &mut session, &mut meter);
        let mut degradations = session.degradation_events();
        // Could not repair within budget: the conservative uniform tree is
        // the guaranteed-feasible answer when one exists — the final
        // ladder rung.
        let assignment = if session.feasible() {
            session.into_assignment()
        } else {
            degradations.push(DegradationEvent::OptimizerToBaseline {
                optimizer: "upgrade-repair",
                detail: "repair ended infeasible".to_owned(),
            });
            ctx.conservative_assignment()
        };
        SupervisedRun {
            assignment,
            budgets: vec![meter.report()],
            degradations,
        }
    }
}

impl GreedyUpgradeRepair {
    /// Upgrades one edge per iteration until the committed state is
    /// feasible, the budget binds or nothing more fits the track budget.
    fn repair_loop(
        &self,
        ctx: &OptContext<'_>,
        session: &mut EvalSession<'_, '_>,
        meter: &mut Meter<'_>,
    ) {
        let tree = ctx.tree();
        let rules = ctx.tech().rules();
        let layer = ctx.tech().clock_layer();
        let constraints = ctx.constraints();

        // Running routing-track cost, so upgrades can respect a budget.
        let len_um = |e: NodeId| tree.node(e).edge_len_nm() as f64 / 1_000.0;
        let mut track_um: f64 = tree
            .edges()
            .map(|e| rules.rule(session.rule(e)).track_cost() * len_um(e))
            .sum();
        let budget = constraints.track_budget_um().unwrap_or(f64::INFINITY);
        let most = rules.most_conservative_id();
        // The plateau fallback's edge order, built on the first plateau,
        // and a cursor past its prefix of edges at the top rule: repair
        // only raises rules, so those never leave it.
        let mut plateau: Option<(Vec<NodeId>, usize)> = None;
        for _ in 0..MAX_ITERS {
            if !meter.tick() {
                return;
            }
            let sites = session.violation_sites();
            let violation = sites.violation_ps;
            if violation <= 0.0 && session.feasible() {
                return;
            }
            // Candidates come from nominal slew and skew violations only.
            // When nominal is clean but the state is still infeasible (a
            // corner, arc, EM or noise violation), there are none and
            // repair stops here, infeasible.
            let candidates = Self::candidates(ctx, session.assignment(), &sites);
            if candidates.is_empty() {
                break;
            }
            // Surviving (edge, next rule, added fF) triples, in candidate order.
            let cands: Vec<(NodeId, snr_tech::RuleId, f64)> = candidates
                .into_iter()
                .filter_map(|e| {
                    let current = session.rule(e);
                    let next = rules.pricier_than(current).next()?;
                    let d_track = (rules.rule(next).track_cost()
                        - rules.rule(current).track_cost())
                        * len_um(e);
                    if track_um + d_track > budget {
                        return None; // this upgrade would blow the routing budget
                    }
                    let added_ff = ((layer.unit_c(rules.rule(next))
                        - layer.unit_c(rules.rule(current)))
                        * len_um(e))
                        .max(1e-6);
                    Some((e, next, added_ff))
                })
                .collect();
            // Probe every candidate against the committed state and keep the
            // best violation reduction per added capacitance; strict `>`
            // keeps the earliest candidate on ties.
            let mut best: Option<(f64, NodeId, snr_tech::RuleId)> = None;
            for (e, next, added_ff) in cands {
                let new_violation = session.probe_violation_ps(e, next);
                let score = (violation - new_violation) / added_ff;
                if best.is_none_or(|(s, _, _)| score > s) {
                    best = Some((score, e, next));
                }
            }
            match best {
                Some((score, e, next)) if score > 0.0 => {
                    track_um += (rules.rule(next).track_cost()
                        - rules.rule(session.rule(e)).track_cost())
                        * len_um(e);
                    session.try_edge(e, next);
                    session.commit();
                }
                // No single upgrade helps (plateau): take the largest
                // candidate-free step — upgrade the longest still-cheap
                // edge that fits the budget — before giving up.
                _ => {
                    let (order, cursor) =
                        plateau.get_or_insert_with(|| (Self::plateau_order(tree), 0));
                    while order.get(*cursor).is_some_and(|&e| session.rule(e) == most) {
                        *cursor += 1;
                    }
                    let fallback = order[*cursor..].iter().copied().find(|&e| {
                        let cur = session.rule(e);
                        if cur == most {
                            return false;
                        }
                        let next = rules.pricier_than(cur).next().expect("not top");
                        let d = (rules.rule(next).track_cost() - rules.rule(cur).track_cost())
                            * len_um(e);
                        track_um + d <= budget
                    });
                    match fallback {
                        Some(e) => {
                            let next = rules
                                .pricier_than(session.rule(e))
                                .next()
                                .expect("not at most conservative");
                            track_um += (rules.rule(next).track_cost()
                                - rules.rule(session.rule(e)).track_cost())
                                * len_um(e);
                            session.try_edge(e, next);
                            session.commit();
                        }
                        None => break, // nothing more fits the budget
                    }
                }
            }
        }
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
    fn repairs_to_feasibility() {
        let (tree, tech) = fixture(120);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        // Default uniform violates the envelope...
        assert!(!ctx.feasible(&ctx.default_assignment()));
        // ...but the repair ends feasible.
        let out = GreedyUpgradeRepair::default().optimize(&ctx);
        assert!(out.meets_constraints());
    }

    #[test]
    fn cheaper_than_conservative_baseline() {
        let (tree, tech) = fixture(120);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let out = GreedyUpgradeRepair::default().optimize(&ctx);
        let base = ctx.conservative_baseline();
        assert!(out.power().network_uw() <= base.power().network_uw() + 1e-9);
    }

    #[test]
    fn already_feasible_start_returns_default() {
        use crate::Constraints;
        let (tree, tech) = fixture(40);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_constraints(Constraints::absolute(1e9, 1e9));
        let asg = GreedyUpgradeRepair::default().assign(&ctx);
        assert_eq!(asg, ctx.default_assignment());
    }

    /// The engine-backed sites equal the full-report scan along a repair
    /// trajectory, and both produce the same candidate edges.
    #[test]
    fn violation_sites_agree_across_eval_modes() {
        use crate::EvalMode;
        let (tree, tech) = fixture(120);
        let inc = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let full = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_eval_mode(EvalMode::FullReanalysis);
        let mut a = inc.session_from(inc.default_assignment());
        let mut b = full.session_from(full.default_assignment());
        let rules = tech.rules();
        let mut checked = 0;
        for e in tree.edges().step_by(5) {
            let (mut sa, sb) = (a.violation_sites(), b.violation_sites());
            sa.slew_violators.sort_unstable();
            assert_eq!(sa.slew_violators, sb.slew_violators);
            assert_eq!(sa.latest_sink, sb.latest_sink);
            assert!((sa.violation_ps - sb.violation_ps).abs() < 1e-9);
            assert_eq!(
                GreedyUpgradeRepair::candidates(&inc, a.assignment(), &sa),
                GreedyUpgradeRepair::candidates(&full, b.assignment(), &sb)
            );
            checked += usize::from(!sa.slew_violators.is_empty() || sa.latest_sink.is_some());
            let Some(next) = rules.pricier_than(a.rule(e)).next() else { continue };
            a.try_edge(e, next);
            a.commit();
            b.try_edge(e, next);
            b.commit();
        }
        assert!(checked > 0, "the trajectory must visit violating states");
    }

    /// The plateau step picks the edge `max_by_key` over ascending ids
    /// picks: the longest, and among equal lengths the highest id.
    #[test]
    fn plateau_order_matches_max_by_key_on_equal_lengths() {
        use snr_cts::h_tree;
        use snr_geom::{Point, Rect};
        let area = Rect::new(Point::new(0, 0), Point::new(800_000, 800_000));
        let tree = h_tree(area, 3, 8.0);
        let len = |e: &NodeId| tree.node(*e).edge_len_nm();
        let order = GreedyUpgradeRepair::plateau_order(&tree);
        assert_eq!(order.len(), tree.edges().count());
        // A symmetric H-tree has many equal-length edges: the tie rule is
        // exercised at every position.
        let mut rest: Vec<NodeId> = tree.edges().collect();
        assert!(rest.iter().filter(|e| len(e) == len(&order[0])).count() > 1);
        for &e in &order {
            assert_eq!(Some(e), rest.iter().copied().max_by_key(len));
            rest.retain(|&r| r != e);
        }
    }

    #[test]
    fn iteration_cap_falls_back_to_conservative() {
        let (tree, tech) = fixture(120);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let asg = GreedyUpgradeRepair::default()
            .with_budget(Budget::unlimited().with_max_iters(1))
            .assign(&ctx);
        // One iteration cannot repair a 120-sink tree; the guaranteed
        // fallback is the conservative uniform.
        assert_eq!(asg, ctx.conservative_assignment());
    }
}
