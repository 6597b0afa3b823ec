//! Lagrangian-relaxation optimizer.
//!
//! The classic continuous-sizing formulation (à la Chen–Chu–Wong wire
//! sizing) adapted to the discrete rule menu: dualize the skew and slew
//! constraints with per-sink/per-node multipliers, then each round solve
//! the relaxed problem *separably per edge* (with the electrical
//! environment frozen at the incumbent) and update the multipliers by
//! subgradient on the observed violations.

use crate::supervise::Meter;
use crate::{
    Budget, DegradationEvent, GreedyDowngrade, NdrOptimizer, OptContext, SupervisedRun,
};
use snr_cts::{Assignment, ClockTree, NodeId, NodeKind};

const LN9: f64 = 2.197_224_577_336_219_6;

/// Lagrangian-relaxation NDR assignment.
///
/// Per round:
///
/// 1. analyze the incumbent; compute per-sink lateness/earliness
///    multipliers (skew) and per-node slew multipliers by subgradient;
/// 2. aggregate the multipliers bottom-up so each edge knows the total
///    dual weight of the sinks/slew-checked nodes it feeds;
/// 3. re-choose every edge's rule independently, minimizing
///    `capacitance + weight · edge-delay` with the downstream caps and
///    upstream resistances frozen at the incumbent;
/// 4. keep the best *feasible* incumbent seen.
///
/// The final incumbent is polished with [`GreedyDowngrade::refine`]; if no
/// feasible incumbent was found the greedy result itself is returned, so
/// the optimizer inherits the family's feasibility guarantee.
///
/// # Examples
///
/// ```
/// use snr_core::Lagrangian;
/// let l = Lagrangian::default();
/// assert_eq!(snr_core::NdrOptimizer::name(&l), "lagrangian");
/// ```
#[derive(Debug, Clone)]
pub struct Lagrangian {
    budget: Budget,
}

/// Subgradient rounds per run.
const ROUNDS: usize = 30;

/// Subgradient step: fF of dual weight per ps of violation.
const STEP_FF_PER_PS: f64 = 2.0;

impl Lagrangian {
    /// Creates the optimizer under an unlimited budget.
    pub fn new() -> Self {
        Lagrangian {
            budget: Budget::unlimited(),
        }
    }

    /// Returns a copy bounded by `budget`. The phase `"lagrangian-rounds"`
    /// ticks once per subgradient round; the budget is also passed to the
    /// final [`GreedyDowngrade`] polish, whose phases report separately.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

impl Default for Lagrangian {
    fn default() -> Self {
        Lagrangian::new()
    }
}

/// Frozen electrical environment of the incumbent assignment: per-edge
/// downstream stage cap and upstream in-stage resistance.
struct Environment {
    /// Stage-local downstream cap at each node's edge, fF.
    down_ff: Vec<f64>,
    /// Sum of in-stage wire resistance from the stage source to each
    /// node's parent, kΩ (the resistance the edge's own cap charges
    /// through).
    up_kohm: Vec<f64>,
}

fn environment(ctx: &OptContext<'_>, asg: &Assignment) -> Environment {
    let tree = ctx.tree();
    let tech = ctx.tech();
    let layer = tech.clock_layer();
    let rules = tech.rules();
    let cells = tech.buffers().cells();
    let n = tree.len();

    let len_um =
        |e: NodeId| -> f64 { tree.node(e).edge_len_nm() as f64 / 1_000.0 };
    let mut down_ff = vec![0.0; n];
    for id in tree.postorder() {
        let node = tree.node(id);
        let mut acc = match node.kind() {
            NodeKind::Sink { cap_ff, .. } => cap_ff,
            _ => 0.0,
        };
        for ch in tree.children(id) {
            let wire = layer.unit_c_delay(rules.rule(asg.rule(ch))) * len_um(ch);
            let below = match tree.node(ch).kind() {
                NodeKind::Buffer { cell } => cells[cell].input_cap_ff(),
                _ => down_ff[ch.0],
            };
            acc += wire + below;
        }
        down_ff[id.0] = acc;
    }
    let mut up_kohm = vec![0.0; n];
    for id in tree.topo_order() {
        let node = tree.node(id);
        let Some(p) = node.parent() else { continue };
        let parent_is_source = tree.node(p).kind().is_buffer() || tree.node(p).parent().is_none();
        up_kohm[id.0] = if parent_is_source {
            0.0
        } else {
            up_kohm[p.0] + layer.unit_r(rules.rule(asg.rule(p))) * len_um(p)
        };
    }
    Environment { down_ff, up_kohm }
}

/// Aggregates the per-node dual weights into a per-edge weight: the total
/// multiplier mass of sinks below the edge (skew duals) plus the slew duals
/// of checked nodes below the edge *within its stage*.
fn aggregate_weights(
    tree: &ClockTree,
    sink_dual: &[f64],
    slew_dual: &[f64],
) -> Vec<f64> {
    let n = tree.len();
    // Skew duals accumulate through buffers (a trunk edge delays every sink
    // below it); slew duals stop at buffers (a fresh stage regenerates).
    let mut skew_w = vec![0.0; n];
    let mut slew_w = vec![0.0; n];
    for id in tree.postorder() {
        let mut sk = sink_dual[id.0];
        let mut sl = slew_dual[id.0];
        for ch in tree.children(id) {
            sk += skew_w[ch.0];
            if !tree.node(ch).kind().is_buffer() {
                sl += slew_w[ch.0];
            } else {
                sl += slew_dual[ch.0]; // the buffer input itself is checked
            }
        }
        skew_w[id.0] = sk;
        slew_w[id.0] = sl;
    }
    (0..n).map(|i| skew_w[i] + LN9 * slew_w[i]).collect()
}

impl NdrOptimizer for Lagrangian {
    fn name(&self) -> &str {
        "lagrangian"
    }

    fn assign(&self, ctx: &OptContext<'_>) -> Assignment {
        self.assign_supervised(ctx).assignment
    }

    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun {
        let tree = ctx.tree();
        let tech = ctx.tech();
        let rules = tech.rules();
        let layer = tech.clock_layer();
        let constraints = ctx.constraints();
        let n = tree.len();
        let sinks = tree.sink_nodes();

        let mut meter = Meter::start(&self.budget, "lagrangian-rounds");
        let mut session = ctx.session();
        if !session.feasible() {
            return SupervisedRun {
                assignment: session.into_assignment(),
                budgets: vec![meter.report()],
                degradations: Vec::new(),
            };
        }
        let mut best = session.assignment().clone();
        let mut best_cap = f64::INFINITY;

        // Duals: per-sink (late positive / early negative folded into one
        // signed value) and per-node slew.
        let mut sink_dual = vec![0.0f64; n];
        let mut slew_dual = vec![0.0f64; n];

        for _round in 0..ROUNDS {
            if !meter.tick() {
                break;
            }
            let report = session.report();

            // Track the cheapest feasible incumbent.
            if session.feasible() {
                let cap = ctx.power(session.assignment()).wire_cap_ff();
                if cap < best_cap {
                    best_cap = cap;
                    best.clone_from(session.assignment());
                }
            }

            // Subgradient updates. Skew: push late sinks earlier (positive
            // dual = delay is expensive) and early sinks later (negative
            // dual = delay is *useful*). The window is centred between the
            // observed extremes.
            let t_max = report.latency_ps();
            let t_min = t_max - report.skew_ps();
            let hi = t_min + constraints.skew_limit_ps();
            let lo = t_max - constraints.skew_limit_ps();
            for &s in &sinks {
                let a = report.arrival_ps(s);
                let push = (a - hi).max(0.0) - (lo - a).max(0.0);
                sink_dual[s.0] = (sink_dual[s.0] + STEP_FF_PER_PS * push).clamp(-50.0, 50.0);
            }
            for node in tree.nodes() {
                let checked = (node.kind().is_sink() || node.kind().is_buffer())
                    && node.parent().is_some();
                if !checked {
                    continue;
                }
                let excess = report.slew_ps(node.id()) - constraints.slew_limit_ps();
                slew_dual[node.id().0] =
                    (slew_dual[node.id().0] + STEP_FF_PER_PS * excess).max(0.0);
            }

            // Separable per-edge re-choice against the frozen environment.
            let env = environment(ctx, session.assignment());
            let weights = aggregate_weights(tree, &sink_dual, &slew_dual);
            let mut moves: Vec<(NodeId, snr_tech::RuleId)> = Vec::new();
            for e in tree.edges() {
                let len = tree.node(e).edge_len_nm() as f64 / 1_000.0;
                if len <= 0.0 {
                    continue;
                }
                let mut best_rule = session.rule(e);
                let mut best_cost = f64::INFINITY;
                for (rid, rule) in rules.iter() {
                    let c_power = layer.unit_c(rule) * len;
                    let c_delay = layer.unit_c_delay(rule) * len;
                    let r = layer.unit_r(rule) * len;
                    // Delay contribution of this edge to everything below:
                    // its own resistance charging the downstream cap plus
                    // its capacitance charged through the upstream path.
                    let delay =
                        r * (c_delay / 2.0 + env.down_ff[e.0]) + env.up_kohm[e.0] * c_delay;
                    let cost = c_power + weights[e.0] * delay;
                    if cost < best_cost {
                        best_cost = cost;
                        best_rule = rid;
                    }
                }
                if best_rule != session.rule(e) {
                    moves.push((e, best_rule));
                }
            }
            if !moves.is_empty() {
                session.try_moves(&moves);
                session.commit();
            }
        }

        // Final feasible incumbent, polished; greedy fallback otherwise.
        // The polish runs under the same budget (shared token, fresh
        // per-phase iteration caps) and its reports are appended.
        let polish = GreedyDowngrade::default().with_budget(self.budget.clone());
        let finish = if best_cap.is_finite() {
            polish.refine_supervised(ctx, best)
        } else {
            polish.assign_supervised(ctx)
        };
        let mut run = SupervisedRun {
            assignment: ctx.conservative_assignment(),
            budgets: vec![meter.report()],
            degradations: session
                .degradations()
                .iter()
                .copied()
                .map(DegradationEvent::IncrementalToFull)
                .collect(),
        };
        run.assignment = run.absorb(finish);
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_cts::{synthesize, CtsOptions};
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
    fn feasible_and_competitive_with_greedy() {
        let (tree, tech) = fixture(150);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let lr = Lagrangian::default().optimize(&ctx);
        let greedy = GreedyDowngrade::default().optimize(&ctx);
        assert!(lr.meets_constraints());
        let ratio = lr.power().network_uw() / greedy.power().network_uw();
        assert!(
            (0.9..=1.1).contains(&ratio),
            "LR/greedy power ratio {ratio}"
        );
    }

    #[test]
    fn never_worse_than_conservative() {
        let (tree, tech) = fixture(100);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let lr = Lagrangian::default().optimize(&ctx);
        let base = ctx.conservative_baseline();
        assert!(lr.power().network_uw() <= base.power().network_uw() + 1e-9);
    }

    #[test]
    fn infeasible_start_returned_unchanged() {
        use crate::Constraints;
        let (tree, tech) = fixture(40);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_constraints(Constraints::absolute(1.0, 0.001));
        let asg = Lagrangian::default().assign(&ctx);
        assert_eq!(asg, ctx.conservative_assignment());
    }

    #[test]
    fn deterministic() {
        let (tree, tech) = fixture(80);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let a = Lagrangian::default().assign(&ctx);
        let b = Lagrangian::default().assign(&ctx);
        assert_eq!(a, b);
    }
}
