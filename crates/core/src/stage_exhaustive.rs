//! Block-coordinate exact search: exhaustive enumeration within stages.

use crate::{NdrOptimizer, OptContext};
use snr_cts::{Assignment, NodeId};

/// Optimality yardstick: stages are processed root-to-leaves and, within
/// each stage small enough to enumerate, the power-minimal feasible rule
/// combination is found by branch-and-bound (capacitance lower bound =
/// remaining edges at the cheapest rule; feasibility checked on the whole
/// tree, so accepted stages never break global constraints).
///
/// Stages larger than the enumeration limit keep the conservative rule on
/// all edges, so the result is always feasible whenever the conservative
/// start is. On designs whose stages fit the limit this is the best
/// block-coordinate solution possible — the ablation compares
/// [`crate::GreedyDowngrade`] against it to show how little the one-pass
/// heuristic gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageExhaustive;

/// Stage-size limit of the enumeration: 4 rules ⇒ ≤ ~10⁶ leaves before
/// pruning.
const MAX_STAGE_EDGES: usize = 10;

impl StageExhaustive {
    /// Edge ids of the stage rooted at `source` (edges below `source` down
    /// to and including the edges into buffers/sinks).
    fn stage_edges(ctx: &OptContext<'_>, source: NodeId) -> Vec<NodeId> {
        let tree = ctx.tree();
        let mut edges = Vec::new();
        let mut stack: Vec<NodeId> = tree.children(source).collect();
        while let Some(id) = stack.pop() {
            edges.push(id);
            if !tree.node(id).kind().is_buffer() {
                stack.extend(tree.children(id));
            }
        }
        edges
    }
}

impl NdrOptimizer for StageExhaustive {
    fn name(&self) -> &str {
        "stage-exhaustive"
    }

    fn assign(&self, ctx: &OptContext<'_>) -> Assignment {
        let tree = ctx.tree();
        let tech = ctx.tech();
        let rules = tech.rules();
        let layer = tech.clock_layer();

        let mut asg = ctx.conservative_assignment();
        if !ctx.meets(&asg, &ctx.analyze(&asg)) {
            return asg;
        }

        // Stage sources: the root plus every buffer.
        let mut sources = vec![tree.root()];
        sources.extend(tree.buffer_nodes());
        sources.retain(|s| !tree.node(*s).is_leaf());
        sources.sort_unstable();
        sources.dedup();

        for source in sources {
            let edges = Self::stage_edges(ctx, source);
            if edges.is_empty() || edges.len() > MAX_STAGE_EDGES {
                continue; // oversized stages stay conservative
            }
            // Cheapest-possible remaining capacitance per suffix, for the
            // branch-and-bound lower bound.
            let len_um: Vec<f64> = edges
                .iter()
                .map(|e| tree.node(*e).edge_len_nm() as f64 / 1_000.0)
                .collect();
            let cheapest_c = layer.unit_c(rules.rule(rules.default_id()));
            let mut suffix_min = vec![0.0f64; edges.len() + 1];
            for i in (0..edges.len()).rev() {
                suffix_min[i] = suffix_min[i + 1] + cheapest_c * len_um[i];
            }

            let conservative = rules.most_conservative_id();
            let baseline_cap: f64 = edges
                .iter()
                .zip(&len_um)
                .map(|(_, l)| layer.unit_c(rules.rule(conservative)) * l)
                .sum();
            let mut best_cap = baseline_cap;
            let mut best_rules: Vec<snr_tech::RuleId> = vec![conservative; edges.len()];

            // DFS over rule choices, cheapest-first so good bounds arrive
            // early.
            let mut choice: Vec<snr_tech::RuleId> = vec![rules.default_id(); edges.len()];
            dfs(
                ctx,
                &mut asg,
                &edges,
                &len_um,
                &suffix_min,
                0,
                0.0,
                &mut best_cap,
                &mut best_rules,
                &mut choice,
            );

            for (e, r) in edges.iter().zip(&best_rules) {
                asg.set(*e, *r);
            }
            debug_assert!(ctx.meets(&asg, &ctx.analyze(&asg)));
        }
        asg
    }
}

/// Depth-first enumeration of the stage's rule combinations with a
/// capacitance lower bound; feasible completions update the incumbent.
#[allow(clippy::too_many_arguments)]
fn dfs(
    ctx: &OptContext<'_>,
    asg: &mut Assignment,
    edges: &[NodeId],
    len_um: &[f64],
    suffix_min: &[f64],
    depth: usize,
    cap_so_far: f64,
    best_cap: &mut f64,
    best_rules: &mut Vec<snr_tech::RuleId>,
    choice: &mut Vec<snr_tech::RuleId>,
) {
    if cap_so_far + suffix_min[depth] >= *best_cap - 1e-12 {
        return; // cannot beat the incumbent
    }
    if depth == edges.len() {
        // Apply and check the full tree.
        let saved: Vec<_> = edges.iter().map(|e| asg.rule(*e)).collect();
        for (e, r) in edges.iter().zip(choice.iter()) {
            asg.set(*e, *r);
        }
        if ctx.meets(asg, &ctx.analyze(asg)) {
            *best_cap = cap_so_far;
            best_rules.clone_from(choice);
        }
        for (e, r) in edges.iter().zip(saved) {
            asg.set(*e, r);
        }
        return;
    }
    let rules = ctx.tech().rules();
    let layer = ctx.tech().clock_layer();
    for (rid, rule) in rules.iter() {
        choice[depth] = rid;
        let cap = layer.unit_c(rule) * len_um[depth];
        dfs(
            ctx,
            asg,
            edges,
            len_um,
            suffix_min,
            depth + 1,
            cap_so_far + cap,
            best_cap,
            best_rules,
            choice,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GreedyDowngrade;
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
    fn feasible_and_never_worse_than_conservative() {
        let (tree, tech) = fixture(60);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let out = StageExhaustive.optimize(&ctx);
        let base = ctx.conservative_baseline();
        assert!(out.meets_constraints());
        assert!(out.power().network_uw() <= base.power().network_uw() + 1e-9);
    }

    #[test]
    fn competitive_with_greedy() {
        // Stage-exact search should be within a few percent of greedy in
        // either direction (it is exact per stage but processes stages
        // independently; greedy trades slack globally).
        let (tree, tech) = fixture(60);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let exact = StageExhaustive.optimize(&ctx);
        let greedy = GreedyDowngrade::default().optimize(&ctx);
        let ratio = exact.power().network_uw() / greedy.power().network_uw();
        assert!(
            (0.8..=1.25).contains(&ratio),
            "stage-exact / greedy power ratio {ratio}"
        );
    }
}
