//! Depth-threshold baseline.

use crate::{NdrOptimizer, OptContext, SupervisedRun};
use snr_cts::Assignment;

/// The industry rule-of-thumb baseline: conservative rules on the trunk
/// (shallow edges, which carry the whole tree's variation), default rules
/// on the leaf-side edges.
///
/// The depth threshold is *auto-tuned*: the optimizer tries every cut depth
/// and keeps the cheapest one that still meets the constraints, falling
/// back to uniform-conservative if none does. This makes it a fair
/// baseline — it is the best its family can do — while remaining
/// structurally blind to per-edge electrical context, which is exactly
/// what the smart method exploits.
///
/// # Examples
///
/// ```
/// use snr_core::LevelBased;
/// let l = LevelBased::default();
/// assert_eq!(snr_core::NdrOptimizer::name(&l), "level-based");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelBased;

impl NdrOptimizer for LevelBased {
    fn name(&self) -> &str {
        "level-based"
    }

    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun {
        let tree = ctx.tree();
        let rules = ctx.tech().rules();
        let depths = tree.depths();
        let max_depth = depths.iter().copied().max().unwrap_or(0);

        // Try cut depths from 0 (all default) upward; deeper cut = more
        // conservative wire = more power. Keep the cheapest feasible.
        let mut best: Option<Assignment> = None;
        for cut in 0..=max_depth + 1 {
            let mut asg = Assignment::uniform(tree, rules.default_id());
            for e in tree.edges() {
                if depths[e.0] <= cut {
                    asg.set(e, rules.most_conservative_id());
                }
            }
            if ctx.feasible(&asg) {
                best = Some(asg);
                break; // smallest feasible cut is the cheapest of the family
            }
        }
        SupervisedRun::unsupervised(best.unwrap_or_else(|| ctx.conservative_assignment()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::BenchmarkSpec;
    use snr_power::PowerModel;
    use snr_tech::Technology;

    #[test]
    fn feasible_and_cheaper_than_conservative() {
        let design = BenchmarkSpec::new("t", 128).seed(5).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let level = LevelBased.optimize(&ctx);
        let base = ctx.conservative_baseline();
        assert!(level.meets_constraints());
        assert!(level.power().total_uw() <= base.power().total_uw());
    }

    #[test]
    fn falls_back_when_infeasible() {
        use crate::Constraints;
        let design = BenchmarkSpec::new("t", 64).seed(5).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_constraints(Constraints::absolute(1.0, 0.001));
        let asg = LevelBased.assign(&ctx);
        // Impossible constraints: must return the conservative fallback.
        assert_eq!(asg, ctx.conservative_assignment());
    }

    #[test]
    fn conservative_edges_are_contiguous_from_root() {
        let design = BenchmarkSpec::new("t", 128).seed(6).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let asg = LevelBased.assign(&ctx);
        let depths = tree.depths();
        // If an edge is conservative, every shallower edge on its root path
        // must be conservative too.
        for e in tree.edges() {
            if asg.rule(e) == tech.rules().most_conservative_id() {
                let mut cur = tree.node(e).parent();
                while let Some(p) = cur {
                    if tree.node(p).parent().is_some() {
                        assert_eq!(
                            asg.rule(p),
                            tech.rules().most_conservative_id(),
                            "edge {p} at depth {} should be conservative",
                            depths[p.0]
                        );
                    }
                    cur = tree.node(p).parent();
                }
            }
        }
    }
}
