//! Post-NDR buffer downsizing — the paper-family "future work" extension.
//!
//! After smart NDR strips capacitance from the tree, the stage loads the
//! buffers were sized for no longer exist: a buffer picked to drive a
//! 2W2S-loaded stage is oversized for the same stage at 1W2S. Downsizing
//! recovers buffer input-pin and internal power on top of the wire saving,
//! at zero wire cost.

use crate::{Constraints, OptContext};
use snr_cts::{Assignment, ClockTree, NodeKind};
use snr_power::{evaluate, PowerModel, PowerReport};
use snr_tech::Technology;
use snr_timing::analyze;

/// The result of a downsizing pass.
#[derive(Debug, Clone)]
pub struct ResizeOutcome {
    /// The tree with downsized buffer cells (structure unchanged).
    pub tree: ClockTree,
    /// Number of buffers that changed cell.
    pub downsized: usize,
    /// Power of the resized tree under the same assignment.
    pub power: PowerReport,
}

/// Downsizes buffers one library step at a time, keeping only steps that
/// leave the whole tree inside `constraints` under `assignment`.
///
/// Rounds repeat to a fixed point: downsizing a buffer shrinks its input
/// pin, which lightens the upstream stage and may admit a further downsize
/// there. Every accepted step is individually verified, so the result is
/// feasible by construction (unlike a size-by-formula pass, which can blow
/// a saturated skew budget). Returns `None` when nothing could be
/// downsized.
///
/// # Panics
///
/// Panics if `assignment` does not match `tree`.
///
/// # Examples
///
/// ```
/// use snr_netlist::BenchmarkSpec;
/// use snr_tech::Technology;
/// use snr_cts::{synthesize, CtsOptions};
/// use snr_power::PowerModel;
/// use snr_core::{downsize_buffers, GreedyDowngrade, NdrOptimizer, OptContext};
///
/// let design = BenchmarkSpec::new("demo", 96).seed(3).build()?;
/// let tech = Technology::n45();
/// let tree = synthesize(&design, &tech, &CtsOptions::default())?;
/// let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
/// let smart = GreedyDowngrade::default().assign(&ctx);
/// if let Some(out) = downsize_buffers(
///     &tree, &tech, &smart, ctx.constraints(), PowerModel::new(1.0),
/// ) {
///     assert!(out.downsized > 0);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn downsize_buffers(
    tree: &ClockTree,
    tech: &Technology,
    assignment: &Assignment,
    constraints: Constraints,
    power_model: PowerModel,
) -> Option<ResizeOutcome> {
    let mut current = tree.clone();
    if !constraints.met_by(&analyze(&current, tech, assignment)) {
        return None; // nothing to preserve — refuse to "improve" a violator
    }
    let buffers = current.buffer_nodes();
    let mut total_downsized = 0usize;

    loop {
        let mut changed = 0usize;
        for &b in &buffers {
            let NodeKind::Buffer { cell } = current.node(b).kind() else {
                continue;
            };
            if cell == 0 {
                continue; // already the smallest cell
            }
            let candidate =
                current.with_remapped_buffers(|id, c| if id == b { cell - 1 } else { c });
            if constraints.met_by(&analyze(&candidate, tech, assignment)) {
                current = candidate;
                changed += 1;
            }
        }
        if changed == 0 {
            break;
        }
        total_downsized += changed;
    }

    if total_downsized == 0 {
        return None;
    }
    let power = evaluate(&current, tech, assignment, &power_model);
    Some(ResizeOutcome {
        tree: current,
        downsized: total_downsized,
        power,
    })
}

/// Convenience wrapper running the downsizing against an [`OptContext`].
///
/// Returns `None` under the same conditions as [`downsize_buffers`].
pub fn downsize_in_context(ctx: &OptContext<'_>, assignment: &Assignment) -> Option<ResizeOutcome> {
    downsize_buffers(
        ctx.tree(),
        ctx.tech(),
        assignment,
        ctx.constraints(),
        ctx.power_model(),
    )
}

/// Buffer-size histogram of a tree, indexed by library cell position —
/// handy for reporting what the downsizing did.
pub fn buffer_size_histogram(tree: &ClockTree, tech: &Technology) -> Vec<usize> {
    let mut hist = vec![0usize; tech.buffers().len()];
    for node in tree.nodes() {
        if let NodeKind::Buffer { cell } = node.kind() {
            hist[cell] += 1;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyDowngrade, NdrOptimizer};
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::BenchmarkSpec;

    fn fixture(n: usize) -> (ClockTree, Technology) {
        let design = BenchmarkSpec::new("t", n).seed(8).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (tree, tech)
    }

    #[test]
    fn downsizing_after_smart_ndr_saves_buffer_power() {
        let (tree, tech) = fixture(200);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let smart = GreedyDowngrade::default().assign(&ctx);
        let before = evaluate(&tree, &tech, &smart, &PowerModel::new(1.0));
        let out = downsize_in_context(&ctx, &smart).expect("smart tree admits downsizing");
        assert!(out.downsized > 0);
        assert!(
            out.power.buffer_internal_uw() + out.power.buffer_input_uw()
                < before.buffer_internal_uw() + before.buffer_input_uw()
        );
        // Wire power is untouched by resizing.
        assert!((out.power.wire_uw() - before.wire_uw()).abs() < 1e-9);
        out.tree.check().unwrap();
    }

    #[test]
    fn histogram_shifts_toward_smaller_cells() {
        let (tree, tech) = fixture(200);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let smart = GreedyDowngrade::default().assign(&ctx);
        let before = buffer_size_histogram(&tree, &tech);
        if let Some(out) = downsize_in_context(&ctx, &smart) {
            let after = buffer_size_histogram(&out.tree, &tech);
            assert_eq!(
                before.iter().sum::<usize>(),
                after.iter().sum::<usize>(),
                "buffer count unchanged"
            );
            // The mean cell index must not grow.
            let mean = |h: &[usize]| {
                let total: usize = h.iter().sum();
                h.iter().enumerate().map(|(i, c)| i * c).sum::<usize>() as f64 / total as f64
            };
            assert!(mean(&after) < mean(&before));
        }
    }

    #[test]
    fn impossible_constraints_yield_none() {
        let (tree, tech) = fixture(80);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let smart = GreedyDowngrade::default().assign(&ctx);
        // A skew limit nothing satisfies after any perturbation.
        let out = downsize_buffers(
            &tree,
            &tech,
            &smart,
            Constraints::absolute(1e-3, 1e-3),
            PowerModel::new(1.0),
        );
        assert!(out.is_none());
    }

    #[test]
    fn result_always_verifies() {
        let (tree, tech) = fixture(80);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let asg = ctx.conservative_assignment();
        if let Some(out) = downsize_in_context(&ctx, &asg) {
            let rep = analyze(&out.tree, &tech, &asg);
            assert!(ctx.constraints().met_by(&rep));
        }
    }
}
