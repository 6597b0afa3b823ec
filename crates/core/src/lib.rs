//! Smart non-default routing for clock power reduction — the paper's core
//! contribution.
//!
//! Industrial clock trees are routed with a *uniform* conservative
//! non-default rule (typically 2W2S) to control delay variability and slew.
//! That uniformity is wasteful: most edges could use a cheaper rule without
//! violating any constraint. This crate assigns a routing rule **per tree
//! edge**, minimizing switched clock capacitance (≈ clock power) subject to
//!
//! * a **max-slew** limit at every buffer input and sink,
//! * a **global skew** limit across sinks, and
//! * optionally a **robustness** budget on the Monte-Carlo σ-skew under
//!   wire-width variation (the reason NDRs exist in the first place).
//!
//! # Optimizers
//!
//! | Type | Strategy | Role |
//! |------|----------|------|
//! | [`Uniform`] | one rule everywhere | the industrial baselines |
//! | [`LevelBased`] | conservative near the root, default near leaves | rule-of-thumb baseline |
//! | [`GreedyDowngrade`] | sensitivity-ordered downgrades from the conservative start | the "smart" downgrade construction |
//! | [`SmartNdr`] | cheaper of greedy downgrade and stage-net downgrade; upgrade-repair only when the conservative start is infeasible | **the headline flow** |
//! | [`GreedyUpgradeRepair`] | upgrades from the all-default start until feasible | dual construction; `SmartNdr`'s rescue |
//! | [`Annealing`] | simulated annealing over assignments | global-search reference |
//!
//! All optimizers implement [`NdrOptimizer`] and are compared by the
//! experiment harness in `snr-bench`.
//!
//! # Examples
//!
//! ```
//! use snr_netlist::BenchmarkSpec;
//! use snr_tech::Technology;
//! use snr_cts::{synthesize, CtsOptions};
//! use snr_power::PowerModel;
//! use snr_core::{Constraints, GreedyDowngrade, NdrOptimizer, OptContext};
//!
//! let design = BenchmarkSpec::new("demo", 96).seed(3).build()?;
//! let tech = Technology::n45();
//! let tree = synthesize(&design, &tech, &CtsOptions::default())?;
//! let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()))
//!     .with_constraints(Constraints::relative(&tree, &tech, 1.10, 30.0));
//!
//! let smart = GreedyDowngrade::default().optimize(&ctx);
//! let baseline = ctx.conservative_baseline();
//! assert!(smart.power().total_uw() <= baseline.power().total_uw());
//! assert!(smart.meets_constraints());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod anneal;
mod constraints;
mod context;
mod error;
#[cfg(feature = "fault-inject")]
mod execfault;
mod greedy;
mod level;
mod outcome;
mod resize;
mod robustness;
mod session;
mod smart;
mod supervise;
mod uniform;
mod upgrade;

pub use anneal::Annealing;
pub use constraints::Constraints;
pub use context::OptContext;
pub use error::CoreError;
#[cfg(feature = "fault-inject")]
pub use execfault::ExecFault;
pub use greedy::GreedyDowngrade;
pub use level::LevelBased;
pub use outcome::Outcome;
pub use resize::{buffer_size_histogram, downsize_buffers, downsize_in_context, ResizeOutcome};
pub use robustness::{enforce_robustness, RobustnessSpec};
pub use session::{CandidateEval, Degradation, EvalMode, EvalSession};
pub use smart::SmartNdr;
pub use supervise::{panic_message, Budget, BudgetReport, DegradationEvent, SupervisedRun};
pub use uniform::Uniform;
pub use upgrade::GreedyUpgradeRepair;

// Re-exported so callers can configure parallel optimizers and budgets
// without a direct snr-par dependency.
pub use snr_par::{CancelToken, Cancelled, Deadline, Parallelism};

use snr_cts::Assignment;

/// A per-edge NDR assignment strategy.
///
/// Implementations must return assignments valid for the context's tree and
/// technology; they *should* return constraint-satisfying assignments
/// whenever the conservative uniform baseline satisfies them (every
/// optimizer here falls back to that baseline rather than return a
/// violating result).
pub trait NdrOptimizer {
    /// Short stable name for tables (e.g. `"smart-greedy"`).
    fn name(&self) -> &str;

    /// Produces an assignment for the context's tree together with its
    /// supervision record: per-phase [`BudgetReport`]s and any
    /// [`DegradationEvent`] ladder rungs taken (both empty for an
    /// optimizer without budgets, see [`SupervisedRun::unsupervised`]).
    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun;

    /// Produces an assignment for the context's tree, dropping the
    /// supervision record.
    fn assign(&self, ctx: &OptContext<'_>) -> Assignment {
        self.assign_supervised(ctx).assignment
    }

    /// Runs the optimizer and packages the result with its evaluation and
    /// supervision record.
    fn optimize(&self, ctx: &OptContext<'_>) -> Outcome {
        let start = std::time::Instant::now();
        let run = self.assign_supervised(ctx);
        ctx.outcome(self.name(), run.assignment, start.elapsed())
            .with_supervision(run.budgets, run.degradations)
    }
}
