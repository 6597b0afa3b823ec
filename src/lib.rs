//! # smart-ndr
//!
//! A from-scratch reproduction of *Smart non-default routing for clock
//! power reduction* (Kahng, Kang, Lee — DAC 2013): per-edge assignment of
//! non-default routing rules (NDRs) on buffered clock trees to minimize
//! clock power under slew, skew and variation-robustness constraints —
//! together with every substrate the study needs (technology models,
//! benchmark generation, DME-based clock-tree synthesis, RC timing, power
//! and Monte-Carlo variation analysis).
//!
//! The member crates are re-exported here under short names; the
//! [`Flow`] type wires them into the paper's end-to-end flow.
//!
//! # Quickstart
//!
//! ```
//! use smart_ndr::{Flow, netlist::BenchmarkSpec, tech::Technology};
//!
//! let design = BenchmarkSpec::new("quick", 200).seed(42).build()?;
//! let report = Flow::new(Technology::n45()).run(&design)?;
//!
//! // Smart NDR never does worse than the uniform-2W2S baseline and stays
//! // inside the timing envelope.
//! assert!(report.smart().meets_constraints());
//! assert!(report.saving() >= 0.0);
//! println!("{}", report.summary());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use snr_core as core;
pub use snr_cts as cts;
pub use snr_geom as geom;
pub use snr_mesh as mesh;
pub use snr_netlist as netlist;
pub use snr_power as power;
pub use snr_serve as serve;
pub use snr_tech as tech;
pub use snr_timing as timing;
pub use snr_variation as variation;

use snr_core::{Constraints, NdrOptimizer, OptContext, Outcome, SmartNdr};
use snr_cts::{synthesize, ClockTree, CtsError, CtsOptions};
use snr_netlist::Design;
use snr_power::PowerModel;
use snr_tech::Technology;

/// The end-to-end smart-NDR flow: CTS → baseline → smart assignment.
///
/// Configure the technology and constraint margins once, then
/// [`Flow::run`] any number of designs. CTS runs with
/// [`CtsOptions::default`]. See the crate-level example.
#[derive(Debug, Clone)]
pub struct Flow {
    tech: Technology,
    slew_margin: f64,
    skew_budget_ps: f64,
}

impl Flow {
    /// Creates a flow with the experiment defaults: 10 % slew margin and
    /// 30 ps skew budget over the uniform-conservative baseline.
    pub fn new(tech: Technology) -> Self {
        Flow {
            tech,
            slew_margin: 1.10,
            skew_budget_ps: 30.0,
        }
    }

    /// Returns a copy with a different slew margin (≥ 1) over the baseline.
    ///
    /// # Panics
    ///
    /// Panics if `margin < 1`.
    pub fn with_slew_margin(mut self, margin: f64) -> Self {
        assert!(margin.is_finite() && margin >= 1.0, "margin {margin} must be >= 1");
        self.slew_margin = margin;
        self
    }

    /// Returns a copy with a different absolute skew budget in ps.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive.
    pub fn with_skew_budget_ps(mut self, budget: f64) -> Self {
        assert!(budget.is_finite() && budget > 0.0, "budget {budget} must be positive");
        self.skew_budget_ps = budget;
        self
    }

    /// The configured technology.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// Runs the flow on `design`.
    ///
    /// # Errors
    ///
    /// Returns [`CtsError`] when clock-tree synthesis fails (see
    /// [`snr_cts::synthesize`]).
    pub fn run(&self, design: &Design) -> Result<FlowReport, CtsError> {
        let tree = synthesize(design, &self.tech, &CtsOptions::default())?;
        let ctx = OptContext::new(&tree, &self.tech, PowerModel::new(design.freq_ghz()))
            .with_constraints(Constraints::relative(
                &tree,
                &self.tech,
                self.slew_margin,
                self.skew_budget_ps,
            ));
        let baseline = ctx.conservative_baseline();
        let smart = SmartNdr::default().optimize(&ctx);
        Ok(FlowReport {
            design_name: design.name().to_owned(),
            tree,
            baseline,
            smart,
        })
    }
}

/// The result of one [`Flow::run`].
#[derive(Debug, Clone)]
pub struct FlowReport {
    design_name: String,
    tree: ClockTree,
    baseline: Outcome,
    smart: Outcome,
}

impl FlowReport {
    /// The design this report describes.
    pub fn design_name(&self) -> &str {
        &self.design_name
    }

    /// The synthesized clock tree.
    pub fn tree(&self) -> &ClockTree {
        &self.tree
    }

    /// The uniform-conservative (industrial) baseline.
    pub fn baseline(&self) -> &Outcome {
        &self.baseline
    }

    /// The smart-NDR result.
    pub fn smart(&self) -> &Outcome {
        &self.smart
    }

    /// Network-power saving of smart over the baseline (fraction).
    pub fn saving(&self) -> f64 {
        self.smart.network_saving_vs(&self.baseline)
    }

    /// A multi-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {}\n  baseline  {}\n  smart     {}\n  saving    {:.1}% of network power",
            self.design_name,
            self.tree.stats(),
            self.baseline,
            self.smart,
            100.0 * self.saving(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_netlist::BenchmarkSpec;

    #[test]
    fn flow_end_to_end() {
        let design = BenchmarkSpec::new("t", 80).seed(1).build().unwrap();
        let report = Flow::new(Technology::n45()).run(&design).unwrap();
        assert!(report.smart().meets_constraints());
        assert!(report.saving() > 0.0);
        assert!(report.summary().contains("saving"));
        assert_eq!(report.design_name(), "t");
        assert_eq!(report.tree().sink_nodes().len(), 80);
    }

    #[test]
    fn builder_validation() {
        let flow = Flow::new(Technology::n45())
            .with_slew_margin(1.2)
            .with_skew_budget_ps(50.0);
        assert_eq!(flow.tech().name(), "N45");
        assert!(std::panic::catch_unwind(|| Flow::new(Technology::n45())
            .with_slew_margin(0.9))
        .is_err());
    }
}
