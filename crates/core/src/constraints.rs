//! Timing constraints for NDR optimization.

use snr_cts::{Assignment, ClockTree};
use snr_tech::Technology;
use snr_timing::{Analyzer, TimingReport};
use std::fmt;

/// The slew/skew envelope an assignment must stay inside.
///
/// Two construction styles:
///
/// * [`Constraints::absolute`] — explicit ps limits;
/// * [`Constraints::relative`] — limits derived from the tree's
///   conservative-uniform baseline: `slew_margin ×` its max slew, plus an
///   absolute skew budget. This mirrors the paper's setting, where the
///   uniform-NDR tree *defines* acceptable timing and smart NDR must not
///   degrade it beyond a margin.
///
/// # Examples
///
/// ```
/// let c = snr_core::Constraints::absolute(150.0, 30.0);
/// assert_eq!(c.slew_limit_ps(), 150.0);
/// assert_eq!(c.skew_limit_ps(), 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    slew_limit_ps: f64,
    skew_limit_ps: f64,
    noise_limit_ff_per_um: Option<f64>,
    em_limit_ma_per_um: Option<f64>,
    track_budget_um: Option<f64>,
}

impl Constraints {
    /// Explicit limits in ps.
    ///
    /// # Panics
    ///
    /// Panics if either limit is not positive and finite.
    pub fn absolute(slew_limit_ps: f64, skew_limit_ps: f64) -> Self {
        assert!(
            slew_limit_ps.is_finite() && slew_limit_ps > 0.0,
            "slew limit {slew_limit_ps} must be positive"
        );
        assert!(
            skew_limit_ps.is_finite() && skew_limit_ps > 0.0,
            "skew limit {skew_limit_ps} must be positive"
        );
        Constraints {
            slew_limit_ps,
            skew_limit_ps,
            noise_limit_ff_per_um: None,
            em_limit_ma_per_um: None,
            track_budget_um: None,
        }
    }

    /// Returns a copy that additionally enforces an electromigration limit:
    /// the effective RMS current each edge carries (its stage-local
    /// downstream switched capacitance × VDD × f) must not exceed
    /// `limit` mA per µm of *drawn wire width* — so high-current edges are
    /// floored to wide rules regardless of timing slack. Copper clock
    /// wiring is typically rated at a few mA/µm of width.
    ///
    /// # Panics
    ///
    /// Panics if the limit is not positive and finite.
    pub fn with_em_limit(mut self, limit_ma_per_um: f64) -> Self {
        assert!(
            limit_ma_per_um.is_finite() && limit_ma_per_um > 0.0,
            "EM limit {limit_ma_per_um} must be positive"
        );
        self.em_limit_ma_per_um = Some(limit_ma_per_um);
        self
    }

    /// The electromigration current limit, if any.
    pub fn em_limit_ma_per_um(&self) -> Option<f64> {
        self.em_limit_ma_per_um
    }

    /// Returns a copy that additionally caps the assignment's total
    /// routing-track cost (wirelength weighted by each rule's track cost,
    /// in equivalent default-rule µm) — the router's budget for the clock
    /// net.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive and finite.
    pub fn with_track_budget_um(mut self, budget_um: f64) -> Self {
        assert!(
            budget_um.is_finite() && budget_um > 0.0,
            "track budget {budget_um} must be positive"
        );
        self.track_budget_um = Some(budget_um);
        self
    }

    /// The routing-track budget, if any.
    pub fn track_budget_um(&self) -> Option<f64> {
        self.track_budget_um
    }

    /// Returns a copy that additionally caps every edge's coupling to
    /// switching aggressors at `limit` fF/µm (crosstalk-noise budget).
    ///
    /// Spacing rules *reduce* aggressor coupling; only shielded rules
    /// reach zero, so a tight budget forces shields onto the menu — the
    /// industrial reason clock shielding exists.
    ///
    /// # Panics
    ///
    /// Panics if the limit is negative or non-finite.
    pub fn with_noise_limit(mut self, limit_ff_per_um: f64) -> Self {
        assert!(
            limit_ff_per_um.is_finite() && limit_ff_per_um >= 0.0,
            "noise limit {limit_ff_per_um} must be >= 0"
        );
        self.noise_limit_ff_per_um = Some(limit_ff_per_um);
        self
    }

    /// The per-edge aggressor-coupling budget, if any.
    pub fn noise_limit_ff_per_um(&self) -> Option<f64> {
        self.noise_limit_ff_per_um
    }

    /// Limits derived from the conservative-uniform baseline of `tree`:
    /// slew limit = `slew_margin` × the baseline's max slew; skew limit =
    /// baseline skew + `skew_budget_ps`.
    ///
    /// # Panics
    ///
    /// Panics where [`Constraints::try_relative`] returns an error.
    pub fn relative(tree: &ClockTree, tech: &Technology, slew_margin: f64, skew_budget_ps: f64) -> Self {
        Self::try_relative(tree, tech, slew_margin, skew_budget_ps)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Constraints::relative`] for limits taken from a request.
    ///
    /// # Errors
    ///
    /// A message naming the limit when `slew_margin < 1` (the baseline
    /// itself would violate), or when a derived limit is not positive and
    /// finite: a skew budget that leaves no room, or a margin so large that
    /// the slew limit overflows.
    pub fn try_relative(
        tree: &ClockTree,
        tech: &Technology,
        slew_margin: f64,
        skew_budget_ps: f64,
    ) -> Result<Self, String> {
        let base = Assignment::uniform(tree, tech.rules().most_conservative_id());
        let report = Analyzer::new().run(tree, tech, &base);
        Self::try_over_baseline(report.max_slew_ps(), report.skew_ps(), slew_margin, skew_budget_ps)
    }

    /// [`Constraints::try_relative`] over a baseline already analyzed: its
    /// max slew and skew, ps. Callers deriving many limit sets from one
    /// tree analyze its baseline once; the limits carry the same bits.
    ///
    /// # Errors
    ///
    /// As [`Constraints::try_relative`].
    pub fn try_over_baseline(
        baseline_max_slew_ps: f64,
        baseline_skew_ps: f64,
        slew_margin: f64,
        skew_budget_ps: f64,
    ) -> Result<Self, String> {
        if !(slew_margin.is_finite() && slew_margin >= 1.0) {
            return Err(format!("slew margin {slew_margin} must be >= 1"));
        }
        let (slew, skew) = (slew_margin * baseline_max_slew_ps, baseline_skew_ps + skew_budget_ps);
        if !(slew.is_finite() && slew > 0.0) {
            return Err(format!(
                "slew margin {slew_margin:?} gives no usable slew limit ({slew} ps) over a baseline max slew of {baseline_max_slew_ps:.3} ps"
            ));
        }
        if !(skew.is_finite() && skew > 0.0) {
            return Err(format!(
                "skew budget {skew_budget_ps:?} ps gives no usable skew limit ({skew} ps) over a baseline skew of {baseline_skew_ps:.3} ps"
            ));
        }
        Ok(Constraints::absolute(slew, skew))
    }

    /// Max slew allowed at any sink or buffer input, ps.
    pub fn slew_limit_ps(&self) -> f64 {
        self.slew_limit_ps
    }

    /// Max global skew allowed, ps.
    pub fn skew_limit_ps(&self) -> f64 {
        self.skew_limit_ps
    }

    /// Whether `report` satisfies both limits.
    pub fn met_by(&self, report: &TimingReport) -> bool {
        report.meets(self.slew_limit_ps, self.skew_limit_ps)
    }

    /// Total constraint violation in ps (0 when met) — the penalty measure
    /// used by the annealer and the repair optimizer.
    pub fn violation_ps(&self, report: &TimingReport) -> f64 {
        self.violation_ps_of(report.max_slew_ps(), report.skew_ps())
    }

    /// [`Constraints::violation_ps`] from raw slew/skew values — for session
    /// candidate evaluations, which carry scalars instead of a full report.
    pub fn violation_ps_of(&self, max_slew_ps: f64, skew_ps: f64) -> f64 {
        (max_slew_ps - self.slew_limit_ps).max(0.0) + (skew_ps - self.skew_limit_ps).max(0.0)
    }
}

impl fmt::Display for Constraints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slew <= {:.0} ps, skew <= {:.1} ps",
            self.slew_limit_ps, self.skew_limit_ps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::BenchmarkSpec;

    #[test]
    fn absolute_accessors() {
        let c = Constraints::absolute(100.0, 25.0);
        assert_eq!(c.slew_limit_ps(), 100.0);
        assert_eq!(c.skew_limit_ps(), 25.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_limit_panics() {
        let _ = Constraints::absolute(0.0, 25.0);
    }

    #[test]
    fn relative_always_met_by_baseline() {
        let design = BenchmarkSpec::new("t", 80).seed(3).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let c = Constraints::relative(&tree, &tech, 1.05, 20.0);
        let base = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let report = Analyzer::new().run(&tree, &tech, &base);
        assert!(c.met_by(&report));
        assert_eq!(c.violation_ps(&report), 0.0);
    }

    #[test]
    fn limits_over_an_analyzed_baseline_carry_the_relative_bits() {
        let design = BenchmarkSpec::new("t", 60).seed(4).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let base = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let report = Analyzer::new().run(&tree, &tech, &base);
        for (margin, budget) in [(1.0, 10.0), (1.05, 30.0), (1.25, 150.0), (0.5, 10.0), (1e308, 10.0)] {
            assert_eq!(
                Constraints::try_over_baseline(report.max_slew_ps(), report.skew_ps(), margin, budget),
                Constraints::try_relative(&tree, &tech, margin, budget),
                "margin {margin}, budget {budget}"
            );
        }
    }

    #[test]
    fn try_relative_rejects_limits_it_cannot_derive() {
        let design = BenchmarkSpec::new("t", 40).seed(1).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        assert_eq!(
            Constraints::try_relative(&tree, &tech, 1.05, 20.0),
            Ok(Constraints::relative(&tree, &tech, 1.05, 20.0))
        );
        for (margin, budget, names) in [
            (0.5, 30.0, "slew margin 0.5"),
            (1e308, 30.0, "slew margin 1e308"),
            (1.1, -1e9, "skew budget"),
        ] {
            let err = Constraints::try_relative(&tree, &tech, margin, budget).unwrap_err();
            assert!(err.contains(names), "{err}");
        }
    }

    #[test]
    fn violation_measures_excess() {
        let design = BenchmarkSpec::new("t", 80).seed(3).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        // Impossible limits: everything violates.
        let c = Constraints::absolute(1.0, 0.001);
        let base = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let report = Analyzer::new().run(&tree, &tech, &base);
        assert!(!c.met_by(&report));
        assert!(c.violation_ps(&report) > 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Constraints::absolute(150.0, 30.0).to_string(),
            "slew <= 150 ps, skew <= 30.0 ps"
        );
    }

    #[test]
    fn em_and_track_builders() {
        let c = Constraints::absolute(150.0, 30.0)
            .with_em_limit(2.0)
            .with_track_budget_um(50_000.0);
        assert_eq!(c.em_limit_ma_per_um(), Some(2.0));
        assert_eq!(c.track_budget_um(), Some(50_000.0));
        assert!(std::panic::catch_unwind(|| {
            Constraints::absolute(150.0, 30.0).with_em_limit(0.0)
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            Constraints::absolute(150.0, 30.0).with_track_budget_um(-1.0)
        })
        .is_err());
    }

    #[test]
    fn noise_limit_builder() {
        let c = Constraints::absolute(150.0, 30.0).with_noise_limit(0.03);
        assert_eq!(c.noise_limit_ff_per_um(), Some(0.03));
        assert_eq!(Constraints::absolute(150.0, 30.0).noise_limit_ff_per_um(), None);
        assert!(std::panic::catch_unwind(|| {
            Constraints::absolute(150.0, 30.0).with_noise_limit(-1.0)
        })
        .is_err());
    }
}
