//! CTS configuration.

use snr_tech::Rule;

/// Configuration for the CTS flow.
///
/// The defaults reproduce the setting of the smart-NDR experiments: trees
/// are *constructed* assuming the most conservative rule (the industrial
/// practice the paper starts from — uniform 2W2S clock routing), buffered to
/// a 120 fF stage-capacitance limit against a 100 ps slew target.
///
/// # Examples
///
/// ```
/// use snr_cts::CtsOptions;
///
/// let opts = CtsOptions::default();
/// assert_eq!(opts.max_stage_cap_ff(), 120.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CtsOptions {
    construction_rule: Rule,
    max_stage_cap_ff: f64,
    slew_target_ps: f64,
}

impl CtsOptions {
    /// The routing rule whose parasitics DME uses when balancing the tree.
    pub fn construction_rule(&self) -> Rule {
        self.construction_rule
    }

    /// Maximum capacitance a single buffer stage may drive, in fF.
    pub fn max_stage_cap_ff(&self) -> f64 {
        self.max_stage_cap_ff
    }

    /// Buffer-output slew target used for cell selection, in ps.
    pub fn slew_target_ps(&self) -> f64 {
        self.slew_target_ps
    }
}

impl Default for CtsOptions {
    fn default() -> Self {
        CtsOptions {
            // 2W2S is statically valid; fall back to the single-width
            // default rule rather than panic if the rule constructor ever
            // tightens.
            construction_rule: Rule::new(2.0, 2.0).unwrap_or_default(),
            max_stage_cap_ff: 120.0,
            slew_target_ps: 100.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = CtsOptions::default();
        assert_eq!(o.construction_rule(), Rule::new(2.0, 2.0).unwrap());
        assert_eq!(o.max_stage_cap_ff(), 120.0);
        assert_eq!(o.slew_target_ps(), 100.0);
    }
}
