//! Uniform-rule baselines.

use crate::{NdrOptimizer, OptContext, SupervisedRun};
use snr_cts::Assignment;
use snr_tech::RuleId;

/// The industrial baseline: every edge gets the same rule.
///
/// `Uniform::conservative()` is the practice the paper starts from
/// (uniform 2W2S); `Uniform::default_rule()` is signal-net-style routing
/// with no NDR at all.
///
/// # Examples
///
/// ```
/// use snr_core::Uniform;
/// use snr_tech::RuleId;
///
/// let u = Uniform::new("uniform-r2", RuleId(2));
/// assert_eq!(u.rule(), RuleId(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uniform {
    name: String,
    rule: RuleId,
}

impl Uniform {
    /// A uniform assignment of `rule` under the given display name.
    pub fn new(name: impl Into<String>, rule: RuleId) -> Self {
        Uniform {
            name: name.into(),
            rule,
        }
    }

    /// Uniform at the context technology's most conservative rule. The rule
    /// id is resolved at [`NdrOptimizer::assign`] time, so one value works
    /// across technologies.
    pub fn conservative() -> Self {
        Uniform {
            name: "uniform-2w2s".to_owned(),
            rule: RuleId(usize::MAX), // marker: resolve as most conservative
        }
    }

    /// Uniform at the default (1W1S) rule.
    pub fn default_rule() -> Self {
        Uniform {
            name: "uniform-1w1s".to_owned(),
            rule: RuleId(0),
        }
    }

    /// The configured rule id (`RuleId(usize::MAX)` is the
    /// "most conservative" marker).
    pub fn rule(&self) -> RuleId {
        self.rule
    }
}

impl NdrOptimizer for Uniform {
    fn name(&self) -> &str {
        &self.name
    }

    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun {
        let rule = if self.rule.0 == usize::MAX {
            ctx.tech().rules().most_conservative_id()
        } else {
            self.rule
        };
        SupervisedRun::unsupervised(Assignment::uniform(ctx.tree(), rule))
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
    fn assigns_single_rule_everywhere() {
        let design = BenchmarkSpec::new("t", 32).seed(1).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));

        let cons = Uniform::conservative().assign(&ctx);
        let def = Uniform::default_rule().assign(&ctx);
        for e in tree.edges() {
            assert_eq!(cons.rule(e), tech.rules().most_conservative_id());
            assert_eq!(def.rule(e), tech.rules().default_id());
        }
    }

    #[test]
    fn optimize_reports_names() {
        let design = BenchmarkSpec::new("t", 32).seed(1).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        assert_eq!(Uniform::conservative().optimize(&ctx).name(), "uniform-2w2s");
        assert_eq!(Uniform::default_rule().optimize(&ctx).name(), "uniform-1w1s");
    }
}
