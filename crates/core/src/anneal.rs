//! Simulated-annealing reference optimizer.

use crate::supervise::Meter;
use crate::{Budget, DegradationEvent, NdrOptimizer, OptContext, SupervisedRun};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snr_cts::{Assignment, NodeId};
use snr_tech::RuleId;

/// Global-search reference: simulated annealing over the assignment vector.
///
/// The energy is `network power (µW) + λ · constraint violation (ps)`; a
/// move re-rules one random edge. The best *feasible* state seen is
/// returned (the conservative uniform if none was). Annealing explores
/// moves greedy cannot (temporarily violating, multi-edge trades), so the
/// ablation uses it to bound how much quality the one-pass heuristics give
/// up.
///
/// Deterministic for a fixed seed.
///
/// # Examples
///
/// ```
/// use snr_core::Annealing;
/// let a = Annealing::new(5_000, 42);
/// assert_eq!(snr_core::NdrOptimizer::name(&a), "annealing");
/// ```
#[derive(Debug, Clone)]
pub struct Annealing {
    iterations: usize,
    seed: u64,
    budget: Budget,
}

/// Starting temperature, µW; geometric cooling takes it to 1 % over the run.
const T0_UW: f64 = 20.0;

/// Energy weight λ of a constraint violation, µW per ps.
const PENALTY_UW_PER_PS: f64 = 50.0;

impl Annealing {
    /// Creates an annealer with `iterations` moves.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn new(iterations: usize, seed: u64) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        Annealing {
            iterations,
            seed,
            budget: Budget::unlimited(),
        }
    }

    /// Returns a copy bounded by `budget`. The single phase `"anneal"`
    /// ticks once per attempted move; annealing is already anytime (it
    /// tracks the best feasible state seen), so a capped run just stops
    /// the walk early.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Energy and feasibility of a candidate evaluation at network power
/// `network_uw`: `power + λ · violation`, feasible iff every constraint
/// holds *and* the violation measure is zero.
fn energy_of(ctx: &OptContext<'_>, eval: &crate::CandidateEval, network_uw: f64) -> (f64, bool) {
    let violation = ctx
        .constraints()
        .violation_ps_of(eval.worst_slew_ps, eval.skew_ps);
    let feasible = violation <= 0.0 && eval.feasible;
    (network_uw + PENALTY_UW_PER_PS * violation, feasible)
}

impl NdrOptimizer for Annealing {
    fn name(&self) -> &str {
        "annealing"
    }

    fn assign(&self, ctx: &OptContext<'_>) -> Assignment {
        self.assign_supervised(ctx).assignment
    }

    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun {
        let tree = ctx.tree();
        let rules = ctx.tech().rules();
        let edges: Vec<NodeId> = tree.edges().collect();
        let mut meter = Meter::start(&self.budget, "anneal");
        if edges.is_empty() {
            return SupervisedRun {
                assignment: ctx.conservative_assignment(),
                budgets: vec![meter.report()],
                degradations: Vec::new(),
            };
        }
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut session = ctx.session();
        let (mut cur_energy, start_feasible) =
            energy_of(ctx, &session.committed_eval(), session.network_uw());
        let mut best_feasible = start_feasible.then(|| (cur_energy, session.assignment().clone()));

        for i in 0..self.iterations {
            if !meter.tick() {
                break;
            }
            // Geometric cooling to ~1% of T0.
            let progress = i as f64 / self.iterations as f64;
            let temp = T0_UW * (0.01f64).powf(progress);

            let e = edges[rng.gen_range(0..edges.len())];
            let old_rule = session.rule(e);
            let new_rule = RuleId(rng.gen_range(0..rules.len()));
            if new_rule == old_rule {
                continue;
            }
            let eval = session.try_edge(e, new_rule);
            let (new_energy, feasible) =
                energy_of(ctx, &eval, session.network_uw() + eval.power_delta_uw);
            let accept = new_energy <= cur_energy
                || rng.gen_bool(((cur_energy - new_energy) / temp).exp().clamp(0.0, 1.0));
            if accept {
                session.commit();
                cur_energy = new_energy;
                if feasible
                    && best_feasible
                        .as_ref()
                        .is_none_or(|(be, _)| new_energy < *be)
                {
                    best_feasible = Some((new_energy, session.assignment().clone()));
                }
            } else {
                session.rollback();
            }
        }
        let mut degradations: Vec<DegradationEvent> = session
            .degradations()
            .iter()
            .copied()
            .map(DegradationEvent::IncrementalToFull)
            .collect();
        let assignment = match best_feasible {
            Some((_, asg)) => asg,
            None => {
                degradations.push(DegradationEvent::OptimizerToBaseline {
                    optimizer: "annealing",
                    detail: "no feasible state visited".to_owned(),
                });
                ctx.conservative_assignment()
            }
        };
        SupervisedRun {
            assignment,
            budgets: vec![meter.report()],
            degradations,
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
    fn feasible_and_saves_power() {
        let (tree, tech) = fixture(60);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let out = Annealing::new(3_000, 1).optimize(&ctx);
        let base = ctx.conservative_baseline();
        assert!(out.meets_constraints());
        assert!(out.power().network_uw() < base.power().network_uw());
    }

    #[test]
    fn deterministic_per_seed() {
        let (tree, tech) = fixture(40);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let a = Annealing::new(500, 7).assign(&ctx);
        let b = Annealing::new(500, 7).assign(&ctx);
        assert_eq!(a, b);
        let c = Annealing::new(500, 8).assign(&ctx);
        // Different seeds may coincide, but energies should match closely
        // if they do; just ensure the call succeeds.
        let _ = c;
    }

    #[test]
    fn infeasible_constraints_return_conservative() {
        use crate::Constraints;
        let (tree, tech) = fixture(30);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_constraints(Constraints::absolute(1.0, 0.001));
        let asg = Annealing::new(200, 3).assign(&ctx);
        assert_eq!(asg, ctx.conservative_assignment());
    }
}
