//! Equivalence property tests: an [`EvalSession`] in incremental mode must
//! agree with the full-reanalysis oracle on every candidate it evaluates —
//! identical feasibility verdicts, timing within 1e-9 ps — across random
//! designs, random starting assignments, and random edge-flip sequences
//! with interleaved commits and rollbacks.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use snr_core::{Constraints, EvalMode, EvalSession, OptContext};
use snr_cts::{synthesize, Assignment, ClockTree, CtsOptions, NodeId};
use snr_netlist::{random_timing_arcs, BenchmarkSpec, Design};
use snr_power::PowerModel;
use snr_tech::{Corner, RuleId, Technology};

const TIMING_TOL_PS: f64 = 1e-9;
/// Power deltas compare a closed-form difference against the difference of
/// two full O(n) sums, so cancellation noise is the bound — still far below
/// anything an optimizer decision depends on.
const POWER_TOL_UW: f64 = 1e-6;

/// Deterministic splitmix64 so the flip sequence derives from one seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn arb_design() -> impl Strategy<Value = Design> {
    (2usize..60, 0u64..1_000).prop_map(|(n, seed)| {
        BenchmarkSpec::new(format!("eq{n}-{seed}"), n)
            .seed(seed)
            .build()
            .expect("spec is valid")
    })
}

/// Drives both sessions through the same random move sequence and checks
/// they agree at every step. Returns the final assignments for a last
/// end-to-end comparison.
fn drive(
    tree: &ClockTree,
    tech: &Technology,
    incremental: &mut EvalSession<'_, '_>,
    oracle: &mut EvalSession<'_, '_>,
    steps: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let edges: Vec<NodeId> = tree.edges().collect();
    if edges.is_empty() {
        return Ok(());
    }
    let n_rules = tech.rules().len();
    let mut rng = SplitMix(seed | 1);

    for step in 0..steps {
        // Mostly single-edge flips; sometimes a small group move, with
        // duplicate edges allowed so last-wins deduplication is exercised.
        let group = if rng.below(4) == 0 { 1 + rng.below(4) } else { 1 };
        let moves: Vec<(NodeId, RuleId)> = (0..group)
            .map(|_| (edges[rng.below(edges.len())], RuleId(rng.below(n_rules))))
            .collect();
        let a = incremental.try_moves(&moves);
        let b = oracle.try_moves(&moves);

        prop_assert_eq!(
            a.feasible,
            b.feasible,
            "feasibility diverged at step {}: inc {:?} vs full {:?}",
            step,
            a,
            b
        );
        prop_assert!(
            (a.worst_slew_ps - b.worst_slew_ps).abs() < TIMING_TOL_PS,
            "slew diverged at step {}: {} vs {}",
            step,
            a.worst_slew_ps,
            b.worst_slew_ps
        );
        prop_assert!(
            (a.skew_ps - b.skew_ps).abs() < TIMING_TOL_PS,
            "skew diverged at step {}: {} vs {}",
            step,
            a.skew_ps,
            b.skew_ps
        );
        prop_assert!(
            (a.power_delta_uw - b.power_delta_uw).abs() < POWER_TOL_UW,
            "power delta diverged at step {}: {} vs {}",
            step,
            a.power_delta_uw,
            b.power_delta_uw
        );

        if rng.below(3) == 0 {
            incremental.commit();
            oracle.commit();
        } else {
            incremental.rollback();
            oracle.rollback();
        }

        // Committed state stays in lockstep too.
        let ca = incremental.committed_eval();
        let cb = oracle.committed_eval();
        prop_assert_eq!(ca.feasible, cb.feasible, "committed feasibility at {}", step);
        prop_assert!((ca.worst_slew_ps - cb.worst_slew_ps).abs() < TIMING_TOL_PS);
        prop_assert!((ca.skew_ps - cb.skew_ps).abs() < TIMING_TOL_PS);
        prop_assert!(
            (incremental.network_uw() - oracle.network_uw()).abs() < POWER_TOL_UW,
            "committed power at {}: {} vs {}",
            step,
            incremental.network_uw(),
            oracle.network_uw()
        );
    }
    prop_assert_eq!(
        incremental.assignment(),
        oracle.assignment(),
        "final assignments diverged"
    );
    // The committed verdicts also match a from-scratch context evaluation.
    let reports_match = {
        let ra = incremental.report();
        let rb = oracle.report();
        (ra.max_slew_ps() - rb.max_slew_ps()).abs() < TIMING_TOL_PS
            && (ra.skew_ps() - rb.skew_ps()).abs() < TIMING_TOL_PS
            && (ra.latency_ps() - rb.latency_ps()).abs() < TIMING_TOL_PS
    };
    prop_assert!(reports_match, "final reports diverged");
    Ok(())
}

fn random_start(tree: &ClockTree, tech: &Technology, seed: u64) -> Assignment {
    let mut rng = SplitMix(seed.wrapping_mul(0x5851_f42d).wrapping_add(3));
    let mut asg = Assignment::uniform(tree, tech.rules().most_conservative_id());
    for e in tree.edges() {
        asg.set(e, RuleId(rng.below(tech.rules().len())));
    }
    asg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Nominal constraints: sessions agree over a long flip sequence from a
    /// random starting assignment.
    #[test]
    fn incremental_matches_oracle_nominal(design in arb_design(), seed in 0u64..1_000_000) {
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let power = PowerModel::new(design.freq_ghz());
        let inc_ctx = OptContext::new(&tree, &tech, power).with_eval_mode(EvalMode::Incremental);
        let full_ctx =
            OptContext::new(&tree, &tech, power).with_eval_mode(EvalMode::FullReanalysis);
        let start = random_start(&tree, &tech, seed);
        let mut inc = inc_ctx.session_from(start.clone());
        let mut full = full_ctx.session_from(start);
        drive(&tree, &tech, &mut inc, &mut full, 60, seed)?;
    }

    /// With corner checking on: per-corner engines must reproduce the
    /// corner re-analyses the oracle runs.
    #[test]
    fn incremental_matches_oracle_with_corners(design in arb_design(), seed in 0u64..1_000_000) {
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let power = PowerModel::new(design.freq_ghz());
        let corners = vec![Corner::slow(), Corner::fast()];
        let inc_ctx = OptContext::new(&tree, &tech, power)
            .with_corners(corners.clone())
            .with_eval_mode(EvalMode::Incremental);
        let full_ctx = OptContext::new(&tree, &tech, power)
            .with_corners(corners)
            .with_eval_mode(EvalMode::FullReanalysis);
        let mut inc = inc_ctx.session();
        let mut full = full_ctx.session();
        drive(&tree, &tech, &mut inc, &mut full, 40, seed)?;
    }

    /// With timing arcs and tighter limits (so feasibility actually flips
    /// during the walk): arc verdicts from candidate arrivals must agree.
    #[test]
    fn incremental_matches_oracle_with_arcs(design in arb_design(), seed in 0u64..1_000_000) {
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        prop_assume!(design.sinks().len() >= 2);
        let arcs = random_timing_arcs(&design, 20, (5.0, 20.0), (5.0, 20.0), seed.wrapping_add(11));
        let power = PowerModel::new(design.freq_ghz());
        let constraints = Constraints::relative(&tree, &tech, 1.05, 10.0);
        let inc_ctx = OptContext::new(&tree, &tech, power)
            .with_constraints(constraints)
            .with_timing_arcs(arcs.clone())
            .expect("arcs reference design sinks")
            .with_eval_mode(EvalMode::Incremental);
        let full_ctx = OptContext::new(&tree, &tech, power)
            .with_constraints(constraints)
            .with_timing_arcs(arcs)
            .expect("arcs reference design sinks")
            .with_eval_mode(EvalMode::FullReanalysis);
        let mut inc = inc_ctx.session();
        let mut full = full_ctx.session();
        drive(&tree, &tech, &mut inc, &mut full, 40, seed)?;
    }

    /// Deep trees under useful-skew windows as the Pareto sweep builds them
    /// (`sinks/2` arcs under a relaxed global budget). The incremental
    /// session re-checks only the arcs with an endpoint in a probe's
    /// re-timed cone and keeps every other arc's committed verdict. From
    /// the conservative start, 5–10 ps windows make the arcs decide a good
    /// share of probes both ways, and `drive` commits infeasible states,
    /// so committed violations outside later cones must still count.
    #[test]
    fn incremental_matches_oracle_with_windows_on_deep_trees(
        n in 150usize..400,
        design_seed in 0u64..1_000,
        window in 5.0f64..10.0,
        seed in 0u64..1_000_000,
    ) {
        let design = BenchmarkSpec::new(format!("win{n}-{design_seed}"), n)
            .seed(design_seed)
            .build()
            .expect("spec is valid");
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let arcs = random_timing_arcs(
            &design,
            n / 2,
            (window, window),
            (window, window),
            seed.wrapping_add(77),
        );
        let power = PowerModel::new(design.freq_ghz());
        let constraints = Constraints::relative(&tree, &tech, 1.1, 150.0);
        let inc_ctx = OptContext::new(&tree, &tech, power)
            .with_constraints(constraints)
            .with_timing_arcs(arcs.clone())
            .expect("arcs reference design sinks")
            .with_eval_mode(EvalMode::Incremental);
        let full_ctx = OptContext::new(&tree, &tech, power)
            .with_constraints(constraints)
            .with_timing_arcs(arcs)
            .expect("arcs reference design sinks")
            .with_eval_mode(EvalMode::FullReanalysis);
        let mut inc = inc_ctx.session();
        let mut full = full_ctx.session();
        drive(&tree, &tech, &mut inc, &mut full, 80, seed)?;
    }

    /// Optimizers produce identical results in both modes — the API
    /// redesign changes the evaluation machinery, not the search.
    #[test]
    fn greedy_downgrade_identical_across_modes(design in arb_design()) {
        use snr_core::{GreedyDowngrade, NdrOptimizer};
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let power = PowerModel::new(design.freq_ghz());
        let inc_ctx = OptContext::new(&tree, &tech, power).with_eval_mode(EvalMode::Incremental);
        let full_ctx =
            OptContext::new(&tree, &tech, power).with_eval_mode(EvalMode::FullReanalysis);
        let a = GreedyDowngrade::default().assign(&inc_ctx);
        let b = GreedyDowngrade::default().assign(&full_ctx);
        prop_assert_eq!(a, b, "greedy diverged between eval modes");
    }
}
