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

/// Feasibility verdicts of the probes one walk evaluated.
#[derive(Debug, Default)]
struct Verdicts {
    feasible: usize,
    infeasible: usize,
}

/// Drives both sessions through the same random move sequence and checks
/// they agree at every step, then compares the final assignments and
/// reports end to end. Returns how the probes were judged.
fn drive(
    tree: &ClockTree,
    tech: &Technology,
    incremental: &mut EvalSession<'_, '_>,
    oracle: &mut EvalSession<'_, '_>,
    steps: usize,
    seed: u64,
) -> Result<Verdicts, TestCaseError> {
    let mut verdicts = Verdicts::default();
    let edges: Vec<NodeId> = tree.edges().collect();
    if edges.is_empty() {
        return Ok(verdicts);
    }
    let n_rules = tech.rules().len();
    let depths = tree.depths();
    let max_depth = edges.iter().map(|e| depths[e.0]).max().unwrap_or(1);
    let random_edges = |rng: &mut SplitMix, k: usize| -> Vec<(NodeId, RuleId)> {
        (0..k)
            .map(|_| (edges[rng.below(edges.len())], RuleId(rng.below(n_rules))))
            .collect()
    };
    let mut rng = SplitMix(seed | 1);

    for step in 0..steps {
        // Mostly single-edge flips. Sometimes a group move: 1–4 or 16–64
        // random edges, with duplicates so last-wins deduplication is
        // exercised, or a whole depth level at one rule, as the optimizers'
        // group downgrades probe.
        let moves = match rng.below(8) {
            0 | 1 => {
                let k = 1 + rng.below(4);
                random_edges(&mut rng, k)
            }
            2 => {
                let k = 16 + rng.below(49);
                random_edges(&mut rng, k)
            }
            3 => {
                let (d, to) = (1 + rng.below(max_depth), RuleId(rng.below(n_rules)));
                edges.iter().filter(|e| depths[e.0] == d).map(|&e| (e, to)).collect()
            }
            _ => random_edges(&mut rng, 1),
        };
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
        if a.feasible {
            verdicts.feasible += 1;
        } else {
            verdicts.infeasible += 1;
        }
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
    Ok(verdicts)
}

fn random_start(tree: &ClockTree, tech: &Technology, seed: u64) -> Assignment {
    let mut rng = SplitMix(seed.wrapping_mul(0x5851_f42d).wrapping_add(3));
    let mut asg = Assignment::uniform(tree, tech.rules().most_conservative_id());
    for e in tree.edges() {
        asg.set(e, RuleId(rng.below(tech.rules().len())));
    }
    asg
}

/// Total routing-track cost of `asg`, as `OptContext::meets` sums it.
fn track_cost_um(tree: &ClockTree, tech: &Technology, asg: &Assignment) -> f64 {
    let rules = tech.rules();
    tree.edges()
        .map(|e| rules.rule(asg.rule(e)).track_cost() * tree.node(e).edge_len_nm() as f64 / 1_000.0)
        .sum()
}

/// Largest EM current density of `asg` over the edges `OptContext::meets`
/// checks, mA per µm of drawn width.
fn max_em_ma_per_um(ctx: &OptContext<'_>, asg: &Assignment) -> f64 {
    let (tree, tech) = (ctx.tree(), ctx.tech());
    let report = ctx.analyze(asg);
    let (vdd, f) = (tech.vdd_v(), ctx.power_model().freq_ghz());
    let width_min_um = tech.clock_layer().width_min_um();
    tree.edges()
        .filter(|&e| tree.node(e).edge_len_nm() > 0)
        .map(|e| {
            let i_ma = report.stage_load_ff(e) * vdd * f / 1_000.0;
            i_ma / (tech.rules().rule(asg.rule(e)).width_mult() * width_min_um)
        })
        .fold(0.0, f64::max)
}

/// Midway between the largest aggressor coupling `asg` uses and the next
/// larger one the rule menu offers, fF/µm: every rule `asg` uses passes,
/// every noisier one fails.
fn noise_limit_above(tree: &ClockTree, tech: &Technology, asg: &Assignment) -> f64 {
    let layer = tech.clock_layer();
    let coupling = |rid: RuleId| layer.unit_c_aggressor(tech.rules().rule(rid));
    let used = tree.edges().map(|e| coupling(asg.rule(e))).fold(0.0, f64::max);
    let next = tech
        .rules()
        .iter()
        .map(|(rid, _)| coupling(rid))
        .filter(|&c| c > used)
        .fold(f64::INFINITY, f64::min);
    (used + next) / 2.0
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

    /// Track-budget, EM and noise limits, one kind per case: the session
    /// re-implements these checks of `OptContext::meets`. Each limit is set
    /// from a feasible start so that some probes pass and others fail:
    ///
    /// - track: the budget is a random start's own track cost;
    /// - EM: the limit is the conservative start's worst current density,
    ///   so narrowing a loaded edge or loading the worst one fails;
    /// - noise: the limit lies between the conservative rule's coupling
    ///   and the next larger one, so the 1S rules fail.
    ///
    /// `drive` commits infeasible states, and a committed noise violation
    /// rarely gets repaired, so each case walks eight short walks from the
    /// start. The probes across them must include feasible and infeasible
    /// ones, so the compared verdicts are never all alike.
    #[test]
    fn incremental_matches_oracle_with_track_em_and_noise_limits(
        design in arb_design(),
        kind in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        prop_assume!(tree.edges().filter(|&e| tree.node(e).edge_len_nm() > 0).count() >= 3);
        let power = PowerModel::new(design.freq_ghz());
        let timing_free = Constraints::absolute(1e9, 1e9);
        let conservative = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let (constraints, start) = match kind {
            0 => {
                let start = random_start(&tree, &tech, seed);
                (timing_free.with_track_budget_um(track_cost_um(&tree, &tech, &start)), start)
            }
            1 => {
                let ctx = OptContext::new(&tree, &tech, power);
                let limit = max_em_ma_per_um(&ctx, &conservative);
                (timing_free.with_em_limit(limit), conservative)
            }
            _ => {
                let limit = noise_limit_above(&tree, &tech, &conservative);
                (timing_free.with_noise_limit(limit), conservative)
            }
        };
        let inc_ctx = OptContext::new(&tree, &tech, power)
            .with_constraints(constraints)
            .with_eval_mode(EvalMode::Incremental);
        let full_ctx = OptContext::new(&tree, &tech, power)
            .with_constraints(constraints)
            .with_eval_mode(EvalMode::FullReanalysis);
        let mut seen = Verdicts::default();
        for walk in 1..=8u64 {
            let mut inc = inc_ctx.session_from(start.clone());
            let mut full = full_ctx.session_from(start.clone());
            prop_assert!(inc.feasible() && full.feasible(), "the start must be feasible");
            let walk_seed = seed ^ walk.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let v = drive(&tree, &tech, &mut inc, &mut full, 20, walk_seed)?;
            seen.feasible += v.feasible;
            seen.infeasible += v.infeasible;
        }
        prop_assert!(
            seen.feasible > 0 && seen.infeasible > 0,
            "limit kind {} judged every probe alike: {:?}",
            kind,
            seen
        );
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
