//! Property-based cross-crate invariants on randomized designs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smart_ndr::core::{GreedyDowngrade, GreedyUpgradeRepair, NdrOptimizer, OptContext, SmartNdr};
use smart_ndr::cts::{synthesize, Assignment, CtsOptions, NodeKind};
use smart_ndr::geom::{Point, Rect};
use smart_ndr::netlist::validate::Bounds;
use smart_ndr::netlist::{BenchmarkSpec, Design, Sink, SinkId};
use smart_ndr::power::{evaluate, PowerModel};
use smart_ndr::tech::{Rule, Technology};
use smart_ndr::timing::analyze;

fn arb_design() -> impl Strategy<Value = smart_ndr::netlist::Design> {
    (2usize..80, 0u64..1_000, 1usize..6).prop_map(|(n, seed, clusters)| {
        BenchmarkSpec::new(format!("p{n}-{seed}"), n)
            .seed(seed)
            .clusters(clusters)
            .build()
            .expect("spec is valid")
    })
}

/// An offset that keeps every coordinate of an `arb_design` die (well
/// under 1 mm a side, at the origin) inside [`Bounds`].
fn arb_offset() -> impl Strategy<Value = i64> {
    let reach = Bounds::default().max_coord_nm as i64 - 1_000_000;
    -reach..reach
}

/// `design` with its die, clock root and every sink moved by `by`.
fn translated(design: &Design, by: Point) -> Design {
    let die = Rect::new(design.die().lo() + by, design.die().hi() + by);
    let sinks = design
        .sinks()
        .iter()
        .map(|s| Sink::new(s.id(), s.name(), s.location() + by, s.cap_ff()))
        .collect();
    Design::new(design.name(), die, design.clock_root() + by, design.freq_ghz(), sinks)
        .expect("a translated design stays valid")
}

/// `design` with its sinks shuffled by `seed` and renumbered 0..n in their
/// new order.
fn reordered(design: &Design, seed: u64) -> Design {
    let mut sinks = design.sinks().to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..sinks.len()).rev() {
        sinks.swap(i, rng.gen_range(0..i + 1));
    }
    let sinks = sinks
        .iter()
        .enumerate()
        .map(|(i, s)| Sink::new(SinkId(i), s.name(), s.location(), s.cap_ff()))
        .collect();
    Design::new(design.name(), design.die(), design.clock_root(), design.freq_ghz(), sinks)
        .expect("a reordered design stays valid")
}

/// Smart, greedy and upgrade on `design` under each technology's default
/// constraints: per run, its label, its assignment and the bits of total
/// and network power, skew and max slew.
fn outcomes(design: &Design) -> Vec<(String, Assignment, [u64; 4])> {
    let methods: [&dyn NdrOptimizer; 3] =
        [&SmartNdr::default(), &GreedyDowngrade::default(), &GreedyUpgradeRepair::default()];
    let mut runs = Vec::new();
    for tech in [Technology::n45(), Technology::n32()] {
        let tree = synthesize(design, &tech, &CtsOptions::default()).expect("it synthesizes");
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
        for method in methods {
            let o = method.optimize(&ctx);
            let bits = [
                o.power().total_uw().to_bits(),
                o.power().network_uw().to_bits(),
                o.timing().skew_ps().to_bits(),
                o.timing().max_slew_ps().to_bits(),
            ];
            runs.push((format!("{} on {}", o.name(), tech.name()), o.assignment().clone(), bits));
        }
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CTS always produces a structurally valid tree containing exactly the
    /// design's sinks, with near-zero skew under the construction rule.
    #[test]
    fn cts_invariants(design in arb_design()) {
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        prop_assert!(tree.check().is_ok());
        prop_assert_eq!(tree.sink_nodes().len(), design.sinks().len());
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let rep = analyze(&tree, &tech, &asg);
        prop_assert!(rep.skew_ps() < 1.0, "skew {}", rep.skew_ps());
        // Every sink of the design appears exactly once in the tree.
        let mut seen = vec![false; design.sinks().len()];
        for s in tree.sink_nodes() {
            if let NodeKind::Sink { sink, cap_ff } = tree.node(s).kind() {
                prop_assert!(!seen[sink.0], "duplicate sink");
                seen[sink.0] = true;
                let expect = design.sink(sink).unwrap().cap_ff();
                prop_assert!((cap_ff - expect).abs() < 1e-12);
            }
        }
        prop_assert!(seen.iter().all(|s| *s));
    }

    /// The smart optimizer's output is feasible, never more power than the
    /// conservative baseline, and only uses rules from the menu.
    #[test]
    fn optimizer_invariants(design in arb_design()) {
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
        let smart = GreedyDowngrade::default().optimize(&ctx);
        let base = ctx.conservative_baseline();
        prop_assert!(smart.meets_constraints());
        prop_assert!(smart.power().total_uw() <= base.power().total_uw() + 1e-9);
        prop_assert!(smart.assignment().is_valid_for(tech.rules()));
        // Rule usage accounts for every micrometre of wire.
        let usage: f64 = smart.assignment().usage_um(&tree, tech.rules()).iter().sum();
        let wl: f64 = tree.nodes().iter().map(|n| n.edge_len_nm() as f64 / 1_000.0).sum();
        prop_assert!((usage - wl).abs() < 1e-6 * (1.0 + wl));
    }

    /// Power is monotone under per-edge capacitance: upgrading any single
    /// edge from default to 2W2S adds exactly the closed-form wire power.
    #[test]
    fn power_separability(design in arb_design(), pick in 0usize..1_000) {
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let edges: Vec<_> = tree.edges().collect();
        prop_assume!(!edges.is_empty());
        let e = edges[pick % edges.len()];
        let model = PowerModel::new(design.freq_ghz());
        let rules = tech.rules();

        let mut asg = Assignment::uniform(&tree, rules.default_id());
        let before = evaluate(&tree, &tech, &asg, &model);
        asg.set(e, rules.most_conservative_id());
        let after = evaluate(&tree, &tech, &asg, &model);

        let len_um = tree.node(e).edge_len_nm() as f64 / 1_000.0;
        let dc = tech.clock_unit_c(rules.rule(rules.most_conservative_id()))
            - tech.clock_unit_c(Rule::DEFAULT);
        let expect = smart_ndr::tech::units::switching_power_uw(
            dc * len_um, tech.vdd_v(), design.freq_ghz(), 1.0);
        prop_assert!((after.total_uw() - before.total_uw() - expect).abs() < 1e-9);
    }

    /// Timing monotonicity: scaling every edge's R and C up can only slow
    /// the tree (latency) — the property the optimizer's move logic relies
    /// on.
    #[test]
    fn timing_monotone_in_parasitics(design in arb_design(), scale in 1.0f64..2.0) {
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let nominal = analyze(&tree, &tech, &asg);

        let n = tree.len();
        let r_up = vec![scale; n];
        let c_up = vec![scale; n];
        let slower = smart_ndr::timing::Analyzer::new()
            .run_scaled(&tree, &tech, &asg, Some((&r_up, &c_up)));
        prop_assert!(slower.latency_ps() >= nominal.latency_ps() - 1e-9);
        prop_assert!(slower.max_slew_ps() >= nominal.max_slew_ps() - 1e-9);
    }

    /// Moving the die changes nothing: the same assignment, and power,
    /// skew and slew bit for bit, for smart, greedy and upgrade on both
    /// technologies. (Mirroring is not invariant: CTS depends on the tree's
    /// orientation.)
    #[test]
    fn translating_the_die_changes_nothing(
        design in arb_design(),
        dx in arb_offset(),
        dy in arb_offset(),
    ) {
        let moved = translated(&design, Point::new(dx, dy));
        for (a, b) in outcomes(&design).into_iter().zip(outcomes(&moved)) {
            prop_assert_eq!(a.clone(), b, "{}", a.0);
        }
    }

    /// Reordering the sinks changes nothing: with the sinks shuffled and
    /// their ids renumbered, power, skew and slew stay bit for bit the same
    /// for smart, greedy and upgrade on both technologies. (Tree nodes may
    /// be numbered differently, so assignments are not compared.)
    #[test]
    fn reordering_the_sinks_changes_nothing(design in arb_design(), shuffle in any::<u64>()) {
        let reordered = reordered(&design, shuffle);
        for (a, b) in outcomes(&design).into_iter().zip(outcomes(&reordered)) {
            prop_assert_eq!(a.2, b.2, "{}", a.0);
        }
    }
}
