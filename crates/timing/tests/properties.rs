//! Property-based tests of the RC-tree analyzer.

use proptest::prelude::*;
use snr_cts::{synthesize, Assignment, ClockTree, CtsOptions, NodeKind};
use snr_netlist::BenchmarkSpec;
use snr_tech::Technology;
use snr_timing::{analyze, Analyzer};

fn arb_tree() -> impl Strategy<Value = ClockTree> {
    (2usize..80, 0u64..300).prop_map(|(n, seed)| {
        let design = BenchmarkSpec::new(format!("p{n}"), n)
            .seed(seed)
            .build()
            .expect("spec is valid");
        synthesize(&design, &Technology::n45(), &CtsOptions::default())
            .expect("suite-scale designs synthesize")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scaling any single edge's parasitics up never speeds anything:
    /// every arrival and every slew is monotone in every edge R and C.
    #[test]
    fn single_edge_monotonicity(tree in arb_tree(), pick in 0usize..1_000, scale in 1.0f64..3.0) {
        let tech = Technology::n45();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let nominal = analyze(&tree, &tech, &asg);

        let edges: Vec<_> = tree.edges().collect();
        prop_assume!(!edges.is_empty());
        let e = edges[pick % edges.len()];
        let mut r = vec![1.0; tree.len()];
        let mut c = vec![1.0; tree.len()];
        r[e.0] = scale;
        c[e.0] = scale;
        let perturbed = Analyzer::new().run_scaled(&tree, &tech, &asg, Some((&r, &c)));

        for node in tree.nodes() {
            let id = node.id();
            prop_assert!(
                perturbed.arrival_ps(id) >= nominal.arrival_ps(id) - 1e-9,
                "arrival at {id} got faster"
            );
            prop_assert!(
                perturbed.slew_ps(id) >= nominal.slew_ps(id) - 1e-9,
                "slew at {id} got faster"
            );
        }
        prop_assert!(perturbed.latency_ps() >= nominal.latency_ps() - 1e-9);
    }

    /// Within a stage, slew degrades monotonically away from the driver.
    #[test]
    fn slew_monotone_within_stages(tree in arb_tree()) {
        let tech = Technology::n45();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let rep = analyze(&tree, &tech, &asg);
        for node in tree.nodes() {
            let Some(p) = node.parent() else { continue };
            let parent = tree.node(p);
            let parent_is_source = parent.kind().is_buffer() || parent.parent().is_none();
            if parent_is_source {
                continue; // fresh stage: driver slew replaces the input slew
            }
            prop_assert!(
                rep.slew_ps(node.id()) >= rep.slew_ps(p) - 1e-9,
                "slew improved along wire at {}",
                node.id()
            );
        }
    }

    /// The analyzer is a pure function: reuse across arbitrary assignment
    /// sequences never contaminates results.
    #[test]
    fn analyzer_purity(tree in arb_tree(), seq in proptest::collection::vec(0usize..4, 1..6)) {
        let tech = Technology::n45();
        let rules = tech.rules();
        let mut shared = Analyzer::new();
        for &r in &seq {
            let asg = Assignment::uniform(&tree, snr_tech::RuleId(r % rules.len()));
            let a = shared.run(&tree, &tech, &asg);
            let b = analyze(&tree, &tech, &asg);
            prop_assert_eq!(a, b);
        }
    }

    /// Stage loads are conserved: the sum of every stage driver's load
    /// equals the tree's total capacitance (wire + pins) exactly.
    #[test]
    fn stage_loads_conserve_capacitance(tree in arb_tree()) {
        let tech = Technology::n45();
        let rules = tech.rules();
        let asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let rep = analyze(&tree, &tech, &asg);
        let cells = tech.buffers().cells();
        let layer = tech.clock_layer();
        let rule = rules.rule(rules.most_conservative_id());

        // Sum of loads over stage sources (root + buffers).
        let mut driven = 0.0;
        for node in tree.nodes() {
            let is_source = node.kind().is_buffer() || node.parent().is_none();
            if is_source {
                driven += rep.stage_load_ff(node.id());
            }
        }
        // Independent accounting: all wire (delay view) + all sink pins +
        // all non-root buffer input pins.
        let mut expect = 0.0;
        for node in tree.nodes() {
            expect += layer.unit_c_delay(rule) * node.edge_len_nm() as f64 / 1_000.0;
            match node.kind() {
                NodeKind::Sink { cap_ff, .. } => expect += cap_ff,
                NodeKind::Buffer { cell } if node.parent().is_some() => {
                    expect += cells[cell].input_cap_ff();
                }
                _ => {}
            }
        }
        prop_assert!(
            (driven - expect).abs() < 1e-6 * (1.0 + expect),
            "driven {driven} vs expected {expect}"
        );
    }
}
