//! Property-based tests of clock-tree synthesis.

use proptest::prelude::*;
use snr_cts::{
    bisection_topology, build_buffered_tree, h_tree, nearest_neighbor_topology, Assignment,
    CtsOptions, NodeKind,
};
use snr_geom::{Point, Rect};
use snr_netlist::{BenchmarkSpec, Design};
use snr_tech::Technology;
use snr_timing::analyze;

fn arb_design() -> impl Strategy<Value = Design> {
    (2usize..100, 0u64..500, 1usize..5, 0.0f64..=1.0).prop_map(|(n, seed, clusters, bg)| {
        BenchmarkSpec::new(format!("p{n}"), n)
            .seed(seed)
            .clusters(clusters)
            .background_frac(bg)
            .build()
            .expect("spec is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Buffered DME, for both topology generators: structurally valid, all
    /// sinks present, root driven, Elmore-balanced to sub-ps skew under the
    /// construction rule.
    #[test]
    fn buffered_dme_invariants(design in arb_design(), nn in any::<bool>()) {
        let tech = Technology::n45();
        let opts = CtsOptions::default();
        let plan = if nn {
            nearest_neighbor_topology(&design)
        } else {
            bisection_topology(&design)
        };
        let tree = build_buffered_tree(&design, &tech, &opts, &plan).unwrap();
        prop_assert!(tree.check().is_ok());
        prop_assert_eq!(tree.sink_nodes().len(), design.sinks().len());
        if design.sinks().len() > 1 {
            prop_assert!(tree.node(tree.root()).kind().is_buffer());
        }
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let rep = analyze(&tree, &tech, &asg);
        prop_assert!(rep.skew_ps() < 0.5, "skew {} ps", rep.skew_ps());
    }

    /// Total routed wirelength is at least the sink-bbox half-perimeter
    /// (a valid lower bound for any tree touching all sinks) and the edge
    /// lengths each cover their Manhattan span.
    #[test]
    fn wirelength_bounds(design in arb_design()) {
        let tech = Technology::n45();
        let plan = bisection_topology(&design);
        let tree = build_buffered_tree(&design, &tech, &CtsOptions::default(), &plan).unwrap();
        let wl: i64 = tree.nodes().iter().map(|n| n.edge_len_nm()).sum();
        if design.sinks().len() > 1 {
            prop_assert!(wl >= design.hpwl_nm());
        }
        for e in tree.edges() {
            let node = tree.node(e);
            let parent = tree.node(node.parent().unwrap());
            prop_assert!(node.edge_len_nm() >= parent.location().manhattan(node.location()));
        }
    }

    /// H-trees of any size are perfectly symmetric: every root-sink routed
    /// length identical, every sink at the same depth.
    #[test]
    fn htree_symmetry(levels in 1u32..5, side in 100_000i64..4_000_000, cap in 1.0f64..40.0) {
        let area = Rect::new(Point::new(0, 0), Point::new(side, side));
        let tree = h_tree(area, levels, cap);
        prop_assert_eq!(tree.sink_nodes().len(), 4usize.pow(levels));
        let mut path_len = vec![0i64; tree.len()];
        for id in tree.topo_order() {
            if let Some(p) = tree.node(id).parent() {
                path_len[id.0] = path_len[p.0] + tree.node(id).edge_len_nm();
            }
        }
        let lens: Vec<i64> = tree.sink_nodes().iter().map(|s| path_len[s.0]).collect();
        prop_assert!(lens.windows(2).all(|w| w[0] == w[1]));
    }

    /// Rule-usage accounting is exact for arbitrary assignments.
    #[test]
    fn usage_accounts_every_micron(design in arb_design(), picks in proptest::collection::vec(0usize..4, 8)) {
        let tech = Technology::n45();
        let plan = bisection_topology(&design);
        let tree = build_buffered_tree(&design, &tech, &CtsOptions::default(), &plan).unwrap();
        let rules = tech.rules();
        let mut asg = Assignment::uniform(&tree, rules.default_id());
        for (i, e) in tree.edges().enumerate() {
            asg.set(e, snr_tech::RuleId(picks[i % picks.len()] % rules.len()));
        }
        let usage = asg.usage_um(&tree, rules);
        let total: f64 = usage.iter().sum();
        let wl: f64 = tree.nodes().iter().map(|n| n.edge_len_nm() as f64 / 1_000.0).sum();
        prop_assert!((total - wl).abs() < 1e-6 * (1.0 + wl));
    }

    /// Buffer remapping preserves everything but the cells.
    #[test]
    fn remap_preserves_structure(design in arb_design()) {
        let tech = Technology::n45();
        let plan = bisection_topology(&design);
        let tree = build_buffered_tree(&design, &tech, &CtsOptions::default(), &plan).unwrap();
        let remapped = tree.with_remapped_buffers(|_, _| 0);
        prop_assert!(remapped.check().is_ok());
        prop_assert_eq!(remapped.len(), tree.len());
        for (a, b) in tree.nodes().iter().zip(remapped.nodes()) {
            prop_assert_eq!(a.location(), b.location());
            prop_assert_eq!(a.edge_len_nm(), b.edge_len_nm());
            match (a.kind(), b.kind()) {
                (NodeKind::Buffer { .. }, NodeKind::Buffer { cell }) => prop_assert_eq!(cell, 0),
                (x, y) => prop_assert_eq!(x, y),
            }
        }
    }
}
