//! Cross-crate integration tests: the full flow from benchmark generation
//! through CTS, timing, power, optimization and variation analysis.

use smart_ndr::core::{
    enforce_robustness, Constraints, GreedyDowngrade, LevelBased, NdrOptimizer, OptContext,
    RobustnessSpec, SmartNdr,
};
use smart_ndr::cts::{h_tree, synthesize, Assignment, CtsOptions};
use smart_ndr::netlist::{ispd_like_suite, BenchmarkSpec};
use smart_ndr::power::{evaluate, PowerModel};
use smart_ndr::tech::Technology;
use smart_ndr::timing::analyze;
use smart_ndr::variation::{MonteCarlo, VariationModel};
use smart_ndr::Flow;

#[test]
fn flow_across_sizes_and_technologies() {
    for tech in [Technology::n45(), Technology::n32()] {
        for n in [40usize, 250] {
            let design = BenchmarkSpec::new(format!("e2e-{n}"), n)
                .seed(n as u64)
                .build()
                .unwrap();
            let report = Flow::new(tech.clone()).run(&design).unwrap();
            assert!(
                report.smart().meets_constraints(),
                "{} n={n}: smart violates",
                tech.name()
            );
            assert!(
                report.saving() >= 0.0,
                "{} n={n}: smart worse than baseline",
                tech.name()
            );
            assert_eq!(report.tree().sink_nodes().len(), n);
            report.tree().check().unwrap();
        }
    }
}

#[test]
fn full_flow_is_deterministic() {
    let design = BenchmarkSpec::new("det", 120).seed(9).build().unwrap();
    let flow = Flow::new(Technology::n45());
    let a = flow.run(&design).unwrap();
    let b = flow.run(&design).unwrap();
    assert_eq!(a.smart().assignment(), b.smart().assignment());
    assert_eq!(
        a.smart().power().total_uw(),
        b.smart().power().total_uw()
    );
}

#[test]
fn conservative_baseline_has_near_zero_skew_across_suite() {
    // The buffered-DME construction promise, checked on every suite design.
    for design in ispd_like_suite().into_iter().take(4) {
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let rep = analyze(&tree, &tech, &asg);
        assert!(
            rep.skew_ps() < 1.0,
            "{}: baseline skew {} ps",
            design.name(),
            rep.skew_ps()
        );
    }
}

#[test]
fn htree_path_through_all_crates() {
    use smart_ndr::geom::{Point, Rect};
    let area = Rect::new(Point::new(0, 0), Point::new(1_200_000, 1_200_000));
    let tech = Technology::n45();
    let tree = h_tree(area, 3, 12.0);
    tree.check().unwrap();

    let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
    let rep = analyze(&tree, &tech, &asg);
    // Every root-to-sink path of a perfect H-tree is identical.
    assert!(rep.skew_ps() < 1e-6, "H-tree skew {}", rep.skew_ps());

    let power = evaluate(&tree, &tech, &asg, &PowerModel::new(2.0));
    assert!(power.total_uw() > 0.0);
    assert!((power.sink_cap_ff() - 64.0 * 12.0).abs() < 1e-9);
}

#[test]
fn smart_beats_all_baselines_on_midsize() {
    let design = BenchmarkSpec::new("mid", 400).seed(3).build().unwrap();
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
    let smart = SmartNdr::default().optimize(&ctx);
    let base = ctx.conservative_baseline();
    let level = LevelBased.optimize(&ctx);
    assert!(smart.meets_constraints());
    assert!(smart.power().network_uw() <= level.power().network_uw() + 1e-9);
    assert!(smart.power().network_uw() < base.power().network_uw());
    // Routing resource should also be saved (cheap rules occupy less
    // track).
    assert!(smart.power().track_cost_um() < base.power().track_cost_um());
}

#[test]
fn robustness_loop_keeps_nominal_feasibility() {
    let design = BenchmarkSpec::new("rob", 200).seed(4).build().unwrap();
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let smart = GreedyDowngrade::default().assign(&ctx);

    let mc = MonteCarlo::new(VariationModel::default(), 60, 17);
    let base_sigma = mc
        .run(&tree, &tech, &ctx.conservative_assignment())
        .sigma_skew_ps()
        .max(0.2);
    let spec = RobustnessSpec::new(2.0 * base_sigma, VariationModel::default(), 60, 17);
    let before_sigma = mc.run(&tree, &tech, &smart).sigma_skew_ps();
    let (repaired, final_report, upgrades) = enforce_robustness(&ctx, smart, &spec);
    // Either the budget was met, or every remaining upgrade would break the
    // nominal envelope; in both cases σ must not have been made worse than
    // the unrepaired assignment by more than MC noise.
    assert!(
        final_report.sigma_skew_ps() <= 2.0 * base_sigma + 1e-9
            || final_report.sigma_skew_ps() <= before_sigma * 1.05 + 0.1,
        "repair worsened sigma: {} -> {} ({upgrades} upgrades)",
        before_sigma,
        final_report.sigma_skew_ps()
    );
    // The repair never sacrifices nominal feasibility.
    assert!(ctx.feasible(&repaired));
}

#[test]
fn tightening_constraints_never_gains_power() {
    let design = BenchmarkSpec::new("tight", 150).seed(5).build().unwrap();
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();

    let run = |budget: f64| {
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_constraints(Constraints::relative(&tree, &tech, 1.10, budget));
        SmartNdr::default()
            .optimize(&ctx)
            .power()
            .network_uw()
    };
    // Wider skew budgets admit supersets of assignments; with the best-of
    // flow the realized power should not get *worse* by much when the
    // budget loosens (heuristic wiggle below 1%).
    let p_tight = run(5.0);
    let p_loose = run(60.0);
    assert!(
        p_loose <= p_tight * 1.01,
        "loose {p_loose} vs tight {p_tight}"
    );
}

#[test]
fn suite_statistics_are_stable() {
    let suite = ispd_like_suite();
    let names: Vec<&str> = suite.iter().map(|d| d.name()).collect();
    assert_eq!(
        names,
        ["s400", "s600", "s800", "s1200", "s1600", "s2000", "s2500", "s3000"]
    );
    for d in &suite {
        assert!(d.total_sink_cap_ff() > 0.0);
        assert!(d.die().contains(d.clock_root()));
    }
}
