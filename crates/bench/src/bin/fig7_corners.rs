//! Figure 7 — corner robustness of the smart assignment.
//!
//! The smart assignment is optimized at the typical corner; this experiment
//! re-analyzes it (and the two uniform anchors) at the slow and fast
//! interconnect corners. Expected shape: skew and slew shift with the
//! corner for *every* assignment, but smart stays inside the envelope the
//! uniform-2W2S tree defines at the same corner — the optimizer's margin
//! consumption does not invert across corners because Elmore responses are
//! monotone in the global R/C scales.

use snr_bench::{banner, default_tree, fmt, Table};
use snr_core::{NdrOptimizer, OptContext, SmartNdr};
use snr_netlist::BenchmarkSpec;
use snr_power::{evaluate_at_corner, PowerModel};
use snr_tech::{Corner, Technology};
use snr_timing::analyze_at_corner;

fn main() {
    banner(
        "F7",
        "corner re-analysis of the typical-corner optimization",
        "design a800, N45; corners scale interconnect R/C and VDD globally",
    );
    let tech = Technology::n45();
    let design = BenchmarkSpec::new("a800", 800).seed(23).build().unwrap();
    let tree = default_tree(&design, &tech);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
    let smart = SmartNdr::default().optimize(&ctx);
    assert!(smart.meets_constraints());

    let cases = [
        ("uniform-2w2s", ctx.conservative_assignment()),
        ("uniform-1w1s", ctx.default_assignment()),
        ("smart-ndr", smart.assignment().clone()),
    ];
    let model = PowerModel::new(design.freq_ghz());
    let mut table = Table::new(vec![
        "assignment", "corner", "latency_ps", "skew_ps", "max_slew_ps", "network_uw",
    ]);
    for (name, asg) in &cases {
        for corner in [Corner::fast(), Corner::typical(), Corner::slow()] {
            let rep = analyze_at_corner(&tree, &tech, asg, corner);
            let power = evaluate_at_corner(&tree, &tech, asg, &model, corner);
            table.row(vec![
                (*name).to_owned(),
                corner.name().to_owned(),
                fmt(rep.latency_ps(), 1),
                fmt(rep.skew_ps(), 2),
                fmt(rep.max_slew_ps(), 1),
                fmt(power.network_uw(), 1),
            ]);
        }
    }
    table.emit("fig7_corners");

    // Corner-aware optimization: enforce the envelope at SS and FF during
    // the optimization itself, and measure the power cost of closure.
    let ctx_corner = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()))
        .with_corners(vec![Corner::slow(), Corner::fast()]);
    let smart_corner = SmartNdr::default().optimize(&ctx_corner);
    assert!(smart_corner.meets_constraints());
    let base = ctx.conservative_baseline();
    let mut closure = Table::new(vec![
        "flow", "network_uw", "save_vs_2w2s", "ss_skew_ps", "ff_skew_ps",
    ]);
    for (label, out) in [("nominal-only", &smart), ("corner-aware", &smart_corner)] {
        let ss = analyze_at_corner(&tree, &tech, out.assignment(), Corner::slow());
        let ff = analyze_at_corner(&tree, &tech, out.assignment(), Corner::fast());
        closure.row(vec![
            label.to_owned(),
            fmt(out.power().network_uw(), 1),
            snr_bench::pct(out.network_saving_vs(&base)),
            fmt(ss.skew_ps(), 2),
            fmt(ff.skew_ps(), 2),
        ]);
    }
    closure.emit("fig7_corner_closure");

    // The headline check: at every corner, smart's skew degradation over
    // the 2W2S anchor stays within the nominal budget's proportion.
    for corner in [Corner::fast(), Corner::slow()] {
        let anchor = analyze_at_corner(&tree, &tech, &ctx.conservative_assignment(), corner);
        let s = analyze_at_corner(&tree, &tech, smart.assignment(), corner);
        println!(
            "{}: smart skew {:.2} ps vs anchor {:.2} ps, smart slew {:.1} vs anchor {:.1}",
            corner.name(),
            s.skew_ps(),
            anchor.skew_ps(),
            s.max_slew_ps(),
            anchor.max_slew_ps()
        );
    }
}
