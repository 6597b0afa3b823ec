//! Table 2 — benchmark suite statistics.
//!
//! The eight synthetic ISPD-class designs with their generated-tree
//! statistics under the default CTS options at 45 nm: sink count, die area,
//! total sink capacitance, tree buffers/wirelength/depth, and the nominal
//! timing of the uniform-2W2S baseline.

use snr_bench::{banner, default_tree, fmt, Table};
use snr_cts::Assignment;
use snr_geom::rmst_length;
use snr_netlist::ispd_like_suite;
use snr_tech::Technology;
use snr_timing::analyze;

fn main() {
    banner(
        "T2",
        "benchmark suite statistics",
        "synthetic ISPD-CTS-class designs, fixed seeds; tree = buffered DME @2W2S",
    );
    let tech = Technology::n45();
    let mut table = Table::new(vec![
        "design", "sinks", "die_mm2", "sink_cap_pf", "buffers", "wire_mm", "wl_over_rmst",
        "depth", "latency_ps", "skew_ps", "max_slew_ps",
    ]);
    for design in ispd_like_suite() {
        let tree = default_tree(&design, &tech);
        let stats = tree.stats();
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let rep = analyze(&tree, &tech, &asg);
        let die_mm2 =
            (design.die().width() as f64 / 1e6) * (design.die().height() as f64 / 1e6);
        // Wirelength quality: routed wire over the sink RMST (balancing
        // overhead; 1.5-3x is the healthy range for zero-skew trees).
        let sink_pts: Vec<_> = design.sinks().iter().map(|s| s.location()).collect();
        let rmst_um = rmst_length(&sink_pts) as f64 / 1_000.0;
        table.row(vec![
            design.name().to_owned(),
            design.sinks().len().to_string(),
            fmt(die_mm2, 2),
            fmt(design.total_sink_cap_ff() / 1_000.0, 2),
            stats.n_buffers.to_string(),
            fmt(stats.wirelength_um / 1_000.0, 2),
            fmt(stats.wirelength_um / rmst_um.max(1e-9), 2),
            stats.max_depth.to_string(),
            fmt(rep.latency_ps(), 1),
            fmt(rep.skew_ps(), 3),
            fmt(rep.max_slew_ps(), 1),
        ]);
    }
    table.emit("table2_benchmarks");
}
