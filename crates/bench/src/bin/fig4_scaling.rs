//! Figure 4 — scaling with design size.
//!
//! Power saving and optimizer runtime as the sink count sweeps
//! 200 → 100 000. `opt_ms` and the power columns are the greedy downgrade
//! construction; `smart_ms` and `smart_save_vs_2w2s` are the full
//! `SmartNdr` flow (greedy downgrade and the stage-net construction, the
//! cheaper result kept). Expected shape: the saving fraction is roughly
//! size-independent (the trade-off is per-edge), while runtime grows
//! super-linearly (each commit's probes re-time a cone, and the number of
//! commits grows with n).

use snr_bench::{banner, default_tree, fmt, pct, Table};
use snr_core::{GreedyDowngrade, NdrOptimizer, OptContext, SmartNdr};
use snr_netlist::BenchmarkSpec;
use snr_power::PowerModel;
use snr_tech::Technology;
use std::time::Instant;

fn main() {
    banner(
        "F4",
        "saving and runtime vs design size",
        "greedy downgrade and the SmartNdr flow; slew margin 1.10, skew budget 30 ps",
    );
    let tech = Technology::n45();
    let mut table = Table::new(vec![
        "sinks",
        "tree_nodes",
        "cts_ms",
        "opt_ms",
        "smart_ms",
        "network_uw",
        "save_vs_2w2s",
        "smart_save_vs_2w2s",
        "met",
    ]);
    for n in [200usize, 400, 800, 1_600, 3_000, 6_000, 12_000, 25_000, 50_000, 100_000] {
        let design = BenchmarkSpec::new(format!("sc{n}"), n)
            .seed(31 + n as u64)
            .build()
            .unwrap();
        let t0 = Instant::now();
        let tree = default_tree(&design, &tech);
        let cts_ms = t0.elapsed().as_secs_f64() * 1e3;

        let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
        let base = ctx.conservative_baseline();
        let out = GreedyDowngrade::default().optimize(&ctx);
        let smart = SmartNdr::default().optimize(&ctx);
        table.row(vec![
            n.to_string(),
            tree.len().to_string(),
            fmt(cts_ms, 1),
            fmt(out.elapsed().as_secs_f64() * 1e3, 1),
            fmt(smart.elapsed().as_secs_f64() * 1e3, 1),
            fmt(out.power().network_uw(), 1),
            pct(out.network_saving_vs(&base)),
            pct(smart.network_saving_vs(&base)),
            (out.meets_constraints() && smart.meets_constraints()).to_string(),
        ]);
    }
    table.emit("fig4_scaling");
}
