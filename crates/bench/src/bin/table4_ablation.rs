//! Table 4 — optimizer ablation.
//!
//! On three mid-size designs, the search optimizers at identical
//! constraints: both greedy constructions, the combined flow and simulated
//! annealing. The interesting columns are power (how close the one-pass
//! heuristics get to the annealer) and runtime (what that quality costs).
//! Optimality on tiny trees is measured against exhaustive enumeration by
//! `tests/global_oracle.rs`.

use snr_bench::{banner, default_tree, fmt, pct, Table};
use snr_core::{
    Annealing, GreedyDowngrade, GreedyUpgradeRepair, NdrOptimizer, OptContext, SmartNdr,
};
use snr_netlist::BenchmarkSpec;
use snr_power::PowerModel;
use snr_tech::Technology;

fn main() {
    banner(
        "T4",
        "optimizer ablation",
        "identical constraints per design; annealing = 20k moves, seed 1",
    );
    let tech = Technology::n45();
    let methods: Vec<Box<dyn NdrOptimizer>> = vec![
        Box::new(GreedyDowngrade::default()),
        Box::new(GreedyUpgradeRepair::default()),
        Box::new(SmartNdr::default()),
        Box::new(Annealing::new(20_000, 1)),
    ];
    let mut table = Table::new(vec![
        "design", "method", "network_uw", "save_vs_2w2s", "skew_ps", "slew_ps", "met",
        "runtime_ms",
    ]);
    for (n, seed) in [(300usize, 21u64), (500, 22), (800, 23)] {
        let design = BenchmarkSpec::new(format!("a{n}"), n).seed(seed).build().unwrap();
        let tree = default_tree(&design, &tech);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
        let base = ctx.conservative_baseline();
        for m in &methods {
            let out = m.optimize(&ctx);
            table.row(vec![
                design.name().to_owned(),
                out.name().to_owned(),
                fmt(out.power().network_uw(), 1),
                pct(out.network_saving_vs(&base)),
                fmt(out.timing().skew_ps(), 2),
                fmt(out.timing().max_slew_ps(), 1),
                out.meets_constraints().to_string(),
                fmt(out.elapsed().as_secs_f64() * 1e3, 1),
            ]);
        }
    }
    table.emit("table4_ablation");
}
