//! `BENCH_timing.json` — single-thread throughput of the multi-lane batched
//! timing kernel against the serial per-sample analyzer, written to the
//! repository root.
//!
//! For each design size the *same* K-lane workload is evaluated two ways,
//! on one thread, and asserted **bit-identical** before anything is timed:
//!
//! * Monte-Carlo shape: K per-edge R/C scaling lanes through one
//!   [`BatchAnalyzer::run_scaled_nominal`] call vs K serial
//!   [`Analyzer::run_scaled`] calls (the pre-batch MC inner loop);
//! * corner shape: a 3-corner sweep through one
//!   [`BatchAnalyzer::run_at_corners`] call vs per-corner
//!   [`analyze_at_corner`] calls (the pre-batch `OptContext::meets` loop).
//!
//! Scale vectors are pre-drawn outside the timed region for both variants,
//! so the comparison isolates the analysis kernel. `--smoke` shrinks the
//! sweep to one small design so the whole run fits in a verify gate;
//! `--out <FILE>` overrides the output path.

use snr_cts::{synthesize, Assignment, ClockTree, CtsOptions};
use snr_netlist::{scaling_specs, BenchmarkSpec};
use snr_par::splitmix64;
use snr_tech::{Corner, Technology};
use snr_timing::{analyze_at_corner, Analyzer, BatchAnalyzer, EdgeNominals};
use std::path::PathBuf;
use std::time::Instant;

/// Lanes per batch, matching the Monte-Carlo engine's chunk width.
const LANES: usize = 16;

/// One timed call of `f`, folded into the running minimum `best`.
///
/// On a shared host the minimum over repetitions is the standard low-noise
/// estimator: interference only ever adds time, so the fastest observed run
/// is the closest to the true cost. The four measured quantities are timed
/// interleaved within each repetition, so a slow-noise epoch inflates all
/// sides of a ratio equally instead of just whichever happened to run then.
fn time_once<T>(best: &mut f64, mut f: impl FnMut() -> T) {
    let t0 = Instant::now();
    let _keep = f();
    *best = best.min(t0.elapsed().as_secs_f64());
}

/// Deterministic scale factor in [0.95, 1.05) for lane-slot `i`.
fn scale_at(seed: u64, i: u64) -> f64 {
    0.95 + 0.1 * (splitmix64(seed ^ i) as f64 / (u64::MAX as f64 + 1.0))
}

struct Row {
    sinks: usize,
    nodes: usize,
    mc_serial_s: f64,
    mc_batch_s: f64,
    corner_serial_s: f64,
    corner_batch_s: f64,
}

fn measure(tree: &ClockTree, tech: &Technology, sinks: usize, reps: usize) -> Row {
    let asg = Assignment::uniform(tree, tech.rules().most_conservative_id());
    let n = tree.len();

    // Pre-drawn lane-major scales, plus the per-lane extraction the serial
    // path consumes — both built outside every timed region.
    let r: Vec<f64> = (0..n * LANES).map(|i| scale_at(11, i as u64)).collect();
    let c: Vec<f64> = (0..n * LANES).map(|i| scale_at(23, i as u64)).collect();
    let serial_scales: Vec<(Vec<f64>, Vec<f64>)> = (0..LANES)
        .map(|l| {
            (
                (0..n).map(|v| r[v * LANES + l]).collect(),
                (0..n).map(|v| c[v * LANES + l]).collect(),
            )
        })
        .collect();

    // The Monte-Carlo engine computes the nominal parasitics once per run
    // and shares them across all lane chunks — the batch side times that
    // same entry point, with the nominals built outside the timed region.
    let nominals = EdgeNominals::compute(tree, tech, &asg);

    // Correctness gate: every batch lane must reproduce the serial analyzer
    // bit for bit before its speed means anything.
    let mut batch = BatchAnalyzer::new();
    let mut serial = Analyzer::new();
    let lanes = batch.run_scaled_nominal(tree, tech, &nominals, LANES, &r, &c).to_vec();
    for (l, lane) in lanes.iter().enumerate() {
        let (rs, cs) = &serial_scales[l];
        let rep = serial.run_scaled(tree, tech, &asg, Some((rs, cs)));
        assert_eq!(lane.latency_ps.to_bits(), rep.latency_ps().to_bits(), "lane {l} latency");
        assert_eq!(
            lane.min_arrival_ps.to_bits(),
            rep.min_arrival_ps().to_bits(),
            "lane {l} min arrival"
        );
        assert_eq!(lane.max_slew_ps.to_bits(), rep.max_slew_ps().to_bits(), "lane {l} slew");
    }
    let corners = [Corner::typical(), Corner::slow(), Corner::fast()];
    let corner_lanes = batch.run_at_corners(tree, tech, &asg, &corners).to_vec();
    for (lane, &corner) in corner_lanes.iter().zip(&corners) {
        let rep = analyze_at_corner(tree, tech, &asg, corner);
        assert_eq!(lane.latency_ps.to_bits(), rep.latency_ps().to_bits(), "corner latency");
        assert_eq!(lane.max_slew_ps.to_bits(), rep.max_slew_ps().to_bits(), "corner slew");
    }
    // The gate above doubles as the untimed warmup for all four variants.

    let mut mc_serial_s = f64::INFINITY;
    let mut mc_batch_s = f64::INFINITY;
    let mut corner_serial_s = f64::INFINITY;
    let mut corner_batch_s = f64::INFINITY;
    for _ in 0..reps.max(1) {
        time_once(&mut mc_serial_s, || {
            let mut acc = 0.0;
            for (rs, cs) in &serial_scales {
                acc += serial.run_scaled(tree, tech, &asg, Some((rs, cs))).latency_ps();
            }
            acc
        });
        time_once(&mut mc_batch_s, || {
            batch
                .run_scaled_nominal(tree, tech, &nominals, LANES, &r, &c)
                .iter()
                .map(|s| s.latency_ps)
                .sum::<f64>()
        });
        time_once(&mut corner_serial_s, || {
            corners
                .iter()
                .map(|&cr| analyze_at_corner(tree, tech, &asg, cr).latency_ps())
                .sum::<f64>()
        });
        time_once(&mut corner_batch_s, || {
            batch
                .run_at_corners(tree, tech, &asg, &corners)
                .iter()
                .map(|s| s.latency_ps)
                .sum::<f64>()
        });
    }
    Row { sinks, nodes: n, mc_serial_s, mc_batch_s, corner_serial_s, corner_batch_s }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_timing.json")
        });

    let specs: Vec<BenchmarkSpec> = if smoke {
        vec![BenchmarkSpec::new("x2000", 2_000).seed(2_000)]
    } else {
        scaling_specs()
    };
    let tech = Technology::n45();

    let mut rows = Vec::new();
    for spec in &specs {
        let sinks = spec.sink_count();
        let design = spec.build().expect("scaling specs always build");
        let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("scaling designs synthesize");
        // Fewer repetitions as designs grow; even the 1M-sink row repeats
        // a few times (after an untimed warmup) so the minimum is stable.
        let reps = if smoke { 2 } else { (500_000 / sinks).clamp(3, 12) };
        let row = measure(&tree, &tech, sinks, reps);
        eprintln!(
            "timing {sinks} sinks ({} nodes): mc {:.4}s vs {:.4}s ({:.1}x), corners {:.4}s vs {:.4}s ({:.1}x)",
            row.nodes,
            row.mc_serial_s,
            row.mc_batch_s,
            row.mc_serial_s / row.mc_batch_s,
            row.corner_serial_s,
            row.corner_batch_s,
            row.corner_serial_s / row.corner_batch_s,
        );
        rows.push(row);
    }

    let rows_json = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"sinks\": {}, \"nodes\": {}, \"lanes\": {LANES}, \
                 \"mc_serial_s\": {:.6}, \"mc_batch_s\": {:.6}, \"mc_speedup\": {:.2}, \
                 \"corner_serial_s\": {:.6}, \"corner_batch_s\": {:.6}, \"corner_speedup\": {:.2}}}",
                r.sinks,
                r.nodes,
                r.mc_serial_s,
                r.mc_batch_s,
                r.mc_serial_s / r.mc_batch_s,
                r.corner_serial_s,
                r.corner_batch_s,
                r.corner_serial_s / r.corner_batch_s,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    let machine = snr_bench::machine_json();
    let json = format!(
        "{{\n  \"generated_by\": \"scripts/bench.sh (bench_timing{})\",\n  \"mode\": \"{}\",\n  \
         \"machine\": {machine},\n  \
         \"note\": \"single-thread; serial = per-sample Analyzer::run_scaled / per-corner analyze_at_corner, batch = one BatchAnalyzer traversal over all lanes; batch asserted bit-identical to serial before timing\",\n  \
         \"benches\": {{\n    \"batched_kernel\": [\n      {rows_json}\n    ]\n  }}\n}}\n",
        if smoke { " --smoke" } else { "" },
        if smoke { "smoke" } else { "full" },
    );
    // Atomic: an interrupted bench must not leave a truncated artifact.
    snr_fsio::atomic_write(&out_path, json.as_bytes()).expect("write BENCH_timing.json");
    println!("{json}");
    println!("[written {}]", out_path.display());
}
