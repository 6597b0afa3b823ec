//! `BENCH_parallel.json` — wall-clock measurements of the parallel
//! execution layer, written to the repository root.
//!
//! Two workloads, each timed serial then multi-threaded, with the
//! parallel result asserted equal to the serial one first (the layer's
//! whole point is that threading never changes an answer):
//!
//! * Monte-Carlo variation (`--mc` / `MonteCarlo::with_parallelism`),
//! * the per-design suite flow (`smart-ndr suite --jobs`).
//!
//! `--smoke` shrinks every workload so the whole run fits in a verify
//! gate; `--out <FILE>` overrides the output path. The JSON records the
//! machine's core count — speedups are only meaningful with spare cores,
//! and a single-core machine will honestly report ~1x.

use snr_core::{NdrOptimizer, OptContext, SmartNdr};
use snr_cts::{synthesize, Assignment, CtsOptions};
use snr_netlist::{BenchmarkSpec, Design};
use snr_par::{par_map, Parallelism};
use snr_power::PowerModel;
use snr_tech::Technology;
use snr_variation::{MonteCarlo, VariationModel};
use std::path::PathBuf;
use std::time::Instant;

fn design(n: usize, seed: u64) -> Design {
    BenchmarkSpec::new(format!("b{n}"), n).seed(seed).build().unwrap()
}

/// One wall-clock sample of `f`, in seconds.
fn sample_s<T>(f: &mut impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    let _keep = f();
    t0.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median-of-`reps` seconds for two variants, with the measurements
/// interleaved (a, b, a, b, …) so slow drift in machine load — common on
/// shared boxes — hits both variants equally instead of biasing whichever
/// ran last. One untimed warmup round precedes the samples.
fn time_pair_s<A, B>(reps: usize, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (f64, f64) {
    let _ = (a(), b());
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        ta.push(sample_s(&mut a));
        tb.push(sample_s(&mut b));
    }
    (median(ta), median(tb))
}

struct Speedup {
    serial_s: f64,
    parallel_s: f64,
}

impl Speedup {
    fn json(&self, extra: &str, jobs: usize) -> String {
        format!(
            "{{{extra}, \"jobs\": {jobs}, \"serial_s\": {:.4}, \"parallel_s\": {:.4}, \"speedup\": {:.2}}}",
            self.serial_s,
            self.parallel_s,
            self.serial_s / self.parallel_s
        )
    }
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
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json")
        });

    let cores = Parallelism::auto().jobs();
    // On a small machine still run real threads (oversubscribed) so the
    // parallel path is exercised; the speedup will honestly hover at ~1x.
    let par = Parallelism::new(cores.max(4));
    let reps = if smoke { 1 } else { 5 };
    let tech = Technology::n45();

    // --- Monte-Carlo -------------------------------------------------------
    let (mc_samples, mc_sinks) = if smoke { (60, 300) } else { (500, 800) };
    let d = design(mc_sinks, mc_sinks as u64);
    let tree = synthesize(&d, &tech, &CtsOptions::default()).unwrap();
    let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
    let serial_mc = MonteCarlo::new(VariationModel::default(), mc_samples, 7)
        .with_parallelism(Parallelism::serial());
    let par_mc = serial_mc.with_parallelism(par);
    let (a, b) = (serial_mc.run(&tree, &tech, &asg), par_mc.run(&tree, &tech, &asg));
    assert_eq!(a.sigma_skew_ps().to_bits(), b.sigma_skew_ps().to_bits(), "MC must be bit-identical");
    let (serial_s, parallel_s) = time_pair_s(
        reps,
        || serial_mc.run(&tree, &tech, &asg),
        || par_mc.run(&tree, &tech, &asg),
    );
    let mc = Speedup { serial_s, parallel_s };
    eprintln!("monte_carlo {mc_samples}x{mc_sinks}: serial {:.3}s, parallel {:.3}s", mc.serial_s, mc.parallel_s);

    // --- Suite -------------------------------------------------------------
    let sizes: &[usize] = if smoke { &[80, 120, 160, 200] } else { &[400, 600, 900, 1200, 1500, 2000, 2500, 3000] };
    let designs: Vec<Design> = sizes.iter().enumerate().map(|(i, &n)| design(n, 1000 + i as u64)).collect();
    let run_suite = |p: Parallelism| {
        par_map(p, &designs, |_, d| {
            let tree = synthesize(d, &tech, &CtsOptions::default()).unwrap();
            let ctx = OptContext::new(&tree, &tech, PowerModel::new(d.freq_ghz()));
            SmartNdr::default().optimize(&ctx).power().network_uw()
        })
    };
    assert_eq!(run_suite(Parallelism::serial()), run_suite(par), "suite rows must be identical");
    let (serial_s, parallel_s) = time_pair_s(
        reps.min(2),
        || run_suite(Parallelism::serial()),
        || run_suite(par),
    );
    let suite = Speedup { serial_s, parallel_s };
    eprintln!("suite {} designs: serial {:.3}s, parallel {:.3}s", designs.len(), suite.serial_s, suite.parallel_s);

    // --- Emit --------------------------------------------------------------
    let machine = snr_bench::machine_json();
    let json = format!(
        "{{\n  \"generated_by\": \"scripts/bench.sh (bench_parallel{})\",\n  \"mode\": \"{}\",\n  \
         \"machine\": {machine},\n  \
         \"note\": \"all parallel paths are bit-identical to serial; speedup needs spare cores, a 1-core machine reports ~1x\",\n  \
         \"benches\": {{\n    \"monte_carlo\": {},\n    \"suite\": {}\n  }}\n}}\n",
        if smoke { " --smoke" } else { "" },
        if smoke { "smoke" } else { "full" },
        mc.json(&format!("\"samples\": {mc_samples}, \"sinks\": {mc_sinks}"), par.jobs()),
        suite.json(&format!("\"designs\": {}", designs.len()), par.jobs()),
    );
    // Atomic: an interrupted bench must not leave a truncated artifact.
    snr_fsio::atomic_write(&out_path, json.as_bytes()).expect("write BENCH_parallel.json");
    println!("{json}");
    println!("[written {}]", out_path.display());
}
