//! Criterion benchmarks for the deterministic parallel execution layer.
//!
//! Two measurements back `BENCH_parallel.json` (regenerate with
//! `scripts/bench.sh`):
//!
//! * Monte-Carlo variation: 500 samples on an 800-sink tree, serial vs
//!   multi-threaded — the per-sample seed derivation makes both paths
//!   bit-identical, so only wall-clock differs.
//! * A mini suite (four designs through synthesize + SmartNdr), serial vs
//!   one worker per design — the `smart-ndr suite --jobs` hot path.
//!
//! Speedups only show up with spare cores; on a single-core machine the
//! parallel variants measure the (small) threading overhead instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snr_core::{NdrOptimizer, OptContext, SmartNdr};
use snr_cts::{synthesize, Assignment, CtsOptions};
use snr_netlist::{BenchmarkSpec, Design};
use snr_par::{par_map, Parallelism};
use snr_power::PowerModel;
use snr_tech::Technology;
use snr_variation::{MonteCarlo, VariationModel};

fn design(n: usize) -> Design {
    BenchmarkSpec::new(format!("b{n}"), n).seed(n as u64).build().unwrap()
}

/// Thread counts worth comparing: serial, and the larger of 4 and the
/// machine's core count (so a big machine shows its full speedup while a
/// small one still exercises real threads).
fn job_counts() -> [Parallelism; 2] {
    let cores = Parallelism::auto().jobs();
    [Parallelism::serial(), Parallelism::new(cores.max(4))]
}

fn bench_parallel_monte_carlo(c: &mut Criterion) {
    let tech = Technology::n45();
    let d = design(800);
    let tree = synthesize(&d, &tech, &CtsOptions::default()).unwrap();
    let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
    let mut group = c.benchmark_group("parallel_monte_carlo_500x800");
    group.sample_size(10);
    for par in job_counts() {
        let mc = MonteCarlo::new(VariationModel::default(), 500, 7).with_parallelism(par);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("jobs_{}", par.jobs())),
            &mc,
            |b, mc| b.iter(|| mc.run(&tree, &tech, &asg)),
        );
    }
    group.finish();
}

fn bench_parallel_suite(c: &mut Criterion) {
    let tech = Technology::n45();
    let designs: Vec<Design> = [150usize, 250, 350, 450].map(design).into_iter().collect();
    let mut group = c.benchmark_group("parallel_mini_suite");
    group.sample_size(10);
    for par in job_counts() {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("jobs_{}", par.jobs())),
            &par,
            |b, &par| {
                b.iter(|| {
                    par_map(par, &designs, |_, d| {
                        let tree = synthesize(d, &tech, &CtsOptions::default()).unwrap();
                        let ctx = OptContext::new(&tree, &tech, PowerModel::new(d.freq_ghz()));
                        SmartNdr::default().optimize(&ctx).power().network_uw()
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_monte_carlo, bench_parallel_suite);
criterion_main!(benches);
