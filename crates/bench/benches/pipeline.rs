//! Criterion micro-benchmarks for every pipeline stage.
//!
//! These back the runtime columns of the tables: CTS, one timing
//! evaluation (the optimizer's inner loop), one power evaluation, a full
//! smart-greedy run, and a Monte-Carlo variation batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snr_core::{EvalMode, GreedyDowngrade, NdrOptimizer, OptContext};
use snr_cts::{synthesize, Assignment, CtsOptions};
use snr_netlist::{BenchmarkSpec, Design};
use snr_power::{evaluate, PowerModel};
use snr_tech::Technology;
use snr_timing::Analyzer;
use snr_variation::{MonteCarlo, VariationModel};

fn design(n: usize) -> Design {
    BenchmarkSpec::new(format!("b{n}"), n).seed(n as u64).build().unwrap()
}

fn bench_cts(c: &mut Criterion) {
    let tech = Technology::n45();
    let mut group = c.benchmark_group("cts_synthesis");
    for n in [200usize, 800, 2_000] {
        let d = design(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &d, |b, d| {
            b.iter(|| synthesize(d, &tech, &CtsOptions::default()).unwrap());
        });
    }
    group.finish();
}

fn bench_timing(c: &mut Criterion) {
    let tech = Technology::n45();
    let mut group = c.benchmark_group("timing_analysis");
    for n in [200usize, 800, 2_000] {
        let d = design(n);
        let tree = synthesize(&d, &tech, &CtsOptions::default()).unwrap();
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let mut analyzer = Analyzer::new();
        group.bench_with_input(BenchmarkId::from_parameter(n), &tree, |b, tree| {
            b.iter(|| analyzer.run(tree, &tech, &asg));
        });
    }
    group.finish();
}

fn bench_power(c: &mut Criterion) {
    let tech = Technology::n45();
    let d = design(800);
    let tree = synthesize(&d, &tech, &CtsOptions::default()).unwrap();
    let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
    let model = PowerModel::new(1.0);
    c.bench_function("power_evaluate_800", |b| {
        b.iter(|| evaluate(&tree, &tech, &asg, &model));
    });
}

fn bench_optimizer(c: &mut Criterion) {
    let tech = Technology::n45();
    let mut group = c.benchmark_group("smart_greedy");
    group.sample_size(10);
    for n in [200usize, 500] {
        let d = design(n);
        let tree = synthesize(&d, &tech, &CtsOptions::default()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &tree, |b, tree| {
            let ctx = OptContext::new(tree, &tech, PowerModel::new(1.0));
            b.iter(|| GreedyDowngrade::default().assign(&ctx));
        });
    }
    group.finish();
}

/// The API-redesign headline: one GreedyDowngrade run on an 800-sink tree,
/// with candidate evaluation through the stage-dirty incremental engine vs
/// the original full-reanalysis path. Identical search, identical result —
/// only the evaluation machinery differs.
fn bench_incremental_vs_full(c: &mut Criterion) {
    let tech = Technology::n45();
    let d = design(800);
    let tree = synthesize(&d, &tech, &CtsOptions::default()).unwrap();
    let mut group = c.benchmark_group("incremental_vs_full");
    group.sample_size(10);
    for (label, mode) in [
        ("incremental", EvalMode::Incremental),
        ("full_reanalysis", EvalMode::FullReanalysis),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &mode, |b, &mode| {
            let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0)).with_eval_mode(mode);
            b.iter(|| GreedyDowngrade::default().assign(&ctx));
        });
    }
    group.finish();
}

fn bench_monte_carlo(c: &mut Criterion) {
    let tech = Technology::n45();
    let d = design(800);
    let tree = synthesize(&d, &tech, &CtsOptions::default()).unwrap();
    let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
    let mc = MonteCarlo::new(VariationModel::default(), 20, 7);
    c.bench_function("monte_carlo_20x800", |b| {
        b.iter(|| mc.run(&tree, &tech, &asg));
    });
}

criterion_group!(
    benches,
    bench_cts,
    bench_timing,
    bench_power,
    bench_optimizer,
    bench_incremental_vs_full,
    bench_monte_carlo
);
criterion_main!(benches);
