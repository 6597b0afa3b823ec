//! The batched Monte-Carlo engine is bit-identical to the pre-batch
//! per-sample reference loop.
//!
//! Before the multi-lane [`snr_timing::BatchAnalyzer`], the engine drew one
//! variation vector per sample and ran the serial analyzer on it. This test
//! reimplements that loop from the public pieces — the documented per-sample
//! RNG derivation `seed ^ splitmix64(i)`, the three-component width model,
//! the varied-rule parasitics, one [`Analyzer::run_scaled`] per sample — and
//! demands the production engine reproduce every skew and latency sample to
//! the last bit. Any batching change that reorders a floating-point
//! operation, or any drift in the RNG stream layout, fails here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snr_cts::{synthesize, Assignment, ClockTree, CtsOptions, NodeId};
use snr_geom::Rect;
use snr_netlist::BenchmarkSpec;
use snr_par::{splitmix64, CancelToken, Parallelism};
use snr_tech::Technology;
use snr_timing::Analyzer;
use snr_variation::{MonteCarlo, VariationModel, LANES};

/// One standard-normal draw, exactly as the engine draws it (first half of a
/// Box–Muller pair; the second uniform is consumed for the angle).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The pre-batch inner loop: per-sample scale vectors through the serial
/// analyzer, returning `(skew_ps, latency_ps)` per sample.
fn reference_samples(
    tree: &ClockTree,
    tech: &Technology,
    asg: &Assignment,
    model: VariationModel,
    n_samples: usize,
    seed: u64,
) -> Vec<(f64, f64)> {
    let n = tree.len();
    let layer = tech.clock_layer();
    let rules = tech.rules();
    let g = model.grid();

    // Edge midpoints -> correlation-grid cells, as documented by the model.
    let bbox = Rect::bounding(tree.nodes().iter().map(|nd| nd.location())).expect("non-empty");
    let cell_of = |e: NodeId| -> usize {
        let node = tree.node(e);
        let p = node.location();
        let q = node.parent().map(|pp| tree.node(pp).location()).unwrap_or(p);
        let mx = (p.x + q.x) / 2;
        let my = (p.y + q.y) / 2;
        let fx = if bbox.width() > 0 {
            ((mx - bbox.lo().x) * g as i64 / (bbox.width() + 1)) as usize
        } else {
            0
        };
        let fy = if bbox.height() > 0 {
            ((my - bbox.lo().y) * g as i64 / (bbox.height() + 1)) as usize
        } else {
            0
        };
        fx.min(g - 1) * g + fy.min(g - 1)
    };
    let edges: Vec<NodeId> = tree.edges().collect();
    let cells: Vec<usize> = edges.iter().map(|&e| cell_of(e)).collect();

    let sd = model.sigma_w_um();
    let (w_die, w_sp, w_rnd) =
        (model.frac_die().sqrt(), model.frac_spatial().sqrt(), model.frac_random().sqrt());

    let mut analyzer = Analyzer::new();
    let mut r_scale = vec![1.0; n];
    let mut c_scale = vec![1.0; n];
    (0..n_samples)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ splitmix64(i as u64));
            let g_die = gaussian(&mut rng);
            let g_cells: Vec<f64> = (0..g * g).map(|_| gaussian(&mut rng)).collect();
            for (k, &e) in edges.iter().enumerate() {
                let g_e = gaussian(&mut rng);
                let dw = sd * (w_die * g_die + w_sp * g_cells[cells[k]] + w_rnd * g_e);
                let rule = rules.get(asg.rule(e)).expect("assignment uses known rules");
                r_scale[e.0] = layer.unit_r_varied(rule, dw) / layer.unit_r(rule);
                c_scale[e.0] = layer.unit_c_delay_varied(rule, dw) / layer.unit_c_delay(rule);
            }
            let rep = analyzer.run_scaled(tree, tech, asg, Some((&r_scale, &c_scale)));
            (rep.skew_ps(), rep.latency_ps())
        })
        .collect()
}

#[test]
fn batched_engine_matches_prebatch_reference_loop() {
    let design = BenchmarkSpec::new("ref", 80).seed(42).build().expect("valid spec");
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("synthesizes");
    let asg = Assignment::uniform(&tree, tech.rules().default_id());
    let model = VariationModel::default();

    // Crosses two full chunks into a ragged third, so full-width lanes, the
    // pinned fast path, and the ragged tail are all exercised.
    let n_samples = 2 * LANES + 5;
    let seed = 0xC0FFEE;

    let reference = reference_samples(&tree, &tech, &asg, model, n_samples, seed);
    let report = MonteCarlo::new(model, n_samples, seed)
        .with_parallelism(Parallelism::serial())
        .run(&tree, &tech, &asg);

    assert_eq!(report.n_samples(), n_samples);
    for (i, &(skew, latency)) in reference.iter().enumerate() {
        assert_eq!(
            report.skew_samples_ps()[i].to_bits(),
            skew.to_bits(),
            "sample {i} skew diverged from the pre-batch reference"
        );
        assert_eq!(
            report.latency_samples_ps()[i].to_bits(),
            latency.to_bits(),
            "sample {i} latency diverged from the pre-batch reference"
        );
    }
}

#[test]
fn shared_deviations_match_the_reference_and_run_with_token() {
    // Deviations drawn once and analyzed later reproduce both the undrawn
    // engine and the per-sample reference, for every sample count from one
    // ragged chunk to three chunks and on one and two workers.
    let design = BenchmarkSpec::new("shared", 50).seed(8).build().expect("valid spec");
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("synthesizes");
    let asg = Assignment::uniform(&tree, tech.rules().default_id());
    let model = VariationModel::default();
    let seed = 0x5EED;
    // Sample i depends only on (seed, i), so one reference run gives every
    // shorter run as a prefix.
    let reference = reference_samples(&tree, &tech, &asg, model, 40, seed);
    let token = CancelToken::new();
    for n_samples in 1..=40 {
        for jobs in [1, 2] {
            let mc = MonteCarlo::new(model, n_samples, seed).with_parallelism(Parallelism::new(jobs));
            let deviations = mc.deviations(&tree, &token).expect("unfired token");
            let shared = mc
                .run_with_deviations(&tree, &tech, &asg, &deviations, &token)
                .expect("valid assignment");
            let drawn = mc.run_with_token(&tree, &tech, &asg, &token).expect("valid assignment");
            assert_eq!(shared, drawn, "n={n_samples} jobs={jobs}");
            for (i, &(skew, latency)) in reference[..n_samples].iter().enumerate() {
                assert_eq!(
                    (shared.skew_samples_ps()[i].to_bits(), shared.latency_samples_ps()[i].to_bits()),
                    (skew.to_bits(), latency.to_bits()),
                    "n={n_samples} jobs={jobs}: sample {i} diverged from the reference"
                );
            }
        }
    }
}
