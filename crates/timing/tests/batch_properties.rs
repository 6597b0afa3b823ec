//! Property tests: every lane of the batched analyzer reproduces the serial
//! analyzer bit for bit.
//!
//! The [`BatchAnalyzer`] contract is stronger than numerical closeness —
//! each lane performs the serial analyzer's floating-point operations in the
//! serial order, so the summaries must match to the last bit, for any lane
//! count (including ragged widths that miss the monomorphized fast paths)
//! and regardless of what a previous, larger run left in the scratch
//! buffers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snr_cts::{synthesize, Assignment, ClockTree, CtsOptions};
use snr_netlist::BenchmarkSpec;
use snr_tech::{Corner, Technology};
use snr_timing::{analyze_at_corner, Analyzer, BatchAnalyzer, EdgeNominals, TimingSummary};

fn arb_tree() -> impl Strategy<Value = ClockTree> {
    (2usize..80, 0u64..300).prop_map(|(n, seed)| {
        let design = BenchmarkSpec::new(format!("b{n}"), n)
            .seed(seed)
            .build()
            .expect("spec is valid");
        synthesize(&design, &Technology::n45(), &CtsOptions::default())
            .expect("suite-scale designs synthesize")
    })
}

/// Lane-major per-edge scale vectors in [0.9, 1.1), derived from `seed`.
fn lane_scales(n: usize, k: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = || (0..n * k).map(|_| 0.9 + 0.2 * rng.gen::<f64>()).collect::<Vec<f64>>();
    let r = draw();
    let c = draw();
    (r, c)
}

/// The serial analyzer's summary for lane `l` of lane-major scales.
fn serial_lane(
    tree: &ClockTree,
    tech: &Technology,
    asg: &Assignment,
    k: usize,
    l: usize,
    r: &[f64],
    c: &[f64],
) -> (f64, f64, f64) {
    let n = tree.len();
    let rs: Vec<f64> = (0..n).map(|v| r[v * k + l]).collect();
    let cs: Vec<f64> = (0..n).map(|v| c[v * k + l]).collect();
    let rep = Analyzer::new().run_scaled(tree, tech, asg, Some((&rs, &cs)));
    (rep.latency_ps(), rep.min_arrival_ps(), rep.max_slew_ps())
}

fn assert_lane_matches(lane: &TimingSummary, (lat, min, slew): (f64, f64, f64), what: &str) {
    // Documented tolerance is 1e-9 ps; the implementation promises (and the
    // suite pins) exact bit identity, which implies it.
    assert!((lane.latency_ps - lat).abs() <= 1e-9, "{what}: latency off");
    assert_eq!(lane.latency_ps.to_bits(), lat.to_bits(), "{what}: latency bits");
    assert_eq!(lane.min_arrival_ps.to_bits(), min.to_bits(), "{what}: min-arrival bits");
    assert_eq!(lane.max_slew_ps.to_bits(), slew.to_bits(), "{what}: slew bits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every lane of `run_scaled_nominal` equals the serial oracle — for
    /// lane counts from 1 through ragged widths past the pinned fast path,
    /// and again after the scratch buffers have been dirtied by a wider run.
    #[test]
    fn lanes_match_serial_oracle(tree in arb_tree(), k in 1usize..=17, seed in 0u64..1_000) {
        let tech = Technology::n45();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let n = tree.len();
        let (r, c) = lane_scales(n, k, seed);
        let nominals = EdgeNominals::compute(&tree, &tech, &asg);

        let mut batch = BatchAnalyzer::new();
        let fresh = batch.run_scaled_nominal(&tree, &tech, &nominals, k, &r, &c).to_vec();
        prop_assert_eq!(fresh.len(), k);
        for (l, lane) in fresh.iter().enumerate() {
            assert_lane_matches(lane, serial_lane(&tree, &tech, &asg, k, l, &r, &c), &format!("fresh lane {l}/{k}"));
        }

        // Dirty the grow-only scratch with a wider run, then repeat: stale
        // lane slots from the wider run must never leak into the narrower.
        let (rw, cw) = lane_scales(n, k + 3, seed ^ 0x9E37);
        batch.run_scaled_nominal(&tree, &tech, &nominals, k + 3, &rw, &cw);
        let again = batch.run_scaled_nominal(&tree, &tech, &nominals, k, &r, &c).to_vec();
        for (l, (a, b)) in again.iter().zip(&fresh).enumerate() {
            prop_assert_eq!(a.latency_ps.to_bits(), b.latency_ps.to_bits(), "reuse lane {} latency", l);
            prop_assert_eq!(a.min_arrival_ps.to_bits(), b.min_arrival_ps.to_bits(), "reuse lane {} min", l);
            prop_assert_eq!(a.max_slew_ps.to_bits(), b.max_slew_ps.to_bits(), "reuse lane {} slew", l);
        }
    }

    /// Every corner lane of `run_at_corners` equals the per-corner serial
    /// analyzer.
    #[test]
    fn corner_lanes_match_serial(tree in arb_tree()) {
        let tech = Technology::n45();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let corners = [Corner::typical(), Corner::slow(), Corner::fast()];
        let lanes = BatchAnalyzer::new().run_at_corners(&tree, &tech, &asg, &corners).to_vec();
        prop_assert_eq!(lanes.len(), corners.len());
        for (lane, &corner) in lanes.iter().zip(&corners) {
            let rep = analyze_at_corner(&tree, &tech, &asg, corner);
            assert_lane_matches(lane, (rep.latency_ps(), rep.min_arrival_ps(), rep.max_slew_ps()), "corner lane");
        }
    }
}
