//! Anytime-truncation consistency: a budget- or `--max-points`-cut
//! sweep must return exactly the front a full sweep would have built
//! over the same completed prefix — never a partial evaluation, never a
//! front member some completed point dominates.
//!
//! Pinned on a real (small) design: every sweep point of the default
//! spec is evaluated once, then every prefix of that evaluation is
//! checked against the brute-force oracle.

use snr_cts::{synthesize, CtsOptions};
use snr_netlist::BenchmarkSpec;
use snr_par::{CancelToken, Parallelism};
use snr_pareto::{
    brute_force_front, evaluate_points, EvalConfig, FrontPoint, ParetoFront, PointEval,
    SweepContext, SweepSpec,
};

/// Evaluates the whole default sweep together, serially, on an 80-sink
/// design.
fn evaluate_default_sweep() -> Vec<PointEval> {
    let design = BenchmarkSpec::new("trunc".to_owned(), 80)
        .seed(11)
        .build()
        .expect("benchmark generation succeeds");
    let tech = snr_tech::Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("CTS succeeds");
    let cfg = EvalConfig { mc_samples: 4, ..EvalConfig::default() };
    let sweep = SweepContext::new(&design, &tree, &tech, cfg);
    let points = SweepSpec::default_sweep().enumerate();
    evaluate_points(&sweep, &points, Parallelism::serial(), None, |_, _| {})
        .into_iter()
        .map(|eval| eval.expect("uncancelled evaluation completes"))
        .collect()
}

/// The front the executor builds over a completed prefix: feasible
/// evaluations only, canonical order.
fn prefix_front(evals: &[PointEval]) -> Vec<FrontPoint> {
    let mut front = ParetoFront::new();
    for (index, eval) in evals.iter().enumerate() {
        if eval.meets {
            front.insert(FrontPoint { index, objectives: eval.objectives });
        }
    }
    front.into_sorted()
}

#[test]
fn every_truncation_prefix_is_subset_consistent() {
    let evals = evaluate_default_sweep();
    assert_eq!(evals.len(), SweepSpec::default_sweep().enumerate().len());
    for k in 0..=evals.len() {
        let prefix = &evals[..k];
        let front = prefix_front(prefix);

        // The truncated front is exactly the oracle front over the
        // completed prefix...
        let oracle: Vec<FrontPoint> = brute_force_front(
            &prefix
                .iter()
                .enumerate()
                .filter(|(_, e)| e.meets)
                .map(|(index, e)| FrontPoint { index, objectives: e.objectives })
                .collect::<Vec<_>>(),
        );
        assert_eq!(front, oracle, "prefix of {k} point(s) disagrees with the oracle");

        // ...so no member is dominated by *any* evaluated point.
        for member in &front {
            for eval in prefix {
                assert!(
                    !eval.objectives.dominates(&member.objectives),
                    "front member {} is dominated by an evaluated point (prefix {k})",
                    member.index
                );
            }
        }
    }
}

#[test]
fn repeated_evaluation_is_bit_identical() {
    let a = evaluate_default_sweep();
    let b = evaluate_default_sweep();
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "point {i} drifted between identical evaluations");
        assert_eq!(
            snr_pareto::encode_eval(x),
            snr_pareto::encode_eval(y),
            "point {i} encoding drifted"
        );
    }
}

#[test]
fn cancelled_token_drops_the_point_entirely() {
    let design = BenchmarkSpec::new("trunc".to_owned(), 80)
        .seed(11)
        .build()
        .expect("benchmark generation succeeds");
    let tech = snr_tech::Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("CTS succeeds");
    let point = SweepSpec::default_sweep().enumerate()[0];
    let token = CancelToken::new();
    token.cancel();
    let sweep = SweepContext::new(&design, &tree, &tech, EvalConfig::default());
    assert_eq!(
        evaluate_points(&sweep, &[point], Parallelism::serial(), Some(&token), |_, _| {
            panic!("a cancelled point is never reported")
        }),
        vec![None],
        "a cancelled point must contribute nothing, not a partial result"
    );
}
