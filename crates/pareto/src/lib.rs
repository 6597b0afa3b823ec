//! `snr-pareto`: constraint-space sweep planning and Pareto-front
//! extraction over (clock power, worst skew, robustness, track cost).
//!
//! The paper's table 5 and fig. 9 show the best NDR assignment shifting
//! with slew margin, useful-skew windows and track budget; every other
//! front end returns one solution for one constraint set. This crate
//! generalizes those one-off bench slices into a service primitive:
//!
//! 1. **Sweep planning** — [`SweepSpec`] enumerates a deterministic,
//!    canonically-ordered list of [`SweepPoint`]s (the cross product of
//!    the constraint axes). The order is part of the API: point indices
//!    name points across processes, job counts and resumed runs.
//! 2. **Point evaluation** — [`evaluate_point`] runs the headline smart
//!    optimizer under one point's constraints and measures the four
//!    objectives ([`Objectives`]). Evaluation is serial and seeded, so a
//!    point's objective vector is bit-identical wherever it is computed.
//! 3. **Dominance filtering** — [`ParetoFront`] maintains the incremental
//!    non-dominated set as results stream in, with the invariants pinned
//!    by `tests/dominance_properties.rs`: output mutually non-dominated,
//!    complete (every non-dominated input survives), insertion-order
//!    independent, and idempotent under re-filtering.
//!
//! The combination gives the headline determinism contract: the front
//! over any evaluated subset is a pure function of that subset, and the
//! evaluated subset under an iteration budget is a canonical prefix — so
//! fronts are bit-identical for any `--jobs` value and any truncation
//! replay of the same prefix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use snr_core::{Budget, Constraints, NdrOptimizer, OptContext, SmartNdr};
use snr_cts::ClockTree;
use snr_netlist::{random_timing_arcs, Design};
use snr_par::{CancelToken, Parallelism};
use snr_power::PowerModel;
use snr_tech::{Corner, Technology};
use snr_variation::{MonteCarlo, VariationError, VariationModel};

// ---------------------------------------------------------------------------
// Objectives and dominance
// ---------------------------------------------------------------------------

/// One evaluated point's objective vector. Every axis is minimized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Clock-network power, µW.
    pub power_uw: f64,
    /// Worst sink-to-sink skew, ps.
    pub skew_ps: f64,
    /// Robustness: σ of the skew distribution under process variation,
    /// ps (0 when variation analysis is off).
    pub sigma_skew_ps: f64,
    /// Routing-track cost, µm of track-width-weighted wirelength.
    pub track_cost_um: f64,
}

impl Objectives {
    fn axes(&self) -> [f64; 4] {
        [self.power_uw, self.skew_ps, self.sigma_skew_ps, self.track_cost_um]
    }

    /// Strict Pareto dominance: `self` is no worse on every axis and
    /// strictly better on at least one. Equal vectors do not dominate
    /// each other, so duplicated trade-offs all survive filtering.
    pub fn dominates(&self, other: &Objectives) -> bool {
        let (a, b) = (self.axes(), other.axes());
        let mut strictly_better = false;
        for i in 0..a.len() {
            if a[i] > b[i] {
                return false;
            }
            if a[i] < b[i] {
                strictly_better = true;
            }
        }
        strictly_better
    }
}

/// One member of a Pareto front: the sweep-point index it came from plus
/// its objective vector. Indices are unique within a sweep and give the
/// front its canonical order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontPoint {
    /// The sweep point's index in enumeration order.
    pub index: usize,
    /// The measured objectives.
    pub objectives: Objectives,
}

/// Incremental non-dominated set: accepts points in any order and keeps
/// exactly the inputs no other input dominates.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront {
    points: Vec<FrontPoint>,
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Offers one point. Returns `false` (point dropped) when an existing
    /// member dominates it; otherwise inserts it and evicts every member
    /// it dominates. The resulting set is independent of insertion order
    /// because membership only depends on pairwise dominance, which is
    /// a property of the input set, not the arrival sequence.
    pub fn insert(&mut self, point: FrontPoint) -> bool {
        if self.points.iter().any(|p| p.objectives.dominates(&point.objectives)) {
            return false;
        }
        self.points.retain(|p| !point.objectives.dominates(&p.objectives));
        self.points.push(point);
        true
    }

    /// Current member count.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The members in canonical order (ascending sweep index) — the form
    /// every renderer and test compares.
    pub fn into_sorted(mut self) -> Vec<FrontPoint> {
        self.points.sort_by_key(|p| p.index);
        self.points
    }
}

/// Brute-force O(n²) dominance filter — the oracle the incremental
/// filter is property-tested against. Returns the non-dominated subset
/// in canonical (ascending index) order.
pub fn brute_force_front(points: &[FrontPoint]) -> Vec<FrontPoint> {
    let mut out: Vec<FrontPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| q.objectives.dominates(&p.objectives)))
        .copied()
        .collect();
    out.sort_by_key(|p| p.index);
    out
}

// ---------------------------------------------------------------------------
// Sweep planning
// ---------------------------------------------------------------------------

/// The skew axis of one sweep point: a global skew budget, or per-arc
/// useful-skew windows (with the global budget relaxed, as in fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkewAxis {
    /// Global skew budget over the conservative baseline, ps.
    Global {
        /// The budget, ps.
        budget_ps: f64,
    },
    /// Synthetic launch/capture windows of `±window_ps` on nearby sink
    /// pairs; the global budget is relaxed to the sweep's relaxed bound.
    Window {
        /// The per-arc setup/hold margin, ps.
        window_ps: f64,
    },
}

/// One enumerated constraint point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Position in enumeration order (the point's stable name).
    pub index: usize,
    /// Slew margin over the conservative baseline (≥ 1).
    pub slew_margin: f64,
    /// The skew constraint.
    pub skew: SkewAxis,
    /// Optional track budget as a fraction of the conservative
    /// baseline's track cost.
    pub track_frac: Option<f64>,
}

/// The constraint axes of a sweep. Enumeration order — and therefore
/// every point index — is fixed: for each slew margin, every global skew
/// budget then every useful-skew window, each crossed with "no track
/// budget" followed by every track fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Slew margins over the conservative baseline (each ≥ 1).
    pub slew_margins: Vec<f64>,
    /// Global skew budgets, ps.
    pub skew_budgets_ps: Vec<f64>,
    /// Useful-skew window half-widths, ps (may be empty).
    pub windows_ps: Vec<f64>,
    /// Track budgets as fractions of the baseline track cost, in (0, 1];
    /// the unconstrained point is always enumerated first.
    pub track_fracs: Vec<f64>,
}

/// Checks a slew margin over the conservative baseline: finite and at
/// least 1, or the baseline itself would violate it.
pub fn check_slew_margin(margin: f64) -> Result<(), String> {
    if margin.is_finite() && margin >= 1.0 {
        Ok(())
    } else {
        Err(format!("slew margin {margin} must be finite and >= 1"))
    }
}

/// Checks a global skew budget: finite and positive, so the skew limit it
/// adds to the baseline's skew is positive even on a tree whose baseline
/// skew is 0.
pub fn check_skew_budget(budget_ps: f64) -> Result<(), String> {
    if budget_ps.is_finite() && budget_ps > 0.0 {
        Ok(())
    } else {
        Err(format!("skew budget {budget_ps} ps must be finite and > 0"))
    }
}

impl SweepSpec {
    /// The default sweep: the table-5 / fig-9 slices generalized — three
    /// slew margins × three skew budgets plus two useful-skew windows.
    pub fn default_sweep() -> Self {
        SweepSpec {
            slew_margins: vec![1.05, 1.10, 1.25],
            skew_budgets_ps: vec![10.0, 30.0, 60.0],
            windows_ps: vec![40.0, 15.0],
            track_fracs: Vec::new(),
        }
    }

    /// Validates the axes. Returns a usage-style message on the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// A human-readable description of the invalid axis value.
    pub fn validate(&self) -> Result<(), String> {
        if self.slew_margins.is_empty() {
            return Err("sweep needs at least one slew margin".to_owned());
        }
        if self.skew_budgets_ps.is_empty() && self.windows_ps.is_empty() {
            return Err("sweep needs at least one skew budget or window".to_owned());
        }
        for &m in &self.slew_margins {
            check_slew_margin(m)?;
        }
        for &b in &self.skew_budgets_ps {
            check_skew_budget(b)?;
        }
        for &w in &self.windows_ps {
            if !w.is_finite() || w <= 0.0 {
                return Err(format!("useful-skew window {w} ps must be finite and > 0"));
            }
        }
        for &f in &self.track_fracs {
            if !f.is_finite() || f <= 0.0 || f > 1.0 {
                return Err(format!("track fraction {f} must be in (0, 1]"));
            }
        }
        Ok(())
    }

    /// Enumerates the sweep's constraint points in canonical order.
    pub fn enumerate(&self) -> Vec<SweepPoint> {
        let tracks: Vec<Option<f64>> = std::iter::once(None)
            .chain(self.track_fracs.iter().copied().map(Some))
            .collect();
        let mut points = Vec::new();
        for &slew_margin in &self.slew_margins {
            for &budget_ps in &self.skew_budgets_ps {
                for &track_frac in &tracks {
                    points.push(SweepPoint {
                        index: points.len(),
                        slew_margin,
                        skew: SkewAxis::Global { budget_ps },
                        track_frac,
                    });
                }
            }
            for &window_ps in &self.windows_ps {
                for &track_frac in &tracks {
                    points.push(SweepPoint {
                        index: points.len(),
                        slew_margin,
                        skew: SkewAxis::Window { window_ps },
                        track_frac,
                    });
                }
            }
        }
        points
    }
}

// ---------------------------------------------------------------------------
// Point evaluation
// ---------------------------------------------------------------------------

/// Sweep-wide evaluation knobs, identical for every point. All but
/// `mc_parallelism` are part of each point's content-hash identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Monte-Carlo sample count for the robustness axis (0 = off; the
    /// σ-skew objective is then 0 for every point).
    pub mc_samples: usize,
    /// Monte-Carlo seed.
    pub mc_seed: u64,
    /// Enforce feasibility at the slow/fast corners too.
    pub corners: bool,
    /// The relaxed global skew budget used by useful-skew points, ps
    /// (fig. 9 relaxes to 150 ps when the arc windows bind instead).
    pub relaxed_skew_budget_ps: f64,
    /// Seed for the synthetic timing arcs of window points.
    pub arc_seed: u64,
    /// Upper bound on synthesized arcs (scaled down on small designs).
    pub max_arcs: usize,
    /// Threads for one point's Monte-Carlo samples. Scheduling only: the
    /// samples are bit-identical for any value, so it is not part of the
    /// point's identity. A sweep spread over `--jobs` workers sets it to
    /// serial, so each point samples on its own worker.
    pub mc_parallelism: Parallelism,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            mc_samples: 12,
            mc_seed: 7,
            corners: false,
            relaxed_skew_budget_ps: 150.0,
            arc_seed: 77,
            max_arcs: 400,
            mc_parallelism: Parallelism::auto(),
        }
    }
}

/// One evaluated point: the measured objectives plus the verdicts that
/// gate front membership and store write-back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointEval {
    /// The measured objective vector.
    pub objectives: Objectives,
    /// Whether the optimized assignment meets the point's constraints;
    /// infeasible points are reported but never enter the front.
    pub meets: bool,
    /// Whether the optimizer took a degradation-ladder rung. Informative
    /// only: degradation is as deterministic as the rest of the serial,
    /// seeded evaluation, so degraded points replay like any other.
    pub degraded: bool,
}

/// Evaluates one sweep point: smart-NDR under the point's constraints,
/// then the four objectives. The optimizer is serial and everything is
/// seeded, and the Monte-Carlo samples on `cfg.mc_parallelism` threads
/// with the same result for any count — the returned vector is
/// bit-identical across processes and job counts.
///
/// Returns `None` when `token` cancelled the evaluation (before it
/// started, mid-optimization, or mid-variation): a cancelled point
/// contributes nothing, so budget-truncated fronts stay a pure function
/// of the completed subset.
pub fn evaluate_point(
    design: &Design,
    tree: &ClockTree,
    tech: &Technology,
    point: &SweepPoint,
    cfg: &EvalConfig,
    baseline_track_um: f64,
    token: Option<&CancelToken>,
) -> Option<PointEval> {
    if token.is_some_and(CancelToken::is_cancelled) {
        return None;
    }

    let mut constraints = match point.skew {
        SkewAxis::Global { budget_ps } => {
            Constraints::relative(tree, tech, point.slew_margin, budget_ps)
        }
        SkewAxis::Window { .. } => {
            Constraints::relative(tree, tech, point.slew_margin, cfg.relaxed_skew_budget_ps)
        }
    };
    if let Some(frac) = point.track_frac {
        constraints = constraints.with_track_budget_um(frac * baseline_track_um);
    }

    let mut ctx = OptContext::new(tree, tech, PowerModel::new(design.freq_ghz()))
        .with_constraints(constraints);
    if cfg.corners {
        ctx = ctx.with_corners(vec![Corner::typical(), Corner::slow(), Corner::fast()]);
    }
    if let SkewAxis::Window { window_ps } = point.skew {
        // Windows need at least one launch/capture pair; degenerate
        // designs fall back to the relaxed global budget alone.
        if design.sinks().len() >= 2 {
            let count = (design.sinks().len() / 2).clamp(1, cfg.max_arcs);
            let arcs = random_timing_arcs(
                design,
                count,
                (window_ps, window_ps),
                (window_ps, window_ps),
                cfg.arc_seed,
            );
            ctx = ctx
                .with_timing_arcs(arcs)
                .expect("synthetic arcs reference the design's own sinks");
        }
    }

    let mut budget = Budget::unlimited();
    if let Some(t) = token {
        budget = budget.with_token(t.clone());
    }
    let out = SmartNdr::default().with_budget(budget).optimize(&ctx);
    if out.budget_exhausted() {
        // The token fired mid-optimization; the best-so-far result is
        // timing-dependent, so the point is dropped rather than polluting
        // the deterministic front.
        return None;
    }

    let sigma_skew_ps = if cfg.mc_samples > 0 {
        let mc = MonteCarlo::new(VariationModel::default(), cfg.mc_samples, cfg.mc_seed)
            .with_parallelism(cfg.mc_parallelism);
        let mc_token = token.cloned().unwrap_or_default();
        match mc.run_with_token(tree, tech, out.assignment(), &mc_token) {
            Ok(rep) => rep.sigma_skew_ps(),
            Err(VariationError::Cancelled) => return None,
            // Optimizer assignments always draw from the technology's own
            // rule set; an out-of-range rule would be a caller bug, and
            // dropping the point keeps the front well-defined.
            Err(VariationError::RuleOutOfRange { .. }) => return None,
        }
    } else {
        0.0
    };

    Some(PointEval {
        objectives: Objectives {
            power_uw: out.power().network_uw(),
            skew_ps: out.timing().skew_ps(),
            sigma_skew_ps,
            track_cost_um: out.power().track_cost_um(),
        },
        meets: out.meets_constraints(),
        degraded: !out.degradations().is_empty(),
    })
}

// ---------------------------------------------------------------------------
// Exact store encoding
// ---------------------------------------------------------------------------

const ENCODE_VERSION: &str = "pareto-eval-v1";

/// Encodes an evaluation for the durable store: IEEE-754 bit patterns in
/// hex, so a replayed point is *exactly* the computed one — fronts built
/// from warm replays are bit-identical to cold fronts.
pub fn encode_eval(eval: &PointEval) -> String {
    format!(
        "{ENCODE_VERSION} {:016x} {:016x} {:016x} {:016x} {} {}",
        eval.objectives.power_uw.to_bits(),
        eval.objectives.skew_ps.to_bits(),
        eval.objectives.sigma_skew_ps.to_bits(),
        eval.objectives.track_cost_um.to_bits(),
        u8::from(eval.meets),
        u8::from(eval.degraded),
    )
}

/// Decodes [`encode_eval`] output. `None` on any mismatch (version skew,
/// malformed field) — callers treat that as a quarantinable entry.
pub fn decode_eval(text: &str) -> Option<PointEval> {
    let mut it = text.split_ascii_whitespace();
    if it.next()? != ENCODE_VERSION {
        return None;
    }
    let mut bits = |_: ()| u64::from_str_radix(it.next()?, 16).ok();
    let power_uw = f64::from_bits(bits(())?);
    let skew_ps = f64::from_bits(bits(())?);
    let sigma_skew_ps = f64::from_bits(bits(())?);
    let track_cost_um = f64::from_bits(bits(())?);
    let mut flag = |_: ()| match it.next()? {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    };
    let meets = flag(())?;
    let degraded = flag(())?;
    if it.next().is_some() {
        return None;
    }
    Some(PointEval {
        objectives: Objectives { power_uw, skew_ps, sigma_skew_ps, track_cost_um },
        meets,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(p: f64, s: f64, r: f64, t: f64) -> Objectives {
        Objectives { power_uw: p, skew_ps: s, sigma_skew_ps: r, track_cost_um: t }
    }

    #[test]
    fn dominance_is_strict() {
        let a = obj(1.0, 1.0, 1.0, 1.0);
        let better = obj(0.5, 1.0, 1.0, 1.0);
        let mixed = obj(0.5, 2.0, 1.0, 1.0);
        assert!(better.dominates(&a));
        assert!(!a.dominates(&better));
        assert!(!a.dominates(&a), "equal vectors never dominate");
        assert!(!mixed.dominates(&a) && !a.dominates(&mixed));
    }

    #[test]
    fn filter_keeps_only_non_dominated() {
        let mut front = ParetoFront::new();
        assert!(front.insert(FrontPoint { index: 0, objectives: obj(2.0, 2.0, 2.0, 2.0) }));
        assert!(front.insert(FrontPoint { index: 1, objectives: obj(1.0, 3.0, 2.0, 2.0) }));
        // Dominates point 0: evicts it.
        assert!(front.insert(FrontPoint { index: 2, objectives: obj(1.5, 1.5, 1.5, 1.5) }));
        // Dominated by point 2: rejected.
        assert!(!front.insert(FrontPoint { index: 3, objectives: obj(3.0, 3.0, 3.0, 3.0) }));
        let sorted = front.into_sorted();
        assert_eq!(sorted.iter().map(|p| p.index).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn enumeration_order_is_canonical() {
        let spec = SweepSpec {
            slew_margins: vec![1.1, 1.2],
            skew_budgets_ps: vec![10.0],
            windows_ps: vec![25.0],
            track_fracs: vec![0.9],
        };
        let points = spec.enumerate();
        assert_eq!(points.len(), 2 * (1 + 1) * (1 + 1));
        assert!(points.iter().enumerate().all(|(i, p)| p.index == i));
        assert_eq!(points[0].skew, SkewAxis::Global { budget_ps: 10.0 });
        assert_eq!(points[0].track_frac, None);
        assert_eq!(points[1].track_frac, Some(0.9));
        assert_eq!(points[2].skew, SkewAxis::Window { window_ps: 25.0 });
        assert_eq!(points[4].slew_margin, 1.2);
    }

    #[test]
    fn default_sweep_validates() {
        let spec = SweepSpec::default_sweep();
        spec.validate().unwrap();
        assert_eq!(spec.enumerate().len(), 15);
    }

    #[test]
    fn validation_rejects_bad_axes() {
        for spec in [
            SweepSpec { slew_margins: vec![], ..SweepSpec::default_sweep() },
            SweepSpec { slew_margins: vec![0.9], ..SweepSpec::default_sweep() },
            SweepSpec { skew_budgets_ps: vec![-1.0], ..SweepSpec::default_sweep() },
            SweepSpec { windows_ps: vec![0.0], ..SweepSpec::default_sweep() },
            SweepSpec { track_fracs: vec![1.5], ..SweepSpec::default_sweep() },
            SweepSpec {
                skew_budgets_ps: vec![],
                windows_ps: vec![],
                ..SweepSpec::default_sweep()
            },
        ] {
            assert!(spec.validate().is_err(), "{spec:?} should be rejected");
        }
    }

    #[test]
    fn eval_encoding_round_trips_exactly() {
        for (meets, degraded) in [(true, false), (false, true), (true, true)] {
            let eval = PointEval {
                objectives: obj(123.456789, 0.1 + 0.2, f64::MIN_POSITIVE, 9876.5),
                meets,
                degraded,
            };
            let decoded = decode_eval(&encode_eval(&eval)).unwrap();
            assert_eq!(decoded, eval);
        }
        assert!(decode_eval("pareto-eval-v0 0 0 0 0 1 0").is_none());
        assert!(decode_eval("pareto-eval-v1 0 0 0 0 1").is_none());
        assert!(decode_eval("pareto-eval-v1 0 0 0 0 2 0").is_none());
        assert!(decode_eval("pareto-eval-v1 0 0 0 0 1 0 extra").is_none());
    }
}
