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
//! 2. **Point evaluation** — [`evaluate_points`] runs the headline smart
//!    optimizer under each point's constraints and measures the four
//!    objectives ([`Objectives`]). The points are optimized together
//!    ([`SmartNdr::optimize_all`]), each to the outcome it has alone, and
//!    everything is seeded, so a point's objective vector is bit-identical
//!    wherever, and with whichever other points, it is computed. The
//!    points of one sweep share a [`SweepContext`]: one baseline analysis
//!    for every point's limits and one Monte-Carlo draw for every point's
//!    σ-skew.
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

use snr_core::{Budget, Constraints, OptContext, SmartNdr, TreeState};
use snr_cts::ClockTree;
use snr_netlist::{random_timing_arcs, Design};
use snr_par::{par_map, CancelToken, Cancelled, Parallelism};
use snr_power::PowerModel;
use snr_tech::{Corner, Technology};
use snr_variation::{Deviations, MonteCarlo, VariationError, VariationModel};
use std::sync::{Mutex, OnceLock, PoisonError};

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

/// The state every point of one sweep shares, built once per sweep: the
/// design, the evaluation knobs, the tree's [`TreeState`] (the analyzed
/// conservative baseline, whose max slew and skew anchor every point's
/// limits and whose track cost anchors the track-budget axis, and the
/// optimizer's engine and tree structure, built by the first point that
/// optimizes), and the Monte-Carlo width deviations. The deviations are
/// drawn by the first point that runs Monte Carlo, so a sweep whose points
/// all replay from a store draws nothing and builds no engine; every later
/// point analyzes its own assignment on the same table (see
/// [`snr_variation::Deviations`]).
pub struct SweepContext<'a> {
    design: &'a Design,
    cfg: EvalConfig,
    start: TreeState<'a>,
    deviations: OnceLock<Deviations>,
    /// Held while drawing, so concurrent points draw once between them.
    drawing: Mutex<()>,
    #[cfg(test)]
    draws: std::sync::atomic::AtomicUsize,
}

impl<'a> SweepContext<'a> {
    /// Analyzes the conservative-uniform baseline of `tree` once for the
    /// whole sweep. Nothing is drawn yet.
    pub fn new(
        design: &'a Design,
        tree: &'a ClockTree,
        tech: &'a Technology,
        cfg: EvalConfig,
    ) -> Self {
        SweepContext {
            design,
            cfg,
            start: TreeState::new(tree, tech, PowerModel::new(design.freq_ghz())),
            deviations: OnceLock::new(),
            drawing: Mutex::new(()),
            #[cfg(test)]
            draws: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// The conservative baseline's routing-track cost, µm: the anchor of
    /// the track-budget axis.
    pub fn baseline_track_um(&self) -> f64 {
        self.start.power().track_cost_um()
    }

    /// The limits [`Constraints::try_relative`] derives on this sweep's
    /// tree, bit for bit, without analyzing the baseline again.
    ///
    /// # Errors
    ///
    /// As [`Constraints::try_relative`].
    pub fn constraints(
        &self,
        slew_margin: f64,
        skew_budget_ps: f64,
    ) -> Result<Constraints, String> {
        let base = self.start.timing();
        Constraints::try_over_baseline(base.max_slew_ps(), base.skew_ps(), slew_margin, skew_budget_ps)
    }

    /// The optimizer context of `point`: its limits over the sweep's
    /// baseline, its corners and its timing arcs, over the sweep's
    /// [`TreeState`].
    ///
    /// # Panics
    ///
    /// As [`evaluate_points`].
    fn point_context(&self, point: &SweepPoint) -> OptContext<'_> {
        let (design, cfg) = (self.design, &self.cfg);
        let skew_budget_ps = match point.skew {
            SkewAxis::Global { budget_ps } => budget_ps,
            SkewAxis::Window { .. } => cfg.relaxed_skew_budget_ps,
        };
        let mut constraints = self
            .constraints(point.slew_margin, skew_budget_ps)
            .unwrap_or_else(|e| panic!("{e}"));
        if let Some(frac) = point.track_frac {
            constraints = constraints.with_track_budget_um(frac * self.baseline_track_um());
        }
        let mut ctx = OptContext::sharing(&self.start).with_constraints(constraints);
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
        ctx
    }

    /// Whether a point has drawn the sweep's Monte-Carlo deviations.
    pub fn deviations_drawn(&self) -> bool {
        self.deviations.get().is_some()
    }

    fn monte_carlo(&self) -> MonteCarlo {
        MonteCarlo::new(VariationModel::default(), self.cfg.mc_samples, self.cfg.mc_seed)
            .with_parallelism(self.cfg.mc_parallelism)
    }

    /// The sweep's deviations, drawn on first use. A cancelled draw leaves
    /// nothing behind, so the next point under an unfired token draws.
    fn deviations(&self, token: &CancelToken) -> Result<&Deviations, Cancelled> {
        if let Some(deviations) = self.deviations.get() {
            return Ok(deviations);
        }
        let _drawing = self.drawing.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(deviations) = self.deviations.get() {
            return Ok(deviations);
        }
        let deviations = self.monte_carlo().deviations(self.start.tree(), token)?;
        #[cfg(test)]
        self.draws.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(self.deviations.get_or_init(|| deviations))
    }
}

/// Evaluates sweep points: smart-NDR under each point's constraints, then
/// the four objectives. The points' contexts are optimized together
/// ([`SmartNdr::optimize_all`] on `par`'s workers), each to the outcome it
/// has alone; then each point's Monte Carlo runs on the sweep's draw, on
/// `par`'s workers too, sampling on `cfg.mc_parallelism` threads with the
/// same result for any count. Everything is seeded, so each returned
/// vector is bit-identical across processes, job counts and the points it
/// is evaluated with. `on_point` is called with each point's evaluation as
/// it completes, on the worker that completed it.
///
/// Returns one slot per point, `None` where `token` cancelled the
/// evaluation (before it started, mid-optimization, or mid-variation): a
/// cancelled point contributes nothing, so budget-truncated fronts stay a
/// pure function of the completed subset. A token that fires during the
/// optimization cancels every point still being optimized.
///
/// # Panics
///
/// Panics if a point's limits are unusable over the sweep's baseline (see
/// [`SweepContext::constraints`]), or its track budget is not positive.
pub fn evaluate_points(
    sweep: &SweepContext<'_>,
    points: &[SweepPoint],
    par: Parallelism,
    token: Option<&CancelToken>,
    on_point: impl Fn(&SweepPoint, &PointEval) + Sync,
) -> Vec<Option<PointEval>> {
    if token.is_some_and(CancelToken::is_cancelled) {
        return vec![None; points.len()];
    }
    let ctxs: Vec<OptContext<'_>> = points.iter().map(|point| sweep.point_context(point)).collect();
    let mut budget = Budget::unlimited();
    if let Some(t) = token {
        budget = budget.with_token(t.clone());
    }
    let outs = SmartNdr::default().with_budget(budget).optimize_all(&ctxs, par);
    let (tree, tech, cfg) = (sweep.start.tree(), sweep.start.tech(), &sweep.cfg);
    par_map(par, &outs, |i, out| {
        if out.budget_exhausted() {
            // The token fired mid-optimization; the best-so-far result is
            // timing-dependent, so the point is dropped rather than
            // polluting the deterministic front.
            return None;
        }
        let sigma_skew_ps = if cfg.mc_samples > 0 {
            let mc_token = token.cloned().unwrap_or_default();
            let deviations = sweep.deviations(&mc_token).ok()?;
            let report = sweep.monte_carlo().run_with_deviations(
                tree,
                tech,
                out.assignment(),
                deviations,
                &mc_token,
            );
            match report {
                Ok(rep) => rep.sigma_skew_ps(),
                Err(VariationError::Cancelled) => return None,
                // Optimizer assignments always draw from the technology's
                // own rule set; an out-of-range rule would be a caller bug,
                // and dropping the point keeps the front well-defined.
                Err(VariationError::RuleOutOfRange { .. }) => return None,
            }
        } else {
            0.0
        };
        let eval = PointEval {
            objectives: Objectives {
                power_uw: out.power().network_uw(),
                skew_ps: out.timing().skew_ps(),
                sigma_skew_ps,
                track_cost_um: out.power().track_cost_um(),
            },
            meets: out.meets_constraints(),
            degraded: !out.degradations().is_empty(),
        };
        on_point(&points[i], &eval);
        Some(eval)
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
    use snr_cts::{synthesize, CtsOptions};
    use snr_core::NdrOptimizer;
    use snr_netlist::BenchmarkSpec;
    use std::sync::atomic::Ordering;

    fn small_design() -> (Design, ClockTree, Technology) {
        let design = BenchmarkSpec::new("shared", 60).seed(5).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (design, tree, tech)
    }

    /// One point evaluated the way every point was before sweeps shared
    /// their baseline and draw: its own baseline analysis for the limits
    /// and its own Monte-Carlo run.
    fn evaluate_alone(
        design: &Design,
        tree: &ClockTree,
        tech: &Technology,
        point: &SweepPoint,
        cfg: &EvalConfig,
    ) -> PointEval {
        let budget = match point.skew {
            SkewAxis::Global { budget_ps } => budget_ps,
            SkewAxis::Window { .. } => cfg.relaxed_skew_budget_ps,
        };
        let mut constraints = Constraints::relative(tree, tech, point.slew_margin, budget);
        let base = OptContext::new(tree, tech, PowerModel::new(design.freq_ghz()));
        if let Some(frac) = point.track_frac {
            let track_um = base.conservative_baseline().power().track_cost_um();
            constraints = constraints.with_track_budget_um(frac * track_um);
        }
        let mut ctx = base.with_constraints(constraints);
        if let SkewAxis::Window { window_ps } = point.skew {
            let count = (design.sinks().len() / 2).clamp(1, cfg.max_arcs);
            let window = (window_ps, window_ps);
            let arcs = random_timing_arcs(design, count, window, window, cfg.arc_seed);
            ctx = ctx.with_timing_arcs(arcs).unwrap();
        }
        let out = SmartNdr::default().optimize(&ctx);
        let mc = MonteCarlo::new(VariationModel::default(), cfg.mc_samples, cfg.mc_seed);
        PointEval {
            objectives: Objectives {
                power_uw: out.power().network_uw(),
                skew_ps: out.timing().skew_ps(),
                sigma_skew_ps: mc.run(tree, tech, out.assignment()).sigma_skew_ps(),
                track_cost_um: out.power().track_cost_um(),
            },
            meets: out.meets_constraints(),
            degraded: !out.degradations().is_empty(),
        }
    }

    /// Every point of a sweep evaluates to the bits of a point evaluated
    /// alone, the sweep draws its deviations once, and every point's
    /// optimizer context borrows the sweep's one [`TreeState`], so the
    /// state, its engine included, is built once per sweep.
    #[test]
    fn a_shared_sweep_gives_every_point_its_own_runs_bits_and_draws_once() {
        let (design, tree, tech) = small_design();
        // 37 samples: two full chunks and a ragged third.
        let cfg = EvalConfig {
            mc_samples: 37,
            mc_parallelism: Parallelism::serial(),
            ..EvalConfig::default()
        };
        let spec = SweepSpec { track_fracs: vec![0.9], ..SweepSpec::default_sweep() };
        let points = spec.enumerate();
        let sweep = SweepContext::new(&design, &tree, &tech, cfg);
        assert!(!sweep.deviations_drawn(), "building the sweep draws nothing");
        let streamed = Mutex::new(Vec::new());
        let evals = evaluate_points(&sweep, &points, Parallelism::new(2), None, |point, eval| {
            streamed.lock().unwrap().push((point.index, encode_eval(eval)));
        });
        let evals: Vec<PointEval> = evals.into_iter().map(Option::unwrap).collect();
        let mut streamed = streamed.into_inner().unwrap();
        streamed.sort();
        let want: Vec<(usize, String)> =
            points.iter().zip(&evals).map(|(p, e)| (p.index, encode_eval(e))).collect();
        assert_eq!(streamed, want, "one call per point, with its evaluation");
        assert_eq!(sweep.draws.load(Ordering::Relaxed), 1, "one draw per sweep");
        for point in &points {
            let shared = std::ptr::eq(sweep.point_context(point).start(), &sweep.start);
            assert!(shared, "point {} builds a state of its own", point.index);
        }
        for (point, eval) in points.iter().zip(&evals) {
            let alone = evaluate_alone(&design, &tree, &tech, point, &cfg);
            assert_eq!(encode_eval(eval), encode_eval(&alone), "point {}", point.index);
        }
    }

    #[test]
    fn a_sweep_without_monte_carlo_never_draws() {
        let (design, tree, tech) = small_design();
        let cfg = EvalConfig { mc_samples: 0, ..EvalConfig::default() };
        let sweep = SweepContext::new(&design, &tree, &tech, cfg);
        let points = &SweepSpec::default_sweep().enumerate()[..3];
        for eval in evaluate_points(&sweep, points, Parallelism::serial(), None, |_, _| {}) {
            assert_eq!(eval.unwrap().objectives.sigma_skew_ps, 0.0);
        }
        assert_eq!(sweep.draws.load(Ordering::Relaxed), 0);
        assert!(!sweep.deviations_drawn());
    }

    #[test]
    fn a_cancelled_draw_leaves_the_next_point_to_draw() {
        let (design, tree, tech) = small_design();
        let sweep = SweepContext::new(&design, &tree, &tech, EvalConfig::default());
        let fired = CancelToken::new();
        fired.cancel();
        assert!(sweep.deviations(&fired).is_err());
        assert!(!sweep.deviations_drawn());
        assert!(sweep.deviations(&CancelToken::new()).is_ok());
        assert!(sweep.deviations(&fired).is_ok(), "a drawn table is kept");
        assert_eq!(sweep.draws.load(Ordering::Relaxed), 1);
    }

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
