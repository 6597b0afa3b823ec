//! Process-variation substrate: Monte-Carlo skew analysis under wire-width
//! variation.
//!
//! Clock NDRs exist because narrow wires are *relatively* more variable:
//! a ±Δw lithography/CMP width shift perturbs `R ∝ 1/w` twice as hard on a
//! 1W wire as on a 2W wire. This crate replaces the foundry's OCV data with
//! a parametric width-variation model and measures its effect on skew by
//! Monte-Carlo over the real RC analysis:
//!
//! * per-edge width deviation `Δw = σ_w · (√f_die·g₀ + √f_sp·g_cell + √f_rnd·g_e)`
//!   with a die-wide component, a spatially correlated grid component and an
//!   independent random component;
//! * per-edge R/C perturbation through [`snr_tech::Layer::unit_r_varied`] /
//!   [`unit_c_varied`](snr_tech::Layer::unit_c_varied) — narrow rules suffer
//!   more, exactly as in silicon;
//! * skew/latency distributions via the multi-lane
//!   [`snr_timing::BatchAnalyzer`]: samples are chunked into [`LANES`]-wide
//!   batches so tree structure and rule tables are read once per chunk
//!   instead of once per sample.
//!
//! Sampling is parallel (see [`MonteCarlo::with_parallelism`]) and
//! **bit-identical for any thread count and any batching**: every sample
//! derives its own RNG stream as `seed ^ splitmix64(sample_index)`, so the
//! drawn variation vector is a pure function of the run seed and the sample
//! index, never of scheduling — and every batch lane performs the serial
//! analyzer's floating-point operations in the serial order, so batching
//! never changes a single bit of the statistics.
//!
//! The contract covers **shared deviations** too. A width deviation does
//! not depend on the edge's rule, so [`MonteCarlo::deviations`] can draw a
//! run's deviations on a tree once and [`MonteCarlo::run_with_deviations`]
//! analyzes any number of assignments on them (a Pareto sweep's points, a
//! run's baseline and result). The table holds the leading sample chunks
//! that fit a fixed 64 MiB cap; an analysis draws the chunks past it with
//! the same function. Every report equals [`MonteCarlo::run_with_token`]'s
//! bit for bit, which is the cap-0 case.
//!
//! # Examples
//!
//! ```
//! use snr_netlist::BenchmarkSpec;
//! use snr_tech::Technology;
//! use snr_cts::{synthesize, Assignment, CtsOptions};
//! use snr_variation::{MonteCarlo, VariationModel};
//!
//! let design = BenchmarkSpec::new("demo", 64).seed(3).build()?;
//! let tech = Technology::n45();
//! let tree = synthesize(&design, &tech, &CtsOptions::default())?;
//! let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
//!
//! let mc = MonteCarlo::new(VariationModel::default(), 50, 7);
//! let report = mc.run(&tree, &tech, &asg);
//! assert_eq!(report.n_samples(), 50);
//! assert!(report.sigma_skew_ps() >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snr_cts::{Assignment, ClockTree, NodeId};
use snr_geom::Rect;
use snr_par::{splitmix64, try_par_map_n, CancelToken, Cancelled, Parallelism};
use snr_tech::{Rule, RuleId, Technology};
use snr_timing::{BatchAnalyzer, EdgeNominals};
use std::fmt;

/// Lane width of the batched sampler: samples are evaluated in chunks of
/// this many [`snr_timing::BatchAnalyzer`] lanes (the final chunk may be
/// ragged). Purely an execution detail — results are bit-identical for any
/// lane width.
pub const LANES: usize = 16;

/// Most samples one [`MonteCarlo`] engine may draw. A report holds every
/// sample, so an unbounded count would abort the process on allocation
/// instead of answering; request front ends refuse larger counts up front.
pub const MAX_SAMPLES: usize = 1_000_000;

/// Why a Monte-Carlo run returned no statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariationError {
    /// The cancel token fired before every sample completed. Partial
    /// statistics are never reported.
    Cancelled,
    /// The assignment references a rule outside the technology's rule set.
    /// Detected up front, before any sampling starts — a malformed
    /// assignment can never panic a parallel sample worker.
    RuleOutOfRange {
        /// The edge (child node id) carrying the unknown rule.
        edge: NodeId,
        /// The out-of-range rule id.
        rule: RuleId,
    },
}

impl fmt::Display for VariationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VariationError::Cancelled => write!(f, "Monte-Carlo run cancelled"),
            VariationError::RuleOutOfRange { edge, rule } => write!(
                f,
                "assignment references a rule outside the rule set (rule r{} on edge {edge})",
                rule.0
            ),
        }
    }
}

impl std::error::Error for VariationError {}

impl From<Cancelled> for VariationError {
    fn from(_: Cancelled) -> Self {
        VariationError::Cancelled
    }
}

/// Statistical model of wire-width variation.
///
/// The 1-σ width deviation `sigma_w_um` is split into three independent
/// Gaussian components whose variance fractions sum to one: die-level
/// systematic, spatially correlated (shared within grid cells), and
/// edge-independent random.
///
/// The default models a 45 nm-class process: σ_w = 5 % of a 70 nm minimum
/// width, 25 % die / 35 % spatial / 40 % random, on an 8×8 correlation
/// grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    sigma_w_um: f64,
    frac_die: f64,
    frac_spatial: f64,
    grid: usize,
}

impl VariationModel {
    /// Creates a model.
    ///
    /// `frac_die + frac_spatial` must be at most 1; the remainder is the
    /// independent random fraction.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_w_um` is negative/non-finite, the fractions are
    /// outside `[0, 1]` or sum above 1, or `grid` is zero.
    pub fn new(sigma_w_um: f64, frac_die: f64, frac_spatial: f64, grid: usize) -> Self {
        assert!(
            sigma_w_um.is_finite() && sigma_w_um >= 0.0,
            "sigma_w {sigma_w_um} must be >= 0"
        );
        assert!(
            (0.0..=1.0).contains(&frac_die)
                && (0.0..=1.0).contains(&frac_spatial)
                && frac_die + frac_spatial <= 1.0 + 1e-12,
            "variance fractions die={frac_die}, spatial={frac_spatial} invalid"
        );
        assert!(grid > 0, "correlation grid must be non-empty");
        VariationModel {
            sigma_w_um,
            frac_die,
            frac_spatial,
            grid,
        }
    }

    /// 1-σ width deviation in µm.
    pub fn sigma_w_um(&self) -> f64 {
        self.sigma_w_um
    }

    /// Die-level variance fraction.
    pub fn frac_die(&self) -> f64 {
        self.frac_die
    }

    /// Spatially correlated variance fraction.
    pub fn frac_spatial(&self) -> f64 {
        self.frac_spatial
    }

    /// Independent random variance fraction.
    pub fn frac_random(&self) -> f64 {
        (1.0 - self.frac_die - self.frac_spatial).max(0.0)
    }

    /// Correlation-grid resolution (cells per axis).
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Returns a copy with a different σ_w.
    pub fn with_sigma_w_um(mut self, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma_w {sigma} must be >= 0");
        self.sigma_w_um = sigma;
        self
    }
}

impl Default for VariationModel {
    fn default() -> Self {
        VariationModel::new(0.0035, 0.25, 0.35, 8)
    }
}

impl fmt::Display for VariationModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "σw={:.4}µm (die {:.0}%, spatial {:.0}%, random {:.0}%, {}×{} grid)",
            self.sigma_w_um,
            100.0 * self.frac_die,
            100.0 * self.frac_spatial,
            100.0 * self.frac_random(),
            self.grid,
            self.grid
        )
    }
}

/// Skew/latency distributions from a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationReport {
    skew_ps: Vec<f64>,
    latency_ps: Vec<f64>,
}

impl VariationReport {
    /// Number of samples.
    pub fn n_samples(&self) -> usize {
        self.skew_ps.len()
    }

    /// Per-sample skews, ps.
    pub fn skew_samples_ps(&self) -> &[f64] {
        &self.skew_ps
    }

    /// Per-sample latencies, ps.
    pub fn latency_samples_ps(&self) -> &[f64] {
        &self.latency_ps
    }

    /// Mean skew, ps.
    pub fn mean_skew_ps(&self) -> f64 {
        mean(&self.skew_ps)
    }

    /// Skew standard deviation, ps.
    pub fn sigma_skew_ps(&self) -> f64 {
        sigma(&self.skew_ps)
    }

    /// Worst sampled skew, ps.
    pub fn max_skew_ps(&self) -> f64 {
        self.skew_ps.iter().cloned().fold(0.0, f64::max)
    }

    /// Skew at quantile `q` in `[0, 1]` (linear interpolation).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or no samples exist.
    pub fn skew_quantile_ps(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        assert!(!self.skew_ps.is_empty(), "no samples");
        let mut sorted = self.skew_ps.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("skews are finite"));
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }

    /// Mean latency, ps.
    pub fn mean_latency_ps(&self) -> f64 {
        mean(&self.latency_ps)
    }
}

impl fmt::Display for VariationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples: skew μ={:.2} σ={:.2} max={:.2} ps",
            self.n_samples(),
            self.mean_skew_ps(),
            self.sigma_skew_ps(),
            self.max_skew_ps()
        )
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn sigma(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// One standard-normal sample: the cosine half of a Box–Muller pair. Both
/// uniforms are consumed, so the RNG stream advances exactly as if the pair
/// had been drawn; the sine half is never computed.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Largest deviation table [`MonteCarlo::deviations`] holds, in bytes.
/// Chunks past it are drawn by each analysis, so memory stays bounded for
/// any sample count and tree size.
const TABLE_CAP_BYTES: usize = 64 << 20;

/// The per-edge width deviations of a Monte-Carlo run on one tree, drawn
/// once by [`MonteCarlo::deviations`] and shared by every
/// [`MonteCarlo::run_with_deviations`] on that tree, whatever the
/// assignment: a deviation depends only on the model, the seed, the sample
/// index and the edge's correlation cell, never on the edge's rule.
///
/// The table holds the leading sample chunks that fit a fixed byte cap;
/// an analysis draws the chunks past it itself, with the same function and
/// therefore the same bits.
#[derive(Debug, Clone)]
pub struct Deviations {
    model: VariationModel,
    n_samples: usize,
    seed: u64,
    nodes: usize,
    edges: Vec<NodeId>,
    cells: Vec<usize>,
    /// Chunk `c` holds samples `[c·LANES, c·LANES + lk)` edge-major:
    /// `dw` of edge `k` in lane `l` at `[k·lk + l]`.
    chunks: Vec<Vec<f64>>,
}

/// A Monte-Carlo skew-variation engine.
///
/// Deterministic: the same `(model, n_samples, seed)` on the same tree and
/// assignment always produces the same report — **regardless of the
/// configured [`Parallelism`]**, because each sample's RNG stream is seeded
/// independently as `seed ^ splitmix64(sample_index)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarlo {
    model: VariationModel,
    n_samples: usize,
    seed: u64,
    parallelism: Parallelism,
}

impl MonteCarlo {
    /// Creates an engine drawing `n_samples` samples, sampling in parallel
    /// on all available cores (see [`with_parallelism`](Self::with_parallelism)).
    ///
    /// # Panics
    ///
    /// Panics if `n_samples` is zero or above [`MAX_SAMPLES`].
    pub fn new(model: VariationModel, n_samples: usize, seed: u64) -> Self {
        assert!(n_samples > 0, "need at least one sample");
        assert!(
            n_samples <= MAX_SAMPLES,
            "need at most {MAX_SAMPLES} samples, got {n_samples}"
        );
        MonteCarlo {
            model,
            n_samples,
            seed,
            parallelism: Parallelism::auto(),
        }
    }

    /// Returns a copy sampling with the given thread configuration.
    ///
    /// The report is bit-identical for every choice; `Parallelism::serial()`
    /// runs everything on the calling thread.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The variation model.
    pub fn model(&self) -> VariationModel {
        self.model
    }

    /// The configured thread fan-out.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Runs the Monte-Carlo analysis of `tree` under `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not match the tree (see
    /// [`snr_timing::Analyzer::run`]) or references a rule outside the
    /// technology's rule set; use [`run_with_token`](Self::run_with_token)
    /// to receive the latter as a typed [`VariationError`] instead.
    pub fn run(
        &self,
        tree: &ClockTree,
        tech: &Technology,
        assignment: &Assignment,
    ) -> VariationReport {
        match self.run_with_token(tree, tech, assignment, &CancelToken::new()) {
            Ok(rep) => rep,
            Err(VariationError::Cancelled) => unreachable!("an unfired token never cancels"),
            Err(e @ VariationError::RuleOutOfRange { .. }) => panic!("{e}"),
        }
    }

    /// [`run`](Self::run) under a cooperative [`CancelToken`]: sampling
    /// stops at the next work-claim boundary once the token fires (e.g. a
    /// `--timeout` deadline) and the whole run returns
    /// `Err(VariationError::Cancelled)` — partial statistics are never
    /// reported, because a sample subset would silently change the
    /// distribution.
    ///
    /// Every chunk's deviations are drawn inside the analysis, so the
    /// memory beyond the report is the per-worker scratch alone.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::Cancelled`] if the token fired before
    /// every sample completed, and [`VariationError::RuleOutOfRange`] if
    /// the assignment references a rule id the technology does not define
    /// (checked up front, before any sampling).
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not match the tree (see
    /// [`snr_timing::Analyzer::run`]).
    pub fn run_with_token(
        &self,
        tree: &ClockTree,
        tech: &Technology,
        assignment: &Assignment,
        token: &CancelToken,
    ) -> Result<VariationReport, VariationError> {
        let deviations = self.layout(tree);
        self.run_with_deviations(tree, tech, assignment, &deviations, token)
    }

    /// Draws the run's width deviations on `tree` once, for any number of
    /// [`run_with_deviations`](Self::run_with_deviations) calls under
    /// different assignments. The table holds as many leading chunks as
    /// fit a fixed 64 MiB cap.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the token fired before the table was
    /// complete; a partial table is never returned.
    pub fn deviations(
        &self,
        tree: &ClockTree,
        token: &CancelToken,
    ) -> Result<Deviations, Cancelled> {
        self.deviations_capped(tree, TABLE_CAP_BYTES, token)
    }

    /// [`deviations`](Self::deviations) under a table cap of `cap_bytes`.
    fn deviations_capped(
        &self,
        tree: &ClockTree,
        cap_bytes: usize,
        token: &CancelToken,
    ) -> Result<Deviations, Cancelled> {
        let mut deviations = self.layout(tree);
        let n_chunks = self.n_samples.div_ceil(LANES);
        let chunk_bytes = LANES * deviations.edges.len() * std::mem::size_of::<f64>();
        let all_bytes = self
            .n_samples
            .saturating_mul(deviations.edges.len() * std::mem::size_of::<f64>());
        let held = if all_bytes <= cap_bytes {
            n_chunks
        } else {
            cap_bytes / chunk_bytes
        };
        let g = self.model.grid;
        deviations.chunks = try_par_map_n(
            self.parallelism,
            held,
            token,
            |_worker| Vec::with_capacity(g * g),
            |g_cells, ci| {
                let lk = self.lanes_in(ci);
                let mut dw = vec![0.0; deviations.edges.len() * lk];
                self.draw_chunk(&deviations.cells, ci, g_cells, |k, l, d| dw[k * lk + l] = d);
                dw
            },
        )?;
        Ok(deviations)
    }

    /// The deviations' edge list and correlation cells with an empty
    /// table: every chunk is drawn by the analysis.
    fn layout(&self, tree: &ClockTree) -> Deviations {
        // Edge midpoints -> correlation-grid cells. They depend only on
        // geometry, so every sample shares one read-only table.
        let bbox = Rect::bounding(tree.nodes().iter().map(|nd| nd.location()))
            .expect("trees are non-empty");
        let g = self.model.grid;
        let cell_of = |e: NodeId| -> usize {
            let node = tree.node(e);
            let p = node.location();
            let q = node
                .parent()
                .map(|pp| tree.node(pp).location())
                .unwrap_or(p);
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
        let cells = edges.iter().map(|&e| cell_of(e)).collect();
        Deviations {
            model: self.model,
            n_samples: self.n_samples,
            seed: self.seed,
            nodes: tree.len(),
            edges,
            cells,
            chunks: Vec::new(),
        }
    }

    /// Lanes in chunk `ci` (the final chunk may be ragged).
    fn lanes_in(&self, ci: usize) -> usize {
        LANES.min(self.n_samples - ci * LANES)
    }

    /// Draws chunk `ci`'s deviations, handing each to `put(edge index,
    /// lane, Δw)`: into a table, or straight into an analysis's R/C scales.
    /// `g_cells` is scratch for the grid components.
    fn draw_chunk(
        &self,
        cells: &[usize],
        ci: usize,
        g_cells: &mut Vec<f64>,
        mut put: impl FnMut(usize, usize, f64),
    ) {
        let g = self.model.grid;
        let sd = self.model.sigma_w_um;
        let (w_die, w_sp, w_rnd) = (
            self.model.frac_die.sqrt(),
            self.model.frac_spatial.sqrt(),
            self.model.frac_random().sqrt(),
        );
        for l in 0..self.lanes_in(ci) {
            let i = ci * LANES + l;
            // Each sample owns an RNG stream derived from (seed, i), so the
            // drawn vector never depends on which worker or lane evaluates
            // it — the determinism contract.
            let mut rng = StdRng::seed_from_u64(self.seed ^ splitmix64(i as u64));
            let g_die = gaussian(&mut rng);
            g_cells.clear();
            g_cells.extend((0..g * g).map(|_| gaussian(&mut rng)));
            for (k, &cell) in cells.iter().enumerate() {
                let g_e = gaussian(&mut rng);
                put(k, l, sd * (w_die * g_die + w_sp * g_cells[cell] + w_rnd * g_e));
            }
        }
        #[cfg(test)]
        tests::drew_chunk(ci);
    }

    /// [`run_with_token`](Self::run_with_token) reading each chunk's
    /// deviations from `deviations` where its table holds them, and
    /// drawing the rest. The report is bit-identical to `run_with_token`'s.
    ///
    /// # Errors
    ///
    /// As [`run_with_token`](Self::run_with_token).
    ///
    /// # Panics
    ///
    /// Panics if `deviations` was drawn by an engine with another model,
    /// sample count or seed, or for a tree of another size, and where
    /// `run_with_token` panics.
    pub fn run_with_deviations(
        &self,
        tree: &ClockTree,
        tech: &Technology,
        assignment: &Assignment,
        deviations: &Deviations,
        token: &CancelToken,
    ) -> Result<VariationReport, VariationError> {
        assert!(
            (deviations.model, deviations.n_samples, deviations.seed, deviations.nodes)
                == (self.model, self.n_samples, self.seed, tree.len()),
            "deviations drawn for another engine or tree"
        );
        let n = tree.len();
        let layer = tech.clock_layer();
        let rules = tech.rules();

        // The per-edge rules are validated and resolved up front — a
        // malformed assignment fails the whole run instead of panicking a
        // worker — with their nominal unit R and C, which every sample
        // divides by.
        let edge_rules: Vec<(Rule, f64, f64)> = deviations
            .edges
            .iter()
            .map(|&e| {
                let id = assignment.rule(e);
                let rule = rules
                    .get(id)
                    .ok_or(VariationError::RuleOutOfRange { edge: e, rule: id })?;
                Ok((rule, layer.unit_r(rule), layer.unit_c_delay(rule)))
            })
            .collect::<Result<_, VariationError>>()?;
        // Nominal parasitics are shared by every chunk (one rule-table sweep
        // for the whole run instead of one per chunk).
        let nominals = EdgeNominals::compute(tree, tech, assignment);

        // Samples are evaluated LANES at a time through the batched kernel:
        // chunk c covers samples [c·LANES, c·LANES + lk) with a possibly
        // ragged final chunk. Scale vectors are lane-major ([edge·lk + l]),
        // and each lane's deviations are exactly the ones the serial path
        // drew for that sample index, so the report stays bit-identical.
        struct Scratch {
            batch: BatchAnalyzer,
            r_scale: Vec<f64>,
            c_scale: Vec<f64>,
            g_cells: Vec<f64>,
        }
        let g = self.model.grid;
        let chunks: Vec<Vec<(f64, f64)>> = try_par_map_n(
            self.parallelism,
            self.n_samples.div_ceil(LANES),
            token,
            |_worker| Scratch {
                batch: BatchAnalyzer::new(),
                r_scale: Vec::new(),
                c_scale: Vec::new(),
                g_cells: Vec::with_capacity(g * g),
            },
            |scratch, ci| {
                let lk = self.lanes_in(ci);
                scratch.r_scale.clear();
                scratch.r_scale.resize(n * lk, 1.0);
                scratch.c_scale.clear();
                scratch.c_scale.resize(n * lk, 1.0);
                let (r_scale, c_scale) = (&mut scratch.r_scale, &mut scratch.c_scale);
                let mut scale = |k: usize, l: usize, d: f64| {
                    let e = deviations.edges[k].0;
                    let (rule, unit_r, unit_c) = edge_rules[k];
                    r_scale[e * lk + l] = layer.unit_r_varied(rule, d) / unit_r;
                    c_scale[e * lk + l] = layer.unit_c_delay_varied(rule, d) / unit_c;
                };
                match deviations.chunks.get(ci) {
                    Some(held) => {
                        for (k, dw) in held.chunks_exact(lk).enumerate() {
                            for (l, &d) in dw.iter().enumerate() {
                                scale(k, l, d);
                            }
                        }
                    }
                    None => self.draw_chunk(&deviations.cells, ci, &mut scratch.g_cells, scale),
                }
                let lanes = scratch.batch.run_scaled_nominal(
                    tree,
                    tech,
                    &nominals,
                    lk,
                    &scratch.r_scale,
                    &scratch.c_scale,
                );
                lanes.iter().map(|s| (s.skew_ps(), s.latency_ps)).collect()
            },
        )?;
        let samples: Vec<(f64, f64)> = chunks.into_iter().flatten().collect();
        Ok(VariationReport {
            skew_ps: samples.iter().map(|&(s, _)| s).collect(),
            latency_ps: samples.iter().map(|&(_, l)| l).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::BenchmarkSpec;
    use std::cell::RefCell;

    fn setup(n: usize) -> (ClockTree, Technology) {
        let design = BenchmarkSpec::new("t", n).seed(12).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (tree, tech)
    }

    #[test]
    fn deterministic() {
        let (tree, tech) = setup(60);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let mc = MonteCarlo::new(VariationModel::default(), 20, 3);
        assert_eq!(mc.run(&tree, &tech, &asg), mc.run(&tree, &tech, &asg));
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // The determinism contract: per-sample seed derivation makes the
        // report a pure function of (model, n_samples, seed), so any job
        // count reproduces the serial run bit for bit.
        let (tree, tech) = setup(60);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let base = MonteCarlo::new(VariationModel::default(), 25, 11);
        let serial = base.with_parallelism(Parallelism::serial()).run(&tree, &tech, &asg);
        for jobs in [2, 8] {
            let par = base
                .with_parallelism(Parallelism::new(jobs))
                .run(&tree, &tech, &asg);
            assert_eq!(serial, par, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn fired_token_cancels_instead_of_reporting_partial_stats() {
        let (tree, tech) = setup(40);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let mc = MonteCarlo::new(VariationModel::default(), 10, 3);
        let fired = CancelToken::new();
        fired.cancel();
        assert_eq!(
            mc.run_with_token(&tree, &tech, &asg, &fired),
            Err(VariationError::Cancelled)
        );
        // An unfired token changes nothing.
        let calm = CancelToken::new();
        assert_eq!(
            mc.run_with_token(&tree, &tech, &asg, &calm).unwrap(),
            mc.run(&tree, &tech, &asg)
        );
    }

    #[test]
    fn out_of_range_rule_is_a_typed_error_not_a_worker_panic() {
        let (tree, tech) = setup(40);
        let bogus = RuleId(tech.rules().len() + 7);
        let asg = Assignment::uniform(&tree, bogus);
        let mc = MonteCarlo::new(VariationModel::default(), 10, 3);
        let err = mc
            .run_with_token(&tree, &tech, &asg, &CancelToken::new())
            .unwrap_err();
        match err {
            VariationError::RuleOutOfRange { rule, .. } => assert_eq!(rule, bogus),
            other => panic!("expected RuleOutOfRange, got {other:?}"),
        }
        assert!(err.to_string().contains("outside the rule set"));
    }

    #[test]
    fn batching_is_bit_identical_for_ragged_sample_counts() {
        // 13 samples = one full 8-lane chunk plus a ragged 5-lane chunk;
        // the sample statistics must not depend on how lanes are packed.
        let (tree, tech) = setup(60);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let rep = MonteCarlo::new(VariationModel::default(), 13, 5).run(&tree, &tech, &asg);
        assert_eq!(rep.n_samples(), 13);
        // Every prefix of a longer run matches: sample i depends only on
        // (seed, i), never on n_samples or its chunk position.
        let longer = MonteCarlo::new(VariationModel::default(), 21, 5).run(&tree, &tech, &asg);
        assert_eq!(
            rep.skew_samples_ps(),
            &longer.skew_samples_ps()[..13],
            "sample streams must be independent of n_samples"
        );
    }

    fn sample_bits(rep: &VariationReport) -> Vec<(u64, u64)> {
        rep.skew_samples_ps()
            .iter()
            .zip(rep.latency_samples_ps())
            .map(|(s, l)| (s.to_bits(), l.to_bits()))
            .collect()
    }

    #[test]
    fn capped_tables_match_run_with_token_bit_for_bit() {
        // Tables holding no chunk, one, two and every chunk, over ragged
        // and full final chunks: the analysis draws whatever the table does
        // not hold, and every report equals the undrawn run's.
        let (tree, tech) = setup(30);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let chunk_bytes = LANES * tree.edges().count() * std::mem::size_of::<f64>();
        let token = CancelToken::new();
        for n_samples in 1..=40 {
            for jobs in [1, 2] {
                let mc = MonteCarlo::new(VariationModel::default(), n_samples, 19)
                    .with_parallelism(Parallelism::new(jobs));
                let want = sample_bits(&mc.run_with_token(&tree, &tech, &asg, &token).unwrap());
                let n_chunks = n_samples.div_ceil(LANES);
                for (cap, held_chunks) in [(0, 0), (chunk_bytes, 1), (2 * chunk_bytes, 2)] {
                    let devs = mc.deviations_capped(&tree, cap, &token).unwrap();
                    let all = n_samples <= cap / chunk_bytes * LANES;
                    let held = if all { n_chunks } else { held_chunks };
                    assert_eq!(devs.chunks.len(), held, "n={n_samples} cap={cap}");
                    let rep = mc.run_with_deviations(&tree, &tech, &asg, &devs, &token).unwrap();
                    assert_eq!(sample_bits(&rep), want, "n={n_samples} jobs={jobs} cap={cap}");
                }
                let devs = mc.deviations(&tree, &token).unwrap();
                assert_eq!(devs.chunks.len(), n_chunks);
                let rep = mc.run_with_deviations(&tree, &tech, &asg, &devs, &token).unwrap();
                assert_eq!(sample_bits(&rep), want, "n={n_samples} jobs={jobs} full table");
            }
        }
    }

    type DrawHook = Box<dyn Fn(usize)>;

    thread_local! {
        /// Called with the index of every chunk this thread draws.
        static ON_DRAW: RefCell<Option<DrawHook>> = RefCell::new(None);
    }

    pub(super) fn drew_chunk(ci: usize) {
        ON_DRAW.with(|hook| {
            if let Some(hook) = &*hook.borrow() {
                hook(ci);
            }
        });
    }

    #[test]
    fn a_token_fired_during_the_draw_cancels_the_whole_run() {
        // The serial path draws on this thread, so the hook fires the token
        // right after chunk 1 is drawn, before chunk 2 is claimed.
        let (tree, tech) = setup(40);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let mc = MonteCarlo::new(VariationModel::default(), 4 * LANES, 4)
            .with_parallelism(Parallelism::serial());
        let fire_after_chunk_1 = |token: &CancelToken| {
            let token = token.clone();
            ON_DRAW.with(|hook| {
                *hook.borrow_mut() = Some(Box::new(move |ci| {
                    if ci == 1 {
                        token.cancel();
                    }
                }));
            });
        };
        let token = CancelToken::new();
        fire_after_chunk_1(&token);
        assert!(matches!(mc.deviations(&tree, &token), Err(Cancelled)));
        let token = CancelToken::new();
        fire_after_chunk_1(&token);
        assert_eq!(
            mc.run_with_token(&tree, &tech, &asg, &token),
            Err(VariationError::Cancelled)
        );
        ON_DRAW.with(|hook| *hook.borrow_mut() = None);
    }

    #[test]
    #[should_panic(expected = "need at most 1000000 samples, got 9007199254740992")]
    fn sample_counts_above_the_ceiling_panic() {
        let _ = MonteCarlo::new(VariationModel::default(), 1 << 53, 7);
    }

    #[test]
    #[should_panic(expected = "deviations drawn for another engine or tree")]
    fn deviations_of_another_seed_are_rejected() {
        let (tree, tech) = setup(20);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let token = CancelToken::new();
        let devs = MonteCarlo::new(VariationModel::default(), 5, 1)
            .deviations(&tree, &token)
            .unwrap();
        let _ = MonteCarlo::new(VariationModel::default(), 5, 2)
            .run_with_deviations(&tree, &tech, &asg, &devs, &token);
    }

    #[test]
    fn zero_sigma_zero_extra_skew() {
        let (tree, tech) = setup(60);
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let mc = MonteCarlo::new(VariationModel::default().with_sigma_w_um(0.0), 5, 3);
        let rep = mc.run(&tree, &tech, &asg);
        // Balanced tree: skew stays at the (sub-ps) nominal value.
        assert!(rep.max_skew_ps() < 1.0);
        assert!(rep.sigma_skew_ps() < 1e-9);
    }

    #[test]
    fn narrow_rules_suffer_more_skew_variation() {
        // The central claim behind NDRs: under identical width variation the
        // default-rule tree shows a wider skew distribution than the 2W2S
        // tree.
        let (tree, tech) = setup(120);
        let mc = MonteCarlo::new(VariationModel::default(), 60, 9);
        let ndr = mc.run(
            &tree,
            &tech,
            &Assignment::uniform(&tree, tech.rules().most_conservative_id()),
        );
        let def = mc.run(
            &tree,
            &tech,
            &Assignment::uniform(&tree, tech.rules().default_id()),
        );
        // The default tree starts with nominal skew (the tree was balanced
        // for 2W2S), so compare distribution *spread*, not mean.
        assert!(
            def.sigma_skew_ps() > ndr.sigma_skew_ps(),
            "default σ {} should exceed NDR σ {}",
            def.sigma_skew_ps(),
            ndr.sigma_skew_ps()
        );
    }

    #[test]
    fn more_sigma_more_spread() {
        let (tree, tech) = setup(80);
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let small = MonteCarlo::new(VariationModel::default().with_sigma_w_um(0.001), 40, 5)
            .run(&tree, &tech, &asg);
        let large = MonteCarlo::new(VariationModel::default().with_sigma_w_um(0.007), 40, 5)
            .run(&tree, &tech, &asg);
        assert!(large.sigma_skew_ps() > small.sigma_skew_ps());
    }

    #[test]
    fn quantiles_ordered() {
        let (tree, tech) = setup(60);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let rep = MonteCarlo::new(VariationModel::default(), 40, 2).run(&tree, &tech, &asg);
        let q50 = rep.skew_quantile_ps(0.5);
        let q95 = rep.skew_quantile_ps(0.95);
        assert!(q50 <= q95);
        assert!(q95 <= rep.max_skew_ps() + 1e-12);
        assert!(rep.mean_latency_ps() > 0.0);
    }

    #[test]
    fn model_validation() {
        assert!(std::panic::catch_unwind(|| VariationModel::new(-1.0, 0.2, 0.2, 8)).is_err());
        assert!(std::panic::catch_unwind(|| VariationModel::new(0.003, 0.8, 0.8, 8)).is_err());
        assert!(std::panic::catch_unwind(|| VariationModel::new(0.003, 0.2, 0.2, 0)).is_err());
        let m = VariationModel::new(0.003, 0.25, 0.35, 4);
        assert!((m.frac_random() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let text = VariationModel::default().to_string();
        assert!(text.contains("σw"));
    }
}
