//! Shared optimization context.

use crate::{Constraints, CoreError, EvalMode, EvalSession, Outcome, TreeState};
use snr_cts::{Assignment, ClockTree, NodeId, NodeKind};
use snr_netlist::TimingArc;
use snr_power::{evaluate, PowerModel, PowerReport};
use snr_tech::{Corner, RuleId, Technology};
use snr_timing::{Analyzer, BatchAnalyzer, TimingReport, TimingSummary};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Everything an optimizer needs: the (immutable) tree, the technology, the
/// power operating point and the constraints — plus the tree's
/// [`TreeState`], which holds the analyzed conservative start, and a
/// shared, reusable timing analyzer so candidate evaluations allocate
/// nothing. A context is `Sync`: [`SmartNdr::optimize_all`] runs the
/// constructions of several contexts on several threads.
///
/// [`SmartNdr::optimize_all`]: crate::SmartNdr::optimize_all
///
/// # Examples
///
/// ```
/// use snr_netlist::BenchmarkSpec;
/// use snr_tech::Technology;
/// use snr_cts::{synthesize, CtsOptions};
/// use snr_power::PowerModel;
/// use snr_core::OptContext;
///
/// let design = BenchmarkSpec::new("demo", 32).seed(1).build()?;
/// let tech = Technology::n45();
/// let tree = synthesize(&design, &tech, &CtsOptions::default())?;
/// let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
/// let base = ctx.conservative_baseline();
/// assert!(base.meets_constraints());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct OptContext<'a> {
    tree: &'a ClockTree,
    tech: &'a Technology,
    power_model: PowerModel,
    start: Start<'a>,
    /// Set by [`OptContext::with_constraints`], or derived on first use.
    constraints: OnceLock<Constraints>,
    corners: Vec<Corner>,
    /// Local-skew windows between sink pairs, with each sink id resolved
    /// to its tree node.
    arcs: Vec<(TimingArc, NodeId, NodeId)>,
    /// Conservative-baseline skew at each corner, cached on first use.
    corner_base_skew: OnceLock<Vec<f64>>,
    /// Shared scratch analyzer.
    analyzer: Mutex<Analyzer>,
    /// Shared scratch for the multi-lane corner sweep: all corners of one
    /// candidate evaluate in a single tree traversal.
    batch: Mutex<BatchAnalyzer>,
    eval_mode: EvalMode,
    divergence_every: usize,
    divergence_epsilon_ps: f64,
    #[cfg(feature = "fault-inject")]
    exec_fault: Option<crate::ExecFault>,
    /// The assignment of every full analysis this context ran.
    #[cfg(test)]
    pub(crate) analyzed: Mutex<Vec<Assignment>>,
}

/// A context's [`TreeState`]: its own, or one it borrows. A plain enum, not
/// a cell, keeps `OptContext` covariant in its lifetime.
enum Start<'a> {
    Own(Box<TreeState<'a>>),
    Shared(&'a TreeState<'a>),
}

/// The default divergence-guard cadence: every `max(256, #stages)`
/// commits. A check is one O(n) analysis, and a run's commit count grows
/// with n as its stage count does, so runs of every size make a roughly
/// constant number of checks — a fixed cadence makes O(n / cadence) of them,
/// O(n² / cadence) work in all.
fn default_divergence_every(tree: &ClockTree) -> usize {
    let stages = 1 + tree
        .nodes()
        .iter()
        .filter(|n| n.kind().is_buffer() && n.parent().is_some())
        .count();
    stages.max(256)
}

impl<'a> OptContext<'a> {
    /// Creates a context with constraints derived from the conservative
    /// baseline (10 % slew margin, 30 ps skew budget). The context builds
    /// its own [`TreeState`], which analyzes the baseline; the constraints
    /// are derived from that analysis on first use, unless
    /// [`with_constraints`](Self::with_constraints) sets others first.
    pub fn new(tree: &'a ClockTree, tech: &'a Technology, power_model: PowerModel) -> Self {
        Self::over(Start::Own(Box::new(TreeState::new(tree, tech, power_model))))
    }

    /// Creates a context that borrows `start` instead of building its own,
    /// over the tree, technology and power model `start` was built for, so
    /// the two cannot disagree. Every context sharing one state analyzes
    /// the conservative start, and builds its engine, once between them.
    /// Otherwise as [`OptContext::new`].
    pub fn sharing(start: &'a TreeState<'a>) -> Self {
        Self::over(Start::Shared(start))
    }

    fn over(start: Start<'a>) -> Self {
        let state = match &start {
            Start::Own(state) => state,
            Start::Shared(state) => *state,
        };
        let (tree, tech, power_model) = (state.tree(), state.tech(), state.power_model());
        OptContext {
            tree,
            tech,
            power_model,
            start,
            constraints: OnceLock::new(),
            corners: Vec::new(),
            arcs: Vec::new(),
            corner_base_skew: OnceLock::new(),
            analyzer: Mutex::new(Analyzer::new()),
            batch: Mutex::new(BatchAnalyzer::new()),
            eval_mode: EvalMode::default(),
            divergence_every: default_divergence_every(tree),
            divergence_epsilon_ps: 1e-6,
            #[cfg(feature = "fault-inject")]
            exec_fault: None,
            #[cfg(test)]
            analyzed: Default::default(),
        }
    }

    /// The tree's state: the analyzed conservative start, its engine, the
    /// levels and the stage nets. Borrowed by [`OptContext::sharing`], or
    /// this context's own.
    pub fn start(&self) -> &TreeState<'a> {
        match &self.start {
            Start::Own(state) => state,
            Start::Shared(state) => state,
        }
    }

    /// Arms an execution fault (chaos testing): the fault fires at the
    /// commit it names, in every session. See [`crate::ExecFault`].
    #[cfg(feature = "fault-inject")]
    pub fn with_exec_fault(mut self, fault: crate::ExecFault) -> Self {
        self.exec_fault = Some(fault);
        self
    }

    /// The armed divergence fault, if any, for [`EvalSession::commit`].
    #[cfg(feature = "fault-inject")]
    pub(crate) fn divergence_fault(&self) -> Option<(usize, f64)> {
        self.exec_fault
            .map(|crate::ExecFault::Divergence { at_commit, delta_ps }| (at_commit, delta_ps))
    }

    /// Returns a copy whose [`EvalSession`]s use the given evaluation mode.
    /// The default is [`EvalMode::Incremental`]; [`EvalMode::FullReanalysis`]
    /// keeps the original analyze-everything path as a reference oracle.
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.eval_mode = mode;
        self
    }

    /// The evaluation mode sessions created by this context use.
    pub fn eval_mode(&self) -> EvalMode {
        self.eval_mode
    }

    /// Returns a copy with the incremental-engine divergence guard
    /// reconfigured. Every `every` commits an [`EvalSession`] in
    /// [`EvalMode::Incremental`] cross-checks its committed state against a
    /// full re-analysis; drift beyond `epsilon` (ps for slew/skew; for
    /// power, `epsilon` relative to the committed magnitude) records a
    /// [`crate::Degradation`] and permanently falls the
    /// session back to [`EvalMode::FullReanalysis`]. `every = 0` disables
    /// the guard. The default is every `max(256, #stages)` commits, where
    /// the stages are the root's and one per buffer below it, with epsilon
    /// `1e-6` — two orders of magnitude above the reassociation noise the
    /// equivalence suite bounds (≪ 1e-9 ps).
    pub fn with_divergence_guard(mut self, every: usize, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "divergence epsilon {epsilon} must be finite and non-negative"
        );
        self.divergence_every = every;
        self.divergence_epsilon_ps = epsilon;
        self
    }

    /// Whether `other` may join a group session this context leads: both
    /// over the same [`TreeState`] in [`EvalMode::Incremental`], at the same
    /// corners, with the same divergence guard and armed fault. Their
    /// limits, arcs, track, EM and noise checks may differ.
    pub(crate) fn groups_with(&self, other: &OptContext<'_>) -> bool {
        #[cfg(feature = "fault-inject")]
        if self.exec_fault != other.exec_fault {
            return false;
        }
        let state = |ctx: &OptContext<'_>| (ctx.start() as *const TreeState<'_>).cast::<()>();
        std::ptr::eq(state(self), state(other))
            && self.eval_mode == EvalMode::Incremental
            && other.eval_mode == EvalMode::Incremental
            && self.corners == other.corners
            && self.divergence_every == other.divergence_every
            && self.divergence_epsilon_ps.to_bits() == other.divergence_epsilon_ps.to_bits()
    }

    /// Commits between divergence cross-checks (0 = guard disabled).
    pub fn divergence_every(&self) -> usize {
        self.divergence_every
    }

    /// Divergence tolerance: ps for slew/skew, µW for power.
    pub fn divergence_epsilon_ps(&self) -> f64 {
        self.divergence_epsilon_ps
    }

    /// Opens a candidate-evaluation session starting from the conservative
    /// uniform assignment. Its engine is a copy of the [`TreeState`]'s.
    pub fn session(&self) -> EvalSession<'_, 'a> {
        EvalSession::conservative(self)
    }

    /// Opens a candidate-evaluation session starting from `assignment`.
    pub fn session_from(&self, assignment: Assignment) -> EvalSession<'_, 'a> {
        EvalSession::new(self, assignment, self.eval_mode)
    }

    /// Returns a copy that additionally enforces the constraints at the
    /// given process corners (interconnect R/C scaled globally), with the
    /// skew/slew limits rescaled per corner relative to what the
    /// conservative-uniform baseline achieves *at that corner*.
    ///
    /// Multi-corner checking makes every candidate evaluation
    /// `1 + corners.len()` analyses; optimizers need no changes — they all
    /// go through [`OptContext::meets`].
    pub fn with_corners(mut self, corners: Vec<Corner>) -> Self {
        self.corners = corners;
        self.corner_base_skew = OnceLock::new();
        self
    }

    /// Returns a copy with explicit constraints.
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = OnceLock::from(constraints);
        self
    }

    /// Returns a copy that additionally enforces local-skew windows: for
    /// each arc, `-hold <= arrival(to) - arrival(from) <= setup` — the
    /// useful-skew form of the skew constraint, tied to actual datapaths
    /// instead of the global extremes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownSink`] if an arc references a sink the
    /// tree does not contain.
    pub fn with_timing_arcs(mut self, arcs: Vec<TimingArc>) -> Result<Self, CoreError> {
        // Resolve each sink id to its tree node once.
        let mut sink_node = vec![None; arcs.iter().map(|a| a.from.0.max(a.to.0) + 1).max().unwrap_or(0)];
        for node in self.tree.nodes() {
            if let NodeKind::Sink { sink, .. } = node.kind() {
                if sink.0 < sink_node.len() {
                    sink_node[sink.0] = Some(node.id());
                }
            }
        }
        self.arcs = arcs
            .into_iter()
            .map(|a| {
                let from = sink_node[a.from.0].ok_or(CoreError::UnknownSink { arc: a })?;
                let to = sink_node[a.to.0].ok_or(CoreError::UnknownSink { arc: a })?;
                Ok((a, from, to))
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(self)
    }

    /// Timing arcs with sink ids resolved to tree nodes, for session-side
    /// feasibility checks.
    pub(crate) fn resolved_arcs(&self) -> &[(TimingArc, NodeId, NodeId)] {
        &self.arcs
    }

    /// The local-skew arcs enforced by this context.
    pub fn timing_arcs(&self) -> impl Iterator<Item = &TimingArc> + '_ {
        self.arcs.iter().map(|(a, _, _)| a)
    }

    /// The clock tree under optimization.
    pub fn tree(&self) -> &'a ClockTree {
        self.tree
    }

    /// The technology (rules, layers, buffers).
    pub fn tech(&self) -> &'a Technology {
        self.tech
    }

    /// The power operating point.
    pub fn power_model(&self) -> PowerModel {
        self.power_model
    }

    /// The constraints assignments must meet.
    pub fn constraints(&self) -> Constraints {
        *self.constraints.get_or_init(|| {
            let base = self.start().timing();
            Constraints::try_over_baseline(base.max_slew_ps(), base.skew_ps(), 1.10, 30.0)
                .unwrap_or_else(|e| panic!("{e}"))
        })
    }

    /// Runs timing analysis of `assignment` (reusing shared scratch
    /// buffers).
    pub fn analyze(&self, assignment: &Assignment) -> TimingReport {
        #[cfg(test)]
        lock(&self.analyzed).push(assignment.clone());
        lock(&self.analyzer).run(self.tree, self.tech, assignment)
    }

    /// Evaluates the power of `assignment`.
    pub fn power(&self, assignment: &Assignment) -> PowerReport {
        evaluate(self.tree, self.tech, assignment, &self.power_model)
    }

    /// The corners (beyond nominal) at which feasibility is enforced.
    pub fn corners(&self) -> &[Corner] {
        &self.corners
    }

    /// Whether `report` (a nominal analysis of `assignment`) plus the
    /// corner re-analyses satisfy the constraints — the single feasibility
    /// predicate every optimizer uses. [`EvalSession`]s feed the same two
    /// checks from their incremental engines' candidate state.
    pub fn meets(&self, assignment: &Assignment, report: &TimingReport) -> bool {
        self.meets_report(assignment, report)
            && (self.corners.is_empty() || {
                let mut batch = lock(&self.batch);
                self.meets_corners(batch.run_at_corners(self.tree, self.tech, assignment, &self.corners))
            })
    }

    /// [`meets`](Self::meets) on the conservative start, whose analysis and
    /// corner summaries the [`TreeState`] holds.
    pub(crate) fn start_meets(&self) -> bool {
        let start = self.start();
        self.meets_report(start.assignment(), start.timing())
            && (self.corners.is_empty() || self.meets_corners(&start.corner_summaries(&self.corners)))
    }

    /// The summaries of `assignment` at this context's corners, from the
    /// context's batch analyzer (empty without corners): what
    /// [`meets_corners`](Self::meets_corners) reads.
    pub(crate) fn corner_summaries(&self, assignment: &Assignment) -> Vec<TimingSummary> {
        if self.corners.is_empty() {
            return Vec::new();
        }
        lock(&self.batch).run_at_corners(self.tree, self.tech, assignment, &self.corners).to_vec()
    }

    /// [`meets`](Self::meets)'s nominal checks, on `report`, a nominal
    /// analysis of `assignment`.
    pub(crate) fn meets_report(&self, assignment: &Assignment, report: &TimingReport) -> bool {
        let arcs_met = || {
            self.arcs.iter().all(|(arc, from, to)| {
                arc.satisfied_by(report.arrival_ps(*from), report.arrival_ps(*to))
            })
        };
        self.meets_nominal(
            report.max_slew_ps(),
            report.skew_ps(),
            arcs_met,
            |e| assignment.rule(e),
            |e| report.stage_load_ff(e),
        )
    }

    /// Every nominal check, in order: slew and skew, the timing arcs
    /// (`arcs_met`, called only when slew and skew pass), the track budget,
    /// EM and noise. `rule_of` and `stage_load_ff` give each edge's rule and
    /// stage-local downstream load; edges are visited in `tree.edges()`
    /// order, so the track-cost sum is the same float whoever calls.
    pub(crate) fn meets_nominal(
        &self,
        max_slew_ps: f64,
        skew_ps: f64,
        arcs_met: impl FnOnce() -> bool,
        rule_of: impl Fn(NodeId) -> RuleId,
        stage_load_ff: impl Fn(NodeId) -> f64,
    ) -> bool {
        let c = self.constraints();
        if !(max_slew_ps <= c.slew_limit_ps() && skew_ps <= c.skew_limit_ps() && arcs_met()) {
            return false;
        }
        let tree = self.tree;
        let rules = self.tech.rules();
        let rule = |e| rules.get(rule_of(e)).expect("rule ids come from the technology");
        if let Some(budget) = c.track_budget_um() {
            let mut cost = 0.0;
            for e in tree.edges() {
                cost += rule(e).track_cost() * tree.node(e).edge_len_nm() as f64 / 1_000.0;
            }
            if cost > budget * (1.0 + 1e-12) {
                return false;
            }
        }
        // Zero-length edges carry no current density and no aggressor
        // charge.
        let wires = || tree.edges().filter(|&e| tree.node(e).edge_len_nm() > 0);
        if let Some(limit) = c.em_limit_ma_per_um() {
            // Effective RMS current through an edge: the stage-local
            // downstream switched capacitance it charges, at VDD and f.
            // fF · V · GHz = µA; /1000 = mA.
            let layer = self.tech.clock_layer();
            let vdd = self.tech.vdd_v();
            let f = self.power_model.freq_ghz();
            for e in wires() {
                let i_ma = stage_load_ff(e) * vdd * f / 1_000.0;
                let width_um = rule(e).width_mult() * layer.width_min_um();
                if i_ma > limit * width_um * (1.0 + 1e-12) {
                    return false;
                }
            }
        }
        if let Some(limit) = c.noise_limit_ff_per_um() {
            let layer = self.tech.clock_layer();
            if wires().any(|e| layer.unit_c_aggressor(rule(e)) > limit + 1e-12) {
                return false;
            }
        }
        true
    }

    /// The corner checks, from one summary per configured corner.
    ///
    /// Corner limits scale with the corner's own severity: the slew limit
    /// scales by the corner's R·C product (wire transitions stretch by that
    /// factor to first order) and the skew limit gains the baseline's own
    /// corner-induced skew (even a perfectly balanced-at-nominal tree
    /// de-balances when wire delays scale but buffer delays do not).
    // Inlined: every session probe calls it, and most contexts have no
    // corners.
    #[inline]
    pub(crate) fn meets_corners(&self, summaries: &[TimingSummary]) -> bool {
        if self.corners.is_empty() {
            return true;
        }
        let c = self.constraints();
        let base_skews = self.corner_base_skews();
        self.corners.iter().zip(summaries).zip(base_skews).all(|((corner, at), base_skew)| {
            let scale = corner.r_scale() * corner.c_scale();
            at.max_slew_ps <= c.slew_limit_ps() * scale.max(1.0)
                && at.skew_ps() <= c.skew_limit_ps() + base_skew
        })
    }

    /// Conservative-baseline skew at each corner — assignment-independent,
    /// read on first use from the [`TreeState`]'s corner summaries and
    /// cached.
    fn corner_base_skews(&self) -> &[f64] {
        self.corner_base_skew.get_or_init(|| {
            self.start().corner_summaries(&self.corners).iter().map(|s| s.skew_ps()).collect()
        })
    }

    /// Whether `assignment` meets the constraints (including any corners).
    pub fn feasible(&self, assignment: &Assignment) -> bool {
        let report = self.analyze(assignment);
        self.meets(assignment, &report)
    }

    /// The uniform assignment at the most conservative rule — the
    /// industrial starting point every optimizer may fall back to.
    pub fn conservative_assignment(&self) -> Assignment {
        Assignment::uniform(self.tree, self.tech.rules().most_conservative_id())
    }

    /// The uniform assignment at the default rule.
    pub fn default_assignment(&self) -> Assignment {
        Assignment::uniform(self.tree, self.tech.rules().default_id())
    }

    /// Packages `assignment` with its evaluation under this context.
    pub fn outcome(&self, name: &str, assignment: Assignment, elapsed: Duration) -> Outcome {
        let timing = self.analyze(&assignment);
        let power = self.power(&assignment);
        let meets = self.meets(&assignment, &timing);
        Outcome::new(name, assignment, power, timing, meets, elapsed)
    }

    /// The evaluated conservative-uniform baseline: the [`TreeState`]'s
    /// report and power, with this context's verdict.
    pub fn conservative_baseline(&self) -> Outcome {
        let start = self.start();
        let meets = self.start_meets();
        let (assignment, timing) = (start.assignment().clone(), start.timing().clone());
        Outcome::new("uniform-2w2s", assignment, *start.power(), timing, meets, Duration::ZERO)
    }

    /// The evaluated default-rule baseline (typically constraint-violating —
    /// that is the point of NDRs).
    pub fn default_baseline(&self) -> Outcome {
        self.outcome("uniform-1w1s", self.default_assignment(), Duration::ZERO)
    }
}

/// Locks one of a context's scratch analyzers. A panic while one was held
/// leaves only scratch behind, which every use overwrites.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::BenchmarkSpec;

    fn ctx_fixture() -> (ClockTree, Technology) {
        let design = BenchmarkSpec::new("t", 64).seed(7).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (tree, tech)
    }

    #[test]
    fn baselines_order_as_expected() {
        let (tree, tech) = ctx_fixture();
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let hi = ctx.conservative_baseline();
        let lo = ctx.default_baseline();
        assert!(hi.power().total_uw() > lo.power().total_uw());
        assert!(hi.meets_constraints());
    }

    #[test]
    fn feasible_matches_constraints() {
        let (tree, tech) = ctx_fixture();
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        assert!(ctx.feasible(&ctx.conservative_assignment()));
        let tight = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_constraints(Constraints::absolute(1.0, 0.001));
        assert!(!tight.feasible(&tight.conservative_assignment()));
    }

    #[test]
    fn corner_checks_tighten_feasibility() {
        use crate::{GreedyDowngrade, NdrOptimizer};
        use snr_tech::Corner;
        let (tree, tech) = ctx_fixture();
        let nominal = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let cornered = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_corners(vec![Corner::slow(), Corner::fast()]);
        // The conservative baseline passes both by construction of the
        // per-corner rescaled limits.
        assert!(cornered.feasible(&cornered.conservative_assignment()));
        // Corner-aware smart is feasible at corners and costs at least as
        // much power as nominal-only smart (a superset of constraints).
        let s_nom = GreedyDowngrade::default().optimize(&nominal);
        let s_cor = GreedyDowngrade::default().optimize(&cornered);
        assert!(s_cor.meets_constraints());
        assert!(
            s_cor.power().network_uw() >= s_nom.power().network_uw() - 1e-9,
            "corner closure cannot be free"
        );
    }

    #[test]
    fn timing_arcs_tighten_feasibility() {
        use crate::{GreedyDowngrade, NdrOptimizer};
        use snr_netlist::random_timing_arcs;
        let design = BenchmarkSpec::new("arcs", 100).seed(9).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();

        // Tight windows (setup 8-15 ps) bind harder than the 30 ps global
        // budget; the optimizer must keep paired sinks aligned.
        let arcs = random_timing_arcs(&design, 60, (8.0, 15.0), (8.0, 15.0), 4);
        let plain = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let arced = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_timing_arcs(arcs.clone())
            .expect("arcs come from the design");
        assert_eq!(arced.timing_arcs().count(), arcs.len());

        // The zero-skew conservative start satisfies every window.
        assert!(arced.feasible(&arced.conservative_assignment()));

        let s_plain = GreedyDowngrade::default().optimize(&plain);
        let s_arced = GreedyDowngrade::default().optimize(&arced);
        assert!(s_arced.meets_constraints());
        // Every window holds on the arced result.
        let rep = arced.analyze(s_arced.assignment());
        let sink_node: std::collections::HashMap<usize, snr_cts::NodeId> = tree
            .nodes()
            .iter()
            .filter_map(|n| match n.kind() {
                snr_cts::NodeKind::Sink { sink, .. } => Some((sink.0, n.id())),
                _ => None,
            })
            .collect();
        for a in &arcs {
            assert!(a.satisfied_by(
                rep.arrival_ps(sink_node[&a.from.0]),
                rep.arrival_ps(sink_node[&a.to.0])
            ));
        }
        // A superset of constraints cannot save more power.
        assert!(
            s_arced.power().network_uw() >= s_plain.power().network_uw() - 1e-9,
            "windows cannot be free"
        );
    }

    #[test]
    fn unknown_sink_arc_is_an_error() {
        use snr_netlist::{SinkId, TimingArc};
        let (tree, tech) = ctx_fixture();
        // The fixture has 64 sinks; SinkId(999) cannot resolve.
        let bad = TimingArc::new(SinkId(0), SinkId(999), 10.0, 10.0);
        let err = match OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_timing_arcs(vec![bad])
        {
            Ok(_) => panic!("unknown sink must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err, crate::CoreError::UnknownSink { arc: bad });
    }

    #[test]
    fn analyze_reuses_buffers_consistently() {
        let (tree, tech) = ctx_fixture();
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let a = ctx.analyze(&ctx.conservative_assignment());
        let b = ctx.analyze(&ctx.default_assignment());
        let a2 = ctx.analyze(&ctx.conservative_assignment());
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }
}
