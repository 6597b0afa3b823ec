//! The state every optimization over one tree shares.

use snr_cts::{Assignment, ClockTree, NodeId};
use snr_power::{evaluate, PowerModel, PowerReport};
use snr_tech::{Corner, Technology};
use snr_timing::{Analyzer, BatchAnalyzer, IncrementalAnalyzer, TimingReport, TimingSummary};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// What every optimization over one tree, technology and power model
/// shares, built once per tree: the conservative start (the uniform
/// most-conservative assignment) with its timing report and power, its
/// incremental engine, its summaries at each set of corners, the tree's
/// edges by depth and its stage nets.
///
/// [`TreeState::new`] analyzes the start once. The engine, the corner
/// summaries, the levels and the stage nets are built on first use, so
/// uniform and level runs, and sweeps replayed from a store, never build
/// them.
///
/// An [`OptContext`](crate::OptContext) builds its own
/// ([`OptContext::new`](crate::OptContext::new)) or borrows one a caller
/// built ([`OptContext::sharing`](crate::OptContext::sharing)), so
/// contexts with different constraints over one tree, such as the points
/// of a Pareto sweep, analyze the start once between them. The state is
/// `Sync`, so they may run on several threads.
///
/// # Examples
///
/// ```
/// use snr_netlist::BenchmarkSpec;
/// use snr_tech::Technology;
/// use snr_cts::{synthesize, CtsOptions};
/// use snr_power::PowerModel;
/// use snr_core::{Constraints, NdrOptimizer, OptContext, SmartNdr, TreeState};
///
/// let design = BenchmarkSpec::new("demo", 32).seed(1).build()?;
/// let tech = Technology::n45();
/// let tree = synthesize(&design, &tech, &CtsOptions::default())?;
/// let start = TreeState::new(&tree, &tech, PowerModel::new(1.0));
/// let (slew, skew) = (start.timing().max_slew_ps(), start.timing().skew_ps());
/// for budget_ps in [10.0, 30.0] {
///     let limits = Constraints::try_over_baseline(slew, skew, 1.1, budget_ps)?;
///     let ctx = OptContext::sharing(&start).with_constraints(limits);
///     assert!(SmartNdr::default().optimize(&ctx).meets_constraints());
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TreeState<'a> {
    tree: &'a ClockTree,
    tech: &'a Technology,
    power_model: PowerModel,
    assignment: Assignment,
    timing: TimingReport,
    power: PowerReport,
    engine: OnceLock<IncrementalAnalyzer>,
    corners: Mutex<Vec<CornerSummaries>>,
    levels: OnceLock<Vec<Vec<NodeId>>>,
    nets: OnceLock<StageNets>,
    #[cfg(test)]
    pub(crate) engine_builds: std::sync::atomic::AtomicUsize,
    /// Corner batches run on the start.
    #[cfg(test)]
    pub(crate) corner_batches: std::sync::atomic::AtomicUsize,
    /// Candidates the sessions over this state ran through their engines.
    #[cfg(test)]
    pub(crate) tries: std::sync::atomic::AtomicUsize,
}

/// A corner set asked for, with the start's summary at each corner.
type CornerSummaries = (Vec<Corner>, Arc<[TimingSummary]>);

/// The stage nets of a tree. A stage net is the wire from one buffer output
/// (or the root) to the next buffer inputs and sinks; its driver's depth is
/// the number of buffers above the driver.
#[derive(Debug)]
pub(crate) struct StageNets {
    /// Each net's edges, nets numbered as first met in id order.
    pub(crate) nets: Vec<Vec<NodeId>>,
    /// Per driver depth: the edges of that depth's nets, in net order.
    pub(crate) by_depth: Vec<Vec<NodeId>>,
}

impl<'a> TreeState<'a> {
    /// Analyzes the conservative start of `tree` and evaluates its power.
    pub fn new(tree: &'a ClockTree, tech: &'a Technology, power_model: PowerModel) -> Self {
        let assignment = Assignment::uniform(tree, tech.rules().most_conservative_id());
        let timing = Analyzer::new().run(tree, tech, &assignment);
        let power = evaluate(tree, tech, &assignment, &power_model);
        TreeState {
            tree,
            tech,
            power_model,
            assignment,
            timing,
            power,
            engine: OnceLock::new(),
            corners: Mutex::new(Vec::new()),
            levels: OnceLock::new(),
            nets: OnceLock::new(),
            #[cfg(test)]
            engine_builds: Default::default(),
            #[cfg(test)]
            corner_batches: Default::default(),
            #[cfg(test)]
            tries: Default::default(),
        }
    }

    /// The clock tree.
    pub fn tree(&self) -> &'a ClockTree {
        self.tree
    }

    /// The technology.
    pub fn tech(&self) -> &'a Technology {
        self.tech
    }

    /// The power operating point.
    pub fn power_model(&self) -> PowerModel {
        self.power_model
    }

    /// The conservative start: every edge on the most conservative rule.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The start's timing report.
    pub fn timing(&self) -> &TimingReport {
        &self.timing
    }

    /// The start's power.
    pub fn power(&self) -> &PowerReport {
        &self.power
    }

    /// The start's nominal incremental engine, built on first use.
    pub(crate) fn engine(&self) -> &IncrementalAnalyzer {
        self.engine.get_or_init(|| {
            #[cfg(test)]
            self.engine_builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            IncrementalAnalyzer::new(self.tree, self.tech, &self.assignment)
        })
    }

    /// The start's summary at each of `corners` (not empty), from one batch
    /// per corner set: the corner verdict on the start and the corner skew
    /// limits of every context over this state read it.
    pub(crate) fn corner_summaries(&self, corners: &[Corner]) -> Arc<[TimingSummary]> {
        let mut cache = self.corners.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, summaries)) = cache.iter().find(|(set, _)| set.as_slice() == corners) {
            return Arc::clone(summaries);
        }
        #[cfg(test)]
        self.corner_batches.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let summaries: Arc<[TimingSummary]> =
            BatchAnalyzer::new().run_at_corners(self.tree, self.tech, &self.assignment, corners).into();
        cache.push((corners.to_vec(), Arc::clone(&summaries)));
        summaries
    }

    /// Per depth: the edges whose child node lies at that depth, in id
    /// order. Built on first use.
    pub(crate) fn levels(&self) -> &[Vec<NodeId>] {
        self.levels.get_or_init(|| {
            let depths = self.tree.depths();
            let mut levels: Vec<Vec<NodeId>> = Vec::new();
            for e in self.tree.edges() {
                let d = depths[e.0];
                if levels.len() <= d {
                    levels.resize_with(d + 1, Vec::new);
                }
                levels[d].push(e);
            }
            levels
        })
    }

    /// The tree's stage nets, built on first use.
    pub(crate) fn stage_nets(&self) -> &StageNets {
        self.nets.get_or_init(|| {
            let tree = self.tree;
            // The edge above a node joins the net its parent drives (a
            // buffer or the root) or belongs to.
            let mut net_of: Vec<Option<usize>> = vec![None; tree.len()];
            let mut depth = vec![0usize; tree.len()];
            let mut nets: Vec<(usize, Vec<NodeId>)> = Vec::new();
            for v in tree.edges() {
                let p = tree.node(v).parent().expect("an edge has a parent");
                let net = *net_of[p.0].get_or_insert_with(|| {
                    nets.push((depth[p.0], Vec::new()));
                    nets.len() - 1
                });
                nets[net].1.push(v);
                if tree.node(v).kind().is_buffer() {
                    depth[v.0] = depth[p.0] + 1;
                } else {
                    (net_of[v.0], depth[v.0]) = (Some(net), depth[p.0]);
                }
            }
            let max_depth = nets.iter().map(|(d, _)| *d).max().unwrap_or(0);
            let mut by_depth = vec![Vec::new(); max_depth + 1];
            for (d, net) in &nets {
                by_depth[*d].extend_from_slice(net);
            }
            StageNets { nets: nets.into_iter().map(|(_, net)| net).collect(), by_depth }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraints, GreedyDowngrade, NdrOptimizer, OptContext, Outcome, Parallelism, SmartNdr};
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::{random_timing_arcs, BenchmarkSpec, Design};
    use std::sync::atomic::Ordering;

    fn fixture() -> (Design, ClockTree, Technology) {
        let design = BenchmarkSpec::new("start", 150).seed(3).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (design, tree, tech)
    }

    /// Everything of an outcome but its run time.
    fn bits(out: &Outcome) -> (Assignment, u64, u64, u64, bool, Vec<(&'static str, u64)>) {
        let iters = out.budget_reports().iter().map(|b| (b.phase, b.iterations_done)).collect();
        (
            out.assignment().clone(),
            out.power().network_uw().to_bits(),
            out.timing().skew_ps().to_bits(),
            out.timing().max_slew_ps().to_bits(),
            out.meets_constraints(),
            iters,
        )
    }

    /// `ctx` with ±`window` ps timing arcs on 75 sink pairs, if a window is
    /// given.
    fn windowed<'c>(ctx: OptContext<'c>, design: &Design, window: Option<f64>) -> OptContext<'c> {
        match window {
            Some(w) => ctx.with_timing_arcs(random_timing_arcs(design, 75, (w, w), (w, w), 77)).unwrap(),
            None => ctx,
        }
    }

    /// The limits of the 15 points of the default Pareto sweep (three slew
    /// margins, each under three skew budgets and two useful-skew windows)
    /// over one shared state.
    fn sweep<'s>(design: &Design, start: &'s TreeState<'s>) -> Vec<OptContext<'s>> {
        let base = start.timing();
        let axes = [(10.0, None), (30.0, None), (60.0, None), (150.0, Some(40.0)), (150.0, Some(15.0))];
        let mut ctxs = Vec::new();
        for margin in [1.05, 1.10, 1.25] {
            for (budget, window) in axes {
                let limits =
                    Constraints::try_over_baseline(base.max_slew_ps(), base.skew_ps(), margin, budget)
                        .unwrap();
                ctxs.push(windowed(OptContext::sharing(start).with_constraints(limits), design, window));
            }
        }
        ctxs
    }

    /// Every distinct assignment among `outs`.
    fn distinct(outs: &[Outcome]) -> Vec<&Assignment> {
        let mut seen: Vec<&Assignment> = Vec::new();
        for out in outs {
            if !seen.contains(&out.assignment()) {
                seen.push(out.assignment());
            }
        }
        seen
    }

    /// The 15 points of the default Pareto sweep (three slew margins, each
    /// under three skew budgets and two useful-skew windows) over one shared
    /// state: the state builds its engine once, each point runs at most two
    /// full analyses (the pick's; formerly four, with the start check and
    /// the outcome's), and each point's outcome is that of a context with a
    /// state of its own.
    #[test]
    fn a_sweep_over_one_state_builds_it_once_and_analyzes_twice_per_point() {
        let (design, tree, tech) = fixture();
        let power_model = PowerModel::new(design.freq_ghz());
        let start = TreeState::new(&tree, &tech, power_model);
        let base = start.timing();
        let axes = [(10.0, None), (30.0, None), (60.0, None), (150.0, Some(40.0)), (150.0, Some(15.0))];
        for margin in [1.05, 1.10, 1.25] {
            for (budget, window) in axes {
                let limits =
                    Constraints::try_over_baseline(base.max_slew_ps(), base.skew_ps(), margin, budget)
                        .unwrap();
                let shared =
                    windowed(OptContext::sharing(&start).with_constraints(limits), &design, window);
                let out = SmartNdr::default().optimize(&shared);
                let analyses = shared.analyzed.lock().unwrap().len();
                assert!(analyses <= 2, "{margin}/{budget}: {analyses} analyses");
                let own = OptContext::new(&tree, &tech, power_model).with_constraints(limits);
                let own = windowed(own, &design, window);
                assert_eq!(bits(&out), bits(&SmartNdr::default().optimize(&own)));
            }
        }
        assert_eq!(start.engine_builds.load(Ordering::Relaxed), 1, "one engine per sweep");
    }

    /// The sweep optimized in lockstep runs fewer engine tries than its
    /// points run alone together, analyzes each distinct result once, and
    /// gives every point its solo outcome.
    #[test]
    fn a_sweep_in_lockstep_tries_less_and_analyzes_each_result_once() {
        let (design, tree, tech) = fixture();
        let start = TreeState::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
        let ctxs = sweep(&design, &start);
        let solo: Vec<Outcome> = ctxs.iter().map(|ctx| SmartNdr::default().optimize(ctx)).collect();
        let solo_tries = start.tries.swap(0, Ordering::Relaxed);
        for ctx in &ctxs {
            ctx.analyzed.lock().unwrap().clear();
        }
        let together = SmartNdr::default().optimize_all(&ctxs, Parallelism::serial());
        let tries = start.tries.load(Ordering::Relaxed);
        assert!(2 * tries < solo_tries, "{tries} tries in lockstep, {solo_tries} alone");
        let analyzed: Vec<Assignment> =
            ctxs.iter().flat_map(|ctx| ctx.analyzed.lock().unwrap().clone()).collect();
        assert!(ctxs[1..].iter().all(|ctx| ctx.analyzed.lock().unwrap().is_empty()), "the leader's analyses");
        for asg in &analyzed {
            assert_eq!(analyzed.iter().filter(|a| *a == asg).count(), 1, "one analysis per result");
        }
        assert!(distinct(&together).len() <= analyzed.len(), "every result analyzed");
        for (out, alone) in together.iter().zip(&solo) {
            assert_eq!(bits(out), bits(alone));
        }
    }

    /// A sweep at the corners runs one corner batch on the conservative
    /// tree: every point's start verdict and corner skew limits read it.
    #[test]
    fn a_corner_sweep_runs_one_batch_on_the_start() {
        use snr_tech::Corner;
        let (design, tree, tech) = fixture();
        let start = TreeState::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
        let corners = vec![Corner::typical(), Corner::slow(), Corner::fast()];
        let ctxs: Vec<OptContext<'_>> =
            sweep(&design, &start).into_iter().map(|ctx| ctx.with_corners(corners.clone())).collect();
        for ctx in &ctxs {
            assert!(ctx.conservative_baseline().meets_constraints());
        }
        let outs = SmartNdr::default().optimize_all(&ctxs, Parallelism::serial());
        assert!(outs.iter().all(Outcome::meets_constraints));
        assert_eq!(start.corner_batches.load(Ordering::Relaxed), 1, "one batch per sweep");
    }

    /// A `run` request's steps analyze the conservative tree once, in its
    /// state: the limits, the baseline and `SmartNdr`'s start check read
    /// that analysis (formerly each analyzed the tree), and the optimizer's
    /// full analyses are the pick's, one per distinct result of the two
    /// constructions. Both end in the same assignment here, so there is one
    /// (formerly one per construction).
    #[test]
    fn a_run_analyzes_the_conservative_tree_once() {
        let (design, tree, tech) = fixture();
        let start = TreeState::new(&tree, &tech, PowerModel::new(design.freq_ghz()));
        let base = start.timing();
        let limits =
            Constraints::try_over_baseline(base.max_slew_ps(), base.skew_ps(), 1.1, 30.0).unwrap();
        let ctx = OptContext::sharing(&start).with_constraints(limits);
        let baseline = ctx.conservative_baseline();
        let out = SmartNdr::default().optimize(&ctx);
        assert!(baseline.meets_constraints() && out.meets_constraints());
        let analyzed = ctx.analyzed.lock().unwrap();
        assert_eq!(analyzed.len(), 1, "the pick's analysis");
        assert_eq!(&analyzed[0], &GreedyDowngrade::default().assign(&ctx), "the constructions agree");
        assert!(analyzed.iter().all(|asg| asg != start.assignment()), "none of the start");
        // The packaged baseline is what analyzing the start gives.
        let fresh = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()))
            .with_constraints(limits);
        let analyzed = fresh.outcome("uniform-2w2s", start.assignment().clone(), Default::default());
        assert_eq!(bits(&baseline), bits(&analyzed));
    }
}
