//! Typed candidate-evaluation sessions over an [`OptContext`].
//!
//! Optimizers used to probe candidates with the ad-hoc trio
//! `ctx.analyze` + `ctx.meets` + `ctx.power` — three full O(n) passes per
//! probe. An [`EvalSession`] replaces that with a stateful
//! `try_moves` / `commit` / `rollback` protocol backed by the incremental
//! timing engine: buffers partition the RC tree into stages, so flipping one
//! edge's rule re-solves only the stage containing it and re-times only the
//! stages downstream of it. Power deltas are closed-form (wire switching
//! power is linear in capacitance), so a probe near a leaf costs
//! O(stage size), not O(n).
//!
//! [`EvalMode::FullReanalysis`] keeps the original full-analysis path alive
//! behind the same API — it is the oracle the equivalence tests and the
//! `incremental_vs_full` benchmark compare against.
//!
//! Inside the crate a session may also judge its candidates for a *group*
//! of contexts over one tree state: a leader, whose verdicts the
//! construction follows, and members, each judging every try under its own
//! limits from the same engine run. A member that judges a try the other
//! way leaves as a [`Fork`], which a *replaying* session later re-runs from
//! the conservative start: it answers the group's verdicts up to the split
//! without the engine, then continues live from the state at the split
//! (see [`crate::SmartNdr::optimize_all`]).
//!
//! # Examples
//!
//! ```
//! use snr_netlist::BenchmarkSpec;
//! use snr_tech::Technology;
//! use snr_cts::{synthesize, CtsOptions};
//! use snr_power::PowerModel;
//! use snr_core::OptContext;
//!
//! let design = BenchmarkSpec::new("demo", 48).seed(5).build()?;
//! let tech = Technology::n45();
//! let tree = synthesize(&design, &tech, &CtsOptions::default())?;
//! let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
//!
//! let mut session = ctx.session(); // starts from the conservative baseline
//! let edge = tree.edges().next().unwrap();
//! let eval = session.try_edge(edge, tech.rules().default_id());
//! if eval.feasible && eval.power_delta_uw < 0.0 {
//!     session.commit();
//! } else {
//!     session.rollback();
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::{DegradationEvent, OptContext};
use snr_cts::{Assignment, NodeId};
use snr_netlist::TimingArc;
use snr_tech::{units, RuleId};
use snr_timing::{IncrementalAnalyzer, TimingReport, TimingSummary};
use std::ops::Range;

/// How an [`EvalSession`] evaluates candidate moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Stage-dirty incremental timing plus closed-form power deltas —
    /// the fast path.
    #[default]
    Incremental,
    /// Full re-analysis per probe through `ctx.analyze` / `ctx.meets` /
    /// `ctx.power` — the original path, kept as the test oracle.
    FullReanalysis,
}

/// The evaluation of one candidate move set, as returned by
/// [`EvalSession::try_moves`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEval {
    /// Network power change vs the session's committed state, µW
    /// (negative = the candidate saves power).
    pub power_delta_uw: f64,
    /// Max slew at any sink or buffer input under the candidate, ps.
    pub worst_slew_ps: f64,
    /// Global skew under the candidate, ps.
    pub skew_ps: f64,
    /// Whether the candidate meets every constraint the context enforces
    /// (slew/skew, timing arcs, track budget, EM, noise, corners) —
    /// equivalent to [`OptContext::meets`].
    pub feasible: bool,
}

/// A committed state's nominal constraint violation and its sources, as
/// returned by [`EvalSession::violation_sites`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ViolationSites {
    /// [`Constraints::violation_ps`](crate::Constraints::violation_ps):
    /// slew excess plus skew excess, ps.
    pub(crate) violation_ps: f64,
    /// Sinks and buffer inputs above the slew limit (empty when the worst
    /// slew meets it), in no particular order.
    pub(crate) slew_violators: Vec<NodeId>,
    /// When skew exceeds its limit, the latest-arriving sink — the last
    /// maximum in sink order, so the highest id wins ties.
    pub(crate) latest_sink: Option<NodeId>,
}

struct Pending {
    /// Deduplicated moves, last write per edge wins.
    moves: Vec<(NodeId, RuleId)>,
    eval: CandidateEval,
    network_uw: f64,
}

/// A recorded incremental-engine divergence: the cross-check found the
/// committed incremental state drifted from a full re-analysis beyond the
/// configured epsilon, and the session fell back to
/// [`EvalMode::FullReanalysis`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// Commit count at which the drift was detected.
    pub at_commit: usize,
    /// |incremental − oracle| worst slew, ps.
    pub slew_drift_ps: f64,
    /// |incremental − oracle| global skew, ps.
    pub skew_drift_ps: f64,
    /// |incremental − oracle| network power, µW.
    pub power_drift_uw: f64,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "incremental divergence at commit {}: slew drift {:.3e} ps, \
             skew drift {:.3e} ps, power drift {:.3e} uW; \
             falling back to full re-analysis",
            self.at_commit, self.slew_drift_ps, self.skew_drift_ps, self.power_drift_uw
        )
    }
}

/// A stateful candidate-evaluation session: holds a committed assignment and
/// evaluates candidate rule changes against it.
///
/// Protocol: [`try_edge`] / [`try_moves`] evaluates a candidate (implicitly
/// discarding any previous un-committed candidate), then either [`commit`]
/// makes it the new committed state or [`rollback`] discards it. The
/// committed state is always internally consistent; `commit` without a
/// pending candidate panics.
///
/// Built by [`OptContext::session`] / [`OptContext::session_from`]; the mode
/// comes from [`OptContext::with_eval_mode`]. A clone carries its own copy
/// of the committed state, the engines and the commit count, which is
/// cheaper than building them again for the same assignment. It copies no
/// pending candidate and no scratch: it starts with nothing pending.
///
/// [`try_edge`]: EvalSession::try_edge
/// [`try_moves`]: EvalSession::try_moves
/// [`commit`]: EvalSession::commit
/// [`rollback`]: EvalSession::rollback
pub struct EvalSession<'c, 'a> {
    ctx: &'c OptContext<'a>,
    mode: EvalMode,
    asg: Assignment,
    /// Present in [`EvalMode::Incremental`] only.
    engine: Option<IncrementalAnalyzer>,
    /// The context's timing arcs over `engine`'s slots; present in
    /// [`EvalMode::Incremental`] when the context has arcs.
    arc_index: Option<ArcIndex>,
    corner_engines: Vec<IncrementalAnalyzer>,
    committed_slew_ps: f64,
    committed_skew_ps: f64,
    committed_feasible: bool,
    committed_network_uw: f64,
    pending: Option<Pending>,
    /// Commits performed so far — drives the divergence-guard cadence.
    commits: usize,
    /// Every divergence the guard detected (normally empty).
    degradations: Vec<Degradation>,
    /// Recycled move buffer (avoids a `Vec` allocation per probe).
    scratch_moves: Vec<(NodeId, RuleId)>,
    /// Recycled corner-summary buffer, likewise.
    scratch_corners: Vec<TimingSummary>,
    /// Per node, the slot table of `dedup_moves`: all zero between calls,
    /// and sized on the first probe.
    move_slots: Vec<usize>,
    /// The group this session judges for, if it was built for one.
    group: Option<Box<Group<'c, 'a>>>,
    /// While replaying a fork: the verdicts to answer and the state to go
    /// live from.
    replay: Option<Box<Replay<'c, 'a>>>,
}

/// The contexts a group session judges every try for besides its leader,
/// and what its run leaves for [`crate::SmartNdr::optimize_all`].
struct Group<'c, 'a> {
    /// Members still following the leader's verdicts. Once none is left
    /// the session judges for its leader alone.
    members: Vec<Member<'c, 'a>>,
    /// The leader's verdict on every try so far, kept while members remain:
    /// the script of every fork.
    history: Vec<bool>,
    /// Whether the leader's start meets its constraints; every member's
    /// start gives the same verdict.
    start_feasible: bool,
    /// The members that left, one fork per split.
    forks: Vec<Fork<'c, 'a>>,
    /// Contexts dropped when the session recorded a divergence, its members
    /// and its forks' contexts: each reruns the construction alone.
    detached: Vec<&'c OptContext<'a>>,
}

/// One member of a group: its context and its timing arcs over the group's
/// engine, refreshed on every commit.
struct Member<'c, 'a> {
    ctx: &'c OptContext<'a>,
    arc_index: Option<ArcIndex>,
}

/// The members of a group that judged one try the other way: the session's
/// committed state before that try, led by the first of them, with the
/// others as its members.
pub(crate) struct Fork<'c, 'a> {
    snapshot: EvalSession<'c, 'a>,
    /// The group's verdicts before the split.
    script: Vec<bool>,
    /// The leaving members' verdict on the try at the split.
    verdict: bool,
    /// As [`Group::start_feasible`].
    start_feasible: bool,
}

impl<'c, 'a> Fork<'c, 'a> {
    /// The fork's contexts, its leader first.
    pub(crate) fn contexts(&self) -> impl Iterator<Item = &'c OptContext<'a>> + '_ {
        std::iter::once(self.snapshot.ctx).chain(self.snapshot.member_contexts())
    }
}

/// A replaying session's script and where it goes live.
struct Replay<'c, 'a> {
    fork: Fork<'c, 'a>,
    /// Tries answered so far.
    next: usize,
}

/// What a group session's run leaves behind besides its assignment.
pub(crate) struct GroupEnd<'c, 'a> {
    /// The members that followed the leader to the end.
    pub(crate) members: Vec<&'c OptContext<'a>>,
    /// The members that left, to replay.
    pub(crate) forks: Vec<Fork<'c, 'a>>,
    /// Contexts to rerun alone after a divergence.
    pub(crate) detached: Vec<&'c OptContext<'a>>,
}

impl Clone for EvalSession<'_, '_> {
    fn clone(&self) -> Self {
        EvalSession {
            ctx: self.ctx,
            mode: self.mode,
            asg: self.asg.clone(),
            engine: self.engine.clone(),
            arc_index: self.arc_index.clone(),
            corner_engines: self.corner_engines.clone(),
            committed_slew_ps: self.committed_slew_ps,
            committed_skew_ps: self.committed_skew_ps,
            committed_feasible: self.committed_feasible,
            committed_network_uw: self.committed_network_uw,
            pending: None,
            commits: self.commits,
            degradations: self.degradations.clone(),
            scratch_moves: Vec::new(),
            scratch_corners: Vec::new(),
            move_slots: Vec::new(),
            group: None,
            replay: None,
        }
    }
}

impl<'c, 'a> EvalSession<'c, 'a> {
    pub(crate) fn new(ctx: &'c OptContext<'a>, asg: Assignment, mode: EvalMode) -> Self {
        let network_uw = ctx.power(&asg).network_uw();
        match mode {
            EvalMode::FullReanalysis => {
                let report = ctx.analyze(&asg);
                let feasible = ctx.meets(&asg, &report);
                Self::full(ctx, asg, &report, feasible, network_uw)
            }
            EvalMode::Incremental => {
                let engine = IncrementalAnalyzer::new(ctx.tree(), ctx.tech(), &asg);
                Self::incremental(ctx, asg, engine, network_uw)
            }
        }
    }

    /// A session at the conservative start, from `ctx`'s [`TreeState`]:
    /// its report and power are read, and its engine is cloned.
    ///
    /// [`TreeState`]: crate::TreeState
    pub(crate) fn conservative(ctx: &'c OptContext<'a>) -> Self {
        let start = ctx.start();
        let (asg, network_uw) = (start.assignment().clone(), start.power().network_uw());
        match ctx.eval_mode() {
            EvalMode::FullReanalysis => {
                Self::full(ctx, asg, start.timing(), ctx.start_meets(), network_uw)
            }
            EvalMode::Incremental => Self::incremental(ctx, asg, start.engine().clone(), network_uw),
        }
    }

    /// A session at the conservative start that judges every try for
    /// `leader` and for each of `members`, which must be
    /// [`compatible`](OptContext::groups_with) with it. Members whose start
    /// verdict differs from the leader's are detached at once.
    pub(crate) fn grouped(leader: &'c OptContext<'a>, members: &[&'c OptContext<'a>]) -> Self {
        let mut session = Self::conservative(leader);
        if members.is_empty() {
            return session;
        }
        let engine = session.engine.as_ref().expect("a group session is incremental");
        let corners: Vec<TimingSummary> = session.corner_engines.iter().map(|e| e.summary()).collect();
        let mut group = Group {
            members: Vec::with_capacity(members.len()),
            history: Vec::new(),
            start_feasible: session.committed_feasible,
            forks: Vec::new(),
            detached: Vec::new(),
        };
        for &ctx in members {
            debug_assert!(leader.groups_with(ctx), "members agree with the leader");
            let member = Member { ctx, arc_index: ArcIndex::of(engine, ctx) };
            if member.judge(engine, engine.summary(), &corners) == session.committed_feasible {
                group.members.push(member);
            } else {
                group.detached.push(ctx);
            }
        }
        session.group = Some(Box::new(group));
        session
    }

    /// A session that re-runs the construction `fork` left from the
    /// conservative start: it answers the fork's script without the engine,
    /// then takes the fork's state at the split, runs that try and goes on
    /// live with the fork's contexts.
    pub(crate) fn replay(fork: Fork<'c, 'a>) -> Self {
        let ctx = fork.snapshot.ctx;
        let start = ctx.start();
        EvalSession {
            ctx,
            mode: EvalMode::Incremental,
            asg: start.assignment().clone(),
            engine: None,
            arc_index: None,
            corner_engines: Vec::new(),
            committed_slew_ps: f64::NAN,
            committed_skew_ps: f64::NAN,
            committed_feasible: fork.start_feasible,
            committed_network_uw: f64::NAN,
            pending: None,
            commits: 0,
            degradations: Vec::new(),
            scratch_moves: Vec::new(),
            scratch_corners: Vec::new(),
            move_slots: Vec::new(),
            group: None,
            replay: Some(Box::new(Replay { fork, next: 0 })),
        }
    }

    /// The context whose verdicts this session follows.
    pub(crate) fn leader(&self) -> &'c OptContext<'a> {
        self.ctx
    }

    /// The contexts of the group's members, if any.
    fn member_contexts(&self) -> impl Iterator<Item = &'c OptContext<'a>> + '_ {
        self.group.iter().flat_map(|group| group.members.iter().map(|m| m.ctx))
    }

    /// Consumes the session: its committed assignment, and what its run
    /// leaves for the members of its group. A session still replaying when
    /// its run ended (the budget cut it before the split) leaves its fork's
    /// members with the leader, at the state the cut left.
    pub(crate) fn finish(mut self) -> (Assignment, GroupEnd<'c, 'a>) {
        let mut end = GroupEnd { members: Vec::new(), forks: Vec::new(), detached: Vec::new() };
        if let Some(replay) = self.replay.take() {
            end.members.extend(replay.fork.snapshot.member_contexts());
        }
        if let Some(group) = self.group.take() {
            let Group { members, forks, detached, .. } = *group;
            end.members.extend(members.into_iter().map(|m| m.ctx));
            end.forks = forks;
            end.detached = detached;
        }
        (self.asg, end)
    }

    /// A [`EvalMode::FullReanalysis`] session at `asg`, whose analysis is
    /// `report`, verdict `feasible` and network power `network_uw`.
    fn full(
        ctx: &'c OptContext<'a>,
        asg: Assignment,
        report: &TimingReport,
        feasible: bool,
        network_uw: f64,
    ) -> Self {
        EvalSession {
            ctx,
            mode: EvalMode::FullReanalysis,
            asg,
            engine: None,
            arc_index: None,
            corner_engines: Vec::new(),
            committed_slew_ps: report.max_slew_ps(),
            committed_skew_ps: report.skew_ps(),
            committed_feasible: feasible,
            committed_network_uw: network_uw,
            pending: None,
            commits: 0,
            degradations: Vec::new(),
            scratch_moves: Vec::new(),
            scratch_corners: Vec::new(),
            move_slots: Vec::new(),
            group: None,
            replay: None,
        }
    }

    /// An [`EvalMode::Incremental`] session at `asg` over the nominal
    /// `engine` built for it, whose network power is `network_uw`.
    fn incremental(
        ctx: &'c OptContext<'a>,
        asg: Assignment,
        engine: IncrementalAnalyzer,
        network_uw: f64,
    ) -> Self {
        let tree = ctx.tree();
        let tech = ctx.tech();
        let arc_index = ArcIndex::of(&engine, ctx);
        let corner_engines: Vec<IncrementalAnalyzer> = ctx
            .corners()
            .iter()
            .map(|c| IncrementalAnalyzer::with_scales(tree, tech, &asg, c.r_scale(), c.c_scale()))
            .collect();
        let summary = engine.summary();
        let corner_summaries: Vec<TimingSummary> =
            corner_engines.iter().map(|e| e.summary()).collect();
        let mut session = EvalSession {
            ctx,
            mode: EvalMode::Incremental,
            asg,
            engine: Some(engine),
            arc_index,
            corner_engines,
            committed_slew_ps: summary.max_slew_ps,
            committed_skew_ps: summary.skew_ps(),
            committed_feasible: false,
            committed_network_uw: network_uw,
            pending: None,
            commits: 0,
            degradations: Vec::new(),
            scratch_moves: Vec::new(),
            scratch_corners: Vec::new(),
            move_slots: Vec::new(),
            group: None,
            replay: None,
        };
        session.committed_feasible = session.incremental_feasible(summary, &corner_summaries);
        session
    }

    /// Evaluates changing one edge's rule. Equivalent to
    /// `try_moves(&[(edge, rule)])`.
    pub fn try_edge(&mut self, edge: NodeId, rule: RuleId) -> CandidateEval {
        self.try_moves(&[(edge, rule)])
    }

    /// Evaluates applying `moves` (edge → rule) on top of the committed
    /// state. A previous un-committed candidate is discarded first; if the
    /// same edge appears more than once the last write wins.
    ///
    /// # Panics
    ///
    /// Panics if a move targets the root (which has no edge).
    pub fn try_moves(&mut self, moves: &[(NodeId, RuleId)]) -> CandidateEval {
        if self.pending.is_some() {
            self.rollback();
        }
        let mut dedup = std::mem::take(&mut self.scratch_moves);
        dedup.clear();
        self.move_slots.resize(self.ctx.tree().len(), 0);
        dedup_moves(moves, &mut self.move_slots, &mut dedup);
        let mut split = None;
        if self.replay.is_some() {
            match self.scripted() {
                Ok(verdict) => {
                    let eval = CandidateEval {
                        power_delta_uw: f64::NAN,
                        worst_slew_ps: f64::NAN,
                        skew_ps: f64::NAN,
                        feasible: verdict,
                    };
                    self.pending = Some(Pending { moves: dedup, eval, network_uw: f64::NAN });
                    return eval;
                }
                Err(verdict) => split = Some(verdict),
            }
        }
        let (eval, network_uw) = match self.mode {
            EvalMode::Incremental => self.try_incremental(&dedup),
            EvalMode::FullReanalysis => self.try_full(&dedup),
        };
        debug_assert!(split.is_none_or(|v| v == eval.feasible), "the split's verdict");
        self.pending = Some(Pending {
            moves: dedup,
            eval,
            network_uw,
        });
        eval
    }

    /// The script's verdict on the next try of a replaying session, or at
    /// the split, where the session takes the fork's state and runs the try
    /// itself, the verdict that try must give.
    fn scripted(&mut self) -> Result<bool, bool> {
        let replay = self.replay.as_mut().expect("a replaying session");
        if let Some(&verdict) = replay.fork.script.get(replay.next) {
            replay.next += 1;
            return Ok(verdict);
        }
        let Replay { fork, .. } = *self.replay.take().expect("a replaying session");
        let Fork { mut snapshot, script, verdict, .. } = fork;
        debug_assert_eq!(snapshot.commits, self.commits, "the script reached the split");
        debug_assert!(snapshot.asg == self.asg, "the script reached the split's state");
        if let Some(group) = snapshot.group.as_deref_mut() {
            group.history = script;
        }
        // The try at the split goes on with the buffers of this session.
        snapshot.scratch_moves = std::mem::take(&mut self.scratch_moves);
        snapshot.move_slots = std::mem::take(&mut self.move_slots);
        *self = snapshot;
        Err(verdict)
    }

    fn try_incremental(&mut self, moves: &[(NodeId, RuleId)]) -> (CandidateEval, f64) {
        #[cfg(test)]
        self.ctx.start().tries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tree = self.ctx.tree();
        let tech = self.ctx.tech();
        let summary = self
            .engine
            .as_mut()
            .expect("incremental mode has an engine")
            .try_moves(tree, tech, moves);
        let mut corner_summaries = std::mem::take(&mut self.scratch_corners);
        corner_summaries.clear();
        corner_summaries.extend(
            self.corner_engines
                .iter_mut()
                .map(|e| e.try_moves(tree, tech, moves)),
        );
        let power_delta_uw = closed_form_power_delta_uw(self.ctx, &self.asg, moves);
        let feasible = self.incremental_feasible(summary, &corner_summaries);
        if self.group.as_ref().is_some_and(|group| !group.members.is_empty()) {
            self.judge_members(feasible, summary, &corner_summaries);
        }
        self.scratch_corners = corner_summaries;
        let eval = CandidateEval {
            power_delta_uw,
            worst_slew_ps: summary.max_slew_ps,
            skew_ps: summary.skew_ps(),
            feasible,
        };
        (eval, self.committed_network_uw + power_delta_uw)
    }

    fn try_full(&self, moves: &[(NodeId, RuleId)]) -> (CandidateEval, f64) {
        let mut candidate = self.asg.clone();
        for &(edge, rule) in moves {
            candidate.set(edge, rule);
        }
        let report = self.ctx.analyze(&candidate);
        let feasible = self.ctx.meets(&candidate, &report);
        let network_uw = self.ctx.power(&candidate).network_uw();
        let eval = CandidateEval {
            power_delta_uw: network_uw - self.committed_network_uw,
            worst_slew_ps: report.max_slew_ps(),
            skew_ps: report.skew_ps(),
            feasible,
        };
        (eval, network_uw)
    }

    /// [`OptContext::meets`]'s checks, fed from the candidate state of the
    /// incremental engines. Timing arcs are re-checked only inside the
    /// probe's cone ([`ArcIndex`]); the verdict is the one a scan of every
    /// arc gives.
    fn incremental_feasible(
        &self,
        nominal: TimingSummary,
        corner_summaries: &[TimingSummary],
    ) -> bool {
        let engine = self
            .engine
            .as_ref()
            .expect("incremental mode has an engine");
        judge(self.ctx, self.arc_index.as_ref(), engine, nominal, corner_summaries)
    }

    /// Judges the pending try for every member of the group, whose leader
    /// gave `verdict`. The members that judge it the other way leave as one
    /// fork, holding the committed state before the try. The try's verdict
    /// joins the history while members remain.
    fn judge_members(&mut self, verdict: bool, nominal: TimingSummary, corners: &[TimingSummary]) {
        let engine = self.engine.as_ref().expect("incremental mode has an engine");
        let group = self.group.as_deref().expect("a group session");
        if group.members.iter().any(|m| m.judge(engine, nominal, corners) != verdict) {
            let mut group = self.group.take().expect("a group session");
            let (stay, leave): (Vec<_>, Vec<_>) = std::mem::take(&mut group.members)
                .into_iter()
                .partition(|m| m.judge(engine, nominal, corners) == verdict);
            group.members = stay;
            let mut leave = leave.into_iter();
            let first = leave.next().expect("a member judged the other way");
            let mut snapshot = self.clone();
            snapshot.ctx = first.ctx;
            snapshot.arc_index = first.arc_index;
            let rest: Vec<Member<'c, 'a>> = leave.collect();
            if !rest.is_empty() {
                snapshot.group = Some(Box::new(Group {
                    members: rest,
                    history: Vec::new(),
                    start_feasible: group.start_feasible,
                    forks: Vec::new(),
                    detached: Vec::new(),
                }));
            }
            group.forks.push(Fork {
                snapshot,
                script: group.history.clone(),
                verdict: !verdict,
                start_feasible: group.start_feasible,
            });
            self.group = Some(group);
        }
        let group = self.group.as_deref_mut().expect("a group session");
        if group.members.is_empty() {
            group.history = Vec::new();
        } else {
            group.history.push(verdict);
        }
    }

    /// The nominal violation ([`Constraints::violation_ps_of`]) of
    /// changing `edge` to `rule`, bit-equal to that of
    /// `try_edge(edge, rule)`'s slew and skew, leaving nothing pending —
    /// all an upgrade-repair probe reads. In [`EvalMode::Incremental`] only
    /// the nominal engine answers, through its probe memo
    /// ([`IncrementalAnalyzer::probe_edge`]): no corner engine is re-timed
    /// and no feasibility scan runs.
    ///
    /// [`Constraints::violation_ps_of`]: crate::Constraints::violation_ps_of
    pub(crate) fn probe_violation_ps(&mut self, edge: NodeId, rule: RuleId) -> f64 {
        if self.pending.is_some() {
            self.rollback();
        }
        let constraints = self.ctx.constraints();
        match self.engine.as_mut() {
            Some(engine) => {
                let s = engine.probe_edge(self.ctx.tree(), self.ctx.tech(), edge, rule);
                constraints.violation_ps_of(s.max_slew_ps, s.skew_ps())
            }
            None => {
                let eval = self.try_edge(edge, rule);
                self.rollback();
                constraints.violation_ps_of(eval.worst_slew_ps, eval.skew_ps)
            }
        }
    }

    /// Makes the pending candidate the committed state.
    ///
    /// # Panics
    ///
    /// Panics if there is no pending candidate.
    pub fn commit(&mut self) {
        let pending = self.pending.take().expect("no pending candidate to commit");
        for &(edge, rule) in &pending.moves {
            self.asg.set(edge, rule);
        }
        self.scratch_moves = pending.moves;
        if let Some(engine) = self.engine.as_mut() {
            let cone = engine.pending_cone();
            engine.commit();
            if let Some(index) = self.arc_index.as_mut() {
                index.refresh(engine, self.ctx.resolved_arcs(), cone.clone());
            }
            if let Some(group) = self.group.as_deref_mut() {
                for member in &mut group.members {
                    if let Some(index) = member.arc_index.as_mut() {
                        index.refresh(engine, member.ctx.resolved_arcs(), cone.clone());
                    }
                }
            }
        }
        for engine in &mut self.corner_engines {
            engine.commit();
        }
        self.committed_slew_ps = pending.eval.worst_slew_ps;
        self.committed_skew_ps = pending.eval.skew_ps;
        self.committed_feasible = pending.eval.feasible;
        self.committed_network_uw = pending.network_uw;
        self.commits += 1;
        if self.replay.is_some() {
            // The run the script comes from checked this commit.
            return;
        }
        #[cfg(feature = "fault-inject")]
        self.inject_divergence();
        self.check_divergence();
    }

    /// Lands an armed [`crate::ExecFault::Divergence`] on the first guard
    /// commit at or after its `at_commit`: the nominal engine's committed
    /// state drifts by `delta_ps`, and the committed scalars are re-read
    /// from it, so the check that follows compares drifted numbers. A
    /// drift injected between checks could be re-solved away by a later
    /// commit before any check saw it.
    #[cfg(feature = "fault-inject")]
    fn inject_divergence(&mut self) {
        let Some((at_commit, delta_ps)) = self.ctx.divergence_fault() else { return };
        let every = self.ctx.divergence_every();
        if every == 0 || self.commits != at_commit.div_ceil(every) * every {
            return;
        }
        if let Some(engine) = self.engine.as_mut() {
            engine.debug_perturb(delta_ps);
            let drifted = engine.summary();
            self.committed_slew_ps = drifted.max_slew_ps;
            self.committed_skew_ps = drifted.skew_ps();
        }
    }

    /// The divergence guard: every `ctx.divergence_every()` commits,
    /// cross-checks the committed incremental scalars against a full
    /// re-analysis. Drift beyond `ctx.divergence_epsilon_ps()` means the
    /// incremental engine's state no longer tracks the tree (a bug, or
    /// accumulated floating-point corruption) — rather than keep optimizing
    /// against wrong numbers, the session records a [`Degradation`], drops
    /// the engines and degrades permanently to [`EvalMode::FullReanalysis`].
    /// The run continues correct, just slower.
    fn check_divergence(&mut self) {
        if self.mode != EvalMode::Incremental {
            return;
        }
        let every = self.ctx.divergence_every();
        if every == 0 || !self.commits.is_multiple_of(every) {
            return;
        }
        let report = self.ctx.analyze(&self.asg);
        let network_uw = self.ctx.power(&self.asg).network_uw();
        let slew_drift_ps = (self.committed_slew_ps - report.max_slew_ps()).abs();
        let skew_drift_ps = (self.committed_skew_ps - report.skew_ps()).abs();
        let power_drift_uw = (self.committed_network_uw - network_uw).abs();
        let eps = self.ctx.divergence_epsilon_ps();
        // Power sums scale with design size, so its tolerance is relative to
        // the committed magnitude; slew/skew stay absolute in ps.
        let power_eps = eps * network_uw.abs().max(1.0);
        if slew_drift_ps <= eps && skew_drift_ps <= eps && power_drift_uw <= power_eps {
            return;
        }
        self.degradations.push(Degradation {
            at_commit: self.commits,
            slew_drift_ps,
            skew_drift_ps,
            power_drift_uw,
        });
        // The leader's run goes on as its own run would; everyone else in
        // the group reruns alone, so each reports its own degradations.
        if let Some(group) = self.group.as_deref_mut() {
            let members = std::mem::take(&mut group.members).into_iter().map(|m| m.ctx);
            let forks = std::mem::take(&mut group.forks);
            let forked: Vec<&'c OptContext<'a>> = forks.iter().flat_map(Fork::contexts).collect();
            group.detached.extend(members.chain(forked));
            group.history = Vec::new();
        }
        self.mode = EvalMode::FullReanalysis;
        self.engine = None;
        self.arc_index = None;
        self.corner_engines.clear();
        // Re-seed the committed scalars from the oracle so everything the
        // session reports from here on is trustworthy.
        self.committed_slew_ps = report.max_slew_ps();
        self.committed_skew_ps = report.skew_ps();
        self.committed_feasible = self.ctx.meets(&self.asg, &report);
        self.committed_network_uw = network_uw;
    }

    /// Replaces the engines of a session whose guard tripped with fresh ones
    /// for its committed assignment: a fresh session, with no degradations,
    /// that keeps this session's group.
    pub(crate) fn restart(&mut self) {
        let group = self.group.take();
        let asg = std::mem::replace(&mut self.asg, Assignment::uniform(self.ctx.tree(), RuleId(0)));
        *self = EvalSession::new(self.ctx, asg, self.ctx.eval_mode());
        self.group = group;
    }

    /// Divergences the guard detected so far (normally empty). Non-empty
    /// means the session degraded to [`EvalMode::FullReanalysis`] mid-run;
    /// callers may surface these as diagnostics.
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }

    /// [`degradations`](Self::degradations) as the ladder rungs an
    /// optimizer's supervision record reports.
    pub(crate) fn degradation_events(&self) -> Vec<DegradationEvent> {
        self.degradations.iter().copied().map(DegradationEvent::IncrementalToFull).collect()
    }

    /// Test-only corruption hook: skews the nominal incremental engine's
    /// committed state by `delta_ps` so the divergence guard has something
    /// real to catch. No-op in [`EvalMode::FullReanalysis`].
    #[doc(hidden)]
    pub fn debug_corrupt_incremental(&mut self, delta_ps: f64) {
        if let Some(engine) = self.engine.as_mut() {
            engine.debug_perturb(delta_ps);
        }
    }

    /// Discards the pending candidate (no-op when there is none).
    pub fn rollback(&mut self) {
        if let Some(pending) = self.pending.take() {
            self.scratch_moves = pending.moves;
        }
        if let Some(engine) = self.engine.as_mut() {
            engine.rollback();
        }
        for engine in &mut self.corner_engines {
            engine.rollback();
        }
    }

    /// The committed state expressed as a [`CandidateEval`] (zero power
    /// delta by definition).
    pub fn committed_eval(&self) -> CandidateEval {
        CandidateEval {
            power_delta_uw: 0.0,
            worst_slew_ps: self.committed_slew_ps,
            skew_ps: self.committed_skew_ps,
            feasible: self.committed_feasible,
        }
    }

    /// Whether the committed state meets every constraint.
    pub fn feasible(&self) -> bool {
        self.committed_feasible
    }

    /// Network power of the committed state, µW.
    pub fn network_uw(&self) -> f64 {
        self.committed_network_uw
    }

    /// The rule committed on `edge`.
    pub fn rule(&self, edge: NodeId) -> RuleId {
        self.asg.rule(edge)
    }

    /// A full timing report of the committed state (O(n); used for
    /// sensitivity scans, not per-candidate checks).
    pub fn report(&self) -> TimingReport {
        match &self.engine {
            Some(engine) => engine.report(self.ctx.tree()),
            None => self.ctx.analyze(&self.asg),
        }
    }

    /// The committed state's nominal slew/skew violation and where it
    /// comes from — what a repair step needs, without a full report in
    /// [`EvalMode::Incremental`]: the engine visits only stages whose worst
    /// slew exceeds the limit, and only the stages holding the latest
    /// arrival.
    pub(crate) fn violation_sites(&self) -> ViolationSites {
        let tree = self.ctx.tree();
        let constraints = self.ctx.constraints();
        let slew_limit = constraints.slew_limit_ps();
        let mut sites = ViolationSites {
            violation_ps: 0.0,
            slew_violators: Vec::new(),
            latest_sink: None,
        };
        match &self.engine {
            Some(engine) => {
                let s = engine.summary();
                sites.violation_ps = constraints.violation_ps_of(s.max_slew_ps, s.skew_ps());
                if s.max_slew_ps > slew_limit {
                    sites.slew_violators = engine.slew_violators(tree, slew_limit);
                }
                if s.skew_ps() > constraints.skew_limit_ps() {
                    sites.latest_sink = engine.latest_sink(tree);
                }
            }
            None => {
                let report = self.ctx.analyze(&self.asg);
                sites.violation_ps = constraints.violation_ps(&report);
                if report.max_slew_ps() > slew_limit {
                    sites.slew_violators = tree
                        .nodes()
                        .iter()
                        .filter(|n| (n.kind().is_sink() || n.kind().is_buffer()) && n.parent().is_some())
                        .map(|n| n.id())
                        .filter(|&v| report.slew_ps(v) > slew_limit)
                        .collect();
                }
                if report.skew_ps() > constraints.skew_limit_ps() {
                    sites.latest_sink = tree.sink_nodes().into_iter().max_by(|a, b| {
                        report
                            .arrival_ps(*a)
                            .partial_cmp(&report.arrival_ps(*b))
                            .expect("arrivals are finite")
                    });
                }
            }
        }
        sites
    }

    /// The committed assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.asg
    }

    /// Consumes the session, returning the committed assignment.
    pub fn into_assignment(self) -> Assignment {
        self.asg
    }

    /// The evaluation mode this session runs in.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }
}

/// Timing arcs indexed by the arrival slot of each endpoint
/// ([`IncrementalAnalyzer::arrival_slot`]), with every arc's verdict under
/// the committed state. A probe moves arrivals only inside its
/// [`pending_cone`](IncrementalAnalyzer::pending_cone), a contiguous slot
/// range, so the arcs it can flip are one contiguous run of `entries`.
#[derive(Clone)]
struct ArcIndex {
    /// The entries of slot `s` are `entries[start[s]..start[s + 1]]`.
    start: Vec<u32>,
    /// `2 * arc` under the arc's from-slot, and `2 * arc + 1` under its
    /// to-slot when that slot differs.
    entries: Vec<u32>,
    /// Per arc: the slot of its from-endpoint.
    from_slot: Vec<u32>,
    /// Per arc: whether the committed state satisfies it.
    ok: Vec<bool>,
    /// Committed arcs that fail: upgrade-repair commits infeasible states,
    /// so a probe must also know about failures it does not re-check.
    violated: usize,
}

impl<'c, 'a> Member<'c, 'a> {
    /// This member's verdict on the engine's pending try (or its committed
    /// state, with nothing pending).
    fn judge(&self, engine: &IncrementalAnalyzer, nominal: TimingSummary, corners: &[TimingSummary]) -> bool {
        judge(self.ctx, self.arc_index.as_ref(), engine, nominal, corners)
    }
}

/// `ctx`'s verdict on `engine`'s pending try, whose summaries are `nominal`
/// and `corners`, with `arc_index` over `ctx`'s arcs: [`OptContext::meets`]'s
/// checks.
fn judge(
    ctx: &OptContext<'_>,
    arc_index: Option<&ArcIndex>,
    engine: &IncrementalAnalyzer,
    nominal: TimingSummary,
    corners: &[TimingSummary],
) -> bool {
    let arcs_met = || match arc_index {
        Some(index) => index.candidate_met(engine, ctx.resolved_arcs()),
        None => true,
    };
    ctx.meets_nominal(
        nominal.max_slew_ps,
        nominal.skew_ps(),
        arcs_met,
        |e| engine.candidate_rule(e),
        |e| engine.candidate_stage_load_ff(e),
    ) && ctx.meets_corners(corners)
}

impl ArcIndex {
    /// `ctx`'s arcs over `engine`'s slots, or `None` without arcs.
    fn of(engine: &IncrementalAnalyzer, ctx: &OptContext<'_>) -> Option<Self> {
        let arcs = ctx.resolved_arcs();
        (!arcs.is_empty()).then(|| ArcIndex::new(engine, arcs))
    }

    fn new(engine: &IncrementalAnalyzer, arcs: &[(TimingArc, NodeId, NodeId)]) -> Self {
        let slots = engine.stage_count();
        let mut tagged = Vec::with_capacity(2 * arcs.len());
        let mut from_slot = Vec::with_capacity(arcs.len());
        for (i, (_, from, to)) in arcs.iter().enumerate() {
            let (f, t) = (engine.arrival_slot(*from), engine.arrival_slot(*to));
            let i = i as u32;
            from_slot.push(f as u32);
            tagged.push((f, 2 * i));
            if t != f {
                tagged.push((t, 2 * i + 1));
            }
        }
        tagged.sort_unstable();
        let mut start = vec![0u32; slots + 1];
        for &(s, _) in &tagged {
            start[s + 1] += 1;
        }
        for s in 0..slots {
            start[s + 1] += start[s];
        }
        let entries = tagged.into_iter().map(|(_, e)| e).collect();
        let ok: Vec<bool> = arcs
            .iter()
            .map(|(arc, from, to)| arc.satisfied_by(engine.arrival_ps(*from), engine.arrival_ps(*to)))
            .collect();
        let violated = ok.iter().filter(|ok| !**ok).count();
        ArcIndex {
            start,
            entries,
            from_slot,
            ok,
            violated,
        }
    }

    /// Every arc with an endpoint in `cone`, once each.
    fn in_cone(&self, cone: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let run = self.start[cone.start] as usize..self.start[cone.end] as usize;
        self.entries[run].iter().filter_map(move |&e| {
            let arc = (e / 2) as usize;
            // A to-entry whose from-endpoint is in the cone too was
            // already listed under the from-slot.
            let seen = e % 2 == 1 && cone.contains(&(self.from_slot[arc] as usize));
            (!seen).then_some(arc)
        })
    }

    /// Whether `engine`'s pending candidate satisfies every arc. Outside
    /// the probe's cone every arrival is the committed one, so only arcs
    /// with an endpoint inside can change verdict; the rest pass exactly
    /// when they pass now.
    fn candidate_met(
        &self,
        engine: &IncrementalAnalyzer,
        arcs: &[(TimingArc, NodeId, NodeId)],
    ) -> bool {
        let mut violated_in_cone = 0;
        for i in self.in_cone(engine.pending_cone()) {
            let (arc, from, to) = &arcs[i];
            let (at_from, at_to) =
                (engine.candidate_arrival_ps(*from), engine.candidate_arrival_ps(*to));
            if !arc.satisfied_by(at_from, at_to) {
                return false;
            }
            violated_in_cone += usize::from(!self.ok[i]);
        }
        violated_in_cone == self.violated
    }

    /// Re-evaluates the arcs with an endpoint in `cone` — the cone of the
    /// commit `engine` just folded in — against its committed arrivals. An
    /// arc listed under both endpoints is re-evaluated twice, to the same
    /// verdict.
    fn refresh(
        &mut self,
        engine: &IncrementalAnalyzer,
        arcs: &[(TimingArc, NodeId, NodeId)],
        cone: Range<usize>,
    ) {
        for k in self.start[cone.start] as usize..self.start[cone.end] as usize {
            let i = (self.entries[k] / 2) as usize;
            let (arc, from, to) = &arcs[i];
            let ok = arc.satisfied_by(engine.arrival_ps(*from), engine.arrival_ps(*to));
            if ok != self.ok[i] {
                self.ok[i] = ok;
                if ok {
                    self.violated -= 1;
                } else {
                    self.violated += 1;
                }
            }
        }
    }
}

/// Collapses duplicate edges last-write-wins into `out` (cleared by the
/// caller), each edge where it first occurs, in O(moves). `slots` is indexed
/// by node id and all zero on entry and on return; in between, `slots[e]` is
/// one plus `e`'s index in `out`.
fn dedup_moves(moves: &[(NodeId, RuleId)], slots: &mut [usize], out: &mut Vec<(NodeId, RuleId)>) {
    for &(edge, rule) in moves {
        match slots[edge.0] {
            0 => {
                out.push((edge, rule));
                slots[edge.0] = out.len();
            }
            k => out[k - 1].1 = rule,
        }
    }
    for &(edge, _) in out.iter() {
        slots[edge.0] = 0;
    }
}

/// Wire switching power is linear in capacitance, so a move set's power
/// delta is closed-form from the unit-cap changes; buffer and leakage terms
/// are rule-independent.
fn closed_form_power_delta_uw(
    ctx: &OptContext<'_>,
    committed: &Assignment,
    moves: &[(NodeId, RuleId)],
) -> f64 {
    let tree = ctx.tree();
    let tech = ctx.tech();
    let layer = tech.clock_layer();
    let rules = tech.rules();
    let mut cap_delta_ff = 0.0;
    for &(edge, rule) in moves {
        let len_um = tree.node(edge).edge_len_nm() as f64 / 1_000.0;
        let new = rules.get(rule).expect("rule id validated by the engine");
        let old = rules
            .get(committed.rule(edge))
            .expect("committed assignment is valid");
        cap_delta_ff += (layer.unit_c(new) - layer.unit_c(old)) * len_um;
    }
    let model = ctx.power_model();
    units::switching_power_uw(cap_delta_ff, tech.vdd_v(), model.freq_ghz(), model.activity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::BenchmarkSpec;
    use snr_power::PowerModel;
    use snr_tech::Technology;

    /// The linear-search deduplication `dedup_moves` replaced: the reference
    /// for its output list, order and rules.
    fn dedup_by_search(moves: &[(NodeId, RuleId)]) -> Vec<(NodeId, RuleId)> {
        let mut out: Vec<(NodeId, RuleId)> = Vec::new();
        for &(edge, rule) in moves {
            match out.iter_mut().find(|(e, _)| *e == edge) {
                Some(slot) => slot.1 = rule,
                None => out.push((edge, rule)),
            }
        }
        out
    }

    fn bits(eval: CandidateEval) -> (u64, u64, u64, bool) {
        (
            eval.power_delta_uw.to_bits(),
            eval.worst_slew_ps.to_bits(),
            eval.skew_ps.to_bits(),
            eval.feasible,
        )
    }

    /// Deterministic splitmix64, so every list derives from one seed.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Random move lists of 1–500 moves with repeated edges: the slot-table
    /// deduplication returns the linear search's list, and `try_moves` on
    /// the raw list and on its deduplicated form evaluates bit-equal, in
    /// both modes and from varying committed states.
    #[test]
    fn dedup_matches_the_linear_search_and_evaluates_alike() {
        let design = BenchmarkSpec::new("dedup", 200).seed(3).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        let edges: Vec<NodeId> = tree.edges().collect();
        let n_rules = tech.rules().len();
        for mode in [EvalMode::Incremental, EvalMode::FullReanalysis] {
            let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0)).with_eval_mode(mode);
            let mut session = ctx.session();
            let mut rng = SplitMix(17);
            let mut slots = vec![0; tree.len()];
            for round in 0..150 {
                let len = 1 + rng.below(500);
                // Draw from a pool no longer than the list, so most lists
                // repeat edges.
                let pool = 1 + rng.below(len.min(edges.len()));
                let moves: Vec<(NodeId, RuleId)> = (0..len)
                    .map(|_| (edges[rng.below(pool)], RuleId(rng.below(n_rules))))
                    .collect();
                let mut fast = Vec::new();
                dedup_moves(&moves, &mut slots, &mut fast);
                assert_eq!(fast, dedup_by_search(&moves), "{mode:?} round {round}");
                assert!(slots.iter().all(|&s| s == 0), "slots left set");

                let raw = session.try_moves(&moves);
                session.rollback();
                let deduped = session.try_moves(&fast);
                assert_eq!(bits(raw), bits(deduped), "{mode:?} round {round}");
                if rng.below(3) == 0 {
                    session.commit();
                } else {
                    session.rollback();
                }
            }
        }
    }
}
