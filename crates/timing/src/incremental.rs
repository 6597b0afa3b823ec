//! Incremental (stage-dirty) Elmore timing: [`IncrementalAnalyzer`].

use crate::TimingReport;
use snr_cts::{Assignment, ClockTree, NodeId, NodeKind};
use snr_tech::{RuleId, Technology};

const LN9: f64 = 2.197_224_577_336_219_6;
const NO_STAGE: u32 = u32::MAX;

/// Per-stage committed figures folded together: latest sink arrival (max),
/// earliest sink arrival (min) and worst slew (max).
#[derive(Debug, Clone, Copy)]
struct Fold {
    latest: f64,
    earliest: f64,
    slew: f64,
}

impl Fold {
    /// The identities the full pass starts from.
    const EMPTY: Fold = Fold {
        latest: f64::MIN,
        earliest: f64::MAX,
        slew: 0.0,
    };

    fn join(self, other: Fold) -> Fold {
        Fold {
            latest: self.latest.max(other.latest),
            earliest: self.earliest.min(other.earliest),
            slew: self.slew.max(other.slew),
        }
    }
}

/// A tournament tree of [`Fold`]s over the preorder stage slots: leaf
/// `size + si` holds stage `si`, each inner node the join of its two
/// children, padding leaves the identity.
#[derive(Debug, Clone)]
struct FoldTree {
    size: usize,
    nodes: Vec<Fold>,
}

impl FoldTree {
    fn new(slots: usize) -> Self {
        let size = slots.next_power_of_two();
        FoldTree {
            size,
            nodes: vec![Fold::EMPTY; 2 * size],
        }
    }

    /// The join over every slot.
    fn root(&self) -> Fold {
        self.nodes[1]
    }

    fn set_leaf(&mut self, si: usize, fold: Fold) {
        self.nodes[self.size + si] = fold;
    }

    /// Re-folds the ancestors of leaves `lo..hi` (non-empty) after they
    /// changed: `O(hi − lo + log size)`.
    fn refold(&mut self, lo: usize, hi: usize) {
        let (mut l, mut r) = (self.size + lo, self.size + hi - 1);
        while l > 1 {
            l /= 2;
            r /= 2;
            for i in l..=r {
                self.nodes[i] = self.nodes[2 * i].join(self.nodes[2 * i + 1]);
            }
        }
    }

    /// The join over slots `lo..hi`, starting from the identity:
    /// `O(log size)`.
    fn range(&self, lo: usize, hi: usize) -> Fold {
        let mut acc = Fold::EMPTY;
        let (mut l, mut r) = (self.size + lo, self.size + hi);
        while l < r {
            if l % 2 == 1 {
                acc = acc.join(self.nodes[l]);
                l += 1;
            }
            if r % 2 == 1 {
                r -= 1;
                acc = acc.join(self.nodes[r]);
            }
            l /= 2;
            r /= 2;
        }
        acc
    }
}

/// A remembered single-edge probe: the rule it tried, the commit count it
/// was computed at, and its fold inside the probe's cone.
#[derive(Debug, Clone, Copy)]
struct ProbeMemo {
    rule: RuleId,
    at_commit: u64,
    inside: Fold,
}

/// Aggregate timing figures of one (committed or candidate) assignment.
///
/// The cheap-to-return subset of a [`TimingReport`]: exactly what a
/// feasibility check needs. Per-node quantities are queried on the
/// analyzer itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// Maximum root-to-sink insertion delay, ps.
    pub latency_ps: f64,
    /// Minimum sink arrival, ps.
    pub min_arrival_ps: f64,
    /// Worst slew over all sinks and buffer inputs, ps.
    pub max_slew_ps: f64,
}

impl TimingSummary {
    /// Global skew: max − min sink arrival, ps.
    pub fn skew_ps(&self) -> f64 {
        self.latency_ps - self.min_arrival_ps
    }
}

/// Incremental Elmore analyzer with `try`/`commit`/`rollback` semantics.
///
/// Buffers partition the RC tree into *stages*: each buffer's input pin
/// hides its whole subtree from the parent stage, so an edge's parasitics
/// influence only (a) the interior of the stage that contains the edge —
/// loads, wire delays, slews — and (b) the *arrival offsets* of everything
/// downstream of that stage's source. `IncrementalAnalyzer` exploits
/// this: it caches per-stage results, marks the stage containing a changed
/// edge dirty, re-solves only dirty stages, and re-times only the stages
/// downstream of them.
///
/// Stages are laid out in depth-first preorder of the stage tree, so every
/// stage's downstream *cone* is one contiguous index range. A probe
/// re-times the cone of the dirty stages' lowest common ancestor and reads
/// everything outside it from committed per-stage figures — latest sink
/// arrival, earliest sink arrival and worst slew — kept in a tournament
/// tree of max/min folds over the preorder stage slots. A candidate
/// evaluation therefore costs `O(dirty-stage size + cone + log #stages)`
/// instead of `O(nodes)`; a commit re-folds only the cone's leaves and
/// their ancestors, `O(dirty stages + cone + log #stages)`.
///
/// The folds are exact: max and min round nothing, so joining the fold of
/// the stages before the cone, the re-timed cone and the stages after it
/// gives the same bits as one pass over every stage, and each re-timed
/// arrival is computed from the same operands in the same order as a fresh
/// analyzer would use.
///
/// [`IncrementalAnalyzer::probe_edge`] answers a single-edge probe without
/// leaving it pending and remembers the probe's fold inside its cone. While
/// no commit's cone overlaps that cone, every input of the remembered fold
/// is unchanged, so a repeated probe is answered in `O(log #stages)` from
/// the committed fold outside the cone joined with the remembered one — the
/// operands a fresh cone pass joins.
///
/// The evaluation protocol is transactional:
///
/// * [`IncrementalAnalyzer::try_edge`] / [`IncrementalAnalyzer::try_moves`]
///   evaluate a candidate rule change without disturbing committed state;
/// * [`IncrementalAnalyzer::commit`] folds the candidate in;
/// * [`IncrementalAnalyzer::rollback`] discards it (O(1) — an epoch bump).
///
/// Two committed-state queries serve repair-style optimizers without a full
/// [`TimingReport`]: [`IncrementalAnalyzer::slew_violators`] visits only
/// stages whose worst slew exceeds the limit, and
/// [`IncrementalAnalyzer::latest_sink`] only stages whose latest arrival is
/// the global latency.
///
/// Within dirty stages the arithmetic mirrors [`Analyzer`] operation for
/// operation, so loads and slews agree *bitwise* with a full re-analysis;
/// arrivals are assembled as `stage-source arrival + within-stage offset`
/// instead of one running sum, which reorders the floating-point additions
/// and bounds the disagreement at well under 1e-9 ps on realistic trees.
///
/// `Clone` copies the full committed state bit for bit, so a clone answers
/// every `try_moves` exactly as the original would. It copies no pending
/// candidate and no probe memo: a clone starts with nothing pending and
/// sizes its candidate arrays on its first probe.
///
/// # Examples
///
/// ```
/// use snr_netlist::BenchmarkSpec;
/// use snr_tech::Technology;
/// use snr_cts::{synthesize, Assignment, CtsOptions};
/// use snr_timing::IncrementalAnalyzer;
///
/// let design = BenchmarkSpec::new("demo", 64).seed(1).build()?;
/// let tech = Technology::n45();
/// let tree = synthesize(&design, &tech, &CtsOptions::default())?;
/// let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
/// let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
///
/// let edge = tree.edges().next().unwrap();
/// let cand = inc.try_edge(&tree, &tech, edge, tech.rules().default_id());
/// if cand.skew_ps() <= inc.summary().skew_ps() + 5.0 {
///     inc.commit();
/// } else {
///     inc.rollback();
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`Analyzer`]: crate::Analyzer
#[derive(Debug, Clone)]
pub struct IncrementalAnalyzer {
    n: usize,
    r_scale: f64,
    c_scale: f64,

    // --- stage structure (fixed per tree) ---
    /// Stage sources (root first, then every parented buffer) in
    /// depth-first preorder of the stage tree.
    stages: Vec<NodeId>,
    /// Per stage: the stage owning its source's edge (`NO_STAGE` for the
    /// root stage).
    stage_parent: Vec<u32>,
    /// Per stage `si`: its downstream cone is `si..cone_end[si]`.
    cone_end: Vec<u32>,
    /// Whether the tree has any sink (the root included).
    has_sinks: bool,
    /// Per node: index of the stage owning its edge/wire/slew values
    /// (for the root: its own stage; the values are unused).
    owner: Vec<u32>,
    /// Per node: index of the stage it *heads*, or `NO_STAGE`.
    headed: Vec<u32>,
    /// Per stage: range into `member_nodes`.
    member_range: Vec<(u32, u32)>,
    /// Stage members (every node but the root, ascending id per stage).
    member_nodes: Vec<NodeId>,

    // --- committed state ---
    rules: Vec<RuleId>,
    edge_r: Vec<f64>,
    edge_c: Vec<f64>,
    load: Vec<f64>,
    wire_m1: Vec<f64>,
    /// Wire arrival relative to the owning stage source's output.
    rel_in: Vec<f64>,
    slew: Vec<f64>,
    /// Per stage: absolute source output arrival.
    out: Vec<f64>,
    /// Per stage: source output slew seen by the stage interior.
    src_slew: Vec<f64>,
    /// Per stage: worst member slew (sinks and buffer inputs).
    max_slew: Vec<f64>,
    /// Per stage: min/max member-sink `rel_in` (±∞ when the stage has no
    /// sinks).
    sink_min_rel: Vec<f64>,
    sink_max_rel: Vec<f64>,
    /// Each stage's committed sink window and worst slew, folded over the
    /// preorder stage slots.
    folds: FoldTree,
    summary: TimingSummary,
    /// Commits so far.
    commits: u64,
    /// Per stage: the last commit whose cone overlapped this stage's cone —
    /// it contained the stage, or it lay below it.
    touched: Vec<u64>,
    /// Pending state is valid where stamped with the current epoch; every
    /// probe and every commit or rollback moves it on.
    epoch: u64,
    scratch: Scratch,
}

/// An analyzer's working state besides the committed one: the pending
/// candidate, valid where stamped with the analyzer's `epoch`, and the probe
/// memo. Its arrays are sized on first use. A new analyzer drops them after
/// its first solve, and a clone starts without them: fresh stamps are
/// stale by construction, and an empty memo re-times what it would have
/// answered, to the same bits.
#[derive(Debug)]
struct Scratch {
    has_pending: bool,
    rule_ep: Vec<u64>,
    rule: Vec<RuleId>,
    /// Stamps edge_r/edge_c/wire_m1/rel_in/slew recomputation.
    wire_ep: Vec<u64>,
    load_ep: Vec<u64>,
    edge_r: Vec<f64>,
    edge_c: Vec<f64>,
    load: Vec<f64>,
    wire_m1: Vec<f64>,
    rel_in: Vec<f64>,
    slew: Vec<f64>,
    /// Stamps per-stage aggregate recomputation (doubles as the dirty mark).
    stage_ep: Vec<u64>,
    /// The pending candidate's re-timed cone; `out` is valid only there.
    cone: (usize, usize),
    out: Vec<f64>,
    src_slew: Vec<f64>,
    max_slew: Vec<f64>,
    sink_min_rel: Vec<f64>,
    sink_max_rel: Vec<f64>,
    /// The pending candidate's fold over its cone.
    inside: Fold,
    summary: TimingSummary,
    dirty: Vec<u32>,
    changed: Vec<NodeId>,
    /// Per edge: its last [`probe_edge`](IncrementalAnalyzer::probe_edge)
    /// (empty until the first one).
    memo: Vec<Option<ProbeMemo>>,
}

impl Scratch {
    fn empty() -> Self {
        Scratch {
            has_pending: false,
            rule_ep: Vec::new(),
            rule: Vec::new(),
            wire_ep: Vec::new(),
            load_ep: Vec::new(),
            edge_r: Vec::new(),
            edge_c: Vec::new(),
            load: Vec::new(),
            wire_m1: Vec::new(),
            rel_in: Vec::new(),
            slew: Vec::new(),
            stage_ep: Vec::new(),
            cone: (0, 0),
            out: Vec::new(),
            src_slew: Vec::new(),
            max_slew: Vec::new(),
            sink_min_rel: Vec::new(),
            sink_max_rel: Vec::new(),
            inside: Fold::EMPTY,
            summary: TimingSummary { latency_ps: 0.0, min_arrival_ps: 0.0, max_slew_ps: 0.0 },
            dirty: Vec::new(),
            changed: Vec::new(),
            memo: Vec::new(),
        }
    }

    /// Sizes the candidate arrays for `n` nodes and `stages` stages, once.
    fn size(&mut self, n: usize, stages: usize) {
        if self.rule_ep.len() == n {
            return;
        }
        self.rule_ep = vec![0; n];
        self.rule = vec![RuleId(0); n];
        self.wire_ep = vec![0; n];
        self.load_ep = vec![0; n];
        self.edge_r = vec![0.0; n];
        self.edge_c = vec![0.0; n];
        self.load = vec![0.0; n];
        self.wire_m1 = vec![0.0; n];
        self.rel_in = vec![0.0; n];
        self.slew = vec![0.0; n];
        self.stage_ep = vec![0; stages];
        self.out = vec![0.0; stages];
        self.src_slew = vec![0.0; stages];
        self.max_slew = vec![0.0; stages];
        self.sink_min_rel = vec![0.0; stages];
        self.sink_max_rel = vec![0.0; stages];
    }
}

impl Clone for Scratch {
    /// No pending candidate and no memo: see [`Scratch`].
    fn clone(&self) -> Self {
        Scratch::empty()
    }
}

impl IncrementalAnalyzer {
    /// Builds the analyzer over `tree` with `assignment` as the committed
    /// state, at nominal parasitics.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's length does not match the tree, or if it
    /// references rules outside the technology's rule set.
    pub fn new(tree: &ClockTree, tech: &Technology, assignment: &Assignment) -> Self {
        Self::with_scales(tree, tech, assignment, 1.0, 1.0)
    }

    /// Like [`IncrementalAnalyzer::new`] but with global R/C scale factors —
    /// the process-corner model ([`analyze_at_corner`]'s scaling applied
    /// incrementally).
    ///
    /// [`analyze_at_corner`]: crate::analyze_at_corner
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`IncrementalAnalyzer::new`].
    pub fn with_scales(
        tree: &ClockTree,
        tech: &Technology,
        assignment: &Assignment,
        r_scale: f64,
        c_scale: f64,
    ) -> Self {
        assert_eq!(
            assignment.len(),
            tree.len(),
            "assignment built for a different tree"
        );
        let n = tree.len();
        let root = tree.root();
        let arena = tree.arena();
        let parents = arena.parents();

        // Stage sources in node preorder: a buffer's subtree is contiguous
        // in it, so the stages below each stage form one index range.
        let mut stages = Vec::new();
        let mut headed = vec![NO_STAGE; n];
        let mut stack = vec![root.0];
        while let Some(v) = stack.pop() {
            if parents[v] == snr_cts::NO_PARENT || arena.is_buffer(v) {
                headed[v] = stages.len() as u32;
                stages.push(NodeId(v));
            }
            stack.extend(arena.children(v).iter().rev().map(|&c| c as usize));
        }
        debug_assert_eq!(stages[0], root, "root must head the first stage");
        let s_count = stages.len();

        // Owning stage of each node's wire values: the nearest strict
        // ancestor that is a source.
        let mut owner = vec![0u32; n];
        for v in 0..n {
            let p = parents[v];
            if p == snr_cts::NO_PARENT {
                owner[v] = headed[v];
                continue;
            }
            let p = p as usize;
            owner[v] = if headed[p] != NO_STAGE { headed[p] } else { owner[p] };
        }

        // Stage tree: parents, and cone ends from subtree sizes (children
        // follow their parent in preorder, so a reverse sweep sees every
        // child first).
        let stage_parent: Vec<u32> = stages
            .iter()
            .map(|&s| if s == root { NO_STAGE } else { owner[s.0] })
            .collect();
        let mut cone_end: Vec<u32> = (1..=s_count as u32).collect();
        for si in (1..s_count).rev() {
            let p = stage_parent[si] as usize;
            cone_end[p] = cone_end[p].max(cone_end[si]);
        }

        // Members grouped by owner, ascending id (counting sort keeps the
        // topological order within each stage).
        let mut counts = vec![0u32; s_count];
        for v in 0..n {
            if parents[v] != snr_cts::NO_PARENT {
                counts[owner[v] as usize] += 1;
            }
        }
        let mut member_range = Vec::with_capacity(s_count);
        let mut start = 0u32;
        for &c in &counts {
            member_range.push((start, start + c));
            start += c;
        }
        let mut member_nodes = vec![NodeId(0); start as usize];
        let mut cursor: Vec<u32> = member_range.iter().map(|&(lo, _)| lo).collect();
        for v in 0..n {
            if parents[v] != snr_cts::NO_PARENT {
                let si = owner[v] as usize;
                member_nodes[cursor[si] as usize] = NodeId(v);
                cursor[si] += 1;
            }
        }

        let zero_summary = TimingSummary {
            latency_ps: 0.0,
            min_arrival_ps: 0.0,
            max_slew_ps: 0.0,
        };
        let mut inc = IncrementalAnalyzer {
            n,
            r_scale,
            c_scale,
            stages,
            stage_parent,
            cone_end,
            has_sinks: (0..n).any(|v| arena.is_sink(v)),
            owner,
            headed,
            member_range,
            member_nodes,
            rules: (0..n).map(|v| assignment.rule(NodeId(v))).collect(),
            edge_r: vec![0.0; n],
            edge_c: vec![0.0; n],
            load: vec![0.0; n],
            wire_m1: vec![0.0; n],
            rel_in: vec![0.0; n],
            slew: vec![0.0; n],
            out: vec![0.0; s_count],
            src_slew: vec![0.0; s_count],
            max_slew: vec![0.0; s_count],
            sink_min_rel: vec![f64::INFINITY; s_count],
            sink_max_rel: vec![f64::NEG_INFINITY; s_count],
            folds: FoldTree::new(s_count),
            summary: zero_summary,
            commits: 0,
            touched: vec![0; s_count],
            epoch: 1,
            scratch: Scratch::empty(),
        };

        // First solve: every stage is dirty.
        inc.scratch.size(n, s_count);
        inc.epoch += 1;
        inc.scratch.has_pending = true;
        for si in 0..s_count {
            inc.scratch.stage_ep[si] = inc.epoch;
            inc.scratch.dirty.push(si as u32);
        }
        for si in 0..s_count {
            inc.recompute_stage(tree, tech, si);
        }
        inc.cone_pass(tree, tech);
        inc.commit();
        inc.scratch = Scratch::empty();
        inc
    }

    /// Number of buffer stages (including the root stage).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The committed rule on `edge`.
    pub fn rule(&self, edge: NodeId) -> RuleId {
        self.rules[edge.0]
    }

    /// Aggregates of the committed assignment.
    pub fn summary(&self) -> TimingSummary {
        self.summary
    }

    /// Test-only corruption hook: shifts the committed per-stage sink
    /// windows and worst slews by `delta_ps`, as an engine-state bug would.
    /// The drift survives subsequent `try_moves`/`commit` cycles because
    /// the folds and every clean stage read these committed arrays —
    /// exactly the failure mode the divergence guard exists to catch. The
    /// probe memo is cleared, so later probes re-time from the drifted
    /// state too.
    #[doc(hidden)]
    pub fn debug_perturb(&mut self, delta_ps: f64) {
        for si in 0..self.stages.len() {
            self.max_slew[si] += delta_ps;
            if self.sink_max_rel[si].is_finite() {
                self.sink_max_rel[si] += delta_ps;
            }
        }
        self.refold(0, self.stages.len());
        self.scratch.memo.clear();
        self.summary.latency_ps += delta_ps;
        self.summary.max_slew_ps += delta_ps;
    }

    /// Committed arrival at `node` (buffer nodes: at the buffer output).
    pub fn arrival_ps(&self, node: NodeId) -> f64 {
        if self.headed[node.0] != NO_STAGE {
            self.out[self.headed[node.0] as usize]
        } else {
            self.out[self.owner[node.0] as usize] + self.rel_in[node.0]
        }
    }

    /// Committed stage-local downstream load at `node`, fF.
    pub fn stage_load_ff(&self, node: NodeId) -> f64 {
        self.load[node.0]
    }

    /// Committed slew at `node`, ps.
    pub fn slew_ps(&self, node: NodeId) -> f64 {
        self.slew[node.0]
    }

    /// Arrival at `node` under the pending candidate (falls back to the
    /// committed value when no candidate is pending).
    pub fn candidate_arrival_ps(&self, node: NodeId) -> f64 {
        if !self.scratch.has_pending {
            return self.arrival_ps(node);
        }
        if self.headed[node.0] != NO_STAGE {
            self.candidate_out(self.headed[node.0] as usize)
        } else {
            let rel = if self.scratch.wire_ep[node.0] == self.epoch {
                self.scratch.rel_in[node.0]
            } else {
                self.rel_in[node.0]
            };
            self.candidate_out(self.owner[node.0] as usize) + rel
        }
    }

    /// The stage slot whose source arrival `node`'s arrival is read from:
    /// the stage it heads, else the stage owning its edge. Fixed per tree.
    pub fn arrival_slot(&self, node: NodeId) -> usize {
        if self.headed[node.0] != NO_STAGE {
            self.headed[node.0] as usize
        } else {
            self.owner[node.0] as usize
        }
    }

    /// The stage slots the pending candidate re-timed (empty when no
    /// candidate is pending). A node whose [`arrival_slot`] lies outside
    /// this range has a [`candidate_arrival_ps`] bit-equal to its committed
    /// [`arrival_ps`]: every dirty stage lies inside the cone, so outside
    /// it both the source arrival and the relative offset are committed.
    ///
    /// [`arrival_slot`]: Self::arrival_slot
    /// [`candidate_arrival_ps`]: Self::candidate_arrival_ps
    /// [`arrival_ps`]: Self::arrival_ps
    pub fn pending_cone(&self) -> std::ops::Range<usize> {
        if self.scratch.has_pending {
            self.scratch.cone.0..self.scratch.cone.1
        } else {
            0..0
        }
    }

    /// Source output arrival of stage `si` under the pending candidate:
    /// re-timed inside the pending cone, committed outside it.
    fn candidate_out(&self, si: usize) -> f64 {
        let (lo, hi) = self.scratch.cone;
        if (lo..hi).contains(&si) {
            self.scratch.out[si]
        } else {
            self.out[si]
        }
    }

    /// Stage-local load at `node` under the pending candidate (committed
    /// value when no candidate is pending).
    pub fn candidate_stage_load_ff(&self, node: NodeId) -> f64 {
        if self.scratch.has_pending && self.scratch.load_ep[node.0] == self.epoch {
            self.scratch.load[node.0]
        } else {
            self.load[node.0]
        }
    }

    /// Rule on `edge` under the pending candidate (committed value when no
    /// candidate is pending).
    pub fn candidate_rule(&self, edge: NodeId) -> RuleId {
        if self.scratch.has_pending && self.scratch.rule_ep[edge.0] == self.epoch {
            self.scratch.rule[edge.0]
        } else {
            self.rules[edge.0]
        }
    }

    /// Evaluates changing `edge` to `rule` without committing.
    ///
    /// Any previously pending candidate is discarded first.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an edge of `tree` (the root has no edge), if
    /// the rule is outside the technology's rule set, or if `tree`/`tech`
    /// differ from the ones the analyzer was built with.
    pub fn try_edge(
        &mut self,
        tree: &ClockTree,
        tech: &Technology,
        edge: NodeId,
        rule: RuleId,
    ) -> TimingSummary {
        self.try_moves(tree, tech, &[(edge, rule)])
    }

    /// Evaluates a set of simultaneous rule changes without committing.
    ///
    /// Duplicate edges are allowed; the last rule wins. Any previously
    /// pending candidate is discarded first.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`IncrementalAnalyzer::try_edge`].
    pub fn try_moves(
        &mut self,
        tree: &ClockTree,
        tech: &Technology,
        moves: &[(NodeId, RuleId)],
    ) -> TimingSummary {
        assert_eq!(tree.len(), self.n, "analyzer built for a different tree");
        if self.scratch.has_pending {
            self.rollback();
        }
        self.scratch.size(self.n, self.stages.len());
        self.epoch += 1;
        self.scratch.has_pending = true;
        for &(e, r) in moves {
            assert!(
                tree.node(e).parent().is_some(),
                "node {} has no edge",
                e.0
            );
            if self.scratch.rule_ep[e.0] != self.epoch {
                self.scratch.changed.push(e);
            }
            self.scratch.rule[e.0] = r;
            self.scratch.rule_ep[e.0] = self.epoch;
            let si = self.owner[e.0];
            if self.scratch.stage_ep[si as usize] != self.epoch {
                self.scratch.stage_ep[si as usize] = self.epoch;
                self.scratch.dirty.push(si);
            }
        }
        for i in 0..self.scratch.dirty.len() {
            let si = self.scratch.dirty[i] as usize;
            self.recompute_stage(tree, tech, si);
        }
        self.cone_pass(tree, tech);
        self.scratch.summary
    }

    /// The summary [`try_edge`](Self::try_edge) would return for changing
    /// `edge` to `rule`, bit for bit, leaving no candidate pending (any
    /// pending one is discarded first).
    ///
    /// The probe's fold inside its cone is remembered per edge. It reads
    /// only committed state of the cone and of the stage the cone hangs
    /// off, so while no commit's cone overlaps the probe's cone the
    /// remembered fold is what a fresh probe would compute: a repeated
    /// probe of the same edge and rule then costs `O(log #stages)` — the
    /// committed fold outside the cone joined with the remembered one.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`IncrementalAnalyzer::try_edge`].
    pub fn probe_edge(
        &mut self,
        tree: &ClockTree,
        tech: &Technology,
        edge: NodeId,
        rule: RuleId,
    ) -> TimingSummary {
        assert_eq!(tree.len(), self.n, "analyzer built for a different tree");
        assert!(
            tree.node(edge).parent().is_some(),
            "node {} has no edge",
            edge.0
        );
        if self.scratch.has_pending {
            self.rollback();
        }
        let lo = self.owner[edge.0] as usize;
        let hi = self.cone_end[lo] as usize;
        if let Some(memo) = self.scratch.memo.get(edge.0).copied().flatten() {
            if memo.rule == rule && self.touched[lo] <= memo.at_commit {
                let fold = self.outside_fold(lo, hi).join(memo.inside);
                return self.summary_of(fold, self.src_slew[0]);
            }
        }
        let summary = self.try_moves(tree, tech, &[(edge, rule)]);
        debug_assert_eq!(
            self.scratch.cone,
            (lo, hi),
            "a one-edge probe re-times its stage's cone"
        );
        if self.scratch.memo.is_empty() {
            self.scratch.memo = vec![None; self.n];
        }
        self.scratch.memo[edge.0] = Some(ProbeMemo {
            rule,
            at_commit: self.commits,
            inside: self.scratch.inside,
        });
        self.rollback();
        summary
    }

    /// Folds the pending candidate into the committed state.
    ///
    /// # Panics
    ///
    /// Panics if no candidate is pending.
    pub fn commit(&mut self) {
        assert!(self.scratch.has_pending, "no pending candidate to commit");
        for i in 0..self.scratch.changed.len() {
            let e = self.scratch.changed[i];
            self.rules[e.0] = self.scratch.rule[e.0];
        }
        for i in 0..self.scratch.dirty.len() {
            let si = self.scratch.dirty[i] as usize;
            let s = self.stages[si];
            self.load[s.0] = self.scratch.load[s.0];
            self.src_slew[si] = self.scratch.src_slew[si];
            self.max_slew[si] = self.scratch.max_slew[si];
            self.sink_min_rel[si] = self.scratch.sink_min_rel[si];
            self.sink_max_rel[si] = self.scratch.sink_max_rel[si];
            if si == 0 {
                // The analyzer reports the root's slew as its source slew.
                self.slew[s.0] = self.scratch.src_slew[0];
            }
            let (lo, hi) = self.member_range[si];
            for m in lo..hi {
                let v = self.member_nodes[m as usize].0;
                self.edge_r[v] = self.scratch.edge_r[v];
                self.edge_c[v] = self.scratch.edge_c[v];
                self.wire_m1[v] = self.scratch.wire_m1[v];
                self.rel_in[v] = self.scratch.rel_in[v];
                self.slew[v] = self.scratch.slew[v];
                // Buffer members' loads belong to the stage they head and
                // are copied there (above) only when that stage is dirty.
                if self.scratch.load_ep[v] == self.epoch {
                    self.load[v] = self.scratch.load[v];
                }
            }
        }
        let (lo, hi) = self.scratch.cone;
        self.out[lo..hi].copy_from_slice(&self.scratch.out[lo..hi]);
        self.refold(lo, hi);
        self.commits += 1;
        if lo < hi {
            // Memoized probes whose cone overlaps this one are stale: the
            // cone's own stages, and every stage above its apex, whose cone
            // contains it.
            self.touched[lo..hi].fill(self.commits);
            let mut a = self.stage_parent[lo];
            while a != NO_STAGE {
                self.touched[a as usize] = self.commits;
                a = self.stage_parent[a as usize];
            }
        }
        self.summary = self.scratch.summary;
        self.epoch += 1;
        self.scratch.has_pending = false;
        self.scratch.dirty.clear();
        self.scratch.changed.clear();
    }

    /// Discards the pending candidate. A no-op when none is pending.
    pub fn rollback(&mut self) {
        self.epoch += 1;
        self.scratch.has_pending = false;
        self.scratch.dirty.clear();
        self.scratch.changed.clear();
    }

    /// Checked nodes (sinks and buffer inputs) whose committed slew exceeds
    /// `limit_ps`, in stage order. Only stages whose worst slew exceeds the
    /// limit are visited.
    pub fn slew_violators(&self, tree: &ClockTree, limit_ps: f64) -> Vec<NodeId> {
        assert_eq!(tree.len(), self.n, "analyzer built for a different tree");
        let mut out = Vec::new();
        for si in 0..self.stages.len() {
            if self.max_slew[si] <= limit_ps {
                continue;
            }
            let (lo, hi) = self.member_range[si];
            for &v in &self.member_nodes[lo as usize..hi as usize] {
                let kind = tree.node(v).kind();
                if (kind.is_sink() || kind.is_buffer()) && self.slew[v.0] > limit_ps {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The committed latest-arriving sink: the highest-id sink whose
    /// arrival equals the committed latency, i.e. the last maximum in
    /// [`ClockTree::sink_nodes`] order. `None` when the tree has no sinks.
    /// Only stages whose latest arrival is the global one are visited.
    pub fn latest_sink(&self, tree: &ClockTree) -> Option<NodeId> {
        assert_eq!(tree.len(), self.n, "analyzer built for a different tree");
        if !self.has_sinks {
            return None;
        }
        let latency = self.folds.root().latest;
        let mut best: Option<(f64, NodeId)> = None;
        let mut consider = |arrival: f64, v: NodeId| {
            if best.is_none_or(|(a, b)| arrival > a || (arrival == a && v > b)) {
                best = Some((arrival, v));
            }
        };
        for si in 0..self.stages.len() {
            if self.sink_window(si).0 != latency {
                continue;
            }
            let src = self.stages[si];
            if tree.node(src).kind().is_sink() {
                consider(self.out[si], src);
            }
            let (lo, hi) = self.member_range[si];
            for &v in &self.member_nodes[lo as usize..hi as usize] {
                if tree.node(v).kind().is_sink() {
                    consider(self.out[si] + self.rel_in[v.0], v);
                }
            }
        }
        best.map(|(_, v)| v)
    }

    /// A full [`TimingReport`] of the committed state, equivalent to
    /// running the full analyzer on the committed assignment (arrivals may
    /// differ by floating-point reassociation, ≪ 1e-9 ps).
    pub fn report(&self, tree: &ClockTree) -> TimingReport {
        assert_eq!(tree.len(), self.n, "analyzer built for a different tree");
        let arrival: Vec<f64> = (0..self.n).map(|v| self.arrival_ps(NodeId(v))).collect();
        TimingReport {
            arrival_ps: arrival,
            slew_ps: self.slew.clone(),
            stage_load_ff: self.load.clone(),
            sink_nodes: tree.sink_nodes(),
            latency_ps: self.summary.latency_ps,
            min_arrival_ps: self.summary.min_arrival_ps,
            max_slew_ps: self.summary.max_slew_ps,
        }
    }

    /// Re-solves the interior of stage `si` into the pending arrays,
    /// mirroring the full analyzer's two passes over just this stage.
    fn recompute_stage(&mut self, tree: &ClockTree, tech: &Technology, si: usize) {
        let ep = self.epoch;
        let arena = tree.arena();
        let layer = tech.clock_layer();
        let rules = tech.rules();
        let cells = tech.buffers().cells();
        let src = self.stages[si];
        let (lo, hi) = self.member_range[si];

        // Pass 1 (postorder = descending id): edge parasitics under the
        // candidate rules, then stage-local loads.
        for m in (lo..hi).rev() {
            let v = self.member_nodes[m as usize];
            let node = tree.node(v);
            let rid = if self.scratch.rule_ep[v.0] == ep {
                self.scratch.rule[v.0]
            } else {
                self.rules[v.0]
            };
            let rule = rules
                .get(rid)
                .expect("assignment references a rule outside the technology rule set");
            let len_um = node.edge_len_nm() as f64 / 1_000.0;
            self.scratch.edge_r[v.0] = layer.unit_r(rule) * len_um * self.r_scale;
            self.scratch.edge_c[v.0] = layer.unit_c_delay(rule) * len_um * self.c_scale;
            self.scratch.wire_ep[v.0] = ep;

            if !node.kind().is_buffer() {
                let mut acc = match node.kind() {
                    NodeKind::Sink { cap_ff, .. } => cap_ff,
                    _ => 0.0,
                };
                for &ch in arena.children(v.0) {
                    let ch = NodeId(ch as usize);
                    acc += self.scratch.edge_c[ch.0] + self.pending_in_stage_cap(tree, cells, ch);
                }
                self.scratch.load[v.0] = acc;
                self.scratch.load_ep[v.0] = ep;
            }
        }
        // The source's own load (its children are stage members, already
        // recomputed above).
        let snode = tree.node(src);
        let mut acc = match snode.kind() {
            NodeKind::Sink { cap_ff, .. } => cap_ff,
            _ => 0.0,
        };
        for &ch in arena.children(src.0) {
            let ch = NodeId(ch as usize);
            acc += self.scratch.edge_c[ch.0] + self.pending_in_stage_cap(tree, cells, ch);
        }
        self.scratch.load[src.0] = acc;
        self.scratch.load_ep[src.0] = ep;

        let sslew = match snode.kind() {
            NodeKind::Buffer { cell } => cells[cell].output_slew_ps(self.scratch.load[src.0]),
            // Unbuffered root: ideal fast source, as in the full analyzer.
            _ => 1.0,
        };
        self.scratch.src_slew[si] = sslew;

        // Pass 2 (topo = ascending id): wire moments, relative arrivals,
        // slews, and the stage aggregates.
        let mut mx_slew = 0.0f64;
        let mut smin = f64::INFINITY;
        let mut smax = f64::NEG_INFINITY;
        if si == 0 && snode.kind().is_sink() {
            // Degenerate single-node tree: the root is itself a sink at
            // relative arrival zero.
            smin = 0.0;
            smax = 0.0;
        }
        for m in lo..hi {
            let v = self.member_nodes[m as usize];
            let node = tree.node(v);
            let p = node.parent().expect("members always have a parent");
            let downstream = self.pending_in_stage_cap(tree, cells, v);
            let step = self.scratch.edge_r[v.0] * (self.scratch.edge_c[v.0] / 2.0 + downstream);
            if p == src {
                self.scratch.wire_m1[v.0] = step;
                self.scratch.rel_in[v.0] = step;
            } else {
                self.scratch.wire_m1[v.0] = self.scratch.wire_m1[p.0] + step;
                self.scratch.rel_in[v.0] = self.scratch.rel_in[p.0] + step;
            }
            let wire_slew = LN9 * self.scratch.wire_m1[v.0];
            self.scratch.slew[v.0] = (sslew * sslew + wire_slew * wire_slew).sqrt();

            let kind = node.kind();
            if kind.is_sink() {
                smin = smin.min(self.scratch.rel_in[v.0]);
                smax = smax.max(self.scratch.rel_in[v.0]);
            }
            if kind.is_sink() || kind.is_buffer() {
                mx_slew = mx_slew.max(self.scratch.slew[v.0]);
            }
        }
        self.scratch.max_slew[si] = mx_slew;
        self.scratch.sink_min_rel[si] = smin;
        self.scratch.sink_max_rel[si] = smax;
    }

    /// Candidate-state capacitance `id` presents to its parent's stage.
    fn pending_in_stage_cap(
        &self,
        tree: &ClockTree,
        cells: &[snr_tech::BufferCell],
        id: NodeId,
    ) -> f64 {
        match tree.node(id).kind() {
            NodeKind::Buffer { cell } => cells[cell].input_cap_ff(),
            _ => {
                if self.scratch.load_ep[id.0] == self.epoch {
                    self.scratch.load[id.0]
                } else {
                    self.load[id.0]
                }
            }
        }
    }

    /// Re-times the cone of the dirty stages' lowest common ancestor —
    /// candidate source arrivals, with dirty stages using their recomputed
    /// offsets — folds it, and joins that with the committed fold outside
    /// the cone into the candidate aggregates.
    fn cone_pass(&mut self, tree: &ClockTree, tech: &Technology) {
        let ep = self.epoch;
        let cells = tech.buffers().cells();
        let s_count = self.stages.len();

        // Preorder makes the cone of stage `a` the range `a..cone_end[a]`,
        // so the lowest common ancestor is the first ancestor of the
        // leftmost dirty stage whose range reaches the rightmost one.
        let (lo, hi) = match (self.scratch.dirty.iter().min(), self.scratch.dirty.iter().max()) {
            (Some(&lo), Some(&hi)) => {
                let mut a = lo;
                while self.cone_end[a as usize] <= hi {
                    a = self.stage_parent[a as usize];
                }
                (a as usize, self.cone_end[a as usize] as usize)
            }
            _ => (s_count, s_count),
        };
        self.scratch.cone = (lo, hi);

        let mut inside = Fold::EMPTY;
        for si in lo..hi {
            let s = self.stages[si];
            let load_s = if self.scratch.load_ep[s.0] == ep {
                self.scratch.load[s.0]
            } else {
                self.load[s.0]
            };
            let out = if si == 0 {
                match tree.node(s).kind() {
                    NodeKind::Buffer { cell } => cells[cell].delay_ps(load_s),
                    _ => 0.0,
                }
            } else {
                let rel = if self.scratch.wire_ep[s.0] == ep {
                    self.scratch.rel_in[s.0]
                } else {
                    self.rel_in[s.0]
                };
                // The cone's apex hangs off a stage outside it.
                let parent = self.stage_parent[si] as usize;
                let parent_out = if si == lo {
                    self.out[parent]
                } else {
                    self.scratch.out[parent]
                };
                match tree.node(s).kind() {
                    NodeKind::Buffer { cell } => parent_out + rel + cells[cell].delay_ps(load_s),
                    _ => unreachable!("non-root stage sources are buffers"),
                }
            };
            self.scratch.out[si] = out;

            let (smin, smax, msl) = if self.scratch.stage_ep[si] == ep {
                (
                    self.scratch.sink_min_rel[si],
                    self.scratch.sink_max_rel[si],
                    self.scratch.max_slew[si],
                )
            } else {
                (self.sink_min_rel[si], self.sink_max_rel[si], self.max_slew[si])
            };
            if smin.is_finite() {
                inside.latest = inside.latest.max(out + smax);
                inside.earliest = inside.earliest.min(out + smin);
            }
            inside.slew = inside.slew.max(msl);
        }
        self.scratch.inside = inside;
        let root_src_slew = if self.scratch.stage_ep[0] == ep {
            self.scratch.src_slew[0]
        } else {
            self.src_slew[0]
        };
        self.scratch.summary = self.summary_of(self.outside_fold(lo, hi).join(inside), root_src_slew);
    }

    /// The committed fold over every stage outside the cone `lo..hi`.
    fn outside_fold(&self, lo: usize, hi: usize) -> Fold {
        self.folds
            .range(0, lo)
            .join(self.folds.range(hi, self.stages.len()))
    }

    /// The aggregates a full pass reports when its per-stage fold is
    /// `fold` and the root stage's source slew is `root_src_slew`.
    fn summary_of(&self, fold: Fold, root_src_slew: f64) -> TimingSummary {
        let (latency, min_arrival) = if self.has_sinks {
            (fold.latest, fold.earliest)
        } else {
            (0.0, 0.0)
        };
        TimingSummary {
            latency_ps: latency,
            min_arrival_ps: min_arrival,
            // Single-node tree: the full analyzer reports the root's own
            // slew as the worst slew.
            max_slew_ps: if self.n == 1 {
                root_src_slew
            } else {
                fold.slew
            },
        }
    }

    /// Committed latest and earliest sink arrival of stage `si`:
    /// `out + sink_max_rel` and `out + sink_min_rel`, or ∓∞ when the stage
    /// has no sinks — the operands and order the full pass uses.
    fn sink_window(&self, si: usize) -> (f64, f64) {
        if self.sink_min_rel[si].is_finite() {
            (
                self.out[si] + self.sink_max_rel[si],
                self.out[si] + self.sink_min_rel[si],
            )
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        }
    }

    /// Rewrites the fold leaves of stages `lo..hi` from the committed
    /// arrays and re-folds their ancestors.
    fn refold(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        for si in lo..hi {
            let (latest, earliest) = self.sink_window(si);
            self.folds.set_leaf(
                si,
                Fold {
                    latest,
                    earliest,
                    slew: self.max_slew[si],
                },
            );
        }
        self.folds.refold(lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, analyze_at_corner};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::BenchmarkSpec;

    fn setup(n: usize, seed: u64) -> (snr_cts::ClockTree, Technology) {
        let design = BenchmarkSpec::new("t", n).seed(seed).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (tree, tech)
    }

    fn assert_summary_close(s: TimingSummary, r: &TimingReport) {
        assert!(
            (s.latency_ps - r.latency_ps()).abs() < 1e-9,
            "latency {} vs {}",
            s.latency_ps,
            r.latency_ps()
        );
        assert!(
            (s.skew_ps() - r.skew_ps()).abs() < 1e-9,
            "skew {} vs {}",
            s.skew_ps(),
            r.skew_ps()
        );
        assert!(
            (s.max_slew_ps - r.max_slew_ps()).abs() < 1e-9,
            "slew {} vs {}",
            s.max_slew_ps,
            r.max_slew_ps()
        );
    }

    #[test]
    fn initial_state_matches_full_analysis() {
        let (tree, tech) = setup(200, 11);
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let full = analyze(&tree, &tech, &asg);
        assert_summary_close(inc.summary(), &full);
        for id in tree.topo_order() {
            assert!((inc.arrival_ps(id) - full.arrival_ps(id)).abs() < 1e-9);
            // Loads and slews are computed by the same per-node operations
            // in the same order: exact.
            assert_eq!(inc.stage_load_ff(id), full.stage_load_ff(id));
            assert_eq!(inc.slew_ps(id), full.slew_ps(id));
        }
        let rep = inc.report(&tree);
        assert_eq!(rep.max_slew_ps(), full.max_slew_ps());
        assert!((rep.skew_ps() - full.skew_ps()).abs() < 1e-9);
    }

    #[test]
    fn try_matches_full_and_rollback_restores() {
        let (tree, tech) = setup(150, 3);
        let rules = tech.rules();
        let asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let before = inc.summary();

        let edge = tree.edges().nth(5).unwrap();
        let cand = inc.try_edge(&tree, &tech, edge, rules.default_id());
        let mut modified = asg.clone();
        modified.set(edge, rules.default_id());
        let full = analyze(&tree, &tech, &modified);
        assert_summary_close(cand, &full);
        // Candidate per-node views match too.
        for id in tree.topo_order() {
            assert!((inc.candidate_arrival_ps(id) - full.arrival_ps(id)).abs() < 1e-9);
            assert_eq!(inc.candidate_stage_load_ff(id), full.stage_load_ff(id));
        }

        inc.rollback();
        assert_eq!(inc.summary(), before);
        assert_eq!(inc.rule(edge), rules.most_conservative_id());
        let full_before = analyze(&tree, &tech, &asg);
        assert_summary_close(inc.summary(), &full_before);
    }

    #[test]
    fn commit_persists_candidate() {
        let (tree, tech) = setup(150, 3);
        let rules = tech.rules();
        let mut asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);

        let edge = tree.edges().nth(8).unwrap();
        let cand = inc.try_edge(&tree, &tech, edge, RuleId(1));
        inc.commit();
        assert_eq!(inc.summary(), cand);
        assert_eq!(inc.rule(edge), RuleId(1));

        asg.set(edge, RuleId(1));
        let full = analyze(&tree, &tech, &asg);
        assert_summary_close(inc.summary(), &full);
        for id in tree.topo_order() {
            assert!((inc.arrival_ps(id) - full.arrival_ps(id)).abs() < 1e-9);
            assert_eq!(inc.stage_load_ff(id), full.stage_load_ff(id));
            assert_eq!(inc.slew_ps(id), full.slew_ps(id));
        }
    }

    #[test]
    fn random_flip_sequence_tracks_full_analysis() {
        let (tree, tech) = setup(120, 17);
        let rules = tech.rules();
        let n_rules = rules.len();
        let edges: Vec<NodeId> = tree.edges().collect();
        let mut asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let mut rng = StdRng::seed_from_u64(99);

        for step in 0..200 {
            let e = edges[rng.gen_range(0..edges.len())];
            let r = RuleId(rng.gen_range(0..n_rules));
            let cand = inc.try_edge(&tree, &tech, e, r);
            let mut trial = asg.clone();
            trial.set(e, r);
            let full = analyze(&tree, &tech, &trial);
            assert_summary_close(cand, &full);
            // Alternate commit/rollback to exercise both paths.
            if step % 3 == 0 {
                inc.commit();
                asg = trial;
            } else {
                inc.rollback();
            }
            assert_summary_close(inc.summary(), &analyze(&tree, &tech, &asg));
        }
    }

    #[test]
    fn group_moves_match_full_analysis() {
        let (tree, tech) = setup(100, 5);
        let rules = tech.rules();
        let mut asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let moves: Vec<(NodeId, RuleId)> = tree
            .edges()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, e)| (e, RuleId(1)))
            .collect();
        let cand = inc.try_moves(&tree, &tech, &moves);
        for &(e, r) in &moves {
            asg.set(e, r);
        }
        let full = analyze(&tree, &tech, &asg);
        assert_summary_close(cand, &full);
        inc.commit();
        assert_summary_close(inc.summary(), &full);
    }

    #[test]
    fn corner_scales_match_analyze_at_corner() {
        let (tree, tech) = setup(90, 7);
        let rules = tech.rules();
        let corner = snr_tech::Corner::slow();
        let mut asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::with_scales(
            &tree,
            &tech,
            &asg,
            corner.r_scale(),
            corner.c_scale(),
        );
        assert_summary_close(inc.summary(), &analyze_at_corner(&tree, &tech, &asg, corner));
        let edge = tree.edges().nth(3).unwrap();
        let cand = inc.try_edge(&tree, &tech, edge, rules.default_id());
        asg.set(edge, rules.default_id());
        assert_summary_close(cand, &analyze_at_corner(&tree, &tech, &asg, corner));
    }

    #[test]
    fn unbuffered_tree_supported() {
        use snr_cts::h_tree;
        use snr_geom::{Point, Rect};
        let area = Rect::new(Point::new(0, 0), Point::new(800_000, 800_000));
        let tree = h_tree(area, 3, 8.0);
        let tech = Technology::n45();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let full = analyze(&tree, &tech, &asg);
        assert_summary_close(inc.summary(), &full);
        let edge = tree.edges().last().unwrap();
        let cand = inc.try_edge(&tree, &tech, edge, tech.rules().most_conservative_id());
        let mut m = asg.clone();
        m.set(edge, tech.rules().most_conservative_id());
        assert_summary_close(cand, &analyze(&tree, &tech, &m));
    }

    /// A clone copies the committed state and nothing pending or memoized:
    /// cloned from mid-probe, with a memo filled, it has no candidate, and
    /// it then answers every probe, try and commit as the original does,
    /// bit for bit.
    #[test]
    fn a_clone_answers_as_the_original_without_its_scratch() {
        let (tree, tech) = setup(150, 4);
        let rules = tech.rules();
        let edges: Vec<NodeId> = tree.edges().collect();
        let asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        assert!(inc.scratch.rule_ep.is_empty(), "a new analyzer holds no candidate arrays");
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let e = edges[rng.gen_range(0..edges.len())];
            inc.probe_edge(&tree, &tech, e, RuleId(rng.gen_range(0..rules.len())));
            inc.try_edge(&tree, &tech, e, RuleId(rng.gen_range(0..rules.len())));
            inc.commit();
        }
        inc.try_edge(&tree, &tech, edges[3], rules.default_id());
        let mut copy = inc.clone();
        assert!(copy.scratch.memo.is_empty() && copy.scratch.rule_ep.is_empty());
        assert_eq!(copy.pending_cone(), 0..0, "the clone has nothing pending");
        inc.rollback();
        for step in 0..200 {
            let e = edges[rng.gen_range(0..edges.len())];
            let r = RuleId(rng.gen_range(0..rules.len()));
            if step % 2 == 0 {
                assert_eq!(copy.probe_edge(&tree, &tech, e, r), inc.probe_edge(&tree, &tech, e, r));
                continue;
            }
            assert_eq!(copy.try_edge(&tree, &tech, e, r), inc.try_edge(&tree, &tech, e, r));
            if step % 3 == 0 {
                copy.commit();
                inc.commit();
            } else {
                copy.rollback();
                inc.rollback();
            }
            assert_eq!(copy.summary(), inc.summary());
        }
    }

    #[test]
    #[should_panic(expected = "no pending candidate")]
    fn commit_without_try_panics() {
        let (tree, tech) = setup(20, 1);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        inc.commit();
    }
}
