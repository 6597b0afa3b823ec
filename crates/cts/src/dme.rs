//! Buffered Deferred-Merge Embedding (DME) with exact Elmore balancing.
//!
//! The classic zero-skew-tree construction (Chao–Hsu–Kahng / Boese–Kahng):
//! a bottom-up pass computes, for every merge of the [`TopologyPlan`], the
//! *merging region* — the locus of merge locations that equalize the Elmore
//! delays of the two subtrees — together with the wire lengths assigned to
//! each side (allowing snaking when one side is much faster); a top-down
//! pass then fixes each node at the point of its region closest to its
//! already-placed parent.
//!
//! [`build_buffered_tree`] extends the merge step with *buffered DME*:
//! subtrees whose accumulated capacitance exceeds the stage-cap limit are
//! capped with a buffer before merging, and edges whose wire capacitance
//! alone exceeds the limit receive evenly spaced repeaters. Both delays are
//! folded into the balance equation, so the finished tree keeps
//! (near-)exactly zero Elmore skew — which the timing crate's tests verify
//! end-to-end.
//!
//! With repeaters the balance has no closed form, so each merge solves for
//! it numerically: for the split point of the merge distance, or for a
//! snaked length. The answer is defined as a bisection's: the midpoint of
//! the final interval of 100 halvings. Every balance function is built from
//! rounded monotone operations, so it is non-decreasing on the floats, and
//! each halving's verdict is fixed by the last float below the sign change.
//! Secant steps and an ulp gallop find that float in a few evaluations;
//! replaying the halvings against it costs none and returns the
//! bisection's answer bit for bit.

use crate::{ClockTree, CtsError, CtsOptions, NodeId, NodeKind, PlanNode, TopologyPlan};
use snr_geom::{lshape_via, Point, Trr};
use snr_netlist::Design;
use snr_tech::{units, BufferCell, Technology};

/// Per-plan-node bottom-up state.
struct MergeState {
    /// Merging region (locus of feasible locations).
    region: Trr,
    /// Subtree Elmore delay from this node to its sinks, ps.
    delay_ps: f64,
    /// Subtree capacitance seen at this node, fF.
    cap_ff: f64,
    /// Designed wire lengths to the two children, nm (0 for leaves).
    child_len_nm: [f64; 2],
    /// Repeaters inserted along each child edge.
    child_reps: [u32; 2],
    /// Buffer cell inserted at this node.
    buffer: Option<usize>,
}

fn pick_cell(tech: &Technology, opts: &CtsOptions, load_ff: f64) -> Result<usize, CtsError> {
    let lib = tech.buffers();
    let cell = lib
        .smallest_for_slew(load_ff, opts.slew_target_ps())
        .or_else(|| lib.smallest_for_slew(load_ff, 3.0 * opts.slew_target_ps()))
        .ok_or_else(|| {
            CtsError::new(format!(
                "no buffer can drive {load_ff:.1} fF within 3x slew target {:.0} ps",
                opts.slew_target_ps()
            ))
        })?;
    lib.cells()
        .iter()
        .position(|c| c.name() == cell.name())
        .ok_or_else(|| CtsError::new(format!("buffer cell {:?} not in the library", cell.name())))
}

/// Electrical model of one tree edge: uniform wire of the construction rule
/// with `k` evenly spaced repeaters.
#[derive(Clone, Copy)]
struct EdgeModel<'a> {
    /// Unit resistance, kΩ/µm.
    r: f64,
    /// Unit capacitance, fF/µm.
    c: f64,
    /// Stage-cap limit driving repeater count, fF.
    cmax: f64,
    /// Repeater cell.
    rep: &'a BufferCell,
}

impl EdgeModel<'_> {
    /// Repeater count for an edge of `e_um` µm.
    fn reps_for(&self, e_um: f64) -> u32 {
        if self.c * e_um > self.cmax {
            ((self.c * e_um) / self.cmax).ceil() as u32 - 1
        } else {
            0
        }
    }

    /// Delay through an edge of `e_um` with `k` repeaters driving
    /// `load_ff`, and the capacitance seen at the top of the edge.
    fn eval(&self, e_um: f64, k: u32, load_ff: f64) -> (f64, f64) {
        let seg = e_um / f64::from(k + 1);
        let mut t = 0.0;
        let mut cap = load_ff;
        for i in 0..=k {
            t += self.r * seg * (self.c * seg / 2.0 + cap);
            cap += self.c * seg;
            if i < k {
                t += self.rep.delay_ps(cap);
                cap = self.rep.input_cap_ff();
            }
        }
        (t, cap)
    }
}

/// Result of balancing one merge.
struct Split {
    ea_um: f64,
    eb_um: f64,
    ka: u32,
    kb: u32,
    /// Elmore delay of the merged node (either side, they are equal).
    delay_ps: f64,
    /// Capacitance seen at the merge point.
    cap_ff: f64,
}

/// Splits the merge distance `d_um` into the wire lengths `(ea, eb)` that
/// equalize the two subtrees' delays (snaking one side when needed), with
/// repeater counts consistent with the final lengths.
fn solve_split(
    model: &EdgeModel<'_>,
    (ta, ca): (f64, f64),
    (tb, cb): (f64, f64),
    d_um: f64,
) -> Split {
    // Iterate on the repeater counts: fix (ka, kb), solve the continuous
    // balance exactly, then check the counts still *cover* the stage-cap
    // requirement of the solved lengths. When the balance target falls in
    // the delay discontinuity at a count threshold, a count larger than the
    // minimum is legal (a repeater on a shorter edge just splits the stage
    // further), so coverage — not equality — is the convergence test, and
    // counts only ever grow: the loop terminates.
    let (mut ea, mut eb) = closed_form_split(model.r, model.c, (ta, ca), (tb, cb), d_um);
    let mut ka = model.reps_for(ea);
    let mut kb = model.reps_for(eb);
    loop {
        let balance =
            |x_a: f64, x_b: f64| ta + model.eval(x_a, ka, ca).0 - (tb + model.eval(x_b, kb, cb).0);
        let all_on_b = balance(0.0, d_um);
        let (na, nb) = if all_on_b >= 0.0 {
            // Side a is slower even with the whole span on b: snake b.
            let target = |e: f64| tb + model.eval(e, kb, cb).0 - ta;
            (0.0, solve_increasing(target, d_um))
        } else {
            let all_on_a = balance(d_um, 0.0);
            if all_on_a <= 0.0 {
                let target = |e: f64| ta + model.eval(e, ka, ca).0 - tb;
                (solve_increasing(target, d_um), 0.0)
            } else {
                // Root of balance(x, d-x) in (0, d), between the two ends
                // just computed.
                let x = bisect(|x| balance(x, d_um - x), (0.0, all_on_b), (d_um, all_on_a));
                (x, d_um - x)
            }
        };
        ea = na;
        eb = nb;
        let (need_a, need_b) = (model.reps_for(ea), model.reps_for(eb));
        if need_a <= ka && need_b <= kb {
            break;
        }
        ka = ka.max(need_a);
        kb = kb.max(need_b);
    }
    let (da, cap_a) = model.eval(ea, ka, ca);
    let (_, cap_b) = model.eval(eb, kb, cb);
    // Extreme-but-valid inputs (a sink pin near the capacitance bound, a
    // near-reticle-size span) can saturate the snaking solver, leaving a
    // residual imbalance. The split is still a structurally sound tree; the
    // imbalance surfaces as skew, which the timing analyzer reports and the
    // feasibility checks reject — so accept it rather than assert.
    Split {
        ea_um: ea,
        eb_um: eb,
        ka,
        kb,
        delay_ps: ta + da,
        cap_ff: cap_a + cap_b,
    }
}

/// Exact closed-form split for the pure-wire (no repeater) case; also the
/// starting point for the repeater-aware iteration.
fn closed_form_split(
    r: f64,
    c: f64,
    (ta, ca): (f64, f64),
    (tb, cb): (f64, f64),
    d_um: f64,
) -> (f64, f64) {
    let denom = r * (ca + cb + c * d_um);
    let ea = if denom > 0.0 {
        ((tb - ta) + r * d_um * (cb + c * d_um / 2.0)) / denom
    } else {
        d_um / 2.0
    };
    if ea < 0.0 {
        (0.0, snake_length_um(r, c, cb, ta - tb).max(d_um))
    } else if ea > d_um {
        (snake_length_um(r, c, ca, tb - ta).max(d_um), 0.0)
    } else {
        (ea, d_um - ea)
    }
}

/// Finds `e >= lo` with `f(e) = 0` for a continuous increasing `f` with
/// `f(lo) <= 0` (doubling, then [`bisect`]).
fn solve_increasing(f: impl Fn(f64) -> f64, lo: f64) -> f64 {
    let f_lo = f(lo);
    if f_lo >= 0.0 {
        return lo;
    }
    let mut hi = (lo * 2.0).max(1.0);
    let mut f_hi = f(hi);
    let mut guard = 0;
    while f_hi < 0.0 && guard < 80 {
        hi *= 2.0;
        f_hi = f(hi);
        guard += 1;
    }
    bisect(f, (lo, f_lo), (hi, f_hi))
}

/// What bisecting `[lo, hi]` for the sign change of a non-decreasing `f`
/// returns: the midpoint of the final interval of 100 halvings, each keeping
/// the upper half when `f(mid) < 0`. Takes `f` at both ends, with
/// `f(lo) < 0`.
///
/// `f(mid) < 0` holds exactly when `mid <= x*`, the last float with
/// `f(x*) < 0`, so the halvings replay against `x*` without evaluating `f`.
/// [`last_negative`] finds `x*` when `f(hi) >= 0`. Otherwise (the doubling
/// guard of [`solve_increasing`] ran out) every midpoint lies at or below
/// `hi`, where `f` is still negative, so `hi` stands in for `x*`.
fn bisect(f: impl Fn(f64) -> f64, (lo, f_lo): (f64, f64), (hi, f_hi): (f64, f64)) -> f64 {
    debug_assert!(f_lo < 0.0, "bisect needs f(lo) < 0, got {f_lo}");
    let x = if f_hi >= 0.0 {
        last_negative(&f, (lo, f_lo), (hi, f_hi))
    } else {
        hi
    };
    halve(lo, hi, x)
}

/// Halves `[lo, hi]` at most 100 times, keeping the upper half where the
/// midpoint is at most `x`, and returns the final interval's midpoint. It
/// stops once the midpoint rounds to an endpoint: from there every halving
/// keeps the interval or collapses it onto that midpoint, so the answer is
/// already the one all 100 halvings give, bit for bit.
fn halve(mut lo: f64, mut hi: f64, x: f64) -> f64 {
    for _ in 0..100 {
        let mid = (lo + hi) / 2.0;
        if mid == lo || mid == hi {
            break;
        }
        if mid <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Secant steps [`last_negative`] takes before it gallops.
const SECANT_STEPS: usize = 6;

/// The last float `x*` of `[a, b)` with `f(x*) < 0`, for an `f` that is
/// non-decreasing on the floats of `[a, b]`, `0 <= a < b` and
/// `f(a) < 0 <= f(b)` (given as `fa`, `fb`).
///
/// Secant steps through the last two points close in while they land inside
/// the bracket and move by more than an ulp. Then the search gallops from
/// the last point towards the sign change in steps of 1, 2, 4, ... ulps and
/// halves the float gap that is left. Every evaluation narrows the bracket,
/// so the search ends, whatever the steps guess.
fn last_negative(f: impl Fn(f64) -> f64, (mut a, fa): (f64, f64), (mut b, fb): (f64, f64)) -> f64 {
    // Non-negative floats order like their bit patterns (-0.0 maps to 0).
    let ord = |x: f64| x.to_bits() & (u64::MAX >> 1);
    let (mut p, mut fp) = (a, fa);
    let (mut q, mut fq) = (b, fb);
    for _ in 0..SECANT_STEPS {
        let x = q - fq * (q - p) / (fq - fp);
        if !(x > a && x < b) {
            break;
        }
        let fx = f(x);
        if fx < 0.0 {
            a = x;
        } else {
            b = x;
        }
        let moved = ord(x).abs_diff(ord(q));
        (p, fp, q, fq) = (q, fq, x, fx);
        if moved <= 1 {
            break;
        }
    }
    // Gallop away from the last point while the probes keep its sign; once
    // one does not, or a step would leave the bracket, halve the gap.
    let (mut lo, mut hi) = (ord(a), ord(b));
    let up = fq < 0.0;
    let mut step = 1;
    while hi - lo > 1 {
        let galloping = step > 0 && step < hi - lo;
        let mid = match (galloping, up) {
            (false, _) => lo + (hi - lo) / 2,
            (true, true) => lo + step,
            (true, false) => hi - step,
        };
        let negative = f(f64::from_bits(mid)) < 0.0;
        if negative {
            lo = mid;
        } else {
            hi = mid;
        }
        step = if galloping && negative == up { 2 * step } else { 0 };
    }
    f64::from_bits(lo)
}

/// Length of wire (µm) that delays a subtree with load `cap_ff` by
/// `extra_ps`: the positive root of `r·x·(c·x/2 + C) = extra`.
fn snake_length_um(r: f64, c: f64, cap_ff: f64, extra_ps: f64) -> f64 {
    debug_assert!(extra_ps >= 0.0);
    if extra_ps <= 0.0 || r <= 0.0 {
        return 0.0;
    }
    if c <= 0.0 {
        return extra_ps / (r * cap_ff.max(f64::EPSILON));
    }
    ((cap_ff * cap_ff + 2.0 * c * extra_ps / r).sqrt() - cap_ff) / c
}

/// Builds a buffered, Elmore-balanced clock tree for `plan`: buffered DME.
///
/// Wire parasitics are taken from the technology's clock layer at the
/// options' *construction rule* (industrially, trees are built assuming the
/// uniform conservative NDR; the optimizer later relaxes individual edges).
/// Buffers are inserted bottom-up during merging whenever a subtree's
/// accumulated capacitance exceeds the stage-cap limit; long edges receive
/// evenly spaced repeaters. Because insertion happens before each merge is
/// balanced, the wire-length split compensates for buffer delays and the
/// tree keeps (near-)zero Elmore skew even with unequal stage loads. A root
/// driver is always added (a single-sink tree is just its sink).
///
/// # Errors
///
/// Returns [`CtsError`] if the plan does not match the design (wrong sink
/// count or indices — see [`TopologyPlan::check`]), or if no library buffer
/// can drive a stage load within three times the slew target.
pub fn build_buffered_tree(
    design: &Design,
    tech: &Technology,
    opts: &CtsOptions,
    plan: &TopologyPlan,
) -> Result<ClockTree, CtsError> {
    plan.check(design.sinks().len())
        .map_err(|e| CtsError::new(format!("topology plan invalid: {e}")))?;

    let rule = opts.construction_rule();
    let r = tech.clock_unit_r(rule); // kΩ/µm
    let c = tech.clock_unit_c_delay(rule); // fF/µm (effective, for balancing)

    // One mid-size repeater cell for all long-edge repeaters, chosen for the
    // stage-cap design point.
    let rep_idx = pick_cell(tech, opts, opts.max_stage_cap_ff())?;
    let model = EdgeModel {
        r,
        c,
        cmax: opts.max_stage_cap_ff(),
        rep: &tech.buffers().cells()[rep_idx],
    };

    // ---- Bottom-up: merging regions -------------------------------------
    let mut states: Vec<MergeState> = Vec::with_capacity(plan.nodes().len());
    for node in plan.nodes() {
        let state = match node {
            PlanNode::Leaf(sid) => {
                let sink = design
                    .sink(*sid)
                    .ok_or_else(|| CtsError::new(format!("plan references unknown {sid}")))?;
                MergeState {
                    region: Trr::point(sink.location().to_f64()),
                    delay_ps: 0.0,
                    cap_ff: sink.cap_ff(),
                    child_len_nm: [0.0, 0.0],
                    child_reps: [0, 0],
                    buffer: None,
                }
            }
            PlanNode::Merge(ai, bi) => {
                let d_nm = states[*ai].region.distance(&states[*bi].region);
                let d_um = d_nm / units::NM_PER_UM;
                // Pre-buffer a child when its subtree plus the incoming wire
                // would blow the stage-cap limit — this keeps stage loads
                // bounded even across long top-level edges.
                let (ea0, eb0) = closed_form_split(
                    r,
                    c,
                    (states[*ai].delay_ps, states[*ai].cap_ff),
                    (states[*bi].delay_ps, states[*bi].cap_ff),
                    d_um,
                );
                for (idx, e_um) in [(*ai, ea0), (*bi, eb0)] {
                    let is_merge = matches!(plan.nodes()[idx], PlanNode::Merge(..));
                    let side = &states[idx];
                    if is_merge
                        && side.buffer.is_none()
                        && side.cap_ff + c * e_um > opts.max_stage_cap_ff()
                    {
                        let cell = pick_cell(tech, opts, side.cap_ff)?;
                        let cb = &tech.buffers().cells()[cell];
                        let s = &mut states[idx];
                        s.delay_ps += cb.delay_ps(s.cap_ff);
                        s.cap_ff = cb.input_cap_ff();
                        s.buffer = Some(cell);
                    }
                }
                let (a, b) = (&states[*ai], &states[*bi]);
                let split = solve_split(
                    &model,
                    (a.delay_ps, a.cap_ff),
                    (b.delay_ps, b.cap_ff),
                    d_um,
                );
                let ea_nm = split.ea_um * units::NM_PER_UM;
                let eb_nm = split.eb_um * units::NM_PER_UM;
                let region = a
                    .region
                    .expand(ea_nm)
                    .intersect(&b.region.expand(eb_nm))
                    .ok_or_else(|| {
                        CtsError::new(
                            "merge regions failed to intersect (numerically unstable geometry)",
                        )
                    })?;
                let mut state = MergeState {
                    region,
                    delay_ps: split.delay_ps,
                    cap_ff: split.cap_ff,
                    child_len_nm: [ea_nm, eb_nm],
                    child_reps: [split.ka, split.kb],
                    buffer: None,
                };
                if state.cap_ff > opts.max_stage_cap_ff() {
                    let cell = pick_cell(tech, opts, state.cap_ff)?;
                    let cb = &tech.buffers().cells()[cell];
                    state.delay_ps += cb.delay_ps(state.cap_ff);
                    state.cap_ff = cb.input_cap_ff();
                    state.buffer = Some(cell);
                }
                state
            }
        };
        states.push(state);
    }

    // The tree always carries a root driver.
    let ri = plan.root();
    if states[ri].buffer.is_none() && matches!(plan.nodes()[ri], PlanNode::Merge(..)) {
        let cell = pick_cell(tech, opts, states[ri].cap_ff)?;
        states[ri].buffer = Some(cell);
    }

    // ---- Top-down: embedding ---------------------------------------------
    let root_state = &states[plan.root()];
    let root_loc = root_state
        .region
        .closest_to(design.clock_root().to_f64())
        .snap();

    let kind_of = |pi: usize| match &plan.nodes()[pi] {
        PlanNode::Leaf(sid) => NodeKind::Sink {
            sink: *sid,
            // The plan was checked against the design on entry; an unknown
            // sink cannot reach this point.
            cap_ff: design.sink(*sid).map_or(0.0, |s| s.cap_ff()),
        },
        PlanNode::Merge(..) => match states[pi].buffer {
            Some(cell) => NodeKind::Buffer { cell },
            None => NodeKind::Steiner,
        },
    };

    let mut tree = ClockTree::with_root(root_loc, kind_of(plan.root()));
    // Stack of (plan index, tree parent id, designed edge length nm, reps).
    let mut stack = Vec::new();
    if let PlanNode::Merge(a, b) = plan.nodes()[plan.root()] {
        let st = &states[plan.root()];
        stack.push((a, tree.root(), st.child_len_nm[0], st.child_reps[0]));
        stack.push((b, tree.root(), st.child_len_nm[1], st.child_reps[1]));
    }
    while let Some((pi, parent, designed_nm, reps)) = stack.pop() {
        let parent_loc = tree.node(parent).location();
        let loc = states[pi].region.closest_to(parent_loc.to_f64()).snap();
        let id = attach_edge(
            &mut tree,
            parent,
            loc,
            designed_nm,
            reps,
            rep_idx,
            kind_of(pi),
        );
        if let PlanNode::Merge(a, b) = plan.nodes()[pi] {
            let st = &states[pi];
            stack.push((a, id, st.child_len_nm[0], st.child_reps[0]));
            stack.push((b, id, st.child_len_nm[1], st.child_reps[1]));
        }
    }

    debug_assert!(tree.check().is_ok(), "DME must produce a valid tree");
    Ok(tree)
}

/// Adds the edge `parent → child_loc`, materializing `reps` repeaters of
/// library cell `cell` evenly spaced along the L-shaped route, and returns
/// the child's id.
fn attach_edge(
    tree: &mut ClockTree,
    parent: NodeId,
    child_loc: Point,
    designed_nm: f64,
    reps: u32,
    cell: usize,
    child_kind: NodeKind,
) -> NodeId {
    let parent_loc = tree.node(parent).location();
    let manhattan = parent_loc.manhattan(child_loc);
    let total_nm = (designed_nm.round() as i64).max(manhattan);
    if reps == 0 {
        return tree.add_node(child_kind, child_loc, parent, total_nm);
    }
    let via = lshape_via(parent_loc, child_loc);
    let leg1 = parent_loc.manhattan(via);
    let mut cur = parent;
    let links = i64::from(reps) + 1;
    let seg_designed = total_nm / links;
    let mut prev_loc = parent_loc;
    for i in 1..=i64::from(reps) {
        // Physical position at fraction i/(reps+1) along the L-path.
        let s = manhattan * i / links;
        let pos = if s <= leg1 {
            point_towards(parent_loc, via, s)
        } else {
            point_towards(via, child_loc, s - leg1)
        };
        let seg = seg_designed.max(prev_loc.manhattan(pos));
        cur = tree.add_node(NodeKind::Buffer { cell }, pos, cur, seg);
        prev_loc = pos;
    }
    let last = (total_nm - seg_designed * i64::from(reps)).max(prev_loc.manhattan(child_loc));
    tree.add_node(child_kind, child_loc, cur, last)
}

/// The point at Manhattan distance `s` from `a` towards `b` along their
/// axis-parallel connection (`a` and `b` must share a row or column).
fn point_towards(a: Point, b: Point, s: i64) -> Point {
    let d = a.manhattan(b);
    if d == 0 {
        return a;
    }
    let s = s.clamp(0, d);
    Point::new(a.x + (b.x - a.x) * s / d, a.y + (b.y - a.y) * s / d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisection_topology;
    use snr_netlist::BenchmarkSpec;
    use snr_tech::Rule;

    fn setup(n: usize) -> (Design, Technology, CtsOptions, ClockTree) {
        let design = BenchmarkSpec::new("t", n).seed(5).build().unwrap();
        let tech = Technology::n45();
        let opts = CtsOptions::default();
        let plan = bisection_topology(&design);
        let tree = build_buffered_tree(&design, &tech, &opts, &plan).unwrap();
        (design, tech, opts, tree)
    }

    /// Root-to-sink Elmore delays computed directly on the tree, for the
    /// construction rule (independent reimplementation for the test): each
    /// buffer isolates its subtree behind its input pin and adds its stage
    /// delay for the load it drives.
    fn elmore_delays(tree: &ClockTree, tech: &Technology, rule: Rule) -> Vec<f64> {
        let r = tech.clock_unit_r(rule);
        let c = tech.clock_unit_c_delay(rule);
        let cells = tech.buffers().cells();
        let n = tree.len();
        // `load[v]`: what v drives; `seen[v]`: what v presents upstream.
        let mut load = vec![0.0f64; n];
        let mut seen = vec![0.0f64; n];
        for id in tree.postorder() {
            let node = tree.node(id);
            let mut acc = match node.kind() {
                NodeKind::Sink { cap_ff, .. } => cap_ff,
                _ => 0.0,
            };
            for ch in tree.children(id) {
                let len_um = tree.node(ch).edge_len_nm() as f64 / 1_000.0;
                acc += seen[ch.0] + c * len_um;
            }
            load[id.0] = acc;
            seen[id.0] = match node.kind() {
                NodeKind::Buffer { cell } => cells[cell].input_cap_ff(),
                _ => acc,
            };
        }
        let mut out_time = vec![0.0f64; n];
        let mut delays = Vec::new();
        for id in tree.topo_order() {
            let node = tree.node(id);
            let mut t = 0.0;
            if let Some(p) = node.parent() {
                let len_um = node.edge_len_nm() as f64 / 1_000.0;
                t = out_time[p.0] + r * len_um * (c * len_um / 2.0 + seen[id.0]);
            }
            if let NodeKind::Buffer { cell } = node.kind() {
                t += cells[cell].delay_ps(load[id.0]);
            }
            out_time[id.0] = t;
            if node.kind().is_sink() {
                delays.push(t);
            }
        }
        delays
    }

    #[test]
    fn produces_valid_tree_with_all_sinks() {
        let (design, _, _, tree) = setup(100);
        tree.check().unwrap();
        assert_eq!(tree.sink_nodes().len(), design.sinks().len());
    }

    #[test]
    fn zero_skew_by_construction() {
        for n in [2usize, 17, 100, 333] {
            let (_, tech, opts, tree) = setup(n);
            let delays = elmore_delays(&tree, &tech, opts.construction_rule());
            let max = delays.iter().cloned().fold(f64::MIN, f64::max);
            let min = delays.iter().cloned().fold(f64::MAX, f64::min);
            // Nanometre snapping leaves sub-ps residue; the construction is
            // otherwise exact.
            assert!(max - min < 0.5, "skew {} ps too large for n={n}", max - min);
        }
    }

    #[test]
    fn buffered_tree_valid_and_repeated() {
        let design = BenchmarkSpec::new("big", 1500).seed(9).build().unwrap();
        let tech = Technology::n45();
        let opts = CtsOptions::default();
        let plan = bisection_topology(&design);
        let tree = build_buffered_tree(&design, &tech, &opts, &plan).unwrap();
        tree.check().unwrap();
        assert_eq!(tree.sink_nodes().len(), 1500);
        assert!(tree.node(tree.root()).kind().is_buffer());
        // No edge may carry more wire capacitance than the stage limit plus
        // the rounding of one repeater segment.
        let c = tech.clock_unit_c(opts.construction_rule());
        for e in tree.edges() {
            let wire_ff = c * tree.node(e).edge_len_nm() as f64 / 1_000.0;
            assert!(
                wire_ff <= opts.max_stage_cap_ff() * 1.2,
                "edge wire cap {wire_ff:.1} fF exceeds stage limit"
            );
        }
    }

    #[test]
    fn stage_caps_bounded() {
        // Recompute stage loads on the finished tree: no buffer may drive
        // more than the limit by more than the decision granularity (one
        // merge's wire on top of a subtree just under the limit).
        let (_, tech, opts, tree) = setup(300);
        let c = tech.clock_unit_c_delay(opts.construction_rule());
        let cells = tech.buffers().cells();
        let mut acc = vec![0.0f64; tree.len()];
        let mut worst: f64 = 0.0;
        for id in tree.postorder() {
            let node = tree.node(id);
            let mut a = match node.kind() {
                NodeKind::Sink { cap_ff, .. } => cap_ff,
                NodeKind::Buffer { .. } | NodeKind::Steiner => 0.0,
            };
            for ch in tree.children(id) {
                let wire = c * tree.node(ch).edge_len_nm() as f64 / 1_000.0;
                let below = match tree.node(ch).kind() {
                    NodeKind::Buffer { cell } => cells[cell].input_cap_ff(),
                    _ => acc[ch.0],
                };
                a += wire + below;
            }
            acc[id.0] = a;
            if node.kind().is_buffer() {
                worst = worst.max(a);
            }
        }
        let limit = opts.max_stage_cap_ff();
        assert!(
            worst <= 2.5 * limit,
            "worst stage cap {worst:.1} fF far exceeds limit {limit}"
        );
    }

    #[test]
    fn single_sink_tree() {
        let (design, _, _, tree) = setup(1);
        assert_eq!(tree.len(), 1);
        assert!(tree.node(tree.root()).kind().is_sink());
        let _ = design;
    }

    #[test]
    fn wirelength_at_least_spanning_lower_bound() {
        let (design, _, _, tree) = setup(50);
        let wl_nm: i64 = tree.nodes().iter().map(|n| n.edge_len_nm()).sum();
        assert!(wl_nm >= design.hpwl_nm());
    }

    #[test]
    fn snake_length_solves_balance() {
        let (r, c, cap, extra) = (0.002, 0.2, 50.0, 30.0);
        let x = snake_length_um(r, c, cap, extra);
        let achieved = r * x * (c * x / 2.0 + cap);
        assert!((achieved - extra).abs() < 1e-9);
        assert_eq!(snake_length_um(r, c, cap, 0.0), 0.0);
    }

    /// The model of the repeater tests: N45-like unit parasitics, a
    /// 120 fF stage limit and library cell 3 as repeater.
    fn model(tech: &Technology) -> EdgeModel<'_> {
        EdgeModel {
            r: 0.00224,
            c: 0.196,
            cmax: 120.0,
            rep: &tech.buffers().cells()[3],
        }
    }

    #[test]
    fn edge_model_matches_closed_form_without_repeaters() {
        let tech = Technology::n45();
        let m = EdgeModel {
            r: 0.002,
            c: 0.2,
            ..model(&tech)
        };
        let (d, cap) = m.eval(100.0, 0, 40.0);
        let expect = 0.002 * 100.0 * (0.2 * 100.0 / 2.0 + 40.0);
        assert!((d - expect).abs() < 1e-9);
        assert!((cap - (40.0 + 0.2 * 100.0)).abs() < 1e-9);
    }

    #[test]
    fn repeaters_reduce_long_edge_delay() {
        let tech = Technology::n45();
        let m = model(&tech);
        let (d0, _) = m.eval(3_000.0, 0, 30.0);
        let k = m.reps_for(3_000.0);
        assert!(k >= 3);
        let (dk, cap) = m.eval(3_000.0, k, 30.0);
        assert!(dk < d0, "repeated edge {dk} not faster than bare {d0}");
        assert!(cap < 0.196 * 3_000.0, "upstream sees only the first segment");
    }

    #[test]
    fn solve_split_balances_with_repeaters() {
        let tech = Technology::n45();
        let m = model(&tech);
        let (ta, ca) = (100.0, 60.0);
        let (tb, cb) = (140.0, 90.0);
        let d = 2_000.0;
        let s = solve_split(&m, (ta, ca), (tb, cb), d);
        let da = ta + m.eval(s.ea_um, s.ka, ca).0;
        let db = tb + m.eval(s.eb_um, s.kb, cb).0;
        assert!((da - db).abs() < 0.01, "unbalanced: {da} vs {db}");
        assert!((s.ea_um + s.eb_um - d).abs() < 1e-6 || s.ea_um == 0.0 || s.eb_um == 0.0);
    }

    /// `solve_increasing` as it was with a fixed 100-halving bisection: the
    /// reference for the root search. Also says whether the halvings
    /// stopped at their cap (see [`bisect_fixed`]).
    fn solve_increasing_fixed(f: impl Fn(f64) -> f64, lo: f64) -> (f64, bool) {
        if f(lo) >= 0.0 {
            return (lo, false);
        }
        let mut hi = (lo * 2.0).max(1.0);
        let mut guard = 0;
        while f(hi) < 0.0 && guard < 80 {
            hi *= 2.0;
            guard += 1;
        }
        bisect_fixed(f, lo, hi)
    }

    /// The fixed 100-halving bisection both loops of `solve_split` ran, and
    /// whether its last midpoint still fell strictly inside the interval,
    /// i.e. the cap, not float resolution, ended it.
    fn bisect_fixed(f: impl Fn(f64) -> f64, mut lo: f64, mut hi: f64) -> (f64, bool) {
        let mut capped = false;
        for _ in 0..100 {
            let mid = (lo + hi) / 2.0;
            capped = mid != lo && mid != hi;
            if f(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        ((lo + hi) / 2.0, capped)
    }

    /// A balance problem as `solve_split` poses it for fixed repeater
    /// counts: subtree a with delay `ta` and load `ca` behind `ka`
    /// repeaters, subtree b likewise, a span of `d` µm.
    struct Balance<'a> {
        m: EdgeModel<'a>,
        d: f64,
        ka: u32,
        kb: u32,
        ca: f64,
        cb: f64,
        ta: f64,
        tb: f64,
    }

    /// Which root `solve_split` looks for.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Branch {
        /// The split point of the span.
        Split,
        /// A snaked length on side b.
        SnakeB,
        /// A snaked length on side a.
        SnakeA,
    }

    impl Balance<'_> {
        fn balance(&self, x_a: f64, x_b: f64) -> f64 {
            self.ta + self.m.eval(x_a, self.ka, self.ca).0
                - (self.tb + self.m.eval(x_b, self.kb, self.cb).0)
        }

        fn branch(&self) -> Branch {
            if self.balance(0.0, self.d) >= 0.0 {
                Branch::SnakeB
            } else if self.balance(self.d, 0.0) <= 0.0 {
                Branch::SnakeA
            } else {
                Branch::Split
            }
        }

        /// The function the branch's search finds the sign change of.
        fn target(&self, branch: Branch, x: f64) -> f64 {
            match branch {
                Branch::Split => self.balance(x, self.d - x),
                Branch::SnakeB => self.tb + self.m.eval(x, self.kb, self.cb).0 - self.ta,
                Branch::SnakeA => self.ta + self.m.eval(x, self.ka, self.ca).0 - self.tb,
            }
        }

        /// The root as `solve_split` finds it, and the fixed loops' root
        /// with whether they stopped at their cap.
        fn roots(&self, branch: Branch) -> (f64, (f64, bool)) {
            let f = |x: f64| self.target(branch, x);
            match branch {
                Branch::Split => {
                    let ends = ((0.0, self.balance(0.0, self.d)), (self.d, self.balance(self.d, 0.0)));
                    (bisect(f, ends.0, ends.1), bisect_fixed(f, 0.0, self.d))
                }
                _ => (solve_increasing(f, self.d), solve_increasing_fixed(f, self.d)),
            }
        }
    }

    /// Deterministic splitmix64 draws in `[0, 1]`.
    struct Unit(u64);

    impl Unit {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        }
    }

    /// Problem `i` of the random corpus: spans of 0 µm, up to 5 000 µm and
    /// log-uniform up to 5e5 µm; 0–20 repeaters a side; the balance point at
    /// a random fraction of the span, within 1e-20–1e-3 of either end, or
    /// outside it to force a snake; one problem in 25 with a skew no
    /// doubling can reach, so `solve_increasing`'s guard runs out.
    fn problem<'a>(m: EdgeModel<'a>, i: usize, u: &mut Unit) -> Balance<'a> {
        let d = match i % 10 {
            0 => 0.0,
            1..=5 => 5_000.0 * u.next(),
            _ => 10f64.powf(5.7 * u.next()),
        };
        let reps = |x: f64| (21.0 * x) as u32;
        let (ka, kb) = (reps(u.next()), reps(u.next()));
        let (ca, cb) = (5.0 + 200.0 * u.next(), 5.0 + 200.0 * u.next());
        let ta = 300.0 * u.next();
        let near_end = 10f64.powf(-20.0 + 17.0 * u.next());
        let frac = match i % 5 {
            0 => u.next(),
            1 => near_end,
            2 => 1.0 - near_end,
            3 => -1.0 - u.next(),
            _ => 2.0 + u.next(),
        };
        let x0 = frac.clamp(0.0, 1.0) * d;
        let skew = match i % 25 {
            24 => 1e60,
            _ => 500.0 * (frac - frac.clamp(0.0, 1.0)),
        };
        let mut p = Balance { m, d, ka, kb, ca, cb, ta, tb: 0.0 };
        p.tb = ta + p.m.eval(x0, ka, ca).0 - p.m.eval(d - x0, kb, cb).0 + skew;
        p
    }

    /// Random balance problems, solved the way `solve_split` solves them
    /// for fixed repeater counts: the root search returns the fixed loops'
    /// bits, also where those stop at their cap before float resolution and
    /// where the doubling guard runs out.
    #[test]
    fn early_exit_bisection_matches_the_fixed_loops() {
        let tech = Technology::n45();
        let mut u = Unit(0x5eed);
        let mut seen = [0usize; 3];
        let (mut near_zero, mut near_d, mut with_reps, mut many_reps) = (0, 0, 0, 0);
        let (mut capped, mut exhausted, mut wide) = (0, 0, 0);
        for i in 0..4_000 {
            let p = problem(model(&tech), i, &mut u);
            let branch = p.branch();
            let (root, (fixed, at_cap)) = p.roots(branch);
            assert_eq!(
                root.to_bits(),
                fixed.to_bits(),
                "problem {i}: d {}, counts ({}, {}), {branch:?}, root {root}, fixed {fixed}",
                p.d,
                p.ka,
                p.kb
            );
            seen[branch as usize] += 1;
            if branch == Branch::Split {
                near_zero += usize::from(root < 1e-13 * p.d);
                near_d += usize::from(root > (1.0 - 1e-13) * p.d);
            }
            capped += usize::from(at_cap);
            // The last doubling `solve_increasing` tries.
            let top = (2.0 * p.d).max(1.0) * 2f64.powi(80);
            exhausted += usize::from(branch != Branch::Split && p.target(branch, top) < 0.0);
            wide += usize::from(p.d > 1e5);
            with_reps += usize::from(p.ka + p.kb > 0);
            many_reps += usize::from(p.ka.max(p.kb) >= 15);
        }
        assert!(seen.iter().all(|&k| k >= 400), "branches seen {seen:?}");
        assert!(near_zero >= 50 && near_d >= 50, "edge roots {near_zero}/{near_d}");
        assert!(capped >= 50, "{capped} problems where the fixed loop stopped at its cap");
        assert!(exhausted >= 100, "{exhausted} problems ran out of doublings");
        assert!(wide >= 150, "{wide} spans above 1e5 µm");
        assert!(with_reps >= 3_000 && many_reps >= 1_000, "repeaters {with_reps}/{many_reps}");
    }

    /// Exactness rests on each balance function being non-decreasing on the
    /// floats: on the corpus above, `f(x) <= f(next_up(x))` at random points
    /// of the searched interval and at the floats around the root.
    #[test]
    fn balance_functions_are_monotone_on_adjacent_floats() {
        let tech = Technology::n45();
        let mut u = Unit(0x0dd5);
        let mut pairs = 0usize;
        for i in 0..1_000 {
            let p = problem(model(&tech), i, &mut u);
            let branch = p.branch();
            let (root, _) = p.roots(branch);
            let span = match branch {
                Branch::Split => p.d,
                _ => (2.0 * root).max(1.0),
            };
            let mut xs: Vec<f64> = (0..8).map(|_| span * u.next()).collect();
            let mut x = root;
            for _ in 0..8 {
                x = x.next_down().max(0.0);
            }
            for _ in 0..16 {
                xs.push(x);
                x = x.next_up();
            }
            for x in xs {
                let (fx, fy) = (p.target(branch, x), p.target(branch, x.next_up()));
                assert!(fx <= fy, "problem {i} {branch:?}: f({x:e}) = {fx:e} > f(next) = {fy:e}");
                pairs += 1;
            }
        }
        assert_eq!(pairs, 24_000);
    }

    #[test]
    fn deterministic() {
        let (_, _, _, t1) = setup(64);
        let (_, _, _, t2) = setup(64);
        assert_eq!(t1, t2);
    }

    #[test]
    fn rejects_mismatched_plan() {
        let d1 = BenchmarkSpec::new("a", 10).seed(1).build().unwrap();
        let d2 = BenchmarkSpec::new("b", 20).seed(2).build().unwrap();
        let plan = bisection_topology(&d1);
        let tech = Technology::n45();
        assert!(build_buffered_tree(&d2, &tech, &CtsOptions::default(), &plan).is_err());
    }

    #[test]
    fn point_towards_interpolates_on_axis() {
        let a = Point::new(0, 0);
        let b = Point::new(10, 0);
        assert_eq!(point_towards(a, b, 4), Point::new(4, 0));
        assert_eq!(point_towards(a, b, 0), a);
        assert_eq!(point_towards(a, b, 10), b);
        assert_eq!(point_towards(a, a, 5), a);
    }
}
