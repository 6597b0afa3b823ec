//! Multi-lane batched timing kernel: [`BatchAnalyzer`].

use crate::TimingSummary;
use snr_cts::{Assignment, ClockTree, NodeId, TreeArena};
use snr_tech::{BufferCell, Corner, Technology};

const LN9: f64 = 2.197_224_577_336_219_6;

/// Nominal per-edge parasitics for a fixed `(tree, assignment)` pair.
///
/// The batch kernel multiplies these by each lane's scale factors on the
/// fly. Monte-Carlo sampling evaluates hundreds of lane chunks against the
/// *same* tree and assignment — computing the nominals once up front (one
/// rule lookup per edge, total) and passing them to
/// [`BatchAnalyzer::run_scaled_nominal`] keeps the rule-table sweep out of
/// every chunk.
///
/// The values are exactly what [`BatchAnalyzer::run_at_corners`] computes
/// internally per call, with the serial analyzer's `unit · len`
/// association, so every lane stays bit-identical to the serial analyzer.
#[derive(Debug, Clone)]
pub struct EdgeNominals {
    /// Per-edge nominal resistance `unit_r(rule) · len_um`, kΩ.
    r: Vec<f64>,
    /// Per-edge nominal effective capacitance `unit_c_delay(rule) · len_um`, fF.
    c: Vec<f64>,
}

impl EdgeNominals {
    /// Computes the nominal parasitics of every edge under `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not match the tree or references a
    /// rule outside the technology's rule set (the same contract as
    /// [`BatchAnalyzer::run_at_corners`]).
    pub fn compute(tree: &ClockTree, tech: &Technology, assignment: &Assignment) -> Self {
        let mut r = Vec::new();
        let mut c = Vec::new();
        fill_nominals(tree, tech, assignment, &mut r, &mut c);
        EdgeNominals { r, c }
    }

    /// Number of edges (= tree nodes) the nominals were computed for.
    pub fn len(&self) -> usize {
        self.r.len()
    }

    /// Whether the nominals cover zero nodes (never for a real tree).
    pub fn is_empty(&self) -> bool {
        self.r.is_empty()
    }
}

/// Writes per-edge nominal parasitics (`unit · len` under each edge's
/// assigned rule) into `r`/`c`, resized to `tree.len()`; the root entries
/// stay zero.
///
/// # Panics
///
/// Panics if the assignment does not match the tree or references a rule
/// outside the technology's rule set.
fn fill_nominals(
    tree: &ClockTree,
    tech: &Technology,
    assignment: &Assignment,
    r: &mut Vec<f64>,
    c: &mut Vec<f64>,
) {
    assert_eq!(
        assignment.len(),
        tree.len(),
        "assignment built for a different tree"
    );
    let arena = tree.arena();
    let layer = tech.clock_layer();
    let rules = tech.rules();
    let parents = arena.parents();
    let len_um = arena.len_um();
    let n = tree.len();
    r.clear();
    r.resize(n, 0.0);
    c.clear();
    c.resize(n, 0.0);
    for v in 0..n {
        if parents[v] == snr_cts::NO_PARENT {
            continue;
        }
        let rule = rules
            .get(assignment.rule(NodeId(v)))
            .expect("assignment references a rule outside the technology rule set");
        r[v] = layer.unit_r(rule) * len_um[v];
        c[v] = layer.unit_c_delay(rule) * len_um[v];
    }
}

/// A reusable K-lane batched Elmore/PERI analyzer.
///
/// Monte-Carlo variation sampling and process-corner sweeps evaluate the
/// *same tree and assignment* under many different per-edge parasitic
/// scalings. Running [`Analyzer::run_scaled`] once per scaling re-reads the
/// tree structure, geometry, and rule tables every time — at 100k+ sinks
/// that redundant traversal dominates the runtime.
///
/// `BatchAnalyzer` evaluates K *lanes* (one scaling each) in **one**
/// topological traversal. State is lane-major structure-of-arrays
/// (`value[node * K + lane]`), so the per-node work is a short contiguous
/// inner loop over lanes while the tree walk, the CSR arena reads, and the
/// per-edge rule lookups happen once per K lanes.
///
/// Every lane reproduces the serial analyzer **bit for bit**: the kernel
/// performs the identical floating-point operations in the identical order
/// per lane (nominal parasitics are factored as `(unit · len) · scale`,
/// exactly the serial association), and the aggregate folds (`max`/`min`)
/// are order-independent. The Monte-Carlo engine and the robustness corner
/// sweeps rely on this to keep their determinism contracts unchanged.
///
/// Scratch buffers persist across runs (like [`Analyzer`]); the lane
/// count adapts to each call.
///
/// # Examples
///
/// ```
/// use snr_netlist::BenchmarkSpec;
/// use snr_tech::Technology;
/// use snr_cts::{synthesize, Assignment, CtsOptions};
/// use snr_timing::{analyze_at_corner, BatchAnalyzer};
///
/// let design = BenchmarkSpec::new("demo", 48).seed(1).build()?;
/// let tech = Technology::n45();
/// let tree = synthesize(&design, &tech, &CtsOptions::default())?;
/// let asg = Assignment::uniform(&tree, tech.rules().default_id());
///
/// let corners = [snr_tech::Corner::typical(), snr_tech::Corner::slow()];
/// let mut batch = BatchAnalyzer::new();
/// let lanes = batch.run_at_corners(&tree, &tech, &asg, &corners).to_vec();
/// for (lane, &corner) in lanes.iter().zip(&corners) {
///     let serial = analyze_at_corner(&tree, &tech, &asg, corner);
///     assert_eq!(lane.latency_ps, serial.latency_ps());
///     assert_eq!(lane.max_slew_ps, serial.max_slew_ps());
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`Analyzer`]: crate::Analyzer
/// [`Analyzer::run_scaled`]: crate::Analyzer::run_scaled
#[derive(Debug, Default)]
pub struct BatchAnalyzer {
    /// Nominal per-edge resistance `unit_r(rule) · len_um`, kΩ.
    nom_r: Vec<f64>,
    /// Nominal per-edge effective capacitance `unit_c_delay(rule) · len_um`, fF.
    nom_c: Vec<f64>,
    // Lane-major `[node * k + lane]` state.
    load: Vec<f64>,
    wire_m1: Vec<f64>,
    arrival: Vec<f64>,
    /// Stage-driver output slews; meaningful only at buffer nodes and the
    /// root. Other nodes look theirs up through [`Self::drv`] — the serial
    /// analyzer's per-node slew propagation is a pure copy chain, so
    /// skipping the copies changes no bits, only memory traffic.
    src_slew: Vec<f64>,
    /// Per-node stage-driver index (the buffer/root sourcing each node's
    /// stage), recomputed each run.
    drv: Vec<u32>,
    // Per-lane scratch.
    acc: Vec<f64>,
    /// Lane-width staging for leaf-sink arrivals and squared slews: the
    /// `max`/`min` aggregate folds have no vectorizable lowering on baseline
    /// x86-64, so the arithmetic loop stores its results here and a separate
    /// short scalar loop folds them — keeping the arithmetic vector code.
    tmp_a: Vec<f64>,
    tmp_s: Vec<f64>,
    agg_lat: Vec<f64>,
    agg_min: Vec<f64>,
    agg_slew: Vec<f64>,
    summaries: Vec<TimingSummary>,
}

impl BatchAnalyzer {
    /// Creates a batch analyzer with empty scratch buffers.
    pub fn new() -> Self {
        BatchAnalyzer::default()
    }

    /// Evaluates `k` lanes of per-edge parasitic scalings in one traversal,
    /// on the nominal parasitics of the assignment `nominals` was computed
    /// from.
    ///
    /// `r_scale`/`c_scale` are lane-major: edge `v` (indexed by child node
    /// id, like [`crate::Analyzer::run_scaled`]'s scale vectors), lane `l`
    /// uses `r_scale[v * k + l]`. Lane `l`'s summary is bit-identical to
    /// running the serial analyzer with that assignment and that lane's
    /// scale vectors. Monte-Carlo sampling runs hundreds of lane chunks
    /// against one `(tree, assignment)` pair, so the nominals are computed
    /// once and shared.
    ///
    /// Returns one [`TimingSummary`] per lane, in lane order.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, the nominals were computed for a different
    /// tree size, or a scale slice's length is not `tree.len() * k`.
    pub fn run_scaled_nominal(
        &mut self,
        tree: &ClockTree,
        tech: &Technology,
        nominals: &EdgeNominals,
        k: usize,
        r_scale: &[f64],
        c_scale: &[f64],
    ) -> &[TimingSummary] {
        assert!(k > 0, "need at least one lane");
        let n = tree.len();
        assert_eq!(nominals.len(), n, "nominals computed for a different tree");
        assert_eq!(r_scale.len(), n * k, "r-scale length must be tree.len() * k");
        assert_eq!(c_scale.len(), n * k, "c-scale length must be tree.len() * k");
        self.run_any(tree, tech, k, r_scale, c_scale, Some(nominals))
    }

    /// Evaluates one lane per process corner in one traversal.
    ///
    /// Lane `l` applies `corners[l]`'s global R/C factors to every edge and
    /// is bit-identical to [`crate::analyze_at_corner`] (buffer parameters
    /// stay nominal, as there).
    ///
    /// # Panics
    ///
    /// Panics if `corners` is empty, the assignment does not match the
    /// tree, or it references rules outside the technology's rule set.
    pub fn run_at_corners(
        &mut self,
        tree: &ClockTree,
        tech: &Technology,
        assignment: &Assignment,
        corners: &[Corner],
    ) -> &[TimingSummary] {
        assert!(!corners.is_empty(), "need at least one corner lane");
        let k = corners.len();
        let r: Vec<f64> = corners.iter().map(|c| c.r_scale()).collect();
        let c: Vec<f64> = corners.iter().map(|c| c.c_scale()).collect();
        let mut nom_r = std::mem::take(&mut self.nom_r);
        let mut nom_c = std::mem::take(&mut self.nom_c);
        fill_nominals(tree, tech, assignment, &mut nom_r, &mut nom_c);
        self.nom_r = nom_r;
        self.nom_c = nom_c;
        self.run_any(tree, tech, k, &r, &c, None)
    }

    /// Sizes the scratch buffers and dispatches to [`kernel`], pinning the
    /// hot lane widths to const generics so the lane loops get fixed trip
    /// counts the compiler unrolls (16 = the Monte-Carlo chunk width, 3 =
    /// the standard corner sweep); any other width takes the dynamic
    /// fallback instance.
    ///
    /// `Some(nominals)` is the Monte-Carlo shape: lane-major per-edge
    /// scales on the caller's nominals. `None` is the corner shape: one
    /// global factor per lane on the scratch nominals `run_at_corners`
    /// filled.
    fn run_any(
        &mut self,
        tree: &ClockTree,
        tech: &Technology,
        k: usize,
        r_scale: &[f64],
        c_scale: &[f64],
        nominals: Option<&EdgeNominals>,
    ) -> &[TimingSummary] {
        let n = tree.len();
        let arena = tree.arena();
        let cells = tech.buffers().cells();

        // Grow-only sizing: every slot a pass reads is written earlier in
        // the same run (root lane slots are never read), so stale values
        // from previous runs need no clearing — at 100k+ sinks zero-filling
        // six lane-major arrays is measurable memory traffic.
        let grow = |v: &mut Vec<f64>, len: usize| {
            if v.len() < len {
                v.resize(len, 0.0);
            }
        };
        for v in [
            &mut self.load,
            &mut self.wire_m1,
            &mut self.arrival,
            &mut self.src_slew,
        ] {
            grow(v, n * k);
        }
        self.acc.clear();
        self.acc.resize(k, 0.0);
        self.tmp_a.clear();
        self.tmp_a.resize(k, 0.0);
        self.tmp_s.clear();
        self.tmp_s.resize(k, 0.0);
        if self.drv.len() < n {
            self.drv.resize(n, 0);
        }
        self.agg_lat.clear();
        self.agg_lat.resize(k, f64::MIN);
        self.agg_min.clear();
        self.agg_min.resize(k, f64::MAX);
        self.agg_slew.clear();
        self.agg_slew.resize(k, 0.0);

        // Local slice views: the borrow checker then allows disjoint-field
        // access inside the kernel, and fixed-length `[i * k..(i + 1) * k]`
        // chunks keep the lane loops free of per-element bounds checks.
        let load = &mut self.load[..n * k];
        let wire_m1 = &mut self.wire_m1[..n * k];
        let arrival = &mut self.arrival[..n * k];
        let src_slew = &mut self.src_slew[..n * k];
        let acc = &mut self.acc[..k];
        let tmp_a = &mut self.tmp_a[..k];
        let tmp_s = &mut self.tmp_s[..k];
        let drv = &mut self.drv[..n];
        let agg_lat = &mut self.agg_lat[..k];
        let agg_min = &mut self.agg_min[..k];
        let agg_slew = &mut self.agg_slew[..k];

        // Per-edge nominal parasitics. Each lane multiplies in its scale on
        // the fly with the serial `(unit · len) · scale` association.
        let per_edge = nominals.is_some();
        let (nom_r, nom_c) = match nominals {
            Some(nm) => (&nm.r[..n], &nm.c[..n]),
            None => (&self.nom_r[..n], &self.nom_c[..n]),
        };

        macro_rules! go {
            ($k:expr, $pe:literal) => {
                kernel::<$pe, $k>(
                    k,
                    arena,
                    cells,
                    nom_r,
                    nom_c,
                    r_scale,
                    c_scale,
                    &mut *load,
                    &mut *wire_m1,
                    &mut *arrival,
                    &mut *src_slew,
                    &mut *drv,
                    &mut *acc,
                    &mut *tmp_a,
                    &mut *tmp_s,
                    &mut *agg_lat,
                    &mut *agg_min,
                    &mut *agg_slew,
                )
            };
        }
        match (k, per_edge) {
            (16, true) => go!(16, true),
            (3, false) => go!(3, false),
            (_, true) => go!(0, true),
            (_, false) => go!(0, false),
        }

        if arena.sinks().is_empty() {
            agg_lat.fill(0.0);
            agg_min.fill(0.0);
        }
        if n == 1 {
            // Single-node tree: the serial analyzer reports the root's own
            // slew (its source slew, since no wire degrades it).
            agg_slew.copy_from_slice(&src_slew[..k]);
        }

        self.summaries.clear();
        for l in 0..k {
            self.summaries.push(TimingSummary {
                latency_ps: self.agg_lat[l],
                min_arrival_ps: self.agg_min[l],
                max_slew_ps: self.agg_slew[l],
            });
        }
        &self.summaries
    }
}

/// The batched traversal itself: pass 1 (stage-local loads), pass 2 (wire
/// moments, arrivals, slews), and the per-lane aggregate folds.
///
/// A free function taking every array as its own argument, deliberately:
/// Rust attaches its no-alias guarantees to *function-boundary* references,
/// and the backend keeps them as scoped-alias metadata when it inlines.
/// Slices reached through `self` fields (or through a carrier struct) offer
/// no such guarantee — the optimizer must assume a store through one may
/// clobber a load through another and emits scalar code. For the same
/// reason the function must **not** be `#[inline(always)]`: that inlines at
/// the MIR level, before the no-alias boundary ever reaches the backend.
///
/// `PER_EDGE` selects the scale layout — lane-major per-edge rows
/// (`r_scale[v * k + l]`, the Monte-Carlo shape) or one global factor per
/// lane (`r_scale[l]`, the corner shape). `K` pins the hot lane widths to
/// compile-time trip counts (`0` = dynamic fallback); both are consts so
/// each shape monomorphizes branch-free.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn kernel<const PER_EDGE: bool, const K: usize>(
    k: usize,
    arena: &TreeArena,
    cells: &[BufferCell],
    nom_r: &[f64],
    nom_c: &[f64],
    r_scale: &[f64],
    c_scale: &[f64],
    load: &mut [f64],
    wire_m1: &mut [f64],
    arrival: &mut [f64],
    src_slew: &mut [f64],
    drv: &mut [u32],
    acc: &mut [f64],
    tmp_a: &mut [f64],
    tmp_s: &mut [f64],
    agg_lat: &mut [f64],
    agg_min: &mut [f64],
    agg_slew: &mut [f64],
) {
    let k = if K > 0 { K } else { k };
    let n = nom_r.len();
    let parents = arena.parents();

    // Lane scale rows, expanded textually so the slices keep their
    // function-argument no-alias pedigree (a closure would reroute them
    // through a capture struct).
    macro_rules! row {
        ($arr:ident, $v:expr) => {
            if PER_EDGE {
                &$arr[$v * k..($v + 1) * k]
            } else {
                &$arr[..k]
            }
        };
    }

    // A leaf's stage-local load is the same in every lane (its sink pin
    // cap, or zero), so leaf rows are never materialized: pass 1 skips
    // them, parents and pass 2 use the scalar directly. Leaves are
    // roughly half the nodes, and the skipped row store + re-read is
    // pure memory traffic with bit-identical results.
    let leaf_load = |v: usize| if arena.is_sink(v) { arena.sink_cap_ff(v) } else { 0.0 };
    let child_index = arena.child_index();

    // Pass 1 (postorder = descending id): stage-local downstream loads,
    // all lanes per node. Each lane's accumulator adds children in the
    // serial child order.
    for v in (0..n).rev() {
        let children = arena.children(v);
        if children.is_empty() {
            continue;
        }
        let base = if arena.is_sink(v) { arena.sink_cap_ff(v) } else { 0.0 };
        acc.fill(base);
        for &ch in children {
            let ch = ch as usize;
            let nc_ch = nom_c[ch];
            let c_row = row!(c_scale, ch);
            match arena.buffer_cell(ch) {
                Some(cell) => {
                    let pin = cells[cell].input_cap_ff();
                    for l in 0..k {
                        acc[l] += nc_ch * c_row[l] + pin;
                    }
                }
                None if child_index[ch + 1] == child_index[ch] => {
                    let b = leaf_load(ch);
                    for l in 0..k {
                        acc[l] += nc_ch * c_row[l] + b;
                    }
                }
                None => {
                    let load_ch = &load[ch * k..(ch + 1) * k];
                    for l in 0..k {
                        acc[l] += nc_ch * c_row[l] + load_ch[l];
                    }
                }
            }
        }
        load[v * k..(v + 1) * k].copy_from_slice(acc);
    }

    // Pass 2 (topo = ascending id): wire moments, arrivals, slews, with the
    // per-lane aggregates folded inline (max/min folds are
    // order-independent, so this matches the serial post-pass).
    let root = arena.root();
    drv[root] = root as u32;
    match arena.buffer_cell(root) {
        Some(cell) => {
            let cell = &cells[cell];
            let root_is_leaf = arena.children(root).is_empty();
            for l in 0..k {
                let root_load = if root_is_leaf { leaf_load(root) } else { load[root * k + l] };
                arrival[root * k + l] = cell.delay_ps(root_load);
                src_slew[root * k + l] = cell.output_slew_ps(root_load);
            }
        }
        None => {
            for l in 0..k {
                arrival[root * k + l] = 0.0;
                // Unbuffered tree: ideal fast source, as in the serial
                // analyzer.
                src_slew[root * k + l] = 1.0;
            }
        }
    }
    if arena.is_sink(root) {
        // Degenerate root-as-sink: it has no incoming edge, so pass 2
        // never visits it — seed the sink aggregates here.
        for l in 0..k {
            agg_lat[l] = agg_lat[l].max(arrival[root * k + l]);
            agg_min[l] = agg_min[l].min(arrival[root * k + l]);
        }
    }

    // The node kinds (sink / buffer / steiner) are mutually exclusive
    // tags, so each gets its own branch- and call-free lane loop below —
    // short fixed-count loops over length-`k` slices that the compiler
    // auto-vectorizes. Lane-invariant `parent_is_source` selections are
    // loop-unswitched.
    for v in 0..n {
        let p = parents[v];
        if p == snr_cts::NO_PARENT {
            continue;
        }
        let p = p as usize;
        let parent_is_source = arena.is_buffer(p) || parents[p] == snr_cts::NO_PARENT;
        let v_sink = arena.is_sink(v);
        let v_leaf = child_index[v + 1] == child_index[v];
        if v_leaf && !v_sink {
            // A childless steiner or buffer node affects timing only
            // through its load contribution at the parent (pass 1): its
            // wire moment, arrival, and slew have no reader and feed no
            // aggregate, so pass 2 skips it outright.
            continue;
        }
        // The stage driver (buffer or root) whose output slew feeds this
        // node's stage. The serial analyzer copies that slew down the
        // tree node by node; indexing the driver directly reads the
        // identical value with two fewer lane-array passes.
        let d = if parent_is_source { p } else { drv[p] as usize };
        let (nrv, ncv) = (nom_r[v], nom_c[v]);
        let r_row = row!(r_scale, v);
        let c_row = row!(c_scale, v);
        if v_leaf {
            // Leaf sink: nothing downstream ever reads a leaf's rows, so
            // nothing is stored — the lane loop folds straight into the
            // aggregates. Its load is the lane-constant pin cap (pass 1
            // never materialized its row).
            let wire_p = &wire_m1[p * k..(p + 1) * k];
            let arr_p = &arrival[p * k..(p + 1) * k];
            let slew_d = &src_slew[d * k..(d + 1) * k];
            let cap = leaf_load(v);
            // Two loops on purpose: `f64::max`/`min` (`llvm.maxnum`) have no
            // legal vector lowering on baseline x86-64, so folding inline
            // would force this whole loop scalar. The arithmetic loop
            // vectorizes; the fold loop stays scalar but short. Staging
            // through `tmp_*` is exact (f64 stores round-trip), so the lane
            // values are bit-identical either way.
            for l in 0..k {
                let step = (nrv * r_row[l]) * ((ncv * c_row[l]) / 2.0 + cap);
                let m1 = if parent_is_source { step } else { wire_p[l] + step };
                let src = slew_d[l];
                let wire_slew = LN9 * m1;
                tmp_s[l] = src * src + wire_slew * wire_slew;
                tmp_a[l] = arr_p[l] + step;
            }
            for l in 0..k {
                agg_slew[l] = agg_slew[l].max(tmp_s[l]);
                agg_lat[l] = agg_lat[l].max(tmp_a[l]);
                agg_min[l] = agg_min[l].min(tmp_a[l]);
            }
            continue;
        }
        // Internal node: record its stage driver for its children.
        drv[v] = d as u32;
        // Parent ids precede child ids (the tree is append-only), so
        // `d <= p < v` and splitting at `v * k` yields disjoint
        // parent-read / node-write windows without bounds checks in the
        // lane loop.
        let (w_head, w_tail) = wire_m1.split_at_mut(v * k);
        let (wire_p, wire_v) = (&w_head[p * k..(p + 1) * k], &mut w_tail[..k]);
        let (a_head, a_tail) = arrival.split_at_mut(v * k);
        let (arr_p, arr_v) = (&a_head[p * k..(p + 1) * k], &mut a_tail[..k]);
        let (s_head, s_tail) = src_slew.split_at_mut(v * k);
        let (slew_d, slew_v) = (&s_head[d * k..(d + 1) * k], &mut s_tail[..k]);
        let load_v = &load[v * k..(v + 1) * k];
        match arena.buffer_cell(v) {
            Some(cell) => {
                let cell = &cells[cell];
                let pin = cell.input_cap_ff();
                for l in 0..k {
                    let step = (nrv * r_row[l]) * ((ncv * c_row[l]) / 2.0 + pin);
                    let m1 = if parent_is_source { step } else { wire_p[l] + step };
                    wire_v[l] = m1;
                    let src = slew_d[l];
                    let wire_slew = LN9 * m1;
                    agg_slew[l] = agg_slew[l].max(src * src + wire_slew * wire_slew);
                    let lv = load_v[l];
                    arr_v[l] = (arr_p[l] + step) + cell.delay_ps(lv);
                    slew_v[l] = cell.output_slew_ps(lv);
                }
            }
            None if v_sink => {
                for l in 0..k {
                    let step = (nrv * r_row[l]) * ((ncv * c_row[l]) / 2.0 + load_v[l]);
                    let m1 = if parent_is_source { step } else { wire_p[l] + step };
                    wire_v[l] = m1;
                    let src = slew_d[l];
                    let wire_slew = LN9 * m1;
                    agg_slew[l] = agg_slew[l].max(src * src + wire_slew * wire_slew);
                    let a = arr_p[l] + step;
                    arr_v[l] = a;
                    agg_lat[l] = agg_lat[l].max(a);
                    agg_min[l] = agg_min[l].min(a);
                }
            }
            None => {
                // Plain steiner point: no slew fold, no aggregates.
                for l in 0..k {
                    let step = (nrv * r_row[l]) * ((ncv * c_row[l]) / 2.0 + load_v[l]);
                    let m1 = if parent_is_source { step } else { wire_p[l] + step };
                    wire_v[l] = m1;
                    arr_v[l] = arr_p[l] + step;
                }
            }
        }
    }

    // Pass 2 folds *squared* slews (`src² + (ln9·m1)²`); the sqrt happens
    // once per lane here. `sqrt` is monotone and correctly rounded, so
    // `max(√x, √y) = √max(x, y)` bit for bit — one sqrt per lane instead
    // of one per sink (sqrt is the slowest op in the kernel by far).
    for s in agg_slew.iter_mut() {
        *s = s.sqrt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, analyze_at_corner, Analyzer};
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::BenchmarkSpec;

    fn setup(n: usize) -> (ClockTree, Technology) {
        let design = BenchmarkSpec::new("t", n).seed(4).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (tree, tech)
    }

    #[test]
    fn corner_lanes_match_serial_bit_for_bit() {
        let (tree, tech) = setup(180);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let corners = [Corner::typical(), Corner::slow(), Corner::fast()];
        let mut batch = BatchAnalyzer::new();
        let lanes = batch.run_at_corners(&tree, &tech, &asg, &corners).to_vec();
        assert_eq!(lanes.len(), corners.len());
        for (lane, &corner) in lanes.iter().zip(&corners) {
            let serial = analyze_at_corner(&tree, &tech, &asg, corner);
            assert_eq!(lane.latency_ps, serial.latency_ps());
            assert_eq!(lane.min_arrival_ps, serial.min_arrival_ps());
            assert_eq!(lane.max_slew_ps, serial.max_slew_ps());
        }
    }

    #[test]
    fn per_edge_lanes_match_serial_bit_for_bit() {
        let (tree, tech) = setup(120);
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let n = tree.len();
        let k = 3;
        // Deterministic, lane-distinct scale patterns.
        let mut r = vec![0.0; n * k];
        let mut c = vec![0.0; n * k];
        for v in 0..n {
            for l in 0..k {
                r[v * k + l] = 1.0 + 0.07 * l as f64 + 0.001 * (v % 11) as f64;
                c[v * k + l] = 1.0 - 0.03 * l as f64 + 0.002 * (v % 7) as f64;
            }
        }
        let nominals = EdgeNominals::compute(&tree, &tech, &asg);
        let mut batch = BatchAnalyzer::new();
        let lanes = batch.run_scaled_nominal(&tree, &tech, &nominals, k, &r, &c).to_vec();
        let mut serial = Analyzer::new();
        for (l, lane) in lanes.iter().enumerate() {
            let rs: Vec<f64> = (0..n).map(|v| r[v * k + l]).collect();
            let cs: Vec<f64> = (0..n).map(|v| c[v * k + l]).collect();
            let rep = serial.run_scaled(&tree, &tech, &asg, Some((&rs, &cs)));
            assert_eq!(lane.latency_ps, rep.latency_ps(), "lane {l}");
            assert_eq!(lane.min_arrival_ps, rep.min_arrival_ps(), "lane {l}");
            assert_eq!(lane.max_slew_ps, rep.max_slew_ps(), "lane {l}");
        }
    }

    #[test]
    fn single_lane_matches_plain_analysis() {
        let (tree, tech) = setup(64);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let n = tree.len();
        let ones = vec![1.0; n];
        let nominals = EdgeNominals::compute(&tree, &tech, &asg);
        let mut batch = BatchAnalyzer::new();
        let lane = batch.run_scaled_nominal(&tree, &tech, &nominals, 1, &ones, &ones)[0];
        let rep = analyze(&tree, &tech, &asg);
        assert_eq!(lane.latency_ps, rep.latency_ps());
        assert_eq!(lane.skew_ps(), rep.skew_ps());
        assert_eq!(lane.max_slew_ps, rep.max_slew_ps());
    }

    #[test]
    fn analyzer_reuse_across_lane_counts() {
        let (tree, tech) = setup(90);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let mut batch = BatchAnalyzer::new();
        let two = batch
            .run_at_corners(&tree, &tech, &asg, &[Corner::typical(), Corner::slow()])
            .to_vec();
        let one = batch.run_at_corners(&tree, &tech, &asg, &[Corner::slow()]).to_vec();
        assert_eq!(one[0], two[1], "lane results must not depend on batch shape");
    }

    #[test]
    fn single_node_tree() {
        use snr_geom::Point;
        let tree = ClockTree::with_root(
            Point::new(0, 0),
            snr_cts::NodeKind::Sink { sink: snr_netlist::SinkId(0), cap_ff: 3.0 },
        );
        let tech = Technology::n45();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let mut batch = BatchAnalyzer::new();
        let lanes = batch
            .run_at_corners(&tree, &tech, &asg, &[Corner::typical(), Corner::slow()])
            .to_vec();
        let serial = analyze_at_corner(&tree, &tech, &asg, Corner::slow());
        assert_eq!(lanes[1].latency_ps, serial.latency_ps());
        assert_eq!(lanes[1].max_slew_ps, serial.max_slew_ps());
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let (tree, tech) = setup(10);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let nominals = EdgeNominals::compute(&tree, &tech, &asg);
        BatchAnalyzer::new().run_scaled_nominal(&tree, &tech, &nominals, 0, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "tree.len() * k")]
    fn short_scales_panic() {
        let (tree, tech) = setup(10);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let bad = vec![1.0; tree.len()];
        let nominals = EdgeNominals::compute(&tree, &tech, &asg);
        BatchAnalyzer::new().run_scaled_nominal(&tree, &tech, &nominals, 2, &bad, &bad);
    }
}
