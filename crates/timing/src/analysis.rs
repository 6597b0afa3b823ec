//! The RC-tree analyzer.

use crate::TimingReport;
use snr_cts::{Assignment, ClockTree, NodeId, TreeArena};
use snr_tech::Technology;

const LN9: f64 = 2.197_224_577_336_219_6;

/// A reusable analyzer holding scratch buffers.
///
/// The NDR optimizer evaluates thousands of candidate assignments on the
/// same tree; `Analyzer` keeps the per-node vectors allocated between runs.
/// For one-off analyses use the free function [`analyze`].
///
/// # Examples
///
/// ```
/// use snr_netlist::BenchmarkSpec;
/// use snr_tech::Technology;
/// use snr_cts::{synthesize, Assignment, CtsOptions};
/// use snr_timing::Analyzer;
///
/// let design = BenchmarkSpec::new("demo", 32).seed(1).build()?;
/// let tech = Technology::n45();
/// let tree = synthesize(&design, &tech, &CtsOptions::default())?;
/// let asg = Assignment::uniform(&tree, tech.rules().default_id());
/// let mut analyzer = Analyzer::new();
/// let report = analyzer.run(&tree, &tech, &asg);
/// assert!(report.max_slew_ps() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Analyzer {
    load: Vec<f64>,
    wire_m1: Vec<f64>,
    arrival: Vec<f64>,
    slew: Vec<f64>,
    src_slew: Vec<f64>,
    edge_r: Vec<f64>,
    edge_c: Vec<f64>,
}

impl Analyzer {
    /// Creates an analyzer with empty scratch buffers.
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Analyzes `tree` under the rule `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's length does not match the tree, or if it
    /// references rules outside the technology's rule set.
    pub fn run(
        &mut self,
        tree: &ClockTree,
        tech: &Technology,
        assignment: &Assignment,
    ) -> TimingReport {
        self.run_scaled(tree, tech, assignment, None)
    }

    /// Analyzes `tree` with per-edge parasitic scale factors — the entry
    /// point of the Monte-Carlo variation engine, which perturbs each
    /// edge's R and C around the assignment's nominal values.
    ///
    /// `scales`, when present, is `(r_scale, c_scale)`: per-node vectors
    /// (indexed like edges, by child node id) multiplying the nominal edge
    /// resistance and capacitance.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Analyzer::run`], or when a
    /// scale vector's length does not match the tree.
    pub fn run_scaled(
        &mut self,
        tree: &ClockTree,
        tech: &Technology,
        assignment: &Assignment,
        scales: Option<(&[f64], &[f64])>,
    ) -> TimingReport {
        assert_eq!(
            assignment.len(),
            tree.len(),
            "assignment built for a different tree"
        );
        let n = tree.len();
        let arena = tree.arena();
        let layer = tech.clock_layer();
        let rules = tech.rules();
        let cells = tech.buffers().cells();

        for v in [
            &mut self.load,
            &mut self.wire_m1,
            &mut self.arrival,
            &mut self.slew,
            &mut self.src_slew,
            &mut self.edge_r,
            &mut self.edge_c,
        ] {
            v.clear();
            v.resize(n, 0.0);
        }

        // Per-edge parasitics under the assignment.
        if let Some((rs, cs)) = scales {
            assert_eq!(rs.len(), n, "r-scale vector built for a different tree");
            assert_eq!(cs.len(), n, "c-scale vector built for a different tree");
        }
        let len_um = arena.len_um();
        let parents = arena.parents();
        for v in 0..n {
            if parents[v] == snr_cts::NO_PARENT {
                continue;
            }
            let rule = rules
                .get(assignment.rule(NodeId(v)))
                .expect("assignment references a rule outside the technology rule set");
            let (rsc, csc) = scales.map_or((1.0, 1.0), |(rs, cs)| (rs[v], cs[v]));
            self.edge_r[v] = layer.unit_r(rule) * len_um[v] * rsc;
            // Delay/slew see the *effective* capacitance (Miller-amplified
            // coupling on unshielded rules); power uses the switching view.
            self.edge_c[v] = layer.unit_c_delay(rule) * len_um[v] * csc;
        }

        // Pass 1 (postorder = descending id): stage-local downstream load.
        for v in (0..n).rev() {
            let mut acc = if arena.is_sink(v) { arena.sink_cap_ff(v) } else { 0.0 };
            for &ch in arena.children(v) {
                let ch = ch as usize;
                acc += self.edge_c[ch] + self.in_stage_cap(arena, cells, ch);
            }
            self.load[v] = acc;
        }

        // Pass 2 (topo): within-stage first moments + arrivals + slews.
        let root = arena.root();
        match arena.buffer_cell(root) {
            Some(cell) => {
                let c = &cells[cell];
                self.arrival[root] = c.delay_ps(self.load[root]);
                self.src_slew[root] = c.output_slew_ps(self.load[root]);
                self.slew[root] = self.src_slew[root];
            }
            None => {
                self.arrival[root] = 0.0;
                // Unbuffered tree: assume an ideal fast source.
                self.src_slew[root] = 1.0;
                self.slew[root] = 1.0;
            }
        }

        for v in 0..n {
            let p = parents[v];
            if p == snr_cts::NO_PARENT {
                continue;
            }
            let p = p as usize;
            let downstream = self.in_stage_cap(arena, cells, v);
            let step = self.edge_r[v] * (self.edge_c[v] / 2.0 + downstream);
            // Wire delay accumulates from the stage source: a buffered (or
            // root) parent starts a fresh stage.
            let parent_is_source = arena.is_buffer(p) || parents[p] == snr_cts::NO_PARENT;
            self.wire_m1[v] = if parent_is_source {
                step
            } else {
                self.wire_m1[p] + step
            };

            let src_slew = self.src_slew[p];
            self.src_slew[v] = src_slew;
            let wire_slew = LN9 * self.wire_m1[v];
            self.slew[v] = (src_slew * src_slew + wire_slew * wire_slew).sqrt();

            self.arrival[v] = self.arrival[p] + step;

            if let Some(cell) = arena.buffer_cell(v) {
                let c = &cells[cell];
                self.arrival[v] += c.delay_ps(self.load[v]);
                self.src_slew[v] = c.output_slew_ps(self.load[v]);
            }
        }

        // Aggregate.
        let sink_nodes = tree.sink_nodes();
        let mut latency = f64::MIN;
        let mut min_arrival = f64::MAX;
        for s in &sink_nodes {
            latency = latency.max(self.arrival[s.0]);
            min_arrival = min_arrival.min(self.arrival[s.0]);
        }
        if sink_nodes.is_empty() {
            latency = 0.0;
            min_arrival = 0.0;
        }
        let mut max_slew = 0.0f64;
        for (v, &par) in parents.iter().enumerate().take(n) {
            let checked = arena.is_sink(v) || arena.is_buffer(v);
            if checked && par != snr_cts::NO_PARENT {
                max_slew = max_slew.max(self.slew[v]);
            }
        }
        if n == 1 {
            max_slew = self.slew[root];
        }

        TimingReport {
            arrival_ps: self.arrival.clone(),
            slew_ps: self.slew.clone(),
            stage_load_ff: self.load.clone(),
            sink_nodes,
            latency_ps: latency,
            min_arrival_ps: min_arrival,
            max_slew_ps: max_slew,
        }
    }

    /// Capacitance node `v` presents to its *parent's* stage: buffers hide
    /// their subtree behind their input pin.
    fn in_stage_cap(&self, arena: &TreeArena, cells: &[snr_tech::BufferCell], v: usize) -> f64 {
        match arena.buffer_cell(v) {
            Some(cell) => cells[cell].input_cap_ff(),
            None => self.load[v],
        }
    }
}

/// Analyzes `tree` under `assignment` with fresh scratch buffers.
///
/// See [`Analyzer::run`] for details and panics.
pub fn analyze(
    tree: &ClockTree,
    tech: &Technology,
    assignment: &Assignment,
) -> TimingReport {
    Analyzer::new().run(tree, tech, assignment)
}

/// Analyzes `tree` at a process corner: every edge's R and C are scaled by
/// the corner's global factors.
///
/// Buffer parameters are kept nominal — the corner model in this workspace
/// captures interconnect shift only (the motivation for NDRs); device
/// corners would scale the cell library orthogonally.
///
/// See [`Analyzer::run`] for panics.
pub fn analyze_at_corner(
    tree: &ClockTree,
    tech: &Technology,
    assignment: &Assignment,
    corner: snr_tech::Corner,
) -> TimingReport {
    let n = tree.len();
    let r = vec![corner.r_scale(); n];
    let c = vec![corner.c_scale(); n];
    Analyzer::new().run_scaled(tree, tech, assignment, Some((&r, &c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::BenchmarkSpec;

    fn setup(n: usize) -> (ClockTree, Technology) {
        let design = BenchmarkSpec::new("t", n).seed(4).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (tree, tech)
    }

    #[test]
    fn near_zero_skew_under_construction_rule() {
        let (tree, tech) = setup(200);
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let rep = analyze(&tree, &tech, &asg);
        // Buffered DME balances wire, buffer and repeater delays exactly;
        // only nanometre snapping remains.
        assert!(
            rep.skew_ps() < 1.0,
            "skew {} vs latency {}",
            rep.skew_ps(),
            rep.latency_ps()
        );
    }

    #[test]
    fn downgrading_all_edges_cuts_stage_loads() {
        let (tree, tech) = setup(150);
        let conservative = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        // 1W2S has the lowest capacitance in *both* views (switching and
        // Miller-amplified effective); 1W1S would actually raise the
        // effective load (its unshielded min-spacing coupling is Miller-
        // amplified past 2W2S's halved coupling).
        let spaced = Assignment::uniform(&tree, snr_tech::RuleId(1));
        assert_eq!(tech.rules().rule(snr_tech::RuleId(1)).to_string(), "1W2S");
        let rc = analyze(&tree, &tech, &conservative);
        let rs = analyze(&tree, &tech, &spaced);
        let root = tree.root();
        assert!(rs.stage_load_ff(root) < rc.stage_load_ff(root));

        // And the Miller inversion itself, explicitly:
        let default = Assignment::uniform(&tree, tech.rules().default_id());
        let rd = analyze(&tree, &tech, &default);
        assert!(
            rd.stage_load_ff(root) > rc.stage_load_ff(root),
            "unshielded min-spacing coupling is Miller-amplified"
        );
    }

    #[test]
    fn default_rule_has_worse_slew() {
        let (tree, tech) = setup(300);
        let conservative = analyze(
            &tree,
            &tech,
            &Assignment::uniform(&tree, tech.rules().most_conservative_id()),
        );
        let cheap = analyze(
            &tree,
            &tech,
            &Assignment::uniform(&tree, tech.rules().default_id()),
        );
        // Narrow wire has 2x the resistance: slews degrade.
        assert!(cheap.max_slew_ps() > conservative.max_slew_ps());
    }

    #[test]
    fn analyzer_reuse_matches_fresh() {
        let (tree, tech) = setup(90);
        let asg1 = Assignment::uniform(&tree, tech.rules().default_id());
        let asg2 = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let mut an = Analyzer::new();
        let a1 = an.run(&tree, &tech, &asg1);
        let a2 = an.run(&tree, &tech, &asg2);
        assert_eq!(a1, analyze(&tree, &tech, &asg1));
        assert_eq!(a2, analyze(&tree, &tech, &asg2));
    }

    #[test]
    fn single_edge_downgrade_changes_only_descendant_arrivals_monotonically() {
        let (tree, tech) = setup(80);
        let rules = tech.rules();
        let mut asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let before = analyze(&tree, &tech, &asg);
        // Pick some mid-tree edge whose node is a plain wire joint, so the
        // edge's wire cap belongs to its parent's stage.
        let edge = tree
            .edges()
            .find(|e| !tree.node(*e).is_leaf() && !tree.node(*e).kind().is_buffer())
            .unwrap();
        asg.set(edge, rules.default_id());
        let after = analyze(&tree, &tech, &asg);

        // Downgrading 2W2S -> 1W1S doubles the edge's resistance and
        // (tighter spacing, more Miller coupling) raises its effective cap,
        // so every arrival at or below the edge weakly increases.
        let mut below = vec![false; tree.len()];
        below[edge.0] = true;
        for n in tree.topo_order() {
            if let Some(p) = tree.node(n).parent() {
                below[n.0] |= below[p.0];
            }
        }
        for n in tree.topo_order() {
            if below[n.0] {
                assert!(after.arrival_ps(n) >= before.arrival_ps(n) - 1e-9);
            }
        }

        // Nodes outside the subtree of the edge's stage source are isolated
        // from the change entirely — the property the incremental engine
        // relies on.
        let mut src = tree.node(edge).parent().unwrap();
        while src != tree.root() && !tree.node(src).kind().is_buffer() {
            src = tree.node(src).parent().unwrap();
        }
        let mut in_src = vec![false; tree.len()];
        in_src[src.0] = true;
        for n in tree.topo_order() {
            if let Some(p) = tree.node(n).parent() {
                in_src[n.0] |= in_src[p.0];
            }
        }
        for n in tree.topo_order() {
            if !in_src[n.0] {
                assert!((after.arrival_ps(n) - before.arrival_ps(n)).abs() < 1e-9);
            }
        }

        // The stage's load moves by exactly the closed-form wire-cap delta.
        let len_um = tree.node(edge).edge_len_nm() as f64 / 1_000.0;
        let dc = tech.clock_unit_c_delay(rules.rule(rules.default_id()))
            - tech.clock_unit_c_delay(rules.rule(rules.most_conservative_id()));
        let got = after.stage_load_ff(src) - before.stage_load_ff(src);
        assert!(
            (got - dc * len_um).abs() < 1e-9,
            "stage load delta {got} vs expected {}",
            dc * len_um
        );
    }

    #[test]
    #[should_panic(expected = "different tree")]
    fn mismatched_assignment_panics() {
        let (tree, tech) = setup(10);
        let (other, _) = setup(20);
        let asg = Assignment::uniform(&other, tech.rules().default_id());
        let _ = analyze(&tree, &tech, &asg);
    }

    #[test]
    fn unbuffered_tree_analyzable() {
        use snr_cts::h_tree;
        use snr_geom::{Point, Rect};
        let area = Rect::new(Point::new(0, 0), Point::new(800_000, 800_000));
        let tree = h_tree(area, 2, 8.0);
        let tech = Technology::n45();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let rep = analyze(&tree, &tech, &asg);
        // Perfect H-tree: zero skew.
        assert!(rep.skew_ps() < 1e-6);
        assert!(rep.latency_ps() > 0.0);
    }
}
