//! Bitwise oracle for the incremental engine's transactional protocol.
//!
//! Random `try_moves` / `commit` / `rollback` sequences run on one
//! long-lived [`IncrementalAnalyzer`]. After every step its candidate (or
//! committed) state must equal, bit for bit, a fresh analyzer built on the
//! same assignment: the incremental path may skip work, never change a
//! result. Trees cover buffered CTS output, an unbuffered symmetric H-tree
//! (exact arrival ties) and the single-node degenerate tree, at nominal
//! parasitics and at the slow and fast corners. The repair queries
//! (`slew_violators`, `latest_sink`) must match brute-force scans of the
//! committed [`TimingReport`](snr_timing::TimingReport), arrivals outside
//! a probe's `pending_cone()` must be the committed ones, and every
//! memoized `probe_edge` answer must equal a fresh analyzer's summary.

use proptest::prelude::*;
use snr_cts::{h_tree, synthesize, Assignment, ClockTree, CtsOptions, NodeId, NodeKind};
use snr_geom::{Point, Rect};
use snr_netlist::{BenchmarkSpec, SinkId};
use snr_tech::{Corner, RuleId, Technology};
use snr_timing::{IncrementalAnalyzer, TimingReport, TimingSummary};

/// SplitMix64: a tiny deterministic move generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn build_tree(kind: usize, n: usize, seed: u64, tech: &Technology) -> ClockTree {
    match kind {
        // Buffered CTS output: many stages, the common case.
        0 | 1 => {
            let design = BenchmarkSpec::new(format!("o{n}"), n)
                .seed(seed)
                .build()
                .expect("spec is valid");
            synthesize(&design, tech, &CtsOptions::default()).expect("small designs synthesize")
        }
        // Unbuffered symmetric H-tree: one stage, exact arrival ties.
        2 => {
            let area = Rect::new(Point::new(0, 0), Point::new(600_000, 600_000));
            h_tree(area, 1 + (seed % 4) as u32, 8.0)
        }
        // Degenerate single-node tree: the root is the only sink.
        _ => ClockTree::with_root(
            Point::new(0, 0),
            NodeKind::Sink {
                sink: SinkId(0),
                cap_ff: 3.0,
            },
        ),
    }
}

fn scales(corner: usize) -> (f64, f64) {
    match corner {
        0 => (1.0, 1.0),
        1 => (Corner::slow().r_scale(), Corner::slow().c_scale()),
        _ => (Corner::fast().r_scale(), Corner::fast().c_scale()),
    }
}

/// One random move set: a single edge, a scattered multi-stage group
/// (duplicates allowed, last write wins), or nothing at all.
fn moves(rng: &mut Mix, edges: &[NodeId], n_rules: usize) -> Vec<(NodeId, RuleId)> {
    if edges.is_empty() {
        return Vec::new();
    }
    let count = match rng.below(10) {
        0 => 0,
        1..=5 => 1,
        _ => 2 + rng.below(8),
    };
    (0..count)
        .map(|_| (edges[rng.below(edges.len())], RuleId(rng.below(n_rules))))
        .collect()
}

fn bits(s: TimingSummary) -> [u64; 3] {
    [
        s.latency_ps.to_bits(),
        s.min_arrival_ps.to_bits(),
        s.max_slew_ps.to_bits(),
    ]
}

/// Checked nodes (sinks and buffer inputs) above `limit_ps`, ascending id.
fn brute_violators(tree: &ClockTree, report: &TimingReport, limit_ps: f64) -> Vec<NodeId> {
    tree.nodes()
        .iter()
        .filter(|n| (n.kind().is_sink() || n.kind().is_buffer()) && n.parent().is_some())
        .map(|n| n.id())
        .filter(|&id| report.slew_ps(id) > limit_ps)
        .collect()
}

/// The last maximum of the sink arrivals in sink order.
fn brute_latest(tree: &ClockTree, report: &TimingReport) -> Option<NodeId> {
    tree.sink_nodes().into_iter().max_by(|a, b| {
        report
            .arrival_ps(*a)
            .partial_cmp(&report.arrival_ps(*b))
            .expect("arrivals are finite")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every candidate summary and per-node candidate arrival, and every
    /// committed state, equals a fresh analyzer on that assignment.
    #[test]
    fn candidate_state_matches_fresh_engine(
        kind in 0usize..4,
        n in 2usize..160,
        seed in 0u64..400,
        corner in 0usize..3,
        ops in 0u64..1_000_000,
    ) {
        let tech = Technology::n45();
        let tree = build_tree(kind, n, seed, &tech);
        let (r, c) = scales(corner);
        let rules = tech.rules();
        let edges: Vec<NodeId> = tree.edges().collect();
        let mut rng = Mix(ops);
        let start = RuleId(rng.below(rules.len()));
        let mut asg = Assignment::uniform(&tree, start);
        let mut inc = IncrementalAnalyzer::with_scales(&tree, &tech, &asg, r, c);

        for step in 0..40 {
            let mv = moves(&mut rng, &edges, rules.len());
            let cand = inc.try_moves(&tree, &tech, &mv);
            let mut trial = asg.clone();
            for &(e, rule) in &mv {
                trial.set(e, rule);
            }
            let fresh = IncrementalAnalyzer::with_scales(&tree, &tech, &trial, r, c);
            prop_assert_eq!(bits(cand), bits(fresh.summary()), "step {} candidate summary", step);
            for v in 0..tree.len() {
                let id = NodeId(v);
                prop_assert_eq!(
                    inc.candidate_arrival_ps(id).to_bits(),
                    fresh.arrival_ps(id).to_bits(),
                    "step {} candidate arrival at node {}", step, v
                );
            }

            if rng.below(5) < 2 {
                inc.commit();
                asg = trial;
                prop_assert_eq!(bits(inc.summary()), bits(fresh.summary()), "step {} commit", step);
                for v in 0..tree.len() {
                    let id = NodeId(v);
                    prop_assert_eq!(
                        inc.arrival_ps(id).to_bits(),
                        fresh.arrival_ps(id).to_bits(),
                        "step {} committed arrival at node {}", step, v
                    );
                }
            } else {
                let before = bits(inc.summary());
                inc.rollback();
                prop_assert_eq!(bits(inc.summary()), before, "step {} rollback", step);
            }
        }
    }

    /// Outside `pending_cone()` every candidate arrival is the committed
    /// one, bit for bit — what lets a session re-check only the timing arcs
    /// with an endpoint inside the cone — the cone covers every moved edge,
    /// and it is empty whenever nothing is pending.
    #[test]
    fn arrivals_outside_the_pending_cone_are_committed(
        kind in 0usize..4,
        n in 2usize..160,
        seed in 0u64..400,
        corner in 0usize..3,
        ops in 0u64..1_000_000,
    ) {
        let tech = Technology::n45();
        let tree = build_tree(kind, n, seed, &tech);
        let (r, c) = scales(corner);
        let rules = tech.rules();
        let edges: Vec<NodeId> = tree.edges().collect();
        let mut rng = Mix(ops);
        let asg = Assignment::uniform(&tree, RuleId(rng.below(rules.len())));
        let mut inc = IncrementalAnalyzer::with_scales(&tree, &tech, &asg, r, c);
        prop_assert!(inc.pending_cone().is_empty(), "cone of a fresh analyzer");

        for step in 0..30 {
            let mv = moves(&mut rng, &edges, rules.len());
            inc.try_moves(&tree, &tech, &mv);
            let cone = inc.pending_cone();
            prop_assert!(cone.end <= inc.stage_count(), "step {} cone {:?}", step, cone);
            for &(e, _) in &mv {
                prop_assert!(cone.contains(&inc.arrival_slot(e)), "step {} moved edge {}", step, e.0);
            }
            for v in 0..tree.len() {
                let id = NodeId(v);
                let slot = inc.arrival_slot(id);
                prop_assert!(slot < inc.stage_count(), "step {} node {} slot {}", step, v, slot);
                if !cone.contains(&slot) {
                    prop_assert_eq!(
                        inc.candidate_arrival_ps(id).to_bits(),
                        inc.arrival_ps(id).to_bits(),
                        "step {} node {} outside cone {:?}", step, v, cone
                    );
                }
            }
            if rng.below(2) == 0 {
                inc.commit();
            } else {
                inc.rollback();
            }
            prop_assert!(inc.pending_cone().is_empty(), "step {} cone after settling", step);
        }
    }

    /// `probe_edge` answers, memoized or not, equal a fresh analyzer on
    /// the probed assignment bit for bit, through random interleavings
    /// with `try_moves`, `commit` and `rollback`, and leave nothing
    /// pending. Probes draw from a small pool of edges, so most repeat an
    /// earlier probe; moves draw from the pool and from the whole tree, so
    /// commits land inside, above and below remembered cones.
    #[test]
    fn memoized_probes_match_fresh_engine(
        kind in 0usize..4,
        n in 2usize..160,
        seed in 0u64..400,
        corner in 0usize..3,
        ops in 0u64..1_000_000,
    ) {
        let tech = Technology::n45();
        let tree = build_tree(kind, n, seed, &tech);
        let (r, c) = scales(corner);
        let rules = tech.rules();
        let edges: Vec<NodeId> = tree.edges().collect();
        let mut rng = Mix(ops);
        let mut asg = Assignment::uniform(&tree, RuleId(rng.below(rules.len())));
        let mut inc = IncrementalAnalyzer::with_scales(&tree, &tech, &asg, r, c);
        if edges.is_empty() {
            return Ok(());
        }
        let pool: Vec<NodeId> = (0..4).map(|_| edges[rng.below(edges.len())]).collect();

        for step in 0..60 {
            match rng.below(4) {
                0 | 1 => {
                    let e = pool[rng.below(pool.len())];
                    let rule = RuleId(rng.below(rules.len()));
                    let committed = bits(inc.summary());
                    let got = inc.probe_edge(&tree, &tech, e, rule);
                    let mut trial = asg.clone();
                    trial.set(e, rule);
                    let fresh = IncrementalAnalyzer::with_scales(&tree, &tech, &trial, r, c);
                    prop_assert_eq!(bits(got), bits(fresh.summary()), "step {} probe of edge {}", step, e.0);
                    prop_assert!(inc.pending_cone().is_empty(), "step {} probe left a candidate", step);
                    prop_assert_eq!(bits(inc.summary()), committed, "step {} probe moved the committed state", step);
                }
                _ => {
                    let mv = if rng.below(2) == 0 {
                        vec![(pool[rng.below(pool.len())], RuleId(rng.below(rules.len())))]
                    } else {
                        moves(&mut rng, &edges, rules.len())
                    };
                    inc.try_moves(&tree, &tech, &mv);
                    if rng.below(3) < 2 {
                        inc.commit();
                        for &(e, rule) in &mv {
                            asg.set(e, rule);
                        }
                    } else {
                        inc.rollback();
                    }
                }
            }
        }
    }

    /// The repair queries answer exactly what a scan of the committed
    /// report answers, ties included.
    #[test]
    fn repair_queries_match_report_scans(
        kind in 0usize..4,
        n in 2usize..160,
        seed in 0u64..400,
        corner in 0usize..3,
        ops in 0u64..1_000_000,
    ) {
        let tech = Technology::n45();
        let tree = build_tree(kind, n, seed, &tech);
        let (r, c) = scales(corner);
        let rules = tech.rules();
        let edges: Vec<NodeId> = tree.edges().collect();
        let mut rng = Mix(ops);
        let asg = Assignment::uniform(&tree, RuleId(rng.below(rules.len())));
        let mut inc = IncrementalAnalyzer::with_scales(&tree, &tech, &asg, r, c);

        for step in 0..30 {
            let report = inc.report(&tree);
            prop_assert_eq!(inc.latest_sink(&tree), brute_latest(&tree, &report), "step {}", step);
            // Limits below, at and above the worst slew, plus one node's
            // exact slew (a node at the limit does not violate).
            let probe = NodeId(rng.below(tree.len()));
            for limit in [
                0.0,
                report.max_slew_ps() * 0.9,
                report.max_slew_ps(),
                report.max_slew_ps() + 1.0,
                report.slew_ps(probe),
            ] {
                let mut got = inc.slew_violators(&tree, limit);
                got.sort_unstable();
                prop_assert_eq!(got, brute_violators(&tree, &report, limit), "step {} limit {}", step, limit);
            }
            let mv = moves(&mut rng, &edges, rules.len());
            inc.try_moves(&tree, &tech, &mv);
            if rng.below(4) == 0 {
                inc.rollback();
            } else {
                inc.commit();
            }
        }
    }
}
