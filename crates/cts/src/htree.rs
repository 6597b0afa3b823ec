//! Symmetric H-tree generation.
//!
//! H-trees are the textbook zero-skew structure for top-level clock
//! distribution. The generator serves tests and doc examples that need a
//! perfectly symmetric tree with known analytic properties (every root-sink
//! path is identical by construction).

use crate::{ClockTree, NodeKind};
use snr_geom::{Point, Rect};
use snr_netlist::SinkId;

/// Builds a symmetric H-tree of `levels` levels over `area`, with a sink of
/// `sink_cap_ff` at each of the `4^levels` leaf taps.
///
/// Level 1 is a single "H" (4 taps). The root is placed at the area centre.
/// The returned tree is unbuffered: a Steiner root, which the timing
/// analyzers treat as an ideal clock source, and no stage buffers.
///
/// # Panics
///
/// Panics if `levels == 0` or `levels > 8` (4⁸ = 65 536 taps is the
/// practical ceiling), or if `sink_cap_ff` is not positive.
///
/// # Examples
///
/// ```
/// use snr_cts::h_tree;
/// use snr_geom::{Point, Rect};
///
/// let area = Rect::new(Point::new(0, 0), Point::new(1_000_000, 1_000_000));
/// let tree = h_tree(area, 2, 10.0);
/// assert_eq!(tree.sink_nodes().len(), 16);
/// ```
pub fn h_tree(area: Rect, levels: u32, sink_cap_ff: f64) -> ClockTree {
    assert!(
        (1..=8).contains(&levels),
        "levels {levels} outside supported range 1..=8"
    );
    assert!(
        sink_cap_ff.is_finite() && sink_cap_ff > 0.0,
        "sink cap {sink_cap_ff} must be positive"
    );
    let mut tree = ClockTree::with_root(area.center(), NodeKind::Steiner);
    let root = tree.root();
    let mut next_sink = 0usize;
    subdivide(
        &mut tree,
        root,
        area,
        levels,
        sink_cap_ff,
        &mut next_sink,
    );
    debug_assert!(tree.check().is_ok());
    tree
}

/// Expands one H at `parent` (centre of `area`), recursing per quadrant.
fn subdivide(
    tree: &mut ClockTree,
    parent: crate::NodeId,
    area: Rect,
    levels: u32,
    sink_cap_ff: f64,
    next_sink: &mut usize,
) {
    let c = area.center();
    let w4 = area.width() / 4;
    let h4 = area.height() / 4;
    // Horizontal bar ends of the H.
    let left = Point::new(c.x - w4, c.y);
    let right = Point::new(c.x + w4, c.y);
    for arm in [left, right] {
        let arm_id = tree.add_node(NodeKind::Steiner, arm, parent, parent_dist(tree, parent, arm));
        // Vertical bar ends.
        for dy in [-h4, h4] {
            let tap = Point::new(arm.x, arm.y + dy);
            if levels == 1 {
                let id = SinkId(*next_sink);
                *next_sink += 1;
                tree.add_node(
                    NodeKind::Sink {
                        sink: id,
                        cap_ff: sink_cap_ff,
                    },
                    tap,
                    arm_id,
                    dy.abs(),
                );
            } else {
                let tap_id =
                    tree.add_node(NodeKind::Steiner, tap, arm_id, dy.abs());
                let quadrant = Rect::new(
                    Point::new(arm.x - w4, tap.y - h4),
                    Point::new(arm.x + w4, tap.y + h4),
                );
                subdivide(tree, tap_id, quadrant, levels - 1, sink_cap_ff, next_sink);
            }
        }
    }
}

fn parent_dist(tree: &ClockTree, parent: crate::NodeId, p: Point) -> i64 {
    tree.node(parent).location().manhattan(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_area() -> Rect {
        Rect::new(Point::new(0, 0), Point::new(1_600_000, 1_600_000))
    }

    #[test]
    fn tap_counts() {
        for levels in 1..=4u32 {
            let t = h_tree(unit_area(), levels, 10.0);
            assert_eq!(t.sink_nodes().len(), 4usize.pow(levels));
            t.check().unwrap();
        }
    }

    #[test]
    fn perfectly_balanced_path_lengths() {
        let t = h_tree(unit_area(), 3, 10.0);
        // Every root-to-sink routed length must be identical.
        let depths = t.depths();
        let mut path_len = vec![0i64; t.len()];
        for id in t.topo_order() {
            if let Some(p) = t.node(id).parent() {
                path_len[id.0] = path_len[p.0] + t.node(id).edge_len_nm();
            }
        }
        let sink_lens: Vec<i64> = t.sink_nodes().iter().map(|s| path_len[s.0]).collect();
        assert!(sink_lens.windows(2).all(|w| w[0] == w[1]));
        let sink_depths: Vec<usize> = t.sink_nodes().iter().map(|s| depths[s.0]).collect();
        assert!(sink_depths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sinks_inside_area() {
        let area = unit_area();
        let t = h_tree(area, 3, 10.0);
        for s in t.sink_nodes() {
            assert!(area.contains(t.node(s).location()));
        }
    }

    #[test]
    fn sink_ids_dense() {
        let t = h_tree(unit_area(), 2, 10.0);
        let mut ids: Vec<usize> = t
            .sink_nodes()
            .iter()
            .map(|s| match t.node(*s).kind() {
                NodeKind::Sink { sink, .. } => sink.0,
                _ => unreachable!(),
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_levels_panics() {
        let _ = h_tree(unit_area(), 0, 10.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_cap_panics() {
        let _ = h_tree(unit_area(), 1, -1.0);
    }
}
