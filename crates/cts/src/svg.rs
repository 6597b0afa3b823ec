//! SVG rendering of clock trees.
//!
//! Produces a self-contained SVG of a routed clock tree with edges colored
//! by their assigned routing rule and stroke width proportional to the
//! drawn wire width — the picture every clock-tree paper shows. Pure string
//! generation: no I/O, fully testable.

use crate::{Assignment, ClockTree, NodeKind};
use snr_geom::{lshape_via, Rect};
use snr_tech::RuleSet;
use std::fmt::Write as _;

/// Output image width in pixels (height follows the aspect ratio).
const WIDTH_PX: f64 = 900.0;

/// Categorical palette (color-blind-safe Okabe–Ito), one entry per rule id.
const PALETTE: [&str; 8] = [
    "#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7", "#56B4E9", "#F0E442", "#000000",
];

/// Renders `tree` under `assignment` as an SVG document.
///
/// Edges are drawn as L-shaped routes colored per rule (legend included);
/// stroke width scales with the rule's width multiplier. Buffers render as
/// squares, sinks as dots.
///
/// # Panics
///
/// Panics if the assignment does not match the tree, or references rules
/// outside `rules`.
///
/// # Examples
///
/// ```
/// use snr_cts::{h_tree, svg::render_svg, Assignment};
/// use snr_geom::{Point, Rect};
/// use snr_tech::RuleSet;
///
/// let area = Rect::new(Point::new(0, 0), Point::new(100_000, 100_000));
/// let tree = h_tree(area, 2, 5.0);
/// let rules = RuleSet::standard();
/// let asg = Assignment::uniform(&tree, rules.default_id());
/// let svg = render_svg(&tree, &rules, &asg);
/// assert!(svg.starts_with("<svg"));
/// ```
pub fn render_svg(tree: &ClockTree, rules: &RuleSet, assignment: &Assignment) -> String {
    assert_eq!(
        assignment.len(),
        tree.len(),
        "assignment built for a different tree"
    );
    let root_loc = tree.node(tree.root()).location();
    let bbox = Rect::bounding(tree.nodes().iter().map(|n| n.location()))
        .unwrap_or_else(|| Rect::new(root_loc, root_loc))
        .inflate(1);
    let scale = WIDTH_PX / bbox.width().max(1) as f64;
    let h_px = bbox.height().max(1) as f64 * scale;
    let legend_h = 22.0 * rules.len() as f64 + 10.0;

    // SVG y grows downward; flip so the die's y grows upward.
    let tx = |x: i64| (x - bbox.lo().x) as f64 * scale;
    let ty = |y: i64| h_px - (y - bbox.lo().y) as f64 * scale;

    let mut out = String::new();
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
        WIDTH_PX,
        h_px + legend_h,
        WIDTH_PX,
        h_px + legend_h,
    );
    let _ = write!(
        out,
        r#"<rect width="{:.0}" height="{:.0}" fill="white"/>"#,
        WIDTH_PX,
        h_px + legend_h
    );

    // Edges, grouped by rule so the SVG stays compact and rules toggle as
    // layers in editors.
    for (rid, rule) in rules.iter() {
        let color = PALETTE[rid.0 % PALETTE.len()];
        let stroke = (0.8 + 0.8 * rule.width_mult()).min(4.0);
        let mut path = String::new();
        for (e, assigned) in assignment.iter_edges(tree) {
            if assigned != rid {
                continue;
            }
            let node = tree.node(e);
            let Some(pid) = node.parent() else {
                continue; // iter_edges never yields the root
            };
            let parent = tree.node(pid);
            let a = parent.location();
            let b = node.location();
            let via = lshape_via(a, b);
            let _ = write!(
                path,
                "M{:.1} {:.1} L{:.1} {:.1} L{:.1} {:.1} ",
                tx(a.x),
                ty(a.y),
                tx(via.x),
                ty(via.y),
                tx(b.x),
                ty(b.y)
            );
        }
        if !path.is_empty() {
            let _ = write!(
                out,
                r#"<path d="{}" fill="none" stroke="{color}" stroke-width="{stroke:.2}" stroke-linecap="round"/>"#,
                path.trim_end()
            );
        }
    }

    // Markers.
    for node in tree.nodes() {
        match node.kind() {
            NodeKind::Sink { .. } => {
                let _ = write!(
                    out,
                    r##"<circle cx="{:.1}" cy="{:.1}" r="1.6" fill="#333"/>"##,
                    tx(node.location().x),
                    ty(node.location().y)
                );
            }
            NodeKind::Buffer { .. } => {
                let (x, y) = (tx(node.location().x), ty(node.location().y));
                let _ = write!(
                    out,
                    r##"<rect x="{:.1}" y="{:.1}" width="5" height="5" fill="#b22" stroke="none"/>"##,
                    x - 2.5,
                    y - 2.5
                );
            }
            NodeKind::Steiner => {}
        }
    }

    // Legend.
    for (i, (rid, rule)) in rules.iter().enumerate() {
        let y = h_px + 16.0 + 22.0 * i as f64;
        let color = PALETTE[rid.0 % PALETTE.len()];
        let _ = write!(
            out,
            r#"<line x1="8" y1="{y:.0}" x2="40" y2="{y:.0}" stroke="{color}" stroke-width="3"/><text x="48" y="{:.0}" font-family="sans-serif" font-size="13">{rule}</text>"#,
            y + 4.0
        );
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h_tree;
    use snr_geom::Point;

    fn fixture() -> (ClockTree, RuleSet, Assignment) {
        let area = Rect::new(Point::new(0, 0), Point::new(400_000, 400_000));
        let tree = h_tree(area, 2, 5.0);
        let rules = RuleSet::standard();
        let asg = Assignment::uniform(&tree, rules.most_conservative_id());
        (tree, rules, asg)
    }

    #[test]
    fn renders_wellformed_document() {
        let (tree, rules, asg) = fixture();
        let svg = render_svg(&tree, &rules, &asg);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        // One path group (only one rule used), plus a legend entry per rule.
        assert_eq!(svg.matches("<path").count(), 1);
        assert_eq!(svg.matches("<text").count(), rules.len());
        // 16 sinks drawn.
        assert_eq!(svg.matches("<circle").count(), 16);
    }

    #[test]
    fn rule_groups_split_by_assignment() {
        let (tree, rules, mut asg) = fixture();
        let e = tree.edges().next().unwrap();
        asg.set(e, rules.default_id());
        let svg = render_svg(&tree, &rules, &asg);
        assert_eq!(svg.matches("<path").count(), 2);
    }

    #[test]
    #[should_panic(expected = "different tree")]
    fn mismatched_assignment_panics() {
        let (tree, rules, _) = fixture();
        let other = h_tree(
            Rect::new(Point::new(0, 0), Point::new(100_000, 100_000)),
            1,
            5.0,
        );
        let asg = Assignment::uniform(&other, rules.default_id());
        let _ = render_svg(&tree, &rules, &asg);
    }

    #[test]
    fn coordinates_fit_viewbox() {
        let (tree, rules, asg) = fixture();
        let svg = render_svg(&tree, &rules, &asg);
        // No negative coordinates should appear in path data.
        assert!(!svg.contains("M-") && !svg.contains(" L-"));
    }
}
