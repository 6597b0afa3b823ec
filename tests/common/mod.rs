//! Helpers shared by the integration tests that optimize under named
//! constraint sets.

use smart_ndr::core::{Constraints, OptContext};
use smart_ndr::cts::ClockTree;
use smart_ndr::netlist::{random_timing_arcs, Design};
use smart_ndr::power::PowerModel;
use smart_ndr::tech::{Corner, Technology};

/// Every constraint set [`context`] builds.
#[allow(dead_code)]
pub const SETS: [&str; 9] =
    ["default", "tight", "loose", "window15", "window40", "corners", "track", "em", "noise"];

/// The optimization context for `tree` under the constraint set `set`, one
/// of [`SETS`]:
/// - `default`: slew margin 1.10, 30 ps skew budget;
/// - `tight` (1.02, 8 ps) and `loose` (1.4, 80 ps);
/// - `window15`, `window40`: a useful-skew point as the Pareto sweep builds
///   it, ±`w` ps windows on `sinks/2` nearby sink pairs under a relaxed
///   150 ps global budget;
/// - `corners`: the default limits at the slow and fast corners too;
/// - `track`: the default limits and a track budget of 0.8 × the
///   conservative baseline's track cost;
/// - `em` and `noise`: the default limits with an EM limit of 2.5 mA/µm or
///   a noise limit of 0.05 fF/µm.
#[allow(dead_code)]
pub fn context<'a>(
    set: &str,
    design: &Design,
    tree: &'a ClockTree,
    tech: &'a Technology,
) -> OptContext<'a> {
    under(set, design, OptContext::new(tree, tech, PowerModel::new(design.freq_ghz())))
}

/// `ctx` under the constraint set `set`, as [`context`] builds it: over
/// whatever tree state `ctx` has, its own or a shared one.
#[allow(dead_code)]
pub fn under<'a>(set: &str, design: &Design, ctx: OptContext<'a>) -> OptContext<'a> {
    let (tree, tech) = (ctx.tree(), ctx.tech());
    let windows = |ctx: OptContext<'a>, w: f64| {
        let count = (design.sinks().len() / 2).clamp(1, 400);
        let arcs = random_timing_arcs(design, count, (w, w), (w, w), 77);
        ctx.with_constraints(Constraints::relative(tree, tech, 1.1, 150.0))
            .with_timing_arcs(arcs)
            .expect("synthetic arcs reference the design's own sinks")
    };
    let defaults = ctx.constraints();
    match set {
        "default" => ctx,
        "tight" => ctx.with_constraints(Constraints::relative(tree, tech, 1.02, 8.0)),
        "loose" => ctx.with_constraints(Constraints::relative(tree, tech, 1.4, 80.0)),
        "window15" => windows(ctx, 15.0),
        "window40" => windows(ctx, 40.0),
        "corners" => ctx.with_corners(vec![Corner::slow(), Corner::fast()]),
        "track" => {
            let base_um = ctx.conservative_baseline().power().track_cost_um();
            ctx.with_constraints(defaults.with_track_budget_um(0.8 * base_um))
        }
        "em" => ctx.with_constraints(defaults.with_em_limit(2.5)),
        "noise" => ctx.with_constraints(defaults.with_noise_limit(0.05)),
        other => unreachable!("unknown constraint set {other}"),
    }
}
