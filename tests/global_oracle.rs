//! Exhaustive oracle on tiny trees: every rule assignment of every tree
//! with at most six edges, under each constraint set of
//! [`common::SETS`], gives the cheapest feasible network power. Each
//! optimizer of the request API then runs on the same cell, and its gap to
//! that optimum is recorded.
//!
//! The oracle evaluates each assignment with `OptContext::feasible` and
//! `OptContext::power` only, the full-analysis path, so it shares no code
//! with the evaluation session or the incremental timing engine the
//! optimizers use. Two properties must hold on every cell:
//! - an optimizer's result is feasible whenever the conservative start is;
//! - no feasible result is cheaper than the optimum. A failure here means
//!   the enumeration or the feasibility predicate is broken.
//!
//! The gaps themselves are locked: one line per (cell, method) is checked
//! byte for byte against `tests/golden/oracle_gaps.txt`. The test leaves
//! what it computed as `oracle_gaps.actual.txt` in Cargo's
//! integration-test temp directory; `scripts/golden.sh --bless` copies it
//! over the checked-in file.

mod common;

use smart_ndr::core::{
    Annealing, GreedyDowngrade, GreedyUpgradeRepair, LevelBased, NdrOptimizer, OptContext,
    SmartNdr, Uniform,
};
use smart_ndr::cts::{synthesize, Assignment, ClockTree, CtsOptions};
use smart_ndr::netlist::{BenchmarkSpec, Design};
use smart_ndr::power::PowerModel;
use smart_ndr::tech::{RuleId, Technology};
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = "tests/golden/oracle_gaps.txt";

/// The largest tree the oracle enumerates: 4^6 = 4096 assignments.
const MAX_EDGES: usize = 6;

/// One tree of the oracle's corpus and the label its lines carry.
struct Tree {
    label: String,
    design: Design,
    tree: ClockTree,
}

/// The corpus on `tech`: single-stage trees (2, 3 or 4 sinks give 2, 4 or
/// 6 edges under one buffer, at the root), then multi-stage trees — small
/// sink counts spread over dies wide enough that CTS buffers a subtree —
/// with at least two buffers and at most [`MAX_EDGES`] edges.
fn corpus(tech: &Technology) -> Vec<Tree> {
    let build = |label: String, spec: BenchmarkSpec| {
        let design = spec.build().expect("corpus spec is valid");
        let tree = synthesize(&design, tech, &CtsOptions::default()).expect("corpus synthesizes");
        Tree { label, design, tree }
    };
    let name = tech.name().to_lowercase();
    let mut trees = Vec::new();
    for sinks in 2..=4 {
        for seed in 1..=3 {
            let spec = BenchmarkSpec::new(format!("tiny{sinks}"), sinks).seed(seed);
            trees.push(build(format!("{name}-{sinks}s-seed{seed}"), spec));
        }
    }
    for die in [2000, 3000, 5000] {
        for sinks in 2..=5 {
            for seed in 1..=6 {
                let spec = BenchmarkSpec::new(format!("tiny{sinks}"), sinks)
                    .seed(seed)
                    .die_um(f64::from(die), f64::from(die));
                let t = build(format!("{name}-{sinks}s-seed{seed}-die{die}"), spec);
                if t.tree.buffer_nodes().len() >= 2 && t.tree.edges().count() <= MAX_EDGES {
                    trees.push(t);
                }
            }
        }
    }
    trees
}

/// Every assignment of `tree`, cheapest network power first. Power does
/// not depend on the constraints, so one list serves all of a tree's
/// cells.
fn by_power(ctx: &OptContext<'_>) -> Vec<(f64, Assignment)> {
    let edges: Vec<_> = ctx.tree().edges().collect();
    assert!(edges.len() <= MAX_EDGES, "{} edges are too many to enumerate", edges.len());
    let rules = ctx.tech().rules().len();
    let count = rules.pow(edges.len() as u32);
    let mut all: Vec<(f64, Assignment)> = (0..count)
        .map(|code| {
            let mut asg = ctx.conservative_assignment();
            let mut rest = code;
            for &e in &edges {
                asg.set(e, RuleId(rest % rules));
                rest /= rules;
            }
            (ctx.power(&asg).network_uw(), asg)
        })
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    all
}

/// The optimizers of the request API, as it builds them without a budget,
/// under their protocol names.
fn methods() -> Vec<(&'static str, Box<dyn NdrOptimizer>)> {
    vec![
        ("smart", Box::new(SmartNdr::default())),
        ("greedy", Box::new(GreedyDowngrade::default())),
        ("upgrade", Box::new(GreedyUpgradeRepair::default())),
        ("level", Box::new(LevelBased)),
        ("uniform", Box::new(Uniform::conservative())),
        ("anneal", Box::new(Annealing::new(20_000, 1))),
    ]
}

/// The gap lines of every cell, and every violated property.
fn compute() -> (String, Vec<String>) {
    let methods = methods();
    let mut text = String::new();
    let mut failures = Vec::new();
    for tech in [Technology::n45(), Technology::n32()] {
        for Tree { label, design, tree } in corpus(&tech) {
            let edges = tree.edges().count();
            let stages = tree.buffer_nodes().len();
            let power_model = PowerModel::new(design.freq_ghz());
            let ranked = by_power(&OptContext::new(&tree, &tech, power_model));
            for set in common::SETS {
                let ctx = common::context(set, &design, &tree, &tech);
                let optimum = ranked.iter().find(|(_, asg)| ctx.feasible(asg)).map(|(uw, _)| *uw);
                let start_feasible = ctx.feasible(&ctx.conservative_assignment());
                for (method, opt) in &methods {
                    let key = format!("{label}/{set}/{method}");
                    let out = opt.optimize(&ctx);
                    let (uw, meets) = (out.power().network_uw(), out.meets_constraints());
                    if start_feasible && !meets {
                        let why = "infeasible where the conservative start is feasible";
                        failures.push(format!("{key}: {why}"));
                    }
                    let gap = match optimum {
                        Some(best) if meets => {
                            if uw < best {
                                failures.push(format!("{key}: {uw} uW beats {best}"));
                            }
                            format!("{:.3}", 100.0 * (uw - best) / best)
                        }
                        _ => "-".to_owned(),
                    };
                    let optimum = optimum.map_or("none".to_owned(), |best| format!("{best:.6}"));
                    writeln!(
                        text,
                        "{key} edges={edges} stages={stages} optimum_uw={optimum} power_uw={uw:.6} gap_pct={gap} meets={meets}",
                    )
                    .expect("writing to a String cannot fail");
                }
            }
        }
    }
    (text, failures)
}

#[test]
fn optimizers_against_the_exhaustive_optimum() {
    let (actual, failures) = compute();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("oracle_gaps.actual.txt");
    std::fs::write(&tmp, &actual).expect("write the actual gaps");
    assert!(failures.is_empty(), "{} oracle failure(s):\n{}", failures.len(), failures.join("\n"));

    let golden = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN))
        .expect("read the golden gaps");
    let drift: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  golden: {want}\n  actual: {got}"))
        .collect();
    let (nw, na) = (golden.lines().count(), actual.lines().count());
    assert_eq!(
        nw, na,
        "golden has {nw} lines, this run {na}; rerun scripts/golden.sh --bless if the corpus changed on purpose"
    );
    assert!(
        drift.is_empty(),
        "{} gap line(s) drifted from {GOLDEN}:\n{}\nactual gaps: {}",
        drift.len(),
        drift.join("\n"),
        tmp.display(),
    );
}
