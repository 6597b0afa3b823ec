//! Optimizer output lock: FNV-64 digests of every optimizer outcome on a
//! small corpus under eight constraint sets, and on the eight built-in
//! suite designs (400–3000 sinks) at the default constraints; then the
//! corpus on the extended and shielded N45 menus, and iteration-capped
//! `SmartNdr` and `GreedyDowngrade` runs whose caps bind inside every
//! downgrade phase; last, the baselines (`LevelBased`, uniform 2W2S and
//! the 20k-move annealer) on the corpus under the default and tight sets.
//! Checked against `tests/golden/optimizer_digests.txt`.
//!
//! Each digest covers the per-edge rules, the exact bits of network power,
//! skew and worst slew, the feasibility verdict, every budget phase's
//! iteration count and the number of degradation-ladder events. A change
//! that moves any of them — one probe decided differently, one ulp of
//! power — fails here under the entry's name.
//!
//! The digests computed by the last run are also written to
//! `optimizer_digests.actual.txt` in Cargo's integration-test temp
//! directory; `scripts/golden.sh --bless` copies them over the checked-in
//! file and prints every entry that changed.

mod common;

use smart_ndr::core::{
    Annealing, Budget, GreedyDowngrade, GreedyUpgradeRepair, LevelBased, NdrOptimizer, Outcome,
    SmartNdr, Uniform,
};
use smart_ndr::cts::{synthesize, ClockTree, CtsOptions, NodeId};
use smart_ndr::netlist::{ispd_like_suite, BenchmarkSpec, Design};
use smart_ndr::tech::{RuleSet, Technology};
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = "tests/golden/optimizer_digests.txt";

/// `(sinks, seed)` of each corpus design.
const DESIGNS: [(usize, u64); 3] = [(60, 1), (180, 2), (400, 3)];

/// The constraint sets every design is optimized under: each entry's
/// label, then its name in [`common::SETS`].
const SETS: [(&str, &str); 8] = [
    ("default", "default"),
    ("tight", "tight"),
    ("loose", "loose"),
    ("window", "window15"),
    ("corners", "corners"),
    ("track", "track"),
    ("em", "em"),
    ("noise", "noise"),
];

/// The N45 menus beyond the standard one. On the shielded menu a
/// `1W1S+SH` edge has the default's capacitance, so its refine passes
/// visit movable edges among the zero-gain ones.
fn menus() -> [(&'static str, RuleSet); 2] {
    [("extended", RuleSet::extended()), ("shielded", RuleSet::with_shielding())]
}

/// The constraint sets the corpus runs under on every menu of [`menus`].
const MENU_SETS: [(&str, &str); 3] = [("default", "default"), ("tight", "tight"), ("noise", "noise")];

/// Per-phase iteration caps of the capped runs on `lock400`. On its trees
/// `greedy-levels` has 10 ticks, `stage-depths` 6 and `stage-nets` 238 or
/// more, and a refine pass visits about 800 edges. So 3 binds inside every
/// phase, 100 and 197 inside the first refine pass (on the shielded menu
/// under `tight`, 197 lands among the zero-gain movable edges that follow
/// the positive-gain ones), 500 in the first pass's tail of edges no
/// downgrade improves, and 870 inside the second pass.
const CAPS: [u64; 5] = [3, 100, 197, 500, 870];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(tree: &ClockTree, out: &Outcome) -> u64 {
    let mut h = Fnv::new();
    for v in 0..tree.len() {
        h.u64(out.assignment().rule(NodeId(v)).0 as u64);
    }
    h.u64(out.power().network_uw().to_bits());
    h.u64(out.timing().skew_ps().to_bits());
    h.u64(out.timing().max_slew_ps().to_bits());
    h.u64(u64::from(out.meets_constraints()));
    for b in out.budget_reports() {
        h.bytes(b.phase.as_bytes());
        h.u64(b.iterations_done);
        h.u64(u64::from(b.exhausted));
    }
    h.u64(out.degradations().len() as u64);
    h.0
}

/// Appends the line of one outcome, keyed `design/label/optimizer`: the
/// digest, then a readable summary of what it covers.
fn line(text: &mut String, design: &Design, label: &str, tree: &ClockTree, out: &Outcome) {
    let iters: u64 = out.budget_reports().iter().map(|b| b.iterations_done).sum();
    writeln!(
        text,
        "{}/{label}/{} {:016x} power_uw={:.6} skew_ps={:.6} slew_ps={:.6} meets={} iters={iters} degradations={}",
        design.name(),
        out.name(),
        digest(tree, out),
        out.power().network_uw(),
        out.timing().skew_ps(),
        out.timing().max_slew_ps(),
        out.meets_constraints(),
        out.degradations().len(),
    )
    .expect("writing to a String cannot fail");
}

/// Appends one line per optimizer for `design` under each constraint set
/// of `sets`, each label prefixed with `menu`.
fn lines(text: &mut String, design: &Design, tech: &Technology, menu: &str, sets: &[(&str, &str)]) {
    let optimizers: [&dyn NdrOptimizer; 3] =
        [&SmartNdr::default(), &GreedyDowngrade::default(), &GreedyUpgradeRepair::default()];
    optimizer_lines(text, design, tech, menu, sets, &optimizers);
}

/// Appends one line per optimizer of `optimizers` for `design` under each
/// constraint set of `sets`, each label prefixed with `menu`.
fn optimizer_lines(
    text: &mut String,
    design: &Design,
    tech: &Technology,
    menu: &str,
    sets: &[(&str, &str)],
    optimizers: &[&dyn NdrOptimizer],
) {
    let tree = synthesize(design, tech, &CtsOptions::default()).expect("corpus synthesizes");
    for &(label, set) in sets {
        let ctx = common::context(set, design, &tree, tech);
        for opt in optimizers {
            line(text, design, &format!("{menu}{label}"), &tree, &opt.optimize(&ctx));
        }
    }
}

/// Appends the lines of `SmartNdr` and `GreedyDowngrade` on `design`
/// under the constraint set `set`, capped at each of [`CAPS`] iterations
/// per phase.
fn capped_lines(text: &mut String, design: &Design, tech: &Technology, menu: &str, set: &str) {
    let tree = synthesize(design, tech, &CtsOptions::default()).expect("corpus synthesizes");
    let ctx = common::context(set, design, &tree, tech);
    for cap in CAPS {
        let budget = Budget::unlimited().with_max_iters(cap);
        let optimizers: [&dyn NdrOptimizer; 2] = [
            &SmartNdr::default().with_budget(budget.clone()),
            &GreedyDowngrade::default().with_budget(budget),
        ];
        for opt in optimizers {
            line(text, design, &format!("{menu}{set}:cap{cap}"), &tree, &opt.optimize(&ctx));
        }
    }
}

/// One line per (design, constraint set, optimizer): the small corpus
/// under every set of [`SETS`], then the built-in suite at the defaults,
/// then the corpus on each of [`menus`] under [`MENU_SETS`], then the
/// capped runs on `lock400` on every menu under `default` and `tight`,
/// then the baselines on the corpus under `default` and `tight`.
fn compute() -> String {
    let tech = Technology::n45();
    let corpus: Vec<Design> = DESIGNS
        .iter()
        .map(|&(sinks, seed)| {
            BenchmarkSpec::new(format!("lock{sinks}"), sinks)
                .seed(seed)
                .build()
                .expect("corpus spec is valid")
        })
        .collect();
    let mut text = String::new();
    for design in &corpus {
        lines(&mut text, design, &tech, "", &SETS);
    }
    for design in ispd_like_suite() {
        lines(&mut text, &design, &tech, "", &[("default", "default")]);
    }
    let menus: Vec<(String, Technology)> = menus()
        .into_iter()
        .map(|(name, rules)| (format!("{name}:"), tech.with_rules(rules)))
        .collect();
    for (menu, tech) in &menus {
        for design in &corpus {
            lines(&mut text, design, tech, menu, &MENU_SETS);
        }
    }
    let lock400 = corpus.last().expect("the corpus ends with lock400");
    for (menu, tech) in std::iter::once(&(String::new(), tech.clone())).chain(&menus) {
        for set in ["default", "tight"] {
            capped_lines(&mut text, lock400, tech, menu, set);
        }
    }
    let (uniform, anneal) = (Uniform::conservative(), Annealing::new(20_000, 1));
    let baselines: [&dyn NdrOptimizer; 3] = [&LevelBased, &uniform, &anneal];
    for design in &corpus {
        let sets = [("default", "default"), ("tight", "tight")];
        optimizer_lines(&mut text, design, &tech, "", &sets, &baselines);
    }
    text
}

#[test]
fn optimizer_outputs_match_golden_digests() {
    let actual = compute();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("optimizer_digests.actual.txt");
    std::fs::write(&tmp, &actual).expect("write the actual digests");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden = std::fs::read_to_string(&golden_path).expect("read the golden digests");
    let drift: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  golden: {want}\n  actual: {got}"))
        .collect();
    let (nw, na) = (golden.lines().count(), actual.lines().count());
    assert_eq!(
        nw, na,
        "golden has {nw} entries, this run {na}; rerun scripts/golden.sh --bless if the corpus changed on purpose"
    );
    assert!(
        drift.is_empty(),
        "{} optimizer outcome(s) drifted from {GOLDEN}:\n{}\nactual digests: {}",
        drift.len(),
        drift.join("\n"),
        tmp.display(),
    );
}
