//! Optimizer output lock: FNV-64 digests of every optimizer outcome on a
//! small corpus under eight constraint sets, and on the eight built-in
//! suite designs (400–3000 sinks) at the default constraints, checked
//! against `tests/golden/optimizer_digests.txt`.
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

use smart_ndr::core::{GreedyDowngrade, GreedyUpgradeRepair, NdrOptimizer, Outcome, SmartNdr};
use smart_ndr::cts::{synthesize, ClockTree, CtsOptions, NodeId};
use smart_ndr::netlist::{ispd_like_suite, BenchmarkSpec, Design};
use smart_ndr::tech::Technology;
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

/// Appends one line per optimizer for `design` under the constraint set
/// `set`: the digest, then a readable summary of what it covers.
fn lines(text: &mut String, design: &Design, tech: &Technology, sets: &[(&str, &str)]) {
    let optimizers: [&dyn NdrOptimizer; 3] =
        [&SmartNdr::default(), &GreedyDowngrade::default(), &GreedyUpgradeRepair::default()];
    let tree = synthesize(design, tech, &CtsOptions::default()).expect("corpus synthesizes");
    for &(label, set) in sets {
        let ctx = common::context(set, design, &tree, tech);
        for opt in optimizers {
            let out = opt.optimize(&ctx);
            let iters: u64 = out.budget_reports().iter().map(|b| b.iterations_done).sum();
            writeln!(
                text,
                "{}/{label}/{} {:016x} power_uw={:.6} skew_ps={:.6} slew_ps={:.6} meets={} iters={iters} degradations={}",
                design.name(),
                opt.name(),
                digest(&tree, &out),
                out.power().network_uw(),
                out.timing().skew_ps(),
                out.timing().max_slew_ps(),
                out.meets_constraints(),
                out.degradations().len(),
            )
            .expect("writing to a String cannot fail");
        }
    }
}

/// One line per (design, constraint set, optimizer): the small corpus
/// under every set of [`SETS`], then the built-in suite at the defaults.
fn compute() -> String {
    let tech = Technology::n45();
    let mut text = String::new();
    for (sinks, seed) in DESIGNS {
        let design = BenchmarkSpec::new(format!("lock{sinks}"), sinks)
            .seed(seed)
            .build()
            .expect("corpus spec is valid");
        lines(&mut text, &design, &tech, &SETS);
    }
    for design in ispd_like_suite() {
        lines(&mut text, &design, &tech, &[("default", "default")]);
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
