//! Clock-tree lock: FNV-64 digests of the trees CTS builds, checked
//! against `tests/golden/cts_trees.txt`.
//!
//! Each tree digest covers every node's parent, kind (with its sink id and
//! pin capacitance, or its buffer cell), location and routed edge length,
//! followed by the readable `tree.stats()`. The corpus:
//!
//! - the eight `ispd_like_suite()` designs on N45 and N32 (`synthesize`);
//! - F6's designs (300/41, 600/42, 1000/43) under
//!   `nearest_neighbor_topology`, built with `build_buffered_tree`;
//! - designs of one, two and three sinks on N45 and N32;
//! - the 20k-sink design of `smart-ndr run --sinks 20000 --seed 3` on N45;
//! - the digest of `render_svg`'s bytes for one tree under a mixed
//!   assignment.
//!
//! The run leaves what it computed as `cts_trees.actual.txt` in Cargo's
//! integration-test temp directory; `scripts/golden.sh --bless` copies it
//! over the checked-in file.

use smart_ndr::cts::{
    build_buffered_tree, nearest_neighbor_topology, svg::render_svg, synthesize, Assignment,
    ClockTree, CtsOptions, NodeKind,
};
use smart_ndr::netlist::{ispd_like_suite, BenchmarkSpec, Design};
use smart_ndr::tech::{RuleId, Technology};
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = "tests/golden/cts_trees.txt";

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

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn tree_digest(tree: &ClockTree) -> u64 {
    let mut h = Fnv::new();
    for node in tree.nodes() {
        h.u64(node.parent().map_or(u64::MAX, |p| p.0 as u64));
        match node.kind() {
            NodeKind::Sink { sink, cap_ff } => {
                h.u64(0);
                h.u64(sink.0 as u64);
                h.u64(cap_ff.to_bits());
            }
            NodeKind::Steiner => h.u64(1),
            NodeKind::Buffer { cell } => {
                h.u64(2);
                h.u64(cell as u64);
            }
        }
        h.i64(node.location().x);
        h.i64(node.location().y);
        h.i64(node.edge_len_nm());
    }
    h.0
}

fn line(text: &mut String, key: &str, tree: &ClockTree) {
    writeln!(text, "{key} {:016x} {}", tree_digest(tree), tree.stats())
        .expect("writing to a String cannot fail");
}

fn tiny(n: usize) -> Design {
    BenchmarkSpec::new(format!("tiny{n}"), n)
        .seed(n as u64)
        .build()
        .expect("tiny spec is valid")
}

/// One line per tree, then the SVG line.
fn compute() -> String {
    let opts = CtsOptions::default();
    let mut text = String::new();
    for tech in [Technology::n45(), Technology::n32()] {
        for design in ispd_like_suite() {
            let tree = synthesize(&design, &tech, &opts).expect("suite designs synthesize");
            line(&mut text, &format!("{}/{}", tech.name(), design.name()), &tree);
        }
    }
    let n45 = Technology::n45();
    for (n, seed) in [(300usize, 41u64), (600, 42), (1_000, 43)] {
        let design = BenchmarkSpec::new(format!("t{n}"), n).seed(seed).build().expect("F6 spec");
        let plan = nearest_neighbor_topology(&design);
        let tree = build_buffered_tree(&design, &n45, &opts, &plan).expect("F6 designs synthesize");
        line(&mut text, &format!("{}/{}/nearest-nbr", n45.name(), design.name()), &tree);
    }
    for tech in [Technology::n45(), Technology::n32()] {
        for n in 1..=3 {
            let design = tiny(n);
            let tree = synthesize(&design, &tech, &opts).expect("tiny designs synthesize");
            line(&mut text, &format!("{}/{}", tech.name(), design.name()), &tree);
        }
    }
    // The design and name the CLI generates for `run --sinks 20000 --seed 3`.
    let big = BenchmarkSpec::new("cli-s20000", 20_000).seed(3).build().expect("20k spec");
    let tree = synthesize(&big, &n45, &opts).expect("the 20k design synthesizes");
    line(&mut text, &format!("{}/{}", n45.name(), big.name()), &tree);

    // Every rule in turn along the edges, so each rule's path group, stroke
    // and legend entry is drawn.
    let design = BenchmarkSpec::new("svg60", 60).seed(2).build().expect("svg spec");
    let tree = synthesize(&design, &n45, &opts).expect("svg design synthesizes");
    let rules = n45.rules();
    let mut asg = Assignment::uniform(&tree, rules.default_id());
    for (i, e) in tree.edges().enumerate() {
        asg.set(e, RuleId(i % rules.len()));
    }
    let svg = render_svg(&tree, rules, &asg);
    let mut h = Fnv::new();
    h.bytes(svg.as_bytes());
    writeln!(text, "{}/svg60/svg {:016x} {} bytes", n45.name(), h.0, svg.len())
        .expect("writing to a String cannot fail");
    text
}

#[test]
fn cts_trees_match_golden_digests() {
    let actual = compute();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cts_trees.actual.txt");
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
        "{} tree(s) drifted from {GOLDEN}:\n{}\nactual digests: {}",
        drift.len(),
        drift.join("\n"),
        tmp.display(),
    );
}
