//! Seeded inputs: every design a workload sends is generated here from
//! the workload seed, so the same seed gives the same request bytes.

use std::fmt::Write as _;

use snr_netlist::{save_design, BenchmarkSpec, Design};

/// SplitMix64: a tiny, well-mixed generator for workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` salted by `stream`, so each use of the seed
    /// draws an independent sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The generator seed of design `index` in stream `stream` of `seed`.
pub fn design_seed(seed: u64, stream: u64, index: usize) -> u64 {
    let mut rng = Rng::new(seed, stream);
    for _ in 0..=index % 7 {
        rng.next_u64();
    }
    rng.next_u64() ^ index as u64
}

/// A generated design with `sinks` sinks.
///
/// # Panics
///
/// Only if the generator rejects its own fixed spec, a bug.
pub fn design(name: &str, sinks: usize, seed: u64) -> Design {
    BenchmarkSpec::new(name, sinks)
        .seed(seed)
        .build()
        .expect("the benchmark generator accepts its default spec")
}

/// The design serialized as native `.sndr` text.
///
/// # Panics
///
/// Only if serializing to memory fails, which it cannot.
pub fn sndr_text(design: &Design) -> String {
    let mut bytes = Vec::new();
    save_design(design, &mut bytes).expect("writing to memory cannot fail");
    String::from_utf8(bytes).expect("the .sndr writer emits UTF-8")
}

/// The design as DEF-lite text (one database unit per nanometre).
pub fn def_text(design: &Design) -> String {
    let die = design.die();
    let root = design.clock_root();
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "DESIGN {} ;", design.name());
    let _ = writeln!(out, "UNITS DISTANCE MICRONS 1000 ;");
    let _ = writeln!(out, "FREQUENCY {} ;", design.freq_ghz());
    let _ = writeln!(
        out,
        "DIEAREA ( {} {} ) ( {} {} ) ;",
        die.lo().x,
        die.lo().y,
        die.hi().x,
        die.hi().y
    );
    let _ = writeln!(out, "CLOCKROOT ( {} {} ) ;", root.x, root.y);
    let _ = writeln!(out, "PINS {} ;", design.sinks().len());
    for sink in design.sinks() {
        let at = sink.location();
        let _ = writeln!(
            out,
            "  - {} ( {} {} ) CAP {} ;",
            sink.name(),
            at.x,
            at.y,
            sink.cap_ff()
        );
    }
    let _ = writeln!(out, "END PINS");
    let _ = writeln!(out, "END DESIGN");
    out
}
