//! Deterministic synthetic benchmark generation.
//!
//! Substitutes the ISPD-CTS-class industrial testcases used by the paper.
//! The generator reproduces their observable statistics — sink count, die
//! dimensions, pin-capacitance range and the *clustered* placement produced
//! by register banks — while remaining exactly reproducible from a seed.

use crate::{Design, ImportLimits, NetlistError, Sink, SinkId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snr_geom::{Point, Rect};

/// Builder for a synthetic clock-distribution benchmark.
///
/// Sinks are placed as a mixture of Gaussian clusters (register banks) and a
/// uniform background; capacitances are drawn uniformly from a configurable
/// range. Defaults produce ISPD-like instances: 1 mm² per ~500 sinks,
/// 5–35 fF pins, one cluster per ~64 sinks, 20 % background sinks.
///
/// # Examples
///
/// ```
/// use snr_netlist::BenchmarkSpec;
///
/// let d = BenchmarkSpec::new("s800", 800)
///     .die_um(1_600.0, 1_600.0)
///     .cap_range_ff(5.0, 35.0)
///     .seed(42)
///     .build()?;
/// assert_eq!(d.sinks().len(), 800);
/// # Ok::<(), snr_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    name: String,
    sink_count: usize,
    die_w_um: f64,
    die_h_um: f64,
    cap_lo_ff: f64,
    cap_hi_ff: f64,
    clusters: usize,
    background_frac: f64,
    freq_ghz: f64,
    seed: u64,
}

impl BenchmarkSpec {
    /// Starts a spec for `sink_count` sinks with defaults scaled to the
    /// sink count.
    pub fn new(name: impl Into<String>, sink_count: usize) -> Self {
        // ~500 sinks per mm², square die.
        let side_um = 1_000.0 * ((sink_count as f64 / 500.0).sqrt()).max(0.25);
        BenchmarkSpec {
            name: name.into(),
            sink_count,
            die_w_um: side_um,
            die_h_um: side_um,
            cap_lo_ff: 5.0,
            cap_hi_ff: 35.0,
            clusters: (sink_count / 64).max(1),
            background_frac: 0.2,
            freq_ghz: 1.0,
            seed: 1,
        }
    }

    /// The design name the spec builds.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of sinks the spec builds.
    pub fn sink_count(&self) -> usize {
        self.sink_count
    }

    /// Sets the die dimensions in µm.
    pub fn die_um(mut self, w: f64, h: f64) -> Self {
        self.die_w_um = w;
        self.die_h_um = h;
        self
    }

    /// Sets the sink-capacitance range in fF.
    pub fn cap_range_ff(mut self, lo: f64, hi: f64) -> Self {
        self.cap_lo_ff = lo;
        self.cap_hi_ff = hi;
        self
    }

    /// Sets the number of placement clusters (register banks).
    pub fn clusters(mut self, n: usize) -> Self {
        self.clusters = n.max(1);
        self
    }

    /// Sets the fraction of sinks placed uniformly instead of in clusters.
    pub fn background_frac(mut self, f: f64) -> Self {
        self.background_frac = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the target clock frequency in GHz.
    pub fn freq_ghz(mut self, f: f64) -> Self {
        self.freq_ghz = f;
        self
    }

    /// Sets the RNG seed. Identical specs with identical seeds produce
    /// identical designs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the design.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] when the spec is inconsistent (zero sinks,
    /// more sinks than the importer's [`ImportLimits::max_records`], which
    /// bounds what is allocated, inverted capacitance range, non-positive die).
    pub fn build(&self) -> Result<Design, NetlistError> {
        if self.sink_count == 0 {
            return Err(NetlistError::new("benchmark needs at least one sink"));
        }
        let max = ImportLimits::default().max_records;
        if self.sink_count > max {
            return Err(NetlistError::new(format!("benchmark needs at most {max} sinks")));
        }
        if !(self.cap_lo_ff > 0.0 && self.cap_hi_ff >= self.cap_lo_ff) {
            return Err(NetlistError::new(format!(
                "capacitance range [{}, {}] fF is invalid",
                self.cap_lo_ff, self.cap_hi_ff
            )));
        }
        if self.die_w_um <= 0.0 || self.die_h_um <= 0.0 {
            return Err(NetlistError::new("die dimensions must be positive"));
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let w_nm = (self.die_w_um * 1_000.0) as i64;
        let h_nm = (self.die_h_um * 1_000.0) as i64;
        let die = Rect::new(Point::new(0, 0), Point::new(w_nm, h_nm));

        // Cluster centers, kept away from the die edge so the Gaussian
        // clouds mostly stay inside.
        let margin = (w_nm.min(h_nm) / 10).max(1);
        let centers: Vec<Point> = (0..self.clusters)
            .map(|_| {
                Point::new(
                    rng.gen_range(margin..=w_nm - margin),
                    rng.gen_range(margin..=h_nm - margin),
                )
            })
            .collect();
        // Cluster spread: each bank covers ~2 % of the die span.
        let sigma = (w_nm.min(h_nm) as f64) * 0.02 + 1.0;

        let mut sinks = Vec::with_capacity(self.sink_count);
        for i in 0..self.sink_count {
            let location = if rng.gen_bool(self.background_frac) {
                Point::new(rng.gen_range(0..=w_nm), rng.gen_range(0..=h_nm))
            } else {
                let c = centers[rng.gen_range(0..centers.len())];
                let (gx, gy) = gaussian_pair(&mut rng);
                Point::new(
                    (c.x + (gx * sigma) as i64).clamp(0, w_nm),
                    (c.y + (gy * sigma) as i64).clamp(0, h_nm),
                )
            };
            let cap = rng.gen_range(self.cap_lo_ff..=self.cap_hi_ff);
            sinks.push(Sink::new(SinkId(i), format!("ff{i}/clk"), location, cap));
        }

        // Clock enters at the bottom-center of the die, the usual location
        // of the PLL/clock pad.
        let root = Point::new(w_nm / 2, 0);
        Design::new(self.name.clone(), die, root, self.freq_ghz, sinks)
    }
}

/// One pair of independent standard-normal samples (Box–Muller), avoiding a
/// dependency on `rand_distr`.
fn gaussian_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// The eight-design evaluation suite used throughout the experiments,
/// mirroring the size spread of the ISPD CTS benchmarks (hundreds to
/// thousands of sinks).
///
/// Deterministic: every call returns identical designs.
///
/// # Examples
///
/// ```
/// let suite = snr_netlist::ispd_like_suite();
/// assert_eq!(suite.len(), 8);
/// assert!(suite.windows(2).all(|w| w[0].sinks().len() <= w[1].sinks().len()));
/// ```
pub fn ispd_like_suite() -> Vec<Design> {
    let sizes = [400usize, 600, 800, 1_200, 1_600, 2_000, 2_500, 3_000];
    sizes
        .iter()
        .enumerate()
        .filter_map(|(i, &n)| {
            // Static specs: non-zero sizes with fixed seeds always build.
            BenchmarkSpec::new(format!("s{n}"), n)
                .seed(1_000 + i as u64)
                .build()
                .ok()
        })
        .collect()
}

/// Specs for the large-scale timing-kernel sweep: 6 k to 1 M sinks, the
/// range where traversal redundancy (not constant factors) dominates.
///
/// Returned as *specs* rather than built designs so callers can build only
/// the sizes they need — the 1 M-sink design alone holds a million sinks,
/// and generation, while O(n), is not free at that scale. Defaults scale
/// with the sink count (die side grows as √n at ~500 sinks/mm²), so the
/// million-sink entry models a full-reticle die rather than an absurdly
/// dense small one.
///
/// Deterministic: every call returns identical specs, and each spec builds
/// an identical design.
///
/// # Examples
///
/// ```
/// let specs = snr_netlist::scaling_specs();
/// assert_eq!(specs.last().unwrap().sink_count(), 1_000_000);
/// let small = specs[0].build()?;
/// assert_eq!(small.sinks().len(), specs[0].sink_count());
/// # Ok::<(), snr_netlist::NetlistError>(())
/// ```
pub fn scaling_specs() -> Vec<BenchmarkSpec> {
    [6_000usize, 25_000, 100_000, 1_000_000]
        .iter()
        .enumerate()
        .map(|(i, &n)| BenchmarkSpec::new(format!("x{n}"), n).seed(2_000 + i as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = BenchmarkSpec::new("t", 100).seed(9).build().unwrap();
        let b = BenchmarkSpec::new("t", 100).seed(9).build().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_differs() {
        let a = BenchmarkSpec::new("t", 100).seed(9).build().unwrap();
        let b = BenchmarkSpec::new("t", 100).seed(10).build().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn sink_count_above_the_record_ceiling_is_rejected() {
        let max = ImportLimits::default().max_records;
        let err = BenchmarkSpec::new("t", max + 1).build().unwrap_err();
        assert!(err.to_string().contains("at most 1000000 sinks"), "{err}");
        assert!(BenchmarkSpec::new("t", usize::MAX).build().is_err());
    }

    #[test]
    fn sink_count_and_die_respected() {
        let d = BenchmarkSpec::new("t", 321)
            .die_um(500.0, 700.0)
            .build()
            .unwrap();
        assert_eq!(d.sinks().len(), 321);
        assert_eq!(d.die().width(), 500_000);
        assert_eq!(d.die().height(), 700_000);
        for s in d.sinks() {
            assert!(d.die().contains(s.location()));
        }
    }

    #[test]
    fn caps_within_range() {
        let d = BenchmarkSpec::new("t", 500)
            .cap_range_ff(7.0, 9.0)
            .build()
            .unwrap();
        for s in d.sinks() {
            assert!((7.0..=9.0).contains(&s.cap_ff()));
        }
    }

    #[test]
    fn clustering_reduces_pairwise_spread() {
        // Clustered placement has a much smaller mean nearest-neighbor
        // distance than uniform placement of the same size.
        let nn_mean = |d: &Design| {
            let pts: Vec<_> = d.sinks().iter().map(|s| s.location()).collect();
            let mut total = 0.0;
            for (i, p) in pts.iter().enumerate() {
                let nn = pts
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, q)| p.manhattan(*q))
                    .min()
                    .unwrap();
                total += nn as f64;
            }
            total / pts.len() as f64
        };
        let clustered = BenchmarkSpec::new("c", 300)
            .background_frac(0.0)
            .clusters(4)
            .seed(5)
            .build()
            .unwrap();
        let uniform = BenchmarkSpec::new("u", 300)
            .background_frac(1.0)
            .seed(5)
            .build()
            .unwrap();
        assert!(nn_mean(&clustered) < nn_mean(&uniform) * 0.7);
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(BenchmarkSpec::new("t", 0).build().is_err());
        assert!(BenchmarkSpec::new("t", 10)
            .cap_range_ff(5.0, 1.0)
            .build()
            .is_err());
        assert!(BenchmarkSpec::new("t", 10).die_um(0.0, 1.0).build().is_err());
    }

    #[test]
    fn scaling_specs_deterministic_and_ordered() {
        let a = scaling_specs();
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0].sink_count() < w[1].sink_count()));
        assert_eq!(a[3].sink_count(), 1_000_000);
        // Identical specs build identical designs (only the smallest is
        // built here; the large entries are exercised by bench_timing).
        let d1 = a[0].build().unwrap();
        let d2 = a[0].build().unwrap();
        assert_eq!(d1, d2);
        assert_eq!(d1.sinks().len(), 6_000);
    }

    #[test]
    fn suite_is_deterministic_and_sized() {
        let a = ispd_like_suite();
        let b = ispd_like_suite();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert_eq!(a[0].sinks().len(), 400);
        assert_eq!(a[7].sinks().len(), 3_000);
    }

    #[test]
    fn gaussian_pair_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let (a, b) = gaussian_pair(&mut rng);
            sum += a + b;
            sumsq += a * a + b * b;
        }
        let mean = sum / (2 * n) as f64;
        let var = sumsq / (2 * n) as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
