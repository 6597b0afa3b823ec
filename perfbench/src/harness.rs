//! What every workload shares: its arguments, the set-up timer and the
//! closed-loop timing of one client between reference-kernel samples.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::refkernel::RefKernel;
use crate::report::Report;
use crate::stats;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// Intended measuring time; sizes the fixed request sequence.
    pub seconds: u64,
    /// Whether to add the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Reference-kernel time, ms, that defines reference speed.
    pub nominal_ms: f64,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    /// Scratch directory inside the checkout (result stores).
    pub work_dir: PathBuf,
}

impl Args {
    /// Requests in the timed sequence: `rate` per second of `--seconds`
    /// at reference speed, and never fewer than the 100 a reported 90th
    /// percentile needs.
    pub fn requests(&self, rate: f64) -> usize {
        ((self.seconds as f64 * rate).round() as usize).max(100)
    }

    /// Requests replayed by the traced run: the first quarter of the
    /// timed sequence.
    pub fn traced_requests(&self, timed: usize) -> usize {
        timed.div_ceil(4)
    }
}

/// Runs the set-up `SETUP_REPS` times, each between kernel samples, and
/// returns the median set-up time in seconds at reference speed with the
/// last repetition's product.
pub fn measure_setup<T>(
    args: &Args,
    kernel: &mut RefKernel,
    mut setup: impl FnMut() -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let before = kernel.sample_ms();
        let start = Instant::now();
        last = Some(setup());
        let raw = start.elapsed().as_secs_f64();
        let after = kernel.sample_ms();
        times.push(stats::at_reference(
            raw,
            (before + after) / 2.0,
            args.nominal_ms,
        ));
    }
    (
        stats::median(&times),
        last.expect("set-up ran at least once"),
    )
}

/// A closed-loop client's timed pass: raw latencies plus the kernel
/// samples taken between requests (`kernel[i]` before request `i`).
#[derive(Debug, Default)]
pub struct Timed {
    /// Raw wall-clock latency per request, ms.
    pub raw_ms: Vec<f64>,
    /// Kernel samples, one more than requests.
    pub kernel_ms: Vec<f64>,
    /// Requests that errored, panicked or failed their check.
    pub failed: u64,
}

impl Timed {
    /// Latencies at reference speed.
    pub fn scaled(&self, args: &Args) -> Vec<f64> {
        stats::scale_latencies(&self.raw_ms, &self.kernel_ms, args.nominal_ms)
    }

    /// Records the latency percentiles, throughput and host diagnostics
    /// of this pass.
    pub fn report(&self, args: &Args, report: &mut Report) {
        let scaled = self.scaled(args);
        report.attempted += self.raw_ms.len() as u64;
        report.failed += self.failed;
        report.set("latency_p50_ms", stats::median(&scaled));
        if let Some(p90) = stats::tail_percentile(&scaled, 0.9) {
            report.set("latency_p90_ms", p90);
        }
        report.set(
            "throughput_rps",
            1e3 * scaled.len() as f64 / scaled.iter().sum::<f64>(),
        );
        report.set("host.ref_ms", stats::median(&self.kernel_ms));
        report.set("host.raw_latency_p50_ms", stats::median(&self.raw_ms));
        if let Some(p90) = stats::tail_percentile(&self.raw_ms, 0.9) {
            report.set("host.raw_latency_p90_ms", p90);
        }
        let ok = self.raw_ms.len() as u64 - self.failed;
        report.set("ok_pct", 100.0 * ok as f64 / self.raw_ms.len() as f64);
    }
}

/// Drives `inputs` one at a time: times `request`, then (untimed) checks
/// its output with `check` and samples the kernel. A request that
/// errors, panics or fails its check counts as failed, with the reason
/// on stderr.
pub fn closed_loop<I, R>(
    inputs: &[I],
    kernel: &mut RefKernel,
    mut request: impl FnMut(&I) -> Result<R, String>,
    mut check: impl FnMut(usize, R) -> Result<(), String>,
) -> Timed {
    let mut timed = Timed {
        kernel_ms: vec![kernel.sample_ms()],
        ..Timed::default()
    };
    for (i, input) in inputs.iter().enumerate() {
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| request(input)));
        timed.raw_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let verdict = match out {
            Ok(Ok(resp)) => check(i, resp),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("request panicked".to_owned()),
        };
        if let Err(e) = verdict {
            eprintln!("request {i} failed: {e}");
            timed.failed += 1;
        }
        timed.kernel_ms.push(kernel.sample_ms());
    }
    timed
}
