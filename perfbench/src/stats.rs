//! The benchmark's own arithmetic: percentiles, reference scaling and the
//! counters derived from them. Pure functions, pinned by
//! `tests/arithmetic.rs`.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted `values`.
///
/// # Panics
///
/// On an empty slice or a `q` outside `(0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A tail percentile, withheld (`None`) unless at least
/// [`MIN_BEYOND_TAIL`] samples lie beyond it: the 90th percentile needs
/// 100 samples.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - rank(n, q) < MIN_BEYOND_TAIL {
        return None;
    }
    Some(percentile(values, q))
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A duration measured while the reference kernel took `ref_ms`,
/// restated at reference speed: what it would have read on a host where
/// the kernel takes `nominal_ms`.
pub fn at_reference(raw: f64, ref_ms: f64, nominal_ms: f64) -> f64 {
    raw * nominal_ms / ref_ms
}

/// The reference time that applies to request `i`, given kernel samples
/// taken between requests (`samples[i]` just before request `i`,
/// `samples[i + 1]` just after): the median of the samples within
/// `half_window` of the request on either side. Smoothing over a few
/// samples keeps one noisy kernel call from moving a request, while the
/// window stays short enough to follow host drift.
///
/// # Panics
///
/// When `samples` has fewer than `i + 2` entries.
pub fn local_ref(samples: &[f64], i: usize, half_window: usize) -> f64 {
    assert!(
        samples.len() >= i + 2,
        "request {i} lacks its bracketing kernel samples"
    );
    let lo = i.saturating_sub(half_window);
    let hi = (i + 1 + half_window).min(samples.len() - 1);
    median(&samples[lo..=hi])
}

/// Scales every raw latency by its local reference time.
pub fn scale_latencies(raw: &[f64], samples: &[f64], nominal_ms: f64) -> Vec<f64> {
    raw.iter()
        .enumerate()
        .map(|(i, &r)| at_reference(r, local_ref(samples, i, 2), nominal_ms))
        .collect()
}

/// Builds of a design that was already built earlier in the run: every
/// build beyond the first per key. `builds` lists the key of each build
/// in any order.
pub fn duplicate_builds<K: Ord>(builds: &[K]) -> u64 {
    let distinct: std::collections::BTreeSet<&K> = builds.iter().collect();
    (builds.len() - distinct.len()) as u64
}

/// Share of lookups served from the store; 0 when nothing was looked up.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}
