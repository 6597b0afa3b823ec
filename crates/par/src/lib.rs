//! Deterministic parallel execution layer for the smart-ndr workspace.
//!
//! The workloads this workspace parallelizes — Monte-Carlo variation
//! samples, per-design suite rows, Pareto sweep points — are
//! embarrassingly parallel *and* must stay **bit-identical** to their
//! serial runs: every figure and table in the repo is reproducible from
//! fixed seeds, and the determinism test-suite compares parallel against
//! serial output exactly. The primitives here are therefore built around
//! one contract:
//!
//! > The value computed for item `i` depends only on item `i` (plus shared
//! > read-only state), never on which worker ran it or in what order, and
//! > results are always delivered in item order.
//!
//! Work is split at a coarse grain: a unit is a Monte-Carlo chunk, a
//! design or a sweep point. A single candidate probe takes microseconds,
//! less than shipping it to a worker costs, so the optimizers run
//! serially.
//!
//! Everything is built on [`std::thread::scope`] — no crates.io
//! dependencies (this environment has no registry access, so rayon is
//! deliberately not used).
//!
//! * [`Parallelism`] — a `n_jobs` knob; `1` selects an exact serial path
//!   that never spawns a thread.
//! * [`par_map`] — chunk-free dynamic fan-out over a slice with results
//!   reassembled in input order.
//! * [`try_par_map_n`] — the same over an index range, with per-worker
//!   mutable state (an analyzer, scratch buffers) built once per worker
//!   and cooperative cancellation.
//! * [`CancelToken`] / [`Deadline`] — cooperative cancellation: a shared
//!   flag (optionally armed with a wall-clock deadline) that
//!   [`try_par_map_n`] checks at every work-claim boundary, so a fired
//!   token *drains* workers deterministically (everyone joins, partial
//!   work is discarded, the call returns [`Cancelled`]) instead of
//!   abandoning threads mid-flight. Long worker bodies can poll
//!   [`CancelToken::check`] themselves.
//! * [`splitmix64`] — the stateless seed-derivation hash behind
//!   per-sample RNG streams (`seed ^ splitmix64(index)`), which is what
//!   makes Monte-Carlo sampling order-independent.
//!
//! # Examples
//!
//! ```
//! use snr_par::{par_map, Parallelism};
//!
//! let xs: Vec<u64> = (0..100).collect();
//! let serial = par_map(Parallelism::serial(), &xs, |_, &x| x * x);
//! let parallel = par_map(Parallelism::new(4), &xs, |_, &x| x * x);
//! assert_eq!(serial, parallel); // bit-identical, in input order
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How many worker threads a parallel call may use.
///
/// `Parallelism::serial()` (1 job) selects an exact serial path: the work
/// runs on the calling thread, in item order, with no thread spawned —
/// useful both as the determinism baseline and to keep library defaults
/// allocation- and thread-free unless callers opt in.
///
/// Because every primitive in this crate delivers per-item results that
/// do not depend on scheduling, any two `Parallelism` values produce
/// bit-identical output for the same input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    jobs: usize,
}

impl Parallelism {
    /// Exactly one job: the serial path, no threads.
    pub const fn serial() -> Self {
        Parallelism { jobs: 1 }
    }

    /// Exactly `jobs` workers.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn new(jobs: usize) -> Self {
        assert!(jobs > 0, "need at least one job");
        Parallelism { jobs }
    }

    /// One job per available hardware thread (≥ 1).
    pub fn auto() -> Self {
        let jobs = thread::available_parallelism().map_or(1, |n| n.get());
        Parallelism { jobs }
    }

    /// The configured job count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Workers actually worth spawning for `len` items.
    pub fn effective_jobs(&self, len: usize) -> usize {
        self.jobs.min(len).max(1)
    }

    /// Whether this configuration runs on the calling thread only.
    pub fn is_serial(&self) -> bool {
        self.jobs == 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} job{}", self.jobs, if self.jobs == 1 { "" } else { "s" })
    }
}

/// The SplitMix64 finalizer: a stateless, high-quality 64-bit hash.
///
/// Used to derive independent per-sample RNG seeds as
/// `seed ^ splitmix64(sample_index)`, so sample `i`'s random stream is a
/// pure function of `(seed, i)` — independent of how samples are split
/// across workers. Adjacent indices map to statistically unrelated
/// outputs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

/// Error returned by [`try_par_map_n`] when its [`CancelToken`]
/// fired before all items completed. Partial work is discarded; workers
/// were drained (joined), never abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// A wall-clock deadline: an instant after which work should stop.
///
/// Deadlines are inherently **non-deterministic** — where in an
/// optimization a deadline fires depends on machine load — so
/// reproducibility-sensitive paths (tests, published tables) should prefer
/// iteration caps and leave deadlines off.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline { at: Instant::now() + d }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    deadline: Option<Deadline>,
}

/// A cheaply clonable cooperative cancellation flag, optionally armed with
/// a wall-clock [`Deadline`].
///
/// All clones share one flag: [`cancel`](Self::cancel) on any clone is
/// observed by every holder. [`try_par_map_n`] polls the token at each
/// work-claim boundary; long-running worker bodies can additionally
/// poll [`check`](Self::check) at their own safe points.
///
/// The default token never fires.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A token that only fires on an explicit [`cancel`](Self::cancel).
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that fires at `deadline` (or on explicit cancel, whichever
    /// comes first).
    pub fn with_deadline(deadline: Deadline) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Fires the token; every clone observes it.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Whether the token has fired (explicitly or via its deadline).
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
            || self.inner.deadline.is_some_and(|d| d.expired())
    }

    /// The cooperative checkpoint for worker bodies: `Err(Cancelled)` once
    /// the token has fired.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when [`is_cancelled`](Self::is_cancelled).
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }

    /// The armed deadline, if any.
    pub fn deadline(&self) -> Option<Deadline> {
        self.inner.deadline
    }
}

/// Maps `f` over `items`, returning results in input order.
///
/// `f` receives `(index, &item)`. With `par.jobs() == 1` (or one item)
/// this is a plain serial loop on the calling thread; otherwise items are
/// pulled dynamically by up to `par.effective_jobs(items.len())` scoped
/// workers (good load balance for heterogeneous items) and the results
/// are reassembled in input order, so the output is identical either way.
///
/// # Panics
///
/// If `f` panics for some item, the panic payload is re-raised on the
/// calling thread after all workers finish (for the serial path it
/// propagates immediately); when several items panic, the one with the
/// lowest index among those observed wins. Callers that must survive
/// per-item failures (e.g. the CLI suite's FAILED rows) should
/// `catch_unwind` *inside* `f` and return a `Result`.
pub fn par_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_with(par, items, |_| (), |(), i, item| f(i, item))
}

/// [`par_map`] with per-worker state built by `init` (see
/// [`try_par_map_n`]).
fn par_map_with<S, T, U, I, F>(par: Parallelism, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    match par_map_core(par, items, None, init, f) {
        Ok(out) => out,
        Err(Cancelled) => unreachable!("no token was supplied"),
    }
}

/// Maps `f` over the index range `0..n` with per-worker state, returning
/// results in index order, and polls `token` at every work-claim boundary.
///
/// `init(worker_index)` runs once on each worker (worker 0 is the calling
/// thread on the serial path) to build scratch state — an analyzer, cloned
/// engines, reusable buffers; `f(&mut state, index)` then runs for each
/// index the worker pulls. The determinism contract requires `f`'s result
/// to be a function of `index` alone: state must be scratch, not an
/// accumulator.
///
/// The token is polled at every work-claim boundary (and between items on
/// the serial path). Once it fires, no new item is started, every worker
/// drains and joins, the partial results are discarded and the call
/// returns `Err(Cancelled)`. A token that never fires makes the result
/// identical to a serial map.
///
/// # Errors
///
/// Returns [`Cancelled`] when the token fired before all items completed.
/// An item already in flight when the token fires still runs to
/// completion (cooperative cancellation never abandons a thread), so a
/// slow item delays — never corrupts — the drain.
///
/// # Panics
///
/// Same panic propagation as [`par_map`]; a panic takes precedence over
/// cancellation.
pub fn try_par_map_n<S, U, I, F>(
    par: Parallelism,
    n: usize,
    token: &CancelToken,
    init: I,
    f: F,
) -> Result<Vec<U>, Cancelled>
where
    U: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map_core(par, &indices, Some(token), init, |state, _, &i| f(state, i))
}

/// The shared engine behind every map primitive: dynamic scheduling,
/// per-worker state, optional cooperative cancellation, deterministic
/// panic propagation.
fn par_map_core<S, T, U, I, F>(
    par: Parallelism,
    items: &[T],
    token: Option<&CancelToken>,
    init: I,
    f: F,
) -> Result<Vec<U>, Cancelled>
where
    T: Sync,
    U: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let n = items.len();
    let workers = par.effective_jobs(n);
    if workers <= 1 {
        let mut state = init(0);
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.iter().enumerate() {
            if let Some(t) = token {
                t.check()?;
            }
            out.push(f(&mut state, i, item));
        }
        return Ok(out);
    }

    // Dynamic scheduling: workers pull the next item index from a shared
    // counter. Which worker computes which item is nondeterministic; the
    // per-item results are not. The token is polled *before* claiming, so
    // a fired token stops all claims and every worker falls through to a
    // normal join — a drain, not an abandonment.
    let next = AtomicUsize::new(0);
    let mut partials: Vec<WorkerOutcome<U>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                let init = &init;
                let f = &f;
                s.spawn(move || {
                    let mut state = init(w);
                    let mut out: Vec<(usize, U)> = Vec::new();
                    loop {
                        if token.is_some_and(|t| t.is_cancelled()) {
                            return WorkerOutcome { results: out, panic: None };
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return WorkerOutcome { results: out, panic: None };
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(&mut state, i, &items[i]))) {
                            Ok(v) => out.push((i, v)),
                            // Stop this worker: its state may be poisoned
                            // and the whole map is about to unwind anyway.
                            Err(payload) => {
                                return WorkerOutcome {
                                    results: out,
                                    panic: Some((i, payload)),
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker bodies never panic"))
            .collect()
    });

    let panicked = partials
        .iter_mut()
        .filter_map(|p| p.panic.take())
        .min_by_key(|(i, _)| *i);
    if let Some((_, payload)) = panicked {
        resume_unwind(payload);
    }

    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut filled = 0usize;
    for p in partials {
        for (i, v) in p.results {
            debug_assert!(out[i].is_none(), "item {i} computed twice");
            out[i] = Some(v);
            filled += 1;
        }
    }
    if filled < n {
        // Holes can only come from a fired token stopping the claims.
        debug_assert!(token.is_some_and(|t| t.is_cancelled()));
        return Err(Cancelled);
    }
    Ok(out
        .into_iter()
        .map(|v| v.expect("every index was claimed exactly once"))
        .collect())
}

struct WorkerOutcome<U> {
    results: Vec<(usize, U)>,
    panic: Option<(usize, Box<dyn std::any::Any + Send>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallelism_config() {
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::new(4).jobs(), 4);
        assert_eq!(Parallelism::new(4).effective_jobs(2), 2);
        assert_eq!(Parallelism::new(4).effective_jobs(0), 1);
        assert!(Parallelism::auto().jobs() >= 1);
        assert_eq!(Parallelism::serial().to_string(), "1 job");
        assert_eq!(Parallelism::new(3).to_string(), "3 jobs");
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_jobs_panics() {
        let _ = Parallelism::new(0);
    }

    #[test]
    fn splitmix64_spreads_and_is_stable() {
        // Reference values from the canonical SplitMix64.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        // Distinct small inputs stay distinct.
        let mut seen: Vec<u64> = (0..1000).map(splitmix64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn map_matches_serial_for_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| splitmix64(x)).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = par_map(Parallelism::new(jobs), &items, |_, &x| splitmix64(x));
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn map_with_state_initializes_per_worker() {
        let inits = AtomicUsize::new(0);
        let got = try_par_map_n(
            Parallelism::new(4),
            100,
            &CancelToken::new(),
            |_w| {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u8>::with_capacity(16) // scratch
            },
            |scratch, i| {
                scratch.clear();
                scratch.extend_from_slice(&(i as u64).to_le_bytes());
                2 * i
            },
        )
        .expect("token never fired");
        assert_eq!(got, (0..100).map(|i| 2 * i).collect::<Vec<_>>());
        let n = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&n), "init ran {n} times");
    }

    #[test]
    fn panics_propagate_with_payload() {
        let items: Vec<usize> = (0..32).collect();
        for jobs in [1, 4] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                par_map(Parallelism::new(jobs), &items, |_, &x| {
                    if x == 7 {
                        panic!("boom at {x}");
                    }
                    x
                })
            }))
            .expect_err("must propagate");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("boom"), "jobs={jobs}: payload lost: {msg:?}");
        }
    }

    #[test]
    fn cancel_token_fires_for_every_clone() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        u.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(Cancelled));
        assert_eq!(Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn deadline_expiry() {
        let live = Deadline::after(Duration::from_secs(3600));
        assert!(!live.expired());
        assert!(live.remaining() > Duration::ZERO);
        let dead = Deadline::after(Duration::ZERO);
        assert!(dead.expired());
        assert_eq!(dead.remaining(), Duration::ZERO);
        let t = CancelToken::with_deadline(dead);
        assert!(t.is_cancelled());
        assert!(t.deadline().is_some());
        assert!(CancelToken::new().deadline().is_none());
    }

    #[test]
    fn try_map_matches_map_when_token_never_fires() {
        let items: Vec<u64> = (0..123).collect();
        let expect = par_map(Parallelism::serial(), &items, |_, &x| splitmix64(x));
        let token = CancelToken::new();
        for jobs in [1, 4] {
            let got = try_par_map_n(
                Parallelism::new(jobs),
                items.len(),
                &token,
                |_| (),
                |(), i| splitmix64(i as u64),
            )
            .expect("token never fired");
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn fired_token_drains_and_returns_cancelled() {
        let n = 64;
        for jobs in [1usize, 4] {
            // Pre-cancelled: not a single item runs.
            let ran = AtomicUsize::new(0);
            let token = CancelToken::new();
            token.cancel();
            let res = try_par_map_n(
                Parallelism::new(jobs),
                n,
                &token,
                |_| (),
                |(), i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            assert_eq!(res, Err(Cancelled), "jobs={jobs}");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "jobs={jobs}");

            // Fired mid-run: the call still returns (drains, no hang).
            let token = CancelToken::new();
            let res = try_par_map_n(
                Parallelism::new(jobs),
                n,
                &token,
                |_| (),
                |(), i| {
                    if i == 3 {
                        token.cancel();
                    }
                    i
                },
            );
            assert!(res.is_err() || res.as_ref().map(Vec::len) == Ok(n));
        }
    }

    #[test]
    fn try_map_n_cancellation_and_success() {
        let token = CancelToken::new();
        let got = try_par_map_n(Parallelism::new(3), 10, &token, |_| (), |(), i| i * i)
            .expect("token never fired");
        assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
        let empty = try_par_map_n(Parallelism::new(3), 0, &token, |_| (), |(), i| i);
        assert_eq!(empty, Ok(Vec::new()));
        token.cancel();
        assert_eq!(
            try_par_map_n(Parallelism::new(3), 10, &token, |_| (), |(), i| i),
            Err(Cancelled)
        );
    }

    #[test]
    fn panic_beats_cancellation() {
        let token = CancelToken::new();
        let err = catch_unwind(AssertUnwindSafe(|| {
            try_par_map_n(
                Parallelism::new(2),
                16,
                &token,
                |_| (),
                |(), i| {
                    if i == 0 {
                        token.cancel();
                        panic!("worker exploded");
                    }
                    i
                },
            )
        }))
        .expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("exploded"), "payload lost: {msg:?}");
    }
}
