//! Run supervision: per-phase budgets, anytime reports and the degradation
//! ladder.
//!
//! Every optimizer in this crate is *anytime*: under a [`Budget`] it stops
//! at the cap and returns the best feasible solution found so far, plus a
//! [`BudgetReport`] per phase saying how far it got — never an error.
//! Recoveries are structured as a ladder of [`DegradationEvent`] rungs,
//! from cheapest to most drastic:
//!
//! 1. **incremental → full re-analysis** — the divergence guard (see
//!    [`crate::Degradation`]) drops the incremental engines when their
//!    committed state drifts from the oracle;
//! 2. **optimizer → uniform-2W2S** — the final rung: when an optimizer
//!    cannot produce a feasible result, it passes through the
//!    conservative uniform baseline, the guaranteed-feasible answer
//!    whenever one exists.
//!
//! Iteration caps bind at *decision-step* granularity inside the serial
//! optimizers, so a capped run is deterministic. Wall-clock deadlines (via
//! [`CancelToken`]) are inherently non-deterministic and stay off in
//! reproducibility-sensitive runs.

use snr_cts::Assignment;
use snr_par::CancelToken;
use std::time::{Duration, Instant};

/// Bounds on one optimizer run: an iteration cap, a cancellation token
/// (usually deadline-armed), both, or neither.
///
/// The iteration cap applies **per phase** (each [`BudgetReport`] phase
/// gets the full cap); the token is shared across phases, so a wall-clock
/// deadline bounds the whole run.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_iters: Option<u64>,
    token: Option<CancelToken>,
}

impl Budget {
    /// A budget that never binds — the default.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Returns a copy capped at `max_iters` decision steps per phase.
    ///
    /// # Panics
    ///
    /// Panics if `max_iters` is zero (use an unlimited budget instead).
    pub fn with_max_iters(mut self, max_iters: u64) -> Self {
        assert!(max_iters > 0, "an iteration cap must be positive");
        self.max_iters = Some(max_iters);
        self
    }

    /// Returns a copy that also stops when `token` fires.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// The per-phase iteration cap, if any.
    pub fn max_iters(&self) -> Option<u64> {
        self.max_iters
    }

    /// The shared cancellation token, if any.
    pub fn token(&self) -> Option<&CancelToken> {
        self.token.as_ref()
    }

    /// Whether this budget can never bind.
    pub fn is_unlimited(&self) -> bool {
        self.max_iters.is_none() && self.token.is_none()
    }
}

/// How far one optimizer phase got under its [`Budget`] — the anytime
/// contract's receipt.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReport {
    /// Stable phase name (e.g. `"greedy-refine"`).
    pub phase: &'static str,
    /// Decision steps completed before the phase ended.
    pub iterations_done: u64,
    /// Wall-clock time the phase ran.
    pub elapsed: Duration,
    /// Whether the budget cut the phase short (iteration cap hit or token
    /// fired) rather than the phase converging on its own.
    pub exhausted: bool,
}

/// Per-phase budget meter: constructed at phase start, ticked once per
/// decision step, harvested into a [`BudgetReport`] at phase end.
///
/// `tick()` placement is part of the determinism contract: an optimizer
/// ticks at the same decision steps for any job count, so an iteration cap
/// binds identically.
pub(crate) struct Meter<'b> {
    budget: &'b Budget,
    phase: &'static str,
    start: Instant,
    done: u64,
    exhausted: bool,
}

impl<'b> Meter<'b> {
    pub(crate) fn start(budget: &'b Budget, phase: &'static str) -> Self {
        Meter {
            budget,
            phase,
            start: Instant::now(),
            done: 0,
            exhausted: false,
        }
    }

    /// Requests permission for one more decision step. Returns `false` —
    /// permanently — once the cap is hit or the token has fired.
    pub(crate) fn tick(&mut self) -> bool {
        self.ticks(1)
    }

    /// [`tick`](Self::tick) `n` times in one call, checking the token
    /// once: the steps the cap leaves room for are taken, and `false` means
    /// the cap or the token cut the `n` short.
    pub(crate) fn ticks(&mut self, n: u64) -> bool {
        if self.exhausted {
            return false;
        }
        if self.budget.token.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.exhausted = true;
            return false;
        }
        let room = self.budget.max_iters.map_or(u64::MAX, |cap| cap - self.done);
        if n > room {
            self.done += room;
            self.exhausted = true;
            return false;
        }
        self.done += n;
        true
    }

    pub(crate) fn report(&self) -> BudgetReport {
        BudgetReport {
            phase: self.phase,
            iterations_done: self.done,
            elapsed: self.start.elapsed(),
            exhausted: self.exhausted,
        }
    }
}

/// One rung of the degradation ladder, recorded whenever a run recovered
/// by giving something up. Surfaced through
/// [`Outcome::degradations`](crate::Outcome::degradations), the CLI's
/// `--json` output and `suite` rows.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationEvent {
    /// The divergence guard dropped the incremental engines and the
    /// session finished under full re-analysis.
    IncrementalToFull(crate::Degradation),
    /// The optimizer could not produce a feasible result and passed
    /// through the uniform-2W2S conservative baseline — the final rung.
    OptimizerToBaseline {
        /// The optimizer that gave up.
        optimizer: &'static str,
        /// Why the baseline was returned.
        detail: String,
    },
    /// A durable result-store entry failed integrity verification and was
    /// quarantined; the result was recomputed from scratch instead of
    /// replayed.
    CacheEntryQuarantined {
        /// What failed verification (reason and entry identity).
        detail: String,
    },
}

impl DegradationEvent {
    /// Stable machine-readable rung name for JSON output.
    pub fn rung(&self) -> &'static str {
        match self {
            DegradationEvent::IncrementalToFull(_) => "incremental_to_full",
            DegradationEvent::OptimizerToBaseline { .. } => "optimizer_to_baseline",
            DegradationEvent::CacheEntryQuarantined { .. } => "cache_entry_quarantined",
        }
    }

    /// Human-readable explanation of the rung.
    pub fn detail(&self) -> String {
        match self {
            DegradationEvent::IncrementalToFull(d) => d.to_string(),
            DegradationEvent::OptimizerToBaseline { optimizer, detail } => {
                format!("{optimizer}: {detail}; returned uniform-2W2S baseline")
            }
            DegradationEvent::CacheEntryQuarantined { detail } => {
                format!("{detail}; recomputed from scratch")
            }
        }
    }
}

impl std::fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rung(), self.detail())
    }
}

/// An assignment plus everything its supervised run reported: per-phase
/// budget receipts and any degradation-ladder rungs taken.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The produced assignment — under an exhausted budget, the best
    /// feasible solution found so far.
    pub assignment: Assignment,
    /// One report per phase that ran.
    pub budgets: Vec<BudgetReport>,
    /// Every ladder rung taken, in the order recorded.
    pub degradations: Vec<DegradationEvent>,
}

impl SupervisedRun {
    /// Wraps a plain assignment with empty supervision — what
    /// [`NdrOptimizer::assign_supervised`](crate::NdrOptimizer::assign_supervised)
    /// returns for an optimizer without budgets ([`crate::Uniform`],
    /// [`crate::LevelBased`]).
    pub fn unsupervised(assignment: Assignment) -> Self {
        SupervisedRun {
            assignment,
            budgets: Vec::new(),
            degradations: Vec::new(),
        }
    }

    /// Whether any phase was cut short by its budget.
    pub fn exhausted(&self) -> bool {
        self.budgets.iter().any(|b| b.exhausted)
    }

    /// Folds another run's supervision records into this one (keeping this
    /// run's assignment) — used when a flow chains sub-optimizers.
    pub fn absorb(&mut self, other: SupervisedRun) -> Assignment {
        self.budgets.extend(other.budgets);
        self.degradations.extend(other.degradations);
        other.assignment
    }
}

/// Best-effort extraction of a panic payload's message, truncated to
/// `max_len` characters and whitespace-normalized — for degradation
/// details, suite FAILED-row reasons and JSON error objects.
pub fn panic_message(payload: &(dyn std::any::Any + Send), max_len: usize) -> String {
    let raw = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    let mut msg = raw.split_whitespace().collect::<Vec<_>>().join(" ");
    if msg.chars().count() > max_len {
        msg = msg.chars().take(max_len.saturating_sub(1)).collect::<String>() + "…";
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_binds() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        let mut m = Meter::start(&b, "p");
        for _ in 0..10_000 {
            assert!(m.tick());
        }
        let r = m.report();
        assert_eq!(r.iterations_done, 10_000);
        assert!(!r.exhausted);
        assert_eq!(r.phase, "p");
    }

    #[test]
    fn iteration_cap_binds_exactly() {
        let b = Budget::unlimited().with_max_iters(3);
        assert_eq!(b.max_iters(), Some(3));
        let mut m = Meter::start(&b, "p");
        assert!(m.tick());
        assert!(m.tick());
        assert!(m.tick());
        assert!(!m.tick());
        assert!(!m.tick(), "exhaustion is permanent");
        let r = m.report();
        assert_eq!(r.iterations_done, 3);
        assert!(r.exhausted);
    }

    #[test]
    fn token_stops_the_meter() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_token(token.clone());
        assert!(!b.is_unlimited());
        assert!(b.token().is_some());
        let mut m = Meter::start(&b, "p");
        assert!(m.tick());
        token.cancel();
        assert!(!m.tick());
        assert!(m.report().exhausted);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cap_rejected() {
        let _ = Budget::unlimited().with_max_iters(0);
    }

    #[test]
    fn rung_names_stable() {
        let b = DegradationEvent::OptimizerToBaseline {
            optimizer: "x",
            detail: "no feasible repair".into(),
        };
        let q = DegradationEvent::CacheEntryQuarantined { detail: "bad checksum".into() };
        assert_eq!(b.rung(), "optimizer_to_baseline");
        assert_eq!(q.rung(), "cache_entry_quarantined");
        assert!(b.to_string().contains("uniform-2W2S"));
        assert!(q.to_string().contains("bad checksum"));
    }

    #[test]
    fn panic_message_truncates_and_normalizes() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("a  b\n\tc".to_owned());
        assert_eq!(panic_message(&*payload, 64), "a b c");
        let long: Box<dyn std::any::Any + Send> = Box::new("x".repeat(100));
        let msg = panic_message(&*long, 10);
        assert_eq!(msg.chars().count(), 10);
        assert!(msg.ends_with('…'));
        let odd: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert!(panic_message(&*odd, 64).contains("non-string"));
    }
}
