//! Execution-fault injection for chaos testing (feature `fault-inject`).
//!
//! Unlike the *input* faults in `snr_netlist::faultinject` (which corrupt
//! designs before they reach the optimizer), these faults strike the
//! optimizer **while it runs** — the incremental engines silently drift —
//! so tests can prove the degradation ladder recovers without hanging or
//! corrupting output. Armed per-context via
//! [`OptContext::with_exec_fault`](crate::OptContext::with_exec_fault).

/// One injected execution fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecFault {
    /// Corrupt the incremental engines by `delta_ps` at the first
    /// divergence-guard check at or after session commit `at_commit`
    /// (1-based; the check itself when the guard runs on every commit).
    /// The committed scalars drift with the engine, so that check must
    /// fire; a session that never reaches the commit is untouched.
    Divergence {
        /// Commit count from which the corruption lands.
        at_commit: usize,
        /// Injected slew perturbation in picoseconds.
        delta_ps: f64,
    },
}
