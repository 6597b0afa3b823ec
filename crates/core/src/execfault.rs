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
    /// Corrupt the incremental engines at session commit `at_commit`
    /// (1-based) by `delta_ps`, so the divergence guard must fire.
    Divergence {
        /// Commit count at which the corruption lands.
        at_commit: usize,
        /// Injected slew perturbation in picoseconds.
        delta_ps: f64,
    },
}
