//! RC-tree timing analysis for buffered clock trees.
//!
//! Substitutes the signoff timer of the DAC-2013 flow with the standard
//! academic metrics:
//!
//! * **Elmore** delay (first moment) — the constraint metric, monotone in
//!   every edge R and C, which guarantees the NDR optimizer's moves have
//!   predictable sign;
//! * **PERI**-style slew propagation: buffer output slew from the cell
//!   model, degraded quadratically along wires, regenerated at buffer
//!   inputs.
//!
//! Buffers partition the tree into *stages*; each stage is an independent RC
//! tree driven by its buffer. The analyzer runs in O(n) and is reused by the
//! optimizer for every candidate move, so it allocates nothing after the
//! initial buffers.
//!
//! # Examples
//!
//! ```
//! use snr_netlist::BenchmarkSpec;
//! use snr_tech::Technology;
//! use snr_cts::{synthesize, Assignment, CtsOptions};
//! use snr_timing::analyze;
//!
//! let design = BenchmarkSpec::new("demo", 64).seed(3).build()?;
//! let tech = Technology::n45();
//! let tree = synthesize(&design, &tech, &CtsOptions::default())?;
//! let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
//! let report = analyze(&tree, &tech, &asg);
//! assert!(report.latency_ps() > 0.0);
//! assert!(report.skew_ps() >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod analysis;
mod batch;
mod incremental;
mod report;

pub use analysis::{analyze, analyze_at_corner, Analyzer};
pub use batch::{BatchAnalyzer, EdgeNominals};
pub use incremental::{IncrementalAnalyzer, TimingSummary};
pub use report::TimingReport;
