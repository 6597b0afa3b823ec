//! Clock-tree synthesis substrate.
//!
//! Builds buffered zero-skew clock trees over a [`snr_netlist::Design`],
//! standing in for the conventional CTS flow whose trees the DAC-2013
//! study assigns NDRs on. [`synthesize`] runs the flow:
//!
//! 1. **Topology**: balanced median bisection of the sinks
//!    ([`bisection_topology`]); [`nearest_neighbor_topology`] is the greedy
//!    alternative for topology ablations.
//! 2. **Buffered embedding**: Deferred-Merge Embedding with exact Elmore
//!    balancing, inserting buffers where a subtree's capacitance exceeds
//!    the stage-capacitance limit and repeaters along long edges, and
//!    folding their delays into each merge's balance
//!    ([`build_buffered_tree`]).
//!
//! The output is a [`ClockTree`], the structure every downstream crate
//! (timing, power, variation, the NDR optimizer) consumes, together with an
//! [`Assignment`] mapping each tree edge to a routing rule. [`h_tree`]
//! builds the textbook unbuffered H-tree for tests and examples.
//!
//! # Examples
//!
//! ```
//! use snr_netlist::BenchmarkSpec;
//! use snr_tech::Technology;
//! use snr_cts::{synthesize, CtsOptions};
//!
//! let design = BenchmarkSpec::new("demo", 128).seed(3).build()?;
//! let tech = Technology::n45();
//! let tree = synthesize(&design, &tech, &CtsOptions::default())?;
//! assert!(tree.stats().n_buffers > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod arena;
mod assignment;
mod dme;
mod error;
mod htree;
mod io;
mod ndr_tcl;
mod options;
mod topology;
mod tree;
pub mod svg;

pub use arena::{TreeArena, NO_PARENT};
pub use assignment::Assignment;
pub use dme::build_buffered_tree;
pub use error::CtsError;
pub use htree::h_tree;
pub use io::{load_assignment, save_assignment};
pub use ndr_tcl::{export_ndr_tcl, import_ndr_tcl};
pub use options::CtsOptions;
pub use topology::{bisection_topology, nearest_neighbor_topology, PlanNode, TopologyPlan};
pub use tree::{Children, ClockTree, Node, NodeId, NodeKind, TreeStats};

use snr_netlist::Design;
use snr_tech::Technology;

/// Runs the CTS flow: median-bisection topology, then buffered DME
/// ([`build_buffered_tree`]).
///
/// # Errors
///
/// Returns [`CtsError`] when the design/technology combination cannot be
/// synthesized (e.g. a stage load that even the largest buffer cannot drive
/// within the slew target).
pub fn synthesize(
    design: &Design,
    tech: &Technology,
    opts: &CtsOptions,
) -> Result<ClockTree, CtsError> {
    let plan = bisection_topology(design);
    build_buffered_tree(design, tech, opts, &plan)
}
