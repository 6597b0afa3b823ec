//! Clock-tree synthesis substrate.
//!
//! Builds buffered clock trees over a [`snr_netlist::Design`], substituting
//! the commercial CTS flow used in the DAC-2013 study:
//!
//! 1. **Topology**: recursive nearest-neighbour pairing of sinks
//!    ([`nearest_neighbor_topology`]).
//! 2. **Embedding**: Deferred-Merge Embedding with exact Elmore balancing —
//!    the classic zero-skew-tree algorithm ([`build_buffered_tree`]).
//! 3. **Buffering**: level-synchronized buffer insertion driven by a
//!    stage-capacitance limit ([`insert_buffers`]).
//!
//! The output is a [`ClockTree`], the structure every downstream crate
//! (timing, power, variation, the NDR optimizer) consumes, together with an
//! [`Assignment`] mapping each tree edge to a routing rule.
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
mod buffering;
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
pub use buffering::insert_buffers;
pub use dme::{build_buffered_tree, build_unbuffered_tree};
pub use error::CtsError;
pub use htree::h_tree;
pub use io::{load_assignment, save_assignment};
pub use ndr_tcl::{export_ndr_tcl, import_ndr_tcl};
pub use options::CtsOptions;
pub use topology::{bisection_topology, nearest_neighbor_topology, PlanNode, TopologyPlan};
pub use tree::{Children, ClockTree, Node, NodeId, NodeKind, TreeStats};

use snr_netlist::Design;
use snr_tech::Technology;

/// Runs the full CTS flow: topology → DME embedding → buffering.
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
