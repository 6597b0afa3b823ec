//! Technology substrate: interconnect parasitics, non-default routing rules
//! and buffer libraries.
//!
//! The DAC-2013 smart-NDR study reads foundry technology files; this crate is
//! the synthetic replacement. It models, in closed form, exactly the physical
//! effects that make non-default rules a power/robustness trade-off:
//!
//! * wire **resistance falls as 1/width** (`R = ρ / (t·w)`),
//! * wire **area capacitance grows with width**,
//! * wire **coupling capacitance falls with spacing** (`∝ s₀/s`),
//! * wider / more-spaced wires consume more **routing track** area,
//! * relative resistance variability **shrinks with width** (σR/R ∝ 1/w).
//!
//! Everything downstream (timing, power, the NDR optimizer) consumes only the
//! [`Layer::unit_r`] / [`Layer::unit_c`] interface, so swapping in real
//! extracted tables would not change any other crate.
//!
//! # Units
//!
//! A single coherent unit system is used across the whole workspace:
//!
//! | Quantity    | Unit | Note |
//! |-------------|------|------|
//! | length      | µm   | geometry DB is nm; tech converts |
//! | resistance  | kΩ   | |
//! | capacitance | fF   | kΩ·fF = ps exactly |
//! | time        | ps   | |
//! | energy      | fJ   | fF·V² = fJ |
//! | frequency   | GHz  | fJ·GHz = µW |
//! | power       | µW   | |
//!
//! # Examples
//!
//! ```
//! use snr_tech::{Technology, Rule};
//!
//! let tech = Technology::n45();
//! let layer = tech.clock_layer();
//! let default = Rule::DEFAULT;
//! let ndr = Rule::new(2.0, 2.0).unwrap(); // 2W2S
//!
//! // Doubling width halves resistance but raises capacitance:
//! assert!(layer.unit_r(ndr) < layer.unit_r(default) / 1.9);
//! assert!(layer.unit_c(ndr) > layer.unit_c(default) * 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod corner;
mod error;
mod layer;
mod rule;
mod technology;
pub mod units;

pub use buffer::{BufferCell, BufferLibrary};
pub use corner::Corner;
pub use error::TechError;
pub use layer::{Layer, VariedWidth};
pub use rule::{Rule, RuleId, RuleSet};
pub use technology::Technology;
