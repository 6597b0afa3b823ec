//! Clock-mesh substrate: the structural alternative to a tree.
//!
//! A clock mesh shorts the whole distribution together on a redundant grid:
//! skew collapses (every sink hangs off a low-impedance plane) at the cost
//! of dramatically more switched wire capacitance. The paper-family
//! comparison — tree + smart NDR vs mesh — needs a mesh model honest enough
//! to show both sides, which this crate provides:
//!
//! * [`MeshSpec`] → [`ClockMesh`]: a `rows × cols` grid over the die,
//!   routed with an NDR [`snr_tech::Rule`], driven by `k × k` evenly spaced
//!   drivers, with each sink strapped to the nearest grid node by a stub;
//! * [`ClockMesh::analyze`]: a first-order electrical report — per-sink
//!   delay estimated as `R_eff(driver set → tap) · C_sink + stub Elmore`,
//!   with `R_eff` from the real resistive-grid solve ([`ResistiveGrid`]),
//!   plus total switched capacitance and power.
//!
//! The model is deliberately *optimistic for the mesh* (ideal in-phase
//! drivers, no pre-mesh tree counted, no short-circuit current between
//! drivers): when the tree still wins on power — and it does, by multiples —
//! the conclusion is conservative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod solver;

pub use solver::ResistiveGrid;

use snr_geom::Point;
use snr_netlist::Design;
use snr_tech::{units, Rule, Technology};
use std::fmt;

/// Parameters of a clock mesh.
///
/// # Examples
///
/// ```
/// use snr_mesh::MeshSpec;
/// use snr_tech::Rule;
///
/// let spec = MeshSpec::new(8, 8, 2, Rule::DEFAULT)?;
/// assert_eq!(spec.rows(), 8);
/// # Ok::<(), snr_tech::TechError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    rows: usize,
    cols: usize,
    drivers_per_axis: usize,
    rule: Rule,
}

impl MeshSpec {
    /// Creates a spec: a `rows × cols` grid driven by
    /// `drivers_per_axis²` drivers, wires routed with `rule`.
    ///
    /// # Errors
    ///
    /// Returns [`snr_tech::TechError`] when the grid is under 2×2 or the
    /// driver count per axis exceeds the grid dimension.
    pub fn new(
        rows: usize,
        cols: usize,
        drivers_per_axis: usize,
        rule: Rule,
    ) -> Result<Self, snr_tech::TechError> {
        if rows < 2 || cols < 2 {
            return Err(snr_tech::TechError::new("mesh must be at least 2x2"));
        }
        if drivers_per_axis == 0 || drivers_per_axis > rows.min(cols) {
            return Err(snr_tech::TechError::new(format!(
                "drivers_per_axis {drivers_per_axis} outside 1..={}",
                rows.min(cols)
            )));
        }
        Ok(MeshSpec {
            rows,
            cols,
            drivers_per_axis,
            rule,
        })
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Drivers per axis (total drivers = square of this).
    pub fn drivers_per_axis(&self) -> usize {
        self.drivers_per_axis
    }

    /// The routing rule of the mesh wires.
    pub fn rule(&self) -> Rule {
        self.rule
    }
}

/// A clock mesh instantiated over a design's die.
#[derive(Debug, Clone)]
pub struct ClockMesh {
    spec: MeshSpec,
    grid: ResistiveGrid,
    /// Total mesh wirelength, µm.
    mesh_wire_um: f64,
    /// Total stub wirelength, µm.
    stub_wire_um: f64,
    /// Per-sink tap node (row, col) and stub length µm.
    taps: Vec<(usize, usize, f64)>,
    /// Per-sink capacitance, fF.
    sink_cap_ff: Vec<f64>,
}

impl ClockMesh {
    /// Builds the mesh for `design` under `tech`.
    ///
    /// Grid nodes are evenly spaced over the die; drivers ground the
    /// `k × k` node subgrid; each sink straps to its nearest node.
    pub fn build(design: &Design, tech: &Technology, spec: MeshSpec) -> Self {
        let die = design.die();
        let layer = tech.clock_layer();
        let r_unit = layer.unit_r(spec.rule); // kΩ/µm

        let xs: Vec<i64> = (0..spec.cols)
            .map(|c| die.lo().x + die.width() * c as i64 / (spec.cols as i64 - 1))
            .collect();
        let ys: Vec<i64> = (0..spec.rows)
            .map(|r| die.lo().y + die.height() * r as i64 / (spec.rows as i64 - 1))
            .collect();

        // Per-segment conductances from the physical pitches.
        let seg_h_um = units::nm_to_um(die.width()) / (spec.cols as f64 - 1.0);
        let seg_v_um = units::nm_to_um(die.height()) / (spec.rows as f64 - 1.0);
        let g_h = 1.0 / (r_unit * seg_h_um);
        let g_v = 1.0 / (r_unit * seg_v_um);
        let mut grid = ResistiveGrid::new(spec.rows, spec.cols, g_h, g_v);

        // Drivers: k x k evenly spread nodes.
        let k = spec.drivers_per_axis;
        for i in 0..k {
            for j in 0..k {
                let r = if k == 1 {
                    spec.rows / 2
                } else {
                    i * (spec.rows - 1) / (k - 1)
                };
                let c = if k == 1 {
                    spec.cols / 2
                } else {
                    j * (spec.cols - 1) / (k - 1)
                };
                grid.ground(r, c);
            }
        }

        // Wirelength: full rows and columns across the die.
        let mesh_wire_um = spec.rows as f64 * units::nm_to_um(die.width())
            + spec.cols as f64 * units::nm_to_um(die.height());

        // Sink straps to the nearest node.
        let nearest = |v: &[i64], x: i64| -> usize {
            v.iter()
                .enumerate()
                .min_by_key(|(_, &gx)| (gx - x).abs())
                .map(|(i, _)| i)
                .expect("axis vectors are non-empty")
        };
        let mut taps = Vec::with_capacity(design.sinks().len());
        let mut stub_wire_um = 0.0;
        let mut sink_cap_ff = Vec::with_capacity(design.sinks().len());
        for s in design.sinks() {
            let p: Point = s.location();
            let c = nearest(&xs, p.x);
            let r = nearest(&ys, p.y);
            let stub_um =
                units::nm_to_um(p.manhattan(Point::new(xs[c], ys[r])));
            stub_wire_um += stub_um;
            taps.push((r, c, stub_um));
            sink_cap_ff.push(s.cap_ff());
        }

        ClockMesh {
            spec,
            grid,
            mesh_wire_um,
            stub_wire_um,
            taps,
            sink_cap_ff,
        }
    }

    /// The mesh spec.
    pub fn spec(&self) -> MeshSpec {
        self.spec
    }

    /// Total mesh wirelength in µm (rows + columns across the die).
    pub fn mesh_wire_um(&self) -> f64 {
        self.mesh_wire_um
    }

    /// Total stub wirelength in µm.
    pub fn stub_wire_um(&self) -> f64 {
        self.stub_wire_um
    }

    /// First-order electrical analysis of the mesh.
    ///
    /// Per sink: `delay ≈ R_eff(tap) · C_sink + r·L_stub·(c·L_stub/2 + C_sink)`
    /// using the *effective* (delay) capacitance for the stub; skew is the
    /// spread.
    ///
    /// Power is where meshes lose, so it is modelled honestly:
    ///
    /// * mesh + stub wire and sink pins toggle every cycle;
    /// * the driver bank is **sized for slew**: enough largest-cell buffers
    ///   in parallel that `ln9 · (R_drv/n) · C_plane ≤ slew_target_ps`
    ///   (never fewer than the spec's grounded taps), each contributing
    ///   internal energy and an input pin the pre-mesh tree must switch;
    /// * the pre-mesh distribution that feeds those drivers is estimated as
    ///   a comb over the driver bank (`(√n + 1) ×` die side) routed at the
    ///   mesh rule.
    pub fn analyze(&self, tech: &Technology, freq_ghz: f64) -> MeshReport {
        self.analyze_with_slew_target(tech, freq_ghz, 100.0)
    }

    /// [`ClockMesh::analyze`] with an explicit driver slew target in ps.
    ///
    /// # Panics
    ///
    /// Panics if the target is not positive and finite.
    pub fn analyze_with_slew_target(
        &self,
        tech: &Technology,
        freq_ghz: f64,
        slew_target_ps: f64,
    ) -> MeshReport {
        assert!(
            slew_target_ps.is_finite() && slew_target_ps > 0.0,
            "slew target {slew_target_ps} must be positive"
        );
        const LN9: f64 = 2.197_224_577_336_219_6;
        let layer = tech.clock_layer();
        let rule = self.spec.rule;
        let r_unit = layer.unit_r(rule);
        let c_unit_power = layer.unit_c(rule);
        let c_unit_delay = layer.unit_c_delay(rule);

        // Effective resistance per *unique* tap node (memoized).
        let mut r_eff = vec![f64::NAN; self.grid.len()];
        let mut delays = Vec::with_capacity(self.taps.len());
        for ((r, c, stub_um), cap) in self.taps.iter().zip(&self.sink_cap_ff) {
            let node = self.grid.node(*r, *c);
            if r_eff[node].is_nan() {
                r_eff[node] = self.grid.effective_resistance(*r, *c);
            }
            let stub_delay = r_unit * stub_um * (c_unit_delay * stub_um / 2.0 + cap);
            delays.push(r_eff[node] * cap + stub_delay);
        }
        let max = delays.iter().cloned().fold(f64::MIN, f64::max);
        let min = delays.iter().cloned().fold(f64::MAX, f64::min);

        // Switched plane.
        let wire_ff = (self.mesh_wire_um + self.stub_wire_um) * c_unit_power;
        let pins_ff: f64 = self.sink_cap_ff.iter().sum();
        let plane_delay_ff = (self.mesh_wire_um + self.stub_wire_um) * c_unit_delay + pins_ff;
        let vdd = tech.vdd_v();
        let wire_uw = units::switching_power_uw(wire_ff, vdd, freq_ghz, 1.0);
        let pins_uw = units::switching_power_uw(pins_ff, vdd, freq_ghz, 1.0);

        // Slew-sized driver bank.
        let driver = tech.buffers().largest();
        let needed = (LN9 * driver.drive_res_kohm() * plane_delay_ff / slew_target_ps).ceil();
        let min_drivers = (self.spec.drivers_per_axis * self.spec.drivers_per_axis) as f64;
        let n_drivers = needed.max(min_drivers) as usize;
        let drivers_internal_uw =
            n_drivers as f64 * (driver.internal_energy_fj() * freq_ghz + driver.leakage_uw());
        let drivers_pins_uw = units::switching_power_uw(
            n_drivers as f64 * driver.input_cap_ff(),
            vdd,
            freq_ghz,
            1.0,
        );

        // Pre-mesh comb feeding the driver bank.
        let side_um = self.mesh_wire_um / (self.spec.rows + self.spec.cols) as f64;
        let pretree_um = ((n_drivers as f64).sqrt() + 1.0) * side_um;
        let pretree_uw =
            units::switching_power_uw(pretree_um * c_unit_power, vdd, freq_ghz, 1.0);

        MeshReport {
            skew_ps: max - min,
            max_delay_ps: max,
            wire_uw,
            pins_uw,
            drivers_uw: drivers_internal_uw + drivers_pins_uw + pretree_uw,
            n_drivers,
            track_cost_um: (self.mesh_wire_um + self.stub_wire_um + pretree_um)
                * rule.track_cost(),
        }
    }
}

/// First-order mesh analysis results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshReport {
    /// Spread of per-sink delays, ps.
    pub skew_ps: f64,
    /// Worst per-sink delay from the driver plane, ps.
    pub max_delay_ps: f64,
    /// Switched mesh+stub wire power, µW.
    pub wire_uw: f64,
    /// Sink pin power, µW.
    pub pins_uw: f64,
    /// Driver-bank power: internal + leakage + input pins + the pre-mesh
    /// comb that feeds them, µW.
    pub drivers_uw: f64,
    /// Slew-sized driver count.
    pub n_drivers: usize,
    /// Routing-track cost in equivalent default-rule µm.
    pub track_cost_um: f64,
}

impl MeshReport {
    /// Clock-network power (wire + drivers, excluding sink pins), µW.
    pub fn network_uw(&self) -> f64 {
        self.wire_uw + self.drivers_uw
    }
}

impl fmt::Display for MeshReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mesh: skew {:.2} ps, network {:.1} µW (wire {:.1} + drivers {:.1}), tracks {:.0} µm",
            self.skew_ps,
            self.network_uw(),
            self.wire_uw,
            self.drivers_uw,
            self.track_cost_um
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_netlist::BenchmarkSpec;

    fn fixture() -> (snr_netlist::Design, Technology) {
        (
            BenchmarkSpec::new("m", 300).seed(4).build().unwrap(),
            Technology::n45(),
        )
    }

    #[test]
    fn build_and_analyze() {
        let (design, tech) = fixture();
        let spec = MeshSpec::new(8, 8, 2, Rule::DEFAULT).unwrap();
        let mesh = ClockMesh::build(&design, &tech, spec);
        assert!(mesh.mesh_wire_um() > 0.0);
        assert!(mesh.stub_wire_um() > 0.0);
        let rep = mesh.analyze(&tech, design.freq_ghz());
        assert!(rep.skew_ps >= 0.0);
        assert!(rep.network_uw() > 0.0);
    }

    #[test]
    fn denser_mesh_less_skew_more_mesh_wire() {
        let (design, tech) = fixture();
        let coarse = ClockMesh::build(
            &design,
            &tech,
            MeshSpec::new(4, 4, 2, Rule::DEFAULT).unwrap(),
        );
        let fine = ClockMesh::build(
            &design,
            &tech,
            MeshSpec::new(16, 16, 2, Rule::DEFAULT).unwrap(),
        );
        assert!(
            fine.analyze(&tech, 1.0).skew_ps < coarse.analyze(&tech, 1.0).skew_ps,
            "denser grid must tighten skew"
        );
        // Grid wire grows with density; stubs shrink (total power can go
        // either way — stub-dominated at coarse densities).
        assert!(fine.mesh_wire_um() > coarse.mesh_wire_um());
        assert!(fine.stub_wire_um() < coarse.stub_wire_um());
    }

    #[test]
    fn more_drivers_less_skew() {
        let (design, tech) = fixture();
        let spec1 = MeshSpec::new(12, 12, 1, Rule::DEFAULT).unwrap();
        let spec9 = MeshSpec::new(12, 12, 3, Rule::DEFAULT).unwrap();
        let one = ClockMesh::build(&design, &tech, spec1).analyze(&tech, 1.0);
        let nine = ClockMesh::build(&design, &tech, spec9).analyze(&tech, 1.0);
        assert!(nine.max_delay_ps < one.max_delay_ps);
    }

    #[test]
    fn wider_rule_lowers_delay_raises_power() {
        let (design, tech) = fixture();
        let thin = ClockMesh::build(
            &design,
            &tech,
            MeshSpec::new(8, 8, 2, Rule::DEFAULT).unwrap(),
        )
        .analyze(&tech, 1.0);
        let wide = ClockMesh::build(
            &design,
            &tech,
            MeshSpec::new(8, 8, 2, Rule::new(2.0, 2.0).unwrap()).unwrap(),
        )
        .analyze(&tech, 1.0);
        assert!(wide.max_delay_ps < thin.max_delay_ps);
        assert!(wide.wire_uw > thin.wire_uw);
    }

    #[test]
    fn spec_validation() {
        assert!(MeshSpec::new(1, 8, 1, Rule::DEFAULT).is_err());
        assert!(MeshSpec::new(8, 8, 0, Rule::DEFAULT).is_err());
        assert!(MeshSpec::new(8, 8, 9, Rule::DEFAULT).is_err());
        assert!(MeshSpec::new(8, 8, 8, Rule::DEFAULT).is_ok());
    }

    #[test]
    fn taps_strap_to_nearest_node() {
        let (design, tech) = fixture();
        let spec = MeshSpec::new(6, 6, 2, Rule::DEFAULT).unwrap();
        let mesh = ClockMesh::build(&design, &tech, spec);
        // Every stub must be at most half a pitch in each axis.
        let max_stub_um = units::nm_to_um(
            design.die().width() / (2 * 5) + design.die().height() / (2 * 5),
        );
        for (r, c, stub) in &mesh.taps {
            assert!(*r < 6 && *c < 6);
            assert!(*stub <= max_stub_um + 1e-9, "stub {stub} > {max_stub_um}");
        }
    }
}
