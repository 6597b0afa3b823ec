//! Design lint: structured diagnostics and best-effort repair.
//!
//! [`crate::Design`] enforces its invariants eagerly, which is exactly right
//! for code that already holds a design — and exactly wrong for code that is
//! *receiving* one from the outside world, where the interesting questions
//! are "what is wrong with this input, all of it" and "can it be fixed
//! without a round-trip to the producer". This module answers both:
//!
//! * [`RawDesign`] is the unvalidated mirror of a design: every field that
//!   can be damaged (coordinates, capacitances, sink ids, timing arcs) is
//!   held in its raw parsed form, so arbitrarily broken inputs are
//!   representable without panicking constructors.
//! * [`RawDesign::validate`] produces [`Diagnostic`]s (code, severity,
//!   entity, message) covering geometry (non-finite or out-of-die
//!   coordinates, duplicate sink positions, degenerate dies), topology
//!   (missing/duplicate/non-dense sink ids, timing-arc self-loops, dangling
//!   endpoints, cycles, fan-in pile-ups) and electrical sanity (capacitance
//!   and frequency bounds, arc windows) against configurable [`Bounds`].
//! * [`RawDesign::repair`] applies the safe subset of fixes — clamp, round,
//!   dedupe, prune, reindex — and reports every mutation as a [`Repair`],
//!   so a repaired design never silently differs from its input.
//! * [`RawDesign::finish`] converts a (clean) raw design into a validated
//!   [`crate::Design`].
//!
//! The loader ([`crate::load_design`]) runs this pipeline with repair off
//! and rejects on any `Error`-severity diagnostic; `smart-ndr lint` exposes
//! it interactively.
//!
//! # Examples
//!
//! ```
//! use snr_netlist::validate::{Bounds, RawDesign, RawSink, Severity};
//!
//! let mut raw = RawDesign::empty("demo", 1.0, (0.0, 0.0, 1000.0, 1000.0), (500.0, 0.0));
//! raw.sinks.push(RawSink { id: 0, name: "a".into(), x: 10.0, y: 10.0, cap_ff: 5.0 });
//! raw.sinks.push(RawSink { id: 1, name: "b".into(), x: f64::NAN, y: 10.0, cap_ff: 5.0 });
//!
//! let diags = raw.validate(&Bounds::default());
//! assert!(diags.iter().any(|d| d.severity == Severity::Error));
//!
//! let repairs = raw.repair(&Bounds::default());
//! assert!(!repairs.is_empty());
//! let design = raw.finish()?; // the NaN sink was pruned, the rest survives
//! assert_eq!(design.sinks().len(), 1);
//! # Ok::<(), snr_netlist::NetlistError>(())
//! ```

use crate::{Design, NetlistError, Sink, SinkId, TimingArc};
use snr_geom::{Point, Rect};
use snr_tech::Technology;
use std::collections::HashMap;
use std::fmt;

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth knowing, never blocks loading.
    Info,
    /// Suspicious but loadable: the design is self-consistent, yet the
    /// pattern usually indicates an upstream bug.
    Warning,
    /// The design violates an invariant and cannot be loaded as-is.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes, grouped by the aspect they check.
///
/// The string ids (`G..`/`T..`/`E..`) are part of the tool's contract —
/// scripts may match on them — and are documented in DESIGN.md §3.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagCode {
    // --- geometry ---
    /// A sink coordinate is NaN or infinite.
    NonFiniteCoord,
    /// A coordinate exceeds the representable placement range.
    CoordOutOfRange,
    /// A sink coordinate carries a fractional part (grid is integer nm).
    FractionalCoord,
    /// A sink lies outside the die outline.
    CoordOutsideDie,
    /// Two sinks occupy the identical location.
    DuplicateSinkPosition,
    /// The die outline is non-finite, inverted or has zero area.
    DegenerateDie,
    /// The clock root lies outside the die (or is non-finite).
    RootOutsideDie,
    // --- topology ---
    /// The design has no sinks at all.
    NoSinks,
    /// Two sinks share the same id.
    DuplicateSinkId,
    /// Sink ids are not the dense in-order sequence `0..n`.
    NonDenseSinkIds,
    /// A timing arc launches and captures at the same sink.
    ArcSelfLoop,
    /// A timing arc references a sink id the design does not contain.
    ArcUnknownSink,
    /// The same launch→capture pair appears more than once.
    ArcDuplicate,
    /// The timing-arc digraph contains a directed cycle.
    ArcCycle,
    /// More arcs capture at one sink than the configured fan-in bound.
    ArcFanInExceeded,
    // --- electrical ---
    /// A sink capacitance is NaN or infinite.
    NonFiniteCap,
    /// A sink capacitance is outside the technology's plausible range.
    CapOutOfBounds,
    /// The target frequency is non-finite or not positive.
    NonPositiveFreq,
    /// The target frequency exceeds the technology's plausible maximum.
    FreqAboveBound,
    /// A timing-arc setup/hold window is non-finite or negative.
    ArcWindowInvalid,
    // --- import (DEF-lite / ISPD frontier, see crate::import) ---
    /// An unrecognized section or top-level statement was skipped.
    ImportUnknownSection,
    /// The `UNITS` declaration is missing, malformed or implausible.
    ImportUnitMismatch,
    /// Two pin records declare the same pin name.
    ImportDuplicatePin,
    /// A net record references a pin name no record declares.
    ImportDanglingNet,
    /// A coordinate overflows the importer's numeric domain after unit
    /// scaling (non-finite or beyond any plausible placement).
    ImportCoordOverflow,
    /// The file ended before `END DESIGN` (or inside an open section).
    ImportTruncated,
    /// A record did not match its section's grammar and was skipped.
    ImportMalformedRecord,
    /// A resource bound (input size, line length, token count, record
    /// count, diagnostic count) was exceeded; parsing stopped.
    ImportLimitExceeded,
    /// A section's declared record count disagrees with the records read.
    ImportCountMismatch,
    /// A required header statement (`DESIGN`, `DIEAREA`, `CLOCKROOT`) is
    /// absent.
    ImportMissingSection,
    /// Marker attached when an imported design is rejected downstream
    /// (validation or finish), so every import rejection carries an
    /// I-series code alongside the underlying G/T/E findings.
    ImportInvalidDesign,
}

impl DiagCode {
    /// The stable short id (e.g. `"G01"`), suitable for grep and scripts.
    pub fn id(self) -> &'static str {
        match self {
            DiagCode::NonFiniteCoord => "G01",
            DiagCode::CoordOutOfRange => "G02",
            DiagCode::FractionalCoord => "G03",
            DiagCode::CoordOutsideDie => "G04",
            DiagCode::DuplicateSinkPosition => "G05",
            DiagCode::DegenerateDie => "G06",
            DiagCode::RootOutsideDie => "G07",
            DiagCode::NoSinks => "T01",
            DiagCode::DuplicateSinkId => "T02",
            DiagCode::NonDenseSinkIds => "T03",
            DiagCode::ArcSelfLoop => "T04",
            DiagCode::ArcUnknownSink => "T05",
            DiagCode::ArcDuplicate => "T06",
            DiagCode::ArcCycle => "T07",
            DiagCode::ArcFanInExceeded => "T08",
            DiagCode::NonFiniteCap => "E01",
            DiagCode::CapOutOfBounds => "E02",
            DiagCode::NonPositiveFreq => "E03",
            DiagCode::FreqAboveBound => "E04",
            DiagCode::ArcWindowInvalid => "E05",
            DiagCode::ImportUnknownSection => "I01",
            DiagCode::ImportUnitMismatch => "I02",
            DiagCode::ImportDuplicatePin => "I03",
            DiagCode::ImportDanglingNet => "I04",
            DiagCode::ImportCoordOverflow => "I05",
            DiagCode::ImportTruncated => "I06",
            DiagCode::ImportMalformedRecord => "I07",
            DiagCode::ImportLimitExceeded => "I08",
            DiagCode::ImportCountMismatch => "I09",
            DiagCode::ImportMissingSection => "I10",
            DiagCode::ImportInvalidDesign => "I11",
        }
    }

    /// Every stable code, in id order — the audit surface for tests that
    /// pin the external G/T/E/I contract.
    pub fn all() -> &'static [DiagCode] {
        &[
            DiagCode::NonFiniteCoord,
            DiagCode::CoordOutOfRange,
            DiagCode::FractionalCoord,
            DiagCode::CoordOutsideDie,
            DiagCode::DuplicateSinkPosition,
            DiagCode::DegenerateDie,
            DiagCode::RootOutsideDie,
            DiagCode::NoSinks,
            DiagCode::DuplicateSinkId,
            DiagCode::NonDenseSinkIds,
            DiagCode::ArcSelfLoop,
            DiagCode::ArcUnknownSink,
            DiagCode::ArcDuplicate,
            DiagCode::ArcCycle,
            DiagCode::ArcFanInExceeded,
            DiagCode::NonFiniteCap,
            DiagCode::CapOutOfBounds,
            DiagCode::NonPositiveFreq,
            DiagCode::FreqAboveBound,
            DiagCode::ArcWindowInvalid,
            DiagCode::ImportUnknownSection,
            DiagCode::ImportUnitMismatch,
            DiagCode::ImportDuplicatePin,
            DiagCode::ImportDanglingNet,
            DiagCode::ImportCoordOverflow,
            DiagCode::ImportTruncated,
            DiagCode::ImportMalformedRecord,
            DiagCode::ImportLimitExceeded,
            DiagCode::ImportCountMismatch,
            DiagCode::ImportMissingSection,
            DiagCode::ImportInvalidDesign,
        ]
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding of [`RawDesign::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code identifying the class of problem.
    pub code: DiagCode,
    /// How bad it is; `Error` blocks loading.
    pub severity: Severity,
    /// The entity the finding is about (e.g. `"sink 7"`, `"arc 3"`,
    /// `"die"`).
    pub entity: String,
    /// Human-readable description with the offending values.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(
        code: DiagCode,
        severity: Severity,
        entity: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            entity: entity.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.entity, self.message
        )
    }
}

/// One mutation applied by [`RawDesign::repair`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repair {
    /// The diagnostic class the mutation addresses.
    pub code: DiagCode,
    /// The entity that was mutated (or pruned).
    pub entity: String,
    /// What was done, with before/after values.
    pub action: String,
}

impl fmt::Display for Repair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "repair[{}] {}: {}", self.code, self.entity, self.action)
    }
}

/// Plausibility bounds validation checks electrical quantities against.
///
/// Geometry and topology checks are absolute; these bounds exist because a
/// capacitance of 10⁹ fF or a 500 GHz clock parses fine and even builds a
/// [`Design`], yet poisons every downstream analysis. Derive them from a
/// technology with [`Bounds::for_tech`] or use the permissive defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Smallest believable sink pin capacitance, fF (repair clamps up to
    /// this).
    pub min_cap_ff: f64,
    /// Largest believable sink pin capacitance, fF.
    pub max_cap_ff: f64,
    /// Largest believable target frequency, GHz.
    pub max_freq_ghz: f64,
    /// Largest representable coordinate magnitude, nm.
    pub max_coord_nm: f64,
    /// Most timing arcs allowed to capture at a single sink before the
    /// pile-up is flagged.
    pub max_arc_fan_in: usize,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            min_cap_ff: 0.1,
            max_cap_ff: 1_000.0,
            max_freq_ghz: 20.0,
            // 100 mm — an order of magnitude beyond reticle-limit dice.
            // Anything farther out also destabilizes DME's merge balancing,
            // so the bound doubles as a numerical guard for synthesis.
            max_coord_nm: 1e8,
            max_arc_fan_in: 64,
        }
    }
}

impl Bounds {
    /// Bounds scaled to a technology: the capacitance ceiling tracks the
    /// buffer library (a sink pin dwarfing the largest buffer input by 100×
    /// is corruption, not a big flop bank).
    pub fn for_tech(tech: &Technology) -> Self {
        let max_buf_cap = tech
            .buffers()
            .cells()
            .iter()
            .map(|c| c.input_cap_ff())
            .fold(1.0_f64, f64::max);
        Bounds {
            max_cap_ff: 100.0 * max_buf_cap,
            ..Bounds::default()
        }
    }
}

/// An unvalidated sink: the parsed fields of one `sink` line.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSink {
    /// Declared sink id (may be duplicated or out of order).
    pub id: usize,
    /// Instance/pin name.
    pub name: String,
    /// X coordinate, nm (may be non-finite or fractional).
    pub x: f64,
    /// Y coordinate, nm (may be non-finite or fractional).
    pub y: f64,
    /// Pin capacitance, fF (may be non-finite or non-positive).
    pub cap_ff: f64,
}

/// An unvalidated timing arc: the parsed fields of one `arc` line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawArc {
    /// Launching sink id.
    pub from: usize,
    /// Capturing sink id.
    pub to: usize,
    /// Allowed capture lateness, ps.
    pub setup_ps: f64,
    /// Allowed capture earliness, ps.
    pub hold_ps: f64,
}

/// An unvalidated design, as parsed from `.sndr` text (or assembled by a
/// fault injector). See the [module docs](self) for the
/// validate/repair/finish pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RawDesign {
    /// Design name.
    pub name: String,
    /// Target frequency, GHz.
    pub freq_ghz: f64,
    /// Die corners as parsed: `(lo_x, lo_y, hi_x, hi_y)`, nm.
    pub die: (f64, f64, f64, f64),
    /// Clock entry point `(x, y)`, nm.
    pub root: (f64, f64),
    /// Sinks in file order.
    pub sinks: Vec<RawSink>,
    /// Timing arcs in file order.
    pub arcs: Vec<RawArc>,
}

impl RawDesign {
    /// A raw design with no sinks or arcs.
    pub fn empty(
        name: impl Into<String>,
        freq_ghz: f64,
        die: (f64, f64, f64, f64),
        root: (f64, f64),
    ) -> Self {
        RawDesign {
            name: name.into(),
            freq_ghz,
            die,
            root,
            sinks: Vec::new(),
            arcs: Vec::new(),
        }
    }

    /// The raw mirror of a validated design (useful as a corruption
    /// starting point and for re-serialization).
    pub fn from_design(design: &Design) -> Self {
        RawDesign {
            name: design.name().to_owned(),
            freq_ghz: design.freq_ghz(),
            die: (
                design.die().lo().x as f64,
                design.die().lo().y as f64,
                design.die().hi().x as f64,
                design.die().hi().y as f64,
            ),
            root: (design.clock_root().x as f64, design.clock_root().y as f64),
            sinks: design
                .sinks()
                .iter()
                .map(|s| RawSink {
                    id: s.id().0,
                    name: s.name().to_owned(),
                    x: s.location().x as f64,
                    y: s.location().y as f64,
                    cap_ff: s.cap_ff(),
                })
                .collect(),
            arcs: design
                .arcs()
                .iter()
                .map(|a| RawArc {
                    from: a.from.0,
                    to: a.to.0,
                    setup_ps: a.setup_margin_ps,
                    hold_ps: a.hold_margin_ps,
                })
                .collect(),
        }
    }

    /// Runs every check and returns all findings (empty = clean).
    ///
    /// Checks are independent: one broken sink yields its own diagnostics
    /// without masking problems elsewhere, so a single pass reports
    /// everything a producer must fix.
    pub fn validate(&self, bounds: &Bounds) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        self.check_die(bounds, &mut diags);
        self.check_root(bounds, &mut diags);
        self.check_sinks(bounds, &mut diags);
        self.check_sink_ids(&mut diags);
        self.check_arcs(bounds, &mut diags);
        diags
    }

    fn die_rect(&self) -> Option<Rect> {
        let (x0, y0, x1, y1) = self.die;
        if !(x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite()) {
            return None;
        }
        Some(Rect::new(
            Point::new(x0.round() as i64, y0.round() as i64),
            Point::new(x1.round() as i64, y1.round() as i64),
        ))
    }

    fn check_die(&self, bounds: &Bounds, diags: &mut Vec<Diagnostic>) {
        let (x0, y0, x1, y1) = self.die;
        let vals = [x0, y0, x1, y1];
        if vals.iter().any(|v| !v.is_finite()) {
            diags.push(Diagnostic::new(
                DiagCode::DegenerateDie,
                Severity::Error,
                "die",
                format!("die corners ({x0}, {y0})..({x1}, {y1}) are not finite"),
            ));
            return;
        }
        if vals.iter().any(|v| v.abs() > bounds.max_coord_nm) {
            diags.push(Diagnostic::new(
                DiagCode::CoordOutOfRange,
                Severity::Error,
                "die",
                format!(
                    "die corner exceeds the {} nm coordinate range",
                    bounds.max_coord_nm
                ),
            ));
            return;
        }
        if (x1 - x0).abs() < 1.0 || (y1 - y0).abs() < 1.0 {
            diags.push(Diagnostic::new(
                DiagCode::DegenerateDie,
                Severity::Error,
                "die",
                format!("die ({x0}, {y0})..({x1}, {y1}) has zero area"),
            ));
        } else if x1 < x0 || y1 < y0 {
            diags.push(Diagnostic::new(
                DiagCode::DegenerateDie,
                Severity::Warning,
                "die",
                format!("die corners ({x0}, {y0})..({x1}, {y1}) are inverted"),
            ));
        }
    }

    fn check_root(&self, bounds: &Bounds, diags: &mut Vec<Diagnostic>) {
        let (x, y) = self.root;
        if !(x.is_finite() && y.is_finite()) {
            diags.push(Diagnostic::new(
                DiagCode::RootOutsideDie,
                Severity::Error,
                "root",
                format!("clock root ({x}, {y}) is not finite"),
            ));
            return;
        }
        if x.abs() > bounds.max_coord_nm || y.abs() > bounds.max_coord_nm {
            diags.push(Diagnostic::new(
                DiagCode::CoordOutOfRange,
                Severity::Error,
                "root",
                format!(
                    "clock root ({x}, {y}) exceeds the {} nm coordinate range",
                    bounds.max_coord_nm
                ),
            ));
            return;
        }
        if let Some(die) = self.die_rect() {
            let p = Point::new(x.round() as i64, y.round() as i64);
            if !die.contains(p) {
                diags.push(Diagnostic::new(
                    DiagCode::RootOutsideDie,
                    Severity::Error,
                    "root",
                    format!("clock root ({x}, {y}) outside die {die}"),
                ));
            }
        }
    }

    fn check_sinks(&self, bounds: &Bounds, diags: &mut Vec<Diagnostic>) {
        if self.sinks.is_empty() {
            diags.push(Diagnostic::new(
                DiagCode::NoSinks,
                Severity::Error,
                "design",
                "design has no sinks",
            ));
            return;
        }
        let die = self.die_rect();
        let mut by_pos: HashMap<(i64, i64), usize> = HashMap::new();
        for (i, s) in self.sinks.iter().enumerate() {
            let entity = format!("sink {}", s.id);
            if !(s.x.is_finite() && s.y.is_finite()) {
                diags.push(Diagnostic::new(
                    DiagCode::NonFiniteCoord,
                    Severity::Error,
                    &entity,
                    format!("location ({}, {}) is not finite", s.x, s.y),
                ));
            } else if s.x.abs() > bounds.max_coord_nm || s.y.abs() > bounds.max_coord_nm {
                diags.push(Diagnostic::new(
                    DiagCode::CoordOutOfRange,
                    Severity::Error,
                    &entity,
                    format!(
                        "location ({}, {}) exceeds the {} nm coordinate range",
                        s.x, s.y, bounds.max_coord_nm
                    ),
                ));
            } else {
                if s.x.fract() != 0.0 || s.y.fract() != 0.0 {
                    diags.push(Diagnostic::new(
                        DiagCode::FractionalCoord,
                        Severity::Warning,
                        &entity,
                        format!("location ({}, {}) is off the integer nm grid", s.x, s.y),
                    ));
                }
                let p = (s.x.round() as i64, s.y.round() as i64);
                if let Some(die) = die {
                    if !die.contains(Point::new(p.0, p.1)) {
                        diags.push(Diagnostic::new(
                            DiagCode::CoordOutsideDie,
                            Severity::Error,
                            &entity,
                            format!("location ({}, {}) outside die {die}", s.x, s.y),
                        ));
                    }
                }
                if let Some(&first) = by_pos.get(&p) {
                    diags.push(Diagnostic::new(
                        DiagCode::DuplicateSinkPosition,
                        Severity::Warning,
                        &entity,
                        format!(
                            "location ({}, {}) duplicates sink {}",
                            s.x, s.y, self.sinks[first].id
                        ),
                    ));
                } else {
                    by_pos.insert(p, i);
                }
            }
            if !s.cap_ff.is_finite() {
                diags.push(Diagnostic::new(
                    DiagCode::NonFiniteCap,
                    Severity::Error,
                    &entity,
                    format!("capacitance {} fF is not finite", s.cap_ff),
                ));
            } else if s.cap_ff <= 0.0 {
                diags.push(Diagnostic::new(
                    DiagCode::CapOutOfBounds,
                    Severity::Error,
                    &entity,
                    format!("capacitance {} fF is not positive", s.cap_ff),
                ));
            } else if s.cap_ff > bounds.max_cap_ff {
                diags.push(Diagnostic::new(
                    DiagCode::CapOutOfBounds,
                    Severity::Warning,
                    &entity,
                    format!(
                        "capacitance {} fF exceeds the plausible maximum {} fF",
                        s.cap_ff, bounds.max_cap_ff
                    ),
                ));
            }
        }
        if !self.freq_ghz.is_finite() || self.freq_ghz <= 0.0 {
            diags.push(Diagnostic::new(
                DiagCode::NonPositiveFreq,
                Severity::Error,
                "design",
                format!("target frequency {} GHz must be positive", self.freq_ghz),
            ));
        } else if self.freq_ghz > bounds.max_freq_ghz {
            diags.push(Diagnostic::new(
                DiagCode::FreqAboveBound,
                Severity::Warning,
                "design",
                format!(
                    "target frequency {} GHz exceeds the plausible maximum {} GHz",
                    self.freq_ghz, bounds.max_freq_ghz
                ),
            ));
        }
    }

    fn check_sink_ids(&self, diags: &mut Vec<Diagnostic>) {
        let mut seen: HashMap<usize, usize> = HashMap::new();
        for (pos, s) in self.sinks.iter().enumerate() {
            if let Some(&first) = seen.get(&s.id) {
                diags.push(Diagnostic::new(
                    DiagCode::DuplicateSinkId,
                    Severity::Error,
                    format!("sink {}", s.id),
                    format!("id {} already used at position {first}", s.id),
                ));
            } else {
                seen.insert(s.id, pos);
            }
            if s.id != pos {
                diags.push(Diagnostic::new(
                    DiagCode::NonDenseSinkIds,
                    Severity::Error,
                    format!("sink {}", s.id),
                    format!("sink id {} out of order (expected {pos})", s.id),
                ));
            }
        }
    }

    fn check_arcs(&self, bounds: &Bounds, diags: &mut Vec<Diagnostic>) {
        let known: HashMap<usize, ()> = self.sinks.iter().map(|s| (s.id, ())).collect();
        let mut seen_pairs: HashMap<(usize, usize), usize> = HashMap::new();
        let mut fan_in: HashMap<usize, usize> = HashMap::new();
        for (i, a) in self.arcs.iter().enumerate() {
            let entity = format!("arc {i}");
            if a.from == a.to {
                diags.push(Diagnostic::new(
                    DiagCode::ArcSelfLoop,
                    Severity::Error,
                    &entity,
                    format!("arc {} -> {} launches and captures at the same sink", a.from, a.to),
                ));
            }
            for end in [a.from, a.to] {
                if !known.contains_key(&end) {
                    diags.push(Diagnostic::new(
                        DiagCode::ArcUnknownSink,
                        Severity::Error,
                        &entity,
                        format!("arc endpoint sink {end} does not exist"),
                    ));
                }
            }
            if !(a.setup_ps.is_finite()
                && a.setup_ps >= 0.0
                && a.hold_ps.is_finite()
                && a.hold_ps >= 0.0)
            {
                diags.push(Diagnostic::new(
                    DiagCode::ArcWindowInvalid,
                    Severity::Error,
                    &entity,
                    format!(
                        "window (setup {} ps, hold {} ps) must be finite and non-negative",
                        a.setup_ps, a.hold_ps
                    ),
                ));
            }
            if let Some(&first) = seen_pairs.get(&(a.from, a.to)) {
                diags.push(Diagnostic::new(
                    DiagCode::ArcDuplicate,
                    Severity::Warning,
                    &entity,
                    format!("pair {} -> {} already constrained by arc {first}", a.from, a.to),
                ));
            } else {
                seen_pairs.insert((a.from, a.to), i);
            }
            *fan_in.entry(a.to).or_insert(0) += 1;
        }
        for (&to, &n) in &fan_in {
            if n > bounds.max_arc_fan_in {
                diags.push(Diagnostic::new(
                    DiagCode::ArcFanInExceeded,
                    Severity::Warning,
                    format!("sink {to}"),
                    format!(
                        "{n} arcs capture at sink {to} (bound {})",
                        bounds.max_arc_fan_in
                    ),
                ));
            }
        }
        if let Some(cycle) = arc_cycle(&self.arcs) {
            let path = cycle
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(" -> ");
            diags.push(Diagnostic::new(
                DiagCode::ArcCycle,
                Severity::Warning,
                "arcs",
                format!("timing arcs form a cycle: {path}"),
            ));
        }
    }

    /// Applies every safe fix and returns the mutations performed, in
    /// order. After a successful repair the design re-validates without
    /// `Error` findings unless nothing survived pruning (no sinks left) —
    /// [`RawDesign::finish`] reports that case.
    ///
    /// Repair policy (see DESIGN.md §3.6): **clamp** values that are finite
    /// but out of range, **round** off-grid coordinates, **merge** exact
    /// positional duplicates (summing their capacitance — that is what two
    /// coincident pins present electrically), **prune** entities whose
    /// intended value is unrecoverable (non-finite fields, dangling arc
    /// endpoints), and **reindex** sink ids densely. Every action is
    /// reported; nothing is fixed silently.
    pub fn repair(&mut self, bounds: &Bounds) -> Vec<Repair> {
        let mut log = Vec::new();
        self.repair_freq(bounds, &mut log);
        self.repair_die(bounds, &mut log);
        self.repair_sinks(bounds, &mut log);
        let remap = self.repair_sink_ids(&mut log);
        self.repair_root(&mut log);
        self.repair_arcs(&remap, &mut log);
        log
    }

    fn repair_freq(&mut self, bounds: &Bounds, log: &mut Vec<Repair>) {
        if !self.freq_ghz.is_finite() || self.freq_ghz <= 0.0 {
            log.push(Repair {
                code: DiagCode::NonPositiveFreq,
                entity: "design".into(),
                action: format!("replaced frequency {} GHz with 1 GHz", self.freq_ghz),
            });
            self.freq_ghz = 1.0;
        } else if self.freq_ghz > bounds.max_freq_ghz {
            log.push(Repair {
                code: DiagCode::FreqAboveBound,
                entity: "design".into(),
                action: format!(
                    "clamped frequency {} GHz to {} GHz",
                    self.freq_ghz, bounds.max_freq_ghz
                ),
            });
            self.freq_ghz = bounds.max_freq_ghz;
        }
    }

    fn repair_die(&mut self, bounds: &Bounds, log: &mut Vec<Repair>) {
        let (x0, y0, x1, y1) = self.die;
        let finite = [x0, y0, x1, y1].iter().all(|v| v.is_finite());
        let in_range = finite
            && [x0, y0, x1, y1]
                .iter()
                .all(|v| v.abs() <= bounds.max_coord_nm);
        if in_range && (x1 - x0).abs() >= 1.0 && (y1 - y0).abs() >= 1.0 {
            if x1 < x0 || y1 < y0 {
                self.die = (x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1));
                log.push(Repair {
                    code: DiagCode::DegenerateDie,
                    entity: "die".into(),
                    action: "normalized inverted die corners".into(),
                });
            }
            return;
        }
        // The declared outline is unusable: rebuild it from the finite sink
        // placements (with a 10 % margin) or fall back to a unit die.
        let xs: Vec<f64> = self
            .sinks
            .iter()
            .filter(|s| s.x.is_finite() && s.x.abs() <= bounds.max_coord_nm)
            .map(|s| s.x)
            .collect();
        let ys: Vec<f64> = self
            .sinks
            .iter()
            .filter(|s| s.y.is_finite() && s.y.abs() <= bounds.max_coord_nm)
            .map(|s| s.y)
            .collect();
        let new_die = match (xs.is_empty(), ys.is_empty()) {
            (false, false) => {
                let (lo_x, hi_x) = (xs.iter().fold(f64::MAX, |a, &b| a.min(b)), xs.iter().fold(f64::MIN, |a, &b| a.max(b)));
                let (lo_y, hi_y) = (ys.iter().fold(f64::MAX, |a, &b| a.min(b)), ys.iter().fold(f64::MIN, |a, &b| a.max(b)));
                let mx = ((hi_x - lo_x) * 0.1).max(1_000.0);
                let my = ((hi_y - lo_y) * 0.1).max(1_000.0);
                (lo_x - mx, (lo_y - my).min(0.0), hi_x + mx, hi_y + my)
            }
            _ => (0.0, 0.0, 1_000_000.0, 1_000_000.0),
        };
        log.push(Repair {
            code: DiagCode::DegenerateDie,
            entity: "die".into(),
            action: format!(
                "replaced unusable die ({x0}, {y0})..({x1}, {y1}) with ({}, {})..({}, {})",
                new_die.0, new_die.1, new_die.2, new_die.3
            ),
        });
        self.die = new_die;
    }

    fn repair_sinks(&mut self, bounds: &Bounds, log: &mut Vec<Repair>) {
        let (dx0, dy0, dx1, dy1) = self.die;
        // Prune sinks whose intended value is unrecoverable.
        self.sinks.retain(|s| {
            let coords_ok =
                s.x.is_finite() && s.y.is_finite() && s.x.abs() <= bounds.max_coord_nm && s.y.abs() <= bounds.max_coord_nm;
            if !coords_ok {
                log.push(Repair {
                    code: DiagCode::NonFiniteCoord,
                    entity: format!("sink {}", s.id),
                    action: format!("pruned: unrecoverable location ({}, {})", s.x, s.y),
                });
                return false;
            }
            if !s.cap_ff.is_finite() {
                log.push(Repair {
                    code: DiagCode::NonFiniteCap,
                    entity: format!("sink {}", s.id),
                    action: format!("pruned: unrecoverable capacitance {} fF", s.cap_ff),
                });
                return false;
            }
            true
        });
        for s in &mut self.sinks {
            if s.x.fract() != 0.0 || s.y.fract() != 0.0 {
                log.push(Repair {
                    code: DiagCode::FractionalCoord,
                    entity: format!("sink {}", s.id),
                    action: format!("rounded location ({}, {}) to the nm grid", s.x, s.y),
                });
                s.x = s.x.round();
                s.y = s.y.round();
            }
            let (cx, cy) = (s.x.clamp(dx0, dx1), s.y.clamp(dy0, dy1));
            if (cx, cy) != (s.x, s.y) {
                log.push(Repair {
                    code: DiagCode::CoordOutsideDie,
                    entity: format!("sink {}", s.id),
                    action: format!("clamped location ({}, {}) into the die to ({cx}, {cy})", s.x, s.y),
                });
                (s.x, s.y) = (cx, cy);
            }
            if s.cap_ff <= 0.0 {
                log.push(Repair {
                    code: DiagCode::CapOutOfBounds,
                    entity: format!("sink {}", s.id),
                    action: format!(
                        "clamped capacitance {} fF up to {} fF",
                        s.cap_ff, bounds.min_cap_ff
                    ),
                });
                s.cap_ff = bounds.min_cap_ff;
            } else if s.cap_ff > bounds.max_cap_ff {
                log.push(Repair {
                    code: DiagCode::CapOutOfBounds,
                    entity: format!("sink {}", s.id),
                    action: format!(
                        "clamped capacitance {} fF down to {} fF",
                        s.cap_ff, bounds.max_cap_ff
                    ),
                });
                s.cap_ff = bounds.max_cap_ff;
            }
        }
        // Merge exact positional duplicates (clamping may have created new
        // ones, so this runs after).
        let mut by_pos: HashMap<(i64, i64), usize> = HashMap::new();
        let mut merged_cap: Vec<(usize, f64)> = Vec::new();
        let mut keep = vec![true; self.sinks.len()];
        for (i, s) in self.sinks.iter().enumerate() {
            let p = (s.x as i64, s.y as i64);
            match by_pos.get(&p) {
                Some(&first) => {
                    keep[i] = false;
                    merged_cap.push((first, s.cap_ff));
                    log.push(Repair {
                        code: DiagCode::DuplicateSinkPosition,
                        entity: format!("sink {}", s.id),
                        action: format!(
                            "merged into co-located sink {} (summed {} fF)",
                            self.sinks[first].id, s.cap_ff
                        ),
                    });
                }
                None => {
                    by_pos.insert(p, i);
                }
            }
        }
        for (idx, cap) in merged_cap {
            self.sinks[idx].cap_ff = (self.sinks[idx].cap_ff + cap).min(bounds.max_cap_ff);
        }
        let mut it = keep.iter();
        self.sinks.retain(|_| *it.next().unwrap_or(&true));
    }

    /// Reindexes sink ids densely; returns the old-id → new-id map (first
    /// occurrence wins for duplicated old ids).
    fn repair_sink_ids(&mut self, log: &mut Vec<Repair>) -> HashMap<usize, usize> {
        let mut remap = HashMap::new();
        for (pos, s) in self.sinks.iter_mut().enumerate() {
            remap.entry(s.id).or_insert(pos);
            if s.id != pos {
                log.push(Repair {
                    code: DiagCode::NonDenseSinkIds,
                    entity: format!("sink {}", s.id),
                    action: format!("reindexed id {} to {pos}", s.id),
                });
                s.id = pos;
            }
        }
        remap
    }

    fn repair_root(&mut self, log: &mut Vec<Repair>) {
        let (dx0, dy0, dx1, dy1) = self.die;
        let (x, y) = self.root;
        if !(x.is_finite() && y.is_finite()) {
            let new = (((dx0 + dx1) / 2.0).round(), dy0.round());
            log.push(Repair {
                code: DiagCode::RootOutsideDie,
                entity: "root".into(),
                action: format!("replaced non-finite root ({x}, {y}) with ({}, {})", new.0, new.1),
            });
            self.root = new;
            return;
        }
        let clamped = (x.round().clamp(dx0, dx1), y.round().clamp(dy0, dy1));
        if clamped != (x, y) {
            log.push(Repair {
                code: DiagCode::RootOutsideDie,
                entity: "root".into(),
                action: format!(
                    "clamped root ({x}, {y}) into the die to ({}, {})",
                    clamped.0, clamped.1
                ),
            });
            self.root = clamped;
        }
    }

    fn repair_arcs(&mut self, remap: &HashMap<usize, usize>, log: &mut Vec<Repair>) {
        let n = self.sinks.len();
        let mut kept: Vec<RawArc> = Vec::with_capacity(self.arcs.len());
        let mut by_pair: HashMap<(usize, usize), usize> = HashMap::new();
        for (i, a) in self.arcs.iter().enumerate() {
            let entity = format!("arc {i}");
            let (Some(&from), Some(&to)) = (remap.get(&a.from), remap.get(&a.to)) else {
                log.push(Repair {
                    code: DiagCode::ArcUnknownSink,
                    entity,
                    action: format!("pruned: endpoint {} -> {} no longer exists", a.from, a.to),
                });
                continue;
            };
            if from >= n || to >= n {
                log.push(Repair {
                    code: DiagCode::ArcUnknownSink,
                    entity,
                    action: format!("pruned: endpoint {} -> {} no longer exists", a.from, a.to),
                });
                continue;
            }
            if from == to {
                log.push(Repair {
                    code: DiagCode::ArcSelfLoop,
                    entity,
                    action: format!("pruned: self-loop at sink {from}"),
                });
                continue;
            }
            if !a.setup_ps.is_finite() || !a.hold_ps.is_finite() {
                log.push(Repair {
                    code: DiagCode::ArcWindowInvalid,
                    entity,
                    action: format!(
                        "pruned: unrecoverable window (setup {} ps, hold {} ps)",
                        a.setup_ps, a.hold_ps
                    ),
                });
                continue;
            }
            let mut arc = RawArc {
                from,
                to,
                setup_ps: a.setup_ps,
                hold_ps: a.hold_ps,
            };
            if arc.setup_ps < 0.0 || arc.hold_ps < 0.0 {
                log.push(Repair {
                    code: DiagCode::ArcWindowInvalid,
                    entity: entity.clone(),
                    action: format!(
                        "clamped negative window (setup {} ps, hold {} ps) to zero",
                        arc.setup_ps, arc.hold_ps
                    ),
                });
                arc.setup_ps = arc.setup_ps.max(0.0);
                arc.hold_ps = arc.hold_ps.max(0.0);
            }
            match by_pair.get(&(from, to)) {
                Some(&idx) => {
                    let prev: &mut RawArc = &mut kept[idx];
                    log.push(Repair {
                        code: DiagCode::ArcDuplicate,
                        entity,
                        action: format!(
                            "merged duplicate {from} -> {to} (kept tightest window)"
                        ),
                    });
                    prev.setup_ps = prev.setup_ps.min(arc.setup_ps);
                    prev.hold_ps = prev.hold_ps.min(arc.hold_ps);
                }
                None => {
                    by_pair.insert((from, to), kept.len());
                    kept.push(arc);
                }
            }
        }
        self.arcs = kept;
    }

    /// Converts into a validated [`Design`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] when the raw design still violates an
    /// invariant (this never panics, whatever the field values — callers
    /// that want the full picture should run [`RawDesign::validate`]
    /// first).
    pub fn finish(&self) -> Result<Design, NetlistError> {
        let bounds = Bounds::default();
        let reject = |what: String| Err(NetlistError::new(what));
        let (x0, y0, x1, y1) = self.die;
        for v in [x0, y0, x1, y1, self.root.0, self.root.1] {
            if !v.is_finite() || v.abs() > bounds.max_coord_nm {
                return reject(format!("die/root coordinate {v} unusable"));
            }
        }
        let die = Rect::new(
            Point::new(x0.round() as i64, y0.round() as i64),
            Point::new(x1.round() as i64, y1.round() as i64),
        );
        let root = Point::new(self.root.0.round() as i64, self.root.1.round() as i64);
        let mut sinks = Vec::with_capacity(self.sinks.len());
        for s in &self.sinks {
            for v in [s.x, s.y] {
                if !v.is_finite() || v.abs() > bounds.max_coord_nm {
                    return reject(format!("sink {} coordinate {v} unusable", s.id));
                }
            }
            if !(s.cap_ff.is_finite() && s.cap_ff > 0.0) {
                return reject(format!("sink {} capacitance {} unusable", s.id, s.cap_ff));
            }
            sinks.push(Sink::new(
                SinkId(s.id),
                s.name.clone(),
                Point::new(s.x.round() as i64, s.y.round() as i64),
                s.cap_ff,
            ));
        }
        let n = sinks.len();
        let mut arcs = Vec::with_capacity(self.arcs.len());
        for (i, a) in self.arcs.iter().enumerate() {
            if a.from >= n || a.to >= n || a.from == a.to {
                return reject(format!("arc {i} endpoints {} -> {} unusable", a.from, a.to));
            }
            if !(a.setup_ps.is_finite()
                && a.setup_ps >= 0.0
                && a.hold_ps.is_finite()
                && a.hold_ps >= 0.0)
            {
                return reject(format!("arc {i} window unusable"));
            }
            arcs.push(TimingArc::new(
                SinkId(a.from),
                SinkId(a.to),
                a.setup_ps,
                a.hold_ps,
            ));
        }
        Design::new(self.name.clone(), die, root, self.freq_ghz, sinks)?.with_arcs(arcs)
    }
}

/// Finds one directed cycle in the arc digraph, if any, returning the sink
/// ids along it. Iterative DFS, so adversarially deep graphs cannot blow
/// the stack.
fn arc_cycle(arcs: &[RawArc]) -> Option<Vec<usize>> {
    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    for a in arcs {
        if a.from != a.to {
            adj.entry(a.from).or_default().push(a.to);
        }
    }
    let mut state: HashMap<usize, u8> = HashMap::new(); // 1 = on stack, 2 = done
    let mut order: Vec<usize> = adj.keys().copied().collect();
    order.sort_unstable();
    for &start in &order {
        if state.contains_key(&start) {
            continue;
        }
        // Each stack frame is (node, next-child index).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        state.insert(start, 1);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let children = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *next >= children.len() {
                state.insert(node, 2);
                stack.pop();
                continue;
            }
            let child = children[*next];
            *next += 1;
            match state.get(&child) {
                Some(1) => {
                    // Found a back edge: the cycle is the stack suffix from
                    // `child` onwards, closed by `child` again.
                    let from = stack.iter().position(|&(n, _)| n == child).unwrap_or(0);
                    let mut cycle: Vec<usize> = stack[from..].iter().map(|&(n, _)| n).collect();
                    cycle.push(child);
                    return Some(cycle);
                }
                Some(_) => {}
                None => {
                    state.insert(child, 1);
                    stack.push((child, 0));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_raw() -> RawDesign {
        let mut raw = RawDesign::empty("t", 1.0, (0.0, 0.0, 100_000.0, 100_000.0), (50_000.0, 0.0));
        for i in 0..4 {
            raw.sinks.push(RawSink {
                id: i,
                name: format!("s{i}"),
                x: 10_000.0 * (i as f64 + 1.0),
                y: 20_000.0,
                cap_ff: 10.0,
            });
        }
        raw
    }

    fn has(diags: &[Diagnostic], code: DiagCode) -> bool {
        diags.iter().any(|d| d.code == code)
    }

    /// The diagnostics audit: every code the crate can emit is listed by
    /// [`DiagCode::all`], ids are unique and well-formed (one series
    /// letter + two digits), and each one is documented in the DESIGN.md
    /// diagnostic tables. A new code that skips the paperwork fails here.
    #[test]
    fn every_diagnostic_code_is_unique_and_documented() {
        let all = DiagCode::all();
        let mut ids: Vec<&str> = all.iter().map(|c| c.id()).collect();
        for id in &ids {
            assert_eq!(id.len(), 3, "{id}: ids are one series letter + two digits");
            assert!(
                matches!(id.as_bytes()[0], b'G' | b'T' | b'E' | b'I'),
                "{id}: unknown series letter"
            );
            assert!(id[1..].chars().all(|c| c.is_ascii_digit()), "{id}: malformed id");
        }
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate diagnostic ids");

        // Every code renders a distinct Display string and survives a
        // Diagnostic round trip.
        for code in all {
            let d = Diagnostic::new(*code, Severity::Warning, "audit", "constructible");
            assert!(d.to_string().contains(code.id()), "{code} display must carry its id");
        }

        let design_md = include_str!("../../../DESIGN.md");
        for code in all {
            assert!(
                design_md.contains(&format!("| {} ", code.id())),
                "diagnostic {} is not documented in DESIGN.md",
                code.id()
            );
        }
    }

    #[test]
    fn clean_design_validates_and_finishes() {
        let raw = clean_raw();
        assert!(raw.validate(&Bounds::default()).is_empty());
        let d = raw.finish().unwrap();
        assert_eq!(d.sinks().len(), 4);
        // Round-trips through from_design.
        assert_eq!(RawDesign::from_design(&d), raw);
    }

    #[test]
    fn geometry_diagnostics() {
        let mut raw = clean_raw();
        raw.sinks[0].x = f64::NAN;
        raw.sinks[1].x = 1e15;
        raw.sinks[2].x = 250_000.0; // outside die
        raw.sinks[3].x += 0.5; // fractional
        raw.root = (999_999.0, 999_999.0);
        let diags = raw.validate(&Bounds::default());
        for code in [
            DiagCode::NonFiniteCoord,
            DiagCode::CoordOutOfRange,
            DiagCode::CoordOutsideDie,
            DiagCode::FractionalCoord,
            DiagCode::RootOutsideDie,
        ] {
            assert!(has(&diags, code), "missing {code}: {diags:?}");
        }
        assert!(raw.finish().is_err());
        let repairs = raw.repair(&Bounds::default());
        assert!(!repairs.is_empty());
        let d = raw.finish().unwrap();
        // NaN and out-of-range sinks pruned; out-of-die clamped, fractional
        // rounded.
        assert_eq!(d.sinks().len(), 2);
    }

    #[test]
    fn duplicate_positions_merge_caps() {
        let mut raw = clean_raw();
        raw.sinks[1].x = raw.sinks[0].x;
        raw.sinks[1].y = raw.sinks[0].y;
        let diags = raw.validate(&Bounds::default());
        assert!(has(&diags, DiagCode::DuplicateSinkPosition));
        raw.repair(&Bounds::default());
        let d = raw.finish().unwrap();
        assert_eq!(d.sinks().len(), 3);
        assert_eq!(d.sinks()[0].cap_ff(), 20.0, "caps summed on merge");
    }

    #[test]
    fn topology_diagnostics_and_repair() {
        let mut raw = clean_raw();
        raw.sinks[2].id = 1; // duplicate + non-dense
        raw.arcs.push(RawArc { from: 0, to: 0, setup_ps: 5.0, hold_ps: 5.0 });
        raw.arcs.push(RawArc { from: 0, to: 99, setup_ps: 5.0, hold_ps: 5.0 });
        raw.arcs.push(RawArc { from: 0, to: 1, setup_ps: 9.0, hold_ps: 9.0 });
        raw.arcs.push(RawArc { from: 0, to: 1, setup_ps: 4.0, hold_ps: 12.0 });
        raw.arcs.push(RawArc { from: 1, to: 3, setup_ps: 5.0, hold_ps: 5.0 });
        raw.arcs.push(RawArc { from: 3, to: 0, setup_ps: 5.0, hold_ps: 5.0 });
        let diags = raw.validate(&Bounds::default());
        for code in [
            DiagCode::DuplicateSinkId,
            DiagCode::NonDenseSinkIds,
            DiagCode::ArcSelfLoop,
            DiagCode::ArcUnknownSink,
            DiagCode::ArcDuplicate,
            DiagCode::ArcCycle,
        ] {
            assert!(has(&diags, code), "missing {code}: {diags:?}");
        }
        raw.repair(&Bounds::default());
        let d = raw.finish().unwrap();
        assert_eq!(d.sinks().len(), 4);
        // Self-loop and dangling arcs pruned; duplicates merged tightest.
        assert_eq!(d.arcs().len(), 3);
        let merged = d.arcs().iter().find(|a| a.from.0 == 0 && a.to.0 == 1).unwrap();
        assert_eq!((merged.setup_margin_ps, merged.hold_margin_ps), (4.0, 9.0));
    }

    #[test]
    fn electrical_diagnostics_and_repair() {
        let mut raw = clean_raw();
        raw.sinks[0].cap_ff = f64::INFINITY;
        raw.sinks[1].cap_ff = -3.0;
        raw.sinks[2].cap_ff = 5_000.0;
        raw.freq_ghz = -2.0;
        let diags = raw.validate(&Bounds::default());
        for code in [
            DiagCode::NonFiniteCap,
            DiagCode::CapOutOfBounds,
            DiagCode::NonPositiveFreq,
        ] {
            assert!(has(&diags, code), "missing {code}: {diags:?}");
        }
        raw.repair(&Bounds::default());
        let d = raw.finish().unwrap();
        assert_eq!(d.sinks().len(), 3, "infinite-cap sink pruned");
        assert_eq!(d.freq_ghz(), 1.0);
        assert!(d.sinks().iter().all(|s| s.cap_ff() > 0.0 && s.cap_ff() <= 1_000.0));
    }

    #[test]
    fn fan_in_bound_flagged() {
        let mut raw = clean_raw();
        let bounds = Bounds { max_arc_fan_in: 2, ..Bounds::default() };
        for from in [0, 1, 2] {
            raw.arcs.push(RawArc { from, to: 3, setup_ps: 5.0, hold_ps: 5.0 });
        }
        assert!(has(&raw.validate(&bounds), DiagCode::ArcFanInExceeded));
    }

    #[test]
    fn degenerate_die_rebuilt_from_sinks() {
        let mut raw = clean_raw();
        raw.die = (f64::NAN, 0.0, 0.0, 0.0);
        assert!(has(&raw.validate(&Bounds::default()), DiagCode::DegenerateDie));
        raw.repair(&Bounds::default());
        let d = raw.finish().unwrap();
        for s in d.sinks() {
            assert!(d.die().contains(s.location()));
        }
        assert!(d.die().contains(d.clock_root()));
    }

    #[test]
    fn empty_design_cannot_be_repaired() {
        let mut raw = RawDesign::empty("t", 1.0, (0.0, 0.0, 100.0, 100.0), (0.0, 0.0));
        assert!(has(&raw.validate(&Bounds::default()), DiagCode::NoSinks));
        raw.repair(&Bounds::default());
        assert!(raw.finish().is_err());
    }

    #[test]
    fn cycle_detector_finds_cycles_only_when_present() {
        let arcs = |pairs: &[(usize, usize)]| {
            pairs
                .iter()
                .map(|&(from, to)| RawArc { from, to, setup_ps: 1.0, hold_ps: 1.0 })
                .collect::<Vec<_>>()
        };
        assert!(arc_cycle(&arcs(&[(0, 1), (1, 2), (0, 2)])).is_none());
        let cycle = arc_cycle(&arcs(&[(0, 1), (1, 2), (2, 0)])).unwrap();
        assert!(cycle.len() >= 3);
        // A long chain must not overflow the stack.
        let chain: Vec<(usize, usize)> = (0..100_000).map(|i| (i, i + 1)).collect();
        assert!(arc_cycle(&arcs(&chain)).is_none());
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Error > Severity::Warning);
        let d = Diagnostic::new(DiagCode::NoSinks, Severity::Error, "design", "no sinks");
        assert_eq!(d.to_string(), "error[T01] design: no sinks");
        let r = Repair {
            code: DiagCode::CoordOutsideDie,
            entity: "sink 2".into(),
            action: "clamped".into(),
        };
        assert_eq!(r.to_string(), "repair[G04] sink 2: clamped");
    }
}
