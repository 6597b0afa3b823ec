//! Unit conventions and conversion helpers.
//!
//! The workspace uses a coherent system in which the products that matter
//! come out in natural units without conversion factors:
//!
//! * `kΩ · fF = ps` (RC products are delays),
//! * `fF · V² = fJ` (switched capacitance is energy),
//! * `fJ · GHz = µW` (energy per cycle at clock rate is power).
//!
//! Geometry is stored in integer nanometres (`snr_geom::Point`); electrical
//! models work in micrometres. The helpers here perform that conversion so
//! that magic constants never appear at call sites.

/// Nanometres per micrometre.
pub const NM_PER_UM: f64 = 1_000.0;

/// Converts a length in integer nanometres to micrometres.
///
/// ```
/// assert_eq!(snr_tech::units::nm_to_um(2_500), 2.5);
/// ```
pub fn nm_to_um(nm: i64) -> f64 {
    nm as f64 / NM_PER_UM
}

/// Converts a length in micrometres to the nearest integer nanometre.
///
/// ```
/// assert_eq!(snr_tech::units::um_to_nm(2.5), 2_500);
/// ```
pub fn um_to_nm(um: f64) -> i64 {
    (um * NM_PER_UM).round() as i64
}

/// Dynamic switching power in µW for a capacitance switched once per cycle.
///
/// `P = α · C · V² · f` with capacitance in fF, voltage in volts and
/// frequency in GHz. The clock network has activity `α = 1` (one full
/// charge/discharge per cycle) — callers model gated portions by scaling
/// `activity` down.
///
/// ```
/// // 1 fF switched at 1 V, 1 GHz dissipates 1 µW.
/// let p = snr_tech::units::switching_power_uw(1.0, 1.0, 1.0, 1.0);
/// assert!((p - 1.0).abs() < 1e-12);
/// ```
pub fn switching_power_uw(cap_ff: f64, vdd_v: f64, freq_ghz: f64, activity: f64) -> f64 {
    activity * cap_ff * vdd_v * vdd_v * freq_ghz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nm_um_roundtrip() {
        for nm in [0i64, 1, 70, 999, 1_000, 123_456_789] {
            assert_eq!(um_to_nm(nm_to_um(nm)), nm);
        }
    }

    #[test]
    fn switching_power_scales_linearly() {
        let base = switching_power_uw(100.0, 1.0, 2.0, 1.0);
        assert!((switching_power_uw(200.0, 1.0, 2.0, 1.0) - 2.0 * base).abs() < 1e-12);
        assert!((switching_power_uw(100.0, 1.0, 4.0, 1.0) - 2.0 * base).abs() < 1e-12);
        assert!((switching_power_uw(100.0, 1.0, 2.0, 0.5) - 0.5 * base).abs() < 1e-12);
    }

    #[test]
    fn switching_power_quadratic_in_vdd() {
        let p1 = switching_power_uw(100.0, 1.0, 1.0, 1.0);
        let p2 = switching_power_uw(100.0, 2.0, 1.0, 1.0);
        assert!((p2 - 4.0 * p1).abs() < 1e-12);
    }
}
