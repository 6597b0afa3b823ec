//! Metal-layer interconnect model.

use crate::{Rule, TechError};
use std::fmt;

/// A routing layer with a closed-form parasitic model.
///
/// The model captures the first-order dependence of wire parasitics on the
/// drawn geometry, which is all the NDR trade-off needs:
///
/// * unit resistance `r(kw) = r_min / kw` — sheet resistance over the drawn
///   width `kw · w₀`;
/// * unit capacitance
///   `c(kw, ks) = c_area · kw + c_fringe + c_cpl / ks` — a plate term growing
///   with width, a width-independent fringe term, and a coupling term that
///   falls inversely with the spacing to neighbours (both sides folded in).
///
/// All unit values are *per micrometre of wire length*; resistance in kΩ,
/// capacitance in fF.
///
/// # Examples
///
/// ```
/// use snr_tech::{Layer, Rule};
///
/// let m5 = Layer::new("M5", 0.07, 0.07, 0.00224, 0.056, 0.060, 0.080)?;
/// let r1 = m5.unit_r(Rule::DEFAULT);
/// let r2 = m5.unit_r(Rule::new(2.0, 1.0)?);
/// assert!((r2 - r1 / 2.0).abs() < 1e-12);
/// # Ok::<(), snr_tech::TechError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    name: String,
    width_min_um: f64,
    spacing_min_um: f64,
    r_min_kohm_per_um: f64,
    c_area_ff_per_um: f64,
    c_fringe_ff_per_um: f64,
    c_cpl_min_ff_per_um: f64,
    miller_factor: f64,
}

impl Layer {
    /// Creates a layer model.
    ///
    /// * `width_min_um`, `spacing_min_um` — minimum drawn width/spacing;
    /// * `r_min_kohm_per_um` — unit resistance at minimum width;
    /// * `c_area_ff_per_um` — plate capacitance at minimum width
    ///   (scales with the width multiplier);
    /// * `c_fringe_ff_per_um` — width-independent fringe capacitance
    ///   (both edges);
    /// * `c_cpl_min_ff_per_um` — coupling capacitance to both neighbours at
    ///   minimum spacing (scales as `1 / ks`).
    ///
    /// # Errors
    ///
    /// Returns [`TechError`] if any physical parameter is non-positive or
    /// non-finite (fringe/coupling may be zero, e.g. for a simplified model).
    pub fn new(
        name: impl Into<String>,
        width_min_um: f64,
        spacing_min_um: f64,
        r_min_kohm_per_um: f64,
        c_area_ff_per_um: f64,
        c_fringe_ff_per_um: f64,
        c_cpl_min_ff_per_um: f64,
    ) -> Result<Self, TechError> {
        let strictly_positive = [
            ("width_min_um", width_min_um),
            ("spacing_min_um", spacing_min_um),
            ("r_min_kohm_per_um", r_min_kohm_per_um),
            ("c_area_ff_per_um", c_area_ff_per_um),
        ];
        for (what, v) in strictly_positive {
            if !v.is_finite() || v <= 0.0 {
                return Err(TechError::new(format!("{what} = {v} must be positive")));
            }
        }
        for (what, v) in [
            ("c_fringe_ff_per_um", c_fringe_ff_per_um),
            ("c_cpl_min_ff_per_um", c_cpl_min_ff_per_um),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(TechError::new(format!("{what} = {v} must be >= 0")));
            }
        }
        Ok(Layer {
            name: name.into(),
            width_min_um,
            spacing_min_um,
            r_min_kohm_per_um,
            c_area_ff_per_um,
            c_fringe_ff_per_um,
            c_cpl_min_ff_per_um,
            miller_factor: 1.5,
        })
    }

    /// Returns a copy with a different Miller factor — the amplification
    /// switching neighbours inflict on the *effective* coupling capacitance
    /// of unshielded wires (1.0 = quiet neighbours, 2.0 = worst-case
    /// anti-phase switching; default 1.5).
    ///
    /// # Errors
    ///
    /// Returns [`TechError`] if the factor is outside `[1, 2]`.
    pub fn with_miller_factor(mut self, miller_factor: f64) -> Result<Self, TechError> {
        if !miller_factor.is_finite() || !(1.0..=2.0).contains(&miller_factor) {
            return Err(TechError::new(format!(
                "miller factor {miller_factor} outside [1, 2]"
            )));
        }
        self.miller_factor = miller_factor;
        Ok(self)
    }

    /// The Miller factor applied to unshielded coupling in
    /// [`Layer::unit_c_delay`].
    pub fn miller_factor(&self) -> f64 {
        self.miller_factor
    }

    /// Layer name (e.g. `"M5"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Minimum drawn width in µm.
    pub fn width_min_um(&self) -> f64 {
        self.width_min_um
    }

    /// Minimum spacing in µm.
    pub fn spacing_min_um(&self) -> f64 {
        self.spacing_min_um
    }

    /// Unit resistance in kΩ/µm for a wire routed with `rule`.
    pub fn unit_r(&self, rule: Rule) -> f64 {
        self.r_min_kohm_per_um / rule.width_mult()
    }

    /// Unit *switching* capacitance in fF/µm for a wire routed with `rule`
    /// — the capacitance the clock charges every cycle, i.e. what power
    /// pays for. Shielding does not change it: the coupling term simply
    /// terminates on the quiet shields instead of on neighbours.
    pub fn unit_c(&self, rule: Rule) -> f64 {
        self.c_area_ff_per_um * rule.width_mult()
            + self.c_fringe_ff_per_um
            + self.c_cpl_min_ff_per_um / rule.spacing_mult()
    }

    /// Unit *effective* capacitance in fF/µm for delay and slew: unshielded
    /// coupling is amplified by the layer's Miller factor (neighbours
    /// switch against the clock edge); shielded coupling is not.
    ///
    /// This is what makes shielding a distinct NDR lever: it buys delay
    /// (Miller-free coupling) at *track* cost instead of the capacitance
    /// cost of widening.
    pub fn unit_c_delay(&self, rule: Rule) -> f64 {
        self.c_area_ff_per_um * rule.width_mult()
            + self.c_fringe_ff_per_um
            + self.delay_miller(rule) * self.c_cpl_min_ff_per_um / rule.spacing_mult()
    }

    /// The Miller factor on `rule`'s coupling in the delay view: none on
    /// shielded rules.
    fn delay_miller(&self, rule: Rule) -> f64 {
        if rule.is_shielded() {
            1.0
        } else {
            self.miller_factor
        }
    }

    /// Unit coupling capacitance to *switching aggressors* in fF/µm: the
    /// charge-injection path for crosstalk noise. Shielded rules have none
    /// (their coupling terminates on grounded shields); unshielded rules
    /// expose `c_cpl / ks`.
    ///
    /// This is the quantity a noise budget constrains — and the reason
    /// shields exist at all: spacing only *reduces* aggressor coupling,
    /// shields eliminate it.
    pub fn unit_c_aggressor(&self, rule: Rule) -> f64 {
        if rule.is_shielded() {
            0.0
        } else {
            self.c_cpl_min_ff_per_um / rule.spacing_mult()
        }
    }

    /// Unit RC delay product in ps/µm² for `rule` — the figure of merit for
    /// distributed wire delay (`delay ≈ 0.5 · r · c · L²`), using the
    /// effective (delay) capacitance.
    pub fn unit_rc(&self, rule: Rule) -> f64 {
        self.unit_r(rule) * self.unit_c_delay(rule)
    }

    /// Unit resistance in kΩ/µm for a wire whose drawn width deviates by
    /// `dw_um` (lithography/CMP variation): `R = ρ / (t · (w + Δw))`.
    ///
    /// The deviation is clamped so the remaining width stays at least 20 %
    /// of minimum — below that the wire would be open, which the statistical
    /// model does not represent.
    pub fn unit_r_varied(&self, rule: Rule, dw_um: f64) -> f64 {
        self.varied_width(rule).varied(dw_um).0
    }

    /// Unit switching capacitance in fF/µm under a width deviation of
    /// `dw_um`.
    ///
    /// A wider wire gains area capacitance proportionally and loses spacing
    /// to its neighbours, raising the coupling term (`∝ 1/s`). The effective
    /// spacing is clamped to 20 % of minimum.
    pub fn unit_c_varied(&self, rule: Rule, dw_um: f64) -> f64 {
        self.varied_width_with(rule, 1.0, self.unit_c(rule))
            .varied(dw_um)
            .1
    }

    /// Unit *effective* (delay) capacitance under a width deviation — the
    /// varied counterpart of [`Layer::unit_c_delay`].
    pub fn unit_c_delay_varied(&self, rule: Rule, dw_um: f64) -> f64 {
        self.varied_width(rule).varied(dw_um).1
    }

    /// `rule`'s varied-width parasitics in the delay view, for scaling its
    /// nominal unit R and effective C under many deviations (see
    /// [`VariedWidth`]).
    pub fn varied_width(&self, rule: Rule) -> VariedWidth {
        self.varied_width_with(rule, self.delay_miller(rule), self.unit_c_delay(rule))
    }

    /// `miller` amplifies the coupling term; `unit_c` is the nominal unit C
    /// of the same view.
    fn varied_width_with(&self, rule: Rule, miller: f64, unit_c: f64) -> VariedWidth {
        VariedWidth {
            w_um: rule.width_mult() * self.width_min_um,
            w_floor_um: 0.2 * self.width_min_um,
            s_um: rule.spacing_mult() * self.spacing_min_um,
            s_floor_um: 0.2 * self.spacing_min_um,
            r_width: self.r_min_kohm_per_um * self.width_min_um,
            width_min_um: self.width_min_um,
            spacing_min_um: self.spacing_min_um,
            c_area: self.c_area_ff_per_um,
            c_fringe: self.c_fringe_ff_per_um,
            c_cpl: miller * self.c_cpl_min_ff_per_um,
            unit_r: self.unit_r(rule),
            unit_c,
        }
    }

    /// Relative resistance variability `σ(R)/R` for a width perturbation of
    /// `sigma_w_um` µm (1-σ): narrower wires suffer proportionally more.
    ///
    /// To first order `R ∝ 1/w`, so `σ(R)/R = σ(w) / w` with
    /// `w = kw · w₀`.
    pub fn r_sensitivity(&self, rule: Rule, sigma_w_um: f64) -> f64 {
        sigma_w_um / (rule.width_mult() * self.width_min_um)
    }
}

/// One rule's parasitics under width deviations, with every per-rule
/// constant hoisted out of the per-deviation work.
///
/// One per-lane expression holds the whole varied-width model: the scalar
/// [`Layer::unit_r_varied`], [`Layer::unit_c_varied`] and
/// [`Layer::unit_c_delay_varied`], [`scales`](Self::scales) and its slice
/// form [`scales_into`](Self::scales_into) all evaluate it, so every path
/// gives the same bits. Its two floors are compare-selects, which
/// equal `f64::max` against a positive floor for every input (a NaN
/// deviation selects the floor) and keep a loop over many deviations
/// vectorizable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariedWidth {
    /// Drawn width `kw · w₀` and its floor `0.2 · w₀`, µm.
    w_um: f64,
    w_floor_um: f64,
    /// Drawn spacing `ks · s₀` and its floor `0.2 · s₀`, µm.
    s_um: f64,
    s_floor_um: f64,
    /// `r_min · w₀`, so that `R = r_width / w_eff`.
    r_width: f64,
    width_min_um: f64,
    spacing_min_um: f64,
    c_area: f64,
    c_fringe: f64,
    /// The coupling capacitance at minimum spacing times the Miller factor.
    c_cpl: f64,
    /// Nominal unit R and C, the divisors of [`Self::scales`].
    unit_r: f64,
    unit_c: f64,
}

impl VariedWidth {
    /// Unit R (kΩ/µm) and unit C (fF/µm) under a width deviation of
    /// `dw_um`.
    #[inline(always)]
    fn varied(&self, dw_um: f64) -> (f64, f64) {
        let w_eff = floor(self.w_um + dw_um, self.w_floor_um);
        let s_eff = floor(self.s_um - dw_um, self.s_floor_um);
        let r = self.r_width / w_eff;
        let c = self.c_area * (w_eff / self.width_min_um)
            + self.c_fringe
            + self.c_cpl * (self.spacing_min_um / s_eff);
        (r, c)
    }

    /// The factors a width deviation of `dw_um` scales the nominal unit R
    /// and unit C by: `unit_r_varied / unit_r` and, in the delay view,
    /// `unit_c_delay_varied / unit_c_delay`.
    #[inline(always)]
    pub fn scales(&self, dw_um: f64) -> (f64, f64) {
        let (r, c) = self.varied(dw_um);
        (r / self.unit_r, c / self.unit_c)
    }

    /// [`scales`](Self::scales) of every deviation in `dw_um`, written to
    /// the same positions of `r_scale` and `c_scale`: one edge's lanes of a
    /// Monte-Carlo chunk.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn scales_into(&self, dw_um: &[f64], r_scale: &mut [f64], c_scale: &mut [f64]) {
        assert!(
            r_scale.len() == dw_um.len() && c_scale.len() == dw_um.len(),
            "scale rows must match the deviations' length"
        );
        for ((r, c), &dw) in r_scale.iter_mut().zip(c_scale.iter_mut()).zip(dw_um) {
            (*r, *c) = self.scales(dw);
        }
    }
}

/// `x` floored at `lo`, as a compare-select: equal to `x.max(lo)` for a
/// non-NaN `lo`, NaN `x` included.
#[inline(always)]
fn floor(x: f64, lo: f64) -> f64 {
    if x > lo {
        x
    } else {
        lo
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (w0={}µm, r={:.4}kΩ/µm, c={:.4}fF/µm @1W1S)",
            self.name,
            self.width_min_um,
            self.unit_r(Rule::DEFAULT),
            self.unit_c(Rule::DEFAULT),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_layer() -> Layer {
        Layer::new("M5", 0.07, 0.07, 0.00224, 0.056, 0.060, 0.080).unwrap()
    }

    #[test]
    fn resistance_inverse_in_width() {
        let l = test_layer();
        let r1 = l.unit_r(Rule::DEFAULT);
        let r2 = l.unit_r(Rule::new(2.0, 1.0).unwrap());
        let r3 = l.unit_r(Rule::new(4.0, 1.0).unwrap());
        assert!((r2 - r1 / 2.0).abs() < 1e-15);
        assert!((r3 - r1 / 4.0).abs() < 1e-15);
    }

    #[test]
    fn capacitance_monotone_in_width_and_spacing() {
        let l = test_layer();
        let c_def = l.unit_c(Rule::DEFAULT);
        let c_2w = l.unit_c(Rule::new(2.0, 1.0).unwrap());
        let c_2s = l.unit_c(Rule::new(1.0, 2.0).unwrap());
        assert!(c_2w > c_def, "wider => more area cap");
        assert!(c_2s < c_def, "more spacing => less coupling cap");
    }

    #[test]
    fn spacing_removes_only_coupling() {
        let l = test_layer();
        let c_1s = l.unit_c(Rule::DEFAULT);
        let c_8s = l.unit_c(Rule::new(1.0, 8.0).unwrap());
        // At 8x spacing, 7/8 of the coupling term is gone.
        assert!((c_1s - c_8s - 0.080 * 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn rc_product_tradeoff_2w2s_faster_than_default() {
        // 2W2S must strictly reduce the distributed RC figure of merit —
        // that is *why* clock NDRs exist.
        let l = test_layer();
        assert!(l.unit_rc(Rule::new(2.0, 2.0).unwrap()) < l.unit_rc(Rule::DEFAULT));
    }

    #[test]
    fn shielding_removes_miller_from_delay_cap_only() {
        let l = test_layer();
        let bare = Rule::DEFAULT;
        let shielded = Rule::new_shielded(1.0, 1.0).unwrap();
        // Switching (power) capacitance identical.
        assert!((l.unit_c(bare) - l.unit_c(shielded)).abs() < 1e-12);
        // Effective (delay) capacitance drops by (miller-1) x coupling.
        let expect = (l.miller_factor() - 1.0) * 0.080;
        assert!((l.unit_c_delay(bare) - l.unit_c_delay(shielded) - expect).abs() < 1e-12);
        assert!(l.unit_c_delay(bare) > l.unit_c(bare));
        assert!((l.unit_c_delay(shielded) - l.unit_c(shielded)).abs() < 1e-12);
    }

    #[test]
    fn aggressor_coupling_zero_only_when_shielded() {
        let l = test_layer();
        assert_eq!(l.unit_c_aggressor(Rule::new_shielded(1.0, 1.0).unwrap()), 0.0);
        assert!((l.unit_c_aggressor(Rule::DEFAULT) - 0.080).abs() < 1e-12);
        assert!(
            (l.unit_c_aggressor(Rule::new(1.0, 2.0).unwrap()) - 0.040).abs() < 1e-12,
            "spacing halves but does not eliminate aggressor coupling"
        );
    }

    #[test]
    fn miller_factor_builder() {
        let l = test_layer().with_miller_factor(2.0).unwrap();
        assert_eq!(l.miller_factor(), 2.0);
        assert!(test_layer().with_miller_factor(0.5).is_err());
        assert!(test_layer().with_miller_factor(3.0).is_err());
    }

    #[test]
    fn sensitivity_shrinks_with_width() {
        let l = test_layer();
        let s1 = l.r_sensitivity(Rule::DEFAULT, 0.0035); // 5% of w0
        let s2 = l.r_sensitivity(Rule::new(2.0, 1.0).unwrap(), 0.0035);
        assert!((s1 - 0.05).abs() < 1e-12);
        assert!((s2 - 0.025).abs() < 1e-12);
    }

    #[test]
    fn varied_parasitics_reduce_to_nominal_at_zero() {
        let l = test_layer();
        for rule in [Rule::DEFAULT, Rule::new(2.0, 2.0).unwrap()] {
            assert!((l.unit_r_varied(rule, 0.0) - l.unit_r(rule)).abs() < 1e-12);
            assert!((l.unit_c_varied(rule, 0.0) - l.unit_c(rule)).abs() < 1e-12);
        }
    }

    #[test]
    fn width_deviation_moves_r_and_c_oppositely() {
        let l = test_layer();
        let dw = 0.01; // wire drawn 10 nm wide
        let r_wide = l.unit_r_varied(Rule::DEFAULT, dw);
        let c_wide = l.unit_c_varied(Rule::DEFAULT, dw);
        assert!(r_wide < l.unit_r(Rule::DEFAULT));
        assert!(c_wide > l.unit_c(Rule::DEFAULT));
        let r_narrow = l.unit_r_varied(Rule::DEFAULT, -dw);
        assert!(r_narrow > l.unit_r(Rule::DEFAULT));
    }

    #[test]
    fn relative_r_variation_smaller_on_wide_rules() {
        // The motivation for clock NDRs: the same Δw perturbs a 2W wire's
        // resistance half as much, relatively.
        let l = test_layer();
        let dw = -0.007; // -10% of min width
        let rel = |rule: Rule| (l.unit_r_varied(rule, dw) - l.unit_r(rule)) / l.unit_r(rule);
        assert!(rel(Rule::DEFAULT) > 1.9 * rel(Rule::new(2.0, 1.0).unwrap()));
    }

    #[test]
    fn extreme_deviation_clamped() {
        let l = test_layer();
        let r = l.unit_r_varied(Rule::DEFAULT, -1.0); // would invert width
        assert!(r.is_finite() && r > 0.0);
        let c = l.unit_c_varied(Rule::DEFAULT, 1.0); // would invert spacing
        assert!(c.is_finite() && c > 0.0);
    }

    /// The former `f64::max` formulas of the varied-width model, kept as
    /// the reference the shared expression must equal bit for bit.
    fn former_unit_r_varied(l: &Layer, rule: Rule, dw_um: f64) -> f64 {
        let w = rule.width_mult() * l.width_min_um;
        let w_eff = (w + dw_um).max(0.2 * l.width_min_um);
        l.r_min_kohm_per_um * l.width_min_um / w_eff
    }

    fn former_unit_c_varied_with_miller(l: &Layer, rule: Rule, dw_um: f64, miller: f64) -> f64 {
        let w = rule.width_mult() * l.width_min_um;
        let w_eff = (w + dw_um).max(0.2 * l.width_min_um);
        let s = rule.spacing_mult() * l.spacing_min_um;
        let s_eff = (s - dw_um).max(0.2 * l.spacing_min_um);
        l.c_area_ff_per_um * (w_eff / l.width_min_um)
            + l.c_fringe_ff_per_um
            + miller * l.c_cpl_min_ff_per_um * (l.spacing_min_um / s_eff)
    }

    fn former_unit_c_delay_varied(l: &Layer, rule: Rule, dw_um: f64) -> f64 {
        let miller = if rule.is_shielded() {
            1.0
        } else {
            l.miller_factor
        };
        former_unit_c_varied_with_miller(l, rule, dw_um, miller)
    }

    #[test]
    fn shared_expression_matches_the_former_formulas_bit_for_bit() {
        use crate::{RuleSet, Technology};
        use std::cmp::Ordering;
        // Every layer of both presets, at the default and three other
        // Miller factors, under every rule of the standard and the
        // shielded menus.
        let mut layers = Vec::new();
        for tech in [Technology::n45(), Technology::n32()] {
            for layer in tech.layers() {
                for miller in [None, Some(1.0), Some(1.23), Some(2.0)] {
                    layers.push(match miller {
                        None => layer.clone(),
                        Some(m) => layer.clone().with_miller_factor(m).unwrap(),
                    });
                }
            }
        }
        let rules: Vec<Rule> = [RuleSet::standard(), RuleSet::with_shielding()]
            .iter()
            .flat_map(|set| set.iter().map(|(_, r)| r).collect::<Vec<_>>())
            .collect();
        assert!(rules.iter().any(|r| r.is_shielded()) && rules.iter().any(|r| !r.is_shielded()));

        // Random deviations of a few σ, deviations that hit the width
        // floor or the spacing floor (or land exactly on one), and the
        // non-finite inputs the floors also absorb.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut uniform = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut random: Vec<f64> = (0..400).map(|_| (uniform() - 0.5) * 0.05).collect();
        random.extend([
            0.0,
            -0.0,
            -1.0,
            1.0,
            -0.5,
            0.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        random.push(f64::NAN);

        let (mut w_floored, mut s_floored) = (0, 0);
        for l in &layers {
            for &rule in &rules {
                let w = rule.width_mult() * l.width_min_um;
                let s = rule.spacing_mult() * l.spacing_min_um;
                let mut dws = random.clone();
                // Exactly on each floor, and just past it.
                dws.extend([0.2 * l.width_min_um - w, 0.2 * l.width_min_um - w - 1e-9]);
                dws.extend([
                    s - 0.2 * l.spacing_min_um,
                    s + 1e-9 - 0.2 * l.spacing_min_um,
                ]);
                let vw = l.varied_width(rule);
                let (unit_r, unit_c) = (l.unit_r(rule), l.unit_c_delay(rule));
                let mut r_row = vec![0.0; dws.len()];
                let mut c_row = vec![0.0; dws.len()];
                vw.scales_into(&dws, &mut r_row, &mut c_row);
                for (i, &dw) in dws.iter().enumerate() {
                    let floored = |x: f64, lo: f64| x.partial_cmp(&lo) != Some(Ordering::Greater);
                    w_floored += usize::from(floored(w + dw, 0.2 * l.width_min_um));
                    s_floored += usize::from(floored(s - dw, 0.2 * l.spacing_min_um));
                    let r_ref = former_unit_r_varied(l, rule, dw);
                    let c_ref = former_unit_c_varied_with_miller(l, rule, dw, 1.0);
                    let cd_ref = former_unit_c_delay_varied(l, rule, dw);
                    let what = format!("{} {rule} miller {} dw {dw}", l.name, l.miller_factor);
                    assert_eq!(
                        l.unit_r_varied(rule, dw).to_bits(),
                        r_ref.to_bits(),
                        "{what}"
                    );
                    assert_eq!(
                        l.unit_c_varied(rule, dw).to_bits(),
                        c_ref.to_bits(),
                        "{what}"
                    );
                    assert_eq!(
                        l.unit_c_delay_varied(rule, dw).to_bits(),
                        cd_ref.to_bits(),
                        "{what}"
                    );
                    let want = ((r_ref / unit_r).to_bits(), (cd_ref / unit_c).to_bits());
                    let (r, c) = vw.scales(dw);
                    assert_eq!((r.to_bits(), c.to_bits()), want, "{what}");
                    assert_eq!(
                        (r_row[i].to_bits(), c_row[i].to_bits()),
                        want,
                        "{what} (slice)"
                    );
                }
            }
        }
        assert!(
            w_floored > 0 && s_floored > 0,
            "both floors must be exercised"
        );
    }

    #[test]
    #[should_panic(expected = "scale rows must match")]
    fn slice_form_rejects_short_rows() {
        let l = test_layer();
        l.varied_width(Rule::DEFAULT)
            .scales_into(&[0.0; 4], &mut [0.0; 3], &mut [0.0; 4]);
    }

    #[test]
    fn validation_rejects_nonphysical() {
        assert!(Layer::new("M1", 0.0, 0.07, 0.002, 0.05, 0.06, 0.08).is_err());
        assert!(Layer::new("M1", 0.07, 0.07, -1.0, 0.05, 0.06, 0.08).is_err());
        assert!(Layer::new("M1", 0.07, 0.07, 0.002, 0.05, -0.01, 0.08).is_err());
        assert!(Layer::new("M1", 0.07, f64::INFINITY, 0.002, 0.05, 0.06, 0.08).is_err());
        // Zero fringe/coupling is a legal simplification.
        assert!(Layer::new("M1", 0.07, 0.07, 0.002, 0.05, 0.0, 0.0).is_ok());
    }

    #[test]
    fn display_mentions_name() {
        assert!(test_layer().to_string().contains("M5"));
    }
}
