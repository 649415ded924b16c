//! The nine-event dynamic power model (Eq. 3, §IV-B).
//!
//! Dynamic power is regressed on the per-second counts of the nine
//! power-hungry events E1–E9 of Table I. The weights are trained
//! **once, at VF5**; at any other state `n` the seven core-event
//! weights are scaled by `(Vn / V5)^α` while the two NB-proxy weights
//! (E8 L2 misses, E9 dispatch stalls) stay fixed, because the NB rail
//! does not scale with the cores:
//!
//! ```text
//! Pdyn = Σcores ( Σ i=1..7 (Vn/V5)^α · Wdyn(i) · Ei  +  Σ i=8..9 Wdyn(i) · Ei )
//! ```
//!
//! The exponent `α` is a process constant derived from measured power
//! at different voltages (here: from a steady NB-silent calibration
//! workload, mirroring the paper's methodology).

use ppep_pmc::EventCounts;
use ppep_regress::LinearRegression;
use ppep_types::{Error, Gigahertz, Result, Seconds, Volts, Watts};

/// Number of regressors in the dynamic model (E1–E9).
pub const DYN_EVENT_COUNT: usize = 9;

/// Index of the first NB-proxy event (E8) within the nine-vector:
/// weights from here on are *not* voltage-scaled.
pub const NB_PROXY_START: usize = 7;

/// One training observation: chip-summed per-second event rates at the
/// reference state and the corresponding measured dynamic power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynSample {
    /// Per-second chip-wide counts of E1–E9.
    pub rates: [f64; DYN_EVENT_COUNT],
    /// Measured dynamic power (chip power minus modelled idle power).
    pub power: Watts,
}

/// The fitted Eq. 3 model.
///
/// ```
/// use ppep_models::DynamicPowerModel;
/// use ppep_types::Volts;
///
/// # fn main() -> ppep_types::Result<()> {
/// // 1 nJ per retired µop, α = 2, referenced to VF5's 1.32 V.
/// let mut weights = [0.0; 9];
/// weights[0] = 1.0e-9;
/// let model = DynamicPowerModel::from_parts(weights, 2.0, Volts::new(1.32));
/// let mut rates = [0.0; 9];
/// rates[0] = 5.0e9; // 5 G µops/s
/// assert!((model.estimate_core(&rates, Volts::new(1.32))?.as_watts() - 5.0).abs() < 1e-9);
/// // At VF1's 0.888 V the same activity costs (0.888/1.32)² as much.
/// let low = model.estimate_core(&rates, Volts::new(0.888))?.as_watts();
/// assert!((low - 5.0 * (0.888_f64 / 1.32).powi(2)).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicPowerModel {
    weights: [f64; DYN_EVENT_COUNT],
    alpha: f64,
    reference_voltage: Volts,
}

impl DynamicPowerModel {
    /// Fits weights by non-negative ridge regression (weights are
    /// switched capacitances: physically ≥ 0) on samples gathered at
    /// `reference_voltage` (the paper trains at VF5).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for empty/degenerate training
    /// data or a non-positive `alpha`.
    pub fn fit(
        samples: &[DynSample],
        alpha: f64,
        reference_voltage: Volts,
        ridge_lambda: f64,
    ) -> Result<Self> {
        if samples.is_empty() {
            return Err(Error::InvalidInput(
                "dynamic model needs training samples".into(),
            ));
        }
        if !(alpha > 0.0 && alpha.is_finite()) {
            return Err(Error::InvalidInput(format!(
                "alpha must be positive, got {alpha}"
            )));
        }
        // Standardise each regressor by its mean magnitude so the
        // ridge penalty is expressed in "contribution to power" units
        // rather than raw event rates (which span five orders of
        // magnitude between µops and L2 misses). Without this, ridge
        // either does nothing or crushes the rare-but-expensive events.
        let mut scale = [0.0_f64; DYN_EVENT_COUNT];
        for s in samples {
            for (acc, r) in scale.iter_mut().zip(&s.rates) {
                *acc += r.abs();
            }
        }
        for s in scale.iter_mut() {
            *s /= samples.len() as f64;
            if *s <= 0.0 {
                *s = 1.0; // an event that never fired: column of zeros
            }
        }
        let xs: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| s.rates.iter().zip(&scale).map(|(r, sc)| r / sc).collect())
            .collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.power.as_watts()).collect();
        let fit = LinearRegression::fit_nonnegative(&xs, &ys, false, ridge_lambda)?;
        let mut weights = [0.0; DYN_EVENT_COUNT];
        for ((w, c), sc) in weights.iter_mut().zip(fit.coefficients()).zip(&scale) {
            *w = c / sc; // undo the standardisation: watts per event/s
        }
        Ok(Self {
            weights,
            alpha,
            reference_voltage,
        })
    }

    /// Builds a model from known weights.
    pub fn from_parts(
        weights: [f64; DYN_EVENT_COUNT],
        alpha: f64,
        reference_voltage: Volts,
    ) -> Self {
        Self {
            weights,
            alpha,
            reference_voltage,
        }
    }

    /// The Eq. 3 voltage-scaling factor `(v/Vref)^α` applied to the
    /// core-event weights at rail voltage `v`.
    pub fn voltage_scale(&self, v: Volts) -> f64 {
        (v / self.reference_voltage).powf(self.alpha)
    }

    /// Eq. 3 inner sum: dynamic power of one core whose E1–E9
    /// per-second rates are `rates` and whose rail sits at `v`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] when the projection is NaN/∞
    /// (e.g. rates poisoned by a wrapped counter).
    pub fn estimate_core(&self, rates: &[f64; DYN_EVENT_COUNT], v: Volts) -> Result<Watts> {
        let scale = (v / self.reference_voltage).powf(self.alpha);
        let mut w = 0.0;
        for (i, (weight, rate)) in self.weights.iter().zip(rates).enumerate() {
            let s = if i < NB_PROXY_START { scale } else { 1.0 };
            w += s * weight * rate;
        }
        Watts::new(w).finite("eq3 core dynamic power")
    }

    /// Convenience: dynamic power of one core from interval counts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] when the projection is NaN/∞.
    pub fn estimate_core_counts(
        &self,
        counts: &EventCounts,
        v: Volts,
        dt: Seconds,
    ) -> Result<Watts> {
        let rates = counts.to_rates(dt).power_model_vector();
        self.estimate_core(&rates, v)
    }

    /// Splits one core's dynamic power into its core-side part
    /// (voltage-scaled E1–E7 terms) and its NB-attributed part
    /// (the unscaled E8–E9 terms) — the separation §V-C2 relies on to
    /// explore NB DVFS.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] when either part is NaN/∞.
    pub fn estimate_core_split(
        &self,
        rates: &[f64; DYN_EVENT_COUNT],
        v: Volts,
    ) -> Result<(Watts, Watts)> {
        let scale = (v / self.reference_voltage).powf(self.alpha);
        let mut core = 0.0;
        let mut nb = 0.0;
        for (i, (weight, rate)) in self.weights.iter().zip(rates).enumerate() {
            if i < NB_PROXY_START {
                core += scale * weight * rate;
            } else {
                nb += weight * rate;
            }
        }
        Ok((
            Watts::new(core).finite("eq3 core-side dynamic power")?,
            Watts::new(nb).finite("eq3 NB-side dynamic power")?,
        ))
    }

    /// [`DynamicPowerModel::estimate_core_split`] with the voltage
    /// scaling already folded into the weights — the batch kernel's
    /// form, fed from a [`crate::soa::SoaCoeffs`] row.
    ///
    /// `scaled_core` must be `scale · weights[0..7]` and `nb` the raw
    /// `weights[7..9]`. Because the reference path evaluates
    /// `scale * weight * rate` as `(scale * weight) * rate`, this
    /// produces bit-identical sums (and the identical
    /// [`Error::NonFinite`] messages, in the identical order).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] when either part is NaN/∞, and
    /// [`Error::InvalidInput`] when `scaled_core` is not the seven
    /// core-event weights.
    #[inline]
    pub fn estimate_core_split_prescaled(
        &self,
        rates: &[f64; DYN_EVENT_COUNT],
        scaled_core: &[f64],
        nb_weights: &[f64; DYN_EVENT_COUNT - NB_PROXY_START],
    ) -> Result<(Watts, Watts)> {
        if scaled_core.len() != NB_PROXY_START {
            return Err(Error::InvalidInput(format!(
                "{} pre-scaled weights for {NB_PROXY_START} core events",
                scaled_core.len()
            )));
        }
        let mut core = 0.0;
        for (sw, rate) in scaled_core.iter().zip(rates) {
            core += sw * rate;
        }
        let mut nb = 0.0;
        for (weight, rate) in nb_weights.iter().zip(rates.iter().skip(NB_PROXY_START)) {
            nb += weight * rate;
        }
        Ok((
            Watts::new(core).finite("eq3 core-side dynamic power")?,
            Watts::new(nb).finite("eq3 NB-side dynamic power")?,
        ))
    }

    /// Eq. 3 outer sum: chip dynamic power over per-core rates, each
    /// core at its own voltage (per-CU rails in the Fig. 7 study; all
    /// equal on stock hardware).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when lengths mismatch.
    pub fn estimate_chip(
        &self,
        per_core_rates: &[[f64; DYN_EVENT_COUNT]],
        voltages: &[Volts],
    ) -> Result<Watts> {
        if per_core_rates.len() != voltages.len() {
            return Err(Error::InvalidInput(format!(
                "{} cores of rates but {} voltages",
                per_core_rates.len(),
                voltages.len()
            )));
        }
        let mut total = 0.0;
        for (r, &v) in per_core_rates.iter().zip(voltages) {
            total += self.estimate_core(r, v)?.as_watts();
        }
        Watts::new(total).finite("eq3 chip dynamic power")
    }

    /// The fitted weights, in E1–E9 order (watts per event/second).
    pub fn weights(&self) -> &[f64; DYN_EVENT_COUNT] {
        &self.weights
    }

    /// The voltage-scaling exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The reference (training) voltage.
    pub fn reference_voltage(&self) -> Volts {
        self.reference_voltage
    }

    /// Number of regressors (always nine; exists for API symmetry).
    pub fn coefficient_count(&self) -> usize {
        DYN_EVENT_COUNT
    }
}

/// Derives the voltage exponent α from calibration measurements of a
/// *steady, NB-silent* workload at several VF states.
///
/// For such a workload, per-second event counts scale with frequency,
/// so dynamic power follows `P ≈ k · f · V^α`; regressing
/// `log(P/f)` on `log(V)` recovers α.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for fewer than two points or
/// non-positive measurements.
pub fn estimate_alpha(points: &[(Volts, Gigahertz, Watts)]) -> Result<f64> {
    if points.len() < 2 {
        return Err(Error::InvalidInput(
            "alpha needs >= 2 calibration points".into(),
        ));
    }
    let mut xs = Vec::with_capacity(points.len());
    let mut ys = Vec::with_capacity(points.len());
    for (v, f, p) in points {
        if v.as_volts() <= 0.0 || f.as_ghz() <= 0.0 || p.as_watts() <= 0.0 {
            return Err(Error::InvalidInput(
                "alpha calibration needs positive voltage/frequency/power".into(),
            ));
        }
        xs.push(vec![v.as_volts().ln()]);
        ys.push((p.as_watts() / f.as_ghz()).ln());
    }
    let fit = LinearRegression::fit(&xs, &ys, true)?;
    let alpha = fit.coefficients()[0];
    if !(0.5..=4.0).contains(&alpha) {
        return Err(Error::Numerical(format!(
            "implausible alpha {alpha}; calibration data looks wrong"
        )));
    }
    Ok(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    const V5: Volts = Volts::new(1.320);

    /// Ground truth: P = 1.0·E1 + 0.5·E5 + 2.0·E8 (nJ-scale weights).
    fn truth_power(rates: &[f64; 9]) -> f64 {
        1.0e-9 * rates[0] + 0.5e-9 * rates[4] + 2.0e-9 * rates[7]
    }

    fn training_samples() -> Vec<DynSample> {
        let mut out = Vec::new();
        for i in 0..60 {
            let x = i as f64;
            let rates = [
                1.0e9 + 3.0e7 * x,
                2.0e8 + 1.0e7 * (x * 1.3).sin().abs() * 1.0e1,
                1.5e8 + 2.0e6 * x,
                4.0e8 + 5.0e6 * ((x * 0.7).cos() + 1.0) * 1.0e1,
                3.0e7 + 1.0e6 * x,
                1.0e8 + 4.0e6 * (x * 0.3).sin().abs() * 1.0e1,
                5.0e6 + 1.0e5 * x,
                1.0e7 + 8.0e5 * ((x * 0.9).sin() + 1.0) * 1.0e1,
                2.0e8 + 6.0e6 * x,
            ];
            out.push(DynSample {
                rates,
                power: Watts::new(truth_power(&rates)),
            });
        }
        out
    }

    #[test]
    fn recovers_linear_ground_truth() {
        let model = DynamicPowerModel::fit(&training_samples(), 2.0, V5, 1e-6).unwrap();
        for s in training_samples().iter().take(5) {
            let est = model.estimate_core(&s.rates, V5).unwrap().as_watts();
            let rel = (est - s.power.as_watts()).abs() / s.power.as_watts();
            assert!(rel < 0.02, "estimate off by {rel}");
        }
        assert_eq!(model.coefficient_count(), 9);
        assert!(
            model.weights().iter().all(|w| *w >= 0.0),
            "weights non-negative"
        );
    }

    #[test]
    fn voltage_scaling_applies_only_to_core_events() {
        let mut weights = [0.0; 9];
        weights[0] = 1.0e-9; // core event E1
        weights[8] = 1.0e-9; // NB proxy E9
        let model = DynamicPowerModel::from_parts(weights, 2.0, V5);
        let mut rates = [0.0; 9];
        rates[0] = 1.0e9;
        rates[8] = 1.0e9;
        let half_v = Volts::new(1.320 / 2.0);
        let p = model.estimate_core(&rates, half_v).unwrap().as_watts();
        // E1 contributes 1·(0.5)² = 0.25 W; E9 contributes 1 W.
        assert!((p - 1.25).abs() < 1e-9, "got {p}");
        // At reference voltage both contribute fully.
        let p_ref = model.estimate_core(&rates, V5).unwrap().as_watts();
        assert!((p_ref - 2.0).abs() < 1e-9);
    }

    #[test]
    fn split_partitions_the_estimate() {
        let model = DynamicPowerModel::fit(&training_samples(), 2.0, V5, 1e-6).unwrap();
        let rates = training_samples()[3].rates;
        for v in [V5, Volts::new(1.008)] {
            let total = model.estimate_core(&rates, v).unwrap().as_watts();
            let (core, nb) = model.estimate_core_split(&rates, v).unwrap();
            assert!((core.as_watts() + nb.as_watts() - total).abs() < 1e-9);
        }
        // Only the core part shrinks with voltage.
        let (core_hi, nb_hi) = model.estimate_core_split(&rates, V5).unwrap();
        let (core_lo, nb_lo) = model
            .estimate_core_split(&rates, Volts::new(0.888))
            .unwrap();
        assert!(core_lo < core_hi);
        assert_eq!(nb_lo, nb_hi);
    }

    #[test]
    fn chip_estimate_sums_cores_at_their_own_voltages() {
        let mut weights = [0.0; 9];
        weights[0] = 1.0e-9;
        let model = DynamicPowerModel::from_parts(weights, 2.0, V5);
        let mut rates = [0.0; 9];
        rates[0] = 1.0e9;
        let p = model
            .estimate_chip(&[rates, rates], &[V5, Volts::new(0.66)])
            .unwrap()
            .as_watts();
        assert!((p - 1.25).abs() < 1e-9);
        assert!(model.estimate_chip(&[rates], &[V5, V5]).is_err());
    }

    #[test]
    fn counts_convenience_matches_rates_path() {
        use ppep_pmc::EventId;
        let model = DynamicPowerModel::fit(&training_samples(), 2.0, V5, 1e-6).unwrap();
        let mut counts = EventCounts::zero();
        counts.set(EventId::RetiredUops, 2.0e8); // over 0.2 s -> 1e9/s
        let dt = Seconds::new(0.2);
        let via_counts = model.estimate_core_counts(&counts, V5, dt).unwrap();
        let mut rates = [0.0; 9];
        rates[0] = 1.0e9;
        let via_rates = model.estimate_core(&rates, V5).unwrap();
        assert!((via_counts.as_watts() - via_rates.as_watts()).abs() < 1e-9);
    }

    #[test]
    fn fit_validation() {
        assert!(DynamicPowerModel::fit(&[], 2.0, V5, 0.0).is_err());
        let s = training_samples();
        assert!(DynamicPowerModel::fit(&s, 0.0, V5, 0.0).is_err());
        assert!(DynamicPowerModel::fit(&s, f64::NAN, V5, 0.0).is_err());
    }

    #[test]
    fn alpha_recovered_from_synthetic_calibration() {
        // P = 3 · f · V^2.1
        let points: Vec<(Volts, Gigahertz, Watts)> = [
            (0.888, 1.4),
            (1.008, 1.7),
            (1.128, 2.3),
            (1.242, 2.9),
            (1.320, 3.5),
        ]
        .iter()
        .map(|&(v, f)| {
            (
                Volts::new(v),
                Gigahertz::new(f),
                Watts::new(3.0 * f * v.powf(2.1)),
            )
        })
        .collect();
        let alpha = estimate_alpha(&points).unwrap();
        assert!((alpha - 2.1).abs() < 1e-9, "alpha {alpha}");
    }

    #[test]
    fn alpha_validation() {
        assert!(estimate_alpha(&[]).is_err());
        assert!(estimate_alpha(&[(V5, Gigahertz::new(3.5), Watts::new(10.0))]).is_err());
        assert!(estimate_alpha(&[
            (V5, Gigahertz::new(3.5), Watts::new(0.0)),
            (Volts::new(1.0), Gigahertz::new(2.0), Watts::new(5.0)),
        ])
        .is_err());
        // Power *independent* of voltage -> alpha ~ 0 -> implausible.
        let flat: Vec<_> = [(0.9, 1.4), (1.1, 2.3), (1.32, 3.5)]
            .iter()
            .map(|&(v, f)| (Volts::new(v), Gigahertz::new(f), Watts::new(2.0 * f)))
            .collect();
        assert!(estimate_alpha(&flat).is_err());
    }

    #[test]
    fn prediction_error_grows_away_from_reference() {
        // If the true per-event exponents differ (2.1 core vs the
        // model's single 2.0), the error grows with voltage distance —
        // the Fig. 3 trend.
        let mut weights = [0.0; 9];
        weights[0] = 1.0e-9;
        let model = DynamicPowerModel::from_parts(weights, 2.0, V5);
        let mut rates = [0.0; 9];
        rates[0] = 1.0e9;
        let truth = |v: f64| 1.0 * (v / 1.320_f64).powf(2.15);
        let mut last_err = 0.0;
        for v in [1.242, 1.128, 1.008, 0.888] {
            let est = model
                .estimate_core(&rates, Volts::new(v))
                .unwrap()
                .as_watts();
            let err = (est - truth(v)).abs() / truth(v);
            assert!(err >= last_err, "error should grow toward VF1");
            last_err = err;
        }
    }
}
