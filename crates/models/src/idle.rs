//! The chip idle-power model (Eq. 2, §IV-A).
//!
//! Chip idle power = static leakage + active (not-gated) idle dynamic
//! power from OS housekeeping. Over the chip's normal operating range
//! it is near-linear in temperature, so PPEP fits, per chip:
//!
//! ```text
//! Pidle(V, T) = Widle1(V) · T + Widle0(V)
//! ```
//!
//! with `Widle1` and `Widle0` third-order polynomials of voltage.
//! Training data comes from the Fig. 1 experiment: heat the chip,
//! remove load, record (power, temperature) pairs while it cools at a
//! pinned VF state — repeated at each VF state.

use ppep_regress::polyfit::Polynomial;
use ppep_regress::LinearRegression;
use ppep_types::{Error, Kelvin, Result, Volts, Watts};

/// One observation of the idle chip: pinned voltage, diode
/// temperature, measured chip power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleSample {
    /// Core voltage during the observation.
    pub voltage: Volts,
    /// Diode temperature.
    pub temperature: Kelvin,
    /// Measured (sensor) chip power.
    pub power: Watts,
}

/// The fitted Eq. 2 model.
///
/// ```
/// use ppep_models::idle::{IdlePowerModel, IdleSample};
/// use ppep_types::{Kelvin, Volts, Watts};
///
/// # fn main() -> ppep_types::Result<()> {
/// // Cooling traces at two voltages, exactly P = 0.1·T + 10·V.
/// let mut samples = Vec::new();
/// for &v in &[0.9, 1.3] {
///     for i in 0..5 {
///         let t = 305.0 + 5.0 * i as f64;
///         samples.push(IdleSample {
///             voltage: Volts::new(v),
///             temperature: Kelvin::new(t),
///             power: Watts::new(0.1 * t + 10.0 * v),
///         });
///     }
/// }
/// let model = IdlePowerModel::fit(&samples)?;
/// let est = model.estimate(Volts::new(1.3), Kelvin::new(320.0))?;
/// assert!((est.as_watts() - 45.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IdlePowerModel {
    w1: Polynomial,
    w0: Polynomial,
}

impl IdlePowerModel {
    /// Fits the model from cooling traces at several voltages.
    ///
    /// Per distinct voltage, a line `P = a·T + b` is fit; then
    /// `Widle1(V)` is fit through the `a`s and `Widle0(V)` through the
    /// `b`s as degree-3 polynomials (or the largest degree the number
    /// of distinct voltages supports, per the paper's 4- and 5-state
    /// platforms).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when there are fewer than two
    /// distinct voltages or any voltage has fewer than two samples
    /// (a line needs two points), and [`Error::Numerical`] when the
    /// temperature spread at some voltage is degenerate.
    pub fn fit(samples: &[IdleSample]) -> Result<Self> {
        // Group by voltage (exact match: the ladder is discrete).
        let mut groups: Vec<(f64, Vec<&IdleSample>)> = Vec::new();
        for s in samples {
            let v = s.voltage.as_volts();
            if !v.is_finite() || v <= 0.0 {
                return Err(Error::InvalidInput("voltages must be positive".into()));
            }
            match groups.iter_mut().find(|(gv, _)| (*gv - v).abs() < 1e-9) {
                Some((_, list)) => list.push(s),
                None => groups.push((v, vec![s])),
            }
        }
        if groups.len() < 2 {
            return Err(Error::InvalidInput(format!(
                "idle model needs >= 2 distinct voltages, got {}",
                groups.len()
            )));
        }
        groups.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut volts = Vec::with_capacity(groups.len());
        let mut slopes = Vec::with_capacity(groups.len());
        let mut intercepts = Vec::with_capacity(groups.len());
        for (v, list) in &groups {
            if list.len() < 2 {
                return Err(Error::InvalidInput(format!(
                    "voltage {v} has {} samples; need >= 2 for a line",
                    list.len()
                )));
            }
            let xs: Vec<Vec<f64>> = list
                .iter()
                .map(|s| vec![s.temperature.as_kelvin()])
                .collect();
            let ys: Vec<f64> = list.iter().map(|s| s.power.as_watts()).collect();
            let line = LinearRegression::fit(&xs, &ys, true)?;
            volts.push(*v);
            slopes.push(line.coefficients()[0]);
            intercepts.push(line.intercept());
        }
        // Third-order polynomial in V, capped by the number of states.
        let degree = (volts.len() - 1).min(3);
        let w1 = Polynomial::fit(&volts, &slopes, degree)?;
        let w0 = Polynomial::fit(&volts, &intercepts, degree)?;
        Ok(Self { w1, w0 })
    }

    /// Builds a model from known polynomials (e.g. stored training
    /// results).
    pub fn from_polynomials(w1: Polynomial, w0: Polynomial) -> Self {
        Self { w1, w0 }
    }

    /// Eq. 2: estimated chip idle power at voltage `v`, temperature `t`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] when the projection is NaN/∞
    /// (e.g. a poisoned temperature reading).
    #[inline]
    pub fn estimate(&self, v: Volts, t: Kelvin) -> Result<Watts> {
        Watts::new(self.w1.eval(v.as_volts()) * t.as_kelvin() + self.w0.eval(v.as_volts()))
            .finite("eq2 idle power")
    }

    /// The temperature-slope polynomial `Widle1(V)`.
    pub fn w1(&self) -> &Polynomial {
        &self.w1
    }

    /// The offset polynomial `Widle0(V)`.
    pub fn w0(&self) -> &Polynomial {
        &self.w0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesises exactly-linear idle data: P = (0.1 + 0.05·V)·T + (2 + 3·V³).
    fn linear_truth(v: f64, t: f64) -> f64 {
        (0.1 + 0.05 * v) * t + (2.0 + 3.0 * v * v * v)
    }

    fn training_set() -> Vec<IdleSample> {
        let mut out = Vec::new();
        for &v in &[0.888, 1.008, 1.128, 1.242, 1.320] {
            for i in 0..20 {
                let t = 305.0 + i as f64 * 2.0;
                out.push(IdleSample {
                    voltage: Volts::new(v),
                    temperature: Kelvin::new(t),
                    power: Watts::new(linear_truth(v, t)),
                });
            }
        }
        out
    }

    #[test]
    fn recovers_exactly_linear_ground_truth() {
        let model = IdlePowerModel::fit(&training_set()).unwrap();
        for &v in &[0.888, 1.128, 1.320] {
            for &t in &[300.0, 320.0, 340.0] {
                let est = model
                    .estimate(Volts::new(v), Kelvin::new(t))
                    .unwrap()
                    .as_watts();
                let truth = linear_truth(v, t);
                assert!((est - truth).abs() < 1e-6, "V={v} T={t}: {est} vs {truth}");
            }
        }
    }

    #[test]
    fn interpolates_between_trained_voltages() {
        let model = IdlePowerModel::fit(&training_set()).unwrap();
        // 1.06 V was never trained; cubic interpolation should land
        // close to the (cubic) ground truth.
        let est = model
            .estimate(Volts::new(1.06), Kelvin::new(315.0))
            .unwrap()
            .as_watts();
        let truth = linear_truth(1.06, 315.0);
        assert!((est - truth).abs() / truth < 0.01, "{est} vs {truth}");
    }

    #[test]
    fn handles_four_state_platforms() {
        // Phenom II: only four voltages -> cubic still fits (4 points).
        let samples: Vec<IdleSample> = training_set()
            .into_iter()
            .filter(|s| s.voltage.as_volts() > 0.9)
            .collect();
        let model = IdlePowerModel::fit(&samples).unwrap();
        let est = model
            .estimate(Volts::new(1.242), Kelvin::new(320.0))
            .unwrap()
            .as_watts();
        assert!((est - linear_truth(1.242, 320.0)).abs() < 1e-6);
    }

    #[test]
    fn two_voltages_fall_back_to_linear_poly() {
        let samples: Vec<IdleSample> = training_set()
            .into_iter()
            .filter(|s| {
                let v = s.voltage.as_volts();
                (v - 0.888).abs() < 1e-9 || (v - 1.320).abs() < 1e-9
            })
            .collect();
        let model = IdlePowerModel::fit(&samples).unwrap();
        assert_eq!(model.w1().degree(), 1);
        // Exact at the trained voltages even with a linear V model.
        let est = model
            .estimate(Volts::new(1.320), Kelvin::new(330.0))
            .unwrap()
            .as_watts();
        assert!((est - linear_truth(1.320, 330.0)).abs() < 1e-6);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(IdlePowerModel::fit(&[]).is_err());
        // One voltage only.
        let one_v: Vec<IdleSample> = training_set()
            .into_iter()
            .filter(|s| (s.voltage.as_volts() - 1.320).abs() < 1e-9)
            .collect();
        assert!(IdlePowerModel::fit(&one_v).is_err());
        // A voltage with a single sample.
        let mut few = training_set();
        few.retain(|s| (s.voltage.as_volts() - 0.888).abs() > 1e-9);
        few.push(IdleSample {
            voltage: Volts::new(0.888),
            temperature: Kelvin::new(320.0),
            power: Watts::new(10.0),
        });
        assert!(IdlePowerModel::fit(&few).is_err());
        // Same temperature repeated at a voltage: rank-deficient line.
        let degenerate: Vec<IdleSample> = (0..4)
            .flat_map(|g| {
                let v = 0.9 + 0.1 * g as f64;
                (0..3).map(move |_| IdleSample {
                    voltage: Volts::new(v),
                    temperature: Kelvin::new(320.0),
                    power: Watts::new(10.0),
                })
            })
            .collect();
        assert!(IdlePowerModel::fit(&degenerate).is_err());
    }

    #[test]
    fn idle_power_grows_with_voltage_and_temperature() {
        let model = IdlePowerModel::fit(&training_set()).unwrap();
        let cold = model.estimate(Volts::new(1.1), Kelvin::new(305.0)).unwrap();
        let hot = model.estimate(Volts::new(1.1), Kelvin::new(335.0)).unwrap();
        assert!(hot > cold);
        let low_v = model.estimate(Volts::new(0.9), Kelvin::new(320.0)).unwrap();
        let high_v = model.estimate(Volts::new(1.3), Kelvin::new(320.0)).unwrap();
        assert!(high_v > low_v);
    }

    #[test]
    fn from_polynomials_round_trip() {
        let model = IdlePowerModel::fit(&training_set()).unwrap();
        let rebuilt = IdlePowerModel::from_polynomials(model.w1().clone(), model.w0().clone());
        assert_eq!(model, rebuilt);
    }
}
