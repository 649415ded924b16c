//! First-order RC thermal model of the socket.
//!
//! The paper's idle-power model keys on the socket thermal diode
//! (§IV-A, Fig. 1): heating under load, exponential cooling when idle,
//! with a time constant of tens of seconds. A single thermal node
//! suffices to reproduce those transients:
//!
//! ```text
//! C_th · dT/dt = P − (T − T_ambient) / R_th
//! ```

use ppep_types::{Kelvin, Seconds, Watts};

/// A single-node RC thermal model.
///
/// ```
/// use ppep_sim::thermal::ThermalModel;
/// use ppep_types::{Seconds, Watts};
///
/// let mut chip = ThermalModel::fx8320();
/// for _ in 0..1_000 {
///     chip.step(Watts::new(100.0), Seconds::new(1.0));
/// }
/// // 100 W × 0.25 K/W above a 300 K ambient.
/// assert!((chip.temperature().as_kelvin() - 325.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Thermal resistance junction-to-ambient, kelvin per watt.
    pub r_th: f64,
    /// Thermal capacitance, joules per kelvin.
    pub c_th: f64,
    /// Ambient temperature.
    pub ambient: Kelvin,
    temperature: Kelvin,
}

impl ThermalModel {
    /// FX-8320-with-stock-cooler-like constants: R ≈ 0.25 K/W and a
    /// ~45 s time constant, giving ~25 K of rise at 100 W — matching
    /// the 300–340 K span of Fig. 1.
    pub fn fx8320() -> Self {
        Self::new(0.25, 180.0, Kelvin::new(300.0))
    }

    /// Builds a model starting at ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics for non-positive resistance or capacitance.
    pub fn new(r_th: f64, c_th: f64, ambient: Kelvin) -> Self {
        assert!(
            r_th > 0.0 && c_th > 0.0,
            "thermal constants must be positive"
        );
        Self {
            r_th,
            c_th,
            ambient,
            temperature: ambient,
        }
    }

    /// Current node temperature.
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// Forces the temperature (e.g. to start an experiment hot).
    pub fn set_temperature(&mut self, t: Kelvin) {
        self.temperature = t;
    }

    /// The steady-state temperature under constant power `p`.
    pub fn steady_state(&self, p: Watts) -> Kelvin {
        Kelvin::new(self.ambient.as_kelvin() + p.as_watts() * self.r_th)
    }

    /// The thermal time constant `R·C`.
    pub fn time_constant(&self) -> Seconds {
        Seconds::new(self.r_th * self.c_th)
    }

    /// Advances the node by `dt` under dissipated power `p`, using the
    /// exact exponential solution of the linear ODE (stable for any
    /// step size).
    pub fn step(&mut self, p: Watts, dt: Seconds) {
        self.step_decayed(p, self.decay(dt));
    }

    /// The factor `exp(−dt / RC)` by which the distance to steady state
    /// shrinks over a step of `dt`. Constant for a fixed step, so a
    /// caller stepping repeatedly can compute it once and use
    /// [`step_decayed`](Self::step_decayed).
    pub(crate) fn decay(&self, dt: Seconds) -> f64 {
        (-dt.as_secs() / self.time_constant().as_secs()).exp()
    }

    /// [`step`](Self::step) with its [`decay`](Self::decay) factor
    /// precomputed.
    pub(crate) fn step_decayed(&mut self, p: Watts, decay: f64) {
        let target = self.steady_state(p).as_kelvin();
        let t = target + (self.temperature.as_kelvin() - target) * decay;
        self.temperature = Kelvin::new(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_steady_state() {
        let mut m = ThermalModel::fx8320();
        let p = Watts::new(100.0);
        for _ in 0..10_000 {
            m.step(p, Seconds::new(0.2));
        }
        let expected = m.steady_state(p).as_kelvin();
        assert!((m.temperature().as_kelvin() - expected).abs() < 0.01);
        assert!((expected - 325.0).abs() < 0.5, "100 W → ~325 K");
    }

    #[test]
    fn cools_exponentially_toward_ambient() {
        let mut m = ThermalModel::fx8320();
        m.set_temperature(Kelvin::new(340.0));
        let tau = m.time_constant().as_secs();
        m.step(Watts::ZERO, Seconds::new(tau));
        // After one time constant, 1/e of the gap remains.
        let gap = m.temperature().as_kelvin() - 300.0;
        assert!((gap - 40.0 / std::f64::consts::E).abs() < 0.1);
    }

    #[test]
    fn heating_is_monotonic_and_bounded() {
        let mut m = ThermalModel::fx8320();
        let p = Watts::new(80.0);
        let mut last = m.temperature().as_kelvin();
        for _ in 0..500 {
            m.step(p, Seconds::new(0.2));
            let t = m.temperature().as_kelvin();
            assert!(t >= last - 1e-12, "heating must be monotonic");
            assert!(t <= m.steady_state(p).as_kelvin() + 1e-9);
            last = t;
        }
    }

    #[test]
    fn exact_solution_is_step_size_invariant() {
        let p = Watts::new(60.0);
        let mut fine = ThermalModel::fx8320();
        let mut coarse = ThermalModel::fx8320();
        for _ in 0..100 {
            fine.step(p, Seconds::new(0.1));
        }
        coarse.step(p, Seconds::new(10.0));
        assert!(
            (fine.temperature().as_kelvin() - coarse.temperature().as_kelvin()).abs() < 1e-9,
            "exponential integrator must not depend on step size"
        );
    }

    #[test]
    #[should_panic(expected = "thermal constants must be positive")]
    fn invalid_constants_rejected() {
        let _ = ThermalModel::new(0.0, 100.0, Kelvin::new(300.0));
    }
}
