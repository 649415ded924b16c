//! The generative ("ground truth") power model.
//!
//! PPEP *fits* a linear-in-temperature idle model with cubic-in-voltage
//! coefficients (Eq. 2) and a single-α voltage-scaled linear dynamic
//! model (Eq. 3). For validation errors to arise the way they do on
//! silicon, the generator must be a *superset* of those forms:
//!
//! * leakage is exponential in both voltage and temperature (the paper
//!   notes the linear-in-T fit is an approximation that works over the
//!   normal operating range);
//! * each event class carries its own voltage exponent `β_i` spread
//!   around 2, while the fitted model assumes one shared `α`;
//! * dynamic power has a small temperature coefficient the fitted
//!   model omits entirely.
//!
//! All constants are calibrated so chip-level magnitudes resemble the
//! FX-8320: ~35 W idle (PG off, VF5), ~95–115 W fully loaded.

use ppep_pmc::EventCounts;
use ppep_types::vf::NbVfState;
use ppep_types::{Kelvin, Seconds, VfPoint, Volts, Watts};

/// Reference voltage at which per-event energies are specified (the
/// FX-8320's VF5 voltage).
pub const REFERENCE_VOLTAGE: Volts = Volts::new(1.320);

/// Reference temperature for the leakage and dynamic temperature terms.
pub const REFERENCE_TEMPERATURE: Kelvin = Kelvin::new(320.0);

/// Per-event dynamic energy parameters: energy per event at the
/// reference voltage, and the voltage exponent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventEnergy {
    /// Energy per event at [`REFERENCE_VOLTAGE`], in nanojoules.
    pub nanojoules: f64,
    /// Voltage exponent `β`: energy scales as `(V / Vref)^β`.
    pub beta: f64,
}

impl EventEnergy {
    /// Energy in joules for `count` events at voltage `v`, with the
    /// voltage scale evaluated per call: the per-event formula that
    /// [`PowerPhysics::core_dynamic`] must reproduce bit for bit.
    #[cfg(test)]
    pub(crate) fn energy(&self, count: f64, v: Volts) -> f64 {
        self.nanojoules * 1e-9 * count * (v / REFERENCE_VOLTAGE).powf(self.beta)
    }
}

/// The voltage-dependent power terms of one VF point. They depend only
/// on the point and the physics, so a simulator computes them once per
/// VF state instead of once per event, core and sub-tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfPowerTerms {
    /// Per-event voltage scale `(V / Vref)^β_i`, E1–E9 order.
    pub voltage_scales: [f64; 9],
    /// CU leakage voltage factor `exp(leak_volt_coeff · (V − Vref))`.
    pub leak_volt_factor: f64,
    /// CU active-idle power at this point.
    pub active_idle: Watts,
}

/// The complete generative power model for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPhysics {
    /// Per-core dynamic energy for the eight core-private event
    /// classes (E1–E8 order) plus dispatch stalls (E9).
    pub event_energy: [EventEnergy; 9],
    /// NB energy per L2 miss (L3/DRAM traffic) at the stock NB point,
    /// in nanojoules.
    pub nb_miss_nanojoules: f64,
    /// CU leakage at reference voltage/temperature, watts per CU.
    pub cu_leak_ref: f64,
    /// Leakage voltage sensitivity: `exp(leak_volt_coeff · (V − Vref))`.
    pub leak_volt_coeff: f64,
    /// Leakage temperature sensitivity: `exp(leak_temp_coeff · (T − Tref))`.
    pub leak_temp_coeff: f64,
    /// CU active-idle coefficient: watts per (V² · GHz) of housekeeping
    /// clocking while idle but not gated.
    pub cu_active_idle_coeff: f64,
    /// NB leakage at the stock NB voltage and reference temperature.
    pub nb_leak_ref: f64,
    /// NB active-idle power at the stock NB point, watts.
    pub nb_active_idle: f64,
    /// Always-on base power (I/O, PLLs) that never gates, watts.
    pub base_power: f64,
    /// Temperature coefficient of dynamic power (fractional per kelvin).
    pub dyn_temp_coeff: f64,
    /// Residual fraction of CU idle power that survives power gating.
    pub pg_residual: f64,
    /// Fractional drop of NB idle power at [`NbVfState::Low`]
    /// (the Fig. 11 study assumes 40%).
    pub nb_low_idle_drop: f64,
    /// Fractional drop of NB dynamic energy at [`NbVfState::Low`]
    /// (the Fig. 11 study assumes 36%).
    pub nb_low_dyn_drop: f64,
}

impl PowerPhysics {
    /// Calibrated FX-8320-class constants (see module docs).
    pub fn fx8320() -> Self {
        Self {
            event_energy: [
                EventEnergy {
                    nanojoules: 2.30,
                    beta: 2.00,
                }, // E1 retired µops
                EventEnergy {
                    nanojoules: 2.60,
                    beta: 2.30,
                }, // E2 FPU ops
                EventEnergy {
                    nanojoules: 0.75,
                    beta: 1.80,
                }, // E3 I-cache fetches
                EventEnergy {
                    nanojoules: 1.60,
                    beta: 2.00,
                }, // E4 D-cache accesses
                EventEnergy {
                    nanojoules: 3.30,
                    beta: 2.20,
                }, // E5 L2 requests
                EventEnergy {
                    nanojoules: 0.50,
                    beta: 1.95,
                }, // E6 branches
                EventEnergy {
                    nanojoules: 12.0,
                    beta: 2.15,
                }, // E7 mispredicts
                EventEnergy {
                    nanojoules: 8.00,
                    beta: 2.00,
                }, // E8 L2 misses (core side)
                EventEnergy {
                    nanojoules: 0.12,
                    beta: 2.00,
                }, // E9 stall cycles (clock/idle logic)
            ],
            nb_miss_nanojoules: 260.0,
            cu_leak_ref: 3.6,
            leak_volt_coeff: 3.2,
            leak_temp_coeff: 0.013,
            cu_active_idle_coeff: 0.50,
            nb_leak_ref: 2.5,
            nb_active_idle: 1.4,
            base_power: 1.2,
            dyn_temp_coeff: 0.0022,
            pg_residual: 0.03,
            nb_low_idle_drop: 0.40,
            nb_low_dyn_drop: 0.36,
        }
    }

    /// Constants for the six-core Phenom™ II X6 1090T (125 W TDP,
    /// older 45 nm process: higher leakage temperature sensitivity,
    /// larger per-event energies, no power gating).
    pub fn phenom_ii_x6() -> Self {
        Self {
            event_energy: [
                EventEnergy {
                    nanojoules: 1.30,
                    beta: 2.00,
                },
                EventEnergy {
                    nanojoules: 2.10,
                    beta: 2.10,
                },
                EventEnergy {
                    nanojoules: 0.70,
                    beta: 1.90,
                },
                EventEnergy {
                    nanojoules: 1.05,
                    beta: 2.00,
                },
                EventEnergy {
                    nanojoules: 3.00,
                    beta: 2.05,
                },
                EventEnergy {
                    nanojoules: 0.45,
                    beta: 1.95,
                },
                EventEnergy {
                    nanojoules: 11.0,
                    beta: 2.05,
                },
                EventEnergy {
                    nanojoules: 7.00,
                    beta: 2.00,
                },
                EventEnergy {
                    nanojoules: 0.10,
                    beta: 2.00,
                },
            ],
            nb_miss_nanojoules: 260.0,
            cu_leak_ref: 3.2, // per single-core "CU"
            leak_volt_coeff: 2.8,
            leak_temp_coeff: 0.015,
            cu_active_idle_coeff: 0.55,
            nb_leak_ref: 1.5,
            nb_active_idle: 1.0,
            base_power: 2.0,
            dyn_temp_coeff: 0.0010,
            pg_residual: 1.0, // no gating: residual never applies
            nb_low_idle_drop: 0.40,
            nb_low_dyn_drop: 0.36,
        }
    }

    /// The voltage-dependent terms of operating point `vf`.
    pub fn vf_terms(&self, vf: VfPoint) -> VfPowerTerms {
        VfPowerTerms {
            voltage_scales: self
                .event_energy
                .map(|e| (vf.voltage / REFERENCE_VOLTAGE).powf(e.beta)),
            leak_volt_factor: (self.leak_volt_coeff
                * (vf.voltage.as_volts() - REFERENCE_VOLTAGE.as_volts()))
            .exp(),
            active_idle: self.cu_active_idle(vf),
        }
    }

    /// Leakage temperature factor `exp(leak_temp_coeff · (T − Tref))`,
    /// shared by every CU and the NB at chip temperature `t`.
    pub fn leak_temp_factor(&self, t: Kelvin) -> f64 {
        (self.leak_temp_coeff * (t.as_kelvin() - REFERENCE_TEMPERATURE.as_kelvin())).exp()
    }

    /// CU leakage power (not gated) from its voltage factor
    /// ([`VfPowerTerms::leak_volt_factor`]) and the chip's
    /// [`leak_temp_factor`](Self::leak_temp_factor).
    pub fn cu_leakage(&self, leak_volt_factor: f64, leak_temp_factor: f64) -> Watts {
        Watts::new(self.cu_leak_ref * leak_volt_factor * leak_temp_factor)
    }

    /// CU active-idle power (housekeeping clocking) at operating point
    /// `vf` while idle but not gated.
    pub fn cu_active_idle(&self, vf: VfPoint) -> Watts {
        Watts::new(
            self.cu_active_idle_coeff * vf.voltage.as_volts().powi(2) * vf.frequency.as_ghz(),
        )
    }

    /// Total idle power of one CU (leakage + active idle), not gated,
    /// at the VF point `terms` describes and leakage temperature
    /// factor `leak_temp_factor`.
    pub fn cu_idle(&self, terms: &VfPowerTerms, leak_temp_factor: f64) -> Watts {
        self.cu_leakage(terms.leak_volt_factor, leak_temp_factor) + terms.active_idle
    }

    /// NB idle power (leakage + active idle) at NB state `nb` and
    /// leakage temperature factor `leak_temp_factor`, not gated.
    pub fn nb_idle(&self, nb: NbVfState, leak_temp_factor: f64) -> Watts {
        let stock = self.nb_leak_ref * leak_temp_factor + self.nb_active_idle;
        let scale = match nb {
            NbVfState::High => 1.0,
            NbVfState::Low => 1.0 - self.nb_low_idle_drop,
        };
        Watts::new(stock * scale)
    }

    /// Dynamic power of one core over `dt` given its event counts, the
    /// voltage scales of its CU's VF point
    /// ([`VfPowerTerms::voltage_scales`]), and chip temperature.
    ///
    /// Counts are the nine E1–E9 totals for the period; the result is
    /// average power over the period.
    pub fn core_dynamic(
        &self,
        counts: &EventCounts,
        voltage_scales: &[f64; 9],
        t: Kelvin,
        dt: Seconds,
    ) -> Watts {
        let vector = counts.power_model_vector();
        let mut joules = 0.0;
        for ((energy, count), scale) in self.event_energy.iter().zip(vector).zip(voltage_scales) {
            joules += energy.nanojoules * 1e-9 * count * scale;
        }
        let temp_factor =
            1.0 + self.dyn_temp_coeff * (t.as_kelvin() - REFERENCE_TEMPERATURE.as_kelvin());
        Watts::new(joules * temp_factor / dt.as_secs())
    }

    /// NB dynamic power over `dt` from the chip-wide L2 miss count.
    pub fn nb_dynamic(&self, total_l2_misses: f64, nb: NbVfState, dt: Seconds) -> Watts {
        let scale = match nb {
            NbVfState::High => 1.0,
            NbVfState::Low => 1.0 - self.nb_low_dyn_drop,
        };
        Watts::new(self.nb_miss_nanojoules * 1e-9 * total_l2_misses * scale / dt.as_secs())
    }
}

impl Default for PowerPhysics {
    fn default() -> Self {
        Self::fx8320()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_pmc::events::EventId;
    use ppep_types::{Gigahertz, VfTable};
    use proptest::prelude::*;

    fn vf5() -> VfPoint {
        VfTable::fx8320().point(VfTable::fx8320().highest())
    }

    fn vf1() -> VfPoint {
        VfTable::fx8320().point(VfTable::fx8320().lowest())
    }

    /// A point at voltage `v`; only the voltage matters to leakage and
    /// dynamic energy.
    fn at(v: f64) -> VfPoint {
        VfPoint::new(Volts::new(v), Gigahertz::new(1.0))
    }

    fn cu_idle(p: &PowerPhysics, vf: VfPoint, t: Kelvin) -> Watts {
        p.cu_idle(&p.vf_terms(vf), p.leak_temp_factor(t))
    }

    fn nb_idle(p: &PowerPhysics, nb: NbVfState, t: Kelvin) -> Watts {
        p.nb_idle(nb, p.leak_temp_factor(t))
    }

    fn leakage(p: &PowerPhysics, v: f64, t: Kelvin) -> Watts {
        p.cu_leakage(p.vf_terms(at(v)).leak_volt_factor, p.leak_temp_factor(t))
    }

    fn core_dynamic(p: &PowerPhysics, c: &EventCounts, v: f64, t: Kelvin, dt: Seconds) -> Watts {
        p.core_dynamic(c, &p.vf_terms(at(v)).voltage_scales, t, dt)
    }

    #[test]
    fn chip_idle_magnitude_is_fx8320_like() {
        let p = PowerPhysics::fx8320();
        let t = Kelvin::new(315.0);
        let idle = 4.0 * cu_idle(&p, vf5(), t).as_watts()
            + nb_idle(&p, NbVfState::High, t).as_watts()
            + p.base_power;
        assert!((25.0..=45.0).contains(&idle), "chip idle at VF5 = {idle} W");
    }

    #[test]
    fn leakage_monotonic_in_voltage_and_temperature() {
        let p = PowerPhysics::fx8320();
        let t = Kelvin::new(320.0);
        assert!(leakage(&p, 1.32, t) > leakage(&p, 0.888, t));
        assert!(leakage(&p, 1.1, Kelvin::new(340.0)) > leakage(&p, 1.1, Kelvin::new(305.0)));
    }

    #[test]
    fn leakage_near_linear_over_operating_range() {
        // The paper's Eq. 2 fits a line in T; verify the generator is
        // close to linear over 300-340 K (within a few percent of a
        // secant-line interpolation).
        let p = PowerPhysics::fx8320();
        let lo = leakage(&p, 1.32, Kelvin::new(300.0)).as_watts();
        let hi = leakage(&p, 1.32, Kelvin::new(340.0)).as_watts();
        let mid_true = leakage(&p, 1.32, Kelvin::new(320.0)).as_watts();
        let mid_linear = (lo + hi) / 2.0;
        let deviation = (mid_true - mid_linear).abs() / mid_true;
        assert!(deviation < 0.05, "leakage deviates {deviation} from linear");
        assert!(deviation > 0.0005, "generator must not be exactly linear");
    }

    #[test]
    fn vf1_idle_is_much_cheaper_than_vf5() {
        let p = PowerPhysics::fx8320();
        let t = Kelvin::new(310.0);
        let hi = cu_idle(&p, vf5(), t).as_watts();
        let lo = cu_idle(&p, vf1(), t).as_watts();
        assert!(lo < 0.5 * hi, "VF1 CU idle {lo} vs VF5 {hi}");
    }

    #[test]
    fn core_dynamic_magnitude_for_busy_core() {
        // A CPU-bound core at VF5: ~3.5e9 inst/s with typical rates.
        let p = PowerPhysics::fx8320();
        let dt = Seconds::new(0.2);
        let inst = 3.5e9 * 0.2;
        let mut c = EventCounts::zero();
        c.set(EventId::RetiredUops, 1.2 * inst);
        c.set(EventId::FpuPipeAssignment, 0.3 * inst);
        c.set(EventId::InstructionCacheFetches, 0.2 * inst);
        c.set(EventId::DataCacheAccesses, 0.45 * inst);
        c.set(EventId::RequestsToL2, 0.03 * inst);
        c.set(EventId::RetiredBranches, 0.15 * inst);
        c.set(EventId::RetiredMispredictedBranches, 0.005 * inst);
        c.set(EventId::L2CacheMisses, 0.001 * inst);
        c.set(EventId::DispatchStalls, 0.3 * inst);
        let w = core_dynamic(&p, &c, 1.32, Kelvin::new(325.0), dt);
        assert!(
            (8.0..=20.0).contains(&w.as_watts()),
            "busy core dynamic = {} W",
            w.as_watts()
        );
    }

    #[test]
    fn dynamic_scales_roughly_quadratically_with_voltage() {
        let p = PowerPhysics::fx8320();
        let dt = Seconds::new(0.2);
        let mut c = EventCounts::zero();
        c.set(EventId::RetiredUops, 1e9);
        let hi = core_dynamic(&p, &c, 1.32, REFERENCE_TEMPERATURE, dt);
        let lo = core_dynamic(&p, &c, 0.888, REFERENCE_TEMPERATURE, dt);
        let ratio = hi / lo;
        let v_ratio: f64 = 1.32 / 0.888;
        assert!((ratio - v_ratio.powf(2.0)).abs() / ratio < 0.05);
    }

    #[test]
    fn dynamic_has_small_temperature_dependence() {
        let p = PowerPhysics::fx8320();
        let dt = Seconds::new(0.2);
        let mut c = EventCounts::zero();
        c.set(EventId::RetiredUops, 1e9);
        let cold = core_dynamic(&p, &c, 1.32, Kelvin::new(305.0), dt);
        let hot = core_dynamic(&p, &c, 1.32, Kelvin::new(340.0), dt);
        let rel = (hot - cold) / cold;
        assert!(rel > 0.0 && rel < 0.08, "temperature effect {rel}");
    }

    #[test]
    fn nb_low_state_saves_what_the_study_assumes() {
        let p = PowerPhysics::fx8320();
        let t = Kelvin::new(320.0);
        let idle_hi = nb_idle(&p, NbVfState::High, t).as_watts();
        let idle_lo = nb_idle(&p, NbVfState::Low, t).as_watts();
        assert!((idle_lo / idle_hi - 0.6).abs() < 1e-9, "idle drops 40%");
        let dt = Seconds::new(0.2);
        let dyn_hi = p.nb_dynamic(1e7, NbVfState::High, dt).as_watts();
        let dyn_lo = p.nb_dynamic(1e7, NbVfState::Low, dt).as_watts();
        assert!((dyn_lo / dyn_hi - 0.64).abs() < 1e-9, "dynamic drops 36%");
    }

    #[test]
    fn active_idle_scales_with_v_squared_f() {
        let p = PowerPhysics::fx8320();
        let a = p.cu_active_idle(VfPoint::new(Volts::new(1.0), Gigahertz::new(2.0)));
        let b = p.cu_active_idle(VfPoint::new(Volts::new(2.0), Gigahertz::new(2.0)));
        assert!((b / a - 4.0).abs() < 1e-9);
        let c = p.cu_active_idle(VfPoint::new(Volts::new(1.0), Gigahertz::new(4.0)));
        assert!((c / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn phenom_preset_differs_but_is_plausible() {
        let p = PowerPhysics::phenom_ii_x6();
        let t = Kelvin::new(315.0);
        let table = VfTable::phenom_ii_x6();
        let top = table.point(table.highest());
        let idle = 6.0 * cu_idle(&p, top, t).as_watts()
            + nb_idle(&p, NbVfState::High, t).as_watts()
            + p.base_power;
        assert!((25.0..=60.0).contains(&idle), "Phenom idle = {idle} W");
    }

    /// The per-call formulas the factored terms replaced, verbatim:
    /// every `powf` and `exp` evaluated at its point of use.
    mod oracle {
        use super::super::*;

        pub fn core_dynamic(
            p: &PowerPhysics,
            counts: &EventCounts,
            v: Volts,
            t: Kelvin,
            dt: Seconds,
        ) -> Watts {
            let vector = counts.power_model_vector();
            let mut joules = 0.0;
            for (energy, count) in p.event_energy.iter().zip(vector) {
                joules += energy.energy(count, v);
            }
            let temp_factor =
                1.0 + p.dyn_temp_coeff * (t.as_kelvin() - REFERENCE_TEMPERATURE.as_kelvin());
            Watts::new(joules * temp_factor / dt.as_secs())
        }

        pub fn cu_idle(p: &PowerPhysics, vf: VfPoint, t: Kelvin) -> Watts {
            let v = vf.voltage;
            let vfac = (p.leak_volt_coeff * (v.as_volts() - REFERENCE_VOLTAGE.as_volts())).exp();
            let tf =
                (p.leak_temp_coeff * (t.as_kelvin() - REFERENCE_TEMPERATURE.as_kelvin())).exp();
            Watts::new(p.cu_leak_ref * vfac * tf)
                + Watts::new(p.cu_active_idle_coeff * v.as_volts().powi(2) * vf.frequency.as_ghz())
        }

        pub fn nb_idle(p: &PowerPhysics, nb: NbVfState, t: Kelvin) -> Watts {
            let tf =
                (p.leak_temp_coeff * (t.as_kelvin() - REFERENCE_TEMPERATURE.as_kelvin())).exp();
            let stock = p.nb_leak_ref * tf + p.nb_active_idle;
            let scale = match nb {
                NbVfState::High => 1.0,
                NbVfState::Low => 1.0 - p.nb_low_idle_drop,
            };
            Watts::new(stock * scale)
        }
    }

    /// One event count: zero, a subnormal, 1e12, or an ordinary value.
    fn count(kind: u8, u: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => f64::from_bits(1 + (u * 4.0e15) as u64),
            2 => 1e12,
            _ => u * 1e9,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table-driven dynamic power and the factored idle terms
        /// equal the per-call formulas bit for bit, at every VF point
        /// of every preset.
        #[test]
        fn factored_terms_match_the_per_call_oracle(
            kinds in prop::collection::vec(0u8..4, 9),
            draws in prop::collection::vec(0.0f64..1.0, 9),
            kelvin in 290.0f64..=380.0,
        ) {
            let mut values = [0.0; ppep_pmc::events::EVENT_COUNT];
            for (slot, (k, u)) in values.iter_mut().zip(kinds.iter().zip(&draws)) {
                *slot = count(*k, *u);
            }
            let counts = EventCounts::from_array(values);
            let t = Kelvin::new(kelvin);
            let dt = ppep_types::time::POWER_SAMPLE_PERIOD;
            for config in [
                crate::SimConfig::fx8320(0),
                crate::SimConfig::fx8320_boost(0),
                crate::SimConfig::phenom_ii_x6(0),
            ] {
                let p = &config.physics;
                let temp_factor = p.leak_temp_factor(t);
                for (_, vf) in config.topology.vf_table().iter() {
                    let terms = p.vf_terms(vf);
                    let fast = p.core_dynamic(&counts, &terms.voltage_scales, t, dt);
                    let slow = oracle::core_dynamic(p, &counts, vf.voltage, t, dt);
                    prop_assert_eq!(
                        fast.as_watts().to_bits(),
                        slow.as_watts().to_bits()
                    );
                    let fast = p.cu_idle(&terms, temp_factor);
                    let slow = oracle::cu_idle(p, vf, t);
                    prop_assert_eq!(
                        fast.as_watts().to_bits(),
                        slow.as_watts().to_bits()
                    );
                }
                for nb in [NbVfState::High, NbVfState::Low] {
                    let fast = p.nb_idle(nb, temp_factor);
                    let slow = oracle::nb_idle(p, nb, t);
                    prop_assert_eq!(
                        fast.as_watts().to_bits(),
                        slow.as_watts().to_bits()
                    );
                }
            }
        }
    }
}
