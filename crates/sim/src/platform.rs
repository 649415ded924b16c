//! The simulated [`Platform`] adapter.
//!
//! [`SimPlatform`] wraps a [`ChipSimulator`] behind the substrate
//! port the PPEP daemon drives (`ppep_telemetry::Platform`). The
//! adapter is a zero-cost passthrough — sampling is exactly
//! [`ChipSimulator::step_interval_checked`] (or, into a reused record,
//! [`ChipSimulator::step_interval_into`]) and applying is exactly
//! the per-CU [`ChipSimulator::set_cu_vf`] loop — so a daemon run
//! over `SimPlatform` is bit-identical to one that owned the
//! simulator directly. It also derefs to the simulator, so workload
//! loading, fault plans, and every other chip control stay one method
//! call away.

use crate::chip::{ChipSimulator, IntervalRecord, SimConfig};
use ppep_obs::RecorderHandle;
use ppep_telemetry::Platform;
use ppep_types::time::IntervalIndex;
use ppep_types::{CuId, Result, Topology, VfStateId};

/// A [`ChipSimulator`] exposed as a [`Platform`].
pub struct SimPlatform {
    chip: ChipSimulator,
}

impl SimPlatform {
    /// Wraps an existing simulator.
    pub fn new(chip: ChipSimulator) -> Self {
        Self { chip }
    }

    /// Builds a fresh simulator from `config` and wraps it.
    pub fn from_config(config: SimConfig) -> Self {
        Self::new(ChipSimulator::new(config))
    }

    /// The wrapped simulator.
    pub fn chip(&self) -> &ChipSimulator {
        &self.chip
    }
}

impl From<ChipSimulator> for SimPlatform {
    fn from(chip: ChipSimulator) -> Self {
        Self::new(chip)
    }
}

impl std::ops::Deref for SimPlatform {
    type Target = ChipSimulator;

    fn deref(&self) -> &ChipSimulator {
        &self.chip
    }
}

impl std::ops::DerefMut for SimPlatform {
    fn deref_mut(&mut self) -> &mut ChipSimulator {
        &mut self.chip
    }
}

impl std::fmt::Debug for SimPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPlatform")
            .field("chip", &self.chip)
            .finish()
    }
}

impl Platform for SimPlatform {
    fn sample(&mut self) -> Result<IntervalRecord> {
        self.chip.step_interval_checked()
    }

    fn sample_into(&mut self, record: &mut IntervalRecord) -> Result<()> {
        self.chip.step_interval_into(record)
    }

    fn apply(&mut self, assignment: &[VfStateId]) -> Result<()> {
        for (cu, &vf) in assignment.iter().enumerate() {
            self.chip.set_cu_vf(CuId(cu), vf)?;
        }
        Ok(())
    }

    fn topology(&self) -> &Topology {
        self.chip.topology()
    }

    fn current_interval(&self) -> IntervalIndex {
        self.chip.current_interval()
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.chip.set_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_workloads::combos::instances;

    /// Stepping through the platform must be bit-identical to stepping
    /// the simulator directly.
    #[test]
    fn platform_is_a_transparent_adapter() {
        let mut direct = ChipSimulator::new(SimConfig::fx8320(42));
        direct.load_workload(&instances("403.gcc", 2, 42));
        let mut platform = SimPlatform::from_config(SimConfig::fx8320(42));
        platform.load_workload(&instances("403.gcc", 2, 42));

        let vf1 = platform.topology().vf_table().lowest();
        for step in 0..3 {
            let a = direct.step_interval_checked().unwrap();
            let b = platform.sample().unwrap();
            assert_eq!(a.measured_power, b.measured_power, "step {step}");
            assert_eq!(a.temperature, b.temperature, "step {step}");
            assert_eq!(a.samples, b.samples, "step {step}");
            direct.set_cu_vf(CuId(0), vf1).unwrap();
            direct.set_cu_vf(CuId(1), vf1).unwrap();
            direct.set_cu_vf(CuId(2), vf1).unwrap();
            direct.set_cu_vf(CuId(3), vf1).unwrap();
            platform.apply(&[vf1; 4]).unwrap();
        }
        assert_eq!(
            Platform::current_interval(&platform),
            direct.current_interval()
        );
    }

    #[test]
    fn apply_rejects_out_of_range_cus() {
        let mut platform = SimPlatform::from_config(SimConfig::fx8320(7));
        let vf = platform.topology().vf_table().lowest();
        assert!(platform.apply(&[vf; 4]).is_ok());
        assert!(platform.apply(&[vf; 5]).is_err(), "chip has 4 CUs");
    }

    #[test]
    fn apply_uniform_matches_set_all_vf() {
        let mut a = SimPlatform::from_config(SimConfig::fx8320(9));
        let mut b = ChipSimulator::new(SimConfig::fx8320(9));
        let vf = a.topology().vf_table().lowest();
        a.apply_uniform(vf).unwrap();
        b.set_all_vf(vf);
        for cu in 0..4 {
            assert_eq!(a.chip().cu_vf(CuId(cu)), b.cu_vf(CuId(cu)));
        }
    }
}
