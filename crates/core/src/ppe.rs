//! The PPE projection data model.
//!
//! A [`PpeProjection`] is what one pass of the PPEP pipeline produces
//! from one interval record: for every core and every VF state, the
//! predicted throughput and dynamic power — plus chip-level
//! aggregations (power, energy-for-the-work, EDP) that DVFS decision
//! algorithms consume.

use ppep_types::time::IntervalIndex;
use ppep_types::{CoreId, Joules, Kelvin, Seconds, VfStateId, VfTable, Watts};

/// A core's predicted behaviour at one VF state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreAtVf {
    /// The candidate VF state.
    pub vf: VfStateId,
    /// Predicted dynamic power of this core at `vf`.
    pub dynamic_power: Watts,
    /// Predicted instructions per second at `vf` (0 for idle cores).
    pub ips: f64,
    /// Predicted CPI at `vf` (0 for idle cores).
    pub cpi: f64,
}

/// One core's projections across the whole VF ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProjection {
    /// Which core.
    pub core: CoreId,
    /// Whether the core retired instructions in the source interval.
    pub busy: bool,
    /// One entry per VF state, slowest first.
    pub per_vf: Vec<CoreAtVf>,
}

impl CoreProjection {
    /// The projection at a specific state.
    ///
    /// # Panics
    ///
    /// Panics for a VF index outside the ladder.
    pub fn at(&self, vf: VfStateId) -> &CoreAtVf {
        &self.per_vf[vf.index()]
    }
}

/// Chip-level PPE numbers at one VF state, for the work observed in
/// the source interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipPpe {
    /// The candidate VF state (applied to all CUs).
    pub vf: VfStateId,
    /// Predicted chip power.
    pub power: Watts,
    /// The NB-attributed share of `power` (NB idle + the unscaled
    /// E8/E9 dynamic terms) — the Fig. 10 quantity. Zero when no PG
    /// decomposition is available to separate NB idle power.
    pub nb_power: Watts,
    /// Predicted chip throughput (instructions per second).
    pub ips: f64,
    /// Time to complete the source interval's work at this state.
    pub time_for_work: Seconds,
    /// Energy to complete that work.
    pub energy: Joules,
    /// Energy-delay product for that work (J·s).
    pub edp: f64,
}

impl ChipPpe {
    /// The core-attributed share of power (everything but the NB).
    pub fn core_power(&self) -> Watts {
        self.power - self.nb_power
    }

    /// The NB's fraction of total power (the Fig. 10 ratio).
    pub fn nb_ratio(&self) -> f64 {
        if self.power.as_watts() > 0.0 {
            self.nb_power / self.power
        } else {
            0.0
        }
    }
}

/// The full output of one PPEP pipeline pass.
///
/// The default is an empty projection, the starting buffer for
/// [`crate::Ppep::project_into`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PpeProjection {
    /// The interval the projection was computed from.
    pub interval: IntervalIndex,
    /// Diode temperature at projection time.
    pub temperature: Kelvin,
    /// Per-CU source VF states of the measured interval.
    pub source_vf: Vec<VfStateId>,
    /// Per-core projections.
    pub cores: Vec<CoreProjection>,
    /// Chip-level PPE at every (uniform) VF state, slowest first.
    pub chip: Vec<ChipPpe>,
    /// Total instructions retired in the source interval (the "work").
    pub work_instructions: f64,
}

impl PpeProjection {
    /// Readies the buffer for a projection kernel: `cores` core rows,
    /// keeping the rows (and their cell allocations) already there, and
    /// one zeroed chip row per state of `table`, slowest first. The
    /// kernel overwrites every field of every core row and sums each
    /// state's NB dynamic power into its chip row's `nb_power`.
    pub(crate) fn reset_rows(&mut self, cores: usize, table: &VfTable) {
        self.cores.resize_with(cores, || CoreProjection {
            core: CoreId(0),
            busy: false,
            per_vf: Vec::new(),
        });
        self.chip.clear();
        self.chip.extend(table.states().map(|vf| ChipPpe {
            vf,
            power: Watts::ZERO,
            nb_power: Watts::ZERO,
            ips: 0.0,
            time_for_work: Seconds::ZERO,
            energy: Joules::ZERO,
            edp: 0.0,
        }));
    }

    /// Chip-level PPE at a specific state.
    ///
    /// # Panics
    ///
    /// Panics for a VF index outside the ladder.
    pub fn chip_at(&self, vf: VfStateId) -> &ChipPpe {
        &self.chip[vf.index()]
    }

    /// The VF state minimising predicted energy for the work.
    pub fn best_energy_vf(&self) -> VfStateId {
        self.chip
            .iter()
            .min_by(|a, b| a.energy.as_joules().total_cmp(&b.energy.as_joules()))
            .map(|c| c.vf)
            .unwrap_or_default()
    }

    /// The VF state minimising predicted EDP for the work.
    pub fn best_edp_vf(&self) -> VfStateId {
        self.chip
            .iter()
            .min_by(|a, b| a.edp.total_cmp(&b.edp))
            .map(|c| c.vf)
            .unwrap_or_default()
    }

    /// The fastest VF state whose predicted power fits under `cap`
    /// (`None` when even the slowest state exceeds it) — the one-step
    /// power-capping primitive.
    pub fn fastest_under_cap(&self, cap: Watts) -> Option<VfStateId> {
        self.chip
            .iter()
            .rev() // fastest first
            .find(|c| c.power <= cap)
            .map(|c| c.vf)
    }

    /// Number of busy cores in the source interval.
    pub fn busy_core_count(&self) -> usize {
        self.cores.iter().filter(|c| c.busy).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_types::VfTable;

    fn fake_projection() -> PpeProjection {
        let table = VfTable::fx8320();
        // Power rises with VF; ips rises sub-linearly: energy-optimal
        // at the bottom, EDP-optimal mid-ladder.
        let chip: Vec<ChipPpe> = table
            .states()
            .map(|vf| {
                let i = vf.index() as f64;
                let power = 20.0 + 18.0 * i;
                let ips = 1.0e9 * (1.0 + 0.55 * i);
                let work = 1.0e9;
                let t = work / ips;
                let energy = power * t;
                ChipPpe {
                    vf,
                    power: Watts::new(power),
                    nb_power: Watts::new(power * 0.25),
                    ips,
                    time_for_work: Seconds::new(t),
                    energy: Joules::new(energy),
                    edp: energy * t,
                }
            })
            .collect();
        PpeProjection {
            interval: IntervalIndex(3),
            temperature: Kelvin::new(320.0),
            source_vf: vec![table.highest(); 4],
            cores: vec![],
            chip,
            work_instructions: 1.0e9,
        }
    }

    #[test]
    fn optimal_state_selection() {
        let p = fake_projection();
        let table = VfTable::fx8320();
        // Energy: lowest state wins (20/1.0 = 20 J vs 92/3.2 ≈ 28.8 J).
        assert_eq!(p.best_energy_vf(), table.lowest());
        // EDP weighs delay: a higher state wins.
        assert!(p.best_edp_vf() > table.lowest());
    }

    #[test]
    fn capping_picks_fastest_fitting_state() {
        let p = fake_projection();
        let table = VfTable::fx8320();
        // Powers: 20, 38, 56, 74, 92.
        assert_eq!(
            p.fastest_under_cap(Watts::new(100.0)),
            Some(table.highest())
        );
        assert_eq!(
            p.fastest_under_cap(Watts::new(60.0)).map(|v| v.index()),
            Some(2)
        );
        assert_eq!(p.fastest_under_cap(Watts::new(10.0)), None);
        // Exactly at a state's power: that state fits.
        assert_eq!(
            p.fastest_under_cap(Watts::new(74.0)).map(|v| v.index()),
            Some(3)
        );
    }

    #[test]
    fn nb_split_accessors() {
        let p = fake_projection();
        let top = p.chip_at(VfTable::fx8320().highest());
        assert!((top.nb_ratio() - 0.25).abs() < 1e-12);
        assert!(
            (top.core_power().as_watts() + top.nb_power.as_watts() - top.power.as_watts()).abs()
                < 1e-12
        );
        let idle = ChipPpe {
            vf: VfTable::fx8320().lowest(),
            power: Watts::ZERO,
            nb_power: Watts::ZERO,
            ips: 0.0,
            time_for_work: Seconds::new(0.2),
            energy: Joules::new(0.0),
            edp: 0.0,
        };
        assert_eq!(idle.nb_ratio(), 0.0);
    }

    #[test]
    fn chip_at_indexing() {
        let p = fake_projection();
        let table = VfTable::fx8320();
        assert_eq!(p.chip_at(table.lowest()).power, Watts::new(20.0));
        assert_eq!(p.chip_at(table.highest()).power, Watts::new(92.0));
        assert_eq!(p.busy_core_count(), 0);
    }
}
