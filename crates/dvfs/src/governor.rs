//! A reference governor for context and ablation.
//!
//! The utilisation governor approximates a commodity ondemand policy,
//! which reacts to load rather than predicting PPE. The paper's other
//! prediction-free baseline, the "static VF policy" (§V-C1 shows it is
//! near-optimal for energy), is [`ppep_core::daemon::StaticController`].

use ppep_core::daemon::DvfsController;
use ppep_core::ppe::PpeProjection;
use ppep_types::{Result, VfStateId, VfTable};

/// An ondemand-style governor: jump to the highest state when any
/// core is busy, fall one rung per idle interval otherwise.
#[derive(Debug, Clone)]
pub struct OndemandGovernor {
    table: VfTable,
    current: VfStateId,
}

impl OndemandGovernor {
    /// Starts at the lowest state.
    pub fn new(table: VfTable) -> Self {
        let current = table.lowest();
        Self { table, current }
    }

    /// The governor's current state.
    pub fn current(&self) -> VfStateId {
        self.current
    }
}

impl DvfsController for OndemandGovernor {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        if projection.busy_core_count() > 0 {
            self.current = self.table.highest();
        } else if let Some(down) = self.table.step_down(self.current) {
            self.current = down;
        }
        Ok(vec![self.current; projection.source_vf.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_core::ppe::{ChipPpe, CoreProjection, PpeProjection};
    use ppep_types::time::IntervalIndex;
    use ppep_types::{CoreId, Joules, Kelvin, Seconds, Watts};

    fn projection(busy: usize) -> PpeProjection {
        let table = VfTable::fx8320();
        let chip = table
            .states()
            .map(|vf| ChipPpe {
                vf,
                power: Watts::new(30.0),
                nb_power: Watts::new(10.0),
                ips: 1.0e9,
                time_for_work: Seconds::new(1.0),
                energy: Joules::new(30.0),
                edp: 30.0,
            })
            .collect();
        let cores = (0..8)
            .map(|i| CoreProjection {
                core: CoreId(i),
                busy: i < busy,
            })
            .collect();
        PpeProjection {
            interval: IntervalIndex(0),
            temperature: Kelvin::new(310.0),
            source_vf: vec![table.highest(); 4],
            cores,
            cells: vec![],
            chip,
            work_instructions: 0.0,
        }
    }

    #[test]
    fn ondemand_races_up_and_decays_down() {
        let table = VfTable::fx8320();
        let mut g = OndemandGovernor::new(table.clone());
        assert_eq!(g.current(), table.lowest());
        // Load appears: straight to the top.
        g.decide(&projection(2)).unwrap();
        assert_eq!(g.current(), table.highest());
        // Load disappears: one rung per interval.
        g.decide(&projection(0)).unwrap();
        assert_eq!(g.current().index(), 3);
        g.decide(&projection(0)).unwrap();
        assert_eq!(g.current().index(), 2);
        for _ in 0..10 {
            g.decide(&projection(0)).unwrap();
        }
        assert_eq!(g.current(), table.lowest());
    }
}
