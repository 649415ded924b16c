//! The per-interval measurement record.
//!
//! One [`IntervalRecord`] is everything a platform reports for one
//! 200 ms decision interval: the observables PPEP consumes (PMU
//! samples, sensor power, diode temperature, the VF states in force)
//! plus the hidden ground truth a simulated backend can expose for
//! validation. Hardware backends leave the ground-truth fields empty
//! (`true_counts`) or zeroed (`true_power`); nothing on the online
//! path reads them.

use ppep_pmc::sampler::IntervalSample;
use ppep_pmc::EventCounts;
use ppep_types::time::IntervalIndex;
use ppep_types::vf::NbVfState;
use ppep_types::{Kelvin, Seconds, Topology, VfStateId, Watts};

/// The hidden ground-truth power decomposition of one interval
/// (averaged over its sub-ticks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Dynamic power attributable to each core's activity.
    pub core_dynamic: Vec<Watts>,
    /// NB dynamic power from memory traffic.
    pub nb_dynamic: Watts,
    /// Idle (leakage + housekeeping) power of each CU after gating.
    pub cu_idle: Vec<Watts>,
    /// NB idle power after gating.
    pub nb_idle: Watts,
    /// Always-on base power.
    pub base: Watts,
}

impl PowerBreakdown {
    /// Total chip power.
    pub fn total(&self) -> Watts {
        self.dynamic_total() + self.idle_total()
    }

    /// All dynamic power (cores + NB).
    pub fn dynamic_total(&self) -> Watts {
        self.core_dynamic.iter().copied().sum::<Watts>() + self.nb_dynamic
    }

    /// All idle power (CUs + NB + base).
    pub fn idle_total(&self) -> Watts {
        self.cu_idle.iter().copied().sum::<Watts>() + self.nb_idle + self.base
    }

    /// NB-attributable power (idle + dynamic) — the Fig. 10 quantity.
    pub fn nb_total(&self) -> Watts {
        self.nb_dynamic + self.nb_idle
    }
}

/// Everything observable (and the hidden truth) for one 200 ms
/// decision interval.
///
/// The default is an empty record: no cores, no CUs, every number
/// zero. It is the starting buffer for [`crate::Platform::sample_into`],
/// which resizes and overwrites every field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalRecord {
    /// Which interval this is.
    pub index: IntervalIndex,
    /// Interval length (200 ms).
    pub duration: Seconds,
    /// Per-core PMU samples (multiplexed + extrapolated — what PPEP
    /// sees).
    pub samples: Vec<IntervalSample>,
    /// Per-core exact event counts (hidden truth, for ablations).
    pub true_counts: Vec<EventCounts>,
    /// Average of the ten 20 ms sensor readings (what PPEP sees).
    pub measured_power: Watts,
    /// The hidden true power decomposition.
    pub true_power: PowerBreakdown,
    /// Thermal-diode reading at interval end (what PPEP sees).
    pub temperature: Kelvin,
    /// Each CU's VF state during the interval.
    pub cu_vf: Vec<VfStateId>,
    /// The NB state during the interval.
    pub nb_state: NbVfState,
    /// Whether each core retired any instructions this interval.
    pub core_busy: Vec<bool>,
}

impl IntervalRecord {
    /// Number of busy compute units this interval.
    pub fn busy_cu_count(&self, topology: &Topology) -> usize {
        topology
            .cus()
            .filter(|cu| {
                topology.cores_of(*cu).is_ok_and(|cores| {
                    cores
                        .iter()
                        .any(|c| self.core_busy.get(c.0).copied().unwrap_or(false))
                })
            })
            .count()
    }

    /// Measured energy of the interval (sensor power × duration).
    pub fn measured_energy(&self) -> ppep_types::Joules {
        self.measured_power * self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_add_up() {
        let b = PowerBreakdown {
            core_dynamic: vec![Watts::new(2.0), Watts::new(3.0)],
            nb_dynamic: Watts::new(1.0),
            cu_idle: vec![Watts::new(4.0)],
            nb_idle: Watts::new(0.5),
            base: Watts::new(10.0),
        };
        assert_eq!(b.dynamic_total(), Watts::new(6.0));
        assert_eq!(b.idle_total(), Watts::new(14.5));
        assert_eq!(b.total(), Watts::new(20.5));
        assert_eq!(b.nb_total(), Watts::new(1.5));
    }
}
