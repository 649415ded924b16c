//! Energy- and EDP-optimal state selection (§V-C1, Figs. 8–9).
//!
//! The PPEP projection prices every VF state for the work observed in
//! the last interval; these controllers simply pick the minimiser. The
//! per-thread metrics behind Figs. 8 and 9 — energy and EDP per
//! instance as the number of background instances varies — are
//! computed here too.

use ppep_core::daemon::DvfsController;
use ppep_core::ppe::PpeProjection;
use ppep_types::{Result, VfStateId};

/// Picks the VF state minimising predicted energy for the work.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyOptimalController;

impl DvfsController for EnergyOptimalController {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        Ok(vec![
            projection.best_energy_vf();
            projection.source_vf.len()
        ])
    }
}

/// Picks the VF state minimising predicted energy-delay product.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdpOptimalController;

impl DvfsController for EdpOptimalController {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        Ok(vec![projection.best_edp_vf(); projection.source_vf.len()])
    }
}

/// The generalised energy-delay metric `E·Dᵝ`: β = 0 is pure energy,
/// β = 1 the classic EDP, β = 2 the performance-leaning ED²P common in
/// the DVFS literature.
///
/// # Panics
///
/// Panics for a negative or non-finite `beta`.
pub fn ed_beta(energy_j: f64, delay_s: f64, beta: f64) -> f64 {
    assert!(
        beta >= 0.0 && beta.is_finite(),
        "beta must be finite and >= 0"
    );
    energy_j * delay_s.powf(beta)
}

/// The VF state minimising `E·Dᵝ` over a projection.
///
/// # Panics
///
/// Panics for a negative or non-finite `beta`.
pub fn best_ed_beta_vf(projection: &PpeProjection, beta: f64) -> VfStateId {
    projection
        .chip
        .iter()
        .min_by(|a, b| {
            ed_beta(a.energy.as_joules(), a.time_for_work.as_secs(), beta).total_cmp(&ed_beta(
                b.energy.as_joules(),
                b.time_for_work.as_secs(),
                beta,
            ))
        })
        .map(|c| c.vf)
        .unwrap_or_default()
}

/// Picks the VF state minimising the generalised `E·Dᵝ` metric.
#[derive(Debug, Clone, Copy)]
pub struct EdBetaOptimalController {
    /// The delay exponent β (0 = energy, 1 = EDP, 2 = ED²P).
    pub beta: f64,
}

impl DvfsController for EdBetaOptimalController {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        Ok(vec![
            best_ed_beta_vf(projection, self.beta);
            projection.source_vf.len()
        ])
    }
}

/// Work quantum for per-thread comparisons: one giga-instruction per
/// thread, so energies are comparable across instance counts (each
/// paper benchmark is a fixed program; Fig. 8/9 compare the energy to
/// finish it, not the energy of one wall-clock interval).
pub const THREAD_WORK_INSTRUCTIONS: f64 = 1.0e9;

/// Per-thread PPE numbers at one VF state for an `n`-instance
/// workload: the Fig. 8/9 quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerThreadPpe {
    /// The VF state.
    pub vf: VfStateId,
    /// Energy for one thread to retire its
    /// [`THREAD_WORK_INSTRUCTIONS`]-instruction quantum (J).
    pub energy: f64,
    /// Time for that quantum (s).
    pub time: f64,
    /// Per-thread energy-delay product (J·s).
    pub edp: f64,
}

/// Computes per-thread energy/EDP across the ladder from a chip
/// projection of an `n`-instance homogeneous workload.
///
/// Each of the `n` threads runs at `ips_total / n` and is attributed
/// `power / n` of the chip, so for a fixed per-thread work quantum:
/// `time = n·W / ips_total` and `energy = power · W / ips_total`.
///
/// # Errors
///
/// Returns an error when `instances` is zero or the projection has no
/// throughput (idle chip).
pub fn per_thread_ppe(projection: &PpeProjection, instances: usize) -> Result<Vec<PerThreadPpe>> {
    if instances == 0 {
        return Err(ppep_types::Error::InvalidInput(
            "instances must be positive".into(),
        ));
    }
    projection
        .chip
        .iter()
        .map(|c| {
            if c.ips <= 0.0 {
                return Err(ppep_types::Error::InvalidInput(
                    "per-thread PPE undefined for an idle projection".into(),
                ));
            }
            let time = instances as f64 * THREAD_WORK_INSTRUCTIONS / c.ips;
            let energy = c.power.as_watts() * THREAD_WORK_INSTRUCTIONS / c.ips;
            Ok(PerThreadPpe {
                vf: c.vf,
                energy,
                time,
                edp: energy * time,
            })
        })
        .collect()
}

/// The state with the lowest per-thread EDP.
pub fn best_edp_state(per_thread: &[PerThreadPpe]) -> VfStateId {
    per_thread
        .iter()
        .min_by(|a, b| a.edp.total_cmp(&b.edp))
        .map(|t| t.vf)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_core::ppe::ChipPpe;
    use ppep_types::time::IntervalIndex;
    use ppep_types::{Joules, Kelvin, Seconds, VfTable, Watts};

    fn projection(powers: &[f64], ips: &[f64]) -> PpeProjection {
        let table = VfTable::fx8320();
        let work = 1.0e9;
        let chip: Vec<ChipPpe> = table
            .states()
            .map(|vf| {
                let i = vf.index();
                let t = work / ips[i];
                let e = powers[i] * t;
                ChipPpe {
                    vf,
                    power: Watts::new(powers[i]),
                    nb_power: Watts::new(powers[i] * 0.3),
                    ips: ips[i],
                    time_for_work: Seconds::new(t),
                    energy: Joules::new(e),
                    edp: e * t,
                }
            })
            .collect();
        PpeProjection {
            interval: IntervalIndex(0),
            temperature: Kelvin::new(320.0),
            source_vf: vec![table.highest(); 4],
            cores: vec![],
            cells: vec![],
            chip,
            work_instructions: work,
        }
    }

    #[test]
    fn controllers_pick_the_minimisers() {
        // Energy-optimal at the bottom, EDP-optimal in the middle.
        let p = projection(
            &[20.0, 33.0, 50.0, 70.0, 95.0],
            &[1.0e9, 1.6e9, 2.1e9, 2.5e9, 2.8e9],
        );
        let table = VfTable::fx8320();
        let mut energy = EnergyOptimalController;
        assert_eq!(energy.decide(&p).unwrap(), vec![table.lowest(); 4]);
        let mut edp = EdpOptimalController;
        let pick = edp.decide(&p).unwrap()[0];
        assert!(pick > table.lowest(), "EDP favours a faster state");
    }

    #[test]
    fn per_thread_uses_a_fixed_work_quantum() {
        let p = projection(
            &[20.0, 33.0, 50.0, 70.0, 95.0],
            &[1.0e9, 1.6e9, 2.1e9, 2.5e9, 2.8e9],
        );
        let one = per_thread_ppe(&p, 1).unwrap();
        // VF5: power 95 W, chip ips 2.8e9 -> 1e9 inst costs 95/2.8 J.
        assert!((one[4].energy - 95.0 / 2.8).abs() < 1e-9);
        assert!((one[4].time - 1.0 / 2.8).abs() < 1e-9);
        // With the same chip-level projection, four threads each see a
        // quarter of the throughput: same per-quantum energy, 4x time.
        let four = per_thread_ppe(&p, 4).unwrap();
        for (a, b) in one.iter().zip(&four) {
            assert!((a.energy - b.energy).abs() < 1e-12);
            assert!((b.time / a.time - 4.0).abs() < 1e-12);
        }
        assert!(per_thread_ppe(&p, 0).is_err());
    }

    #[test]
    fn ed_beta_interpolates_between_energy_and_performance() {
        let p = projection(
            &[20.0, 33.0, 50.0, 70.0, 95.0],
            &[1.0e9, 1.6e9, 2.1e9, 2.5e9, 2.8e9],
        );
        let table = VfTable::fx8320();
        // beta = 0 reduces to energy-optimal.
        assert_eq!(best_ed_beta_vf(&p, 0.0), p.best_energy_vf());
        // beta = 1 reduces to EDP-optimal.
        assert_eq!(best_ed_beta_vf(&p, 1.0), p.best_edp_vf());
        // Large beta favours the fastest state.
        assert_eq!(best_ed_beta_vf(&p, 8.0), table.highest());
        // The optimum moves monotonically up the ladder with beta.
        let mut last = best_ed_beta_vf(&p, 0.0);
        for beta in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let now = best_ed_beta_vf(&p, beta);
            assert!(now >= last, "beta {beta} moved the optimum down");
            last = now;
        }
        // Controller wrapper agrees with the free function.
        let mut c = EdBetaOptimalController { beta: 2.0 };
        assert_eq!(c.decide(&p).unwrap()[0], best_ed_beta_vf(&p, 2.0));
    }

    #[test]
    #[should_panic(expected = "beta must be finite")]
    fn ed_beta_rejects_negative_exponent() {
        let _ = ed_beta(1.0, 1.0, -1.0);
    }

    #[test]
    fn best_edp_shifts_down_when_low_states_get_cheaper() {
        // A projection where VF5 wins EDP...
        let fast_friendly = projection(
            &[40.0, 50.0, 60.0, 70.0, 80.0],
            &[0.5e9, 1.1e9, 1.8e9, 2.6e9, 3.5e9],
        );
        let p1 = per_thread_ppe(&fast_friendly, 1).unwrap();
        let table = VfTable::fx8320();
        assert_eq!(best_edp_state(&p1), table.highest());
        // ...and one with contention-limited scaling where it doesn't.
        let contended = projection(
            &[40.0, 50.0, 60.0, 70.0, 80.0],
            &[1.4e9, 1.7e9, 1.9e9, 2.0e9, 2.05e9],
        );
        let p4 = per_thread_ppe(&contended, 4).unwrap();
        assert!(best_edp_state(&p4) < table.highest());
    }
}
