//! The predictive controllers' shared greedy ascent stops only at a
//! local maximum.
//!
//! Over the projections `decision_digests.rs` pins, with random caps
//! and TDPs in place of its fixed ones: every decision that fits its
//! guarded budget leaves no CU whose single step up gains predicted
//! throughput and still fits, because the ascent would have taken that
//! step. For the boost controller this is checked on the projections
//! below its thermal limit, since it vetoes boosting on a hotter chip.

use ppep_core::daemon::DvfsController;
use ppep_core::ppe::PpeProjection;
use ppep_core::Ppep;
use ppep_dvfs::{BoostController, OneStepCapping, SteepestDrop};
use ppep_types::vf::VfTable;
use ppep_types::{Kelvin, VfStateId, Watts};
use proptest::prelude::*;
use std::sync::OnceLock;

mod cases;

/// The predictive controllers target `budget · (1 − GUARD_BAND)`.
const GUARD_BAND: f64 = 0.05;

fn capping() -> &'static (Ppep, Vec<PpeProjection>) {
    static CASE: OnceLock<(Ppep, Vec<PpeProjection>)> = OnceLock::new();
    CASE.get_or_init(cases::capping_case)
}

fn boost() -> &'static (Ppep, Vec<PpeProjection>) {
    static CASE: OnceLock<(Ppep, Vec<PpeProjection>)> = OnceLock::new();
    CASE.get_or_init(cases::boost_case)
}

/// The predicted IPS of each core of CU `cu` at `vf`; 0 for a state
/// past the row's end.
fn core_ips<'a>(
    ppep: &Ppep,
    projection: &'a PpeProjection,
    cu: usize,
    vf: VfStateId,
) -> impl Iterator<Item = f64> + 'a {
    let cores_per_cu = ppep.models().topology().cores_per_cu();
    projection
        .rows()
        .skip(cu * cores_per_cu)
        .take(cores_per_cu)
        .map(move |row| row.get(vf.index()).map_or(0.0, |c| c.ips))
}

/// The one-step and boost gain, `Σ (ips(up) − ips(from))` over the
/// CU's cores.
fn sum_of_gains(
    ppep: &Ppep,
    projection: &PpeProjection,
    cu: usize,
    from: VfStateId,
    up: VfStateId,
) -> f64 {
    core_ips(ppep, projection, cu, up)
        .zip(core_ips(ppep, projection, cu, from))
        .map(|(up, from)| up - from)
        .sum()
}

/// Steepest Drop's gain, `Σ ips(up) − Σ ips(from)`.
fn gain_of_sums(
    ppep: &Ppep,
    projection: &PpeProjection,
    cu: usize,
    from: VfStateId,
    up: VfStateId,
) -> f64 {
    core_ips(ppep, projection, cu, up).sum::<f64>()
        - core_ips(ppep, projection, cu, from).sum::<f64>()
}

type Gain = fn(&Ppep, &PpeProjection, usize, VfStateId, VfStateId) -> f64;

/// A CU whose single step up from `decision` has a positive `gain`
/// and still prices within `budget`, when `decision` itself fits;
/// `None` for a decision over budget or at a local maximum.
fn improvable_cu(
    ppep: &Ppep,
    projection: &PpeProjection,
    decision: &[VfStateId],
    budget: Watts,
    gain: Gain,
) -> Option<usize> {
    let price = |assignment: &[VfStateId]| {
        ppep.chip_power_with_assignment(projection, assignment)
            .expect("prices")
    };
    if price(decision) > budget {
        return None;
    }
    let table = ppep.models().vf_table();
    (0..decision.len()).find(|&cu| {
        let Some(up) = table.step_up(decision[cu]) else {
            return false;
        };
        let mut candidate = decision.to_vec();
        candidate[cu] = up;
        gain(ppep, projection, cu, decision[cu], up) > 0.0 && price(&candidate) <= budget
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-step capping and Steepest Drop under a cap from below the
    /// ladder's floor to above its top.
    #[test]
    fn capping_decisions_are_local_maxima(cap in 1.0f64..300.0) {
        let (ppep, projections) = capping();
        let cap = Watts::new(cap);
        let budget = cap * (1.0 - GUARD_BAND);
        let mut one_step = OneStepCapping::new(ppep.clone(), cap);
        let mut steepest = SteepestDrop::new(ppep.clone(), cap);
        for (i, projection) in projections.iter().enumerate() {
            let decision = one_step.decide(projection).expect("decides");
            let cu = improvable_cu(ppep, projection, &decision, budget, sum_of_gains);
            prop_assert!(cu.is_none(), "one-step, projection {i}: CU {cu:?} of {decision:?} can step up");
            let decision = steepest.decide(projection).expect("decides");
            let cu = improvable_cu(ppep, projection, &decision, budget, gain_of_sums);
            prop_assert!(cu.is_none(), "steepest drop, projection {i}: CU {cu:?} of {decision:?} can step up");
        }
    }

    /// Boost under a TDP from below the nominal state's power to above
    /// the boosted top's, and a thermal limit on either side of the
    /// diode readings (300.0 to 300.8 K on these runs).
    #[test]
    fn boost_decisions_are_local_maxima(tdp in 5.0f64..320.0, limit in 299.5f64..301.5) {
        let (ppep, projections) = boost();
        let budget = Watts::new(tdp) * (1.0 - GUARD_BAND);
        let mut controller = BoostController::new(
            ppep.clone(),
            VfTable::FX8320_SOFTWARE_STATES,
            Watts::new(tdp),
            Kelvin::new(limit),
        )
        .expect("valid controller");
        for (i, projection) in projections.iter().enumerate() {
            let decision = controller.decide(projection).expect("decides");
            if projection.temperature > Kelvin::new(limit) {
                continue;
            }
            let cu = improvable_cu(ppep, projection, &decision, budget, sum_of_gains);
            prop_assert!(cu.is_none(), "boost, projection {i}: CU {cu:?} of {decision:?} can step up");
        }
    }
}
