//! Pins the heap allocations of one capping or boost decision.
//!
//! A policy prices many candidate assignments per decision. Each one
//! tries its step in place and undoes it, and borrows the engine's VF
//! table, so once warm a decision allocates only the assignment it
//! returns, and `OneStepCapping::decide_into` into a warm buffer
//! allocates nothing.

use ppep_core::daemon::DvfsController;
use ppep_core::ppe::PpeProjection;
use ppep_core::Ppep;
use ppep_dvfs::{BoostController, OneStepCapping, SteepestDrop};
use ppep_rig::TrainingRig;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_types::vf::VfTable;
use ppep_types::{Kelvin, Watts};
use ppep_workloads::combos::{fig7_workload, instances};

#[path = "../../core/tests/support/mod.rs"]
mod support;
use support::allocations;

const SEED: u64 = 42;

/// Caps from below the floor to above the top state, so the searches
/// descend, climb and stop at both ends of the ladder.
const CAPS: [f64; 6] = [1.0, 40.0, 55.0, 70.0, 95.0, 500.0];

/// Projections of six intervals on a chip built by `config`, running
/// `threads` sjeng instances, or the Fig. 7 mix when `threads` is 0.
fn projections(ppep: &Ppep, config: SimConfig, threads: usize) -> Vec<PpeProjection> {
    let mut sim = ChipSimulator::new(config);
    sim.load_workload(&if threads == 0 {
        fig7_workload(SEED)
    } else {
        instances("458.sjeng", threads, SEED)
    });
    (0..6)
        .map(|_| ppep.project(&sim.step_interval()).expect("projects"))
        .collect()
}

fn capping_engine() -> (Ppep, Vec<PpeProjection>) {
    let ppep = Ppep::new(TrainingRig::fx8320(SEED).train_quick().expect("trains"));
    let projections = projections(&ppep, SimConfig::fx8320_pg(SEED), 0);
    (ppep, projections)
}

#[test]
fn steepest_drop_allocates_only_its_decision() {
    let (ppep, projections) = capping_engine();
    for cap in CAPS.map(Watts::new) {
        let mut policy = SteepestDrop::new(ppep.clone(), cap);
        policy.decide(&projections[0]).expect("decides");
        for projection in &projections {
            let (n, decision) = allocations(|| policy.decide(projection));
            decision.expect("decides");
            assert_eq!(n, 1, "cap {cap}: decide made {n} allocations");
        }
    }
}

#[test]
fn one_step_into_a_warm_buffer_allocates_nothing() {
    let (ppep, projections) = capping_engine();
    let mut decision = Vec::new();
    for cap in CAPS.map(Watts::new) {
        let mut policy = OneStepCapping::new(ppep.clone(), cap);
        policy
            .decide_into(&projections[0], &mut decision)
            .expect("decides");
        for projection in &projections {
            let (n, decided) = allocations(|| policy.decide_into(projection, &mut decision));
            decided.expect("decides");
            assert_eq!(n, 0, "cap {cap}: decide_into made {n} allocations");
        }
    }
}

#[test]
fn boost_allocates_only_its_decision() {
    let ppep = Ppep::new(
        TrainingRig::with_config(SimConfig::fx8320_boost(SEED), SEED)
            .train_quick()
            .expect("trains"),
    );
    for threads in [1, 8] {
        let projections = projections(&ppep, SimConfig::fx8320_boost(SEED), threads);
        for tdp in [60.0, 125.0, 300.0] {
            let mut policy = BoostController::new(
                ppep.clone(),
                VfTable::FX8320_SOFTWARE_STATES,
                Watts::new(tdp),
                Kelvin::new(400.0),
            )
            .expect("valid controller");
            policy.decide(&projections[0]).expect("decides");
            for projection in &projections {
                let (n, decision) = allocations(|| policy.decide(projection));
                decision.expect("decides");
                assert_eq!(n, 1, "{threads} threads, TDP {tdp} W: {n} allocations");
            }
        }
    }
}
