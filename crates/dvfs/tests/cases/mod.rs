//! The engines and projections the decision tests share.
//!
//! Each case projects runs of simulated intervals whose per-CU VF
//! states cycle through the ladder, so the source assignments the
//! policies start from cover every state.

use ppep_core::ppe::PpeProjection;
use ppep_core::Ppep;
use ppep_rig::TrainingRig;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_types::CuId;
use ppep_workloads::combos::{fig7_workload, instances};
use ppep_workloads::WorkloadSpec;

const SEED: u64 = 42;

/// Projections of `intervals` intervals of each workload on a chip
/// built by `config`, stepping CU `i` to state `(i + interval) % n`
/// before every interval so the source assignments cover the ladder.
fn projections(
    ppep: &Ppep,
    config: fn(u64) -> SimConfig,
    workloads: &[WorkloadSpec],
    intervals: usize,
) -> Vec<PpeProjection> {
    let table = ppep.models().vf_table().clone();
    let mut out = Vec::new();
    for workload in workloads {
        let mut sim = ChipSimulator::new(config(SEED));
        sim.load_workload(workload);
        let cus = sim.topology().cu_count();
        for interval in 0..intervals {
            for cu in 0..cus {
                let state = table
                    .state((cu + interval) % table.len())
                    .expect("in range");
                sim.set_cu_vf(CuId(cu), state).expect("in range");
            }
            let record = sim.step_interval();
            out.push(ppep.project(&record).expect("projects"));
        }
    }
    out
}

/// A quick-trained FX-8320 and 24 projections of the Fig. 7 mix, two
/// sjeng and eight milc instances on its PG-enabled chip.
pub fn capping_case() -> (Ppep, Vec<PpeProjection>) {
    let ppep = Ppep::new(TrainingRig::fx8320(SEED).train_quick().expect("trains"));
    let workloads = [
        fig7_workload(SEED),
        instances("458.sjeng", 2, SEED),
        instances("433.milc", 8, SEED),
    ];
    let projections = projections(&ppep, SimConfig::fx8320_pg, &workloads, 8);
    (ppep, projections)
}

/// An FX-8320 quick-trained on its seven-state boost ladder and 24
/// projections of one, four and eight sjeng instances and the Fig. 7
/// mix.
pub fn boost_case() -> (Ppep, Vec<PpeProjection>) {
    let ppep = Ppep::new(
        TrainingRig::with_config(SimConfig::fx8320_boost(SEED), SEED)
            .train_quick()
            .expect("trains"),
    );
    let workloads = [
        instances("458.sjeng", 1, SEED),
        instances("458.sjeng", 4, SEED),
        instances("458.sjeng", 8, SEED),
        fig7_workload(SEED),
    ];
    let projections = projections(&ppep, SimConfig::fx8320_boost, &workloads, 6);
    (ppep, projections)
}
