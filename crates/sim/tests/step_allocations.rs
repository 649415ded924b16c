//! Pins the heap allocations of one simulated interval.
//!
//! `ChipSimulator::step_interval_into` is the sampling side of every
//! daemon interval. It refills a caller-owned record, writes each
//! core's event counts into a per-core scratch slot, and reads the
//! interval's scheduled faults in place from the sorted plan, so once
//! the record has grown to the chip's size a step allocates nothing,
//! whether or not a fault strikes it.

use ppep_sim::chip::{ChipSimulator, IntervalRecord, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_workloads::combos::fig7_workload;
use std::collections::BTreeSet;

#[path = "../../core/tests/support/mod.rs"]
mod support;
use support::allocations;

const SEED: u64 = 42;
const INTERVALS: u64 = 400;

#[test]
fn warm_steps_allocate_nothing_under_a_dense_storm() {
    let plan = FaultPlan::storm(SEED, INTERVALS, 0.5, 8);
    let kinds: BTreeSet<&str> = plan.events().iter().map(|e| e.kind.name()).collect();
    assert_eq!(kinds.len(), 8, "the storm schedules every fault kind");
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(SEED));
    sim.load_workload(&fig7_workload(SEED));
    sim.set_fault_plan(plan.clone());
    let mut record = IntervalRecord::default();
    // Warm-up: the first successful step grows the record's vectors.
    while sim.step_interval_into(&mut record).is_err() {}
    let (mut ok, mut failed, mut faulted) = (0, 0, 0);
    while sim.current_interval().0 < INTERVALS {
        let interval = sim.current_interval().0;
        let (n, step) = allocations(|| sim.step_interval_into(&mut record));
        assert_eq!(n, 0, "interval {interval} made {n} allocations: {step:?}");
        if step.is_ok() {
            ok += 1;
        } else {
            failed += 1;
        }
        faulted += usize::from(plan.kinds_at(interval).next().is_some());
    }
    assert!(
        ok > 100 && failed > 50 && faulted > 150,
        "{ok} clean, {failed} failed, {faulted} faulted intervals"
    );
}
