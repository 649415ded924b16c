//! Pins the heap allocations of one projection.
//!
//! `Ppep::project` runs once per decision interval (twice when the NB
//! study is explored), so every allocation it makes is paid on the hot
//! path. A counting global allocator tallies allocations per thread,
//! which keeps the count exact while the test harness runs other tests
//! in parallel. The bounds are the counts the kernels make today; a
//! change that adds an allocation to either kernel fails here.

use ppep_core::batch::ProjectionKernel;
use ppep_core::Ppep;
use ppep_rig::TrainingRig;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_telemetry::IntervalRecord;
use ppep_types::vf::NbVfState;
use ppep_workloads::combos::instances;

mod support;
use support::allocations;

/// A PG-aware FX-8320 engine and an 8-core record from a PG-enabled
/// chip, so the projection takes the PG idle path.
fn engine_and_record() -> (Ppep, IntervalRecord) {
    let models = TrainingRig::fx8320(42)
        .train_quick()
        .expect("training succeeds");
    assert!(
        models.chip_power().pg_model().is_some(),
        "train_quick attaches a PG model on the FX-8320"
    );
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(42));
    sim.load_workload(&instances("433.milc", 8, 42));
    let record = sim.run_intervals(4).pop().expect("simulated interval");
    assert_eq!(record.samples.len(), 8);
    (Ppep::new(models), record)
}

/// Allocations per call, the same under either kernel: one `Vec` of
/// cores, one row of cells per core, the NB accumulator, the chip rows,
/// the copied source assignment, and one uniform-assignment buffer for
/// the PG idle path.
const ALLOCATIONS_PER_PROJECTION: usize = 13;

#[test]
fn projection_allocations_are_pinned_under_both_kernels() {
    let (engine, record) = engine_and_record();
    for kernel in [ProjectionKernel::Batch, ProjectionKernel::Scalar] {
        let engine = engine.clone().with_kernel(kernel);
        for nb in [NbVfState::High, NbVfState::Low] {
            // Warm-up: anything lazily initialised on first use is not
            // a per-call cost.
            engine.project_nb(&record, nb).expect("projects");
            let (n, projection) = allocations(|| engine.project_nb(&record, nb));
            let projection = projection.expect("projects");
            assert_eq!(projection.cores.len(), 8);
            assert!(
                n <= ALLOCATIONS_PER_PROJECTION,
                "{kernel} kernel, NB {nb:?}: {n} allocations per projection, \
                 pinned at {ALLOCATIONS_PER_PROJECTION}"
            );
        }
    }
}
