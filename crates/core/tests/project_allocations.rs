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
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` so an allocation during thread teardown, after the
    // slot is gone, is simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting only
// touches a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

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
