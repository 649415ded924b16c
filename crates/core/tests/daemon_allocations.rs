//! Pins the heap allocations of one supervised daemon interval.
//!
//! The daemon samples, projects, decides and applies every 200 ms for
//! as long as the machine runs, so an allocation per interval is an
//! overhead paid forever. `ResilientDaemon` fills its step buffers in
//! place and swaps them on a fresh decision, so once they have grown to
//! the chip's size a healthy interval allocates nothing. Faulted
//! intervals may allocate a little; the bounds below name each
//! allocation.

use ppep_core::daemon::PpepDaemon;
use ppep_core::ppe::PpeProjection;
use ppep_core::resilient::{Action, ResilientDaemon, SupervisorConfig};
use ppep_core::Ppep;
use ppep_dvfs::OneStepCapping;
use ppep_rig::TrainingRig;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_types::vf::NbVfState;
use ppep_types::Watts;
use ppep_workloads::combos::fig7_workload;
use std::sync::OnceLock;

mod support;
use support::allocations;

const SEED: u64 = 42;

fn engine() -> Ppep {
    static MODELS: OnceLock<ppep_models::trainer::TrainedModels> = OnceLock::new();
    Ppep::new(
        MODELS
            .get_or_init(|| {
                TrainingRig::fx8320(SEED)
                    .train_quick()
                    .expect("training succeeds")
            })
            .clone(),
    )
}

/// The paper's capping loop: a PG-enabled FX-8320 running the Fig. 7
/// mix under a 95 W cap, with `plan` injected; no recorder, no scorer.
fn daemon(plan: FaultPlan) -> ResilientDaemon<SimPlatform, OneStepCapping> {
    supervised(plan, false)
}

/// [`daemon`], scoring each staged prediction when `scorer` is set.
fn supervised(plan: FaultPlan, scorer: bool) -> ResilientDaemon<SimPlatform, OneStepCapping> {
    let ppep = engine();
    let lowest = ppep.models().vf_table().lowest();
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(SEED));
    sim.load_workload(&fig7_workload(SEED));
    sim.set_fault_plan(plan);
    let controller = OneStepCapping::new(ppep.clone(), Watts::new(95.0));
    let mut inner = PpepDaemon::new(ppep, SimPlatform::new(sim), controller);
    if scorer {
        inner = inner.with_scorer();
    }
    ResilientDaemon::new(inner, SupervisorConfig::new(lowest))
}

/// Steps `d` through a warm-up, then asserts that each of 200 healthy
/// intervals allocates nothing.
fn assert_healthy_intervals_allocate_nothing(d: &mut ResilientDaemon<SimPlatform, OneStepCapping>) {
    // Warm-up: the first two fresh intervals grow the two step
    // buffers, and the first staged prediction its CPI buffer.
    for _ in 0..20 {
        d.step().expect("no faults");
    }
    for i in 0..200 {
        let (n, action) = allocations(|| d.step().expect("no faults").action);
        assert_eq!(action, Action::Fresh);
        assert_eq!(n, 0, "healthy interval {i} made {n} allocations");
    }
}

#[test]
fn healthy_interval_allocates_nothing() {
    assert_healthy_intervals_allocate_nothing(&mut daemon(FaultPlan::none()));
}

#[test]
fn scored_healthy_interval_allocates_nothing() {
    let mut d = supervised(FaultPlan::none(), true);
    assert_healthy_intervals_allocate_nothing(&mut d);
    let scorer = d.inner().scorer().expect("scoring is on");
    assert_eq!(
        scorer.intervals(),
        219,
        "every fresh interval after the first is scored"
    );
}

#[test]
fn project_into_a_warm_buffer_allocates_nothing() {
    let ppep = engine();
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(SEED));
    sim.load_workload(&fig7_workload(SEED));
    let record = sim.run_intervals(4).pop().expect("simulated interval");
    let mut out = PpeProjection::default();
    for nb in [NbVfState::High, NbVfState::Low] {
        ppep.project_into(&record, nb, &mut out).expect("projects");
        let (n, projected) = allocations(|| ppep.project_into(&record, nb, &mut out));
        projected.expect("projects");
        assert_eq!(n, 0, "NB {nb:?}: {n} allocations into a warm buffer");
        assert_eq!(out, ppep.project_nb(&record, nb).expect("projects"));
    }
}

/// Most allocations an interval under the storm may make, whatever
/// the supervisor did with it:
///
/// - pinning the failsafe VF builds the uniform assignment that
///   `Platform::apply_uniform` hands to `apply` (1);
/// - a health transition appends to the report's transition log, which
///   sometimes grows (1).
///
/// Errors carry only static strings and numbers here, so recording and
/// returning the fault allocates nothing.
const FAULTED_BOUND: usize = 2;

#[test]
fn held_and_failsafe_intervals_stay_bounded_under_a_storm() {
    let intervals = 600;
    let cores = engine().models().topology().core_count();
    let mut d = daemon(FaultPlan::storm(SEED, intervals, 0.2, cores));
    let mut seen = [0usize; 3];
    for i in 0..intervals {
        let (n, action) = allocations(|| d.step().expect("storm faults are transient").action);
        // The first intervals grow the buffers (and the first faults
        // may strike before both step buffers exist).
        if i < 40 {
            continue;
        }
        let slot = match action {
            Action::Fresh => 0,
            Action::Held => 1,
            Action::Failsafe => 2,
        };
        seen[slot] += 1;
        assert!(
            n <= FAULTED_BOUND,
            "{action:?} interval {i} made {n} allocations, bound {FAULTED_BOUND}"
        );
    }
    assert!(
        seen.iter().all(|&k| k > 0),
        "the storm must exercise fresh, held and failsafe intervals: {seen:?}"
    );
}
