//! `ChipSimulator::step_power` is the sampled step without the PMUs.
//!
//! A power step runs the same sub-tick loop as `step_interval_into`
//! with the samplers left out, so on a twin chip it must report the
//! same sensor and diode values bit for bit and fail with the same
//! errors, for an idle chip and for a loaded one, fault-free and under
//! a storm of the faults that do not involve the PMU. It must leave the
//! chip in the same physical state: sampled steps taken afterwards
//! read the same power and temperature on both chips. And since the
//! interval's truth goes into a buffer the simulator keeps, a warm
//! power step allocates nothing.

use ppep_sim::chip::{ChipSimulator, IntervalRecord, SimConfig};
use ppep_sim::fault::{FaultKind, FaultPlan};
use ppep_types::{CuId, Error};
use ppep_workloads::combos::fig7_workload;
use ppep_workloads::WorkloadSpec;

#[path = "../../core/tests/support/mod.rs"]
mod support;
use support::allocations;

const SEED: u64 = 42;
const INTERVALS: u64 = 120;

/// A dense storm with its two PMU fault kinds (counter wrap, failed
/// MSR read) removed: what is left hits the sensor, the diode and the
/// interval deadline.
fn storm_without_pmu_faults() -> FaultPlan {
    FaultPlan::storm(SEED, INTERVALS, 0.5, 8)
        .events()
        .iter()
        .filter(|e| {
            !matches!(
                e.kind,
                FaultKind::CounterWrap | FaultKind::MsrReadFailure { .. }
            )
        })
        .fold(FaultPlan::none(), |plan, e| plan.with(e.interval, e.kind))
}

/// One interval's observables as bits, or its error.
type Reading = std::result::Result<(u64, u64), Error>;

fn chip(config: &SimConfig, workload: Option<&WorkloadSpec>, plan: &FaultPlan) -> ChipSimulator {
    let mut sim = ChipSimulator::new(config.clone());
    if let Some(w) = workload {
        sim.load_workload(w);
    }
    sim.set_fault_plan(plan.clone());
    sim
}

/// The same DVFS script on both chips: one CU drops to the lowest
/// state, then every CU moves to a middle one.
fn actuate(sim: &mut ChipSimulator, interval: u64) {
    let table = sim.topology().vf_table().clone();
    match interval {
        30 => sim.set_cu_vf(CuId(1), table.lowest()).expect("CU 1 exists"),
        70 => {
            let middle = table.states().nth(table.len() / 2).expect("a middle state");
            sim.set_all_vf(middle);
        }
        _ => {}
    }
}

fn sampled(sim: &mut ChipSimulator, record: &mut IntervalRecord) -> Reading {
    sim.step_interval_into(record).map(|()| {
        (
            record.measured_power.as_watts().to_bits(),
            record.temperature.as_kelvin().to_bits(),
        )
    })
}

fn unsampled(sim: &mut ChipSimulator) -> Reading {
    sim.step_power().map(|r| {
        (
            r.measured_power.as_watts().to_bits(),
            r.temperature.as_kelvin().to_bits(),
        )
    })
}

fn assert_twins_agree(config: SimConfig, workload: Option<&WorkloadSpec>, plan: &FaultPlan) {
    let mut power = chip(&config, workload, plan);
    let mut full = chip(&config, workload, plan);
    let mut record = IntervalRecord::default();
    let (mut ok, mut failed) = (0, 0);
    for interval in 0..INTERVALS {
        actuate(&mut power, interval);
        actuate(&mut full, interval);
        let got = unsampled(&mut power);
        let want = sampled(&mut full, &mut record);
        assert_eq!(got, want, "interval {interval}");
        if got.is_ok() {
            ok += 1;
        } else {
            failed += 1;
        }
    }
    assert!(ok > 50, "{ok} clean intervals");
    if !plan.is_empty() {
        assert!(failed > 5, "{failed} failed intervals");
    }
    // Both chips are in the same physical state: the sampled steps
    // that follow read the same power and temperature.
    let mut after = IntervalRecord::default();
    for interval in INTERVALS..INTERVALS + 5 {
        assert_eq!(
            sampled(&mut power, &mut after),
            sampled(&mut full, &mut record),
            "sampled interval {interval} after the power steps"
        );
    }
}

fn cases(config: fn(u64) -> SimConfig) {
    let fig7 = fig7_workload(SEED);
    for plan in [FaultPlan::none(), storm_without_pmu_faults()] {
        assert_twins_agree(config(SEED), None, &plan);
        assert_twins_agree(config(SEED), Some(&fig7), &plan);
    }
}

#[test]
fn fx8320_pg_power_steps_read_what_sampled_steps_read() {
    cases(SimConfig::fx8320_pg);
}

#[test]
fn phenom_ii_x6_power_steps_read_what_sampled_steps_read() {
    cases(SimConfig::phenom_ii_x6);
}

#[test]
fn a_failed_read_stays_pending_through_power_steps() {
    // A failed MSR read scheduled for a power-stepped interval fails no
    // power step; the armed failure fails the next sampled one.
    let plan = FaultPlan::none().with(2, FaultKind::MsrReadFailure { core: 0, reads: 1 });
    let mut sim = chip(
        &SimConfig::fx8320_pg(SEED),
        Some(&fig7_workload(SEED)),
        &plan,
    );
    for _ in 0..4 {
        sim.step_power().expect("a power step reads no counter");
    }
    let err = sim.step_interval_checked().unwrap_err();
    assert!(matches!(err, Error::MsrReadFailed { .. }), "{err}");
    sim.step_interval_checked()
        .expect("the read failure was used up");
}

#[test]
fn warm_power_steps_allocate_nothing() {
    // The full storm, PMU faults included: they only arm the PMUs.
    let plan = FaultPlan::storm(SEED, 400, 0.5, 8);
    let mut sim = chip(
        &SimConfig::fx8320_pg(SEED),
        Some(&fig7_workload(SEED)),
        &plan,
    );
    // Warm-up: the first successful step grows the simulator's buffer.
    while sim.step_power().is_err() {}
    let (mut ok, mut failed) = (0, 0);
    while sim.current_interval().0 < 400 {
        let interval = sim.current_interval().0;
        let (n, step) = allocations(|| sim.step_power());
        assert_eq!(n, 0, "interval {interval} made {n} allocations: {step:?}");
        if step.is_ok() {
            ok += 1;
        } else {
            failed += 1;
        }
    }
    assert!(
        ok > 100 && failed > 30,
        "{ok} clean, {failed} failed intervals"
    );
}
