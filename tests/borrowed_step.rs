//! Equivalence pins for the in-place paths of a daemon interval.
//!
//! A supervised interval fills a reused record (`Platform::sample_into`),
//! a reused projection (`Ppep::project_into`) and a reused decision,
//! and `ResilientDaemon::step` lends the result out. None of that may
//! change a bit of what the daemon measures or decides:
//!
//! - `sample_into` on one reused record gives the records fresh
//!   `sample()` calls give, on the simulator under a fault storm, on a
//!   replayed trace and on a session queue, including the interval
//!   right after a failed MSR read or a sensor dropout;
//! - a borrowed `step()` sequence, cloned per step, equals `run()`'s
//!   owned steps field for field, and each fresh step's projection
//!   equals a fresh `project` of its record.

use ppep_core::daemon::PpepDaemon;
use ppep_core::ppe::PpeProjection;
use ppep_core::resilient::{ResilientDaemon, SupervisedStep, SupervisorConfig};
use ppep_core::{Platform, Ppep};
use ppep_dvfs::capping::OneStepCapping;
use ppep_rig::TrainingRig;
use ppep_serve::SessionPlatform;
use ppep_sim::chip::{IntervalRecord, SimConfig};
use ppep_sim::fault::{FaultKind, FaultPlan};
use ppep_sim::SimPlatform;
use ppep_telemetry::{RecordingPlatform, ReplayPlatform, TraceReader};
use ppep_types::vf::NbVfState;
use ppep_types::{Error, VfStateId, Watts};
use ppep_workloads::combos::{fig7_workload, instances};
use std::sync::OnceLock;

const SEED: u64 = 42;
const INTERVALS: u64 = 200;

fn trained() -> &'static Ppep {
    static PPEP: OnceLock<Ppep> = OnceLock::new();
    PPEP.get_or_init(|| {
        Ppep::new(
            TrainingRig::fx8320(SEED)
                .train_quick()
                .expect("training succeeds"),
        )
    })
}

/// Every number of a record as raw bits, with each vector's length,
/// so two records compare equal exactly when they are bit-identical
/// (a NaN diode reading included).
fn record_bits(r: &IntervalRecord) -> Vec<u64> {
    let mut v = vec![r.index.0, r.duration.as_secs().to_bits()];
    v.push(r.samples.len() as u64);
    for s in &r.samples {
        v.extend(s.counts.as_array().iter().map(|x| x.to_bits()));
        v.push(s.duration.as_secs().to_bits());
    }
    v.push(r.true_counts.len() as u64);
    for c in &r.true_counts {
        v.extend(c.as_array().iter().map(|x| x.to_bits()));
    }
    v.push(r.measured_power.as_watts().to_bits());
    let p = &r.true_power;
    v.push(p.core_dynamic.len() as u64);
    v.extend(p.core_dynamic.iter().map(|w| w.as_watts().to_bits()));
    v.push(p.nb_dynamic.as_watts().to_bits());
    v.push(p.cu_idle.len() as u64);
    v.extend(p.cu_idle.iter().map(|w| w.as_watts().to_bits()));
    v.push(p.nb_idle.as_watts().to_bits());
    v.push(p.base.as_watts().to_bits());
    v.push(r.temperature.as_kelvin().to_bits());
    v.push(r.cu_vf.len() as u64);
    v.extend(r.cu_vf.iter().map(|vf| vf.index() as u64));
    v.push(u64::from(r.nb_state == NbVfState::Low));
    v.push(r.core_busy.len() as u64);
    v.extend(r.core_busy.iter().map(|&b| u64::from(b)));
    v
}

/// Every number of a projection as raw bits, with each vector's length.
fn projection_bits(p: &PpeProjection) -> Vec<u64> {
    let mut v = vec![p.interval.0, p.temperature.as_kelvin().to_bits()];
    v.push(p.source_vf.len() as u64);
    v.extend(p.source_vf.iter().map(|vf| vf.index() as u64));
    v.push(p.cores.len() as u64);
    for c in &p.cores {
        v.extend([c.core.0 as u64, u64::from(c.busy), c.per_vf.len() as u64]);
        for cell in &c.per_vf {
            v.extend([
                cell.vf.index() as u64,
                cell.dynamic_power.as_watts().to_bits(),
                cell.ips.to_bits(),
                cell.cpi.to_bits(),
            ]);
        }
    }
    v.push(p.chip.len() as u64);
    for c in &p.chip {
        v.extend([
            c.vf.index() as u64,
            c.power.as_watts().to_bits(),
            c.nb_power.as_watts().to_bits(),
            c.ips.to_bits(),
            c.time_for_work.as_secs().to_bits(),
            c.energy.as_joules().to_bits(),
            c.edp.to_bits(),
        ]);
    }
    v.push(p.work_instructions.to_bits());
    v
}

type Outcome = std::result::Result<Vec<u64>, String>;

fn outcome(sampled: std::result::Result<&IntervalRecord, &Error>) -> Outcome {
    sampled.map(record_bits).map_err(|e| format!("{e:?}"))
}

/// A stale buffer of another shape: a 6-core, 3-CU record, so the
/// first fill must resize every vector.
fn dirty_buffer() -> IntervalRecord {
    let mut phenom = SimPlatform::from_config(SimConfig::phenom_ii_x6(SEED));
    phenom.load_workload(&instances("CG", 5, SEED));
    phenom.sample().expect("fault-free interval")
}

/// Samples `intervals` intervals from two identically built platforms,
/// one through `sample()`, one through `sample_into` on a single
/// reused record, applying the same rotating assignment to both, and
/// returns both outcome sequences.
fn sample_both<P: Platform>(
    mut fresh: P,
    mut reused: P,
    intervals: u64,
) -> (Vec<Outcome>, Vec<Outcome>) {
    let table = fresh.vf_table().clone();
    let cus = fresh.topology().cu_count();
    let mut buffer = dirty_buffer();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in 0..intervals {
        a.push(outcome(fresh.sample().as_ref()));
        let filled = reused.sample_into(&mut buffer);
        b.push(outcome(filled.as_ref().map(|()| &buffer)));
        let assignment: Vec<VfStateId> = (0..cus)
            .map(|cu| {
                table
                    .state((i as usize + cu) % table.len())
                    .expect("index within the ladder")
            })
            .collect();
        // Replay and session platforms may refuse an apply; both
        // sides refuse alike, and sampling goes on regardless.
        let _ = fresh.apply(&assignment);
        let _ = reused.apply(&assignment);
    }
    (a, b)
}

/// The storm every platform below replays: the seeded storm plus a
/// failed MSR read and a sensor dropout at fixed intervals, each
/// followed by a clean one.
fn storm() -> FaultPlan {
    FaultPlan::storm(SEED, INTERVALS, 0.3, 8)
        .with(
            INTERVALS + 3,
            FaultKind::MsrReadFailure { core: 2, reads: 1 },
        )
        .with(INTERVALS + 6, FaultKind::SensorDropout)
}

fn storm_sim() -> SimPlatform {
    let mut sim = SimPlatform::from_config(SimConfig::fx8320_pg(SEED));
    sim.load_workload(&fig7_workload(SEED));
    sim.set_fault_plan(storm());
    sim
}

/// Asserts the run hit an error of `kind` followed by a clean interval.
fn assert_recovers_from(outcomes: &[Outcome], kind: &str) {
    let recovered = outcomes
        .windows(2)
        .any(|w| matches!(&w[0], Err(e) if e.contains(kind)) && w[1].is_ok());
    assert!(recovered, "no {kind} followed by a clean interval");
}

#[test]
fn sim_sample_into_matches_sample_under_a_storm() {
    let (fresh, reused) = sample_both(storm_sim(), storm_sim(), INTERVALS + 10);
    assert_recovers_from(&fresh, "MsrReadFailed");
    assert_recovers_from(&fresh, "SensorDropout");
    for (i, (a, b)) in fresh.iter().zip(&reused).enumerate() {
        assert_eq!(a, b, "interval {i}");
    }
}

#[test]
fn recording_through_sample_into_writes_the_same_trace() {
    let mut fresh = RecordingPlatform::new(storm_sim());
    let mut reused = RecordingPlatform::new(storm_sim());
    let mut buffer = IntervalRecord::default();
    for _ in 0..INTERVALS {
        let _ = fresh.sample();
        let _ = reused.sample_into(&mut buffer);
    }
    assert!(fresh.trace() == reused.trace());
}

/// The trace of a storm run sampled through a recording platform.
fn storm_trace() -> TraceReader {
    let mut recording = RecordingPlatform::new(storm_sim());
    let lowest = recording.vf_table().lowest();
    for i in 0..INTERVALS + 10 {
        let _ = recording.sample();
        if i % 7 == 0 {
            recording.apply_uniform(lowest).expect("valid assignment");
        }
    }
    TraceReader::parse(&recording.trace()).expect("trace parses")
}

#[test]
fn replay_sample_into_matches_sample() {
    let trace = storm_trace();
    let (fresh, reused) = sample_both(
        ReplayPlatform::new(trace.clone()),
        ReplayPlatform::new(trace),
        INTERVALS + 12,
    );
    assert_recovers_from(&fresh, "MsrReadFailed");
    assert_recovers_from(&fresh, "SensorDropout");
    assert!(fresh.last().is_some_and(Result::is_err), "runs off the end");
    assert_eq!(fresh, reused);
}

#[test]
fn session_sample_into_matches_sample() {
    let mut sim = storm_sim();
    let topology = sim.topology().clone();
    let mut fresh = SessionPlatform::new(topology.clone());
    let mut reused = SessionPlatform::new(topology);
    for _ in 0..INTERVALS + 10 {
        match sim.sample() {
            Ok(record) => {
                fresh.push_record(record.clone());
                reused.push_record(record);
            }
            Err(e) => {
                fresh.push_fault(e.clone());
                reused.push_fault(e);
            }
        }
    }
    // Two more intervals than were queued: an empty queue is a missed
    // deadline on both.
    let (fresh, reused) = sample_both(fresh, reused, INTERVALS + 12);
    assert_recovers_from(&fresh, "MsrReadFailed");
    assert_recovers_from(&fresh, "SensorDropout");
    assert!(fresh
        .last()
        .is_some_and(|o| matches!(o, Err(e) if e.contains("MissedInterval"))));
    assert_eq!(fresh, reused);
}

/// Every field of a supervised step, numbers as raw bits.
type StepBits = (
    u64,
    String,
    Option<Vec<u64>>,
    Option<Vec<u64>>,
    Vec<VfStateId>,
    Option<String>,
    bool,
);

fn step_bits(s: &SupervisedStep) -> StepBits {
    (
        s.interval,
        format!("{:?} {:?}", s.action, s.state),
        s.record.as_ref().map(record_bits),
        s.projection.as_ref().map(projection_bits),
        s.decision.clone(),
        s.fault.as_ref().map(|e| format!("{e:?}")),
        s.quarantined,
    )
}

fn capping_daemon() -> ResilientDaemon<SimPlatform, OneStepCapping> {
    let ppep = trained().clone();
    let lowest = ppep.models().vf_table().lowest();
    let controller = OneStepCapping::new(ppep.clone(), Watts::new(60.0));
    let inner = PpepDaemon::new(ppep, storm_sim(), controller);
    ResilientDaemon::new(inner, SupervisorConfig::new(lowest))
}

#[test]
fn borrowed_steps_cloned_equal_the_owned_run() {
    let n = INTERVALS as usize + 10;
    let owned = capping_daemon().run(n).expect("storm faults are transient");
    let mut borrowed = capping_daemon();
    for (i, expected) in owned.iter().enumerate() {
        let step = borrowed.step().expect("storm faults are transient").clone();
        assert_eq!(step_bits(&step), step_bits(expected), "interval {i}");
        // The projection refilled in the daemon's reused buffer is the
        // one a fresh `project` of the same record gives.
        if let (Some(record), Some(projection)) = (&step.record, &step.projection) {
            let fresh = trained().project(record).expect("projects");
            assert_eq!(
                projection_bits(projection),
                projection_bits(&fresh),
                "interval {i}"
            );
        }
    }
    let actions: Vec<String> = owned.iter().map(|s| format!("{:?}", s.action)).collect();
    for action in ["Fresh", "Held", "Failsafe"] {
        assert!(
            actions.iter().any(|a| a == action),
            "the storm must produce a {action} step"
        );
    }
}
