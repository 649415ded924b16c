//! Cross-crate record/replay round trip: a PPEP daemon driven over a
//! live simulated chip, recorded to a v2 binary trace, then replayed
//! with no simulator at all — the replayed run must reproduce the live
//! run's decisions bit-for-bit. A corrupted recording must fail to
//! parse rather than replay different numbers.

use ppep_core::daemon::{DvfsController, PpepDaemon};
use ppep_core::ppe::PpeProjection;
use ppep_core::{Platform, Ppep};
use ppep_rig::TrainingRig;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_telemetry::{binary, DecisionRecord, RecordingPlatform, ReplayPlatform, TraceReader};
use ppep_types::{Result, VfStateId, Watts};
use ppep_workloads::combos::instances;
use std::sync::OnceLock;

fn trained() -> &'static Ppep {
    static PPEP: OnceLock<Ppep> = OnceLock::new();
    PPEP.get_or_init(|| {
        Ppep::new(
            TrainingRig::fx8320(42)
                .train_quick()
                .expect("training succeeds"),
        )
    })
}

/// A deterministic controller with real decision variety: pick the
/// cheapest per-CU assignment whose projected chip power stays under a
/// budget (a miniature capping policy).
struct BudgetController {
    ppep: Ppep,
    budget: Watts,
}

impl DvfsController for BudgetController {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        let table = self.ppep.models().vf_table().clone();
        let mut assignment = vec![table.highest(); projection.source_vf.len()];
        for vf in table.states().rev() {
            assignment.fill(vf);
            if self
                .ppep
                .chip_power_with_assignment(projection, &assignment)?
                <= self.budget
            {
                break;
            }
        }
        Ok(assignment)
    }
}

fn live_sim(seed: u64) -> ChipSimulator {
    let mut sim = ChipSimulator::new(SimConfig::fx8320(seed));
    sim.load_workload(&instances("470.lbm", 4, seed));
    sim
}

fn drive<P: Platform>(
    platform: P,
    steps: usize,
) -> (Vec<Vec<VfStateId>>, PpepDaemon<P, BudgetController>) {
    let ppep = trained().clone();
    let controller = BudgetController {
        ppep: ppep.clone(),
        budget: Watts::new(95.0),
    };
    let mut daemon = PpepDaemon::new(ppep, platform, controller);
    let outcome = daemon.run(steps).into_result().expect("daemon runs");
    (outcome.into_iter().map(|s| s.decision).collect(), daemon)
}

#[test]
fn recorded_run_replays_bit_identically() {
    let steps = 12;
    let recording = RecordingPlatform::new(SimPlatform::new(live_sim(7)));
    let (live, daemon) = drive(recording, steps);
    let doc = daemon.platform().trace();

    // The trace is structurally sound: meta + one interval and one
    // apply per step.
    let trace = TraceReader::parse(&doc).expect("trace parses");
    assert_eq!(trace.interval_count(), steps);
    assert_eq!(trace.fault_count(), 0);

    // Strict replay must reproduce the decisions without a simulator.
    let replay = ReplayPlatform::new(trace).strict();
    let (replayed, _) = drive(replay, steps);
    assert_eq!(live, replayed);
}

#[test]
fn faulted_run_replays_its_faults() {
    let steps = 20;
    let mut sim = live_sim(11);
    sim.set_fault_plan(FaultPlan::storm(99, steps as u64, 0.4, 8));
    let mut recording = RecordingPlatform::new(SimPlatform::new(sim));

    // Drive manually so transient faults are tolerated.
    let mut live_errors = Vec::new();
    for _ in 0..steps {
        if let Err(e) = recording.sample() {
            live_errors.push(e);
        }
    }
    assert!(!live_errors.is_empty(), "the storm must fault some samples");
    let (_, doc) = recording.finish();

    let mut replay = ReplayPlatform::new(TraceReader::parse(&doc).expect("trace parses"));
    let mut replayed_errors = Vec::new();
    for _ in 0..steps {
        if let Err(e) = replay.sample() {
            replayed_errors.push(e);
        }
    }
    assert_eq!(live_errors, replayed_errors);
}

/// A fault-storm recording with decisions and applies, as one v2
/// document.
fn storm_recording(steps: usize) -> Vec<u8> {
    let mut sim = live_sim(13);
    sim.set_fault_plan(FaultPlan::storm(0xB17, steps as u64, 0.4, 8));
    let mut recording = RecordingPlatform::new(SimPlatform::new(sim));
    let table = recording.vf_table().clone();
    let cus = recording.topology().cu_count();
    for step in 0..steps {
        let Ok(record) = recording.sample() else {
            continue;
        };
        let vf = if step % 2 == 0 {
            table.lowest()
        } else {
            table.highest()
        };
        recording.record_decision(&DecisionRecord {
            interval: record.index,
            chosen: vec![vf; cus],
            predicted_power: Some(record.measured_power),
            realized_power: Some(record.measured_power),
            cap: Some(Watts::new(95.0)),
            cap_violated: Some(false),
        });
        recording.apply_uniform(vf).expect("valid assignment");
    }
    recording.finish().1
}

#[test]
fn a_flipped_bit_never_parses_to_a_different_trace() {
    let doc = storm_recording(12);
    let trace = TraceReader::parse(&doc).expect("trace parses");
    assert!(trace.fault_count() > 0, "the storm must fault some samples");
    assert!(trace.decisions().count() > 0);
    // One flipped bit at every byte position, cycling through the bit
    // within the byte. A decode either fails (magic, version, framing
    // or CRC) or yields events that re-encode to the original bytes:
    // the codec is lossless, so equal bytes mean bit-identical events.
    let mut rejected = 0;
    for pos in 0..doc.len() {
        let mut bad = doc.clone();
        if let Some(byte) = bad.get_mut(pos) {
            *byte ^= 1 << (pos % 8);
        }
        match TraceReader::parse(&bad) {
            Err(_) => rejected += 1,
            Ok(back) => assert!(
                binary::encode(&back) == doc,
                "flipping bit {} of byte {pos} parsed to a different trace",
                pos % 8
            ),
        }
    }
    assert!(rejected > 0);
}
