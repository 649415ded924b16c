//! Golden-trace fixtures: recorded traces as regression tests.
//!
//! `tests/fixtures/` pins two small recorded capping runs — one clean,
//! one under a heavy fault storm — as JSONL documents committed to the
//! repository. The tests hold three properties over them:
//!
//! 1. **Format stability** — parsing a fixture and re-serializing it
//!    reproduces the committed bytes exactly, so any drift in the v1
//!    trace format is caught against history.
//! 2. **Lossless v2 transcoding** — the v2 binary framing encodes each
//!    fixture smaller and decodes it back bit-identically.
//! 3. **Pinned decisions** — strict-replaying a fixture under the same
//!    trained engine and controller reproduces the recorded decision
//!    sequence position by position; a divergence means the model or
//!    the controller changed behaviour underneath a recorded run.
//!
//! Regenerate the fixtures (after an *intentional* behaviour change)
//! with:
//!
//! ```text
//! cargo test --test golden_traces -- --ignored regenerate
//! ```

use ppep_core::daemon::PpepDaemon;
use ppep_core::resilient::{ResilientDaemon, SupervisorConfig};
use ppep_core::{Platform, Ppep, ProjectionKernel};
use ppep_dvfs::capping::OneStepCapping;
use ppep_rig::TrainingRig;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_telemetry::{RecordingPlatform, ReplayPlatform, TraceReader};
use ppep_types::{VfStateId, Watts};
use ppep_workloads::combos::fig7_workload;
use std::path::PathBuf;
use std::sync::OnceLock;

const SEED: u64 = 42;
const CLEAN_STEPS: usize = 12;
const STORM_STEPS: usize = 16;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

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

/// The fixtures' cap schedule: 95 W with a 40 W dip every other
/// 4-interval phase.
fn cap(step: usize) -> Watts {
    if (step / 4).is_multiple_of(2) {
        Watts::new(95.0)
    } else {
        Watts::new(40.0)
    }
}

/// Drives one supervised one-step capping run, returning per-interval
/// decisions and the daemon (so the caller can take the platform back).
fn drive<P: Platform>(
    platform: P,
    steps: usize,
    kernel: ProjectionKernel,
) -> (Vec<Vec<VfStateId>>, ResilientDaemon<P, OneStepCapping>) {
    let ppep = trained().clone().with_kernel(kernel);
    let table = ppep.models().vf_table().clone();
    let controller = OneStepCapping::new(ppep.clone(), cap(0));
    let inner = PpepDaemon::new(ppep, platform, controller);
    let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
    let mut decisions = Vec::with_capacity(steps);
    for step in 0..steps {
        daemon.inner_mut().controller_mut().set_cap(cap(step));
        let s = daemon.step().expect("supervised step survives");
        decisions.push(s.decision.clone());
    }
    (decisions, daemon)
}

/// Records one fixture run; `storm` adds the fault plan.
fn record(steps: usize, storm: bool, kernel: ProjectionKernel) -> String {
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(SEED));
    sim.load_workload(&fig7_workload(SEED));
    if storm {
        let cores = trained().models().topology().core_count();
        sim.set_fault_plan(FaultPlan::storm(0xF00D, steps as u64, 0.3, cores));
    }
    let recording = RecordingPlatform::new(SimPlatform::new(sim));
    let (_, daemon) = drive(recording, steps, kernel);
    daemon.inner().platform().trace_jsonl().to_string()
}

fn fixtures() -> [(&'static str, usize, bool); 2] {
    [
        ("capping_clean.jsonl", CLEAN_STEPS, false),
        ("capping_storm.jsonl", STORM_STEPS, true),
    ]
}

/// Regenerates the committed fixtures. Ignored by default: run it only
/// after an intentional model/controller behaviour change, then commit
/// the new files.
#[test]
#[ignore = "rewrites tests/fixtures/; run after intentional behaviour changes"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(fixture_path("")).expect("fixtures dir");
    for (name, steps, storm) in fixtures() {
        std::fs::write(
            fixture_path(name),
            record(steps, storm, ProjectionKernel::Batch),
        )
        .expect("write fixture");
    }
}

#[test]
fn golden_fixtures_match_a_fresh_recording() {
    for (name, steps, storm) in fixtures() {
        let pinned = std::fs::read_to_string(fixture_path(name)).expect("fixture exists");
        for kernel in [ProjectionKernel::Batch, ProjectionKernel::Scalar] {
            assert_eq!(
                record(steps, storm, kernel),
                pinned,
                "{name} ({kernel} kernel): a fresh recording no longer matches the \
                 pinned fixture; if the behaviour change is intentional, regenerate \
                 with `cargo test --test golden_traces -- --ignored regenerate`"
            );
        }
    }
}

#[test]
fn golden_fixtures_reserialize_byte_identically() {
    for (name, _, _) in fixtures() {
        let pinned = std::fs::read_to_string(fixture_path(name)).expect("fixture exists");
        let trace = TraceReader::parse(&pinned).expect("fixture parses");
        assert_eq!(
            trace.to_jsonl(),
            pinned,
            "{name}: v1 serialization drifted from the committed bytes"
        );
    }
}

#[test]
fn golden_fixtures_transcode_to_v2_losslessly() {
    for (name, _, storm) in fixtures() {
        let pinned = std::fs::read_to_string(fixture_path(name)).expect("fixture exists");
        let trace = TraceReader::parse(&pinned).expect("fixture parses");
        let v2 = ppep_telemetry::binary::encode(&trace);
        assert!(
            v2.len() < pinned.len(),
            "{name}: v2 ({} bytes) must be smaller than v1 ({} bytes)",
            v2.len(),
            pinned.len()
        );
        let back = ppep_telemetry::binary::decode(&v2).expect("v2 decodes");
        assert_eq!(back.topology, trace.topology, "{name}: topology drifted");
        // Compare through serialization, not `PartialEq`: the storm
        // fixture records a quarantined interval whose temperature is
        // NaN, and NaN breaks `==` even for a bit-perfect decode. The
        // JSONL form is shortest-exact, so byte equality here is bit
        // equality of every field.
        assert_eq!(
            back.to_jsonl(),
            pinned,
            "{name}: v1 -> v2 -> v1 transcoding is not lossless"
        );
        assert!(
            storm || trace.fault_count() == 0,
            "{name}: the clean fixture must hold no fault lines"
        );
    }
}

#[test]
fn golden_fixtures_strict_replay_pins_the_decision_sequence() {
    for (name, steps, _) in fixtures() {
        let pinned = std::fs::read_to_string(fixture_path(name)).expect("fixture exists");
        let trace = TraceReader::parse(&pinned).expect("fixture parses");
        let recorded: Vec<Vec<VfStateId>> = trace.decisions().map(|d| d.chosen.clone()).collect();
        assert_eq!(
            recorded.len(),
            steps,
            "{name}: one decision line per supervised interval"
        );

        // Strict replay: every apply must reproduce the recorded one,
        // and the driven decisions must equal the recorded stream —
        // under either projection kernel.
        for kernel in [ProjectionKernel::Batch, ProjectionKernel::Scalar] {
            let replay = ReplayPlatform::new(trace.clone()).strict();
            let (replayed, _) = drive(replay, steps, kernel);
            assert_eq!(
                replayed, recorded,
                "{name} ({kernel} kernel): strict replay diverged from the pinned \
                 decision sequence"
            );
        }
    }
}

/// The capping service's chaos health export (`serve_health.jsonl`)
/// is a downstream consumer of projections: its deterministic fields
/// must come out byte-identical whichever kernel the engine runs.
#[test]
fn chaos_health_export_is_kernel_invariant() {
    use ppep_serve::chaos::{run, ChaosConfig};
    let mut config = ChaosConfig::smoke(SEED);
    config.intervals = 30;
    let batch = run(
        &trained().clone().with_kernel(ProjectionKernel::Batch),
        &config,
    )
    .expect("chaos run under the batch kernel");
    let scalar = run(
        &trained().clone().with_kernel(ProjectionKernel::Scalar),
        &config,
    )
    .expect("chaos run under the scalar kernel");
    assert_eq!(
        batch.health_jsonl, scalar.health_jsonl,
        "serve_health.jsonl drifted between kernels"
    );
    assert_eq!(batch.summary(), scalar.summary());
    assert_eq!(
        batch.victim_failsafe_replies,
        scalar.victim_failsafe_replies
    );
}
