//! Golden-trace fixtures: recorded traces as regression tests.
//!
//! `tests/fixtures/` pins two small recorded capping runs — one clean,
//! one under a heavy fault storm — as v2 binary documents committed to
//! the repository. The tests hold four properties over them:
//!
//! 1. **Recording stability** — a fresh recording of the same run
//!    reproduces the committed bytes exactly.
//! 2. **Codec stability** — decoding a fixture and re-encoding it
//!    reproduces the committed bytes exactly.
//! 3. **Lossless transcode** — the fixtures were transcoded once from
//!    JSONL documents; each fixture's JSONL dump still hashes to the
//!    FNV-1a 64 digest of the file it replaced, so neither the v2
//!    bytes nor the dump writer can drift against history.
//! 4. **Pinned decisions** — strict-replaying a fixture under the same
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
//!
//! and update the dump digests below to match.

use ppep_core::daemon::PpepDaemon;
use ppep_core::resilient::{ResilientDaemon, SupervisorConfig};
use ppep_core::{Platform, Ppep};
use ppep_dvfs::capping::OneStepCapping;
use ppep_rig::TrainingRig;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_telemetry::{binary, RecordingPlatform, ReplayPlatform, TraceReader};
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
) -> (Vec<Vec<VfStateId>>, ResilientDaemon<P, OneStepCapping>) {
    let ppep = trained().clone();
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
fn record(steps: usize, storm: bool) -> Vec<u8> {
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(SEED));
    sim.load_workload(&fig7_workload(SEED));
    if storm {
        let cores = trained().models().topology().core_count();
        sim.set_fault_plan(FaultPlan::storm(0xF00D, steps as u64, 0.3, cores));
    }
    let recording = RecordingPlatform::new(SimPlatform::new(sim));
    let (_, daemon) = drive(recording, steps);
    daemon.inner().platform().trace()
}

/// Each fixture: file name, steps, storm flag, and the FNV-1a 64
/// digest of its JSONL dump.
fn fixtures() -> [(&'static str, usize, bool, u64); 2] {
    [
        (
            "capping_clean.bin",
            CLEAN_STEPS,
            false,
            0x0095_5d25_da67_6f02,
        ),
        (
            "capping_storm.bin",
            STORM_STEPS,
            true,
            0x2300_65b2_1594_8c89,
        ),
    ]
}

fn pinned(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name)).expect("fixture exists")
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Regenerates the committed fixtures. Ignored by default: run it only
/// after an intentional model/controller behaviour change, then commit
/// the new files.
#[test]
#[ignore = "rewrites tests/fixtures/; run after intentional behaviour changes"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(fixture_path("")).expect("fixtures dir");
    for (name, steps, storm, _) in fixtures() {
        std::fs::write(fixture_path(name), record(steps, storm)).expect("write fixture");
    }
}

#[test]
fn golden_fixtures_match_a_fresh_recording() {
    for (name, steps, storm, _) in fixtures() {
        assert!(
            record(steps, storm) == pinned(name),
            "{name}: a fresh recording no longer matches the pinned fixture; if \
             the behaviour change is intentional, regenerate with \
             `cargo test --test golden_traces -- --ignored regenerate`"
        );
    }
}

#[test]
fn golden_fixtures_reserialize_byte_identically() {
    for (name, _, _, _) in fixtures() {
        let pinned = pinned(name);
        let trace = TraceReader::parse(&pinned).expect("fixture parses");
        assert!(
            binary::encode(&trace) == pinned,
            "{name}: v2 re-encoding drifted from the committed bytes"
        );
    }
}

#[test]
fn golden_fixtures_transcode_to_v2_losslessly() {
    for (name, _, storm, digest) in fixtures() {
        let pinned = pinned(name);
        let trace = TraceReader::parse(&pinned).expect("fixture parses");
        // Compare through the dump, not `PartialEq`: the storm fixture
        // records a quarantined interval whose temperature is NaN, and
        // NaN breaks `==` even for a bit-perfect decode. The dump is
        // shortest-exact, so its bytes pin every field's bits.
        let dump = trace.to_jsonl();
        assert_eq!(
            format!("{:016x}", fnv64(dump.as_bytes())),
            format!("{digest:016x}"),
            "{name}: the JSONL dump no longer matches the document the fixture was \
             transcoded from"
        );
        assert!(
            pinned.len() * 4 < dump.len(),
            "{name}: v2 ({} bytes) must be over 4x smaller than its dump ({} bytes)",
            pinned.len(),
            dump.len()
        );
        assert!(
            storm || trace.fault_count() == 0,
            "{name}: the clean fixture must hold no fault events"
        );
    }
}

#[test]
fn golden_fixtures_strict_replay_pins_the_decision_sequence() {
    for (name, steps, _, _) in fixtures() {
        let trace = TraceReader::parse(&pinned(name)).expect("fixture parses");
        let recorded: Vec<Vec<VfStateId>> = trace.decisions().map(|d| d.chosen.clone()).collect();
        assert_eq!(
            recorded.len(),
            steps,
            "{name}: one decision per supervised interval"
        );

        // Strict replay: every apply must reproduce the recorded one,
        // and the driven decisions must equal the recorded stream.
        let replay = ReplayPlatform::new(trace).strict();
        let (replayed, _) = drive(replay, steps);
        assert_eq!(
            replayed, recorded,
            "{name}: strict replay diverged from the pinned decision sequence"
        );
    }
}
