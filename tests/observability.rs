//! Observability invariants, cross-crate: attaching a recorder to the
//! full supervised pipeline must never change what it computes.
//!
//! The `Recorder` plumbing touches every hot path — sampler, framework
//! projection, supervisor, controller — so the property worth the most
//! is *inertness*: for arbitrary seeds, fault rates, and run lengths,
//! a trace-on run and a trace-off run produce bit-identical decisions
//! and bit-identical measured power.

use ppep_core::daemon::PpepDaemon;
use ppep_core::resilient::{HealthState, ResilientDaemon, SupervisorConfig};
use ppep_core::Ppep;
use ppep_dvfs::capping::OneStepCapping;
use ppep_models::trainer::TrainedModels;
use ppep_obs::{PredictionScorer, RecorderHandle, Stage, TraceRecorder};
use ppep_rig::TrainingRig;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_telemetry::snapshot::{
    decode_snapshot, snapshot_to_bytes, ErrorStat, MetricsSnapshot, SloSummary,
};
use ppep_telemetry::RecordingPlatform;
use ppep_types::{VfStateId, Watts};
use ppep_workloads::combos::fig7_workload;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn models() -> &'static TrainedModels {
    static MODELS: OnceLock<TrainedModels> = OnceLock::new();
    MODELS.get_or_init(|| {
        TrainingRig::fx8320(42)
            .train_quick()
            .expect("training succeeds")
    })
}

/// One supervised capping run under a seeded fault storm. Returns the
/// per-interval VF decisions plus the measured chip power as raw f64
/// bits (`None` where the interval's measurement was lost to a fault).
fn run_storm(
    seed: u64,
    rate: f64,
    intervals: usize,
    recorder: RecorderHandle,
) -> (Vec<Vec<VfStateId>>, Vec<Option<u64>>) {
    let ppep = Ppep::new(models().clone());
    let table = ppep.models().vf_table().clone();
    let cores = ppep.models().topology().core_count();
    let controller =
        OneStepCapping::new(ppep.clone(), Watts::new(55.0)).with_recorder(recorder.clone());
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(seed));
    sim.load_workload(&fig7_workload(seed));
    sim.set_fault_plan(FaultPlan::storm(seed, intervals as u64, rate, cores));
    let inner = PpepDaemon::new(ppep, SimPlatform::new(sim), controller).with_recorder(recorder);
    let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
    let mut decisions = Vec::with_capacity(intervals);
    let mut power_bits = Vec::with_capacity(intervals);
    for _ in 0..intervals {
        let s = daemon.step().expect("storm faults are transient");
        power_bits.push(
            s.record
                .as_ref()
                .map(|r| r.true_power.total().as_watts().to_bits()),
        );
        decisions.push(s.decision.clone());
    }
    (decisions, power_bits)
}

/// A recorded storm run.
struct RecordedStorm {
    decisions: Vec<Vec<VfStateId>>,
    power_bits: Vec<Option<u64>>,
    /// The supervisor's state after each interval.
    states: Vec<HealthState>,
    /// The health report's transitions and its fresh, held and
    /// failsafe counts.
    health: (Vec<(u64, HealthState)>, u64, u64, u64),
    /// The recorded v2 trace.
    trace: Vec<u8>,
    /// Scored CPI observations (0 without the scorer).
    scored: u64,
}

/// One supervised capping run under a seeded fault storm, recorded
/// through a [`RecordingPlatform`], with or without a prediction
/// scorer attached.
fn run_storm_recorded(seed: u64, rate: f64, intervals: usize, with_scorer: bool) -> RecordedStorm {
    let ppep = Ppep::new(models().clone());
    let table = ppep.models().vf_table().clone();
    let cores = ppep.models().topology().core_count();
    let controller = OneStepCapping::new(ppep.clone(), Watts::new(55.0));
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(seed));
    sim.load_workload(&fig7_workload(seed));
    sim.set_fault_plan(FaultPlan::storm(seed, intervals as u64, rate, cores));
    let recording = RecordingPlatform::new(SimPlatform::new(sim));
    let mut inner = PpepDaemon::new(ppep, recording, controller);
    if with_scorer {
        inner = inner.with_scorer();
    }
    let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
    let mut decisions = Vec::with_capacity(intervals);
    let mut power_bits = Vec::with_capacity(intervals);
    let mut states = Vec::with_capacity(intervals);
    for _ in 0..intervals {
        let s = daemon.step().expect("storm faults are transient");
        power_bits.push(
            s.record
                .as_ref()
                .map(|r| r.true_power.total().as_watts().to_bits()),
        );
        decisions.push(s.decision.clone());
        states.push(s.state);
    }
    let report = daemon.report();
    RecordedStorm {
        decisions,
        power_bits,
        states,
        health: (
            report.transitions.clone(),
            report.fresh_decisions,
            report.held_decisions,
            report.failsafe_intervals,
        ),
        trace: daemon.inner().platform().trace(),
        scored: daemon
            .inner()
            .scorer()
            .map_or(0, |s| s.cores().iter().map(|t| t.scored()).sum()),
    }
}

/// Builds a scorer over 2 cores from a stream of observation seeds:
/// each seed derives a (core, predicted CPI, measured CPI) triple and
/// a chip-power observation.
fn scorer_from(seeds: &[u64]) -> PredictionScorer {
    let mut scorer = PredictionScorer::new(2);
    for &s in seeds {
        let core = (s % 2) as usize;
        let predicted = 0.2 + ((s >> 8) % 1_000) as f64 / 125.0;
        let measured = 0.2 + ((s >> 18) % 1_000) as f64 / 125.0;
        scorer.note_interval();
        scorer.score_core_cpi(core, predicted, Some(measured));
        scorer.score_power(predicted * 10.0, measured * 10.0);
    }
    scorer
}

fn stat(seed: u64, drifted: bool) -> ErrorStat {
    // Deterministic but varied finite values derived from the seed.
    let f = |k: u64| ((seed.wrapping_mul(k) % 10_000) as f64) / 7.0;
    ErrorStat {
        count: seed % 1_000,
        mean_pct: f(3),
        ewma_pct: f(5),
        baseline_pct: f(7),
        p99_pct: f(11),
        max_pct: f(13),
        drifted,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Trace-on and trace-off runs are bit-identical, and the traced
    /// run actually captured the pipeline.
    #[test]
    fn tracing_is_inert(
        seed in 0u64..10_000,
        rate in 0.0f64..0.25,
        intervals in 8usize..24,
    ) {
        let off = run_storm(seed, rate, intervals, RecorderHandle::noop());

        let recorder = Arc::new(TraceRecorder::new());
        let on = run_storm(
            seed,
            rate,
            intervals,
            RecorderHandle::new(recorder.clone()),
        );

        prop_assert_eq!(&off.0, &on.0, "decisions diverged under tracing");
        prop_assert_eq!(&off.1, &on.1, "measured power diverged under tracing");

        // The traced run recorded real work: a Sample span for every
        // interval and at least one projection + decision.
        let snap = recorder.snapshot();
        let sampled = snap
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Sample)
            .count() as u64;
        prop_assert_eq!(snap.spans_evicted, 0);
        prop_assert_eq!(sampled, intervals as u64);
        prop_assert!(snap.spans.iter().any(|s| s.stage == Stage::Decide));
        prop_assert!(snap.spans.iter().any(|s| s.stage == Stage::CpiPredict));
    }

    /// Attaching a prediction scorer is bit-inert: scorer-on and
    /// scorer-off storms make identical decisions, measure identical
    /// power, walk the same health states and record byte-identical
    /// traces — while the scorer-on run really scored something.
    #[test]
    fn scoring_is_inert(
        seed in 0u64..10_000,
        rate in 0.0f64..0.25,
        intervals in 8usize..24,
    ) {
        let off = run_storm_recorded(seed, rate, intervals, false);
        let on = run_storm_recorded(seed, rate, intervals, true);

        prop_assert_eq!(&off.decisions, &on.decisions, "decisions diverged under scoring");
        prop_assert_eq!(&off.power_bits, &on.power_bits, "measured power diverged under scoring");
        prop_assert_eq!(&off.states, &on.states, "health states diverged under scoring");
        prop_assert_eq!(&off.health, &on.health, "health report diverged under scoring");
        prop_assert_eq!(&off.trace, &on.trace, "trace bytes diverged under scoring");
        prop_assert_eq!(off.scored, 0u64);
        prop_assert!(on.scored > 0, "the scorer-on run never scored a pair");
    }

    /// Scorer merging is order-insensitive: folding B into A and A
    /// into B yield the same aggregate state, and the scored counts
    /// add up.
    #[test]
    fn scorer_merge_is_commutative(
        first in proptest::collection::vec(0u64..1 << 60, 0..24),
        second in proptest::collection::vec(0u64..1 << 60, 0..24),
    ) {
        let a = scorer_from(&first);
        let b = scorer_from(&second);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);

        prop_assert_eq!(&ab, &ba, "merge is not commutative");
        prop_assert_eq!(ab.intervals(), a.intervals() + b.intervals());
        for (merged, (ta, tb)) in ab.cores().iter().zip(a.cores().iter().zip(b.cores())) {
            prop_assert_eq!(merged.scored(), ta.scored() + tb.scored());
            prop_assert!(merged.max_pct() >= ta.max_pct().max(tb.max_pct()) - 1e-12);
        }
    }

    /// MetricsSnapshot frames survive the wire bit-exactly, and any
    /// single corrupted byte is rejected (never mis-decoded).
    #[test]
    fn metrics_snapshot_roundtrips_and_rejects_corruption(
        tenant in 0u64..1 << 40,
        interval in 0u64..1 << 40,
        seeds in proptest::collection::vec(1u64..1 << 48, 1..6),
        drifted in proptest::arbitrary::any::<bool>(),
        with_slo in proptest::arbitrary::any::<bool>(),
        corrupt_at in 0usize..4_096,
        corrupt_mask in 1u8..=255,
    ) {
        let snap = MetricsSnapshot {
            tenant,
            interval,
            cores: seeds.iter().map(|&s| stat(s, drifted)).collect(),
            power: stat(tenant ^ interval | 1, !drifted),
            slo: with_slo.then_some(SloSummary {
                availability: 0.75,
                cap_adherence: 0.5,
                p99_reply_us: 123.25,
            }),
        };
        let bytes = snapshot_to_bytes(&snap);
        let (decoded, consumed) = decode_snapshot(&bytes).expect("round trip");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(&decoded, &snap);

        let mut corrupted = bytes.clone();
        let at = corrupt_at % corrupted.len();
        corrupted[at] ^= corrupt_mask;
        match decode_snapshot(&corrupted) {
            Err(_) => {}
            Ok((mis, _)) => prop_assert!(
                false,
                "byte {} ^ {:#04x} decoded as {:?}",
                at,
                corrupt_mask,
                mis
            ),
        }
    }
}
