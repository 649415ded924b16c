//! Accuracy-watch — replay a recorded trace with a
//! [`PredictionScorer`] attached (beyond the paper's figures; §IV's
//! headline numbers are ~2.7% CPI and ~4.6% power error, and this
//! watches the repro's own predictor for regressions and drift).
//!
//! [`score_trace`] replays a trace through the full supervised daemon:
//! each interval's projection is staged for the chosen VF state and
//! scored against the *next* interval's measured CPI and power,
//! exactly the online scoring path `PpepDaemon` runs in production.
//! [`record_run`] makes such a trace in memory with the golden
//! fixtures' recipe.
//!
//! The tests gate the clean fixture on [`CLEAN_CPI_GATE_PCT`], so a
//! predictor regression fails `cargo test` the moment it lands. Storm
//! traces are scored too, but not gated on accuracy: corrupted
//! measurements *should* blow the error up. There the interesting
//! output is the drift trip-wire firing for the faulted core.

use crate::common::Context;
use crate::fig07_capping::cap_schedule;
use ppep_core::daemon::PpepDaemon;
use ppep_core::resilient::{ResilientDaemon, SupervisorConfig};
use ppep_core::Ppep;
use ppep_dvfs::capping::OneStepCapping;
use ppep_obs::PredictionScorer;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_telemetry::{RecordingPlatform, ReplayPlatform, TraceReader};
use ppep_types::{Error, Result, Watts};
use ppep_workloads::combos::fig7_workload;

/// The clean-trace accuracy gate, percent mean CPI APE. The replayed
/// clean fixture scores a low-single-digit mean (the simulator is the
/// training distribution); 10% leaves headroom for model tweaks while
/// still catching a broken predictor or scoring path outright.
pub const CLEAN_CPI_GATE_PCT: f64 = 10.0;

/// Records a capping run in-memory with the same recipe as the
/// committed golden fixtures (fig. 7 workload, square-wave cap,
/// period 4), under the given fault plan.
///
/// # Errors
///
/// Non-transient daemon errors and a trace that does not parse.
pub fn record_run(
    ctx: &Context,
    ppep: &Ppep,
    steps: usize,
    plan: &FaultPlan,
) -> Result<TraceReader> {
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(ctx.seed));
    sim.load_workload(&fig7_workload(ctx.seed));
    sim.set_fault_plan(plan.clone());
    let recording = RecordingPlatform::new(SimPlatform::new(sim));
    let table = ppep.models().vf_table().clone();
    let controller = OneStepCapping::new(ppep.clone(), cap_schedule(0, 4));
    let inner = PpepDaemon::new(ppep.clone(), recording, controller);
    let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
    for step in 0..steps {
        daemon
            .inner_mut()
            .controller_mut()
            .set_cap(cap_schedule(step, 4));
        daemon.step()?;
    }
    TraceReader::parse(&daemon.inner().platform().trace())
}

/// Replays `trace` under the supervised capping daemon with a scorer
/// attached and returns the final scorer.
///
/// # Errors
///
/// Non-transient replay errors.
pub fn score_trace(ppep: &Ppep, trace: &TraceReader) -> Result<PredictionScorer> {
    let steps = trace.interval_count() + trace.fault_count();
    // Follow the trace's own recorded cap schedule where it has one;
    // fall back to the fixtures' square wave.
    let caps: Vec<Option<Watts>> = trace.decisions().map(|d| d.cap).collect();
    let table = ppep.models().vf_table().clone();
    let controller = OneStepCapping::new(ppep.clone(), cap_schedule(0, 4));
    let replay = ReplayPlatform::new(trace.clone());
    let inner = PpepDaemon::new(ppep.clone(), replay, controller).with_scorer();
    let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
    for step in 0..steps {
        let cap = caps
            .get(step)
            .copied()
            .flatten()
            .unwrap_or_else(|| cap_schedule(step, 4));
        daemon.inner_mut().controller_mut().set_cap(cap);
        daemon.step()?;
    }
    daemon
        .inner()
        .scorer()
        .cloned()
        .ok_or_else(|| Error::InvalidInput("score_trace: scorer vanished".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Scale, DEFAULT_SEED};
    use std::sync::OnceLock;

    fn ctx() -> Context {
        Context::fx8320(Scale::Quick, DEFAULT_SEED)
    }

    /// The quick-scale trained engine, shared so training runs once.
    fn engine() -> &'static Ppep {
        static PPEP: OnceLock<Ppep> = OnceLock::new();
        PPEP.get_or_init(|| Ppep::new(ctx().train_models().expect("training succeeds")))
    }

    fn fixture(name: &str) -> TraceReader {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(name);
        TraceReader::parse(&std::fs::read(path).expect("fixture exists")).expect("fixture parses")
    }

    #[test]
    fn clean_fixture_scores_under_the_gate() {
        let trace = fixture("capping_clean.bin");
        assert_eq!(trace.fault_count(), 0);
        assert_eq!(trace.interval_count(), 12);
        let scorer = score_trace(engine(), &trace).unwrap();
        // 12 intervals -> 11 scored (the first has no staged prediction).
        assert!(
            scorer.power().scored() >= 10,
            "power scored {}",
            scorer.power().scored()
        );
        let mean = scorer.mean_cpi_pct();
        assert!(mean > 0.0, "scoring must have happened");
        assert!(
            mean <= CLEAN_CPI_GATE_PCT,
            "clean-trace mean CPI error {mean:.2}% exceeds the {CLEAN_CPI_GATE_PCT:.1}% gate"
        );
    }

    #[test]
    fn storm_fixture_is_scored_but_never_gated() {
        // Storm errors are the fault injector's doing, not the
        // model's: the fixture is scored, but its mean is not gated.
        let trace = fixture("capping_storm.bin");
        assert!(trace.fault_count() > 0);
        let scorer = score_trace(engine(), &trace).unwrap();
        assert!(scorer.power().scored() > 0);
        // The storm's fault events mean some staged predictions never
        // met a measurement.
        assert!(
            scorer.stale_drops() > 0,
            "stale drops {}",
            scorer.stale_drops()
        );
    }

    #[test]
    fn sustained_storm_trips_the_drift_wire() {
        let ppep = engine();
        // Long enough for the drift detector to arm (min_samples) and
        // a corruption rate high enough that stuck/spiked sensor
        // readings dominate the short error EWMA.
        let plan = FaultPlan::storm(0xF00D, 96, 0.3, 8);
        let trace = record_run(&ctx(), ppep, 96, &plan).unwrap();
        let scorer = score_trace(ppep, &trace).unwrap();
        let trips: u64 = scorer
            .cores()
            .iter()
            .map(|t| t.drift().trips())
            .chain(std::iter::once(scorer.power().drift().trips()))
            .sum();
        assert!(
            trips > 0,
            "a sustained corrupting storm must trip drift (cpi ewma {:.2}%, power ewma {:.2}%)",
            scorer
                .cores()
                .iter()
                .map(|t| t.drift().short_pct())
                .fold(0.0, f64::max),
            scorer.power().drift().short_pct(),
        );
    }

    #[test]
    fn synthesized_clean_run_scores_under_the_gate() {
        let trace = record_run(&ctx(), engine(), 24, &FaultPlan::none()).unwrap();
        assert_eq!(trace.fault_count(), 0);
        assert_eq!(trace.interval_count(), 24);
        let mean = score_trace(engine(), &trace).unwrap().mean_cpi_pct();
        assert!(
            mean > 0.0 && mean <= CLEAN_CPI_GATE_PCT,
            "synthesized clean run: mean CPI error {mean:.2}%"
        );
    }
}
