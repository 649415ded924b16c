//! Trace recording for the record/replay and policy-diff harnesses
//! (beyond the paper's figures).
//!
//! [`record`] runs a supervised Fig. 7 capping daemon (with a mild
//! fault storm, so the degraded paths are exercised) over a live
//! [`SimPlatform`] wrapped in a [`RecordingPlatform`], which streams
//! every sample, fault, applied assignment, and controller decision
//! into a v2 binary trace.
//!
//! The tests replay that trace through a fresh daemon on a strict
//! [`ReplayPlatform`](ppep_telemetry::ReplayPlatform): every `apply`
//! must reproduce the recorded assignment, and because the trace codes
//! every `f64` bit-exactly the replayed decisions must be
//! bit-identical to the live run's. They also check that re-encoding
//! the parsed trace reproduces the recorded bytes, and that the v2
//! document is at least 5x smaller than its JSON Lines dump.

use crate::common::{Context, Scale};
use crate::fig07_capping::cap_schedule;
use ppep_core::daemon::PpepDaemon;
use ppep_core::resilient::{ResilientDaemon, SupervisorConfig};
use ppep_core::{Platform, Ppep};
use ppep_dvfs::capping::OneStepCapping;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_telemetry::RecordingPlatform;
use ppep_types::{Result, VfStateId};
use ppep_workloads::combos::fig7_workload;

/// A recorded supervised capping run: the trace plus the run's shape.
#[derive(Debug, Clone)]
pub struct RecordedCapping {
    /// The recorded v2 trace document.
    pub trace: Vec<u8>,
    /// Intervals driven.
    pub intervals: usize,
    /// Cap-schedule period (intervals per cap phase).
    pub period: usize,
    /// The live run's per-interval decisions.
    pub live_decisions: Vec<Vec<VfStateId>>,
}

/// The per-interval decisions of a driven run, plus the daemon (so the
/// caller can take its platform back).
type DrivenRun<P> = (Vec<Vec<VfStateId>>, ResilientDaemon<P, OneStepCapping>);

/// Drives one supervised capping run over `platform`, returning the
/// per-interval decisions and the daemon's platform back.
fn drive<P: Platform>(
    ppep: &Ppep,
    platform: P,
    intervals: usize,
    period: usize,
) -> Result<DrivenRun<P>> {
    let table = ppep.models().vf_table().clone();
    let controller = OneStepCapping::new(ppep.clone(), cap_schedule(0, period));
    let inner = PpepDaemon::new(ppep.clone(), platform, controller);
    let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
    let mut decisions = Vec::with_capacity(intervals);
    for step in 0..intervals {
        daemon
            .inner_mut()
            .controller_mut()
            .set_cap(cap_schedule(step, period));
        decisions.push(daemon.step()?.decision.clone());
    }
    Ok((decisions, daemon))
}

/// Records one supervised Fig. 7 capping run (with the standard mild
/// fault storm) over a live simulator, returning the v2 trace.
///
/// This is the shared recording path of the record/replay and
/// policy-diff harnesses: both want the same live run, one to
/// strict-replay it and one to diff controllers over it.
///
/// # Errors
///
/// Propagates non-transient daemon errors.
pub fn record(ctx: &Context, ppep: &Ppep) -> Result<RecordedCapping> {
    let intervals = match ctx.scale {
        Scale::Full => 240,
        Scale::Quick => 48,
    };
    let period = intervals / 6;
    let cores = ppep.models().topology().core_count();
    let plan = FaultPlan::storm(ctx.seed ^ 0x5EED_7ACE, intervals as u64, 0.05, cores);

    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(ctx.seed));
    sim.load_workload(&fig7_workload(ctx.seed));
    sim.set_fault_plan(plan);
    let recording = RecordingPlatform::new(SimPlatform::new(sim));
    let (live_decisions, daemon) = drive(ppep, recording, intervals, period)?;
    let trace = daemon.inner().platform().trace();
    Ok(RecordedCapping {
        trace,
        intervals,
        period,
        live_decisions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::DEFAULT_SEED;
    use ppep_telemetry::{binary, ReplayPlatform, TraceReader};

    #[test]
    fn replay_reproduces_the_live_run() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let ppep = Ppep::new(ctx.train_models().unwrap());
        let recorded = record(&ctx, &ppep).unwrap();
        assert_eq!(recorded.intervals, 48);
        let doc = &recorded.trace;
        assert!(doc.starts_with(&binary::MAGIC));

        // Re-encoding the parsed trace must reproduce the recorded
        // bytes: the codec is lossless.
        let trace = TraceReader::parse(doc).unwrap();
        assert!(
            binary::encode(&trace) == *doc,
            "v2 trace does not re-encode to the recorded bytes"
        );
        assert!(
            trace.fault_count() > 0,
            "the storm must exercise fault lines"
        );
        assert_eq!(
            trace.interval_count() + trace.fault_count(),
            recorded.intervals
        );
        let dump = trace.to_jsonl();
        assert!(dump.lines().count() > recorded.intervals);
        // The v2 binary framing must deliver at least the 5x size cut
        // it was designed for on this (decision-bearing) trace.
        let ratio = dump.len() as f64 / doc.len() as f64;
        assert!(
            ratio >= 5.0,
            "v2 must be >=5x smaller than its JSONL dump: dump {} bytes, v2 {} bytes ({ratio:.2}x)",
            dump.len(),
            doc.len(),
        );

        // Strict replay: every apply must match the recorded one, and
        // the decisions must be bit-identical to the live run's.
        let replay = ReplayPlatform::new(trace).strict();
        let (replayed, _) = drive(&ppep, replay, recorded.intervals, recorded.period).unwrap();
        assert!(
            recorded.live_decisions == replayed,
            "replayed decisions must match the live run"
        );
    }
}
