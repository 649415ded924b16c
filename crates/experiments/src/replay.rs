//! Trace record/replay round trip — the platform-abstraction
//! demonstrator (beyond the paper's figures).
//!
//! A supervised Fig. 7 capping run (with a mild fault storm, so the
//! degraded paths are exercised) executes twice:
//!
//! 1. **Record** — the daemon drives a live [`SimPlatform`] wrapped in
//!    a [`RecordingPlatform`], which streams every sample, fault,
//!    applied assignment, and controller decision into a v2 binary
//!    trace.
//! 2. **Replay** — a fresh daemon with the same trained engine and
//!    controller drives a [`ReplayPlatform`] built from that trace, in
//!    strict mode: every `apply` must reproduce the recorded
//!    assignment, position by position.
//!
//! Because the trace codes every `f64` bit-exactly, the replayed
//! decisions must be bit-identical to the live run's — any divergence
//! fails the experiment.
//!
//! The run also checks that re-encoding the parsed trace reproduces
//! the recorded bytes, and renders the JSON Lines dump saved next to
//! the document; the test suite gates on the recorded v2 document
//! being at least 5x smaller than that dump.

use crate::common::{Context, Scale};
use crate::fig07_capping::cap_schedule;
use ppep_core::daemon::PpepDaemon;
use ppep_core::resilient::{ResilientDaemon, SupervisorConfig};
use ppep_core::{Platform, Ppep};
use ppep_dvfs::capping::OneStepCapping;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_telemetry::{binary, RecordingPlatform, ReplayPlatform, TraceReader};
use ppep_types::{Error, Result, VfStateId};
use ppep_workloads::combos::fig7_workload;

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Intervals driven in each run.
    pub intervals: usize,
    /// Successful samples in the recorded trace.
    pub trace_intervals: usize,
    /// Faulted samples in the recorded trace.
    pub trace_faults: usize,
    /// Whether the replayed decisions matched the live run's
    /// bit-for-bit (they must).
    pub identical: bool,
    /// The recorded v2 trace document.
    pub trace: Vec<u8>,
    /// The same trace as a JSON Lines dump.
    pub dump: String,
}

impl ReplayResult {
    /// How many times smaller the v2 document is than its JSONL dump.
    pub fn v2_ratio(&self) -> f64 {
        if self.trace.is_empty() {
            0.0
        } else {
            self.dump.len() as f64 / self.trace.len() as f64
        }
    }
}

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
/// This is the shared recording path of the `replay` and
/// `diff-policies` experiments: both want the same live run, one to
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

/// Records a live run and replays it strictly.
///
/// # Errors
///
/// Propagates training errors, non-transient daemon errors,
/// trace decode errors, a lossy re-encode, and strict-replay
/// divergence.
pub fn run(ctx: &Context) -> Result<ReplayResult> {
    let models = ctx.train_models()?;
    let ppep = Ppep::new(models);
    let recorded = record(ctx, &ppep)?;
    let RecordedCapping {
        trace: doc,
        intervals,
        period,
        live_decisions: live,
    } = recorded;

    // Decode, and verify re-encoding reproduces the recorded bytes.
    let trace = TraceReader::parse(&doc)?;
    if binary::encode(&trace) != doc {
        return Err(Error::InvalidInput(
            "v2 trace does not re-encode to the recorded bytes".into(),
        ));
    }
    let dump = trace.to_jsonl();

    // Replay, strictly: every apply must match the recorded one.
    let (trace_intervals, trace_faults) = (trace.interval_count(), trace.fault_count());
    let replay = ReplayPlatform::new(trace).strict();
    let (replayed, _) = drive(&ppep, replay, intervals, period)?;

    Ok(ReplayResult {
        intervals,
        trace_intervals,
        trace_faults,
        identical: live == replayed,
        trace: doc,
        dump,
    })
}

/// Prints the round-trip verdict.
pub fn print(result: &ReplayResult) {
    println!("== Replay: record -> v2 binary -> strict replay round trip ==");
    println!(
        "{} intervals driven; trace holds {} samples + {} faults \
         ({} KiB of JSONL)",
        result.intervals,
        result.trace_intervals,
        result.trace_faults,
        result.dump.len() / 1024,
    );
    println!(
        "v2 binary framing: {} bytes vs {} bytes of JSONL \
         ({:.2}x smaller, lossless)",
        result.trace.len(),
        result.dump.len(),
        result.v2_ratio(),
    );
    println!(
        "replayed decisions {}",
        if result.identical {
            "bit-identical to the live run"
        } else {
            "DIVERGED from the live run"
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::DEFAULT_SEED;

    #[test]
    fn replay_reproduces_the_live_run() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        assert!(r.identical, "replayed decisions must match the live run");
        assert_eq!(r.intervals, 48);
        assert!(r.trace_faults > 0, "the storm must exercise fault lines");
        assert_eq!(r.trace_intervals + r.trace_faults, r.intervals);
        assert!(r.trace.starts_with(&binary::MAGIC));
        assert!(r.dump.lines().count() > r.intervals);
        // The v2 binary framing must deliver at least the 5x size cut
        // it was designed for on this (decision-bearing) trace.
        assert!(
            r.v2_ratio() >= 5.0,
            "v2 must be >=5x smaller than its JSONL dump: dump {} bytes, v2 {} bytes ({:.2}x)",
            r.dump.len(),
            r.trace.len(),
            r.v2_ratio()
        );
    }
}
