//! The platform port: what the PPEP daemon needs from a substrate.
//!
//! The paper's daemon needs exactly three things from the machine it
//! runs on (§II, §IV-E): per-interval observables (counters, sensor
//! power, diode temperature), a way to set each CU's VF state, and the
//! chip's topology/VF ladder. [`Platform`] is that contract. The
//! daemon in `ppep-core` is generic over it; `ppep-sim` provides the
//! simulated adapter (`SimPlatform`), and [`crate::trace`] provides
//! record/replay adapters with no live substrate at all.

use crate::decision::DecisionRecord;
use crate::record::IntervalRecord;
use ppep_obs::RecorderHandle;
use ppep_types::time::IntervalIndex;
use ppep_types::{Result, Topology, VfStateId, VfTable};

/// A measurement-and-actuation substrate the PPEP daemon can drive.
///
/// Implementations must be deterministic given their construction
/// (same platform state + same applied assignments → same samples);
/// the record/replay and fleet-runner machinery rely on it.
pub trait Platform {
    /// Advances one decision interval and returns its measurements.
    ///
    /// # Errors
    ///
    /// Transient measurement faults ([`ppep_types::Error::is_transient`])
    /// mean *this* interval's observables are lost but the platform
    /// stays consistent and the next `sample` proceeds normally.
    /// Non-transient errors mean the substrate is gone.
    fn sample(&mut self) -> Result<IntervalRecord>;

    /// [`Platform::sample`] into a caller-owned record, so a daemon
    /// that keeps its buffer between intervals allocates nothing once
    /// the buffer has grown to the chip's size.
    ///
    /// On success every field of `record` holds this interval's
    /// measurement, whatever the buffer held before. On error its
    /// contents are unspecified; the next successful fill overwrites
    /// them all. The default forwards to [`Platform::sample`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`Platform::sample`].
    fn sample_into(&mut self, record: &mut IntervalRecord) -> Result<()> {
        *record = self.sample()?;
        Ok(())
    }

    /// Attempts an in-interval re-read after a transient
    /// [`Platform::sample`] failure, after waiting out `backoff_us`
    /// microseconds of supervisor backoff.
    ///
    /// Returning `None` means the substrate cannot re-read within the
    /// interval (the default): the supervisor escalates immediately,
    /// exactly as before this hook existed. A live substrate would
    /// sleep for `backoff_us` and re-program the failed sensor/MSR
    /// slot; deterministic substrates (queues, simulators) account the
    /// backoff without sleeping. Recording platforms deliberately keep
    /// the default: the v1/v2 trace formats model one sample per
    /// interval, so retries are disabled while recording to keep
    /// traces replayable.
    fn resample(&mut self, backoff_us: u64) -> Option<Result<IntervalRecord>> {
        let _ = backoff_us;
        None
    }

    /// Applies a per-CU VF assignment, taking effect from the next
    /// interval.
    ///
    /// # Errors
    ///
    /// Returns an error when the assignment names more CUs than the
    /// chip has or a state outside its ladder.
    fn apply(&mut self, assignment: &[VfStateId]) -> Result<()>;

    /// The chip structure behind this platform.
    fn topology(&self) -> &Topology;

    /// The index of the interval the next [`Platform::sample`] call
    /// will measure.
    fn current_interval(&self) -> IntervalIndex;

    /// Routes the platform's internals through an observability
    /// recorder. Recording must never feed back into measurements: a
    /// traced run is bit-identical to an untraced one. The default
    /// implementation ignores the recorder.
    fn set_recorder(&mut self, recorder: RecorderHandle) {
        let _ = recorder;
    }

    /// Whether this platform wants [`Platform::record_decision`]
    /// calls. Daemons use this to skip building [`DecisionRecord`]s
    /// entirely when nobody is recording, so an untraced run does no
    /// extra work (and stays bit-identical to a traced one). The
    /// default is `false`.
    fn wants_decisions(&self) -> bool {
        false
    }

    /// Annotates the trace with a controller decision. Decisions are
    /// pure metadata: they must never influence measurements or
    /// actuation. The default implementation discards the record.
    fn record_decision(&mut self, decision: &DecisionRecord) {
        let _ = decision;
    }

    /// The platform's VF ladder (shorthand for the topology's table).
    fn vf_table(&self) -> &VfTable {
        self.topology().vf_table()
    }

    /// Pins every CU to one state — the failsafe path supervisors use.
    ///
    /// # Errors
    ///
    /// Propagates [`Platform::apply`] errors.
    fn apply_uniform(&mut self, vf: VfStateId) -> Result<()> {
        let assignment = vec![vf; self.topology().cu_count()];
        self.apply(&assignment)
    }
}
