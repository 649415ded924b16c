//! Graceful degradation for the PPEP daemon.
//!
//! The paper's daemon assumes its plumbing never lies: every 200 ms
//! the Hall sensor, the thermal diode, and the virtual MSRs deliver a
//! clean [`IntervalRecord`]. On real machines they do not (see
//! `ppep_sim::fault`), and a naive daemon either aborts on the first
//! read error or — worse — feeds a NaN diode reading straight into
//! its temperature-dependent power model and emits garbage VF
//! decisions. [`ResilientDaemon`] wraps [`PpepDaemon`] with a
//! three-state supervisor:
//!
//! * **Healthy** — measurements validate, decisions are fresh. The
//!   healthy path performs *exactly* the unsupervised daemon's
//!   project → decide → apply sequence, so with no faults injected a
//!   supervised run is bit-identical to an unsupervised one.
//! * **Degraded** — a measurement was lost (transient error) or
//!   quarantined (implausible observables). The supervisor holds the
//!   last good projection and lets the controller re-decide on it, so
//!   DVFS stays live through the glitch. [`SupervisorConfig::recovery_streak`]
//!   consecutive good intervals restore Healthy.
//! * **Failsafe** — faults persisted past
//!   [`SupervisorConfig::max_consecutive_faults`] (or struck before
//!   any good measurement existed). The chip is pinned to a
//!   configured safe VF state until measurements return.
//!
//! Every interval is logged in a [`HealthReport`];
//! [`HealthReport::decision_availability`] is the headline resilience
//! metric: the fraction of intervals for which the daemon still made
//! an informed (fresh or held) DVFS decision.

use crate::daemon::{DvfsController, PpepDaemon};
use crate::ppe::PpeProjection;
use ppep_obs::Stage;
use ppep_telemetry::{IntervalRecord, Platform};
use ppep_types::time::IntervalIndex;
use ppep_types::vf::NbVfState;
use ppep_types::{Error, Kelvin, Result, VfStateId};

/// Bounded retry/backoff for transient sample failures.
///
/// A transient fault ([`ppep_types::Error::is_transient`]) used to
/// start the degradation ladder immediately — a single flaky MSR read
/// cost a fresh decision. With a retry policy the supervisor first
/// asks the platform to re-read via [`Platform::resample`], waiting
/// out a capped exponential backoff per attempt
/// (`base_backoff_us << attempt`, clamped to `max_backoff_us`).
/// Escalation to Degraded happens only after the attempts are
/// exhausted — or immediately on substrates that cannot re-read
/// within the interval (`resample` returning `None`, the default), so
/// simulator, recording, and replay runs are bit-identical to the
/// pre-retry behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// In-interval re-read attempts after a transient sample failure.
    /// Zero disables retrying entirely.
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds.
    pub base_backoff_us: u64,
    /// Ceiling on any single backoff, in microseconds. Keeps the
    /// total retry budget well inside one 200 ms interval.
    pub max_backoff_us: u64,
}

impl RetryPolicy {
    /// Defaults: two re-reads, 200 µs initial backoff, 5 ms cap —
    /// worst case under 11 ms of a 200 ms interval.
    pub fn new() -> Self {
        Self {
            max_attempts: 2,
            base_backoff_us: 200,
            max_backoff_us: 5_000,
        }
    }

    /// A policy that never retries (the pre-PR-6 behavior).
    pub fn disabled() -> Self {
        Self {
            max_attempts: 0,
            ..Self::new()
        }
    }

    /// The backoff before zero-based retry `attempt`, capped.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        let factor = 1u64 << attempt.min(63);
        self.base_backoff_us
            .saturating_mul(factor)
            .min(self.max_backoff_us)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// Tunables of the degradation supervisor.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Consecutive faulted intervals tolerated (holding the last good
    /// projection) before entering Failsafe.
    pub max_consecutive_faults: u32,
    /// Consecutive good intervals required to return from Degraded to
    /// Healthy.
    pub recovery_streak: u32,
    /// The safe VF state pinned while in Failsafe (typically the
    /// lowest: thermally and electrically safest).
    pub failsafe_vf: VfStateId,
    /// A measured power more than this factor away (either direction)
    /// from the last good interval's is quarantined as implausible.
    pub power_outlier_factor: f64,
    /// Diode readings below this are quarantined.
    pub min_plausible_temperature: Kelvin,
    /// Diode readings above this are quarantined.
    pub max_plausible_temperature: Kelvin,
    /// In-interval retry policy for transient sample failures.
    pub retry: RetryPolicy,
    /// When the inner daemon's accuracy scorer reports drift
    /// (short-window prediction error well above the run's own
    /// baseline — see `ppep_obs::DriftDetector`), treat the interval
    /// like a soft fault: reset the recovery streak and hold the
    /// supervisor in Degraded. Decisions themselves are untouched.
    /// Off by default, and inert unless a scorer is installed, so
    /// existing runs stay bit-identical.
    pub degrade_on_drift: bool,
}

impl SupervisorConfig {
    /// Defaults for an FX-8320-class chip: three strikes to Failsafe,
    /// two clean intervals to recover, 4× power outlier gate, diode
    /// plausible within 250–450 K.
    pub fn new(failsafe_vf: VfStateId) -> Self {
        Self {
            max_consecutive_faults: 3,
            recovery_streak: 2,
            failsafe_vf,
            power_outlier_factor: 4.0,
            min_plausible_temperature: Kelvin::new(250.0),
            max_plausible_temperature: Kelvin::new(450.0),
            retry: RetryPolicy::new(),
            degrade_on_drift: false,
        }
    }
}

/// The supervisor's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Measurements validate; decisions are fresh.
    Healthy,
    /// Recent faults; decisions held from the last good projection.
    Degraded,
    /// Persistent faults; the chip is pinned to the safe VF state.
    Failsafe,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::Failsafe => write!(f, "failsafe"),
        }
    }
}

/// What the supervisor did for one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fresh decision from a validated measurement.
    Fresh,
    /// Controller re-decided on the held last-good projection.
    Held,
    /// The safe VF state was pinned.
    Failsafe,
}

/// One supervised interval's outcome.
#[derive(Debug, Clone)]
pub struct SupervisedStep {
    /// Zero-based index of this supervised interval.
    pub interval: u64,
    /// What the supervisor did.
    pub action: Action,
    /// Supervisor state *after* handling this interval.
    pub state: HealthState,
    /// The measurement, when one was produced. Present for fresh
    /// decisions and for quarantined (corrupt but delivered) records;
    /// absent when the interval errored out.
    pub record: Option<IntervalRecord>,
    /// The projection a fresh decision was computed from.
    pub projection: Option<PpeProjection>,
    /// The per-CU VF assignment applied for the next interval.
    pub decision: Vec<VfStateId>,
    /// The fault that forced degraded handling, if any.
    pub fault: Option<Error>,
    /// Whether a delivered record was rejected by validation.
    pub quarantined: bool,
}

impl SupervisedStep {
    /// A step buffer before its first fill: no record, no projection,
    /// no decision.
    fn empty() -> Self {
        Self {
            interval: 0,
            action: Action::Failsafe,
            state: HealthState::Healthy,
            record: None,
            projection: None,
            decision: Vec::new(),
            fault: None,
            quarantined: false,
        }
    }
}

/// Cumulative health bookkeeping over a supervised run.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Intervals supervised.
    pub intervals: u64,
    /// Intervals with a fresh decision.
    pub fresh_decisions: u64,
    /// Intervals with a held (last-good) decision.
    pub held_decisions: u64,
    /// Intervals spent pinning the failsafe VF.
    pub failsafe_intervals: u64,
    /// Delivered records rejected by validation.
    pub quarantined: u64,
    /// Transient measurement errors absorbed (after any retries).
    pub transient_errors: u64,
    /// In-interval re-read attempts made for transient failures.
    pub retries: u64,
    /// Retries that recovered a good measurement (the interval stayed
    /// fresh instead of starting the degradation ladder).
    pub retry_successes: u64,
    /// Total retry backoff accounted, in microseconds.
    pub retry_backoff_us: u64,
    /// State transitions as (interval, new state) pairs.
    pub transitions: Vec<(u64, HealthState)>,
    /// The most recent fault absorbed or surfaced.
    pub last_error: Option<Error>,
}

impl HealthReport {
    /// Fraction of intervals with an informed (fresh or held) DVFS
    /// decision — the headline resilience metric. 1.0 for an empty
    /// run.
    pub fn decision_availability(&self) -> f64 {
        if self.intervals == 0 {
            return 1.0;
        }
        (self.fresh_decisions + self.held_decisions) as f64 / self.intervals as f64
    }
}

/// A [`PpepDaemon`] wrapped in the degradation supervisor.
///
/// ```no_run
/// use ppep_core::prelude::*;
/// use ppep_core::resilient::{ResilientDaemon, SupervisorConfig};
/// use ppep_rig::TrainingRig;
/// use ppep_sim::fault::FaultPlan;
///
/// let models = TrainingRig::fx8320(42).train_quick().expect("training succeeds");
/// let table = models.vf_table().clone();
/// let mut sim = ppep_sim::ChipSimulator::new(ppep_sim::chip::SimConfig::fx8320(42));
/// sim.load_workload(&ppep_workloads::combos::instances("433.milc", 4, 42));
/// sim.set_fault_plan(FaultPlan::storm(7, 50, 0.2, 8));
/// let platform = ppep_sim::SimPlatform::new(sim);
/// let daemon =
///     PpepDaemon::new(Ppep::new(models), platform, StaticController { vf: table.lowest() });
/// let mut supervised =
///     ResilientDaemon::new(daemon, SupervisorConfig::new(table.lowest()));
/// let steps = supervised.run(50).expect("no fatal faults");
/// assert_eq!(steps.len(), 50);
/// println!("availability: {:.2}", supervised.report().decision_availability());
/// ```
///
/// A healthy interval allocates nothing once the buffers below have
/// grown to the chip's size: the daemon owns two step buffers, fills
/// one in place and swaps it with the other on a fresh decision, and
/// [`step`](Self::step) lends the result out instead of returning a
/// copy (DESIGN §13.5).
pub struct ResilientDaemon<P: Platform, C: DvfsController> {
    inner: PpepDaemon<P, C>,
    config: SupervisorConfig,
    state: HealthState,
    consecutive_faults: u32,
    good_streak: u32,
    /// The step the last held or failsafe interval built, or, after a
    /// fresh one, the buffers of the step it replaced as `last_good`.
    out: SupervisedStep,
    /// The last fresh step. A fresh interval fills `out` and swaps the
    /// two, so its record, projection and decision are never cloned.
    last_good: Option<SupervisedStep>,
    /// Record and projection buffers no step currently shows. Each
    /// step moves the ones `out` still holds here first, then takes
    /// what it fills from here, so a faulted interval keeps them for
    /// the next fresh one instead of dropping them.
    spare_record: Option<IntervalRecord>,
    spare_projection: Option<PpeProjection>,
    report: HealthReport,
}

impl<P: Platform, C: DvfsController> ResilientDaemon<P, C> {
    /// Wraps a daemon in the supervisor.
    pub fn new(inner: PpepDaemon<P, C>, config: SupervisorConfig) -> Self {
        Self {
            inner,
            config,
            state: HealthState::Healthy,
            consecutive_faults: 0,
            good_streak: 0,
            out: SupervisedStep::empty(),
            last_good: None,
            spare_record: None,
            spare_projection: None,
            report: HealthReport::default(),
        }
    }

    /// The wrapped daemon.
    pub fn inner(&self) -> &PpepDaemon<P, C> {
        &self.inner
    }

    /// The wrapped daemon, mutably (e.g. to load workloads or install
    /// a fault plan on its chip).
    pub fn inner_mut(&mut self) -> &mut PpepDaemon<P, C> {
        &mut self.inner
    }

    /// Unwraps the supervisor.
    pub fn into_inner(self) -> PpepDaemon<P, C> {
        self.inner
    }

    /// The current supervisor state.
    pub fn health_state(&self) -> HealthState {
        self.state
    }

    /// The cumulative health report.
    pub fn report(&self) -> &HealthReport {
        &self.report
    }

    /// The last fresh step (validated record, finite projection, and
    /// the decision made from them), if any.
    pub fn last_good(&self) -> Option<&SupervisedStep> {
        self.last_good.as_ref()
    }

    fn enter(&mut self, state: HealthState) {
        if self.state != state {
            self.state = state;
            self.report.transitions.push((self.report.intervals, state));
            let rec = self.inner.recorder();
            if rec.enabled() {
                rec.event(&format!("health.{state}"), self.report.intervals);
                rec.incr("health.transitions");
            }
        }
    }

    /// Why a delivered record cannot be trusted, if anything.
    fn validation_fault(&self, record: &IntervalRecord) -> Option<Error> {
        let p = record.measured_power.as_watts();
        if !p.is_finite() || p < 0.0 {
            return Some(Error::SensorImplausible {
                sensor: "hall-sensor",
                value: p,
            });
        }
        let t = record.temperature.as_kelvin();
        if !t.is_finite()
            || t < self.config.min_plausible_temperature.as_kelvin()
            || t > self.config.max_plausible_temperature.as_kelvin()
        {
            return Some(Error::SensorImplausible {
                sensor: "thermal-diode",
                value: t,
            });
        }
        if let Some(good) = self.last_good.as_ref().and_then(|g| g.record.as_ref()) {
            let base = good.measured_power.as_watts();
            let f = self.config.power_outlier_factor;
            if base > 0.0 && (p > base * f || p < base / f) {
                return Some(Error::SensorImplausible {
                    sensor: "hall-sensor",
                    value: p,
                });
            }
        }
        None
    }

    /// Runs one supervised interval and lends out its outcome.
    ///
    /// Transient measurement faults and quarantined records are
    /// absorbed into degraded handling and never surface as errors.
    /// The returned step borrows the daemon's buffers, which the next
    /// call refills; clone it to keep it (as [`run`](Self::run) does).
    ///
    /// # Errors
    ///
    /// Non-transient errors (controller bugs, lost devices) pin the
    /// failsafe VF and propagate.
    pub fn step(&mut self) -> Result<&SupervisedStep> {
        let interval = self.report.intervals;
        self.report.intervals += 1;
        let rec = self.inner.recorder().clone();
        let measuring = self.inner.platform().current_interval().0;
        reclaim(&mut self.out.record, &mut self.spare_record);
        reclaim(&mut self.out.projection, &mut self.spare_projection);
        let mut record = self.spare_record.take().unwrap_or_default();
        let mut measured = {
            let _sample = rec.span(Stage::Sample, measuring);
            self.inner.platform_mut().sample_into(&mut record)
        };
        // A transient failure gets bounded in-interval retries before
        // the degradation ladder starts. Substrates whose `resample`
        // returns `None` (simulator, record/replay — the default)
        // escalate immediately, exactly as before retries existed.
        if matches!(&measured, Err(e) if e.is_transient()) {
            for attempt in 0..self.config.retry.max_attempts {
                let backoff = self.config.retry.backoff_us(attempt);
                let sample_span = rec.span(Stage::Sample, measuring);
                let retried = self.inner.platform_mut().resample(backoff);
                let Some(retried) = retried else {
                    // The substrate declined: nothing was sampled, so
                    // recording the span would misstate the pipeline.
                    sample_span.dismiss();
                    break;
                };
                drop(sample_span);
                self.report.retries += 1;
                self.report.retry_backoff_us += backoff;
                rec.incr("fault.retry");
                match retried {
                    Ok(retried) => {
                        self.report.retry_successes += 1;
                        rec.incr("fault.retry_recovered");
                        record = retried;
                        measured = Ok(());
                        break;
                    }
                    Err(e) if e.is_transient() => measured = Err(e),
                    Err(e) => {
                        // Escalated to fatal mid-retry: stop probing a
                        // lost substrate.
                        measured = Err(e);
                        break;
                    }
                }
            }
        }
        match measured {
            Ok(()) => match self.validation_fault(&record) {
                None => self.fresh(interval, record),
                Some(fault) => {
                    self.report.quarantined += 1;
                    rec.incr("fault.detected");
                    rec.incr("fault.quarantined");
                    rec.event("fault.quarantined", interval);
                    self.degraded(interval, Some(record), fault, true)
                }
            },
            Err(e) if e.is_transient() => {
                self.spare_record = Some(record);
                self.report.transient_errors += 1;
                rec.incr("fault.detected");
                rec.incr("fault.transient");
                self.degraded(interval, None, e, false)
            }
            Err(e) => {
                self.spare_record = Some(record);
                // Fatal: pin the safe state before surfacing. The pin
                // is best-effort — the measurement fault `e` is the
                // error the caller must see, not a secondary actuation
                // failure on an already-lost platform.
                rec.incr("fault.detected");
                rec.incr("fault.fatal");
                // Best-effort pin: the ladder already recorded `e`
                // and the caller sees it, so a secondary actuation
                // error here has nowhere useful to go.
                let _ = self
                    .inner
                    .platform_mut()
                    .apply_uniform(self.config.failsafe_vf); // ppep-lint: allow(dropped-transient)
                self.enter(HealthState::Failsafe);
                self.report.last_error = Some(e.clone());
                Err(e)
            }
        }
    }

    /// The healthy path: project into the spare buffer, check the
    /// projection is finite, decide through the unsupervised daemon's
    /// own [`PpepDaemon::decide_fresh`], apply, then do the recovery
    /// bookkeeping. Fills `out` in place and swaps it with
    /// `last_good`.
    fn fresh(&mut self, interval: u64, record: IntervalRecord) -> Result<&SupervisedStep> {
        let rec = self.inner.recorder().clone();
        self.inner.score_measurement(&record);
        let mut projection = self.spare_projection.take().unwrap_or_default();
        self.inner
            .ppep()
            .project_into(&record, NbVfState::High, &mut projection)?;
        if !projection_is_finite(&projection) {
            // A validated record still produced a non-finite
            // projection: never act on it, never emit it.
            self.spare_projection = Some(projection);
            self.report.quarantined += 1;
            rec.incr("fault.detected");
            rec.incr("fault.quarantined");
            rec.event("fault.quarantined", interval);
            let fault = Error::SensorImplausible {
                sensor: "projection",
                value: f64::NAN,
            };
            return self.degraded(interval, Some(record), fault, true);
        }
        self.inner
            .decide_fresh(interval, &record, &projection, &mut self.out.decision)?;
        // Hand out everything that reads the projection *before*
        // actuation: it models the pre-apply VF state, so the step's
        // fields must be set here (ppep-lint L5 enforces the
        // ordering). Only the decision — which is what `apply`
        // realizes — is read past the apply span.
        self.out.record = Some(record);
        self.out.projection = Some(projection);
        {
            let _apply = rec.span(Stage::Apply, interval);
            self.inner.apply(&self.out.decision)?;
        }

        self.consecutive_faults = 0;
        self.good_streak += 1;
        match self.state {
            HealthState::Healthy => {}
            HealthState::Failsafe => {
                // One good measurement is hope, not health.
                self.good_streak = 1;
                self.enter(HealthState::Degraded);
            }
            HealthState::Degraded => {
                if self.good_streak >= self.config.recovery_streak {
                    self.enter(HealthState::Healthy);
                }
            }
        }
        // Optional drift supervision: sustained prediction error keeps
        // the supervisor in Degraded (measurements and decisions are
        // fine — the *models* are suspect), never Failsafe.
        if self.config.degrade_on_drift && self.inner.scorer().is_some_and(|s| s.drifted()) {
            self.good_streak = 0;
            if self.state == HealthState::Healthy {
                let recorder = self.inner.recorder();
                if recorder.enabled() {
                    recorder.event("accuracy.drift_degrade", interval);
                }
            }
            self.enter(HealthState::Degraded);
        }
        self.report.fresh_decisions += 1;
        let out = &mut self.out;
        out.interval = interval;
        out.action = Action::Fresh;
        out.state = self.state;
        out.fault = None;
        out.quarantined = false;
        // The fresh step becomes the last good one; the buffers it
        // replaces are refilled by the next interval.
        let good = self.last_good.get_or_insert_with(SupervisedStep::empty);
        std::mem::swap(out, good);
        Ok(good)
    }

    /// The degraded path: hold the last good projection if we can,
    /// pin the failsafe VF if we cannot (no history, or too many
    /// consecutive faults).
    fn degraded(
        &mut self,
        interval: u64,
        record: Option<IntervalRecord>,
        fault: Error,
        quarantined: bool,
    ) -> Result<&SupervisedStep> {
        self.consecutive_faults += 1;
        self.good_streak = 0;
        self.report.last_error = Some(fault.clone());

        let exhausted = self.consecutive_faults >= self.config.max_consecutive_faults;
        let pinned = exhausted || self.state == HealthState::Failsafe;
        let held = self
            .last_good
            .as_ref()
            .and_then(|g| g.projection.as_ref())
            .filter(|_| !pinned);
        let action = if let Some(held) = held {
            let rec = self.inner.recorder().clone();
            {
                let _decide = rec.span(Stage::Decide, interval);
                self.inner
                    .controller_mut()
                    .decide_into(held, &mut self.out.decision)?;
            }
            // Annotated with the *supervised* interval counter and no
            // realized power: the measurement for this interval was
            // lost or quarantined, the decision priced on held state.
            self.inner.note_decision(
                IntervalIndex(interval),
                None,
                Some(held),
                &self.out.decision,
            );
            {
                let _apply = rec.span(Stage::Apply, interval);
                self.inner.apply(&self.out.decision)?;
            }
            self.enter(HealthState::Degraded);
            self.report.held_decisions += 1;
            Action::Held
        } else {
            let cu_count = self.inner.platform().topology().cu_count();
            let decision = &mut self.out.decision;
            decision.clear();
            decision.resize(cu_count, self.config.failsafe_vf);
            self.inner
                .note_decision(IntervalIndex(interval), None, None, decision);
            self.inner
                .platform_mut()
                .apply_uniform(self.config.failsafe_vf)?;
            self.enter(if pinned {
                HealthState::Failsafe
            } else {
                HealthState::Degraded
            });
            self.report.failsafe_intervals += 1;
            Action::Failsafe
        };
        let out = &mut self.out;
        out.interval = interval;
        out.action = action;
        out.state = self.state;
        out.record = record;
        out.projection = None;
        out.fault = Some(fault);
        out.quarantined = quarantined;
        Ok(out)
    }

    /// Runs `n` supervised intervals, keeping an owned copy of each.
    ///
    /// # Errors
    ///
    /// Stops at the first non-transient error (transient faults are
    /// absorbed, so with the fault kinds in `ppep_sim::fault` a run
    /// always completes).
    pub fn run(&mut self, n: usize) -> Result<Vec<SupervisedStep>> {
        (0..n).map(|_| self.step().cloned()).collect()
    }
}

/// Moves a buffer the previous step handed out back to its spare slot.
fn reclaim<T>(handed_out: &mut Option<T>, spare: &mut Option<T>) {
    if handed_out.is_some() {
        *spare = handed_out.take();
    }
}

/// Whether every emitted number in a projection is finite.
fn projection_is_finite(p: &PpeProjection) -> bool {
    p.temperature.as_kelvin().is_finite()
        && p.work_instructions.is_finite()
        && p.chip.iter().all(|c| {
            c.power.as_watts().is_finite()
                && c.nb_power.as_watts().is_finite()
                && c.ips.is_finite()
                && c.time_for_work.as_secs().is_finite()
                && c.energy.as_joules().is_finite()
                && c.edp.is_finite()
        })
        && p.cores.iter().all(|core| {
            core.per_vf.iter().all(|v| {
                v.dynamic_power.as_watts().is_finite() && v.ips.is_finite() && v.cpi.is_finite()
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::StaticController;
    use crate::framework::Ppep;
    use ppep_rig::TrainingRig;
    use ppep_sim::chip::{ChipSimulator, SimConfig};
    use ppep_sim::fault::{FaultKind, FaultPlan};
    use ppep_sim::SimPlatform;
    use ppep_types::VfTable;
    use ppep_workloads::combos::instances;
    use std::sync::OnceLock;

    fn engine() -> Ppep {
        static MODELS: OnceLock<ppep_models::trainer::TrainedModels> = OnceLock::new();
        Ppep::new(
            MODELS
                .get_or_init(|| {
                    TrainingRig::fx8320(42)
                        .train_quick()
                        .expect("training succeeds")
                })
                .clone(),
        )
    }

    fn daemon(seed: u64, plan: FaultPlan) -> ResilientDaemon<SimPlatform, StaticController> {
        let ppep = engine();
        let table = ppep.models().vf_table().clone();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(seed));
        sim.load_workload(&instances("433.milc", 4, seed));
        sim.set_fault_plan(plan);
        let inner = PpepDaemon::new(
            ppep,
            SimPlatform::new(sim),
            StaticController { vf: table.lowest() },
        );
        ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()))
    }

    #[test]
    fn healthy_run_is_bit_identical_to_unsupervised() {
        let ppep = engine();
        let table = ppep.models().vf_table().clone();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&instances("433.milc", 4, 42));
        let mut plain = PpepDaemon::new(
            ppep.clone(),
            SimPlatform::new(sim),
            StaticController { vf: table.lowest() },
        );
        let plain_steps = plain.run(8).into_result().unwrap();

        let mut supervised = daemon(42, FaultPlan::none());
        let steps = supervised.run(8).expect("no faults, no errors");

        assert_eq!(supervised.health_state(), HealthState::Healthy);
        assert_eq!(supervised.report().fresh_decisions, 8);
        assert_eq!(supervised.report().quarantined, 0);
        for (s, p) in steps.iter().zip(&plain_steps) {
            assert_eq!(s.action, Action::Fresh);
            let r = s.record.as_ref().expect("fresh steps carry records");
            assert_eq!(
                r.measured_power, p.record.measured_power,
                "interval {}",
                s.interval
            );
            assert_eq!(r.temperature, p.record.temperature);
            assert_eq!(r.cu_vf, p.record.cu_vf);
            assert_eq!(s.decision, p.decision);
            assert_eq!(
                s.projection.as_ref().expect("fresh projection"),
                &p.projection
            );
        }
    }

    #[test]
    fn transient_fault_holds_last_good_and_recovers() {
        let plan = FaultPlan::none().with(3, FaultKind::SensorDropout);
        let mut d = daemon(42, plan);
        let steps = d.run(7).expect("dropout is absorbed");
        assert_eq!(steps[3].action, Action::Held);
        assert_eq!(steps[3].state, HealthState::Degraded);
        assert!(
            steps[3].record.is_none(),
            "the dropped interval has no record"
        );
        assert!(steps[3].fault.as_ref().unwrap().is_transient());
        // The held decision still pins the controller's choice.
        assert_eq!(steps[3].decision, steps[2].decision);
        // Two clean intervals later the daemon is healthy again.
        assert_eq!(steps[4].state, HealthState::Degraded);
        assert_eq!(steps[5].state, HealthState::Healthy);
        assert_eq!(d.report().held_decisions, 1);
        assert_eq!(d.report().transient_errors, 1);
        assert!((d.report().decision_availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nan_diode_reading_is_quarantined_not_projected() {
        let plan = FaultPlan::none().with(2, FaultKind::ThermalNan);
        let mut d = daemon(42, plan);
        let steps = d.run(5).expect("corruption is absorbed");
        let s = &steps[2];
        assert!(s.quarantined);
        assert_eq!(s.action, Action::Held);
        assert!(
            s.record.as_ref().unwrap().temperature.as_kelvin().is_nan(),
            "the corrupt record is preserved for inspection"
        );
        assert!(
            s.projection.is_none(),
            "no projection is computed from a NaN diode"
        );
        assert_eq!(d.report().quarantined, 1);
    }

    #[test]
    fn persistent_faults_escalate_to_failsafe_then_recover() {
        let mut plan = FaultPlan::none();
        for i in 2..7 {
            plan = plan.with(i, FaultKind::SensorDropout);
        }
        let mut d = daemon(42, plan);
        let steps = d.run(10).expect("all faults transient");
        // Faults at 2,3 hold; the third consecutive fault (4) trips
        // failsafe; 5 and 6 re-pin.
        assert_eq!(steps[2].action, Action::Held);
        assert_eq!(steps[3].action, Action::Held);
        assert_eq!(steps[4].action, Action::Failsafe);
        assert_eq!(steps[4].state, HealthState::Failsafe);
        assert_eq!(steps[5].action, Action::Failsafe);
        assert_eq!(steps[6].state, HealthState::Failsafe);
        // Failsafe pinned the safe VF on the chip.
        let table = VfTable::fx8320();
        assert_eq!(
            steps[7].record.as_ref().unwrap().cu_vf,
            vec![table.lowest(); 4]
        );
        // First good interval: hope (Degraded); second: Healthy.
        assert_eq!(steps[7].state, HealthState::Degraded);
        assert_eq!(steps[8].state, HealthState::Healthy);
        assert_eq!(d.report().failsafe_intervals, 3);
        let transitions: Vec<HealthState> =
            d.report().transitions.iter().map(|(_, s)| *s).collect();
        assert_eq!(
            transitions,
            vec![
                HealthState::Degraded,
                HealthState::Failsafe,
                HealthState::Degraded,
                HealthState::Healthy
            ]
        );
    }

    #[test]
    fn fault_before_any_history_pins_failsafe_vf() {
        let plan = FaultPlan::none().with(0, FaultKind::SensorDropout);
        let mut d = daemon(42, plan);
        let steps = d.run(3).expect("absorbed");
        // With no last-good projection there is nothing to hold:
        // the safe VF is pinned even though only one fault struck.
        assert_eq!(steps[0].action, Action::Failsafe);
        assert_eq!(steps[0].state, HealthState::Degraded);
        let table = VfTable::fx8320();
        assert_eq!(
            steps[1].record.as_ref().unwrap().cu_vf,
            vec![table.lowest(); 4]
        );
    }

    #[test]
    fn storm_keeps_decisions_available() {
        let plan = FaultPlan::storm(9, 40, 0.25, 8);
        assert!(!plan.is_empty());
        let mut d = daemon(42, plan);
        let steps = d.run(40).expect("storm is survivable");
        assert_eq!(steps.len(), 40, "the supervised daemon never aborts");
        let report = d.report();
        assert!(
            report.transient_errors + report.quarantined > 0,
            "the storm must bite"
        );
        assert!(
            report.decision_availability() >= 0.9,
            "availability {:.3} under storm",
            report.decision_availability()
        );
        // Every emitted projection is finite.
        for s in &steps {
            if let Some(p) = &s.projection {
                assert!(super::projection_is_finite(p));
            }
        }
    }

    /// A substrate whose first read flakes on chosen intervals but
    /// that *can* re-read in-interval: `sample` stashes the real
    /// record and fails; `resample` serves it once the configured
    /// number of additional failures is exhausted.
    struct FlakyPlatform {
        inner: SimPlatform,
        fail_at: Vec<u64>,
        failures_per_retry_burst: u32,
        pending: Option<IntervalRecord>,
        remaining_failures: u32,
        backoffs: Vec<u64>,
    }

    impl FlakyPlatform {
        fn new(inner: SimPlatform, fail_at: Vec<u64>, failures_per_retry_burst: u32) -> Self {
            Self {
                inner,
                fail_at,
                failures_per_retry_burst,
                pending: None,
                remaining_failures: 0,
                backoffs: Vec::new(),
            }
        }
    }

    impl Platform for FlakyPlatform {
        fn sample(&mut self) -> Result<IntervalRecord> {
            let idx = self.inner.current_interval().0;
            let record = self.inner.sample()?;
            if self.fail_at.contains(&idx) {
                self.pending = Some(record);
                self.remaining_failures = self.failures_per_retry_burst;
                return Err(Error::SensorDropout {
                    sensor: "hall-sensor",
                });
            }
            Ok(record)
        }

        fn resample(&mut self, backoff_us: u64) -> Option<Result<IntervalRecord>> {
            self.backoffs.push(backoff_us);
            if self.remaining_failures > 0 {
                self.remaining_failures -= 1;
                return Some(Err(Error::SensorDropout {
                    sensor: "hall-sensor",
                }));
            }
            self.pending.take().map(Ok)
        }

        fn apply(&mut self, assignment: &[ppep_types::VfStateId]) -> Result<()> {
            self.inner.apply(assignment)
        }

        fn topology(&self) -> &ppep_types::Topology {
            self.inner.topology()
        }

        fn current_interval(&self) -> IntervalIndex {
            self.inner.current_interval()
        }
    }

    fn flaky_daemon(
        fail_at: Vec<u64>,
        failures_per_retry_burst: u32,
        config: SupervisorConfig,
    ) -> ResilientDaemon<FlakyPlatform, StaticController> {
        let ppep = engine();
        let table = ppep.models().vf_table().clone();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&instances("433.milc", 4, 42));
        let platform = FlakyPlatform::new(SimPlatform::new(sim), fail_at, failures_per_retry_burst);
        let inner = PpepDaemon::new(ppep, platform, StaticController { vf: table.lowest() });
        ResilientDaemon::new(inner, config)
    }

    #[test]
    fn transient_failure_is_retried_before_degrading() {
        let table = VfTable::fx8320();
        // Interval 3 flakes once; the first re-read succeeds.
        let mut d = flaky_daemon(vec![3], 0, SupervisorConfig::new(table.lowest()));
        let steps = d.run(6).expect("retry absorbs the flake");
        assert!(
            steps.iter().all(|s| s.action == Action::Fresh),
            "a recovered retry must not start the degradation ladder"
        );
        assert_eq!(d.health_state(), HealthState::Healthy);
        let report = d.report();
        assert_eq!(report.fresh_decisions, 6);
        assert_eq!(report.held_decisions, 0);
        assert_eq!(report.transient_errors, 0, "the fault was absorbed");
        assert_eq!(report.retries, 1);
        assert_eq!(report.retry_successes, 1);
        assert_eq!(report.retry_backoff_us, 200, "one base backoff");
        assert!(report.transitions.is_empty());
    }

    #[test]
    fn retries_are_bounded_and_backoff_is_capped() {
        let table = VfTable::fx8320();
        let mut config = SupervisorConfig::new(table.lowest());
        config.retry = RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 4_000,
            max_backoff_us: 5_000,
        };
        // Interval 2 flakes and every re-read fails too.
        let mut d = flaky_daemon(vec![2], u32::MAX, config);
        let steps = d.run(5).expect("still only transient faults");
        assert_eq!(steps[2].action, Action::Held, "exhausted retries degrade");
        assert_eq!(steps[2].state, HealthState::Degraded);
        let report = d.report();
        assert_eq!(report.retries, 4, "attempts stop at max_attempts");
        assert_eq!(report.retry_successes, 0);
        assert_eq!(report.transient_errors, 1);
        // Exponential from 4 ms, clamped at the 5 ms ceiling.
        assert_eq!(
            d.inner().platform().backoffs,
            vec![4_000, 5_000, 5_000, 5_000]
        );
    }

    #[test]
    fn disabled_retry_policy_matches_pre_retry_behavior() {
        let table = VfTable::fx8320();
        let mut config = SupervisorConfig::new(table.lowest());
        config.retry = RetryPolicy::disabled();
        let mut d = flaky_daemon(vec![3], 0, config);
        let steps = d.run(6).expect("absorbed");
        assert_eq!(steps[3].action, Action::Held);
        let report = d.report();
        assert_eq!(report.retries, 0);
        assert_eq!(report.transient_errors, 1);
        assert_eq!(d.inner().platform().backoffs, Vec::<u64>::new());
    }

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_us: 100,
            max_backoff_us: 1_000,
        };
        let schedule: Vec<u64> = (0..5).map(|a| p.backoff_us(a)).collect();
        assert_eq!(schedule, vec![100, 200, 400, 800, 1_000]);
        // Absurd attempt numbers saturate instead of overflowing.
        assert_eq!(p.backoff_us(200), 1_000);
    }

    #[test]
    fn supervised_runs_are_deterministic() {
        let plan = FaultPlan::storm(5, 20, 0.3, 8);
        let run = |plan: FaultPlan| {
            let mut d = daemon(7, plan);
            d.run(20)
                .expect("survivable")
                .iter()
                .map(|s| (s.action, s.state, s.decision.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(plan.clone()), run(plan));
    }
}
