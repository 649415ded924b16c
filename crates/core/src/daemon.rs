//! The PPEP daemon loop: measure → project → decide → apply.
//!
//! The paper runs PPEP as a user-level daemon with negligible overhead
//! at the 200 ms sampling rate (§IV-E). Here the daemon couples the
//! prediction engine with a [`Platform`] — any substrate that can
//! deliver interval measurements and accept VF assignments — and a
//! pluggable decision algorithm (step 5 of Fig. 5). `ppep-dvfs`
//! provides the policies; `ppep-sim`'s `SimPlatform` and
//! `ppep-telemetry`'s `ReplayPlatform` provide the substrates.

use crate::framework::Ppep;
use crate::ppe::PpeProjection;
use ppep_obs::{PredictionScorer, RecorderHandle, ScorerConfig, Stage};
use ppep_telemetry::{DecisionRecord, IntervalRecord, Platform};
use ppep_types::time::IntervalIndex;
use ppep_types::{Error, Result, VfStateId, Watts};

/// A DVFS decision algorithm: consumes a projection, returns the
/// per-CU VF assignment to apply for the next interval.
pub trait DvfsController {
    /// Decides the next per-CU VF assignment.
    ///
    /// # Errors
    ///
    /// Controllers may fail on malformed projections.
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>>;

    /// [`DvfsController::decide`] into a caller-owned assignment, so a
    /// supervisor that keeps the buffer between intervals need not
    /// allocate a fresh one. On success `decision` holds exactly what
    /// `decide` would return; on error its contents are unspecified.
    /// The default forwards to `decide`; controllers on the hot path
    /// override it to fill the buffer in place.
    ///
    /// # Errors
    ///
    /// Exactly those of [`DvfsController::decide`].
    fn decide_into(
        &mut self,
        projection: &PpeProjection,
        decision: &mut Vec<VfStateId>,
    ) -> Result<()> {
        *decision = self.decide(projection)?;
        Ok(())
    }

    /// The power cap this controller enforces, if any.
    ///
    /// Capping controllers surface their budget here so a recording
    /// daemon can annotate each [`DecisionRecord`] with the cap and a
    /// violation verdict. Policies without a budget (governors, static
    /// pins, energy optimisers) keep the default `None`.
    fn enforced_cap(&self) -> Option<Watts> {
        None
    }

    /// Re-targets the controller's power budget at runtime.
    ///
    /// The multi-tenant budget arbiter uses this to push re-balanced
    /// per-tenant caps into live controllers (a tenant entering
    /// failsafe frees budget; the survivors' caps grow). Policies
    /// without a budget ignore the call — the default.
    fn set_enforced_cap(&mut self, cap: Watts) {
        let _ = cap;
    }
}

impl<C: DvfsController + ?Sized> DvfsController for Box<C> {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        (**self).decide(projection)
    }

    fn decide_into(
        &mut self,
        projection: &PpeProjection,
        decision: &mut Vec<VfStateId>,
    ) -> Result<()> {
        (**self).decide_into(projection, decision)
    }

    fn enforced_cap(&self) -> Option<Watts> {
        (**self).enforced_cap()
    }

    fn set_enforced_cap(&mut self, cap: Watts) {
        (**self).set_enforced_cap(cap)
    }
}

/// A controller that pins every CU to one state (the paper's "static
/// VF policy" baseline for energy optimisation).
#[derive(Debug, Clone, Copy)]
pub struct StaticController {
    /// The pinned state.
    pub vf: VfStateId,
}

impl DvfsController for StaticController {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        Ok(vec![self.vf; projection.source_vf.len()])
    }
}

/// The projection the daemon staged for the *next* interval, held
/// until the matching measurement arrives and can be scored.
#[derive(Debug, Clone)]
struct PendingPrediction {
    /// Interval index the prediction targets (source interval + 1).
    interval: u64,
    /// Predicted per-core CPI at the chosen VF state.
    core_cpi: Vec<f64>,
    /// Predicted chip power under the chosen assignment, when the
    /// power model could evaluate it.
    chip_power: Option<f64>,
}

/// One daemon step's outcome.
#[derive(Debug, Clone)]
pub struct DaemonStep {
    /// The measured interval that drove the decision.
    pub record: IntervalRecord,
    /// The projection computed from it.
    pub projection: PpeProjection,
    /// The VF assignment chosen for the next interval.
    pub decision: Vec<VfStateId>,
}

/// The outcome of a multi-interval run: every completed step, plus
/// the error that cut the run short, if any.
///
/// An unprotected daemon aborts on the first fault; this type keeps
/// the partial trace available (the old `Result<Vec<DaemonStep>>`
/// discarded it), which is exactly what resilience experiments need
/// to quantify how much work was lost. Callers that only care about
/// complete runs use [`RunOutcome::into_result`] and `?`.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The steps completed before the run ended.
    pub steps: Vec<DaemonStep>,
    /// The error that stopped the run early, or `None` when all
    /// requested intervals completed.
    pub error: Option<Error>,
    /// The interval index at which the run aborted, or `None` when all
    /// requested intervals completed. This is the index of the
    /// interval the failing step was *measuring* — the platform has
    /// already advanced past it — so observability timestamps and the
    /// partial trace in [`RunOutcome::steps`] line up: a run that
    /// fails at interval `k` holds exactly the steps for intervals
    /// `0..k` that succeeded.
    pub failed_at: Option<IntervalIndex>,
}

impl RunOutcome {
    /// Whether all requested intervals completed.
    pub fn is_complete(&self) -> bool {
        self.error.is_none()
    }

    /// Converts back to a `Result`, dropping the partial trace on
    /// error.
    ///
    /// # Errors
    ///
    /// Returns the stored error when the run was cut short.
    pub fn into_result(self) -> Result<Vec<DaemonStep>> {
        match self.error {
            None => Ok(self.steps),
            Some(e) => Err(e),
        }
    }
}

/// The daemon: owns the platform and the engine, steps one interval
/// at a time.
pub struct PpepDaemon<P: Platform, C: DvfsController> {
    ppep: Ppep,
    platform: P,
    controller: C,
    recorder: RecorderHandle,
    scorer: Option<PredictionScorer>,
    pending: Option<PendingPrediction>,
}

impl<P: Platform, C: DvfsController> PpepDaemon<P, C> {
    /// Couples an engine, a platform, and a controller.
    pub fn new(ppep: Ppep, platform: P, controller: C) -> Self {
        Self {
            ppep,
            platform,
            controller,
            recorder: RecorderHandle::noop(),
            scorer: None,
            pending: None,
        }
    }

    /// Turns on prediction-accuracy scorekeeping: each step's chosen
    /// projection is held and scored against the *next* interval's
    /// measured CPI and power. Scoring is strictly observational — it
    /// never feeds back into decisions, so a scored run stays
    /// bit-identical to an unscored one.
    pub fn with_scorer(mut self, config: ScorerConfig) -> Self {
        let cores = self.platform.topology().core_count();
        self.scorer = Some(PredictionScorer::new(cores, config));
        self
    }

    /// The accuracy scorer, when enabled via
    /// [`with_scorer`](Self::with_scorer).
    pub fn scorer(&self) -> Option<&PredictionScorer> {
        self.scorer.as_ref()
    }

    /// Routes the daemon, its engine, and its platform through one
    /// observability recorder. Recording never feeds back into
    /// decisions: a traced run is bit-identical to an untraced one.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.ppep.set_recorder(recorder.clone());
        self.platform.set_recorder(recorder.clone());
        self.recorder = recorder;
        self
    }

    /// The observability recorder (no-op unless installed).
    pub fn recorder(&self) -> &RecorderHandle {
        &self.recorder
    }

    /// The prediction engine.
    pub fn ppep(&self) -> &Ppep {
        &self.ppep
    }

    /// The measurement/actuation platform.
    pub fn platform(&self) -> &P {
        &self.platform
    }

    /// The platform, mutably (e.g. to load workloads on a simulated
    /// chip — `SimPlatform` derefs to the simulator).
    pub fn platform_mut(&mut self) -> &mut P {
        &mut self.platform
    }

    /// The controller.
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.controller
    }

    /// Runs one measure → project → decide → apply cycle.
    ///
    /// # Errors
    ///
    /// Propagates measurement faults (e.g. from an installed
    /// `ppep_sim::fault::FaultPlan`), projection errors, and
    /// controller errors. Measurement faults are transient
    /// ([`Error::is_transient`]); the platform stays consistent, so
    /// the next `step` proceeds normally — but *this* daemon makes no
    /// decision for the lost interval.
    pub fn step(&mut self) -> Result<DaemonStep> {
        let record = {
            let _sample = self
                .recorder
                .span(Stage::Sample, self.platform.current_interval().0);
            self.platform.sample()?
        };
        self.react(record)
    }

    /// The reaction half of a cycle: project → decide → apply, from a
    /// record measured elsewhere. [`step`](Self::step) is
    /// measure-then-`react`. Its decide part, `decide_fresh`, is also
    /// the supervisor's healthy path, so both run the same decision
    /// code.
    ///
    /// # Errors
    ///
    /// Propagates projection and controller errors.
    pub fn react(&mut self, record: IntervalRecord) -> Result<DaemonStep> {
        let interval = record.index.0;
        let rec = self.recorder.clone();
        self.score_measurement(&record);
        let projection = self.ppep.project(&record)?;
        let mut decision = Vec::new();
        self.decide_fresh(interval, &record, &projection, &mut decision)?;
        // Archive the cycle *before* actuation: the projection models
        // the pre-apply VF state, so no code downstream of `apply` may
        // read it directly (ppep-lint L5 enforces this ordering).
        let step = DaemonStep {
            record,
            projection,
            decision,
        };
        {
            let _apply = rec.span(Stage::Apply, interval);
            self.apply(&step.decision)?;
        }
        Ok(step)
    }

    /// Decides on the projection of a freshly measured `record`, into
    /// a caller-owned assignment: the controller's
    /// [`decide_into`](DvfsController::decide_into) under the decide
    /// span for `interval`, then [`note_decision`](Self::note_decision)
    /// and [`stage_prediction`](Self::stage_prediction). It applies
    /// nothing; the caller archives the projection, then applies
    /// `decision`.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub(crate) fn decide_fresh(
        &mut self,
        interval: u64,
        record: &IntervalRecord,
        projection: &PpeProjection,
        decision: &mut Vec<VfStateId>,
    ) -> Result<()> {
        {
            let _decide = self.recorder.span(Stage::Decide, interval);
            self.controller.decide_into(projection, decision)?;
        }
        self.note_decision(
            record.index,
            Some(record.measured_power),
            Some(projection),
            decision,
        );
        self.stage_prediction(projection, decision);
        Ok(())
    }

    /// Annotates the platform's trace with a controller decision — a
    /// no-op unless the platform asks for decisions
    /// ([`Platform::wants_decisions`]), so untraced runs do no extra
    /// work. A fresh decision calls this between decide and apply;
    /// supervisors' degraded paths call it directly. The annotation must precede the matching `apply` so
    /// trace encoders can fold the apply into the decision frame.
    pub fn note_decision(
        &mut self,
        interval: IntervalIndex,
        realized: Option<Watts>,
        projection: Option<&PpeProjection>,
        decision: &[VfStateId],
    ) {
        if !self.platform.wants_decisions() {
            return;
        }
        let predicted =
            projection.and_then(|p| self.ppep.chip_power_with_assignment(p, decision).ok());
        let cap = self.controller.enforced_cap();
        self.platform.record_decision(&DecisionRecord {
            interval,
            chosen: decision.to_vec(),
            predicted_power: predicted,
            realized_power: realized,
            cap,
            cap_violated: cap.and_then(|c| realized.map(|r| r > c)),
        });
    }

    /// Scores the previously staged prediction against a fresh
    /// measurement. A no-op when the scorer is off or nothing is
    /// pending; a pending prediction whose target interval does not
    /// match (a faulted, held, or failsafe gap between decisions) is
    /// dropped and counted, never scored against the wrong interval.
    ///
    /// [`react`](Self::react) calls this on entry; supervisors call it
    /// before projecting.
    pub fn score_measurement(&mut self, record: &IntervalRecord) {
        if self.scorer.is_none() {
            return;
        }
        let Some(pending) = self.pending.take() else {
            return;
        };
        let Some(scorer) = self.scorer.as_mut() else {
            return;
        };
        if pending.interval != record.index.0 {
            scorer.note_stale_drop();
            return;
        }
        for (core, predicted) in pending.core_cpi.iter().copied().enumerate() {
            let measured = record.samples.get(core).and_then(|s| s.cpi());
            if let Some(ape) = scorer.score_core_cpi(core, predicted, measured) {
                self.recorder.observe("accuracy.cpi.err_pct", ape);
            }
        }
        if let Some(predicted) = pending.chip_power {
            if let Some(ape) = scorer.score_power(predicted, record.measured_power.as_watts()) {
                self.recorder.observe("accuracy.power.err_pct", ape);
            }
        }
        scorer.note_interval();
        if self.recorder.enabled() {
            scorer.export(&self.recorder);
        }
    }

    /// Stages this cycle's chosen projection for scoring against the
    /// *next* interval's measurement. A no-op when the scorer is off.
    ///
    /// A fresh decision calls this after the trace annotation, before
    /// actuation.
    pub fn stage_prediction(&mut self, projection: &PpeProjection, decision: &[VfStateId]) {
        if self.scorer.is_none() {
            return;
        }
        let cores_per_cu = self.platform.topology().cores_per_cu().max(1);
        let core_cpi: Vec<f64> = projection
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                decision
                    .get(i / cores_per_cu)
                    .and_then(|vf| core.per_vf.get(vf.index()))
                    .map_or(f64::NAN, |at| at.cpi)
            })
            .collect();
        let chip_power = self
            .ppep
            .chip_power_with_assignment(projection, decision)
            .ok()
            .map(|w| w.as_watts());
        self.pending = Some(PendingPrediction {
            interval: projection.interval.0 + 1,
            core_cpi,
            chip_power,
        });
    }

    /// Applies a per-CU VF assignment to the platform.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range CU.
    pub fn apply(&mut self, decision: &[VfStateId]) -> Result<()> {
        self.platform.apply(decision)
    }

    /// Runs up to `n` cycles, stopping at the first failing step.
    ///
    /// Returns a [`RunOutcome`] carrying the completed steps and the
    /// terminating error, if any; `outcome.into_result()?` restores
    /// the old all-or-nothing behaviour.
    pub fn run(&mut self, n: usize) -> RunOutcome {
        let mut steps = Vec::with_capacity(n);
        for _ in 0..n {
            // Captured before stepping: the platform advances past a
            // faulted interval, so asking afterwards would be off by
            // one.
            let measuring = self.platform.current_interval();
            match self.step() {
                Ok(step) => steps.push(step),
                Err(e) => {
                    return RunOutcome {
                        steps,
                        error: Some(e),
                        failed_at: Some(measuring),
                    }
                }
            }
        }
        RunOutcome {
            steps,
            error: None,
            failed_at: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_rig::TrainingRig;
    use ppep_sim::chip::{ChipSimulator, SimConfig};
    use ppep_sim::SimPlatform;
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

    #[test]
    fn static_controller_pins_states() {
        let ppep = engine();
        let table = ppep.models().vf_table().clone();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&instances("403.gcc", 2, 42));
        let mut daemon = PpepDaemon::new(
            ppep,
            SimPlatform::new(sim),
            StaticController { vf: table.lowest() },
        );
        let outcome = daemon.run(3);
        assert_eq!(outcome.failed_at, None, "complete run has no abort point");
        let steps = outcome.into_result().unwrap();
        // First interval still ran at the boot state (highest); from
        // the second on, the pinned state is in force.
        assert_eq!(steps[0].record.cu_vf[0], table.highest());
        assert_eq!(steps[1].record.cu_vf[0], table.lowest());
        assert_eq!(steps[2].record.cu_vf[0], table.lowest());
        assert!(
            steps[2].record.measured_power < steps[0].record.measured_power,
            "pinning to VF1 must cut power"
        );
    }

    #[test]
    fn greedy_energy_controller_converges_to_lowest_state() {
        struct EnergyOptimal;
        impl DvfsController for EnergyOptimal {
            fn decide(&mut self, p: &PpeProjection) -> Result<Vec<VfStateId>> {
                Ok(vec![p.best_energy_vf(); p.source_vf.len()])
            }
        }
        let ppep = engine();
        let table = ppep.models().vf_table().clone();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&instances("433.milc", 4, 42));
        let mut daemon = PpepDaemon::new(ppep, SimPlatform::new(sim), EnergyOptimal);
        let steps = daemon.run(4).into_result().unwrap();
        // §V-C: the lowest VF state is energy-optimal.
        assert_eq!(steps.last().unwrap().decision, vec![table.lowest(); 4]);
        assert_eq!(steps.last().unwrap().record.cu_vf, vec![table.lowest(); 4]);
    }

    #[test]
    fn scorer_scores_next_interval_without_touching_decisions() {
        use ppep_obs::ScorerConfig;
        let run = |score: bool| {
            let ppep = engine();
            let table = ppep.models().vf_table().clone();
            let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
            sim.load_workload(&instances("403.gcc", 2, 42));
            let mut daemon = PpepDaemon::new(
                ppep,
                SimPlatform::new(sim),
                StaticController { vf: table.lowest() },
            );
            if score {
                daemon = daemon.with_scorer(ScorerConfig::default());
            }
            let steps = daemon.run(6).into_result().unwrap();
            let decisions: Vec<Vec<VfStateId>> = steps.iter().map(|s| s.decision.clone()).collect();
            let powers: Vec<Watts> = steps.iter().map(|s| s.record.measured_power).collect();
            let scored = daemon.scorer().map(|s| (s.intervals(), s.stale_drops()));
            (decisions, powers, scored)
        };
        let (d_on, p_on, scored) = run(true);
        let (d_off, p_off, none) = run(false);
        assert_eq!(d_on, d_off, "scoring must not change decisions");
        assert_eq!(p_on, p_off, "scoring must not change the platform");
        assert_eq!(none, None);
        // 6 steps: the first stages, the next 5 measurements score.
        assert_eq!(scored, Some((5, 0)));
    }

    #[test]
    fn faulted_run_aborts_but_keeps_partial_trace() {
        use ppep_sim::fault::{FaultKind, FaultPlan};
        let ppep = engine();
        let table = ppep.models().vf_table().clone();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&instances("403.gcc", 2, 42));
        sim.set_fault_plan(FaultPlan::none().with(2, FaultKind::SensorDropout));
        let mut daemon = PpepDaemon::new(
            ppep,
            SimPlatform::new(sim),
            StaticController { vf: table.lowest() },
        );
        let outcome = daemon.run(5);
        // Intervals 0 and 1 complete; the dropout kills interval 2.
        assert_eq!(outcome.steps.len(), 2);
        assert!(!outcome.is_complete());
        // The outcome pinpoints the aborted interval, and it lines up
        // with the partial trace: steps cover intervals 0..failed_at.
        assert_eq!(outcome.failed_at, Some(IntervalIndex(2)));
        assert_eq!(
            outcome.steps.last().map(|s| s.record.index),
            Some(IntervalIndex(1))
        );
        let err = outcome.error.clone().expect("run was cut short");
        assert!(err.is_transient(), "sensor dropout is transient: {err}");
        assert!(outcome.into_result().is_err());
    }
}
