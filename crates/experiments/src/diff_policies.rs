//! Policy-differential replay — one recorded counter trace, two DVFS
//! controllers, a per-interval divergence report.
//!
//! A recorded trace fixes the measurement stream, so replaying it
//! under two different controllers is a *controlled* counterfactual:
//! both see bit-identical interval records (and therefore identical
//! PPE projections — a projection depends only on the measurement,
//! never on the decision) and differ only in what they decide. The
//! [`ReplayDiff`] harness replays a trace under policy A and policy B
//! — either side can be the trace's own recorded decision stream
//! ([`PolicyKind::Recorded`]) — and reports where and by how much
//! they diverge:
//!
//! - the first diverging interval and the diverging-interval count,
//! - per-policy VF-transition counts (DVFS actuation churn),
//! - model-priced energy and EDP for the recorded work,
//! - model-side cap adherence (predicted power vs the enforced cap).
//!
//! Because the sampled stream is immutable history, *measured* power
//! is the same under both policies; energy, EDP, and cap adherence
//! are therefore priced through the PPEP model at each policy's
//! chosen assignment ([`Ppep::chip_power_with_assignment`]) — the
//! same oracle the capping controllers search over.
//!
//! Diffing a policy against its own recorded decisions doubles as a
//! behaviour-drift tripwire: a recorded trace is a regression test,
//! and any nonzero divergence on self-replay means the controller or
//! the model changed underneath it.

use crate::fig07_capping::cap_schedule;
use ppep_core::daemon::{DvfsController, PpepDaemon};
use ppep_core::resilient::{ResilientDaemon, SupervisorConfig};
use ppep_core::{PpeProjection, Ppep};
use ppep_dvfs::capping::{IterativeCapping, OneStepCapping, SteepestDrop};
use ppep_dvfs::EnergyOptimalController;
use ppep_telemetry::{ReplayPlatform, TraceReader};
use ppep_types::{Error, Joules, Result, Seconds, VfStateId, Watts};

/// Which decision source drives one side of a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// PPEP one-step capping (the Fig. 7 scheme).
    OneStep,
    /// The reactive iterative-capping baseline (no model).
    Iterative,
    /// Steepest Drop (Winter et al.) driven by PPEP projections.
    SteepestDrop,
    /// Uncapped energy-optimal: chase `best_energy_vf` every interval.
    EnergyOptimal,
    /// The trace's own recorded decision stream (no live controller).
    Recorded,
}

impl PolicyKind {
    /// The report name.
    pub fn name(self) -> &'static str {
        match self {
            Self::OneStep => "one-step",
            Self::Iterative => "iterative",
            Self::SteepestDrop => "steepest-drop",
            Self::EnergyOptimal => "energy-optimal",
            Self::Recorded => "recorded",
        }
    }
}

/// A live controller for any replayable [`PolicyKind`], enforcing
/// `cap` if it has one.
///
/// # Errors
///
/// [`PolicyKind::Recorded`] has no live controller.
fn controller(kind: PolicyKind, ppep: &Ppep, cap: Watts) -> Result<Box<dyn DvfsController>> {
    Ok(match kind {
        PolicyKind::OneStep => Box::new(OneStepCapping::new(ppep.clone(), cap)),
        PolicyKind::Iterative => Box::new(IterativeCapping::new(cap, ppep.models().vf_table())),
        PolicyKind::SteepestDrop => Box::new(SteepestDrop::new(ppep.clone(), cap)),
        PolicyKind::EnergyOptimal => Box::new(EnergyOptimalController),
        PolicyKind::Recorded => {
            return Err(Error::InvalidInput(
                "the recorded decision stream cannot drive a live replay".into(),
            ))
        }
    })
}

/// One interval of a side-by-side comparison.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Supervised interval counter (position in the replay).
    pub interval: u64,
    /// Policy A's per-CU assignment.
    pub decision_a: Vec<VfStateId>,
    /// Policy B's per-CU assignment.
    pub decision_b: Vec<VfStateId>,
    /// Whether the assignments differ.
    pub diverged: bool,
    /// Per-CU changes from A's previous assignment.
    pub transitions_a: usize,
    /// Per-CU changes from B's previous assignment.
    pub transitions_b: usize,
    /// Model-predicted chip power at A's assignment.
    pub predicted_a: Option<Watts>,
    /// Model-predicted chip power at B's assignment.
    pub predicted_b: Option<Watts>,
    /// Model-priced energy for the interval's work at A's assignment.
    pub energy_a: Option<Joules>,
    /// Model-priced energy at B's assignment.
    pub energy_b: Option<Joules>,
    /// Model-priced EDP (J·s) at A's assignment.
    pub edp_a: Option<f64>,
    /// Model-priced EDP (J·s) at B's assignment.
    pub edp_b: Option<f64>,
    /// The cap policy A enforced this interval, if any.
    pub cap_a: Option<Watts>,
    /// The cap policy B enforced this interval, if any.
    pub cap_b: Option<Watts>,
    /// Whether A's predicted power exceeds its cap.
    pub cap_violated_a: Option<bool>,
    /// Whether B's predicted power exceeds its cap.
    pub cap_violated_b: Option<bool>,
}

/// The divergence report of one policy-vs-policy replay.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Display name of policy A.
    pub policy_a: String,
    /// Display name of policy B.
    pub policy_b: String,
    /// Intervals compared (the shorter of the two decision streams).
    pub intervals: usize,
    /// First interval where the assignments differ.
    pub first_divergence: Option<u64>,
    /// Number of intervals with differing assignments.
    pub diverged_intervals: usize,
    /// Intervals both sides could be model-priced at.
    pub priced_intervals: usize,
    /// Total VF transitions under policy A.
    pub transitions_a: usize,
    /// Total VF transitions under policy B.
    pub transitions_b: usize,
    /// Total model-priced energy under policy A (priced intervals).
    pub energy_a: Joules,
    /// Total model-priced energy under policy B (priced intervals).
    pub energy_b: Joules,
    /// Total model-priced EDP under policy A (J·s).
    pub edp_a: f64,
    /// Total model-priced EDP under policy B (J·s).
    pub edp_b: f64,
    /// Intervals where A's predicted power exceeded its cap.
    pub cap_violations_a: usize,
    /// Intervals where B's predicted power exceeded its cap.
    pub cap_violations_b: usize,
    /// The per-interval comparison.
    pub rows: Vec<DiffRow>,
}

/// Per-CU changes between consecutive assignments of one policy.
fn transitions(prev: Option<&Vec<VfStateId>>, cur: &[VfStateId]) -> usize {
    match prev {
        Some(p) => p.iter().zip(cur).filter(|(a, b)| a != b).count(),
        None => 0,
    }
}

/// One side's decision stream over the replay.
struct Track {
    decisions: Vec<Vec<VfStateId>>,
    caps: Vec<Option<Watts>>,
    /// Last-good projection at each step — only live drives have them;
    /// they are policy-independent (the stream is fixed), so either
    /// side's serve both.
    projections: Option<Vec<Option<PpeProjection>>>,
}

/// The reusable policy-differential replay harness.
#[derive(Debug, Clone)]
pub struct ReplayDiff {
    ppep: Ppep,
    period: usize,
}

impl ReplayDiff {
    /// Builds a differ around a trained engine and the cap-schedule
    /// period the trace was recorded with.
    pub fn new(ppep: Ppep, period: usize) -> Self {
        Self { ppep, period }
    }

    /// Replays `trace` under policies `a` and `b` and diffs them.
    ///
    /// # Errors
    ///
    /// Propagates non-transient replay errors; diffing against
    /// [`PolicyKind::Recorded`] requires the trace to carry decision
    /// lines.
    pub fn diff(&self, trace: &TraceReader, a: PolicyKind, b: PolicyKind) -> Result<DiffReport> {
        let track_a = self.track(trace, a)?;
        let track_b = self.track(trace, b)?;
        let projections = match (&track_a.projections, &track_b.projections) {
            (Some(p), _) | (None, Some(p)) => p.clone(),
            // Both sides recorded: drive once just to harvest the
            // (policy-independent) projections for pricing.
            (None, None) => self
                .drive_policy(trace, PolicyKind::OneStep)?
                .projections
                .unwrap_or_default(),
        };
        Ok(self.report(a, track_a, b, track_b, &projections))
    }

    /// Diffs a live policy against the trace's own recorded decision
    /// stream — the "traces as regression tests" mode.
    ///
    /// # Errors
    ///
    /// As [`ReplayDiff::diff`].
    pub fn vs_recorded(&self, trace: &TraceReader, policy: PolicyKind) -> Result<DiffReport> {
        self.diff(trace, policy, PolicyKind::Recorded)
    }

    fn track(&self, trace: &TraceReader, kind: PolicyKind) -> Result<Track> {
        if kind == PolicyKind::Recorded {
            let decisions: Vec<_> = trace.decisions().collect();
            if decisions.is_empty() {
                return Err(Error::InvalidInput(
                    "trace carries no recorded decision lines to diff against".into(),
                ));
            }
            Ok(Track {
                caps: decisions.iter().map(|d| d.cap).collect(),
                decisions: decisions.iter().map(|d| d.chosen.clone()).collect(),
                projections: None,
            })
        } else {
            self.drive_policy(trace, kind)
        }
    }

    /// Replays the trace tolerantly under one live policy, following
    /// the recorded cap schedule.
    fn drive_policy(&self, trace: &TraceReader, kind: PolicyKind) -> Result<Track> {
        let steps = trace.interval_count() + trace.fault_count();
        let table = self.ppep.models().vf_table().clone();
        let controller = controller(kind, &self.ppep, cap_schedule(0, self.period))?;
        let replay = ReplayPlatform::new(trace.clone());
        let inner = PpepDaemon::new(self.ppep.clone(), replay, controller);
        let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
        let mut track = Track {
            decisions: Vec::with_capacity(steps),
            caps: Vec::with_capacity(steps),
            projections: Some(Vec::with_capacity(steps)),
        };
        for step in 0..steps {
            daemon
                .inner_mut()
                .controller_mut()
                .set_enforced_cap(cap_schedule(step, self.period));
            let s = daemon.step()?;
            track.decisions.push(s.decision.clone());
            // An interval without a fresh projection keeps the last one.
            if let Some(projections) = &mut track.projections {
                let projection = s
                    .projection
                    .clone()
                    .or_else(|| projections.last().cloned().flatten());
                projections.push(projection);
            }
            track
                .caps
                .push(daemon.inner_mut().controller_mut().enforced_cap());
        }
        Ok(track)
    }

    /// Prices one assignment against a projection: predicted chip
    /// power, and energy/EDP for the interval's recorded work.
    fn price(
        &self,
        projection: &PpeProjection,
        decision: &[VfStateId],
    ) -> Option<(Watts, Joules, f64)> {
        let power = self
            .ppep
            .chip_power_with_assignment(projection, decision)
            .ok()?;
        if decision.is_empty() {
            return None;
        }
        let cores_per_cu = projection.cores.len() / decision.len();
        if cores_per_cu == 0 {
            return None;
        }
        let ips: f64 = projection
            .cores
            .iter()
            .zip(projection.rows())
            .enumerate()
            .filter(|(_, (c, _))| c.busy)
            .filter_map(|(i, (_, row))| {
                decision
                    .get(i / cores_per_cu)
                    .and_then(|vf| row.get(vf.index()))
                    .map(|c| c.ips)
            })
            .sum();
        let time = if ips > 0.0 {
            projection.work_instructions / ips
        } else {
            0.0
        };
        let energy = power * Seconds::new(time);
        let edp = energy.as_joules() * time;
        Some((power, energy, edp))
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        a: PolicyKind,
        track_a: Track,
        b: PolicyKind,
        track_b: Track,
        projections: &[Option<PpeProjection>],
    ) -> DiffReport {
        let intervals = track_a.decisions.len().min(track_b.decisions.len());
        let mut report = DiffReport {
            policy_a: a.name().to_string(),
            policy_b: b.name().to_string(),
            intervals,
            first_divergence: None,
            diverged_intervals: 0,
            priced_intervals: 0,
            transitions_a: 0,
            transitions_b: 0,
            energy_a: Joules::new(0.0),
            energy_b: Joules::new(0.0),
            edp_a: 0.0,
            edp_b: 0.0,
            cap_violations_a: 0,
            cap_violations_b: 0,
            rows: Vec::with_capacity(intervals),
        };
        let mut prev_a: Option<&Vec<VfStateId>> = None;
        let mut prev_b: Option<&Vec<VfStateId>> = None;
        for (i, (da, db)) in track_a.decisions.iter().zip(&track_b.decisions).enumerate() {
            let interval = i as u64;
            let diverged = da != db;
            if diverged {
                report.first_divergence.get_or_insert(interval);
                report.diverged_intervals += 1;
            }
            let transitions_a = transitions(prev_a, da);
            let transitions_b = transitions(prev_b, db);
            report.transitions_a += transitions_a;
            report.transitions_b += transitions_b;
            let projection = projections.get(i).and_then(Option::as_ref);
            let priced_a = projection.and_then(|p| self.price(p, da));
            let priced_b = projection.and_then(|p| self.price(p, db));
            if let (Some((_, ea, da_edp)), Some((_, eb, db_edp))) = (priced_a, priced_b) {
                report.priced_intervals += 1;
                report.energy_a += ea;
                report.energy_b += eb;
                report.edp_a += da_edp;
                report.edp_b += db_edp;
            }
            let cap_a = track_a.caps.get(i).copied().flatten();
            let cap_b = track_b.caps.get(i).copied().flatten();
            let cap_violated_a = violates(cap_a, priced_a.map(|(p, _, _)| p));
            let cap_violated_b = violates(cap_b, priced_b.map(|(p, _, _)| p));
            if cap_violated_a == Some(true) {
                report.cap_violations_a += 1;
            }
            if cap_violated_b == Some(true) {
                report.cap_violations_b += 1;
            }
            report.rows.push(DiffRow {
                interval,
                decision_a: da.clone(),
                decision_b: db.clone(),
                diverged,
                transitions_a,
                transitions_b,
                predicted_a: priced_a.map(|(p, _, _)| p),
                predicted_b: priced_b.map(|(p, _, _)| p),
                energy_a: priced_a.map(|(_, e, _)| e),
                energy_b: priced_b.map(|(_, e, _)| e),
                edp_a: priced_a.map(|(_, _, e)| e),
                edp_b: priced_b.map(|(_, _, e)| e),
                cap_a,
                cap_b,
                cap_violated_a,
                cap_violated_b,
            });
            prev_a = Some(da);
            prev_b = Some(db);
        }
        report
    }
}

/// Model-side cap verdict: does predicted power exceed the cap?
fn violates(cap: Option<Watts>, predicted: Option<Watts>) -> Option<bool> {
    match (cap, predicted) {
        (Some(c), Some(p)) => Some(p > c),
        _ => None,
    }
}
