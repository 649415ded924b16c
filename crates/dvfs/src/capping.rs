//! Power capping: one-step (PPEP) versus iterative (reactive).
//!
//! Finding the VF state that maximises performance under a power cap
//! is usually an iterative search: change state, wait a time slice,
//! measure, repeat (§V-B). PPEP's all-VF power predictions collapse
//! that loop: the controller directly selects, in one decision
//! interval, the assignment that maximises predicted performance under
//! the cap. The paper measures 0.2 s convergence and 94% budget
//! adherence for the predictive controller versus 2.8 s and 81% for
//! the reactive one (Fig. 7).
//!
//! Like the paper, the one-step controller assumes per-CU power
//! planes (per-CU DVFS); the iterative baseline moves all CUs in
//! lockstep, as commodity governors do.

use ppep_core::daemon::DvfsController;
use ppep_core::ppe::{CoreAtVf, PpeProjection};
use ppep_core::Ppep;
use ppep_obs::RecorderHandle;
use ppep_types::{Result, VfStateId, Watts};

/// The predictive controllers ([`OneStepCapping`], [`SteepestDrop`]
/// and [`crate::BoostController`]) target `budget · (1 − GUARD_BAND)`
/// so that model bias and sensor noise do not turn into persistent
/// budget violations. Production capping firmware does the same.
pub(crate) const GUARD_BAND: f64 = 0.05;

/// Fraction of headroom below the cap [`IterativeCapping`] requires
/// before stepping up (hysteresis against oscillation).
const STEP_UP_MARGIN: f64 = 0.10;

/// Counts the CUs whose VF state differs between the measured
/// assignment and the controller's decision — the number of VF
/// transitions the decision will trigger when applied.
fn count_transitions(from: &[VfStateId], to: &[VfStateId]) -> u64 {
    from.iter().zip(to).filter(|(a, b)| a != b).count() as u64
}

/// Counts a predictive controller's `dvfs.cap_violations` (the
/// source-state power exceeded `cap`) and `dvfs.vf_transitions` (CUs
/// the decision moves) when `recorder` is enabled.
fn record_decision(
    recorder: &RecorderHandle,
    ppep: &Ppep,
    cap: Watts,
    projection: &PpeProjection,
    decision: &[VfStateId],
) -> Result<()> {
    if recorder.enabled() {
        let source = ppep.chip_power_with_assignment(projection, &projection.source_vf)?;
        if source > cap {
            recorder.incr("dvfs.cap_violations");
        }
        recorder.add(
            "dvfs.vf_transitions",
            count_transitions(&projection.source_vf, decision),
        );
    }
    Ok(())
}

/// A core's predicted throughput at `vf`, from its row of
/// [`PpeProjection::cells`]; 0 for a state past the row's end.
fn ips_at(row: &[CoreAtVf], vf: VfStateId) -> f64 {
    row.get(vf.index()).map_or(0.0, |c| c.ips)
}

/// The predicted throughput CU `cu` gains moving from `from` to `to`:
/// `Σ (ips(to) − ips(from))` over its cores; 0 for a CU past the end.
pub(crate) fn cu_gain(
    projection: &PpeProjection,
    cores_per_cu: usize,
    cu: usize,
    from: VfStateId,
    to: VfStateId,
) -> f64 {
    let n_vf = projection.row_len();
    projection
        .cells
        .chunks(cores_per_cu * n_vf)
        .nth(cu)
        .map_or(0.0, |cells| {
            cells
                .chunks(n_vf)
                .map(|row| ips_at(row, to) - ips_at(row, from))
                .sum()
        })
}

/// Sets one CU's state in an assignment; a CU past its end is ignored.
fn set_cu(assignment: &mut [VfStateId], cu: usize, vf: VfStateId) {
    if let Some(slot) = assignment.get_mut(cu) {
        *slot = vf;
    }
}

/// The predicted chip power with CU `cu` moved from `from` to `to`.
/// The step is tried in place and undone, error or not.
fn price_step(
    ppep: &Ppep,
    projection: &PpeProjection,
    assignment: &mut [VfStateId],
    cu: usize,
    from: VfStateId,
    to: VfStateId,
) -> Result<Watts> {
    set_cu(assignment, cu, to);
    let power = ppep.chip_power_with_assignment(projection, assignment);
    set_cu(assignment, cu, from);
    power
}

/// The greedy ascent the predictive controllers share.
///
/// Each round tries every CU's step up, prices it with
/// [`Ppep::chip_power_with_assignment`], drops the steps over
/// `budget` and those whose `gain(cu, from, up)` is not positive, and
/// applies the first step with the highest `score(gain, added)`, where
/// `added` is its price minus the current power. The applied step's
/// price is the next round's current power; `current` is the price of
/// the entry assignment, which the caller already holds. The ascent
/// stops when no step is left.
///
/// Skipping a non-positive gain is the same rule as picking the best
/// step and stopping unless its gain is positive, for every finite
/// gain. The supervisor hands controllers only finite projections
/// (`projection_is_finite` in `ppep_core::resilient`), so the gains it
/// sees are finite.
///
/// # Errors
///
/// Propagates the first pricing error.
pub(crate) fn ascend(
    ppep: &Ppep,
    projection: &PpeProjection,
    assignment: &mut [VfStateId],
    budget: Watts,
    mut current: Watts,
    gain: impl Fn(usize, VfStateId, VfStateId) -> f64,
    score: impl Fn(f64, Watts) -> f64,
) -> Result<()> {
    let table = ppep.models().vf_table();
    loop {
        let mut best: Option<(usize, VfStateId, f64, Watts)> = None;
        for cu in 0..assignment.len() {
            let Some(from) = assignment.get(cu).copied() else {
                continue;
            };
            let Some(up) = table.step_up(from) else {
                continue;
            };
            let power = price_step(ppep, projection, assignment, cu, from, up)?;
            if power > budget {
                continue;
            }
            let gain = gain(cu, from, up);
            if gain <= 0.0 {
                continue;
            }
            let score = score(gain, power - current);
            if best.as_ref().is_none_or(|(_, _, s, _)| score > *s) {
                best = Some((cu, up, score, power));
            }
        }
        let Some((cu, up, _, power)) = best else {
            return Ok(());
        };
        set_cu(assignment, cu, up);
        current = power;
    }
}

/// The PPEP-based one-step capping controller.
#[derive(Debug, Clone)]
pub struct OneStepCapping {
    ppep: Ppep,
    cap: Watts,
    recorder: RecorderHandle,
}

impl OneStepCapping {
    /// Builds a controller enforcing `cap` with a 5% guard band.
    pub fn new(ppep: Ppep, cap: Watts) -> Self {
        Self {
            ppep,
            cap,
            recorder: RecorderHandle::noop(),
        }
    }

    /// Attaches an observability recorder; the controller then counts
    /// `dvfs.vf_transitions` (CUs moved per decision) and
    /// `dvfs.cap_violations` (intervals whose source-state power
    /// exceeded the cap).
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Changes the enforced cap (e.g. on a battery/wall transition).
    pub fn set_cap(&mut self, cap: Watts) {
        self.cap = cap;
    }
}

impl DvfsController for OneStepCapping {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        let mut decision = Vec::new();
        self.decide_into(projection, &mut decision)?;
        Ok(decision)
    }

    /// The single-step search: start from the fastest uniform state
    /// that fits, then greedily raise individual CUs (most projected
    /// throughput gain per watt first) while the assignment still
    /// fits the cap. `decision` is cleared and refilled in place.
    fn decide_into(
        &mut self,
        projection: &PpeProjection,
        decision: &mut Vec<VfStateId>,
    ) -> Result<()> {
        let target = self.cap * (1.0 - GUARD_BAND);
        // Fastest uniform state under the target (fall back to lowest).
        let uniform = projection
            .fastest_under_cap(target)
            .unwrap_or_else(|| self.ppep.models().vf_table().lowest());
        decision.clear();
        decision.resize(projection.source_vf.len(), uniform);
        let current = self.ppep.chip_power_with_assignment(projection, decision)?;
        // Idle (possibly gated) CUs gain nothing from a faster state;
        // the ascent never promotes them.
        let cores_per_cu = self.ppep.models().topology().cores_per_cu();
        ascend(
            &self.ppep,
            projection,
            decision,
            target,
            current,
            |cu, from, up| cu_gain(projection, cores_per_cu, cu, from, up),
            |gain, added| gain / added.as_watts().max(1e-9),
        )?;
        record_decision(&self.recorder, &self.ppep, self.cap, projection, decision)
    }

    fn enforced_cap(&self) -> Option<Watts> {
        Some(self.cap)
    }

    fn set_enforced_cap(&mut self, cap: Watts) {
        self.set_cap(cap);
    }
}

/// The reactive baseline: step all CUs down when over the cap, step
/// up when comfortably under, one rung per decision interval.
#[derive(Debug, Clone)]
pub struct IterativeCapping {
    cap: Watts,
    /// Decision period: the controller holds each setting for this
    /// many intervals to measure its stable power before moving again
    /// (commodity governors average over a window; 1 = react every
    /// interval).
    pub hold_intervals: usize,
    current: VfStateId,
    table: ppep_types::VfTable,
    last_measured: Option<Watts>,
    since_change: usize,
    recorder: RecorderHandle,
}

impl IterativeCapping {
    /// Builds the baseline starting at the chip's highest state.
    pub fn new(cap: Watts, table: &ppep_types::VfTable) -> Self {
        Self {
            cap,
            hold_intervals: 1,
            current: table.highest(),
            table: table.clone(),
            last_measured: None,
            since_change: 0,
            recorder: RecorderHandle::noop(),
        }
    }

    /// Attaches an observability recorder; see
    /// [`OneStepCapping::with_recorder`].
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Changes the enforced cap.
    pub fn set_cap(&mut self, cap: Watts) {
        self.cap = cap;
    }

    /// Feeds the measured chip power of the last interval — the only
    /// signal a reactive controller has.
    pub fn observe_power(&mut self, measured: Watts) {
        self.last_measured = Some(measured);
    }

    /// The reactive step.
    pub fn choose(&mut self, cu_count: usize) -> Vec<VfStateId> {
        self.since_change += 1;
        if self.since_change >= self.hold_intervals {
            if let Some(p) = self.last_measured {
                if p > self.cap {
                    if let Some(down) = self.table.step_down(self.current) {
                        self.current = down;
                        self.since_change = 0;
                    }
                } else if p.as_watts() < self.cap.as_watts() * (1.0 - STEP_UP_MARGIN) {
                    if let Some(up) = self.table.step_up(self.current) {
                        self.current = up;
                        self.since_change = 0;
                    }
                }
            }
        }
        vec![self.current; cu_count]
    }
}

impl DvfsController for IterativeCapping {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        if self.last_measured.is_none() {
            // No external power observation was fed (the daemon only
            // hands controllers the projection): fall back to the
            // projection's estimate of power at the interval's own
            // state, so the reactive loop still closes.
            if let Some(&source) = projection.source_vf.iter().max() {
                self.observe_power(projection.chip_at(source).power);
            }
        }
        if self.recorder.enabled() {
            if let Some(p) = self.last_measured {
                if p > self.cap {
                    self.recorder.incr("dvfs.cap_violations");
                }
            }
        }
        let decision = self.choose(projection.source_vf.len());
        if self.recorder.enabled() {
            self.recorder.add(
                "dvfs.vf_transitions",
                count_transitions(&projection.source_vf, &decision),
            );
        }
        // Consume the observation: the next decision needs a fresh one.
        self.last_measured = None;
        Ok(decision)
    }

    fn enforced_cap(&self) -> Option<Watts> {
        Some(self.cap)
    }

    fn set_enforced_cap(&mut self, cap: Watts) {
        self.set_cap(cap);
    }
}

/// The Steepest Drop policy of Winter et al. (PACT 2010), one of the
/// power-capping schemes the paper's related work discusses (§VI).
///
/// Steepest Drop "assumes knowledge of the power consumption of each
/// core, which is not yet fully supported by modern processors" - the
/// paper's point is that PPEP *supplies* that knowledge. This
/// implementation walks from the current assignment along the
/// steepest power-drop-per-throughput-loss direction until the
/// predicted chip power fits the cap (and greedily climbs back when
/// there is headroom), using PPEP's per-core projections as the
/// per-core power oracle.
#[derive(Debug, Clone)]
pub struct SteepestDrop {
    ppep: Ppep,
    cap: Watts,
    recorder: RecorderHandle,
}

impl SteepestDrop {
    /// Builds the policy.
    pub fn new(ppep: Ppep, cap: Watts) -> Self {
        Self {
            ppep,
            cap,
            recorder: RecorderHandle::noop(),
        }
    }

    /// Attaches an observability recorder; see
    /// [`OneStepCapping::with_recorder`].
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Changes the enforced cap.
    pub fn set_cap(&mut self, cap: Watts) {
        self.cap = cap;
    }
}

impl DvfsController for SteepestDrop {
    /// One full descent/ascent pass from the measured assignment.
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        let table = self.ppep.models().vf_table();
        let cores_per_cu = self.ppep.models().topology().cores_per_cu();
        let target = self.cap * (1.0 - GUARD_BAND);
        let mut assignment = projection.source_vf.clone();

        // A CU's predicted throughput with the CU at `vf`.
        let n_vf = projection.row_len();
        let cu_ips = |cu: usize, vf: VfStateId| -> f64 {
            projection
                .cells
                .chunks(cores_per_cu * n_vf)
                .nth(cu)
                .map_or(0.0, |cells| {
                    cells.chunks(n_vf).map(|row| ips_at(row, vf)).sum()
                })
        };

        // Descend: drop the CU with the steepest watts-per-lost-ips.
        // The applied step's price is the next round's current power.
        let mut current = self
            .ppep
            .chip_power_with_assignment(projection, &assignment)?;
        while current > target {
            let mut best: Option<(usize, VfStateId, f64, Watts)> = None;
            for cu in 0..assignment.len() {
                let Some(from) = assignment.get(cu).copied() else {
                    continue;
                };
                let Some(down) = table.step_down(from) else {
                    continue;
                };
                let power = price_step(&self.ppep, projection, &mut assignment, cu, from, down)?;
                let saved = (current - power).as_watts();
                let lost = (cu_ips(cu, from) - cu_ips(cu, down)).max(1.0);
                let steepness = saved / lost;
                if best.as_ref().is_none_or(|(_, _, s, _)| steepness > *s) {
                    best = Some((cu, down, steepness, power));
                }
            }
            let Some((cu, down, _, power)) = best else {
                break; // floor reached: nothing left to drop
            };
            set_cu(&mut assignment, cu, down);
            current = power;
        }
        // Ascend while there is headroom (mirrors the descent).
        ascend(
            &self.ppep,
            projection,
            &mut assignment,
            target,
            current,
            |cu, from, up| cu_ips(cu, up) - cu_ips(cu, from),
            |gain, _| gain,
        )?;
        record_decision(
            &self.recorder,
            &self.ppep,
            self.cap,
            projection,
            &assignment,
        )?;
        Ok(assignment)
    }

    fn enforced_cap(&self) -> Option<Watts> {
        Some(self.cap)
    }

    fn set_enforced_cap(&mut self, cap: Watts) {
        self.set_cap(cap);
    }
}

/// Cap-adherence statistics over a power trace: the fraction of
/// intervals whose measured power stayed under the cap, and the number
/// of intervals until the trace first got (and stayed) under it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapAdherence {
    /// Fraction of intervals at or below the cap.
    pub under_cap_fraction: f64,
    /// Intervals from the start until power first dropped under the
    /// cap (trace length if never).
    pub settle_intervals: usize,
}

/// Computes adherence statistics for a measured power trace against a
/// cap.
pub fn cap_adherence(trace: &[Watts], cap: Watts) -> CapAdherence {
    let n = trace.len().max(1);
    let under = trace.iter().filter(|p| **p <= cap).count();
    let settle = trace.iter().position(|p| *p <= cap).unwrap_or(trace.len());
    CapAdherence {
        under_cap_fraction: under as f64 / n as f64,
        settle_intervals: settle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_core::daemon::PpepDaemon;
    use ppep_rig::TrainingRig;
    use ppep_sim::chip::{ChipSimulator, SimConfig};
    use ppep_sim::SimPlatform;
    use ppep_types::VfTable;
    use ppep_workloads::combos::fig7_workload;
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
    fn one_step_meets_cap_within_one_interval() {
        let ppep = engine();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&fig7_workload(42));
        let cap = Watts::new(70.0);
        let controller = OneStepCapping::new(ppep.clone(), cap);
        let mut daemon = PpepDaemon::new(ppep, SimPlatform::new(sim), controller);
        let steps = daemon.run(6).into_result().unwrap();
        // First interval runs at boot state (may exceed the cap); from
        // the second interval on, measured power must respect it
        // (small sensor-noise slack).
        for s in &steps[1..] {
            assert!(
                s.record.measured_power.as_watts() <= cap.as_watts() * 1.06,
                "interval {:?} at {} W exceeds cap",
                s.record.index,
                s.record.measured_power.as_watts()
            );
        }
    }

    #[test]
    fn one_step_does_not_sandbag() {
        // Under a generous cap the controller must keep everything at
        // the top state.
        let ppep = engine();
        let table = ppep.models().vf_table().clone();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&fig7_workload(42));
        let controller = OneStepCapping::new(ppep.clone(), Watts::new(500.0));
        let mut daemon = PpepDaemon::new(ppep, SimPlatform::new(sim), controller);
        let steps = daemon.run(3).into_result().unwrap();
        assert_eq!(steps.last().unwrap().decision, vec![table.highest(); 4]);
    }

    #[test]
    fn one_step_converges_faster_than_iterative() {
        let cap = Watts::new(65.0);
        let run = |one_step: bool| -> Vec<Watts> {
            let ppep = engine();
            let table = ppep.models().vf_table().clone();
            let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
            sim.load_workload(&fig7_workload(42));
            // Warm up at full speed so the cap transition is visible.
            let _ = sim.run_intervals(10);
            if one_step {
                let controller = OneStepCapping::new(ppep.clone(), cap);
                let mut daemon = PpepDaemon::new(ppep, SimPlatform::new(sim), controller);
                daemon
                    .run(15)
                    .into_result()
                    .unwrap()
                    .iter()
                    .map(|s| s.record.measured_power)
                    .collect()
            } else {
                let mut controller = IterativeCapping::new(cap, &table);
                let mut trace = Vec::new();
                for _ in 0..15 {
                    let record = sim.step_interval();
                    controller.observe_power(record.measured_power);
                    let decision = controller.choose(4);
                    for (cu, vf) in decision.iter().enumerate() {
                        sim.set_cu_vf(ppep_types::CuId(cu), *vf).unwrap();
                    }
                    trace.push(record.measured_power);
                }
                trace
            }
        };
        let predictive = cap_adherence(&run(true), cap * 1.03);
        let reactive = cap_adherence(&run(false), cap * 1.03);
        assert!(
            predictive.settle_intervals < reactive.settle_intervals,
            "one-step settles in {} vs iterative {}",
            predictive.settle_intervals,
            reactive.settle_intervals
        );
        assert!(
            predictive.under_cap_fraction >= reactive.under_cap_fraction,
            "one-step adherence {} vs iterative {}",
            predictive.under_cap_fraction,
            reactive.under_cap_fraction
        );
    }

    #[test]
    fn iterative_steps_one_rung_per_interval() {
        let table = VfTable::fx8320();
        let mut c = IterativeCapping::new(Watts::new(50.0), &table);
        // No observation yet: stays at the top.
        assert_eq!(c.choose(4), vec![table.highest(); 4]);
        // Over the cap: one rung down per observation.
        c.observe_power(Watts::new(90.0));
        assert_eq!(c.choose(4)[0].index(), 3);
        c.observe_power(Watts::new(80.0));
        assert_eq!(c.choose(4)[0].index(), 2);
        // Far under the cap: climbs back.
        c.observe_power(Watts::new(20.0));
        assert_eq!(c.choose(4)[0].index(), 3);
        // Just under the cap (within margin): holds.
        c.observe_power(Watts::new(48.0));
        assert_eq!(c.choose(4)[0].index(), 3);
    }

    #[test]
    fn iterative_saturates_at_ladder_ends() {
        let table = VfTable::fx8320();
        let mut c = IterativeCapping::new(Watts::new(10.0), &table);
        for _ in 0..10 {
            c.observe_power(Watts::new(99.0));
            let _ = c.choose(4);
        }
        assert_eq!(c.choose(4)[0], table.lowest());
        let mut up = IterativeCapping::new(Watts::new(1000.0), &table);
        for _ in 0..10 {
            up.observe_power(Watts::new(5.0));
            let _ = up.choose(4);
        }
        assert_eq!(up.choose(4)[0], table.highest());
    }

    #[test]
    fn one_step_leaves_idle_cus_at_the_floor() {
        // Regression: the greedy refinement used to walk idle (gated)
        // CUs up to the top state because a zero-gain step still beat
        // an empty candidate set.
        let ppep = engine();
        let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(42));
        sim.load_workload(&ppep_workloads::combos::instances("458.sjeng", 2, 42));
        let record = sim.run_intervals(5).pop().unwrap();
        let projection = ppep.project(&record).unwrap();
        let mut controller = OneStepCapping::new(ppep.clone(), Watts::new(500.0));
        let decision = controller.decide(&projection).unwrap();
        // Busy CUs 0 and 1 run fast; idle CUs 2 and 3 stay where the
        // uniform baseline put them (the top fits under 500 W, so the
        // baseline is already VF5 — but no *step-up churn* happens).
        let table = ppep.models().vf_table().clone();
        assert_eq!(decision[0], table.highest());
        // Under a cap that forces a low uniform baseline, the idle CUs
        // must remain at that baseline instead of being promoted.
        let mut tight = OneStepCapping::new(ppep.clone(), Watts::new(40.0));
        let tight_decision = tight.decide(&projection).unwrap();
        assert_eq!(
            tight_decision[2], tight_decision[3],
            "idle CUs move together (not at all): {tight_decision:?}"
        );
        let busy_max = tight_decision[..2].iter().max().unwrap();
        assert!(
            tight_decision[2] <= *busy_max,
            "idle CUs must not outrank busy ones: {tight_decision:?}"
        );
    }

    #[test]
    fn iterative_controller_works_inside_the_daemon() {
        // Regression: decide() used to ignore power entirely, leaving
        // the baseline pinned at the top state forever.
        let ppep = engine();
        let table = ppep.models().vf_table().clone();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&fig7_workload(42));
        let controller = IterativeCapping::new(Watts::new(40.0), &table);
        let mut daemon = PpepDaemon::new(ppep, SimPlatform::new(sim), controller);
        let steps = daemon.run(10).into_result().unwrap();
        // It must have stepped down from the boot state.
        assert!(
            steps.last().unwrap().decision[0] < table.highest(),
            "daemon-driven iterative capping never moved: {:?}",
            steps.last().unwrap().decision
        );
    }

    #[test]
    fn steepest_drop_descends_to_the_cap_and_climbs_back() {
        let ppep = engine();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&fig7_workload(42));
        let _ = sim.run_intervals(5);
        let record = sim.step_interval();
        let projection = ppep.project(&record).unwrap();
        // Tight cap: must descend below the source assignment.
        let mut tight = SteepestDrop::new(ppep.clone(), Watts::new(50.0));
        let decision = tight.decide(&projection).unwrap();
        let predicted = ppep
            .chip_power_with_assignment(&projection, &decision)
            .unwrap();
        assert!(
            predicted <= Watts::new(50.0),
            "predicted {predicted} over cap"
        );
        assert!(decision.iter().any(|vf| *vf < projection.source_vf[0]));
        // Generous cap: must not descend at all (and may climb).
        let mut loose = SteepestDrop::new(ppep.clone(), Watts::new(500.0));
        let decision = loose.decide(&projection).unwrap();
        for (d, s) in decision.iter().zip(&projection.source_vf) {
            assert!(d >= s, "loose cap must not demote: {decision:?}");
        }
        // Impossible cap: descends to the floor without panicking.
        let mut impossible = SteepestDrop::new(ppep.clone(), Watts::new(1.0));
        let decision = impossible.decide(&projection).unwrap();
        let table = ppep.models().vf_table().clone();
        assert_eq!(decision, vec![table.lowest(); 4]);
    }

    #[test]
    fn steepest_drop_and_one_step_agree_on_feasibility() {
        // Both policies must land under the same cap; their exact
        // assignments may differ, but neither may violate it.
        let ppep = engine();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&fig7_workload(42));
        let record = sim.run_intervals(5).pop().unwrap();
        let projection = ppep.project(&record).unwrap();
        let cap = Watts::new(60.0);
        for decision in [
            OneStepCapping::new(ppep.clone(), cap)
                .decide(&projection)
                .unwrap(),
            SteepestDrop::new(ppep.clone(), cap)
                .decide(&projection)
                .unwrap(),
        ] {
            let predicted = ppep
                .chip_power_with_assignment(&projection, &decision)
                .unwrap();
            assert!(predicted <= cap, "{predicted} over {cap}");
        }
    }

    #[test]
    fn adherence_statistics() {
        let cap = Watts::new(50.0);
        let trace = vec![
            Watts::new(80.0),
            Watts::new(60.0),
            Watts::new(45.0),
            Watts::new(48.0),
            Watts::new(55.0),
            Watts::new(49.0),
        ];
        let a = cap_adherence(&trace, cap);
        assert_eq!(a.settle_intervals, 2);
        assert!((a.under_cap_fraction - 3.0 / 6.0).abs() < 1e-12);
        let never = cap_adherence(&[Watts::new(99.0)], cap);
        assert_eq!(never.settle_intervals, 1);
        assert_eq!(never.under_cap_fraction, 0.0);
        let empty = cap_adherence(&[], cap);
        assert_eq!(empty.under_cap_fraction, 0.0);
    }
}
