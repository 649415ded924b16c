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
use ppep_core::ppe::PpeProjection;
use ppep_core::Ppep;
use ppep_obs::RecorderHandle;
use ppep_types::{Result, VfStateId, Watts};

/// Counts the CUs whose VF state differs between the measured
/// assignment and the controller's decision — the number of VF
/// transitions the decision will trigger when applied.
fn count_transitions(from: &[VfStateId], to: &[VfStateId]) -> u64 {
    from.iter().zip(to).filter(|(a, b)| a != b).count() as u64
}

/// Sets one CU's state in an assignment; a CU past its end is ignored.
fn set_cu(assignment: &mut [VfStateId], cu: usize, vf: VfStateId) {
    if let Some(slot) = assignment.get_mut(cu) {
        *slot = vf;
    }
}

/// The PPEP-based one-step capping controller.
#[derive(Debug, Clone)]
pub struct OneStepCapping {
    ppep: Ppep,
    cap: Watts,
    /// Guard band: the controller targets `cap · (1 − guard_band)` so
    /// that model bias and sensor noise do not turn into persistent
    /// cap violations. Production capping firmware does the same.
    pub guard_band: f64,
    recorder: RecorderHandle,
}

impl OneStepCapping {
    /// Builds a controller enforcing `cap` with a 5% guard band.
    pub fn new(ppep: Ppep, cap: Watts) -> Self {
        Self {
            ppep,
            cap,
            guard_band: 0.05,
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

    /// The current cap.
    pub fn cap(&self) -> Watts {
        self.cap
    }

    /// The single-step search: start from the fastest uniform state
    /// that fits, then greedily raise individual CUs (most projected
    /// throughput gain per watt first) while the assignment still
    /// fits the cap.
    ///
    /// # Errors
    ///
    /// Propagates projection-evaluation errors.
    pub fn choose(&self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        let mut assignment = Vec::new();
        self.choose_into(projection, &mut assignment)?;
        Ok(assignment)
    }

    /// [`choose`](Self::choose) into a caller-owned assignment, which
    /// is cleared and refilled in place.
    ///
    /// # Errors
    ///
    /// Propagates projection-evaluation errors.
    pub fn choose_into(
        &self,
        projection: &PpeProjection,
        assignment: &mut Vec<VfStateId>,
    ) -> Result<()> {
        let table = self.ppep.models().vf_table();
        let cu_count = projection.source_vf.len();
        let target = self.cap * (1.0 - self.guard_band);

        // Fastest uniform state under the target (fall back to lowest).
        let uniform = projection
            .fastest_under_cap(target)
            .unwrap_or_else(|| table.lowest());
        assignment.clear();
        assignment.resize(cu_count, uniform);

        // Greedy refinement: repeatedly raise the CU whose step-up
        // still fits and adds the most predicted throughput. Each
        // step-up is tried in place and undone before the next.
        loop {
            let current_power = self
                .ppep
                .chip_power_with_assignment(projection, assignment)?;
            let mut best: Option<(usize, VfStateId, f64)> = None;
            for cu in 0..cu_count {
                let Some(from) = assignment.get(cu).copied() else {
                    continue;
                };
                let Some(up) = table.step_up(from) else {
                    continue;
                };
                set_cu(assignment, cu, up);
                let power = self.ppep.chip_power_with_assignment(projection, assignment);
                set_cu(assignment, cu, from);
                let power = power?;
                if power > target {
                    continue;
                }
                let gain = self.cu_throughput_gain(projection, cu, from, up);
                if gain <= 0.0 {
                    // Idle (possibly gated) CUs gain nothing from a
                    // faster state; promoting them only misstates the
                    // decision (and wastes power on non-gating parts).
                    continue;
                }
                let watts = (power - current_power).as_watts().max(1e-9);
                let score = gain / watts;
                if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
                    best = Some((cu, up, score));
                }
            }
            match best {
                Some((cu, up, _)) => set_cu(assignment, cu, up),
                None => break,
            }
        }
        Ok(())
    }

    fn cu_throughput_gain(
        &self,
        projection: &PpeProjection,
        cu: usize,
        from: VfStateId,
        to: VfStateId,
    ) -> f64 {
        let cores_per_cu = self.ppep.models().topology().cores_per_cu();
        projection
            .cores
            .chunks(cores_per_cu)
            .nth(cu)
            .map_or(0.0, |cores| {
                cores
                    .iter()
                    .map(|core| core.at(to).ips - core.at(from).ips)
                    .sum()
            })
    }
}

impl DvfsController for OneStepCapping {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        let mut decision = Vec::new();
        self.decide_into(projection, &mut decision)?;
        Ok(decision)
    }

    fn decide_into(
        &mut self,
        projection: &PpeProjection,
        decision: &mut Vec<VfStateId>,
    ) -> Result<()> {
        self.choose_into(projection, decision)?;
        if self.recorder.enabled() {
            let source = self
                .ppep
                .chip_power_with_assignment(projection, &projection.source_vf)?;
            if source > self.cap {
                self.recorder.incr("dvfs.cap_violations");
            }
            self.recorder.add(
                "dvfs.vf_transitions",
                count_transitions(&projection.source_vf, decision),
            );
        }
        Ok(())
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
    /// Fraction of headroom below the cap required before stepping up
    /// (hysteresis against oscillation).
    pub step_up_margin: f64,
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
            step_up_margin: 0.10,
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

    /// The current cap.
    pub fn cap(&self) -> Watts {
        self.cap
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
                } else if p.as_watts() < self.cap.as_watts() * (1.0 - self.step_up_margin) {
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
    /// Guard band under the cap, as for [`OneStepCapping`].
    pub guard_band: f64,
    recorder: RecorderHandle,
}

impl SteepestDrop {
    /// Builds the policy.
    pub fn new(ppep: Ppep, cap: Watts) -> Self {
        Self {
            ppep,
            cap,
            guard_band: 0.05,
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

    /// One full descent/ascent pass from the measured assignment.
    ///
    /// # Errors
    ///
    /// Propagates projection-evaluation errors.
    pub fn choose(&self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        let table = self.ppep.models().vf_table().clone();
        let cores_per_cu = self.ppep.models().topology().cores_per_cu();
        let cu_count = projection.source_vf.len();
        let target = self.cap * (1.0 - self.guard_band);
        let mut assignment = projection.source_vf.clone();

        let cu_ips = |assignment: &[VfStateId], cu: usize| -> f64 {
            projection
                .cores
                .chunks(cores_per_cu)
                .nth(cu)
                .map_or(0.0, |cores| {
                    cores.iter().map(|core| core.at(assignment[cu]).ips).sum()
                })
        };

        // Descend: drop the CU with the steepest watts-per-lost-ips.
        while self
            .ppep
            .chip_power_with_assignment(projection, &assignment)?
            > target
        {
            let current = self
                .ppep
                .chip_power_with_assignment(projection, &assignment)?;
            let mut best: Option<(usize, VfStateId, f64)> = None;
            for cu in 0..cu_count {
                let Some(down) = table.step_down(assignment[cu]) else {
                    continue;
                };
                let mut candidate = assignment.clone();
                candidate[cu] = down;
                let power = self
                    .ppep
                    .chip_power_with_assignment(projection, &candidate)?;
                let saved = (current - power).as_watts();
                let lost = (cu_ips(&assignment, cu) - cu_ips(&candidate, cu)).max(1.0);
                let steepness = saved / lost;
                if best.as_ref().is_none_or(|(_, _, s)| steepness > *s) {
                    best = Some((cu, down, steepness));
                }
            }
            match best {
                Some((cu, down, _)) => assignment[cu] = down,
                None => break, // floor reached: nothing left to drop
            }
        }
        // Ascend while there is headroom (mirrors the descent).
        loop {
            let mut best: Option<(usize, VfStateId, f64)> = None;
            for cu in 0..cu_count {
                let Some(up) = table.step_up(assignment[cu]) else {
                    continue;
                };
                let mut candidate = assignment.clone();
                candidate[cu] = up;
                let power = self
                    .ppep
                    .chip_power_with_assignment(projection, &candidate)?;
                if power > target {
                    continue;
                }
                let gain = cu_ips(&candidate, cu) - cu_ips(&assignment, cu);
                if best.as_ref().is_none_or(|(_, _, g)| gain > *g) {
                    best = Some((cu, up, gain));
                }
            }
            match best {
                Some((cu, up, gain)) if gain > 0.0 => assignment[cu] = up,
                _ => break,
            }
        }
        Ok(assignment)
    }
}

impl DvfsController for SteepestDrop {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        let decision = self.choose(projection)?;
        if self.recorder.enabled() {
            let source = self
                .ppep
                .chip_power_with_assignment(projection, &projection.source_vf)?;
            if source > self.cap {
                self.recorder.incr("dvfs.cap_violations");
            }
            self.recorder.add(
                "dvfs.vf_transitions",
                count_transitions(&projection.source_vf, &decision),
            );
        }
        Ok(decision)
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
        let controller = OneStepCapping::new(ppep.clone(), Watts::new(500.0));
        let decision = controller.choose(&projection).unwrap();
        // Busy CUs 0 and 1 run fast; idle CUs 2 and 3 stay where the
        // uniform baseline put them (the top fits under 500 W, so the
        // baseline is already VF5 — but no *step-up churn* happens).
        let table = ppep.models().vf_table().clone();
        assert_eq!(decision[0], table.highest());
        // Under a cap that forces a low uniform baseline, the idle CUs
        // must remain at that baseline instead of being promoted.
        let tight = OneStepCapping::new(ppep.clone(), Watts::new(40.0));
        let tight_decision = tight.choose(&projection).unwrap();
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
        let tight = SteepestDrop::new(ppep.clone(), Watts::new(50.0));
        let decision = tight.choose(&projection).unwrap();
        let predicted = ppep
            .chip_power_with_assignment(&projection, &decision)
            .unwrap();
        assert!(
            predicted <= Watts::new(50.0),
            "predicted {predicted} over cap"
        );
        assert!(decision.iter().any(|vf| *vf < projection.source_vf[0]));
        // Generous cap: must not descend at all (and may climb).
        let loose = SteepestDrop::new(ppep.clone(), Watts::new(500.0));
        let decision = loose.choose(&projection).unwrap();
        for (d, s) in decision.iter().zip(&projection.source_vf) {
            assert!(d >= s, "loose cap must not demote: {decision:?}");
        }
        // Impossible cap: descends to the floor without panicking.
        let impossible = SteepestDrop::new(ppep.clone(), Watts::new(1.0));
        let decision = impossible.choose(&projection).unwrap();
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
                .choose(&projection)
                .unwrap(),
            SteepestDrop::new(ppep.clone(), cap)
                .choose(&projection)
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
