//! Resilience — the Fig. 7 power-capping scenario replayed under a
//! deterministic fault storm (beyond the paper).
//!
//! The paper's daemon trusts its plumbing; this experiment does not.
//! Both an unprotected [`PpepDaemon`] and a supervised
//! [`ResilientDaemon`] drive the one-step capping policy over the
//! Fig. 7 workload while a seeded [`FaultPlan`] drops sensor
//! readings, freezes the diode, fails MSR reads, and overruns
//! intervals. A sensor dropout is pinned into the first high-cap
//! phase, so the unprotected daemon is guaranteed to abort while the
//! chip runs fast — and then has nobody to throttle it when the cap
//! drops. The supervisor absorbs the same faults by holding its last
//! good projection (or pinning the failsafe state), keeping the cap
//! enforced.
//!
//! Reported per daemon: decision availability (intervals with an
//! informed DVFS decision) and cap adherence (intervals at or under
//! the in-force cap, measured against the simulator's hidden true
//! power).

use crate::common::Context;
use crate::fig07_capping::cap_schedule;
use ppep_core::daemon::PpepDaemon;
use ppep_core::resilient::{HealthReport, ResilientDaemon, SupervisorConfig};
use ppep_core::{Platform, Ppep};
use ppep_dvfs::capping::OneStepCapping;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::{FaultKind, FaultPlan};
use ppep_sim::SimPlatform;
use ppep_types::{Error, Result, Watts};
use ppep_workloads::combos::fig7_workload;

/// One daemon's survival statistics.
#[derive(Debug, Clone)]
pub struct DaemonOutcome {
    /// Intervals for which the daemon made an informed DVFS decision.
    pub decided_intervals: usize,
    /// Intervals the scenario ran for.
    pub total_intervals: usize,
    /// `decided_intervals / total_intervals`.
    pub decision_availability: f64,
    /// Fraction of observable steady-state intervals at or under the
    /// in-force cap (hidden true power, 3% slack, skipping the
    /// interval after each downward cap edge).
    pub adherence: f64,
    /// The error that killed the daemon, if one did.
    pub aborted_by: Option<Error>,
    /// The interval the daemon died on, if it died.
    pub aborted_at: Option<usize>,
}

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct ResilienceResult {
    /// The unprotected daemon (aborts on the first erroring fault).
    pub unprotected: DaemonOutcome,
    /// The supervised daemon.
    pub supervised: DaemonOutcome,
    /// The supervisor's health bookkeeping.
    pub health: HealthReport,
    /// Total faults scheduled.
    pub faults_injected: usize,
    /// Intervals with at least one erroring (measurement-losing)
    /// fault.
    pub erroring_intervals: usize,
}

/// The shared fault schedule: a seeded storm, plus one guaranteed
/// sensor dropout in the middle of the first high-cap phase — the
/// worst possible moment for an unprotected daemon to die, since the
/// chip is running fast and the 40 W phase is coming.
pub fn fault_schedule(seed: u64, intervals: usize, period: usize, cores: usize) -> FaultPlan {
    FaultPlan::storm(seed ^ 0x5E11_F0CC, intervals as u64, 0.15, cores)
        .with((period / 2) as u64, FaultKind::SensorDropout)
}

fn scenario_sim(ctx: &Context, plan: &FaultPlan) -> ChipSimulator {
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(ctx.seed));
    sim.load_workload(&fig7_workload(ctx.seed));
    sim.set_fault_plan(plan.clone());
    sim
}

/// Cap adherence over a trace of hidden true powers (`None` where the
/// measurement — and hence the truth snapshot — was lost).
fn adherence(power: &[Option<Watts>], period: usize) -> f64 {
    let mut under = 0usize;
    let mut counted = 0usize;
    for (step, p) in power.iter().enumerate().skip(1) {
        if cap_schedule(step, period) < cap_schedule(step - 1, period) {
            continue; // no controller can anticipate the edge
        }
        let Some(p) = p else { continue };
        counted += 1;
        if *p <= cap_schedule(step, period) * 1.03 {
            under += 1;
        }
    }
    under as f64 / counted.max(1) as f64
}

fn run_unprotected(
    ctx: &Context,
    ppep: &Ppep,
    plan: &FaultPlan,
    intervals: usize,
    period: usize,
) -> Result<DaemonOutcome> {
    let controller = OneStepCapping::new(ppep.clone(), cap_schedule(0, period));
    let mut daemon = PpepDaemon::new(
        ppep.clone(),
        SimPlatform::new(scenario_sim(ctx, plan)),
        controller,
    );
    let mut power: Vec<Option<Watts>> = Vec::with_capacity(intervals);
    let mut decided = 0usize;
    let mut aborted_by: Option<Error> = None;
    let mut aborted_at: Option<usize> = None;
    for step in 0..intervals {
        if aborted_by.is_none() {
            daemon.controller_mut().set_cap(cap_schedule(step, period));
            match daemon.step() {
                Ok(s) => {
                    decided += 1;
                    power.push(Some(s.record.true_power.total()));
                }
                Err(e) => {
                    aborted_by = Some(e);
                    aborted_at = Some(step);
                    power.push(None);
                }
            }
        } else {
            // The daemon is dead but the chip is not: it freewheels at
            // the last applied VF assignment while time (and the cap
            // schedule) marches on.
            match daemon.platform_mut().sample() {
                Ok(r) => power.push(Some(r.true_power.total())),
                Err(_) => power.push(None),
            }
        }
    }
    Ok(DaemonOutcome {
        decided_intervals: decided,
        total_intervals: intervals,
        decision_availability: decided as f64 / intervals as f64,
        adherence: adherence(&power, period),
        aborted_by,
        aborted_at,
    })
}

fn run_supervised(
    ctx: &Context,
    ppep: &Ppep,
    plan: &FaultPlan,
    intervals: usize,
    period: usize,
) -> Result<(DaemonOutcome, HealthReport)> {
    let table = ppep.models().vf_table().clone();
    let controller = OneStepCapping::new(ppep.clone(), cap_schedule(0, period));
    let inner = PpepDaemon::new(
        ppep.clone(),
        SimPlatform::new(scenario_sim(ctx, plan)),
        controller,
    );
    let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
    let mut power: Vec<Option<Watts>> = Vec::with_capacity(intervals);
    for step in 0..intervals {
        daemon
            .inner_mut()
            .controller_mut()
            .set_cap(cap_schedule(step, period));
        let s = daemon.step()?; // all injected faults are transient
        power.push(s.record.as_ref().map(|r| r.true_power.total()));
    }
    let report = daemon.report().clone();
    let decided = (report.fresh_decisions + report.held_decisions) as usize;
    Ok((
        DaemonOutcome {
            decided_intervals: decided,
            total_intervals: intervals,
            decision_availability: report.decision_availability(),
            adherence: adherence(&power, period),
            aborted_by: None,
            aborted_at: None,
        },
        report,
    ))
}

/// Runs the scenario for both daemons under the identical fault plan.
///
/// # Errors
///
/// Propagates training errors and non-transient daemon errors.
pub fn run(ctx: &Context) -> Result<ResilienceResult> {
    let models = ctx.train_models()?;
    let ppep = Ppep::new(models);
    let intervals = match ctx.scale {
        crate::common::Scale::Full => 300,
        crate::common::Scale::Quick => 90,
    };
    let period = intervals / 6;
    let cores = ppep.models().topology().core_count();
    let plan = fault_schedule(ctx.seed, intervals, period, cores);

    let unprotected = run_unprotected(ctx, &ppep, &plan, intervals, period)?;
    let (supervised, health) = run_supervised(ctx, &ppep, &plan, intervals, period)?;
    Ok(ResilienceResult {
        unprotected,
        supervised,
        health,
        faults_injected: plan.len(),
        erroring_intervals: plan.erroring_intervals(intervals as u64),
    })
}

/// Prints the resilience summary.
pub fn print(result: &ResilienceResult) {
    println!("== Resilience: Fig. 7 capping under a fault storm ==");
    println!(
        "faults: {} scheduled, {} intervals lose their measurement outright",
        result.faults_injected, result.erroring_intervals
    );
    let line = |label: &str, o: &DaemonOutcome| {
        let fate = match (&o.aborted_by, o.aborted_at) {
            (Some(e), Some(at)) => format!("ABORTED at interval {at}: {e}"),
            _ => "completed".to_string(),
        };
        println!(
            "{label}: decisions {}/{} ({}), cap adherence {}, {fate}",
            o.decided_intervals,
            o.total_intervals,
            crate::common::pct(o.decision_availability),
            crate::common::pct(o.adherence),
        );
    };
    line("unprotected", &result.unprotected);
    line("supervised ", &result.supervised);
    let h = &result.health;
    println!(
        "supervisor: {} fresh, {} held, {} failsafe-pinned, {} quarantined, \
         {} transient errors absorbed",
        h.fresh_decisions,
        h.held_decisions,
        h.failsafe_intervals,
        h.quarantined,
        h.transient_errors
    );
    let path: Vec<String> = h
        .transitions
        .iter()
        .map(|(i, s)| format!("{s}@{i}"))
        .collect();
    if !path.is_empty() {
        println!("health transitions: healthy@0 -> {}", path.join(" -> "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Scale, DEFAULT_SEED};

    #[test]
    fn supervised_daemon_survives_where_unprotected_aborts() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();

        // The guaranteed dropout (at the latest) kills the unprotected
        // daemon inside the first high-cap phase.
        assert!(
            r.unprotected.aborted_by.is_some(),
            "unprotected daemon must abort"
        );
        assert!(r.unprotected.aborted_at.unwrap() <= 90 / 6 / 2);
        assert!(r.unprotected.decision_availability < 0.5);

        // The supervised daemon completes the whole scenario with an
        // informed decision on >= 90% of intervals.
        assert!(r.supervised.aborted_by.is_none());
        assert!(
            r.supervised.decision_availability >= 0.9,
            "availability {:.3}",
            r.supervised.decision_availability
        );

        // ... and materially better cap adherence: the dead daemon
        // leaves the chip fast through every 40 W phase.
        assert!(
            r.supervised.adherence >= r.unprotected.adherence + 0.1,
            "adherence: supervised {:.3} vs unprotected {:.3}",
            r.supervised.adherence,
            r.unprotected.adherence
        );

        // The storm actually bit the supervisor.
        assert!(r.health.transient_errors > 0);
        assert_eq!(
            r.health.transient_errors as usize
                + r.health.quarantined as usize
                + r.supervised.decided_intervals
                - r.health.held_decisions as usize,
            r.supervised.total_intervals,
            "every interval is either fresh, held, or pinned"
        );
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let a = fault_schedule(7, 90, 15, 8);
        let b = fault_schedule(7, 90, 15, 8);
        assert_eq!(a, b);
        // The pinned dropout is always present.
        assert!(a.kinds_at(7).any(|k| matches!(k, FaultKind::SensorDropout)));
    }
}
