//! Fig. 7 — power-capping responsiveness: PPEP's one-step policy
//! versus a simple iterative policy, under a square-wave power target.
//!
//! The workload is 429.mcf + 458.sjeng + 416.gamess + swaptions on
//! four CUs. The paper reports: PPEP adjusts within one 0.2 s interval
//! and adheres to the budget 94% of the time; the iterative policy
//! takes 2.8 s to converge (14× slower) and adheres 81% of the time.

use crate::common::Context;
use ppep_core::daemon::DvfsController;
use ppep_core::Ppep;
use ppep_dvfs::capping::{cap_adherence, IterativeCapping, OneStepCapping};
use ppep_sim::chip::ChipSimulator;
use ppep_types::{CuId, Result, Watts};
use ppep_workloads::combos::fig7_workload;

/// One policy's trace and summary statistics.
#[derive(Debug, Clone)]
pub struct PolicyTrace {
    /// Measured chip power per interval.
    pub power: Vec<Watts>,
    /// The cap in force per interval.
    pub cap: Vec<Watts>,
    /// Fraction of intervals at or under the in-force cap.
    pub adherence: f64,
    /// Worst-case intervals needed to get under a newly lowered cap.
    pub worst_settle_intervals: usize,
}

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct Fig07Result {
    /// The PPEP-based one-step policy.
    pub ppep: PolicyTrace,
    /// The simple iterative policy.
    pub iterative: PolicyTrace,
    /// Convergence speedup (iterative settle / one-step settle).
    pub speedup: f64,
}

/// The square-wave cap: alternates between a high and a low budget
/// every `period` intervals (the paper swings the cap widely to expose
/// convergence behaviour).
pub fn cap_schedule(step: usize, period: usize) -> Watts {
    if (step / period).is_multiple_of(2) {
        Watts::new(95.0)
    } else {
        Watts::new(40.0)
    }
}

fn run_policy(ctx: &Context, ppep: &Ppep, one_step: bool, intervals: usize) -> Result<PolicyTrace> {
    let mut sim = ChipSimulator::new(ppep_sim::chip::SimConfig::fx8320_pg(ctx.seed));
    sim.load_workload(&fig7_workload(ctx.seed));
    let table = ppep.models().vf_table().clone();
    let period = intervals / 6;

    let mut one = OneStepCapping::new(ppep.clone(), cap_schedule(0, period));
    let mut iter = IterativeCapping::new(cap_schedule(0, period), &table);
    // Commodity reactive governors hold each setting for a few
    // intervals to measure stable power before moving again.
    iter.hold_intervals = 4;

    let mut power = Vec::with_capacity(intervals);
    let mut caps = Vec::with_capacity(intervals);
    let mut settles: Vec<usize> = Vec::new();
    let mut pending_settle: Option<usize> = None;

    for step in 0..intervals {
        let cap = cap_schedule(step, period);
        let record = sim.step_interval();
        power.push(record.measured_power);
        caps.push(cap);

        // Track settle time after each downward cap edge.
        if step > 0 && cap < cap_schedule(step - 1, period) {
            pending_settle = Some(0);
        }
        if let Some(ticks) = pending_settle.as_mut() {
            if record.measured_power <= cap * 1.03 {
                settles.push(*ticks);
                pending_settle = None;
            } else {
                *ticks += 1;
            }
        }

        let decision = if one_step {
            one.set_cap(cap);
            let projection = ppep.project(&record)?;
            one.decide(&projection)?
        } else {
            iter.set_cap(cap);
            iter.observe_power(record.measured_power);
            iter.choose(ppep.models().topology().cu_count())
        };
        for (cu, vf) in decision.iter().enumerate().take(4) {
            sim.set_cu_vf(CuId(cu), *vf)?;
        }
    }

    // Adherence against the per-interval cap (3% sensor-noise slack,
    // skipping the first interval after each edge which no controller
    // can anticipate).
    let mut under = 0usize;
    let mut counted = 0usize;
    for step in 1..intervals {
        if cap_schedule(step, period) < cap_schedule(step - 1, period) {
            continue;
        }
        counted += 1;
        if power[step] <= caps[step] * 1.03 {
            under += 1;
        }
    }
    let _ = cap_adherence(&power, caps[0]); // exercised in unit tests

    Ok(PolicyTrace {
        adherence: under as f64 / counted.max(1) as f64,
        worst_settle_intervals: settles.into_iter().max().unwrap_or(intervals),
        power,
        cap: caps,
    })
}

/// Runs both policies.
///
/// # Errors
///
/// Propagates training and policy errors.
pub fn run(ctx: &Context) -> Result<Fig07Result> {
    let models = ctx.train_models()?;
    let ppep = Ppep::new(models);
    let intervals = match ctx.scale {
        crate::common::Scale::Full => 300,
        crate::common::Scale::Quick => 90,
    };
    let one = run_policy(ctx, &ppep, true, intervals)?;
    let iter = run_policy(ctx, &ppep, false, intervals)?;
    let speedup =
        iter.worst_settle_intervals.max(1) as f64 / one.worst_settle_intervals.max(1) as f64;
    Ok(Fig07Result {
        ppep: one,
        iterative: iter,
        speedup,
    })
}

/// Prints the Fig. 7 summary.
pub fn print(result: &Fig07Result) {
    println!("== Fig. 7: power capping responsiveness ==");
    println!(
        "PPEP one-step : adherence {}  worst settle {} intervals ({:.1} s)",
        crate::common::pct(result.ppep.adherence),
        result.ppep.worst_settle_intervals,
        result.ppep.worst_settle_intervals as f64 * 0.2
    );
    println!(
        "iterative     : adherence {}  worst settle {} intervals ({:.1} s)",
        crate::common::pct(result.iterative.adherence),
        result.iterative.worst_settle_intervals,
        result.iterative.worst_settle_intervals as f64 * 0.2
    );
    println!(
        "convergence speedup: {:.1}x (paper: 14x — 0.2 s vs 2.8 s)",
        result.speedup
    );
    let to_w = |v: &[ppep_types::Watts]| v.iter().map(|w| w.as_watts()).collect::<Vec<_>>();
    println!(
        "{}",
        crate::ascii::chart_row("cap", &to_w(&result.ppep.cap), 60)
    );
    println!(
        "{}",
        crate::ascii::chart_row("PPEP", &to_w(&result.ppep.power), 60)
    );
    println!(
        "{}",
        crate::ascii::chart_row("iterative", &to_w(&result.iterative.power), 60)
    );
    println!("step  cap      PPEP      iterative");
    let n = result.ppep.power.len();
    for i in (0..n).step_by((n / 30).max(1)) {
        println!(
            "{:>4}  {:>6.1}  {:>8.1}  {:>9.1}",
            i,
            result.ppep.cap[i].as_watts(),
            result.ppep.power[i].as_watts(),
            result.iterative.power[i].as_watts()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Scale, DEFAULT_SEED};

    #[test]
    fn one_step_outperforms_iterative() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        assert!(
            r.ppep.worst_settle_intervals <= 1,
            "one-step must settle within one interval, took {}",
            r.ppep.worst_settle_intervals
        );
        assert!(
            r.iterative.worst_settle_intervals > r.ppep.worst_settle_intervals,
            "iterative {} vs one-step {}",
            r.iterative.worst_settle_intervals,
            r.ppep.worst_settle_intervals
        );
        assert!(
            r.ppep.adherence >= r.iterative.adherence,
            "adherence: PPEP {} vs iterative {}",
            r.ppep.adherence,
            r.iterative.adherence
        );
        assert!(r.speedup >= 2.0, "speedup {}", r.speedup);
    }
}
