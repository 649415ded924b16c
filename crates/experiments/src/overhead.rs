//! Overhead — per-stage latency and framework overhead of the 200 ms
//! online loop (beyond the paper's figures; backs its §V claim that
//! PPEP's online prediction cost is negligible).
//!
//! The Fig. 7 capping scenario (plus a mild fault storm, so the
//! degraded paths are exercised too) runs twice under a supervised
//! daemon: once with the no-op recorder and once with a
//! [`TraceRecorder`] attached. The traced run yields per-stage
//! latency histograms (p50/p95/p99/max), a per-interval framework
//! overhead profile against the 200 ms decision budget, and the full
//! span/event trace for JSONL and Chrome `trace_event` export. The
//! untraced run exists to prove the instrumentation is inert: both
//! runs must produce bit-identical DVFS decisions.

use crate::common::{print_table, Context, Scale};
use crate::fig07_capping::cap_schedule;
use ppep_core::daemon::PpepDaemon;
use ppep_core::resilient::{ResilientDaemon, SupervisorConfig};
use ppep_core::Ppep;
use ppep_dvfs::capping::OneStepCapping;
use ppep_obs::export::{chrome_trace_snapshot, metrics_jsonl, spans_jsonl};
use ppep_obs::{
    OverheadProfile, RecorderHandle, ScorerConfig, Stage, TraceRecorder, TraceSnapshot,
};
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_types::{Result, VfStateId};
use ppep_workloads::combos::fig7_workload;
use std::sync::Arc;

/// One pipeline stage's latency summary (all values in microseconds).
#[derive(Debug, Clone)]
pub struct StageRow {
    /// The stage.
    pub stage: Stage,
    /// Spans recorded for it.
    pub count: u64,
    /// Median latency.
    pub p50_us: f64,
    /// 95th-percentile latency.
    pub p95_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
    /// Worst observed latency.
    pub max_us: f64,
}

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// Per-stage latency rows, pipeline order.
    pub stages: Vec<StageRow>,
    /// Mean framework compute per interval as a fraction of 200 ms.
    pub mean_fraction: f64,
    /// 95th-percentile framework fraction.
    pub p95_fraction: f64,
    /// Worst-interval framework fraction.
    pub max_fraction: f64,
    /// The decision budget, in milliseconds.
    pub budget_ms: f64,
    /// Intervals the scenario ran for.
    pub intervals: usize,
    /// Whether the traced and untraced runs chose identical VF
    /// assignments on every interval (they must).
    pub identical: bool,
    /// The traced run's full observability snapshot.
    pub snapshot: TraceSnapshot,
}

fn scenario_sim(ctx: &Context, plan: &FaultPlan) -> ChipSimulator {
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(ctx.seed));
    sim.load_workload(&fig7_workload(ctx.seed));
    sim.set_fault_plan(plan.clone());
    sim
}

/// One supervised capping run; returns the per-interval decisions.
fn run_once(
    ctx: &Context,
    ppep: &Ppep,
    plan: &FaultPlan,
    intervals: usize,
    period: usize,
    recorder: RecorderHandle,
) -> Result<Vec<Vec<VfStateId>>> {
    let table = ppep.models().vf_table().clone();
    let controller =
        OneStepCapping::new(ppep.clone(), cap_schedule(0, period)).with_recorder(recorder.clone());
    let inner = PpepDaemon::new(
        ppep.clone(),
        SimPlatform::new(scenario_sim(ctx, plan)),
        controller,
    )
    .with_recorder(recorder)
    // Both runs score their own predictions: the traced run exports
    // the accuracy gauges/histograms, and the decision comparison
    // below then also re-checks that scoring is bit-inert.
    .with_scorer(ScorerConfig::default());
    let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
    let mut decisions = Vec::with_capacity(intervals);
    for step in 0..intervals {
        daemon
            .inner_mut()
            .controller_mut()
            .set_cap(cap_schedule(step, period));
        decisions.push(daemon.step()?.decision.clone());
    }
    Ok(decisions)
}

/// Runs the scenario untraced and traced and profiles the traced run.
///
/// # Errors
///
/// Propagates training errors and non-transient daemon errors.
pub fn run(ctx: &Context) -> Result<OverheadResult> {
    let models = ctx.train_models()?;
    let ppep = Ppep::new(models);
    let intervals = match ctx.scale {
        Scale::Full => 240,
        Scale::Quick => 48,
    };
    let period = intervals / 6;
    let cores = ppep.models().topology().core_count();
    // Mild storm: enough faults to exercise the degraded paths and
    // fault counters without dominating the trace.
    let plan = FaultPlan::storm(ctx.seed ^ 0x0B5E_CAFE, intervals as u64, 0.05, cores);

    let baseline = run_once(ctx, &ppep, &plan, intervals, period, RecorderHandle::noop())?;
    let recorder = Arc::new(TraceRecorder::new());
    let traced = run_once(
        ctx,
        &ppep,
        &plan,
        intervals,
        period,
        RecorderHandle::new(recorder.clone()),
    )?;
    let identical = baseline == traced;

    let snapshot = recorder.snapshot();
    let profile = OverheadProfile::from_spans(&snapshot.spans);
    let stages = Stage::ALL
        .iter()
        .filter_map(|&stage| {
            let h = snapshot.stage_histogram(stage)?;
            Some(StageRow {
                stage,
                count: h.count(),
                p50_us: h.percentile(0.50),
                p95_us: h.percentile(0.95),
                p99_us: h.percentile(0.99),
                max_us: h.max(),
            })
        })
        .collect();

    Ok(OverheadResult {
        stages,
        mean_fraction: profile.mean_fraction(),
        p95_fraction: profile.fraction_percentile(0.95),
        max_fraction: profile.max_fraction(),
        budget_ms: profile.budget_ns() as f64 / 1e6,
        intervals,
        identical,
        snapshot,
    })
}

/// The traced run's spans as JSON Lines.
pub fn spans_export(r: &OverheadResult) -> String {
    spans_jsonl(&r.snapshot.spans)
}

/// The traced run's spans, events, and gauge counters (including the
/// `accuracy.*` accuracy/drift gauges) as a Chrome `trace_event` JSON
/// document (load in `chrome://tracing` or Perfetto).
pub fn trace_export(r: &OverheadResult) -> String {
    chrome_trace_snapshot(&r.snapshot)
}

/// The traced run's counters, gauges, and histograms as JSON Lines —
/// the per-stage latency histograms next to the `accuracy.*` error
/// histograms.
pub fn metrics_export(r: &OverheadResult) -> String {
    metrics_jsonl(&r.snapshot)
}

/// Prints the per-stage table, an ASCII latency chart, the counters,
/// and the overhead verdict.
pub fn print(result: &OverheadResult) {
    println!("== Overhead: per-stage latency of the 200 ms online loop ==");
    println!(
        "{} intervals, trace-on vs trace-off decisions {}",
        result.intervals,
        if result.identical {
            "identical"
        } else {
            "DIVERGED"
        }
    );
    let rows: Vec<Vec<String>> = result
        .stages
        .iter()
        .map(|s| {
            vec![
                s.stage.name().to_string(),
                s.count.to_string(),
                format!("{:.1}", s.p50_us),
                format!("{:.1}", s.p95_us),
                format!("{:.1}", s.p99_us),
                format!("{:.1}", s.max_us),
            ]
        })
        .collect();
    print_table(
        &["stage", "spans", "p50 us", "p95 us", "p99 us", "max us"],
        &rows,
    );

    // ASCII chart: each stage's p95 latency as a bar, log-ish scaled
    // so the cheap microsecond stages stay visible next to Sample.
    let max_p95 = result.stages.iter().fold(0.0_f64, |m, s| m.max(s.p95_us));
    if max_p95 > 0.0 {
        println!();
        for s in &result.stages {
            let scaled = (1.0 + s.p95_us).ln() / (1.0 + max_p95).ln();
            let width = (scaled * 40.0).round() as usize;
            println!("{:>13} |{}", s.stage.name(), "#".repeat(width));
        }
    }

    println!();
    let interesting = [
        "fault.injected",
        "fault.detected",
        "fault.quarantined",
        "fault.transient",
        "health.transitions",
        "dvfs.vf_transitions",
        "dvfs.cap_violations",
    ];
    for name in interesting {
        let v = result.snapshot.counter(name);
        if v > 0 {
            println!("{name}: {v}");
        }
    }
    if let Some(cpi) = result.snapshot.gauges.get("accuracy.cpi.mean_pct") {
        let power = result
            .snapshot
            .gauges
            .get("accuracy.power.mean_pct")
            .copied()
            .unwrap_or(0.0);
        let drifted = result
            .snapshot
            .gauges
            .get("accuracy.drift.tripped")
            .copied()
            .unwrap_or(0.0)
            > 0.0;
        println!(
            "prediction accuracy: mean CPI err {cpi:.2}% / mean power err {power:.2}% / drift {}",
            if drifted { "TRIPPED" } else { "ok" }
        );
    }
    println!(
        "framework compute per interval: mean {} / p95 {} / max {} of the {:.0} ms budget",
        pct_fine(result.mean_fraction),
        pct_fine(result.p95_fraction),
        pct_fine(result.max_fraction),
        result.budget_ms
    );
}

/// A sub-percent-capable percentage (the overhead fractions are tiny).
fn pct_fine(v: f64) -> String {
    format!("{:.4}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::DEFAULT_SEED;

    #[test]
    fn overhead_run_is_inert_and_cheap() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        assert!(r.identical, "tracing must not perturb decisions");
        assert_eq!(r.intervals, 48);
        // Every chip-pipeline stage fired at least once; the serve-*
        // stages belong to the capping service and stay silent here.
        let pipeline_stages = Stage::ALL.iter().filter(|s| !s.is_serve()).count();
        assert_eq!(r.stages.len(), pipeline_stages);
        for s in &r.stages {
            assert!(!s.stage.is_serve(), "{} cannot fire here", s.stage.name());
            assert!(s.count > 0, "stage {} never ran", s.stage.name());
            assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us);
        }
        // The framework is far inside the 200 ms budget even with the
        // CI gate's 10x slack.
        assert!(r.mean_fraction < 0.10, "mean {:.4}", r.mean_fraction);
        assert!(r.budget_ms > 199.0 && r.budget_ms < 201.0);
        // The storm and the controller left their counters behind.
        assert!(r.snapshot.counter("fault.injected") > 0);
        assert!(r.snapshot.counter("dvfs.vf_transitions") > 0);
        // The scorer's accuracy view made it into the snapshot and
        // both export formats.
        assert!(r.snapshot.gauges.contains_key("accuracy.cpi.mean_pct"));
        assert!(r.snapshot.histograms.contains_key("accuracy.cpi.err_pct"));
        // Exports are well-formed enough to ship.
        let jsonl = spans_export(&r);
        assert!(jsonl.lines().count() == r.snapshot.spans.len());
        let trace = trace_export(&r);
        assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
        assert!(
            trace.contains("\"name\":\"accuracy.cpi.mean_pct\""),
            "accuracy gauges must be visible in the Chrome trace"
        );
        let metrics = metrics_export(&r);
        assert!(
            metrics
                .lines()
                .any(|l| l.contains("accuracy.power.mean_pct")),
            "{metrics}"
        );
    }
}
