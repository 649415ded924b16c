//! Accuracy-watch — replay a recorded trace with a
//! [`PredictionScorer`] attached and render the prediction-accuracy
//! scorecard (beyond the paper's figures; §IV's headline numbers are
//! ~2.7% CPI and ~4.6% power error, and this watches the repro's own
//! predictor for regressions and drift).
//!
//! The trace replays through the full supervised daemon: each
//! interval's projection is staged for the chosen VF state and scored
//! against the *next* interval's measured CPI and power, exactly the
//! online scoring path `PpepDaemon` runs in production. The result is
//! a per-core/per-quantity scorecard (ASCII table, JSONL, and
//! `BENCH_accuracy.json`), and — for clean traces — a gate: a mean
//! CPI error past [`CLEAN_CPI_GATE_PCT`] exits nonzero, so CI catches
//! a predictor regression the moment it lands.
//!
//! Storm traces are scored too, but not gated on accuracy: corrupted
//! measurements *should* blow the error up. There the interesting
//! output is the drift column — the trip-wire firing for the faulted
//! core is the feature under test.

use crate::common::{print_table, Context, Scale};
use crate::fig07_capping::cap_schedule;
use ppep_core::daemon::PpepDaemon;
use ppep_core::resilient::{ResilientDaemon, SupervisorConfig};
use ppep_core::Ppep;
use ppep_dvfs::capping::OneStepCapping;
use ppep_obs::{ErrorTrack, PredictionScorer, ScorerConfig};
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_telemetry::{RecordingPlatform, ReplayPlatform, TraceReader};
use ppep_types::{Error, Result, Watts};
use ppep_workloads::combos::fig7_workload;

/// The clean-trace accuracy gate, percent mean CPI APE. The replayed
/// clean fixture scores a low-single-digit mean (the simulator is the
/// training distribution); 10% leaves headroom for model tweaks while
/// still catching a broken predictor or scoring path outright.
pub const CLEAN_CPI_GATE_PCT: f64 = 10.0;

/// One scored quantity's row in the scorecard.
#[derive(Debug, Clone)]
pub struct TrackRow {
    /// `core<N>` or `power`.
    pub label: String,
    /// Scored predicted-vs-measured pairs.
    pub scored: u64,
    /// Pairs skipped as unscorable (missing / non-finite / ~zero).
    pub invalid: u64,
    /// Mean APE, percent.
    pub mean_pct: f64,
    /// Bucket-resolution p99 APE, percent.
    pub p99_pct: f64,
    /// Worst APE, percent.
    pub max_pct: f64,
    /// Short (reactive) error EWMA, percent.
    pub ewma_pct: f64,
    /// Long (baseline) error EWMA, percent.
    pub baseline_pct: f64,
    /// Whether the drift trip-wire is currently tripped.
    pub drifted: bool,
    /// Rising-edge drift trips.
    pub trips: u64,
}

fn row(label: String, t: &ErrorTrack) -> TrackRow {
    TrackRow {
        label,
        scored: t.scored(),
        invalid: t.invalid(),
        mean_pct: t.mean_pct(),
        p99_pct: t.percentile_pct(0.99),
        max_pct: t.max_pct(),
        ewma_pct: t.drift().short_pct(),
        baseline_pct: t.drift().baseline_pct(),
        drifted: t.drift().tripped(),
        trips: t.drift().trips(),
    }
}

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct AccuracyWatchResult {
    /// Where the trace came from (a path, or `synthesized`).
    pub source: String,
    /// Measured intervals the trace holds.
    pub intervals: usize,
    /// Fault lines the trace holds (0 for a clean trace).
    pub faults: usize,
    /// Whether the trace is clean (no fault lines) — gated if so.
    pub clean: bool,
    /// Per-core rows, then the chip-power row.
    pub rows: Vec<TrackRow>,
    /// Mean CPI APE across every scored core observation, percent.
    pub mean_cpi_pct: f64,
    /// Mean chip-power APE, percent.
    pub power_mean_pct: f64,
    /// Staged predictions dropped without a matching measurement.
    pub stale_drops: u64,
    /// Rising-edge drift trips across all tracks.
    pub drift_trips: u64,
    /// The gate threshold applied to clean traces, percent.
    pub gate_pct: f64,
}

impl AccuracyWatchResult {
    /// Whether the clean-trace gate passes (storm traces always pass:
    /// their errors are the fault injector's doing, not the model's).
    pub fn gate_passed(&self) -> bool {
        !self.clean || self.mean_cpi_pct <= self.gate_pct
    }

    /// Enforces the gate.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when a clean trace's mean CPI error
    /// regressed past [`CLEAN_CPI_GATE_PCT`].
    pub fn gate(&self) -> Result<()> {
        if self.gate_passed() {
            Ok(())
        } else {
            Err(Error::InvalidInput(format!(
                "accuracy gate: clean-trace mean CPI error {:.2}% exceeds the {:.1}% baseline",
                self.mean_cpi_pct, self.gate_pct
            )))
        }
    }

    /// The scorecard as JSON Lines, one object per track.
    pub fn scorecard_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "{{\"track\":\"{}\",\"scored\":{},\"invalid\":{},\"mean_pct\":{:.6},\
                 \"p99_pct\":{:.6},\"max_pct\":{:.6},\"ewma_pct\":{:.6},\
                 \"baseline_pct\":{:.6},\"drifted\":{},\"trips\":{}}}\n",
                r.label,
                r.scored,
                r.invalid,
                r.mean_pct,
                r.p99_pct,
                r.max_pct,
                r.ewma_pct,
                r.baseline_pct,
                r.drifted,
                r.trips,
            ));
        }
        out
    }

    /// The benchmark artifact (`BENCH_accuracy.json`).
    pub fn bench_json(&self) -> String {
        format!(
            "{{\"source\":\"{}\",\"intervals\":{},\"faults\":{},\"clean\":{},\
             \"mean_cpi_err_pct\":{:.6},\"power_err_pct\":{:.6},\"stale_drops\":{},\
             \"drift_trips\":{},\"gate_pct\":{:.1},\"gate_passed\":{}}}",
            self.source.replace('"', "'"),
            self.intervals,
            self.faults,
            self.clean,
            self.mean_cpi_pct,
            self.power_mean_pct,
            self.stale_drops,
            self.drift_trips,
            self.gate_pct,
            self.gate_passed(),
        )
    }
}

/// Records a capping run in-memory with the same recipe as the
/// committed golden fixtures (fig. 7 workload, square-wave cap,
/// period 4), under the given fault plan.
pub fn record_run(
    ctx: &Context,
    ppep: &Ppep,
    steps: usize,
    plan: &FaultPlan,
) -> Result<TraceReader> {
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(ctx.seed));
    sim.load_workload(&fig7_workload(ctx.seed));
    sim.set_fault_plan(plan.clone());
    let recording = RecordingPlatform::new(SimPlatform::new(sim));
    let table = ppep.models().vf_table().clone();
    let controller = OneStepCapping::new(ppep.clone(), cap_schedule(0, 4));
    let inner = PpepDaemon::new(ppep.clone(), recording, controller);
    let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
    for step in 0..steps {
        daemon
            .inner_mut()
            .controller_mut()
            .set_cap(cap_schedule(step, 4));
        daemon.step()?;
    }
    TraceReader::parse(&daemon.inner().platform().trace())
}

/// Replays `trace` under the supervised capping daemon with a scorer
/// attached and returns the final scorer plus its stale-drop count.
fn score_trace(ppep: &Ppep, trace: &TraceReader) -> Result<PredictionScorer> {
    let steps = trace.interval_count() + trace.fault_count();
    // Follow the trace's own recorded cap schedule where it has one;
    // fall back to the fixtures' square wave.
    let caps: Vec<Option<Watts>> = trace.decisions().map(|d| d.cap).collect();
    let table = ppep.models().vf_table().clone();
    let controller = OneStepCapping::new(ppep.clone(), cap_schedule(0, 4));
    let replay = ReplayPlatform::new(trace.clone());
    let inner =
        PpepDaemon::new(ppep.clone(), replay, controller).with_scorer(ScorerConfig::default());
    let mut daemon = ResilientDaemon::new(inner, SupervisorConfig::new(table.lowest()));
    for step in 0..steps {
        let cap = caps
            .get(step)
            .copied()
            .flatten()
            .unwrap_or_else(|| cap_schedule(step, 4));
        daemon.inner_mut().controller_mut().set_cap(cap);
        daemon.step()?;
    }
    daemon
        .inner()
        .scorer()
        .cloned()
        .ok_or_else(|| Error::InvalidInput("accuracy-watch: scorer vanished".into()))
}

/// Runs the watch over `trace` (name, bytes), or over a synthesized
/// clean capping recording when `trace` is `None`.
///
/// # Errors
///
/// Training failures, malformed traces, and non-transient replay
/// errors.
pub fn run(ctx: &Context, trace: Option<(&str, &[u8])>) -> Result<AccuracyWatchResult> {
    let models = ctx.train_models()?;
    let ppep = Ppep::new(models);
    let (source, reader) = match trace {
        Some((name, bytes)) => (name.to_string(), TraceReader::parse(bytes)?),
        None => {
            let steps = match ctx.scale {
                Scale::Full => 96,
                Scale::Quick => 24,
            };
            (
                "synthesized".to_string(),
                record_run(ctx, &ppep, steps, &FaultPlan::none())?,
            )
        }
    };
    let intervals = reader.interval_count();
    let faults = reader.fault_count();
    let scorer = score_trace(&ppep, &reader)?;

    let mut rows: Vec<TrackRow> = scorer
        .cores()
        .iter()
        .enumerate()
        .map(|(i, t)| row(format!("core{i}"), t))
        .collect();
    rows.push(row("power".to_string(), scorer.power()));
    let drift_trips = rows.iter().map(|r| r.trips).sum();

    Ok(AccuracyWatchResult {
        source,
        intervals,
        faults,
        clean: faults == 0,
        rows,
        mean_cpi_pct: scorer.mean_cpi_pct(),
        power_mean_pct: scorer.power().mean_pct(),
        stale_drops: scorer.stale_drops(),
        drift_trips,
        gate_pct: CLEAN_CPI_GATE_PCT,
    })
}

/// Prints the scorecard table and the gate verdict.
pub fn print(result: &AccuracyWatchResult) {
    println!("== Accuracy-watch: prediction error scorecard ==");
    println!(
        "trace {} ({} intervals, {} faults, {}), {} stale-dropped predictions",
        result.source,
        result.intervals,
        result.faults,
        if result.clean { "clean" } else { "storm" },
        result.stale_drops,
    );
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.scored.to_string(),
                r.invalid.to_string(),
                format!("{:.2}", r.mean_pct),
                format!("{:.2}", r.p99_pct),
                format!("{:.2}", r.max_pct),
                format!("{:.2}", r.ewma_pct),
                format!("{:.2}", r.baseline_pct),
                if r.drifted {
                    format!("TRIPPED x{}", r.trips)
                } else if r.trips > 0 {
                    format!("ok x{}", r.trips)
                } else {
                    "ok".to_string()
                },
            ]
        })
        .collect();
    print_table(
        &[
            "track", "scored", "invalid", "mean %", "p99 %", "max %", "ewma %", "base %", "drift",
        ],
        &rows,
    );
    println!(
        "mean CPI err {:.2}% / mean power err {:.2}% / {} drift trips",
        result.mean_cpi_pct, result.power_mean_pct, result.drift_trips
    );
    if result.clean {
        println!(
            "clean-trace gate ({:.1}%): {}",
            result.gate_pct,
            if result.gate_passed() { "PASS" } else { "FAIL" }
        );
    } else {
        println!("storm trace: accuracy gate not applied (errors are injected)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::DEFAULT_SEED;

    fn fixture(name: &str) -> Vec<u8> {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(name);
        std::fs::read(path).expect("fixture exists")
    }

    #[test]
    fn clean_fixture_scores_under_the_gate() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let bytes = fixture("capping_clean.bin");
        let r = run(&ctx, Some(("capping_clean.bin", &bytes))).unwrap();
        assert!(r.clean);
        assert_eq!(r.intervals, 12);
        // 12 intervals -> 11 scored (the first has no staged prediction).
        let power = r.rows.last().unwrap();
        assert_eq!(power.label, "power");
        assert!(power.scored >= 10, "power scored {}", power.scored);
        assert!(r.mean_cpi_pct > 0.0, "scoring must have happened");
        r.gate().expect("clean fixture passes the accuracy gate");
        let jsonl = r.scorecard_jsonl();
        assert_eq!(jsonl.lines().count(), r.rows.len());
        assert!(r.bench_json().contains("\"gate_passed\":true"));
    }

    #[test]
    fn storm_fixture_is_scored_but_never_gated() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let bytes = fixture("capping_storm.bin");
        let r = run(&ctx, Some(("capping_storm.bin", &bytes))).unwrap();
        assert!(!r.clean);
        assert!(r.faults > 0);
        assert!(r.gate_passed(), "storm traces are informational");
        // The storm's fault events mean some staged predictions never
        // met a measurement.
        assert!(r.stale_drops > 0, "stale drops {}", r.stale_drops);
        print(&r);
    }

    #[test]
    fn sustained_storm_trips_the_drift_wire() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let ppep = Ppep::new(ctx.train_models().unwrap());
        // Long enough for the drift detector to arm (min_samples) and
        // a corruption rate high enough that stuck/spiked sensor
        // readings dominate the short error EWMA.
        let plan = FaultPlan::storm(0xF00D, 96, 0.3, 8);
        let trace = record_run(&ctx, &ppep, 96, &plan).unwrap();
        let scorer = score_trace(&ppep, &trace).unwrap();
        let trips: u64 = scorer
            .cores()
            .iter()
            .map(|t| t.drift().trips())
            .chain(std::iter::once(scorer.power().drift().trips()))
            .sum();
        assert!(
            trips > 0,
            "a sustained corrupting storm must trip drift (cpi ewma {:.2}%, power ewma {:.2}%)",
            scorer
                .cores()
                .iter()
                .map(|t| t.drift().short_pct())
                .fold(0.0, f64::max),
            scorer.power().drift().short_pct(),
        );
    }

    #[test]
    fn synthesized_trace_runs_when_no_fixture_is_given() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx, None).unwrap();
        assert_eq!(r.source, "synthesized");
        assert!(r.clean);
        assert_eq!(r.intervals, 24);
        r.gate().expect("synthesized clean run passes");
    }
}
