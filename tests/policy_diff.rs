//! Conformance tests for the policy-differential replay harness.
//!
//! - Self-replay (the recording policy vs its own recorded decision
//!   stream, or a policy vs itself) must report **zero** divergence:
//!   the replayed controller sees bit-identical projections and must
//!   re-make every decision.
//! - Genuinely different policies over the fault-storm capping trace
//!   must diverge, and the report must localize the first divergence
//!   and carry consistent per-interval rows.

use ppep_core::Ppep;
use ppep_experiments::common::{Context, Scale, DEFAULT_SEED};
use ppep_experiments::diff_policies::{PolicyKind, ReplayDiff};
use ppep_experiments::replay;
use ppep_telemetry::TraceReader;
use std::sync::OnceLock;

/// One recorded quick capping run (with the standard fault storm),
/// shared across tests so the simulator and trainer run once.
fn recorded() -> &'static (Ppep, Vec<u8>, usize) {
    static RUN: OnceLock<(Ppep, Vec<u8>, usize)> = OnceLock::new();
    RUN.get_or_init(|| {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let ppep = Ppep::new(ctx.train_models().expect("training succeeds"));
        let rec = replay::record(&ctx, &ppep).expect("recording succeeds");
        (ppep, rec.trace, rec.period)
    })
}

fn differ() -> (ReplayDiff, TraceReader) {
    let (ppep, doc, period) = recorded();
    let trace = TraceReader::parse(doc).expect("trace parses");
    (ReplayDiff::new(ppep.clone(), *period), trace)
}

#[test]
fn self_replay_has_zero_divergence() {
    let (differ, trace) = differ();
    let report = differ
        .vs_recorded(&trace, PolicyKind::OneStep)
        .expect("diff runs");
    assert_eq!(report.first_divergence, None);
    assert_eq!(report.diverged_intervals, 0);
    assert_eq!(report.intervals, 48);
    assert!(report.rows.iter().all(|r| !r.diverged));
    // Identical decisions price identically.
    assert_eq!(
        report.energy_a.as_joules().to_bits(),
        report.energy_b.as_joules().to_bits()
    );
    assert_eq!(report.transitions_a, report.transitions_b);
    assert_eq!(report.cap_violations_a, report.cap_violations_b);
}

#[test]
fn identical_policies_have_zero_divergence() {
    let (differ, trace) = differ();
    let report = differ
        .diff(&trace, PolicyKind::Iterative, PolicyKind::Iterative)
        .expect("diff runs");
    assert_eq!(report.first_divergence, None);
    assert_eq!(report.diverged_intervals, 0);
}

#[test]
fn one_step_vs_energy_optimal_diverges_on_the_storm_trace() {
    let (differ, trace) = differ();
    let report = differ
        .diff(&trace, PolicyKind::OneStep, PolicyKind::EnergyOptimal)
        .expect("diff runs");
    assert!(
        report.diverged_intervals > 0,
        "a capping policy and an uncapped energy chaser must diverge"
    );
    let first = report
        .first_divergence
        .expect("nonzero divergence must localize its first interval");
    // The first diverging row really is the first row flagged.
    let flagged = report
        .rows
        .iter()
        .find(|r| r.diverged)
        .expect("a diverging row exists");
    assert_eq!(flagged.interval, first);
    // The uncapped side enforces no cap; the capping side always does.
    assert!(report.rows.iter().all(|r| r.cap_a.is_some()));
    assert!(report.rows.iter().all(|r| r.cap_b.is_none()));
    assert!(report.priced_intervals > 0, "the model must price rows");
}
