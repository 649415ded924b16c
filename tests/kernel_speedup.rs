//! The projection kernel's speed gate: production must stay
//! bit-identical to the scalar oracle on the benchmark stream and
//! clear a 1.5× speedup floor over it.
//!
//! The stream is 24 simulated intervals of the Fig. 7 mix on the
//! 8-core FX-8320 (seed 42), projected at both NB points under the
//! quick-trained, PG-aware model bundle. The clock runs five rounds;
//! each round times 400 passes over the stream through the oracle and
//! then through `Ppep::project`, and the gate is the median
//! oracle/production ratio. Timing means nothing in a debug build, so
//! the floor is asserted only under `--release`:
//!
//! ```text
//! cargo test --release --test kernel_speedup -- --nocapture
//! ```
//!
//! This file holds a single test so that nothing else in its binary
//! runs beside the clock.

mod support;

use ppep_core::Ppep;
use ppep_experiments::common::{Context, Scale, DEFAULT_SEED};
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_types::vf::NbVfState;
use ppep_workloads::combos::fig7_workload;
use std::hint::black_box;
use std::time::Instant;
use support::scalar::{bits_eq, project_nb_scalar};

/// Speedup production must clear over the oracle on the 8-core preset.
const MIN_SPEEDUP: f64 = 1.5;
const INTERVALS: usize = 24;
const ROUNDS: usize = 5;
const REPS: usize = 400;

#[test]
fn production_matches_the_oracle_and_clears_the_speedup_floor() {
    let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
    let engine = Ppep::new(ctx.train_models().expect("training succeeds"));
    let mut sim = ChipSimulator::new(SimConfig::fx8320(DEFAULT_SEED));
    sim.load_workload(&fig7_workload(DEFAULT_SEED));
    let records = sim.run_intervals(INTERVALS);

    // Correctness first: every interval, both NB points, all cells.
    for record in &records {
        for nb in [NbVfState::High, NbVfState::Low] {
            let production = engine.project_nb(record, nb).expect("production projects");
            let oracle = project_nb_scalar(&engine, record, nb).expect("oracle projects");
            bits_eq(&production, &oracle)
                .unwrap_or_else(|e| panic!("interval {:?}, NB {nb:?}: {e}", record.index));
        }
    }

    if cfg!(debug_assertions) {
        return;
    }
    let time = |project: &dyn Fn(&ppep_telemetry::IntervalRecord)| {
        let start = Instant::now();
        for _ in 0..REPS {
            for record in &records {
                project(record);
            }
        }
        start.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            // Oracle first, so cache warming favours the baseline.
            let oracle = time(&|r| {
                black_box(project_nb_scalar(&engine, r, NbVfState::High).expect("projects"));
            });
            let production = time(&|r| {
                black_box(engine.project(r).expect("projects"));
            });
            oracle / production
        })
        .collect();
    println!("oracle/production ratio per round: {ratios:.2?}");
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ROUNDS / 2];
    assert!(
        median >= MIN_SPEEDUP,
        "median speedup {median:.2}x over the oracle is below the {MIN_SPEEDUP}x floor \
         (sorted rounds {ratios:.2?})"
    );
}
