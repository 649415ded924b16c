//! Fig. 10 — the north bridge's share of chip energy (§V-C2).
//!
//! PPEP's separate core/NB energy estimates show that the NB consumes
//! ~60% of total energy on average for memory-bound work (minimum
//! 45%) and ~25% for CPU-bound work (minimum 10%); the share grows at
//! lower core VF states and with fewer busy CUs.

use crate::common::Context;
use ppep_core::Ppep;
use ppep_sim::chip::ChipSimulator;
use ppep_types::{Result, VfStateId};
use ppep_workloads::combos::instances;

/// One cell: NB share for a (benchmark, instances, VF) combination.
#[derive(Debug, Clone)]
pub struct NbShareCell {
    /// Benchmark name.
    pub benchmark: String,
    /// Concurrent instances.
    pub instances: usize,
    /// Core VF state.
    pub vf: VfStateId,
    /// NB energy as a fraction of total chip energy.
    pub nb_ratio: f64,
    /// Normalised total energy (per benchmark × instances, max = 1).
    pub normalized_energy: f64,
}

/// The experiment's result.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// All cells.
    pub cells: Vec<NbShareCell>,
    /// Average NB share for the memory-bound benchmark (paper: ~60%).
    pub memory_bound_avg: f64,
    /// Average NB share for the CPU-bound benchmark (paper: ~25%).
    pub cpu_bound_avg: f64,
}

/// Runs the Fig. 10 study.
///
/// # Errors
///
/// Propagates training and projection errors.
pub fn run(ctx: &Context) -> Result<Fig10Result> {
    let models = ctx.train_models()?;
    let ppep = Ppep::new(models);
    run_with_engine(ctx, &ppep)
}

/// Runs with an already-trained engine.
///
/// # Errors
///
/// Propagates projection errors.
pub fn run_with_engine(ctx: &Context, ppep: &Ppep) -> Result<Fig10Result> {
    let _table = ppep.models().vf_table();
    let warmup = match ctx.scale {
        crate::common::Scale::Full => 20,
        crate::common::Scale::Quick => 8,
    };
    let mut cells = Vec::new();
    for benchmark in ["433.milc", "458.sjeng"] {
        for n in 1..=4 {
            let mut sim = ChipSimulator::new(ppep_sim::chip::SimConfig::fx8320_pg(ctx.seed));
            sim.load_workload(&instances(benchmark, n, ctx.seed));
            let record = sim.run_intervals(warmup).pop().ok_or_else(|| {
                ppep_types::Error::InvalidInput("warmup produced no intervals".into())
            })?;
            let projection = ppep.project(&record)?;
            let max_energy =
                crate::common::series_max(projection.chip.iter().map(|c| c.energy.as_joules()))
                    .unwrap_or(0.0);
            for chip in &projection.chip {
                cells.push(NbShareCell {
                    benchmark: benchmark.to_string(),
                    instances: n,
                    vf: chip.vf,
                    nb_ratio: chip.nb_ratio(),
                    normalized_energy: chip.energy.as_joules() / max_energy,
                });
            }
        }
    }
    let avg = |bench: &str| {
        let v: Vec<f64> = cells
            .iter()
            .filter(|c| c.benchmark == bench)
            .map(|c| c.nb_ratio)
            .collect();
        ppep_regress::stats::mean(&v)
    };
    Ok(Fig10Result {
        memory_bound_avg: avg("433.milc"),
        cpu_bound_avg: avg("458.sjeng"),
        cells,
    })
}

/// Prints the Fig. 10 table.
pub fn print(result: &Fig10Result) {
    println!("== Fig. 10: NB energy share ==");
    let rows: Vec<Vec<String>> = result
        .cells
        .iter()
        .map(|c| {
            vec![
                format!("{} x{}", c.benchmark, c.instances),
                c.vf.to_string(),
                format!("{:.2}", c.normalized_energy),
                crate::common::pct(c.nb_ratio),
            ]
        })
        .collect();
    crate::common::print_table(&["workload", "VF", "norm energy", "NB ratio"], &rows);
    println!(
        "averages: memory-bound {} (paper ~60%)  CPU-bound {} (paper ~25%)",
        crate::common::pct(result.memory_bound_avg),
        crate::common::pct(result.cpu_bound_avg)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Scale, DEFAULT_SEED};

    #[test]
    fn nb_share_shape_matches_paper() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        // 2 benchmarks × 4 instance counts × 5 VF states.
        assert_eq!(r.cells.len(), 40);
        // Memory-bound work gives the NB a much larger share.
        assert!(
            r.memory_bound_avg > r.cpu_bound_avg + 0.10,
            "milc {} vs sjeng {}",
            r.memory_bound_avg,
            r.cpu_bound_avg
        );
        // The share grows at lower core VF states (milc x1).
        let share = |vf: usize| {
            r.cells
                .iter()
                .find(|c| c.benchmark == "433.milc" && c.instances == 1 && c.vf.index() == vf)
                .unwrap()
                .nb_ratio
        };
        assert!(
            share(0) > share(4),
            "VF1 share {} vs VF5 {}",
            share(0),
            share(4)
        );
        // And shrinks with more busy cores to share the NB (at VF5).
        let share_n = |n: usize| {
            r.cells
                .iter()
                .find(|c| c.benchmark == "458.sjeng" && c.instances == n && c.vf.index() == 4)
                .unwrap()
                .nb_ratio
        };
        assert!(share_n(1) > share_n(4));
    }
}
