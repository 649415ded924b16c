//! One-shot reproduction summary: runs the headline experiments and
//! prints a paper-vs-measured table with automatic shape verdicts —
//! the machine-checked core of `EXPERIMENTS.md`.

use crate::common::{Context, TraceStore};
use crate::{
    cpi_accuracy, fig02_model_error, fig03_cross_vf, fig06_energy, fig07_capping,
    fig08_09_background, fig10_nb_share, fig11_nb_dvfs,
};
use ppep_core::Ppep;
use ppep_types::{Result, VfStateId};

/// One summary row.
#[derive(Debug, Clone)]
pub struct SummaryRow {
    /// What is being compared.
    pub metric: String,
    /// The paper's number, as printed in the text.
    pub paper: String,
    /// This run's number.
    pub measured: String,
    /// Whether the shape criterion held.
    pub shape_holds: bool,
}

/// The collected summary.
#[derive(Debug, Clone)]
pub struct SummaryResult {
    /// All rows, in paper order.
    pub rows: Vec<SummaryRow>,
}

impl SummaryResult {
    /// Number of rows whose shape criterion held.
    pub fn holding(&self) -> usize {
        self.rows.iter().filter(|r| r.shape_holds).count()
    }
}

fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Runs the headline experiments and assembles the table.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn run(ctx: &Context) -> Result<SummaryResult> {
    let mut rows = Vec::new();
    let mut push = |metric: &str, paper: &str, measured: String, holds: bool| {
        rows.push(SummaryRow {
            metric: metric.to_string(),
            paper: paper.to_string(),
            measured,
            shape_holds: holds,
        });
    };

    // §III CPI predictor.
    let cpi = cpi_accuracy::run(ctx)?;
    push(
        "CPI predictor, VF5->VF2 (SS III)",
        "3.4%",
        pct(cpi.down.0),
        cpi.down.0 < 0.08,
    );
    push(
        "CPI predictor, VF2->VF5 (SS III)",
        "3.0%",
        pct(cpi.up.0),
        cpi.up.0 < 0.08,
    );

    // Figs. 2-3 share traces.
    let table = ctx.rig.config().topology.vf_table().clone();
    let vfs: Vec<VfStateId> = table.states().collect();
    let store = TraceStore::collect_sharded(
        &ctx.rig,
        &ctx.scale.roster(ctx.seed),
        &vfs,
        &ctx.scale.budget(),
        ctx.jobs,
    );
    let f2 = fig02_model_error::run_with_store(ctx, &store)?;
    push(
        "dynamic power model AAE (Fig. 2a)",
        "10.6%",
        pct(f2.dynamic_overall),
        f2.dynamic_overall < 0.20,
    );
    push(
        "chip power model AAE (Fig. 2b)",
        "4.6%",
        pct(f2.chip_overall),
        f2.chip_overall < f2.dynamic_overall && f2.chip_overall < 0.10,
    );
    let f3 = fig03_cross_vf::run_with_store(ctx, &store)?;
    push(
        "cross-VF chip prediction AAE (Fig. 3b)",
        "4.2%",
        pct(f3.chip_overall),
        f3.chip_overall < 0.10,
    );

    // Fig. 6 energy prediction.
    let f6 = fig06_energy::run(ctx)?;
    push(
        "energy prediction, PPEP (Fig. 6)",
        "3.6%",
        pct(f6.ppep_avg),
        f6.ppep_avg < f6.gg_avg,
    );
    push(
        "energy prediction, Green Governors (Fig. 6)",
        "~7%",
        pct(f6.gg_avg),
        f6.gg_avg > f6.ppep_avg,
    );

    // Fig. 7 capping.
    let f7 = fig07_capping::run(ctx)?;
    push(
        "one-step capping settle (Fig. 7)",
        "0.2 s",
        format!("{:.1} s", f7.ppep.worst_settle_intervals as f64 * 0.2),
        f7.ppep.worst_settle_intervals <= 2,
    );
    push(
        "capping convergence speedup (Fig. 7)",
        "14x",
        format!("{:.1}x", f7.speedup),
        f7.speedup >= 2.0,
    );

    // §V studies share one engine.
    let engine = Ppep::new(ctx.train_models()?);
    let f89 = fig08_09_background::run_with_engine(ctx, &engine)?;
    let all_vf1 = f89.entries.iter().all(|e| e.best_energy == table.lowest());
    push(
        "energy-optimal VF state (Fig. 8)",
        "VF1 always",
        if all_vf1 {
            "VF1 always".into()
        } else {
            "mixed".into()
        },
        all_vf1,
    );
    push(
        "dynamic-vs-static policy gain (SS V-C1)",
        "< 2%",
        pct(f89.dynamic_policy_gain),
        f89.dynamic_policy_gain < 0.05,
    );
    let f10 = fig10_nb_share::run_with_engine(ctx, &engine)?;
    push(
        "NB share, memory-bound (Fig. 10)",
        "~60%",
        pct(f10.memory_bound_avg),
        f10.memory_bound_avg > f10.cpu_bound_avg,
    );
    let f11 = fig11_nb_dvfs::run_with_engine(ctx, &engine)?;
    push(
        "NB-DVFS energy saving (Fig. 11a)",
        "20.4%",
        pct(f11.average_saving),
        f11.average_saving > 0.05,
    );
    push(
        "NB-DVFS speedup (Fig. 11b)",
        "1.37x",
        format!("{:.2}x", f11.average_speedup),
        f11.average_speedup > 1.05,
    );

    Ok(SummaryResult { rows })
}

/// Prints the table.
pub fn print(result: &SummaryResult) {
    println!("== Reproduction summary (paper vs. this run) ==");
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.metric.clone(),
                r.paper.clone(),
                r.measured.clone(),
                if r.shape_holds {
                    "ok".into()
                } else {
                    "DIVERGES".into()
                },
            ]
        })
        .collect();
    crate::common::print_table(&["metric", "paper", "measured", "shape"], &rows);
    println!(
        "{} of {} shape criteria hold",
        result.holding(),
        result.rows.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Scale, DEFAULT_SEED};

    #[test]
    fn every_headline_shape_holds_at_quick_scale() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let r = run(&ctx).unwrap();
        assert!(r.rows.len() >= 12);
        let failing: Vec<&SummaryRow> = r.rows.iter().filter(|row| !row.shape_holds).collect();
        assert!(
            failing.is_empty(),
            "diverging rows: {:?}",
            failing
                .iter()
                .map(|r| (&r.metric, &r.measured))
                .collect::<Vec<_>>()
        );
    }
}
