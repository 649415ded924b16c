//! Shared experiment infrastructure: scale presets, trace stores,
//! cross-validation machinery, and table printing.

use ppep_models::idle::IdlePowerModel;
use ppep_models::trainer::{ComboTrace, TrainingBudget};
use ppep_models::DynamicPowerModel;
use ppep_regress::KFold;
use ppep_rig::TrainingRig;
use ppep_types::{Result, VfStateId, Watts};
use ppep_workloads::combos::{full_roster, npb_runs, parsec_runs, spec_combos};
use ppep_workloads::{Suite, WorkloadSpec};

/// The default seed all experiments run under (reported in
/// `EXPERIMENTS.md`).
pub const DEFAULT_SEED: u64 = 42;

/// How much simulated time an experiment spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced rosters and interval counts — used by tests and the
    /// Criterion benches.
    Quick,
    /// The paper-sized configuration (152 combinations, 4-fold CV).
    Full,
}

impl Scale {
    /// The benchmark roster at this scale.
    pub fn roster(&self, seed: u64) -> Vec<WorkloadSpec> {
        match self {
            Scale::Full => full_roster(seed),
            Scale::Quick => {
                // A 16-combo cross-section: 8 SPEC (mixed widths),
                // 4 PARSEC, 4 NPB.
                let mut out: Vec<WorkloadSpec> = Vec::new();
                let spec = spec_combos(seed);
                out.extend(spec.iter().take(4).cloned()); // singles
                out.push(spec[30].clone()); // a double
                out.push(spec[45].clone()); // a triple
                out.push(spec[55].clone()); // a quad
                out.push(spec[14].clone()); // 433.milc single
                let parsec = parsec_runs(seed);
                out.extend(parsec.iter().step_by(13).take(4).cloned());
                let npb = npb_runs(seed);
                out.extend(npb.iter().step_by(11).take(4).cloned());
                out
            }
        }
    }

    /// The training budget at this scale.
    pub fn budget(&self) -> TrainingBudget {
        match self {
            Scale::Full => TrainingBudget::standard(),
            Scale::Quick => TrainingBudget::quick(),
        }
    }

    /// Cross-validation folds (the paper uses 4).
    pub fn folds(&self) -> usize {
        4
    }
}

/// A ready-to-run experiment context: the platform rig and scale.
#[derive(Debug, Clone)]
pub struct Context {
    /// The training/collection rig.
    pub rig: TrainingRig,
    /// The scale preset.
    pub scale: Scale,
    /// The global seed.
    pub seed: u64,
    /// Worker threads for the sweep collections (`--jobs`; 1 = serial).
    pub jobs: usize,
}

impl Context {
    /// An FX-8320 context.
    pub fn fx8320(scale: Scale, seed: u64) -> Self {
        Self {
            rig: TrainingRig::fx8320(seed),
            scale,
            seed,
            jobs: 1,
        }
    }

    /// A Phenom II context.
    pub fn phenom_ii_x6(scale: Scale, seed: u64) -> Self {
        Self {
            rig: TrainingRig::phenom_ii_x6(seed),
            scale,
            seed,
            jobs: 1,
        }
    }

    /// Sets the sweep worker count (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Trains the full model bundle (idle + α + dynamic + GG) on this
    /// context's roster, and attaches the PG decomposition.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn train_models(&self) -> Result<ppep_models::trainer::TrainedModels> {
        let roster = self.scale.roster(self.seed);
        let budget = self.scale.budget();
        let models = self.rig.train(&roster, &budget)?;
        let sweep = self.rig.collect_pg_sweep(&budget);
        let pg = ppep_models::pg::PgIdleModel::fit(&sweep, self.rig.config().topology.cu_count())?;
        Ok(models.with_pg(pg))
    }
}

/// All traces of one roster across a set of VF states.
#[derive(Debug, Clone)]
pub struct TraceStore {
    traces: Vec<ComboTrace>,
}

impl TraceStore {
    /// Runs every `(combo, vf)` pair once and stores the traces.
    pub fn collect(
        rig: &TrainingRig,
        roster: &[WorkloadSpec],
        vfs: &[VfStateId],
        budget: &TrainingBudget,
    ) -> Self {
        Self::collect_sharded(rig, roster, vfs, budget, 1)
    }

    /// [`Self::collect`] sharded across `jobs` worker threads.
    ///
    /// Every `(combo, vf)` cell builds its own freshly seeded
    /// simulator inside [`TrainingRig::collect_run`], so the stored
    /// traces are identical — byte for byte in any derived CSV — for
    /// every worker count.
    pub fn collect_sharded(
        rig: &TrainingRig,
        roster: &[WorkloadSpec],
        vfs: &[VfStateId],
        budget: &TrainingBudget,
        jobs: usize,
    ) -> Self {
        let cells = roster.len() * vfs.len();
        let (traces, _obs) = crate::fleet::map_indexed(cells, jobs, |index, rec| {
            // Row-major over the roster: index = spec * vfs.len() + vf.
            let spec = &roster[index / vfs.len().max(1)];
            let vf = vfs[index % vfs.len().max(1)];
            let trace = rig.collect_run(spec, vf, budget);
            rec.add("fleet.cells", 1);
            trace
        });
        Self { traces }
    }

    /// All stored traces.
    pub fn traces(&self) -> &[ComboTrace] {
        &self.traces
    }

    /// The trace of one combo at one state.
    pub fn get(&self, name: &str, vf: VfStateId) -> Option<&ComboTrace> {
        self.traces.iter().find(|t| t.name == name && t.vf == vf)
    }

    /// Distinct combo names, in first-seen order.
    pub fn combo_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for t in &self.traces {
            if !names.contains(&t.name) {
                names.push(t.name.clone());
            }
        }
        names
    }

    /// The suite of a combo.
    pub fn suite_of(&self, name: &str) -> Option<Suite> {
        self.traces.iter().find(|t| t.name == name).map(|t| t.suite)
    }
}

/// Shared machinery for the Fig. 2/3 cross-validated model studies:
/// the workload-independent models (idle, α) plus per-fold dynamic
/// model fitting on the VF5 traces of the training combos.
#[derive(Debug, Clone)]
pub struct CvMachinery {
    /// The fitted idle model.
    pub idle: IdlePowerModel,
    /// The calibrated voltage exponent.
    pub alpha: f64,
    /// The fold splitter over combo indices.
    pub folds: KFold,
    /// Combo names in fold-index order.
    pub names: Vec<String>,
}

impl CvMachinery {
    /// Builds the machinery: fits idle + α, splits combos into folds.
    ///
    /// # Errors
    ///
    /// Propagates fitting errors.
    pub fn build(
        rig: &TrainingRig,
        store: &TraceStore,
        budget: &TrainingBudget,
        k: usize,
    ) -> Result<Self> {
        let idle_samples = rig.collect_idle_traces(budget);
        let idle = IdlePowerModel::fit(&idle_samples)?;
        let alpha = rig.calibrate_alpha(&idle, budget)?;
        let names = store.combo_names();
        let folds = KFold::new_shuffled(names.len(), k, rig.seed())?;
        Ok(Self {
            idle,
            alpha,
            folds,
            names,
        })
    }

    /// Fits the dynamic model for one fold (training on every combo
    /// *not* in the fold, at the chip's top state).
    ///
    /// # Errors
    ///
    /// Propagates fitting errors.
    pub fn fit_fold(
        &self,
        fold: usize,
        rig: &TrainingRig,
        store: &TraceStore,
    ) -> Result<DynamicPowerModel> {
        let table = rig.config().topology.vf_table().clone();
        let vf_top = table.highest();
        let mut samples = Vec::new();
        for &i in &self.folds.train_indices(fold) {
            let name = &self.names[i];
            let trace = store.get(name, vf_top).ok_or_else(|| {
                ppep_types::Error::InvalidInput(format!("missing VF-top trace for {name}"))
            })?;
            for record in &trace.records {
                samples.push(TrainingRig::dyn_sample_from(record, &self.idle, &table)?);
            }
        }
        DynamicPowerModel::fit(
            &samples,
            self.alpha,
            table.point(vf_top).voltage,
            ppep_models::trainer::DEFAULT_RIDGE_LAMBDA,
        )
    }

    /// The fold that holds out a given combo index, or `None` when
    /// the index is outside the partition.
    pub fn fold_of(&self, combo_index: usize) -> Option<usize> {
        (0..self.folds.k()).find(|&f| self.folds.test_indices(f).contains(&combo_index))
    }

    /// The held-out fold model for a combo index.
    ///
    /// # Errors
    ///
    /// Returns [`ppep_types::Error::InvalidInput`] when the index is
    /// outside the k-fold partition.
    pub fn fold_model<'m, M>(&self, fold_models: &'m [M], combo_index: usize) -> Result<&'m M> {
        let fold = self.fold_of(combo_index).ok_or_else(|| {
            ppep_types::Error::InvalidInput(format!(
                "combo {combo_index} is not covered by any cross-validation fold"
            ))
        })?;
        fold_models.get(fold).ok_or_else(|| {
            ppep_types::Error::InvalidInput(format!("no model trained for fold {fold}"))
        })
    }
}

/// Smallest value of a series, or `None` when the series is empty —
/// the non-panicking fold for possibly-empty report series.
pub fn series_min(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    values.into_iter().reduce(f64::min)
}

/// Largest value of a series, or `None` when the series is empty.
pub fn series_max(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    values.into_iter().reduce(f64::max)
}

/// `(min, max)` of a series, or `None` when the series is empty.
pub fn series_range(values: &[f64]) -> Option<(f64, f64)> {
    let mut it = values.iter().copied();
    let first = it.next()?;
    Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
}

/// Per-suite, per-VF aggregation used by the Fig. 2 style outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteErrors {
    /// Mean of the per-combo AAEs (the figure's bar).
    pub mean: f64,
    /// Standard deviation of the per-combo AAEs (the figure's cross).
    pub std_dev: f64,
    /// Number of combos aggregated.
    pub count: usize,
}

impl SuiteErrors {
    /// Aggregates per-combo errors.
    pub fn of(errors: &[f64]) -> Option<Self> {
        if errors.is_empty() {
            return None;
        }
        let mean = ppep_regress::stats::mean(errors);
        let std_dev = ppep_regress::stats::std_dev(errors);
        Some(Self {
            mean,
            std_dev,
            count: errors.len(),
        })
    }
}

/// Renders a simple fixed-width text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats watts with one decimal.
pub fn w(v: Watts) -> String {
    format!("{:.1} W", v.as_watts())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_roster_is_a_cross_section() {
        let roster = Scale::Quick.roster(DEFAULT_SEED);
        assert_eq!(roster.len(), 16);
        let suites: std::collections::BTreeSet<_> = roster.iter().map(|w| w.suite()).collect();
        assert!(suites.contains(&Suite::SpecCpu2006));
        assert!(suites.contains(&Suite::Parsec));
        assert!(suites.contains(&Suite::Npb));
        // Contains multi-programmed SPEC widths.
        assert!(roster.iter().any(|w| w.thread_count() == 4));
    }

    #[test]
    fn full_roster_is_the_paper_roster() {
        assert_eq!(Scale::Full.roster(DEFAULT_SEED).len(), 152);
        assert_eq!(Scale::Full.folds(), 4);
    }

    #[test]
    fn trace_store_lookup() {
        let rig = TrainingRig::fx8320(7);
        let roster = vec![ppep_workloads::combos::instances("403.gcc", 1, 7)];
        let table = rig.config().topology.vf_table().clone();
        let mut budget = TrainingBudget::quick();
        budget.warmup_intervals = 2;
        budget.record_intervals = 3;
        let vfs = [table.lowest(), table.highest()];
        let store = TraceStore::collect(&rig, &roster, &vfs, &budget);
        assert_eq!(store.traces().len(), 2);
        assert!(store.get("403.gcc x1", table.lowest()).is_some());
        assert!(store.get("403.gcc x1", table.highest()).is_some());
        assert!(store.get("nope", table.lowest()).is_none());
        assert_eq!(store.combo_names(), vec!["403.gcc x1"]);
        assert_eq!(store.suite_of("403.gcc x1"), Some(Suite::SpecCpu2006));
    }

    #[test]
    fn suite_errors_aggregation() {
        assert!(SuiteErrors::of(&[]).is_none());
        let s = SuiteErrors::of(&[0.04, 0.06]).unwrap();
        assert!((s.mean - 0.05).abs() < 1e-12);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.0456), "4.6%");
        assert_eq!(w(Watts::new(12.345)), "12.3 W");
    }
}
