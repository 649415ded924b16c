//! The Fig. 5 pipeline: interval record in, PPE projection out.
//!
//! Two kernels implement the per-interval core × VF grid: the scalar
//! reference below and the struct-of-arrays batch kernel in
//! [`crate::batch`] (the default). They are bit-identical by
//! construction and by test (`tests/kernel_equivalence.rs`); choose
//! with [`Ppep::with_kernel`].

use crate::batch::{BatchProjector, ProjectionKernel};
use crate::ppe::{ChipPpe, CoreAtVf, PpeProjection};
use ppep_models::event_pred::HwEventPredictor;
use ppep_models::trainer::TrainedModels;
use ppep_obs::{RecorderHandle, Stage, StageClock};
use ppep_pmc::EventId;
use ppep_telemetry::IntervalRecord;
use ppep_types::vf::NbVfState;
use ppep_types::{CoreId, Error, Joules, Result, Seconds, VfStateId, Watts};

/// The §V-C2 NB-DVFS study assumptions for the low NB point.
mod nb_low {
    /// Leading-load (memory) cycles grow 50%.
    pub const MEMORY_FACTOR: f64 = 1.5;
    /// NB idle power drops 40%.
    pub const IDLE_SCALE: f64 = 0.60;
    /// NB dynamic power drops 36%.
    pub const DYN_SCALE: f64 = 0.64;
}

/// The PPEP prediction engine: wraps the trained models and turns
/// interval records into all-VF projections.
#[derive(Debug, Clone)]
pub struct Ppep {
    models: TrainedModels,
    predictor: HwEventPredictor,
    recorder: RecorderHandle,
    kernel: ProjectionKernel,
    batch: BatchProjector,
}

impl Ppep {
    /// Builds the engine from trained models. Projections route
    /// through the batch kernel by default; see [`Ppep::with_kernel`].
    pub fn new(models: TrainedModels) -> Self {
        let batch = BatchProjector::new(&models);
        Self {
            models,
            predictor: HwEventPredictor::new(),
            recorder: RecorderHandle::noop(),
            kernel: ProjectionKernel::default(),
            batch,
        }
    }

    /// Selects which kernel [`Ppep::project_nb`] runs. Both kernels
    /// produce bit-identical projections; the scalar path exists as
    /// the differential reference and for A/B benchmarking.
    #[must_use]
    pub fn with_kernel(mut self, kernel: ProjectionKernel) -> Self {
        self.set_kernel(kernel);
        self
    }

    /// In-place form of [`Ppep::with_kernel`].
    pub fn set_kernel(&mut self, kernel: ProjectionKernel) {
        self.kernel = kernel;
    }

    /// The kernel projections currently route through.
    pub fn kernel(&self) -> ProjectionKernel {
        self.kernel
    }

    /// The engine's batch projector (flattened coefficient tables).
    pub fn batch_projector(&self) -> &BatchProjector {
        &self.batch
    }

    /// Routes per-stage pipeline spans (cpi-predict, event-predict,
    /// pdyn, pidle, compose) through an observability recorder.
    /// Recording never changes projections.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// In-place form of [`Ppep::with_recorder`].
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// The wrapped models.
    pub fn models(&self) -> &TrainedModels {
        &self.models
    }

    /// Runs steps 1–4 of the pipeline on one interval record.
    ///
    /// Chip-level projections assume a uniform VF assignment and use
    /// the Eq. 2 idle model when no PG model is attached, or the PG
    /// decomposition (with the interval's busy/gated CU pattern) when
    /// one is. A bundle with a PG model therefore assumes the chip
    /// *has gating enabled* — project records from a PG-enabled
    /// simulator (or detach the PG model for PG-off studies), or idle
    /// power will be under-counted.
    ///
    /// # Errors
    ///
    /// Propagates event-predictor and model errors.
    pub fn project(&self, record: &IntervalRecord) -> Result<PpeProjection> {
        self.project_nb(record, NbVfState::High)
    }

    /// Like [`Ppep::project`], but projecting to a hypothetical NB
    /// operating point (the §V-C2 study): at [`NbVfState::Low`] the
    /// memory cycles grow 50%, NB idle power drops 40%, and NB dynamic
    /// power drops 36% — the paper's stated assumptions.
    ///
    /// The source record must have been measured at the stock NB
    /// point (all of the paper's measurements are).
    ///
    /// # Errors
    ///
    /// Propagates event-predictor and model errors.
    pub fn project_nb(
        &self,
        record: &IntervalRecord,
        nb_target: NbVfState,
    ) -> Result<PpeProjection> {
        self.project_nb_with(record, nb_target, self.kernel)
    }

    /// [`Ppep::project_nb`] forced through the scalar reference
    /// kernel, regardless of [`Ppep::kernel`] — the comparison target
    /// for the differential test harness and the kernel benchmark.
    ///
    /// # Errors
    ///
    /// Propagates event-predictor and model errors.
    pub fn project_nb_scalar(
        &self,
        record: &IntervalRecord,
        nb_target: NbVfState,
    ) -> Result<PpeProjection> {
        self.project_nb_with(record, nb_target, ProjectionKernel::Scalar)
    }

    /// [`Ppep::project_nb`] into a caller-owned projection: the core
    /// rows, their cells, the chip rows and the source assignment are
    /// refilled in place, so a caller that keeps `out` between
    /// intervals allocates nothing once it has grown to the chip's
    /// size. `project` and `project_nb` are this call on a fresh
    /// buffer, so the result is bit-identical to theirs, whatever
    /// `out` held before.
    ///
    /// # Errors
    ///
    /// Those of [`Ppep::project_nb`]. After an error the contents of
    /// `out` are unspecified; the next successful call overwrites
    /// every field.
    pub fn project_into(
        &self,
        record: &IntervalRecord,
        nb_target: NbVfState,
        out: &mut PpeProjection,
    ) -> Result<()> {
        self.project_into_with(record, nb_target, self.kernel, out)
    }

    fn project_nb_with(
        &self,
        record: &IntervalRecord,
        nb_target: NbVfState,
        kernel: ProjectionKernel,
    ) -> Result<PpeProjection> {
        let mut projection = PpeProjection::default();
        self.project_into_with(record, nb_target, kernel, &mut projection)?;
        Ok(projection)
    }

    fn project_into_with(
        &self,
        record: &IntervalRecord,
        nb_target: NbVfState,
        kernel: ProjectionKernel,
        out: &mut PpeProjection,
    ) -> Result<()> {
        self.validate_record(record)?;
        let table = self.models.vf_table();
        let topo = self.models.topology();
        let cores_per_cu = topo.cores_per_cu();
        let (memory_factor, nb_idle_scale, nb_dyn_scale) = match nb_target {
            NbVfState::High => (1.0, 1.0, 1.0),
            NbVfState::Low => (nb_low::MEMORY_FACTOR, nb_low::IDLE_SCALE, nb_low::DYN_SCALE),
        };

        // One clock for the whole projection: per-stage time across
        // the (core × VF) loops accumulates and flushes as one span
        // per stage per interval (see [`StageClock`]). A disabled
        // recorder makes each `time` call a plain closure call.
        let mut clock = StageClock::new(&self.recorder);

        // The kernel fills the core rows and sums each state's NB
        // dynamic power into its chip row (see
        // [`PpeProjection::reset_rows`]); composition below adds the
        // NB idle share and fills the rest of each chip row.
        match kernel {
            ProjectionKernel::Scalar => {
                self.scalar_grid(record, memory_factor, nb_dyn_scale, &mut clock, out)?;
            }
            ProjectionKernel::Batch => self.batch.grid(
                &self.models,
                record,
                memory_factor,
                nb_dyn_scale,
                &mut clock,
                out,
            )?,
        }
        let work_instructions: f64 = record
            .samples
            .iter()
            .map(|s| s.counts.get(EventId::RetiredInstructions))
            .sum();

        let PpeProjection { cores, chip, .. } = out;
        // CU activity pattern for the PG idle path.
        let cu_active = || {
            cores
                .chunks(cores_per_cu)
                .map(|cu| cu.iter().any(|c| c.busy))
        };
        let any_active = cores.iter().any(|c| c.busy);

        for row in chip.iter_mut() {
            let vf = row.vf;
            let dynamic_total: Watts = clock.time(Stage::Compose, || {
                cores.iter().map(|c| c.at(vf).dynamic_power).sum()
            });
            let (nb_idle, idle_total) =
                clock.time(Stage::Pidle, || -> Result<(Watts, Watts)> {
                    // NB idle share, separable only with the PG
                    // decomposition.
                    let nb_idle = match self.models.chip_power().pg_model() {
                        Some(pg) if any_active => pg.pidle_nb(vf)? * nb_idle_scale,
                        _ => Watts::ZERO,
                    };
                    let idle_total = match self.models.chip_power().pg_model() {
                        Some(pg) => {
                            // The PG path prices the uniform per-CU
                            // assignment at this state.
                            let uniform_vf = std::iter::repeat_n(vf, topo.cu_count());
                            let stock = pg.chip_idle_pg_enabled_with(cu_active(), uniform_vf)?;
                            // Replace the stock NB idle contribution with
                            // the scaled one.
                            if any_active {
                                stock - pg.pidle_nb(vf)? + nb_idle
                            } else {
                                stock
                            }
                        }
                        None => self
                            .models
                            .idle_model()
                            .estimate(table.point(vf).voltage, record.temperature)?,
                    };
                    Ok((nb_idle, idle_total))
                })?;
            clock.time(Stage::Compose, || {
                let power = idle_total + dynamic_total;
                let nb_power = nb_idle + row.nb_power;
                let ips: f64 = cores.iter().map(|c| c.at(vf).ips).sum();
                let (time_for_work, energy, edp) = if ips > 0.0 && work_instructions > 0.0 {
                    let t = work_instructions / ips;
                    let e = power.as_watts() * t;
                    (Seconds::new(t), Joules::new(e), e * t)
                } else {
                    // Idle chip: report the decision interval as the
                    // work unit so power comparisons still make sense.
                    let t = record.duration.as_secs();
                    let e = power.as_watts() * t;
                    (Seconds::new(t), Joules::new(e), e * t)
                };
                *row = ChipPpe {
                    vf,
                    power,
                    nb_power,
                    ips,
                    time_for_work,
                    energy,
                    edp,
                };
            });
        }
        clock.flush(record.index.0);

        out.interval = record.index;
        out.temperature = record.temperature;
        out.source_vf.clear();
        out.source_vf.extend_from_slice(&record.cu_vf);
        out.work_instructions = work_instructions;
        Ok(())
    }

    /// Rejects records whose CU→VF assignment cannot index the model
    /// bundle's ladder: too few assignments for the sampled cores
    /// (including an empty assignment) or a state id from a longer
    /// table. Both used to panic inside the grid loops; both kernels
    /// now share this typed check.
    fn validate_record(&self, record: &IntervalRecord) -> Result<()> {
        let cores_per_cu = self.models.topology().cores_per_cu();
        let table_len = self.models.vf_table().len();
        let needed_cus = record.samples.len().div_ceil(cores_per_cu);
        if record.cu_vf.len() < needed_cus {
            return Err(Error::InvalidInput(format!(
                "{} per-CU VF assignments for {} sampled cores \
                 ({needed_cus} CUs of {cores_per_cu})",
                record.cu_vf.len(),
                record.samples.len()
            )));
        }
        for (cu, vf) in record.cu_vf.iter().take(needed_cus).enumerate() {
            if vf.index() >= table_len {
                return Err(Error::InvalidInput(format!(
                    "CU {cu} assigned VF state index {} of a \
                     {table_len}-state ladder",
                    vf.index()
                )));
            }
        }
        Ok(())
    }

    /// The scalar reference kernel: the per-cell grid walk, kept
    /// verbatim as the differential baseline for [`crate::batch`].
    /// Fills `out.cores` and sums each state's NB dynamic power into
    /// the `nb_power` of its row in `out.chip`, like
    /// [`BatchProjector::grid`](crate::batch::BatchProjector::grid).
    fn scalar_grid(
        &self,
        record: &IntervalRecord,
        memory_factor: f64,
        nb_dyn_scale: f64,
        clock: &mut StageClock<'_>,
        out: &mut PpeProjection,
    ) -> Result<()> {
        let table = self.models.vf_table();
        let cores_per_cu = self.models.topology().cores_per_cu();
        let dynamic = self.models.dynamic_model();
        out.reset_rows(record.samples.len(), table);
        let rows = out.cores.iter_mut();
        for ((i, sample), row) in record.samples.iter().enumerate().zip(rows) {
            let cu = i / cores_per_cu;
            let from = table.point(record.cu_vf[cu]);
            row.core = CoreId(i);
            row.busy = sample.counts.get(EventId::RetiredInstructions) > 0.0;
            row.per_vf.clear();
            row.per_vf.reserve(table.len());
            for (vf, chip_row) in table.states().zip(out.chip.iter_mut()) {
                let to = table.point(vf);
                let projected = clock.time(Stage::CpiPredict, || {
                    self.predictor.project_cpi(sample, from, to, memory_factor)
                })?;
                let predicted = clock.time(Stage::EventPredict, || {
                    self.predictor.reconstruct_events(sample, &projected)
                })?;
                let (core_dyn, nb_dyn) = clock.time(Stage::Pdyn, || {
                    dynamic.estimate_core_split(&predicted.power_rates(), to.voltage)
                })?;
                let nb_dyn = nb_dyn * nb_dyn_scale;
                chip_row.nb_power += nb_dyn;
                row.per_vf.push(CoreAtVf {
                    vf,
                    dynamic_power: core_dyn + nb_dyn,
                    ips: predicted.ips,
                    cpi: predicted.cpi,
                });
            }
        }
        Ok(())
    }

    /// Predicted chip power for an arbitrary per-CU VF assignment —
    /// the primitive the Fig. 7 capping controller searches over.
    ///
    /// # Errors
    ///
    /// Propagates model errors; requires a PG model when any CU is
    /// idle and gating is enabled on the chip.
    pub fn chip_power_with_assignment(
        &self,
        projection: &PpeProjection,
        cu_vf: &[VfStateId],
    ) -> Result<Watts> {
        let topo = self.models.topology();
        let cores_per_cu = topo.cores_per_cu();
        if cu_vf.len() != topo.cu_count() {
            return Err(ppep_types::Error::InvalidInput(format!(
                "{} CU assignments for {} CUs",
                cu_vf.len(),
                topo.cu_count()
            )));
        }
        let mut dynamic = Watts::ZERO;
        for (cores, &vf) in projection.cores.chunks(cores_per_cu).zip(cu_vf) {
            for core in cores {
                dynamic += core.at(vf).dynamic_power;
            }
        }
        let cu_active = projection
            .cores
            .chunks(cores_per_cu)
            .map(|cu| cu.iter().any(|c| c.busy));
        let idle = match self.models.chip_power().pg_model() {
            Some(pg) => pg.chip_idle_pg_enabled_with(cu_active, cu_vf.iter().copied())?,
            None => {
                // Without per-CU rails the Eq. 2 model needs one
                // voltage; use the highest assigned state, as the
                // shared rail must satisfy the fastest CU.
                let max_vf =
                    cu_vf.iter().copied().max().ok_or_else(|| {
                        ppep_types::Error::InvalidInput("empty VF assignment".into())
                    })?;
                self.models.idle_model().estimate(
                    self.models.vf_table().point(max_vf).voltage,
                    projection.temperature,
                )?
            }
        };
        Ok(idle + dynamic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_rig::TrainingRig;
    use ppep_sim::chip::{ChipSimulator, SimConfig};
    use ppep_workloads::combos::instances;
    use std::sync::OnceLock;

    fn shared_ppep() -> &'static Ppep {
        static PPEP: OnceLock<Ppep> = OnceLock::new();
        PPEP.get_or_init(|| {
            let mut rig = TrainingRig::fx8320(42);
            Ppep::new(rig.train_quick().expect("training succeeds"))
        })
    }

    fn record_for(workload: &str, n: usize) -> ppep_sim::chip::IntervalRecord {
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&instances(workload, n, 42));
        sim.run_intervals(8).pop().unwrap()
    }

    #[test]
    fn projection_covers_all_states_and_cores() {
        let ppep = shared_ppep();
        let record = record_for("433.milc", 2);
        let p = ppep.project(&record).unwrap();
        assert_eq!(p.cores.len(), 8);
        assert_eq!(p.chip.len(), 5);
        assert_eq!(p.busy_core_count(), 2);
        assert!(p.work_instructions > 0.0);
        for c in &p.cores {
            assert_eq!(c.per_vf.len(), 5);
        }
    }

    #[test]
    fn same_state_projection_matches_measured_power() {
        let ppep = shared_ppep();
        let record = record_for("458.sjeng", 4);
        let p = ppep.project(&record).unwrap();
        let vf5 = ppep.models().vf_table().highest();
        let projected = p.chip_at(vf5).power.as_watts();
        let measured = record.measured_power.as_watts();
        let rel = (projected - measured).abs() / measured;
        assert!(rel < 0.15, "same-state projection error {rel}");
    }

    #[test]
    fn power_is_monotone_in_vf_for_busy_chip() {
        let ppep = shared_ppep();
        let record = record_for("458.sjeng", 8);
        let p = ppep.project(&record).unwrap();
        for w in p.chip.windows(2) {
            assert!(
                w[1].power > w[0].power,
                "chip power must grow with VF: {:?} vs {:?}",
                w[0].power,
                w[1].power
            );
        }
    }

    #[test]
    fn lowest_state_minimises_energy() {
        // §V-C observation 1: the lowest VF state gives least energy.
        let ppep = shared_ppep();
        for (wl, n) in [("433.milc", 2), ("458.sjeng", 4)] {
            let record = record_for(wl, n);
            let p = ppep.project(&record).unwrap();
            assert_eq!(
                p.best_energy_vf(),
                ppep.models().vf_table().lowest(),
                "{wl} x{n}"
            );
        }
    }

    #[test]
    fn memory_bound_work_keeps_throughput_at_low_vf() {
        let ppep = shared_ppep();
        let milc = ppep.project(&record_for("433.milc", 1)).unwrap();
        let sjeng = ppep.project(&record_for("458.sjeng", 1)).unwrap();
        let table = ppep.models().vf_table().clone();
        let ratio =
            |p: &PpeProjection| p.chip_at(table.lowest()).ips / p.chip_at(table.highest()).ips;
        let milc_keep = ratio(&milc);
        let sjeng_keep = ratio(&sjeng);
        assert!(
            milc_keep > sjeng_keep + 0.1,
            "memory-bound retains throughput: milc {milc_keep} vs sjeng {sjeng_keep}"
        );
    }

    #[test]
    fn assignment_power_matches_uniform_projection() {
        let ppep = shared_ppep();
        let record = record_for("433.milc", 4);
        let p = ppep.project(&record).unwrap();
        let table = ppep.models().vf_table().clone();
        for vf in table.states() {
            let uniform = p.chip_at(vf).power.as_watts();
            let assigned = ppep
                .chip_power_with_assignment(&p, &[vf; 4])
                .unwrap()
                .as_watts();
            assert!(
                (uniform - assigned).abs() < 1e-9,
                "uniform {uniform} vs assignment {assigned}"
            );
        }
        // Mixed assignments interpolate between the extremes.
        let lo = p.chip_at(table.lowest()).power.as_watts();
        let hi = p.chip_at(table.highest()).power.as_watts();
        let mixed = ppep
            .chip_power_with_assignment(
                &p,
                &[
                    table.highest(),
                    table.lowest(),
                    table.lowest(),
                    table.lowest(),
                ],
            )
            .unwrap()
            .as_watts();
        assert!(mixed > lo && mixed < hi, "{lo} < {mixed} < {hi}");
        assert!(ppep
            .chip_power_with_assignment(&p, &[table.lowest()])
            .is_err());
    }

    #[test]
    fn nb_low_projection_trades_speed_for_nb_power() {
        use ppep_types::vf::NbVfState;
        let ppep = shared_ppep();
        let record = record_for("433.milc", 2);
        let hi = ppep.project_nb(&record, NbVfState::High).unwrap();
        let lo = ppep.project_nb(&record, NbVfState::Low).unwrap();
        let table = ppep.models().vf_table().clone();
        let top = table.highest();
        // Memory-bound work slows down at the low NB point...
        assert!(lo.chip_at(top).ips < hi.chip_at(top).ips);
        // ...but NB dynamic power shrinks (no PG model in the quick
        // bundle, so nb_power is dynamic-only here).
        assert!(lo.chip_at(top).nb_power < hi.chip_at(top).nb_power);
        // And total power shrinks too.
        assert!(lo.chip_at(top).power < hi.chip_at(top).power);
    }

    #[test]
    fn nb_split_is_larger_for_memory_bound_work() {
        let ppep = shared_ppep();
        let milc = ppep.project(&record_for("433.milc", 2)).unwrap();
        let sjeng = ppep.project(&record_for("458.sjeng", 2)).unwrap();
        let top = ppep.models().vf_table().highest();
        assert!(
            milc.chip_at(top).nb_ratio() > sjeng.chip_at(top).nb_ratio(),
            "milc NB ratio {} vs sjeng {}",
            milc.chip_at(top).nb_ratio(),
            sjeng.chip_at(top).nb_ratio()
        );
    }

    #[test]
    fn idle_chip_projection_is_flat_in_throughput() {
        let ppep = shared_ppep();
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        let record = sim.run_intervals(3).pop().unwrap();
        let p = ppep.project(&record).unwrap();
        assert_eq!(p.busy_core_count(), 0);
        for c in &p.chip {
            assert_eq!(c.ips, 0.0);
            assert!(c.power.as_watts() > 0.0, "idle power still predicted");
        }
    }

    #[test]
    fn truncated_cu_vf_assignment_is_a_typed_error() {
        let ppep = shared_ppep();
        for keep in [0, 1] {
            let mut record = record_for("433.milc", 2);
            record.cu_vf.truncate(keep);
            for kernel in [ProjectionKernel::Scalar, ProjectionKernel::Batch] {
                let err = ppep
                    .clone()
                    .with_kernel(kernel)
                    .project(&record)
                    .expect_err("short assignment must not panic");
                assert!(
                    err.to_string().contains("VF assignments"),
                    "{kernel}: {err}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_vf_state_is_a_typed_error() {
        let ppep = shared_ppep();
        let mut record = record_for("433.milc", 2);
        // Index 6 from the boosted seven-state ladder, against the
        // engine's five-state bundle.
        record.cu_vf[0] = ppep_types::VfTable::fx8320_with_boost().highest();
        for kernel in [ProjectionKernel::Scalar, ProjectionKernel::Batch] {
            let err = ppep
                .clone()
                .with_kernel(kernel)
                .project(&record)
                .expect_err("out-of-range state must not panic");
            assert!(
                err.to_string().contains("5-state ladder"),
                "{kernel}: {err}"
            );
        }
    }

    fn single_core_ppep() -> Ppep {
        use ppep_models::idle::{IdlePowerModel, IdleSample};
        use ppep_models::{ChipPowerModel, DynamicPowerModel};
        use ppep_types::{Kelvin, Topology, VfTable, Volts};
        let table = VfTable::fx8320();
        // P = 0.1·T + 10·V (linear, easy to verify).
        let mut samples = Vec::new();
        for point in table.iter().map(|(_, p)| p) {
            for i in 0..5 {
                let t = 305.0 + 5.0 * f64::from(i);
                samples.push(IdleSample {
                    voltage: point.voltage,
                    temperature: Kelvin::new(t),
                    power: Watts::new(0.1 * t + 10.0 * point.voltage.as_volts()),
                });
            }
        }
        let idle = IdlePowerModel::fit(&samples).expect("synthetic idle fit");
        let mut w = [0.0; 9];
        for (i, wi) in w.iter_mut().enumerate() {
            *wi = (i as f64 + 1.0) * 1.0e-10;
        }
        let dynamic = DynamicPowerModel::from_parts(w, 1.6, Volts::new(1.320));
        let governors = ppep_models::green_governors::GreenGovernors::from_parts(
            vec![Watts::new(10.0); table.len()],
            1.0e-9,
        );
        let topo = Topology::new("uniprocessor", 1, 1, table.clone(), false, 4.0, 20.0)
            .expect("single-core topology is valid");
        Ppep::new(TrainedModels::from_parts(
            ChipPowerModel::new(idle, dynamic),
            governors,
            1.6,
            table,
            topo,
        ))
    }

    #[test]
    fn single_core_topology_projects_under_both_kernels() {
        use ppep_pmc::sampler::IntervalSample;
        use ppep_pmc::EventCounts;
        use ppep_telemetry::record::PowerBreakdown;
        use ppep_types::time::IntervalIndex;
        use ppep_types::{Kelvin, Seconds};
        let ppep = single_core_ppep();
        let duration = Seconds::new(0.2);
        let inst = 2.0e8;
        let mut counts = EventCounts::zero();
        counts.set(EventId::RetiredInstructions, inst);
        counts.set(EventId::CpuClocksNotHalted, 1.4 * inst);
        counts.set(EventId::MabWaitCycles, 0.2 * inst);
        counts.set(EventId::DispatchStalls, 0.45 * inst);
        counts.set(EventId::RetiredUops, 1.5 * inst);
        counts.set(EventId::DataCacheAccesses, 0.3 * inst);
        counts.set(EventId::L2CacheMisses, 0.01 * inst);
        let record = IntervalRecord {
            index: IntervalIndex(0),
            duration,
            samples: vec![IntervalSample { counts, duration }],
            true_counts: vec![EventCounts::zero()],
            measured_power: Watts::new(20.0),
            true_power: PowerBreakdown {
                core_dynamic: vec![Watts::ZERO],
                nb_dynamic: Watts::ZERO,
                cu_idle: vec![Watts::ZERO],
                nb_idle: Watts::ZERO,
                base: Watts::ZERO,
            },
            temperature: Kelvin::new(320.0),
            cu_vf: vec![ppep.models().vf_table().highest()],
            nb_state: NbVfState::High,
            core_busy: vec![true],
        };
        let batch = ppep.project(&record).expect("batch projects 1×1 topology");
        let scalar = ppep
            .project_nb_scalar(&record, NbVfState::High)
            .expect("scalar projects 1×1 topology");
        assert_eq!(batch.cores.len(), 1);
        assert_eq!(batch.chip.len(), 5);
        assert!(batch.cores[0].busy);
        for (b, s) in batch.cores[0].per_vf.iter().zip(&scalar.cores[0].per_vf) {
            assert_eq!(b.ips.to_bits(), s.ips.to_bits());
            assert_eq!(b.cpi.to_bits(), s.cpi.to_bits());
            assert_eq!(
                b.dynamic_power.as_watts().to_bits(),
                s.dynamic_power.as_watts().to_bits()
            );
        }
        for (b, s) in batch.chip.iter().zip(&scalar.chip) {
            assert_eq!(b.power.as_watts().to_bits(), s.power.as_watts().to_bits());
            assert_eq!(b.ips.to_bits(), s.ips.to_bits());
        }
    }
}
