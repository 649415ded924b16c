//! The batched struct-of-arrays projection kernel.
//!
//! [`crate::framework::Ppep::project_nb`] prices every (core,
//! VF-state) cell of the DVFS space each interval. Walked cell by
//! cell, that grid re-derives per-state constants — the `(Vn/V5)^α`
//! weight scaling, target frequencies in Hz — and per-core invariants
//! — the LL-MAB decomposition, the per-instruction event fingerprint —
//! inside the inner loop.
//!
//! [`BatchProjector`] restructures that walk around flattened
//! coefficient tables ([`ppep_models::soa::SoaCoeffs`], built once per
//! engine) and per-core hoists, leaving the inner loops as branch-free
//! zip chains over contiguous slices. It is the engine's only grid
//! walk. The restructuring is **bit exact**: every cell value is
//! produced by the identical sequence of float operations the
//! cell-by-cell walk performs through the public model APIs, only with
//! loop-invariant subexpressions computed once (IEEE-754 float ops are
//! deterministic, so hoisting a pure subexpression cannot change its
//! bits). That cell-by-cell walk lives on as a test oracle in
//! `tests/support/scalar.rs`; the differential harness in
//! `tests/kernel_equivalence.rs` and the golden-fixture pins in
//! `tests/golden_traces.rs` enforce the contract, and
//! `tests/kernel_speedup.rs` gates the speedup over the oracle.
//!
//! Error behaviour is preserved too: validation runs in the oracle's
//! order (memory factor → finite counts → positive frequencies →
//! CPI decomposition → finite Eq. 3 sums), so the first error any
//! record produces is the same `Error` either way.

use crate::ppe::PpeProjection;
use ppep_models::soa::SoaCoeffs;
use ppep_models::trainer::TrainedModels;
use ppep_models::CpiObservation;
use ppep_obs::{Stage, StageClock};
use ppep_pmc::EventId;
use ppep_telemetry::IntervalRecord;
use ppep_types::{CoreId, Error, Gigahertz, Result};

/// The per-core LL-MAB hoists shared by a whole VF row.
#[derive(Debug, Clone, Copy)]
struct CpiRow {
    /// The source-interval CPI feeding the Observation-2 gap.
    source_cpi: f64,
}

/// The per-core Observation-1/2 hoists: E1–E8 per-instruction
/// fingerprint and the VF-invariant CPI − DSPI gap.
#[derive(Debug, Clone, Copy)]
struct Fingerprint {
    per_inst: [f64; 8],
    gap: f64,
}

/// The struct-of-arrays batch kernel: one record in, the full
/// core × VF-state grid out.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BatchProjector {
    coeffs: SoaCoeffs,
}

impl BatchProjector {
    /// Flattens the model bundle's coefficient tables for the hot
    /// loop. Called once per engine construction.
    pub(crate) fn new(models: &TrainedModels) -> Self {
        Self {
            coeffs: SoaCoeffs::build(models.vf_table(), models.dynamic_model()),
        }
    }

    /// Computes the full core × VF-state grid for one record into
    /// `out`: each core in `out.cores` and its row of `out.cells`
    /// (refilled in place), and each state's column sums of dynamic
    /// power, NB dynamic power and IPS in the `power`, `nb_power` and
    /// `ips` of its row in `out.chip`, which is reset to one row per
    /// state (see [`PpeProjection::reset_rows`]). Cells and sums come
    /// out exactly as the per-cell model APIs and a core-order `sum()`
    /// produce them; the other fields of `out` are left to the caller.
    ///
    /// `memory_factor` and `nb_dyn_scale` are the §V-C2 NB-state
    /// assumptions (1.0 at the stock NB point). `models` must be the
    /// bundle this projector was built from.
    ///
    /// # Errors
    ///
    /// The same errors, in the same order, as the per-cell model APIs:
    /// invalid memory factor, non-finite counts, non-positive
    /// frequencies, degenerate CPI decompositions, and non-finite
    /// Eq. 3 sums. Out-of-range CU assignments surface as
    /// [`Error::InvalidInput`] rather than a panic.
    pub(crate) fn grid(
        &self,
        models: &TrainedModels,
        record: &IntervalRecord,
        memory_factor: f64,
        nb_dyn_scale: f64,
        clock: &mut StageClock<'_>,
        out: &mut PpeProjection,
    ) -> Result<()> {
        let coeffs = &self.coeffs;
        let table = models.vf_table();
        let dynamic = models.dynamic_model();
        let cores_per_cu = models.topology().cores_per_cu();
        let n_vf = coeffs.len();
        let nb_weights = coeffs.nb_weights();

        out.reset_rows(record.samples.len(), table);
        let PpeProjection {
            cores, cells, chip, ..
        } = out;
        let rows = cores.iter_mut().zip(cells.chunks_exact_mut(n_vf));
        for ((i, sample), (core, per_vf)) in record.samples.iter().enumerate().zip(rows) {
            let cu = i / cores_per_cu;
            let from_idx = record
                .cu_vf
                .get(cu)
                .ok_or_else(|| {
                    Error::InvalidInput(format!(
                        "core {i} needs a VF assignment for CU {cu}, got {}",
                        record.cu_vf.len()
                    ))
                })?
                .index();
            let (from_ghz, from_hz) =
                match (coeffs.to_ghz().get(from_idx), coeffs.to_hz().get(from_idx)) {
                    (Some(g), Some(h)) => (*g, *h),
                    _ => {
                        return Err(Error::InvalidInput(format!(
                            "CU {cu} assigned VF state index {from_idx} \
                         of a {n_vf}-state ladder"
                        )))
                    }
                };
            core.core = CoreId(i);
            core.busy = sample.counts.get(EventId::RetiredInstructions) > 0.0;
            // The core's row of cells: stage 1 writes each cell's
            // CPI/IPS, stage 3 its dynamic power.

            // Stage 1 (Eq. 1): validate in the per-cell order, then fill
            // the row's CPI/IPS lanes in one branch-free pass.
            let row = clock.time(Stage::CpiPredict, || -> Result<Option<CpiRow>> {
                if memory_factor <= 0.0 || !memory_factor.is_finite() {
                    return Err(Error::InvalidInput("memory factor must be positive".into()));
                }
                if !sample.counts.is_finite() {
                    return Err(Error::InvalidInput("sample counts must be finite".into()));
                }
                if from_ghz <= 0.0 || coeffs.to_ghz().iter().any(|f| *f <= 0.0) {
                    return Err(Error::InvalidInput("frequencies must be positive".into()));
                }
                let inst = sample.counts.get(EventId::RetiredInstructions);
                if inst <= 0.0 {
                    return Ok(None);
                }
                let obs = CpiObservation::from_sample(sample, Gigahertz::new(from_ghz))?;
                let ccpi = obs.ccpi();
                let mcpi = obs.mcpi();
                let unhalted_rate =
                    sample.counts.get(EventId::CpuClocksNotHalted) / sample.duration.as_secs();
                let utilization = (unhalted_rate / from_hz).min(1.0);
                let lanes = per_vf
                    .iter_mut()
                    .zip(coeffs.to_ghz().iter().zip(coeffs.to_hz()));
                for (cell, (to_ghz, to_hz)) in lanes {
                    // Eq. 1: CPI(f') = CCPI + (MCPI · f'/f) · mf, then
                    // IPS = util · f'(Hz) / CPI(f') — op-for-op the
                    // `HwEventPredictor::project_cpi` sequence.
                    let pm_mf = mcpi * (to_ghz / from_ghz) * memory_factor;
                    cell.cpi = ccpi + pm_mf;
                    cell.ips = utilization * to_hz / cell.cpi;
                }
                Ok(Some(CpiRow {
                    source_cpi: obs.cpi(),
                }))
            })?;

            // Stage 2 (Observations 1–2): the whole row shares one
            // per-instruction fingerprint and one CPI − DSPI gap.
            let fingerprint = clock.time(Stage::EventPredict, || {
                row.map(|r| {
                    let inst = sample.counts.get(EventId::RetiredInstructions);
                    let mut per_inst = [0.0_f64; 8];
                    for (p, c) in per_inst.iter_mut().zip(sample.counts.as_array()) {
                        *p = c / inst;
                    }
                    let dspi_source = sample.counts.get(EventId::DispatchStalls) / inst;
                    Fingerprint {
                        per_inst,
                        gap: r.source_cpi - dspi_source,
                    }
                })
            });

            // Stage 3 (Eq. 3): reconstruct each cell's E1–E9 rates and
            // price them against the pre-scaled weight rows.
            clock.time(Stage::Pdyn, || -> Result<()> {
                let lanes = per_vf
                    .iter_mut()
                    .zip(coeffs.scaled_weight_rows())
                    .zip(chip.iter_mut());
                for ((cell, scaled_row), chip_row) in lanes {
                    let ips = cell.ips;
                    // The per-cell idle test is `ips <= 0.0`; NaN is
                    // *not* idle and must flow into the finite guard,
                    // hence the explicit `is_nan` disjunct.
                    let rates = match fingerprint {
                        Some(fp) if ips.is_nan() || ips > 0.0 => {
                            let dspi_t = (cell.cpi - fp.gap).max(0.0);
                            let pi = &fp.per_inst;
                            [
                                pi[0] * ips,
                                pi[1] * ips,
                                pi[2] * ips,
                                pi[3] * ips,
                                pi[4] * ips,
                                pi[5] * ips,
                                pi[6] * ips,
                                pi[7] * ips,
                                dspi_t * ips,
                            ]
                        }
                        // An idle cell reports zero CPI/IPS and prices a
                        // zero rate vector, like the per-cell path (the
                        // multiply-adds still run so a degenerate weight
                        // poisons both paths identically).
                        _ => {
                            cell.cpi = 0.0;
                            cell.ips = 0.0;
                            [0.0; 9]
                        }
                    };
                    let (core_dyn, nb_dyn) =
                        dynamic.estimate_core_split_prescaled(&rates, scaled_row, nb_weights)?;
                    let nb_dyn = nb_dyn * nb_dyn_scale;
                    cell.dynamic_power = core_dyn + nb_dyn;
                    // The cell's share of its state's column sums,
                    // added in core order.
                    chip_row.nb_power += nb_dyn;
                    chip_row.power += cell.dynamic_power;
                    chip_row.ips += cell.ips;
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_obs::RecorderHandle;
    use ppep_rig::TrainingRig;
    use std::sync::OnceLock;

    fn models() -> &'static TrainedModels {
        static MODELS: OnceLock<TrainedModels> = OnceLock::new();
        MODELS.get_or_init(|| {
            TrainingRig::fx8320(42)
                .train_quick()
                .expect("training succeeds")
        })
    }

    fn record() -> IntervalRecord {
        use ppep_sim::chip::{ChipSimulator, SimConfig};
        use ppep_workloads::combos::instances;
        let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
        sim.load_workload(&instances("433.milc", 3, 42));
        sim.run_intervals(4).pop().expect("simulated interval")
    }

    #[test]
    fn grid_covers_every_cell() {
        let m = models();
        let projector = BatchProjector::new(m);
        let rec = RecorderHandle::noop();
        let mut clock = StageClock::new(&rec);
        let mut out = PpeProjection::default();
        projector
            .grid(m, &record(), 1.0, 1.0, &mut clock, &mut out)
            .expect("grid projects");
        assert_eq!(out.cores.len(), 8);
        assert_eq!(out.chip.len(), 5);
        assert_eq!(out.cells.len(), 8 * 5);
        for (row, core) in out.rows().zip(&out.cores) {
            let states: Vec<usize> = row.iter().map(|c| c.vf.index()).collect();
            assert_eq!(states, [0, 1, 2, 3, 4], "core {:?}", core.core);
        }
    }

    #[test]
    fn missing_cu_assignment_is_a_typed_error() {
        let m = models();
        let projector = BatchProjector::new(m);
        let rec = RecorderHandle::noop();
        let mut clock = StageClock::new(&rec);
        let mut r = record();
        r.cu_vf.truncate(1);
        let err = projector.grid(m, &r, 1.0, 1.0, &mut clock, &mut PpeProjection::default());
        assert!(matches!(err, Err(Error::InvalidInput(_))), "{err:?}");
    }
}
