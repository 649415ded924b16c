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
//! Whatever does not depend on the record is priced once, when the
//! engine is built: an idle core's whole row at each NB point (so an
//! idle core costs a row copy and its column-sum adds), and, with a PG
//! model, the uniform chip idle of each state for every count of
//! active CUs. Each entry is the exact `Result` the per-call model API
//! returns, so a lookup yields the bits, or the error, the call would
//! have.
//!
//! Error behaviour is preserved too: validation runs in the oracle's
//! order (memory factor → finite counts → positive frequencies →
//! CPI decomposition → finite Eq. 3 sums), so the first error any
//! record produces is the same `Error` either way. The memory factor
//! and the ladder's frequencies are the same for every core, so they
//! are checked once, around the first core's counts check, which is
//! where the per-cell order first reaches them.

use crate::framework::{out_of_ladder, NbAssumptions};
use crate::ppe::{CoreAtVf, PpeProjection};
use ppep_models::pg::PgIdleModel;
use ppep_models::soa::SoaCoeffs;
use ppep_models::trainer::TrainedModels;
use ppep_models::CpiObservation;
use ppep_obs::{Stage, StageClock};
use ppep_pmc::EventId;
use ppep_telemetry::IntervalRecord;
use ppep_types::vf::NbVfState;
use ppep_types::{CoreId, Error, Gigahertz, Result, VfStateId, VfTable, Watts};

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

/// An idle core's row at one NB point: the cells every idle core
/// copies, and each state's scaled NB dynamic power for the column
/// sums.
#[derive(Debug, Clone)]
struct IdleRow {
    cells: Vec<CoreAtVf>,
    nb_dynamic: Vec<Watts>,
}

impl IdleRow {
    /// Prices an idle cell at every state exactly as the kernel would
    /// cell by cell: the table's zero-rate Eq. 3 split, its NB part
    /// scaled by `nb_dyn_scale`, then summed. The error is the first
    /// state's, in ladder order.
    fn build(coeffs: &SoaCoeffs, table: &VfTable, nb_dyn_scale: f64) -> Result<Self> {
        let mut cells = Vec::with_capacity(coeffs.len());
        let mut nb_dynamic = Vec::with_capacity(coeffs.len());
        for (vf, split) in table.states().zip(coeffs.idle_splits()) {
            let (core_dyn, nb_dyn) = copied(split)?;
            let nb_dyn = nb_dyn * nb_dyn_scale;
            cells.push(CoreAtVf {
                vf,
                dynamic_power: core_dyn + nb_dyn,
                ips: 0.0,
                cpi: 0.0,
            });
            nb_dynamic.push(nb_dyn);
        }
        Ok(Self { cells, nb_dynamic })
    }
}

/// A table entry by value: the `Ok` copied out, the error cloned.
#[inline]
fn copied<T: Copy>(entry: &Result<T>) -> Result<T> {
    entry.as_ref().copied().map_err(Clone::clone)
}

/// The chip idle of every uniform assignment, priced once per engine:
/// for each state and each count of active CUs, exactly what
/// [`PgIdleModel::chip_idle_pg_enabled_with`] returns for the whole
/// chip at that state with that many CUs active, errors included.
#[derive(Debug, Clone)]
struct UniformIdle {
    /// The topology's CU count.
    cu_count: usize,
    /// Row-major `states × (cu_count + 1)`.
    entries: Vec<Result<Watts>>,
}

impl UniformIdle {
    fn build(pg: &PgIdleModel, table: &VfTable, cu_count: usize) -> Self {
        // A uniform assignment adds the same `Pidle(CU)` once per
        // active CU, whichever CUs they are, so the first `active`
        // stand for all of them.
        let entries = table
            .states()
            .flat_map(|vf| {
                (0..=cu_count).map(move |active| {
                    pg.chip_idle_pg_enabled_with(
                        (0..cu_count).map(|cu| cu < active),
                        std::iter::repeat_n(vf, cu_count),
                    )
                })
            })
            .collect();
        Self { cu_count, entries }
    }
}

/// The struct-of-arrays batch kernel: one record in, the full
/// core × VF-state grid out.
#[derive(Debug, Clone)]
pub(crate) struct BatchProjector {
    coeffs: SoaCoeffs,
    /// An idle core's row at the stock NB point.
    idle_high: Result<IdleRow>,
    /// An idle core's row at the low NB point.
    idle_low: Result<IdleRow>,
    /// The uniform chip idle table, when the bundle has a PG model.
    uniform_idle: Option<UniformIdle>,
}

impl BatchProjector {
    /// Flattens the model bundle's coefficient tables for the hot
    /// loop and prices everything that does not depend on the record.
    /// Called once per engine construction.
    pub(crate) fn new(models: &TrainedModels) -> Self {
        let table = models.vf_table();
        let coeffs = SoaCoeffs::build(table, models.dynamic_model());
        let idle_row = |nb| IdleRow::build(&coeffs, table, NbAssumptions::of(nb).dyn_scale);
        let idle_high = idle_row(NbVfState::High);
        let idle_low = idle_row(NbVfState::Low);
        let uniform_idle = models
            .chip_power()
            .pg_model()
            .map(|pg| UniformIdle::build(pg, table, models.topology().cu_count()));
        Self {
            coeffs,
            idle_high,
            idle_low,
            uniform_idle,
        }
    }

    /// The chip idle power, with gating enabled, of the uniform
    /// assignment `vf` when `active` of `cus` CUs are active: the
    /// entry priced at construction, by value. `None` without a PG
    /// model, or when `cus` is not the topology's CU count (a shape
    /// the model rejects).
    #[inline]
    pub(crate) fn uniform_idle(
        &self,
        vf: VfStateId,
        active: usize,
        cus: usize,
    ) -> Option<Result<Watts>> {
        let table = self.uniform_idle.as_ref()?;
        if cus != table.cu_count {
            return None;
        }
        table
            .entries
            .get(vf.index() * (table.cu_count + 1) + active)
            .map(copied)
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
    /// `nb` selects the §V-C2 NB-point assumptions. `models` must be
    /// the bundle this projector was built from, and `record` must
    /// have passed the engine's record check: one in-ladder state per
    /// CU its samples span.
    ///
    /// # Errors
    ///
    /// The same errors, in the same order, as the per-cell model APIs:
    /// invalid memory factor, non-finite counts, non-positive
    /// frequencies, degenerate CPI decompositions, and non-finite
    /// Eq. 3 sums.
    pub(crate) fn grid(
        &self,
        models: &TrainedModels,
        record: &IntervalRecord,
        nb: NbVfState,
        clock: &mut StageClock<'_>,
        out: &mut PpeProjection,
    ) -> Result<()> {
        let coeffs = &self.coeffs;
        let dynamic = models.dynamic_model();
        let cores_per_cu = models.topology().cores_per_cu();
        let n_vf = coeffs.len();
        let nb_weights = coeffs.nb_weights();
        let NbAssumptions {
            memory_factor,
            dyn_scale: nb_dyn_scale,
            ..
        } = NbAssumptions::of(nb);
        let idle_row = match nb {
            NbVfState::High => &self.idle_high,
            NbVfState::Low => &self.idle_low,
        };

        let table = models.vf_table();
        out.reset_rows(record.samples.len(), table);
        let PpeProjection {
            cores, cells, chip, ..
        } = out;

        // The checks every core shares, at the place in the per-cell
        // order where the first core reaches them: before and after
        // its counts check, which the loop repeats.
        if let Some(first) = record.samples.first() {
            if memory_factor <= 0.0 || !memory_factor.is_finite() {
                return Err(Error::InvalidInput("memory factor must be positive".into()));
            }
            check_counts(first)?;
            if !coeffs.frequencies_positive() {
                return Err(Error::InvalidInput("frequencies must be positive".into()));
            }
        }

        // CU by CU: each CU's cores share its source state.
        let sources = record.cu_vf.iter().zip(record.samples.chunks(cores_per_cu));
        let grid = cores
            .chunks_mut(cores_per_cu)
            .zip(cells.chunks_mut(cores_per_cu * n_vf));
        let mut core_id = 0;
        for (cu, ((from, samples), (cu_cores, cu_cells))) in sources.zip(grid).enumerate() {
            let (Some(&from_ghz), Some(&from_hz)) = (
                coeffs.to_ghz().get(from.index()),
                coeffs.to_hz().get(from.index()),
            ) else {
                return Err(out_of_ladder(cu, *from, n_vf));
            };
            let rows = cu_cores.iter_mut().zip(cu_cells.chunks_exact_mut(n_vf));
            for (sample, (core, per_vf)) in samples.iter().zip(rows) {
                core.core = CoreId(core_id);
                core_id += 1;
                core.busy = sample.counts.get(EventId::RetiredInstructions) > 0.0;

                // Stage 1 (Eq. 1): validate the counts, then fill the
                // row's CPI/IPS lanes in one branch-free pass.
                let row = clock.time(Stage::CpiPredict, || -> Result<Option<CpiRow>> {
                    check_counts(sample)?;
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
                        .zip(table.states())
                        .zip(coeffs.to_ghz().iter().zip(coeffs.to_hz()));
                    for ((cell, vf), (to_ghz, to_hz)) in lanes {
                        // Eq. 1: CPI(f') = CCPI + (MCPI · f'/f) · mf, then
                        // IPS = util · f'(Hz) / CPI(f') — op-for-op the
                        // `HwEventPredictor::project_cpi` sequence.
                        cell.vf = vf;
                        let pm_mf = mcpi * (to_ghz / from_ghz) * memory_factor;
                        cell.cpi = ccpi + pm_mf;
                        cell.ips = utilization * to_hz / cell.cpi;
                    }
                    Ok(Some(CpiRow {
                        source_cpi: obs.cpi(),
                    }))
                })?;

                // An idle core prices a zero rate vector at every
                // state: a copy of the row priced at construction, and
                // the same column-sum adds as any other row.
                let Some(row) = row else {
                    clock.time(Stage::Pdyn, || -> Result<()> {
                        let idle = idle_row.as_ref().map_err(Clone::clone)?;
                        let lanes = per_vf
                            .iter_mut()
                            .zip(&idle.cells)
                            .zip(&idle.nb_dynamic)
                            .zip(chip.iter_mut());
                        for (((cell, idle_cell), nb_dyn), chip_row) in lanes {
                            *cell = *idle_cell;
                            chip_row.nb_power += *nb_dyn;
                            chip_row.power += cell.dynamic_power;
                            chip_row.ips += cell.ips;
                        }
                        Ok(())
                    })?;
                    continue;
                };

                // Stage 2 (Observations 1–2): the whole row shares one
                // per-instruction fingerprint and one CPI − DSPI gap.
                let fp = clock.time(Stage::EventPredict, || {
                    let inst = sample.counts.get(EventId::RetiredInstructions);
                    let mut per_inst = [0.0_f64; 8];
                    for (p, c) in per_inst.iter_mut().zip(sample.counts.as_array()) {
                        *p = c / inst;
                    }
                    let dspi_source = sample.counts.get(EventId::DispatchStalls) / inst;
                    Fingerprint {
                        per_inst,
                        gap: row.source_cpi - dspi_source,
                    }
                });

                // Stage 3 (Eq. 3): reconstruct each cell's E1–E9 rates and
                // price them against the pre-scaled weight rows.
                clock.time(Stage::Pdyn, || -> Result<()> {
                    let lanes = per_vf
                        .iter_mut()
                        .zip(coeffs.scaled_weight_rows())
                        .zip(coeffs.idle_splits())
                        .zip(chip.iter_mut());
                    for (((cell, scaled_row), idle_split), chip_row) in lanes {
                        let ips = cell.ips;
                        // The per-cell idle test is `ips <= 0.0`; NaN is
                        // *not* idle and must flow into the finite guard,
                        // hence the explicit `is_nan` disjunct.
                        let (core_dyn, nb_dyn) = if ips.is_nan() || ips > 0.0 {
                            let dspi_t = (cell.cpi - fp.gap).max(0.0);
                            let pi = &fp.per_inst;
                            let rates = [
                                pi[0] * ips,
                                pi[1] * ips,
                                pi[2] * ips,
                                pi[3] * ips,
                                pi[4] * ips,
                                pi[5] * ips,
                                pi[6] * ips,
                                pi[7] * ips,
                                dspi_t * ips,
                            ];
                            dynamic.estimate_core_split_prescaled(&rates, scaled_row, nb_weights)?
                        } else {
                            // An idle cell of a busy core reports zero
                            // CPI/IPS and the table's zero-rate price.
                            cell.cpi = 0.0;
                            cell.ips = 0.0;
                            copied(idle_split)?
                        };
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
        }
        Ok(())
    }
}

/// The per-cell counts check.
#[inline]
fn check_counts(sample: &ppep_pmc::sampler::IntervalSample) -> Result<()> {
    if sample.counts.is_finite() {
        Ok(())
    } else {
        Err(Error::InvalidInput("sample counts must be finite".into()))
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
            .grid(m, &record(), NbVfState::High, &mut clock, &mut out)
            .expect("grid projects");
        assert_eq!(out.cores.len(), 8);
        assert_eq!(out.chip.len(), 5);
        assert_eq!(out.cells.len(), 8 * 5);
        for (row, core) in out.rows().zip(&out.cores) {
            let states: Vec<usize> = row.iter().map(|c| c.vf.index()).collect();
            assert_eq!(states, [0, 1, 2, 3, 4], "core {:?}", core.core);
        }
    }
}
