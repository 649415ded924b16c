//! The scalar projection oracle: the Fig. 5 pipeline walked cell by
//! cell through the public model APIs.
//!
//! `Ppep::project_nb` runs one batched struct-of-arrays kernel. This
//! module is the reference it must match bit for bit: for each core
//! and each VF state, `HwEventPredictor::project_cpi`, then
//! `reconstruct_events`, then `DynamicPowerModel::estimate_core_split`,
//! followed by the engine's chip-level composition. Every float
//! operation, and the order of every error, is the production
//! sequence's; a change to either side that moves a bit fails
//! `tests/kernel_equivalence.rs`, and `tests/kernel_speedup.rs` times
//! production against this walk.

use ppep_core::ppe::{ChipPpe, CoreAtVf, CoreProjection};
use ppep_core::{PpeProjection, Ppep};
use ppep_models::event_pred::HwEventPredictor;
use ppep_pmc::EventId;
use ppep_telemetry::IntervalRecord;
use ppep_types::vf::NbVfState;
use ppep_types::{CoreId, Error, Joules, Result, Seconds, Watts};

/// Projects `record` at NB point `nb` the slow way: the oracle for
/// [`Ppep::project_nb`], bit for bit, errors included.
///
/// # Errors
///
/// Those of [`Ppep::project_nb`], with the same messages.
pub fn project_nb_scalar(
    engine: &Ppep,
    record: &IntervalRecord,
    nb: NbVfState,
) -> Result<PpeProjection> {
    let models = engine.models();
    let table = models.vf_table();
    let topo = models.topology();
    let cores_per_cu = topo.cores_per_cu();
    let dynamic = models.dynamic_model();
    let predictor = HwEventPredictor::new();
    validate_record(engine, record)?;
    // The §V-C2 assumptions: memory cycles +50%, NB idle −40%, NB
    // dynamic −36% at the low NB point.
    let (memory_factor, nb_idle_scale, nb_dyn_scale) = match nb {
        NbVfState::High => (1.0, 1.0, 1.0),
        NbVfState::Low => (1.5, 0.60, 0.64),
    };

    // The per-cell walk. NB dynamic power accumulates core-major, one
    // sum per state, starting from zero.
    let mut nb_dynamic = vec![Watts::ZERO; table.len()];
    let mut cores = Vec::with_capacity(record.samples.len());
    for (i, sample) in record.samples.iter().enumerate() {
        let from = table.point(record.cu_vf[i / cores_per_cu]);
        let mut per_vf = Vec::with_capacity(table.len());
        for (vf, nb_sum) in table.states().zip(nb_dynamic.iter_mut()) {
            let to = table.point(vf);
            let projected = predictor.project_cpi(sample, from, to, memory_factor)?;
            let predicted = predictor.reconstruct_events(sample, &projected)?;
            let (core_dyn, nb_dyn) =
                dynamic.estimate_core_split(&predicted.power_rates(), to.voltage)?;
            let nb_dyn = nb_dyn * nb_dyn_scale;
            *nb_sum += nb_dyn;
            per_vf.push(CoreAtVf {
                vf,
                dynamic_power: core_dyn + nb_dyn,
                ips: predicted.ips,
                cpi: predicted.cpi,
            });
        }
        cores.push(CoreProjection {
            core: CoreId(i),
            busy: sample.counts.get(EventId::RetiredInstructions) > 0.0,
            per_vf,
        });
    }

    // Composition: chip power, NB share, throughput and the energy of
    // the interval's work at every uniform state.
    let work_instructions: f64 = record
        .samples
        .iter()
        .map(|s| s.counts.get(EventId::RetiredInstructions))
        .sum();
    let cu_active = || {
        cores
            .chunks(cores_per_cu)
            .map(|cu| cu.iter().any(|c| c.busy))
    };
    let any_active = cores.iter().any(|c| c.busy);
    let pg_model = models.chip_power().pg_model();
    let mut chip = Vec::with_capacity(table.len());
    for (vf, nb_dyn_sum) in table.states().zip(nb_dynamic) {
        let dynamic_total: Watts = cores.iter().map(|c| c.at(vf).dynamic_power).sum();
        let nb_idle = match pg_model {
            Some(pg) if any_active => pg.pidle_nb(vf)? * nb_idle_scale,
            _ => Watts::ZERO,
        };
        let idle_total = match pg_model {
            Some(pg) => {
                let uniform_vf = std::iter::repeat_n(vf, topo.cu_count());
                let stock = pg.chip_idle_pg_enabled_with(cu_active(), uniform_vf)?;
                if any_active {
                    stock - pg.pidle_nb(vf)? + nb_idle
                } else {
                    stock
                }
            }
            None => models
                .idle_model()
                .estimate(table.point(vf).voltage, record.temperature)?,
        };
        let power = idle_total + dynamic_total;
        let ips: f64 = cores.iter().map(|c| c.at(vf).ips).sum();
        let t = if ips > 0.0 && work_instructions > 0.0 {
            work_instructions / ips
        } else {
            // Idle chip: the decision interval is the work unit.
            record.duration.as_secs()
        };
        let e = power.as_watts() * t;
        chip.push(ChipPpe {
            vf,
            power,
            nb_power: nb_idle + nb_dyn_sum,
            ips,
            time_for_work: Seconds::new(t),
            energy: Joules::new(e),
            edp: e * t,
        });
    }

    Ok(PpeProjection {
        interval: record.index,
        temperature: record.temperature,
        source_vf: record.cu_vf.clone(),
        cores,
        chip,
        work_instructions,
    })
}

/// The engine's record check: enough per-CU assignments for the
/// sampled cores, each inside the model bundle's ladder.
fn validate_record(engine: &Ppep, record: &IntervalRecord) -> Result<()> {
    let cores_per_cu = engine.models().topology().cores_per_cu();
    let table_len = engine.models().vf_table().len();
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

/// `to_bits()` equality over every float either projection carries,
/// plus the source interval and assignment and the core rows' shape
/// and busy flags.
///
/// # Errors
///
/// Names the first field that differs.
pub fn bits_eq(got: &PpeProjection, want: &PpeProjection) -> std::result::Result<(), String> {
    macro_rules! check {
        ($a:expr, $b:expr, $what:expr) => {
            if $a.to_bits() != $b.to_bits() {
                return Err(format!("{} differ: {:?} vs {:?}", $what, $a, $b));
            }
        };
    }
    if got.interval != want.interval || got.source_vf != want.source_vf {
        return Err("source interval or assignment differ".into());
    }
    check!(
        got.temperature.as_kelvin(),
        want.temperature.as_kelvin(),
        "temperature"
    );
    check!(
        got.work_instructions,
        want.work_instructions,
        "work_instructions"
    );
    if got.cores.len() != want.cores.len() {
        return Err("core counts differ".into());
    }
    for (g, w) in got.cores.iter().zip(&want.cores) {
        if g.busy != w.busy || g.per_vf.len() != w.per_vf.len() {
            return Err(format!("core {:?} shape/busy differ", g.core));
        }
        for (gc, wc) in g.per_vf.iter().zip(&w.per_vf) {
            check!(gc.ips, wc.ips, format!("core {:?} {} ips", g.core, gc.vf));
            check!(gc.cpi, wc.cpi, format!("core {:?} {} cpi", g.core, gc.vf));
            check!(
                gc.dynamic_power.as_watts(),
                wc.dynamic_power.as_watts(),
                format!("core {:?} {} pdyn", g.core, gc.vf)
            );
        }
    }
    if got.chip.len() != want.chip.len() {
        return Err("chip lengths differ".into());
    }
    for (g, w) in got.chip.iter().zip(&want.chip) {
        check!(
            g.power.as_watts(),
            w.power.as_watts(),
            format!("{} power", g.vf)
        );
        check!(
            g.nb_power.as_watts(),
            w.nb_power.as_watts(),
            format!("{} nb_power", g.vf)
        );
        check!(g.ips, w.ips, format!("{} ips", g.vf));
        check!(
            g.time_for_work.as_secs(),
            w.time_for_work.as_secs(),
            format!("{} time", g.vf)
        );
        check!(
            g.energy.as_joules(),
            w.energy.as_joules(),
            format!("{} energy", g.vf)
        );
        check!(g.edp, w.edp, format!("{} edp", g.vf));
    }
    Ok(())
}
