//! Differential harness pinning the production projection to the
//! scalar oracle, bit for bit.
//!
//! `Ppep::project_nb` runs the batched struct-of-arrays kernel
//! (`ppep_core`'s `batch` module) over the Fig. 5 core × VF grid. Its
//! contract is not "close": every `f64` it emits must have the *same
//! bits* as the cell-by-cell walk in `support::scalar`, and every input
//! the walk rejects must be rejected with the same typed error. This
//! harness drives both over adversarial inputs — NaN/±inf/subnormal
//! counter salting, zero-instruction (idle) intervals, counter values
//! adjacent to the 48-bit PMC wrap boundary, arbitrary VF ladders and
//! topologies, and both NB operating points — and over real ones:
//! simulated runs, the golden capping fixtures, and collected sweep
//! records. It compares with `to_bits()` equality per cell.
//!
//! The synthetic bundles also carry PG idle decompositions — fully
//! swept, with a state never swept, and with non-finite entries — and
//! weights salted with NaN/±inf, so the idle tables the engine prices
//! once are pinned on their value and their error paths. Every
//! projection both sides accept is also priced under a set of per-CU
//! assignments, against `support::scalar::chip_power_scalar`.

mod support;

use ppep_core::Ppep;
use ppep_experiments::common::{Context, Scale, TraceStore};
use ppep_models::green_governors::GreenGovernors;
use ppep_models::idle::{IdlePowerModel, IdleSample};
use ppep_models::pg::{PgIdleEntry, PgIdleModel};
use ppep_models::trainer::{TrainedModels, TrainingBudget};
use ppep_models::{ChipPowerModel, DynamicPowerModel};
use ppep_pmc::sampler::IntervalSample;
use ppep_pmc::{EventCounts, EventId};
use ppep_telemetry::record::{IntervalRecord, PowerBreakdown};
use ppep_telemetry::{TraceEvent, TraceReader};
use ppep_types::time::IntervalIndex;
use ppep_types::vf::NbVfState;
use ppep_types::{Gigahertz, Kelvin, Seconds, Topology, VfPoint, VfStateId, VfTable, Volts, Watts};
use ppep_workloads::combos::instances;
use proptest::prelude::*;
use std::sync::OnceLock;
use support::scalar::{bits_eq, chip_power_scalar, project_nb_scalar};

/// One counter value adjacent to the 48-bit PMC wrap boundary.
const PMC_WRAP: f64 = (1u64 << 48) as f64;

fn finite(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |v| {
        let unit = (v.abs().fract()).clamp(0.0, 0.999_999);
        lo + unit * (hi - lo)
    })
}

/// A strictly increasing ladder built from positive increments.
fn build_table(n_states: usize, dv: &[f64], df: &[f64]) -> VfTable {
    let mut points = Vec::with_capacity(n_states);
    let mut v = 0.75;
    let mut f = 1.0;
    for i in 0..n_states {
        v += dv[i];
        f += df[i];
        points.push(VfPoint::new(Volts::new(v), Gigahertz::new(f)));
    }
    VfTable::new(points).expect("increments keep the ladder strictly increasing")
}

/// Which synthetic PG idle decomposition a bundle carries.
#[derive(Debug, Clone, Copy)]
enum PgBundle {
    /// No PG model: the Eq. 2 idle path.
    Off,
    /// Every state swept.
    Swept,
    /// The top state never swept: its lookups are `NotTrained`.
    Unswept,
    /// A NaN `Pidle(NB)` at the lowest state and an infinite
    /// `Pidle(CU)` at the top one.
    NonFinite,
}

const PG_BUNDLES: [PgBundle; 4] = [
    PgBundle::Off,
    PgBundle::Swept,
    PgBundle::Unswept,
    PgBundle::NonFinite,
];

/// The PG decomposition `bundle` names over `table`, for `cus` CUs.
fn build_pg(table: &VfTable, cus: usize, bundle: PgBundle) -> Option<PgIdleModel> {
    let mut entries: Vec<PgIdleEntry> = (0..table.len())
        .map(|i| PgIdleEntry {
            pidle_cu: Watts::new(3.1 + 0.45 * i as f64),
            pidle_nb: Watts::new(6.7 + 0.35 * i as f64),
        })
        .collect();
    match bundle {
        PgBundle::Off => return None,
        PgBundle::Swept => {}
        PgBundle::Unswept => {
            entries.pop();
        }
        PgBundle::NonFinite => {
            if let Some(lowest) = entries.first_mut() {
                lowest.pidle_nb = Watts::new(f64::NAN);
            }
            if let Some(top) = entries.last_mut() {
                top.pidle_cu = Watts::new(f64::INFINITY);
            }
        }
    }
    Some(PgIdleModel::from_parts(entries, Watts::new(4.6), cus))
}

/// A synthetic trained bundle over an arbitrary ladder/topology —
/// no rig, so the proptest can vary every model parameter — with the
/// PG decomposition `pg` names.
fn build_models(
    table: &VfTable,
    cus: usize,
    cores_per_cu: usize,
    weights: &[f64],
    alpha: f64,
    pg: PgBundle,
) -> TrainedModels {
    let mut w = [0.0; 9];
    w.copy_from_slice(&weights[..9]);
    let reference = table.point(table.highest()).voltage;
    let dynamic = DynamicPowerModel::from_parts(w, alpha, reference);
    // P = 0.1·T + 10·V — linear, so any ladder's fit is exact.
    let mut samples = Vec::new();
    for (_, point) in table.iter() {
        for i in 0..4 {
            let t = 305.0 + 7.0 * f64::from(i);
            samples.push(IdleSample {
                voltage: point.voltage,
                temperature: Kelvin::new(t),
                power: Watts::new(0.1 * t + 10.0 * point.voltage.as_volts()),
            });
        }
    }
    let idle = IdlePowerModel::fit(&samples).expect("synthetic idle fit");
    let governors = GreenGovernors::from_parts(vec![Watts::new(10.0); table.len()], 1.0e-9);
    let topology = Topology::new("prop", cus, cores_per_cu, table.clone(), false, 4.0, 20.0)
        .expect("positive counts");
    let mut chip_power = ChipPowerModel::new(idle, dynamic);
    if let Some(pg) = build_pg(table, cus, pg) {
        chip_power = chip_power.with_pg(pg);
    }
    TrainedModels::from_parts(chip_power, governors, alpha, table.clone(), topology)
}

/// Per-core counter block: `kind` selects idle / ordinary /
/// wrap-adjacent / subnormal instruction counts, the ratios shape the
/// per-instruction fingerprint.
fn build_sample(kind: u8, inst_mag: f64, ratios: &[f64], duration: Seconds) -> IntervalSample {
    let inst = match kind % 4 {
        0 => 0.0,
        1 => inst_mag,
        // Counter values just below the 48-bit PMC wrap boundary.
        2 => PMC_WRAP - inst_mag.max(1.0),
        _ => 5.0e-324, // subnormal: busy, but absurdly so
    };
    let ccpi = 0.4 + ratios[0];
    let mcpi = ratios[1];
    let mut c = EventCounts::zero();
    c.set(EventId::RetiredInstructions, inst);
    c.set(EventId::CpuClocksNotHalted, (ccpi + mcpi) * inst);
    c.set(EventId::MabWaitCycles, mcpi * inst);
    c.set(EventId::DispatchStalls, (0.1 + ratios[2]) * inst);
    c.set(EventId::RetiredUops, (1.0 + ratios[3]) * inst);
    c.set(EventId::FpuPipeAssignment, ratios[4] * inst);
    c.set(EventId::InstructionCacheFetches, ratios[5] * inst);
    c.set(EventId::DataCacheAccesses, ratios[6] * inst);
    c.set(EventId::RequestsToL2, ratios[7] * inst);
    c.set(EventId::RetiredBranches, ratios[8] * inst);
    c.set(EventId::RetiredMispredictedBranches, ratios[9] * inst);
    c.set(EventId::L2CacheMisses, ratios[10] * inst);
    IntervalSample {
        counts: c,
        duration,
    }
}

fn build_record(
    models: &TrainedModels,
    kinds: &[u8],
    inst_mags: &[f64],
    ratios: &[f64],
    cu_vf_picks: &[usize],
    salt: Option<(usize, usize, f64)>,
) -> IntervalRecord {
    let n_cores = models.topology().core_count();
    let n_cus = models.topology().cu_count();
    let duration = Seconds::new(0.2);
    let mut samples = Vec::with_capacity(n_cores);
    for core in 0..n_cores {
        let r = &ratios[core * 11..core * 11 + 11];
        samples.push(build_sample(kinds[core], inst_mags[core], r, duration));
    }
    if let Some((core, event, value)) = salt {
        if let (Some(sample), Some(event)) =
            (samples.get_mut(core), EventId::from_index(event % 12))
        {
            sample.counts.set(event, value);
        }
    }
    let table = models.vf_table();
    let cu_vf: Vec<_> = (0..n_cus)
        .map(|cu| {
            let idx = cu_vf_picks[cu] % table.len();
            table.state(idx).expect("index reduced mod len")
        })
        .collect();
    let core_busy: Vec<bool> = samples
        .iter()
        .map(|s| s.counts.get(EventId::RetiredInstructions) > 0.0)
        .collect();
    IntervalRecord {
        index: IntervalIndex(0),
        duration,
        samples,
        true_counts: vec![EventCounts::zero(); n_cores],
        measured_power: Watts::new(25.0),
        true_power: PowerBreakdown {
            core_dynamic: vec![Watts::ZERO; n_cores],
            nb_dynamic: Watts::ZERO,
            cu_idle: vec![Watts::ZERO; n_cus],
            nb_idle: Watts::ZERO,
            base: Watts::ZERO,
        },
        temperature: Kelvin::new(318.0),
        cu_vf,
        nb_state: NbVfState::High,
        core_busy,
    }
}

/// Production and oracle on both NB points: identical projections or
/// identical typed errors — never a disagreement.
fn assert_matches_oracle(engine: &Ppep, record: &IntervalRecord) -> Result<(), String> {
    for nb in [NbVfState::High, NbVfState::Low] {
        let batch = engine.project_nb(record, nb);
        let scalar = project_nb_scalar(engine, record, nb);
        match (batch, scalar) {
            (Ok(b), Ok(s)) => {
                bits_eq(&b, &s).map_err(|e| format!("{nb:?}: {e}"))?;
                let mut assignments = probe_assignments(engine.models().vf_table(), record);
                assignments.push(record.cu_vf.clone());
                assert_prices_match(engine, &b, &assignments)
                    .map_err(|e| format!("{nb:?}: {e}"))?;
                // The same cells with every core busy: each CU's
                // `Pidle(CU)` and the NB's idle power are then priced,
                // whichever states their entries poison.
                let mut all_busy = b;
                for core in &mut all_busy.cores {
                    core.busy = true;
                }
                assert_prices_match(engine, &all_busy, &assignments)
                    .map_err(|e| format!("{nb:?}, every core busy: {e}"))?;
            }
            (Err(b), Err(s)) => {
                if b.to_string() != s.to_string() {
                    return Err(format!("{nb:?}: error mismatch: {b} vs {s}"));
                }
            }
            (b, s) => {
                return Err(format!(
                    "{nb:?}: disagreement: production ok={} oracle ok={}",
                    b.is_ok(),
                    s.is_ok()
                ))
            }
        }
    }
    Ok(())
}

/// The assignments every accepted projection is priced under: each
/// uniform state, a staircase, and a state past the ladder at the last
/// CU — each as long as the record's assignment.
fn probe_assignments(table: &VfTable, record: &IntervalRecord) -> Vec<Vec<VfStateId>> {
    let cus = record.cu_vf.len();
    let mut out: Vec<Vec<VfStateId>> = table.states().map(|vf| vec![vf; cus]).collect();
    out.push(
        (0..cus)
            .map(|cu| {
                table
                    .state(cu % table.len())
                    .expect("index reduced mod len")
            })
            .collect(),
    );
    let mut past = vec![table.lowest(); cus];
    if let Some(last) = past.last_mut() {
        *last = VfTable::fx8320_with_boost().highest();
    }
    out.push(past);
    out
}

/// `chip_power_with_assignment` against the oracle for each of
/// `assignments`: bit-equal watts, or string-equal errors.
fn assert_prices_match(
    engine: &Ppep,
    projection: &ppep_core::PpeProjection,
    assignments: &[Vec<VfStateId>],
) -> Result<(), String> {
    for cu_vf in assignments {
        let want = chip_power_scalar(engine, projection, cu_vf);
        let got = engine.chip_power_with_assignment(projection, cu_vf);
        match (&got, &want) {
            (Ok(g), Ok(w)) if g.as_watts().to_bits() == w.as_watts().to_bits() => {}
            (Err(g), Err(w)) if g.to_string() == w.to_string() => {}
            _ => {
                let states: Vec<usize> = cu_vf.iter().map(|vf| vf.index()).collect();
                return Err(format!("price at {states:?}: {got:?} vs oracle {want:?}"));
            }
        }
    }
    Ok(())
}

/// The quick-trained FX-8320 engine the golden fixtures were recorded
/// under.
fn trained() -> &'static Ppep {
    static PPEP: OnceLock<Ppep> = OnceLock::new();
    PPEP.get_or_init(|| {
        Ppep::new(
            ppep_rig::TrainingRig::fx8320(42)
                .train_quick()
                .expect("training succeeds"),
        )
    })
}

/// A tiny sweep (2 combos x 2 states, short budget) so the property
/// can afford many cases.
fn tiny_sweep(seed: u64, jobs: usize) -> TraceStore {
    let ctx = Context::fx8320(Scale::Quick, seed);
    let table = ctx.rig.config().topology.vf_table().clone();
    let roster = vec![
        instances("403.gcc", 1, seed),
        instances("458.sjeng", 2, seed),
    ];
    let vfs = [table.lowest(), table.highest()];
    let mut budget = TrainingBudget::quick();
    budget.warmup_intervals = 1;
    budget.record_intervals = 2;
    TraceStore::collect_sharded(&ctx.rig, &roster, &vfs, &budget, jobs)
}

const SALT_VALUES: [f64; 6] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5.0e-324, // smallest positive subnormal
    1.0e-310, // mid-range subnormal
    -1.0,     // negative count (wrap mis-correction)
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary ladders, topologies, finite model weights, no PG model
    /// or a fully swept one, counter blocks (idle / ordinary /
    /// wrap-adjacent / subnormal), degenerate-value salting of counters,
    /// and both NB states: production output is bit-identical to the
    /// oracle's, errors are string-identical, and so are the prices of
    /// the probe assignments.
    #[test]
    fn batch_kernel_is_bit_identical_to_scalar(
        n_states in 2usize..=7,
        cus in 1usize..=4,
        cores_per_cu in 1usize..=2,
        dv in prop::collection::vec(finite(0.02, 0.12), 7),
        df in prop::collection::vec(finite(0.15, 0.6), 7),
        weights in prop::collection::vec(finite(1.0e-11, 1.0e-9), 9),
        alpha in finite(1.0, 2.2),
        kinds in prop::collection::vec(0u8..4, 8),
        inst_mags in prop::collection::vec(finite(1.0e6, 1.0e9), 8),
        ratios in prop::collection::vec(finite(0.0, 2.0), 88),
        cu_vf_picks in prop::collection::vec(0usize..64, 4),
        salt_core in 0usize..16,
        salt_event in 0usize..12,
        salt_pick in 0usize..6,
        pg_swept in any::<bool>(),
    ) {
        let table = build_table(n_states, &dv, &df);
        let pg = if pg_swept { PgBundle::Swept } else { PgBundle::Off };
        let models = build_models(&table, cus, cores_per_cu, &weights, alpha, pg);
        // Half the time the salt lands on a real core and poisons one
        // counter with a NaN/±inf/subnormal/negative value.
        let salt = (salt_core < 8).then_some((salt_core, salt_event, SALT_VALUES[salt_pick]));
        let record = build_record(&models, &kinds, &inst_mags, &ratios, &cu_vf_picks, salt);
        let engine = Ppep::new(models);
        if let Err(e) = assert_matches_oracle(&engine, &record) {
            prop_assert!(false, "{}", e);
        }
    }

    /// The error paths of the tables `Ppep::new` prices once: a model
    /// weight salted with NaN/±inf, which poisons busy and idle cells
    /// alike, and the PG bundles with a state never swept or with
    /// non-finite entries, over the same arbitrary ladders, topologies
    /// and counter blocks. Errors are string-identical to the oracle's,
    /// and whatever both sides accept is bit-identical.
    #[test]
    fn degenerate_tables_fail_as_the_oracle_does(
        n_states in 2usize..=7,
        cus in 1usize..=4,
        cores_per_cu in 1usize..=2,
        dv in prop::collection::vec(finite(0.02, 0.12), 7),
        df in prop::collection::vec(finite(0.15, 0.6), 7),
        weights in prop::collection::vec(finite(1.0e-11, 1.0e-9), 9),
        alpha in finite(1.0, 2.2),
        kinds in prop::collection::vec(0u8..4, 8),
        inst_mags in prop::collection::vec(finite(1.0e6, 1.0e9), 8),
        ratios in prop::collection::vec(finite(0.0, 2.0), 88),
        cu_vf_picks in prop::collection::vec(0usize..64, 4),
        pg_pick in 0usize..4,
        weight_slot in 0usize..18,
        weight_pick in 0usize..3,
    ) {
        let table = build_table(n_states, &dv, &df);
        // Half the time one Eq. 3 weight is NaN or ±inf.
        let mut weights = weights;
        if let Some(w) = weights.get_mut(weight_slot) {
            *w = SALT_VALUES[weight_pick];
        }
        let models = build_models(&table, cus, cores_per_cu, &weights, alpha, PG_BUNDLES[pg_pick]);
        let record = build_record(&models, &kinds, &inst_mags, &ratios, &cu_vf_picks, None);
        let engine = Ppep::new(models);
        if let Err(e) = assert_matches_oracle(&engine, &record) {
            prop_assert!(false, "{}", e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Projections of collected sweep records match the oracle for any
    /// seed and worker count: the fleet layer introduces no input the
    /// production kernel handles differently.
    #[test]
    fn collected_sweep_records_match_the_oracle(
        seed in 1u64..500,
        jobs in 1usize..5,
    ) {
        let store = tiny_sweep(seed, jobs);
        let mut rig = ppep_rig::TrainingRig::fx8320(seed);
        let engine = Ppep::new(rig.train_quick().expect("training succeeds"));
        for trace in store.traces() {
            for record in &trace.records {
                if let Err(e) = assert_matches_oracle(&engine, record) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }
}

/// The trained FX-8320 bundle over a real simulated run: every
/// interval of a mixed workload matches the oracle bit for bit (the
/// non-synthetic anchor for the property above).
#[test]
fn trained_engine_matches_across_a_simulated_run() {
    let mut sim = ppep_sim::ChipSimulator::new(ppep_sim::chip::SimConfig::fx8320(42));
    sim.load_workload(&instances("433.milc", 3, 42));
    for record in sim.run_intervals(8) {
        assert_matches_oracle(trained(), &record).expect("oracle agrees on simulated records");
    }
}

/// Every interval recorded in the golden capping fixtures — the clean
/// run and the fault storm, quarantined readings included — projects
/// identically through production and the oracle.
#[test]
fn golden_fixture_records_match_the_oracle() {
    for name in ["capping_clean.bin", "capping_storm.bin"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        let src = std::fs::read(path).expect("fixture exists");
        let trace = TraceReader::parse(&src).expect("fixture parses");
        let mut projected = 0;
        for event in &trace.events {
            if let TraceEvent::Interval(record) = event {
                assert_matches_oracle(trained(), record)
                    .unwrap_or_else(|e| panic!("{name} interval {:?}: {e}", record.index));
                projected += 1;
            }
        }
        assert_eq!(projected, trace.interval_count(), "{name}");
        assert!(projected > 0, "{name}: no interval records");
    }
}

/// Explicit pins for the corners the proptest samples: an all-idle
/// record, a record without cores, a partly idle record, a
/// wrap-adjacent record, and each salt value in a fixed slot, under
/// every PG bundle and with each degenerate weight — kept as named
/// cases so a regression points at the corner.
#[test]
fn named_corner_cases_agree() {
    let table = VfTable::fx8320();
    let ratios: Vec<f64> = (0..88).map(|i| 0.01 * (i % 20) as f64).collect();
    let picks = [4usize, 0, 2, 1];
    let mut weight_sets = vec![("finite weights", [5.0e-10; 9])];
    for (slot, value) in [(0, f64::NAN), (4, f64::INFINITY), (8, f64::NEG_INFINITY)] {
        let mut weights = [5.0e-10; 9];
        weights[slot] = value;
        weight_sets.push(("a degenerate weight", weights));
    }
    for pg in PG_BUNDLES {
        for (what, weights) in &weight_sets {
            let models = build_models(&table, 4, 2, weights, 1.6, pg);
            let engine = Ppep::new(models.clone());
            let check = |record: &IntervalRecord, name: &str| {
                assert_matches_oracle(&engine, record)
                    .unwrap_or_else(|e| panic!("{pg:?} bundle, {what}, {name}: {e}"));
            };

            // All cores idle.
            let record = build_record(&models, &[0; 8], &[0.0; 8], &ratios, &picks, None);
            check(&record, "idle record");

            // No sampled cores: each state's sums run over an empty
            // column.
            let mut record = build_record(&models, &[0; 8], &[0.0; 8], &ratios, &picks, None);
            record.samples.clear();
            check(&record, "record without samples");

            // Busy and idle cores in every CU pattern: CU 0 fully busy,
            // CU 1 half busy, CUs 2 and 3 idle.
            let kinds = [1, 1, 0, 1, 0, 0, 0, 0];
            let record = build_record(&models, &kinds, &[5.0e8; 8], &ratios, &picks, None);
            check(&record, "partly idle record");

            // All cores wrap-adjacent.
            let record = build_record(&models, &[2; 8], &[1.0e3; 8], &ratios, &picks, None);
            check(&record, "wrap-adjacent record");

            // Every salt value, planted in the busiest slot.
            for (i, value) in SALT_VALUES.iter().enumerate() {
                let salt = Some((0, i, *value));
                let record = build_record(&models, &[1; 8], &[5.0e8; 8], &ratios, &picks, salt);
                check(&record, &format!("salt {value:?}"));
            }
        }
    }
}

/// Every one of the 625 per-CU assignments of the FX-8320 ladder,
/// priced against an all-idle, a partly busy and a fully busy
/// projection of the trained PG-aware engine: bit-equal to the
/// in-order dynamic sum plus `PgIdleModel::chip_idle_pg_enabled_with`.
/// A state past the ladder, at each CU, is the oracle's typed error.
#[test]
fn assignment_prices_match_the_oracle_over_the_fx8320_space() {
    use ppep_sim::chip::{ChipSimulator, SimConfig};
    let engine = trained();
    assert!(engine.models().chip_power().pg_model().is_some());
    let table = engine.models().vf_table().clone();
    let states: Vec<VfStateId> = table.states().collect();
    let mut assignments = Vec::with_capacity(625 + 4);
    for code in 0..states.len().pow(4) {
        let mut rest = code;
        let cu_vf: Vec<VfStateId> = (0..4)
            .map(|_| {
                let vf = states[rest % states.len()];
                rest /= states.len();
                vf
            })
            .collect();
        assignments.push(cu_vf);
    }
    assert_eq!(assignments.len(), 625);
    let boosted = VfTable::fx8320_with_boost().highest();
    for cu in 0..4 {
        let mut cu_vf = vec![table.lowest(); 4];
        cu_vf[cu] = boosted;
        assignments.push(cu_vf);
    }
    for (name, threads) in [("all idle", 0), ("partly busy", 3), ("fully busy", 8)] {
        let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(42));
        if threads > 0 {
            sim.load_workload(&instances("458.sjeng", threads, 42));
        }
        let record = sim.run_intervals(4).pop().expect("simulated interval");
        let projection = engine.project(&record).expect("projects");
        let busy = projection.busy_core_count();
        assert_eq!(busy, threads, "{name}");
        assert_prices_match(engine, &projection, &assignments)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for past in &assignments[625..] {
            let err = engine
                .chip_power_with_assignment(&projection, past)
                .expect_err("a state past the ladder is rejected");
            assert!(matches!(err, ppep_types::Error::InvalidInput(_)), "{err:?}");
        }
    }
}

/// The smallest topology: one CU of one core on the FX-8320 ladder,
/// with the core idle, busy, wrap-adjacent and subnormal in turn.
#[test]
fn one_by_one_topology_agrees() {
    let table = VfTable::fx8320();
    let weights: Vec<f64> = (1..=9).map(|i| f64::from(i) * 1.0e-10).collect();
    let models = build_models(&table, 1, 1, &weights, 1.6, PgBundle::Off);
    let engine = Ppep::new(models.clone());
    // CCPI 1.2, MCPI 0.2, DSPI 0.45, 1.5 uops, 0.3 DC accesses and
    // 0.01 L2 misses per instruction.
    let ratios = [0.8, 0.2, 0.35, 0.5, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.01];
    for kind in 0..4 {
        let record = build_record(&models, &[kind], &[2.0e8], &ratios, &[4], None);
        assert_eq!(record.samples.len(), 1);
        assert_matches_oracle(&engine, &record)
            .unwrap_or_else(|e| panic!("1x1 topology, sample kind {kind}: {e}"));
    }
}
