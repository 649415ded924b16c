//! Bit-exactness pin for the chip simulator's interval step.
//!
//! Each case drives one preset through 300 `step_interval_checked`
//! calls with per-CU VF changes, an all-CU change and an NB switch to
//! `Low` partway through, and folds every f64 of every record
//! (samples, true counts, measured power, the true-power breakdown,
//! temperature), the busy flags, and every error into one FNV-1a 64
//! digest. The first four digests were recorded before the simulator's
//! power terms were factored into per-VF-state tables, and the last two
//! (an ideal PMU without count jitter, and a storm that faults every
//! other interval) before the PMU tick was rewritten, so any change to
//! an operand or to the evaluation order of the physics, or to how the
//! PMU rounds, wraps or fails, shows up here. The seventh (six idle
//! cores under a dense storm, then a full load) was recorded before
//! idle cores skipped their silent sub-ticks: a failed read abandons
//! intervals the idle cores' samplers had not ticked through, and they
//! must leave with the multiplexing group ticking would have left.
//!
//! Every script also runs through `Platform::sample_into`, refilling
//! one record for all 300 intervals, and must fold to the same digest:
//! a reused buffer, including the one a failed interval left behind,
//! never changes a measurement.

use ppep_sim::chip::{IntervalRecord, SimConfig};
use ppep_sim::fault::{FaultKind, FaultPlan};
use ppep_sim::SimPlatform;
use ppep_telemetry::Platform;
use ppep_types::vf::NbVfState;
use ppep_types::{CuId, Error};
use ppep_workloads::combos::{fig7_workload, instances};
use ppep_workloads::WorkloadSpec;

const INTERVALS: u64 = 300;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    fn usize(&mut self, x: usize) {
        self.bytes(&(x as u64).to_le_bytes());
    }
}

fn fold(h: &mut Fnv, step: Result<&IntervalRecord, &Error>) {
    let r = match step {
        Ok(r) => r,
        Err(e) => {
            h.bytes(b"E");
            h.bytes(e.to_string().as_bytes());
            return;
        }
    };
    h.bytes(b"R");
    h.bytes(&r.index.0.to_le_bytes());
    for s in &r.samples {
        s.counts.as_array().iter().for_each(|&x| h.f64(x));
        h.f64(s.duration.as_secs());
    }
    for c in &r.true_counts {
        c.as_array().iter().for_each(|&x| h.f64(x));
    }
    h.f64(r.measured_power.as_watts());
    let p = &r.true_power;
    p.core_dynamic.iter().for_each(|w| h.f64(w.as_watts()));
    h.f64(p.nb_dynamic.as_watts());
    p.cu_idle.iter().for_each(|w| h.f64(w.as_watts()));
    h.f64(p.nb_idle.as_watts());
    h.f64(p.base.as_watts());
    h.f64(r.temperature.as_kelvin());
    r.cu_vf.iter().for_each(|v| h.usize(v.index()));
    h.bytes(&[u8::from(r.nb_state == NbVfState::Low)]);
    h.bytes(&r.core_busy.iter().map(|&b| u8::from(b)).collect::<Vec<_>>());
}

/// What a script does to the chip before stepping interval `i`.
type Script = fn(&mut SimPlatform, u64);

/// The shared script: per-CU VF changes, an all-CU change and an NB
/// switch to `Low`.
fn vf_script(sim: &mut SimPlatform, i: u64) {
    let table = sim.topology().vf_table().clone();
    let states = table.len();
    let vf = |i: usize| table.state(i).unwrap();
    let cus = sim.topology().cu_count();
    match i {
        60 => sim.set_cu_vf(CuId(0), vf(0)).unwrap(),
        100 => sim.set_cu_vf(CuId(cus - 1), vf(states / 2)).unwrap(),
        150 => sim.set_nb_state(NbVfState::Low),
        200 => sim.set_all_vf(vf(1)),
        240 => {
            for cu in 0..cus {
                sim.set_cu_vf(CuId(cu), vf((cu + 2) % states)).unwrap();
            }
        }
        _ => {}
    }
}

/// Runs `script` over one preset, stepping either through
/// `step_interval_checked` or through `sample_into` on one reused
/// record, and returns its digest.
fn digest_via(
    config: SimConfig,
    workload: &WorkloadSpec,
    faults: FaultPlan,
    script: Script,
    reuse: bool,
) -> u64 {
    let mut sim = SimPlatform::from_config(config);
    let mut record = IntervalRecord::default();
    sim.load_workload(workload);
    sim.set_fault_plan(faults);
    let mut h = Fnv::new();
    for i in 0..INTERVALS {
        script(&mut sim, i);
        if reuse {
            let step = sim.sample_into(&mut record);
            fold(&mut h, step.as_ref().map(|()| &record));
        } else {
            fold(&mut h, sim.step_interval_checked().as_ref());
        }
    }
    h.0
}

/// The shared script's digest, checked to be the same through both
/// paths.
fn digest(config: SimConfig, workload: &WorkloadSpec, faults: FaultPlan) -> u64 {
    scripted_digest(config, workload, faults, vf_script)
}

/// `script`'s digest, checked to be the same through both paths.
fn scripted_digest(
    config: SimConfig,
    workload: &WorkloadSpec,
    faults: FaultPlan,
    script: Script,
) -> u64 {
    let fresh = digest_via(config.clone(), workload, faults.clone(), script, false);
    let reused = digest_via(config, workload, faults, script, true);
    assert_eq!(
        fresh, reused,
        "sample_into into a reused record diverged from step_interval_checked"
    );
    fresh
}

fn check(name: &str, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{name}: simulator digest {actual:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn fx8320_steps_are_pinned() {
    let d = digest(SimConfig::fx8320(3), &fig7_workload(3), FaultPlan::none());
    check("fx8320", d, 0xa28e_633b_d698_33d4);
}

#[test]
fn fx8320_pg_under_a_fault_storm_is_pinned() {
    let storm = FaultPlan::storm(5, INTERVALS, 0.1, 8);
    let d = digest(SimConfig::fx8320_pg(5), &instances("canneal", 3, 5), storm);
    check("fx8320_pg storm", d, 0x30f6_e5b0_45a2_3f94);
}

#[test]
fn fx8320_boost_steps_are_pinned() {
    let d = digest(
        SimConfig::fx8320_boost(9),
        &instances("458.sjeng", 8, 9),
        FaultPlan::none(),
    );
    check("fx8320_boost", d, 0xfeba_bc83_f220_adba);
}

#[test]
fn phenom_ii_x6_steps_are_pinned() {
    let d = digest(
        SimConfig::phenom_ii_x6(13),
        &instances("CG", 5, 13),
        FaultPlan::none(),
    );
    check("phenom_ii_x6", d, 0x7a49_048a_fe98_b599);
}

#[test]
fn fx8320_ideal_pmu_without_jitter_is_pinned() {
    let config = SimConfig {
        ideal_pmu: true,
        jitter_sigma: 0.0,
        ..SimConfig::fx8320(21)
    };
    let d = digest(config, &instances("429.mcf", 6, 21), FaultPlan::none());
    check("fx8320 ideal pmu, no jitter", d, 0xf02a_41cf_0937_8df6);
}

#[test]
fn fx8320_under_a_dense_fault_storm_is_pinned() {
    // Half the intervals fault, so counter wraps and failed MSR reads
    // land on busy, partially accumulated intervals many times over.
    let storm = FaultPlan::storm(17, INTERVALS, 0.5, 8);
    let (mut wraps, mut failed_reads) = (0, 0);
    for i in 0..INTERVALS {
        for k in storm.kinds_at(i) {
            match k {
                FaultKind::CounterWrap => wraps += 1,
                FaultKind::MsrReadFailure { .. } => failed_reads += 1,
                _ => {}
            }
        }
    }
    assert!(
        wraps >= 10 && failed_reads >= 10,
        "{wraps} wraps, {failed_reads} failed reads"
    );
    let d = digest(SimConfig::fx8320(17), &fig7_workload(17), storm);
    check("fx8320 dense storm", d, 0x25da_967d_cfe4_794a);
}

#[test]
fn fx8320_pg_idle_cores_under_a_dense_storm_are_pinned() {
    // Six of the eight cores stay idle for the first 150 intervals, so
    // failed MSR reads abandon intervals that idle cores skipped the
    // ticks of; then all eight run.
    let storm = FaultPlan::storm(23, INTERVALS, 0.5, 8);
    let d = scripted_digest(
        SimConfig::fx8320_pg(23),
        &instances("429.mcf", 2, 23),
        storm,
        |sim, i| {
            if i == 150 {
                sim.load_workload(&instances("458.sjeng", 8, 23));
            }
        },
    );
    check(
        "fx8320_pg idle cores, dense storm",
        d,
        0xf7b0_a308_22e4_8736,
    );
}
