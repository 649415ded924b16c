//! One-step power capping (the Fig. 7 scenario).
//!
//! A mixed four-workload combination runs on four compute units while
//! the power budget swings between 95 W and 40 W — like a laptop being
//! unplugged from wall power. PPEP's all-VF power predictions let the
//! controller pick the fastest per-CU assignment under the cap in a
//! single 200 ms interval; the reactive baseline walks the ladder one
//! rung at a time.
//!
//! ```text
//! cargo run --release --example power_capping
//! ```

use ppep_core::prelude::*;
use ppep_dvfs::capping::{IterativeCapping, OneStepCapping};
use ppep_rig::TrainingRig;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_types::CuId;
use ppep_workloads::combos::fig7_workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training PPEP…");
    let mut rig = TrainingRig::fx8320(42);
    let ppep = Ppep::new(rig.train_quick()?);
    let table = ppep.models().vf_table().clone();

    let cap_at = |step: usize| {
        if (step / 15).is_multiple_of(2) {
            Watts::new(95.0)
        } else {
            Watts::new(40.0)
        }
    };

    // Run the same square-wave cap under both policies.
    for one_step in [true, false] {
        let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(42));
        sim.load_workload(&fig7_workload(42));
        let mut predictive = OneStepCapping::new(ppep.clone(), cap_at(0));
        let mut reactive = IterativeCapping::new(cap_at(0), &table);
        reactive.hold_intervals = 4;

        println!(
            "\n--- {} policy ---",
            if one_step {
                "PPEP one-step"
            } else {
                "simple iterative"
            }
        );
        println!("step  cap     measured  decision");
        let mut violations = 0;
        for step in 0..60 {
            let cap = cap_at(step);
            let record = sim.step_interval();
            if record.measured_power > cap * 1.03 {
                violations += 1;
            }
            let decision = if one_step {
                predictive.set_cap(cap);
                let projection = ppep.project(&record)?;
                predictive.decide(&projection)?
            } else {
                reactive.set_cap(cap);
                reactive.observe_power(record.measured_power);
                reactive.choose(4)
            };
            for (cu, vf) in decision.iter().enumerate() {
                sim.set_cu_vf(CuId(cu), *vf)?;
            }
            if step % 5 == 0 {
                println!(
                    "{:>4}  {:>5.0}W  {:>7.1}W  {:?}",
                    step,
                    cap.as_watts(),
                    record.measured_power.as_watts(),
                    decision.iter().map(|v| v.to_string()).collect::<Vec<_>>()
                );
            }
        }
        println!("cap violations: {violations}/60 intervals");
    }
    Ok(())
}
