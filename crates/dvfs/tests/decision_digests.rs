//! Bit-exactness pins for the capping and boost decisions.
//!
//! Each case projects a run of simulated intervals whose per-CU VF
//! states cycle through the ladder, asks a policy to decide under a
//! range of caps, and folds every decision into one FNV-1a 64 digest.
//! The digests were recorded before the policies stopped cloning the
//! assignment per candidate, so a change to which candidates are
//! priced, in what order, or how a tie is broken shows up here.

use ppep_core::daemon::DvfsController;
use ppep_dvfs::{BoostController, OneStepCapping, SteepestDrop};
use ppep_types::vf::VfTable;
use ppep_types::{Kelvin, VfStateId, Watts};
use std::collections::BTreeSet;

mod cases;
use cases::{boost_case, capping_case};

/// An FNV-1a 64 fold of decisions, which also keeps the distinct
/// ones, so a case can show that it exercises more than one outcome.
struct Fnv(u64, BTreeSet<Vec<usize>>);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325, BTreeSet::new())
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn decision(&mut self, decision: &[VfStateId]) {
        self.bytes(&(decision.len() as u64).to_le_bytes());
        for vf in decision {
            self.bytes(&(vf.index() as u64).to_le_bytes());
        }
        self.1
            .insert(decision.iter().map(|vf| vf.index()).collect());
    }
}

const CAPS: [f64; 7] = [1.0, 40.0, 50.0, 60.0, 70.0, 95.0, 500.0];

#[test]
fn capping_decisions_are_pinned() {
    let (ppep, projections) = capping_case();
    let mut steepest = Fnv::new();
    let mut one_step = Fnv::new();
    for cap in CAPS.map(Watts::new) {
        let mut drop = SteepestDrop::new(ppep.clone(), cap);
        let mut greedy = OneStepCapping::new(ppep.clone(), cap);
        for projection in &projections {
            steepest.decision(&drop.decide(projection).expect("decides"));
            one_step.decision(&greedy.decide(projection).expect("decides"));
        }
    }
    // 58 and 19 distinct decisions when recorded.
    assert!(steepest.1.len() >= 40 && one_step.1.len() >= 15);
    assert_eq!(
        (steepest.0, one_step.0),
        (0xec20_79fe_f7f7_2104, 0x91e6_e1c9_a965_4de0),
        "SteepestDrop {:#018x}, OneStepCapping {:#018x}",
        steepest.0,
        one_step.0
    );
}

#[test]
fn boost_decisions_are_pinned() {
    let (ppep, projections) = boost_case();
    let mut digest = Fnv::new();
    for tdp in [10.0, 60.0, 90.0, 125.0, 152.0, 300.0] {
        for limit in [320.0, 335.0, 400.0] {
            let mut controller = BoostController::new(
                ppep.clone(),
                VfTable::FX8320_SOFTWARE_STATES,
                Watts::new(tdp),
                Kelvin::new(limit),
            )
            .expect("valid controller");
            for projection in &projections {
                digest.decision(&controller.decide(projection).expect("decides"));
            }
        }
    }
    // 8 distinct decisions when recorded.
    assert!(digest.1.len() >= 6);
    assert_eq!(
        digest.0, 0xd738_4de3_50af_7d07,
        "BoostController {:#018x}",
        digest.0
    );
}
