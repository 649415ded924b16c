//! Bit-exactness pin for the quick-trained model bundles.
//!
//! `TrainingRig::train_quick` runs the whole offline flow: the heat/cool
//! idle traces, the α calibration, the counter-sampled Eq. 3 runs, the
//! Green Governors fit and, on a gating platform, the PG sweep. Each
//! case folds the bundle's persisted text into one FNV-1a 64 digest.
//! The digests were recorded while every training run still sampled
//! the PMU and kept full interval records, so the power-only runs must
//! read the same sensor and diode values bit for bit, and the training
//! roster must build the same combinations.

use ppep_models::persist;
use ppep_rig::TrainingRig;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn bundle_digest(mut rig: TrainingRig) -> u64 {
    let models = rig.train_quick().expect("quick training succeeds");
    fnv1a(&persist::to_string(&models))
}

#[test]
fn fx8320_quick_bundle_is_pinned() {
    let digest = bundle_digest(TrainingRig::fx8320(42));
    assert_eq!(digest, 0x6c58_6e42_7be6_00b4, "digest {digest:#018x}");
}

#[test]
fn phenom_ii_x6_quick_bundle_is_pinned() {
    let digest = bundle_digest(TrainingRig::phenom_ii_x6(42));
    assert_eq!(digest, 0x76cb_9d1c_7f98_9183, "digest {digest:#018x}");
}
