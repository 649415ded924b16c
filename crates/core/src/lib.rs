//! The PPEP framework: online performance, power, and energy
//! prediction across all VF states (Fig. 5 of the paper).
//!
//! PPEP runs as a daemon alongside applications. Every 200 ms it
//! reads the per-core performance counters, the current VF state, and
//! the temperature diode, and produces per-core and chip-level
//! **PPE projections** for *every* VF state:
//!
//! 1. the performance predictor estimates CPI at all VF states;
//! 2. the hardware-event predictor materialises the event counts the
//!    cores would generate at each state;
//! 3. the dynamic power model prices those events;
//! 4. the (PG-aware) idle power model adds the rest;
//! 5. a decision algorithm consumes the projections;
//! 6. the chosen VF states are applied.
//!
//! This crate implements steps 1–4 ([`framework::Ppep`], whose grid
//! walk runs on a batched struct-of-arrays kernel), the
//! projection data model ([`ppe`]), next-interval energy prediction
//! ([`energy`], Fig. 6), optional counter [`smoothing`] against
//! rapid-phase noise, and a [`daemon`] loop that closes the circle
//! against any [`Platform`] — a measurement/actuation substrate —
//! with a pluggable decision algorithm (implemented by `ppep-dvfs`).
//!
//! The framework never names a concrete substrate: `ppep-sim`'s
//! `SimPlatform` adapts the simulated chip, and `ppep-telemetry`'s
//! `ReplayPlatform` replays a recorded trace deterministically. The
//! simulator and the training rig are dev-dependencies only.
//!
//! # Example
//!
//! ```no_run
//! use ppep_core::prelude::*;
//! use ppep_rig::TrainingRig;
//!
//! let mut rig = TrainingRig::fx8320(42);
//! let models = rig.train_quick().expect("training succeeds");
//! let ppep = Ppep::new(models);
//!
//! let mut sim = ppep_sim::ChipSimulator::new(ppep_sim::chip::SimConfig::fx8320(42));
//! sim.load_workload(&ppep_workloads::combos::instances("433.milc", 2, 42));
//! let record = sim.step_interval();
//! let projection = ppep.project(&record).expect("projection succeeds");
//! let best = projection.best_energy_vf();
//! println!("energy-optimal state: {best}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod daemon;
pub mod energy;
pub mod framework;
pub mod ppe;
pub mod resilient;
pub mod smoothing;
pub mod stats;

pub use framework::Ppep;
pub use ppe::{ChipPpe, CoreProjection, PpeProjection};
pub use ppep_telemetry::Platform;
pub use resilient::ResilientDaemon;

/// Convenient re-exports for downstream users and examples.
///
/// `TrainingRig` is *not* here: training drives a simulator, so the
/// rig lives in `ppep-rig` and stays out of the framework's
/// dependency graph — import it directly where calibration happens.
pub mod prelude {
    pub use crate::daemon::{DvfsController, PpepDaemon, RunOutcome, StaticController};
    pub use crate::energy::EnergyPredictor;
    pub use crate::framework::Ppep;
    pub use crate::ppe::{ChipPpe, CoreProjection, PpeProjection};
    pub use crate::resilient::{HealthReport, HealthState, ResilientDaemon, SupervisorConfig};
    pub use crate::smoothing::SampleSmoother;
    pub use crate::stats::RunStats;
    pub use ppep_models::trainer::{TrainedModels, TrainingBudget};
    pub use ppep_telemetry::{IntervalRecord, Platform};
    pub use ppep_types::{VfStateId, VfTable, Watts};
}
