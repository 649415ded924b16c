//! A simulated AMD FX-8320-class chip.
//!
//! This crate is the hardware substrate of the reproduction: the
//! paper's models are trained and validated against a real chip, a
//! Hall-effect power sensor, and a socket thermal diode, none of which
//! exist here. The simulator provides the same observables with the
//! same structural relationships (see `DESIGN.md`, substitutions
//! table):
//!
//! * [`physics`] — the generative ("true") power model: leakage
//!   exponential in voltage and temperature, per-event dynamic energy
//!   with per-event voltage exponents, north-bridge power, power
//!   gating. Deliberately richer than the model PPEP fits, so that
//!   validation error arises the same way it does on silicon.
//! * [`thermal`] — a first-order RC thermal model reproducing the
//!   heating/cooling transients of Fig. 1.
//! * [`sensor`] — the 20 ms noisy, quantised power sensor.
//! * [`nb`] — the shared north bridge with a queueing contention model
//!   that inflates memory latency under load.
//! * [`engine`] — per-core execution: turns a thread's phase
//!   fingerprint into event counts and retired instructions at a given
//!   VF state.
//! * [`chip`] — [`chip::ChipSimulator`], which ties everything
//!   together and emits one [`chip::IntervalRecord`] per 200 ms
//!   decision interval.
//!
//! # Example
//!
//! ```
//! use ppep_sim::chip::{ChipSimulator, SimConfig};
//! use ppep_workloads::combos::instances;
//!
//! let mut sim = ChipSimulator::new(SimConfig::fx8320(42));
//! sim.load_workload(&instances("458.sjeng", 2, 42));
//! let record = sim.step_interval();
//! assert!(record.measured_power.as_watts() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chip;
pub mod engine;
pub mod fault;
pub mod nb;
pub mod physics;
pub mod platform;
pub mod sensor;
pub mod thermal;

pub use chip::{ChipSimulator, IntervalRecord, PowerBreakdown, SimConfig};
pub use physics::PowerPhysics;
pub use platform::SimPlatform;
