//! Regeneration harnesses for every table and figure in the paper's
//! evaluation.
//!
//! Each module owns one experiment: it runs the simulation pipeline,
//! returns a structured result, and can print the same rows/series the
//! paper reports. The `ppep-experiments` binary exposes one subcommand
//! per experiment; `EXPERIMENTS.md` records paper-versus-measured for
//! each.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig01_idle_trace`] | Fig. 1 — idle power & temperature, heat/cool |
//! | [`cpi_accuracy`] | §III — LL-MAB CPI predictor error |
//! | [`idle_accuracy`] | §IV-A — idle model AAE per VF state |
//! | [`observations`] | §IV-C1 — Observations 1 and 2 |
//! | [`fig02_model_error`] | Fig. 2 — dynamic & chip model validation |
//! | [`fig03_cross_vf`] | Fig. 3 — cross-VF power prediction |
//! | [`fig04_pg_sweep`] | Fig. 4 — power gating sweep |
//! | [`fig06_energy`] | Fig. 6 — energy prediction vs Green Governors |
//! | [`fig07_capping`] | Fig. 7 — one-step vs iterative power capping |
//! | [`fig08_09_background`] | Figs. 8–9 — per-thread energy/EDP vs background load |
//! | [`fig10_nb_share`] | Fig. 10 — NB energy share |
//! | [`fig11_nb_dvfs`] | Fig. 11 — NB DVFS energy saving & speedup |
//! | [`phenom`] | §IV-B2/§IV-C2 — Phenom II validation |
//! | [`ablations`] | error attribution (beyond the paper: ideal PMU/sensor) |
//! | [`resilience`] | Fig. 7 capping under a fault storm (beyond the paper) |
//! | [`overhead`] | §V — per-stage latency and framework overhead of the 200 ms loop |
//! | [`serve`] | multi-tenant capping service: clean hosting run and the sharding benchmark (beyond the paper) |
//!
//! Three library modules have no subcommand; the test suite drives
//! them:
//!
//! | Module | Harness |
//! |---|---|
//! | [`replay`] | records a supervised Fig. 7 capping run as a v2 binary trace (strict replay, re-encode and size checks) |
//! | [`diff_policies`] | policy-differential replay: two controllers over one recorded trace |
//! | [`accuracy_watch`] | scores a recorded trace's predictions; the clean-trace CPI error gate |
//!
//! The paper-scale sweeps shard across cores through [`fleet`]
//! (`--jobs N` on the binary); results are identical for any worker
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod accuracy_watch;
pub mod ascii;
pub mod common;
pub mod cpi_accuracy;
pub mod diff_policies;
pub mod fig01_idle_trace;
pub mod fig02_model_error;
pub mod fig03_cross_vf;
pub mod fig04_pg_sweep;
pub mod fig06_energy;
pub mod fig07_capping;
pub mod fig08_09_background;
pub mod fig10_nb_share;
pub mod fig11_nb_dvfs;
pub mod fleet;
pub mod idle_accuracy;
pub mod observations;
pub mod overhead;
pub mod phenom;
pub mod replay;
pub mod report;
pub mod resilience;
pub mod serve;
pub mod summary;

pub use common::{Context, Scale};
