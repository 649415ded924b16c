//! Substrate-neutral telemetry for the PPEP framework.
//!
//! The paper runs PPEP as a user-level daemon over *whatever substrate
//! provides counters, temperature, and a VF actuator* (§IV-E). This
//! crate is that seam: it owns the per-interval measurement record
//! ([`IntervalRecord`]), the [`Platform`] port the daemon drives, and
//! a JSONL trace format with recording/replaying platform adapters —
//! so the prediction engine is decoupled from any one backend.
//!
//! Three pieces:
//!
//! - [`record`] — [`IntervalRecord`] and [`PowerBreakdown`], the
//!   measurement types every backend produces (moved here from
//!   `ppep-sim`, which re-exports them for compatibility).
//! - [`platform`] — the [`Platform`] trait: `sample` one decision
//!   interval, `apply` a per-CU VF assignment, expose the topology.
//! - [`trace`] — a line-oriented JSONL trace format plus
//!   [`RecordingPlatform`] (wraps any platform, logs every sample and
//!   apply) and [`ReplayPlatform`] (replays a recorded trace
//!   deterministically, with no live substrate at all).
//! - [`decision`] — the [`DecisionRecord`] annotation a recording
//!   daemon emits per decision, and [`binary`] — the compact v2
//!   binary trace framing (varint-delta counters, per-frame CRC);
//!   [`TraceReader::parse_any`] reads either format.
//! - [`frame`] — the `kind, length, payload, crc32` envelope, the
//!   CRC-32 and the byte primitives shared by every binary stream.
//! - [`session`] — the multi-tenant capping service's wire protocol
//!   ([`SessionFrame`]): handshake, per-interval submit/reply, and
//!   eviction frames riding the same envelope.
//! - [`snapshot`] — the [`MetricsSnapshot`] frame (kind 24):
//!   prediction-accuracy scorecards and per-tenant SLO aggregates
//!   exported over the same v2 framing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod decision;
pub mod frame;
pub mod json;
pub mod platform;
pub mod record;
pub mod session;
pub mod snapshot;
pub mod trace;

pub use decision::DecisionRecord;
pub use platform::Platform;
pub use record::{IntervalRecord, PowerBreakdown};
pub use session::SessionFrame;
pub use snapshot::{ErrorStat, MetricsSnapshot, SloSummary};
pub use trace::{RecordingPlatform, ReplayPlatform, TraceEvent, TraceReader, TraceWriter};
