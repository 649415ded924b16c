//! Substrate-neutral telemetry for the PPEP framework.
//!
//! The paper runs PPEP as a user-level daemon over *whatever substrate
//! provides counters, temperature, and a VF actuator* (§IV-E). This
//! crate is that seam: it owns the per-interval measurement record
//! ([`IntervalRecord`]), the [`Platform`] port the daemon drives, and
//! one binary trace format with recording/replaying platform adapters —
//! so the prediction engine is decoupled from any one backend.
//!
//! The pieces:
//!
//! - [`record`] — [`IntervalRecord`] and [`PowerBreakdown`], the
//!   measurement types every backend produces (moved here from
//!   `ppep-sim`, which re-exports them for compatibility).
//! - [`platform`] — the [`Platform`] trait: `sample` one decision
//!   interval, `apply` a per-CU VF assignment, expose the topology.
//! - [`trace`] — [`RecordingPlatform`] (wraps any platform, records
//!   every sample, fault, apply and decision), [`ReplayPlatform`]
//!   (replays a recorded trace deterministically, with no live
//!   substrate at all) and [`TraceReader`], the parsed event stream.
//! - [`binary`] — trace format v2, the only one recorded and read:
//!   varint-delta counters, a CRC per frame, a streaming
//!   [`TraceWriter`]; [`TraceReader::parse`] is its reader. [`json`]
//!   holds the token writers of [`TraceReader::to_jsonl`], a
//!   write-only JSON Lines dump for humans.
//! - [`decision`] — the [`DecisionRecord`] annotation a recording
//!   daemon emits per decision.
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

pub use binary::TraceWriter;
pub use decision::DecisionRecord;
pub use platform::Platform;
pub use record::{IntervalRecord, PowerBreakdown};
pub use session::SessionFrame;
pub use snapshot::{ErrorStat, MetricsSnapshot, SloSummary};
pub use trace::{RecordingPlatform, ReplayPlatform, TraceEvent, TraceReader};
