//! Session and handshake frames for the multi-tenant capping service.
//!
//! The capping service (`ppep-serve`) hosts one supervised daemon per
//! tenant; clients stream their per-interval measurements in and
//! receive PPE projections plus DVFS decisions back. This module owns
//! that wire protocol. Each message rides **the shared envelope from
//! [`crate::frame`]** — `kind u8, payload_len varint, payload,
//! crc32(payload) u32-le` — so a session stream is checksummed and
//! length-delimited exactly like a v2 trace document. Session kinds
//! (16–18, 21, 22, 25–27) are disjoint from the trace frame kinds
//! (0–5) and the metrics snapshot (24), so the streams can never be
//! confused.
//!
//! ```text
//! client -> server : Hello       (tenant id + requested power cap)
//! server -> client : Welcome     (granted cap + session slot)
//!                  | Reject      (typed RejectReason)
//! client -> server : Submit      (one IntervalRecord)
//!                  | FaultReport (the client's sample failed)
//! server -> client : Reply       (decision + health + projection band)
//!                  | Evicted     (the session was terminated, and why)
//! client -> server : Goodbye
//! ```
//!
//! Every payload is fixed-layout binary; no JSON rides the session
//! path. `Submit` writes the [`IntervalRecord`] field by field: the
//! tenant and interval index as varints, the six vector lengths as
//! varints, each CU's VF index as a varint, one byte for the NB state
//! and one per `core_busy` entry, then every `f64` as its raw 8 bits
//! (little-endian) in a fixed order, so NaN payloads, `-0.0` and
//! subnormals round-trip bit-exactly. `FaultReport` and `Evicted`
//! carry the tenant and then the v2 trace codec's fault payload.
//! Decoders cap every length before allocating for it and reject
//! trailing bytes. DESIGN §11.5 lists the full layout.
//!
//! Kinds 19, 20 and 23 are retired: they carried JSONL interval and
//! fault lines in an earlier version of the protocol. A peer that
//! still sends them gets an "unknown kind" error instead of a
//! mis-decode.

use crate::binary::{put_fault, read_fault, shape_of};
use crate::frame::{push_frame, put_f64, put_varint, split_frame, ByteReader};
use crate::record::{IntervalRecord, PowerBreakdown};
use ppep_pmc::events::EVENT_COUNT;
use ppep_pmc::sampler::IntervalSample;
use ppep_pmc::EventCounts;
use ppep_types::time::IntervalIndex;
use ppep_types::vf::NbVfState;
use ppep_types::{Error, Kelvin, RejectReason, Result, Seconds, Topology, VfStateId, Watts};

/// Error-message context of every session reader.
const CTX: &str = "session frame";

/// Frame kind byte for [`SessionFrame::Hello`].
pub const FRAME_HELLO: u8 = 16;
/// Frame kind byte for [`SessionFrame::Welcome`].
pub const FRAME_WELCOME: u8 = 17;
/// Frame kind byte for [`SessionFrame::Reject`].
pub const FRAME_REJECT: u8 = 18;
/// Frame kind byte for [`SessionFrame::Submit`].
pub const FRAME_SUBMIT: u8 = 25;
/// Frame kind byte for [`SessionFrame::FaultReport`].
pub const FRAME_FAULT_REPORT: u8 = 26;
/// Frame kind byte for [`SessionFrame::Reply`].
pub const FRAME_REPLY: u8 = 21;
/// Frame kind byte for [`SessionFrame::Goodbye`].
pub const FRAME_GOODBYE: u8 = 22;
/// Frame kind byte for [`SessionFrame::Evicted`].
pub const FRAME_EVICTED: u8 = 27;

/// A tenant's health as reported on the wire (the service-side
/// supervisor state, re-encoded so the wire format does not depend on
/// `ppep-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantHealth {
    /// Measurements validate; decisions are fresh.
    Healthy,
    /// Recent faults; decisions held from the last good projection.
    Degraded,
    /// Persistent faults; the tenant is pinned to its safe VF state.
    Failsafe,
}

impl TenantHealth {
    fn code(self) -> u8 {
        match self {
            TenantHealth::Healthy => 0,
            TenantHealth::Degraded => 1,
            TenantHealth::Failsafe => 2,
        }
    }

    fn from_code(code: u8) -> Result<Self> {
        match code {
            0 => Ok(TenantHealth::Healthy),
            1 => Ok(TenantHealth::Degraded),
            2 => Ok(TenantHealth::Failsafe),
            other => Err(Error::InvalidInput(format!(
                "session frame: unknown health code {other}"
            ))),
        }
    }
}

impl std::fmt::Display for TenantHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantHealth::Healthy => write!(f, "healthy"),
            TenantHealth::Degraded => write!(f, "degraded"),
            TenantHealth::Failsafe => write!(f, "failsafe"),
        }
    }
}

/// How the service produced the decision in a [`SessionFrame::Reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Fresh decision from the submitted, validated measurement.
    Fresh,
    /// Re-decided on the tenant's held last-good projection.
    Held,
    /// The tenant's safe VF state was pinned.
    Failsafe,
}

impl DecisionKind {
    fn code(self) -> u8 {
        match self {
            DecisionKind::Fresh => 0,
            DecisionKind::Held => 1,
            DecisionKind::Failsafe => 2,
        }
    }

    fn from_code(code: u8) -> Result<Self> {
        match code {
            0 => Ok(DecisionKind::Fresh),
            1 => Ok(DecisionKind::Held),
            2 => Ok(DecisionKind::Failsafe),
            other => Err(Error::InvalidInput(format!(
                "session frame: unknown decision kind {other}"
            ))),
        }
    }
}

/// The PPE projection band a [`SessionFrame::Reply`] carries back: the
/// chip-power range the engine projects across the tenant's whole VF
/// ladder, plus the projected steady-state temperature. This is the
/// DVFS exploration envelope the decision was priced in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionSummary {
    /// Projected chip power at the most frugal VF assignment.
    pub power_floor: Watts,
    /// Projected chip power at the most aggressive VF assignment.
    pub power_ceiling: Watts,
    /// Projected steady-state temperature.
    pub temperature: Kelvin,
}

/// One session-layer message.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionFrame {
    /// Client → server: open a session.
    Hello {
        /// The tenant's id (unique per service).
        tenant: u64,
        /// The power cap the tenant would like enforced.
        requested_cap: Watts,
    },
    /// Server → client: the session is open.
    Welcome {
        /// Echoed tenant id.
        tenant: u64,
        /// The cap the budget arbiter actually granted (may be below
        /// the request, and may be re-balanced later — every
        /// [`SessionFrame::Reply`] echoes the cap in force).
        granted_cap: Watts,
        /// The session slot assigned.
        slot: u32,
    },
    /// Server → client: admission control turned the session away.
    Reject {
        /// Echoed tenant id.
        tenant: u64,
        /// The typed refusal.
        reason: RejectReason,
    },
    /// Client → server: one measured decision interval.
    Submit {
        /// The submitting tenant.
        tenant: u64,
        /// The interval's measurements.
        record: Box<IntervalRecord>,
    },
    /// Client → server: the client's sample for this interval failed;
    /// the service's supervisor absorbs the fault (hold / failsafe).
    FaultReport {
        /// The reporting tenant.
        tenant: u64,
        /// The interval whose measurement was lost.
        index: IntervalIndex,
        /// The measurement fault.
        error: Error,
    },
    /// Server → client: the per-interval answer.
    Reply {
        /// The tenant this reply addresses.
        tenant: u64,
        /// The supervised interval counter on the service side.
        interval: u64,
        /// How the decision was produced.
        action: DecisionKind,
        /// The tenant's health after this interval.
        health: TenantHealth,
        /// The tenant's power cap currently in force (post-arbiter).
        cap: Watts,
        /// The per-CU VF assignment to apply.
        decision: Vec<VfStateId>,
        /// The projection band, when a fresh projection was computed.
        projection: Option<ProjectionSummary>,
    },
    /// Client → server: close the session, freeing its slot + budget.
    Goodbye {
        /// The departing tenant.
        tenant: u64,
    },
    /// Server → client: the service terminated the session (deadline
    /// blown, panic bulkhead, fatal fault).
    Evicted {
        /// The evicted tenant.
        tenant: u64,
        /// The service-side interval at eviction.
        index: IntervalIndex,
        /// Why the session was terminated.
        error: Error,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

const REJECT_SLOTS: u8 = 0;
const REJECT_BUDGET: u8 = 1;
const REJECT_DUPLICATE: u8 = 2;

fn put_reject_reason(out: &mut Vec<u8>, reason: &RejectReason) {
    match reason {
        RejectReason::SessionSlotsExhausted { active, max } => {
            out.push(REJECT_SLOTS);
            put_varint(out, u64::from(*active));
            put_varint(out, u64::from(*max));
        }
        RejectReason::BudgetExhausted {
            requested_w,
            available_w,
        } => {
            out.push(REJECT_BUDGET);
            put_f64(out, *requested_w);
            put_f64(out, *available_w);
        }
        RejectReason::DuplicateTenant { tenant } => {
            out.push(REJECT_DUPLICATE);
            put_varint(out, *tenant);
        }
    }
}

fn read_reject_reason(r: &mut ByteReader<'_>) -> Result<RejectReason> {
    match r.u8("reject code")? {
        REJECT_SLOTS => Ok(RejectReason::SessionSlotsExhausted {
            active: r.u32_of("reject active")?,
            max: r.u32_of("reject max")?,
        }),
        REJECT_BUDGET => Ok(RejectReason::BudgetExhausted {
            requested_w: r.f64("reject requested")?,
            available_w: r.f64("reject available")?,
        }),
        REJECT_DUPLICATE => Ok(RejectReason::DuplicateTenant {
            tenant: r.varint("reject tenant")?,
        }),
        other => Err(Error::InvalidInput(format!(
            "session frame: unknown reject code {other}"
        ))),
    }
}

/// Largest vector length a `Submit` payload may declare, checked
/// before anything is allocated for it (the v2 trace codec's bound).
const LEN_CAP: usize = 65_536;

/// `f64` fields of a record outside its vectors: duration, measured
/// power, temperature, and the NB dynamic, NB idle and base power.
const SCALAR_F64S: usize = 6;

/// Appends the fixed-layout `Submit` body of `r` (after the tenant).
fn put_interval(out: &mut Vec<u8>, r: &IntervalRecord) {
    put_varint(out, r.index.0);
    for len in shape_of(r) {
        put_varint(out, len as u64);
    }
    for vf in &r.cu_vf {
        put_varint(out, vf.index() as u64);
    }
    out.push(u8::from(matches!(r.nb_state, NbVfState::High)));
    out.extend(r.core_busy.iter().map(|busy| u8::from(*busy)));
    put_f64(out, r.duration.as_secs());
    put_f64(out, r.measured_power.as_watts());
    put_f64(out, r.temperature.as_kelvin());
    for s in &r.samples {
        put_f64(out, s.duration.as_secs());
        for v in s.counts.as_array() {
            put_f64(out, *v);
        }
    }
    for counts in &r.true_counts {
        for v in counts.as_array() {
            put_f64(out, *v);
        }
    }
    let tp = &r.true_power;
    for w in tp.core_dynamic.iter().chain(&tp.cu_idle) {
        put_f64(out, w.as_watts());
    }
    put_f64(out, tp.nb_dynamic.as_watts());
    put_f64(out, tp.nb_idle.as_watts());
    put_f64(out, tp.base.as_watts());
}

/// A VF state index, refused past the end of `topology`'s ladder.
fn read_vf(r: &mut ByteReader<'_>, topology: &Topology) -> Result<VfStateId> {
    let table = topology.vf_table();
    let idx = r.usize_capped("vf index", table.len().saturating_sub(1))?;
    table.state(idx)
}

fn read_flag(r: &mut ByteReader<'_>, what: &str) -> Result<bool> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(r.invalid(format_args!("{what} byte {other} is not 0 or 1"))),
    }
}

fn read_counts(r: &mut ByteReader<'_>, what: &str) -> Result<EventCounts> {
    let mut arr = [0.0; EVENT_COUNT];
    for v in &mut arr {
        *v = r.f64(what)?;
    }
    Ok(EventCounts::from_array(arr))
}

fn read_watts(r: &mut ByteReader<'_>, n: usize, what: &str) -> Result<Vec<Watts>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Watts::new(r.f64(what)?));
    }
    Ok(out)
}

/// Reads the body [`put_interval`] wrote, resolving VF indices against
/// `topology`'s ladder.
fn read_interval(r: &mut ByteReader<'_>, topology: &Topology) -> Result<IntervalRecord> {
    let index = IntervalIndex(r.varint("submit index")?);
    let [cu_vf_len, busy_len, samples_len, true_len, core_dyn_len, cu_idle_len] = [
        r.usize_capped("cu_vf length", LEN_CAP)?,
        r.usize_capped("core_busy length", LEN_CAP)?,
        r.usize_capped("samples length", LEN_CAP)?,
        r.usize_capped("true_counts length", LEN_CAP)?,
        r.usize_capped("core_dynamic length", LEN_CAP)?,
        r.usize_capped("cu_idle length", LEN_CAP)?,
    ];
    // Every VF index and flag takes at least one byte and every float
    // eight, so a shape the payload cannot hold is refused before any
    // vector is allocated for it.
    let floats = SCALAR_F64S
        + samples_len * (1 + EVENT_COUNT)
        + true_len * EVENT_COUNT
        + core_dyn_len
        + cu_idle_len;
    let least = cu_vf_len + 1 + busy_len + 8 * floats;
    if least > r.remaining() {
        return Err(r.invalid(format_args!(
            "truncated submit record: shape needs {least} bytes, {} left",
            r.remaining()
        )));
    }
    let mut cu_vf = Vec::with_capacity(cu_vf_len);
    for _ in 0..cu_vf_len {
        cu_vf.push(read_vf(r, topology)?);
    }
    let nb_state = if read_flag(r, "nb_state")? {
        NbVfState::High
    } else {
        NbVfState::Low
    };
    let mut core_busy = Vec::with_capacity(busy_len);
    for _ in 0..busy_len {
        core_busy.push(read_flag(r, "core_busy")?);
    }
    let duration = Seconds::new(r.f64("duration")?);
    let measured_power = Watts::new(r.f64("measured power")?);
    let temperature = Kelvin::new(r.f64("temperature")?);
    let mut samples = Vec::with_capacity(samples_len);
    for _ in 0..samples_len {
        let duration = Seconds::new(r.f64("sample duration")?);
        samples.push(IntervalSample {
            counts: read_counts(r, "sample count")?,
            duration,
        });
    }
    let mut true_counts = Vec::with_capacity(true_len);
    for _ in 0..true_len {
        true_counts.push(read_counts(r, "true count")?);
    }
    let core_dynamic = read_watts(r, core_dyn_len, "core dynamic power")?;
    let cu_idle = read_watts(r, cu_idle_len, "cu idle power")?;
    Ok(IntervalRecord {
        index,
        duration,
        samples,
        true_counts,
        measured_power,
        true_power: PowerBreakdown {
            core_dynamic,
            nb_dynamic: Watts::new(r.f64("nb dynamic power")?),
            cu_idle,
            nb_idle: Watts::new(r.f64("nb idle power")?),
            base: Watts::new(r.f64("base power")?),
        },
        temperature,
        cu_vf,
        nb_state,
        core_busy,
    })
}

/// Appends `frame` to `out` in the v2 framing
/// (`kind, payload_len varint, payload, crc32`).
pub fn encode_frame(frame: &SessionFrame, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    let kind = match frame {
        SessionFrame::Hello {
            tenant,
            requested_cap,
        } => {
            put_varint(&mut payload, *tenant);
            put_f64(&mut payload, requested_cap.as_watts());
            FRAME_HELLO
        }
        SessionFrame::Welcome {
            tenant,
            granted_cap,
            slot,
        } => {
            put_varint(&mut payload, *tenant);
            put_f64(&mut payload, granted_cap.as_watts());
            put_varint(&mut payload, u64::from(*slot));
            FRAME_WELCOME
        }
        SessionFrame::Reject { tenant, reason } => {
            put_varint(&mut payload, *tenant);
            put_reject_reason(&mut payload, reason);
            FRAME_REJECT
        }
        SessionFrame::Submit { tenant, record } => {
            put_varint(&mut payload, *tenant);
            put_interval(&mut payload, record);
            FRAME_SUBMIT
        }
        SessionFrame::FaultReport {
            tenant,
            index,
            error,
        } => {
            put_varint(&mut payload, *tenant);
            put_fault(&mut payload, *index, error);
            FRAME_FAULT_REPORT
        }
        SessionFrame::Reply {
            tenant,
            interval,
            action,
            health,
            cap,
            decision,
            projection,
        } => {
            put_varint(&mut payload, *tenant);
            put_varint(&mut payload, *interval);
            payload.push(action.code());
            payload.push(health.code());
            put_f64(&mut payload, cap.as_watts());
            put_varint(&mut payload, decision.len() as u64);
            for vf in decision {
                put_varint(&mut payload, vf.index() as u64);
            }
            match projection {
                Some(p) => {
                    payload.push(1);
                    put_f64(&mut payload, p.power_floor.as_watts());
                    put_f64(&mut payload, p.power_ceiling.as_watts());
                    put_f64(&mut payload, p.temperature.as_kelvin());
                }
                None => payload.push(0),
            }
            FRAME_REPLY
        }
        SessionFrame::Goodbye { tenant } => {
            put_varint(&mut payload, *tenant);
            FRAME_GOODBYE
        }
        SessionFrame::Evicted {
            tenant,
            index,
            error,
        } => {
            put_varint(&mut payload, *tenant);
            put_fault(&mut payload, *index, error);
            FRAME_EVICTED
        }
    };
    push_frame(out, kind, &payload);
}

/// Encodes one frame into a fresh buffer.
pub fn frame_to_bytes(frame: &SessionFrame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(frame, &mut out);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decodes the first frame of `src`, returning it and the bytes
/// consumed. `topology` resolves the VF ladder and counter layout for
/// `Submit` and `Reply` payloads; both sides of a session must agree
/// on it (the service's trained topology).
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] on truncation, a CRC mismatch, an
/// unknown frame kind, or a payload inconsistent with `topology`.
pub fn decode_frame(src: &[u8], topology: &Topology) -> Result<(SessionFrame, usize)> {
    let (kind, payload, consumed) = split_frame(src, CTX)?;
    let mut r = ByteReader::new(payload, CTX);
    let frame = match kind {
        FRAME_HELLO => SessionFrame::Hello {
            tenant: r.varint("hello tenant")?,
            requested_cap: Watts::new(r.f64("hello cap")?),
        },
        FRAME_WELCOME => SessionFrame::Welcome {
            tenant: r.varint("welcome tenant")?,
            granted_cap: Watts::new(r.f64("welcome cap")?),
            slot: r.u32_of("welcome slot")?,
        },
        FRAME_REJECT => SessionFrame::Reject {
            tenant: r.varint("reject tenant")?,
            reason: read_reject_reason(&mut r)?,
        },
        FRAME_SUBMIT => SessionFrame::Submit {
            tenant: r.varint("submit tenant")?,
            record: Box::new(read_interval(&mut r, topology)?),
        },
        FRAME_FAULT_REPORT => {
            let tenant = r.varint("fault tenant")?;
            let (index, error) = read_fault(&mut r)?;
            SessionFrame::FaultReport {
                tenant,
                index,
                error,
            }
        }
        FRAME_REPLY => {
            let tenant = r.varint("reply tenant")?;
            let interval = r.varint("reply interval")?;
            let action = DecisionKind::from_code(r.u8("reply action")?)?;
            let health = TenantHealth::from_code(r.u8("reply health")?)?;
            let cap = Watts::new(r.f64("reply cap")?);
            let n = r.usize_capped("reply decision length", topology.cu_count())?;
            let mut decision = Vec::with_capacity(n);
            for _ in 0..n {
                decision.push(read_vf(&mut r, topology)?);
            }
            let projection = match r.u8("reply projection flag")? {
                0 => None,
                1 => Some(ProjectionSummary {
                    power_floor: Watts::new(r.f64("projection floor")?),
                    power_ceiling: Watts::new(r.f64("projection ceiling")?),
                    temperature: Kelvin::new(r.f64("projection temperature")?),
                }),
                other => {
                    return Err(Error::InvalidInput(format!(
                        "session frame: bad projection flag {other}"
                    )))
                }
            };
            SessionFrame::Reply {
                tenant,
                interval,
                action,
                health,
                cap,
                decision,
                projection,
            }
        }
        FRAME_GOODBYE => SessionFrame::Goodbye {
            tenant: r.varint("goodbye tenant")?,
        },
        FRAME_EVICTED => {
            let tenant = r.varint("evicted tenant")?;
            let (index, error) = read_fault(&mut r)?;
            SessionFrame::Evicted {
                tenant,
                index,
                error,
            }
        }
        other => return Err(r.invalid(format_args!("unknown kind {other}"))),
    };
    r.finish("session payload")?;
    Ok((frame, consumed))
}

/// Decodes a whole stream of concatenated session frames.
///
/// # Errors
///
/// Propagates [`decode_frame`] errors.
pub fn decode_stream(src: &[u8], topology: &Topology) -> Result<Vec<SessionFrame>> {
    let mut frames = Vec::new();
    let mut rest = src;
    while !rest.is_empty() {
        let (frame, consumed) = decode_frame(rest, topology)?;
        frames.push(frame);
        rest = rest.get(consumed..).unwrap_or_default();
    }
    Ok(frames)
}

/// Maximum payload length [`read_frame_bytes`] will allocate for one
/// frame read off a socket. The largest frame is a `Submit`, about
/// 1.8 KB on an 8-core chip plus about 210 bytes per extra core, so
/// the cap leaves room for chips of several thousand cores while
/// bounding what a corrupt or hostile length prefix can make the
/// server allocate.
pub const MAX_WIRE_PAYLOAD: usize = 1 << 20;

/// Reads exactly one length-delimited v2 session frame from `reader`,
/// returning the frame's raw bytes (kind + varint length + payload +
/// CRC), or `None` on a clean end-of-stream (EOF before the kind
/// byte). The bytes are *not* decoded — feed them to
/// [`decode_frame`]; keeping the syscall layer byte-oriented is what
/// lets the serve path run CRC validation outside any lock.
///
/// # Errors
///
/// [`Error::InvalidInput`] on a truncated frame, an over-long varint,
/// a length prefix above [`MAX_WIRE_PAYLOAD`], or any I/O error.
pub fn read_frame_bytes<R: std::io::Read>(reader: &mut R) -> Result<Option<Vec<u8>>> {
    let mut kind = [0u8; 1];
    match reader.read_exact(&mut kind) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => {
            return Err(Error::InvalidInput(format!(
                "session frame: socket read failed: {e}"
            )))
        }
    }
    let mut out = vec![kind[0]];
    let mut len: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        reader.read_exact(&mut b).map_err(|e| {
            Error::InvalidInput(format!("session frame: truncated length prefix: {e}"))
        })?;
        out.push(b[0]);
        len |= u64::from(b[0] & 0x7F) << shift;
        if b[0] & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift >= 64 {
            return Err(Error::InvalidInput(
                "session frame: length varint too long".into(),
            ));
        }
    }
    let len = usize::try_from(len)
        .map_err(|_| Error::InvalidInput("session frame: payload length out of range".into()))?;
    if len > MAX_WIRE_PAYLOAD {
        return Err(Error::InvalidInput(format!(
            "session frame: payload length {len} exceeds wire cap {MAX_WIRE_PAYLOAD}"
        )));
    }
    let start = out.len();
    out.resize(start + len + 4, 0);
    let body = out
        .get_mut(start..)
        .ok_or_else(|| Error::InvalidInput("session frame: body slice out of range".into()))?;
    reader
        .read_exact(body)
        .map_err(|e| Error::InvalidInput(format!("session frame: truncated payload: {e}")))?;
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_types::vf::NbVfState;
    use ppep_types::{Seconds, VfTable};

    fn topology() -> Topology {
        Topology::fx8320()
    }

    fn sample_record(topology: &Topology) -> IntervalRecord {
        use crate::record::PowerBreakdown;
        use ppep_pmc::sampler::IntervalSample;
        use ppep_pmc::{EventCounts, EventId};
        let table = VfTable::fx8320();
        let mut counts = EventCounts::zero();
        counts.set(EventId::RetiredInstructions, 1.0e9);
        IntervalRecord {
            index: IntervalIndex(7),
            duration: Seconds::new(0.2),
            samples: vec![
                IntervalSample {
                    counts,
                    duration: Seconds::new(0.2),
                };
                topology.core_count()
            ],
            true_counts: vec![counts; topology.core_count()],
            measured_power: Watts::new(55.25),
            true_power: PowerBreakdown {
                core_dynamic: vec![Watts::new(5.5); topology.core_count()],
                nb_dynamic: Watts::new(4.25),
                cu_idle: vec![Watts::new(6.125); topology.cu_count()],
                nb_idle: Watts::new(3.5),
                base: Watts::new(11.0),
            },
            temperature: Kelvin::new(330.5),
            cu_vf: vec![table.highest(); topology.cu_count()],
            nb_state: NbVfState::High,
            core_busy: vec![true; topology.core_count()],
        }
    }

    fn all_frames() -> Vec<SessionFrame> {
        let topo = topology();
        let table = VfTable::fx8320();
        vec![
            SessionFrame::Hello {
                tenant: 3,
                requested_cap: Watts::new(60.0),
            },
            SessionFrame::Welcome {
                tenant: 3,
                granted_cap: Watts::new(48.5),
                slot: 2,
            },
            SessionFrame::Reject {
                tenant: 9,
                reason: RejectReason::SessionSlotsExhausted { active: 8, max: 8 },
            },
            SessionFrame::Reject {
                tenant: 9,
                reason: RejectReason::BudgetExhausted {
                    requested_w: 60.0,
                    available_w: 12.5,
                },
            },
            SessionFrame::Reject {
                tenant: 9,
                reason: RejectReason::DuplicateTenant { tenant: 9 },
            },
            SessionFrame::Submit {
                tenant: 3,
                record: Box::new(sample_record(&topo)),
            },
            SessionFrame::FaultReport {
                tenant: 3,
                index: IntervalIndex(8),
                error: Error::SensorDropout {
                    sensor: "hall-sensor",
                },
            },
            SessionFrame::Reply {
                tenant: 3,
                interval: 8,
                action: DecisionKind::Held,
                health: TenantHealth::Degraded,
                cap: Watts::new(48.5),
                decision: vec![table.lowest(); topo.cu_count()],
                projection: Some(ProjectionSummary {
                    power_floor: Watts::new(22.0),
                    power_ceiling: Watts::new(88.0),
                    temperature: Kelvin::new(335.0),
                }),
            },
            SessionFrame::Goodbye { tenant: 3 },
            SessionFrame::Evicted {
                tenant: 4,
                index: IntervalIndex(12),
                error: Error::DeadlineExceeded {
                    missed: 5,
                    limit: 4,
                },
            },
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let topo = topology();
        for frame in all_frames() {
            let bytes = frame_to_bytes(&frame);
            let (back, consumed) = decode_frame(&bytes, &topo).expect("frame decodes");
            assert_eq!(consumed, bytes.len(), "whole frame consumed");
            match (&frame, &back) {
                // `DeadlineExceeded` crosses the wire through the
                // fault payload's catch-all variant (its rendered
                // message), so the decoded error keeps the text but
                // not the variant; everything else must be
                // structurally identical.
                (
                    SessionFrame::Evicted { error: a, .. },
                    SessionFrame::Evicted { error: b, .. },
                ) => assert!(b.to_string().contains(&a.to_string())),
                _ => assert_eq!(frame, back),
            }
        }
    }

    #[test]
    fn a_stream_of_frames_decodes_in_order() {
        let topo = topology();
        let frames = all_frames();
        let mut stream = Vec::new();
        for f in &frames {
            encode_frame(f, &mut stream);
        }
        let back = decode_stream(&stream, &topo).expect("stream decodes");
        assert_eq!(back.len(), frames.len());
        assert!(matches!(back.first(), Some(SessionFrame::Hello { .. })));
        assert!(matches!(back.last(), Some(SessionFrame::Evicted { .. })));
    }

    #[test]
    fn submit_payload_round_trips_bit_exactly() {
        let topo = topology();
        let record = sample_record(&topo);
        let bytes = frame_to_bytes(&SessionFrame::Submit {
            tenant: 1,
            record: Box::new(record.clone()),
        });
        let (back, _) = decode_frame(&bytes, &topo).expect("decodes");
        match back {
            SessionFrame::Submit { record: r, .. } => {
                assert_eq!(r.measured_power, record.measured_power);
                assert_eq!(r.temperature, record.temperature);
                assert_eq!(r.cu_vf, record.cu_vf);
                assert_eq!(r.index, record.index);
            }
            other => unreachable!("decoded {other:?}"),
        }
    }

    #[test]
    fn corrupted_and_truncated_frames_are_rejected() {
        let topo = topology();
        let bytes = frame_to_bytes(&SessionFrame::Goodbye { tenant: 1 });
        // Flip one payload bit: CRC must catch it.
        let mut corrupt = bytes.clone();
        if let Some(b) = corrupt.get_mut(2) {
            *b ^= 0x01;
        }
        assert!(decode_frame(&corrupt, &topo).is_err(), "CRC must reject");
        // Every strict prefix is truncated.
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(bytes.get(..cut).unwrap_or_default(), &topo).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
        // An unknown kind is rejected.
        assert!(decode_frame(&[99, 0, 0, 0, 0, 0], &topo).is_err());
    }

    #[test]
    fn read_frame_bytes_splits_a_stream_and_ends_cleanly() {
        let topo = topology();
        let frames = vec![
            SessionFrame::Hello {
                tenant: 3,
                requested_cap: Watts::new(40.0),
            },
            SessionFrame::Submit {
                tenant: 3,
                record: Box::new(sample_record(&topo)),
            },
            SessionFrame::Goodbye { tenant: 3 },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            encode_frame(f, &mut stream);
        }
        let mut cursor = std::io::Cursor::new(stream);
        for f in &frames {
            let bytes = read_frame_bytes(&mut cursor)
                .expect("frame reads")
                .expect("stream not exhausted");
            assert_eq!(bytes, frame_to_bytes(f), "raw bytes match the encoder");
            let (decoded, consumed) = decode_frame(&bytes, &topo).expect("frame decodes");
            assert_eq!(consumed, bytes.len(), "no trailing bytes");
            assert_eq!(&decoded, f);
        }
        assert!(
            read_frame_bytes(&mut cursor).expect("clean EOF").is_none(),
            "EOF before a kind byte is a clean end-of-stream"
        );
    }

    #[test]
    fn read_frame_bytes_rejects_truncation_and_hostile_lengths() {
        let bytes = frame_to_bytes(&SessionFrame::Goodbye { tenant: 9 });
        // Every strict prefix that contains the kind byte is a
        // truncated frame, not a clean EOF.
        for cut in 1..bytes.len() {
            let mut cursor = std::io::Cursor::new(bytes.get(..cut).unwrap_or_default());
            assert!(
                read_frame_bytes(&mut cursor).is_err(),
                "prefix of {cut} bytes must error"
            );
        }
        // A length prefix past the wire cap must be refused before
        // any allocation of that size.
        let mut hostile = vec![FRAME_SUBMIT];
        put_varint(&mut hostile, (MAX_WIRE_PAYLOAD as u64) + 1);
        hostile.extend_from_slice(&[0u8; 8]);
        let mut cursor = std::io::Cursor::new(hostile);
        assert!(read_frame_bytes(&mut cursor).is_err());
        // An endless continuation-bit run is an over-long varint.
        let mut runaway = vec![FRAME_SUBMIT];
        runaway.extend_from_slice(&[0x80u8; 16]);
        let mut cursor = std::io::Cursor::new(runaway);
        assert!(read_frame_bytes(&mut cursor).is_err());
    }

    #[test]
    fn session_kinds_stay_clear_of_trace_kinds() {
        // The v2 trace codec owns kinds 0-5; session frames must never
        // collide so a mixed-up stream fails loudly instead of parsing.
        let kinds = [
            FRAME_HELLO,
            FRAME_WELCOME,
            FRAME_REJECT,
            FRAME_SUBMIT,
            FRAME_FAULT_REPORT,
            FRAME_REPLY,
            FRAME_GOODBYE,
            FRAME_EVICTED,
        ];
        for (i, kind) in kinds.iter().enumerate() {
            assert!(*kind >= 16);
            // Distinct from each other, from the snapshot frame, and
            // from the retired JSON-payload kinds.
            assert!(!kinds[..i].contains(kind), "kind {kind} reused");
            assert_ne!(*kind, crate::snapshot::FRAME_METRICS_SNAPSHOT);
            assert!(![19, 20, 23].contains(kind), "kind {kind} is retired");
        }
    }
}
