//! Trace format v2: length-prefixed binary framing with per-frame CRC.
//!
//! The one trace format this workspace records, commits and replays.
//! [`TraceWriter`] streams a run into a document one frame per event
//! (the recording platform's writer), [`decode`] reads one back, and
//! [`encode`] re-writes a parsed trace. A JSON Lines rendering of the
//! same events ([`crate::trace::TraceReader::to_jsonl`]) is a
//! write-only dump for humans; it is never read back.
//!
//! ```text
//! document := MAGIC "PPB2" , version u8 (=2) , frame* , end frame
//! frame    := kind u8 , payload_len varint , payload , crc32(payload) u32-le
//! kind     := 0 end | 1 meta | 2 interval | 3 fault | 4 apply | 5 decision
//! ```
//!
//! The first frame must be the meta frame (topology + VF ladder), so a
//! document is self-describing. Every frame carries a CRC-32 (IEEE) of
//! its payload; a bad magic, a truncated document or a corrupted frame
//! is rejected with [`Error::InvalidInput`], so a flipped byte is an
//! error rather than a different number.
//!
//! # Value coding
//!
//! Interval payloads are bit streams (LSB-first). Each `f64` is coded
//! against *predictors* the decoder reconstructs from already-decoded
//! state, choosing the cheapest of several modes per value:
//!
//! - **same** — the value's bits equal a predictor's: 1–4 bits total.
//! - **xor** — significant bits of `bits(v) ^ bits(pred)` after
//!   stripping leading (and optionally trailing) zero bits; similar
//!   values share sign/exponent/high-mantissa bits, so only the noisy
//!   low bits are stored.
//! - **int delta** — for integer-valued counters: a signed varint of
//!   `v - round(pred)`.
//! - **scaled int** — PMU interval samples are exactly
//!   `m * (T(n)/T(k))` where `m` is the accumulated hardware count and
//!   `T(j)` is a `j`-fold sum of the sub-tick period (time-multiplexed
//!   extrapolation); the encoder *verifies* bit-exact reconstruction,
//!   then stores `k` and a varint delta of `m` against the same
//!   counter slot in the previous interval.
//! - **raw** — the 64 bits verbatim (always available, always exact).
//!
//! Predictors are positional: a counter's previous-interval value, a
//! sampled counter's same-interval true count (and vice versa), the
//! previous element of a per-CU vector, a linear extrapolation for
//! temperature. All state lives in `Codec` and is updated by both
//! sides under identical rules, so the scheme needs no side channel.
//! On the record/replay capping workload a document is over 5× smaller
//! than its JSONL dump while round-tripping every `f64` bit-exactly.

use crate::decision::DecisionRecord;
use crate::frame::{push_frame, put_f64, put_str, put_varint, split_frame, ByteReader};
use crate::record::{IntervalRecord, PowerBreakdown};
use crate::trace::{TraceEvent, TraceReader};
use ppep_pmc::events::EVENT_COUNT;
use ppep_pmc::sampler::IntervalSample;
use ppep_pmc::EventCounts;
use ppep_types::time::{IntervalIndex, SAMPLES_PER_INTERVAL};
use ppep_types::vf::{NbVfState, VfPoint};
use ppep_types::{
    Error, Gigahertz, Kelvin, Result, Seconds, Topology, VfStateId, VfTable, Volts, Watts,
};

/// The v2 document magic, the first four bytes of every binary trace.
pub const MAGIC: [u8; 4] = *b"PPB2";

/// The binary trace format version written after the magic.
pub const BINARY_VERSION: u8 = 2;

/// Error-message context of every v2 trace reader.
const CTX: &str = "v2 trace";

const FRAME_END: u8 = 0;
const FRAME_META: u8 = 1;
const FRAME_INTERVAL: u8 = 2;
const FRAME_FAULT: u8 = 3;
const FRAME_APPLY: u8 = 4;
const FRAME_DECISION: u8 = 5;

// ---------------------------------------------------------------------
// Bit-level primitives (LSB-first, like DEFLATE)
// ---------------------------------------------------------------------

#[derive(Default)]
struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    filled: u32,
}

impl BitWriter {
    fn bit(&mut self, b: u64) {
        self.acc |= ((b & 1) as u32) << self.filled;
        self.filled += 1;
        if self.filled == 8 {
            self.out.push(self.acc as u8);
            self.acc = 0;
            self.filled = 0;
        }
    }

    fn bits(&mut self, v: u64, n: u32) {
        for i in 0..n {
            self.bit(v >> i);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.filled > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

struct BitReader<'a> {
    bytes: &'a [u8],
    bitpos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, bitpos: 0 }
    }

    fn bit(&mut self) -> Result<u64> {
        let byte = self
            .bytes
            .get(self.bitpos / 8)
            .copied()
            .ok_or_else(|| Error::InvalidInput("v2 trace: bit stream exhausted".into()))?;
        let b = u64::from(byte >> (self.bitpos % 8)) & 1;
        self.bitpos += 1;
        Ok(b)
    }

    fn bits(&mut self, n: u32) -> Result<u64> {
        let mut v = 0u64;
        for i in 0..n {
            v |= self.bit()? << i;
        }
        Ok(v)
    }
}

/// Per-context run state for length fields: bit lengths of residuals
/// are strongly clustered within one field family (a counter's noise
/// floor barely moves between intervals), so each length is coded as a
/// 1-bit "same as last time in this context" flag, with the 6-bit
/// literal only on change. `xor` and `mag` track the XOR-residual and
/// integer-magnitude sub-streams separately.
#[derive(Debug, Default, Clone, Copy)]
struct LenCtx {
    xor: u8,
    mag: u8,
}

fn put_len(bw: &mut BitWriter, len: u8, last: &mut u8) {
    // Jitter walks residual lengths by a few bits between intervals in
    // a near-geometric distribution, so the zigzagged delta gets a
    // Rice code (k = 2): unary quotient, two remainder bits, a 6-bit
    // absolute-length escape once the quotient hits 8.
    let delta = i16::from(len) - i16::from(*last);
    *last = len;
    let z = if delta >= 0 {
        (2 * delta) as u64
    } else {
        (-2 * delta - 1) as u64
    };
    let q = z >> 2;
    if q >= 8 {
        bw.bits(0xFF, 8);
        bw.bits(u64::from(len), 6);
    } else {
        for _ in 0..q {
            bw.bit(1);
        }
        bw.bit(0);
        bw.bits(z & 3, 2);
    }
}

fn get_len(br: &mut BitReader, last: &mut u8) -> Result<u8> {
    let mut q = 0u64;
    while q < 8 && br.bit()? == 1 {
        q += 1;
    }
    let len = if q >= 8 {
        br.bits(6)? as u8
    } else {
        let z = (q << 2) | br.bits(2)?;
        let delta = if z.is_multiple_of(2) {
            (z / 2) as i16
        } else {
            -(z.div_ceil(2) as i16)
        };
        let l = i16::from(*last) + delta;
        u8::try_from(l)
            .ok()
            .filter(|l| *l <= 63)
            .ok_or_else(|| Error::InvalidInput("v2 trace: residual length out of range".into()))?
    };
    *last = len;
    Ok(len)
}

/// Writes a magnitude as a context-coded bit-length followed by the
/// bits below the (implicit) top set bit. Magnitudes must fit 63 bits.
fn put_umag(bw: &mut BitWriter, mag: u64, last: &mut u8) {
    let len = (64 - mag.leading_zeros()) as u8;
    put_len(bw, len, last);
    if len > 0 {
        bw.bits(mag ^ (1u64 << (len - 1)), u32::from(len) - 1);
    }
}

fn get_umag(br: &mut BitReader, last: &mut u8) -> Result<u64> {
    let len = u32::from(get_len(br, last)?);
    if len == 0 {
        return Ok(0);
    }
    let low = br.bits(len - 1)?;
    Ok(low | (1u64 << (len - 1)))
}

/// Approximate cost for mode selection: the length field averages a
/// few bits thanks to the run flag.
fn umag_cost(mag: u64) -> u32 {
    let len = 64 - mag.leading_zeros();
    4 + len.saturating_sub(1)
}

fn put_sdelta(bw: &mut BitWriter, delta: i64, last: &mut u8) {
    bw.bit(u64::from(delta < 0));
    put_umag(bw, delta.unsigned_abs(), last);
}

fn get_sdelta(br: &mut BitReader, last: &mut u8) -> Result<i64> {
    let neg = br.bit()? == 1;
    let mag = get_umag(br, last)?;
    let v = i64::try_from(mag)
        .map_err(|_| Error::InvalidInput("v2 trace: signed delta overflow".into()))?;
    Ok(if neg { v.wrapping_neg() } else { v })
}

/// Writes the significant bits of a nonzero XOR residual (top set bit
/// implicit), preceded by a context-coded length.
fn put_xor(bw: &mut BitWriter, x: u64, last: &mut u8) {
    let len = (64 - x.leading_zeros()) as u8;
    put_len(bw, len - 1, last);
    if len > 1 {
        bw.bits(x ^ (1u64 << (len - 1)), u32::from(len) - 1);
    }
}

fn get_xor(br: &mut BitReader, last: &mut u8) -> Result<u64> {
    let len = u32::from(get_len(br, last)?) + 1;
    let low = if len > 1 { br.bits(len - 1)? } else { 0 };
    Ok(low | (1u64 << (len - 1)))
}

fn xor_cost(x: u64) -> u32 {
    4 + (64 - x.leading_zeros()).saturating_sub(1)
}

/// `Some(v as i64)` when the cast round-trips bit-exactly (which also
/// rejects -0.0 and anything non-integer or out of range).
fn exact_i64(v: f64) -> Option<i64> {
    let t = v as i64;
    ((t as f64).to_bits() == v.to_bits()).then_some(t)
}

/// A deterministic integer approximation of a predictor for the
/// int-delta mode. Any value works (it only shifts the stored delta);
/// both sides must agree.
fn pred_i64(p: f64) -> i64 {
    if p.is_finite() && p.abs() < 9.0e18 {
        p.round() as i64
    } else {
        0
    }
}

// ---------------------------------------------------------------------
// PMU extrapolation factors (the scaled-int mode)
// ---------------------------------------------------------------------

/// A `j`-fold running sum of `dt`, replicating the PMU's
/// `active_time`/`total_time` accumulation order bit-for-bit.
fn tick_sum(dt: f64, j: u32) -> f64 {
    let mut t = 0.0;
    for _ in 0..j {
        t += dt;
    }
    t
}

/// The extrapolation factor `T(total)/T(k)` for a slot observed `k` of
/// `total` sub-ticks.
fn scale_factor(dt: f64, k: u32, total: u32) -> f64 {
    tick_sum(dt, total) / tick_sum(dt, k)
}

const SCALE_TICKS: u32 = SAMPLES_PER_INTERVAL as u32;

/// Finds `(k, m)` with `v == m * T(total)/T(k)` reconstructing
/// bit-exactly, preferring fully-observed slots. Returns `None` when
/// no factor reproduces the value (the encoder then falls back).
fn try_scaled(v: f64, dt: f64) -> Option<(u8, u64)> {
    // `contains` is false for NaN, so this also rejects NaN inputs.
    if !(0.0..=9.0e15).contains(&v) {
        return None;
    }
    for k in (1..=SCALE_TICKS).rev() {
        let factor = scale_factor(dt, k, SCALE_TICKS);
        if !factor.is_finite() || factor <= 0.0 {
            continue;
        }
        let m = (v / factor).round();
        if !(0.0..=9.0e15).contains(&m) {
            continue;
        }
        let m_u = m as u64;
        if ((m_u as f64) * factor).to_bits() == v.to_bits() {
            return Some((k as u8, m_u));
        }
    }
    None
}

// ---------------------------------------------------------------------
// Per-value coding: three context-specific prefix trees
// ---------------------------------------------------------------------

/// Generic f64 context: optional second predictor, optional
/// trailing-zero stripping (for quantized sensor values).
///
/// Prefixes (LSB-first): `0` same-A · `10` xor-A · `110` same-B ·
/// `1110` xor-B · `11110` int-A · `111110` raw · `111111` xor-A with
/// trailing strip.
fn put_gen(bw: &mut BitWriter, v: f64, pred_a: f64, pred_b: Option<f64>, lens: &mut LenCtx) {
    let bv = v.to_bits();
    let xa = bv ^ pred_a.to_bits();
    if xa == 0 {
        bw.bit(0);
        return;
    }
    let xb = pred_b.map(|p| bv ^ p.to_bits());
    if xb == Some(0) {
        bw.bits(0b011, 3);
        return;
    }
    // Candidate costs (prefix + payload bits).
    let c_xor_a = 2 + xor_cost(xa);
    let c_xor_b = xb.map(|x| 4 + xor_cost(x));
    let c_int = exact_i64(v).and_then(|iv| {
        let delta = iv.wrapping_sub(pred_i64(pred_a));
        (delta != i64::MIN).then(|| (5 + 1 + umag_cost(delta.unsigned_abs()), delta))
    });
    let trail = xa.trailing_zeros();
    let c_xor_t = 6 + 6 + xor_cost(xa >> trail);
    let c_raw = 6 + 64;

    let mut best = c_xor_a;
    for c in [c_xor_b.unwrap_or(u32::MAX), c_int.map_or(u32::MAX, |c| c.0)] {
        best = best.min(c);
    }
    best = best.min(c_xor_t).min(c_raw);

    if best == c_xor_a {
        bw.bits(0b01, 2);
        put_xor(bw, xa, &mut lens.xor);
    } else if Some(best) == c_xor_b {
        bw.bits(0b0111, 4);
        put_xor(bw, xb.unwrap_or_default(), &mut lens.xor);
    } else if Some(best) == c_int.map(|c| c.0) {
        bw.bits(0b01111, 5);
        put_sdelta(bw, c_int.map(|c| c.1).unwrap_or_default(), &mut lens.mag);
    } else if best == c_xor_t {
        bw.bits(0b111111, 6);
        bw.bits(u64::from(trail), 6);
        put_xor(bw, xa >> trail, &mut lens.xor);
    } else {
        bw.bits(0b011111, 6);
        bw.bits(bv, 64);
    }
}

fn get_gen(br: &mut BitReader, pred_a: f64, pred_b: Option<f64>, lens: &mut LenCtx) -> Result<f64> {
    if br.bit()? == 0 {
        return Ok(pred_a);
    }
    if br.bit()? == 0 {
        return Ok(f64::from_bits(
            pred_a.to_bits() ^ get_xor(br, &mut lens.xor)?,
        ));
    }
    if br.bit()? == 0 {
        return pred_b.ok_or_else(|| {
            Error::InvalidInput("v2 trace: same-B mode with no second predictor".into())
        });
    }
    if br.bit()? == 0 {
        let pb = pred_b.ok_or_else(|| {
            Error::InvalidInput("v2 trace: xor-B mode with no second predictor".into())
        })?;
        return Ok(f64::from_bits(pb.to_bits() ^ get_xor(br, &mut lens.xor)?));
    }
    if br.bit()? == 0 {
        let delta = get_sdelta(br, &mut lens.mag)?;
        return Ok(pred_i64(pred_a).wrapping_add(delta) as f64);
    }
    if br.bit()? == 0 {
        return Ok(f64::from_bits(br.bits(64)?));
    }
    let trail = br.bits(6)? as u32;
    let x = get_xor(br, &mut lens.xor)?
        .checked_shl(trail)
        .ok_or_else(|| Error::InvalidInput("v2 trace: xor trailing shift overflow".into()))?;
    Ok(f64::from_bits(pred_a.to_bits() ^ x))
}

/// Per-slot state for the scaled-int sample mode: the `(k, m)` pair
/// last coded for this (core, event) counter.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    k: u8,
    m: u64,
}

/// Sampled-counter context. Predictor A is the same slot's value in
/// the previous interval; the scaled-int modes encode the underlying
/// hardware count `m` against the slot state.
///
/// Prefixes: `0` same-A · `10` scaled-delta · `110` xor-A · `1110`
/// scaled-abs · `11110` int-A · `11111` raw.
fn put_sample(
    bw: &mut BitWriter,
    v: f64,
    pred_a: f64,
    dt: f64,
    slot: &mut Option<SlotState>,
    lens: &mut LenCtx,
) {
    let bv = v.to_bits();
    let xa = bv ^ pred_a.to_bits();
    if xa == 0 {
        bw.bit(0);
        return;
    }
    let scaled = try_scaled(v, dt);
    let c_delta = match (scaled, *slot) {
        (Some((k, m)), Some(prev)) => {
            let delta = (m as i64).wrapping_sub(prev.m as i64);
            (delta != i64::MIN).then(|| {
                let kbits = if k == prev.k { 1 } else { 5 };
                (2 + kbits + 1 + umag_cost(delta.unsigned_abs()), k, m, delta)
            })
        }
        _ => None,
    };
    let c_abs = scaled.map(|(k, m)| (4 + 4 + umag_cost(m), k, m));
    let c_xor = 3 + xor_cost(xa);
    let c_int = exact_i64(v).and_then(|iv| {
        let delta = iv.wrapping_sub(pred_i64(pred_a));
        (delta != i64::MIN).then(|| (5 + 1 + umag_cost(delta.unsigned_abs()), delta))
    });
    let c_raw = 5 + 64;

    let mut best = c_xor;
    for c in [
        c_delta.map_or(u32::MAX, |c| c.0),
        c_abs.map_or(u32::MAX, |c| c.0),
        c_int.map_or(u32::MAX, |c| c.0),
        c_raw,
    ] {
        best = best.min(c);
    }

    if Some(best) == c_delta.map(|c| c.0) {
        let (_, k, m, delta) = c_delta.unwrap_or((0, 0, 0, 0));
        bw.bits(0b01, 2);
        let same_k = slot.map(|s| s.k) == Some(k);
        bw.bit(u64::from(same_k));
        if !same_k {
            bw.bits(u64::from(k - 1), 4);
        }
        put_sdelta(bw, delta, &mut lens.mag);
        *slot = Some(SlotState { k, m });
    } else if Some(best) == c_abs.map(|c| c.0) {
        let (_, k, m) = c_abs.unwrap_or((0, 0, 0));
        bw.bits(0b0111, 4);
        bw.bits(u64::from(k - 1), 4);
        put_umag(bw, m, &mut lens.mag);
        *slot = Some(SlotState { k, m });
    } else if best == c_xor {
        bw.bits(0b011, 3);
        put_xor(bw, xa, &mut lens.xor);
    } else if Some(best) == c_int.map(|c| c.0) {
        bw.bits(0b01111, 5);
        put_sdelta(bw, c_int.map(|c| c.1).unwrap_or_default(), &mut lens.mag);
    } else {
        bw.bits(0b11111, 5);
        bw.bits(bv, 64);
    }
}

fn get_sample(
    br: &mut BitReader,
    pred_a: f64,
    dt: f64,
    slot: &mut Option<SlotState>,
    lens: &mut LenCtx,
) -> Result<f64> {
    if br.bit()? == 0 {
        return Ok(pred_a);
    }
    if br.bit()? == 0 {
        // scaled-delta
        let same_k = br.bit()? == 1;
        let k = if same_k {
            slot.map(|s| s.k).ok_or_else(|| {
                Error::InvalidInput("v2 trace: scaled-delta reuses k with no slot state".into())
            })?
        } else {
            br.bits(4)? as u8 + 1
        };
        let prev_m = slot.map(|s| s.m).ok_or_else(|| {
            Error::InvalidInput("v2 trace: scaled-delta with no slot state".into())
        })? as i64;
        let delta = get_sdelta(br, &mut lens.mag)?;
        let m = prev_m.wrapping_add(delta);
        let m_u = u64::try_from(m)
            .map_err(|_| Error::InvalidInput("v2 trace: negative scaled count".into()))?;
        *slot = Some(SlotState { k, m: m_u });
        return Ok((m_u as f64) * scale_factor(dt, u32::from(k), SCALE_TICKS));
    }
    if br.bit()? == 0 {
        return Ok(f64::from_bits(
            pred_a.to_bits() ^ get_xor(br, &mut lens.xor)?,
        ));
    }
    if br.bit()? == 0 {
        // scaled-abs
        let k = br.bits(4)? as u8 + 1;
        let m = get_umag(br, &mut lens.mag)?;
        *slot = Some(SlotState { k, m });
        return Ok((m as f64) * scale_factor(dt, u32::from(k), SCALE_TICKS));
    }
    if br.bit()? == 0 {
        let delta = get_sdelta(br, &mut lens.mag)?;
        return Ok(pred_i64(pred_a).wrapping_add(delta) as f64);
    }
    Ok(f64::from_bits(br.bits(64)?))
}

/// True-counter context: predictor A is the previous interval's value,
/// predictor B the *same interval's* sampled estimate (decoded just
/// before), which shares most high bits with the truth.
///
/// Prefixes: `0` same-A · `10` xor-B · `110` xor-A · `1110` same-B ·
/// `11110` int-A · `11111` raw.
fn put_true(bw: &mut BitWriter, v: f64, pred_a: f64, pred_b: f64, lens: &mut LenCtx) {
    let bv = v.to_bits();
    let xa = bv ^ pred_a.to_bits();
    let xb = bv ^ pred_b.to_bits();
    if xa == 0 {
        bw.bit(0);
        return;
    }
    if xb == 0 {
        bw.bits(0b0111, 4);
        return;
    }
    let c_xor_b = 2 + xor_cost(xb);
    let c_xor_a = 3 + xor_cost(xa);
    let c_int = exact_i64(v).and_then(|iv| {
        let delta = iv.wrapping_sub(pred_i64(pred_a));
        (delta != i64::MIN).then(|| (5 + 1 + umag_cost(delta.unsigned_abs()), delta))
    });
    let c_raw = 5 + 64;
    let mut best = c_xor_b.min(c_xor_a).min(c_raw);
    best = best.min(c_int.map_or(u32::MAX, |c| c.0));

    if best == c_xor_b {
        bw.bits(0b01, 2);
        put_xor(bw, xb, &mut lens.xor);
    } else if best == c_xor_a {
        bw.bits(0b011, 3);
        put_xor(bw, xa, &mut lens.xor);
    } else if Some(best) == c_int.map(|c| c.0) {
        bw.bits(0b01111, 5);
        put_sdelta(bw, c_int.map(|c| c.1).unwrap_or_default(), &mut lens.mag);
    } else {
        bw.bits(0b11111, 5);
        bw.bits(bv, 64);
    }
}

fn get_true(br: &mut BitReader, pred_a: f64, pred_b: f64, lens: &mut LenCtx) -> Result<f64> {
    if br.bit()? == 0 {
        return Ok(pred_a);
    }
    if br.bit()? == 0 {
        return Ok(f64::from_bits(
            pred_b.to_bits() ^ get_xor(br, &mut lens.xor)?,
        ));
    }
    if br.bit()? == 0 {
        return Ok(f64::from_bits(
            pred_a.to_bits() ^ get_xor(br, &mut lens.xor)?,
        ));
    }
    if br.bit()? == 0 {
        return Ok(pred_b);
    }
    if br.bit()? == 0 {
        let delta = get_sdelta(br, &mut lens.mag)?;
        return Ok(pred_i64(pred_a).wrapping_add(delta) as f64);
    }
    Ok(f64::from_bits(br.bits(64)?))
}

// ---------------------------------------------------------------------
// Codec state
// ---------------------------------------------------------------------

/// Shared encoder/decoder state: everything a predictor may reference.
/// Both sides update it under identical rules after each frame.
#[derive(Debug, Default)]
struct Codec {
    prev: Option<IntervalRecord>,
    prev2_temperature: Option<f64>,
    slots: Vec<Option<SlotState>>,
    prev_decision: Option<DecisionRecord>,
    // Length-run contexts, one per field family so the run flags don't
    // thrash between families with different noise floors.
    lens_duration: LenCtx,
    lens_measured: LenCtx,
    lens_temperature: LenCtx,
    // Counter residual magnitudes differ by binades *between events*
    // (a branch counter moves ~2²¹/interval, a cache-miss counter
    // ~2¹⁴), so each event gets its own run context.
    lens_sample: [LenCtx; EVENT_COUNT],
    lens_true: [LenCtx; EVENT_COUNT],
    lens_core_dyn: LenCtx,
    lens_cu_idle: LenCtx,
    lens_nb: LenCtx,
    lens_decision: LenCtx,
}

/// Bitwise equality of two count vectors (`==` would be wrong for NaN
/// and -0.0; the codec's contract is bit-exactness).
fn counts_equal(a: &EventCounts, b: &EventCounts) -> bool {
    a.as_array()
        .iter()
        .zip(b.as_array().iter())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Codec {
    fn prev_f(&self, f: impl Fn(&IntervalRecord) -> f64) -> f64 {
        self.prev.as_ref().map(&f).unwrap_or_default()
    }

    /// Linear temperature extrapolation `2·T₋₁ − T₋₂` (thermal RC
    /// dynamics are smooth, so this matches more high bits than the
    /// previous value alone).
    fn temperature_trend(&self) -> Option<f64> {
        match (&self.prev, self.prev2_temperature) {
            (Some(p), Some(t2)) => Some(2.0 * p.temperature.as_kelvin() - t2),
            _ => None,
        }
    }

    fn lens_sample_get(&self, event: usize) -> LenCtx {
        self.lens_sample.get(event).copied().unwrap_or_default()
    }

    fn lens_sample_set(&mut self, event: usize, lens: LenCtx) {
        if let Some(slot) = self.lens_sample.get_mut(event) {
            *slot = lens;
        }
    }

    fn lens_true_get(&self, event: usize) -> LenCtx {
        self.lens_true.get(event).copied().unwrap_or_default()
    }

    fn lens_true_set(&mut self, event: usize, lens: LenCtx) {
        if let Some(slot) = self.lens_true.get_mut(event) {
            *slot = lens;
        }
    }

    fn slot_get(&self, core: usize, event: usize) -> Option<SlotState> {
        self.slots
            .get(core * EVENT_COUNT + event)
            .copied()
            .flatten()
    }

    fn slot_set(&mut self, core: usize, event: usize, state: Option<SlotState>) {
        let idx = core * EVENT_COUNT + event;
        if self.slots.len() <= idx {
            self.slots.resize(idx + 1, None);
        }
        if let Some(s) = self.slots.get_mut(idx) {
            *s = state;
        }
    }

    fn prev_sample(&self, core: usize, event: usize) -> f64 {
        self.prev
            .as_ref()
            .and_then(|p| p.samples.get(core))
            .map(|s| s.counts.as_array().get(event).copied().unwrap_or_default())
            .unwrap_or_default()
    }

    fn prev_true(&self, core: usize, event: usize) -> f64 {
        self.prev
            .as_ref()
            .and_then(|p| p.true_counts.get(core))
            .map(|c| c.as_array().get(event).copied().unwrap_or_default())
            .unwrap_or_default()
    }

    fn after_interval(&mut self, record: &IntervalRecord) {
        self.prev2_temperature = self
            .prev
            .as_ref()
            .map(|p| p.temperature.as_kelvin())
            .or(self.prev2_temperature);
        self.prev = Some(record.clone());
    }
}

fn vf_bits(table: &VfTable) -> u32 {
    let n = table.len().max(1) as u64;
    64 - (n - 1).leading_zeros().min(63)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn meta_payload(topology: &Topology) -> Vec<u8> {
    let mut p = Vec::new();
    put_str(&mut p, topology.name());
    put_varint(&mut p, topology.cu_count() as u64);
    put_varint(&mut p, topology.cores_per_cu() as u64);
    p.push(u8::from(topology.supports_power_gating()));
    put_f64(&mut p, topology.issue_width());
    put_f64(&mut p, topology.mispredict_penalty_cycles());
    put_varint(&mut p, topology.vf_table().len() as u64);
    for (_, point) in topology.vf_table().iter() {
        put_f64(&mut p, point.voltage.as_volts());
        put_f64(&mut p, point.frequency.as_ghz());
    }
    p
}

/// The six vector lengths of an interval record, in payload order.
pub(crate) fn shape_of(r: &IntervalRecord) -> [usize; 6] {
    [
        r.cu_vf.len(),
        r.core_busy.len(),
        r.samples.len(),
        r.true_counts.len(),
        r.true_power.core_dynamic.len(),
        r.true_power.cu_idle.len(),
    ]
}

const SHAPE_SEQ_INDEX: u8 = 1;
const SHAPE_SAME_LENS: u8 = 2;

fn interval_payload(codec: &mut Codec, r: &IntervalRecord, table: &VfTable) -> Vec<u8> {
    let mut p = Vec::new();
    // Header: a shape byte elides the index (when sequential) and the
    // six vector lengths (when unchanged from the previous interval).
    let seq = codec
        .prev
        .as_ref()
        .is_some_and(|prev| prev.index.0.wrapping_add(1) == r.index.0);
    let same_shape = codec
        .prev
        .as_ref()
        .is_some_and(|prev| shape_of(prev) == shape_of(r));
    let mut flags = 0u8;
    if seq {
        flags |= SHAPE_SEQ_INDEX;
    }
    if same_shape {
        flags |= SHAPE_SAME_LENS;
    }
    p.push(flags);
    if !seq {
        put_varint(&mut p, r.index.0);
    }
    if !same_shape {
        for len in shape_of(r) {
            put_varint(&mut p, len as u64);
        }
    }

    let mut bw = BitWriter::default();
    let nbits = vf_bits(table);
    for vf in &r.cu_vf {
        bw.bits(vf.index() as u64, nbits);
    }
    bw.bit(u64::from(matches!(r.nb_state, NbVfState::High)));
    for b in &r.core_busy {
        bw.bit(u64::from(*b));
    }
    let duration = r.duration.as_secs();
    put_gen(
        &mut bw,
        duration,
        codec.prev_f(|p| p.duration.as_secs()),
        None,
        &mut codec.lens_duration,
    );
    put_gen(
        &mut bw,
        r.measured_power.as_watts(),
        codec.prev_f(|p| p.measured_power.as_watts()),
        None,
        &mut codec.lens_measured,
    );
    put_gen(
        &mut bw,
        r.temperature.as_kelvin(),
        codec.prev_f(|p| p.temperature.as_kelvin()),
        codec.temperature_trend(),
        &mut codec.lens_temperature,
    );
    for (core, s) in r.samples.iter().enumerate() {
        put_gen(
            &mut bw,
            s.duration.as_secs(),
            duration,
            None,
            &mut codec.lens_duration,
        );
        // Row flag: idle cores repeat the previous interval's counts
        // bit-for-bit, so the whole row collapses to one bit.
        let row_same = codec
            .prev
            .as_ref()
            .and_then(|prev| prev.samples.get(core))
            .is_some_and(|ps| counts_equal(&ps.counts, &s.counts));
        bw.bit(u64::from(row_same));
        if row_same {
            continue;
        }
        let dt = s.duration.as_secs() / f64::from(SCALE_TICKS);
        for (event, v) in s.counts.as_array().iter().enumerate() {
            let pred = codec.prev_sample(core, event);
            let mut slot = codec.slot_get(core, event);
            let mut lens = codec.lens_sample_get(event);
            put_sample(&mut bw, *v, pred, dt, &mut slot, &mut lens);
            codec.lens_sample_set(event, lens);
            codec.slot_set(core, event, slot);
        }
    }
    for (core, counts) in r.true_counts.iter().enumerate() {
        let row_same = codec
            .prev
            .as_ref()
            .and_then(|prev| prev.true_counts.get(core))
            .is_some_and(|pc| counts_equal(pc, counts));
        bw.bit(u64::from(row_same));
        if row_same {
            continue;
        }
        let sampled = r.samples.get(core).map(|s| s.counts);
        for (event, v) in counts.as_array().iter().enumerate() {
            let pred_a = codec.prev_true(core, event);
            let pred_b = sampled
                .as_ref()
                .and_then(|c| c.as_array().get(event).copied())
                .unwrap_or_default();
            let mut lens = codec.lens_true_get(event);
            put_true(&mut bw, *v, pred_a, pred_b, &mut lens);
            codec.lens_true_set(event, lens);
        }
    }
    let prev_core_dyn = codec.prev.as_ref().map_or_else(Vec::new, |p| {
        p.true_power
            .core_dynamic
            .iter()
            .map(|w| w.as_watts())
            .collect()
    });
    let prev_cu_idle = codec.prev.as_ref().map_or_else(Vec::new, |p| {
        p.true_power.cu_idle.iter().map(|w| w.as_watts()).collect()
    });
    let mut lens_core_dyn = codec.lens_core_dyn;
    let mut lens_cu_idle = codec.lens_cu_idle;
    {
        // Scoped so the closure's `&mut bw` borrow ends before the
        // writer is used again below.
        let mut chain = |values: &[Watts], prevs: Vec<f64>, lens: &mut LenCtx| {
            let mut last: Option<f64> = None;
            for (v, pa) in values
                .iter()
                .zip(prevs.into_iter().chain(std::iter::repeat(0.0)))
            {
                put_gen(&mut bw, v.as_watts(), pa, last, lens);
                last = Some(v.as_watts());
            }
        };
        chain(
            &r.true_power.core_dynamic,
            prev_core_dyn,
            &mut lens_core_dyn,
        );
        chain(&r.true_power.cu_idle, prev_cu_idle, &mut lens_cu_idle);
    }
    codec.lens_core_dyn = lens_core_dyn;
    codec.lens_cu_idle = lens_cu_idle;
    put_gen(
        &mut bw,
        r.true_power.nb_dynamic.as_watts(),
        codec.prev_f(|p| p.true_power.nb_dynamic.as_watts()),
        None,
        &mut codec.lens_nb,
    );
    put_gen(
        &mut bw,
        r.true_power.nb_idle.as_watts(),
        codec.prev_f(|p| p.true_power.nb_idle.as_watts()),
        None,
        &mut codec.lens_nb,
    );
    put_gen(
        &mut bw,
        r.true_power.base.as_watts(),
        codec.prev_f(|p| p.true_power.base.as_watts()),
        None,
        &mut codec.lens_nb,
    );
    p.extend_from_slice(&bw.finish());
    codec.after_interval(r);
    p
}

/// Appends a fault payload: the interval index, a variant byte and the
/// variant's fields. Shared with the session layer's `FaultReport` and
/// `Evicted` frames. Variants without a dedicated code travel as their
/// rendered message and decode as [`Error::Device`].
pub(crate) fn put_fault(p: &mut Vec<u8>, index: IntervalIndex, error: &Error) {
    put_varint(p, index.0);
    match error {
        Error::SensorDropout { sensor } => {
            p.push(0);
            put_str(p, sensor);
        }
        Error::SensorImplausible { sensor, value } => {
            p.push(1);
            put_str(p, sensor);
            put_f64(p, *value);
        }
        Error::MsrReadFailed { msr } => {
            p.push(2);
            put_varint(p, u64::from(*msr));
        }
        Error::MissedInterval { missed } => {
            p.push(3);
            put_varint(p, u64::from(*missed));
        }
        other => {
            p.push(4);
            put_str(p, &other.to_string());
        }
    }
}

fn apply_payload(codec: &Codec, assignment: &[VfStateId]) -> Vec<u8> {
    let mut p = Vec::new();
    let same = codec
        .prev_decision
        .as_ref()
        .is_some_and(|d| d.chosen == assignment);
    if same {
        p.push(1);
        return p;
    }
    p.push(0);
    put_varint(&mut p, assignment.len() as u64);
    for vf in assignment {
        put_varint(&mut p, vf.index() as u64);
    }
    p
}

const DEC_SEQ_INTERVAL: u8 = 1;
const DEC_SAME_LEN: u8 = 2;
const DEC_SAME_CHOSEN: u8 = 4;

fn decision_payload(codec: &mut Codec, d: &DecisionRecord, table: &VfTable) -> Vec<u8> {
    let mut p = Vec::new();
    let seq = codec
        .prev_decision
        .as_ref()
        .is_some_and(|pd| pd.interval.0.wrapping_add(1) == d.interval.0);
    let same_len = codec
        .prev_decision
        .as_ref()
        .is_some_and(|pd| pd.chosen.len() == d.chosen.len());
    let same_chosen = codec
        .prev_decision
        .as_ref()
        .is_some_and(|pd| pd.chosen == d.chosen);
    let mut flags = 0u8;
    if seq {
        flags |= DEC_SEQ_INTERVAL;
    }
    if same_len {
        flags |= DEC_SAME_LEN;
    }
    if same_chosen {
        flags |= DEC_SAME_CHOSEN;
    }
    p.push(flags);
    if !seq {
        put_varint(&mut p, d.interval.0);
    }
    if !same_len {
        put_varint(&mut p, d.chosen.len() as u64);
    }
    let mut bw = BitWriter::default();
    let nbits = vf_bits(table);
    if !same_chosen {
        for vf in &d.chosen {
            bw.bits(vf.index() as u64, nbits);
        }
    }
    bw.bit(u64::from(d.realized_power.is_some()));
    bw.bit(u64::from(d.predicted_power.is_some()));
    bw.bit(u64::from(d.cap.is_some()));
    bw.bits(
        match d.cap_violated {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        },
        2,
    );
    let measured = codec.prev_f(|p| p.measured_power.as_watts());
    if let Some(w) = d.realized_power {
        put_gen(
            &mut bw,
            w.as_watts(),
            measured,
            None,
            &mut codec.lens_decision,
        );
    }
    if let Some(w) = d.predicted_power {
        let anchor = d.realized_power.map_or(measured, |r| r.as_watts());
        put_gen(
            &mut bw,
            w.as_watts(),
            anchor,
            None,
            &mut codec.lens_decision,
        );
    }
    if let Some(w) = d.cap {
        let prev_cap = codec
            .prev_decision
            .as_ref()
            .and_then(|pd| pd.cap)
            .map_or(0.0, |c| c.as_watts());
        put_gen(
            &mut bw,
            w.as_watts(),
            prev_cap,
            None,
            &mut codec.lens_decision,
        );
    }
    p.extend_from_slice(&bw.finish());
    codec.prev_decision = Some(d.clone());
    p
}

/// Streams trace events into a v2 document, one frame per event.
#[derive(Debug)]
pub struct TraceWriter {
    out: Vec<u8>,
    codec: Codec,
    table: VfTable,
}

impl TraceWriter {
    /// Starts a document with its header and meta frame.
    pub fn new(topology: &Topology) -> Self {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(BINARY_VERSION);
        push_frame(&mut out, FRAME_META, &meta_payload(topology));
        Self {
            out,
            codec: Codec::default(),
            table: topology.vf_table().clone(),
        }
    }

    /// Appends one successful sample.
    pub fn interval(&mut self, record: &IntervalRecord) {
        let payload = interval_payload(&mut self.codec, record, &self.table);
        push_frame(&mut self.out, FRAME_INTERVAL, &payload);
    }

    /// Appends one failed sample.
    pub fn fault(&mut self, index: IntervalIndex, error: &Error) {
        let mut payload = Vec::new();
        put_fault(&mut payload, index, error);
        push_frame(&mut self.out, FRAME_FAULT, &payload);
    }

    /// Appends one applied assignment.
    pub fn apply(&mut self, assignment: &[VfStateId]) {
        let payload = apply_payload(&self.codec, assignment);
        push_frame(&mut self.out, FRAME_APPLY, &payload);
    }

    /// Appends one controller decision annotation.
    pub fn decision(&mut self, decision: &DecisionRecord) {
        let payload = decision_payload(&mut self.codec, decision, &self.table);
        push_frame(&mut self.out, FRAME_DECISION, &payload);
    }

    /// Appends any event.
    pub fn event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Interval(r) => self.interval(r),
            TraceEvent::Fault { index, error } => self.fault(*index, error),
            TraceEvent::Apply(assignment) => self.apply(assignment),
            TraceEvent::Decision(d) => self.decision(d),
        }
    }

    /// The document so far, closed with an end frame (the writer keeps
    /// streaming).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut doc = self.out.clone();
        push_frame(&mut doc, FRAME_END, &[]);
        doc
    }

    /// Closes the document with its end frame. Without that frame a
    /// trace cut exactly at a frame boundary would decode as a shorter
    /// valid document.
    pub fn finish(mut self) -> Vec<u8> {
        push_frame(&mut self.out, FRAME_END, &[]);
        self.out
    }
}

/// Encodes a parsed trace as a v2 binary document.
pub fn encode(trace: &TraceReader) -> Vec<u8> {
    let mut writer = TraceWriter::new(&trace.topology);
    for event in &trace.events {
        writer.event(event);
    }
    writer.finish()
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn parse_meta(payload: &[u8]) -> Result<Topology> {
    let mut r = ByteReader::new(payload, CTX);
    let name = r.str_("topology name")?.to_string();
    let cu_count = r.usize_capped("cu count", 4096)?;
    let cores_per_cu = r.usize_capped("cores per cu", 4096)?;
    let power_gating = r.u8("power gating flag")? != 0;
    let issue_width = r.f64("issue width")?;
    let mispredict = r.f64("mispredict penalty")?;
    let states = r.usize_capped("vf state count", r.remaining() / 16 + 1)?;
    let mut points = Vec::with_capacity(states);
    for _ in 0..states {
        let v = r.f64("vf voltage")?;
        let f = r.f64("vf frequency")?;
        points.push(VfPoint::new(Volts::new(v), Gigahertz::new(f)));
    }
    Topology::new(
        &name,
        cu_count,
        cores_per_cu,
        VfTable::new(points)?,
        power_gating,
        issue_width,
        mispredict,
    )
}

fn parse_interval(
    codec: &mut Codec,
    payload: &[u8],
    topology: &Topology,
) -> Result<IntervalRecord> {
    let table = topology.vf_table();
    let mut r = ByteReader::new(payload, CTX);
    let flags = r.u8("interval shape flags")?;
    let index = if flags & SHAPE_SEQ_INDEX != 0 {
        let prev = codec.prev.as_ref().ok_or_else(|| {
            Error::InvalidInput("v2 trace: sequential index with no previous interval".into())
        })?;
        IntervalIndex(prev.index.0.wrapping_add(1))
    } else {
        IntervalIndex(r.varint("interval index")?)
    };
    const LEN_CAP: usize = 65_536;
    let [cu_vf_len, busy_len, samples_len, true_len, core_dyn_len, cu_idle_len] =
        if flags & SHAPE_SAME_LENS != 0 {
            let prev = codec.prev.as_ref().ok_or_else(|| {
                Error::InvalidInput("v2 trace: same-shape flag with no previous interval".into())
            })?;
            shape_of(prev)
        } else {
            [
                r.usize_capped("cu_vf length", LEN_CAP)?,
                r.usize_capped("core_busy length", LEN_CAP)?,
                r.usize_capped("samples length", LEN_CAP)?,
                r.usize_capped("true_counts length", LEN_CAP)?,
                r.usize_capped("core_dynamic length", LEN_CAP)?,
                r.usize_capped("cu_idle length", LEN_CAP)?,
            ]
        };
    let bits = r.take(r.remaining(), "interval bit stream")?;
    let mut br = BitReader::new(bits);

    let nbits = vf_bits(table);
    let mut cu_vf = Vec::with_capacity(cu_vf_len);
    for _ in 0..cu_vf_len {
        let idx = br.bits(nbits)? as usize;
        cu_vf.push(table.state(idx)?);
    }
    let nb_state = if br.bit()? == 1 {
        NbVfState::High
    } else {
        NbVfState::Low
    };
    let mut core_busy = Vec::with_capacity(busy_len);
    for _ in 0..busy_len {
        core_busy.push(br.bit()? == 1);
    }
    let duration = get_gen(
        &mut br,
        codec.prev_f(|p| p.duration.as_secs()),
        None,
        &mut codec.lens_duration,
    )?;
    let measured_power = get_gen(
        &mut br,
        codec.prev_f(|p| p.measured_power.as_watts()),
        None,
        &mut codec.lens_measured,
    )?;
    let temperature = get_gen(
        &mut br,
        codec.prev_f(|p| p.temperature.as_kelvin()),
        codec.temperature_trend(),
        &mut codec.lens_temperature,
    )?;
    let mut samples = Vec::with_capacity(samples_len);
    for core in 0..samples_len {
        let s_duration = get_gen(&mut br, duration, None, &mut codec.lens_duration)?;
        let dt = s_duration / f64::from(SCALE_TICKS);
        let row_same = br.bit()? == 1;
        let counts = if row_same {
            codec
                .prev
                .as_ref()
                .and_then(|prev| prev.samples.get(core))
                .map(|s| s.counts)
                .ok_or_else(|| {
                    Error::InvalidInput("v2 trace: sample row reuse with no previous row".into())
                })?
        } else {
            let mut arr = [0.0; EVENT_COUNT];
            for (event, out) in arr.iter_mut().enumerate() {
                let pred = codec.prev_sample(core, event);
                let mut slot = codec.slot_get(core, event);
                let mut lens = codec.lens_sample_get(event);
                *out = get_sample(&mut br, pred, dt, &mut slot, &mut lens)?;
                codec.lens_sample_set(event, lens);
                codec.slot_set(core, event, slot);
            }
            EventCounts::from_array(arr)
        };
        samples.push(IntervalSample {
            counts,
            duration: Seconds::new(s_duration),
        });
    }
    let mut true_counts = Vec::with_capacity(true_len);
    for core in 0..true_len {
        let row_same = br.bit()? == 1;
        let counts = if row_same {
            codec
                .prev
                .as_ref()
                .and_then(|prev| prev.true_counts.get(core))
                .copied()
                .ok_or_else(|| {
                    Error::InvalidInput(
                        "v2 trace: true-count row reuse with no previous row".into(),
                    )
                })?
        } else {
            let sampled = samples.get(core).map(|s| s.counts);
            let mut arr = [0.0; EVENT_COUNT];
            for (event, out) in arr.iter_mut().enumerate() {
                let pred_a = codec.prev_true(core, event);
                let pred_b = sampled
                    .as_ref()
                    .and_then(|c| c.as_array().get(event).copied())
                    .unwrap_or_default();
                let mut lens = codec.lens_true_get(event);
                *out = get_true(&mut br, pred_a, pred_b, &mut lens)?;
                codec.lens_true_set(event, lens);
            }
            EventCounts::from_array(arr)
        };
        true_counts.push(counts);
    }
    let chain =
        |br: &mut BitReader, n: usize, prevs: Vec<f64>, lens: &mut LenCtx| -> Result<Vec<Watts>> {
            let mut out = Vec::with_capacity(n);
            let mut last: Option<f64> = None;
            let mut prev_iter = prevs.into_iter().chain(std::iter::repeat(0.0));
            for _ in 0..n {
                let pa = prev_iter.next().unwrap_or_default();
                let v = get_gen(br, pa, last, lens)?;
                last = Some(v);
                out.push(Watts::new(v));
            }
            Ok(out)
        };
    let prev_core_dyn = codec.prev.as_ref().map_or_else(Vec::new, |p| {
        p.true_power
            .core_dynamic
            .iter()
            .map(|w| w.as_watts())
            .collect()
    });
    let prev_cu_idle = codec.prev.as_ref().map_or_else(Vec::new, |p| {
        p.true_power.cu_idle.iter().map(|w| w.as_watts()).collect()
    });
    let mut lens_core_dyn = codec.lens_core_dyn;
    let mut lens_cu_idle = codec.lens_cu_idle;
    let core_dynamic = chain(&mut br, core_dyn_len, prev_core_dyn, &mut lens_core_dyn)?;
    let cu_idle = chain(&mut br, cu_idle_len, prev_cu_idle, &mut lens_cu_idle)?;
    codec.lens_core_dyn = lens_core_dyn;
    codec.lens_cu_idle = lens_cu_idle;
    let nb_dynamic = get_gen(
        &mut br,
        codec.prev_f(|p| p.true_power.nb_dynamic.as_watts()),
        None,
        &mut codec.lens_nb,
    )?;
    let nb_idle = get_gen(
        &mut br,
        codec.prev_f(|p| p.true_power.nb_idle.as_watts()),
        None,
        &mut codec.lens_nb,
    )?;
    let base = get_gen(
        &mut br,
        codec.prev_f(|p| p.true_power.base.as_watts()),
        None,
        &mut codec.lens_nb,
    )?;

    let record = IntervalRecord {
        index,
        duration: Seconds::new(duration),
        samples,
        true_counts,
        measured_power: Watts::new(measured_power),
        true_power: PowerBreakdown {
            core_dynamic,
            nb_dynamic: Watts::new(nb_dynamic),
            cu_idle,
            nb_idle: Watts::new(nb_idle),
            base: Watts::new(base),
        },
        temperature: Kelvin::new(temperature),
        cu_vf,
        nb_state,
        core_busy,
    };
    codec.after_interval(&record);
    Ok(record)
}

/// Reconstructs a recorded sensor name as the `&'static str` the
/// error variants require; unknown names map to a generic label.
fn static_sensor_name(name: &str) -> &'static str {
    match name {
        "hall-sensor" => "hall-sensor",
        "thermal-diode" => "thermal-diode",
        "projection" => "projection",
        _ => "replayed-sensor",
    }
}

/// Reads the fault payload [`put_fault`] wrote.
pub(crate) fn read_fault(r: &mut ByteReader<'_>) -> Result<(IntervalIndex, Error)> {
    let index = IntervalIndex(r.varint("fault index")?);
    let error = match r.u8("fault kind")? {
        0 => Error::SensorDropout {
            sensor: static_sensor_name(r.str_("fault sensor")?),
        },
        1 => Error::SensorImplausible {
            sensor: static_sensor_name(r.str_("fault sensor")?),
            value: r.f64("fault value")?,
        },
        2 => Error::MsrReadFailed {
            msr: r.u32_of("fault msr")?,
        },
        3 => Error::MissedInterval {
            missed: r.u32_of("fault missed count")?,
        },
        4 => Error::Device(r.str_("fault message")?.to_string()),
        other => return Err(r.invalid(format_args!("unknown fault kind {other}"))),
    };
    Ok((index, error))
}

fn parse_apply(codec: &Codec, payload: &[u8], table: &VfTable) -> Result<Vec<VfStateId>> {
    let mut r = ByteReader::new(payload, CTX);
    if r.u8("apply flag")? == 1 {
        return codec
            .prev_decision
            .as_ref()
            .map(|d| d.chosen.clone())
            .ok_or_else(|| {
                Error::InvalidInput("v2 trace: apply references a missing decision".into())
            });
    }
    let n = r.usize_capped("apply length", 65_536)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.usize_capped("apply vf index", table.len().saturating_sub(1))?;
        out.push(table.state(idx)?);
    }
    Ok(out)
}

fn parse_decision(codec: &mut Codec, payload: &[u8], table: &VfTable) -> Result<DecisionRecord> {
    let mut r = ByteReader::new(payload, CTX);
    let flags = r.u8("decision flags")?;
    let prev_missing =
        || Error::InvalidInput("v2 trace: decision back-reference with no predecessor".into());
    let interval = if flags & DEC_SEQ_INTERVAL != 0 {
        let pd = codec.prev_decision.as_ref().ok_or_else(prev_missing)?;
        IntervalIndex(pd.interval.0.wrapping_add(1))
    } else {
        IntervalIndex(r.varint("decision interval")?)
    };
    let chosen_len = if flags & DEC_SAME_LEN != 0 {
        codec
            .prev_decision
            .as_ref()
            .ok_or_else(prev_missing)?
            .chosen
            .len()
    } else {
        r.usize_capped("decision length", 65_536)?
    };
    let bits = r.take(r.remaining(), "decision bit stream")?;
    let mut br = BitReader::new(bits);
    let nbits = vf_bits(table);
    let chosen = if flags & DEC_SAME_CHOSEN != 0 {
        codec
            .prev_decision
            .as_ref()
            .ok_or_else(prev_missing)?
            .chosen
            .clone()
    } else {
        let mut chosen = Vec::with_capacity(chosen_len);
        for _ in 0..chosen_len {
            let idx = br.bits(nbits)? as usize;
            chosen.push(table.state(idx)?);
        }
        chosen
    };
    let has_realized = br.bit()? == 1;
    let has_predicted = br.bit()? == 1;
    let has_cap = br.bit()? == 1;
    let cap_violated = match br.bits(2)? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        other => {
            return Err(Error::InvalidInput(format!(
                "v2 trace: bad cap verdict {other}"
            )))
        }
    };
    let measured = codec.prev_f(|p| p.measured_power.as_watts());
    let realized_power = if has_realized {
        Some(Watts::new(get_gen(
            &mut br,
            measured,
            None,
            &mut codec.lens_decision,
        )?))
    } else {
        None
    };
    let predicted_power = if has_predicted {
        let anchor = realized_power.map_or(measured, |w| w.as_watts());
        Some(Watts::new(get_gen(
            &mut br,
            anchor,
            None,
            &mut codec.lens_decision,
        )?))
    } else {
        None
    };
    let cap = if has_cap {
        let prev_cap = codec
            .prev_decision
            .as_ref()
            .and_then(|pd| pd.cap)
            .map_or(0.0, |c| c.as_watts());
        Some(Watts::new(get_gen(
            &mut br,
            prev_cap,
            None,
            &mut codec.lens_decision,
        )?))
    } else {
        None
    };
    let decision = DecisionRecord {
        interval,
        chosen,
        predicted_power,
        realized_power,
        cap,
        cap_violated,
    };
    codec.prev_decision = Some(decision.clone());
    Ok(decision)
}

/// Decodes a v2 binary trace document.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] on a bad magic or version, a
/// truncated document, a frame whose CRC does not match its payload,
/// or payload values inconsistent with the recorded topology.
pub fn decode(src: &[u8]) -> Result<TraceReader> {
    let mut r = ByteReader::new(src, CTX);
    if r.take(MAGIC.len(), "magic")? != MAGIC {
        return Err(Error::InvalidInput(
            "v2 trace: bad magic (not a binary trace)".into(),
        ));
    }
    let version = r.u8("version")?;
    if version != BINARY_VERSION {
        return Err(Error::InvalidInput(format!(
            "v2 trace: unsupported binary version {version} \
             (this reader speaks {BINARY_VERSION})"
        )));
    }
    let mut rest = r.take(r.remaining(), "frames")?;
    let mut topology: Option<Topology> = None;
    let mut events = Vec::new();
    let mut codec = Codec::default();
    let mut saw_end = false;
    while !rest.is_empty() {
        let (kind, payload, consumed) = split_frame(rest, CTX)?;
        rest = rest.get(consumed..).unwrap_or_default();
        match (kind, &topology) {
            (FRAME_END, Some(_)) => {
                if !payload.is_empty() {
                    return Err(Error::InvalidInput(
                        "v2 trace: end frame carries a payload".into(),
                    ));
                }
                if !rest.is_empty() {
                    return Err(Error::InvalidInput(
                        "v2 trace: trailing bytes after the end frame".into(),
                    ));
                }
                saw_end = true;
            }
            (FRAME_META, None) => topology = Some(parse_meta(payload)?),
            (FRAME_META, Some(_)) => {
                return Err(Error::InvalidInput("v2 trace: duplicate meta frame".into()))
            }
            (_, None) => {
                return Err(Error::InvalidInput(
                    "v2 trace: first frame must be the meta frame".into(),
                ))
            }
            (FRAME_INTERVAL, Some(topo)) => {
                events.push(TraceEvent::Interval(parse_interval(
                    &mut codec, payload, topo,
                )?));
            }
            (FRAME_FAULT, Some(_)) => {
                let mut r = ByteReader::new(payload, CTX);
                let (index, error) = read_fault(&mut r)?;
                r.finish("fault payload")?;
                events.push(TraceEvent::Fault { index, error });
            }
            (FRAME_APPLY, Some(topo)) => {
                events.push(TraceEvent::Apply(parse_apply(
                    &codec,
                    payload,
                    topo.vf_table(),
                )?));
            }
            (FRAME_DECISION, Some(topo)) => {
                events.push(TraceEvent::Decision(parse_decision(
                    &mut codec,
                    payload,
                    topo.vf_table(),
                )?));
            }
            (other, Some(_)) => {
                return Err(Error::InvalidInput(format!(
                    "v2 trace: unknown frame kind {other}"
                )))
            }
        }
    }
    let topology = topology
        .ok_or_else(|| Error::InvalidInput("v2 trace: empty document (no meta frame)".into()))?;
    if !saw_end {
        return Err(Error::InvalidInput(
            "v2 trace: missing end frame (document truncated?)".into(),
        ));
    }
    Ok(TraceReader { topology, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppep_pmc::EventId;

    fn toy_topology() -> Topology {
        Topology::fx8320()
    }

    fn toy_record(index: u64, table: &VfTable) -> IntervalRecord {
        let mut counts = EventCounts::zero();
        counts.set(EventId::RetiredInstructions, 1.0e9 + index as f64 / 3.0);
        counts.set(EventId::RetiredUops, 1.25e9);
        IntervalRecord {
            index: IntervalIndex(index),
            duration: Seconds::new(0.2),
            samples: vec![
                IntervalSample {
                    counts,
                    duration: Seconds::new(0.2),
                };
                8
            ],
            true_counts: vec![counts; 8],
            measured_power: Watts::new(95.25 + index as f64 / 7.0),
            true_power: PowerBreakdown {
                core_dynamic: vec![Watts::new(5.5); 8],
                nb_dynamic: Watts::new(4.25),
                cu_idle: vec![Watts::new(6.125); 4],
                nb_idle: Watts::new(3.5),
                base: Watts::new(20.0),
            },
            temperature: Kelvin::new(330.0 + 2.0 / 3.0 + index as f64 * 0.001),
            cu_vf: vec![table.highest(); 4],
            nb_state: NbVfState::High,
            core_busy: vec![true, false, true, false, true, false, true, false],
        }
    }

    fn toy_trace() -> TraceReader {
        let topo = toy_topology();
        let table = topo.vf_table().clone();
        let mut events = Vec::new();
        for i in 0..4u64 {
            events.push(TraceEvent::Interval(toy_record(i, &table)));
            events.push(TraceEvent::Decision(DecisionRecord {
                interval: IntervalIndex(i),
                chosen: vec![table.lowest(); 4],
                predicted_power: Some(Watts::new(60.5 + i as f64 / 3.0)),
                realized_power: Some(Watts::new(95.25 + i as f64 / 7.0)),
                cap: Some(Watts::new(70.0)),
                cap_violated: Some(true),
            }));
            events.push(TraceEvent::Apply(vec![table.lowest(); 4]));
        }
        events.push(TraceEvent::Fault {
            index: IntervalIndex(4),
            error: Error::SensorImplausible {
                sensor: "thermal-diode",
                value: 1.0e9,
            },
        });
        TraceReader {
            topology: topo,
            events,
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        let trace = toy_trace();
        let doc = encode(&trace);
        assert!(doc.starts_with(&MAGIC));
        let back = decode(&doc).unwrap();
        assert_eq!(back.topology, trace.topology);
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn beats_the_jsonl_dump_on_repetitive_traces() {
        let trace = toy_trace();
        let dump = trace.to_jsonl();
        let v2 = encode(&trace);
        assert!(
            v2.len() * 5 <= dump.len(),
            "v2 {} bytes should be >=5x smaller than the {} byte JSONL dump",
            v2.len(),
            dump.len()
        );
    }

    #[test]
    fn a_streaming_writer_hands_out_decodable_prefixes() {
        let trace = toy_trace();
        let mut writer = TraceWriter::new(&trace.topology);
        assert!(decode(&writer.to_bytes()).unwrap().events.is_empty());
        for (i, event) in trace.events.iter().enumerate() {
            writer.event(event);
            let so_far = decode(&writer.to_bytes()).unwrap();
            assert_eq!(so_far.events.get(..), trace.events.get(..=i));
        }
        assert_eq!(writer.to_bytes(), encode(&trace));
        assert_eq!(writer.finish(), encode(&trace));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let doc = encode(&toy_trace());
        for cut in 0..doc.len().saturating_sub(1) {
            let sliced = doc.get(..cut).unwrap_or_default();
            assert!(
                decode(sliced).is_err(),
                "truncation at {cut}/{} must not decode",
                doc.len()
            );
        }
    }

    #[test]
    fn corrupted_bytes_never_round_trip_silently() {
        let trace = toy_trace();
        let doc = encode(&trace);
        // Flip one bit in every byte position: either the decoder
        // errors (crc/magic/structure) or — never — returns the
        // original events unchanged with no error.
        for pos in 0..doc.len() {
            let mut bad = doc.clone();
            if let Some(b) = bad.get_mut(pos) {
                *b ^= 0x10;
            }
            if let Ok(back) = decode(&bad) {
                assert_ne!(
                    (back.topology, back.events),
                    (trace.topology.clone(), trace.events.clone()),
                    "flipped bit at {pos} decoded back to the original"
                );
            }
        }
    }

    #[test]
    fn scaled_mode_reconstructs_extrapolated_counts() {
        let dt = 0.2 / f64::from(SCALE_TICKS);
        for k in 1..=SCALE_TICKS {
            let factor = scale_factor(dt, k, SCALE_TICKS);
            let v = 123_456_789.0 * factor;
            let (kk, m) = try_scaled(v, dt).expect("scaled form exists");
            assert_eq!(
                ((m as f64) * scale_factor(dt, u32::from(kk), SCALE_TICKS)).to_bits(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn special_floats_survive() {
        let values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.0e-308,
        ];
        for v in values {
            for pred in [0.0, 1.0, f64::NAN, v] {
                let mut bw = BitWriter::default();
                let mut enc_lens = LenCtx::default();
                let mut dec_lens = LenCtx::default();
                put_gen(&mut bw, v, pred, None, &mut enc_lens);
                let bytes = bw.finish();
                let mut br = BitReader::new(&bytes);
                let back = get_gen(&mut br, pred, None, &mut dec_lens).unwrap();
                assert_eq!(back.to_bits(), v.to_bits(), "v={v}, pred={pred}");
            }
        }
    }
}
