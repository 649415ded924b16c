//! The `MetricsSnapshot` wire frame: accuracy scorekeeping and SLO
//! aggregates on the v2 binary framing.
//!
//! PR 8 closes the predict→actuate→measure loop with an in-process
//! [`ppep_obs::PredictionScorer`]; this module is how those numbers
//! leave the process. A snapshot rides the same
//! `kind, payload_len varint, payload, crc32(payload) u32-le` envelope
//! ([`crate::frame`]) as v2 trace frames (kinds 0–5) and session
//! frames (kinds 16–18, 21, 22 and 25–27), in its own disjoint kind —
//! [`FRAME_METRICS_SNAPSHOT`] (24) — so a snapshot can be appended to
//! either stream and still fail loudly if the streams are ever
//! confused.
//!
//! The payload is a pure summary (counts, means, EWMAs, quantiles,
//! drift flags), deliberately *not* the raw error series: a tenant's
//! scorecard is a few hundred bytes per export regardless of run
//! length.

use crate::frame::{push_frame, put_f64, put_varint, split_frame, ByteReader};
use ppep_obs::{ErrorTrack, PredictionScorer};
use ppep_types::{Error, Result};

/// Frame kind byte for [`MetricsSnapshot`] — disjoint from the v2
/// trace kinds (0–5) and the session kinds (16–18, 21, 22, 25–27).
pub const FRAME_METRICS_SNAPSHOT: u8 = 24;

/// Error-message context of the snapshot reader.
const CTX: &str = "metrics snapshot";

/// Summary statistics of one tracked error series (per-core CPI APE
/// or chip-power APE), in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStat {
    /// Predicted-vs-measured pairs scored.
    pub count: u64,
    /// Mean APE.
    pub mean_pct: f64,
    /// Short-window (reactive) EWMA of the APE series.
    pub ewma_pct: f64,
    /// Long-window (baseline) EWMA of the APE series.
    pub baseline_pct: f64,
    /// Bucket-resolution p99 of the APE series.
    pub p99_pct: f64,
    /// Largest APE seen.
    pub max_pct: f64,
    /// Whether the drift trip-wire is currently tripped.
    pub drifted: bool,
}

impl ErrorStat {
    /// Summarizes one scorer track.
    pub fn from_track(track: &ErrorTrack) -> Self {
        Self {
            count: track.scored(),
            mean_pct: track.mean_pct(),
            ewma_pct: track.drift().short_pct(),
            baseline_pct: track.drift().baseline_pct(),
            p99_pct: track.percentile_pct(0.99),
            max_pct: track.max_pct(),
            drifted: track.drift().tripped(),
        }
    }
}

/// Per-tenant service-level aggregates riding along with the accuracy
/// stats (the serving layer's `SloTracker` fills these in; standalone
/// daemons leave them out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// Fraction of intervals with an informed (fresh or held)
    /// decision.
    pub availability: f64,
    /// Fraction of capped intervals whose measured power respected
    /// the cap in force.
    pub cap_adherence: f64,
    /// Bucket-resolution p99 of the service's reply latency, µs.
    pub p99_reply_us: f64,
}

/// One exported accuracy/SLO scorecard for one tenant (or the whole
/// daemon, with `tenant` 0 outside the serving layer).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The tenant the snapshot describes.
    pub tenant: u64,
    /// Intervals scored when the snapshot was taken.
    pub interval: u64,
    /// Per-core CPI error summaries, core order.
    pub cores: Vec<ErrorStat>,
    /// Chip-power error summary.
    pub power: ErrorStat,
    /// Service-level aggregates, when exported by the serving layer.
    pub slo: Option<SloSummary>,
}

impl MetricsSnapshot {
    /// Builds a snapshot from a live scorer.
    pub fn from_scorer(tenant: u64, scorer: &PredictionScorer, slo: Option<SloSummary>) -> Self {
        Self {
            tenant,
            interval: scorer.intervals(),
            cores: scorer.cores().iter().map(ErrorStat::from_track).collect(),
            power: ErrorStat::from_track(scorer.power()),
            slo,
        }
    }
}

fn put_stat(out: &mut Vec<u8>, s: &ErrorStat) {
    put_varint(out, s.count);
    put_f64(out, s.mean_pct);
    put_f64(out, s.ewma_pct);
    put_f64(out, s.baseline_pct);
    put_f64(out, s.p99_pct);
    put_f64(out, s.max_pct);
    out.push(u8::from(s.drifted));
}

fn read_stat(r: &mut ByteReader<'_>) -> Result<ErrorStat> {
    let count = r.varint("stat count")?;
    let mean_pct = r.f64("stat mean")?;
    let ewma_pct = r.f64("stat ewma")?;
    let baseline_pct = r.f64("stat baseline")?;
    let p99_pct = r.f64("stat p99")?;
    let max_pct = r.f64("stat max")?;
    let drifted = match r.u8("stat drift flag")? {
        0 => false,
        1 => true,
        other => return Err(r.invalid(format_args!("bad drift flag {other}"))),
    };
    Ok(ErrorStat {
        count,
        mean_pct,
        ewma_pct,
        baseline_pct,
        p99_pct,
        max_pct,
        drifted,
    })
}

/// Appends `snap` to `out` in the v2 framing
/// (`kind, payload_len varint, payload, crc32`).
pub fn encode_snapshot(snap: &MetricsSnapshot, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    put_varint(&mut payload, snap.tenant);
    put_varint(&mut payload, snap.interval);
    put_varint(&mut payload, snap.cores.len() as u64);
    for s in &snap.cores {
        put_stat(&mut payload, s);
    }
    put_stat(&mut payload, &snap.power);
    match &snap.slo {
        Some(slo) => {
            payload.push(1);
            put_f64(&mut payload, slo.availability);
            put_f64(&mut payload, slo.cap_adherence);
            put_f64(&mut payload, slo.p99_reply_us);
        }
        None => payload.push(0),
    }
    push_frame(out, FRAME_METRICS_SNAPSHOT, &payload);
}

/// Encodes one snapshot into a fresh buffer.
pub fn snapshot_to_bytes(snap: &MetricsSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    encode_snapshot(snap, &mut out);
    out
}

/// Decodes the first snapshot frame of `src`, returning it and the
/// bytes consumed.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] on truncation, a CRC mismatch, a
/// wrong frame kind, or a malformed payload.
pub fn decode_snapshot(src: &[u8]) -> Result<(MetricsSnapshot, usize)> {
    let (kind, payload, consumed) = split_frame(src, CTX)?;
    if kind != FRAME_METRICS_SNAPSHOT {
        return Err(Error::InvalidInput(format!(
            "{CTX}: kind {kind} is not {FRAME_METRICS_SNAPSHOT}"
        )));
    }
    let mut r = ByteReader::new(payload, CTX);
    let tenant = r.varint("snapshot tenant")?;
    let interval = r.varint("snapshot interval")?;
    let n = r.usize_capped("snapshot core count", 4096)?;
    let mut cores = Vec::with_capacity(n);
    for _ in 0..n {
        cores.push(read_stat(&mut r)?);
    }
    let power = read_stat(&mut r)?;
    let slo = match r.u8("snapshot slo flag")? {
        0 => None,
        1 => Some(SloSummary {
            availability: r.f64("slo availability")?,
            cap_adherence: r.f64("slo cap adherence")?,
            p99_reply_us: r.f64("slo reply p99")?,
        }),
        other => return Err(r.invalid(format_args!("bad slo flag {other}"))),
    };
    r.finish("snapshot payload")?;
    Ok((
        MetricsSnapshot {
            tenant,
            interval,
            cores,
            power,
            slo,
        },
        consumed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            tenant: 3,
            interval: 41,
            cores: vec![
                ErrorStat {
                    count: 40,
                    mean_pct: 2.7,
                    ewma_pct: 2.9,
                    baseline_pct: 2.6,
                    p99_pct: 10.0,
                    max_pct: 14.5,
                    drifted: false,
                },
                ErrorStat {
                    count: 38,
                    mean_pct: 9.1,
                    ewma_pct: 31.0,
                    baseline_pct: 6.0,
                    p99_pct: 50.0,
                    max_pct: 61.2,
                    drifted: true,
                },
            ],
            power: ErrorStat {
                count: 41,
                mean_pct: 4.6,
                ewma_pct: 4.4,
                baseline_pct: 4.7,
                p99_pct: 20.0,
                max_pct: 19.8,
                drifted: false,
            },
            slo: Some(SloSummary {
                availability: 0.975,
                cap_adherence: 1.0,
                p99_reply_us: 850.0,
            }),
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        for snap in [
            sample(),
            MetricsSnapshot {
                slo: None,
                cores: Vec::new(),
                ..sample()
            },
        ] {
            let bytes = snapshot_to_bytes(&snap);
            let (back, consumed) = decode_snapshot(&bytes).expect("snapshot decodes");
            assert_eq!(consumed, bytes.len(), "whole frame consumed");
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn from_scorer_summarizes_the_live_tracks() {
        let mut scorer = PredictionScorer::new(2);
        for _ in 0..10 {
            scorer.score_core_cpi(0, 1.03, Some(1.0));
            scorer.score_core_cpi(1, 2.0, Some(1.0));
            scorer.score_power(95.0, 100.0);
            scorer.note_interval();
        }
        let snap = MetricsSnapshot::from_scorer(7, &scorer, None);
        assert_eq!(snap.tenant, 7);
        assert_eq!(snap.interval, 10);
        assert_eq!(snap.cores.len(), 2);
        assert_eq!(snap.cores[0].count, 10);
        assert!((snap.cores[0].mean_pct - 3.0).abs() < 1e-9);
        assert!((snap.cores[1].mean_pct - 100.0).abs() < 1e-9);
        assert!((snap.power.mean_pct - 5.0).abs() < 1e-9);
        assert_eq!(snap.slo, None);
        // And the summary survives the wire.
        let (back, _) = decode_snapshot(&snapshot_to_bytes(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn corrupted_and_truncated_snapshots_are_rejected() {
        let bytes = snapshot_to_bytes(&sample());
        // Flip one payload bit: the CRC must catch it.
        for i in 2..bytes.len().saturating_sub(4) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            assert!(
                decode_snapshot(&corrupt).is_err(),
                "bit flip at {i} must be rejected"
            );
        }
        // Every strict prefix is truncated.
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(bytes.get(..cut).unwrap_or_default()).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn snapshot_kind_is_disjoint_from_trace_and_session_kinds() {
        // Trace kinds are 0–5; the snapshot gets its own byte so mixed
        // streams fail loudly. `session_kinds_stay_clear_of_trace_kinds`
        // checks it against every session kind.
        const {
            assert!(FRAME_METRICS_SNAPSHOT > 5);
        }
        // A session decoder must refuse the snapshot kind.
        let bytes = snapshot_to_bytes(&sample());
        assert!(crate::session::decode_frame(&bytes, &ppep_types::Topology::fx8320()).is_err());
    }
}
