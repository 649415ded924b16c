//! Wire robustness of the binary `Submit` and `FaultReport` payloads.
//!
//! - A `Submit` round-trips every `f64` bit-exactly (compared with
//!   `to_bits`), including NaNs carrying payload bits, `-0.0`, the
//!   infinities, subnormals and counters next to the 48-bit wrap.
//! - Every strict prefix of a `Submit` or `FaultReport` is rejected.
//! - Hostile payloads (a length past the cap, a VF index past the
//!   ladder, a flag byte outside {0, 1}, trailing bytes, a retired
//!   kind) give a typed `Error::InvalidInput`, and decoding them makes
//!   no allocation larger than the frame itself.

use ppep_pmc::events::EVENT_COUNT;
use ppep_pmc::sampler::IntervalSample;
use ppep_pmc::EventCounts;
use ppep_telemetry::frame::crc32;
use ppep_telemetry::session::{
    decode_frame, frame_to_bytes, SessionFrame, FRAME_FAULT_REPORT, FRAME_SUBMIT,
};
use ppep_telemetry::{IntervalRecord, PowerBreakdown};
use ppep_types::time::IntervalIndex;
use ppep_types::vf::NbVfState;
use ppep_types::{Error, Kelvin, Seconds, Topology, Watts};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single allocation made on each thread, so a
/// test can bound what decoding a hostile frame asked for.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to `System`; the bookkeeping
// only touches a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

fn topology() -> Topology {
    Topology::fx8320()
}

/// The values that break a text codec: NaNs with payload bits, signed
/// zeros, infinities, subnormals, and counters around the 48-bit wrap.
const SPECIALS: [u64; 14] = [
    0x7FF8_0000_0000_1234, // quiet NaN with a payload
    0x7FF0_0000_0000_0001, // signalling NaN
    0xFFF8_0000_DEAD_BEEF, // negative NaN with a payload
    0x8000_0000_0000_0000, // -0.0
    0x0000_0000_0000_0000, // +0.0
    0x7FF0_0000_0000_0000, // +inf
    0xFFF0_0000_0000_0000, // -inf
    0x0000_0000_0000_0001, // smallest subnormal
    0x000F_FFFF_FFFF_FFFF, // largest subnormal
    0x800F_FFFF_FFFF_FFFF, // negative subnormal
    0x42EF_FFFF_FFFF_FFE0, // 2^48 - 1
    0x42F0_0000_0000_0000, // 2^48
    0x42F0_0000_0000_0010, // 2^48 + 1
    0x42EF_FFFF_FFFF_FFC0, // 2^48 - 2
];

/// One salted `f64` per seed: a special value, arbitrary bits, or an
/// integer counter below 2^48.
fn salt(seed: u64) -> f64 {
    match seed % 3 {
        0 => f64::from_bits(SPECIALS[(seed / 3) as usize % SPECIALS.len()]),
        1 => f64::from_bits(seed.rotate_left(29)),
        _ => (seed >> 16) as f64,
    }
}

/// A record whose shape and every value come from `seeds`.
fn salted_record(seeds: &[u64], vf_states: usize) -> IntervalRecord {
    let mut it = seeds.iter().copied().cycle();
    let mut next = || it.next().unwrap_or_default();
    let mut counts = || {
        let mut arr = [0.0; EVENT_COUNT];
        for v in &mut arr {
            *v = salt(next());
        }
        EventCounts::from_array(arr)
    };
    let n = |seed: u64| (seed % 9) as usize;
    let (n_vf, n_busy, n_samples, n_true, n_dyn, n_idle) = (
        n(seeds[0]),
        n(seeds[1]),
        n(seeds[2]),
        n(seeds[3]),
        n(seeds[4]),
        n(seeds[5]),
    );
    let samples = (0..n_samples)
        .map(|_| IntervalSample {
            counts: counts(),
            duration: Seconds::new(salt(seeds[6])),
        })
        .collect();
    let true_counts = (0..n_true).map(|_| counts()).collect();
    let table = topology().vf_table().clone();
    IntervalRecord {
        index: IntervalIndex(seeds[7]),
        duration: Seconds::new(salt(seeds[8])),
        samples,
        true_counts,
        measured_power: Watts::new(salt(seeds[9])),
        true_power: PowerBreakdown {
            core_dynamic: (0..n_dyn).map(|i| Watts::new(salt(seeds[i]))).collect(),
            nb_dynamic: Watts::new(salt(seeds[10])),
            cu_idle: (0..n_idle)
                .map(|i| Watts::new(salt(seeds[i + 3])))
                .collect(),
            nb_idle: Watts::new(salt(seeds[11])),
            base: Watts::new(salt(seeds[12])),
        },
        temperature: Kelvin::new(salt(seeds[13])),
        cu_vf: (0..n_vf)
            .map(|i| {
                table
                    .state(seeds[i] as usize % vf_states)
                    .expect("index in range")
            })
            .collect(),
        nb_state: if seeds[14] & 1 == 0 {
            NbVfState::High
        } else {
            NbVfState::Low
        },
        core_busy: (0..n_busy).map(|i| seeds[i] & 2 == 0).collect(),
    }
}

/// Every `f64` of a record in wire order, as bits.
fn float_bits(r: &IntervalRecord) -> Vec<u64> {
    let mut out = vec![
        r.duration.as_secs().to_bits(),
        r.measured_power.as_watts().to_bits(),
        r.temperature.as_kelvin().to_bits(),
    ];
    for s in &r.samples {
        out.push(s.duration.as_secs().to_bits());
        out.extend(s.counts.as_array().iter().map(|v| v.to_bits()));
    }
    for c in &r.true_counts {
        out.extend(c.as_array().iter().map(|v| v.to_bits()));
    }
    let tp = &r.true_power;
    out.extend(tp.core_dynamic.iter().map(|w| w.as_watts().to_bits()));
    out.extend(tp.cu_idle.iter().map(|w| w.as_watts().to_bits()));
    out.extend(
        [tp.nb_dynamic, tp.nb_idle, tp.base]
            .iter()
            .map(|w| w.as_watts().to_bits()),
    );
    out
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Wraps `payload` in a valid envelope of `kind`.
fn envelope(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![kind];
    push_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// The payload of a single encoded frame.
fn payload_of(frame: &[u8]) -> Vec<u8> {
    let mut len = 0u64;
    let mut at = 1;
    for (i, b) in frame[1..].iter().enumerate() {
        len |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            at += i + 1;
            break;
        }
    }
    frame[at..at + len as usize].to_vec()
}

fn submit_bytes() -> Vec<u8> {
    let seeds: Vec<u64> = (1..=40u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut record = salted_record(&seeds, topology().vf_table().len());
    // A full fx8320 shape, so the hostile tests below know the layout:
    // tenant, index, six lengths, four VF indices, nb_state, 8 busy.
    let sample = IntervalSample {
        counts: EventCounts::from_array([salt(seeds[0]); EVENT_COUNT]),
        duration: Seconds::new(0.2),
    };
    record.index = IntervalIndex(5);
    record.cu_vf = vec![topology().vf_table().highest(); 4];
    record.core_busy = vec![true; 8];
    record.samples = vec![sample; 8];
    record.true_counts = vec![sample.counts; 8];
    record.true_power.core_dynamic = vec![Watts::new(salt(seeds[1])); 8];
    record.true_power.cu_idle = vec![Watts::new(salt(seeds[2])); 4];
    frame_to_bytes(&SessionFrame::Submit {
        tenant: 3,
        record: Box::new(record),
    })
}

/// Decodes `bytes`, asserting a typed `InvalidInput` and that no
/// allocation made while decoding exceeded the frame's own size.
fn assert_refused(bytes: &[u8], why: &str) {
    LARGEST.with(|l| l.set(0));
    let result = decode_frame(bytes, &topology());
    let largest = LARGEST.with(Cell::get);
    assert!(
        matches!(result, Err(Error::InvalidInput(_))),
        "{why}: expected InvalidInput, got {result:?}"
    );
    assert!(
        largest <= bytes.len().max(1024),
        "{why}: decoding allocated {largest} bytes for a {}-byte frame",
        bytes.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn submit_round_trips_salted_values_bit_exactly(
        seeds in prop::collection::vec(any::<u64>(), 16..64),
        tenant in any::<u64>(),
    ) {
        let topo = topology();
        let record = salted_record(&seeds, topo.vf_table().len());
        let bytes = frame_to_bytes(&SessionFrame::Submit {
            tenant,
            record: Box::new(record.clone()),
        });
        let (back, consumed) = decode_frame(&bytes, &topo).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        let SessionFrame::Submit { tenant: t, record: r } = back else {
            return Err(format!("decoded {back:?}"));
        };
        prop_assert_eq!(t, tenant);
        prop_assert_eq!(r.index, record.index);
        prop_assert_eq!(&r.cu_vf, &record.cu_vf);
        prop_assert_eq!(r.nb_state, record.nb_state);
        prop_assert_eq!(&r.core_busy, &record.core_busy);
        prop_assert_eq!(r.samples.len(), record.samples.len());
        prop_assert_eq!(r.true_counts.len(), record.true_counts.len());
        prop_assert_eq!(r.true_power.core_dynamic.len(), record.true_power.core_dynamic.len());
        prop_assert_eq!(r.true_power.cu_idle.len(), record.true_power.cu_idle.len());
        prop_assert_eq!(float_bits(&r), float_bits(&record));
    }
}

#[test]
fn every_strict_prefix_of_submit_and_fault_report_is_rejected() {
    let fault = frame_to_bytes(&SessionFrame::FaultReport {
        tenant: 3,
        index: IntervalIndex(9),
        error: Error::SensorImplausible {
            sensor: "hall-sensor",
            value: f64::from_bits(SPECIALS[0]),
        },
    });
    for bytes in [submit_bytes(), fault] {
        assert!(decode_frame(&bytes, &topology()).is_ok());
        for cut in 0..bytes.len() {
            assert_refused(&bytes[..cut], &format!("prefix of {cut} bytes"));
        }
    }
}

#[test]
fn hostile_submit_payloads_are_typed_errors_without_large_allocations() {
    let good = payload_of(&submit_bytes());
    // Layout offsets: tenant 0, index 1, lengths 2..8, VF 8..12,
    // nb_state 12, core_busy 13..21.
    assert_eq!(&good[2..8], &[4, 8, 8, 8, 8, 4]);
    let mutate = |at: usize, byte: u8| {
        let mut p = good.clone();
        p[at] = byte;
        envelope(FRAME_SUBMIT, &p)
    };
    let ladder = topology().vf_table().len() as u8;
    assert_refused(&mutate(8, ladder), "VF index past the ladder");
    assert_refused(&mutate(12, 2), "nb_state byte 2");
    assert_refused(&mutate(13, 0xFF), "core_busy byte 255");
    let mut trailing = good.clone();
    trailing.push(0);
    assert_refused(&envelope(FRAME_SUBMIT, &trailing), "trailing byte");

    // A length past the cap, and lengths at the cap that the payload
    // cannot hold: both refused before anything is allocated for them.
    for len in [65_537u64, 1 << 40, u64::MAX] {
        let mut p = vec![3, 5];
        push_varint(&mut p, len);
        p.extend_from_slice(&[8, 8, 8, 8, 4]);
        assert_refused(&envelope(FRAME_SUBMIT, &p), "length past the cap");
    }
    let mut at_cap = vec![3, 5];
    for _ in 0..6 {
        push_varint(&mut at_cap, 65_536);
    }
    at_cap.extend_from_slice(&[0; 64]);
    assert_refused(&envelope(FRAME_SUBMIT, &at_cap), "lengths at the cap");
}

#[test]
fn hostile_fault_payloads_are_typed_errors() {
    let good = payload_of(&frame_to_bytes(&SessionFrame::FaultReport {
        tenant: 3,
        index: IntervalIndex(9),
        error: Error::MsrReadFailed { msr: 0xC001_0064 },
    }));
    let mut trailing = good.clone();
    trailing.push(0);
    assert_refused(&envelope(FRAME_FAULT_REPORT, &trailing), "trailing byte");
    let mut bad_kind = good.clone();
    bad_kind[2] = 9;
    assert_refused(&envelope(FRAME_FAULT_REPORT, &bad_kind), "fault kind 9");
    // A string length far past the payload.
    let mut p = vec![3, 9, 0];
    push_varint(&mut p, 1 << 40);
    assert_refused(&envelope(FRAME_FAULT_REPORT, &p), "sensor length");
}

#[test]
fn retired_json_payload_kinds_are_unknown() {
    let submit = payload_of(&submit_bytes());
    for kind in [19u8, 20, 23] {
        assert_refused(&envelope(kind, &submit), &format!("retired kind {kind}"));
        // The old JSONL spelling is refused the same way.
        let mut line = vec![3];
        let text = br#"{"type":"fault","index":1,"error":{"kind":"other","message":"x"}}"#;
        push_varint(&mut line, text.len() as u64);
        line.extend_from_slice(text);
        assert_refused(&envelope(kind, &line), &format!("JSONL under kind {kind}"));
    }
}
