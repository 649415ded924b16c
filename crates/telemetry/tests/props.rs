//! Property-based round-trip suite for the v2 binary trace codec.
//!
//! Three invariants, over arbitrarily generated traces (interval
//! records, faults, applies, and decision frames, with special floats
//! — NaN, infinities, signed zero, subnormals, `f64::MAX` — salted
//! into every numeric field):
//!
//! 1. `decode(encode(t))` reproduces every event **bit-identically**
//!    (compared through `f64::to_bits`, not `==`, so NaN and `-0.0`
//!    are held to the same standard as ordinary values).
//! 2. Every strict prefix of an encoded document is rejected — a
//!    truncated trace never decodes.
//! 3. A corrupted frame body is rejected by its CRC — flipping a bit
//!    inside any non-header byte never yields the original events
//!    back without an error.

use ppep_pmc::events::EVENT_COUNT;
use ppep_pmc::sampler::IntervalSample;
use ppep_pmc::EventCounts;
use ppep_telemetry::binary::{decode, encode, MAGIC};
use ppep_telemetry::trace::TraceEvent;
use ppep_telemetry::{DecisionRecord, IntervalRecord, PowerBreakdown, TraceReader};
use ppep_types::time::IntervalIndex;
use ppep_types::vf::NbVfState;
use ppep_types::{Error, Kelvin, Seconds, Topology, VfStateId, VfTable, Watts};
use proptest::prelude::*;

const SPECIALS: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    f64::MIN_POSITIVE,
    f64::MAX,
    -1.0e-308,
];

/// Deterministically dispenses generated values into trace fields,
/// salting in special floats so the codec's escape paths are hit.
struct Feed {
    raw: Vec<f64>,
    picks: Vec<bool>,
    cursor: usize,
}

impl Feed {
    fn new(raw: Vec<f64>, picks: Vec<bool>) -> Self {
        Self {
            raw,
            picks,
            cursor: 0,
        }
    }

    fn next_f64(&mut self) -> f64 {
        let i = self.cursor;
        self.cursor += 1;
        if self.next_bool() && i.is_multiple_of(3) {
            SPECIALS[i % SPECIALS.len()]
        } else {
            self.raw[i % self.raw.len()] * 1.0e3
        }
    }

    fn next_bool(&mut self) -> bool {
        let i = self.cursor;
        self.cursor += 1;
        self.picks[i % self.picks.len()]
    }

    fn next_index(&mut self, n: usize) -> usize {
        let i = self.cursor;
        self.cursor += 1;
        (self.raw[i % self.raw.len()].abs().to_bits() as usize) % n.max(1)
    }

    fn counts(&mut self) -> EventCounts {
        let mut arr = [0.0; EVENT_COUNT];
        for slot in &mut arr {
            *slot = self.next_f64();
        }
        EventCounts::from_array(arr)
    }

    fn vf(&mut self, table: &VfTable) -> VfStateId {
        let states: Vec<VfStateId> = table.states().collect();
        states[self.next_index(states.len())]
    }

    fn assignment(&mut self, table: &VfTable, cus: usize) -> Vec<VfStateId> {
        (0..cus).map(|_| self.vf(table)).collect()
    }

    fn record(&mut self, index: u64, table: &VfTable, cores: usize, cus: usize) -> IntervalRecord {
        IntervalRecord {
            index: IntervalIndex(index),
            duration: Seconds::new(self.next_f64()),
            samples: (0..cores)
                .map(|_| IntervalSample {
                    counts: self.counts(),
                    duration: Seconds::new(self.next_f64()),
                })
                .collect(),
            true_counts: (0..cores).map(|_| self.counts()).collect(),
            measured_power: Watts::new(self.next_f64()),
            true_power: PowerBreakdown {
                core_dynamic: (0..cores).map(|_| Watts::new(self.next_f64())).collect(),
                nb_dynamic: Watts::new(self.next_f64()),
                cu_idle: (0..cus).map(|_| Watts::new(self.next_f64())).collect(),
                nb_idle: Watts::new(self.next_f64()),
                base: Watts::new(self.next_f64()),
            },
            temperature: Kelvin::new(self.next_f64()),
            cu_vf: self.assignment(table, cus),
            nb_state: if self.next_bool() {
                NbVfState::High
            } else {
                NbVfState::Low
            },
            core_busy: (0..cores).map(|_| self.next_bool()).collect(),
        }
    }

    fn fault(&mut self, index: u64) -> TraceEvent {
        let error = match self.next_index(4) {
            0 => Error::SensorDropout {
                sensor: "hall-sensor",
            },
            1 => Error::SensorImplausible {
                sensor: "thermal-diode",
                value: self.next_f64(),
            },
            2 => Error::MsrReadFailed { msr: 0xC001_0299 },
            _ => Error::MissedInterval { missed: 3 },
        };
        TraceEvent::Fault {
            index: IntervalIndex(index),
            error,
        }
    }

    fn decision(&mut self, index: u64, table: &VfTable, cus: usize) -> DecisionRecord {
        DecisionRecord {
            interval: IntervalIndex(index),
            chosen: self.assignment(table, cus),
            predicted_power: self.next_bool().then(|| Watts::new(self.next_f64())),
            realized_power: self.next_bool().then(|| Watts::new(self.next_f64())),
            cap: self.next_bool().then(|| Watts::new(self.next_f64())),
            cap_violated: self.next_bool().then(|| self.next_bool()),
        }
    }

    /// Builds a structurally plausible but numerically adversarial
    /// trace: `n` intervals (some replaced by faults), decisions, and
    /// applies that sometimes echo the previous decision (the v2
    /// apply fast path) and sometimes diverge.
    fn trace(&mut self, n: usize) -> TraceReader {
        let topology = Topology::fx8320();
        let table = topology.vf_table().clone();
        let (cores, cus) = (topology.core_count(), topology.cu_count());
        let mut events = Vec::new();
        for i in 0..n as u64 {
            if self.next_bool() && self.next_bool() {
                events.push(self.fault(i));
                continue;
            }
            events.push(TraceEvent::Interval(self.record(i, &table, cores, cus)));
            let decision = self.decision(i, &table, cus);
            let chosen = decision.chosen.clone();
            events.push(TraceEvent::Decision(decision));
            let apply = if self.next_bool() {
                chosen
            } else {
                self.assignment(&table, cus)
            };
            events.push(TraceEvent::Apply(apply));
        }
        TraceReader { topology, events }
    }
}

/// Bit-exact equality for `f64` fields: NaN equals NaN with the same
/// payload, `0.0` differs from `-0.0`.
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn counts_eq(a: &EventCounts, b: &EventCounts) -> bool {
    a.iter()
        .zip(b.iter())
        .all(|((ea, va), (eb, vb))| ea == eb && bits_eq(va, vb))
}

fn records_eq(a: &IntervalRecord, b: &IntervalRecord) -> bool {
    a.index == b.index
        && bits_eq(a.duration.as_secs(), b.duration.as_secs())
        && a.samples.len() == b.samples.len()
        && a.samples.iter().zip(&b.samples).all(|(x, y)| {
            counts_eq(&x.counts, &y.counts) && bits_eq(x.duration.as_secs(), y.duration.as_secs())
        })
        && a.true_counts.len() == b.true_counts.len()
        && a.true_counts
            .iter()
            .zip(&b.true_counts)
            .all(|(x, y)| counts_eq(x, y))
        && bits_eq(a.measured_power.as_watts(), b.measured_power.as_watts())
        && watts_vec_eq(&a.true_power.core_dynamic, &b.true_power.core_dynamic)
        && bits_eq(
            a.true_power.nb_dynamic.as_watts(),
            b.true_power.nb_dynamic.as_watts(),
        )
        && watts_vec_eq(&a.true_power.cu_idle, &b.true_power.cu_idle)
        && bits_eq(
            a.true_power.nb_idle.as_watts(),
            b.true_power.nb_idle.as_watts(),
        )
        && bits_eq(a.true_power.base.as_watts(), b.true_power.base.as_watts())
        && bits_eq(a.temperature.as_kelvin(), b.temperature.as_kelvin())
        && a.cu_vf == b.cu_vf
        && a.nb_state == b.nb_state
        && a.core_busy == b.core_busy
}

fn watts_vec_eq(a: &[Watts], b: &[Watts]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| bits_eq(x.as_watts(), y.as_watts()))
}

fn opt_watts_eq(a: Option<Watts>, b: Option<Watts>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => bits_eq(x.as_watts(), y.as_watts()),
        (None, None) => true,
        _ => false,
    }
}

fn decisions_eq(a: &DecisionRecord, b: &DecisionRecord) -> bool {
    a.interval == b.interval
        && a.chosen == b.chosen
        && opt_watts_eq(a.predicted_power, b.predicted_power)
        && opt_watts_eq(a.realized_power, b.realized_power)
        && opt_watts_eq(a.cap, b.cap)
        && a.cap_violated == b.cap_violated
}

fn events_eq(a: &[TraceEvent], b: &[TraceEvent]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (TraceEvent::Interval(ra), TraceEvent::Interval(rb)) => records_eq(ra, rb),
            (TraceEvent::Apply(aa), TraceEvent::Apply(ab)) => aa == ab,
            (TraceEvent::Decision(da), TraceEvent::Decision(db)) => decisions_eq(da, db),
            (
                TraceEvent::Fault {
                    index: ia,
                    error: ea,
                },
                TraceEvent::Fault {
                    index: ib,
                    error: eb,
                },
            ) => {
                ia == ib
                    && match (ea, eb) {
                        (
                            Error::SensorImplausible {
                                sensor: sa,
                                value: va,
                            },
                            Error::SensorImplausible {
                                sensor: sb,
                                value: vb,
                            },
                        ) => sa == sb && bits_eq(*va, *vb),
                        _ => format!("{ea:?}") == format!("{eb:?}"),
                    }
            }
            _ => false,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: arbitrary traces round-trip bit-identically.
    #[test]
    fn v2_round_trips_bit_identically(
        raw in prop::collection::vec(prop::num::f64::NORMAL, 96),
        picks in prop::collection::vec(any::<bool>(), 64),
        n in 1usize..6,
    ) {
        let trace = Feed::new(raw, picks).trace(n);
        let doc = encode(&trace);
        prop_assert!(doc.starts_with(&MAGIC));
        let back = decode(&doc).expect("a just-encoded document must decode");
        prop_assert_eq!(&back.topology, &trace.topology);
        prop_assert!(
            events_eq(&back.events, &trace.events),
            "decoded events differ bit-wise from the originals"
        );
        // Determinism: re-encoding the decoded trace reproduces the
        // document byte-for-byte.
        prop_assert_eq!(encode(&back), doc);
    }

    /// Invariant 2: every truncation of an encoded document is
    /// rejected — no prefix parses as a complete trace.
    #[test]
    fn truncated_documents_never_decode(
        raw in prop::collection::vec(prop::num::f64::NORMAL, 48),
        picks in prop::collection::vec(any::<bool>(), 32),
        n in 1usize..4,
    ) {
        let doc = encode(&Feed::new(raw, picks).trace(n));
        for cut in 0..doc.len() - 1 {
            prop_assert!(
                decode(&doc[..cut]).is_err(),
                "truncation at {}/{} decoded",
                cut,
                doc.len()
            );
        }
    }

    /// Invariant 3: corrupting any byte never silently yields the
    /// original events — the per-frame CRC (or structural validation)
    /// catches it.
    #[test]
    fn corrupted_frames_are_rejected(
        raw in prop::collection::vec(prop::num::f64::NORMAL, 48),
        picks in prop::collection::vec(any::<bool>(), 32),
        n in 1usize..4,
        flip in 0usize..4096,
        bit in 0u8..8,
    ) {
        let trace = Feed::new(raw, picks).trace(n);
        let doc = encode(&trace);
        let pos = flip % doc.len();
        let mut bad = doc.clone();
        bad[pos] ^= 1u8 << bit;
        if let Ok(back) = decode(&bad) {
            prop_assert!(
                !(back.topology == trace.topology && events_eq(&back.events, &trace.events)),
                "bit {} of byte {} flipped yet the document decoded to the original",
                bit,
                pos
            );
        }
    }
}
