//! Trace record/replay.
//!
//! A trace turns any PPEP run into a reproducible offline artifact:
//! [`RecordingPlatform`] wraps a live platform and streams every event
//! into a v2 binary document ([`crate::binary`]), and
//! [`ReplayPlatform`] plays a parsed trace back with no live substrate
//! at all. A deterministic daemon + controller driven over the replay
//! reproduces the live run's decisions and projections bit-for-bit:
//! the codec round-trips every `f64` exactly.
//!
//! Event types, in daemon order after the topology:
//!
//! - `interval` — one successful [`IntervalRecord`], everything
//!   included (observables and simulator ground truth).
//! - `fault` — a failed sample: the interval index it was measuring
//!   and the transient error, so fault storms replay faithfully.
//! - `apply` — a per-CU VF assignment the daemon applied.
//! - `decision` — a controller [`DecisionRecord`] annotation (chosen
//!   assignment, predicted-vs-realized power, cap verdict); replay
//!   treats it as a comment.
//!
//! [`TraceReader::parse`] is the only reader. [`TraceReader::to_jsonl`]
//! renders the same events as JSON Lines (one object per line, a
//! `meta` line with the topology first, every `f64` in shortest-exact
//! decimal) — a write-only dump for humans and diff tools.

use crate::binary::TraceWriter;
use crate::decision::DecisionRecord;
use crate::json::{push_f64, push_str};
use crate::platform::Platform;
use crate::record::IntervalRecord;
use ppep_obs::RecorderHandle;
use ppep_pmc::EventCounts;
use ppep_types::time::IntervalIndex;
use ppep_types::vf::NbVfState;
use ppep_types::{Error, Result, Topology, VfStateId, Watts};
use std::collections::VecDeque;

/// The version the JSONL dump's `meta` line carries.
pub const TRACE_VERSION: u64 = 1;

/// One recorded trace event, in daemon order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A successful sample.
    Interval(IntervalRecord),
    /// A failed sample: the interval it was measuring and the error.
    Fault {
        /// Index of the lost interval.
        index: IntervalIndex,
        /// The (typically transient) measurement error.
        error: Error,
    },
    /// A VF assignment the daemon applied.
    Apply(Vec<VfStateId>),
    /// A controller decision annotation (never consumed by replay
    /// I/O; read back by the policy-differential harness).
    Decision(DecisionRecord),
}

// ---------------------------------------------------------------------
// The JSONL dump
// ---------------------------------------------------------------------

fn push_meta(out: &mut String, topology: &Topology) {
    use std::fmt::Write as _;
    out.push_str("{\"type\":\"meta\",\"version\":");
    let _ = write!(out, "{TRACE_VERSION}");
    out.push_str(",\"name\":");
    push_str(out, topology.name());
    let _ = write!(
        out,
        ",\"cu_count\":{},\"cores_per_cu\":{}",
        topology.cu_count(),
        topology.cores_per_cu()
    );
    let _ = write!(
        out,
        ",\"power_gating\":{}",
        topology.supports_power_gating()
    );
    out.push_str(",\"issue_width\":");
    push_f64(out, topology.issue_width());
    out.push_str(",\"mispredict_penalty_cycles\":");
    push_f64(out, topology.mispredict_penalty_cycles());
    out.push_str(",\"vf_table\":[");
    for (i, (_, point)) in topology.vf_table().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_f64(out, point.voltage.as_volts());
        out.push(',');
        push_f64(out, point.frequency.as_ghz());
        out.push(']');
    }
    out.push_str("]}\n");
}

fn push_counts(out: &mut String, counts: &EventCounts) {
    out.push('[');
    for (i, v) in counts.as_array().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *v);
    }
    out.push(']');
}

fn push_watts_vec(out: &mut String, values: &[Watts]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, v.as_watts());
    }
    out.push(']');
}

fn push_interval(out: &mut String, r: &IntervalRecord) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"type\":\"interval\",\"index\":{}", r.index.0);
    out.push_str(",\"duration\":");
    push_f64(out, r.duration.as_secs());
    out.push_str(",\"measured_power\":");
    push_f64(out, r.measured_power.as_watts());
    out.push_str(",\"temperature\":");
    push_f64(out, r.temperature.as_kelvin());
    let _ = write!(
        out,
        ",\"nb_state\":\"{}\"",
        match r.nb_state {
            NbVfState::High => "high",
            NbVfState::Low => "low",
        }
    );
    out.push_str(",\"cu_vf\":[");
    for (i, vf) in r.cu_vf.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", vf.index());
    }
    out.push_str("],\"core_busy\":[");
    for (i, b) in r.core_busy.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(if *b { "true" } else { "false" });
    }
    out.push_str("],\"samples\":[");
    for (i, s) in r.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"counts\":");
        push_counts(out, &s.counts);
        out.push_str(",\"duration\":");
        push_f64(out, s.duration.as_secs());
        out.push('}');
    }
    out.push_str("],\"true_counts\":[");
    for (i, c) in r.true_counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_counts(out, c);
    }
    out.push_str("],\"true_power\":{\"core_dynamic\":");
    push_watts_vec(out, &r.true_power.core_dynamic);
    out.push_str(",\"nb_dynamic\":");
    push_f64(out, r.true_power.nb_dynamic.as_watts());
    out.push_str(",\"cu_idle\":");
    push_watts_vec(out, &r.true_power.cu_idle);
    out.push_str(",\"nb_idle\":");
    push_f64(out, r.true_power.nb_idle.as_watts());
    out.push_str(",\"base\":");
    push_f64(out, r.true_power.base.as_watts());
    out.push_str("}}\n");
}

fn push_fault(out: &mut String, index: IntervalIndex, error: &Error) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"type\":\"fault\",\"index\":{},\"error\":", index.0);
    match error {
        Error::SensorDropout { sensor } => {
            out.push_str("{\"kind\":\"sensor-dropout\",\"sensor\":");
            push_str(out, sensor);
            out.push('}');
        }
        Error::SensorImplausible { sensor, value } => {
            out.push_str("{\"kind\":\"sensor-implausible\",\"sensor\":");
            push_str(out, sensor);
            out.push_str(",\"value\":");
            push_f64(out, *value);
            out.push('}');
        }
        Error::MsrReadFailed { msr } => {
            let _ = write!(out, "{{\"kind\":\"msr-read-failed\",\"msr\":{msr}}}");
        }
        Error::MissedInterval { missed } => {
            let _ = write!(out, "{{\"kind\":\"missed-interval\",\"missed\":{missed}}}");
        }
        other => {
            out.push_str("{\"kind\":\"other\",\"message\":");
            push_str(out, &other.to_string());
            out.push('}');
        }
    }
    out.push_str("}\n");
}

fn push_apply(out: &mut String, assignment: &[VfStateId]) {
    use std::fmt::Write as _;
    out.push_str("{\"type\":\"apply\",\"assignment\":[");
    for (i, vf) in assignment.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", vf.index());
    }
    out.push_str("]}\n");
}

fn push_opt_watts(out: &mut String, v: Option<Watts>) {
    match v {
        Some(w) => push_f64(out, w.as_watts()),
        None => out.push_str("null"),
    }
}

fn push_decision(out: &mut String, d: &DecisionRecord) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"type\":\"decision\",\"interval\":{},\"chosen\":[",
        d.interval.0
    );
    for (i, vf) in d.chosen.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", vf.index());
    }
    out.push_str("],\"predicted_power\":");
    push_opt_watts(out, d.predicted_power);
    out.push_str(",\"realized_power\":");
    push_opt_watts(out, d.realized_power);
    out.push_str(",\"cap\":");
    push_opt_watts(out, d.cap);
    out.push_str(",\"cap_violated\":");
    match d.cap_violated {
        Some(true) => out.push_str("true"),
        Some(false) => out.push_str("false"),
        None => out.push_str("null"),
    }
    out.push_str("}\n");
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// A parsed trace: the recorded topology plus the event stream.
#[derive(Debug, Clone)]
pub struct TraceReader {
    /// The topology recorded in the meta frame.
    pub topology: Topology,
    /// All events, in daemon order.
    pub events: Vec<TraceEvent>,
}

impl TraceReader {
    /// Parses a v2 binary trace document ([`crate::binary::decode`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] on a bad magic or version, a
    /// truncated document, a frame whose CRC does not match its
    /// payload, or values inconsistent with the recorded topology
    /// (e.g. a VF index outside the ladder).
    pub fn parse(src: &[u8]) -> Result<Self> {
        crate::binary::decode(src)
    }

    /// Renders the trace as JSON Lines: a write-only dump for humans.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        push_meta(&mut out, &self.topology);
        for event in &self.events {
            match event {
                TraceEvent::Interval(r) => push_interval(&mut out, r),
                TraceEvent::Fault { index, error } => push_fault(&mut out, *index, error),
                TraceEvent::Apply(assignment) => push_apply(&mut out, assignment),
                TraceEvent::Decision(d) => push_decision(&mut out, d),
            }
        }
        out
    }

    /// The number of successful samples in the trace.
    pub fn interval_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Interval(_)))
            .count()
    }

    /// The number of failed samples in the trace.
    pub fn fault_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Fault { .. }))
            .count()
    }

    /// The recorded controller decisions, in daemon order.
    pub fn decisions(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Decision(d) => Some(d),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------
// Platform adapters
// ---------------------------------------------------------------------

/// Wraps a live platform and records every sample, fault, apply and
/// decision into a v2 document.
#[derive(Debug)]
pub struct RecordingPlatform<P: Platform> {
    inner: P,
    writer: TraceWriter,
}

impl<P: Platform> RecordingPlatform<P> {
    /// Starts recording on top of `inner`.
    pub fn new(inner: P) -> Self {
        let writer = TraceWriter::new(inner.topology());
        Self { inner, writer }
    }

    /// The wrapped platform.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped platform, mutably (e.g. to load a workload before
    /// the run starts; mutations are not recorded).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// The trace recorded so far, as a finished v2 document (the
    /// recording goes on).
    pub fn trace(&self) -> Vec<u8> {
        self.writer.to_bytes()
    }

    /// Stops recording, returning the platform and the v2 document.
    pub fn finish(self) -> (P, Vec<u8>) {
        (self.inner, self.writer.finish())
    }
}

impl<P: Platform> Platform for RecordingPlatform<P> {
    fn sample(&mut self) -> Result<IntervalRecord> {
        let mut record = IntervalRecord::default();
        self.sample_into(&mut record)?;
        Ok(record)
    }

    fn sample_into(&mut self, record: &mut IntervalRecord) -> Result<()> {
        let measuring = self.inner.current_interval();
        match self.inner.sample_into(record) {
            Ok(()) => {
                self.writer.interval(record);
                Ok(())
            }
            Err(e) => {
                self.writer.fault(measuring, &e);
                Err(e)
            }
        }
    }

    fn apply(&mut self, assignment: &[VfStateId]) -> Result<()> {
        self.inner.apply(assignment)?;
        self.writer.apply(assignment);
        Ok(())
    }

    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn current_interval(&self) -> IntervalIndex {
        self.inner.current_interval()
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.inner.set_recorder(recorder);
    }

    fn wants_decisions(&self) -> bool {
        true
    }

    fn record_decision(&mut self, decision: &DecisionRecord) {
        self.writer.decision(decision);
        // Forward in case the wrapped platform records too (e.g. a
        // recorder stacked on another recorder).
        self.inner.record_decision(decision);
    }
}

/// Replays a recorded trace as a [`Platform`], with no live substrate.
///
/// In the default (tolerant) mode, `apply` calls are accepted and
/// ignored — the sampled stream is fixed, which makes counterfactual
/// runs (same trace, different controller) possible. In strict mode
/// ([`ReplayPlatform::strict`]), every `apply` must match the recorded
/// assignment at the same position in the stream, so a replayed run is
/// verified step-by-step against the original.
#[derive(Debug)]
pub struct ReplayPlatform {
    topology: Topology,
    events: VecDeque<TraceEvent>,
    strict: bool,
    next_index: IntervalIndex,
    last_sampled: Option<IntervalIndex>,
}

impl ReplayPlatform {
    /// Builds a replay platform from a parsed trace.
    pub fn new(trace: TraceReader) -> Self {
        let next_index = trace
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Interval(r) => Some(r.index),
                TraceEvent::Fault { index, .. } => Some(*index),
                TraceEvent::Apply(_) | TraceEvent::Decision(_) => None,
            })
            .unwrap_or_default();
        Self {
            topology: trace.topology,
            events: trace.events.into(),
            strict: false,
            next_index,
            last_sampled: None,
        }
    }

    /// Enables strict mode: `apply` calls must replay the recorded
    /// assignments exactly, in order.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Events not yet replayed.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }

    fn exhausted() -> Error {
        Error::Device("replay trace exhausted: no further recorded intervals".into())
    }

    /// The interval an `apply` call is deciding for: the last sampled
    /// (or faulted) interval, for error reporting.
    fn deciding_for(&self) -> u64 {
        self.last_sampled.unwrap_or(self.next_index).0
    }

    /// Drops decision annotations queued at the stream head: they are
    /// comments to replay I/O (the differential harness reads them from
    /// the [`TraceReader`] instead).
    fn skip_decisions(&mut self) {
        while matches!(self.events.front(), Some(TraceEvent::Decision(_))) {
            self.events.pop_front();
        }
    }
}

impl Platform for ReplayPlatform {
    fn sample(&mut self) -> Result<IntervalRecord> {
        loop {
            match self.events.pop_front() {
                Some(TraceEvent::Interval(record)) => {
                    self.next_index = record.index.next();
                    self.last_sampled = Some(record.index);
                    return Ok(record);
                }
                Some(TraceEvent::Fault { index, error }) => {
                    self.next_index = index.next();
                    self.last_sampled = Some(index);
                    return Err(error);
                }
                Some(TraceEvent::Apply(expected)) => {
                    if self.strict {
                        return Err(Error::InvalidInput(format!(
                            "strict replay: trace records an apply of {expected:?} \
                             before the next sample, but the daemon sampled instead"
                        )));
                    }
                    // Tolerant mode: a skipped apply just means the
                    // replaying controller diverged; the sampled
                    // stream is fixed regardless.
                }
                Some(TraceEvent::Decision(_)) => {}
                None => return Err(Self::exhausted()),
            }
        }
    }

    fn apply(&mut self, assignment: &[VfStateId]) -> Result<()> {
        self.skip_decisions();
        match self.events.front() {
            Some(TraceEvent::Apply(expected)) => {
                if self.strict && expected.as_slice() != assignment {
                    return Err(Error::InvalidInput(format!(
                        "strict replay diverged at interval {}: daemon applied \
                         {assignment:?} but the trace recorded {expected:?}",
                        self.deciding_for()
                    )));
                }
                self.events.pop_front();
                Ok(())
            }
            _ if self.strict => Err(Error::InvalidInput(format!(
                "strict replay diverged at interval {}: daemon applied \
                 {assignment:?} where the trace records no apply",
                self.deciding_for()
            ))),
            // Tolerant mode: accept and ignore — replayed samples are
            // immutable history.
            _ => Ok(()),
        }
    }

    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn current_interval(&self) -> IntervalIndex {
        self.next_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PowerBreakdown;
    use ppep_pmc::sampler::IntervalSample;
    use ppep_types::{CuId, Kelvin, Seconds, VfTable};

    fn toy_topology() -> Topology {
        Topology::fx8320()
    }

    fn toy_record(index: u64, table: &VfTable) -> IntervalRecord {
        let mut counts = EventCounts::zero();
        counts.set(ppep_pmc::EventId::RetiredInstructions, 1.0e9 + index as f64);
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
            measured_power: Watts::new(95.25 + index as f64 / 3.0),
            true_power: PowerBreakdown {
                core_dynamic: vec![Watts::new(5.5); 8],
                nb_dynamic: Watts::new(4.25),
                cu_idle: vec![Watts::new(6.125); 4],
                nb_idle: Watts::new(3.5),
                base: Watts::new(20.0),
            },
            temperature: Kelvin::new(330.0 + 2.0 / 3.0),
            cu_vf: vec![table.highest(); 4],
            nb_state: NbVfState::High,
            core_busy: vec![true, true, false, false, true, false, true, false],
        }
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let topo = toy_topology();
        let table = topo.vf_table().clone();
        let mut w = TraceWriter::new(&topo);
        let r0 = toy_record(0, &table);
        let r1 = toy_record(1, &table);
        w.interval(&r0);
        w.apply(&[table.lowest(); 4]);
        w.fault(
            IntervalIndex(2),
            &Error::SensorImplausible {
                sensor: "thermal-diode",
                value: f64::NAN,
            },
        );
        w.interval(&r1);
        let doc = w.finish();

        let trace = TraceReader::parse(&doc).unwrap();
        assert_eq!(trace.topology, topo);
        assert_eq!(trace.interval_count(), 2);
        assert_eq!(trace.fault_count(), 1);
        let mut intervals = trace.events.iter().filter_map(|e| match e {
            TraceEvent::Interval(r) => Some(r),
            _ => None,
        });
        let back0 = intervals.next().unwrap();
        // Bit-exactness: every f64 survives the v2 round trip.
        assert_eq!(back0.measured_power, r0.measured_power);
        assert_eq!(back0.temperature, r0.temperature);
        assert_eq!(back0.samples, r0.samples);
        assert_eq!(back0.true_counts, r0.true_counts);
        assert_eq!(back0.true_power, r0.true_power);
        assert_eq!(back0.cu_vf, r0.cu_vf);
        assert_eq!(back0.core_busy, r0.core_busy);
        match trace.events.get(2) {
            Some(TraceEvent::Fault { index, error }) => {
                assert_eq!(*index, IntervalIndex(2));
                assert!(error.is_transient());
                assert!(matches!(
                    error,
                    Error::SensorImplausible {
                        sensor: "thermal-diode",
                        ..
                    }
                ));
            }
            other => panic!("expected fault event, got {other:?}"),
        }
    }

    #[test]
    fn replay_platform_reproduces_the_stream() {
        let topo = toy_topology();
        let table = topo.vf_table().clone();
        let mut w = TraceWriter::new(&topo);
        w.interval(&toy_record(0, &table));
        w.apply(&[table.lowest(); 4]);
        w.fault(IntervalIndex(1), &Error::MsrReadFailed { msr: 0xC001_0201 });
        w.interval(&toy_record(2, &table));
        w.apply(&[table.highest(); 4]);
        let doc = w.finish();

        let mut replay = ReplayPlatform::new(TraceReader::parse(&doc).unwrap());
        assert_eq!(replay.current_interval(), IntervalIndex(0));
        let r0 = replay.sample().unwrap();
        assert_eq!(r0.index, IntervalIndex(0));
        replay.apply(&[table.lowest(); 4]).unwrap();
        assert_eq!(replay.current_interval(), IntervalIndex(1));
        let err = replay.sample().unwrap_err();
        assert_eq!(err, Error::MsrReadFailed { msr: 0xC001_0201 });
        let r2 = replay.sample().unwrap();
        assert_eq!(r2.index, IntervalIndex(2));
        replay.apply(&[table.highest(); 4]).unwrap();
        assert!(replay.sample().is_err(), "exhausted trace errors");
    }

    #[test]
    fn strict_replay_rejects_diverging_applies() {
        let topo = toy_topology();
        let table = topo.vf_table().clone();
        let mut w = TraceWriter::new(&topo);
        w.interval(&toy_record(0, &table));
        w.apply(&[table.lowest(); 4]);
        let doc = w.finish();

        let mut strict = ReplayPlatform::new(TraceReader::parse(&doc).unwrap()).strict();
        strict.sample().unwrap();
        assert!(strict.apply(&[table.highest(); 4]).is_err());

        let mut tolerant = ReplayPlatform::new(TraceReader::parse(&doc).unwrap());
        tolerant.sample().unwrap();
        tolerant.apply(&[table.highest(); 4]).unwrap();
    }

    #[test]
    fn strict_divergence_error_names_the_interval_and_both_values() {
        let topo = toy_topology();
        let table = topo.vf_table().clone();
        let mut w = TraceWriter::new(&topo);
        w.interval(&toy_record(0, &table));
        w.apply(&[table.lowest(); 4]);
        w.interval(&toy_record(1, &table));
        w.apply(&[table.lowest(); 4]);
        let doc = w.finish();

        // Follow the trace for interval 0, diverge at interval 1.
        let mut strict = ReplayPlatform::new(TraceReader::parse(&doc).unwrap()).strict();
        strict.sample().unwrap();
        strict.apply(&[table.lowest(); 4]).unwrap();
        strict.sample().unwrap();
        let err = strict.apply(&[table.highest(); 4]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("diverged at interval 1"),
            "error must name the diverging interval: {msg}"
        );
        assert!(
            msg.contains(&format!("{:?}", vec![table.highest(); 4]))
                && msg.contains(&format!("{:?}", vec![table.lowest(); 4])),
            "error must show both the daemon's and the recorded assignment: {msg}"
        );
    }

    #[test]
    fn replay_treats_decision_lines_as_comments() {
        let topo = toy_topology();
        let table = topo.vf_table().clone();
        let mut w = TraceWriter::new(&topo);
        w.interval(&toy_record(0, &table));
        w.decision(&DecisionRecord {
            interval: IntervalIndex(0),
            chosen: vec![table.lowest(); 4],
            predicted_power: Some(Watts::new(61.5)),
            realized_power: Some(Watts::new(60.0)),
            cap: Some(Watts::new(70.0)),
            cap_violated: Some(false),
        });
        w.apply(&[table.lowest(); 4]);
        w.decision(&DecisionRecord {
            interval: IntervalIndex(1),
            chosen: vec![table.lowest(); 4],
            predicted_power: None,
            realized_power: None,
            cap: None,
            cap_violated: None,
        });
        w.interval(&toy_record(1, &table));
        let doc = w.finish();

        let trace = TraceReader::parse(&doc).unwrap();
        assert_eq!(trace.decisions().count(), 2);
        assert_eq!(
            trace.decisions().next().map(|d| d.power_error()),
            Some(Some(Watts::new(1.5)))
        );
        // Round trip: re-encoding the parsed trace is byte-lossless.
        assert_eq!(crate::binary::encode(&trace), doc);
        // The dump renders the meta line plus one line per event.
        let dump = trace.to_jsonl();
        assert!(dump.starts_with("{\"type\":\"meta\",\"version\":1,"));
        assert_eq!(dump.lines().count(), trace.events.len() + 1);
        assert_eq!(
            dump.lines()
                .filter(|l| l.starts_with("{\"type\":\"decision\""))
                .count(),
            2
        );

        // Strict replay sails past the annotations.
        let mut strict = ReplayPlatform::new(trace).strict();
        strict.sample().unwrap();
        strict.apply(&[table.lowest(); 4]).unwrap();
        strict.sample().unwrap();
        assert_eq!(strict.remaining(), 0);
    }

    #[test]
    fn recording_platform_wraps_a_replay() {
        // Record a replay of a hand-written trace: the re-recorded
        // document must equal the original minus the divergence-free
        // apply lines it reproduces.
        let topo = toy_topology();
        let table = topo.vf_table().clone();
        let mut w = TraceWriter::new(&topo);
        w.interval(&toy_record(0, &table));
        w.apply(&[table.lowest(); 4]);
        w.interval(&toy_record(1, &table));
        w.apply(&[table.lowest(); 4]);
        let doc = w.finish();

        let replay = ReplayPlatform::new(TraceReader::parse(&doc).unwrap());
        let mut rec = RecordingPlatform::new(replay);
        for _ in 0..2 {
            let r = rec.sample().unwrap();
            rec.apply(&[table.lowest(); 4]).unwrap();
            assert!(r.duration.as_secs() > 0.0);
        }
        assert_eq!(rec.inner().remaining(), 0);
        let (_, redoc) = rec.finish();
        assert_eq!(redoc, doc, "re-recording a faithful replay is lossless");
    }

    #[test]
    fn apply_uniform_default_covers_every_cu() {
        let topo = toy_topology();
        let table = topo.vf_table().clone();
        let mut w = TraceWriter::new(&topo);
        w.interval(&toy_record(0, &table));
        let doc = w.finish();
        let mut replay = ReplayPlatform::new(TraceReader::parse(&doc).unwrap());
        replay.sample().unwrap();
        replay.apply_uniform(table.lowest()).unwrap();
        assert_eq!(replay.topology().cu_count(), 4);
        let _ = CuId(0);
    }
}
