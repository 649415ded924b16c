//! Spans the benchmark records around its own calls into each layer.
//!
//! Nothing here reaches inside the program: every span brackets one
//! call the benchmark makes into a layer's public API (or, for the
//! daemon, into a benchmark-side `Platform`/`DvfsController` wrapper
//! that the real `ResilientDaemon::step` calls). Spans live in memory
//! and are written as JSONL when the run ends.
//!
//! A span's layer is its name up to the first `.`. Spans named `op.*`
//! are roots: one per end-to-end operation (a served frame, a daemon
//! interval, an explored interval). A layer's self time is its span's
//! duration minus the time its direct children cover. Spans opened
//! outside any root price a layer off the workload's path (on the same
//! inputs) and are excluded from the per-operation accounting.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::report::Report;
use crate::stats::{EmptySamples, Samples};

/// The request a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// A served frame: (tenant, round).
    Frame {
        /// The tenant.
        tenant: u64,
        /// The schedule round.
        round: u64,
    },
    /// A daemon or explored interval.
    Interval(u64),
    /// A schedule round (the tick barrier).
    Round(u64),
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, or `op.<kind>` for a root.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request the span serves.
    pub req: Req,
}

impl Span {
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder with a stack of open spans. A disabled
/// recorder keeps nothing, so one code path serves the traced run and
/// the untraced baseline it is compared against.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

/// The id [`Tracer::open`] hands out when recording is off.
const NOT_RECORDED: usize = usize::MAX;

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, req: Req) -> usize {
        if !self.enabled {
            return NOT_RECORDED;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        if id == NOT_RECORDED {
            return;
        }
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, req: Req, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut line = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = match s.req {
                Req::Frame { tenant, round } => {
                    format!("{{\"tenant\":{tenant},\"round\":{round}}}")
                }
                Req::Interval(i) => format!("{{\"interval\":{i}}}"),
                Req::Round(r) => format!("{{\"round\":{r}}}"),
            };
            let _ = writeln!(
                line,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"req\":{req}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }

    /// Per-call durations in µs, keyed by span name (roots included).
    pub fn call_durations_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e3);
        }
        out
    }

    /// Per-operation self time in µs, keyed by layer: for every root
    /// span named `root`, the self time of each layer's spans beneath
    /// it (the root's own self time under the `op` layer), summed.
    /// Layers absent from an operation contribute a zero for it.
    pub fn self_per_op_us(&self, root: &str) -> BTreeMap<&'static str, Vec<f64>> {
        let n = self.spans.len();
        let mut child_ns = vec![0u64; n];
        let mut root_of = vec![usize::MAX; n];
        for (i, s) in self.spans.iter().enumerate() {
            // Parents open before their children, so a parent's root
            // is already known here.
            root_of[i] = match s.parent {
                Some(p) => {
                    child_ns[p] += s.dur_ns();
                    root_of[p]
                }
                None => i,
            };
        }
        let roots: Vec<usize> = (0..n)
            .filter(|&i| self.spans[i].parent.is_none() && self.spans[i].name == root)
            .collect();
        let mut slot = vec![usize::MAX; n];
        for (k, &r) in roots.iter().enumerate() {
            slot[r] = k;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let k = slot[root_of[i]];
            if k == usize::MAX {
                continue; // priced off the workload's path
            }
            let self_us = s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e3;
            out.entry(s.layer())
                .or_insert_with(|| vec![0.0; roots.len()])[k] += self_us;
        }
        out
    }
}

/// End-to-end operation durations from a phase that traces every other
/// operation. Comparing the two halves prices the tracing in the same
/// stretch of a shared machine, where two phases run one after the
/// other could each meet a different load.
#[derive(Debug, Default)]
pub struct Interleaved {
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
    next: u64,
}

impl Interleaved {
    /// Whether the next operation is traced; call once per operation,
    /// before it runs.
    pub fn next_traced(&mut self) -> bool {
        self.next += 1;
        self.next % 2 == 1
    }

    /// Records one operation's duration.
    pub fn push(&mut self, traced: bool, us: f64) {
        if traced {
            self.traced_us.push(us);
        } else {
            self.untraced_us.push(us);
        }
    }

    /// The untraced operations' p50.
    ///
    /// # Errors
    ///
    /// [`EmptySamples`] when no operation ran untraced.
    pub fn untraced_p50_us(&self) -> Result<f64, EmptySamples> {
        Ok(Samples::new(self.untraced_us.clone())?.percentile(0.5))
    }

    /// The traced operations' p50 minus the untraced ones'.
    ///
    /// # Errors
    ///
    /// [`EmptySamples`] when either half is empty.
    pub fn overhead_us(&self) -> Result<f64, EmptySamples> {
        let traced = Samples::new(self.traced_us.clone())?.percentile(0.5);
        Ok(traced - self.untraced_p50_us()?)
    }
}

/// Reports a traced run's layer table: p50/p99/count of every timed
/// call, each layer's per-operation self time under `root` spans, and
/// `unattributed_us` — the untraced end-to-end p50 less the sum of
/// those self-time p50s and of the `extra` layers the workload priced
/// separately (generator lag, transport overhead).
pub fn report_layers(
    report: &mut Report,
    tracer: &Tracer,
    root: &str,
    e2e_p50_us: f64,
    extra: &[(&str, f64)],
) {
    for (name, durations) in tracer.call_durations_us() {
        report.put_latency(name, &durations);
    }
    let mut attributed: f64 = extra.iter().map(|(_, v)| v).sum();
    for (layer, per_op) in tracer.self_per_op_us(root) {
        let Ok(s) = Samples::new(per_op) else {
            continue;
        };
        let p50 = s.percentile(0.5);
        report.put(format!("{layer}.self_p50_us"), p50, "us");
        if layer != "op" {
            attributed += p50;
        }
    }
    report.put("unattributed_us", e2e_p50_us - attributed, "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_root() {
        let mut t = Tracer::new();
        for round in 0..2 {
            let req = Req::Frame { tenant: 1, round };
            let root = t.open("op.frame", req);
            t.time("codec.encode", req, || spin(200));
            let svc = t.open("service.submit", req);
            t.time("codec.inner", req, || spin(100));
            spin(100);
            t.close(svc);
            t.close(root);
        }
        // Off-path pricing: not part of any root.
        t.time("core.project", Req::Interval(0), || spin(50));

        let per_op = t.self_per_op_us("op.frame");
        assert_eq!(per_op["codec"].len(), 2);
        assert_eq!(per_op["service"].len(), 2);
        assert!(!per_op.contains_key("core"), "off-path spans are excluded");
        assert!(t.self_per_op_us("op.interval").is_empty());
        for k in 0..2 {
            assert!(per_op["codec"][k] >= 300.0, "{per_op:?}");
            assert!(per_op["service"][k] >= 100.0 && per_op["service"][k] < 200.0);
        }
        let calls = t.call_durations_us();
        assert_eq!(calls["op.frame"].len(), 2);
        assert!(calls["service.submit"][0] >= 200.0);
        assert_eq!(calls["core.project"].len(), 1);
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(2));
    }

    #[test]
    fn interleaving_alternates_and_prices_the_difference() {
        let mut split = Interleaved::default();
        assert!(split.overhead_us().is_err());
        let mut t = Tracer::new();
        for k in 0..4 {
            let traced = split.next_traced();
            assert_eq!(traced, k % 2 == 0);
            t.set_enabled(traced);
            t.time("op.interval", Req::Interval(k), || {});
            split.push(traced, if traced { 5.0 } else { 3.0 });
        }
        assert_eq!(t.spans().len(), 2, "only traced operations leave spans");
        assert_eq!(split.untraced_p50_us(), Ok(3.0));
        assert_eq!(split.overhead_us(), Ok(2.0));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::new();
        t.time("op.interval", Req::Interval(7), || {});
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\":\"op.interval\""));
        assert!(text.contains("\"req\":{\"interval\":7}"));
        assert!(text.contains("\"parent\":null"));
    }
}
