//! JSONL and Chrome `trace_event` exports.
//!
//! Both formats are hand-rolled (no serde): the records are flat and
//! the field set is fixed, so string assembly is simpler than pulling
//! in a serialization stack the offline container cannot fetch.

use crate::span::{EventRecord, SpanRecord};
use crate::trace::TraceSnapshot;

/// Displays a string as a quoted JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`, `\r` and `\t` take their short forms
/// and any other control character becomes `\u00XX`. The one JSON
/// string writer of the workspace's hand-rolled (serde-free) exports.
#[derive(Debug)]
pub struct JsonStr<'a>(pub &'a str);

impl std::fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use std::fmt::Write as _;
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// Formats nanoseconds as fractional microseconds with fixed
/// precision (Chrome's `ts`/`dur` unit).
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000.0)
}

/// One JSON object per line, one line per span — the grep/jq-friendly
/// form.
pub fn spans_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"seq\":{},\"stage\":\"{}\",\"interval\":{},\"start_ns\":{},\"dur_ns\":{}}}\n",
            s.seq,
            s.stage.name(),
            s.interval,
            s.start_ns,
            s.dur_ns,
        ));
    }
    out
}

fn span_and_event_entries(spans: &[SpanRecord], events: &[EventRecord]) -> Vec<String> {
    let mut entries: Vec<String> = Vec::with_capacity(spans.len() + events.len());
    for s in spans {
        entries.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"ppep\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":1,\"args\":{{\"interval\":{},\"seq\":{}}}}}",
            s.stage.name(),
            us(s.start_ns),
            us(s.dur_ns),
            s.interval,
            s.seq,
        ));
    }
    for e in events {
        entries.push(format!(
            "{{\"name\":{},\"cat\":\"ppep\",\"ph\":\"i\",\"ts\":{},\"s\":\"g\",\
             \"pid\":1,\"tid\":1,\"args\":{{\"interval\":{}}}}}",
            JsonStr(&e.name),
            us(e.at_ns),
            e.interval,
        ));
    }
    entries
}

fn wrap_trace_events(entries: Vec<String>) -> String {
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
        entries.join(",")
    )
}

/// Renders an `f64` as a JSON number (non-finite values have no JSON
/// spelling and degrade to `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Chrome `trace_event` JSON: complete (`ph:"X"`) events for spans and
/// instant (`ph:"i"`) events, wrapped in the `traceEvents` object form
/// that `chrome://tracing` and Perfetto both load.
pub fn chrome_trace(spans: &[SpanRecord], events: &[EventRecord]) -> String {
    wrap_trace_events(span_and_event_entries(spans, events))
}

/// Chrome `trace_event` JSON for a whole [`TraceSnapshot`]: the spans
/// and instant events of [`chrome_trace`] plus one counter
/// (`ph:"C"`) event per gauge — so `accuracy.*` gauges (mean error,
/// EWMA, drift flag) show up as counter tracks next to the pipeline
/// spans. Counters are stamped at the end of the last span, where the
/// final values were taken.
pub fn chrome_trace_snapshot(snap: &TraceSnapshot) -> String {
    let mut entries = span_and_event_entries(&snap.spans, &snap.events);
    let end_ns = snap
        .spans
        .iter()
        .map(|s| s.start_ns.saturating_add(s.dur_ns))
        .max()
        .unwrap_or(0);
    for (name, value) in &snap.gauges {
        entries.push(format!(
            "{{\"name\":{},\"cat\":\"ppep\",\"ph\":\"C\",\"ts\":{},\
             \"pid\":1,\"tid\":1,\"args\":{{\"value\":{}}}}}",
            JsonStr(name),
            us(end_ns),
            num(*value),
        ));
    }
    wrap_trace_events(entries)
}

/// One JSON object per line for every counter, gauge, and histogram in
/// the snapshot — the grep/jq-friendly sibling of [`spans_jsonl`].
/// Histogram lines carry count and bucket-resolution p50/p95/p99/max,
/// which covers both the `stage.*` latency histograms (µs) and the
/// `accuracy.*_pct` error histograms (percent).
pub fn metrics_jsonl(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!(
            "{{\"kind\":\"counter\",\"name\":{},\"value\":{value}}}\n",
            JsonStr(name),
        ));
    }
    for (name, value) in &snap.gauges {
        out.push_str(&format!(
            "{{\"kind\":\"gauge\",\"name\":{},\"value\":{}}}\n",
            JsonStr(name),
            num(*value),
        ));
    }
    for (name, h) in &snap.histograms {
        out.push_str(&format!(
            "{{\"kind\":\"histogram\",\"name\":{},\"count\":{},\"p50\":{},\
             \"p95\":{},\"p99\":{},\"max\":{}}}\n",
            JsonStr(name),
            h.count(),
            num(h.percentile(0.50)),
            num(h.percentile(0.95)),
            num(h.percentile(0.99)),
            num(h.max()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Stage;

    fn sample_spans() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                seq: 0,
                stage: Stage::CpiPredict,
                interval: 2,
                start_ns: 1_500,
                dur_ns: 2_000,
            },
            SpanRecord {
                seq: 1,
                stage: Stage::Decide,
                interval: 2,
                start_ns: 4_000,
                dur_ns: 500,
            },
        ]
    }

    #[test]
    fn jsonl_has_one_object_per_line_with_all_fields() {
        let text = spans_jsonl(&sample_spans());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"stage\":\"cpi-predict\",\"interval\":2,\"start_ns\":1500,\"dur_ns\":2000}"
        );
        assert!(lines[1].contains("\"stage\":\"decide\""));
    }

    #[test]
    fn chrome_trace_shape_matches_trace_event_format() {
        let events = vec![EventRecord {
            name: "health.degraded".to_string(),
            interval: 3,
            at_ns: 7_250,
        }];
        let json = chrome_trace(&sample_spans(), &events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // Complete event: ph X, µs timestamps (1500 ns -> 1.500 µs).
        assert!(json.contains(
            "{\"name\":\"cpi-predict\",\"cat\":\"ppep\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.000"
        ));
        assert!(json.contains("\"args\":{\"interval\":2,\"seq\":0}"));
        // Instant event: ph i with global scope.
        assert!(json.contains(
            "{\"name\":\"health.degraded\",\"cat\":\"ppep\",\"ph\":\"i\",\"ts\":7.250,\"s\":\"g\""
        ));
        // Balanced braces/brackets => structurally sound JSON for this
        // escaped-quote-free payload.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_inputs_produce_valid_documents() {
        assert_eq!(spans_jsonl(&[]), "");
        let json = chrome_trace(&[], &[]);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
    }

    #[test]
    fn snapshot_export_carries_gauges_and_histograms() {
        use crate::trace::TraceRecorder;
        use crate::Recorder;

        let rec = TraceRecorder::new();
        rec.record_span(Stage::Decide, 0, 0, 5_000);
        rec.set_gauge("accuracy.cpi.mean_pct", 3.25);
        rec.add("serve.sessions_admitted", 2);
        rec.observe("accuracy.cpi.err_pct", 4.0);
        let snap = rec.snapshot();

        let chrome = chrome_trace_snapshot(&snap);
        assert!(
            chrome.contains("\"name\":\"accuracy.cpi.mean_pct\",\"cat\":\"ppep\",\"ph\":\"C\""),
            "{chrome}"
        );
        assert!(chrome.contains("\"value\":3.250000"), "{chrome}");
        assert!(chrome.contains("\"name\":\"decide\""), "{chrome}");
        assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());

        let jsonl = metrics_jsonl(&snap);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"counter\"")
            && l.contains("serve.sessions_admitted")
            && l.contains("\"value\":2")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"gauge\"") && l.contains("accuracy.cpi.mean_pct")));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"histogram\"")
            && l.contains("accuracy.cpi.err_pct")
            && l.contains("\"count\":1")));
        // The stage histogram fed by the span rides along too.
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"histogram\"") && l.contains("stage.decide")));
    }

    #[test]
    fn non_finite_gauges_degrade_to_null() {
        use crate::Recorder;
        let rec = crate::trace::TraceRecorder::new();
        rec.set_gauge("weird", f64::INFINITY);
        let jsonl = metrics_jsonl(&rec.snapshot());
        assert!(jsonl.contains("\"value\":null"), "{jsonl}");
    }

    #[test]
    fn event_names_are_escaped() {
        let events = vec![EventRecord {
            name: "weird\"name\n".to_string(),
            interval: 0,
            at_ns: 0,
        }];
        let json = chrome_trace(&[], &events);
        assert!(json.contains("weird\\\"name\\n"));
    }

    #[test]
    fn strings_are_quoted_and_escaped() {
        for (s, want) in [
            ("plain", r#""plain""#),
            ("with \"quotes\"", r#""with \"quotes\"""#),
            ("back\\slash", r#""back\\slash""#),
            ("tab\there", r#""tab\there""#),
            ("new\nline\r", r#""new\nline\r""#),
            ("bell\u{7}", r#""bell\u0007""#),
            ("μW·s", "\"μW·s\""),
        ] {
            assert_eq!(JsonStr(s).to_string(), want);
        }
    }
}
