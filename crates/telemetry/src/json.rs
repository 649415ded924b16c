//! The JSON number writer for the trace's JSON Lines dump.
//!
//! [`crate::trace::TraceReader::to_jsonl`] renders a trace as JSON
//! Lines for humans; the workspace is offline-only (no serde), so the
//! dump's tokens are hand-rolled: strings through
//! [`ppep_obs::export::JsonStr`], numbers through [`push_f64`]. Nothing
//! reads JSON back. Non-finite numbers are written as the strings
//! `"NaN"`, `"inf"` and `"-inf"`; finite values are exact because
//! Rust's `Display` for `f64` emits the shortest decimal form that
//! parses to the same bits.

/// Appends `v` to `out` as a JSON token: the shortest exact decimal
/// for finite values, the quoted `"NaN"`/`"inf"`/`"-inf"` spellings
/// otherwise.
pub fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v == f64::INFINITY {
        out.push_str("\"inf\"");
    } else if v == f64::NEG_INFINITY {
        out.push_str("\"-inf\"");
    } else {
        let _ = write!(out, "{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_f64_is_shortest_exact() {
        for v in [
            0.0,
            -0.0,
            0.1,
            2.0 / 3.0,
            1.4e9,
            f64::MIN_POSITIVE,
            f64::MAX,
            std::f64::consts::PI,
        ] {
            let mut s = String::new();
            push_f64(&mut s, v);
            let back = s.parse::<f64>().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s}");
        }
        let mut s = String::new();
        for v in [0.1, 1.4e9, -0.0, 95.25] {
            push_f64(&mut s, v);
            s.push(' ');
        }
        assert_eq!(s, "0.1 1400000000 -0 95.25 ");
    }

    #[test]
    fn nonfinite_f64_is_a_quoted_name() {
        for (v, want) in [
            (f64::NAN, "\"NaN\""),
            (f64::INFINITY, "\"inf\""),
            (f64::NEG_INFINITY, "\"-inf\""),
        ] {
            let mut s = String::new();
            push_f64(&mut s, v);
            assert_eq!(s, want);
        }
    }
}
