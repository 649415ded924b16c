//! JSON token writers for the trace's JSON Lines dump.
//!
//! [`crate::trace::TraceReader::to_jsonl`] renders a trace as JSON
//! Lines for humans; the workspace is offline-only (no serde), so this
//! module hand-rolls the two token writers the dump needs. Nothing
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

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn push_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
            let mut out = String::new();
            push_str(&mut out, s);
            assert_eq!(out, want);
        }
    }
}
