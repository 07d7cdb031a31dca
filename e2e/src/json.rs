//! Hand-rolled JSON output (the crate depends on `std` and the workspace's
//! own crates only). Reading — `BENCHMARK.json` in `--selfcheck` — goes
//! through `mistique_obs::json`.

use std::fmt::Write as _;

/// A number as JSON: every digit Rust prints for the `f64` (which
/// round-trips), never `NaN`/`inf` (JSON has neither; they print as 0 and
/// the caller has already counted them as a failure).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// The benchmark's result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, each metric as `{"value": .., "unit": ..}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let mut out = String::with_capacity(64 + metrics.len() * 64);
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(name),
            number(*value),
            string(unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_obs::json::parse;

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "0.0");
    }

    #[test]
    fn result_line_parses_back() {
        let line = result_line(
            10,
            0,
            &[
                ("rows_ms".to_string(), 0.25, "ms"),
                ("a\"b".to_string(), 2.0, "1/s"),
            ],
        );
        let v = parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_f64()), Some(10.0));
        let m = v.get("metrics").unwrap();
        let rows = m.get("rows_ms").unwrap();
        assert_eq!(rows.get("value").and_then(|c| c.as_f64()), Some(0.25));
        assert_eq!(rows.get("unit").and_then(|c| c.as_str()), Some("ms"));
        assert!(m.get("a\"b").is_some());
    }
}
