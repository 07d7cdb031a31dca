//! Snapshot exporters: a human-readable text report and a JSON document.
//!
//! JSON emission is hand-rolled on std (this crate is dependency-free); the
//! output is plain standard JSON, which [`crate::json::parse`] reads back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::HistSummary;
use crate::json::push_json_string;
use crate::span::SpanRecord;

/// A point-in-time snapshot of every metric and span aggregate in an
/// [`crate::Obs`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Per-span-name duration histograms (nanoseconds).
    pub spans: BTreeMap<String, HistSummary>,
    /// Ring buffer of recently finished spans, oldest first.
    pub recent_spans: Vec<SpanRecord>,
}

impl Snapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0.0 when absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Histogram summary, zeroed when absent.
    pub fn histogram(&self, name: &str) -> HistSummary {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    /// Span aggregate, zeroed when absent.
    pub fn span(&self, name: &str) -> HistSummary {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Render the snapshot as an aligned, human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("== counters ==\n");
            let w = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<w$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("== gauges ==\n");
            let w = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<w$}  {v:.3}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("== histograms ==\n");
            let w = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<w$}  n={} mean={:.1} p50={} p90={} p95={} p99={} p999={} max={}",
                    h.count, h.mean, h.p50, h.p90, h.p95, h.p99, h.p999, h.max
                );
            }
        }
        if !self.spans.is_empty() {
            out.push_str("== spans ==\n");
            let w = self.spans.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {name:<w$}  n={} total={} p50={} p90={} p99={} max={}",
                    s.count,
                    fmt_ns(s.sum),
                    fmt_ns(s.p50),
                    fmt_ns(s.p90),
                    fmt_ns(s.p99),
                    fmt_ns(s.max)
                );
            }
        }
        if !self.recent_spans.is_empty() {
            out.push_str("== recent spans (oldest first) ==\n");
            for r in &self.recent_spans {
                let _ = write!(
                    out,
                    "  [+{}] {} ({})",
                    fmt_ns(r.start_ns),
                    r.name,
                    fmt_ns(r.dur_ns)
                );
                if let Some(p) = &r.parent {
                    let _ = write!(out, " parent={p}");
                }
                for (k, v) in &r.attrs {
                    let _ = write!(out, " {k}={v}");
                }
                out.push('\n');
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Serialize the snapshot as a JSON document.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str("\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |out, v| push_f64(out, *v));
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), push_hist);
        out.push_str("},\"spans\":{");
        push_entries(&mut out, self.spans.iter(), push_hist);
        out.push_str("},\"recent_spans\":[");
        for (i, r) in self.recent_spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, &r.name);
            out.push_str(",\"parent\":");
            match &r.parent {
                Some(p) => push_json_string(&mut out, p),
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"id\":{},\"parent_id\":", r.id);
            match r.parent_id {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"trace_id\":{},\"thread\":{},\"start_ns\":{},\"dur_ns\":{},\"attrs\":{{",
                r.trace_id, r.thread, r.start_ns, r.dur_ns
            );
            for (j, (k, v)) in r.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, k);
                out.push(':');
                push_json_string(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// Write `"key":<value>` entries separated by commas.
fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut write_value: impl FnMut(&mut String, &'a V),
) {
    for (i, (name, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, name);
        out.push(':');
        write_value(out, v);
    }
}

/// One histogram summary as a JSON object (metric histograms and span
/// aggregates share the shape).
fn push_hist(out: &mut String, h: &HistSummary) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
        h.count, h.sum, h.min, h.max
    );
    push_f64(out, h.mean);
    let _ = write!(
        out,
        ",\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"p999\":{}}}",
        h.p50, h.p90, h.p95, h.p99, h.p999
    );
}

/// JSON has no NaN/Infinity; map them to null.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // `Display` for f64 omits the decimal point for integral values,
        // which is still valid JSON (e.g. `3`).
    } else {
        out.push_str("null");
    }
}

/// Format nanoseconds with adaptive units — the one duration formatter of
/// every human-readable rendering (this report, the span tree, EXPLAIN
/// reports, `mistique top`).
pub fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.1}us", s * 1e6)
    } else {
        format!("{ns}ns")
    }
}

/// Format seconds like [`fmt_ns`]; a non-finite prediction prints as is.
pub fn fmt_secs(s: f64) -> String {
    if s.is_finite() {
        fmt_ns((s * 1e9).round() as u64)
    } else {
        format!("{s}")
    }
}

/// Format a byte count with binary units.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn populated() -> Snapshot {
        let obs = Obs::new();
        obs.counter("store.put.count").add(3);
        obs.gauge("cost.read_bandwidth").set(123.5);
        obs.histogram("store.put.ns").record(1000);
        let mut sp = obs.span("fetch.read");
        sp.attr("interm", "m1.\"quoted\"\n");
        drop(sp);
        obs.snapshot()
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let json = populated().to_json_string();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"store.put.count\":3"));
        assert!(json.contains("\"cost.read_bandwidth\":123.5"));
        assert!(json.contains("\\\"quoted\\\"\\n"));
        // Balanced braces/brackets outside of strings (crude structural check).
        let mut depth = 0i32;
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn nonfinite_gauges_become_null() {
        let obs = Obs::new();
        obs.gauge("bad").set(f64::INFINITY);
        let json = obs.snapshot().to_json_string();
        assert!(json.contains("\"bad\":null"));
    }

    #[test]
    fn text_report_mentions_every_section() {
        let text = populated().render_text();
        assert!(text.contains("== counters =="));
        assert!(text.contains("store.put.count"));
        assert!(text.contains("== gauges =="));
        assert!(text.contains("== histograms =="));
        assert!(text.contains("== spans =="));
        assert!(text.contains("== recent spans"));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let s = Snapshot::default();
        assert!(s.render_text().contains("no metrics recorded"));
        assert_eq!(
            s.to_json_string(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"spans\":{},\"recent_spans\":[]}"
        );
    }

    #[test]
    fn accessors_default_to_zero() {
        let s = Snapshot::default();
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.gauge("missing"), 0.0);
        assert_eq!(s.histogram("missing").count, 0);
        assert_eq!(s.span("missing").count, 0);
    }

    #[test]
    fn json_span_aggregates_are_histograms() {
        let json = populated().to_json_string();
        let v = crate::json::parse(&json).unwrap();
        for (section, name) in [("histograms", "store.put.ns"), ("spans", "fetch.read")] {
            let h = v.get(section).and_then(|s| s.get(name)).unwrap();
            for field in [
                "count", "sum", "min", "max", "mean", "p50", "p90", "p95", "p99", "p999",
            ] {
                assert!(h.get(field).is_some(), "{section}.{name} lacks {field}");
            }
        }
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(2_500), "2.5us");
        assert_eq!(fmt_ns(3_000_000), "3.000ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.500s");
        assert_eq!(fmt_secs(0.0012), "1.200ms");
        assert_eq!(fmt_secs(f64::INFINITY), "inf");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00MiB");
    }
}
