//! Chrome-trace JSON export, loadable by Perfetto (<https://ui.perfetto.dev>)
//! and `chrome://tracing`.
//!
//! Each finished span becomes one complete event (`"ph":"X"`) on its
//! thread's track; span ids, trace ids, parent links, and attributes ride
//! along in `args`. Timestamps are microseconds since the owning `Obs` was
//! created, with nanosecond precision kept as a fractional part.

use std::fmt::Write as _;

use crate::json::push_json_string;
use crate::span::SpanRecord;
use crate::timeline::Timeline;

/// Serialize spans as a Chrome-trace JSON document (object form, with a
/// `traceEvents` array holding one `"ph":"X"` event per span).
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_string(&mut out, &r.name);
        out.push_str(",\"cat\":\"mistique\",\"ph\":\"X\",\"pid\":1");
        let _ = write!(out, ",\"tid\":{}", r.thread);
        // The trace event format counts in microseconds; keep the
        // sub-microsecond part as a decimal fraction.
        let _ = write!(
            out,
            ",\"ts\":{}.{:03}",
            r.start_ns / 1_000,
            r.start_ns % 1_000
        );
        let _ = write!(out, ",\"dur\":{}.{:03}", r.dur_ns / 1_000, r.dur_ns % 1_000);
        let _ = write!(
            out,
            ",\"args\":{{\"span_id\":{},\"trace_id\":{}",
            r.id, r.trace_id
        );
        if let Some(p) = r.parent_id {
            let _ = write!(out, ",\"parent_id\":{p}");
        }
        for (k, v) in &r.attrs {
            out.push(',');
            push_json_string(&mut out, k);
            out.push(':');
            push_json_string(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Serialize a [`Timeline`] as Chrome-trace counter tracks: one `"ph":"C"`
/// event per changed metric per point, on pid 2 so the tracks sit apart
/// from span tracks. Histograms contribute their count and p99. Timestamps
/// are the points' wall-clock milliseconds rebased to the first point (the
/// trace format counts in microseconds).
pub fn counter_trace_json(tl: &Timeline) -> String {
    let mut out = String::with_capacity(64 + tl.points.len() * 120);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let t0 = tl.points.first().map(|p| p.t_ms).unwrap_or(0);
    let mut first = true;
    let mut push = |out: &mut String, name: &str, t_ms: u64, value: f64| {
        if !value.is_finite() {
            return; // the trace format has no NaN/Inf spelling
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        push_json_string(out, name);
        let _ = write!(
            out,
            ",\"cat\":\"mistique\",\"ph\":\"C\",\"pid\":2,\"ts\":{},\"args\":{{\"value\":{}}}}}",
            t_ms.saturating_sub(t0) * 1_000,
            value
        );
    };
    for p in &tl.points {
        for (name, &v) in &p.counters {
            push(&mut out, name, p.t_ms, v as f64);
        }
        for (name, &v) in &p.gauges {
            push(&mut out, name, p.t_ms, v);
        }
        for (name, h) in &p.hists {
            push(&mut out, &format!("{name}.count"), p.t_ms, h.count as f64);
            push(&mut out, &format!("{name}.p99"), p.t_ms, h.p99 as f64);
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::MemSegmentIo;
    use crate::timeline::FlightRecorder;
    use crate::Obs;

    #[test]
    fn emits_one_complete_event_per_span() {
        let obs = Obs::new();
        {
            let mut root = obs.span("fetch.read");
            root.attr("interm", "m1.\"s3\"");
            drop(obs.span("fetch.decode"));
        }
        let records = obs.recent_spans();
        let json = chrome_trace_json(&records);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), records.len());
        assert!(json.contains("\"name\":\"fetch.read\""));
        assert!(json.contains("\\\"s3\\\"")); // attr values escaped
        assert!(json.contains("\"parent_id\":")); // decode links to read
    }

    #[test]
    fn empty_input_is_still_valid() {
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
        assert_eq!(
            counter_trace_json(&Timeline::default()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn timeline_points_become_counter_events() {
        let obs = Obs::new();
        let io = MemSegmentIo::new();
        let mut rec = FlightRecorder::open(Box::new(io.clone()), 1 << 20);
        obs.counter("store.put.count").add(3);
        obs.gauge("adaptive.last_gamma").set(0.5);
        obs.histogram("store.put.ns").record(100);
        rec.capture(&obs.snapshot(), "log");
        obs.counter("store.put.count").inc();
        rec.capture(&obs.snapshot(), "log");
        let tl = Timeline::load(&io).unwrap();
        let json = counter_trace_json(&tl);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // First point: counter + gauge + hist count/p99; second: counter only.
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 5);
        assert_eq!(json.matches("\"name\":\"store.put.count\"").count(), 2);
        assert!(json.contains("\"name\":\"store.put.ns.count\""));
        assert!(json.contains("\"name\":\"store.put.ns.p99\""));
        assert!(json.contains("\"pid\":2"));
        // Valid JSON end to end.
        crate::json::parse(&json).unwrap();
    }
}
