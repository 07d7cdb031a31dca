//! Snapshot exporters: a human-readable text report and a JSON document.
//!
//! JSON emission is hand-rolled on std (this crate is dependency-free); the
//! output is plain standard JSON, which [`crate::json::parse`] reads back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::HistSummary;
use crate::json::push_json_string;
use crate::span::{SpanRecord, SpanSummary};

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
    /// Per-span-name aggregate timings.
    pub spans: BTreeMap<String, SpanSummary>,
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
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Span aggregate, zeroed when absent.
    pub fn span(&self, name: &str) -> SpanSummary {
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
                    fmt_ns(s.total_ns),
                    fmt_ns(s.p50_ns),
                    fmt_ns(s.p90_ns),
                    fmt_ns(s.p99_ns),
                    fmt_ns(s.max_ns)
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
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            let _ = write!(
                out,
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
                h.count, h.sum, h.min, h.max
            );
            push_f64(out, h.mean);
            let _ = write!(
                out,
                ",\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
                h.p50, h.p90, h.p95, h.p99, h.p999
            );
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", b.le, b.count);
            }
            out.push_str("]}");
        });
        out.push_str("},\"spans\":{");
        push_entries(&mut out, self.spans.iter(), |out, s| {
            let _ = write!(
                out,
                "{{\"count\":{},\"total_ns\":{},\"mean_ns\":",
                s.count, s.total_ns
            );
            push_f64(out, s.mean_ns);
            let _ = write!(
                out,
                ",\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns
            );
        });
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

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4) — what a future `mistique-server` would serve at
    /// `/metrics`, and what `mistique stats --prom` writes today.
    ///
    /// Counters become `<name>_total` counter families, gauges map 1:1, and
    /// histograms expand into cumulative `_bucket{le="..."}` series plus
    /// `_sum` and `_count` (bucket bounds come from the log-linear buckets
    /// actually hit, so the series is exact, not re-bucketed), with `_p999`
    /// and `_max` gauges carrying the tail. Span aggregates are duration
    /// histograms in disguise and are exported as
    /// `<name>_duration_nanoseconds` summaries via gauges for the quantiles.
    /// Every name is prefixed `mistique_` and sanitized (dots become
    /// underscores); distinct metric names that sanitize to the same family
    /// — possible with dynamically named per-codec metrics — are
    /// disambiguated with a numeric suffix so the exposition always passes
    /// [`validate_prometheus`] (which rejects duplicate TYPE declarations).
    pub fn render_prometheus(&self) -> String {
        use std::collections::HashSet;
        let mut out = String::with_capacity(1024);
        let mut seen: HashSet<String> = HashSet::new();
        for (name, v) in &self.counters {
            let n = unique_family(&mut seen, format!("{}_total", prom_name(name)));
            let _ = writeln!(out, "# HELP {n} Counter `{name}`.");
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = unique_family(&mut seen, prom_name(name));
            let _ = writeln!(out, "# HELP {n} Gauge `{name}`.");
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", prom_f64(*v));
        }
        for (name, h) in &self.histograms {
            let n = unique_family(&mut seen, prom_name(name));
            let _ = writeln!(out, "# HELP {n} Histogram `{name}`.");
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for b in &h.buckets {
                cum += b.count;
                let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", b.le);
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
            let p = unique_family(&mut seen, format!("{n}_p999"));
            let _ = writeln!(out, "# HELP {p} 99.9th percentile of `{name}`.");
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {}", h.p999);
            let m = unique_family(&mut seen, format!("{n}_max"));
            let _ = writeln!(out, "# HELP {m} Largest recorded value of `{name}`.");
            let _ = writeln!(out, "# TYPE {m} gauge");
            let _ = writeln!(out, "{m} {}", h.max);
        }
        for (name, s) in &self.spans {
            let base = format!("{}_duration_nanoseconds", prom_name(name));
            let nc = unique_family(&mut seen, format!("{base}_count"));
            let _ = writeln!(out, "# HELP {nc} Completed `{name}` spans.");
            let _ = writeln!(out, "# TYPE {nc} counter");
            let _ = writeln!(out, "{nc} {}", s.count);
            let ns = unique_family(&mut seen, format!("{base}_sum"));
            let _ = writeln!(out, "# HELP {ns} Total `{name}` span duration.");
            let _ = writeln!(out, "# TYPE {ns} counter");
            let _ = writeln!(out, "{ns} {}", s.total_ns);
            let np = unique_family(&mut seen, format!("{base}_p99"));
            let _ = writeln!(out, "# HELP {np} 99th percentile `{name}` span duration.");
            let _ = writeln!(out, "# TYPE {np} gauge");
            let _ = writeln!(out, "{np} {}", s.p99_ns);
        }
        out
    }
}

/// Claim a family name, disambiguating sanitization collisions (two metric
/// names mapping onto the same Prometheus name) with a `_2`, `_3`, …
/// suffix. Registry maps are ordered, so the assignment is deterministic.
fn unique_family(seen: &mut std::collections::HashSet<String>, want: String) -> String {
    if seen.insert(want.clone()) {
        return want;
    }
    for i in 2.. {
        let candidate = format!("{want}_{i}");
        if seen.insert(candidate.clone()) {
            return candidate;
        }
    }
    unreachable!("the suffix loop always terminates")
}

/// Map a metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixed with `mistique_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("mistique_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus value rendering: finite floats as-is, non-finite values use
/// the exposition spelling (`NaN`, `+Inf`, `-Inf`).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Validate a Prometheus text exposition document: every sample line must
/// parse (`name{labels} value`), every sample must be preceded by a `# TYPE`
/// declaration covering it, and histogram families must have monotone
/// cumulative buckets whose `+Inf` bucket equals `_count`.
///
/// This is the CI gate for the `/metrics` surface — dependency-free, so it
/// deliberately covers only the subset the renderer emits (no timestamps,
/// no exemplars).
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    // Metric family name -> declared type.
    let mut types: HashMap<String, String> = HashMap::new();
    // Histogram family -> (last cumulative bucket, +Inf bucket, count).
    let mut hist_state: HashMap<String, (u64, Option<u64>, Option<u64>)> = HashMap::new();

    let valid_name = |s: &str| -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().unwrap_or("");
                let ty = parts.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: invalid metric name in TYPE"));
                }
                if !matches!(
                    ty,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown type {ty:?}"));
                }
                if types.insert(name.to_string(), ty.to_string()).is_some() {
                    return Err(format!("line {lineno}: duplicate TYPE for {name}"));
                }
            }
            // HELP and other comments pass through.
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no value"))?;
        if value != "NaN" && value != "+Inf" && value != "-Inf" && value.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: unparseable value {value:?}"));
        }
        let (name, labels) = match name_and_labels.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                (n, Some(labels))
            }
            None => (name_and_labels, None),
        };
        if !valid_name(name) {
            return Err(format!("line {lineno}: invalid sample name {name:?}"));
        }
        let mut le: Option<String> = None;
        if let Some(labels) = labels {
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {lineno}: malformed label {pair:?}"))?;
                if !valid_name(k) {
                    return Err(format!("line {lineno}: invalid label name {k:?}"));
                }
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("line {lineno}: unquoted label value {v:?}"))?;
                if k == "le" {
                    le = Some(v.to_string());
                }
            }
        }
        // The sample must belong to a declared family: either its own name,
        // or a histogram family via the _bucket/_sum/_count suffixes.
        let family = ["_bucket", "_sum", "_count"].iter().find_map(|suf| {
            let base = name.strip_suffix(suf)?;
            (types.get(base).map(String::as_str) == Some("histogram")).then(|| base.to_string())
        });
        match family {
            Some(base) => {
                let st = hist_state.entry(base.clone()).or_insert((0, None, None));
                if name.ends_with("_bucket") {
                    let le = le.ok_or_else(|| {
                        format!("line {lineno}: histogram bucket without le label")
                    })?;
                    let cum: u64 = value
                        .parse()
                        .map_err(|_| format!("line {lineno}: non-integer bucket count"))?;
                    if cum < st.0 {
                        return Err(format!(
                            "line {lineno}: bucket counts not cumulative for {base}"
                        ));
                    }
                    st.0 = cum;
                    if le == "+Inf" {
                        st.1 = Some(cum);
                    } else if le.parse::<f64>().is_err() {
                        return Err(format!("line {lineno}: invalid le bound {le:?}"));
                    }
                } else if name.ends_with("_count") {
                    st.2 = value.parse().ok();
                }
            }
            None => {
                if !types.contains_key(name) {
                    return Err(format!("line {lineno}: sample {name} has no TYPE"));
                }
            }
        }
    }
    for (base, (_, inf, count)) in &hist_state {
        match (inf, count) {
            (Some(i), Some(c)) if i == c => {}
            (Some(_), Some(_)) => {
                return Err(format!("histogram {base}: +Inf bucket != _count"));
            }
            _ => return Err(format!("histogram {base}: missing +Inf bucket or _count")),
        }
    }
    Ok(())
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

/// Format nanoseconds with adaptive units for the text report.
pub(crate) fn fmt_ns(ns: u64) -> String {
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
    fn json_histograms_carry_quantiles_and_buckets() {
        let json = populated().to_json_string();
        assert!(json.contains("\"p95\":"));
        assert!(json.contains("\"buckets\":[["));
    }

    #[test]
    fn prometheus_exposition_passes_its_own_validator() {
        let obs = Obs::new();
        obs.counter("store.put.count").add(3);
        obs.gauge("cost.read_bandwidth").set(123.5);
        obs.gauge("weird-name!").set(f64::NAN);
        let h = obs.histogram("store.put.ns");
        for v in [5u64, 5, 120, 9_000, 1 << 40] {
            h.record(v);
        }
        drop(obs.span("fetch.read"));
        let text = obs.snapshot().render_prometheus();
        validate_prometheus(&text).unwrap();
        assert!(text.contains("# TYPE mistique_store_put_count_total counter"));
        assert!(text.contains("mistique_store_put_count_total 3"));
        assert!(text.contains("mistique_cost_read_bandwidth 123.5"));
        assert!(text.contains("mistique_weird_name_ NaN"));
        assert!(text.contains("# TYPE mistique_store_put_ns histogram"));
        assert!(text.contains("mistique_store_put_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("mistique_store_put_ns_sum"));
        assert!(text.contains("mistique_store_put_ns_count 5"));
        assert!(text.contains("mistique_fetch_read_duration_nanoseconds_count 1"));
    }

    #[test]
    fn every_type_declaration_is_preceded_by_help() {
        let text = populated().render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let mut families = 0;
        for (i, line) in lines.iter().enumerate() {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                families += 1;
                let name = decl.split_whitespace().next().unwrap();
                assert!(
                    i > 0 && lines[i - 1].starts_with(&format!("# HELP {name} ")),
                    "family {name} lacks a HELP line"
                );
            }
        }
        assert!(families >= 5, "expected one family per metric kind");
    }

    #[test]
    fn sanitization_collisions_are_disambiguated() {
        // Two distinct metric names that sanitize to the same Prometheus
        // family (the shape dynamically named per-codec metrics can take)
        // must not produce duplicate TYPE declarations.
        let obs = Obs::new();
        obs.gauge("read.codec.a-b.bytes").set(1.0);
        obs.gauge("read.codec.a.b.bytes").set(2.0);
        let text = obs.snapshot().render_prometheus();
        validate_prometheus(&text).unwrap();
        assert!(text.contains("mistique_read_codec_a_b_bytes 1"));
        assert!(text.contains("mistique_read_codec_a_b_bytes_2 2"));
    }

    #[test]
    fn histogram_tail_gauges_are_exported() {
        let obs = Obs::new();
        let h = obs.histogram("lat.ns");
        for v in [10u64, 20, 30, 40, 5_000] {
            h.record(v);
        }
        let text = obs.snapshot().render_prometheus();
        validate_prometheus(&text).unwrap();
        assert!(text.contains("# TYPE mistique_lat_ns_p999 gauge"));
        assert!(text.contains("mistique_lat_ns_max 5000"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_count() {
        let obs = Obs::new();
        let h = obs.histogram("h");
        for v in 0..100u64 {
            h.record(v * 37);
        }
        let text = obs.snapshot().render_prometheus();
        validate_prometheus(&text).unwrap();
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("mistique_h_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative counts must not decrease: {line}");
            last = v;
        }
        assert_eq!(last, 100);
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for (doc, why) in [
            ("metric_without_type 1\n", "sample with no TYPE"),
            ("# TYPE m gauge\nm notanumber\n", "unparseable value"),
            ("# TYPE m gauge\n9bad 1\n", "invalid sample name"),
            ("# TYPE m wat\nm 1\n", "unknown type"),
            ("# TYPE m gauge\nm{le=unquoted} 1\n", "unquoted label"),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 3\n",
                "+Inf bucket != count",
            ),
            (
                "# TYPE h histogram\nh_sum 9\nh_count 3\n",
                "missing +Inf bucket",
            ),
        ] {
            assert!(validate_prometheus(doc).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(2_500), "2.5us");
        assert_eq!(fmt_ns(3_000_000), "3.000ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.500s");
    }
}
