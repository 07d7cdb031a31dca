//! The metric timeline: delta points that ride on audit records.
//!
//! At every burst boundary (logging, reclaim passes, recovery — plus a
//! periodic tick) the engine computes a **delta point** with
//! [`LastSeen::point`] — the absolute values of only the metrics that
//! changed since the previous point — and puts it on the audit record of
//! the operation that took it ([`crate::AuditRecord::metrics`]). The
//! journal is the one ring on disk; a [`Timeline`] is the view of the
//! records that carry a point ([`Timeline::from_records`]), and a point's
//! `seq` and `t_ms` are its record's.
//!
//! Counters reset when the process restarts (each `Obs` registry starts at
//! zero, exactly like Prometheus counters after a target restart); the
//! point captured with reason `recovery` marks each such boundary, and
//! carries the recovery pass's `store.recovery.*` counters.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;

use crate::audit::AuditRecord;
use crate::export::Snapshot;
use crate::json::{push_json_string, JsonValue};

/// Absolute histogram state carried by a delta point (recorded whenever the
/// histogram's count moved since the previous point).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistPoint {
    /// Total recorded values so far.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile (absent in pre-existing journals; falls back to
    /// `p99` on load).
    pub p999: u64,
}

/// One delta snapshot: the metrics that changed since the previous point,
/// at their new absolute values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelinePoint {
    /// Sequence number of the audit record carrying the point (0 until
    /// [`Timeline::from_records`] reads it off the record).
    pub seq: u64,
    /// Unix timestamp in milliseconds of that record (0 until then too).
    pub t_ms: u64,
    /// Burst boundary that triggered the capture (`log`, `reclaim`,
    /// `recovery` or `interval`).
    pub reason: String,
    /// Changed counters at their new absolute values.
    pub counters: BTreeMap<String, u64>,
    /// Changed gauges at their new values (NaN survives as JSON null).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms whose count moved, at their new absolute summaries.
    pub hists: BTreeMap<String, HistPoint>,
}

impl TimelinePoint {
    /// Serialize as one JSON object (the `mistique timeline --json` element).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"k\":\"pt\",\"seq\":{},\"t_ms\":{},",
            self.seq, self.t_ms
        );
        self.push_fields(&mut out);
        out.push('}');
        out
    }

    /// Write `"reason":…,"counters":{…},"gauges":{…},"hists":{…}`: the
    /// point's own fields, which an audit record's `metrics` object holds.
    pub(crate) fn push_fields(&self, out: &mut String) {
        out.push_str("\"reason\":");
        push_json_string(out, &self.reason);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(out, name);
            out.push(':');
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99, h.p999
            );
        }
        out.push('}');
    }

    /// Parse the fields [`TimelinePoint::push_fields`] wrote (`seq` and
    /// `t_ms` stay 0: they are the carrying record's).
    pub(crate) fn from_fields(v: &JsonValue) -> Option<TimelinePoint> {
        let counters = v
            .get("counters")?
            .as_obj()?
            .iter()
            .filter_map(|(k, c)| Some((k.clone(), c.as_u64()?)))
            .collect();
        let gauges = v
            .get("gauges")?
            .as_obj()?
            .iter()
            .map(|(k, g)| (k.clone(), g.as_f64().unwrap_or(f64::NAN)))
            .collect();
        let hists = v
            .get("hists")?
            .as_obj()?
            .iter()
            .filter_map(|(k, h)| {
                let p99 = h.get("p99")?.as_u64()?;
                Some((
                    k.clone(),
                    HistPoint {
                        count: h.get("count")?.as_u64()?,
                        sum: h.get("sum")?.as_u64()?,
                        min: h.get("min")?.as_u64()?,
                        max: h.get("max")?.as_u64()?,
                        p50: h.get("p50")?.as_u64()?,
                        p95: h.get("p95")?.as_u64()?,
                        p99,
                        // Points written before p99.9 existed lack the
                        // field; the p99 fallback keeps them loadable.
                        p999: h.get("p999").and_then(|v| v.as_u64()).unwrap_or(p99),
                    },
                ))
            })
            .collect();
        Some(TimelinePoint {
            reason: v.get("reason")?.as_str()?.to_string(),
            counters,
            gauges,
            hists,
            ..TimelinePoint::default()
        })
    }

    /// Fold a `later` point of the same record into this one: a metric in
    /// both takes the later value, and the later reason wins.
    pub fn merge(&mut self, later: TimelinePoint) {
        self.reason = later.reason;
        self.counters.extend(later.counters);
        self.gauges.extend(later.gauges);
        self.hists.extend(later.hists);
    }
}

/// The delta baselines: the value of every metric as of the previous point.
/// One per open engine, so a restarted process puts every metric it has
/// moved into its first point.
#[derive(Debug, Default)]
pub struct LastSeen {
    counters: HashMap<String, u64>,
    gauges: HashMap<String, u64>, // f64 bit patterns (NaN-stable compare)
    hist_counts: HashMap<String, u64>,
}

impl LastSeen {
    /// The delta point of `snap` against the baselines, which then advance
    /// to it; `None` when nothing changed.
    pub fn point(&mut self, snap: &Snapshot, reason: &str) -> Option<TimelinePoint> {
        let mut point = TimelinePoint {
            reason: reason.to_string(),
            ..TimelinePoint::default()
        };
        for (name, &v) in &snap.counters {
            // Skip still-zero counters that were never recorded (registered
            // but untouched); record every real change.
            let seen = self.counters.contains_key(name);
            if (seen || v != 0) && self.counters.get(name) != Some(&v) {
                point.counters.insert(name.clone(), v);
            }
        }
        for (name, &v) in &snap.gauges {
            if self.gauges.get(name) != Some(&v.to_bits()) {
                point.gauges.insert(name.clone(), v);
            }
        }
        for (name, h) in &snap.histograms {
            if self.hist_counts.get(name).copied().unwrap_or(0) != h.count && h.count > 0 {
                point.hists.insert(
                    name.clone(),
                    HistPoint {
                        count: h.count,
                        sum: h.sum,
                        min: h.min,
                        max: h.max,
                        p50: h.p50,
                        p95: h.p95,
                        p99: h.p99,
                        p999: h.p999,
                    },
                );
            }
        }
        if point.counters.is_empty() && point.gauges.is_empty() && point.hists.is_empty() {
            return None;
        }
        // The baselines advance whether or not the point reaches disk — a
        // lost point must not double future deltas.
        for (name, &v) in &point.counters {
            self.counters.insert(name.clone(), v);
        }
        for (name, &v) in &point.gauges {
            self.gauges.insert(name.clone(), v.to_bits());
        }
        for (name, h) in &point.hists {
            self.hist_counts.insert(name.clone(), h.count);
        }
        Some(point)
    }
}

/// A loaded timeline: every surviving point, in sequence order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Metric delta points, in increasing sequence order.
    pub points: Vec<TimelinePoint>,
}

impl Timeline {
    /// The points carried by `records` (in sequence order, as
    /// [`crate::AuditLog::load`] returns them), each numbered and stamped
    /// with its record's `seq` and `t_ms`.
    pub fn from_records(records: &[AuditRecord]) -> Timeline {
        let points = records
            .iter()
            .filter_map(|r| {
                let m = r.metrics.as_ref()?;
                Some(TimelinePoint {
                    seq: r.seq,
                    t_ms: r.t_ms,
                    ..m.clone()
                })
            })
            .collect();
        Timeline { points }
    }

    /// The highest point sequence, if any points survive.
    pub fn max_seq(&self) -> Option<u64> {
        self.points.last().map(|p| p.seq)
    }

    /// Every metric name that appears in any point.
    pub fn metric_names(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for p in &self.points {
            out.extend(p.counters.keys().cloned());
            out.extend(p.gauges.keys().cloned());
            out.extend(p.hists.keys().cloned());
        }
        out
    }

    /// The series of a counter or gauge: `(seq, t_ms, value)` at every point
    /// where it changed (delta points record changes only; carry the value
    /// forward between samples to reconstruct a step function).
    pub fn series(&self, metric: &str) -> Vec<(u64, u64, f64)> {
        let mut out = Vec::new();
        for p in &self.points {
            if let Some(&v) = p.counters.get(metric) {
                out.push((p.seq, p.t_ms, v as f64));
            } else if let Some(&v) = p.gauges.get(metric) {
                out.push((p.seq, p.t_ms, v));
            }
        }
        out
    }

    /// Restrict to points with `from_seq <= seq <= to_seq`.
    pub fn window(&self, from_seq: u64, to_seq: u64) -> Timeline {
        Timeline {
            points: self
                .points
                .iter()
                .filter(|p| (from_seq..=to_seq).contains(&p.seq))
                .cloned()
                .collect(),
        }
    }

    /// Serialize the whole timeline as one JSON document.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.to_json_line());
        }
        out.push_str("]}");
        out
    }

    /// Render a compact table: one row per point, with the number of
    /// changed metrics.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.points.is_empty() {
            out.push_str("(empty timeline)\n");
            return out;
        }
        let t0 = self.points.first().map(|p| p.t_ms).unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>6}  {:>9}  {:<12}  changed",
            "seq", "t+ms", "reason"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:>6}  {:>9}  {:<12}  {}c {}g {}h",
                p.seq,
                p.t_ms.saturating_sub(t0),
                p.reason,
                p.counters.len(),
                p.gauges.len(),
                p.hists.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::ring::MemSegmentIo;
    use crate::{AuditLog, Obs};

    /// Append one record per point `last` yields from `obs` (none when
    /// nothing changed), as the engine does at a burst boundary.
    fn capture(log: &mut AuditLog, last: &mut LastSeen, obs: &Obs, reason: &str) -> Option<u64> {
        let metrics = Some(last.point(&obs.snapshot(), reason)?);
        Some(log.append(AuditRecord {
            op: reason.to_string(),
            metrics,
            ..AuditRecord::default()
        }))
    }

    fn loaded(io: &MemSegmentIo) -> Timeline {
        Timeline::from_records(&AuditLog::load(io).unwrap())
    }

    #[test]
    fn point_round_trips_through_json() {
        let mut p = TimelinePoint {
            reason: "log".into(),
            ..TimelinePoint::default()
        };
        p.counters.insert("store.put.count".into(), 7);
        p.gauges.insert("adaptive.last_gamma".into(), 0.125);
        p.hists.insert(
            "store.put.ns".into(),
            HistPoint {
                count: 3,
                sum: 99,
                min: 10,
                max: 60,
                p50: 29,
                p95: 60,
                p99: 60,
                p999: 60,
            },
        );
        let mut fields = String::from("{");
        p.push_fields(&mut fields);
        fields.push('}');
        let parsed = TimelinePoint::from_fields(&json::parse(&fields).unwrap()).unwrap();
        assert_eq!(parsed, p);
        // The `timeline --json` element is the same fields under a header.
        let line = TimelinePoint {
            seq: 42,
            t_ms: 1_700_000_000_000,
            ..p
        }
        .to_json_line();
        assert!(line.starts_with("{\"k\":\"pt\",\"seq\":42,\"t_ms\":1700000000000,\"reason\""));
        assert!(line.ends_with(&fields[1..]), "{line}");
    }

    #[test]
    fn hist_points_without_p999_fall_back_to_p99() {
        // A point written before p99.9 existed must still load.
        let fields = "{\"reason\":\"log\",\"counters\":{},\"gauges\":{},\"hists\":{\"h\":\
                      {\"count\":2,\"sum\":9,\"min\":1,\"max\":8,\"p50\":4,\"p95\":8,\"p99\":8}}}";
        let p = TimelinePoint::from_fields(&json::parse(fields).unwrap()).unwrap();
        assert_eq!(p.hists["h"].p999, 8);
    }

    #[test]
    fn capture_records_only_deltas() {
        let obs = Obs::new();
        let io = MemSegmentIo::new();
        let mut log = AuditLog::open(Box::new(io.clone()), 1 << 20);
        let mut last = LastSeen::default();

        obs.counter("a").add(2);
        obs.gauge("g").set(1.5);
        assert_eq!(capture(&mut log, &mut last, &obs, "log"), Some(0));
        // Nothing changed: no point.
        assert_eq!(capture(&mut log, &mut last, &obs, "log"), None);
        obs.counter("a").inc();
        obs.counter("b").inc();
        assert_eq!(capture(&mut log, &mut last, &obs, "reclaim"), Some(1));

        let tl = loaded(&io);
        assert_eq!(tl.points.len(), 2);
        assert_eq!(tl.points[0].counters["a"], 2);
        assert_eq!(tl.points[0].gauges["g"], 1.5);
        assert_eq!(tl.points[1].counters["a"], 3);
        assert_eq!(tl.points[1].counters["b"], 1);
        assert!(
            !tl.points[1].gauges.contains_key("g"),
            "unchanged gauge elided"
        );
        assert_eq!(
            tl.series("a"),
            vec![(0, tl.points[0].t_ms, 2.0), (1, tl.points[1].t_ms, 3.0),]
        );
    }

    #[test]
    fn zero_valued_new_counters_are_elided() {
        let obs = Obs::new();
        obs.counter("never_hit"); // registered, still zero
        obs.counter("hit").inc();
        let p = LastSeen::default().point(&obs.snapshot(), "log").unwrap();
        assert!(!p.counters.contains_key("never_hit"));
        assert!(p.counters.contains_key("hit"));
    }

    #[test]
    fn a_reopened_recorder_continues_the_numbering_and_shows_the_counter_reset() {
        let io = MemSegmentIo::new();
        let obs = Obs::new();
        let mut log = AuditLog::open(Box::new(io.clone()), 1 << 20);
        obs.counter("c").add(2);
        assert_eq!(
            capture(&mut log, &mut LastSeen::default(), &obs, "log"),
            Some(0)
        );
        // "New process": fresh journal, baselines and registry over the
        // same segments.
        let obs2 = Obs::new();
        let mut log = AuditLog::open(Box::new(io.clone()), 1 << 20);
        assert_eq!(log.stats().next_seq, 1);
        obs2.counter("c").inc();
        assert_eq!(
            capture(&mut log, &mut LastSeen::default(), &obs2, "log"),
            Some(1)
        );
        // The counter restarted from zero and the timeline shows it, like
        // Prometheus after a target restart.
        let values: Vec<f64> = loaded(&io).series("c").iter().map(|s| s.2).collect();
        assert_eq!(values, vec![2.0, 1.0]);
    }

    #[test]
    fn window_filters_points_and_events() {
        let obs = Obs::new();
        let io = MemSegmentIo::new();
        let mut log = AuditLog::open(Box::new(io.clone()), 1 << 20);
        let mut last = LastSeen::default();
        for _ in 0..5 {
            obs.counter("c").inc();
            capture(&mut log, &mut last, &obs, "log");
            // A record without a point is not in the timeline.
            log.append(AuditRecord::default());
        }
        log.flush();
        let tl = loaded(&io);
        assert_eq!(
            tl.points.iter().map(|p| p.seq).collect::<Vec<_>>(),
            vec![0, 2, 4, 6, 8]
        );
        let w = tl.window(1, 6);
        assert_eq!(
            w.points.iter().map(|p| p.seq).collect::<Vec<_>>(),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn timeline_json_and_table_render() {
        let obs = Obs::new();
        let io = MemSegmentIo::new();
        let mut log = AuditLog::open(Box::new(io.clone()), 1 << 20);
        obs.counter("c").inc();
        obs.histogram("h").record(5);
        capture(&mut log, &mut LastSeen::default(), &obs, "reclaim");
        let tl = loaded(&io);
        let json_doc = tl.to_json_string();
        let parsed = json::parse(&json_doc).unwrap();
        assert_eq!(parsed.get("points").unwrap().as_arr().unwrap().len(), 1);
        let table = tl.render_table();
        assert!(table.contains("reclaim"));
        assert!(table.contains("1c 0g 1h"), "{table}");
        assert_eq!(tl.points[0].hists["h"].count, 1);
        assert!(tl.metric_names().contains("h"));
    }
}
