//! The flight recorder: a durable, bounded timeline of metric deltas and
//! engine events.
//!
//! At every burst boundary (logging, reclaim passes, recovery, qcache
//! eviction storms — plus a periodic tick) the engine calls
//! [`FlightRecorder::capture`] with a fresh [`Snapshot`]. The recorder
//! writes a **delta point** — the absolute values of only the metrics that
//! changed since the previous point — as one JSONL line into the current
//! timeline segment, and flushes any buffered [`EngineEvent`]s into the
//! journal segment, stamped with the point's sequence number.
//!
//! Segments live in their own subdirectory under the store directory and
//! are persisted by the shared segment ring (`ring.rs`): atomic
//! whole-segment rewrites, byte-bounded oldest-first retention, and
//! **best-effort** I/O — a failing write increments an error count and is
//! retried at the next capture, but never fails the data path that
//! triggered it.
//!
//! Counters reset when the process restarts (each `Obs` registry starts at
//! zero, exactly like Prometheus counters after a target restart); the
//! journal's `recovery` events mark those boundaries so consumers can
//! detect resets.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::io;

use crate::export::Snapshot;
use crate::journal::EngineEvent;
use crate::json::{push_json_string, JsonValue};
use crate::ring::{unix_ms, SegmentIo, SegmentRing};

/// Target size of one segment before the recorder seals it and starts the
/// next (a capture rewrites the whole current segment atomically, so this
/// bounds per-capture write amplification).
pub const DEFAULT_SEGMENT_TARGET: usize = 16 * 1024;

/// The recorder's segment families: metric delta points and journal events.
const FAMILIES: [&str; 2] = ["tl_", "ev_"];
const POINTS: usize = 0;
const EVENTS: usize = 1;

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
    /// Monotone sequence number (continues across restarts).
    pub seq: u64,
    /// Unix timestamp in milliseconds.
    pub t_ms: u64,
    /// Burst boundary that triggered the capture (`log`, `reclaim`,
    /// `recovery`, `qcache.storm`, `interval`, …).
    pub reason: String,
    /// Changed counters at their new absolute values.
    pub counters: BTreeMap<String, u64>,
    /// Changed gauges at their new values (NaN survives as JSON null).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms whose count moved, at their new absolute summaries.
    pub hists: BTreeMap<String, HistPoint>,
}

impl TimelinePoint {
    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"k\":\"pt\",\"seq\":{},\"t_ms\":{},\"reason\":",
            self.seq, self.t_ms
        );
        push_json_string(&mut out, &self.reason);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
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
            push_json_string(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99, h.p999
            );
        }
        out.push_str("}}");
        out
    }

    /// Parse a JSONL line previously produced by
    /// [`TimelinePoint::to_json_line`]. Returns `None` for non-point records.
    pub fn from_json(v: &JsonValue) -> Option<TimelinePoint> {
        if v.get("k")?.as_str()? != "pt" {
            return None;
        }
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
                        // Journals written before p99.9 existed lack the
                        // field; the p99 fallback keeps them loadable.
                        p999: h.get("p999").and_then(|v| v.as_u64()).unwrap_or(p99),
                    },
                ))
            })
            .collect();
        Some(TimelinePoint {
            seq: v.get("seq")?.as_u64()?,
            t_ms: v.get("t_ms")?.as_u64()?,
            reason: v.get("reason")?.as_str()?.to_string(),
            counters,
            gauges,
            hists,
        })
    }
}

/// Point-in-time recorder statistics (mirrored into `telemetry.*` gauges by
/// the engine before each snapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Points successfully written.
    pub captures: u64,
    /// Events recorded (buffered or flushed).
    pub events: u64,
    /// Best-effort writes/removals that failed.
    pub write_errors: u64,
    /// Segments dropped by retention.
    pub segments_dropped: u64,
    /// Current total bytes across all segments.
    pub total_bytes: u64,
    /// Current number of segments.
    pub segments: u64,
    /// The sequence number the next point will get.
    pub next_seq: u64,
}

/// Last-seen metric values, for delta computation.
#[derive(Default)]
struct LastSeen {
    counters: HashMap<String, u64>,
    gauges: HashMap<String, u64>, // f64 bit patterns (NaN-stable compare)
    hist_counts: HashMap<String, u64>,
}

/// The durable telemetry recorder. One per open engine instance; all writes
/// are best-effort (see module docs).
pub struct FlightRecorder {
    ring: SegmentRing,
    next_seq: u64,
    last: LastSeen,
    pending: Vec<EngineEvent>,
    captures: u64,
    events: u64,
}

impl FlightRecorder {
    /// Open a recorder over existing segments: sequence numbering continues
    /// after the highest sequence found on disk, and retention accounting
    /// picks up every existing segment. Scan errors are swallowed (the
    /// recorder starts fresh, counting a write error) — telemetry must
    /// never fail an engine open.
    pub fn open(io: Box<dyn SegmentIo>, budget_bytes: u64) -> FlightRecorder {
        let (ring, next_seq) =
            SegmentRing::open(io, &FAMILIES, budget_bytes, DEFAULT_SEGMENT_TARGET);
        FlightRecorder {
            ring,
            next_seq,
            last: LastSeen::default(),
            pending: Vec::new(),
            captures: 0,
            events: 0,
        }
    }

    /// Override the segment rotation target (tests use tiny segments to
    /// exercise retention).
    pub fn set_segment_target(&mut self, bytes: usize) {
        self.ring.set_segment_target(bytes);
    }

    /// Current recorder statistics.
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            captures: self.captures,
            events: self.events,
            write_errors: self.ring.write_errors(),
            segments_dropped: self.ring.segments_dropped(),
            total_bytes: self.ring.total_bytes(),
            segments: self.ring.segments(),
            next_seq: self.next_seq,
        }
    }

    /// The configured retention budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.ring.budget_bytes()
    }

    /// Buffer an engine event. It is flushed to the journal by the next
    /// [`FlightRecorder::capture`], stamped with that capture's sequence.
    pub fn record_event(
        &mut self,
        kind: &str,
        intermediate: Option<&str>,
        details: impl IntoIterator<Item = (String, String)>,
    ) {
        self.events += 1;
        self.pending.push(EngineEvent {
            snap_seq: 0, // stamped at flush
            t_ms: unix_ms(),
            kind: kind.to_string(),
            intermediate: intermediate.map(str::to_string),
            details: details.into_iter().collect(),
        });
    }

    /// Events recorded but not yet flushed to disk, stamped with the
    /// sequence number the next capture will use.
    pub fn pending_events(&self) -> Vec<EngineEvent> {
        self.pending
            .iter()
            .cloned()
            .map(|mut e| {
                e.snap_seq = self.next_seq;
                e
            })
            .collect()
    }

    /// Capture a delta point from `snap` (and flush buffered events). A
    /// no-op returning `None` when nothing changed and no events are
    /// pending; otherwise returns the point's sequence number. All I/O is
    /// best-effort.
    pub fn capture(&mut self, snap: &Snapshot, reason: &str) -> Option<u64> {
        let mut point = TimelinePoint {
            seq: 0,
            t_ms: unix_ms(),
            reason: reason.to_string(),
            ..TimelinePoint::default()
        };
        for (name, &v) in &snap.counters {
            // Skip still-zero counters that were never recorded (registered
            // but untouched); record every real change.
            let seen = self.last.counters.contains_key(name);
            if (seen || v != 0) && self.last.counters.get(name) != Some(&v) {
                point.counters.insert(name.clone(), v);
            }
        }
        for (name, &v) in &snap.gauges {
            let bits = v.to_bits();
            if self.last.gauges.get(name) != Some(&bits) {
                point.gauges.insert(name.clone(), v);
            }
        }
        for (name, h) in &snap.histograms {
            if self.last.hist_counts.get(name).copied().unwrap_or(0) != h.count && h.count > 0 {
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
        if point.counters.is_empty()
            && point.gauges.is_empty()
            && point.hists.is_empty()
            && self.pending.is_empty()
        {
            return None;
        }

        let seq = self.next_seq;
        self.next_seq += 1;
        point.seq = seq;

        // Commit the delta baselines regardless of write success — a failed
        // write loses that point, it must not double future deltas.
        for (name, &v) in &point.counters {
            self.last.counters.insert(name.clone(), v);
        }
        for (name, &v) in &point.gauges {
            self.last.gauges.insert(name.clone(), v.to_bits());
        }
        for (name, h) in &point.hists {
            self.last.hist_counts.insert(name.clone(), h.count);
        }

        let mut line = point.to_json_line();
        line.push('\n');
        self.ring.append(POINTS, seq, &line);
        if !self.pending.is_empty() {
            let mut lines = String::new();
            for mut ev in std::mem::take(&mut self.pending) {
                ev.snap_seq = seq;
                lines.push_str(&ev.to_json_line());
                lines.push('\n');
            }
            self.ring.append(EVENTS, seq, &lines);
        }
        self.ring.enforce_budget();
        self.captures += 1;
        Some(seq)
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("budget_bytes", &self.budget_bytes())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A loaded timeline: every surviving point and event, in sequence order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Metric delta points, in increasing sequence order.
    pub points: Vec<TimelinePoint>,
    /// Journal events, ordered by the snapshot sequence they landed in.
    pub events: Vec<EngineEvent>,
}

impl Timeline {
    /// Load every readable segment. Unknown files and `*.tmp` orphans are
    /// skipped; within a segment, parsing stops at the first torn line
    /// (atomic segment writes make this a belt-and-braces guard).
    pub fn load(io: &dyn SegmentIo) -> io::Result<Timeline> {
        let mut tl = Timeline::default();
        for (family, v) in SegmentRing::load(io, &FAMILIES)? {
            if family == POINTS {
                tl.points.extend(TimelinePoint::from_json(&v));
            } else {
                tl.events.extend(EngineEvent::from_json(&v));
            }
        }
        tl.points.sort_by_key(|p| p.seq);
        tl.events
            .sort_by(|a, b| (a.snap_seq, a.t_ms, &a.kind).cmp(&(b.snap_seq, b.t_ms, &b.kind)));
        Ok(tl)
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

    /// Events concerning one intermediate, in order.
    pub fn events_for(&self, intermediate: &str) -> Vec<&EngineEvent> {
        self.events
            .iter()
            .filter(|e| e.intermediate.as_deref() == Some(intermediate))
            .collect()
    }

    /// Restrict to points/events with `from_seq <= seq <= to_seq`.
    pub fn window(&self, from_seq: u64, to_seq: u64) -> Timeline {
        Timeline {
            points: self
                .points
                .iter()
                .filter(|p| (from_seq..=to_seq).contains(&p.seq))
                .cloned()
                .collect(),
            events: self
                .events
                .iter()
                .filter(|e| (from_seq..=to_seq).contains(&e.snap_seq))
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
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json_line());
        }
        out.push_str("]}");
        out
    }

    /// Render a compact table: one row per point (with the number of
    /// changed metrics), events interleaved under the point they landed in.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.points.is_empty() && self.events.is_empty() {
            out.push_str("(empty timeline)\n");
            return out;
        }
        let t0 = self.points.first().map(|p| p.t_ms).unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>6}  {:>9}  {:<12}  changed",
            "seq", "t+ms", "reason"
        );
        let mut ei = 0;
        for p in &self.points {
            // Events stamped with earlier sequences than any surviving
            // point (retention dropped their point) print first.
            while ei < self.events.len() && self.events[ei].snap_seq < p.seq {
                Self::render_event(&mut out, &self.events[ei]);
                ei += 1;
            }
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
            while ei < self.events.len() && self.events[ei].snap_seq == p.seq {
                Self::render_event(&mut out, &self.events[ei]);
                ei += 1;
            }
        }
        while ei < self.events.len() {
            Self::render_event(&mut out, &self.events[ei]);
            ei += 1;
        }
        out
    }

    fn render_event(out: &mut String, e: &EngineEvent) {
        let _ = write!(out, "{:>6}  └ {}", e.snap_seq, e.kind);
        if let Some(i) = &e.intermediate {
            let _ = write!(out, " {i}");
        }
        for (k, v) in &e.details {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::ring::MemSegmentIo;
    use crate::Obs;

    fn recorder(io: MemSegmentIo, budget: u64) -> FlightRecorder {
        FlightRecorder::open(Box::new(io), budget)
    }

    #[test]
    fn point_round_trips_through_json() {
        let mut p = TimelinePoint {
            seq: 42,
            t_ms: 1_700_000_000_000,
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
        let line = p.to_json_line();
        let parsed = TimelinePoint::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn hist_points_without_p999_fall_back_to_p99() {
        // A journal line written before p99.9 existed must still load.
        let line = "{\"k\":\"pt\",\"seq\":1,\"t_ms\":5,\"reason\":\"log\",\"counters\":{},\
                    \"gauges\":{},\"hists\":{\"h\":{\"count\":2,\"sum\":9,\"min\":1,\
                    \"max\":8,\"p50\":4,\"p95\":8,\"p99\":8}}}";
        let p = TimelinePoint::from_json(&json::parse(line).unwrap()).unwrap();
        assert_eq!(p.hists["h"].p999, 8);
    }

    #[test]
    fn capture_records_only_deltas() {
        let obs = Obs::new();
        let io = MemSegmentIo::new();
        let mut rec = recorder(io.clone(), 1 << 20);

        obs.counter("a").add(2);
        obs.gauge("g").set(1.5);
        assert_eq!(rec.capture(&obs.snapshot(), "log"), Some(0));
        // Nothing changed: no point.
        assert_eq!(rec.capture(&obs.snapshot(), "log"), None);
        obs.counter("a").inc();
        obs.counter("b").inc();
        assert_eq!(rec.capture(&obs.snapshot(), "reclaim"), Some(1));

        let tl = Timeline::load(&io).unwrap();
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
        let io = MemSegmentIo::new();
        let mut rec = recorder(io.clone(), 1 << 20);
        obs.counter("never_hit"); // registered, still zero
        obs.counter("hit").inc();
        rec.capture(&obs.snapshot(), "log").unwrap();
        let tl = Timeline::load(&io).unwrap();
        assert!(!tl.points[0].counters.contains_key("never_hit"));
        assert!(tl.points[0].counters.contains_key("hit"));
    }

    #[test]
    fn events_are_stamped_with_the_flushing_sequence() {
        let obs = Obs::new();
        let io = MemSegmentIo::new();
        let mut rec = recorder(io.clone(), 1 << 20);
        obs.counter("c").inc();
        rec.capture(&obs.snapshot(), "log");
        rec.record_event(
            "reclaim.demote",
            Some("m1.s3"),
            [("from".to_string(), "FULL".to_string())],
        );
        assert_eq!(rec.pending_events().len(), 1);
        assert_eq!(rec.pending_events()[0].snap_seq, 1);
        obs.counter("c").inc();
        let seq = rec.capture(&obs.snapshot(), "reclaim").unwrap();
        assert_eq!(seq, 1);
        let tl = Timeline::load(&io).unwrap();
        assert_eq!(tl.events.len(), 1);
        assert_eq!(tl.events[0].snap_seq, seq);
        assert_eq!(tl.events[0].kind, "reclaim.demote");
        assert_eq!(tl.events_for("m1.s3").len(), 1);
        assert!(rec.pending_events().is_empty());
    }

    #[test]
    fn pending_events_alone_force_a_point() {
        let obs = Obs::new();
        let io = MemSegmentIo::new();
        let mut rec = recorder(io.clone(), 1 << 20);
        rec.record_event("recovery", None, []);
        let seq = rec.capture(&obs.snapshot(), "recovery");
        assert_eq!(seq, Some(0));
        let tl = Timeline::load(&io).unwrap();
        assert_eq!(
            tl.points.len(),
            1,
            "event flush still writes its anchor point"
        );
        assert_eq!(tl.events.len(), 1);
    }

    #[test]
    fn a_reopened_recorder_continues_the_numbering_and_shows_the_counter_reset() {
        let io = MemSegmentIo::new();
        let obs = Obs::new();
        let mut rec = recorder(io.clone(), 1 << 20);
        obs.counter("c").add(2);
        assert_eq!(rec.capture(&obs.snapshot(), "log"), Some(0));
        // "New process": fresh recorder and registry over the same segments.
        let obs2 = Obs::new();
        let mut rec = recorder(io.clone(), 1 << 20);
        assert_eq!(rec.stats().next_seq, 1);
        obs2.counter("c").inc();
        assert_eq!(rec.capture(&obs2.snapshot(), "log"), Some(1));
        // The counter restarted from zero and the timeline shows it, like
        // Prometheus after a target restart.
        let values: Vec<f64> = Timeline::load(&io)
            .unwrap()
            .series("c")
            .iter()
            .map(|s| s.2)
            .collect();
        assert_eq!(values, vec![2.0, 1.0]);
    }

    #[test]
    fn window_filters_points_and_events() {
        let obs = Obs::new();
        let io = MemSegmentIo::new();
        let mut rec = recorder(io.clone(), 1 << 20);
        for _ in 0..5 {
            obs.counter("c").inc();
            rec.record_event("tick", None, []);
            rec.capture(&obs.snapshot(), "log");
        }
        let tl = Timeline::load(&io).unwrap();
        let w = tl.window(1, 3);
        assert_eq!(
            w.points.iter().map(|p| p.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(w.events.len(), 3);
    }

    #[test]
    fn timeline_json_and_table_render() {
        let obs = Obs::new();
        let io = MemSegmentIo::new();
        let mut rec = recorder(io.clone(), 1 << 20);
        obs.counter("c").inc();
        obs.histogram("h").record(5);
        rec.record_event(
            "compaction",
            None,
            [("removed".to_string(), "2".to_string())],
        );
        rec.capture(&obs.snapshot(), "reclaim");
        let tl = Timeline::load(&io).unwrap();
        let json_doc = tl.to_json_string();
        let parsed = json::parse(&json_doc).unwrap();
        assert_eq!(parsed.get("points").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(parsed.get("events").unwrap().as_arr().unwrap().len(), 1);
        let table = tl.render_table();
        assert!(table.contains("reclaim"));
        assert!(table.contains("compaction"));
        assert!(table.contains("removed=2"));
        assert_eq!(tl.points[0].hists["h"].count, 1);
        assert!(tl.metric_names().contains("h"));
    }
}
