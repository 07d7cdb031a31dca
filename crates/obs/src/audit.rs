//! The workload audit journal: one structured, replayable record per engine
//! entry point (logging, every diagnostic, fetches, reclaim, recovery),
//! persisted as JSONL segments — the one sidecar ring.
//!
//! A record says what was asked (operation name plus an argument
//! fingerprint), what the engine decided (the plan of every inner fetch, in
//! order), what it predicted, and what actually happened (latency, bytes
//! and partitions touched, trace id), plus the effects it had on the store
//! beyond its answer — each reclaim ladder step and a compaction that moved
//! bytes ([`AuditEffect`]) — and, when the operation crossed a burst
//! boundary, the metric-delta point it took ([`AuditRecord::metrics`]; the
//! timeline of [`crate::timeline`] is the view of those points). A captured
//! journal is a complete workload description — `mistique replay`
//! re-executes it against a fresh or existing store and checks the answers
//! and plan choices bit-for-bit.
//!
//! Records are buffered and flushed in batches (every
//! [`DEFAULT_FLUSH_EVERY`] records, at burst boundaries, and on engine
//! drop) so steady-state capture stays off the query hot path; a record
//! carrying a metric point is flushed as it is appended. Segments are
//! persisted by the segment ring (`ring.rs`): atomic rewrite, byte-bounded
//! retention, and **best-effort** I/O — a failed write counts an error and
//! never fails the data operation that produced the record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

use crate::json::{self, push_json_string, Json, JsonValue, Path};
use crate::ring::{unix_ms, SegmentIo, SegmentRing};
use crate::timeline::TimelinePoint;

/// Records buffered before an automatic flush. A crash can lose at most
/// this many trailing records; the journal on disk stays loadable.
pub const DEFAULT_FLUSH_EVERY: usize = 32;

/// Where an `effects` codec error points.
const EFFECTS: Path = Path::Root("effects");

/// One audited engine operation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditRecord {
    /// Monotone sequence number (continues across restarts).
    pub seq: u64,
    /// Unix timestamp in milliseconds.
    pub t_ms: u64,
    /// Entry point, dot-namespaced (`log`, `log_parallel`, `fetch.get`,
    /// `fetch.rows`, `reclaim`, `register`, `diag.topk`, …).
    pub op: String,
    /// Argument fingerprint: enough key=value detail to re-execute the
    /// operation (intermediate id, column, k, thresholds, row lists…).
    pub args: BTreeMap<String, String>,
    /// Plan chosen by every inner fetch, in execution order
    /// (`read`/`rerun`/`indexed_read`).
    pub plans: Vec<String>,
    /// Cost model's read-path prediction for the first inner fetch, seconds.
    pub predicted_read_s: f64,
    /// Cost model's rerun-path prediction for the first inner fetch, seconds.
    pub predicted_rerun_s: f64,
    /// Wall-clock latency of the whole entry point, nanoseconds.
    pub actual_ns: u64,
    /// Compressed bytes read from the DataStore while serving this op.
    pub bytes: u64,
    /// Partitions touched while serving this op.
    pub partitions: u64,
    /// Trace id of the outermost span (0 when none).
    pub trace_id: u64,
    /// Whether the operation returned `Ok`.
    pub ok: bool,
    /// What the operation did to the store besides answering: the steps of
    /// every reclaim pass it ran (its own, or one a burst set off) and each
    /// compaction that moved bytes, in order. Serialized only when
    /// non-empty, so a record without effects keeps its older line format.
    pub effects: Vec<AuditEffect>,
    /// The metric-delta point taken at the burst boundary this operation
    /// crossed (a log, a reclaim pass, a recovery, the periodic tick); its
    /// `seq` and `t_ms` are the record's. Serialized only when present, so
    /// a record without one keeps its older line format.
    pub metrics: Option<TimelinePoint>,
}

/// One ladder action taken by a reclaim pass: an intermediate demoted to a
/// cheaper value scheme, re-encoded as base+delta frames (`to == "DELTA"`),
/// stripped of its index (`from == "INDEX"`) or purged outright
/// (`to == "PURGED"`).
#[derive(Clone, Debug, PartialEq)]
pub struct DemotionRecord {
    /// The intermediate acted on.
    pub intermediate: String,
    /// Scheme before the step (e.g. `FULL`).
    pub from: String,
    /// Scheme after the step (e.g. `LP_QT`), or `PURGED`.
    pub to: String,
    /// Stored bytes before the step.
    pub bytes_before: u64,
    /// Stored bytes after the step (0 for a purge).
    pub bytes_after: u64,
    /// γ (Eq 5) of the victim at the moment it was chosen — the coldest
    /// materialized intermediate of the pass. Always finite: the cost model
    /// maps a non-finite γ to 0.
    pub gamma: f64,
}

/// What one `DataStore::compact` pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Sealed on-disk partitions considered.
    pub partitions_scanned: u64,
    /// Partitions rewritten without their dead chunks.
    pub partitions_rewritten: u64,
    /// Fully-dead partitions whose files were removed.
    pub partitions_removed: u64,
    /// Raw (uncompressed) chunk bytes reclaimed.
    pub bytes_reclaimed: u64,
    /// Dead chunks dropped.
    pub chunks_dropped: u64,
}

crate::json_struct!(DemotionRecord {
    intermediate,
    from,
    to,
    bytes_before,
    bytes_after,
    gamma
});
crate::json_struct!(CompactionReport {
    partitions_scanned,
    partitions_rewritten,
    partitions_removed,
    bytes_reclaimed,
    chunks_dropped
});

/// One effect of an audited operation on the store (see
/// [`AuditRecord::effects`]), written externally tagged like
/// [`crate::json_enum!`] variants: `{"Step":{…}}`, `{"Compaction":{…}}`.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditEffect {
    /// One reclaim ladder step.
    Step(DemotionRecord),
    /// A compaction pass that rewrote or removed partitions.
    Compaction(CompactionReport),
}

impl Json for AuditEffect {
    fn emit(&self, out: &mut String, at: &Path) -> Result<(), String> {
        match self {
            AuditEffect::Step(d) => {
                out.push_str("{\"Step\":");
                d.emit(out, &Path::Key(at, "Step"))?;
            }
            AuditEffect::Compaction(c) => {
                out.push_str("{\"Compaction\":");
                c.emit(out, &Path::Key(at, "Compaction"))?;
            }
        }
        out.push('}');
        Ok(())
    }

    fn parse(v: &JsonValue, at: &Path) -> Result<Self, String> {
        match json::variant(v, at)? {
            ("Step", Some(body)) => {
                DemotionRecord::parse(body, &Path::Key(at, "Step")).map(AuditEffect::Step)
            }
            ("Compaction", Some(body)) => {
                CompactionReport::parse(body, &Path::Key(at, "Compaction"))
                    .map(AuditEffect::Compaction)
            }
            (name, _) => Err(format!("{at}: unknown effect {name:?}")),
        }
    }
}

impl AuditRecord {
    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"k\":\"au\",\"seq\":{},\"t_ms\":{},\"op\":",
            self.seq, self.t_ms
        );
        push_json_string(&mut out, &self.op);
        out.push_str(",\"args\":{");
        for (i, (k, v)) in self.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push(':');
            push_json_string(&mut out, v);
        }
        out.push_str("},\"plans\":[");
        for (i, p) in self.plans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, p);
        }
        out.push_str("],");
        push_audit_f64(&mut out, "pred_read_s", self.predicted_read_s);
        out.push(',');
        push_audit_f64(&mut out, "pred_rerun_s", self.predicted_rerun_s);
        let _ = write!(
            out,
            ",\"actual_ns\":{},\"bytes\":{},\"parts\":{},\"trace\":{},\"ok\":{}",
            self.actual_ns, self.bytes, self.partitions, self.trace_id, self.ok
        );
        let mut effects = String::new();
        if !self.effects.is_empty() && self.effects.emit(&mut effects, &EFFECTS).is_ok() {
            out.push_str(",\"effects\":");
            out.push_str(&effects);
        }
        if let Some(m) = &self.metrics {
            out.push_str(",\"metrics\":{");
            m.push_fields(&mut out);
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parse a JSONL line previously produced by
    /// [`AuditRecord::to_json_line`]. Returns `None` for foreign records.
    pub fn from_json(v: &JsonValue) -> Option<AuditRecord> {
        if v.get("k")?.as_str()? != "au" {
            return None;
        }
        let args = v
            .get("args")?
            .as_obj()?
            .iter()
            .filter_map(|(k, a)| Some((k.clone(), a.as_str()?.to_string())))
            .collect();
        let plans = v
            .get("plans")?
            .as_arr()?
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect();
        Some(AuditRecord {
            seq: v.get("seq")?.as_u64()?,
            t_ms: v.get("t_ms")?.as_u64()?,
            op: v.get("op")?.as_str()?.to_string(),
            args,
            plans,
            predicted_read_s: v.get("pred_read_s").and_then(|x| x.as_f64()).unwrap_or(0.0),
            predicted_rerun_s: v
                .get("pred_rerun_s")
                .and_then(|x| x.as_f64())
                .unwrap_or(0.0),
            actual_ns: v.get("actual_ns")?.as_u64()?,
            bytes: v.get("bytes")?.as_u64()?,
            partitions: v.get("parts")?.as_u64()?,
            trace_id: v.get("trace")?.as_u64()?,
            ok: v.get("ok")?.as_bool()?,
            effects: v
                .get("effects")
                .and_then(|e| Vec::parse(e, &EFFECTS).ok())
                .unwrap_or_default(),
            metrics: v.get("metrics").and_then(TimelinePoint::from_fields),
        })
    }
}

/// JSON has no NaN/Infinity; the audit journal maps them to null (parsed
/// back as 0.0 — predictions are informational, not compared bit-for-bit).
fn push_audit_f64(out: &mut String, key: &str, v: f64) {
    let _ = write!(out, "\"{key}\":");
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Point-in-time audit-log statistics (mirrored into `audit.*` gauges by
/// the engine before each snapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Records accepted (buffered or flushed).
    pub records: u64,
    /// Flushes that wrote at least one record.
    pub flushes: u64,
    /// Best-effort writes/removals that failed.
    pub write_errors: u64,
    /// Segments dropped by retention.
    pub segments_dropped: u64,
    /// Current total bytes across all segments.
    pub total_bytes: u64,
    /// Current number of segments.
    pub segments: u64,
    /// The sequence number the next record will get.
    pub next_seq: u64,
}

/// The durable workload journal. One per open engine instance; all writes
/// are best-effort (see module docs).
pub struct AuditLog {
    ring: SegmentRing,
    flush_every: usize,
    next_seq: u64,
    pending: Vec<AuditRecord>,
    records: u64,
    flushes: u64,
}

impl AuditLog {
    /// Open a journal over existing segments: sequence numbering continues
    /// after the highest sequence found on disk, and retention accounting
    /// picks up every existing segment. Scan errors are swallowed (the log
    /// starts fresh, counting a write error) — auditing must never fail an
    /// engine open.
    pub fn open(io: Box<dyn SegmentIo>, budget_bytes: u64) -> AuditLog {
        let (ring, next_seq) = SegmentRing::open(io, budget_bytes);
        AuditLog {
            ring,
            flush_every: DEFAULT_FLUSH_EVERY,
            next_seq,
            pending: Vec::new(),
            records: 0,
            flushes: 0,
        }
    }

    /// Override the flush batch size (1 flushes every record).
    pub fn set_flush_every(&mut self, n: usize) {
        self.flush_every = n.max(1);
    }

    /// Current journal statistics.
    pub fn stats(&self) -> AuditStats {
        AuditStats {
            records: self.records,
            flushes: self.flushes,
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

    /// Append a record: its `seq` and `t_ms` are stamped here; the record
    /// is buffered and flushed with the next batch — or at once when it
    /// carries a metric point, so a point is as durable as its capture.
    pub fn append(&mut self, mut record: AuditRecord) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records += 1;
        record.seq = seq;
        if record.t_ms == 0 {
            record.t_ms = unix_ms();
        }
        let carries_point = record.metrics.is_some();
        self.pending.push(record);
        if carries_point || self.pending.len() >= self.flush_every {
            self.flush();
        }
        seq
    }

    /// Records buffered but not yet flushed to disk.
    pub fn pending_records(&self) -> &[AuditRecord] {
        &self.pending
    }

    /// Flush buffered records into the current segment (atomic rewrite),
    /// sealing it at the target size and enforcing the retention budget.
    /// Best-effort: a failed write keeps the buffered lines for the next
    /// flush and counts one error.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let first_seq = self.pending[0].seq;
        let mut lines = String::new();
        for rec in self.pending.drain(..) {
            lines.push_str(&rec.to_json_line());
            lines.push('\n');
        }
        if self.ring.append(first_seq, &lines) {
            self.flushes += 1;
        }
        self.ring.enforce_budget();
    }

    /// Load every readable record, in sequence order. Unknown files are
    /// skipped; within a segment, parsing stops at the first torn line.
    pub fn load(io: &dyn SegmentIo) -> io::Result<Vec<AuditRecord>> {
        let mut out: Vec<AuditRecord> = SegmentRing::load(io)?
            .iter()
            .filter_map(AuditRecord::from_json)
            .collect();
        out.sort_by_key(|r| r.seq);
        Ok(out)
    }
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditLog")
            .field("budget_bytes", &self.budget_bytes())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::ring::MemSegmentIo;

    fn sample(op: &str) -> AuditRecord {
        AuditRecord {
            seq: 0,
            t_ms: 0,
            op: op.to_string(),
            args: [
                ("interm".to_string(), "m1.stage3".to_string()),
                ("k".to_string(), "5".to_string()),
            ]
            .into_iter()
            .collect(),
            plans: vec!["read".to_string(), "indexed_read".to_string()],
            predicted_read_s: 0.002,
            predicted_rerun_s: 0.13,
            actual_ns: 1_234_567,
            bytes: 4096,
            partitions: 2,
            trace_id: 99,
            ok: true,
            effects: Vec::new(),
            metrics: None,
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut r = sample("diag.topk");
        r.seq = 42;
        r.t_ms = 1_700_000_000_123;
        let line = r.to_json_line();
        let parsed = AuditRecord::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn effects_round_trip_and_lines_without_them_load_with_none() {
        let mut r = sample("reclaim");
        r.seq = 7;
        r.t_ms = 1_700_000_000_456;
        let plain = r.to_json_line();
        assert!(!plain.contains("effects"), "no effects, no key: {plain}");
        r.effects = vec![
            AuditEffect::Step(DemotionRecord {
                intermediate: "m1.stage3".into(),
                from: "FULL".into(),
                to: "LP_QT".into(),
                bytes_before: 8000,
                bytes_after: 2000,
                gamma: 0.0013,
            }),
            AuditEffect::Step(DemotionRecord {
                intermediate: "m1.stage4".into(),
                from: "THRESHOLD_QT".into(),
                to: "PURGED".into(),
                bytes_before: 300,
                bytes_after: 0,
                gamma: 0.0,
            }),
            AuditEffect::Compaction(CompactionReport {
                partitions_scanned: 4,
                partitions_rewritten: 1,
                partitions_removed: 2,
                bytes_reclaimed: 9000,
                chunks_dropped: 12,
            }),
        ];
        let line = r.to_json_line();
        let parsed = AuditRecord::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, r);
        // Everything before the effects is the effect-free line verbatim.
        assert!(line.starts_with(&plain[..plain.len() - 1]));

        // A line in the format written before effects existed.
        let old = "{\"k\":\"au\",\"seq\":3,\"t_ms\":5,\"op\":\"reclaim\",\"args\":{},\
                   \"plans\":[],\"pred_read_s\":0,\"pred_rerun_s\":0,\"actual_ns\":9,\
                   \"bytes\":0,\"parts\":0,\"trace\":0,\"ok\":true}";
        let parsed = AuditRecord::from_json(&json::parse(old).unwrap()).unwrap();
        assert_eq!(parsed.op, "reclaim");
        assert!(parsed.effects.is_empty());
    }

    #[test]
    fn a_metric_point_round_trips_and_flushes_its_record() {
        let io = MemSegmentIo::new();
        let mut log = AuditLog::open(Box::new(io.clone()), 1 << 20);
        log.append(sample("fetch.get"));
        assert_eq!(log.pending_records().len(), 1, "no point: buffered");
        let plain = log.pending_records()[0].to_json_line();
        assert!(!plain.contains("metrics"), "no point, no key: {plain}");

        let mut point = TimelinePoint {
            reason: "log".into(),
            ..TimelinePoint::default()
        };
        point.counters.insert("store.put.count".into(), 7);
        point.gauges.insert("cost.read_bandwidth".into(), f64::NAN);
        let mut r = sample("log");
        r.metrics = Some(point);
        let seq = log.append(r.clone());
        assert!(log.pending_records().is_empty(), "a point flushes at once");

        let recs = AuditLog::load(&io).unwrap();
        assert_eq!(recs.len(), 2);
        let loaded = recs[1].metrics.as_ref().unwrap();
        assert_eq!(recs[1].seq, seq);
        assert_eq!(loaded.reason, "log");
        assert_eq!(loaded.counters["store.put.count"], 7);
        assert!(loaded.gauges["cost.read_bandwidth"].is_nan());
        // Everything before the point is the point-free line verbatim.
        let mut bare = recs[1].clone();
        bare.metrics = None;
        let bare = bare.to_json_line();
        assert!(recs[1].to_json_line().starts_with(&bare[..bare.len() - 1]));
    }

    #[test]
    fn nonfinite_predictions_become_zero() {
        let mut r = sample("fetch.get");
        r.predicted_read_s = f64::NAN;
        r.predicted_rerun_s = f64::INFINITY;
        let parsed = AuditRecord::from_json(&json::parse(&r.to_json_line()).unwrap()).unwrap();
        assert_eq!(parsed.predicted_read_s, 0.0);
        assert_eq!(parsed.predicted_rerun_s, 0.0);
    }

    #[test]
    fn foreign_records_are_rejected() {
        let v = json::parse("{\"k\":\"ev\",\"seq\":1}").unwrap();
        assert!(AuditRecord::from_json(&v).is_none());
        let v = json::parse("{\"seq\":1}").unwrap();
        assert!(AuditRecord::from_json(&v).is_none());
    }

    #[test]
    fn append_flush_load_round_trip() {
        let io = MemSegmentIo::new();
        let mut log = AuditLog::open(Box::new(io.clone()), 1 << 20);
        log.set_flush_every(2);
        log.append(sample("log"));
        assert_eq!(log.pending_records().len(), 1, "below batch: buffered");
        log.append(sample("fetch.get"));
        assert!(log.pending_records().is_empty(), "batch flushed");
        log.append(sample("reclaim"));
        log.flush();
        let recs = AuditLog::load(&io).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(recs[2].op, "reclaim");
        assert_eq!(log.stats().records, 3);
        assert!(log.stats().total_bytes > 0);
        // A reopened journal continues the numbering.
        let log = AuditLog::open(Box::new(io.clone()), 1 << 20);
        assert_eq!(log.stats().next_seq, 3);
    }

    #[test]
    fn failed_writes_count_errors_and_still_count_the_record() {
        let io = MemSegmentIo::new();
        io.set_dead(true);
        let mut log = AuditLog::open(Box::new(io), 1 << 20);
        log.set_flush_every(1);
        log.append(sample("log"));
        assert_eq!(log.stats().write_errors, 1);
        assert_eq!(log.stats().records, 1, "record still counted");
    }
}
