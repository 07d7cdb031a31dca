//! The workload audit journal: one structured, replayable record per engine
//! entry point (logging, every diagnostic, fetches, reclaim), persisted as
//! JSONL segments alongside the flight-recorder timeline.
//!
//! Where the timeline ([`crate::timeline`]) records *metric deltas*, the
//! audit journal records *operations*: what was asked (operation name plus
//! an argument fingerprint), what the engine decided (the plan of every
//! inner fetch, in order), what it predicted, and what actually happened
//! (latency, bytes and partitions touched, trace id). A captured journal is
//! a complete workload description — `mistique replay` re-executes it
//! against a fresh or existing store and checks the answers and plan
//! choices bit-for-bit.
//!
//! Records are buffered and flushed in batches (every
//! [`DEFAULT_FLUSH_EVERY`] records, at burst boundaries, and on engine
//! drop) so steady-state capture stays off the query hot path. Segments are
//! persisted by the shared segment ring (`ring.rs`), the recorder's too:
//! atomic rewrite, byte-bounded retention, and **best-effort** I/O — a
//! failed write counts an error and never fails the data operation that
//! produced the record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

use crate::json::{push_json_string, JsonValue};
use crate::ring::{unix_ms, SegmentIo, SegmentRing};

/// Target size of one audit segment before the log seals it (each flush
/// rewrites the current segment atomically, so this bounds per-flush write
/// amplification).
pub const DEFAULT_AUDIT_SEGMENT_TARGET: usize = 32 * 1024;

/// Records buffered before an automatic flush. A crash can lose at most
/// this many trailing records; the journal on disk stays loadable.
pub const DEFAULT_FLUSH_EVERY: usize = 32;

/// The journal's one segment family.
const FAMILIES: [&str; 1] = ["au_"];

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
    /// (`read`/`rerun`/`cached`/`indexed_read`).
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
            ",\"actual_ns\":{},\"bytes\":{},\"parts\":{},\"trace\":{},\"ok\":{}}}",
            self.actual_ns, self.bytes, self.partitions, self.trace_id, self.ok
        );
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
        let (ring, next_seq) =
            SegmentRing::open(io, &FAMILIES, budget_bytes, DEFAULT_AUDIT_SEGMENT_TARGET);
        AuditLog {
            ring,
            flush_every: DEFAULT_FLUSH_EVERY,
            next_seq,
            pending: Vec::new(),
            records: 0,
            flushes: 0,
        }
    }

    /// Override the segment rotation target (tests use tiny segments to
    /// exercise retention).
    pub fn set_segment_target(&mut self, bytes: usize) {
        self.ring.set_segment_target(bytes);
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
    /// is buffered and flushed with the next batch.
    pub fn append(&mut self, mut record: AuditRecord) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records += 1;
        record.seq = seq;
        if record.t_ms == 0 {
            record.t_ms = unix_ms();
        }
        self.pending.push(record);
        if self.pending.len() >= self.flush_every {
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
        if self.ring.append(0, first_seq, &lines) {
            self.flushes += 1;
        }
        self.ring.enforce_budget();
    }

    /// Load every readable record, in sequence order. Unknown files are
    /// skipped; within a segment, parsing stops at the first torn line.
    pub fn load(io: &dyn SegmentIo) -> io::Result<Vec<AuditRecord>> {
        let mut out: Vec<AuditRecord> = SegmentRing::load(io, &FAMILIES)?
            .iter()
            .filter_map(|(_, v)| AuditRecord::from_json(v))
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
            plans: vec!["read".to_string(), "cached".to_string()],
            predicted_read_s: 0.002,
            predicted_rerun_s: 0.13,
            actual_ns: 1_234_567,
            bytes: 4096,
            partitions: 2,
            trace_id: 99,
            ok: true,
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
