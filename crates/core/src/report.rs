//! Per-query EXPLAIN reports: every diagnostic fetch records what the cost
//! model predicted, which plan the planner chose, and where the time and
//! bytes actually went — the per-query counterpart of the aggregate
//! counters in `mistique-obs`. The same bounded-ring machinery retains
//! [`ReclaimReport`]s, the storage-manager counterpart produced by every
//! `Mistique::reclaim` pass.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Duration;

use mistique_obs::fmt_secs;
use mistique_store::{CompactionReport, ReadAttribution};

/// Which plan served a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanChoice {
    /// Stored chunks were read back (Eq 4 won).
    Read,
    /// The model was re-run (Eq 2/3 won, or reading was impossible).
    Rerun,
    /// The session query cache served the result outright.
    Cached,
    /// A secondary index served the query: top-k from the max-activation
    /// list, or a threshold scan restricted to the RowBlocks the zone maps
    /// could not prove empty (see [`crate::index_state`]). Always
    /// bit-identical to the scan it replaces.
    IndexedRead,
}

impl PlanChoice {
    /// Lower-case plan name (`read` / `rerun` / `cached` / `indexed_read`),
    /// also used as the drift-monitor query class.
    pub fn name(&self) -> &'static str {
        match self {
            PlanChoice::Read => "read",
            PlanChoice::Rerun => "rerun",
            PlanChoice::Cached => "cached",
            PlanChoice::IndexedRead => "indexed_read",
        }
    }
}

/// The EXPLAIN record of one fetch. Produced for every
/// `Mistique::get_intermediate` / `get_rows` call — and therefore for every
/// `Diagnostics` query — and kept in a bounded ring of
/// [`REPORT_RETENTION`] reports.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// Monotone sequence number within the session.
    pub seq: u64,
    /// The diagnostic query that issued the fetch (e.g. `diag.topk`), or
    /// `fetch` for direct API calls.
    pub query: String,
    /// The intermediate served.
    pub intermediate: String,
    /// The plan that served the query.
    pub plan: PlanChoice,
    /// Cost-model prediction for reading stored chunks, in seconds (Eq 4).
    pub predicted_read_s: f64,
    /// Cost-model prediction for re-running the model, in seconds (Eq 2/3).
    pub predicted_rerun_s: f64,
    /// Actual wall time of the fetch.
    pub actual: Duration,
    /// Rows served.
    pub n_ex: usize,
    /// Whether the session query cache served the fetch.
    pub cache_hit: bool,
    /// DataStore activity attributed to this fetch (already diffed: just
    /// this query's gets/bytes/partitions/codec breakdown).
    pub attribution: ReadAttribution,
    /// Quantization scheme of the intermediate served (e.g. `FULL`,
    /// `8BIT_QT`, `POOL_QT(2)+FULL`). Re-runs serve full precision.
    pub scheme: String,
    /// Worst-case per-value error bound of that scheme when statically
    /// known: `Some(0.0)` is lossless, `None` is data-dependent (KBIT
    /// quantile bins, THRESHOLD binarization).
    pub error_bound: Option<f64>,
    /// Trace id of the fetch's root span — the key into
    /// `Mistique::render_trace` for this query's tree.
    pub trace_id: u64,
    /// Smoothed predicted/actual ratio of this query's class after folding
    /// this observation in (`None` when the fetch was not drift-monitored,
    /// e.g. cache hits).
    pub drift_ratio: Option<f64>,
    /// Whether the drift monitor considered the class miscalibrated at this
    /// query.
    pub drift_flagged: bool,
    /// Block-skip attribution when the plan was
    /// [`PlanChoice::IndexedRead`]: total blocks, blocks the index proved
    /// skippable, and the indexed-plan cost prediction. `None` for every
    /// other plan.
    pub pruning: Option<crate::index_state::IndexPruning>,
}

impl QueryReport {
    /// Render the report as a small aligned text block.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = writeln!(
            out,
            "query #{} {} on {}",
            self.seq, self.query, self.intermediate
        );
        let _ = writeln!(
            out,
            "  plan     : {}  (predicted read {}, rerun {})",
            self.plan.name(),
            fmt_secs(self.predicted_read_s),
            fmt_secs(self.predicted_rerun_s),
        );
        let _ = writeln!(
            out,
            "  actual   : {}  rows={}  cache_hit={}",
            fmt_secs(self.actual.as_secs_f64()),
            self.n_ex,
            self.cache_hit
        );
        if let Some(p) = &self.pruning {
            let _ = writeln!(
                out,
                "  index    : skipped {}/{} blocks  (predicted {})",
                p.blocks_skipped,
                p.blocks_total,
                fmt_secs(p.predicted_s),
            );
        }
        let a = &self.attribution;
        let _ = writeln!(
            out,
            "  store    : {} gets, {} B, partitions={} (mem={} cache={} disk={})",
            a.gets, a.bytes, a.partitions_touched, a.mem_hits, a.cache_hits, a.disk_reads
        );
        if !a.codec_bytes.is_empty() {
            let _ = write!(out, "  codecs   :");
            for (codec, bytes) in &a.codec_bytes {
                let _ = write!(out, " {codec}={bytes}B");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "  scheme   : {}  error_bound={}",
            self.scheme,
            match self.error_bound {
                Some(b) => format!("{b}"),
                None => "data-dependent".to_string(),
            }
        );
        match self.drift_ratio {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "  drift    : ratio {:.3} ({})",
                    r,
                    if self.drift_flagged {
                        "MISCALIBRATED"
                    } else {
                        "ok"
                    }
                );
            }
            None => {
                let _ = writeln!(out, "  drift    : not monitored for this plan");
            }
        }
        let _ = writeln!(out, "  trace    : {}", self.trace_id);
        out
    }
}

/// One ladder action taken by a reclaim pass: an intermediate demoted to a
/// cheaper value scheme, re-encoded as base+delta frames (`to == "DELTA"`),
/// or purged outright (`to == "PURGED"`).
#[derive(Clone, Debug)]
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
    /// materialized intermediate of the pass.
    pub gamma: f64,
}

/// The record of one storage-reclamation pass (`Mistique::reclaim`): which
/// intermediates were demoted or purged to get back under the byte budget,
/// and what partition compaction physically recovered. Retained in its own
/// bounded ring next to the query reports.
#[derive(Clone, Debug)]
pub struct ReclaimReport {
    /// Monotone sequence number within the session.
    pub seq: u64,
    /// Budget the pass enforced (0 = unlimited: demotion loop skipped,
    /// compaction still runs).
    pub budget_bytes: u64,
    /// Materialized bytes (per-intermediate accounting) before the pass.
    pub used_before: u64,
    /// Materialized bytes after the pass.
    pub used_after: u64,
    /// Ladder steps taken, in order (purges appear here too).
    pub demotions: Vec<DemotionRecord>,
    /// Intermediates flipped to `materialized = false`; future queries
    /// re-run them and may re-promote.
    pub purged: Vec<String>,
    /// What partition compaction did. Every pass that returns a report
    /// compacted, so this is always `Some`.
    pub compaction: Option<CompactionReport>,
    /// Wall time of the whole pass.
    pub elapsed: Duration,
    /// Trace id of the pass's root span.
    pub trace_id: u64,
}

impl ReclaimReport {
    /// Whether the pass left the system within budget (trivially true for
    /// an unlimited budget).
    pub fn within_budget(&self) -> bool {
        self.budget_bytes == 0 || self.used_after <= self.budget_bytes
    }

    /// Render the report as a small aligned text block.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(512);
        let budget = if self.budget_bytes == 0 {
            "unlimited".to_string()
        } else {
            format!("{} B", self.budget_bytes)
        };
        let _ = writeln!(
            out,
            "reclaim #{}: budget {budget}, used {} B -> {} B ({})",
            self.seq,
            self.used_before,
            self.used_after,
            if self.within_budget() {
                "within budget"
            } else {
                "OVER BUDGET"
            }
        );
        for d in &self.demotions {
            let _ = writeln!(
                out,
                "  {:<8} : {}  {} -> {}  ({} B -> {} B, gamma {:.3e})",
                if d.to == "PURGED" {
                    "purge"
                } else if d.to == "DELTA" {
                    "delta"
                } else {
                    "demote"
                },
                d.intermediate,
                d.from,
                d.to,
                d.bytes_before,
                d.bytes_after,
                d.gamma
            );
        }
        if let Some(c) = &self.compaction {
            let _ = writeln!(
                out,
                "  compact  : {} scanned, {} rewritten, {} removed, {} B / {} chunks reclaimed",
                c.partitions_scanned,
                c.partitions_rewritten,
                c.partitions_removed,
                c.bytes_reclaimed,
                c.chunks_dropped
            );
        }
        let _ = writeln!(out, "  elapsed  : {}", fmt_secs(self.elapsed.as_secs_f64()));
        let _ = writeln!(out, "  trace    : {}", self.trace_id);
        out
    }
}

/// How many [`QueryReport`]s / [`ReclaimReport`]s a session retains.
pub const REPORT_RETENTION: usize = 64;

/// A report type that carries a session-monotone sequence number the ring
/// stamps at push time.
pub trait Stamped {
    /// Overwrite the report's sequence number.
    fn set_seq(&mut self, seq: u64);
}

impl Stamped for QueryReport {
    fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}

impl Stamped for ReclaimReport {
    fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}

/// Bounded ring of recent reports, oldest first. Every pushed report gets
/// the next sequence number even when retention is disabled.
#[derive(Debug)]
pub struct SeqRing<T> {
    ring: VecDeque<T>,
    capacity: usize,
    next_seq: u64,
}

/// The ring of per-query EXPLAIN reports.
pub type ReportRing = SeqRing<QueryReport>;

impl<T: Stamped> SeqRing<T> {
    /// A ring retaining up to `capacity` reports (0 disables retention;
    /// sequence numbers still advance).
    pub fn new(capacity: usize) -> SeqRing<T> {
        SeqRing {
            ring: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            next_seq: 0,
        }
    }

    /// Stamp the report with the next sequence number and retain it.
    /// Returns the assigned sequence number.
    pub(crate) fn push(&mut self, mut report: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        report.set_seq(seq);
        if self.capacity == 0 {
            return seq;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(report);
        seq
    }

    /// The most recent report.
    pub fn last(&self) -> Option<&T> {
        self.ring.back()
    }

    /// Up to the last `n` reports, oldest first.
    pub fn recent(&self, n: usize) -> Vec<&T> {
        let skip = self.ring.len().saturating_sub(n);
        self.ring.iter().skip(skip).collect()
    }

    /// Number of retained reports.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no reports are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(intermediate: &str) -> QueryReport {
        QueryReport {
            seq: 0,
            query: "diag.topk".to_string(),
            intermediate: intermediate.to_string(),
            plan: PlanChoice::Read,
            predicted_read_s: 0.0012,
            predicted_rerun_s: 0.4,
            actual: Duration::from_micros(1800),
            n_ex: 5000,
            cache_hit: false,
            attribution: ReadAttribution {
                gets: 11,
                bytes: 88_200,
                mem_hits: 0,
                cache_hits: 9,
                disk_reads: 2,
                partitions_touched: 2,
                codec_bytes: vec![("rle".to_string(), 40_000)],
            },
            scheme: "FULL".to_string(),
            error_bound: Some(0.0),
            trace_id: 42,
            drift_ratio: Some(0.667),
            drift_flagged: false,
            pruning: None,
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let r = report("m1.interm5");
        let text = r.render();
        assert!(text.contains("diag.topk"));
        assert!(text.contains("m1.interm5"));
        assert!(text.contains("plan     : read"));
        assert!(text.contains("rows=5000"));
        assert!(text.contains("partitions=2"));
        assert!(text.contains("rle=40000B"));
        assert!(text.contains("FULL"));
        assert!(text.contains("ratio 0.667 (ok)"));
        assert!(text.contains("trace    : 42"));
    }

    #[test]
    fn ring_bounds_and_sequences() {
        let mut ring = ReportRing::new(2);
        assert!(ring.is_empty());
        for i in 0..5 {
            let seq = ring.push(report(&format!("i{i}")));
            assert_eq!(seq, i);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.capacity(), 2);
        let recent = ring.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].intermediate, "i3");
        assert_eq!(recent[1].intermediate, "i4");
        assert_eq!(ring.last().unwrap().seq, 4);
        assert_eq!(ring.recent(1).len(), 1);
    }

    #[test]
    fn reclaim_report_renders_ladder_and_compaction() {
        let r = ReclaimReport {
            seq: 3,
            budget_bytes: 4096,
            used_before: 10_000,
            used_after: 3_500,
            demotions: vec![
                DemotionRecord {
                    intermediate: "m.i3".into(),
                    from: "FULL".into(),
                    to: "LP_QT".into(),
                    bytes_before: 5_000,
                    bytes_after: 2_500,
                    gamma: 1.5e-7,
                },
                DemotionRecord {
                    intermediate: "m.i1".into(),
                    from: "THRESHOLD_QT".into(),
                    to: "PURGED".into(),
                    bytes_before: 1_200,
                    bytes_after: 0,
                    gamma: 2.0e-9,
                },
            ],
            purged: vec!["m.i1".into()],
            compaction: Some(CompactionReport {
                partitions_scanned: 4,
                partitions_rewritten: 2,
                partitions_removed: 1,
                bytes_reclaimed: 3_400,
                chunks_dropped: 7,
            }),
            elapsed: Duration::from_millis(12),
            trace_id: 99,
        };
        assert!(r.within_budget());
        let text = r.render();
        assert!(text.contains("reclaim #3"));
        assert!(text.contains("within budget"));
        assert!(text.contains("demote"));
        assert!(text.contains("FULL -> LP_QT"));
        assert!(text.contains("purge"));
        assert!(text.contains("PURGED"));
        assert!(text.contains("2 rewritten, 1 removed"));
        assert!(text.contains("trace    : 99"));
    }

    #[test]
    fn reclaim_reports_share_the_ring_machinery() {
        let mut ring: SeqRing<ReclaimReport> = SeqRing::new(2);
        for _ in 0..3 {
            ring.push(ReclaimReport {
                seq: 0,
                budget_bytes: 0,
                used_before: 1,
                used_after: 1,
                demotions: vec![],
                purged: vec![],
                compaction: None,
                elapsed: Duration::ZERO,
                trace_id: 0,
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.last().unwrap().seq, 2);
        assert!(ring.last().unwrap().within_budget());
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing_but_counts() {
        let mut ring = ReportRing::new(0);
        assert_eq!(ring.push(report("a")), 0);
        assert_eq!(ring.push(report("b")), 1);
        assert!(ring.is_empty());
        assert!(ring.last().is_none());
    }
}
