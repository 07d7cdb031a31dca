//! The engine side of the workload audit journal (see `mistique_obs::audit`)
//! and of the metric timeline its records carry, plus per-query-class SLO
//! latency tracking.
//!
//! Auditing is enabled by [`MistiqueConfig::audit_budget_bytes`] (on by
//! default with a 1 MiB ring; `0` disables capture entirely). Every engine
//! entry point — `log_intermediates{,_parallel}`, every diagnostic,
//! `get_intermediate` / `get_rows` / `fetch_with_strategy`, `reclaim`, and
//! model registration — runs inside [`Mistique::audited`], which appends one
//! [`AuditRecord`] per *outermost* call: the operation name, an argument
//! fingerprint sufficient to re-execute it, the plan of every inner fetch in
//! execution order, the cost model's predictions, the actual latency,
//! bytes and partitions touched, and the operation's effects on the store
//! (every reclaim ladder step and compaction it ran — see
//! [`Mistique::audit_effect`]). Nested entry points (a diagnostic's inner
//! `get_intermediate`, `reclaim_if_over_budget` inside a logging burst)
//! fold into the outermost record instead of producing their own.
//!
//! **Metric points** ride on those records ([`Mistique::telemetry_capture`]):
//! at a burst boundary the engine takes the delta of a fresh snapshot and
//! puts it on the record in flight, which is flushed as soon as it is
//! appended. The boundaries:
//! - `log` — after every `log_intermediates` / `log_intermediates_parallel`
//! - `reclaim` — after every reclaim pass (its ladder steps and compaction
//!   are effects on the same record)
//! - `recovery` — on the `recovery` record `reopen` appends; the point
//!   carries the pass's `store.recovery.*` counters and is the counter-reset
//!   boundary
//! - `interval` — on the first query record past [`INTERVAL_CAPTURE`] since
//!   the previous point
//!
//! [`Mistique::timeline`] is the view of the points.
//!
//! Segments live under `<dir>/audit/` and go through the system's
//! [`StorageBackend`], so crash tests inject faults into the audit write
//! path with the same harness as the data path — and every audit failure is
//! swallowed into `audit.write_errors`, never surfaced to the data
//! operation that produced the record.
//!
//! **SLO tracking** is independent of the journal (always on): every
//! finished [`QueryReport`] is folded into a latency histogram keyed by
//! `(query, plan)` — `slo.diag.topk.read.ns`, `slo.fetch.rerun.ns`, … —
//! whose p50/p95/p99/p99.9/max every timeline point the histogram moved in
//! carries; `mistique top` renders its SLO table from the latest such
//! point. A query slower than [`SLO_BURN_FACTOR`] × its class p95 (once the
//! class has [`SLO_MIN_SAMPLES`] samples) counts one `slo.burns`.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mistique_obs::{AuditEffect, AuditLog, AuditRecord, AuditStats, LastSeen, Timeline};
use mistique_store::{StorageBackend, StoreSubdir, AUDIT_SUBDIR};

use crate::error::MistiqueError;
use crate::executor::ModelSource;
use crate::report::QueryReport;
use crate::system::{Mistique, MistiqueConfig};

/// Samples a `(query, plan)` latency class needs before SLO-burn detection
/// arms — quantiles of a near-empty histogram are noise.
pub const SLO_MIN_SAMPLES: u64 = 16;

/// A query is an SLO burn when its latency exceeds this multiple of its
/// class's p95.
pub const SLO_BURN_FACTOR: f64 = 8.0;

/// Minimum spacing of `interval` points (taken by query records).
pub const INTERVAL_CAPTURE: Duration = Duration::from_secs(2);

/// The in-flight record of the outermost audited entry point.
pub(crate) struct PendingAudit {
    record: AuditRecord,
    t0: Instant,
}

/// Per-instance audit state: the durable journal, the record of the entry
/// point currently executing, if any, and the metric-point baselines.
pub(crate) struct AuditState {
    pub(crate) log: AuditLog,
    pending: Option<PendingAudit>,
    last: LastSeen,
    /// When the last metric point was taken.
    last_capture: Instant,
}

impl AuditState {
    /// Best-effort construction: any I/O failure disables auditing for the
    /// session rather than failing the open.
    pub(crate) fn create(
        config: &MistiqueConfig,
        backend: &Arc<dyn StorageBackend>,
        dir: &Path,
    ) -> Option<AuditState> {
        if config.audit_budget_bytes == 0 {
            return None;
        }
        let io = StoreSubdir::create(Arc::clone(backend), dir, AUDIT_SUBDIR).ok()?;
        Some(AuditState {
            log: AuditLog::open(Box::new(io), config.audit_budget_bytes),
            pending: None,
            last: LastSeen::default(),
            last_capture: Instant::now(),
        })
    }
}

/// The `register` record's argument fingerprint: everything `mistique
/// replay` needs to reconstruct the [`ModelSource`] — pipeline template id
/// and data provenance for TRAD, encoded architecture plus seed/epoch/batch
/// and data provenance for DNN. Sources built from data without provenance
/// (not produced by the generators) record no `data_*` args; replay reports
/// them as unreplayable instead of guessing.
pub(crate) fn register_args(source: &ModelSource) -> AuditArgs {
    match source {
        ModelSource::Trad { pipeline, data } => {
            let mut args = vec![
                ("kind", "trad".to_string()),
                ("pipeline", pipeline.id.clone()),
            ];
            if let Some((n, seed)) = data.provenance {
                args.push(("data_n", n.to_string()));
                args.push(("data_seed", seed.to_string()));
            }
            args
        }
        ModelSource::Dnn {
            arch,
            seed,
            epoch,
            data,
            batch_size,
        } => {
            let mut args = vec![
                ("kind", "dnn".to_string()),
                ("arch", crate::replay::encode_arch(arch)),
                ("seed", seed.to_string()),
                ("epoch", epoch.to_string()),
                ("batch", batch_size.to_string()),
            ];
            if let Some((n, classes, dseed)) = data.provenance {
                args.push(("data_n", n.to_string()));
                args.push(("data_classes", classes.to_string()));
                args.push(("data_seed", dseed.to_string()));
            }
            args
        }
    }
}

/// An argument fingerprint: the `(key, value)` pairs of one journal record.
pub(crate) type AuditArgs = Vec<(&'static str, String)>;

/// Render a fingerprint whose values are all plain `ToString`.
pub(crate) fn args_of(pairs: &[(&'static str, &dyn ToString)]) -> AuditArgs {
    pairs.iter().map(|(k, v)| (*k, v.to_string())).collect()
}

/// The common fetch argument fingerprint: intermediate, requested columns
/// (`*` = all) and row clamp (`all` = every row), then the entry point's
/// own `extra` pairs.
pub(crate) fn fetch_args(
    intermediate: &str,
    columns: Option<&[&str]>,
    n_ex: Option<usize>,
    extra: &[(&'static str, &dyn ToString)],
) -> AuditArgs {
    let cols = columns.map_or_else(|| "*".to_string(), |cs| cs.join(","));
    let n_ex = n_ex.map_or_else(|| "all".to_string(), |n| n.to_string());
    let mut args = args_of(&[("interm", &intermediate), ("cols", &cols), ("n_ex", &n_ex)]);
    args.extend(args_of(extra));
    args
}

/// Comma-join row ids or group/label bytes for an args value, each written
/// straight into the one string returned (a `vis` over 2,000 images renders
/// no string per group).
pub(crate) fn csv<T: std::fmt::Display>(xs: &[T]) -> String {
    let mut out = String::with_capacity(xs.len() * 4);
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out
}

/// 64-bit FNV-1a over raw bytes — the digest primitive the audit layer and
/// `mistique replay` share for fingerprinting inputs and answers.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Mistique {
    /// Run `f` as one audited entry point: the **outermost** `audited` call
    /// owns the journal record (op, args, latency, ok) and every
    /// [`QueryReport`] finished inside folds its plan/bytes/predictions into
    /// it via [`Mistique::audit_observe_report`]. Nested calls — a
    /// diagnostic's inner fetch, the DNN fallback inside `log_parallel` —
    /// run `f` untouched. `args` renders the argument fingerprint and runs
    /// only for the call that owns a record: never when nested, never with
    /// capture disabled.
    pub(crate) fn audited<T>(
        &mut self,
        op: &str,
        args: impl FnOnce() -> AuditArgs,
        f: impl FnOnce(&mut Mistique) -> Result<T, MistiqueError>,
    ) -> Result<T, MistiqueError> {
        let owns = match self.audit.as_mut() {
            Some(state) if state.pending.is_none() => {
                let record = AuditRecord {
                    op: op.to_string(),
                    args: args()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                    ..AuditRecord::default()
                };
                state.pending = Some(PendingAudit {
                    record,
                    t0: Instant::now(),
                });
                true
            }
            _ => false,
        };
        let out = f(self);
        if owns {
            if let Some(state) = self.audit.as_mut() {
                if let Some(p) = state.pending.take() {
                    let mut record = p.record;
                    record.actual_ns = u64::try_from(p.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    record.ok = out.is_ok();
                    state.log.append(record);
                }
            }
        }
        out
    }

    /// Query-path hook (called by `push_report` for every finished report):
    /// fold the report into its SLO latency class, count burns, and
    /// accumulate plan/byte/prediction detail into the in-flight audit
    /// record.
    pub(crate) fn audit_observe_report(&mut self, report: &QueryReport) {
        // SLO latency tracking is always on — it costs one histogram record
        // here, and `mistique top` renders from the histogram's timeline
        // points even when journal capture is disabled.
        let held = &mut self.fetch_metrics;
        let hist = held.slo(&self.obs, &report.query, report.plan);
        hist.record_duration(report.actual);
        let actual_ns = u64::try_from(report.actual.as_nanos()).unwrap_or(u64::MAX);
        if hist.count() >= SLO_MIN_SAMPLES {
            let p95 = hist.percentile(0.95);
            if p95 > 0 && actual_ns as f64 > SLO_BURN_FACTOR * p95 as f64 {
                held.slo_burns(&self.obs).inc();
            }
        }

        // Fold the fetch into the outermost entry point's journal record.
        if let Some(state) = self.audit.as_mut() {
            if let Some(p) = state.pending.as_mut() {
                let rec = &mut p.record;
                if rec.plans.is_empty() {
                    rec.predicted_read_s = report.predicted_read_s;
                    rec.predicted_rerun_s = report.predicted_rerun_s;
                }
                if rec.trace_id == 0 {
                    rec.trace_id = report.trace_id;
                }
                rec.plans.push(report.plan.name().to_string());
                rec.bytes += report.attribution.bytes;
                rec.partitions += report.attribution.partitions_touched;
            }
        }
    }

    /// Add an effect on the store — a reclaim ladder step, a compaction —
    /// to the record of the outermost entry point in flight: `reclaim`
    /// itself, or the logging burst or fetch whose budget check ran the
    /// pass. No-op when capture is disabled.
    pub(crate) fn audit_effect(&mut self, effect: AuditEffect) {
        if let Some(p) = self.audit.as_mut().and_then(|s| s.pending.as_mut()) {
            p.record.effects.push(effect);
        }
    }

    /// Take a metric-delta point at a burst boundary and put it on the
    /// record of the outermost entry point in flight; a second point on the
    /// same record merges into the first, later values winning. No-op with
    /// no record in flight or capture disabled.
    pub(crate) fn telemetry_capture(&mut self, reason: &str) {
        if self.audit.as_ref().is_none_or(|s| s.pending.is_none()) {
            return;
        }
        let snap = self.obs_snapshot();
        let Some(state) = self.audit.as_mut() else {
            return;
        };
        state.last_capture = Instant::now();
        let (Some(point), Some(p)) = (state.last.point(&snap, reason), state.pending.as_mut())
        else {
            return;
        };
        match &mut p.record.metrics {
            Some(m) => m.merge(point),
            None => p.record.metrics = Some(point),
        }
    }

    /// Query-path hook: the first query record past [`INTERVAL_CAPTURE`]
    /// since the previous point carries an `interval` point.
    pub(crate) fn telemetry_tick(&mut self) {
        if self
            .audit
            .as_ref()
            .is_some_and(|s| s.last_capture.elapsed() >= INTERVAL_CAPTURE)
        {
            self.telemetry_capture("interval");
        }
    }

    /// The timeline of this instance's directory: the metric point of every
    /// surviving or buffered audit record, in sequence order.
    pub fn timeline(&self) -> Result<Timeline, MistiqueError> {
        Ok(Timeline::from_records(&self.audit_records()?))
    }

    /// Load a timeline from a directory without opening the system (the
    /// `mistique timeline <dir>` entry point).
    pub fn load_timeline(dir: impl AsRef<Path>) -> Result<Timeline, MistiqueError> {
        Ok(Timeline::from_records(&Self::load_audit(dir)?))
    }

    /// Flush buffered audit records to disk (best-effort). Batched flushing
    /// keeps capture off the query hot path; call this before handing the
    /// directory to another process mid-session. `Drop` flushes too.
    pub fn audit_flush(&mut self) {
        if let Some(state) = self.audit.as_mut() {
            state.log.flush();
        }
    }

    /// Journal health counters, when auditing is enabled.
    pub fn audit_stats(&self) -> Option<AuditStats> {
        self.audit.as_ref().map(|s| s.log.stats())
    }

    /// Every audit record of this instance's directory, in sequence order —
    /// surviving persisted records plus records buffered by the live
    /// journal.
    pub fn audit_records(&self) -> Result<Vec<AuditRecord>, MistiqueError> {
        let io = StoreSubdir::open_readonly(Arc::clone(&self.backend), &self.dir, AUDIT_SUBDIR);
        let mut recs = AuditLog::load(&io).map_err(mistique_store::StoreError::Io)?;
        if let Some(state) = &self.audit {
            recs.extend(state.log.pending_records().iter().cloned());
            recs.sort_by_key(|r| r.seq);
        }
        Ok(recs)
    }

    /// Load the audit journal from a directory without opening the system
    /// (the `mistique replay <dir>` / `mistique top <dir>` entry point).
    pub fn load_audit(dir: impl AsRef<Path>) -> Result<Vec<AuditRecord>, MistiqueError> {
        let backend: Arc<dyn StorageBackend> = Arc::new(mistique_store::RealFs);
        Self::load_audit_with_backend(backend, dir.as_ref())
    }

    /// [`Mistique::load_audit`] over an explicit backend (crash tests load
    /// against the same in-memory [`mistique_store::FaultyFs`] they
    /// crashed).
    pub fn load_audit_with_backend(
        backend: Arc<dyn StorageBackend>,
        dir: &Path,
    ) -> Result<Vec<AuditRecord>, MistiqueError> {
        let io = StoreSubdir::open_readonly(backend, dir, AUDIT_SUBDIR);
        AuditLog::load(&io).map_err(|e| mistique_store::StoreError::Io(e).into())
    }
}

impl Drop for Mistique {
    fn drop(&mut self) {
        // Best-effort: one-shot CLI sessions must leave their trailing
        // records on disk. A crash instead of a drop loses at most one
        // flush batch; the journal on disk stays loadable either way.
        if let Some(state) = self.audit.as_mut() {
            state.log.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::StorageStrategy;
    use mistique_pipeline::templates::zillow_pipelines;
    use mistique_pipeline::ZillowData;
    use std::collections::BTreeMap;

    fn config() -> MistiqueConfig {
        MistiqueConfig {
            row_block_size: 50,
            storage: StorageStrategy::Dedup,
            ..MistiqueConfig::default()
        }
    }

    fn arg_map(pairs: &[(&str, &str)]) -> std::collections::BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn run_small_workload(sys: &mut Mistique) -> String {
        let data = Arc::new(ZillowData::generate(120, 1));
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interm = sys.intermediates_of(&id)[0].clone();
        sys.topk(&interm, "sqft", 5).unwrap();
        sys.pointq(&interm, "sqft", 3).unwrap();
        interm
    }

    #[test]
    fn args_render_only_for_the_call_that_owns_a_record() {
        let rendered = std::cell::Cell::new(0u32);
        let args = || {
            rendered.set(rendered.get() + 1);
            vec![("k", "v".to_string())]
        };
        let nested = |sys: &mut Mistique| {
            sys.audited("outer", args, |s| s.audited("inner", args, |_| Ok(())))
        };

        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), config()).unwrap();
        nested(&mut sys).unwrap();
        assert_eq!(rendered.get(), 1, "the nested call renders nothing");
        let recs = sys.audit_records().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].op, "outer");
        assert_eq!(recs[0].args, arg_map(&[("k", "v")]));

        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(
            dir.path(),
            MistiqueConfig {
                audit_budget_bytes: 0,
                ..config()
            },
        )
        .unwrap();
        nested(&mut sys).unwrap();
        assert_eq!(rendered.get(), 1, "disabled capture renders nothing");
    }

    #[test]
    fn entry_points_journal_one_record_each() {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), config()).unwrap();
        let interm = run_small_workload(&mut sys);
        sys.audit_flush();
        let recs = Mistique::load_audit(dir.path()).unwrap();
        let ops: Vec<&str> = recs.iter().map(|r| r.op.as_str()).collect();
        assert_eq!(ops, vec!["register", "log", "diag.topk", "diag.pointq"]);
        // The diagnostic's inner fetch folded into the diagnostic record.
        let topk = &recs[2];
        assert_eq!(
            topk.args,
            arg_map(&[("interm", &interm), ("col", "sqft"), ("k", "5")])
        );
        assert_eq!(
            recs[3].args,
            arg_map(&[("interm", &interm), ("col", "sqft"), ("row", "3")])
        );
        assert!(!topk.plans.is_empty(), "inner fetch plan recorded");
        assert!(topk.ok);
        assert!(topk.actual_ns > 0);
        // The register record carries replayable provenance.
        assert_eq!(recs[0].args.get("data_seed").map(String::as_str), Some("1"));
    }

    #[test]
    fn vis_args_render_the_journal_line_they_always_did() {
        // The rendering `csv` and `args_of` gave before the groups were
        // written into one buffer: a string per group, joined, then copied.
        fn old_args(interm: &str, groups: &[u8], n_groups: usize) -> BTreeMap<String, String> {
            let csv = groups
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join(",");
            args_of(&[
                ("interm", &interm),
                ("groups", &csv),
                ("n_groups", &n_groups),
            ])
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
        }
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), config()).unwrap();
        let interm = run_small_workload(&mut sys);
        let groups: Vec<u8> = (0..120).map(|i| [0, 255, 7, 10, 99][i % 5]).collect();
        let cases: [(&[u8], usize); 3] = [(&groups, 256), (&[], 3), (&[255, 0], 256)];
        for (groups, n_groups) in cases {
            sys.vis(&interm, groups, n_groups).unwrap();
        }
        let recs = sys.audit_records().unwrap();
        let vis: Vec<&AuditRecord> = recs.iter().filter(|r| r.op == "diag.vis").collect();
        assert_eq!(vis.len(), cases.len());
        assert_eq!(vis[1].args["groups"], "");
        for (rec, (groups, n_groups)) in vis.into_iter().zip(cases) {
            let old = AuditRecord {
                args: old_args(&interm, groups, n_groups),
                ..rec.clone()
            };
            assert_eq!(rec.to_json_line(), old.to_json_line());
        }
    }

    #[test]
    fn zero_budget_disables_capture_entirely() {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(
            dir.path(),
            MistiqueConfig {
                audit_budget_bytes: 0,
                ..config()
            },
        )
        .unwrap();
        run_small_workload(&mut sys);
        assert!(sys.audit_stats().is_none());
        drop(sys);
        assert!(
            !dir.path().join(AUDIT_SUBDIR).exists(),
            "no audit directory is even created"
        );
        assert!(Mistique::load_audit(dir.path()).unwrap().is_empty());
    }

    #[test]
    fn drop_flushes_buffered_records() {
        let dir = mistique_testkit::tempdir().unwrap();
        {
            let mut sys = Mistique::open(dir.path(), config()).unwrap();
            run_small_workload(&mut sys);
            // No explicit flush: fewer records than the batch size.
        }
        let recs = Mistique::load_audit(dir.path()).unwrap();
        assert_eq!(recs.len(), 4, "drop persisted the buffered batch");
    }

    #[test]
    fn failed_operations_are_journaled_not_ok() {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), config()).unwrap();
        assert!(sys.log_intermediates("nope").is_err());
        sys.audit_flush();
        let recs = Mistique::load_audit(dir.path()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].op, "log");
        assert!(!recs[0].ok);
    }

    #[test]
    fn slo_histograms_track_query_classes() {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), config()).unwrap();
        let interm = run_small_workload(&mut sys);
        for _ in 0..3 {
            sys.topk(&interm, "sqft", 2).unwrap();
        }
        let snap = sys.obs_snapshot();
        let (name, summary) = snap
            .histograms
            .iter()
            .find(|(n, _)| n.starts_with("slo.diag.topk."))
            .expect("topk SLO class exists");
        assert!(summary.count >= 3, "{name}: {}", summary.count);
        assert!(summary.p95 > 0, "{name} carries its own quantiles");
    }

    #[test]
    fn sequence_continues_across_reopen_sessions() {
        let dir = mistique_testkit::tempdir().unwrap();
        {
            let mut sys = Mistique::open(dir.path(), config()).unwrap();
            run_small_workload(&mut sys);
            sys.persist().unwrap();
        }
        {
            let mut sys = Mistique::reopen(dir.path(), config()).unwrap();
            let interms: Vec<String> = sys
                .model_ids()
                .iter()
                .flat_map(|m| sys.intermediates_of(m))
                .collect();
            sys.topk(&interms[0], "sqft", 3).unwrap();
        }
        let recs = Mistique::load_audit(dir.path()).unwrap();
        assert_eq!(recs.last().unwrap().op, "diag.topk");
        for w in recs.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1, "monotone across sessions");
        }
    }
}
