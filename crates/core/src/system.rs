//! The MISTIQUE system facade: model registration, intermediate logging
//! (Alg. 4), and storage strategies.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mistique_dataframe::DataFrame;
use mistique_nn::{ArchConfig, CifarLike, Model};
use mistique_obs::Obs;
use mistique_pipeline::{Pipeline, ZillowData};
use mistique_store::{
    ChunkKey, DataStore, DataStoreConfig, PlacementPolicy, RealFs, RecoveryReport, StorageBackend,
};

use crate::capture::{encode_batch, CaptureScheme, LayerCapture, ValueScheme};
use crate::cost::CostModel;
use crate::error::MistiqueError;
use crate::executor::ModelSource;
use crate::metadata::{IntermediateMeta, MetadataDb, ModelKind, ModelMeta};

/// How `log_intermediates` treats each intermediate (the paper's evaluated
/// strategies).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StorageStrategy {
    /// Never store; every query re-runs the model (the RERUN baseline).
    NoStore,
    /// Store every chunk with no de-duplication (STORE_ALL).
    StoreAll,
    /// Exact + approximate de-duplication (DEDUP).
    Dedup,
    /// Store nothing up front; materialize an intermediate once its γ
    /// (Eq 5) exceeds `gamma_min` seconds/byte (ADAPTIVE, Sec 4.3).
    Adaptive {
        /// Materialization threshold in seconds of saved query time per
        /// byte of storage. The paper's Fig 10 run uses 0.5 s/KB.
        gamma_min: f64,
    },
}

/// System configuration.
#[derive(Clone, Debug)]
pub struct MistiqueConfig {
    /// Rows per RowBlock (paper evaluation: 1 000).
    pub row_block_size: usize,
    /// Storage strategy for logged intermediates.
    pub storage: StorageStrategy,
    /// Capture scheme applied to DNN activations (TRAD intermediates are
    /// always stored at full precision, as in the paper).
    pub dnn_capture: CaptureScheme,
    /// DataStore tuning.
    pub datastore: DataStoreConfig,
    /// Byte budget of the session query cache (0 = disabled, the default —
    /// a Sec 10 future-work extension; see [`crate::qcache`]).
    pub query_cache_bytes: usize,
    /// Worker threads for the stored-chunk read path (`read_stored` /
    /// `get_rows`): partitions are fetched from disk and `(column, block)`
    /// chunks decoded concurrently. `1` (the default) keeps the read path
    /// fully serial; `0` means one worker per available CPU. Any explicit
    /// value is clamped to the host's available CPUs, and each read further
    /// clamps its fan-out so every worker gets at least
    /// [`MistiqueConfig::min_read_bytes_per_worker`] bytes of chunk data —
    /// a 1-CPU host or a tiny read runs serial with zero thread overhead.
    /// The assembled frames are byte-identical at every setting — only
    /// wall-clock changes.
    pub read_parallelism: usize,
    /// Minimum serialized chunk bytes each read worker must have to justify
    /// its spawn cost: a batch read fans out over at most
    /// `batch_bytes / min_read_bytes_per_worker` workers (min 1). `0` is
    /// treated as 1 (fan out on any non-empty read). Default: 256 KiB.
    pub min_read_bytes_per_worker: u64,
    /// Drift-monitor tolerance: a query class is flagged as miscalibrated
    /// when its smoothed predicted/actual ratio leaves
    /// `[1/tolerance, tolerance]`.
    pub drift_tolerance: f64,
    /// Storage byte budget for materialized intermediates (0 = unlimited,
    /// the default). When a materialization pushes the accounting past the
    /// budget, the storage manager runs a reclaim pass: coldest-γ
    /// intermediates are demoted down the quantization ladder
    /// (FULL → LP_QT → 8BIT_QT → THRESHOLD_QT) and eventually purged, then
    /// under-occupied partitions are compacted. See `Mistique::reclaim`.
    pub storage_budget_bytes: u64,
    /// Byte budget of the on-disk telemetry timeline (the flight recorder's
    /// segment ring under `<dir>/telemetry/`; see [`Mistique::timeline`]).
    /// Retention is bounded by dropping the oldest segments first, and the
    /// bytes are **not** counted against `storage_budget_bytes`. `0`
    /// disables telemetry entirely. Default: 1 MiB.
    pub telemetry_budget_bytes: u64,
    /// Max-activation list length of the secondary indexes (zone maps +
    /// top-m lists, persisted under `<dir>/index/`; see
    /// [`crate::index_state`]). Top-k queries with `k ≤ index_top_m` are
    /// served from the list without touching the data store; threshold
    /// scans skip RowBlocks the zone maps prove empty. `0` disables
    /// indexing entirely. Index bytes are not counted against
    /// `storage_budget_bytes` but are the first thing a reclaim pass sheds.
    /// Default: [`mistique_index::DEFAULT_TOP_M`].
    pub index_top_m: usize,
    /// Byte budget of the workload audit journal (the capture/replay segment
    /// ring under `<dir>/audit/`; see [`crate::audit`]). Every engine entry
    /// point — logging, every diagnostic, fetches, reclaim — appends one
    /// structured, replayable record; `mistique replay <dir>` re-executes
    /// the captured workload. Retention drops the oldest segments first, the
    /// bytes are **not** counted against `storage_budget_bytes`, and all
    /// journal I/O is best-effort (a write failure counts
    /// `audit.write_errors`, never fails the data operation). `0` disables
    /// capture entirely. Default: 1 MiB.
    pub audit_budget_bytes: u64,
}

impl Default for MistiqueConfig {
    fn default() -> Self {
        MistiqueConfig {
            row_block_size: mistique_dataframe::DEFAULT_ROW_BLOCK_SIZE,
            storage: StorageStrategy::Dedup,
            dnn_capture: CaptureScheme::pool2(),
            datastore: DataStoreConfig::default(),
            query_cache_bytes: 0,
            read_parallelism: 1,
            min_read_bytes_per_worker: 256 * 1024,
            drift_tolerance: 4.0,
            storage_budget_bytes: 0,
            telemetry_budget_bytes: 1 << 20,
            index_top_m: mistique_index::DEFAULT_TOP_M,
            audit_budget_bytes: 1 << 20,
        }
    }
}

impl MistiqueConfig {
    /// Compact, human-readable key=value fingerprint over every knob that
    /// shapes measured behaviour. Two benchmark runs are comparable only if
    /// their fingerprints match; the e2e benchmark prints it in every report.
    pub fn fingerprint(&self) -> String {
        let ds = &self.datastore;
        format!(
            "rb={} storage={} capture={} policy={} mem={} part={} minhash={} bands={} bin={} qcache={} rpar={} minrb={} budget={} topm={} delta={} dtau={}",
            self.row_block_size,
            format!("{:?}", self.storage).replace(' ', ""),
            self.dnn_capture.name(),
            format!("{:?}", ds.policy).replace(' ', ""),
            ds.mem_capacity,
            ds.partition_target_bytes,
            ds.minhash_hashes,
            ds.lsh_bands,
            ds.discretize_bin,
            self.query_cache_bytes,
            self.read_parallelism,
            self.min_read_bytes_per_worker,
            self.storage_budget_bytes,
            self.index_top_m,
            ds.delta_enabled,
            ds.delta_tau,
        )
    }

    /// FNV-1a hash of [`MistiqueConfig::fingerprint`], truncated to 32 bits
    /// (the e2e benchmark prints it as eight hex digits).
    pub fn fingerprint_hash(&self) -> u64 {
        crate::audit::fnv1a(0, self.fingerprint().as_bytes()) & 0xFFFF_FFFF
    }
}

/// The MISTIQUE system: DataStore + MetadataDB + PipelineExecutor + cost
/// model behind one facade.
pub struct Mistique {
    pub(crate) dir: std::path::PathBuf,
    pub(crate) config: MistiqueConfig,
    pub(crate) store: DataStore,
    pub(crate) meta: MetadataDb,
    pub(crate) cost: CostModel,
    pub(crate) sources: HashMap<String, ModelSource>,
    /// Wall-clock spent writing/logging, per model (Fig 11's overhead).
    pub(crate) log_time: HashMap<String, Duration>,
    /// The storage half of `log_time`: chunking + DataStore writes.
    pub(crate) store_time: HashMap<String, Duration>,
    /// Session query cache.
    pub(crate) qcache: crate::qcache::QueryCache,
    /// Shared observability handle (metrics registry + span tracer).
    pub(crate) obs: Obs,
    /// Storage backend every on-disk mutation goes through (real filesystem
    /// in production; [`mistique_store::FaultyFs`] in crash tests).
    pub(crate) backend: Arc<dyn StorageBackend>,
    /// Report of the recovery pass run by [`Mistique::reopen`], if any.
    pub(crate) last_recovery: Option<RecoveryReport>,
    /// Ring of per-query EXPLAIN reports (`mistique explain`).
    pub(crate) reports: crate::report::ReportRing,
    /// Ring of storage-reclamation reports (`mistique reclaim`).
    pub(crate) reclaims: crate::report::SeqRing<crate::report::ReclaimReport>,
    /// EWMA monitor of cost-model prediction quality per query class.
    pub(crate) drift: crate::cost::DriftMonitor,
    /// Label of the diagnostic query currently executing, if any — set by
    /// `Mistique::diag` so the reader can attribute fetches to the
    /// outermost diagnostic (`diag.topk`, …) instead of a bare `fetch`.
    pub(crate) query_label: Option<String>,
    /// Flight recorder (telemetry timeline + event journal), when enabled
    /// by `telemetry_budget_bytes`. See [`crate::telemetry`].
    pub(crate) telemetry: Option<crate::telemetry::TelemetryState>,
    /// Secondary indexes (zone maps + max-activation lists), when enabled
    /// by `index_top_m`. See [`crate::index_state`].
    pub(crate) index: Option<crate::index_state::IndexState>,
    /// Workload audit journal (capture/replay), when enabled by
    /// `audit_budget_bytes`. See [`crate::audit`].
    pub(crate) audit: Option<crate::audit::AuditState>,
}

impl Mistique {
    /// Open a MISTIQUE instance persisting under `dir`, with a fresh
    /// observability registry.
    pub fn open(dir: impl AsRef<Path>, config: MistiqueConfig) -> Result<Mistique, MistiqueError> {
        Self::open_with_backend(dir, config, Arc::new(RealFs))
    }

    /// Open a MISTIQUE instance over an explicit [`StorageBackend`] — the
    /// entry point crash tests use to inject faults into every on-disk
    /// mutation.
    pub fn open_with_backend(
        dir: impl AsRef<Path>,
        config: MistiqueConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Mistique, MistiqueError> {
        let obs = Obs::new();
        let mut store =
            DataStore::open_with_backend(&dir, config.datastore.clone(), Arc::clone(&backend))?;
        store.set_obs(&obs);
        let mut qcache = crate::qcache::QueryCache::new(config.query_cache_bytes);
        qcache.attach_obs(&obs);
        let reports = crate::report::ReportRing::new(crate::report::REPORT_RETENTION);
        let reclaims = crate::report::SeqRing::new(crate::report::REPORT_RETENTION);
        let drift = crate::cost::DriftMonitor::new(0.2, config.drift_tolerance);
        let telemetry = crate::telemetry::TelemetryState::create(&config, &backend, dir.as_ref());
        let index = crate::index_state::IndexState::create(&config, &backend, dir.as_ref(), &obs);
        let audit = crate::audit::AuditState::create(&config, &backend, dir.as_ref());
        Ok(Mistique {
            dir: dir.as_ref().to_path_buf(),
            config,
            store,
            meta: MetadataDb::new(),
            cost: CostModel::default(),
            sources: HashMap::new(),
            log_time: HashMap::new(),
            store_time: HashMap::new(),
            qcache,
            obs,
            backend,
            last_recovery: None,
            reports,
            reclaims,
            drift,
            query_label: None,
            telemetry,
            index,
            audit,
        })
    }

    /// What the recovery pass found, when this instance was produced by
    /// [`Mistique::reopen`] (always runs recovery). `None` for instances from
    /// [`Mistique::open`].
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.last_recovery
    }

    /// Register a traditional ML pipeline. Returns the model id.
    pub fn register_trad(
        &mut self,
        pipeline: Pipeline,
        data: Arc<ZillowData>,
    ) -> Result<String, MistiqueError> {
        self.register(ModelSource::Trad { pipeline, data })
    }

    /// Register a DNN checkpoint. Returns the model id
    /// (`<arch>@epoch<epoch>`). `batch_size` is kept in the audit journal
    /// only; neither logging nor a re-run reads it.
    pub fn register_dnn(
        &mut self,
        arch: Arc<ArchConfig>,
        seed: u64,
        epoch: u32,
        data: Arc<CifarLike>,
        batch_size: usize,
    ) -> Result<String, MistiqueError> {
        self.register(ModelSource::Dnn {
            arch,
            seed,
            epoch,
            data,
            batch_size,
        })
    }

    fn register(&mut self, source: ModelSource) -> Result<String, MistiqueError> {
        let args = crate::audit::register_args(&source);
        self.audited("register", || args, move |sys| sys.register_impl(source))
    }

    fn register_impl(&mut self, source: ModelSource) -> Result<String, MistiqueError> {
        let id = source.id();
        if self.sources.contains_key(&id) {
            return Err(MistiqueError::DuplicateModel(id));
        }
        let meta = ModelMeta {
            id: id.clone(),
            kind: source.kind(),
            n_stages: source.n_stages(),
            model_load: Duration::ZERO,
            n_examples: source.n_examples(),
            intermediates: source.intermediate_ids(),
        };
        self.meta.register_model(meta);
        self.sources.insert(id.clone(), source);
        Ok(id)
    }

    /// Registered model ids.
    pub fn model_ids(&self) -> Vec<String> {
        self.meta.model_ids()
    }

    /// Intermediate ids of a model in stage order.
    pub fn intermediates_of(&self, model_id: &str) -> Vec<String> {
        self.meta
            .model(model_id)
            .map(|m| m.intermediates.clone())
            .unwrap_or_default()
    }

    /// Access the metadata database (read-only).
    pub fn metadata(&self) -> &MetadataDb {
        &self.meta
    }

    /// Access the cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Mutable access to the cost model (benchmarks calibrate it directly).
    pub fn cost_model_mut(&mut self) -> &mut CostModel {
        &mut self.cost
    }

    /// Access the underlying data store.
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Mutable access to the underlying data store (used by benches to
    /// clear caches between cold-read measurements).
    pub fn store_mut(&mut self) -> &mut DataStore {
        &mut self.store
    }

    /// Total time spent logging a model (write overhead, Fig 11).
    pub fn logging_overhead(&self, model_id: &str) -> Duration {
        self.log_time
            .get(model_id)
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// The storage half of [`Mistique::logging_overhead`]: wall-clock spent
    /// chunking and writing intermediates into the DataStore, excluding
    /// model/pipeline execution. Always `<= logging_overhead` for a logged
    /// model — the parallel and sequential logging paths both fold it into
    /// the total.
    pub fn storage_overhead(&self, model_id: &str) -> Duration {
        self.store_time
            .get(model_id)
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// Adjust the read-path worker count at runtime (`0` = one per CPU; see
    /// [`MistiqueConfig::read_parallelism`]). Benchmarks flip this between
    /// serial and parallel reads over the same stored data.
    pub fn set_read_parallelism(&mut self, n: usize) {
        self.config.read_parallelism = n;
    }

    /// Access the session query cache (hit/miss counters).
    pub fn query_cache(&self) -> &crate::qcache::QueryCache {
        &self.qcache
    }

    /// The system's observability handle. Clone it to record your own
    /// metrics or spans alongside the built-in instrumentation.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A point-in-time snapshot of every metric and span aggregate.
    pub fn obs_snapshot(&self) -> mistique_obs::Snapshot {
        self.sync_obs_gauges();
        self.obs.snapshot()
    }

    /// The snapshot rendered as a human-readable report (`mistique stats`).
    pub fn obs_report(&self) -> String {
        self.obs_snapshot().render_text()
    }

    /// Refresh the gauges that mirror pull-style state — cost-model
    /// calibration, catalog sizes, budget use, journal and flight-recorder
    /// health — so every snapshot (and therefore every timeline point)
    /// carries current values. This is the only site that writes them: a raw
    /// `Obs::snapshot()` that bypasses it sees them as of the last sync.
    pub(crate) fn sync_obs_gauges(&self) {
        let g = |name: &str, v: u64| self.obs.gauge(name).set_u64(v);
        self.obs
            .gauge("cost.read_bandwidth")
            .set(self.cost.read_bandwidth);
        g("meta.models", self.meta.model_ids().len() as u64);
        self.obs
            .gauge("cost_model.drift")
            .set(self.drift.worst_drift());
        g("storage.budget_bytes", self.config.storage_budget_bytes);
        g("storage.budget_used", self.storage_budget_used());
        if let Some(stats) = self.audit_stats() {
            g("audit.records", stats.records);
            g("audit.flushes", stats.flushes);
            g("audit.write_errors", stats.write_errors);
            g("audit.segments_dropped", stats.segments_dropped);
            g("audit.bytes", stats.total_bytes);
            g("audit.segments", stats.segments);
        }
        if let Some(stats) = self.telemetry_stats() {
            g("telemetry.captures", stats.captures);
            g("telemetry.events", stats.events);
            g("telemetry.write_errors", stats.write_errors);
            g("telemetry.bytes", stats.total_bytes);
            g("telemetry.segments", stats.segments);
        }
    }

    /// Up to the last `n` per-query EXPLAIN reports, oldest first.
    pub fn query_reports(&self, n: usize) -> Vec<crate::report::QueryReport> {
        self.reports.recent(n).into_iter().cloned().collect()
    }

    /// The EXPLAIN report of the most recent query, if any is retained.
    pub fn last_report(&self) -> Option<&crate::report::QueryReport> {
        self.reports.last()
    }

    /// The cost-model drift monitor (per-class predicted/actual EWMA).
    pub fn drift_monitor(&self) -> &crate::cost::DriftMonitor {
        &self.drift
    }

    /// Retain a finished query report (reader paths call this). Also feeds
    /// the flight recorder's query-path anomaly watch (plan flips, drift
    /// rising edges, query-cache eviction storms).
    pub(crate) fn push_report(&mut self, report: crate::report::QueryReport) {
        self.audit_observe_report(&report);
        self.telemetry_observe_report(&report);
        self.reports.push(report);
    }

    /// Render the hierarchical span tree of one trace (e.g. a report's
    /// `trace_id`) from the tracer's ring of recent spans.
    pub fn render_trace(&self, trace_id: u64) -> String {
        let spans = self.obs.snapshot().recent_spans;
        let roots = mistique_obs::tree::trace_trees(&spans, trace_id);
        mistique_obs::render_trees(&roots)
    }

    /// Flush open partitions to disk.
    pub fn flush(&mut self) -> Result<(), MistiqueError> {
        self.store.flush()?;
        Ok(())
    }

    /// Run the model and log every stage's intermediate according to the
    /// configured storage strategy (the paper's `log_intermediates` API and
    /// Alg. 4).
    pub fn log_intermediates(&mut self, model_id: &str) -> Result<(), MistiqueError> {
        let args = || crate::audit::args_of(&[("model", &model_id)]);
        self.audited("log", args, |sys| sys.log_intermediates_impl(model_id))
    }

    fn log_intermediates_impl(&mut self, model_id: &str) -> Result<(), MistiqueError> {
        let source = self
            .sources
            .get(model_id)
            .cloned()
            .ok_or_else(|| MistiqueError::UnknownModel(model_id.to_string()))?;
        // The span doubles as the overhead timer (Fig 11's metric).
        let sp = mistique_obs::span!(self.obs, "log_intermediates", model = model_id);
        match &source {
            ModelSource::Trad { pipeline, data } => self.log_trad(pipeline, data)?,
            ModelSource::Dnn {
                arch,
                seed,
                epoch,
                data,
                ..
            } => self.log_dnn(&source, arch, *seed, *epoch, data)?,
        }
        self.log_time.insert(model_id.to_string(), sp.finish());
        // Budget check after every materialization burst: logging under
        // StoreAll/Dedup may have pushed the store past the configured
        // budget; reclaim demotes/purges cold intermediates to get back.
        self.reclaim_if_over_budget()?;
        self.telemetry_capture("log");
        Ok(())
    }

    /// Log several registered TRAD models, executing their pipelines in
    /// parallel on scoped threads and then storing the resulting
    /// intermediates serially (the DataStore is single-writer). DNN ids fall
    /// back to sequential logging.
    pub fn log_intermediates_parallel(&mut self, model_ids: &[&str]) -> Result<(), MistiqueError> {
        let args = || crate::audit::args_of(&[("models", &model_ids.join(","))]);
        self.audited("log_parallel", args, |sys| {
            sys.log_intermediates_parallel_impl(model_ids)
        })
    }

    fn log_intermediates_parallel_impl(&mut self, model_ids: &[&str]) -> Result<(), MistiqueError> {
        let _sp = mistique_obs::span!(self.obs, "log_intermediates.parallel", n = model_ids.len());
        // Partition into parallelizable TRAD runs and sequential DNN runs.
        let mut trad: Vec<(String, Pipeline, Arc<ZillowData>)> = Vec::new();
        let mut dnn: Vec<String> = Vec::new();
        for &id in model_ids {
            match self.sources.get(id) {
                Some(ModelSource::Trad { pipeline, data }) => {
                    trad.push((id.to_string(), pipeline.clone(), Arc::clone(data)));
                }
                Some(ModelSource::Dnn { .. }) => dnn.push(id.to_string()),
                None => return Err(MistiqueError::UnknownModel(id.to_string())),
            }
        }

        // Execute all TRAD pipelines concurrently; each run is pure.
        let mut results: Vec<(String, Vec<mistique_pipeline::RunRecord>, Duration)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = trad
                    .iter()
                    .map(|(id, pipeline, data)| {
                        scope.spawn(move || {
                            let t0 = Instant::now();
                            let records = pipeline.run(data);
                            (id.clone(), records, t0.elapsed())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pipeline thread"))
                    .collect()
            });
        // Store in registration order for deterministic partition layout.
        results.sort_by_key(|(id, _, _)| {
            trad.iter()
                .position(|(tid, _, _)| tid == id)
                .unwrap_or(usize::MAX)
        });
        for (id, records, elapsed) in results {
            // Logging overhead covers chunking + storage, not just pipeline
            // execution — keep parity with the sequential `log_intermediates`
            // path, whose span wraps both.
            let t_store = Instant::now();
            self.log_trad_records(&id, records)?;
            self.log_time.insert(id, elapsed + t_store.elapsed());
        }
        for id in dnn {
            self.log_intermediates(&id)?;
        }
        self.reclaim_if_over_budget()?;
        self.telemetry_capture("log");
        Ok(())
    }

    /// Resolve `config.read_parallelism` to a concrete worker count:
    /// `0` = one per available CPU, and explicit values are clamped to the
    /// available CPUs — more workers than cores is pure scheduling overhead
    /// on this CPU-bound path (the committed 0.90× regression was workers=4
    /// on a 1-CPU host).
    pub(crate) fn effective_read_parallelism(&self) -> usize {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match self.config.read_parallelism {
            0 => cpus,
            n => n.min(cpus),
        }
    }

    fn should_materialize_at_log_time(&self) -> bool {
        matches!(
            self.config.storage,
            StorageStrategy::StoreAll | StorageStrategy::Dedup
        )
    }

    /// How chunks of a model kind are placed, and whether the configured
    /// strategy de-duplicates them: the `policy` and `dedup` arguments of
    /// [`Mistique::store_frame`] for freshly logged or promoted frames.
    pub(crate) fn placement_of(&self, kind: ModelKind) -> (PlacementPolicy, bool) {
        let policy = match kind {
            ModelKind::Trad => self.config.datastore.policy,
            ModelKind::Dnn => PlacementPolicy::ByIntermediate,
        };
        let dedup = !matches!(self.config.storage, StorageStrategy::StoreAll);
        (policy, dedup)
    }

    /// Store a dataframe as the chunks of one intermediate: RowBlock by
    /// RowBlock, the frame's first block landing at index `first_block`
    /// (a frame that *is* one block of a longer intermediate passes that
    /// block's index). Returns the stored byte volume.
    pub(crate) fn store_frame(
        &mut self,
        intermediate_id: &str,
        frame: &DataFrame,
        first_block: u32,
        policy: PlacementPolicy,
        dedup: bool,
    ) -> Result<u64, MistiqueError> {
        let mut bytes = 0u64;
        for (block, column, chunk) in frame.chunks(self.config.row_block_size) {
            let key = ChunkKey::new(intermediate_id, column, first_block + block as u32);
            // The store serializes the chunk exactly once and reports the
            // size back, so accounting costs no extra `to_bytes` pass.
            let (_, stored) = self.store.put_chunk_sized(key, &chunk, policy, dedup)?;
            bytes += stored;
        }
        Ok(bytes)
    }

    /// Serialized size of a frame without storing it (metadata for
    /// un-materialized intermediates, so γ can be evaluated later).
    fn frame_stored_bytes(frame: &DataFrame, row_block_size: usize) -> u64 {
        frame
            .chunks(row_block_size)
            .map(|(_, _, c)| c.to_bytes().len() as u64)
            .sum()
    }

    fn log_trad(
        &mut self,
        pipeline: &Pipeline,
        data: &Arc<ZillowData>,
    ) -> Result<(), MistiqueError> {
        let records = pipeline.run(data);
        self.log_trad_records(&pipeline.id, records)
    }

    /// Log pre-computed TRAD run records (the storage half of `log_trad`,
    /// shared with [`Mistique::log_intermediates_parallel`]).
    fn log_trad_records(
        &mut self,
        model_id: &str,
        records: Vec<mistique_pipeline::RunRecord>,
    ) -> Result<(), MistiqueError> {
        let t_store = Instant::now();
        let model_id = model_id.to_string();
        let mut cum = Duration::ZERO;
        for rec in records {
            cum += rec.exec_time;
            let materialize = self.should_materialize_at_log_time();
            let stored_bytes = if materialize {
                let (policy, dedup) = self.placement_of(ModelKind::Trad);
                self.store_frame(&rec.intermediate_id, &rec.output, 0, policy, dedup)?
            } else {
                Self::frame_stored_bytes(&rec.output, self.config.row_block_size)
            };
            self.meta.upsert_intermediate(IntermediateMeta {
                id: rec.intermediate_id.clone(),
                model_id: model_id.clone(),
                stage_index: rec.stage_index,
                n_rows: rec.output.n_rows(),
                columns: rec
                    .output
                    .column_names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                scheme: CaptureScheme::full(),
                materialized: materialize,
                stored_bytes,
                exec_time: rec.exec_time,
                cum_exec_time: cum,
                n_queries: 0,
                quantizer: None,
                threshold: None,
                shape: None,
                delta_encoded: false,
                chain: None,
            });
            if materialize {
                // Index the decoded values a scan would see (TRAD stores at
                // full precision), then persist — best-effort.
                self.index_observe_frame(
                    &rec.intermediate_id,
                    &rec.output,
                    ValueScheme::Full,
                    None,
                );
                self.index_finish_build(&rec.intermediate_id);
            }
        }
        self.store_time.insert(model_id, t_store.elapsed());
        Ok(())
    }

    fn log_dnn(
        &mut self,
        source: &ModelSource,
        arch: &Arc<ArchConfig>,
        seed: u64,
        epoch: u32,
        data: &Arc<CifarLike>,
    ) -> Result<(), MistiqueError> {
        let r = self.log_dnn_inner(source, arch, seed, epoch, data);
        if r.is_err() {
            // A failed pass leaves one partially-fed index builder per
            // layer; none of them may ever persist.
            let prefix = format!("{}.layer", source.id());
            self.index_discard_builders_with_prefix(&prefix);
        }
        r
    }

    fn log_dnn_inner(
        &mut self,
        source: &ModelSource,
        arch: &Arc<ArchConfig>,
        seed: u64,
        epoch: u32,
        data: &Arc<CifarLike>,
    ) -> Result<(), MistiqueError> {
        let model_id = source.id();
        let capture = self.config.dnn_capture;

        let t_load = Instant::now();
        let model = Model::build(arch, seed, epoch);
        let model_load = t_load.elapsed();
        if let Some(m) = self.meta.model_mut(&model_id) {
            m.model_load = model_load;
        }

        let n = data.len();
        let block_rows = self.config.row_block_size;
        let n_layers = model.n_layers();
        let interm_ids: Vec<String> = (1..=n_layers)
            .map(|layer| format!("{model_id}.layer{layer}"))
            .collect();
        let mut per_layer_exec = vec![Duration::ZERO; n_layers];
        // Per-layer quantization state, fitted on the first block.
        let mut quantizers: Vec<Option<Vec<u8>>> = vec![None; n_layers];
        let mut thresholds: Vec<Option<f32>> = vec![None; n_layers];
        let mut stored_bytes = vec![0u64; n_layers];
        let mut columns: Vec<Vec<String>> = vec![Vec::new(); n_layers];
        let captures: Vec<LayerCapture> = model
            .layers
            .iter()
            .map(|nl| LayerCapture::new(nl.out_shape, capture.pool_sigma))
            .collect();

        let materialize = self.should_materialize_at_log_time();

        // Under Dedup every layer gets a chain digest, and the leading layers
        // whose digest names a stored intermediate are bound to its chunks
        // (DESIGN.md §2 "Logging a shared prefix once").
        let mut store_elapsed = Duration::ZERO;
        let chains = matches!(self.config.storage, StorageStrategy::Dedup)
            .then(|| crate::prefix::layer_chains(&model, data));
        let t_bind = Instant::now();
        let sources = match &chains {
            Some(chains) => self.bind_prefix(&interm_ids, chains, n, capture, &captures),
            None => Vec::new(),
        };
        store_elapsed += t_bind.elapsed();
        let bound = sources.len();
        for (li, (source, stored)) in sources.iter().enumerate() {
            per_layer_exec[li] = source.exec_time;
            quantizers[li] = source.quantizer.clone();
            thresholds[li] = source.threshold;
            stored_bytes[li] = *stored;
            columns[li] = source.columns.clone();
        }
        // The forward resumes after the deepest bound layer whose stored
        // rows are its activation; with none, it starts from the input.
        let resume = (0..bound)
            .rev()
            .find(|&li| captures[li].exact(capture.value));
        let (from, resumed) = match resume {
            Some(li) => {
                let shape = model.layers[li].out_shape;
                (li + 1, Some(self.stored_activation(&sources[li].0, shape)?))
            }
            None => (0, None),
        };
        let input = resumed.as_ref().unwrap_or(&data.images);
        self.obs.counter("core.log.bound_layers").add(bound as u64);

        let mut block = 0u32;
        let mut start = 0usize;
        while start < n {
            let end = (start + block_rows).min(n);
            // Every logged layer's per-example feature vectors of this block,
            // captured (pooled) tile by tile as the forward produces them.
            let mut rows: Vec<Vec<Vec<f32>>> = (0..n_layers)
                .map(|_| Vec::with_capacity(end - start))
                .collect();
            if from < n_layers {
                model.forward_tiles(input, start..end, from, n_layers - 1, |li, t, elapsed| {
                    if li >= bound {
                        per_layer_exec[li] += elapsed;
                        captures[li].capture_tile(t, &mut rows[li]);
                    }
                });
            }
            for (li, layer) in captures.iter().enumerate().skip(bound) {
                let examples = std::mem::take(&mut rows[li]);
                let captured = encode_batch(
                    &examples,
                    layer.features(),
                    capture.value,
                    quantizers[li].as_deref(),
                    thresholds[li],
                );
                if let Some(q) = captured.quantizer {
                    quantizers[li] = Some(q);
                }
                if let Some(t) = captured.threshold {
                    thresholds[li] = Some(t);
                }
                if columns[li].is_empty() {
                    columns[li] = captured
                        .frame
                        .column_names()
                        .iter()
                        .map(|s| s.to_string())
                        .collect();
                }

                let interm_id = &interm_ids[li];
                if materialize {
                    let t_store = Instant::now();
                    // The captured frame is one RowBlock of the layer.
                    let (policy, dedup) = self.placement_of(ModelKind::Dnn);
                    stored_bytes[li] +=
                        self.store_frame(interm_id, &captured.frame, block, policy, dedup)?;
                    store_elapsed += t_store.elapsed();
                    // Grow the secondary index block by block, decoding the
                    // captured chunk exactly as the read path will (the
                    // quantizer fitted on the first block is the one every
                    // stored block — including this one — decodes under).
                    for col in captured.frame.columns() {
                        let name = col.name.clone();
                        self.index_observe_block(
                            interm_id,
                            &name,
                            block as usize,
                            &col.data,
                            capture.value,
                            quantizers[li].as_deref(),
                        );
                    }
                } else {
                    stored_bytes[li] += Self::frame_stored_bytes(&captured.frame, block_rows);
                }
            }
            start = end;
            block += 1;
        }

        // Register metadata per layer with cumulative forward times.
        let mut cum = Duration::ZERO;
        for li in 0..n_layers {
            cum += per_layer_exec[li];
            self.meta.upsert_intermediate(IntermediateMeta {
                id: interm_ids[li].clone(),
                model_id: model_id.clone(),
                stage_index: li,
                n_rows: n,
                columns: std::mem::take(&mut columns[li]),
                scheme: capture,
                materialized: materialize,
                stored_bytes: stored_bytes[li],
                exec_time: per_layer_exec[li],
                cum_exec_time: cum,
                n_queries: 0,
                quantizer: quantizers[li].take(),
                threshold: thresholds[li],
                shape: Some(captures[li].stored_shape()),
                delta_encoded: false,
                chain: chains.as_ref().map(|c| c[li]),
            });
        }
        // Metadata is registered; finalize and persist the per-layer
        // indexes accumulated above (no-op when not materializing). A bound
        // layer's index is its source's, copied.
        for (li, id) in interm_ids.iter().enumerate() {
            match sources.get(li) {
                Some((source, _)) => self.index_copy(&source.id, id),
                None => self.index_finish_build(id),
            }
        }
        self.store_time.insert(model_id, store_elapsed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_nn::simple_cnn;
    use mistique_pipeline::templates::zillow_pipelines;

    fn open_sys(strategy: StorageStrategy) -> (mistique_testkit::TempDir, Mistique) {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            row_block_size: 50,
            storage: strategy,
            ..MistiqueConfig::default()
        };
        let m = Mistique::open(dir.path(), config).unwrap();
        (dir, m)
    }

    #[test]
    fn register_and_log_trad() {
        let (_d, mut sys) = open_sys(StorageStrategy::Dedup);
        let data = Arc::new(ZillowData::generate(120, 1));
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interms = sys.intermediates_of(&id);
        assert!(!interms.is_empty());
        for i in &interms {
            let m = sys.metadata().intermediate(i).unwrap();
            assert!(m.materialized);
            assert!(m.stored_bytes > 0);
        }
        // Cumulative times are monotone.
        let metas: Vec<_> = interms
            .iter()
            .map(|i| sys.metadata().intermediate(i).unwrap().cum_exec_time)
            .collect();
        for w in metas.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (_d, mut sys) = open_sys(StorageStrategy::Dedup);
        let data = Arc::new(ZillowData::generate(60, 1));
        sys.register_trad(zillow_pipelines().remove(0), Arc::clone(&data))
            .unwrap();
        let err = sys.register_trad(zillow_pipelines().remove(0), data);
        assert!(matches!(err, Err(MistiqueError::DuplicateModel(_))));
    }

    #[test]
    fn log_dnn_registers_all_layers() {
        let (_d, mut sys) = open_sys(StorageStrategy::Dedup);
        let data = Arc::new(CifarLike::generate(20, 10, 3));
        let id = sys
            .register_dnn(Arc::new(simple_cnn(16)), 7, 0, data, 10)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interms = sys.intermediates_of(&id);
        assert_eq!(interms.len(), 9, "4 conv + 2 pool + flatten + 2 FC");
        let first = sys.metadata().intermediate(&interms[0]).unwrap();
        assert_eq!(first.n_rows, 20);
        assert!(first.shape.is_some());
        // pool(2) halves the spatial dims of layer1 (32x32 -> 16x16).
        assert_eq!(first.shape.unwrap().1, 16);
    }

    #[test]
    fn nostore_strategy_records_metadata_without_chunks() {
        let (_d, mut sys) = open_sys(StorageStrategy::NoStore);
        let data = Arc::new(ZillowData::generate(80, 1));
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interms = sys.intermediates_of(&id);
        let m = sys.metadata().intermediate(&interms[0]).unwrap();
        assert!(!m.materialized);
        assert!(m.stored_bytes > 0, "size estimate still recorded");
        assert_eq!(sys.store().stats().chunks_stored, 0);
    }

    #[test]
    fn store_all_stores_more_than_dedup() {
        let data = Arc::new(ZillowData::generate(100, 1));
        let pipes = zillow_pipelines();
        // Two variants of the same template share most intermediates.
        let run = |strategy| {
            let (_d, mut sys) = open_sys(strategy);
            for p in pipes.iter().filter(|p| p.id.starts_with("P2_")).take(2) {
                let id = sys.register_trad(p.clone(), Arc::clone(&data)).unwrap();
                sys.log_intermediates(&id).unwrap();
            }
            sys.store().stats()
        };
        let all = run(StorageStrategy::StoreAll);
        let dedup = run(StorageStrategy::Dedup);
        assert_eq!(all.dedup_hits, 0);
        assert!(dedup.dedup_hits > 0);
        assert!(dedup.unique_bytes < all.unique_bytes);
    }

    #[test]
    fn logging_overhead_is_tracked() {
        let (_d, mut sys) = open_sys(StorageStrategy::Dedup);
        let data = Arc::new(ZillowData::generate(60, 1));
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        assert_eq!(sys.logging_overhead(&id), Duration::ZERO);
        sys.log_intermediates(&id).unwrap();
        assert!(sys.logging_overhead(&id) > Duration::ZERO);
    }

    #[test]
    fn unknown_model_errors() {
        let (_d, mut sys) = open_sys(StorageStrategy::Dedup);
        assert!(matches!(
            sys.log_intermediates("nope"),
            Err(MistiqueError::UnknownModel(_))
        ));
    }
}
