//! Engine-side state of the secondary indexes (`mistique-index`): zone maps
//! and max-activation lists per materialized intermediate, persisted under
//! `<dir>/index/` through the same [`mistique_store::StorageBackend`] as
//! partition data and loaded lazily on first use.
//!
//! The index is a **pure accelerator**: every operation here is best-effort.
//! A failed write, a torn file, a garbage file, or a stale file (scheme /
//! row-block-size / row-count mismatch with the live metadata) degrades to
//! the scan path — it can never fail a logging call or return a wrong
//! answer. The query path never mutates the index directory; stale files
//! are overwritten by the next build and removed by purge or reclaim.
//!
//! Lifecycle:
//! - built incrementally while `log_intermediates{,_parallel}` stores blocks
//!   (and when a re-run adaptively materializes an intermediate);
//! - rebuilt after a demotion re-encode (the index follows the intermediate
//!   down the quantization ladder) — but only if one existed, so a reclaim
//!   pass that shed the index is not undone;
//! - dropped on purge, and shed first by the budget manager
//!   (`index.* bytes` are the cheapest bytes to reclaim);
//! - versioned: every persisted build carries a monotone `version` that
//!   feeds the query-cache key, so a drop or rebuild can never serve a
//!   stale cached frame as current.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use mistique_dataframe::{ColumnData, DataFrame};
use mistique_index::{IndexBuilder, IntermediateIndex};
use mistique_obs::{Counter, Gauge, Obs, SegmentIo};
use mistique_store::{StorageBackend, StoreSubdir, INDEX_SUBDIR};

use crate::capture::{decode_column, ValueScheme};
use crate::system::{Mistique, MistiqueConfig};

/// Per-instance index state: the I/O adapter, lazily loaded indexes, and
/// in-flight builders.
pub(crate) struct IndexState {
    io: StoreSubdir,
    top_m: usize,
    row_block_size: usize,
    /// Lazily populated: `Some(idx)` = valid loaded index, `None` = known
    /// absent/stale/unreadable (re-checked only after a build or drop).
    loaded: HashMap<String, Option<Arc<IntermediateIndex>>>,
    /// Incremental builders for intermediates currently being logged.
    builders: HashMap<String, IndexBuilder>,
    /// Persisted index bytes per intermediate (file sizes).
    bytes: HashMap<String, u64>,
    /// Last persisted `version` per intermediate (survives drops so a
    /// rebuild always moves the query-cache key forward).
    versions: HashMap<String, u64>,
    hits: Counter,
    blocks_skipped: Counter,
    rebuilds: Counter,
    bytes_gauge: Gauge,
}

impl IndexState {
    /// Best-effort construction (the telemetry pattern): indexing disabled
    /// by `index_top_m == 0`, and any I/O failure creating the directory
    /// disables it for the session rather than failing the open. Metrics
    /// are registered eagerly so they appear in snapshots at zero.
    pub(crate) fn create(
        config: &MistiqueConfig,
        backend: &Arc<dyn StorageBackend>,
        dir: &Path,
        obs: &Obs,
    ) -> Option<IndexState> {
        if config.index_top_m == 0 {
            return None;
        }
        let io = StoreSubdir::create(Arc::clone(backend), dir, INDEX_SUBDIR).ok()?;
        Some(IndexState {
            io,
            top_m: config.index_top_m,
            row_block_size: config.row_block_size,
            loaded: HashMap::new(),
            builders: HashMap::new(),
            bytes: HashMap::new(),
            versions: HashMap::new(),
            hits: obs.counter("index.hits"),
            blocks_skipped: obs.counter("index.blocks_skipped"),
            rebuilds: obs.counter("index.rebuilds"),
            bytes_gauge: obs.gauge("index.bytes"),
        })
    }

    fn file_name(intermediate_id: &str) -> String {
        format!("idx_{}.idx", intermediate_id.replace(['/', '\\'], "_"))
    }

    fn sync_bytes_gauge(&self) {
        self.bytes_gauge.set_u64(self.bytes.values().sum());
    }
}

/// Block-skip attribution of one indexed read, carried into the query
/// report (`QueryReport::pruning`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexPruning {
    /// RowBlocks the column spans.
    pub blocks_total: usize,
    /// Blocks the zone maps proved free of matches (for a list-served
    /// top-k: every block).
    pub blocks_skipped: usize,
    /// The cost model's prediction for the indexed plan, in seconds
    /// ([`crate::cost::CostModel::t_indexed_read`]).
    pub predicted_s: f64,
}

impl Mistique {
    /// Whether secondary indexing is active for this instance.
    pub fn index_enabled(&self) -> bool {
        self.index.is_some()
    }

    /// The valid index of an intermediate, loading it from disk on first
    /// use. Returns `None` when indexing is disabled, the intermediate is
    /// unknown or unmaterialized, no file exists, the file is garbage, or
    /// the file is stale against the live metadata. Never errors and never
    /// touches the data store.
    pub(crate) fn index_for(&mut self, intermediate_id: &str) -> Option<Arc<IntermediateIndex>> {
        let (scheme, n_rows, materialized) = {
            let m = self.meta.intermediate(intermediate_id)?;
            (m.scheme.name(), m.n_rows, m.materialized)
        };
        let st = self.index.as_mut()?;
        if !materialized {
            return None;
        }
        let IndexState {
            io,
            loaded,
            bytes,
            versions,
            row_block_size,
            ..
        } = st;
        let entry = loaded
            .entry(intermediate_id.to_string())
            .or_insert_with(|| {
                let raw = io.read(&IndexState::file_name(intermediate_id)).ok()?;
                let idx = IntermediateIndex::from_bytes(&raw).ok()?;
                // Remember the on-disk version even for stale files, so the
                // next build still moves the cache key forward.
                versions
                    .entry(intermediate_id.to_string())
                    .or_insert(idx.version);
                bytes.insert(intermediate_id.to_string(), raw.len() as u64);
                Some(Arc::new(idx))
            });
        let idx = entry.clone()?;
        // Validate on every use: a demotion changes the scheme after load.
        if idx.matches(&scheme, *row_block_size, n_rows) {
            st.sync_bytes_gauge();
            Some(idx)
        } else {
            st.loaded.insert(intermediate_id.to_string(), None);
            None
        }
    }

    /// The index version feeding the query-cache key: `0` when no valid
    /// index exists, otherwise the monotone build counter.
    pub(crate) fn index_version(&mut self, intermediate_id: &str) -> u64 {
        if self.index.is_none() {
            return 0;
        }
        self.index_for(intermediate_id).map_or(0, |i| i.version)
    }

    /// Whether any index artifact exists for the intermediate (valid loaded
    /// index or a file on disk) — the demotion path's "rebuild only if one
    /// existed" check, evaluated *before* the metadata changes.
    pub(crate) fn index_exists(&self, intermediate_id: &str) -> bool {
        let Some(st) = self.index.as_ref() else {
            return false;
        };
        match st.loaded.get(intermediate_id) {
            Some(Some(_)) => true,
            // A load already concluded absent/stale; a demotion rebuild
            // would only resurrect a dead index, so treat as gone.
            Some(None) => false,
            None => st.io.exists(&IndexState::file_name(intermediate_id)),
        }
    }

    /// Persisted index bytes across all intermediates (as far as they have
    /// been loaded or built — reclaim loads lazily before accounting).
    pub(crate) fn index_total_bytes(&self) -> u64 {
        self.index.as_ref().map_or(0, |st| st.bytes.values().sum())
    }

    /// Persisted index bytes of one intermediate.
    pub(crate) fn index_bytes_of(&self, intermediate_id: &str) -> u64 {
        self.index
            .as_ref()
            .and_then(|st| st.bytes.get(intermediate_id).copied())
            .unwrap_or(0)
    }

    /// Feed one stored block's **encoded** column data to the builder; it is
    /// decoded here exactly as the read path would
    /// ([`decode_column`]), so indexed answers are bit-identical to scans.
    pub(crate) fn index_observe_block(
        &mut self,
        intermediate_id: &str,
        column: &str,
        block: usize,
        data: &ColumnData,
        value: ValueScheme,
        quantizer: Option<&[u8]>,
    ) {
        let Some(st) = self.index.as_mut() else {
            return;
        };
        let decoded = decode_column(data, value, quantizer);
        st.builders
            .entry(intermediate_id.to_string())
            .or_insert_with(|| IndexBuilder::new(st.top_m, st.row_block_size))
            .observe_block(column, block, &decoded);
    }

    /// Feed every block of a frame about to be stored (the TRAD / re-run
    /// materialization path).
    pub(crate) fn index_observe_frame(
        &mut self,
        intermediate_id: &str,
        frame: &DataFrame,
        value: ValueScheme,
        quantizer: Option<&[u8]>,
    ) {
        if self.index.is_none() {
            return;
        }
        let rbs = self.config.row_block_size;
        for (block, column, chunk) in frame.chunks(rbs) {
            let column = column.to_string();
            self.index_observe_block(
                intermediate_id,
                &column,
                block,
                &chunk.data,
                value,
                quantizer,
            );
        }
    }

    /// Finalize and persist the in-flight builder of an intermediate.
    /// Requires the metadata to be registered (scheme / row count are
    /// pinned into the file for staleness checks). Best-effort: a failed
    /// write leaves the system index-less for this intermediate.
    pub(crate) fn index_finish_build(&mut self, intermediate_id: &str) {
        let (scheme, n_rows) = match self.meta.intermediate(intermediate_id) {
            Some(m) => (m.scheme.name(), m.n_rows),
            None => return,
        };
        let Some(builder) = self
            .index
            .as_mut()
            .and_then(|st| st.builders.remove(intermediate_id))
        else {
            return;
        };
        self.index_persist(intermediate_id, |version| {
            let idx = builder.finish(intermediate_id, &scheme, n_rows, version);
            let serialized = idx.to_bytes()?;
            Ok((idx, serialized))
        });
    }

    /// Give `target` a copy of `source`'s valid index under `target`'s id
    /// and next version, with nothing decoded: `source`'s file is reissued
    /// ([`IntermediateIndex::reissue`]). A layer bound to `source`'s chunks
    /// (DESIGN.md §2 "Logging a shared prefix once") holds the same values,
    /// so this is the file a build over them would write. When `source` has
    /// no valid index, neither has `target`.
    pub(crate) fn index_copy(&mut self, source: &str, target: &str) {
        let Some(idx) = self.index_for(source) else {
            return;
        };
        let Some(Ok(raw)) = self
            .index
            .as_ref()
            .map(|st| st.io.read(&IndexState::file_name(source)))
        else {
            return;
        };
        self.index_persist(target, |version| {
            let serialized = IntermediateIndex::reissue(&raw, target, version)?;
            let copy = IntermediateIndex {
                intermediate: target.to_string(),
                version,
                ..(*idx).clone()
            };
            Ok((copy, serialized))
        });
    }

    /// Write the index `make(version)` returns, with its serialized bytes,
    /// as `intermediate_id`'s file, `version` one past the last one
    /// persisted. Best-effort: a failed write forgets what the disk holds
    /// and lets the next query re-probe.
    fn index_persist(
        &mut self,
        intermediate_id: &str,
        make: impl FnOnce(u64) -> Result<(IntermediateIndex, Vec<u8>), String>,
    ) {
        let Some(st) = self.index.as_mut() else {
            return;
        };
        let IndexState { io, versions, .. } = st;
        let file = IndexState::file_name(intermediate_id);
        let current = *versions
            .entry(intermediate_id.to_string())
            .or_insert_with(|| {
                io.read(&file)
                    .ok()
                    .and_then(|b| IntermediateIndex::from_bytes(&b).ok())
                    .map_or(0, |i| i.version)
            });
        let Ok((idx, serialized)) = make(current + 1) else {
            return;
        };
        match st.io.write_atomic(&file, &serialized) {
            Ok(()) => {
                st.versions.insert(intermediate_id.to_string(), current + 1);
                st.bytes
                    .insert(intermediate_id.to_string(), serialized.len() as u64);
                st.loaded
                    .insert(intermediate_id.to_string(), Some(Arc::new(idx)));
                st.rebuilds.inc();
                st.sync_bytes_gauge();
            }
            Err(_) => {
                // The on-disk state is unknown (old file, torn tmp, or
                // nothing); forget it and let the next query re-probe.
                st.bytes.remove(intermediate_id);
                st.loaded.remove(intermediate_id);
            }
        }
    }

    /// Discard every in-flight builder whose intermediate id starts with
    /// `prefix`, without persisting — a DNN logging pass that fails midway
    /// leaves one partially-fed builder per layer, and persisting any of
    /// them would index blocks that were never stored.
    pub(crate) fn index_discard_builders_with_prefix(&mut self, prefix: &str) {
        if let Some(st) = self.index.as_mut() {
            st.builders.retain(|k, _| !k.starts_with(prefix));
        }
    }

    /// Drop an intermediate's index: forget it in memory and remove the
    /// file (best-effort). Future queries fall back to the scan path; the
    /// version counter survives so a rebuild moves the cache key forward.
    pub(crate) fn index_drop(&mut self, intermediate_id: &str) {
        let Some(st) = self.index.as_mut() else {
            return;
        };
        st.builders.remove(intermediate_id);
        st.loaded.insert(intermediate_id.to_string(), None);
        st.bytes.remove(intermediate_id);
        let file = IndexState::file_name(intermediate_id);
        if st.io.exists(&file) {
            let _ = st.io.remove(&file);
        }
        st.sync_bytes_gauge();
    }

    /// Drop an intermediate's secondary index explicitly (the same step the
    /// budget manager takes under pressure). Subsequent top-k / threshold
    /// queries fall back to the scan path; answers are unchanged.
    pub fn drop_index(&mut self, intermediate_id: &str) {
        self.index_drop(intermediate_id);
    }

    /// Count an indexed-read hit against the metrics (`index.hits`,
    /// `index.blocks_skipped`).
    pub(crate) fn index_count_hit(&self, blocks_skipped: usize) {
        if let Some(st) = self.index.as_ref() {
            st.hits.inc();
            st.blocks_skipped.add(blocks_skipped as u64);
        }
    }
}
