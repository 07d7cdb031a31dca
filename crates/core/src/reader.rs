//! The ChunkReader (Sec 6, Alg. 3): fetch an intermediate by reading stored
//! chunks or re-running the model, whichever the cost model prefers, plus
//! adaptive materialization (Sec 4.3) on the re-run path.
//!
//! Every fetch goes through one pipeline: `plan` resolves the metadata and
//! prices both sides of the trade-off once, the entry point picks an `Arm`,
//! and `serve` runs it inside its root span and does all the accounting —
//! the one place a `QueryReport` is built and a query is counted.

use std::sync::Arc;
use std::time::Duration;

use mistique_dataframe::{Column, ColumnData, DataFrame};
use mistique_index::IntermediateIndex;
use mistique_store::ChunkKey;

use crate::audit::{csv, fetch_args};
use crate::capture::{decode_column, pool_batch, CaptureScheme, ValueScheme};
use crate::error::MistiqueError;
use crate::index_state::IndexPruning;
use crate::metadata::{IntermediateMeta, ModelKind};
use crate::qcache::CacheKey;
use crate::report::{PlanChoice, QueryReport};
use crate::system::{Mistique, StorageStrategy};

/// How a fetch was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchStrategy {
    /// Chunks were read from the DataStore.
    Read,
    /// The model was re-run.
    Rerun,
    /// Served from the session query cache (see [`crate::qcache`]).
    Cached,
}

impl FetchStrategy {
    /// Stable lower-case name, used by the audit journal's argument
    /// fingerprint (parsed back by `mistique replay`).
    pub fn name(&self) -> &'static str {
        match self {
            FetchStrategy::Read => "read",
            FetchStrategy::Rerun => "rerun",
            FetchStrategy::Cached => "cached",
        }
    }
}

/// The result of fetching an intermediate. The timing and both predictions
/// are the numbers of the fetch's [`QueryReport`], on every plan (a cached
/// hit carries the predictions that would have applied).
#[derive(Debug)]
pub struct FetchResult {
    /// The fetched data, one f64-convertible column per requested column.
    pub frame: DataFrame,
    /// Strategy actually used.
    pub strategy: FetchStrategy,
    /// Wall-clock time of the fetch.
    pub fetch_time: Duration,
    /// The cost model's `t_read` prediction (seconds).
    pub predicted_read: f64,
    /// The cost model's `t_rerun` prediction (seconds).
    pub predicted_rerun: f64,
}

/// What [`Mistique::plan`] resolves for one fetch: the clamped row count,
/// both cost-model predictions (Eq 2–4) and the decision they imply. It
/// borrows nothing, so the arms that never touch stored chunks (cached,
/// list-served top-k) never clone metadata.
#[derive(Clone, Copy)]
struct FetchPlan {
    /// Rows the fetch is priced at: the request clamped to `n_rows`.
    n: usize,
    n_rows: usize,
    materialized: bool,
    predicted_read: f64,
    predicted_rerun: f64,
    /// The planner's choice is Read: materialized and `t_rerun >= t_read`.
    prefers_read: bool,
    /// Stored bytes of the `n` rows — what a Read calibrates bandwidth on.
    read_bytes: u64,
    /// Scheme the stored values decode under.
    scheme: CaptureScheme,
}

/// The six ways a planned fetch is served.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// The session query cache held the frame.
    Cached,
    /// Stored chunks of rows `[0, n)`.
    Read,
    /// The model re-run (possibly materializing the result).
    Rerun,
    /// Only the RowBlocks holding the requested row ids.
    Rows,
    /// A top-k answered from the max-activation list alone.
    IndexedTopk,
    /// A threshold scan over the RowBlocks the zone maps kept.
    IndexedSelect,
}

impl Arm {
    /// Root span name, the key of its size attribute, and the plan the
    /// report names.
    fn spec(self) -> (&'static str, &'static str, PlanChoice) {
        match self {
            Arm::Cached => ("fetch.cached", "n_ex", PlanChoice::Cached),
            Arm::Read => ("fetch.read", "n_ex", PlanChoice::Read),
            Arm::Rerun => ("fetch.rerun", "n_ex", PlanChoice::Rerun),
            Arm::Rows => ("fetch.rows", "rows", PlanChoice::Read),
            Arm::IndexedTopk => ("fetch.indexed", "k", PlanChoice::IndexedRead),
            Arm::IndexedSelect => ("fetch.indexed", "blocks", PlanChoice::IndexedRead),
        }
    }
}

/// What an arm hands back to [`Mistique::serve`]: the frame, the row count
/// the report shows, and the block pruning of an indexed arm.
type Served = (DataFrame, usize, Option<IndexPruning>);

impl Mistique {
    /// Fetch an intermediate (all rows / all columns unless restricted),
    /// letting the cost model pick read vs re-run — the paper's
    /// `get_intermediates` API.
    pub fn get_intermediate(
        &mut self,
        intermediate_id: &str,
        columns: Option<&[&str]>,
        n_ex: Option<usize>,
    ) -> Result<FetchResult, MistiqueError> {
        let args = || fetch_args(intermediate_id, columns, n_ex, &[]);
        self.audited("fetch.get", args, |sys| {
            let plan = sys.plan(intermediate_id, columns, n_ex)?;
            // Session query cache: serve repeated identical fetches
            // directly. The key carries the clamped row count (the same one
            // the cost model and fetch use), so `None`, `Some(n_rows)`, and
            // oversized requests — which all return the identical frame —
            // share a single entry.
            let index_version = sys.index_version(intermediate_id);
            let cache_key = CacheKey::new(intermediate_id, columns, Some(plan.n), index_version);
            if let Some(frame) = sys.qcache.get(&cache_key) {
                let hit = |_: &mut Mistique| Ok((frame, plan.n, None));
                return sys.serve(intermediate_id, &plan, Arm::Cached, plan.n, hit);
            }
            let arm = if plan.prefers_read {
                Arm::Read
            } else {
                Arm::Rerun
            };
            let result = sys.read_or_rerun(intermediate_id, columns, &plan, arm)?;
            sys.qcache.insert(cache_key, &result.frame);
            Ok(result)
        })
    }

    /// Fetch with an explicit strategy (benchmarks use this to measure both
    /// sides of the trade-off).
    pub fn fetch_with_strategy(
        &mut self,
        intermediate_id: &str,
        columns: Option<&[&str]>,
        n_ex: Option<usize>,
        strategy: FetchStrategy,
    ) -> Result<FetchResult, MistiqueError> {
        let name = strategy.name();
        let args = || fetch_args(intermediate_id, columns, n_ex, &[("strategy", &name)]);
        self.audited("fetch.strategy", args, |sys| {
            let plan = sys.plan(intermediate_id, columns, n_ex)?;
            let arm = match strategy {
                FetchStrategy::Read if plan.materialized => Arm::Read,
                FetchStrategy::Read => {
                    return Err(MistiqueError::Invalid(format!(
                        "{intermediate_id} is not materialized; cannot force Read"
                    )))
                }
                FetchStrategy::Rerun => Arm::Rerun,
                FetchStrategy::Cached => {
                    return Err(MistiqueError::Invalid(
                        "Cached is not a forcible strategy; use get_intermediate".into(),
                    ))
                }
            };
            sys.read_or_rerun(intermediate_id, columns, &plan, arm)
        })
    }

    /// Fetch specific rows by `row_id` using the primary index: only the
    /// RowBlocks containing a requested row are read (Sec 6 — "for
    /// particular kinds of queries (e.g. fetch results by row_id), MISTIQUE
    /// can use the primary index to speed up retrieval"). Rows are returned
    /// in the order requested. Falls back to re-run when the intermediate is
    /// not materialized.
    pub fn get_rows(
        &mut self,
        intermediate_id: &str,
        rows: &[usize],
        columns: Option<&[&str]>,
    ) -> Result<FetchResult, MistiqueError> {
        let args = || fetch_args(intermediate_id, columns, None, &[("rows", &csv(rows))]);
        self.audited("fetch.rows", args, |sys| {
            let plan = sys.plan(intermediate_id, columns, Some(rows.len()))?;
            if let Some(r) = rows.iter().find(|&&r| r >= plan.n_rows) {
                return Err(MistiqueError::Invalid(format!(
                    "row {r} out of range ({} rows)",
                    plan.n_rows
                )));
            }
            if !plan.materialized {
                // Re-run in full (priced and reported as such) and gather.
                let full_plan = sys.plan(intermediate_id, columns, None)?;
                let mut full =
                    sys.read_or_rerun(intermediate_id, columns, &full_plan, Arm::Rerun)?;
                full.frame = full.frame.gather_rows(rows);
                return Ok(full);
            }

            let meta = sys.planned_meta(intermediate_id).clone();
            let rbs = sys.config.row_block_size;
            let wanted = wanted_columns(&meta, columns);
            // Which blocks do the requested rows touch?
            let mut blocks: Vec<usize> = rows.iter().map(|r| r / rbs).collect();
            blocks.sort_unstable();
            blocks.dedup();

            sys.serve(intermediate_id, &plan, Arm::Rows, rows.len(), |sys| {
                // Fetch + decode only the touched blocks (possibly in parallel).
                let per_col = sys.read_column_blocks(&meta, &wanted, &blocks)?;
                let mut out_cols = Vec::with_capacity(wanted.len());
                for (name, block_vals) in wanted.iter().zip(per_col) {
                    let mut values = Vec::with_capacity(rows.len());
                    for &r in rows {
                        // `read_column_blocks` vouched for every block's
                        // length: a miss is a bug, reported without a panic.
                        let b = blocks.binary_search(&(r / rbs)).ok();
                        let v = b.and_then(|b| block_vals[b].get(r % rbs)).ok_or_else(|| {
                            MistiqueError::Invalid(format!("{intermediate_id}.{name}: no row {r}"))
                        })?;
                        values.push(*v);
                    }
                    out_cols.push(Column::f64(name.clone(), values));
                }
                Ok((DataFrame::from_columns(out_cols), rows.len(), None))
            })
        })
    }

    /// Serve a top-k query straight from the max-activation index. Returns
    /// `None` whenever the index cannot answer — [`Mistique::indexed_plan`]
    /// refuses (disabled, absent, stale, column unknown, the cost model
    /// prefers a re-run), or the list is shorter than `k`.
    pub(crate) fn try_indexed_topk(
        &mut self,
        intermediate_id: &str,
        column: &str,
        k: usize,
    ) -> Option<Vec<(usize, f64)>> {
        let (plan, idx) = self.indexed_plan(intermediate_id, column)?;
        let top = idx.topk(column, k)?;
        // Served entirely from the in-memory list: every block is skipped.
        let blocks_total = plan.n_rows.div_ceil(self.config.row_block_size);
        let meta = self.planned_meta(intermediate_id);
        let pruning = IndexPruning {
            blocks_total,
            blocks_skipped: blocks_total,
            predicted_s: self.cost.t_indexed_read(meta, k.min(plan.n_rows)),
        };
        let listed = |_: &mut Mistique| Ok((DataFrame::default(), top.len(), Some(pruning)));
        self.serve(intermediate_id, &plan, Arm::IndexedTopk, k, listed)
            .ok()?;
        Some(top)
    }

    /// Serve a `select_where_gt` via the zone maps: skip every RowBlock
    /// whose max (over non-NaN values) cannot exceed the threshold, read and
    /// filter only the surviving blocks. Returns `Ok(None)` whenever the
    /// index cannot answer (same degradation contract as
    /// [`Mistique::try_indexed_topk`]); read errors propagate.
    pub(crate) fn try_indexed_select_gt(
        &mut self,
        intermediate_id: &str,
        column: &str,
        threshold: f64,
    ) -> Result<Option<Vec<usize>>, MistiqueError> {
        let Some((plan, idx)) = self.indexed_plan(intermediate_id, column) else {
            return Ok(None);
        };
        let Some((keep, blocks_total)) = idx.blocks_passing_gt(column, threshold) else {
            return Ok(None);
        };
        let meta = self.planned_meta(intermediate_id).clone();
        let rbs = self.config.row_block_size;
        let mut rows: Vec<usize> = Vec::new();
        let scan = |sys: &mut Mistique| {
            // `keep` is ascending (zone maps are walked in block order), so
            // emitting `block * rbs + i` preserves the scan's ascending
            // row-id ordering exactly.
            let mut rows_scanned = 0usize;
            if !keep.is_empty() {
                let wanted = [column.to_string()];
                let per_col = sys.read_column_blocks(&meta, &wanted, &keep)?;
                for (bi, &block) in keep.iter().enumerate() {
                    for (i, &v) in per_col[0][bi].iter().enumerate() {
                        let row = block * rbs + i;
                        rows_scanned += 1;
                        if v > threshold {
                            rows.push(row);
                        }
                    }
                }
            }
            let pruning = IndexPruning {
                blocks_total,
                blocks_skipped: blocks_total - keep.len(),
                predicted_s: sys.cost.t_indexed_read(&meta, rows_scanned),
            };
            Ok((DataFrame::default(), rows_scanned, Some(pruning)))
        };
        self.serve(intermediate_id, &plan, Arm::IndexedSelect, keep.len(), scan)?;
        Ok(Some(rows))
    }

    /// The gate both indexed arms pass, else the scan path serves the query:
    /// indexing on, the fetch plannable, the planner preferring Read (the
    /// index holds *decoded stored* values, so it may refine a Read but
    /// never stand in for a full-precision Rerun), and a usable index.
    fn indexed_plan(
        &mut self,
        intermediate_id: &str,
        column: &str,
    ) -> Option<(FetchPlan, Arc<IntermediateIndex>)> {
        if !self.index_enabled() {
            return None;
        }
        let plan = self
            .plan(intermediate_id, Some(&[column]), None)
            .ok()
            .filter(|plan| plan.prefers_read)?;
        Some((plan, self.index_for(intermediate_id)?))
    }

    /// Step one of every fetch: resolve the intermediate and its model,
    /// validate the requested columns, clamp the row count, and evaluate the
    /// cost model (Eq 2–4) — the only place a fetch is priced.
    fn plan(
        &self,
        intermediate_id: &str,
        columns: Option<&[&str]>,
        n_ex: Option<usize>,
    ) -> Result<FetchPlan, MistiqueError> {
        let meta = self
            .meta
            .intermediate(intermediate_id)
            .ok_or_else(|| MistiqueError::UnknownIntermediate(intermediate_id.into()))?;
        let model = self
            .meta
            .model(&meta.model_id)
            .ok_or_else(|| MistiqueError::UnknownModel(meta.model_id.clone()))?;
        for c in columns.unwrap_or_default() {
            if !meta.columns.iter().any(|m| m == c) {
                return Err(MistiqueError::UnknownColumn {
                    intermediate: intermediate_id.into(),
                    column: (*c).to_string(),
                });
            }
        }
        let n = n_ex.unwrap_or(meta.n_rows).min(meta.n_rows);
        Ok(FetchPlan {
            n,
            n_rows: meta.n_rows,
            materialized: meta.materialized,
            predicted_read: self.cost.t_read(meta, n),
            predicted_rerun: self.cost.t_rerun(model, meta, n),
            prefers_read: meta.materialized && self.cost.should_read(model, meta, n),
            read_bytes: (meta.bytes_per_row() * n as f64) as u64,
            scheme: meta.scheme,
        })
    }

    /// The metadata [`Mistique::plan`] just resolved, for the arms that
    /// need more of it than the plan carries.
    fn planned_meta(&self, intermediate_id: &str) -> &IntermediateMeta {
        self.meta
            .intermediate(intermediate_id)
            .expect("plan() resolved this intermediate")
    }

    /// The Read and Rerun arms, shared by the planner's choice, a forced
    /// strategy and `get_rows`' fallback.
    fn read_or_rerun(
        &mut self,
        intermediate_id: &str,
        columns: Option<&[&str]>,
        plan: &FetchPlan,
        arm: Arm,
    ) -> Result<FetchResult, MistiqueError> {
        let meta = self.planned_meta(intermediate_id).clone();
        self.serve(intermediate_id, plan, arm, plan.n, |sys| {
            let frame = match arm {
                Arm::Read => sys.read_stored(&meta, columns, plan.n)?,
                _ => sys.rerun_and_maybe_materialize(&meta, columns, plan.n)?,
            };
            Ok((frame, plan.n, None))
        })
    }

    /// Serve a planned fetch through one arm — the only way a fetch runs.
    /// `work` does the arm's reading or re-running inside the arm's root
    /// span (the fetch timer, one source of truth for `fetch_time`); what
    /// follows is the one epilogue: attribute the store activity by diffing
    /// its cumulative read counters around `work`, record the decision,
    /// build the [`QueryReport`], count the query, and return a
    /// [`FetchResult`] carrying the report's own timing and predictions.
    fn serve(
        &mut self,
        intermediate_id: &str,
        plan: &FetchPlan,
        arm: Arm,
        size: usize,
        work: impl FnOnce(&mut Mistique) -> Result<Served, MistiqueError>,
    ) -> Result<FetchResult, MistiqueError> {
        let (span_name, size_key, choice) = arm.spec();
        // A cached hit and a list-served top-k never reach the store.
        let store_before =
            (!matches!(arm, Arm::Cached | Arm::IndexedTopk)).then(|| self.store.read_attribution());
        let mut span = self.obs.span(span_name);
        span.attr("interm", intermediate_id).attr(size_key, size);
        let (frame, served, pruning) = work(self)?;
        let trace_id = span.trace_id();
        let actual = span.finish();
        let attribution = store_before
            .map(|before| self.store.read_attribution().since(&before))
            .unwrap_or_default();

        // Only Read and Rerun execute what `plan` priced — `n` rows read, or
        // the model re-run — so only they are scored against their
        // prediction (decision.*, bandwidth calibration, drift). Rows and
        // the indexed arms read a block subset and a cached hit reads
        // nothing: folding them in would skew the calibration the planner's
        // next choice rests on.
        let mut drift = None;
        match arm {
            Arm::Cached => self.obs.counter("decision.cached.count").inc(),
            Arm::Read | Arm::Rerun => {
                let decision = choice.name();
                let predicted = if arm == Arm::Read {
                    self.cost.observe_read(plan.read_bytes, actual);
                    self.obs.counter("cost.observe_read.count").inc();
                    self.obs
                        .gauge("cost.read_bandwidth")
                        .set(self.cost.read_bandwidth);
                    plan.predicted_read
                } else {
                    plan.predicted_rerun
                };
                let metric = |m: &str| format!("decision.{decision}.{m}");
                self.obs.counter(&metric("count")).inc();
                self.obs
                    .histogram(&metric("predicted_ns"))
                    .record((predicted.max(0.0) * 1e9) as u64);
                self.obs
                    .histogram(&metric("actual_ns"))
                    .record_duration(actual);
                // Fold the prediction into the drift monitor and flag
                // miscalibration.
                let (ratio, flagged) = self.drift.observe(decision, predicted, actual);
                self.obs
                    .gauge("cost_model.drift")
                    .set(self.drift.worst_drift());
                if flagged {
                    self.obs.counter("cost_model.drift_flags").inc();
                }
                drift = Some((ratio, flagged));
            }
            Arm::Rows | Arm::IndexedTopk | Arm::IndexedSelect => {}
        }
        if let Some(p) = &pruning {
            self.index_count_hit(p.blocks_skipped);
        }

        // Re-runs always serve freshly computed full-precision values; every
        // other arm serves whatever scheme the intermediate is stored under.
        let scheme = if arm == Arm::Rerun {
            CaptureScheme::full()
        } else {
            plan.scheme
        };
        let query = self
            .query_label
            .clone()
            .unwrap_or_else(|| "fetch".to_string());
        self.push_report(QueryReport {
            seq: 0,
            query,
            intermediate: intermediate_id.to_string(),
            plan: choice,
            predicted_read_s: plan.predicted_read,
            predicted_rerun_s: plan.predicted_rerun,
            actual,
            n_ex: served,
            cache_hit: arm == Arm::Cached,
            attribution,
            scheme: scheme.name(),
            error_bound: scheme.value.error_bound(),
            trace_id,
            drift_ratio: drift.map(|(ratio, _)| ratio),
            drift_flagged: drift.is_some_and(|(_, flagged)| flagged),
            pruning,
        });
        self.meta.bump_queries(intermediate_id);
        Ok(FetchResult {
            frame,
            strategy: match choice {
                PlanChoice::Cached => FetchStrategy::Cached,
                PlanChoice::Rerun => FetchStrategy::Rerun,
                PlanChoice::Read | PlanChoice::IndexedRead => FetchStrategy::Read,
            },
            fetch_time: actual,
            predicted_read: plan.predicted_read,
            predicted_rerun: plan.predicted_rerun,
        })
    }

    /// Read path: gather the chunks of each requested column across the
    /// RowBlocks covering rows `[0, n)`, decode (dequantize), and stitch.
    /// Also the storage manager's decode step before a demotion re-encode.
    pub(crate) fn read_stored(
        &mut self,
        meta: &IntermediateMeta,
        columns: Option<&[&str]>,
        n: usize,
    ) -> Result<DataFrame, MistiqueError> {
        let n_blocks = n.div_ceil(self.config.row_block_size);
        let wanted = wanted_columns(meta, columns);
        let blocks: Vec<usize> = (0..n_blocks).collect();
        let per_col = self.read_column_blocks(meta, &wanted, &blocks)?;
        let mut out_cols = Vec::with_capacity(wanted.len());
        for (name, block_vals) in wanted.iter().zip(per_col) {
            let mut values: Vec<f64> = Vec::with_capacity(n);
            for decoded in block_vals {
                values.extend(decoded);
            }
            values.truncate(n);
            out_cols.push(Column::f64(name.clone(), values));
        }
        Ok(DataFrame::from_columns(out_cols))
    }

    /// Fetch and decode the given RowBlocks of each wanted column. Returns,
    /// per column, the decoded values of each requested block (in the order
    /// of `blocks`).
    ///
    /// All chunk bytes are pulled through the store's batched read path, so
    /// cold partitions come off disk concurrently; decode (deserialize +
    /// dequantize) then fans out over one work item per `(column, block)`
    /// chunk — not per column — so the common DNN shape of one wide column
    /// across many RowBlocks still parallelizes. The fan-out is adaptive
    /// ([`adaptive_workers`]): clamped to the host CPUs and to the batch's
    /// byte volume, so tiny reads run serial with zero thread overhead.
    /// Items are assigned by round-robin striding and reassembled by index,
    /// so the output is identical at every `read_parallelism` setting, and a
    /// failing (or panicking) chunk surfaces as the error of the
    /// smallest-indexed item regardless of worker schedule.
    pub(crate) fn read_column_blocks(
        &mut self,
        meta: &IntermediateMeta,
        wanted: &[String],
        blocks: &[usize],
    ) -> Result<Vec<Vec<Vec<f64>>>, MistiqueError> {
        let keys: Vec<ChunkKey> = wanted
            .iter()
            .flat_map(|name| {
                blocks
                    .iter()
                    .map(|&b| ChunkKey::new(meta.id.clone(), name.clone(), b as u32))
            })
            .collect();
        let workers = adaptive_workers(
            self.effective_read_parallelism(),
            keys.len(),
            self.store.batch_bytes_hint(&keys),
            self.config.min_read_bytes_per_worker,
        );
        let raw = self.store.get_chunk_bytes_batch(&keys, workers)?;

        let n_cols = wanted.len();
        let per_col = blocks.len();
        let n_items = n_cols * per_col;
        let value = meta.scheme.value;
        let quantizer = meta.quantizer.as_deref();
        let (rbs, n_rows) = (self.config.row_block_size, meta.n_rows);
        // Capture the calling span before any fan-out so per-column decode
        // attribution parents identically whether decode runs serial or on
        // workers.
        let obs = self.obs.clone();
        let ctx = obs.current_context();
        let raw = &raw;
        // Item i = (column i / per_col, block i % per_col); returns the
        // decoded values plus the nanoseconds spent, for per-column span
        // attribution after the fan-out completes.
        let decode_item = |i: usize| -> Result<(Vec<f64>, u64), MistiqueError> {
            let t0 = std::time::Instant::now();
            let decoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let chunk = mistique_dataframe::ColumnChunk::from_bytes(&raw[i])
                    .map_err(mistique_store::StoreError::from)?;
                Ok(decode_column(&chunk.data, value, quantizer))
            }))
            .unwrap_or_else(|payload| {
                Err(MistiqueError::Invalid(format!(
                    "decode of column '{}' block {} panicked: {}",
                    wanted[i / per_col],
                    blocks[i % per_col],
                    panic_message(payload.as_ref())
                )))
            })?;
            // Block `b` holds rows `[b * rbs, (b + 1) * rbs)` of `n_rows`. Any
            // other length means the chunks were cut at another
            // `row_block_size` (a manifest from before the field trusts the
            // config), and indexing them by this one returns wrong rows.
            let (id, col, block) = (&meta.id, &wanted[i / per_col], blocks[i % per_col]);
            let (got, expected) = (decoded.len(), n_rows.saturating_sub(block * rbs).min(rbs));
            if got != expected {
                return Err(MistiqueError::Invalid(format!(
                    "{id}.{col} block {block} holds {got} rows, row_block_size {rbs} puts \
                     {expected} there; was the store written with another?"
                )));
            }
            Ok((decoded, t0.elapsed().as_nanos() as u64))
        };

        let start_ns = obs.now_ns();
        let items = mistique_store::run_striped(n_items, workers, &decode_item, || {
            MistiqueError::Invalid("read worker panicked outside the decode guard".to_string())
        })?;

        // Reassemble by index and emit one fetch.decode span per column —
        // its duration the sum of that column's block decodes — so the
        // trace tree keeps the per-column shape of PRs 2/4 even though the
        // work was striped at block granularity.
        let mut items = items.into_iter();
        let mut out = Vec::with_capacity(n_cols);
        for name in wanted {
            let mut col_blocks = Vec::with_capacity(per_col);
            let mut col_ns = 0u64;
            for _ in 0..per_col {
                let (vals, ns) = items.next().expect("one item per (col, block)");
                col_blocks.push(vals);
                col_ns += ns;
            }
            obs.record_span(
                "fetch.decode",
                ctx.as_ref(),
                start_ns,
                col_ns,
                vec![
                    ("col".to_string(), name.clone()),
                    ("blocks".to_string(), per_col.to_string()),
                ],
            );
            out.push(col_blocks);
        }
        Ok(out)
    }

    /// Re-run path: recreate the intermediate, align its layout with the
    /// stored schema (apply the same pooling), then apply adaptive
    /// materialization if configured (Alg. 4's γ test).
    fn rerun_and_maybe_materialize(
        &mut self,
        meta: &IntermediateMeta,
        columns: Option<&[&str]>,
        n: usize,
    ) -> Result<DataFrame, MistiqueError> {
        let source = self
            .sources
            .get(&meta.model_id)
            .ok_or_else(|| MistiqueError::UnknownModel(meta.model_id.clone()))?;
        let kind = source.kind();
        let recreated = source.recreate_traced(
            meta.stage_index,
            match kind {
                ModelKind::Trad => None,
                ModelKind::Dnn => Some(n),
            },
            &self.obs,
        );
        let mut frame = recreated.frame;

        // Align DNN layouts: stored intermediates may be pooled.
        if kind == ModelKind::Dnn {
            if let (Some(sigma), Some(layer_shapes)) =
                (meta.scheme.pool_sigma, source.layer_shapes())
            {
                let (c, h, w) = layer_shapes[meta.stage_index];
                if h > 1 && sigma > 1 {
                    frame = pool_frame(&frame, c, h, w, sigma);
                }
            }
        }
        // TRAD pipelines recreate all rows; trim to the request.
        if frame.n_rows() > n {
            frame = frame.slice_rows(0, n);
        }

        // Adaptive materialization: store the full intermediate once its γ
        // clears the threshold. Only complete recreations are stored.
        if let StorageStrategy::Adaptive { gamma_min } = self.config.storage {
            let full = frame.n_rows() == meta.n_rows;
            if !meta.materialized && full {
                let model = self
                    .meta
                    .model(&meta.model_id)
                    .expect("plan() resolved this model");
                // γ uses the query count including this query — exactly
                // once: `n_queries` is bumped only after the fetch
                // completes, so the projection is the sole +1.
                let decision_queries = meta.n_queries + 1;
                self.obs
                    .gauge("adaptive.decision_queries")
                    .set_u64(decision_queries);
                let gamma =
                    self.cost
                        .gamma_at(model, meta, decision_queries, meta.stored_bytes.max(1));
                self.obs.counter("adaptive.gamma_evals").inc();
                self.obs.gauge("adaptive.last_gamma").set(gamma);
                if gamma >= gamma_min {
                    self.obs.counter("adaptive.materializations").inc();
                    self.qcache.invalidate(&meta.id);
                    let (policy, dedup) = self.placement_of(kind);
                    let stored = self.store_frame(&meta.id, &frame, 0, policy, dedup)?;
                    let m = self
                        .meta
                        .intermediate_mut(&meta.id)
                        .expect("plan() resolved this intermediate");
                    m.materialized = true;
                    m.stored_bytes = stored;
                    // Materialized from a re-run: full precision values.
                    m.scheme = CaptureScheme {
                        value: ValueScheme::Full,
                        pool_sigma: meta.scheme.pool_sigma,
                    };
                    m.quantizer = None;
                    m.threshold = None;
                    // The freshly stored chunks are full-precision: index
                    // them so subsequent top-k/threshold queries can prune.
                    self.index_observe_frame(&meta.id, &frame, ValueScheme::Full, None);
                    self.index_finish_build(&meta.id);
                    // The promotion may have pushed the store past the
                    // configured budget; demote/purge colder intermediates
                    // to make room.
                    self.reclaim_if_over_budget()?;
                }
            }
        }

        if let Some(cols) = columns {
            frame = frame.select(cols);
        }
        Ok(frame)
    }
}

/// The requested column names, or every column of the intermediate.
fn wanted_columns(meta: &IntermediateMeta, columns: Option<&[&str]>) -> Vec<String> {
    match columns {
        Some(cols) => cols.iter().map(|s| s.to_string()).collect(),
        None => meta.columns.clone(),
    }
}

/// Adaptive fan-out policy for the read path: the resolved worker count is
/// clamped to the number of work items and to the batch's serialized byte
/// volume — each worker must have at least `min_bytes_per_worker` bytes of
/// chunk data to justify its spawn cost, so small reads degrade to serial
/// instead of paying thread overhead for microseconds of decode.
fn adaptive_workers(
    requested: usize,
    items: usize,
    total_bytes: u64,
    min_bytes_per_worker: u64,
) -> usize {
    let by_bytes = (total_bytes / min_bytes_per_worker.max(1)).min(usize::MAX as u64) as usize;
    requested.max(1).min(items.max(1)).min(by_bytes.max(1))
}

/// Render a worker panic payload for error messages.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Pool each row of an activation frame laid out as `c x h x w` features.
fn pool_frame(frame: &DataFrame, c: usize, h: usize, w: usize, sigma: usize) -> DataFrame {
    let n = frame.n_rows();
    let cols: Vec<Vec<f64>> = frame
        .columns()
        .iter()
        .map(|col| col.data.to_f64())
        .collect();
    let mut examples: Vec<Vec<f32>> = Vec::with_capacity(n);
    for r in 0..n {
        examples.push(cols.iter().map(|col| col[r] as f32).collect());
    }
    let (pooled, features) = pool_batch(&examples, c, h, w, sigma);
    let out_cols = (0..features)
        .map(|j| {
            let vals: Vec<f32> = pooled.iter().map(|ex| ex[j]).collect();
            Column::new(format!("n{j}"), ColumnData::F32(vals))
        })
        .collect();
    DataFrame::from_columns(out_cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::MistiqueConfig;
    use mistique_nn::{simple_cnn, CifarLike};
    use mistique_pipeline::templates::zillow_pipelines;
    use mistique_pipeline::ZillowData;
    use std::sync::Arc;

    fn trad_system(strategy: StorageStrategy) -> (mistique_testkit::TempDir, Mistique, String) {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            row_block_size: 40,
            storage: strategy,
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let data = Arc::new(ZillowData::generate(150, 1));
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        (dir, sys, id)
    }

    #[test]
    fn read_matches_rerun_for_trad() {
        let (_d, mut sys, id) = trad_system(StorageStrategy::Dedup);
        let interm = sys.intermediates_of(&id)[4].clone();
        let read = sys
            .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
            .unwrap();
        let rerun = sys
            .fetch_with_strategy(&interm, None, None, FetchStrategy::Rerun)
            .unwrap();
        assert_eq!(read.frame.n_rows(), rerun.frame.n_rows());
        // Numeric columns agree (read path renders everything as f64).
        for col in read.frame.columns() {
            let a = col.data.to_f64();
            let b = rerun.frame.column(&col.name).unwrap().data.to_f64();
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x - y).abs() < 1e-9 || (x.is_nan() && y.is_nan()),
                    "col {} {x} vs {y}",
                    col.name
                );
            }
        }
    }

    #[test]
    fn column_subset_fetch() {
        let (_d, mut sys, id) = trad_system(StorageStrategy::Dedup);
        let interm = sys.intermediates_of(&id)[3].clone();
        let all = sys.get_intermediate(&interm, None, None).unwrap();
        let first_col = all.frame.column_names()[0].to_string();
        let one = sys
            .get_intermediate(&interm, Some(&[first_col.as_str()]), None)
            .unwrap();
        assert_eq!(one.frame.n_cols(), 1);
        assert_eq!(one.frame.n_rows(), all.frame.n_rows());
    }

    #[test]
    fn unknown_column_is_an_error() {
        let (_d, mut sys, id) = trad_system(StorageStrategy::Dedup);
        let interm = sys.intermediates_of(&id)[0].clone();
        assert!(matches!(
            sys.get_intermediate(&interm, Some(&["no_such_col"]), None),
            Err(MistiqueError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn unmaterialized_forced_read_is_invalid() {
        let (_d, mut sys, id) = trad_system(StorageStrategy::NoStore);
        let interm = sys.intermediates_of(&id)[0].clone();
        assert!(matches!(
            sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read),
            Err(MistiqueError::Invalid(_))
        ));
        // But the automatic path falls back to rerun.
        let r = sys.get_intermediate(&interm, None, None).unwrap();
        assert_eq!(r.strategy, FetchStrategy::Rerun);
    }

    #[test]
    fn query_counts_increment() {
        let (_d, mut sys, id) = trad_system(StorageStrategy::Dedup);
        let interm = sys.intermediates_of(&id)[2].clone();
        sys.get_intermediate(&interm, None, None).unwrap();
        sys.get_intermediate(&interm, None, None).unwrap();
        assert_eq!(sys.metadata().intermediate(&interm).unwrap().n_queries, 2);
    }

    #[test]
    fn adaptive_materializes_hot_intermediate() {
        // γ threshold of ~0 means: materialize as soon as reading would be
        // cheaper than re-running.
        let (_d, mut sys, id) = trad_system(StorageStrategy::Adaptive { gamma_min: 1e-12 });
        let interm = sys.intermediates_of(&id).last().unwrap().clone();
        assert!(!sys.metadata().intermediate(&interm).unwrap().materialized);
        // First query re-runs and (γ > 0 with n_queries=1) materializes.
        let r1 = sys.get_intermediate(&interm, None, None).unwrap();
        assert_eq!(r1.strategy, FetchStrategy::Rerun);
        assert!(sys.metadata().intermediate(&interm).unwrap().materialized);
        // Second query reads.
        let r2 = sys.get_intermediate(&interm, None, None).unwrap();
        assert_eq!(r2.strategy, FetchStrategy::Read);
        // And returns the same data.
        assert_eq!(r1.frame.n_rows(), r2.frame.n_rows());
        for col in r1.frame.columns() {
            let a = col.data.to_f64();
            let b = r2.frame.column(&col.name).unwrap().data.to_f64();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9 || (x.is_nan() && y.is_nan()));
            }
        }
    }

    #[test]
    fn adaptive_high_threshold_never_materializes() {
        let (_d, mut sys, id) = trad_system(StorageStrategy::Adaptive {
            gamma_min: f64::MAX,
        });
        let interm = sys.intermediates_of(&id)[1].clone();
        for _ in 0..3 {
            let r = sys.get_intermediate(&interm, None, None).unwrap();
            assert_eq!(r.strategy, FetchStrategy::Rerun);
        }
        assert!(!sys.metadata().intermediate(&interm).unwrap().materialized);
    }

    #[test]
    fn dnn_read_and_rerun_align_with_pooling() {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            row_block_size: 8,
            storage: StorageStrategy::Dedup,
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let data = Arc::new(CifarLike::generate(16, 10, 1));
        let id = sys
            .register_dnn(Arc::new(simple_cnn(16)), 5, 0, data, 8)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interm = format!("{id}.layer1");
        let read = sys
            .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
            .unwrap();
        let rerun = sys
            .fetch_with_strategy(&interm, None, None, FetchStrategy::Rerun)
            .unwrap();
        // pool(2) layout: both paths expose the pooled column count.
        assert_eq!(read.frame.n_cols(), rerun.frame.n_cols());
        assert_eq!(read.frame.n_rows(), rerun.frame.n_rows());
        for col in read.frame.columns() {
            let a = col.data.to_f64();
            let b = rerun.frame.column(&col.name).unwrap().data.to_f64();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-4, "col {}: {x} vs {y}", col.name);
            }
        }
    }

    #[test]
    fn get_rows_matches_full_fetch() {
        let (_d, mut sys, id) = trad_system(StorageStrategy::Dedup);
        let interm = sys.intermediates_of(&id)[3].clone();
        let full = sys
            .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
            .unwrap()
            .frame;
        let rows = [104usize, 0, 77, 41, 41];
        let picked = sys.get_rows(&interm, &rows, None).unwrap();
        assert_eq!(picked.strategy, FetchStrategy::Read);
        assert_eq!(picked.frame.n_rows(), 5);
        for col in picked.frame.columns() {
            let p = col.data.to_f64();
            let f = full.column(&col.name).unwrap().data.to_f64();
            for (k, &r) in rows.iter().enumerate() {
                assert!(
                    (p[k] - f[r]).abs() < 1e-9 || (p[k].is_nan() && f[r].is_nan()),
                    "col {} row {r}",
                    col.name
                );
            }
        }
    }

    #[test]
    fn get_rows_out_of_range_errors() {
        let (_d, mut sys, id) = trad_system(StorageStrategy::Dedup);
        let interm = sys.intermediates_of(&id)[0].clone();
        assert!(sys.get_rows(&interm, &[10_000], None).is_err());
    }

    #[test]
    fn get_rows_falls_back_to_rerun_when_unmaterialized() {
        let (_d, mut sys, id) = trad_system(StorageStrategy::NoStore);
        let interm = sys.intermediates_of(&id)[0].clone();
        let r = sys.get_rows(&interm, &[3, 1], Some(&["sqft"])).unwrap();
        assert_eq!(r.strategy, FetchStrategy::Rerun);
        assert_eq!(r.frame.n_rows(), 2);
    }

    #[test]
    fn adaptive_workers_policy() {
        const MIN: u64 = 256 * 1024;
        // A batch smaller than one worker's minimum runs serial.
        assert_eq!(adaptive_workers(8, 100, 1_000, MIN), 1);
        // The byte volume caps the fan-out below the requested count.
        assert_eq!(adaptive_workers(8, 100, 3 * MIN, MIN), 3);
        assert_eq!(adaptive_workers(8, 100, 8 * MIN, MIN), 8);
        // Never more workers than work items.
        assert_eq!(adaptive_workers(8, 2, 100 * MIN, MIN), 2);
        // A zero threshold disables the byte clamp (treated as 1 byte).
        assert_eq!(adaptive_workers(4, 100, 1_024, 0), 4);
        // Degenerate inputs still resolve to at least one worker.
        assert_eq!(adaptive_workers(0, 0, 0, MIN), 1);
        assert_eq!(adaptive_workers(1, 16, u64::MAX, 1), 1);
    }

    #[test]
    fn stripped_quantizer_decode_panic_surfaces_as_error() {
        // A KBIT intermediate whose quantizer goes missing makes
        // `decode_column` panic. The per-item guard must convert that into
        // a MistiqueError naming the column — on the serial path and on the
        // striped path alike — instead of aborting the process.
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            row_block_size: 8,
            storage: StorageStrategy::Dedup,
            dnn_capture: crate::capture::CaptureScheme {
                value: crate::capture::ValueScheme::Kbit { bits: 8 },
                pool_sigma: None,
            },
            min_read_bytes_per_worker: 0,
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let data = Arc::new(CifarLike::generate(16, 10, 1));
        let id = sys
            .register_dnn(Arc::new(simple_cnn(16)), 5, 0, data, 8)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interm = format!("{id}.layer1");
        // Sanity: the intact read decodes.
        sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
            .unwrap();
        // Strip the quantizer from the metadata.
        sys.meta.intermediate_mut(&interm).unwrap().quantizer = None;
        for workers in [1usize, 4] {
            sys.set_read_parallelism(workers);
            sys.store_mut().clear_read_cache();
            let err = sys
                .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                .unwrap_err();
            match &err {
                MistiqueError::Invalid(msg) => {
                    assert!(
                        msg.contains("panicked") && msg.contains("quantizer"),
                        "workers={workers}: {msg}"
                    );
                }
                other => panic!("workers={workers}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn dnn_partial_fetch_limits_rows() {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            row_block_size: 8,
            storage: StorageStrategy::Dedup,
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let data = Arc::new(CifarLike::generate(24, 10, 1));
        let id = sys
            .register_dnn(Arc::new(simple_cnn(16)), 5, 0, data, 8)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interm = format!("{id}.layer3");
        let r = sys
            .fetch_with_strategy(&interm, None, Some(10), FetchStrategy::Read)
            .unwrap();
        assert_eq!(r.frame.n_rows(), 10);
    }
}
