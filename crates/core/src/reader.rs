//! The ChunkReader (Sec 6, Alg. 3): fetch an intermediate by reading stored
//! chunks or re-running the model, whichever the cost model prefers, plus
//! adaptive materialization (Sec 4.3) on the re-run path.
//!
//! Every fetch goes through one pipeline: `plan` resolves the metadata and
//! prices both sides of the trade-off once, the entry point picks an `Arm`,
//! and `serve` runs it inside its root span and does all the accounting —
//! the one place a `QueryReport` is built and a query is counted.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use mistique_dataframe::{ChunkView, Column, DataFrame};
use mistique_index::IntermediateIndex;
use mistique_obs::{Counter, Histogram, Obs};
use mistique_quantize::KbitQuantizer;
use mistique_store::StoreError;

use crate::audit::{csv, fetch_args};
use crate::capture::{decode_cells, CaptureScheme, ValueScheme};
use crate::error::MistiqueError;
use crate::index_state::IndexPruning;
use crate::metadata::IntermediateMeta;
use crate::report::{PlanChoice, QueryReport};
use crate::system::{Mistique, StorageStrategy};

/// How a fetch was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchStrategy {
    /// Chunks were read from the DataStore.
    Read,
    /// The model was re-run.
    Rerun,
}

impl FetchStrategy {
    /// Stable lower-case name, used by the audit journal's argument
    /// fingerprint (parsed back by `mistique replay`).
    pub fn name(&self) -> &'static str {
        match self {
            FetchStrategy::Read => "read",
            FetchStrategy::Rerun => "rerun",
        }
    }
}

/// The result of fetching an intermediate. The timing and both predictions
/// are the numbers of the fetch's [`QueryReport`], on every plan.
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
/// borrows nothing, so an arm that never touches stored chunks (list-served
/// top-k) never clones metadata.
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

/// The five ways a planned fetch is served.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
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

/// The fetch epilogue's metric handles, each looked up in the registry the
/// first time it is written and held after, so a query builds no metric name
/// and takes no registry lock. A metric still enters the registry when it is
/// first written.
#[derive(Default)]
pub(crate) struct FetchMetrics {
    observe_read: Option<Counter>,
    drift_flags: Option<Counter>,
    /// `decision.read.*`, then `decision.rerun.*`.
    decisions: [Option<DecisionMetrics>; 2],
    /// `slo.<query>.<plan>.ns`, by query label, then plan.
    slo: HashMap<String, [Option<Histogram>; 3]>,
    slo_burns: Option<Counter>,
}

impl FetchMetrics {
    /// The latency histogram of one SLO class, `slo.<query>.<plan>.ns`.
    pub(crate) fn slo(&mut self, obs: &Obs, query: &str, plan: PlanChoice) -> &Histogram {
        if !self.slo.contains_key(query) {
            self.slo.insert(query.to_string(), Default::default());
        }
        let by_plan = self.slo.get_mut(query).expect("inserted above");
        by_plan[plan as usize]
            .get_or_insert_with(|| obs.histogram(&format!("slo.{query}.{}.ns", plan.name())))
    }

    /// `slo.burns`.
    pub(crate) fn slo_burns(&mut self, obs: &Obs) -> &Counter {
        self.slo_burns
            .get_or_insert_with(|| obs.counter("slo.burns"))
    }
}

/// `decision.<plan>.{count,predicted_ns,actual_ns}` of one scored plan.
struct DecisionMetrics {
    count: Counter,
    predicted_ns: Histogram,
    actual_ns: Histogram,
}

impl DecisionMetrics {
    fn new(obs: &Obs, decision: &str) -> DecisionMetrics {
        let metric = |m: &str| format!("decision.{decision}.{m}");
        DecisionMetrics {
            count: obs.counter(&metric("count")),
            predicted_ns: obs.histogram(&metric("predicted_ns")),
            actual_ns: obs.histogram(&metric("actual_ns")),
        }
    }
}

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
            let arm = if plan.prefers_read {
                Arm::Read
            } else {
                Arm::Rerun
            };
            sys.read_or_rerun(intermediate_id, columns, &plan, arm)
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
                // Fetch + decode only the touched blocks (possibly in
                // parallel). Every block but the intermediate's last is full,
                // so the block at position `b` starts at row `b * rbs` of the
                // column read.
                let per_col = sys.read_column_blocks(&meta, &wanted, &blocks)?;
                let mut out_cols = Vec::with_capacity(wanted.len());
                for (name, block_vals) in wanted.into_iter().zip(per_col) {
                    let mut values = Vec::with_capacity(rows.len());
                    for &r in rows {
                        // `read_column_blocks` vouched for every block's
                        // length: a miss is a bug, reported without a panic.
                        let b = blocks.binary_search(&(r / rbs)).ok();
                        let v = b
                            .and_then(|b| block_vals.get(b * rbs + r % rbs))
                            .ok_or_else(|| {
                                MistiqueError::Invalid(format!(
                                    "{intermediate_id}.{name}: no row {r}"
                                ))
                            })?;
                        values.push(*v);
                    }
                    out_cols.push(Column::f64(name, values));
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
                let values = sys.read_column_blocks(&meta, &wanted, &keep)?;
                // The kept blocks' rows, concatenated in block order.
                let mut values = values[0].iter();
                for &block in &keep {
                    let held = meta.n_rows.saturating_sub(block * rbs).min(rbs);
                    for (i, &v) in values.by_ref().take(held).enumerate() {
                        rows_scanned += 1;
                        if v > threshold {
                            rows.push(block * rbs + i);
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
        // A list-served top-k never reaches the store.
        let store_before = (arm != Arm::IndexedTopk).then(|| self.store.read_attribution());
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
        // the indexed arms read a block subset: folding them in would skew
        // the calibration the planner's next choice rests on.
        let mut drift = None;
        match arm {
            Arm::Read | Arm::Rerun => {
                let decision = choice.name();
                let (obs, held) = (&self.obs, &mut self.fetch_metrics);
                let predicted = if arm == Arm::Read {
                    self.cost.observe_read(plan.read_bytes, actual);
                    held.observe_read
                        .get_or_insert_with(|| obs.counter("cost.observe_read.count"))
                        .inc();
                    plan.predicted_read
                } else {
                    plan.predicted_rerun
                };
                let metrics = held.decisions[usize::from(arm == Arm::Rerun)]
                    .get_or_insert_with(|| DecisionMetrics::new(obs, decision));
                metrics.count.inc();
                metrics
                    .predicted_ns
                    .record((predicted.max(0.0) * 1e9) as u64);
                metrics.actual_ns.record_duration(actual);
                // Fold the prediction into the drift monitor and flag
                // miscalibration. The monitor's and the bandwidth's gauges
                // are pull-style: `sync_obs_gauges` writes them before every
                // snapshot.
                let (ratio, flagged) = self.drift.observe(decision, predicted, actual);
                if flagged {
                    held.drift_flags
                        .get_or_insert_with(|| obs.counter("cost_model.drift_flags"))
                        .inc();
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
        let wanted = wanted_columns(meta, columns);
        let blocks: Vec<usize> = (0..n.div_ceil(self.config.row_block_size)).collect();
        let values = self.read_column_blocks(meta, &wanted, &blocks)?;
        let out_cols = (wanted.into_iter().zip(values))
            .map(|(name, mut values)| {
                values.truncate(n);
                Column::f64(name, values)
            })
            .collect();
        Ok(DataFrame::from_columns(out_cols))
    }

    /// Fetch and decode the given RowBlocks of each wanted column, straight
    /// into one f64 column each — the blocks' rows in the order of
    /// `blocks`: every stored chunk's cells are converted once, from the
    /// bytes the store hands out into the place they take in the answer
    /// ([`decode_cells`]).
    ///
    /// The store resolves the (columns × blocks) grid by name and pulls all
    /// its chunk bytes through the batched read path, so cold partitions
    /// come off disk concurrently; decode (deserialize + dequantize) then
    /// fans out over one work item per column, which pushes its blocks in
    /// order into a vector of the column's final length, so no output is
    /// filled before it is written. The fan-out is adaptive
    /// ([`adaptive_workers`]): clamped to the host CPUs and to the batch's
    /// byte volume as the metadata prices it, so tiny reads run serial with
    /// zero thread overhead. The decode is one `fetch.decode` span
    /// (`cols`, `blocks`).
    /// The output is identical at every `read_parallelism` setting, and a
    /// failing (or panicking) chunk surfaces as the error of the
    /// smallest-indexed (column, block) regardless of worker schedule. The
    /// store's handles are dropped before this returns.
    pub(crate) fn read_column_blocks(
        &mut self,
        meta: &IntermediateMeta,
        wanted: &[String],
        blocks: &[usize],
    ) -> Result<Vec<Vec<f64>>, MistiqueError> {
        let (rbs, n_rows) = (self.config.row_block_size, meta.n_rows);
        // Block `b` holds rows `[b * rbs, (b + 1) * rbs)` of `n_rows`.
        let block_rows = |b: usize| n_rows.saturating_sub(b * rbs).min(rbs);
        let out_len: usize = blocks.iter().map(|&b| block_rows(b)).sum();
        // The batch's bytes as the planner prices them — the stored bytes
        // of the rows read, scaled to the wanted share of the columns — so
        // sizing the fan-out costs no walk of the store's ledger.
        let col_share = wanted.len() as f64 / meta.columns.len().max(1) as f64;
        let batch_bytes = (meta.bytes_per_row() * out_len as f64 * col_share) as u64;
        let workers = adaptive_workers(
            self.effective_read_parallelism(),
            wanted.len() * blocks.len(),
            batch_bytes,
            self.config.min_read_bytes_per_worker,
        );
        let raw = self
            .store
            .get_grid_bytes(&meta.id, wanted, blocks, workers)?;

        let value = meta.scheme.value;
        let quantizer = meta
            .quantizer
            .as_deref()
            .and_then(KbitQuantizer::from_bytes);
        let raw = &raw;
        // Item c = column c: its blocks' chunks are `raw[c * blocks.len()..]`.
        let decode_item = |c: usize, col: &String| -> Result<Vec<f64>, MistiqueError> {
            let mut values = Vec::with_capacity(out_len);
            let chunks = &raw[c * blocks.len()..(c + 1) * blocks.len()];
            for (bytes, &block) in chunks.iter().zip(blocks) {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let chunk = ChunkView::parse(bytes).map_err(StoreError::from)?;
                    // Any other length means the chunks were cut at another
                    // `row_block_size` (a manifest from before the field
                    // trusts the config), and indexing them by this one
                    // returns wrong rows.
                    let (got, expected) = (chunk.len(), block_rows(block));
                    if got != expected {
                        return Err(MistiqueError::Invalid(format!(
                            "{}.{col} block {block} holds {got} rows, row_block_size {rbs} puts \
                             {expected} there; was the store written with another?",
                            meta.id
                        )));
                    }
                    decode_cells(&chunk, value, quantizer.as_ref(), &mut values).map_err(|e| {
                        MistiqueError::Invalid(format!(
                            "decode of column '{col}' block {block}: {e}"
                        ))
                    })
                }))
                .unwrap_or_else(|payload| {
                    Err(MistiqueError::Invalid(format!(
                        "decode of column '{col}' block {block} panicked: {}",
                        panic_message(payload.as_ref())
                    )))
                })?;
            }
            Ok(values)
        };

        let mut span = self.obs.span("fetch.decode");
        span.attr("cols", wanted.len()).attr("blocks", blocks.len());
        let items = wanted.iter().collect();
        mistique_store::run_striped(items, workers, &decode_item, || {
            MistiqueError::Invalid("read worker panicked outside the decode guard".to_string())
        })
    }

    /// Re-run path: recreate the intermediate in its stored layout (the
    /// same pooling), then apply adaptive materialization if configured
    /// (Alg. 4's γ test).
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
        let mut frame = source.recreate(meta.stage_index, n, meta.scheme.pool_sigma, &self.obs);
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

    /// Log `simple_cnn(16)` over `n_images` images under POOL_QT(`sigma`),
    /// then fetch `layer{layer}` over `n_ex` examples both ways: the re-run
    /// must return the stored layout, every cell the same bits.
    fn assert_rerun_bits_match_read(sigma: usize, n_images: usize, layer: usize, n_ex: usize) {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            row_block_size: 8,
            storage: StorageStrategy::Dedup,
            dnn_capture: CaptureScheme {
                value: ValueScheme::Full,
                pool_sigma: Some(sigma),
            },
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let data = Arc::new(CifarLike::generate(n_images, 10, 1));
        let id = sys
            .register_dnn(Arc::new(simple_cnn(16)), 5, 0, data, 8)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interm = format!("{id}.layer{layer}");
        let case = format!("{interm}, sigma {sigma}, {n_ex} of {n_images}");
        let read = sys
            .fetch_with_strategy(&interm, None, Some(n_ex), FetchStrategy::Read)
            .unwrap();
        let rerun = sys
            .fetch_with_strategy(&interm, None, Some(n_ex), FetchStrategy::Rerun)
            .unwrap();
        assert_eq!(read.frame.n_rows(), n_ex, "{case}");
        assert_eq!(
            read.frame.column_names(),
            rerun.frame.column_names(),
            "{case}"
        );
        assert_eq!(read.frame.n_rows(), rerun.frame.n_rows(), "{case}");
        for (a, b) in read.frame.columns().iter().zip(rerun.frame.columns()) {
            let bits =
                |c: &Column| -> Vec<u64> { c.data.to_f64().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(a), bits(b), "{case}: column {}", a.name);
        }
    }

    #[test]
    fn dnn_read_and_rerun_align_with_pooling() {
        // pool(2) over Layer 1's 32×32 planes, every example.
        assert_rerun_bits_match_read(2, 16, 1, 16);
        // A prefix that ends inside a forward tile.
        assert_rerun_bits_match_read(2, 35, 1, 19);
        // A dense layer: one value per unit, stored unpooled.
        assert_rerun_bits_match_read(2, 16, 8, 16);
        // σ = 3 does not divide 32: the last window of a row is partial.
        assert_rerun_bits_match_read(3, 16, 1, 16);
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
        // A KBIT intermediate whose quantizer goes missing made
        // `decode_column` panic; `decode_cells` refuses it instead. Either
        // way the read must fail with a MistiqueError naming the column and
        // block — on the serial path and on the striped path alike — and
        // never abort the process.
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
                        msg.contains("column 'n0' block 0") && msg.contains("quantizer"),
                        "workers={workers}: {msg}"
                    );
                }
                other => panic!("workers={workers}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_wide_read_keeps_its_partition_loads_in_its_trace() {
        // Layer 1 of `simple_cnn(16)` pooled at σ = 2 is 512 columns, more
        // than the span ring holds: a span per column would evict the
        // fetch's own partition loads before its root is recorded.
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
        sys.flush().unwrap();
        let interm = format!("{id}.layer1");
        let columns = sys.metadata().intermediate(&interm).unwrap().columns.len();
        assert!(columns >= mistique_obs::DEFAULT_RING_CAPACITY, "{columns}");
        sys.store_mut().clear_read_cache();
        sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
            .unwrap();
        let trace_id = sys.last_report().unwrap().trace_id;
        let spans: Vec<_> = (sys.obs().recent_spans().into_iter())
            .filter(|s| s.trace_id == trace_id)
            .collect();
        let paths: Vec<String> = spans
            .iter()
            .map(|s| format!("/{}/{}", s.parent.as_deref().unwrap_or(""), s.name))
            .collect();
        assert!(
            paths
                .iter()
                .any(|p| p == "/fetch.read/store.partition.load"),
            "{paths:?}"
        );
        let decodes: Vec<_> = spans.iter().filter(|s| s.name == "fetch.decode").collect();
        assert_eq!(decodes.len(), 1, "one decode span per fetch: {paths:?}");
        let attrs = &decodes[0].attrs;
        assert!(
            attrs.contains(&("cols".to_string(), columns.to_string())),
            "{attrs:?}"
        );
        assert!(
            attrs.contains(&("blocks".to_string(), "2".to_string())),
            "{attrs:?}"
        );
        assert!(sys.render_trace(trace_id).contains("store.partition.load"));
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
