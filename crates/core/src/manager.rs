//! The storage budget manager (Sec 4.3 taken to its conclusion): adaptive
//! materialization promotes hot intermediates, this module walks them back
//! down when the store outgrows `MistiqueConfig::storage_budget_bytes`.
//!
//! A reclaim pass repeatedly picks the **coldest** materialized intermediate
//! — the one with the lowest γ (Eq 5), recomputed against its *current*
//! query count — and takes one step down the demotion ladder:
//!
//! ```text
//! FULL → LP_QT → 8BIT_QT → THRESHOLD_QT → DELTA → purged
//! ```
//!
//! Each demotion re-encodes the stored values under the cheaper scheme and
//! overwrites the same chunk keys (the displaced bytes become dead chunks in
//! their partitions). The DELTA rung keeps the THRESHOLD_QT scheme but asks
//! the store to re-store each chunk as a base+delta frame against a similar
//! stored chunk ([`mistique_store::DataStore::reencode_as_delta`]) — answers
//! stay bit-identical, only the physical bytes shrink; it runs at most once
//! per materialization. A purge retracts every chunk and flips
//! `materialized = false`: future queries transparently re-run the model and
//! may re-promote the intermediate through the ordinary γ test. When the
//! accounting is back under budget the pass compacts partitions whose
//! live-byte ratio dropped below [`COMPACT_LIVE_RATIO`], physically
//! reclaiming the dead bytes.
//!
//! Crash-safety discipline: the catalog on disk must stop referencing
//! demoted/purged chunks *before* compaction drops their bytes, so the pass
//! persists the manifest first (a persist that fails fails the pass, with
//! nothing compacted). Each rewrite is a single atomic
//! overwrite of the partition file, so a crash at any point leaves each
//! partition in exactly its pre- or post-compaction state (see
//! `crates/store/tests/compaction.rs`).

use mistique_dataframe::{Column, DataFrame};
use mistique_store::{ChunkKey, PlacementPolicy};

use crate::capture::{CaptureScheme, ValueEncoder, ValueScheme};
use crate::error::MistiqueError;
use crate::report::{DemotionRecord, ReclaimReport};
use crate::system::Mistique;

/// Partitions whose live-byte ratio is at or below this are rewritten by the
/// post-reclaim compaction (fully-dead partitions are always deleted).
pub const COMPACT_LIVE_RATIO: f64 = 0.7;

/// The next rung down the demotion ladder, or `None` when the only step
/// left is a purge.
pub fn next_demotion(scheme: ValueScheme) -> Option<ValueScheme> {
    match scheme {
        ValueScheme::Full => Some(ValueScheme::Lp),
        ValueScheme::Lp => Some(ValueScheme::Kbit { bits: 8 }),
        ValueScheme::Kbit { .. } => Some(ValueScheme::Threshold { pct: 0.995 }),
        ValueScheme::Threshold { .. } => None,
    }
}

impl Mistique {
    /// Bytes of materialized intermediates the budget accounting charges:
    /// the sum of `stored_bytes` over every `materialized` intermediate.
    /// (Physical disk usage can transiently exceed this between a demotion
    /// and the compaction that drops the displaced chunks.)
    pub fn storage_budget_used(&self) -> u64 {
        self.meta
            .model_ids()
            .iter()
            .flat_map(|id| self.meta.intermediates_of(id))
            .filter(|m| m.materialized)
            .map(|m| m.stored_bytes)
            .sum()
    }

    /// The configured storage budget (0 = unlimited).
    pub fn storage_budget(&self) -> u64 {
        self.config.storage_budget_bytes
    }

    /// Change the storage budget at runtime. Takes effect at the next
    /// materialization or explicit [`Mistique::reclaim`].
    pub fn set_storage_budget(&mut self, bytes: u64) {
        self.config.storage_budget_bytes = bytes;
    }

    /// Run a reclaim pass against the configured budget. With an unlimited
    /// budget the demotion loop is a no-op but compaction still runs,
    /// recovering bytes dead from chunk overwrites.
    pub fn reclaim(&mut self) -> Result<ReclaimReport, MistiqueError> {
        self.reclaim_to(self.config.storage_budget_bytes)
    }

    /// Run a reclaim pass against an explicit budget (the `mistique reclaim
    /// <dir> [budget]` entry point). See the module docs for the ladder and
    /// the crash-safety discipline.
    pub fn reclaim_to(&mut self, budget_bytes: u64) -> Result<ReclaimReport, MistiqueError> {
        let args = || crate::audit::args_of(&[("budget", &budget_bytes)]);
        self.audited("reclaim", args, |sys| sys.reclaim_to_impl(budget_bytes))
    }

    fn reclaim_to_impl(&mut self, budget_bytes: u64) -> Result<ReclaimReport, MistiqueError> {
        let sp = mistique_obs::span!(self.obs, "reclaim", budget = budget_bytes);
        let trace_id = sp.trace_id();
        let used_before = self.storage_budget_used();

        let mut demotions: Vec<DemotionRecord> = Vec::new();
        let mut purged: Vec<String> = Vec::new();
        // Index bytes are the cheapest bytes to reclaim: dropping an index
        // can never change an answer (queries degrade to the scan path), so
        // the pass sheds the coldest intermediates' indexes before touching
        // any data. Index bytes are accounted *on top of* the data-only
        // `storage_budget_used()`, which this phase leaves untouched.
        if budget_bytes > 0 && self.index_enabled() {
            let mut cold: Vec<(String, f64)> = Vec::new();
            for model_id in self.meta.model_ids() {
                let Some(model) = self.meta.model(&model_id) else {
                    continue;
                };
                for m in self.meta.intermediates_of(&model_id) {
                    if m.materialized {
                        cold.push((m.id.clone(), self.cost.gamma_now(model, m)));
                    }
                }
            }
            cold.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            // Load lazily first so on-disk indexes from a previous session
            // show up in the byte accounting.
            for (id, _) in &cold {
                let _ = self.index_for(id);
            }
            for (id, gamma) in cold {
                if self.storage_budget_used() + self.index_total_bytes() <= budget_bytes {
                    break;
                }
                let bytes_before = self.index_bytes_of(&id);
                if bytes_before == 0 {
                    continue;
                }
                self.index_drop(&id);
                self.obs.counter("adaptive.demotions").inc();
                demotions.push(DemotionRecord {
                    intermediate: id,
                    from: "INDEX".to_string(),
                    to: "DROPPED".to_string(),
                    bytes_before,
                    bytes_after: 0,
                    gamma,
                });
            }
        }
        if budget_bytes > 0 {
            // Ladder is finite (≤ 5 steps per intermediate: three scheme
            // demotions, one delta re-encode, one purge), but keep a hard
            // cap so a pathological accounting bug cannot spin forever.
            let mut steps_left = self.meta.n_intermediates() * 6 + 8;
            while self.storage_budget_used() > budget_bytes && steps_left > 0 {
                steps_left -= 1;
                let Some((victim, gamma)) = self.coldest_materialized() else {
                    break;
                };
                let before = self.meta.intermediate(&victim).unwrap().clone();
                match next_demotion(before.scheme.value) {
                    Some(next) => {
                        let bytes_after = self.demote_to(&victim, next)?;
                        self.obs.counter("adaptive.demotions").inc();
                        demotions.push(DemotionRecord {
                            intermediate: victim,
                            from: before.scheme.value.name(),
                            to: next.name(),
                            bytes_before: before.stored_bytes,
                            bytes_after,
                            gamma,
                        });
                    }
                    // One rung below THRESHOLD_QT and above purge: re-encode
                    // the binarized chunks as base+delta frames against
                    // similar stored chunks. The flag flips even when no
                    // chunk wins, so the ladder cannot revisit this rung.
                    None if !before.delta_encoded && self.store.delta_enabled() => {
                        let bytes_after = self.reencode_delta(&victim)?;
                        self.obs.counter("adaptive.demotions").inc();
                        demotions.push(DemotionRecord {
                            intermediate: victim,
                            from: before.scheme.value.name(),
                            to: "DELTA".to_string(),
                            bytes_before: before.stored_bytes,
                            bytes_after,
                            gamma,
                        });
                    }
                    None => {
                        self.purge_intermediate(&victim)?;
                        self.obs.counter("adaptive.purges").inc();
                        demotions.push(DemotionRecord {
                            intermediate: victim.clone(),
                            from: before.scheme.value.name(),
                            to: "PURGED".to_string(),
                            bytes_before: before.stored_bytes,
                            bytes_after: 0,
                            gamma,
                        });
                        purged.push(victim);
                    }
                }
            }
        }

        // The catalog on disk must drop demoted/purged chunk keys before
        // compaction deletes their bytes — otherwise a crash after
        // compaction could reopen through a manifest that references chunks
        // that no longer exist.
        self.persist()?;
        let compaction = self.store.compact(COMPACT_LIVE_RATIO)?;
        // Compaction moved the accounting (partition totals, removed
        // partitions); refresh the manifest so reopen sees the final state.
        if compaction.partitions_rewritten + compaction.partitions_removed > 0 {
            self.persist()?;
        }

        let elapsed = sp.finish();
        let mut report = ReclaimReport {
            seq: 0,
            budget_bytes,
            used_before,
            used_after: self.storage_budget_used(),
            demotions,
            purged,
            compaction: Some(compaction),
            elapsed,
            trace_id,
        };
        self.obs
            .gauge("storage.budget_used")
            .set_u64(report.used_after);
        // The ring stamps the sequence number; hand the caller the same
        // seq its report carries in `reclaim_reports()`.
        report.seq = self.reclaims.push(report.clone());

        // Journal the pass for the flight recorder: one event per ladder
        // step, one for the compaction if it moved bytes, then a capture.
        for d in &report.demotions {
            let kind = if d.to == "PURGED" {
                "reclaim.purge"
            } else if d.to == "DELTA" {
                "reclaim.delta"
            } else if d.from == "INDEX" {
                "reclaim.index_drop"
            } else {
                "reclaim.demote"
            };
            let details = vec![
                ("from".to_string(), d.from.clone()),
                ("to".to_string(), d.to.clone()),
                ("bytes_before".to_string(), d.bytes_before.to_string()),
                ("bytes_after".to_string(), d.bytes_after.to_string()),
                ("gamma".to_string(), format!("{:.6}", d.gamma)),
            ];
            let interm = d.intermediate.clone();
            self.telemetry_event(kind, Some(&interm), details);
        }
        if let Some(c) = report
            .compaction
            .as_ref()
            .filter(|c| c.partitions_rewritten + c.partitions_removed > 0)
        {
            let details = vec![
                ("scanned".to_string(), c.partitions_scanned.to_string()),
                ("rewritten".to_string(), c.partitions_rewritten.to_string()),
                ("removed".to_string(), c.partitions_removed.to_string()),
                ("bytes_reclaimed".to_string(), c.bytes_reclaimed.to_string()),
                ("chunks_dropped".to_string(), c.chunks_dropped.to_string()),
            ];
            self.telemetry_event("compaction", None, details);
        }
        self.telemetry_capture("reclaim");
        Ok(report)
    }

    /// Budget hook run after every materialization (logging bursts and
    /// adaptive promotions): reclaim only when the accounting is actually
    /// over a configured budget.
    pub(crate) fn reclaim_if_over_budget(&mut self) -> Result<(), MistiqueError> {
        let budget = self.config.storage_budget_bytes;
        if budget > 0 && self.storage_budget_used() > budget {
            self.reclaim()?;
        }
        Ok(())
    }

    /// Up to the last `n` reclaim reports, oldest first.
    pub fn reclaim_reports(&self, n: usize) -> Vec<ReclaimReport> {
        self.reclaims.recent(n).into_iter().cloned().collect()
    }

    /// The most recent reclaim report, if any is retained.
    pub fn last_reclaim(&self) -> Option<&ReclaimReport> {
        self.reclaims.last()
    }

    /// The materialized intermediate with the lowest γ (Eq 5) at the
    /// *current* query count — the next demotion victim. Deterministic:
    /// models and stages are walked in sorted order and ties keep the first.
    fn coldest_materialized(&self) -> Option<(String, f64)> {
        let mut best: Option<(String, f64)> = None;
        for model_id in self.meta.model_ids() {
            let Some(model) = self.meta.model(&model_id) else {
                continue;
            };
            for m in self.meta.intermediates_of(&model_id) {
                if !m.materialized {
                    continue;
                }
                let g = self.cost.gamma_now(model, m);
                if best.as_ref().is_none_or(|(_, bg)| g < *bg) {
                    best = Some((m.id.clone(), g));
                }
            }
        }
        best
    }

    /// Demote a materialized intermediate one rung down the ladder. Returns
    /// the scheme it now uses, or `None` when it is already on the last rung
    /// (use [`Mistique::purge_intermediate`] for the final step).
    pub fn demote_one_step(
        &mut self,
        intermediate_id: &str,
    ) -> Result<Option<ValueScheme>, MistiqueError> {
        let meta = self
            .meta
            .intermediate(intermediate_id)
            .ok_or_else(|| MistiqueError::UnknownIntermediate(intermediate_id.into()))?;
        if !meta.materialized {
            return Err(MistiqueError::Invalid(format!(
                "{intermediate_id} is not materialized; nothing to demote"
            )));
        }
        match next_demotion(meta.scheme.value) {
            Some(next) => {
                self.demote_to(intermediate_id, next)?;
                self.obs.counter("adaptive.demotions").inc();
                Ok(Some(next))
            }
            None => Ok(None),
        }
    }

    /// Re-encode a materialized intermediate under `next` and overwrite its
    /// chunks in place (same keys, so the displaced bytes become dead chunks
    /// for compaction). Returns the new stored byte count.
    fn demote_to(
        &mut self,
        intermediate_id: &str,
        next: ValueScheme,
    ) -> Result<u64, MistiqueError> {
        let meta = self.meta.intermediate(intermediate_id).unwrap().clone();
        // Decide *before* the metadata changes whether the index follows the
        // intermediate down the ladder: a rebuild only happens if an index
        // existed, so a reclaim pass that shed it is not undone here.
        let had_index = self.index_exists(intermediate_id);
        let mut sp = mistique_obs::span!(self.obs, "reclaim.demote", interm = intermediate_id);
        sp.attr("to", next.name());

        // Decode the currently stored representation (dequantizing through
        // the current scheme), then re-encode column by column so the
        // original column names — and therefore the chunk keys — survive.
        let frame = self.read_stored(&meta, None, meta.n_rows)?;
        let cols: Vec<(String, Vec<f32>)> = frame
            .columns()
            .iter()
            .map(|c| {
                let vals: Vec<f32> = c.data.to_f64().iter().map(|&v| v as f32).collect();
                (c.name.clone(), vals)
            })
            .collect();

        // Schemes with fitted state share one fit across all columns, like
        // the capture path.
        let sample = cols.iter().flat_map(|(_, vals)| vals.iter().copied());
        let encoder = ValueEncoder::fit(next, sample, None, None);
        let (quantizer, threshold) = (encoder.quantizer(), encoder.threshold());
        let encoded = cols
            .into_iter()
            .map(|(name, vals)| Column::new(name, encoder.encode(vals)))
            .collect();
        let encoded = DataFrame::from_columns(encoded);

        self.qcache.invalidate(intermediate_id);
        let policy = PlacementPolicy::ByIntermediate;
        let bytes = self.store_frame(intermediate_id, &encoded, 0, policy, true)?;

        // Re-index the re-encoded representation (decoding it exactly as the
        // read path will) so indexed answers stay bit-identical after the
        // demotion.
        if had_index {
            self.index_observe_frame(intermediate_id, &encoded, next, quantizer.as_deref());
        }

        let m = self.meta.intermediate_mut(intermediate_id).unwrap();
        m.scheme = CaptureScheme {
            value: next,
            pool_sigma: meta.scheme.pool_sigma,
        };
        m.stored_bytes = bytes;
        m.quantizer = quantizer;
        m.threshold = threshold;
        if had_index {
            // Finish after the metadata mutation: the persisted file pins
            // the *new* scheme and row count for staleness checks.
            self.index_finish_build(intermediate_id);
        }
        sp.finish();
        Ok(bytes)
    }

    /// Re-encode every chunk of an intermediate as a base+delta frame where
    /// the store finds a similar enough base and the frame wins — the
    /// reclaim rung between THRESHOLD_QT and purge. Keys, schemes, and read
    /// answers are untouched (rehydration is transparent); only the physical
    /// representation shrinks. Returns the summed stored bytes afterwards.
    fn reencode_delta(&mut self, intermediate_id: &str) -> Result<u64, MistiqueError> {
        let meta = self.meta.intermediate(intermediate_id).unwrap().clone();
        let mut sp = mistique_obs::span!(self.obs, "reclaim.delta", interm = intermediate_id);
        // Cached query results hold decoded values; they stay correct, but
        // invalidating keeps the cache's byte accounting honest with the
        // relocated chunks.
        self.qcache.invalidate(intermediate_id);
        let blocks = meta.n_rows.div_ceil(self.config.row_block_size).max(1);
        let mut bytes = 0u64;
        for column in &meta.columns {
            for block in 0..blocks {
                let key = ChunkKey::new(intermediate_id, column, block as u32);
                match self.store.reencode_as_delta(&key) {
                    Ok(len) => bytes += len,
                    // Ragged intermediates may miss trailing blocks.
                    Err(mistique_store::StoreError::NotFound) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        let m = self.meta.intermediate_mut(intermediate_id).unwrap();
        m.delta_encoded = true;
        m.stored_bytes = bytes;
        sp.attr("bytes_after", bytes);
        sp.finish();
        Ok(bytes)
    }

    /// Purge a materialized intermediate: retract every chunk from the store
    /// and flip `materialized = false`. Future fetches transparently re-run
    /// the model, and the ordinary γ test may re-promote it. The last stored
    /// size is kept as the γ size estimate. Returns the bytes whose last
    /// reference was released (they become dead until compaction).
    pub fn purge_intermediate(&mut self, intermediate_id: &str) -> Result<u64, MistiqueError> {
        let meta = self
            .meta
            .intermediate(intermediate_id)
            .ok_or_else(|| MistiqueError::UnknownIntermediate(intermediate_id.into()))?;
        if !meta.materialized {
            return Ok(0);
        }
        let mut sp = mistique_obs::span!(self.obs, "reclaim.purge", interm = intermediate_id);
        self.qcache.invalidate(intermediate_id);
        let outcome = self.store.retract_intermediate(intermediate_id);
        let m = self.meta.intermediate_mut(intermediate_id).unwrap();
        m.materialized = false;
        m.quantizer = None;
        m.threshold = None;
        // A re-materialized copy starts raw; the ladder may delta it again.
        m.delta_encoded = false;
        // An index over purged data is pure garbage; drop it with the data.
        self.index_drop(intermediate_id);
        sp.attr("bytes_released", outcome.bytes_released);
        sp.finish();
        Ok(outcome.bytes_released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_descends_to_purge() {
        let mut s = ValueScheme::Full;
        let mut names = vec![s.name()];
        while let Some(n) = next_demotion(s) {
            s = n;
            names.push(s.name());
        }
        assert_eq!(names, vec!["FULL", "LP_QT", "8BIT_QT", "THRESHOLD_QT"]);
        assert!(next_demotion(s).is_none(), "threshold is the last rung");
    }
}
