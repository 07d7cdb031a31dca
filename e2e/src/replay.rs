//! Replay of the read stack, layer by layer (traced runs only).
//!
//! After the facade call of a query has been timed, the same keys are
//! pushed through the public functions of the crates below `core` — store,
//! backend, compress, dataframe, quantize, linalg — with a span around each
//! call. A layer's `.ns` is the sum of its spans; its `.share` divides that
//! by the summed facade time of the operations replayed, and
//! `core.glue.share` is what the layers leave unexplained, so a replay that
//! does not follow the engine shows as a large (or negative) glue.

use std::path::Path;

use mistique_compress::{basedelta, decompress};
use mistique_core::capture::decode_column;
use mistique_core::diagnostics::frame_to_matrix;
use mistique_core::{IntermediateMeta, MistiqueConfig};
use mistique_dataframe::{ColumnChunk, DataFrame};
use mistique_dedup::{content_digest, ContentDigest};
use mistique_store::{ChunkKey, DiskStore, Partition, PartitionId};

use crate::ops::{Op, Refs};
use crate::run::Env;
use crate::trace::Tracer;

#[derive(Default)]
pub struct ReadReplay {
    /// The engine's partition directory, opened a second time for
    /// `DiskStore::read`.
    disk: Option<DiskStore>,
    /// Raw bytes out of the `decompress` calls.
    pub decoded_bytes: u64,
    /// Summed facade time (ns) of the operations that were replayed, and of
    /// the diagnostics among them (everything but `get_rows`).
    pub facade_ns: u64,
    pub diag_facade_ns: u64,
}

fn partition_id_of(path: &Path) -> Option<PartitionId> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("part_")?.strip_suffix(".bin")?;
    PartitionId::from_str_radix(hex, 16).ok()
}

/// The RowBlocks of `meta` the operation has to read.
fn blocks_of(op: &Op, meta: &IntermediateMeta, refs: &Refs, rbs: usize) -> Vec<usize> {
    let all = || (0..meta.n_rows.div_ceil(rbs)).collect::<Vec<_>>();
    match op {
        Op::Rows { rows, .. } => {
            let mut b: Vec<usize> = rows.iter().map(|r| r / rbs).collect();
            b.sort_unstable();
            b.dedup();
            b
        }
        // What the zone maps keep: blocks with a value above the threshold.
        Op::Pruned {
            interm,
            col,
            threshold,
        } => match refs.get(interm).and_then(|f| f.column(col)) {
            Some(c) => c
                .data
                .to_f64()
                .chunks(rbs)
                .enumerate()
                .filter(|(_, vals)| vals.iter().any(|v| v > threshold))
                .map(|(b, _)| b)
                .collect(),
            None => all(),
        },
        _ => all(),
    }
}

impl ReadReplay {
    /// Replay `op`, whose facade call took `facade_ns`.
    pub fn replay(
        &mut self,
        op: &Op,
        facade_ns: u64,
        env: &mut Env,
        refs: &Refs,
        config: &MistiqueConfig,
        tr: &mut Tracer,
    ) {
        let root = tr.enter("replay.read");
        let rbs = config.row_block_size;
        let mut replayed = false;
        for interm in op.intermediates() {
            let Some(meta) = env.sys.metadata().intermediate(interm).cloned() else {
                continue;
            };
            // A re-run plan reads nothing: there is no read stack to replay.
            if !meta.materialized {
                continue;
            }
            replayed = true;
            let cols: Vec<String> = match op.column() {
                Some(c) => vec![c.to_string()],
                None => meta.columns.clone(),
            };
            let blocks = blocks_of(op, &meta, refs, rbs);
            self.replay_fetch(env, tr, &meta, &cols, &blocks);
        }
        if !replayed {
            tr.exit(root);
            return;
        }
        self.facade_ns += facade_ns;

        // What the diagnostic adds on top of its fetch: fetch the same
        // arguments alone, cold; the difference is its own compute.
        if !matches!(op, Op::Rows { .. }) {
            self.diag_facade_ns += facade_ns;
            let one = op.column().map(|c| [c]);
            let mut frames: Vec<DataFrame> = Vec::new();
            for interm in op.intermediates() {
                env.sys.store_mut().clear_read_cache();
                let sp = tr.enter("core.fetch");
                let fetched = env
                    .sys
                    .get_intermediate(interm, one.as_ref().map(|c| &c[..]), None);
                tr.exit(sp);
                frames.extend(fetched.ok().map(|f| f.frame));
            }
            if let (Op::Svcca { frac, .. }, [a, b]) = (op, frames.as_slice()) {
                let (ma, mb) = (frame_to_matrix(a), frame_to_matrix(b));
                let sp = tr.enter("linalg.svcca");
                std::hint::black_box(mistique_linalg::svcca(&ma, &mb, *frac));
                tr.exit(sp);
            }
        }
        // The list-served top-k (k ≤ index_top_m): µs-scale, informational.
        if let Op::Topk { interm, col, .. } = op {
            let sp = tr.enter("index.topk");
            let _ = env.sys.topk(interm, col, 10.min(config.index_top_m.max(1)));
            tr.exit(sp);
        }
        tr.exit(root);
    }

    fn replay_fetch(
        &mut self,
        env: &mut Env,
        tr: &mut Tracer,
        meta: &IntermediateMeta,
        cols: &[String],
        blocks: &[usize],
    ) {
        if blocks.is_empty() {
            return;
        }
        // Column-major, as the reader builds them.
        let keys: Vec<ChunkKey> = cols
            .iter()
            .flat_map(|c| {
                blocks
                    .iter()
                    .map(move |&b| ChunkKey::new(meta.id.clone(), c.clone(), b as u32))
            })
            .collect();

        // store: the batched chunk read, cold then warm.
        env.sys.store_mut().clear_read_cache();
        if let Some(fs) = &env.fs {
            fs.take_reads();
        }
        let sp = tr.enter("store.get_batch_cold");
        let raw = env.sys.store_mut().get_chunk_bytes_batch(&keys, 1);
        tr.exit(sp);
        let Ok(raw) = raw else { return };
        let files = env
            .fs
            .as_ref()
            .map(|fs| fs.take_reads())
            .unwrap_or_default();
        let sp = tr.enter("store.get_batch_warm");
        let _ = env.sys.store_mut().get_chunk_bytes_batch(&keys, 1);
        tr.exit(sp);

        // store / backend / compress: each partition file the cold read
        // opened, loaded again through DiskStore::read + Partition::unseal,
        // and its frame decompressed once more on its own.
        let disk = match &mut self.disk {
            Some(d) => d,
            slot => match DiskStore::open(env.dir.path()) {
                Ok(d) => slot.insert(d),
                Err(_) => return,
            },
        };
        let mut parts: Vec<Partition> = Vec::new();
        for path in &files {
            let Some(pid) = partition_id_of(path) else {
                continue;
            };
            let sp = tr.enter("store.partition_load");
            let loaded = disk
                .read(pid)
                .and_then(|sealed| Ok((Partition::unseal(pid, &sealed)?, sealed)));
            tr.exit(sp);
            let Ok((part, sealed)) = loaded else { continue };
            let sp = tr.enter("compress.decode");
            let decoded = decompress(&sealed[..sealed.len() - 8]);
            tr.exit(sp);
            self.decoded_bytes += decoded.map_or(0, |d| d.len() as u64);
            parts.push(part);
        }

        // compress: rehydrate the chunks stored as base+delta frames.
        let stored = |d: ContentDigest| parts.iter().find_map(|p| p.get(d));
        for bytes in &raw {
            let Some(frame) =
                stored(content_digest(bytes)).filter(|f| basedelta::is_delta_frame(f))
            else {
                continue;
            };
            let Some(base) = basedelta::base_digest_of(frame) else {
                continue;
            };
            let Some(base_bytes) = stored(ContentDigest(base.0, base.1)) else {
                continue;
            };
            let sp = tr.enter("compress.basedelta_decode");
            let _ = std::hint::black_box(basedelta::decode(frame, base_bytes, base));
            tr.exit(sp);
        }

        // dataframe / quantize: parse, dequantize, stitch.
        let sp = tr.enter("dataframe.parse");
        let chunks: Vec<ColumnChunk> = raw
            .iter()
            .filter_map(|b| ColumnChunk::from_bytes(b).ok())
            .collect();
        tr.exit(sp);
        if chunks.len() != keys.len() {
            return;
        }
        let sp = tr.enter("quantize.decode");
        for c in &chunks {
            std::hint::black_box(decode_column(
                &c.data,
                meta.scheme.value,
                meta.quantizer.as_deref(),
            ));
        }
        tr.exit(sp);
        let mut it = chunks.into_iter();
        let parts: Vec<(String, Vec<ColumnChunk>)> = cols
            .iter()
            .map(|c| (c.clone(), it.by_ref().take(blocks.len()).collect()))
            .collect();
        let sp = tr.enter("dataframe.assemble");
        std::hint::black_box(DataFrame::from_chunks(parts));
        tr.exit(sp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_ids_parse_from_file_names() {
        assert_eq!(partition_id_of(Path::new("/x/part_0000001f.bin")), Some(31));
        assert_eq!(partition_id_of(Path::new("/x/part_0000001f.bin.tmp")), None);
        assert_eq!(partition_id_of(Path::new("/x/manifest.json")), None);
    }
}
