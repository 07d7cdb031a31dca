//! Logging a shared DNN prefix once (DESIGN.md §2 "Logging a shared prefix
//! once").
//!
//! Under Dedup every logged layer carries a **chain digest**: H(the previous
//! layer's digest, every field of the layer), rooted at the dataset's
//! content digest. Equal chains mean equal activations, checked against the
//! weight bytes themselves, never against `frozen_prefix`. While a layer's
//! chain names a stored intermediate that qualifies (materialized, this
//! log's capture scheme, the same row count and stored shape), the layer is
//! logged by binding its chunk keys to that intermediate's chunks: the
//! ledger state, and the accounting, an exact-dedup put of the same bytes
//! leaves. The forward then resumes after the deepest bound layer whose
//! stored rows are the activation itself.

use mistique_dataframe::ColumnChunk;
use mistique_dedup::{content_digest, ContentDigest};
use mistique_nn::{CifarLike, Model, Tensor};
use mistique_store::ChunkKey;

use crate::capture::{CaptureScheme, LayerCapture};
use crate::error::MistiqueError;
use crate::metadata::IntermediateMeta;
use crate::system::Mistique;

/// Image values hashed per step of the dataset digest: the bytes of one
/// step are built in a reused buffer instead of copying the whole tensor.
const DATASET_PIECE: usize = 1 << 14;

/// Every layer's chain digest, in layer order.
pub(crate) fn layer_chains(model: &Model, data: &CifarLike) -> Vec<(u64, u64)> {
    let mut buf = Vec::new();
    let mut prev = dataset_digest(data, &mut buf);
    model
        .layers
        .iter()
        .map(|nl| {
            buf.clear();
            push_digest(&mut buf, prev);
            nl.layer.write_identity(&mut buf);
            prev = content_digest(&buf);
            (prev.0, prev.1)
        })
        .collect()
}

/// The content digest of the dataset's images, which are all a forward
/// reads: their shape, then their bits, chained piece by piece.
fn dataset_digest(data: &CifarLike, buf: &mut Vec<u8>) -> ContentDigest {
    let images = &data.images;
    buf.clear();
    for dim in [images.n, images.c, images.h, images.w] {
        buf.extend_from_slice(&(dim as u64).to_le_bytes());
    }
    let mut prev = content_digest(buf);
    for piece in images.data.chunks(DATASET_PIECE) {
        buf.clear();
        push_digest(buf, prev);
        buf.extend(piece.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        prev = content_digest(buf);
    }
    prev
}

fn push_digest(buf: &mut Vec<u8>, d: ContentDigest) {
    buf.extend_from_slice(&d.0.to_le_bytes());
    buf.extend_from_slice(&d.1.to_le_bytes());
}

impl Mistique {
    /// Bind the leading layers of a DNN log whose chain digest names a
    /// qualifying stored intermediate, layer by layer, stopping at the first
    /// that has none. Returns each bound layer's source and the stored bytes
    /// its keys now hold, in layer order.
    pub(crate) fn bind_prefix(
        &mut self,
        interm_ids: &[String],
        chains: &[(u64, u64)],
        n_rows: usize,
        capture: CaptureScheme,
        captures: &[LayerCapture],
    ) -> Vec<(IntermediateMeta, u64)> {
        let mut bound = Vec::new();
        for ((id, &chain), layer) in interm_ids.iter().zip(chains).zip(captures) {
            let shape = Some(layer.stored_shape());
            let source = self.meta.with_chain(chain).into_iter().find(|m| {
                m.id != *id
                    && m.materialized
                    && m.scheme == capture
                    && m.n_rows == n_rows
                    && m.shape == shape
            });
            let Some(source) = source.cloned() else {
                break;
            };
            let binds = self.binds_to(id, &source);
            let Some(stored) = self.store.bind_chunks(binds) else {
                break;
            };
            bound.push((source, stored));
        }
        bound
    }

    /// Every chunk key of `id` paired with `source`'s key of the same column
    /// and block, and the serialized length a put of that chunk is charged.
    fn binds_to(&self, id: &str, source: &IntermediateMeta) -> Vec<(ChunkKey, ChunkKey, u64)> {
        let rbs = self.config.row_block_size;
        let dtype = source.scheme.value.dtype();
        let mut binds = Vec::new();
        for block in 0..source.n_rows.div_ceil(rbs) {
            let rows = rbs.min(source.n_rows - block * rbs);
            let len = ColumnChunk::serialized_len(dtype, rows).expect("captures are fixed-width");
            for column in &source.columns {
                let key = |of: &str| ChunkKey::new(of, column.as_str(), block as u32);
                binds.push((key(id), key(&source.id), len));
            }
        }
        binds
    }

    /// The stored rows of `layer`, a logged intermediate that stores its
    /// activation exactly ([`LayerCapture::exact`]), as the activation
    /// tensor of shape `shape` a forward resumed after it takes. Read at
    /// store level through the reader's block decoder: no query, no γ tick,
    /// no audit or query-cache entry.
    pub(crate) fn stored_activation(
        &mut self,
        layer: &IntermediateMeta,
        shape: (usize, usize, usize),
    ) -> Result<Tensor, MistiqueError> {
        let (c, h, w) = shape;
        let features = layer.columns.len();
        if features != c * h * w {
            return Err(MistiqueError::Invalid(format!(
                "{} stores {features} features, not the {c}x{h}x{w} activation",
                layer.id
            )));
        }
        let blocks: Vec<usize> = (0..layer.n_rows.div_ceil(self.config.row_block_size)).collect();
        let columns = self.read_column_blocks(layer, &layer.columns, &blocks)?;
        let mut data = vec![0f32; layer.n_rows * features];
        for (j, column) in columns.iter().enumerate() {
            for (row, v) in column.iter().enumerate() {
                // FULL values decode f32 -> f64 exactly, so the cast back
                // returns the stored bits.
                data[row * features + j] = *v as f32;
            }
        }
        Ok(Tensor::from_vec(layer.n_rows, c, h, w, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_nn::{vgg16_cifar, Layer};

    #[test]
    fn one_weight_moves_the_chain_from_its_layer_on() {
        let model = Model::build(&vgg16_cifar(32), 4, 0);
        let data = CifarLike::generate(6, 10, 1);
        let chains = layer_chains(&model, &data);
        assert_eq!(chains, layer_chains(&model, &data), "deterministic");

        let mut nudged = model.clone();
        let Layer::Conv2d { weights, .. } = &mut nudged.layers[6].layer else {
            panic!("layer7 is a conv");
        };
        weights[3] = f32::from_bits(weights[3].to_bits() ^ 1);
        let moved = layer_chains(&nudged, &data);
        assert_eq!(chains[..6], moved[..6]);
        for (a, b) in chains.iter().zip(&moved).skip(6) {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn the_chain_is_rooted_at_the_images() {
        let model = Model::build(&vgg16_cifar(32), 4, 0);
        let data = CifarLike::generate(6, 10, 1);
        let chains = layer_chains(&model, &data);
        let mut other = data.clone();
        other.images.data[5] = f32::from_bits(other.images.data[5].to_bits() ^ 1);
        let moved = layer_chains(&model, &other);
        assert!(chains.iter().zip(&moved).all(|(a, b)| a != b));
        // Labels feed no activation.
        let mut relabelled = data.clone();
        relabelled.labels[0] ^= 1;
        assert_eq!(layer_chains(&model, &relabelled), chains);
    }
}
