//! The synthetic corpus is a format (DESIGN.md "Deterministic corpus"):
//! every stored ratio, partition file and benchmark number is a property of
//! the bytes these generators emit for a seed, and an audit journal's
//! `(n, seed)` provenance replays to the same inputs only while they do.
//! The digests below were computed on the commit before `mistique-rng`
//! replaced the `rand` stand-in the benchmark had always linked; an edit
//! that moves one has moved the benchmark's corpus.

use mistique_nn::{simple_cnn, CifarLike, Layer, Model};
use mistique_pipeline::ZillowData;

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn zillow_tables_are_pinned() {
    let z = ZillowData::generate(64, 7);
    let words = [&z.properties, &z.train, &z.test]
        .into_iter()
        .flat_map(|frame| frame.columns())
        .flat_map(|col| col.data.to_f64())
        .map(f64::to_bits);
    assert_eq!(
        fnv(words),
        0x02a8_ceb9_3818_adda,
        "ZillowData::generate(64, 7) moved"
    );
}

#[test]
fn cifar_images_are_pinned() {
    let c = CifarLike::generate(8, 10, 7);
    let words = c.images.data.iter().map(|v| u64::from(v.to_bits()));
    assert_eq!(
        fnv(words),
        0xd612_5c90_9e3e_de38,
        "CifarLike::generate(8, 10, 7) moved"
    );
}

#[test]
fn simple_cnn_weights_are_pinned() {
    let model = Model::build(&simple_cnn(8), 11, 1);
    let words = model
        .layers
        .iter()
        .flat_map(|l| match &l.layer {
            Layer::Conv2d { weights, bias, .. } | Layer::Dense { weights, bias, .. } => {
                [weights.as_slice(), bias.as_slice()].concat()
            }
            _ => Vec::new(),
        })
        .map(|v| u64::from(v.to_bits()));
    assert_eq!(
        fnv(words),
        0xde7f_0809_1400_47c0,
        "simple_cnn(8) weights at seed 11, epoch 1 moved"
    );
}
