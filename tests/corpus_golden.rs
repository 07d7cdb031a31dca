//! The synthetic corpus is a format (DESIGN.md "Deterministic corpus"):
//! every stored ratio, partition file and benchmark number is a property of
//! the bytes these generators emit for a seed, and an audit journal's
//! `(n, seed)` provenance replays to the same inputs only while they do.
//! The digests below were computed on the commit before `mistique-rng`
//! replaced the `rand` stand-in the benchmark had always linked; an edit
//! that moves one has moved the benchmark's corpus.

use mistique_nn::{simple_cnn, vgg16_cifar, ArchConfig, CifarLike, Layer, Model};
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

/// FNV over the bits of every layer's activation of `arch` at seed 11,
/// epoch 1. A NaN's sign and payload are not part of the forward pass's
/// contract (an `fadd` may return either operand's NaN), so every NaN is
/// folded to the canonical quiet NaN first.
fn activation_digest(arch: &ArchConfig, images: &mistique_nn::Tensor) -> u64 {
    let model = Model::build(arch, 11, 1);
    let words = model
        .forward_collect(images)
        .into_iter()
        .flat_map(|(_, t)| t.data)
        .map(|v| u64::from(if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() }));
    fnv(words)
}

/// Every activation the store sees is a function of these bits: a forward
/// kernel that reorders one addition moves a hash here, and with it every
/// stored byte of the DNN workloads.
#[test]
fn forward_activations_are_pinned() {
    let images = CifarLike::generate(8, 10, 7).images;
    let got = [
        activation_digest(&simple_cnn(16), &images),
        activation_digest(&vgg16_cifar(8), &images),
    ];
    assert_eq!(
        got,
        [0x5383_55cc_b91c_1188, 0xa4ad_17b1_464d_a05c],
        "simple_cnn(16) / vgg16_cifar(8) activations at seed 11, epoch 1 moved"
    );
}
