//! Micro-benchmarks for the compression codecs.

use std::hint::black_box;

use mistique_bench::micro;
use mistique_compress::{compress, compress_auto, decompress, lzss, Scheme};
use mistique_rng::Rng;

fn workloads() -> Vec<(&'static str, Vec<u8>)> {
    let mut rng = Rng::seed(0x1234_5678_9abc_def0);
    let n = 256 * 1024;
    let random: Vec<u8> = (0..n).map(|_| rng.range(0..=u8::MAX)).collect();
    let constant = vec![42u8; n];
    let text: Vec<u8> = b"intermediate activation tensors compress well "
        .iter()
        .cycle()
        .take(n)
        .copied()
        .collect();
    let sorted_ids: Vec<u8> = (0..n as u32 / 4).flat_map(|i| i.to_le_bytes()).collect();
    vec![
        ("random", random),
        ("constant", constant),
        ("text", text),
        ("sorted_ids", sorted_ids),
    ]
}

fn main() {
    for (name, data) in workloads() {
        let bytes = data.len() as u64;
        for scheme in [Scheme::Rle, Scheme::Lzss, Scheme::Delta4] {
            micro(&format!("codec/{name}/compress/{scheme:?}"), bytes, || {
                compress(black_box(&data), scheme)
            });
            let frame = compress(&data, scheme);
            micro(
                &format!("codec/{name}/decompress/{scheme:?}"),
                bytes,
                || decompress(black_box(&frame)).unwrap(),
            );
        }
        micro(&format!("codec/{name}/compress/auto"), bytes, || {
            compress_auto(black_box(&data))
        });
    }
    // Partition members: one chunk-sized LZSS input per call, where setting
    // up the match finder's tables, not scanning the input, can dominate.
    // Activation-like bytes: f32 values with a little repetition.
    let mut rng = Rng::seed(0x400);
    for len in [400usize, 4096] {
        let data: Vec<u8> = (0..len / 4)
            .flat_map(|_| (rng.range(0..64u32) as f32 * 0.125).to_le_bytes())
            .collect();
        micro(&format!("codec/lzss/compress/{len}"), len as u64, || {
            lzss::compress(black_box(&data))
        });
    }
}
