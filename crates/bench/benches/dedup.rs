//! Micro-benchmarks for hashing, MinHash, and LSH (Sec 4.2).

use std::hint::black_box;

use mistique_bench::micro;
use mistique_dedup::{content_digest, discretize, xxhash64, LshIndex, MinHasher};

fn main() {
    let data: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    let bytes = data.len() as u64;
    micro("dedup/xxhash64/1MiB", bytes, || {
        xxhash64(black_box(&data), 0)
    });
    micro("dedup/content_digest/1MiB", bytes, || {
        content_digest(black_box(&data))
    });

    let values: Vec<f64> = (0..10_000).map(|i| (i as f64) * 0.37).collect();
    let elements = discretize(&values, 0.05);
    let hasher = MinHasher::new(128);
    micro("minhash/discretize/10k", 0, || {
        discretize(black_box(&values), 0.05)
    });
    micro("minhash/signature/128x10k", 0, || {
        hasher.signature(black_box(&elements))
    });

    // LSH index with 1000 resident signatures.
    let mut idx = LshIndex::new(32, 4);
    for i in 0..1000u64 {
        let set: Vec<u64> = (i * 13..i * 13 + 500).collect();
        idx.insert(i, hasher.signature(&set));
    }
    let probe = hasher.signature(&(380u64 * 13..380 * 13 + 500).collect::<Vec<_>>());
    micro("lsh/query_best/1000_items", 0, || {
        idx.query_best(black_box(&probe), 0.5)
    });
}
