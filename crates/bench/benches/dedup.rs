//! Micro-benchmarks for hashing, MinHash, and LSH (Sec 4.2).

use std::hint::black_box;

use mistique_bench::micro;
use mistique_dedup::{content_digest, discretize, xxhash64, LshIndex, MinHasher, Signature};
use mistique_rng::Rng;

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

    // A non-degenerate index: 1000 distinct sets, short buckets.
    let mut idx = LshIndex::new(32, 4);
    for i in 0..1000u64 {
        let set: Vec<u64> = (i * 13..i * 13 + 500).collect();
        idx.insert(i, hasher.signature(&set));
    }
    let probe = hasher.signature(&(380u64 * 13..380 * 13 + 500).collect::<Vec<_>>());
    micro("lsh/best_where/distinct_sets/1k", 0, || {
        idx.best_where(black_box(&probe), 0.5, |_| true)
    });

    // Degenerate indexes, as DNN activations make them: every item is one
    // of eight base signatures with up to half its lanes replaced, so band
    // buckets hold a fixed share of the index and grow with it. The probe
    // cost that remains is the walk over those buckets.
    let mut rng = Rng::seed(17);
    let bases: Vec<Signature> = (0..8)
        .map(|_| Signature((0..128).map(|_| rng.next_u64()).collect()))
        .collect();
    let mut idx = LshIndex::new(32, 4);
    for (label, n) in [("1k", 1_000u64), ("10k", 10_000), ("100k", 100_000)] {
        for id in idx.len() as u64..n {
            idx.insert(id, mutant(&mut rng, &bases, 64));
        }
        let probes: Vec<Signature> = (0..16).map(|_| mutant(&mut rng, &bases, 12)).collect();
        let mut next = probes.iter().cycle();
        micro(&format!("lsh/best_where/{label}"), 0, || {
            idx.best_where(black_box(next.next().unwrap()), 0.8, |_| true)
        });
        if n <= 10_000 {
            micro(&format!("lsh/query_ranked/{label}"), 0, || {
                idx.query_ranked(black_box(next.next().unwrap()), 0.8)
            });
        }
    }

    // Twin-heavy indexes, as frozen layers and converged checkpoints make
    // them: nine items in ten are exact copies of one of the eight bases.
    // The probe is an exact copy too, so its answer is the oldest twin.
    let sigs: Vec<Signature> = (0..10_000)
        .map(|_| match rng.chance(0.9) {
            true => bases[rng.range(0..bases.len())].clone(),
            false => mutant(&mut rng, &bases, 64),
        })
        .collect();
    let mut idx = LshIndex::new(32, 4);
    for (label, n) in [("1k", 1_000u64), ("10k", 10_000)] {
        for id in idx.len() as u64..n {
            idx.insert(id, sigs[id as usize].clone());
        }
        let mut next = bases.iter().cycle();
        micro(&format!("lsh/best_where/twins/{label}"), 0, || {
            idx.best_where(black_box(next.next().unwrap()), 0.8, |_| true)
        });
    }
    // One iteration builds the whole 10k index.
    micro("lsh/insert/twins/10k", 0, || {
        let mut idx = LshIndex::new(32, 4);
        for (id, sig) in sigs.iter().enumerate() {
            idx.insert(id as u64, black_box(sig.clone()));
        }
        idx.len()
    });
}

/// One of `bases` with up to `max_lanes` lanes replaced.
fn mutant(rng: &mut Rng, bases: &[Signature], max_lanes: usize) -> Signature {
    let mut sig = bases[rng.range(0..bases.len())].clone();
    for _ in 0..rng.range(0..=max_lanes) {
        sig.0[rng.range(0..128usize)] = rng.next_u64();
    }
    sig
}
