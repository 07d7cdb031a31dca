//! Micro-benchmarks for the DataStore write and read paths, and for logging
//! one DNN checkpoint into a fresh store: with nothing stored before it, and
//! after a checkpoint that shares its frozen prefix (DESIGN.md §2 "Logging
//! a shared prefix once").

use std::hint::black_box;
use std::sync::Arc;

use mistique_bench::{micro, micro_fresh};
use mistique_core::{Mistique, MistiqueConfig};
use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_nn::{vgg16_cifar, CifarLike};
use mistique_rng::Rng;
use mistique_store::{ChunkKey, DataStore, DataStoreConfig, PlacementPolicy};

fn chunk(seed: u64, rows: usize) -> ColumnChunk {
    let mut rng = Rng::seed(seed);
    let values = (0..rows).map(|_| rng.range(0.0..200.0)).collect();
    ColumnChunk::new(ColumnData::F64(values))
}

fn main() {
    let rows = 1000;
    let bytes = (rows * 8) as u64;

    for (name, policy) in [
        ("by_intermediate", PlacementPolicy::ByIntermediate),
        ("by_similarity", PlacementPolicy::BySimilarity { tau: 0.6 }),
    ] {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut store = DataStore::open(
            dir.path(),
            DataStoreConfig {
                policy,
                ..DataStoreConfig::default()
            },
        )
        .unwrap();
        let mut i = 0u64;
        micro(&format!("store/put_chunk/{name}"), bytes, || {
            i += 1;
            let ch = chunk(i, rows);
            store
                .put_chunk(ChunkKey::new("m.i", format!("c{i}"), 0), black_box(&ch))
                .unwrap()
        });
    }

    // Warm read from the buffer pool.
    let dir = mistique_testkit::tempdir().unwrap();
    let mut store = DataStore::open(dir.path(), DataStoreConfig::default()).unwrap();
    let key = ChunkKey::new("m.i", "c", 0);
    store.put_chunk(key.clone(), &chunk(1, rows)).unwrap();
    micro("store/get_chunk/warm", bytes, || {
        store.get_chunk(black_box(&key)).unwrap()
    });

    // Cold read: flushed to disk, cache cleared each iteration.
    store.flush().unwrap();
    micro("store/get_chunk/cold_disk", bytes, || {
        store.clear_read_cache();
        store.get_chunk(black_box(&key)).unwrap()
    });

    log_checkpoints();
}

/// `log/vgg16_checkpoint/*`: one `vgg16_cifar(8)` checkpoint over 100
/// images, logged into a fresh store (`first`), or into a fresh store that
/// already holds epoch 0, whose 18 frozen layers it shares
/// (`frozen_prefix`). MB/s is over the logical bytes one checkpoint logs.
fn log_checkpoints() {
    let arch = Arc::new(vgg16_cifar(8));
    let data = Arc::new(CifarLike::generate(100, 10, 1));
    let register = |sys: &mut Mistique, epoch| {
        sys.register_dnn(Arc::clone(&arch), 1, epoch, Arc::clone(&data), 32)
            .unwrap()
    };
    let fresh = |logged: &[u32], next: u32| {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
        for &epoch in logged {
            let id = register(&mut sys, epoch);
            sys.log_intermediates(&id).unwrap();
        }
        let id = register(&mut sys, next);
        (dir, sys, id)
    };
    let log = |(dir, mut sys, id): (mistique_testkit::TempDir, Mistique, String)| {
        sys.log_intermediates(&id).unwrap();
        (dir, sys)
    };
    let (_dir, sys) = log(fresh(&[], 0));
    let bytes = sys.store().stats().logical_bytes;
    micro_fresh("log/vgg16_checkpoint/first", bytes, || fresh(&[], 0), log);
    micro_fresh(
        "log/vgg16_checkpoint/frozen_prefix",
        bytes,
        || fresh(&[0], 1),
        log,
    );
}
