//! Micro-benchmarks for the DataStore write and read paths.

use std::hint::black_box;

use mistique_bench::micro;
use mistique_dataframe::{ColumnChunk, ColumnData};
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
}
