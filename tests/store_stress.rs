//! Randomized stress test of the DataStore: a mixed workload of puts
//! (duplicates, near-duplicates, unrelated data, mixed dtypes) under a tiny
//! buffer pool, then every key read back — warm, cold, and after reopen.

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig};
use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_rng::Rng;
use mistique_store::{ChunkKey, DataStore, DataStoreConfig, PlacementPolicy};

fn random_chunk(rng: &mut Rng, base: &[f64]) -> ColumnChunk {
    match rng.range(0..5) {
        0 => {
            // Exact duplicate of the base column.
            ColumnChunk::new(ColumnData::F64(base.to_vec()))
        }
        1 => {
            // Near-duplicate: one perturbed value.
            let mut v = base.to_vec();
            let i = rng.range(0..v.len());
            v[i] += 0.001;
            ColumnChunk::new(ColumnData::F64(v))
        }
        2 => {
            let v: Vec<f64> = (0..base.len()).map(|_| rng.range(-1e6..1e6)).collect();
            ColumnChunk::new(ColumnData::F64(v))
        }
        3 => {
            let v: Vec<u8> = (0..base.len()).map(|_| rng.range(0..=u8::MAX)).collect();
            ColumnChunk::new(ColumnData::U8(v))
        }
        _ => {
            let v: Vec<i64> = (0..base.len()).map(|_| rng.range(-1000..1000)).collect();
            ColumnChunk::new(ColumnData::I64(v))
        }
    }
}

#[test]
fn mixed_workload_under_eviction_pressure() {
    let dir = mistique_testkit::tempdir().unwrap();
    let config = DataStoreConfig {
        policy: PlacementPolicy::BySimilarity { tau: 0.6 },
        // Tiny pool + small partitions: constant eviction and sealing.
        mem_capacity: 32 << 10,
        partition_target_bytes: 8 << 10,
        ..DataStoreConfig::default()
    };
    let mut store = DataStore::open(dir.path(), config).unwrap();

    let mut rng = Rng::seed(77);
    let base: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();

    let mut written: Vec<(ChunkKey, ColumnChunk)> = Vec::new();
    for i in 0..300 {
        let chunk = random_chunk(&mut rng, &base);
        let key = ChunkKey::new(
            format!("m{}.i{}", i % 7, i % 13),
            format!("c{i}"),
            (i % 3) as u32,
        );
        store.put_chunk(key.clone(), &chunk).unwrap();
        written.push((key, chunk));
    }

    // Warm reads: every key returns its exact chunk.
    for (key, chunk) in &written {
        assert_eq!(&store.get_chunk(key).unwrap(), chunk, "warm {key:?}");
    }

    // Cold reads after flushing everything to disk.
    store.flush().unwrap();
    store.clear_read_cache();
    for (key, chunk) in &written {
        assert_eq!(&store.get_chunk(key).unwrap(), chunk, "cold {key:?}");
    }
    store.check_invariants().unwrap();

    // Catalog export/import into a fresh store over the same directory.
    let catalog = store.export_catalog();
    drop(store);
    let mut reopened = DataStore::open(
        dir.path(),
        DataStoreConfig {
            policy: PlacementPolicy::BySimilarity { tau: 0.6 },
            ..DataStoreConfig::default()
        },
    )
    .unwrap();
    reopened.import_catalog(catalog);
    for (key, chunk) in &written {
        assert_eq!(&reopened.get_chunk(key).unwrap(), chunk, "reopened {key:?}");
    }
    reopened.check_invariants().unwrap();

    // Accounting sanity: duplicates were deduped, all bytes accounted.
    let stats = reopened.stats();
    assert!(
        stats.dedup_hits > 0,
        "exact duplicates in the workload must dedup"
    );
    assert!(stats.unique_bytes <= stats.logical_bytes);
    assert_eq!(stats.chunks_stored + stats.dedup_hits, 300);
}

#[test]
fn parallel_read_stored_is_byte_identical_to_serial() {
    // Cold reads through the concurrent read path must reproduce the serial
    // result bit-for-bit at every worker count (including 0 = one per CPU).
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
    let data = Arc::new(ZillowData::generate(400, 7));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    sys.store_mut().flush().unwrap();

    for interm in sys.intermediates_of(&id) {
        sys.set_read_parallelism(1);
        sys.store_mut().clear_read_cache();
        let serial = sys
            .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
            .unwrap()
            .frame;
        for workers in [2usize, 4, 0] {
            sys.set_read_parallelism(workers);
            sys.store_mut().clear_read_cache();
            let par = sys
                .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                .unwrap()
                .frame;
            assert_eq!(serial.n_rows(), par.n_rows(), "{interm} workers={workers}");
            for col in serial.columns() {
                let a = col.data.to_f64();
                let b = par.column(&col.name).unwrap().data.to_f64();
                assert_eq!(a.len(), b.len(), "{interm} col {}", col.name);
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{interm} col {} row {i} workers={workers}",
                        col.name
                    );
                }
            }
        }
    }

    // The sparse row-fetch path shares the same fan-out: spot-check it too.
    let interm = sys.intermediates_of(&id).pop().unwrap();
    let n_rows = sys.metadata().intermediate(&interm).unwrap().n_rows;
    let rows = [0, 7, n_rows / 2, n_rows - 1];
    sys.set_read_parallelism(1);
    sys.store_mut().clear_read_cache();
    let serial = sys.get_rows(&interm, &rows, None).unwrap().frame;
    sys.set_read_parallelism(4);
    sys.store_mut().clear_read_cache();
    let par = sys.get_rows(&interm, &rows, None).unwrap().frame;
    assert_eq!(serial.n_rows(), par.n_rows());
    for col in serial.columns() {
        let a = col.data.to_f64();
        let b = par.column(&col.name).unwrap().data.to_f64();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "get_rows col {}", col.name);
        }
    }
    sys.store().check_invariants().unwrap();
}

#[test]
fn same_key_rewritten_with_new_content_resolves_to_latest() {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut store = DataStore::open(dir.path(), DataStoreConfig::default()).unwrap();
    let key = ChunkKey::new("m.i", "c", 0);
    let first = ColumnChunk::new(ColumnData::F64(vec![1.0, 2.0]));
    let second = ColumnChunk::new(ColumnData::F64(vec![3.0, 4.0]));
    store.put_chunk(key.clone(), &first).unwrap();
    store.put_chunk(key.clone(), &second).unwrap();
    assert_eq!(store.get_chunk(&key).unwrap(), second);
    store.check_invariants().unwrap();
}
