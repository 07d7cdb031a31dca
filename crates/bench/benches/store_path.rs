//! Micro-benchmarks for the DataStore write and read paths, for sealing
//! and compacting one partition, for logging one DNN checkpoint into a
//! fresh store: with nothing stored before it, and after a checkpoint that
//! shares its frozen prefix (DESIGN.md §2 "Logging a shared prefix once"),
//! for what the audit journal adds to a warm query, and for whole-layer
//! reads of a logged CNN, cold and warm.

use std::hint::black_box;
use std::sync::Arc;

use mistique_bench::{micro, micro_fresh};
use mistique_compress::{compress_auto_within, lzss};
use mistique_core::{FetchStrategy, Mistique, MistiqueConfig};
use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_dedup::content_digest;
use mistique_nn::{simple_cnn, vgg16_cifar, CifarLike};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_rng::Rng;
use mistique_store::{ChunkKey, DataStore, DataStoreConfig, Partition, PlacementPolicy};

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

    load_cold();
    seal_and_compact();
    log_checkpoints();
    warm_col_queries();
    frame_reads();
}

/// `store/load_cold/*`: one cold get from a ~1 MiB partition of 128
/// 1000-row columns, the read cache cleared each iteration — `one_col`
/// asks for one column, `whole` for all of them. Both read the whole file;
/// `one_col` verifies and decodes the head and one member, `whole` every
/// member. `one_col_2500` asks for one column of a ~1 MiB partition of
/// 2,500 50-row columns (the shape of a DNN log's partitions), where
/// opening the file — its directory and digest index — is most of the
/// read. MB/s is over the file's bytes.
fn load_cold() {
    let dir = mistique_testkit::tempdir().unwrap();
    let config = DataStoreConfig {
        policy: PlacementPolicy::ByIntermediate,
        ..DataStoreConfig::default()
    };
    let mut store = DataStore::open(dir.path(), config).unwrap();
    let keys: Vec<ChunkKey> = (0..128)
        .map(|c| ChunkKey::new("m.i", format!("c{c}"), 0))
        .collect();
    for (c, key) in keys.iter().enumerate() {
        store
            .put_chunk(key.clone(), &chunk(c as u64, 1000))
            .unwrap();
    }
    store.flush().unwrap();
    let file = store.disk_bytes().unwrap();
    assert!(file > 1 << 19, "one ~1 MiB partition, got {file} B");
    micro("store/load_cold/one_col", file, || {
        store.clear_read_cache();
        store.get_chunk(black_box(&keys[64])).unwrap()
    });
    micro("store/load_cold/whole", file, || {
        store.clear_read_cache();
        store.get_chunk_bytes_batch(black_box(&keys), 1).unwrap()
    });

    let dir = mistique_testkit::tempdir().unwrap();
    let config = DataStoreConfig {
        policy: PlacementPolicy::ByIntermediate,
        delta_enabled: false,
        partition_target_bytes: 2 << 20,
        ..DataStoreConfig::default()
    };
    let mut store = DataStore::open(dir.path(), config).unwrap();
    let keys: Vec<ChunkKey> = (0..2500)
        .map(|c| ChunkKey::new("m.i", format!("c{c}"), 0))
        .collect();
    for (c, key) in keys.iter().enumerate() {
        store.put_chunk(key.clone(), &chunk(c as u64, 50)).unwrap();
    }
    store.flush().unwrap();
    assert_eq!(store.stats().partitions_created, 1, "one partition");
    let file = store.disk_bytes().unwrap();
    micro("store/load_cold/one_col_2500", file, || {
        store.clear_read_cache();
        store.get_chunk(black_box(&keys[1250])).unwrap()
    });
}

/// `partition/{seal,compact}/256x4096`: one partition of 256 4 KiB
/// members, dense and half-zero f32 activations alternating, framed as
/// puts frame them. `seal` assembles its file (directory, container,
/// hashes, trailer); `compact` verifies that file and copies every other
/// member's frame into a new one. Neither runs a codec. MB/s is over the
/// members' raw bytes for `seal` and over the file's bytes for `compact`.
fn seal_and_compact() {
    let (n, len) = (256, 4096);
    let mut rng = Rng::seed(0x5ea1);
    let mut enc = lzss::Encoder::default();
    let mut part = Partition::new(0);
    let mut digests = Vec::with_capacity(n);
    for i in 0..n {
        let zeros = if i % 2 == 0 { 0.0 } else { 0.5 };
        let member: Vec<u8> = (0..len / 4)
            .flat_map(|_| {
                let v = if rng.chance(zeros) {
                    0.0
                } else {
                    rng.range(0.0..4.0f32)
                };
                v.to_le_bytes()
            })
            .collect();
        let digest = content_digest(&member);
        let frame = compress_auto_within(&member, usize::MAX, &mut enc).expect("unbounded");
        part.add(digest, frame);
        digests.push(digest);
    }
    micro(
        &format!("partition/seal/{n}x{len}"),
        (n * len) as u64,
        || part.seal(),
    );
    let sealed = part.seal();
    let live: Vec<_> = digests.iter().copied().step_by(2).collect();
    micro_fresh(
        &format!("partition/compact/{n}x{len}"),
        sealed.len() as u64,
        || sealed.clone(),
        |image| Partition::compacted(0, image, &live).unwrap(),
    );
}

/// `query/warm_col/*`: a warm 100-row, one-column `get_intermediate`,
/// round-robin over the first intermediate of four logged Zillow
/// pipelines, with the audit journal at its default budget
/// (`sidecars_on`) or disabled (`sidecars_off`). The gap is the journal's
/// per-query cost: one audit record each, plus its segment rewrite every 32
/// records.
fn warm_col_queries() {
    let data = Arc::new(ZillowData::generate(1000, 1));
    let defaults = MistiqueConfig::default();
    for (name, audit_budget_bytes) in [
        ("sidecars_on", defaults.audit_budget_bytes),
        ("sidecars_off", 0),
    ] {
        let config = MistiqueConfig {
            audit_budget_bytes,
            ..defaults.clone()
        };
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let mut interms = Vec::new();
        for pipeline in zillow_pipelines().into_iter().take(4) {
            let id = sys.register_trad(pipeline, Arc::clone(&data)).unwrap();
            sys.log_intermediates(&id).unwrap();
            interms.push(sys.intermediates_of(&id)[0].clone());
        }
        let mut i = 0;
        micro(&format!("query/warm_col/{name}"), 0, || {
            i += 1;
            let interm = &interms[i % interms.len()];
            sys.get_intermediate(black_box(interm), Some(&["sqft"]), Some(100))
                .unwrap()
        });
    }
}

/// `log/vgg16_checkpoint/*`: one `vgg16_cifar(8)` checkpoint over 100
/// images, logged and flushed into a fresh store (`first`), or into a fresh
/// store that already holds epoch 0, whose 18 frozen layers it shares
/// (`frozen_prefix`). The flush seals the partitions still open, so every
/// chunk the log stores is sealed inside the timed region. MB/s is over the
/// logical bytes one checkpoint logs.
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
        sys.flush().unwrap();
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

/// `read/frame_{cold,warm}/<layer>`: a whole-intermediate read — every row
/// and column, as KNN, VIS and SVCCA fetch them — of each layer of one
/// `simple_cnn(16)` checkpoint logged over 2,000 images (the benchmark's
/// `dnn_read` shape), through the Read arm of `get_intermediate` (forced,
/// so a recalibrated planner cannot switch arms mid-case). `cold` clears
/// the read cache first, so the layer's partitions come off disk; `warm`
/// finds them cached. The audit journal is off: `query/warm_col/*` prices
/// it. MB/s is over the answer's f64 cells.
fn frame_reads() {
    let config = MistiqueConfig {
        audit_budget_bytes: 0,
        ..MistiqueConfig::default()
    };
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(dir.path(), config).unwrap();
    let data = Arc::new(CifarLike::generate(2000, 10, 1));
    let id = sys
        .register_dnn(Arc::new(simple_cnn(16)), 1, 0, data, 250)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    sys.flush().unwrap();
    for interm in sys.intermediates_of(&id) {
        let layer = interm.rsplit('.').next().unwrap_or(&interm).to_string();
        let read = |sys: &mut Mistique| {
            sys.fetch_with_strategy(black_box(&interm), None, None, FetchStrategy::Read)
                .unwrap()
        };
        let frame = read(&mut sys).frame;
        let bytes = (frame.n_rows() * frame.n_cols() * 8) as u64;
        micro(&format!("read/frame_cold/{layer}"), bytes, || {
            sys.store_mut().clear_read_cache();
            read(&mut sys)
        });
        micro(&format!("read/frame_warm/{layer}"), bytes, || {
            read(&mut sys)
        });
    }
}
