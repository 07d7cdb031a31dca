//! The store's layout is a function of every similarity answer: which open
//! partition a TRAD chunk joins, which stored chunk a new one is a delta
//! against. A probe that returns a different item than before moves a
//! partition file or a counter here, in seconds, instead of showing up as a
//! `stored_ratio` drift in a benchmark run. The numbers below were recorded
//! on the commit before the LSH index was rebuilt around dense slots
//! (DESIGN.md §17 "Base selection").

use std::path::Path;
use std::sync::Arc;

use mistique_core::{Mistique, MistiqueConfig};
use mistique_nn::{simple_cnn, CifarLike};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::DataStoreConfig;

/// Every `part_*.bin` under `dir`, by name, with its length.
fn partition_files(dir: &Path, out: &mut Vec<(String, u64)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if entry.file_type().unwrap().is_dir() {
            partition_files(&entry.path(), out);
        } else if name.starts_with("part_") && name.ends_with(".bin") {
            out.push((name, entry.metadata().unwrap().len()));
        }
    }
}

#[test]
fn similarity_answers_leave_the_layout_unchanged() {
    let dir = mistique_testkit::tempdir().unwrap();
    // Small partitions, so some seal while logging goes on: placement must
    // skip them and delta bases must be probed off disk.
    let config = MistiqueConfig {
        row_block_size: 16,
        datastore: DataStoreConfig {
            partition_target_bytes: 128 << 10,
            ..DataStoreConfig::default()
        },
        ..MistiqueConfig::default()
    };
    let mut sys = Mistique::open(dir.path(), config).unwrap();

    // TRAD: similarity placement and delta probes on every new chunk.
    let zillow = Arc::new(ZillowData::generate(400, 42));
    for p in zillow_pipelines().into_iter().step_by(5).take(6) {
        let id = sys.register_trad(p, Arc::clone(&zillow)).unwrap();
        sys.log_intermediates(&id).unwrap();
    }
    // DNN: two checkpoints of an unfrozen net — nearly every put is new and
    // probes for a delta base among thousands of look-alike activations.
    let cifar = Arc::new(CifarLike::generate(32, 10, 7));
    let arch = Arc::new(simple_cnn(16));
    for epoch in 0..2 {
        let id = sys
            .register_dnn(Arc::clone(&arch), 3, epoch, Arc::clone(&cifar), 16)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
    }
    sys.flush().unwrap();

    let s = sys.store().stats();
    let got = (
        s.unique_bytes,
        s.dedup_hits,
        s.chunks_stored,
        s.partitions_created,
        s.similarity_placements,
        s.delta_puts,
        s.delta_bytes_saved,
    );
    assert_eq!(
        got,
        (501774, 9968, 6966, 229, 543, 326, 22934),
        "StoreStats moved"
    );
    let mut files = Vec::new();
    partition_files(dir.path(), &mut files);
    files.sort();
    let want = PARTITION_LENS
        .iter()
        .enumerate()
        .map(|(id, &len)| (format!("part_{id:08x}.bin"), len));
    assert_eq!(files, want.collect::<Vec<_>>(), "partition files moved");
    sys.store().check_invariants().unwrap();
}

/// Length of `part_{i:08x}.bin`, for every partition the run creates.
#[rustfmt::skip]
const PARTITION_LENS: [u64; 229] = [
    111, 5980, 2291, 168, 230, 117, 168, 114, 168, 236, 114, 168, 112, 168, 230, 114,
    168, 113, 168, 168, 115, 168, 113, 168, 230, 114, 168, 113, 168, 233, 117, 168,
    113, 168, 230, 117, 168, 113, 168, 230, 117, 168, 115, 168, 230, 110, 168, 113,
    168, 230, 115, 168, 113, 168, 233, 115, 168, 113, 168, 230, 110, 168, 113, 168,
    168, 117, 168, 113, 168, 236, 110, 168, 113, 168, 168, 115, 168, 113, 168, 239,
    114, 168, 114, 168, 226, 110, 168, 115, 168, 285, 115, 168, 115, 168, 236, 115,
    168, 115, 168, 234, 115, 168, 115, 168, 230, 117, 168, 115, 168, 236, 117, 168,
    115, 168, 230, 117, 168, 115, 168, 239, 115, 168, 115, 168, 230, 112, 168, 541,
    25208, 1268, 93, 80, 115, 115, 115, 115, 115, 115, 115, 80, 103, 82, 103, 168,
    231, 112, 168, 168, 236, 115, 168, 168, 231, 117, 168, 168, 233, 114, 168, 168,
    233, 117, 168, 168, 228, 115, 168, 168, 168, 108, 168, 103, 147, 82, 103, 2852,
    5093, 168, 168, 168, 168, 168, 168, 168, 168, 168, 168, 168, 168, 168, 168, 168,
    168, 168, 168, 168, 168, 168, 168, 168, 168, 168, 103, 168, 168, 168, 168, 168,
    168, 168, 103, 73805, 45673, 11407, 45584, 37040, 9894, 37040, 2868, 1795, 44877, 69181, 19420, 28732,
    22800, 5711, 22800, 3524, 1795,
];
