//! The store's layout is a function of every similarity answer: which open
//! partition a TRAD chunk joins, which stored chunk a new one is a delta
//! against. A probe that returns a different item than before moves a
//! partition file or a counter here, in seconds, instead of showing up as a
//! `stored_ratio` drift in a benchmark run. The `StoreStats` below were
//! recorded on the commit before the LSH index was rebuilt around dense
//! slots (DESIGN.md §17 "Base selection"); the file lengths were re-recorded
//! when partitions became one member frame per chunk (DESIGN.md §11
//! "Partition file format") — a format change, with every `StoreStats`
//! field unmoved.

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
    109, 9387, 3386, 177, 242, 122, 177, 113, 177, 248, 119, 177, 113, 177, 242, 119,
    177, 113, 177, 177, 120, 177, 113, 177, 242, 119, 177, 113, 177, 245, 122, 177,
    113, 177, 242, 122, 177, 113, 177, 242, 122, 177, 113, 177, 242, 115, 177, 113,
    177, 242, 120, 177, 113, 177, 245, 120, 177, 113, 177, 242, 115, 177, 113, 177,
    177, 122, 177, 113, 177, 248, 115, 177, 113, 177, 177, 120, 177, 113, 177, 251,
    119, 177, 120, 177, 241, 115, 177, 119, 177, 429, 120, 177, 119, 177, 248, 120,
    177, 119, 177, 251, 120, 177, 119, 177, 242, 122, 177, 119, 177, 248, 122, 177,
    119, 177, 242, 122, 177, 119, 177, 251, 120, 177, 119, 177, 242, 117, 177, 646,
    26039, 1651, 98, 83, 119, 119, 119, 119, 119, 119, 119, 83, 110, 86, 110, 177,
    248, 117, 177, 177, 248, 120, 177, 177, 248, 122, 177, 177, 245, 120, 177, 177,
    245, 122, 177, 177, 246, 120, 177, 177, 177, 113, 177, 110, 203, 86, 110, 2911,
    11679, 177, 177, 177, 177, 177, 177, 177, 177, 177, 177, 177, 177, 177, 177, 177,
    177, 177, 177, 177, 177, 177, 177, 177, 177, 177, 110, 177, 177, 177, 177, 177,
    177, 177, 110, 87501, 47156, 11798, 46967, 37762, 10208, 37761, 3090, 1861, 54450, 80780, 21788, 29337,
    23575, 5909, 23575, 3622, 1861,
];
