//! Compaction crash-safety: enumerate (with [`enumerate_crashes`]) a
//! simulated power cut at **every** backend syscall of a compaction pass and
//! assert each partition file is always left in exactly its pre- or
//! post-compaction state — a live chunk is never lost, a file is never torn
//! — and that a completed compaction is durable under every policy.
//!
//! The workload mirrors the reclaim path's discipline: chunk references are
//! retracted *and the catalog exported* before compaction runs, so the
//! catalog used after the simulated restart never references a chunk that
//! compaction may have dropped.
//!
//! A rewrite verifies every byte of the file and copies the live chunks'
//! frames as they are: a damaged file is refused untouched, and a clean
//! pass runs no codec.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use mistique_compress::member_table;
use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_store::datastore::StoreCatalog;
use mistique_store::{
    enumerate_crashes, ChunkKey, DataStore, DataStoreConfig, FaultyFs, PlacementPolicy,
    StorageBackend, StoreError,
};

fn store_config() -> DataStoreConfig {
    DataStoreConfig {
        policy: PlacementPolicy::ByIntermediate,
        mem_capacity: 1 << 20,
        // Large enough that each intermediate's four chunks share one
        // partition (sealed by flush, not by the size trigger).
        partition_target_bytes: 8192,
        // Keep chunks raw so retracting `m.i0` makes its partition fully
        // dead: a delta put would pin one of its chunks as a base and turn
        // the remove path into a rewrite. Crash points with delta frames and
        // pinned bases in play are enumerated in `tests/delta_crash.rs` of
        // the core crate.
        delta_enabled: false,
        ..DataStoreConfig::default()
    }
}

fn chunk(seed: u64) -> ColumnChunk {
    let vals: Vec<f64> = (0..40)
        .map(|i| ((seed.wrapping_mul(131).wrapping_add(i)) % 251) as f64 * 0.25)
        .collect();
    ColumnChunk::new(ColumnData::F64(vals))
}

/// Build the pre-compaction state on `ds`:
/// - `m.i0`..`m.i2`, four blocks each, one partition per intermediate;
/// - `m.i0` fully retracted (its partition becomes 100% dead);
/// - `m.i1` block 0 overwritten (its old partition becomes 75% live).
///
/// Returns the catalog exported *after* retraction (what a crash-safe
/// reclaim persists before compacting) and the expected live reads.
fn build_pre_compaction_state(
    ds: &mut DataStore,
) -> Result<(StoreCatalog, Vec<(ChunkKey, ColumnChunk)>), StoreError> {
    for interm in 0..3u64 {
        for block in 0..4u32 {
            ds.put_chunk(
                ChunkKey::new(format!("m.i{interm}"), "c", block),
                &chunk(interm * 10 + block as u64),
            )?;
        }
    }
    ds.flush()?;
    ds.retract_intermediate("m.i0");
    let replacement = chunk(777);
    ds.put_chunk(ChunkKey::new("m.i1", "c", 0), &replacement)?;
    ds.flush()?;

    let mut live = vec![(ChunkKey::new("m.i1", "c", 0), replacement)];
    for block in 1..4u32 {
        live.push((ChunkKey::new("m.i1", "c", block), chunk(10 + block as u64)));
    }
    for block in 0..4u32 {
        live.push((ChunkKey::new("m.i2", "c", block), chunk(20 + block as u64)));
    }
    Ok((ds.export_catalog(), live))
}

fn open_store(fs: &FaultyFs) -> DataStore {
    DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap()
}

#[test]
fn every_compaction_crash_point_leaves_pre_or_post_state() {
    // The pre-compaction state is setup, not crash points: the catalog a
    // crash-safe reclaim persists before compacting, and the live reads.
    let (pre_catalog, golden_live) =
        build_pre_compaction_state(&mut open_store(&FaultyFs::new())).unwrap();
    let open = |fs: &FaultyFs| {
        let mut ds = open_store(fs);
        build_pre_compaction_state(&mut ds).unwrap();
        ds
    };
    let workload = |ds: &mut DataStore| {
        let report = ds.compact(1.0)?;
        // Reached by the completed run only.
        assert_eq!(report.partitions_removed, 1, "m.i0's partition deleted");
        assert_eq!(report.partitions_rewritten, 1, "m.i1's partition rewritten");
        assert!(report.bytes_reclaimed > 0);
        ds.check_invariants().unwrap();
        Ok::<_, StoreError>(ds.export_catalog())
    };
    let points = enumerate_crashes(open, workload, |fs, point, post_catalog| {
        // "Restart": fresh store over the same disk with the catalog a
        // restart would find (stands in for the persisted manifest): the
        // post-retraction one after a crash, the compacted one after the
        // completed run.
        let completed = point.op.is_none();
        let mut ds = open_store(fs);
        let catalog = if completed {
            post_catalog
        } else {
            &pre_catalog
        };
        ds.import_catalog(catalog.clone());
        let report = ds.recover().unwrap();
        assert_eq!(report.quarantined, 0, "{point} left a torn partition");
        assert!(
            !fs.visible_files()
                .iter()
                .any(|p| p.to_string_lossy().ends_with(".tmp")),
            "recovery must remove every orphan ({point})"
        );
        if completed {
            assert_eq!(
                report.missing, 0,
                "{point}: completed compaction is durable"
            );
            assert_eq!(ds.dead_bytes(), 0, "{point}");
        }

        // The invariant: live chunks survive every crash point. Each
        // partition file is pre- or post-compaction — both states hold every
        // live chunk — so reads must succeed bit-identically.
        for (key, expected) in &golden_live {
            let got = ds
                .get_chunk(key)
                .unwrap_or_else(|e| panic!("{point}: live chunk {key:?} lost: {e}"));
            assert_eq!(&got, expected, "{point}: torn read");
        }
        // Retracted chunks are gone from the catalog: clean NotFound.
        for block in 0..4u32 {
            assert!(matches!(
                ds.get_chunk(&ChunkKey::new("m.i0", "c", block)),
                Err(StoreError::NotFound)
            ));
        }

        ds.check_invariants()
            .unwrap_or_else(|v| panic!("{point}, recovered: {v}"));

        // Re-running compaction from the recovered state finishes the job:
        // no dead bytes remain and live chunks still read.
        ds.compact(1.0).unwrap();
        assert_eq!(ds.dead_bytes(), 0, "{point}");
        ds.clear_read_cache();
        for (key, expected) in &golden_live {
            assert_eq!(&ds.get_chunk(key).unwrap(), expected);
        }
        ds.check_invariants()
            .unwrap_or_else(|v| panic!("{point}, recompacted: {v}"));
    });
    assert!(points > 2, "compaction must exercise the disk");
}

/// A store in the pre-compaction state, over its own disk.
fn pre_compaction_store() -> (FaultyFs, DataStore) {
    let fs = FaultyFs::new();
    let mut ds = open_store(&fs);
    build_pre_compaction_state(&mut ds).unwrap();
    (fs, ds)
}

/// Every visible file's bytes.
fn files(fs: &FaultyFs) -> BTreeMap<PathBuf, Vec<u8>> {
    let read = |p: PathBuf| {
        let bytes = fs.read_file(&p).unwrap();
        (p, bytes)
    };
    fs.visible_files().into_iter().map(read).collect()
}

/// The partition file a compaction pass over the pre-compaction state
/// rewrites (`m.i1`'s old one: three live chunks and a dead one), with its
/// bytes before and after the pass.
fn rewritten_file() -> (PathBuf, Vec<u8>, Vec<u8>) {
    let (fs, mut ds) = pre_compaction_store();
    let before = files(&fs);
    ds.compact(1.0).unwrap();
    let after = files(&fs);
    let mut changed = after.into_iter().filter(|(p, b)| before.get(p) != Some(b));
    let (path, new) = changed.next().expect("one file rewritten");
    assert!(changed.next().is_none(), "only one file rewritten");
    let old = before[&path].clone();
    (path, old, new)
}

/// The member frames of a sealed partition file, directory first.
fn frames(sealed: &[u8]) -> Vec<&[u8]> {
    let container = &sealed[..sealed.len() - 8];
    let ranges = member_table(container).unwrap();
    ranges.into_iter().map(|r| &container[r]).collect()
}

#[test]
fn a_flipped_byte_anywhere_in_the_file_refuses_the_rewrite_and_leaves_it_untouched() {
    let (path, sealed, _) = rewritten_file();
    let container = &sealed[..sealed.len() - 8];
    let ranges = member_table(container).unwrap();
    assert_eq!(ranges.len(), 5, "a directory and four chunk members");
    // The container header, a byte inside every member (the dead one and
    // the three live ones, the directory too) and the trailer.
    let mut flips = vec![0, sealed.len() - 1];
    flips.extend(ranges.iter().map(|r| (r.start + r.end) / 2));
    for at in flips {
        let (fs, mut ds) = pre_compaction_store();
        fs.corrupt_durable(&path, |bytes| bytes[at] ^= 0x10);
        let damaged = fs.read_file(&path).unwrap();
        assert!(
            matches!(ds.compact(1.0), Err(StoreError::CorruptPartition(_))),
            "flip at {at} of {} compacted",
            sealed.len()
        );
        assert_eq!(
            fs.read_file(&path).unwrap(),
            damaged,
            "flip at {at}: file changed"
        );
    }
}

#[test]
fn a_clean_rewrite_copies_the_live_frames_and_runs_no_codec() {
    let (_, old, new) = rewritten_file();
    let (old, new) = (frames(&old), frames(&new));
    assert_eq!(new.len(), 4, "the directory and three live members");
    // Each live member's frame, in its order, byte for byte.
    let mut olds = old[1..].iter();
    for frame in &new[1..] {
        assert!(olds.any(|o| o == frame), "a frame not copied from the file");
    }

    // No codec runs: neither the seal counters (an encode) nor the read
    // counters (a decode) move across the pass.
    let (_, mut ds) = pre_compaction_store();
    let codec_counters = |ds: &DataStore| -> BTreeMap<String, u64> {
        let snap = ds.obs().snapshot();
        snap.counters
            .into_iter()
            .filter(|(k, _)| k.starts_with("compress.") || k.starts_with("read.codec."))
            .collect()
    };
    let before = codec_counters(&ds);
    assert!(
        before.values().any(|&v| v > 0),
        "the setup sealed partitions"
    );
    let report = ds.compact(1.0).unwrap();
    assert_eq!(report.partitions_rewritten, 1);
    assert_eq!(codec_counters(&ds), before);
}
