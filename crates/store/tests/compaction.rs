//! Compaction crash-safety: enumerate a simulated power cut at **every**
//! backend syscall of a compaction pass and assert each partition file is
//! always left in exactly its pre- or post-compaction state — a live chunk
//! is never lost, a file is never torn.
//!
//! The workload mirrors the reclaim path's discipline: chunk references are
//! retracted *and the catalog exported* before compaction runs, so the
//! catalog used after the simulated restart never references a chunk that
//! compaction may have dropped.

use std::sync::Arc;

use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_store::datastore::StoreCatalog;
use mistique_store::{
    ChunkKey, DataStore, DataStoreConfig, FaultyFs, PlacementPolicy, StoreError, TornWrite,
};

const POLICIES: [TornWrite; 3] = [TornWrite::DropAll, TornWrite::TornHalf, TornWrite::KeepAll];

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

#[test]
fn every_compaction_crash_point_leaves_pre_or_post_state() {
    // Golden run: how many syscalls the pre-compaction workload and the
    // compaction pass each take (placement is deterministic).
    let (golden_catalog, golden_live, pre_ops, total_ops) = {
        let fs = FaultyFs::new();
        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        let (catalog, live) = build_pre_compaction_state(&mut ds).unwrap();
        let pre_ops = fs.op_count();
        let report = ds.compact(1.0).unwrap();
        assert_eq!(report.partitions_removed, 1, "m.i0's partition deleted");
        assert_eq!(report.partitions_rewritten, 1, "m.i1's partition rewritten");
        assert!(report.bytes_reclaimed > 0);
        ds.check_invariants().unwrap();
        (catalog, live, pre_ops, fs.op_count())
    };
    assert!(total_ops > pre_ops + 2, "compaction must exercise the disk");

    for k in (pre_ops + 1)..=total_ops {
        for policy in POLICIES {
            let fs = FaultyFs::new();
            let mut ds =
                DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
            let (_, _) = build_pre_compaction_state(&mut ds).unwrap();
            fs.crash_after(k);
            let r = ds.compact(1.0);
            assert!(r.is_err(), "crash at op {k} must surface as an error");
            assert!(fs.has_crashed());
            drop(ds);
            fs.power_cut(policy);

            // "Restart": fresh store over the same disk, the post-retraction
            // catalog restored (stands in for the persisted manifest).
            let mut ds =
                DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
            ds.import_catalog(golden_catalog.clone());
            let report = ds.recover().unwrap();
            assert_eq!(
                report.quarantined, 0,
                "crash at op {k} ({policy:?}) left a torn partition"
            );
            assert!(
                !fs.visible_files()
                    .iter()
                    .any(|p| p.to_string_lossy().ends_with(".tmp")),
                "recovery must remove every orphan (crash at {k}, {policy:?})"
            );

            // The invariant: live chunks survive every crash point. Each
            // partition file is pre- or post-compaction — both states hold
            // every live chunk — so reads must succeed bit-identically.
            for (key, expected) in &golden_live {
                let got = ds.get_chunk(key).unwrap_or_else(|e| {
                    panic!("crash at {k} ({policy:?}): live chunk {key:?} lost: {e}")
                });
                assert_eq!(&got, expected, "crash at {k} ({policy:?}): torn read");
            }
            // Retracted chunks are gone from the catalog: clean NotFound.
            for block in 0..4u32 {
                assert!(matches!(
                    ds.get_chunk(&ChunkKey::new("m.i0", "c", block)),
                    Err(StoreError::NotFound)
                ));
            }

            ds.check_invariants()
                .unwrap_or_else(|v| panic!("crash at {k} ({policy:?}), recovered: {v}"));

            // Re-running compaction from the recovered state finishes the
            // job: no dead bytes remain and live chunks still read.
            ds.compact(1.0).unwrap();
            assert_eq!(ds.dead_bytes(), 0, "crash at {k} ({policy:?})");
            ds.clear_read_cache();
            for (key, expected) in &golden_live {
                assert_eq!(&ds.get_chunk(key).unwrap(), expected);
            }
            ds.check_invariants()
                .unwrap_or_else(|v| panic!("crash at {k} ({policy:?}), recompacted: {v}"));
        }
    }
}

#[test]
fn completed_compaction_is_durable_under_power_cut() {
    for policy in POLICIES {
        let fs = FaultyFs::new();
        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        let (_, live) = build_pre_compaction_state(&mut ds).unwrap();
        ds.compact(1.0).unwrap();
        let catalog = ds.export_catalog();
        drop(ds);
        fs.power_cut(policy);

        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        ds.import_catalog(catalog);
        let report = ds.recover().unwrap();
        assert_eq!(report.quarantined, 0, "{policy:?}");
        assert_eq!(report.missing, 0, "completed compaction is durable");
        assert_eq!(ds.dead_bytes(), 0, "{policy:?}");
        for (key, expected) in &live {
            assert_eq!(&ds.get_chunk(key).unwrap(), expected, "{policy:?}");
        }
        ds.check_invariants()
            .unwrap_or_else(|v| panic!("{policy:?}: {v}"));
    }
}
