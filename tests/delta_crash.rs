//! Crash-point enumeration for the base+delta storage paths: delta puts,
//! `reencode_as_delta`, and compaction with a pinned base. A simulated power
//! cut is injected at **every** backend syscall of the workload and replayed
//! under all three [`TornWrite`] policies; after each crash the store must
//! recover with zero quarantined partitions and every chunk must read back
//! bit-identical or cleanly `NotFound` — never garbage, never a decode
//! error. A delta chunk whose base partition is missing must fail cleanly
//! too, since a frame without its base is unreadable by design.
//!
//! A separate bitrot test checks the quarantine *propagation* invariant:
//! corrupting the base's partition makes reads of both the base and every
//! delta referencing it fail with a quarantine error, while unrelated
//! partitions stay readable.

use std::path::PathBuf;
use std::sync::Arc;

use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_store::{
    ChunkKey, DataStore, DataStoreConfig, FaultyFs, PlacementPolicy, StoreError, TornWrite,
};

const POLICIES: [TornWrite; 3] = [TornWrite::DropAll, TornWrite::TornHalf, TornWrite::KeepAll];

fn store_config() -> DataStoreConfig {
    DataStoreConfig {
        policy: PlacementPolicy::ByIntermediate,
        mem_capacity: 1 << 20,
        // Small target so each chunk seals its partition quickly and the
        // workload crosses several files.
        partition_target_bytes: 2048,
        ..DataStoreConfig::default()
    }
}

/// The shared base pattern: compresses, but XORs to near-zero against its
/// perturbed twins.
fn base_chunk() -> ColumnChunk {
    ColumnChunk::new(ColumnData::F64(
        (0..4096).map(|i| (i % 97) as f64).collect(),
    ))
}

/// A near-duplicate of [`base_chunk`]: every `stride`-th value bumped, so
/// MinHash similarity stays above `delta_tau` while the bytes differ.
fn near_chunk(stride: usize) -> ColumnChunk {
    let mut vals: Vec<f64> = (0..4096).map(|i| (i % 97) as f64).collect();
    for i in (0..vals.len()).step_by(stride) {
        vals[i] += 1.0;
    }
    ColumnChunk::new(ColumnData::F64(vals))
}

/// An unrelated pattern no delta should ever pair with the base family.
fn far_chunk() -> ColumnChunk {
    ColumnChunk::new(ColumnData::F64(
        (0..512).map(|i| (i as f64) * 1e6 + 0.25).collect(),
    ))
}

fn key(interm: &str) -> ChunkKey {
    ChunkKey::new(interm, "c", 0)
}

/// The delta workload: a base put, two delta puts against it (pinning the
/// base twice), a raw put later squeezed by `reencode_as_delta`, a
/// retraction that unpins one delta, and a compaction that must rewrite —
/// not drop — the partition holding the still-pinned base.
fn run_workload(ds: &mut DataStore) -> Result<mistique_store::datastore::StoreCatalog, StoreError> {
    ds.put_chunk(key("m.base"), &base_chunk())?;
    ds.put_chunk(key("m.near1"), &near_chunk(512))?; // delta put #1
    ds.put_chunk(key("m.near2"), &near_chunk(256))?; // delta put #2
    ds.put_chunk(key("m.far"), &far_chunk())?;
    // A raw (dedup-off) copy the reclaim ladder would squeeze later.
    ds.put_chunk_sized(
        key("m.raw"),
        &near_chunk(128),
        PlacementPolicy::ByIntermediate,
        false,
    )?;
    ds.flush()?;

    // Drop one delta: its bytes die, one pin on the base is released.
    ds.retract_intermediate("m.near2");
    ds.compact(0.9)?;

    // The reclaim rung: re-encode the raw near-duplicate as a delta, then
    // compact its old partition away.
    ds.reencode_as_delta(&key("m.raw"))?;
    ds.compact(0.9)?;
    ds.flush()?;
    Ok(ds.export_catalog())
}

/// The chunks still live at the end of the workload, with expected bytes.
fn live_golden() -> Vec<(ChunkKey, ColumnChunk)> {
    vec![
        (key("m.base"), base_chunk()),
        (key("m.near1"), near_chunk(512)),
        (key("m.far"), far_chunk()),
        (key("m.raw"), near_chunk(128)),
    ]
}

#[test]
fn every_crash_point_leaves_delta_store_consistent() {
    // Golden run on a pristine virtual disk.
    let (golden_catalog, open_ops, total_ops, delta_puts) = {
        let fs = FaultyFs::new();
        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        let open_ops = fs.op_count();
        let catalog = run_workload(&mut ds).unwrap();
        ds.check_invariants().unwrap();
        (catalog, open_ops, fs.op_count(), ds.stats().delta_puts)
    };
    assert!(
        delta_puts >= 2,
        "workload must exercise the delta put path, got {delta_puts}"
    );
    assert!(total_ops > open_ops + 10, "workload must exercise the disk");
    let golden = live_golden();

    for k in (open_ops + 1)..=total_ops {
        for policy in POLICIES {
            let fs = FaultyFs::new();
            let mut ds =
                DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
            fs.crash_after(k);
            let r = run_workload(&mut ds);
            assert!(r.is_err(), "crash at op {k} must surface as an error");
            drop(ds);
            fs.power_cut(policy);

            // "Restart": fresh store over the surviving disk, final catalog
            // restored (stands in for the manifest, deltas and pins
            // included).
            let mut ds =
                DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
            ds.import_catalog(golden_catalog.clone());
            let report = ds.recover().unwrap();
            assert_eq!(
                report.quarantined, 0,
                "crash at op {k} ({policy:?}) left a torn partition"
            );

            // Every live chunk reads bit-identical or is cleanly missing. A
            // delta whose base partition did not survive must also land on
            // NotFound — never a garbage decode.
            for (key, expected) in &golden {
                match ds.get_chunk(key) {
                    Ok(got) => {
                        assert_eq!(&got, expected, "crash at {k} ({policy:?}): torn read")
                    }
                    Err(StoreError::NotFound) => {}
                    Err(e) => panic!("crash at {k} ({policy:?}): unexpected error {e}"),
                }
            }
            // The retracted intermediate stays gone.
            assert!(
                ds.get_chunk(&key("m.near2")).is_err(),
                "crash at {k} ({policy:?}): retracted delta resurrected"
            );
            ds.check_invariants()
                .unwrap_or_else(|v| panic!("crash at {k} ({policy:?}): {v}"));
        }
    }
}

#[test]
fn completed_delta_workload_survives_power_cut_under_every_policy() {
    for policy in POLICIES {
        let fs = FaultyFs::new();
        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        let catalog = run_workload(&mut ds).unwrap();
        drop(ds);
        fs.power_cut(policy);

        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        ds.import_catalog(catalog);
        let report = ds.recover().unwrap();
        assert_eq!(report.quarantined, 0, "{policy:?}");
        assert_eq!(
            report.missing, 0,
            "completed workload is fully durable ({policy:?})"
        );
        for (key, expected) in &live_golden() {
            assert_eq!(&ds.get_chunk(key).unwrap(), expected, "{policy:?}");
        }
        // The rehydration counter proves the deltas were served as deltas,
        // not silently re-stored raw across the restart.
        assert!(
            ds.obs().counter("store.delta.rehydrations").get() >= 2,
            "{policy:?}: expected delta reads after reopen"
        );
        ds.check_invariants()
            .unwrap_or_else(|v| panic!("{policy:?}: {v}"));
    }
}

#[test]
fn base_partition_bitrot_quarantines_every_dependent_delta() {
    // Re-run the (deterministic) workload on a fresh virtual disk per
    // victim and corrupt one partition file each time — recovery renames a
    // rotten file aside, so one disk can't serve every round. Invariant:
    // each read is bit-identical or a quarantine error, and whenever the
    // *base* fails, every delta referencing it fails too — a delta frame
    // must never decode against missing or rotten base bytes.
    let n_parts = {
        let fs = FaultyFs::new();
        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        run_workload(&mut ds).unwrap();
        drop(ds);
        let n = part_files(&fs).len();
        assert!(n >= 3, "workload must span several partitions, got {n}");
        n
    };

    let golden = live_golden();
    let mut base_failures = 0;
    for i in 0..n_parts {
        let fs = FaultyFs::new();
        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        let catalog = run_workload(&mut ds).unwrap();
        drop(ds);
        let victim = part_files(&fs)[i].clone();
        fs.corrupt_durable(&victim, |bytes| {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
        });

        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        ds.import_catalog(catalog);
        let report = ds.recover().unwrap();
        assert_eq!(report.quarantined, 1, "exactly the rotten file quarantines");

        let mut failed: Vec<&str> = Vec::new();
        for (key, expected) in &golden {
            match ds.get_chunk(key) {
                Ok(got) => assert_eq!(&got, expected, "bitrot in {victim:?}: torn read"),
                Err(e) => {
                    assert!(
                        e.to_string().contains("quarantined"),
                        "bitrot in {victim:?}: expected quarantine error, got {e}"
                    );
                    failed.push(key.intermediate.as_str());
                }
            }
        }
        if failed.contains(&"m.base") {
            base_failures += 1;
            // near1 and raw are stored as deltas against m.base's chunk:
            // losing the base must take them down with it.
            assert!(
                failed.contains(&"m.near1") && failed.contains(&"m.raw"),
                "base quarantined but dependent deltas served: {failed:?}"
            );
        }
        ds.check_invariants()
            .unwrap_or_else(|v| panic!("bitrot in {victim:?}: {v}"));
    }
    assert_eq!(
        base_failures, 1,
        "exactly one partition holds the pinned base"
    );
}

/// Sorted partition files currently visible on the virtual disk.
fn part_files(fs: &FaultyFs) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs
        .visible_files()
        .into_iter()
        .filter(|p| {
            let n = p.file_name().unwrap().to_string_lossy().into_owned();
            n.starts_with("part_") && n.ends_with(".bin")
        })
        .collect();
    files.sort();
    files
}
