//! Crash-simulation driver: enumerate a simulated power cut at **every**
//! backend syscall of a log → persist → reopen run and assert the store
//! always recovers to a consistent pre- or post-persist state — never a torn
//! one.
//!
//! Two layers:
//!
//! 1. **Store-level** ([`every_crash_point_leaves_datastore_consistent`]):
//!    a `DataStore` workload over [`FaultyFs`], no manifest involved — the
//!    chunk catalog is carried in memory across the simulated restart.
//! 2. **System-level** ([`every_crash_point_leaves_manifest_consistent`]):
//!    the full `Mistique` two-phase persist workload, crashing between and
//!    inside both persists.
//!
//! Each crash point is replayed under all three [`TornWrite`] policies, so
//! unsynced data may vanish, survive, or survive only as a prefix — the
//! three behaviours a real disk exhibits after power loss.

use std::path::PathBuf;
use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig, MistiqueError};
use mistique_dataframe::{ColumnChunk, ColumnData, DataFrame};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::{
    ChunkKey, DataStore, DataStoreConfig, FaultyFs, PlacementPolicy, StoreError, TornWrite,
};

const POLICIES: [TornWrite; 3] = [TornWrite::DropAll, TornWrite::TornHalf, TornWrite::KeepAll];

fn store_config() -> DataStoreConfig {
    DataStoreConfig {
        policy: PlacementPolicy::ByIntermediate,
        mem_capacity: 1 << 20,
        // Small target so the workload seals several partitions mid-run.
        partition_target_bytes: 2048,
        ..DataStoreConfig::default()
    }
}

fn chunk(seed: u64, len: usize) -> ColumnChunk {
    let vals: Vec<f64> = (0..len)
        .map(|i| ((seed.wrapping_mul(31).wrapping_add(i as u64)) % 997) as f64 * 0.5)
        .collect();
    ColumnChunk::new(ColumnData::F64(vals))
}

fn workload_keys() -> Vec<(ChunkKey, ColumnChunk)> {
    let mut out = Vec::new();
    for interm in 0..3u64 {
        for block in 0..3u32 {
            out.push((
                ChunkKey::new(format!("m.i{interm}"), "c", block),
                chunk(interm * 10 + block as u64, 300),
            ));
        }
    }
    out
}

/// Run the store workload: put every chunk, then flush. Returns the exported
/// catalog on success.
fn run_store_workload(
    ds: &mut DataStore,
) -> Result<mistique_store::datastore::StoreCatalog, StoreError> {
    for (key, chunk) in workload_keys() {
        ds.put_chunk(key, &chunk)?;
    }
    ds.flush()?;
    Ok(ds.export_catalog())
}

#[test]
fn every_crash_point_leaves_datastore_consistent() {
    // Golden run on a pristine virtual disk: total op count and the catalog
    // the workload produces (placement is deterministic, so the catalog is
    // identical across runs of the same workload).
    let (golden_catalog, open_ops, total_ops) = {
        let fs = FaultyFs::new();
        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        let open_ops = fs.op_count();
        let catalog = run_store_workload(&mut ds).unwrap();
        (catalog, open_ops, fs.op_count())
    };
    let golden: Vec<(ChunkKey, ColumnChunk)> = workload_keys();
    assert!(total_ops > open_ops + 10, "workload must exercise the disk");

    for k in (open_ops + 1)..=total_ops {
        for policy in POLICIES {
            let fs = FaultyFs::new();
            let mut ds =
                DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
            fs.crash_after(k);
            let r = run_store_workload(&mut ds);
            assert!(r.is_err(), "crash at op {k} must surface as an error");
            assert!(fs.has_crashed());
            drop(ds); // the crashed process is gone
            fs.power_cut(policy);

            // Files on the virtual disk before recovery, for accounting.
            let files = fs.visible_files();
            let n_tmp = files
                .iter()
                .filter(|p| p.to_string_lossy().ends_with(".tmp"))
                .count() as u64;
            let n_part = files
                .iter()
                .filter(|p| {
                    let n = p.file_name().unwrap().to_string_lossy().into_owned();
                    n.starts_with("part_") && n.ends_with(".bin")
                })
                .count() as u64;

            // "Restart": fresh store over the same disk, catalog restored
            // from the golden run (stands in for the manifest).
            let mut ds =
                DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
            ds.import_catalog(golden_catalog.clone());
            let report = ds.recover().unwrap();

            // The atomic writer never leaves a torn partition file: every
            // part_*.bin on disk verifies, none is quarantined.
            assert_eq!(
                report.quarantined, 0,
                "crash at op {k} ({policy:?}) left a torn partition"
            );
            // Recovery accounts for every file that was in the directory.
            assert_eq!(report.partitions_ok, n_part, "crash at {k} ({policy:?})");
            assert_eq!(report.orphans_removed, n_tmp, "crash at {k} ({policy:?})");
            assert!(
                !fs.visible_files()
                    .iter()
                    .any(|p| p.to_string_lossy().ends_with(".tmp")),
                "recovery must remove every orphan (crash at {k}, {policy:?})"
            );

            // Every chunk reads back bit-identical, or its partition is
            // cleanly missing — never garbage, never a decode error.
            for (key, expected) in &golden {
                match ds.get_chunk(key) {
                    Ok(got) => {
                        assert_eq!(&got, expected, "crash at {k} ({policy:?}): torn read")
                    }
                    Err(StoreError::NotFound) => {}
                    Err(e) => panic!("crash at {k} ({policy:?}): unexpected error {e}"),
                }
            }
            ds.check_invariants()
                .unwrap_or_else(|v| panic!("crash at {k} ({policy:?}): {v}"));
        }
    }

    // With the workload fully completed, a power cut under any policy loses
    // nothing: every write was fsynced through before the store returned.
    for policy in POLICIES {
        let fs = FaultyFs::new();
        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        run_store_workload(&mut ds).unwrap();
        drop(ds);
        fs.power_cut(policy);
        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        ds.import_catalog(golden_catalog.clone());
        let report = ds.recover().unwrap();
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.missing, 0, "completed workload is fully durable");
        for (key, expected) in &golden {
            assert_eq!(&ds.get_chunk(key).unwrap(), expected, "{policy:?}");
        }
        ds.check_invariants()
            .unwrap_or_else(|v| panic!("{policy:?}: {v}"));
    }
}

#[test]
fn transient_io_errors_surface_without_poisoning_the_store() {
    // A one-shot EIO / ENOSPC during the workload is reported as an error;
    // the store stays usable and previously sealed data stays readable.
    for kind in [
        std::io::ErrorKind::Other,       // EIO-style
        std::io::ErrorKind::StorageFull, // ENOSPC
    ] {
        let fs = FaultyFs::new();
        let mut ds =
            DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap();
        // Land the fault somewhere inside the workload's disk activity.
        let target = fs.op_count() + 12;
        fs.inject_error(target, kind);
        let r = run_store_workload(&mut ds);
        assert!(r.is_err(), "injected {kind:?} must surface");
        assert!(!fs.has_crashed(), "transient fault is not a crash");

        // The store is still alive: new writes and a flush succeed...
        let key = ChunkKey::new("after.fault", "c", 0);
        ds.put_chunk(key.clone(), &chunk(99, 300)).unwrap();
        ds.flush().unwrap();
        assert_eq!(ds.get_chunk(&key).unwrap(), chunk(99, 300));
        // ...and recovery finds no torn files.
        let report = ds.recover().unwrap();
        assert_eq!(report.quarantined, 0);
        ds.check_invariants()
            .unwrap_or_else(|v| panic!("after {kind:?}: {v}"));
    }
}

// ---------------------------------------------------------------------------
// System-level: the full Mistique persist/reopen cycle.
// ---------------------------------------------------------------------------

fn sys_config() -> MistiqueConfig {
    MistiqueConfig {
        row_block_size: 50,
        ..MistiqueConfig::default()
    }
}

/// Fetch the golden frame of a model's last intermediate (its predictions).
fn preds_frame(sys: &mut Mistique, model_id: &str) -> DataFrame {
    let preds = sys.intermediates_of(model_id).last().unwrap().clone();
    sys.fetch_with_strategy(&preds, None, None, FetchStrategy::Read)
        .unwrap()
        .frame
}

#[test]
fn every_crash_point_leaves_manifest_consistent() {
    let data = Arc::new(ZillowData::generate(80, 1));
    let pipes = zillow_pipelines();
    let pipe_a = pipes[0].clone();
    let pipe_b = pipes[1].clone();

    // Golden run: two phases, each ending in a persist. Records the op
    // boundaries and the expected prediction frames of both versions.
    let fs = FaultyFs::new();
    let mut sys = Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
    let open_ops = fs.op_count();
    let id_a = sys
        .register_trad(pipe_a.clone(), Arc::clone(&data))
        .unwrap();
    sys.log_intermediates(&id_a).unwrap();
    sys.persist().unwrap();
    let k1 = fs.op_count();
    let id_b = sys
        .register_trad(pipe_b.clone(), Arc::clone(&data))
        .unwrap();
    sys.log_intermediates(&id_b).unwrap();
    sys.persist().unwrap();
    let total = fs.op_count();
    let golden_a = preds_frame(&mut sys, &id_a);
    let golden_b = preds_frame(&mut sys, &id_b);
    drop(sys);
    assert!(open_ops < k1 && k1 < total);

    for k in (open_ops + 1)..=total {
        for policy in POLICIES {
            let fs = FaultyFs::new();
            let mut sys =
                Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
            fs.crash_after(k);
            let r = (|| -> Result<(), MistiqueError> {
                let a = sys.register_trad(pipe_a.clone(), Arc::clone(&data))?;
                sys.log_intermediates(&a)?;
                sys.persist()?;
                let b = sys.register_trad(pipe_b.clone(), Arc::clone(&data))?;
                sys.log_intermediates(&b)?;
                sys.persist()
            })();
            assert!(r.is_err(), "crash at op {k} must surface");
            drop(sys);
            fs.power_cut(policy);

            match Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())) {
                Err(MistiqueError::NoManifest) => {
                    // Legal only while the first manifest was not yet
                    // guaranteed durable.
                    assert!(
                        k <= k1,
                        "crash at {k} ({policy:?}): manifest v1 was durable by op {k1} \
                         but reopen found none"
                    );
                }
                Ok(mut sys) => {
                    let report = sys.recovery_report().unwrap();
                    assert_eq!(
                        report.quarantined, 0,
                        "crash at {k} ({policy:?}) left a torn partition"
                    );
                    assert_eq!(
                        report.missing, 0,
                        "crash at {k} ({policy:?}): the \
                         manifest only ever references partitions persisted before it"
                    );
                    let models = sys.model_ids();
                    match models.len() {
                        // Manifest v1: model A exactly as persisted.
                        1 => {
                            assert_eq!(models[0], id_a, "crash at {k} ({policy:?})");
                            assert_eq!(
                                preds_frame(&mut sys, &id_a),
                                golden_a,
                                "crash at {k} ({policy:?}): v1 state torn"
                            );
                        }
                        // Manifest v2: both models, both readable.
                        2 => {
                            assert_eq!(
                                preds_frame(&mut sys, &id_a),
                                golden_a,
                                "crash at {k} ({policy:?})"
                            );
                            assert_eq!(
                                preds_frame(&mut sys, &id_b),
                                golden_b,
                                "crash at {k} ({policy:?})"
                            );
                        }
                        n => panic!("crash at {k} ({policy:?}): {n} models restored"),
                    }
                    sys.store()
                        .check_invariants()
                        .unwrap_or_else(|v| panic!("crash at {k} ({policy:?}): {v}"));
                }
                Err(e) => panic!("crash at {k} ({policy:?}): reopen failed: {e}"),
            }
        }
    }
}

#[test]
fn quarantined_partition_reported_and_isolated_after_reopen() {
    // Bitrot (not crash) on one partition: reopen quarantines exactly that
    // partition, reads of its chunks fail with a quarantine error, and the
    // other partitions stay readable.
    let data = Arc::new(ZillowData::generate(80, 1));
    let fs = FaultyFs::new();
    let mut sys = Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
    let id = sys
        .register_trad(zillow_pipelines().remove(0), Arc::clone(&data))
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    sys.persist().unwrap();
    drop(sys);

    // Flip a byte in the middle of the first partition file.
    let part_files: Vec<PathBuf> = fs
        .visible_files()
        .into_iter()
        .filter(|p| {
            let n = p.file_name().unwrap().to_string_lossy().into_owned();
            n.starts_with("part_") && n.ends_with(".bin")
        })
        .collect();
    assert!(
        part_files.len() >= 2,
        "workload must span several partitions"
    );
    fs.corrupt_durable(&part_files[0], |bytes| {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
    });

    let mut sys =
        Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
    let report = sys.recovery_report().unwrap();
    assert_eq!(report.quarantined, 1);
    assert_eq!(report.partitions_ok, part_files.len() as u64 - 1);

    // Sweep the intermediates: at least one fetch fails with a quarantine
    // error naming the corruption, and at least one succeeds.
    let mut ok = 0;
    let mut quarantined = 0;
    for interm in sys.intermediates_of(&id) {
        match sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read) {
            Ok(_) => ok += 1,
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("quarantined"),
                    "expected quarantine error, got: {msg}"
                );
                quarantined += 1;
            }
        }
    }
    assert!(ok > 0, "healthy partitions must stay readable");
    assert!(quarantined > 0, "corrupt partition must fail loudly");
    sys.store().check_invariants().unwrap();
}
