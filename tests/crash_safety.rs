//! Crash enumerations of the store's own durability: a simulated power cut
//! at **every** backend syscall of a log → persist → reopen run, through
//! [`enumerate_crashes`], and the store must always recover to a consistent
//! pre- or post-persist state — never a torn one.
//!
//! Two layers:
//!
//! 1. **Store-level** ([`every_crash_point_leaves_datastore_consistent`]):
//!    a `DataStore` workload over [`FaultyFs`], no manifest involved — the
//!    chunk catalog is carried in memory across the simulated restart.
//! 2. **System-level** ([`every_crash_point_leaves_manifest_consistent`]):
//!    the full `Mistique` two-phase persist workload, crashing between and
//!    inside both persists; and
//!    ([`every_crash_point_leaves_bound_layers_whole`]) two checkpoints of
//!    a net with a frozen prefix, the second bound to the first's chunks,
//!    then one persist.
//!
//! Each crash point is checked under all three [`mistique_store::TornWrite`]
//! policies, so unsynced data may vanish, survive, or survive only as a
//! prefix — the three behaviours a real disk exhibits after power loss — and
//! so is the completed run.

use std::path::PathBuf;
use std::sync::Arc;

use mistique_core::{
    CaptureScheme, FetchStrategy, Mistique, MistiqueConfig, MistiqueError, ValueScheme,
};
use mistique_dataframe::{ColumnChunk, ColumnData, DataFrame};
use mistique_nn::{ArchConfig, CifarLike, LayerSpec};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::{
    enumerate_crashes, ChunkKey, DataStore, DataStoreConfig, FaultyFs, PlacementPolicy, StoreError,
};

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

fn open_store(fs: &FaultyFs) -> DataStore {
    DataStore::open_with_backend("/vfs", store_config(), Arc::new(fs.clone())).unwrap()
}

#[test]
fn every_crash_point_leaves_datastore_consistent() {
    // The golden catalog is the completed workload's (placement is
    // deterministic, so it is identical across runs).
    let golden: Vec<(ChunkKey, ColumnChunk)> = workload_keys();
    let points = enumerate_crashes(open_store, run_store_workload, |fs, point, catalog| {
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

        // "Restart": fresh store over the same disk, catalog restored from
        // the golden run (stands in for the manifest).
        let mut ds = open_store(fs);
        ds.import_catalog(catalog.clone());
        let report = ds.recover().unwrap();

        // The atomic writer never leaves a torn partition file: every
        // part_*.bin on disk verifies, none is quarantined.
        assert_eq!(report.quarantined, 0, "{point} left a torn partition");
        // Recovery accounts for every file that was in the directory.
        assert_eq!(report.partitions_ok, n_part, "{point}");
        assert_eq!(report.orphans_removed, n_tmp, "{point}");
        assert!(
            !fs.visible_files()
                .iter()
                .any(|p| p.to_string_lossy().ends_with(".tmp")),
            "recovery must remove every orphan ({point})"
        );
        // With the workload completed, a power cut under any policy loses
        // nothing: every write was fsynced through before the store
        // returned.
        let completed = point.op.is_none();
        if completed {
            assert_eq!(
                report.missing, 0,
                "{point}: completed workload is fully durable"
            );
        }

        // Every chunk reads back bit-identical, or (after a crash) its
        // partition is cleanly missing — never garbage, never a decode
        // error.
        for (key, expected) in &golden {
            match ds.get_chunk(key) {
                Ok(got) => assert_eq!(&got, expected, "{point}: torn read"),
                Err(StoreError::NotFound) if !completed => {}
                Err(e) => panic!("{point}: unexpected error {e}"),
            }
        }
        ds.check_invariants()
            .unwrap_or_else(|v| panic!("{point}: {v}"));
    });
    assert!(points > 10, "workload must exercise the disk");
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

/// The two-phase workload, each phase ending in a persist. Returns both
/// model ids and the op count once the first manifest is durable.
fn run_two_phase(
    (sys, fs): &mut (Mistique, FaultyFs),
    data: &Arc<ZillowData>,
) -> Result<(String, String, u64), MistiqueError> {
    let pipes = zillow_pipelines();
    let id_a = sys.register_trad(pipes[0].clone(), Arc::clone(data))?;
    sys.log_intermediates(&id_a)?;
    sys.persist()?;
    let k1 = fs.op_count();
    let id_b = sys.register_trad(pipes[1].clone(), Arc::clone(data))?;
    sys.log_intermediates(&id_b)?;
    sys.persist()?;
    Ok((id_a, id_b, k1))
}

#[test]
fn every_crash_point_leaves_manifest_consistent() {
    let data = Arc::new(ZillowData::generate(80, 1));
    let open = |fs: &FaultyFs| {
        let sys = Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
        (sys, fs.clone())
    };
    let workload = |state: &mut (Mistique, FaultyFs)| run_two_phase(state, &data);

    // Reference run: the expected prediction frames of both versions.
    let (golden_a, golden_b) = {
        let fs = FaultyFs::new();
        let mut state = open(&fs);
        let open_ops = fs.op_count();
        let (id_a, id_b, k1) = workload(&mut state).unwrap();
        assert!(
            open_ops < k1 && k1 < fs.op_count(),
            "both phases must touch the disk"
        );
        (
            preds_frame(&mut state.0, &id_a),
            preds_frame(&mut state.0, &id_b),
        )
    };

    let points = enumerate_crashes(open, workload, |fs, point, (id_a, id_b, k1)| {
        match Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())) {
            Err(MistiqueError::NoManifest) => {
                // Legal only while the first manifest was not yet
                // guaranteed durable.
                assert!(
                    point.op.is_some_and(|k| k <= *k1),
                    "{point}: manifest v1 was durable by op {k1} but reopen found none"
                );
            }
            Ok(mut sys) => {
                let report = sys.recovery_report().unwrap();
                assert_eq!(report.quarantined, 0, "{point} left a torn partition");
                assert_eq!(
                    report.missing, 0,
                    "{point}: the manifest only ever references partitions persisted before it"
                );
                let models = sys.model_ids();
                match models.len() {
                    // Manifest v1: model A exactly as persisted.
                    1 if point.op.is_some() => {
                        assert_eq!(&models[0], id_a, "{point}");
                        assert_eq!(
                            preds_frame(&mut sys, id_a),
                            golden_a,
                            "{point}: v1 state torn"
                        );
                    }
                    // Manifest v2: both models, both readable.
                    2 => {
                        assert_eq!(preds_frame(&mut sys, id_a), golden_a, "{point}");
                        assert_eq!(preds_frame(&mut sys, id_b), golden_b, "{point}");
                    }
                    n => panic!("{point}: {n} models restored"),
                }
                sys.store()
                    .check_invariants()
                    .unwrap_or_else(|v| panic!("{point}: {v}"));
            }
            Err(e) => panic!("{point}: reopen failed: {e}"),
        }
    });
    assert!(points > 10, "workload must exercise the disk");
}

/// A small net whose first four specs are frozen: five layers (with the
/// flatten) bind from the second checkpoint on.
fn frozen_net() -> Arc<ArchConfig> {
    Arc::new(ArchConfig {
        name: "FROZEN".to_string(),
        in_c: 3,
        in_hw: 32,
        n_classes: 4,
        layers: vec![
            LayerSpec::Conv(2),
            LayerSpec::Pool,
            LayerSpec::Conv(3),
            LayerSpec::Pool,
            LayerSpec::Dense(4),
            LayerSpec::Classifier,
        ],
        frozen_prefix: 4,
    })
}

/// Every layer of a model, read from the store.
fn layer_frames(sys: &mut Mistique, model_id: &str) -> Vec<DataFrame> {
    sys.intermediates_of(model_id)
        .iter()
        .map(|id| {
            let read = sys.fetch_with_strategy(id, None, None, FetchStrategy::Read);
            read.unwrap().frame
        })
        .collect()
}

#[test]
fn every_crash_point_leaves_bound_layers_whole() {
    let data = Arc::new(CifarLike::generate(12, 4, 3));
    let arch = frozen_net();
    // Wide pooling windows keep the conv layers to a few dozen columns.
    let config = || MistiqueConfig {
        row_block_size: 8,
        dnn_capture: CaptureScheme {
            value: ValueScheme::Full,
            pool_sigma: Some(8),
        },
        telemetry_budget_bytes: 0,
        audit_budget_bytes: 0,
        ..MistiqueConfig::default()
    };
    let open = |fs: &FaultyFs| {
        Mistique::open_with_backend("/vfs", config(), Arc::new(fs.clone())).unwrap()
    };
    let workload = |sys: &mut Mistique| -> Result<(String, u64), MistiqueError> {
        let mut last = String::new();
        for epoch in 0..2 {
            last = sys.register_dnn(Arc::clone(&arch), 1, epoch, Arc::clone(&data), 4)?;
            sys.log_intermediates(&last)?;
        }
        let bound = sys.obs_snapshot().counter("core.log.bound_layers");
        sys.persist()?;
        Ok((last, bound))
    };
    // What a store that logs only the second checkpoint reads back.
    let alone = {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), config()).unwrap();
        let id = sys
            .register_dnn(Arc::clone(&arch), 1, 1, Arc::clone(&data), 4)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        layer_frames(&mut sys, &id)
    };

    let points = enumerate_crashes(open, workload, |fs, point, (bound_id, bound)| {
        assert_eq!(*bound, 5, "the second checkpoint binds its frozen layers");
        let mut sys = match Mistique::reopen_with_backend("/vfs", config(), Arc::new(fs.clone())) {
            // Nothing is durable before the one manifest is.
            Err(MistiqueError::NoManifest) if point.op.is_some() => return,
            Err(e) => panic!("{point}: reopen failed: {e}"),
            Ok(sys) => sys,
        };
        let report = sys.recovery_report().unwrap();
        assert_eq!(report.quarantined + report.missing, 0, "{point}");
        // A restored intermediate has every chunk key it names, bound.
        for model in sys.model_ids() {
            for interm in sys.metadata().intermediates_of(&model) {
                let blocks = interm.n_rows.div_ceil(8) as u32;
                for column in &interm.columns {
                    for block in 0..blocks {
                        let key = ChunkKey::new(interm.id.as_str(), column.as_str(), block);
                        assert!(sys.store().contains(&key), "{point}: {key:?} unbound");
                    }
                }
            }
        }
        assert_eq!(sys.model_ids().len(), 2, "{point}");
        assert_eq!(layer_frames(&mut sys, bound_id), alone, "{point}");
        sys.store()
            .check_invariants()
            .unwrap_or_else(|v| panic!("{point}: {v}"));
    });
    assert!(points > 10, "workload must exercise the disk");
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
