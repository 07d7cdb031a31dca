//! Failure injection: a MISTIQUE store must detect, not silently propagate,
//! on-disk corruption and missing files.

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::StoreError;

fn persisted_store() -> (mistique_testkit::TempDir, Mistique, String) {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
    let data = Arc::new(ZillowData::generate(300, 1));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    sys.persist().unwrap();
    let interm = sys.intermediates_of(&id)[0].clone();
    (dir, sys, interm)
}

fn partition_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            (name.starts_with("part_") && name.ends_with(".bin")).then_some(p)
        })
        .collect()
}

#[test]
fn bitflip_in_partition_detected_as_corruption() {
    let (dir, _sys, interm) = persisted_store();
    // Corrupt every partition file with a single bit flip mid-file.
    for p in partition_files(dir.path()) {
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&p, bytes).unwrap();
    }
    // Fresh process (no read cache, no in-memory partitions).
    let mut sys = Mistique::reopen(dir.path(), MistiqueConfig::default()).unwrap();
    let err = sys
        .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
        .expect_err("corruption must surface as an error");
    let msg = err.to_string();
    assert!(
        msg.contains("corrupt") || msg.contains("checksum") || msg.contains("codec"),
        "unexpected error: {msg}"
    );
}

#[test]
fn truncated_partition_detected() {
    let (dir, _sys, interm) = persisted_store();
    for p in partition_files(dir.path()) {
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
    }
    let mut sys = Mistique::reopen(dir.path(), MistiqueConfig::default()).unwrap();
    assert!(sys
        .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
        .is_err());
}

#[test]
fn deleted_partition_is_not_found() {
    let (dir, _sys, interm) = persisted_store();
    for p in partition_files(dir.path()) {
        std::fs::remove_file(p).unwrap();
    }
    let mut sys = Mistique::reopen(dir.path(), MistiqueConfig::default()).unwrap();
    let err = sys
        .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
        .expect_err("missing files must surface");
    assert!(matches!(
        err,
        mistique_core::MistiqueError::Store(StoreError::NotFound)
    ));
}

#[test]
fn garbage_manifest_rejected() {
    let (dir, _sys, _) = persisted_store();
    std::fs::write(dir.path().join("mistique_manifest.json"), b"{not json").unwrap();
    assert!(Mistique::reopen(dir.path(), MistiqueConfig::default()).is_err());
}

#[test]
fn corruption_does_not_poison_other_partitions() {
    // Corrupt exactly one partition; chunks in other partitions must still
    // read fine.
    let (dir, _sys, _) = persisted_store();
    let files = partition_files(dir.path());
    assert!(files.len() >= 2, "need several partitions for this test");
    let mut victim = std::fs::read(&files[0]).unwrap();
    let mid = victim.len() / 2;
    victim[mid] ^= 0xff;
    std::fs::write(&files[0], victim).unwrap();

    let mut sys = Mistique::reopen(dir.path(), MistiqueConfig::default()).unwrap();
    let mut ok = 0;
    let mut failed = 0;
    for model in sys.model_ids() {
        for interm in sys.intermediates_of(&model) {
            match sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read) {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
    }
    assert!(failed > 0, "the corrupted partition must fail");
    assert!(ok > 0, "unaffected partitions must keep working");
}
