//! Crash-safety of the zone-map / max-activation index: enumerate (with
//! [`enumerate_crashes`]) a simulated power cut at **every** backend syscall
//! of a log → indexed query → demote → reclaim → persist workload (index
//! writes are interleaved with data writes on the same [`FaultyFs`]) under
//! all three [`mistique_store::TornWrite`] policies, plus the completed run,
//! and assert:
//!
//! - a torn index write never quarantines a *data* partition or breaks
//!   reopen — index I/O is best-effort, data invariants are
//!   `tests/crash_safety.rs`'s unchanged contract;
//! - whatever survives under `<dir>/index/` either parses as a complete
//!   index or is cleanly rejected by [`IntermediateIndex::from_bytes`] —
//!   never a panic, never a half-read;
//! - a reopened system serves top-k and threshold answers that are
//!   bit-identical to a fresh scan, whether its index survived, was torn,
//!   or was overwritten with garbage: the index degrades to a scan, it
//!   never degrades to a wrong answer;
//! - the completed run's index files are durable.

use std::sync::Arc;

use mistique_core::{
    FetchStrategy, IntermediateIndex, Mistique, MistiqueConfig, MistiqueError, PlanChoice,
    SegmentIo, StoreSubdir, INDEX_SUBDIR,
};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::{enumerate_crashes, FaultyFs, StorageBackend};

fn sys_config() -> MistiqueConfig {
    MistiqueConfig {
        row_block_size: 50,
        ..MistiqueConfig::default()
    }
}

/// The workload under test: logging builds and persists the index, the
/// queries serve from it, a demotion rebuilds one index a rung down (index
/// and data writes interleaved), and a reclaim pass one byte short of
/// fitting sheds the coldest index and compacts what the demotion
/// displaced. (A pass that has to demote *data* sheds every index first and
/// rebuilds none, which would leave the reopen below nothing to serve
/// from; `tests/{telemetry,audit}_crash.rs` enumerate that pass.)
/// `persist()` closes with a data op so a swallowed index-write failure
/// still surfaces once the disk is gone.
fn run_workload(sys: &mut Mistique, data: &Arc<ZillowData>) -> Result<(), MistiqueError> {
    let id = sys.register_trad(zillow_pipelines().remove(0), Arc::clone(data))?;
    sys.log_intermediates(&id)?;
    sys.cost_model_mut().read_bandwidth = 1e18;
    let interm = sys.intermediates_of(&id).last().unwrap().clone();
    let col = sys.metadata().intermediate(&interm).unwrap().columns[0].clone();
    sys.topk(&interm, &col, 5)?;
    sys.select_where_gt(&interm, &col, 0.0)?;
    sys.demote_one_step(&interm)?;
    let index_bytes = sys.obs_snapshot().gauge("index.bytes") as u64;
    sys.reclaim_to((sys.storage_budget_used() + index_bytes).saturating_sub(1))?;
    sys.persist()?;
    Ok(())
}

/// Every surviving file under `<dir>/index/` must go through the parser
/// without panicking: complete files parse, torn ones return `Err`.
fn assert_index_files_parse_or_reject(fs: &FaultyFs, ctx: &str) {
    let backend: Arc<dyn StorageBackend> = Arc::new(fs.clone());
    let io = StoreSubdir::open_readonly(backend, "/vfs".as_ref(), INDEX_SUBDIR);
    for name in io.list().unwrap_or_default() {
        let Ok(bytes) = io.read(&name) else {
            continue;
        };
        match IntermediateIndex::from_bytes(&bytes) {
            Ok(idx) => assert!(idx.n_rows > 0, "{ctx}: parsed index {name} is degenerate"),
            Err(e) => assert!(
                !e.is_empty(),
                "{ctx}: rejection of {name} must carry a reason"
            ),
        }
    }
}

/// Reference check: the system's top-k and threshold answers must equal a
/// scan over a freshly fetched frame, bit for bit.
fn assert_queries_match_scans(sys: &mut Mistique, ctx: &str) {
    sys.cost_model_mut().read_bandwidth = 1e18;
    for model in sys.model_ids() {
        for interm in sys.intermediates_of(&model) {
            let Some(meta) = sys.metadata().intermediate(&interm).cloned() else {
                continue;
            };
            if !meta.materialized {
                continue;
            }
            let col = meta.columns[0].clone();
            let frame = sys
                .fetch_with_strategy(&interm, Some(&[col.as_str()]), None, FetchStrategy::Read)
                .unwrap()
                .frame;
            let vals = frame.columns()[0].data.to_f64();

            let mut pairs: Vec<(usize, f64)> = vals.iter().copied().enumerate().collect();
            pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
            pairs.truncate(5);
            let got = sys.topk(&interm, &col, 5).unwrap();
            assert_eq!(got.len(), pairs.len(), "{ctx}: topk {interm}");
            for (g, want) in got.iter().zip(&pairs) {
                assert_eq!(g.0, want.0, "{ctx}: topk row {interm}");
                assert_eq!(
                    g.1.to_bits(),
                    want.1.to_bits(),
                    "{ctx}: topk value {interm}"
                );
            }

            let mid = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max) / 2.0;
            let want: Vec<usize> = vals
                .iter()
                .enumerate()
                .filter(|(_, v)| **v > mid)
                .map(|(i, _)| i)
                .collect();
            let got = sys.select_where_gt(&interm, &col, mid).unwrap();
            assert_eq!(got, want, "{ctx}: select_gt {interm}");
        }
    }
}

fn open_sys(fs: &FaultyFs) -> Mistique {
    Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap()
}

#[test]
fn every_crash_point_leaves_index_harmless_and_data_clean() {
    let data = Arc::new(ZillowData::generate(80, 1));
    let workload = |sys: &mut Mistique| run_workload(sys, &data);
    let points = enumerate_crashes(open_sys, workload, |fs, point, _| {
        let ctx = point.to_string();
        if point.op.is_none() {
            assert!(
                fs.visible_files()
                    .iter()
                    .any(|p| p.to_string_lossy().contains("/index/")),
                "{ctx}: the workload must persist index files for the sweep to mean anything"
            );
        }
        assert_index_files_parse_or_reject(fs, &ctx);

        match Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())) {
            Err(MistiqueError::NoManifest) if point.op.is_some() => {}
            Err(e) => panic!("{ctx}: reopen failed: {e}"),
            Ok(mut sys) => {
                let report = sys.recovery_report().unwrap();
                assert_eq!(
                    report.quarantined, 0,
                    "{ctx}: torn index write quarantined a data partition"
                );
                assert_queries_match_scans(&mut sys, &ctx);
                sys.store()
                    .check_invariants()
                    .unwrap_or_else(|v| panic!("{ctx}: {v}"));
            }
        }
    });
    assert!(points > 10, "workload must exercise the disk");
}

#[test]
fn garbage_index_files_degrade_to_scans_with_identical_answers() {
    let data = Arc::new(ZillowData::generate(80, 1));
    let fs = FaultyFs::new();
    let mut sys = open_sys(&fs);
    run_workload(&mut sys, &data).expect("golden workload");
    drop(sys);

    // Overwrite every index file with binary garbage.
    let idx_files: Vec<_> = fs
        .visible_files()
        .into_iter()
        .filter(|p| p.to_string_lossy().contains("/index/"))
        .collect();
    assert!(!idx_files.is_empty(), "workload must write index files");
    for f in &idx_files {
        fs.corrupt_durable(f, |bytes| {
            for b in bytes.iter_mut() {
                *b = 0xfe;
            }
        });
    }

    // Data recovery is untouched by index bitrot...
    let mut sys =
        Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
    let report = sys.recovery_report().unwrap();
    assert_eq!(report.quarantined, 0, "index bitrot is not data bitrot");
    assert_eq!(report.missing, 0);

    // ...and every query falls back to the scan path with identical
    // answers: no IndexedRead plan can serve from garbage.
    assert_queries_match_scans(&mut sys, "garbage index");
    assert_eq!(
        sys.query_reports(usize::MAX)
            .iter()
            .filter(|r| r.plan == PlanChoice::IndexedRead)
            .count(),
        0,
        "a rejected index must never serve a plan"
    );
    sys.store().check_invariants().unwrap();
}

/// The index directory is read only by queries that use an index: logging
/// writes each intermediate's file without reading an old one back, a plain
/// fetch never loads an index, and after a reopen the first top-k loads its
/// intermediate's file exactly once.
#[test]
fn index_directory_is_read_only_by_indexed_queries() {
    let data = Arc::new(ZillowData::generate(80, 1));
    let fs = FaultyFs::new();
    let index_reads_since = |start: usize| {
        fs.op_trace()[start..]
            .iter()
            .filter(|(op, path)| *op == "read_file" && path.to_string_lossy().contains("/index/"))
            .count()
    };

    let mut sys = open_sys(&fs);
    let id = sys
        .register_trad(zillow_pipelines().remove(0), Arc::clone(&data))
        .unwrap();
    let start = fs.op_trace().len();
    sys.log_intermediates(&id).unwrap();
    assert_eq!(
        index_reads_since(start),
        0,
        "logging read the index directory"
    );
    assert!(
        fs.op_trace()[start..]
            .iter()
            .any(|(op, path)| *op == "write_file" && path.to_string_lossy().contains("/index/")),
        "logging must write index files for the check to mean anything"
    );
    let interm = sys.intermediates_of(&id).last().unwrap().clone();
    let col = sys.metadata().intermediate(&interm).unwrap().columns[0].clone();
    sys.persist().unwrap();
    drop(sys);

    let mut sys =
        Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
    sys.cost_model_mut().read_bandwidth = 1e18;
    let start = fs.op_trace().len();
    let fetched = sys.get_intermediate(&interm, None, None).unwrap();
    assert_eq!(fetched.strategy, FetchStrategy::Read);
    assert_eq!(index_reads_since(start), 0, "a plain fetch loaded an index");

    let start = fs.op_trace().len();
    sys.topk(&interm, &col, 5).unwrap();
    assert_eq!(sys.last_report().unwrap().plan, PlanChoice::IndexedRead);
    assert_eq!(
        index_reads_since(start),
        1,
        "the first indexed query loads its index once"
    );
}
