//! Crash-safety of the zone-map / max-activation index: enumerate a
//! simulated power cut at **every** backend syscall of a log → indexed
//! query → demote → reclaim → persist workload (index writes are
//! interleaved with data writes on the same [`FaultyFs`]) under all three
//! [`TornWrite`] policies, and assert:
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
//!   never degrades to a wrong answer.

use std::sync::Arc;

use mistique_core::{
    FetchStrategy, IntermediateIndex, Mistique, MistiqueConfig, MistiqueError, PlanChoice,
    SegmentIo, StoreSubdir, INDEX_SUBDIR,
};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::{FaultyFs, StorageBackend, TornWrite};

const POLICIES: [TornWrite; 3] = [TornWrite::DropAll, TornWrite::TornHalf, TornWrite::KeepAll];

fn sys_config() -> MistiqueConfig {
    MistiqueConfig {
        row_block_size: 50,
        // An astronomic tolerance keeps the workload's backend op sequence
        // deterministic: no timing-dependent drift flags or plan flips.
        drift_tolerance: 1e12,
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

#[test]
fn every_crash_point_leaves_index_harmless_and_data_clean() {
    let data = Arc::new(ZillowData::generate(80, 1));

    // Golden run over a pristine virtual disk.
    let fs = FaultyFs::new();
    let mut sys = Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
    let open_ops = fs.op_count();
    run_workload(&mut sys, &data).expect("golden workload");
    let total = fs.op_count();
    assert!(
        fs.visible_files()
            .iter()
            .any(|p| p.to_string_lossy().contains("/index/")),
        "golden workload must persist index files for the sweep to mean anything"
    );
    drop(sys);

    for k in (open_ops + 1)..=total {
        for policy in POLICIES {
            let fs = FaultyFs::new();
            let mut sys =
                Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
            fs.crash_after(k);
            let r = run_workload(&mut sys, &data);
            assert!(
                r.is_err(),
                "crash at op {k} must surface through a data op (index \
                 failures are swallowed, but persist comes after every hook)"
            );
            drop(sys);
            fs.power_cut(policy);

            let ctx = format!("crash at {k} ({policy:?})");
            assert_index_files_parse_or_reject(&fs, &ctx);

            match Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())) {
                Err(MistiqueError::NoManifest) => {}
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
        }
    }
}

#[test]
fn garbage_index_files_degrade_to_scans_with_identical_answers() {
    let data = Arc::new(ZillowData::generate(80, 1));
    let fs = FaultyFs::new();
    let mut sys = Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
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
