//! Crash-safety of the one best-effort sidecar, the workload audit journal,
//! whose records also carry the metric timeline: enumerate (with
//! [`enumerate_crashes`]) a simulated power cut at **every** backend syscall
//! of a register → log → query → starved reclaim → persist workload (journal
//! segment writes interleaved with data writes on the same [`FaultyFs`])
//! under all three [`mistique_store::TornWrite`] policies, and assert:
//!
//! - a torn journal write never quarantines a *data* partition or breaks
//!   reopen — sidecar failures are swallowed, data invariants are
//!   `tests/crash_safety.rs`'s unchanged contract;
//! - the timeline always loads from whatever records survive: a valid
//!   pre- or post-capture prefix, strictly increasing sequence numbers,
//!   never a parse error;
//! - after reopen, the timeline resumes: its first new point is the
//!   `recovery` record's, numbered past the survivors and carrying the
//!   pass's `store.recovery.*` counters;
//! - the journal always loads as a valid prefix with strictly increasing
//!   sequence numbers, and after reopen it resumes strictly past every
//!   surviving record;
//! - a *completed* workload keeps every point and every flushed record
//!   under any power-cut policy.
//!
//! Separate cases corrupt the sealed journal segments with garbage, and
//! reopen a store holding a stale flight-recorder segment an older build
//! wrote: recovery quarantines zero data partitions in both, and the stale
//! file is neither read nor deleted.

use std::sync::Arc;

use mistique_core::{
    AuditEffect, AuditRecord, FetchStrategy, Mistique, MistiqueConfig, MistiqueError, Timeline,
};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::{enumerate_crashes, FaultyFs, StorageBackend};

/// Reasons the engine stamps on captures; a loaded point must carry one.
const REASONS: [&str; 4] = ["log", "reclaim", "recovery", "interval"];

fn sys_config() -> MistiqueConfig {
    MistiqueConfig {
        row_block_size: 50,
        ..MistiqueConfig::default()
    }
}

fn open_sys(fs: &FaultyFs) -> Mistique {
    Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap()
}

/// The workload under test: every audited entry-point kind appears at least
/// once, and the explicit `audit_flush` calls put journal segment writes in
/// the middle of the op stream, not just at drop time. Ends with
/// `persist()`, so a swallowed sidecar failure is always followed by a
/// failing data op once the disk is gone.
fn run_workload(sys: &mut Mistique, data: &Arc<ZillowData>) -> Result<(), MistiqueError> {
    let pipes = zillow_pipelines();
    let id_a = sys.register_trad(pipes[0].clone(), Arc::clone(data))?;
    sys.log_intermediates(&id_a)?;
    sys.audit_flush();
    let id_b = sys.register_trad(pipes[1].clone(), Arc::clone(data))?;
    sys.log_intermediates(&id_b)?;
    let interms = sys.intermediates_of(&id_a);
    sys.topk(&interms[0], "sqft", 5)?;
    sys.pointq(&interms[0], "sqft", 3)?;
    for interm in &interms {
        sys.fetch_with_strategy(interm, None, Some(20), FetchStrategy::Read)?;
    }
    sys.audit_flush();
    // A budget far below usage drives demotions, purges, and a compaction —
    // the path that puts effects on a record. Reclaim picks victims by γ, which rests on
    // measured execution times; a read bandwidth this low makes every
    // saving negative, so every γ is 0 and ties keep the sorted walk.
    sys.cost_model_mut().read_bandwidth = 1e-9;
    sys.reclaim_to(256)?;
    sys.persist()?;
    Ok(())
}

fn load_journal(fs: &FaultyFs) -> Vec<AuditRecord> {
    let backend: Arc<dyn StorageBackend> = Arc::new(fs.clone());
    Mistique::load_audit_with_backend(backend, "/vfs".as_ref())
        .expect("audit journal load must tolerate any torn state")
}

/// Shared invariants of any surviving journal.
fn assert_journal_sane(records: &[AuditRecord], ctx: &str) {
    for w in records.windows(2) {
        assert!(
            w[0].seq < w[1].seq,
            "{ctx}: record seqs must strictly increase ({} then {})",
            w[0].seq,
            w[1].seq
        );
    }
    for r in records {
        assert!(!r.op.is_empty(), "{ctx}: record {} has an empty op", r.seq);
        assert!(
            r.op == "register"
                || r.op == "recovery"
                || r.op == "log"
                || r.op == "log_parallel"
                || r.op == "reclaim"
                || r.op.starts_with("fetch.")
                || r.op.starts_with("diag."),
            "{ctx}: record {} has unknown op {:?}",
            r.seq,
            r.op
        );
    }
}

fn load_points(fs: &FaultyFs) -> Timeline {
    Timeline::from_records(&load_journal(fs))
}

/// Shared invariants of any surviving timeline.
fn assert_timeline_sane(tl: &Timeline, ctx: &str) {
    for w in tl.points.windows(2) {
        assert!(
            w[0].seq < w[1].seq,
            "{ctx}: point seqs must strictly increase ({} then {})",
            w[0].seq,
            w[1].seq
        );
    }
    for p in &tl.points {
        assert!(
            REASONS.contains(&p.reason.as_str()),
            "{ctx}: unknown capture reason {:?}",
            p.reason
        );
    }
}

#[test]
fn every_crash_point_keeps_timeline_loadable_and_data_clean() {
    let data = Arc::new(ZillowData::generate(80, 1));
    let workload = |sys: &mut Mistique| run_workload(sys, &data);

    // Reference run: the timeline and journal a completed workload leaves.
    let (golden_max_point, golden_max_record) = {
        let fs = FaultyFs::new();
        let mut sys = open_sys(&fs);
        workload(&mut sys).expect("golden workload");
        drop(sys);
        let golden = load_points(&fs);
        assert!(
            !golden.points.is_empty(),
            "golden run must capture metric points"
        );
        assert_timeline_sane(&golden, "golden");
        let journal = load_journal(&fs);
        let reclaim = journal.iter().rfind(|r| r.op == "reclaim").unwrap();
        let step_to = |to: &str| {
            reclaim.effects.iter().any(
                |e| matches!(e, AuditEffect::Step(d) if d.to == to && !d.intermediate.is_empty()),
            )
        };
        assert!(
            step_to("LP_QT") && step_to("PURGED"),
            "the starved reclaim must put its ladder on its record: {:?}",
            reclaim.effects
        );
        assert!(
            reclaim.effects.iter().any(|e| matches!(e,
                AuditEffect::Compaction(c)
                    if c.partitions_rewritten + c.partitions_removed > 0
                        && c.bytes_reclaimed > 0)),
            "the starved reclaim's compaction must be on its record: {:?}",
            reclaim.effects
        );
        assert!(
            journal.len() >= 6,
            "golden run must journal every entry point, got {}",
            journal.len()
        );
        assert_journal_sane(&journal, "golden");
        (
            golden.points.iter().map(|p| p.seq).max(),
            journal.last().map(|r| r.seq),
        )
    };

    let points = enumerate_crashes(open_sys, workload, |fs, point, _| {
        // Whatever survived on disk parses: a consistent pre-or-post prefix
        // of the capture stream, and a sane journal prefix.
        let ctx = point.to_string();
        let tl = load_points(fs);
        assert_timeline_sane(&tl, &ctx);
        let survivors = load_journal(fs);
        assert_journal_sane(&survivors, &ctx);
        let survivor_max = survivors.last().map(|r| r.seq);
        if point.op.is_none() {
            // Every flushed record is durable (the journal flush is an
            // atomic segment rewrite), and a record carrying a point is
            // flushed as it is appended: the full golden streams survive
            // any policy.
            assert_eq!(
                tl.points.iter().map(|p| p.seq).max(),
                golden_max_point,
                "{point}: completed run must keep every capture"
            );
            assert_eq!(
                survivor_max, golden_max_record,
                "{point}: completed run must keep every journal record"
            );
        }

        // Reopen: torn sidecars must never contaminate the data path.
        match Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())) {
            Err(MistiqueError::NoManifest) if point.op.is_some() => {}
            Err(e) => panic!("{point}: reopen failed: {e}"),
            Ok(mut sys) => {
                let report = sys.recovery_report().unwrap();
                assert_eq!(
                    report.quarantined, 0,
                    "{point}: torn sidecar write quarantined a data partition"
                );
                // The reopened store's first point is its recovery
                // record's, numbered past everything that survived the cut.
                let survived = tl.max_seq();
                let tl = sys.timeline().unwrap();
                assert_timeline_sane(&tl, &format!("post-reopen at {point}"));
                let rec = tl
                    .points
                    .iter()
                    .find(|p| survived.is_none_or(|s| p.seq > s))
                    .expect("reopen must capture a point");
                assert_eq!(rec.reason, "recovery", "{point}");
                assert_eq!(
                    rec.counters.get("store.recovery.partitions_ok").copied(),
                    Some(report.partitions_ok).filter(|&n| n > 0),
                    "{point}"
                );
                sys.store()
                    .check_invariants()
                    .unwrap_or_else(|v| panic!("{point}: {v}"));

                // The journal resumes past every surviving record: one more
                // audited op, flushed, must extend the sequence.
                let _ = sys.reclaim();
                sys.audit_flush();
                sys.store()
                    .check_invariants()
                    .unwrap_or_else(|v| panic!("{point}: {v}"));
                drop(sys);
                let resumed = load_journal(fs);
                assert_journal_sane(&resumed, &format!("post-reopen at {point}"));
                let resumed_max = resumed.last().map(|r| r.seq);
                assert!(
                    resumed_max > survivor_max,
                    "{point}: journal did not resume ({survivor_max:?} then {resumed_max:?})"
                );
            }
        }
    });
    assert!(points > 10, "workload must exercise the disk");
}

#[test]
fn garbage_in_telemetry_segment_never_touches_data_recovery() {
    let data = Arc::new(ZillowData::generate(80, 1));
    let fs = FaultyFs::new();
    let mut sys = open_sys(&fs);
    run_workload(&mut sys, &data).expect("golden workload");
    drop(sys);

    // Overwrite the back half of every journal segment with binary garbage.
    let seg_files: Vec<_> = fs
        .visible_files()
        .into_iter()
        .filter(|p| p.to_string_lossy().contains("/audit/"))
        .collect();
    assert!(!seg_files.is_empty(), "workload must write the journal");
    for f in &seg_files {
        fs.corrupt_durable(f, |bytes| {
            let mid = bytes.len() / 2;
            for b in bytes[mid..].iter_mut() {
                *b = 0xfe;
            }
        });
    }

    // The journal and its timeline degrade to the parseable prefix of each
    // segment...
    assert_journal_sane(&load_journal(&fs), "corrupted segments");
    assert_timeline_sane(&load_points(&fs), "corrupted segments");

    // ...and the data side is pristine: recovery quarantines nothing, every
    // intermediate reads back.
    let mut sys = reopen_sys(&fs);
    let report = sys.recovery_report().unwrap();
    assert_eq!(report.quarantined, 0, "journal bitrot is not data bitrot");
    assert_eq!(report.missing, 0);
    read_every_materialized(&mut sys);
    sys.store().check_invariants().unwrap();
}

#[test]
fn a_stale_flight_recorder_segment_is_neither_read_nor_deleted() {
    let data = Arc::new(ZillowData::generate(80, 1));
    let fs = FaultyFs::new();
    let mut sys = open_sys(&fs);
    run_workload(&mut sys, &data).expect("golden workload");
    drop(sys);

    // What an older build's flight recorder left beside the journal.
    let stale = std::path::Path::new("/vfs/telemetry/tl_0000000000000000.jsonl");
    let line = b"{\"k\":\"pt\",\"seq\":0,\"t_ms\":5,\"reason\":\"log\",\
                 \"counters\":{\"store.put.count\":3},\"gauges\":{},\"hists\":{}}\n";
    fs.create_dir_all(stale.parent().unwrap()).unwrap();
    fs.write_atomic(stale, line).unwrap();
    let points_before = load_points(&fs);

    let ops_before = fs.op_trace().len();
    let mut sys = reopen_sys(&fs);
    assert_eq!(sys.recovery_report().unwrap().quarantined, 0);
    read_every_materialized(&mut sys);
    sys.reclaim().unwrap();
    drop(sys);

    let telemetry = stale.parent().unwrap();
    let touched: Vec<_> = fs.op_trace()[ops_before..]
        .iter()
        .filter(|(_, path)| path.starts_with(telemetry))
        .cloned()
        .collect();
    assert!(
        touched.is_empty(),
        "the stale ring was touched: {touched:?}"
    );
    assert_eq!(fs.read_file(stale).unwrap(), line);
    // The timeline is the journal's: the stale point is not in it.
    let points = load_points(&fs);
    assert_eq!(
        points.points[..points_before.points.len()],
        points_before.points
    );
    assert_eq!(points.points[points_before.points.len()].reason, "recovery");
}

fn reopen_sys(fs: &FaultyFs) -> Mistique {
    Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap()
}

fn read_every_materialized(sys: &mut Mistique) {
    for model in sys.model_ids() {
        for interm in sys.intermediates_of(&model) {
            let materialized = sys
                .metadata()
                .intermediate(&interm)
                .map(|m| m.materialized)
                .unwrap_or(false);
            if materialized {
                sys.fetch_with_strategy(&interm, None, Some(10), FetchStrategy::Read)
                    .unwrap();
            }
        }
    }
}
