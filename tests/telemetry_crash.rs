//! Crash-safety of the flight recorder: enumerate a simulated power cut at
//! **every** backend syscall of a log → query → reclaim → persist workload
//! (telemetry enabled, so timeline segment writes are interleaved with data
//! writes on the same [`FaultyFs`]) under all three [`TornWrite`] policies,
//! and assert:
//!
//! - a torn telemetry write never quarantines a *data* partition or breaks
//!   reopen — telemetry failures are swallowed, data invariants are
//!   `tests/crash_safety.rs`'s unchanged contract;
//! - the timeline always loads from whatever segments survive: a valid
//!   pre- or post-capture prefix, strictly increasing sequence numbers,
//!   never a parse error;
//! - events only ever reference captures that exist (`snap_seq` ≤ the
//!   newest point, or the yet-unflushed next sequence);
//! - after reopen, the recorder resumes: sequence numbers continue past the
//!   survivors and the recovery pass is journaled.
//!
//! A separate case corrupts a sealed telemetry segment with garbage and
//! asserts recovery still quarantines zero data partitions.

use std::sync::Arc;

use mistique_core::{
    FetchStrategy, Mistique, MistiqueConfig, MistiqueError, StoreSubdir, Timeline, TELEMETRY_SUBDIR,
};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::{FaultyFs, StorageBackend, TornWrite};

const POLICIES: [TornWrite; 3] = [TornWrite::DropAll, TornWrite::TornHalf, TornWrite::KeepAll];

/// Reasons the engine stamps on captures; a loaded point must carry one.
const REASONS: [&str; 7] = [
    "log",
    "reclaim",
    "recovery",
    "interval",
    "plan.flip",
    "drift",
    "qcache.storm",
];

fn sys_config() -> MistiqueConfig {
    MistiqueConfig {
        row_block_size: 50,
        // Forced-Read queries + an astronomic tolerance keep the workload's
        // backend op sequence deterministic: no timing-dependent drift
        // flags, no plan flips, no query-cache churn.
        drift_tolerance: 1e12,
        ..MistiqueConfig::default()
    }
}

/// The workload under test. Ends with `persist()`, so a swallowed telemetry
/// failure is always followed by a failing data op once the disk is gone.
fn run_workload(sys: &mut Mistique, data: &Arc<ZillowData>) -> Result<(), MistiqueError> {
    let pipes = zillow_pipelines();
    let id_a = sys.register_trad(pipes[0].clone(), Arc::clone(data))?;
    sys.log_intermediates(&id_a)?;
    let id_b = sys.register_trad(pipes[1].clone(), Arc::clone(data))?;
    sys.log_intermediates(&id_b)?;
    for interm in sys.intermediates_of(&id_a) {
        sys.fetch_with_strategy(&interm, None, Some(20), FetchStrategy::Read)?;
    }
    // A budget far below usage drives demotions, purges, and a compaction —
    // the event-heavy path. Reclaim picks victims by γ, which rests on
    // measured execution times; a read bandwidth this low makes every
    // saving negative, so every γ is 0 and ties keep the sorted walk.
    sys.cost_model_mut().read_bandwidth = 1e-9;
    sys.reclaim_to(256)?;
    sys.persist()?;
    Ok(())
}

fn load_points(fs: &FaultyFs) -> Timeline {
    let backend: Arc<dyn StorageBackend> = Arc::new(fs.clone());
    let io = StoreSubdir::open_readonly(backend, "/vfs".as_ref(), TELEMETRY_SUBDIR);
    Timeline::load(&io).expect("timeline load must tolerate any torn state")
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
    let max_seq = tl.points.iter().map(|p| p.seq).max();
    for e in &tl.events {
        // An event is stamped with the capture that flushed it; the lone
        // exception is a pending event surfaced by `Mistique::timeline()`
        // before its capture, stamped with the *next* sequence.
        assert!(
            e.snap_seq <= max_seq.unwrap_or(0) + 1,
            "{ctx}: event {} stamped with seq {} but newest point is {:?}",
            e.kind,
            e.snap_seq,
            max_seq
        );
    }
}

#[test]
fn every_crash_point_keeps_timeline_loadable_and_data_clean() {
    let data = Arc::new(ZillowData::generate(80, 1));

    // Golden run: telemetry-on workload over a pristine virtual disk.
    let fs = FaultyFs::new();
    let mut sys = Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
    let open_ops = fs.op_count();
    run_workload(&mut sys, &data).expect("golden workload");
    let total = fs.op_count();
    drop(sys);
    let golden = load_points(&fs);
    assert!(
        !golden.points.is_empty(),
        "golden run must capture telemetry points"
    );
    assert!(
        golden.events.iter().any(|e| e.kind == "reclaim.demote")
            && golden.events.iter().any(|e| e.kind == "reclaim.purge"),
        "the starved reclaim must journal ladder events"
    );
    assert_timeline_sane(&golden, "golden");
    let golden_max = golden.points.iter().map(|p| p.seq).max().unwrap();

    for k in (open_ops + 1)..=total {
        for policy in POLICIES {
            let fs = FaultyFs::new();
            let mut sys =
                Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
            fs.crash_after(k);
            let r = run_workload(&mut sys, &data);
            assert!(
                r.is_err(),
                "crash at op {k} must surface through a data op (telemetry \
                 failures are swallowed, but persist comes after every hook)"
            );
            drop(sys);
            fs.power_cut(policy);

            // Whatever survived on disk parses: a consistent pre-or-post
            // prefix of the capture stream.
            let tl = load_points(&fs);
            assert_timeline_sane(&tl, &format!("crash at {k} ({policy:?})"));

            // Reopen: torn telemetry must never contaminate the data path.
            match Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())) {
                Err(MistiqueError::NoManifest) => {}
                Err(e) => panic!("crash at {k} ({policy:?}): reopen failed: {e}"),
                Ok(sys) => {
                    let report = sys.recovery_report().unwrap();
                    assert_eq!(
                        report.quarantined, 0,
                        "crash at {k} ({policy:?}): torn telemetry write \
                         quarantined a data partition"
                    );
                    // The reopened recorder journals its recovery pass with
                    // a sequence past everything that survived the cut.
                    let tl = sys.timeline().unwrap();
                    assert_timeline_sane(&tl, &format!("post-reopen at {k} ({policy:?})"));
                    let rec = tl
                        .events
                        .iter()
                        .filter(|e| e.kind == "recovery")
                        .max_by_key(|e| e.snap_seq)
                        .expect("reopen must journal a recovery event");
                    assert!(
                        rec.snap_seq > 0,
                        "crash at {k} ({policy:?}): recovery event unstamped"
                    );
                    sys.store()
                        .check_invariants()
                        .unwrap_or_else(|v| panic!("crash at {k} ({policy:?}): {v}"));
                }
            }
        }
    }

    // Completed workload + power cut: everything the recorder reported as
    // written is durable, so the full golden timeline survives any policy.
    for policy in POLICIES {
        let fs = FaultyFs::new();
        let mut sys =
            Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
        run_workload(&mut sys, &data).unwrap();
        drop(sys);
        fs.power_cut(policy);
        let tl = load_points(&fs);
        assert_eq!(
            tl.points.iter().map(|p| p.seq).max(),
            Some(golden_max),
            "{policy:?}: completed run must keep every capture"
        );
    }
}

#[test]
fn garbage_in_telemetry_segment_never_touches_data_recovery() {
    let data = Arc::new(ZillowData::generate(80, 1));
    let fs = FaultyFs::new();
    let mut sys = Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
    run_workload(&mut sys, &data).expect("golden workload");
    drop(sys);

    // Overwrite the middle of every telemetry segment with binary garbage.
    let seg_files: Vec<_> = fs
        .visible_files()
        .into_iter()
        .filter(|p| p.to_string_lossy().contains("/telemetry/"))
        .collect();
    assert!(!seg_files.is_empty(), "workload must write telemetry");
    for f in &seg_files {
        fs.corrupt_durable(f, |bytes| {
            let mid = bytes.len() / 2;
            for b in bytes[mid..].iter_mut() {
                *b = 0xfe;
            }
        });
    }

    // The timeline degrades to the parseable prefix of each segment...
    let tl = load_points(&fs);
    assert_timeline_sane(&tl, "corrupted segments");

    // ...and the data side is pristine: recovery quarantines nothing, every
    // intermediate reads back.
    let mut sys =
        Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
    let report = sys.recovery_report().unwrap();
    assert_eq!(report.quarantined, 0, "telemetry bitrot is not data bitrot");
    assert_eq!(report.missing, 0);
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
    sys.store().check_invariants().unwrap();
}
