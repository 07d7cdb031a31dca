//! Crash-safety of the workload audit journal and determinism of replay.
//!
//! Part 1 enumerates a simulated power cut at **every** backend syscall of a
//! register → log → query → reclaim → persist workload (audit capture on,
//! so journal segment writes interleave with data and telemetry writes on
//! the same [`FaultyFs`]) under all three [`TornWrite`] policies, asserting:
//!
//! - the journal always loads from whatever segments survive — a valid
//!   prefix with strictly increasing sequence numbers, never a parse error;
//! - a torn audit write never quarantines a *data* partition or breaks
//!   reopen: journal I/O is best-effort by contract;
//! - after reopen the journal resumes with sequence numbers strictly past
//!   every surviving record;
//! - a *completed* workload's flushed records survive any power-cut policy.
//!
//! Part 2 is the replay-determinism contract behind
//! `mistique replay --differential`: a captured mixed TRAD/DNN workload
//! replayed into fresh stores at `read_parallelism` 1, 2, 4 and 0 (= all
//! CPUs) must produce bit-identical answer transcripts and identical plan
//! choices on every leg.

use std::sync::Arc;

use mistique_core::{differential_replay, FetchStrategy, Mistique, MistiqueConfig, MistiqueError};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::{FaultyFs, StorageBackend, TornWrite};

const POLICIES: [TornWrite; 3] = [TornWrite::DropAll, TornWrite::TornHalf, TornWrite::KeepAll];

fn sys_config() -> MistiqueConfig {
    MistiqueConfig {
        row_block_size: 50,
        // An astronomic tolerance keeps the workload's backend op sequence
        // deterministic: no timing-dependent drift flags or plan churn.
        drift_tolerance: 1e12,
        ..MistiqueConfig::default()
    }
}

/// The audited workload: every entry-point kind appears at least once, and
/// the explicit `audit_flush` calls put journal segment writes in the middle
/// of the op stream, not just at drop time.
fn run_workload(sys: &mut Mistique, data: &Arc<ZillowData>) -> Result<(), MistiqueError> {
    let pipes = zillow_pipelines();
    let id_a = sys.register_trad(pipes[0].clone(), Arc::clone(data))?;
    sys.log_intermediates(&id_a)?;
    sys.audit_flush();
    let interms = sys.intermediates_of(&id_a);
    let interm = interms[0].clone();
    sys.topk(&interm, "sqft", 5)?;
    sys.pointq(&interm, "sqft", 3)?;
    sys.fetch_with_strategy(&interm, None, Some(20), FetchStrategy::Read)?;
    sys.audit_flush();
    // A budget far below usage drives demotions and purges.
    sys.reclaim_to(256)?;
    sys.persist()?;
    Ok(())
}

fn load_journal(fs: &FaultyFs) -> Vec<mistique_core::AuditRecord> {
    let backend: Arc<dyn StorageBackend> = Arc::new(fs.clone());
    Mistique::load_audit_with_backend(backend, "/vfs".as_ref())
        .expect("audit journal load must tolerate any torn state")
}

/// Shared invariants of any surviving journal.
fn assert_journal_sane(records: &[mistique_core::AuditRecord], ctx: &str) {
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

#[test]
fn every_crash_point_keeps_journal_loadable_and_data_clean() {
    let data = Arc::new(ZillowData::generate(80, 1));

    // Golden run over a pristine virtual disk.
    let fs = FaultyFs::new();
    let mut sys = Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
    let open_ops = fs.op_count();
    run_workload(&mut sys, &data).expect("golden workload");
    let total = fs.op_count();
    drop(sys);
    let golden = load_journal(&fs);
    assert!(
        golden.len() >= 6,
        "golden run must journal every entry point, got {}",
        golden.len()
    );
    assert_journal_sane(&golden, "golden");
    let golden_max = golden.last().unwrap().seq;

    for k in (open_ops + 1)..=total {
        for policy in POLICIES {
            let fs = FaultyFs::new();
            let mut sys =
                Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
            fs.crash_after(k);
            let r = run_workload(&mut sys, &data);
            assert!(
                r.is_err(),
                "crash at op {k} must surface through a data op (audit \
                 failures are swallowed, but persist comes after every hook)"
            );
            drop(sys);
            fs.power_cut(policy);

            // Whatever survived on disk parses as a sane journal prefix.
            let survivors = load_journal(&fs);
            assert_journal_sane(&survivors, &format!("crash at {k} ({policy:?})"));
            let survivor_max = survivors.last().map(|r| r.seq);

            // Reopen: a torn journal write must never contaminate data.
            match Mistique::reopen_with_backend("/vfs", sys_config(), Arc::new(fs.clone())) {
                Err(MistiqueError::NoManifest) => {}
                Err(e) => panic!("crash at {k} ({policy:?}): reopen failed: {e}"),
                Ok(mut sys) => {
                    let report = sys.recovery_report().unwrap();
                    assert_eq!(
                        report.quarantined, 0,
                        "crash at {k} ({policy:?}): torn audit write \
                         quarantined a data partition"
                    );
                    // The journal resumes past every surviving record: one
                    // more audited op, flushed, must extend the sequence.
                    let _ = sys.reclaim();
                    sys.audit_flush();
                    sys.store()
                        .check_invariants()
                        .unwrap_or_else(|v| panic!("crash at {k} ({policy:?}): {v}"));
                    drop(sys);
                    let resumed = load_journal(&fs);
                    assert_journal_sane(&resumed, &format!("post-reopen at {k} ({policy:?})"));
                    let resumed_max = resumed.last().map(|r| r.seq);
                    assert!(
                        resumed_max > survivor_max,
                        "crash at {k} ({policy:?}): journal did not resume \
                         ({survivor_max:?} then {resumed_max:?})"
                    );
                }
            }
        }
    }

    // Completed workload + power cut: every flushed record is durable (the
    // journal flush is an atomic segment rewrite), so the golden journal
    // survives any policy.
    for policy in POLICIES {
        let fs = FaultyFs::new();
        let mut sys =
            Mistique::open_with_backend("/vfs", sys_config(), Arc::new(fs.clone())).unwrap();
        run_workload(&mut sys, &data).unwrap();
        drop(sys);
        fs.power_cut(policy);
        let survivors = load_journal(&fs);
        assert_eq!(
            survivors.last().map(|r| r.seq),
            Some(golden_max),
            "{policy:?}: completed run must keep every journal record"
        );
    }
}

#[test]
fn replay_is_deterministic_across_read_parallelism() {
    // Capture a mixed TRAD/DNN workload with every query family the replay
    // engine dispatches on.
    let capture = mistique_testkit::tempdir().unwrap();
    let config = sys_config();
    {
        let mut sys = Mistique::open(capture.path(), config.clone()).unwrap();
        let data = Arc::new(ZillowData::generate(200, 5));
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();

        let cifar = Arc::new(mistique_nn::CifarLike::generate(16, 4, 7));
        let labels = cifar.labels.clone();
        let dnn = sys
            .register_dnn(Arc::new(mistique_nn::simple_cnn(16)), 9, 1, cifar, 8)
            .unwrap();
        sys.log_intermediates(&dnn).unwrap();

        let interm = sys.intermediates_of(&id)[0].clone();
        sys.topk(&interm, "sqft", 7).unwrap();
        sys.pointq(&interm, "sqft", 3).unwrap();
        sys.col_dist(&interm, "sqft", 6).unwrap();
        sys.get_rows(&interm, &[0, 3, 5], None).unwrap();
        sys.get_intermediate(&interm, None, Some(40)).unwrap();

        let dnn_interms = sys.intermediates_of(&dnn);
        let softmax = dnn_interms.last().unwrap().clone();
        sys.argmax_predictions(&softmax).unwrap();
        sys.accuracy(&softmax, &labels).unwrap();
        sys.knn(&dnn_interms[0], 0, 3).unwrap();
        sys.audit_flush();
    }
    let records = Mistique::load_audit(capture.path()).unwrap();
    assert!(
        records.len() >= 12,
        "capture produced {} records",
        records.len()
    );

    // Replay at every worker count: answers and plans must be identical.
    let scratch = mistique_testkit::tempdir().unwrap();
    let report = differential_replay(&records, scratch.path(), &config, &[1, 2, 4, 0]).unwrap();
    assert!(
        report.consistent(),
        "differential replay diverged:\n{}",
        report.mismatches.join("\n")
    );
    assert_eq!(report.runs.len(), 4);
    for run in &report.runs {
        assert_eq!(
            run.outcome.executed,
            records.len() as u64,
            "workers={}: every captured record must replay",
            run.workers
        );
        assert_eq!(run.outcome.failed, 0, "workers={}", run.workers);
        assert!(run.outcome.skipped.is_empty(), "workers={}", run.workers);
        assert_eq!(
            run.outcome.transcript_digest(),
            report.runs[0].outcome.transcript_digest(),
            "workers={} transcript differs from workers={}",
            run.workers,
            report.runs[0].workers
        );
    }
    // The legs replayed the same machine the capture ran on, so the plan
    // choices should also agree with the original journal.
    let (matched, compared) = report.plan_agreement;
    assert!(compared > 0, "capture must journal plan choices");
    assert_eq!(
        matched, compared,
        "replay plan choices diverged from capture"
    );
}
