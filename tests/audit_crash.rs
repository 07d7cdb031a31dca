//! Determinism of replay, the contract behind
//! `mistique replay --differential`: a captured mixed TRAD/DNN workload
//! replayed into fresh stores at `read_parallelism` 1, 2, 4 and 0 (= all
//! CPUs) must produce bit-identical answer transcripts and identical plan
//! choices on every leg.
//!
//! The journal's crash-safety is enumerated together with the flight
//! recorder's in `tests/telemetry_crash.rs`: one workload runs with both
//! sidecars on, and every crash point checks both contracts.

use std::sync::Arc;

use mistique_core::{differential_replay, Mistique, MistiqueConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn sys_config() -> MistiqueConfig {
    MistiqueConfig {
        row_block_size: 50,
        ..MistiqueConfig::default()
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
        // Not Layer 1: over 16 images its re-run and read cost the same,
        // so its plan follows measured timings and flips between legs. A
        // deep layer reads far cheaper than the forward pass behind it.
        sys.knn(&dnn_interms[dnn_interms.len() - 2], 0, 3).unwrap();
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
    // Agreement with the capture's own plans is informational: plans follow
    // measured timings, which differ between the capture and each replay
    // even on one machine. The contract is the cross-leg equality checked
    // by `consistent()` above; here only that the comparison happened.
    let (matched, compared) = report.plan_agreement;
    assert!(compared > 0, "capture must journal plan choices");
    assert!(matched <= compared, "{matched} of {compared}");
}
