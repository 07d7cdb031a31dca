//! Integration: the full TRAD path — 50-pipeline workload, logging, dedup,
//! cost-based fetching, and diagnostics, spanning every crate.

use std::sync::Arc;

use mistique_core::{FetchStrategy, Mistique, MistiqueConfig, StorageStrategy};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn system(
    strategy: StorageStrategy,
    n_pipelines: usize,
) -> (mistique_testkit::TempDir, Mistique, Vec<String>) {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            storage: strategy,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(ZillowData::generate(600, 42));
    let mut ids = Vec::new();
    for p in zillow_pipelines().into_iter().take(n_pipelines) {
        let id = sys.register_trad(p, Arc::clone(&data)).unwrap();
        sys.log_intermediates(&id).unwrap();
        ids.push(id);
    }
    (dir, sys, ids)
}

#[test]
fn five_variants_share_storage() {
    // P1_v0..P1_v4 differ only in hyper-parameters: everything up to the
    // train stage dedups, so unique bytes grow sublinearly.
    let (_d, sys, ids) = system(StorageStrategy::Dedup, 5);
    assert_eq!(ids.len(), 5);
    let stats = sys.store().stats();
    assert!(stats.dedup_hits > 0);
    assert!(
        stats.unique_bytes * 3 < stats.logical_bytes,
        "5 variants should dedup to well under half: {} of {}",
        stats.unique_bytes,
        stats.logical_bytes
    );
}

#[test]
fn every_intermediate_reads_back_equal_to_rerun() {
    let (_d, mut sys, ids) = system(StorageStrategy::Dedup, 1);
    let interms = sys.intermediates_of(&ids[0]);
    for interm in &interms {
        let read = sys
            .fetch_with_strategy(interm, None, None, FetchStrategy::Read)
            .unwrap();
        let rerun = sys
            .fetch_with_strategy(interm, None, None, FetchStrategy::Rerun)
            .unwrap();
        assert_eq!(read.frame.n_rows(), rerun.frame.n_rows(), "{interm}");
        for col in read.frame.columns() {
            let a = col.data.to_f64();
            let b = rerun.frame.column(&col.name).unwrap().data.to_f64();
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x - y).abs() < 1e-9 || (x.is_nan() && y.is_nan()),
                    "{interm} col {}: {x} vs {y}",
                    col.name
                );
            }
        }
    }
}

#[test]
fn cold_reads_work_after_flush() {
    let (_d, mut sys, ids) = system(StorageStrategy::Dedup, 2);
    sys.flush().unwrap();
    assert!(sys.store().disk_bytes().unwrap() > 0);
    for id in &ids {
        let preds = sys.intermediates_of(id).last().unwrap().clone();
        sys.store_mut().clear_read_cache();
        let r = sys
            .fetch_with_strategy(&preds, Some(&["pred"]), None, FetchStrategy::Read)
            .unwrap();
        assert!(r.frame.n_rows() > 0);
        assert!(r.frame.columns()[0]
            .data
            .to_f64()
            .iter()
            .all(|v| v.is_finite()));
    }
}

#[test]
fn cost_model_prefers_read_for_deep_stages() {
    let (_d, mut sys, ids) = system(StorageStrategy::Dedup, 1);
    // The final prediction stage re-runs the whole pipeline incl. training:
    // reading must win by prediction and by measurement.
    let preds = sys.intermediates_of(&ids[0]).last().unwrap().clone();
    let r = sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
    assert_eq!(r.strategy, FetchStrategy::Read);
    assert!(r.predicted_rerun > r.predicted_read);
}

#[test]
fn diagnostics_run_end_to_end() {
    let (_d, mut sys, ids) = system(StorageStrategy::Dedup, 2);
    let interms = sys.intermediates_of(&ids[0]);
    let raw = interms[0].clone();
    let preds_a = interms.last().unwrap().clone();
    let preds_b = sys.intermediates_of(&ids[1]).last().unwrap().clone();

    assert!(sys.pointq(&raw, "sqft", 0).unwrap() > 0.0);
    assert_eq!(sys.topk(&raw, "sqft", 3).unwrap().len(), 3);
    let hist = sys.col_dist(&raw, "tax_value", 5).unwrap();
    assert_eq!(hist.iter().map(|b| b.count).sum::<usize>(), 600);
    let diff = sys
        .col_diff(&preds_a, "pred", &preds_b, "pred", 1e-12)
        .unwrap();
    assert!(!diff.is_empty());
    let knn = sys.knn(&raw, 5, 4).unwrap();
    assert_eq!(knn.len(), 4);
    let rd = sys.row_diff(&raw, 0, 1).unwrap();
    assert_eq!(rd.len(), 9);
}

#[test]
fn nostore_everything_still_answerable() {
    // With NoStore, every query re-runs — results must still be correct.
    let (_d, mut sys, ids) = system(StorageStrategy::NoStore, 1);
    assert_eq!(sys.store().stats().chunks_stored, 0);
    let preds = sys.intermediates_of(&ids[0]).last().unwrap().clone();
    let r = sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
    assert_eq!(r.strategy, FetchStrategy::Rerun);
    assert!(r.frame.columns()[0]
        .data
        .to_f64()
        .iter()
        .all(|v| v.is_finite()));
}

#[test]
fn adaptive_converges_to_read_dominated_workload() {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            storage: StorageStrategy::Adaptive { gamma_min: 1e-12 },
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(ZillowData::generate(400, 42));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    let mut strategies = Vec::new();
    for _ in 0..3 {
        strategies.push(sys.get_intermediate(&preds, None, None).unwrap().strategy);
    }
    assert_eq!(strategies[0], FetchStrategy::Rerun);
    assert_eq!(
        strategies[2],
        FetchStrategy::Read,
        "hot intermediate materialized"
    );
}
