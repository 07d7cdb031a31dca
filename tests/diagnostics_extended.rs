//! Integration tests for the extended diagnostics (confusion matrix,
//! accuracy, grouped metrics) on a logged DNN system.

use std::sync::Arc;

use mistique_core::{Mistique, MistiqueConfig};
use mistique_nn::{simple_cnn, CifarLike};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn dnn() -> (mistique_testkit::TempDir, Mistique, String, Arc<CifarLike>) {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            row_block_size: 16,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(CifarLike::generate(40, 10, 3));
    let id = sys
        .register_dnn(Arc::new(simple_cnn(16)), 5, 0, Arc::clone(&data), 16)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    (dir, sys, id, data)
}

#[test]
fn confusion_matrix_counts_all_examples() {
    let (_d, mut sys, id, data) = dnn();
    let n_layers = sys.intermediates_of(&id).len();
    let softmax = format!("{id}.layer{n_layers}");
    let cm = sys.confusion_matrix(&softmax, &data.labels, 10).unwrap();
    let total: usize = cm.iter().flat_map(|row| row.iter()).sum();
    assert_eq!(total, 40);
    // Diagonal + accuracy agree.
    let diag: usize = (0..10).map(|i| cm[i][i]).sum();
    let acc = sys.accuracy(&softmax, &data.labels).unwrap();
    assert!((acc - diag as f64 / 40.0).abs() < 1e-12);
}

#[test]
fn argmax_is_consistent_with_scores() {
    let (_d, mut sys, id, _) = dnn();
    let n_layers = sys.intermediates_of(&id).len();
    let softmax = format!("{id}.layer{n_layers}");
    let preds = sys.argmax_predictions(&softmax).unwrap();
    let frame = sys.get_intermediate(&softmax, None, None).unwrap().frame;
    let cols: Vec<Vec<f64>> = frame.columns().iter().map(|c| c.data.to_f64()).collect();
    for (i, &p) in preds.iter().enumerate() {
        for c in &cols {
            assert!(cols[p][i] >= c[i], "row {i}");
        }
    }
}

#[test]
fn class_out_of_range_is_an_error() {
    let (_d, mut sys, id, data) = dnn();
    let n_layers = sys.intermediates_of(&id).len();
    let softmax = format!("{id}.layer{n_layers}");
    assert!(sys.confusion_matrix(&softmax, &data.labels, 3).is_err());
}

#[test]
fn group_metric_on_zillow_predictions() {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
    let data = Arc::new(ZillowData::generate(400, 1));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), Arc::clone(&data))
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    let preds = sys.intermediates_of(&id).last().unwrap().clone();

    // Group predictions by a synthetic 3-way split of homes.
    let n = sys.metadata().intermediate(&preds).unwrap().n_rows;
    let groups: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
    let rows = sys.group_metric(&preds, "pred", &groups, 3).unwrap();
    assert_eq!(rows.len(), 3);
    let total: usize = rows.iter().map(|(_, _, c)| c).sum();
    assert_eq!(total, n);
    for (_, mean, count) in rows {
        assert!(count > 0);
        assert!(mean.is_finite());
    }
    // Out-of-range group id errors.
    let bad = vec![9u8; n];
    assert!(sys.group_metric(&preds, "pred", &bad, 3).is_err());
}
