//! The paper's headline claims, encoded as assertions at test scale.
//! If any of these breaks, the reproduction no longer reproduces.

use std::sync::Arc;

use mistique_core::{
    CaptureScheme, FetchStrategy, Mistique, MistiqueConfig, StorageStrategy, ValueScheme,
};
use mistique_nn::{simple_cnn, vgg16_cifar, CifarLike};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn dnn_storage(arch_scale: usize, capture: CaptureScheme, storage: StorageStrategy) -> u64 {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            storage,
            dnn_capture: capture,
            row_block_size: 32,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(CifarLike::generate(32, 10, 7));
    let arch = Arc::new(vgg16_cifar(arch_scale));
    for epoch in 0..3 {
        let id = sys
            .register_dnn(Arc::clone(&arch), 11, epoch, Arc::clone(&data), 32)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
    }
    sys.flush().unwrap();
    sys.store().disk_bytes().unwrap()
}

// Claim (Sec 8.2 / Fig 6a): DEDUP shrinks TRAD storage by a large factor and
// its cumulative growth is dominated by the first pipeline.
#[test]
fn claim_trad_dedup_shrinks_storage() {
    let run = |storage| {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(
            dir.path(),
            MistiqueConfig {
                storage,
                ..MistiqueConfig::default()
            },
        )
        .unwrap();
        let data = Arc::new(ZillowData::generate(400, 42));
        let mut first = 0u64;
        for (i, p) in zillow_pipelines().into_iter().take(5).enumerate() {
            let id = sys.register_trad(p, Arc::clone(&data)).unwrap();
            sys.log_intermediates(&id).unwrap();
            sys.flush().unwrap();
            if i == 0 {
                first = sys.store().disk_bytes().unwrap();
            }
        }
        (first, sys.store().disk_bytes().unwrap())
    };
    let (_, store_all) = run(StorageStrategy::StoreAll);
    let (dedup_first, dedup_total) = run(StorageStrategy::Dedup);
    assert!(
        store_all as f64 > dedup_total as f64 * 3.0,
        "5 variants must dedup >3x: {store_all} vs {dedup_total}"
    );
    assert!(
        dedup_first as f64 > dedup_total as f64 * 0.5,
        "first pipeline dominates DEDUP storage: {dedup_first} of {dedup_total}"
    );
}

// Claim (Sec 8.2 / Fig 6b): quantization/summarization shrink DNN storage in
// the order full > LP > pool(2) > pool(32), and DEDUP collapses the frozen
// conv stack of a fine-tuned model across checkpoints.
#[test]
fn claim_dnn_scheme_ordering_and_finetune_dedup() {
    let full = dnn_storage(
        32,
        CaptureScheme {
            value: ValueScheme::Full,
            pool_sigma: None,
        },
        StorageStrategy::StoreAll,
    );
    let lp = dnn_storage(
        32,
        CaptureScheme {
            value: ValueScheme::Lp,
            pool_sigma: None,
        },
        StorageStrategy::StoreAll,
    );
    let pool2 = dnn_storage(32, CaptureScheme::pool2(), StorageStrategy::StoreAll);
    let pool32 = dnn_storage(
        32,
        CaptureScheme {
            value: ValueScheme::Full,
            pool_sigma: Some(32),
        },
        StorageStrategy::StoreAll,
    );
    assert!(
        full > lp && lp > pool2 && pool2 > pool32,
        "{full} > {lp} > {pool2} > {pool32}"
    );

    let with_dedup = dnn_storage(32, CaptureScheme::pool2(), StorageStrategy::Dedup);
    assert!(
        pool2 as f64 > with_dedup as f64 * 2.0,
        "3 checkpoints of a frozen conv stack must dedup >2x: {pool2} vs {with_dedup}"
    );
}

// Claim (Sec 8.1 / Fig 5): for deep, expensive intermediates, reading beats
// re-running by a large factor — and the cost model picks reading.
#[test]
fn claim_read_beats_rerun_for_deep_intermediates() {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
    let data = Arc::new(ZillowData::generate(800, 42));
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    let preds = sys.intermediates_of(&id).last().unwrap().clone();

    let auto = sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
    assert_eq!(
        auto.strategy,
        FetchStrategy::Read,
        "cost model must pick read"
    );

    let read = sys
        .fetch_with_strategy(&preds, Some(&["pred"]), None, FetchStrategy::Read)
        .unwrap();
    let rerun = sys
        .fetch_with_strategy(&preds, Some(&["pred"]), None, FetchStrategy::Rerun)
        .unwrap();
    assert!(
        rerun.fetch_time > read.fetch_time * 3,
        "read {:?} must clearly beat rerun {:?}",
        read.fetch_time,
        rerun.fetch_time
    );
}

// Claim (Sec 8.4 / Table 2): 8BIT_QT barely changes SVCCA; Fig 9: THRESHOLD
// drastically changes per-class averages. Checked via the diagnostics API on
// a small CNN.
#[test]
fn claim_quantization_fidelity_ordering() {
    use mistique_core::diagnostics::frame_to_matrix;
    use mistique_linalg::svcca;
    use mistique_quantize::{KbitQuantizer, ThresholdQuantizer};

    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            dnn_capture: CaptureScheme {
                value: ValueScheme::Full,
                pool_sigma: None,
            },
            row_block_size: 32,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(CifarLike::generate(48, 10, 3));
    let id = sys
        .register_dnn(Arc::new(simple_cnn(16)), 5, 0, data, 32)
        .unwrap();
    sys.log_intermediates(&id).unwrap();

    let n_layers = sys.intermediates_of(&id).len();
    let logits = frame_to_matrix(
        &sys.fetch_with_strategy(
            &format!("{id}.layer{n_layers}"),
            None,
            None,
            FetchStrategy::Read,
        )
        .unwrap()
        .frame,
    );
    let mid = frame_to_matrix(
        &sys.fetch_with_strategy(&format!("{id}.layer7"), None, None, FetchStrategy::Read)
            .unwrap()
            .frame,
    );

    let base = svcca(&logits, &mid, 0.99).mean_correlation();

    let sample: Vec<f32> = mid.data().iter().map(|&v| v as f32).collect();
    let q8 = KbitQuantizer::fit(&sample, 8);
    let mid8 = mistique_linalg::Matrix::from_vec(
        mid.rows(),
        mid.cols(),
        mid.data()
            .iter()
            .map(|&v| q8.value_of(q8.code_of(v as f32)) as f64)
            .collect(),
    );
    let r8 = svcca(&logits, &mid8, 0.99).mean_correlation();
    assert!(
        (base - r8).abs() < 0.1,
        "8BIT must track full precision: {base} vs {r8}"
    );

    let thr = ThresholdQuantizer::fit(&sample, 0.995);
    let midt = mistique_linalg::Matrix::from_vec(
        mid.rows(),
        mid.cols(),
        mid.data()
            .iter()
            .map(|&v| if v as f32 > thr.threshold() { 1.0 } else { 0.0 })
            .collect(),
    );
    let rt = svcca(&logits, &midt, 0.99).mean_correlation();
    assert!(
        (base - rt).abs() > (base - r8).abs(),
        "THRESHOLD must distort more than 8BIT: base {base}, 8bit {r8}, thr {rt}"
    );
}

// Claim (Sec 8.5 / Fig 10): with adaptive materialization, a repeated query
// gets dramatically faster after its intermediate materializes, and total
// storage stays below DEDUP's.
#[test]
fn claim_adaptive_materialization_behaviour() {
    let data = Arc::new(ZillowData::generate(500, 42));
    let dedup_bytes = {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(
            dir.path(),
            MistiqueConfig {
                storage: StorageStrategy::Dedup,
                ..MistiqueConfig::default()
            },
        )
        .unwrap();
        let id = sys
            .register_trad(zillow_pipelines().remove(0), Arc::clone(&data))
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        sys.flush().unwrap();
        sys.store().disk_bytes().unwrap()
    };

    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            storage: StorageStrategy::Adaptive { gamma_min: 1e-10 },
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let id = sys
        .register_trad(zillow_pipelines().remove(0), data)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    let preds = sys.intermediates_of(&id).last().unwrap().clone();
    let first = sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
    let later = sys.get_intermediate(&preds, Some(&["pred"]), None).unwrap();
    assert_eq!(first.strategy, FetchStrategy::Rerun);
    assert_ne!(later.strategy, FetchStrategy::Rerun);
    assert!(
        first.fetch_time > later.fetch_time * 10,
        "{:?} vs {:?}",
        first.fetch_time,
        later.fetch_time
    );

    sys.flush().unwrap();
    assert!(sys.store().disk_bytes().unwrap() < dedup_bytes);
}
