//! Integration: the full DNN path — checkpoints, quantized capture, frozen-
//! layer dedup, pooling alignment, and representation diagnostics.

use std::sync::Arc;

use mistique_core::{
    CaptureScheme, FetchStrategy, Mistique, MistiqueConfig, StorageStrategy, ValueScheme,
};
use mistique_nn::{simple_cnn, vgg16_cifar, CifarLike};

fn dnn_sys(
    capture: CaptureScheme,
    storage: StorageStrategy,
    epochs: u32,
) -> (
    mistique_testkit::TempDir,
    Mistique,
    Vec<String>,
    Arc<CifarLike>,
) {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            storage,
            dnn_capture: capture,
            row_block_size: 16,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(CifarLike::generate(32, 10, 7));
    let arch = Arc::new(vgg16_cifar(32));
    let mut ids = Vec::new();
    for e in 0..epochs {
        let id = sys
            .register_dnn(Arc::clone(&arch), 3, e, Arc::clone(&data), 16)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        ids.push(id);
    }
    (dir, sys, ids, data)
}

#[test]
fn vgg16_has_21_layers() {
    let (_d, sys, ids, _) = dnn_sys(CaptureScheme::pool2(), StorageStrategy::Dedup, 1);
    assert_eq!(sys.intermediates_of(&ids[0]).len(), 21);
}

#[test]
fn frozen_conv_stack_dedups_across_checkpoints() {
    let (_d, sys, ids, _) = dnn_sys(CaptureScheme::pool2(), StorageStrategy::Dedup, 3);
    assert_eq!(ids.len(), 3);
    let stats = sys.store().stats();
    // 18 of 21 layers are frozen: checkpoints 2 and 3 dedup nearly all of
    // their conv chunks against checkpoint 1.
    assert!(
        stats.dedup_hits as f64 > stats.chunks_stored as f64,
        "expected most later-checkpoint chunks to dedup: {} hits vs {} stored",
        stats.dedup_hits,
        stats.chunks_stored
    );
}

#[test]
fn unfrozen_cnn_does_not_dedup() {
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(
        dir.path(),
        MistiqueConfig {
            row_block_size: 16,
            ..MistiqueConfig::default()
        },
    )
    .unwrap();
    let data = Arc::new(CifarLike::generate(16, 10, 7));
    let arch = Arc::new(simple_cnn(32));
    for e in 0..2 {
        let id = sys
            .register_dnn(Arc::clone(&arch), 3, e, Arc::clone(&data), 16)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
    }
    // All layers train => checkpoint activations differ. (A few chunks may
    // still dedup — all-zero ReLU columns are byte-identical everywhere —
    // but unlike VGG16's frozen stack it must be a small minority.)
    let stats = sys.store().stats();
    assert!(
        stats.dedup_hits * 3 < stats.chunks_stored,
        "{} hits vs {} stored",
        stats.dedup_hits,
        stats.chunks_stored
    );
}

#[test]
fn quantized_capture_roundtrips_within_error_bounds() {
    for (capture, tol) in [
        (
            CaptureScheme {
                value: ValueScheme::Full,
                pool_sigma: None,
            },
            1e-7,
        ),
        (
            CaptureScheme {
                value: ValueScheme::Lp,
                pool_sigma: None,
            },
            2e-3,
        ),
        (
            CaptureScheme {
                value: ValueScheme::Kbit { bits: 8 },
                pool_sigma: None,
            },
            0.2,
        ),
    ] {
        let (_d, mut sys, ids, _) = dnn_sys(capture, StorageStrategy::Dedup, 1);
        let interm = format!("{}.layer16", ids[0]);
        let read = sys
            .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
            .unwrap();
        let rerun = sys
            .fetch_with_strategy(&interm, None, None, FetchStrategy::Rerun)
            .unwrap();
        let scale: f64 = rerun
            .frame
            .columns()
            .iter()
            .flat_map(|c| c.data.to_f64())
            .fold(0.0, |m: f64, v| m.max(v.abs()))
            .max(1e-12);
        for col in read.frame.columns() {
            let a = col.data.to_f64();
            let b = rerun.frame.column(&col.name).unwrap().data.to_f64();
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x - y).abs() <= tol * scale.max(1.0),
                    "{:?}: {x} vs {y} (tol {tol})",
                    capture
                );
            }
        }
    }
}

#[test]
fn threshold_capture_is_binary() {
    let capture = CaptureScheme {
        value: ValueScheme::Threshold { pct: 0.95 },
        pool_sigma: None,
    };
    let (_d, mut sys, ids, _) = dnn_sys(capture, StorageStrategy::Dedup, 1);
    let interm = format!("{}.layer6", ids[0]);
    let read = sys
        .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
        .unwrap();
    let mut ones = 0usize;
    let mut total = 0usize;
    for col in read.frame.columns() {
        for v in col.data.to_f64() {
            assert!(v == 0.0 || v == 1.0);
            total += 1;
            if v == 1.0 {
                ones += 1;
            }
        }
    }
    let frac = ones as f64 / total as f64;
    assert!(
        frac < 0.2,
        "~5% of activations above the 95th percentile, got {frac}"
    );
}

#[test]
fn pool32_collapses_maps_to_single_values() {
    let capture = CaptureScheme {
        value: ValueScheme::Full,
        pool_sigma: Some(32),
    };
    let (_d, sys, ids, _) = dnn_sys(capture, StorageStrategy::Dedup, 1);
    let meta = sys
        .metadata()
        .intermediate(&format!("{}.layer1", ids[0]))
        .unwrap()
        .clone();
    let (c, h, w) = meta.shape.unwrap();
    assert_eq!((h, w), (1, 1), "one value per activation map");
    assert_eq!(meta.columns.len(), c);
}

#[test]
fn svcca_between_checkpoints_detects_frozen_layers() {
    let (_d, mut sys, ids, _) = dnn_sys(CaptureScheme::pool2(), StorageStrategy::Dedup, 2);
    let frozen = sys
        .svcca(
            &format!("{}.layer11", ids[0]),
            &format!("{}.layer11", ids[1]),
            0.99,
        )
        .unwrap();
    assert!(
        frozen.mean_correlation() > 0.999,
        "frozen conv layer identical"
    );
    let head = sys
        .svcca(
            &format!("{}.layer21", ids[0]),
            &format!("{}.layer21", ids[1]),
            0.99,
        )
        .unwrap();
    assert!(
        head.mean_correlation() < 0.999,
        "trained head must differ: {}",
        head.mean_correlation()
    );
}

#[test]
fn partial_reads_are_prefixes_of_full_reads() {
    let (_d, mut sys, ids, _) = dnn_sys(CaptureScheme::pool2(), StorageStrategy::Dedup, 1);
    let interm = format!("{}.layer19", ids[0]);
    let full = sys
        .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
        .unwrap();
    let part = sys
        .fetch_with_strategy(&interm, None, Some(10), FetchStrategy::Read)
        .unwrap();
    assert_eq!(part.frame.n_rows(), 10);
    for col in part.frame.columns() {
        let p = col.data.to_f64();
        let f = full.frame.column(&col.name).unwrap().data.to_f64();
        assert_eq!(&p[..], &f[..10], "col {}", col.name);
    }
}

#[test]
fn a_nan_pixel_does_not_panic_quantized_capture() {
    // `CifarLike::images` is public, so user-supplied data can carry NaN.
    // The fitted schemes (KBIT_QT, THRESHOLD_QT) must fit on the finite
    // values like every demotion does, instead of panicking in the quantile
    // sort; LP_QT never sorted and always passed.
    let mut data = CifarLike::generate(32, 10, 7);
    data.images.data[5] = f32::NAN;
    let data = Arc::new(data);
    for value in [
        ValueScheme::Kbit { bits: 8 },
        ValueScheme::Threshold { pct: 0.995 },
        ValueScheme::Lp,
    ] {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            dnn_capture: CaptureScheme {
                value,
                pool_sigma: Some(2),
            },
            row_block_size: 16,
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let id = sys
            .register_dnn(Arc::new(simple_cnn(8)), 3, 0, Arc::clone(&data), 16)
            .unwrap();
        sys.log_intermediates(&id)
            .unwrap_or_else(|e| panic!("{value:?}: {e}"));
        for interm in sys.intermediates_of(&id) {
            let (c, h, w) = sys.metadata().intermediate(&interm).unwrap().shape.unwrap();
            let frame = sys
                .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                .unwrap_or_else(|e| panic!("{value:?} {interm}: {e}"))
                .frame;
            assert_eq!(
                (frame.n_rows(), frame.n_cols()),
                (32, c * h * w),
                "{value:?} {interm}"
            );
        }
    }
}
