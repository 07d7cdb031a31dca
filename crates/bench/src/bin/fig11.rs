//! Figure 11 + Sec 8.6: logging (pipeline) overhead.
//!
//! - Default: TRAD pipelines P1, P5, P9 run under NONE / ADAPTIVE / DEDUP /
//!   STORE_ALL with synchronous writes; the paper finds runtime directly
//!   correlated with bytes written — STORE_ALL worst, ADAPTIVE ≈ DEDUP low.
//! - `--dnn`: CIFAR10_VGG16 single run; the paper reports 19 s without
//!   logging, 252 s f32 / 151 s f16 / 379 s 8BIT (quantile cost) /
//!   20 s pool(32) / 38 s pool(4) / 56 s pool(2).
//!
//! Flags: `--rows N --examples N --scale N --dnn`

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mistique_bench::*;
use mistique_core::{CaptureScheme, Mistique, MistiqueConfig, StorageStrategy, ValueScheme};
use mistique_nn::{vgg16_cifar, CifarLike, Model};
use mistique_pipeline::templates::{template_stages, template_variants};
use mistique_pipeline::{Pipeline, ZillowData};

fn trad(rows: usize) {
    println!("\n== Fig 11: TRAD pipeline runtime incl. synchronous logging ==");
    let data = Arc::new(ZillowData::generate(rows, 42));
    let strategies: Vec<(&str, StorageStrategy)> = vec![
        ("NONE", StorageStrategy::NoStore),
        (
            "ADAPTIVE",
            StorageStrategy::Adaptive {
                gamma_min: 0.5 / 1024.0,
            },
        ),
        ("DEDUP", StorageStrategy::Dedup),
        ("STORE_ALL", StorageStrategy::StoreAll),
    ];
    let mut rows_out = Vec::new();
    for template in [1usize, 5, 9] {
        for (name, storage) in &strategies {
            let dir = mistique_testkit::tempdir().unwrap();
            let mut sys = Mistique::open(
                dir.path(),
                MistiqueConfig {
                    storage: *storage,
                    ..MistiqueConfig::default()
                },
            )
            .unwrap();
            let pipeline = Pipeline::new(
                format!("P{template}"),
                template_stages(template),
                template_variants(template).remove(0),
                42,
            );
            let n_stages = pipeline.len();
            let id = sys.register_trad(pipeline, Arc::clone(&data)).unwrap();
            let t0 = Instant::now();
            sys.log_intermediates(&id).unwrap();
            sys.flush().unwrap();
            let total = t0.elapsed();
            rows_out.push(vec![
                format!("P{template} ({n_stages} stages)"),
                name.to_string(),
                fmt_dur(total),
                fmt_bytes(sys.store().bytes_written()),
            ]);
        }
    }
    print_table(
        &["pipeline", "strategy", "run+log time", "bytes written"],
        &rows_out,
    );
}

fn dnn(examples: usize, scale: usize) {
    println!("\n== Sec 8.6: CIFAR10_VGG16 logging overhead by scheme ==");
    let data = Arc::new(CifarLike::generate(examples, 10, 7));
    let arch = Arc::new(vgg16_cifar(scale));

    // Baseline: run the model without any logging, tile by tile as
    // logging runs it.
    let model = Model::build(&arch, 11, 0);
    let t0 = Instant::now();
    model.forward_tiles(
        &data.images,
        0..data.len(),
        model.n_layers() - 1,
        |_, t, _| {
            black_box(t);
        },
    );
    let no_log = t0.elapsed();

    let schemes: Vec<(&str, CaptureScheme)> = vec![
        ("f32 (STORE_ALL)", CaptureScheme::full()),
        (
            "f16 (LP_QT)",
            CaptureScheme {
                value: ValueScheme::Lp,
                pool_sigma: None,
            },
        ),
        (
            "8BIT_QT",
            CaptureScheme {
                value: ValueScheme::Kbit { bits: 8 },
                pool_sigma: None,
            },
        ),
        ("pool(2)", CaptureScheme::pool2()),
        (
            "pool(4)",
            CaptureScheme {
                value: ValueScheme::Full,
                pool_sigma: Some(4),
            },
        ),
        (
            "pool(32)",
            CaptureScheme {
                value: ValueScheme::Full,
                pool_sigma: Some(32),
            },
        ),
    ];
    let mut rows_out = vec![vec![
        "no logging".to_string(),
        fmt_dur(no_log),
        "1.0x".to_string(),
        "-".to_string(),
    ]];
    for (name, capture) in schemes {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(
            dir.path(),
            MistiqueConfig {
                storage: StorageStrategy::StoreAll,
                dnn_capture: capture,
                ..MistiqueConfig::default()
            },
        )
        .unwrap();
        let id = sys
            .register_dnn(Arc::clone(&arch), 11, 0, Arc::clone(&data), 1000)
            .unwrap();
        let t0 = Instant::now();
        sys.log_intermediates(&id).unwrap();
        sys.flush().unwrap();
        let total = t0.elapsed();
        rows_out.push(vec![
            name.to_string(),
            fmt_dur(total),
            format!("{:.1}x", total.as_secs_f64() / no_log.as_secs_f64()),
            fmt_bytes(sys.store().bytes_written()),
        ]);
    }
    print_table(
        &["scheme", "run+log time", "vs no logging", "bytes written"],
        &rows_out,
    );
}

fn main() {
    let args = Args::parse();
    println!("# Figure 11 / Sec 8.6: logging overhead");
    println!(
        "# paper: overhead correlates with bytes written; 8BIT pays extra for quantile fitting;"
    );
    println!("#        pool(32) is nearly free");
    if !args.flag("dnn") {
        trad(args.usize("rows", DEFAULT_ZILLOW_ROWS));
    }
    dnn(
        args.usize("examples", DEFAULT_DNN_EXAMPLES),
        args.usize("scale", DEFAULT_VGG_SCALE),
    );
}
