//! Figure 7: verifying the cost model's two components on CIFAR10_VGG16.
//!
//! - (a) time to re-run the model to each layer: grows with layer depth,
//!   plus a fixed model-load cost (paper: 1.2 s).
//! - (b) time to read each layer's stored intermediate under the different
//!   quantization schemes: the paper finds 8BIT_QT slowest (reconstruction),
//!   then LP_QT, then pool(2), then pool(32).
//!
//! Flags: `--examples N --scale N --layers "1,6,11,16,21"`

use mistique_bench::*;
use mistique_core::{CaptureScheme, FetchStrategy, StorageStrategy, ValueScheme};
use mistique_nn::vgg16_cifar;

fn main() {
    let args = Args::parse();
    let examples = args.usize("examples", DEFAULT_DNN_EXAMPLES);
    let scale = args.usize("scale", DEFAULT_VGG_SCALE);

    println!("# Figure 7: cost model components on CIFAR10_VGG16");
    println!("# paper: (a) re-run time grows with layer + fixed load cost;");
    println!("#        (b) read time: 8BIT_QT > LP_QT > pool(2) > pool(32)");

    // --- (a) re-run time per layer, from a pool(2) system's measurements.
    let dir = mistique_testkit::tempdir().unwrap();
    let (mut sys, ids, _) = dnn_system(
        dir.path(),
        vgg16_cifar(scale),
        examples,
        1,
        CaptureScheme::pool2(),
        StorageStrategy::Dedup,
    );
    let model = ids[0].clone();
    let n_layers = sys.intermediates_of(&model).len();
    let layers = args.layers("layers", "1,6,11,16,21", n_layers);

    println!("\n== Fig 7a: time to re-run to layer L ({examples} examples) ==");
    let load = sys.metadata().model(&model).unwrap().model_load;
    println!("  model load (fixed cost): {}", fmt_dur(load));
    let mut rows = Vec::new();
    for &l in &layers {
        let interm = format!("{model}.layer{l}");
        let (_, t) = timed_fetch(&mut sys, &interm, None, None, FetchStrategy::Rerun);
        let meta = sys.metadata().intermediate(&interm).unwrap();
        rows.push(vec![
            format!("layer{l}"),
            fmt_dur(t),
            fmt_dur(meta.cum_exec_time),
        ]);
    }
    print_table(
        &["layer", "measured re-run", "logged cumulative fwd"],
        &rows,
    );

    // --- (b) read time per layer per scheme.
    println!("\n== Fig 7b: time to read layer L under each scheme ==");
    let schemes: Vec<(&str, CaptureScheme)> = vec![
        (
            "8BIT_QT",
            CaptureScheme {
                value: ValueScheme::Kbit { bits: 8 },
                pool_sigma: None,
            },
        ),
        (
            "LP_QT",
            CaptureScheme {
                value: ValueScheme::Lp,
                pool_sigma: None,
            },
        ),
        ("pool(2)", CaptureScheme::pool2()),
        (
            "pool(32)",
            CaptureScheme {
                value: ValueScheme::Full,
                pool_sigma: Some(32),
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, capture) in schemes {
        let dir = mistique_testkit::tempdir().unwrap();
        let (mut sys, ids, _) = dnn_system(
            dir.path(),
            vgg16_cifar(scale),
            examples,
            1,
            capture,
            StorageStrategy::StoreAll,
        );
        let model = ids[0].clone();
        let mut cells = vec![name.to_string()];
        for &l in &layers {
            let interm = format!("{model}.layer{l}");
            let (_, t) = cold_read(&mut sys, &interm, None, None);
            cells.push(fmt_dur(t));
        }
        rows.push(cells);
    }
    let mut headers: Vec<String> = vec!["scheme".into()];
    headers.extend(layers.iter().map(|l| format!("layer{l}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(&header_refs, &rows);
}
