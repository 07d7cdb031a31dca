//! Figure 6: storage cost of intermediates.
//!
//! - `--part a` : Zillow, 50 pipelines — raw input vs STORE_ALL vs DEDUP,
//!   plus the cumulative-growth series (paper: 168 MB raw, 67 GB STORE_ALL,
//!   611 MB DEDUP = 110×; DEDUP's cumulative curve stays near-flat).
//! - `--part b` : CIFAR10_CNN and CIFAR10_VGG16, 10 checkpoints each —
//!   STORE_ALL vs LP_QT vs 8BIT_QT vs POOL(2) vs POOL(32) vs POOL(2)+DEDUP
//!   (paper: ~6× from POOL(2), ~95×/83× from POOL(32), 60× from POOL(2)+DEDUP
//!   on the fine-tuned VGG16 whose conv stack is frozen).
//!
//! Flags: `--rows N --pipelines N --examples N --epochs N --scale N --part a|b|all`

use std::sync::Arc;

use mistique_bench::*;
use mistique_core::{CaptureScheme, Mistique, MistiqueConfig, StorageStrategy, ValueScheme};
use mistique_nn::{simple_cnn, vgg16_cifar, ArchConfig};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

fn raw_input_bytes(data: &ZillowData) -> u64 {
    // Compressed size of the three source tables (the paper reports the raw
    // dataset compressed).
    let mut total = 0u64;
    for frame in [&data.properties, &data.train, &data.test] {
        for (_, _, chunk) in frame.chunks(mistique_dataframe::DEFAULT_ROW_BLOCK_SIZE) {
            total += mistique_compress::compress_auto(&chunk.to_bytes()).len() as u64;
        }
    }
    total
}

fn part_a(rows: usize, n_pipelines: usize) {
    println!("\n== Fig 6a: Zillow storage, {n_pipelines} pipelines over {rows} properties ==");
    let data = ZillowData::generate(rows, 42);
    let raw = raw_input_bytes(&data);

    let run = |storage: StorageStrategy| -> (u64, Vec<u64>) {
        let dir = mistique_testkit::tempdir().unwrap();
        let data = Arc::new(ZillowData::generate(rows, 42));
        let mut sys = Mistique::open(
            dir.path(),
            MistiqueConfig {
                storage,
                ..MistiqueConfig::default()
            },
        )
        .unwrap();
        let mut cumulative = Vec::new();
        for p in zillow_pipelines().into_iter().take(n_pipelines) {
            let id = sys.register_trad(p, Arc::clone(&data)).unwrap();
            sys.log_intermediates(&id).unwrap();
            sys.flush().unwrap();
            cumulative.push(sys.store().disk_bytes().unwrap());
        }
        (sys.store().disk_bytes().unwrap(), cumulative)
    };

    let (all_bytes, all_curve) = run(StorageStrategy::StoreAll);
    let (dedup_bytes, dedup_curve) = run(StorageStrategy::Dedup);

    print_table(
        &[
            "strategy",
            "compressed bytes",
            "vs raw input",
            "vs STORE_ALL",
        ],
        &[
            vec![
                "raw input".into(),
                fmt_bytes(raw),
                "1.0x".into(),
                "-".into(),
            ],
            vec![
                "STORE_ALL".into(),
                fmt_bytes(all_bytes),
                format!("{:.1}x", all_bytes as f64 / raw as f64),
                "1.0x".into(),
            ],
            vec![
                "DEDUP".into(),
                fmt_bytes(dedup_bytes),
                format!("{:.1}x", dedup_bytes as f64 / raw as f64),
                format!("{:.1}x smaller", all_bytes as f64 / dedup_bytes as f64),
            ],
        ],
    );

    println!("\n  cumulative storage as pipelines are added (right panel of Fig 6a):");
    let rows_out: Vec<Vec<String>> = all_curve
        .iter()
        .zip(&dedup_curve)
        .enumerate()
        .filter(|(i, _)| (i + 1) % (n_pipelines / 10).max(1) == 0 || *i == 0)
        .map(|(i, (a, d))| vec![format!("{}", i + 1), fmt_bytes(*a), fmt_bytes(*d)])
        .collect();
    print_table(&["pipelines", "STORE_ALL", "DEDUP"], &rows_out);
}

fn dnn_storage(
    arch: ArchConfig,
    examples: usize,
    epochs: u32,
    capture: CaptureScheme,
    storage: StorageStrategy,
) -> u64 {
    let dir = mistique_testkit::tempdir().unwrap();
    let (sys, _, _) = dnn_system(dir.path(), arch, examples, epochs, capture, storage);
    sys.store().disk_bytes().unwrap()
}

fn part_b(examples: usize, epochs: u32, scale: usize) {
    for (name, arch_fn) in [
        ("CIFAR10_CNN", simple_cnn as fn(usize) -> ArchConfig),
        ("CIFAR10_VGG16", vgg16_cifar as fn(usize) -> ArchConfig),
    ] {
        println!(
            "\n== Fig 6b: {name} storage, {epochs} checkpoints x {examples} examples (scale 1/{scale}) =="
        );
        let schemes: Vec<(&str, CaptureScheme, StorageStrategy)> = vec![
            (
                "STORE_ALL (f32)",
                CaptureScheme::full(),
                StorageStrategy::StoreAll,
            ),
            (
                "LP_QT (f16)",
                CaptureScheme {
                    value: ValueScheme::Lp,
                    pool_sigma: None,
                },
                StorageStrategy::StoreAll,
            ),
            (
                "8BIT_QT",
                CaptureScheme {
                    value: ValueScheme::Kbit { bits: 8 },
                    pool_sigma: None,
                },
                StorageStrategy::StoreAll,
            ),
            (
                "POOL_QT(2)",
                CaptureScheme::pool2(),
                StorageStrategy::StoreAll,
            ),
            (
                "POOL_QT(32)",
                CaptureScheme {
                    value: ValueScheme::Full,
                    pool_sigma: Some(32),
                },
                StorageStrategy::StoreAll,
            ),
            (
                "POOL_QT(2)+DEDUP",
                CaptureScheme::pool2(),
                StorageStrategy::Dedup,
            ),
        ];
        let mut results = Vec::new();
        let mut baseline = 0u64;
        for (label, capture, storage) in schemes {
            let bytes = dnn_storage(arch_fn(scale), examples, epochs, capture, storage);
            if label.starts_with("STORE_ALL") {
                baseline = bytes;
            }
            results.push(vec![
                label.to_string(),
                fmt_bytes(bytes),
                if baseline > 0 {
                    format!("{:.1}x", baseline as f64 / bytes.max(1) as f64)
                } else {
                    "-".into()
                },
            ]);
        }
        print_table(
            &["scheme", "compressed bytes", "reduction vs STORE_ALL"],
            &results,
        );
    }
}

fn main() {
    let args = Args::parse();
    let part = args.string("part", "all");
    let rows = args.usize("rows", DEFAULT_ZILLOW_ROWS);
    let n_pipelines = args.usize("pipelines", 50);
    let examples = args.usize("examples", DEFAULT_DNN_EXAMPLES);
    let epochs = args.usize("epochs", 10) as u32;
    let scale = args.usize("scale", DEFAULT_VGG_SCALE);

    println!("# Figure 6: intermediate storage cost");
    println!(
        "# paper: Zillow DEDUP 110x smaller than STORE_ALL; DNN POOL(2) ~6x, POOL(32) 83-95x,"
    );
    println!("#        POOL(2)+DEDUP 60x for the frozen-conv fine-tuned VGG16");
    match part.as_str() {
        "a" => part_a(rows, n_pipelines),
        "b" => part_b(examples, epochs, scale),
        _ => {
            part_a(rows, n_pipelines);
            part_b(examples, epochs, scale);
        }
    }
}
