//! Ablations of MISTIQUE's design choices (the sweeps DESIGN.md calls out,
//! beyond the paper's own figures).
//!
//! 1. KBIT_QT bit-width k ∈ {1..8}: storage vs diagnostic fidelity.
//! 2. POOL_QT σ ∈ {1, 2, 4, 8, 32}: storage vs read time vs KNN overlap.
//! 3. InMemoryStore budget: eviction pressure vs logging time.
//! 4. RowBlock size: point-read vs scan trade-off.
//!
//! Flags: `--examples N --scale N --rows N`

use std::sync::Arc;

use mistique_bench::*;
use mistique_core::diagnostics::frame_to_matrix;
use mistique_core::{
    CaptureScheme, FetchStrategy, Mistique, MistiqueConfig, StorageStrategy, ValueScheme,
};
use mistique_nn::vgg16_cifar;
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::DataStoreConfig;

fn kbit_sweep(examples: usize, scale: usize) {
    println!("\n== ablation 1: KBIT_QT bit width (layer 11, {examples} examples) ==");
    // Ground truth from a full-precision system.
    let dir = mistique_testkit::tempdir().unwrap();
    let (mut sys, ids, _) = dnn_system(
        dir.path(),
        vgg16_cifar(scale),
        examples,
        1,
        CaptureScheme::full(),
        StorageStrategy::Dedup,
    );
    let interm = format!("{}.layer11", ids[0]);
    let full = frame_to_matrix(
        &sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
            .unwrap()
            .frame,
    );
    let truth = knn(&full, 0, 20);

    let mut rows = Vec::new();
    for bits in [1u32, 2, 3, 4, 8] {
        let (recon, q) = kbit_matrix(&full, bits);
        // Storage model: bits per value + quantizer table.
        let stored = (full.data().len() * bits as usize).div_ceil(8) + q.to_bytes().len();
        let raw = full.data().len() * 4;
        rows.push(vec![
            format!("{bits}"),
            format!("{:.1}x", raw as f64 / stored as f64),
            format!("{:.3}", overlap(&knn(&recon, 0, 20), &truth)),
            format!("{:.4}", full.max_abs_diff(&recon)),
        ]);
    }
    print_table(
        &["k (bits)", "reduction vs f32", "KNN overlap", "max abs err"],
        &rows,
    );
}

fn pool_sweep(examples: usize, scale: usize) {
    println!("\n== ablation 2: POOL_QT sigma (whole model, {examples} examples) ==");
    let mut rows = Vec::new();
    for sigma in [1usize, 2, 4, 8, 32] {
        let capture = CaptureScheme {
            value: ValueScheme::Full,
            pool_sigma: (sigma > 1).then_some(sigma),
        };
        let dir = mistique_testkit::tempdir().unwrap();
        let (mut sys, ids, _) = dnn_system(
            dir.path(),
            vgg16_cifar(scale),
            examples,
            1,
            capture,
            StorageStrategy::StoreAll,
        );
        let interm = format!("{}.layer6", ids[0]);
        let (_, t_read) = cold_read(&mut sys, &interm, None, None);
        rows.push(vec![
            format!("{sigma}"),
            fmt_bytes(sys.store().disk_bytes().unwrap()),
            fmt_dur(t_read),
            format!(
                "{}",
                sys.metadata().intermediate(&interm).unwrap().columns.len()
            ),
        ]);
    }
    print_table(
        &["sigma", "total storage", "layer6 read", "layer6 columns"],
        &rows,
    );
}

fn buffer_pool_sweep(rows_n: usize) {
    println!("\n== ablation 3: InMemoryStore budget (2 Zillow pipelines, {rows_n} rows) ==");
    let data = Arc::new(ZillowData::generate(rows_n, 42));
    let mut rows = Vec::new();
    for budget in [64usize << 10, 1 << 20, 8 << 20, 64 << 20] {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            datastore: DataStoreConfig {
                mem_capacity: budget,
                ..DataStoreConfig::default()
            },
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let (_, t) = time(|| {
            for p in zillow_pipelines().into_iter().take(2) {
                let id = sys.register_trad(p, Arc::clone(&data)).unwrap();
                sys.log_intermediates(&id).unwrap();
            }
        });
        // Bytes written *before* the final flush = eviction traffic.
        let evicted_bytes = sys.store().bytes_written();
        sys.flush().unwrap();
        rows.push(vec![
            fmt_bytes(budget as u64),
            fmt_dur(t),
            fmt_bytes(evicted_bytes),
            fmt_bytes(sys.store().bytes_written()),
        ]);
    }
    print_table(
        &[
            "pool budget",
            "log time",
            "evicted during log",
            "total written",
        ],
        &rows,
    );
}

fn row_block_sweep(rows_n: usize) {
    println!("\n== ablation 4: RowBlock size (point read vs full scan) ==");
    let data = Arc::new(ZillowData::generate(rows_n, 42));
    let mut rows = Vec::new();
    for rbs in [100usize, 1000, 4000] {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            row_block_size: rbs,
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let id = sys
            .register_trad(zillow_pipelines().remove(0), Arc::clone(&data))
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        sys.flush().unwrap();
        let interm = sys.intermediates_of(&id)[0].clone();

        sys.store_mut().clear_read_cache();
        let (_, t_point) = time(|| {
            sys.get_rows(&interm, &[rows_n - 1], Some(&["sqft"]))
                .unwrap()
        });
        let (_, t_scan) = cold_read(&mut sys, &interm, Some(&["sqft"]), None);
        rows.push(vec![format!("{rbs}"), fmt_dur(t_point), fmt_dur(t_scan)]);
    }
    print_table(
        &["RowBlock rows", "point read (1 row)", "full column scan"],
        &rows,
    );
    println!("  (small blocks: cheap point reads, more chunks; big blocks: the reverse)");
}

fn main() {
    let args = Args::parse();
    let examples = args.usize("examples", 128);
    let scale = args.usize("scale", 16);
    let rows_n = args.usize("rows", 2000);

    println!("# Ablations of MISTIQUE design choices (see DESIGN.md Sec 6)");
    kbit_sweep(examples, scale);
    pool_sweep(examples, scale);
    buffer_pool_sweep(rows_n);
    row_block_sweep(rows_n);
}
