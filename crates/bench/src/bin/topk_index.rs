//! Indexed top-k / threshold reads vs full column scans on the DNN
//! workload — the DeepEverest setting: "which examples maximally activate
//! neuron j". The max-activation list answers top-k without touching the
//! store at all; zone maps prune RowBlocks for threshold scans. Both must
//! return bit-identical answers to the scan they replace.
//!
//! Flags: `--examples N --k N --reps N --scale N`

use std::time::Duration;

use mistique_bench::*;
use mistique_core::{CaptureScheme, PlanChoice, StorageStrategy};
use mistique_nn::simple_cnn;

fn main() {
    let args = Args::parse();
    let examples = args.usize("examples", 60_000);
    let k = args.usize("k", 10);
    let reps = args.usize("reps", 5);
    let scale = args.usize("scale", 16);

    println!("# Indexed top-k / threshold reads vs scans: simple CNN, {examples} examples");

    let dir = mistique_testkit::tempdir().unwrap();
    let (mut sys, ids, _data) = dnn_system(
        dir.path(),
        simple_cnn(scale),
        examples,
        1,
        CaptureScheme::pool2(),
        StorageStrategy::Dedup,
    );
    // Reads always beat re-running the network here; pin the planner open
    // so every repetition takes the same plan.
    sys.cost_model_mut().read_bandwidth = 1e18;

    // The dense layer right before the classifier head: one neuron per
    // column, every example a row.
    let interms = sys.intermediates_of(&ids[0]);
    let interm = interms[interms.len() - 2].clone();
    let meta = sys.metadata().intermediate(&interm).unwrap();
    let col = meta.columns[0].clone();
    println!(
        "  intermediate {interm}: {} columns x {} rows, querying {col}\n",
        meta.columns.len(),
        meta.n_rows
    );

    // --- indexed plans -----------------------------------------------------
    let mut best_topk_idx = Duration::MAX;
    let mut topk_indexed = Vec::new();
    for _ in 0..reps {
        sys.store_mut().clear_read_cache();
        let (r, t) = time(|| sys.topk(&interm, &col, k).unwrap());
        best_topk_idx = best_topk_idx.min(t);
        topk_indexed = r;
    }
    let report = sys.last_report().expect("topk leaves a report").clone();
    assert_eq!(
        report.plan,
        PlanChoice::IndexedRead,
        "top-k must serve from the max-activation list"
    );

    // Threshold at the k-th activation: ~k matching rows, the selective
    // query zone maps are built for.
    let threshold = topk_indexed.last().map(|(_, v)| *v).unwrap_or(0.0);
    let mut best_gt_idx = Duration::MAX;
    let mut gt_indexed = Vec::new();
    for _ in 0..reps {
        sys.store_mut().clear_read_cache();
        let (r, t) = time(|| sys.select_where_gt(&interm, &col, threshold).unwrap());
        best_gt_idx = best_gt_idx.min(t);
        gt_indexed = r;
    }
    let gt_report = sys.last_report().unwrap().clone();
    let pruning = gt_report.pruning.expect("indexed scan reports pruning");

    // --- scan plans --------------------------------------------------------
    sys.drop_index(&interm);
    let mut best_topk_scan = Duration::MAX;
    let mut topk_scan = Vec::new();
    for _ in 0..reps {
        sys.store_mut().clear_read_cache();
        let (r, t) = time(|| sys.topk(&interm, &col, k).unwrap());
        best_topk_scan = best_topk_scan.min(t);
        topk_scan = r;
    }
    assert_ne!(sys.last_report().unwrap().plan, PlanChoice::IndexedRead);
    let mut best_gt_scan = Duration::MAX;
    let mut gt_scan = Vec::new();
    for _ in 0..reps {
        sys.store_mut().clear_read_cache();
        let (r, t) = time(|| sys.select_where_gt(&interm, &col, threshold).unwrap());
        best_gt_scan = best_gt_scan.min(t);
        gt_scan = r;
    }

    // The index is a pure accelerator: answers must be bit-identical.
    assert_eq!(topk_indexed.len(), topk_scan.len());
    for (a, b) in topk_indexed.iter().zip(&topk_scan) {
        assert_eq!(a.0, b.0, "top-k rows diverge");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "top-k values diverge");
    }
    assert_eq!(gt_indexed, gt_scan, "threshold row sets diverge");

    let topk_speedup = best_topk_scan.as_secs_f64() / best_topk_idx.as_secs_f64().max(1e-12);
    let gt_speedup = best_gt_scan.as_secs_f64() / best_gt_idx.as_secs_f64().max(1e-12);
    print_table(
        &["query", "scan (best)", "indexed (best)", "speedup"],
        &[
            vec![
                format!("topk k={k}"),
                fmt_dur(best_topk_scan),
                fmt_dur(best_topk_idx),
                format!("{topk_speedup:.2}x"),
            ],
            vec![
                format!("select > p{k}"),
                fmt_dur(best_gt_scan),
                fmt_dur(best_gt_idx),
                format!("{gt_speedup:.2}x"),
            ],
        ],
    );
    println!(
        "\n  answers bit-identical: yes\n  zone maps skipped {}/{} blocks ({} matching rows)",
        pruning.blocks_skipped,
        pruning.blocks_total,
        gt_indexed.len()
    );

    let obs = sys.obs().clone();
    obs.gauge("bench.topk_index.examples")
        .set_u64(examples as u64);
    obs.gauge("bench.topk_index.k").set_u64(k as u64);
    obs.gauge("bench.topk_index.topk_scan_us")
        .set(best_topk_scan.as_secs_f64() * 1e6);
    obs.gauge("bench.topk_index.topk_indexed_us")
        .set(best_topk_idx.as_secs_f64() * 1e6);
    obs.gauge("bench.topk_index.topk_speedup").set(topk_speedup);
    obs.gauge("bench.topk_index.gt_scan_us")
        .set(best_gt_scan.as_secs_f64() * 1e6);
    obs.gauge("bench.topk_index.gt_indexed_us")
        .set(best_gt_idx.as_secs_f64() * 1e6);
    obs.gauge("bench.topk_index.gt_speedup").set(gt_speedup);
    obs.gauge("bench.topk_index.blocks_total")
        .set_u64(pruning.blocks_total as u64);
    obs.gauge("bench.topk_index.blocks_skipped")
        .set_u64(pruning.blocks_skipped as u64);
    write_obs_snapshot("topk_index", &obs);
}
