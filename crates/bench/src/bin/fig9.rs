//! Figure 9: effect of quantization on the VIS query (per-class mean
//! activations of a mid-network layer). The paper shows heatmaps: full
//! precision, LP_QT, 8BIT_QT and POOL_QT are visually indistinguishable
//! while 3BIT_QT and THRESHOLD_QT show obvious discrepancies. We report the
//! numeric equivalent: per-scheme deviation of the VIS matrix from the
//! full-precision one, plus the rank correlation of neuron orderings (what a
//! heatmap actually communicates).
//!
//! Flags: `--examples N --scale N --layer L`

use mistique_bench::*;
use mistique_core::diagnostics::frame_to_matrix;
use mistique_core::{CaptureScheme, FetchStrategy, StorageStrategy};
use mistique_linalg::Matrix;
use mistique_nn::vgg16_cifar;
use mistique_quantize::half::f16;
use mistique_quantize::{avg_pool2d, KbitQuantizer, ThresholdQuantizer};

/// Spearman-style rank correlation between two flattened matrices.
fn rank_correlation(a: &Matrix, b: &Matrix) -> f64 {
    let ranks = |m: &Matrix| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..m.data().len()).collect();
        idx.sort_by(|&i, &j| m.data()[i].total_cmp(&m.data()[j]));
        let mut r = vec![0.0; idx.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    };
    mistique_linalg::stats::pearson(&ranks(a), &ranks(b))
}

fn max_abs_rel(a: &Matrix, b: &Matrix) -> f64 {
    let scale = a
        .data()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1e-12);
    a.max_abs_diff(b) / scale
}

fn class_means(values: &[Vec<f64>], labels: &[u8], n_classes: usize) -> Matrix {
    let p = values.len();
    let mut m = Matrix::zeros(n_classes, p);
    let mut counts = vec![0usize; n_classes];
    let n = values[0].len();
    for i in 0..n {
        counts[labels[i] as usize] += 1;
    }
    for (j, col) in values.iter().enumerate() {
        for (i, v) in col.iter().enumerate() {
            m[(labels[i] as usize, j)] += v;
        }
    }
    for c in 0..n_classes {
        if counts[c] > 0 {
            for j in 0..p {
                m[(c, j)] /= counts[c] as f64;
            }
        }
    }
    m
}

fn main() {
    let args = Args::parse();
    let examples = args.usize("examples", DEFAULT_DNN_EXAMPLES);
    let scale = args.usize("scale", DEFAULT_VGG_SCALE);

    println!("# Figure 9: VIS fidelity under quantization (layer-9-style mid-conv layer)");
    println!(
        "# paper: full == LP_QT == 8BIT_QT == POOL_QT visually; 3BIT_QT and THRESHOLD_QT degrade"
    );

    // Log at full precision so every scheme can be derived from one source.
    let dir = mistique_testkit::tempdir().unwrap();
    let (mut sys, ids, data) = dnn_system(
        dir.path(),
        vgg16_cifar(scale),
        examples,
        1,
        CaptureScheme::full(),
        StorageStrategy::Dedup,
    );
    let model = ids[0].clone();
    let n_layers = sys.intermediates_of(&model).len();
    let layer = args.usize("layer", 9.min(n_layers));
    let interm = format!("{model}.layer{layer}");
    let shape = sys.metadata().intermediate(&interm).unwrap().shape.unwrap();
    let (c, h, w) = shape;
    println!("  layer {layer}: {c} channels of {h}x{w} maps, {examples} examples\n");

    let fetched = sys
        .fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
        .unwrap();
    let full_matrix = frame_to_matrix(&fetched.frame);
    let cols: Vec<Vec<f64>> = fetched
        .frame
        .columns()
        .iter()
        .map(|col| col.data.to_f64())
        .collect();
    let all: Vec<f32> = full_matrix.data().iter().map(|&v| v as f32).collect();

    let vis_full = class_means(&cols, &data.labels, 10);

    // Apply each scheme in memory and recompute VIS.
    let apply = |name: &str, transform: &dyn Fn(&[f64]) -> Vec<f64>| -> Vec<String> {
        let qcols: Vec<Vec<f64>> = cols.iter().map(|col| transform(col)).collect();
        // POOL changes the column count; compare on the per-class matrix of
        // whatever columns remain by pooling the *VIS matrix* instead — for
        // value schemes the column count is unchanged.
        let vis_q = class_means(&qcols, &data.labels, 10);
        vec![
            name.to_string(),
            format!("{:.5}", max_abs_rel(&vis_full, &vis_q)),
            format!("{:.4}", rank_correlation(&vis_full, &vis_q)),
        ]
    };

    let q8 = KbitQuantizer::fit(&all, 8);
    let q3 = KbitQuantizer::fit(&all, 3);
    let thr = ThresholdQuantizer::fit(&all, 0.995);

    let mut rows = vec![
        vec!["full (f32)".into(), "0.00000".into(), "1.0000".into()],
        apply("LP_QT (f16)", &|col| {
            col.iter()
                .map(|&v| f16::from_f32(v as f32).to_f32() as f64)
                .collect()
        }),
        apply("8BIT_QT", &|col| {
            col.iter()
                .map(|&v| q8.value_of(q8.code_of(v as f32)) as f64)
                .collect()
        }),
        apply("3BIT_QT", &|col| {
            col.iter()
                .map(|&v| q3.value_of(q3.code_of(v as f32)) as f64)
                .collect()
        }),
        apply("THRESHOLD_QT (99.5%)", &|col| {
            col.iter()
                .map(|&v| if v as f32 > thr.threshold() { 1.0 } else { 0.0 })
                .collect()
        }),
    ];

    // POOL_QT(sigma=h): each map becomes one value; the VIS heatmap of
    // per-map means is exactly the pooled VIS — compare channel-mean heatmaps.
    {
        let pool_cols: Vec<Vec<f64>> = (0..c)
            .map(|ch| {
                (0..examples)
                    .map(|i| {
                        let map: Vec<f32> = (ch * h * w..(ch + 1) * h * w)
                            .map(|j| cols[j][i] as f32)
                            .collect();
                        avg_pool2d(&map, h, w, h.max(w))[0] as f64
                    })
                    .collect()
            })
            .collect();
        let vis_pool = class_means(&pool_cols, &data.labels, 10);
        // Compare against the channel-averaged full VIS (same resolution).
        let mut vis_full_ch = Matrix::zeros(10, c);
        for g in 0..10 {
            for ch in 0..c {
                let mut s = 0.0;
                for j in ch * h * w..(ch + 1) * h * w {
                    s += vis_full[(g, j)];
                }
                vis_full_ch[(g, ch)] = s / (h * w) as f64;
            }
        }
        rows.push(vec![
            format!("POOL_QT({})", h.max(w)),
            format!("{:.5}", max_abs_rel(&vis_full_ch, &vis_pool)),
            format!("{:.4}", rank_correlation(&vis_full_ch, &vis_pool)),
        ]);
    }

    print_table(
        &["scheme", "max |Δ| / max |full|", "rank corr vs full"],
        &rows,
    );
    println!("\n  interpretation: rank corr ~1.0 and tiny Δ = heatmap indistinguishable from full");
    println!("  precision (paper's LP/8BIT/POOL panels); low rank corr = visible discrepancy");
    println!("  (paper's 3BIT/THRESHOLD panels).");
}
