//! Table 2: effect of quantization on SVCCA.
//!
//! Mean CCA coefficient between the CIFAR10_VGG16 logits and the
//! representation of layers {11, 16, 19}, computed on full-precision data,
//! 8BIT_QT-reconstructed data, and pool(2)-summarized data. The paper finds
//! 8BIT_QT ≈ full precision, while pool(2) introduces a discrepancy that
//! shrinks with depth.
//!
//! Flags: `--examples N --scale N --layers "11,16,19"`

use mistique_bench::*;
use mistique_core::diagnostics::frame_to_matrix;
use mistique_core::{CaptureScheme, FetchStrategy, StorageStrategy, ValueScheme};
use mistique_linalg::{svcca, Matrix};
use mistique_nn::vgg16_cifar;
use mistique_quantize::{avg_pool2d, KbitQuantizer};

fn pool2_matrix(m: &Matrix, c: usize, h: usize, w: usize) -> Matrix {
    let oh = h.div_ceil(2);
    let ow = w.div_ceil(2);
    let mut out = Matrix::zeros(m.rows(), c * oh * ow);
    for i in 0..m.rows() {
        let row: Vec<f32> = m.row(i).iter().map(|&v| v as f32).collect();
        let mut offset = 0;
        for ch in 0..c {
            let pooled = avg_pool2d(&row[ch * h * w..(ch + 1) * h * w], h, w, 2);
            for (k, v) in pooled.iter().enumerate() {
                out[(i, offset + k)] = *v as f64;
            }
            offset += oh * ow;
        }
    }
    out
}

fn kbit_matrix(m: &Matrix, bits: u32) -> Matrix {
    let all: Vec<f32> = m.data().iter().map(|&v| v as f32).collect();
    let q = KbitQuantizer::fit(&all, bits);
    let data = m
        .data()
        .iter()
        .map(|&v| q.value_of(q.code_of(v as f32)) as f64)
        .collect();
    Matrix::from_vec(m.rows(), m.cols(), data)
}

fn main() {
    let args = Args::parse();
    let examples = args.usize("examples", DEFAULT_DNN_EXAMPLES);
    let scale = args.usize("scale", DEFAULT_VGG_SCALE);

    println!("# Table 2: SVCCA mean CCA coefficient, logits vs layer representation");
    println!("# paper: 8BIT_QT matches full precision; pool(2) discrepancy shrinks with depth");

    let dir = mistique_testkit::tempdir().unwrap();
    let (mut sys, ids, _) = dnn_system(
        dir.path(),
        vgg16_cifar(scale),
        examples,
        1,
        CaptureScheme {
            value: ValueScheme::Full,
            pool_sigma: None,
        },
        StorageStrategy::Dedup,
    );
    let model = ids[0].clone();
    let n_layers = sys.intermediates_of(&model).len();
    let layer_spec = args.string("layers", "11,16,19");
    let layers: Vec<usize> = layer_spec
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&l| l >= 1 && l <= n_layers)
        .collect();

    let logits_id = format!("{model}.layer{n_layers}");
    let logits = frame_to_matrix(
        &sys.fetch_with_strategy(&logits_id, None, None, FetchStrategy::Read)
            .unwrap()
            .frame,
    );

    let mut rows = Vec::new();
    for &l in &layers {
        let interm = format!("{model}.layer{l}");
        let shape = sys.metadata().intermediate(&interm).unwrap().shape.unwrap();
        let full = frame_to_matrix(
            &sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                .unwrap()
                .frame,
        );
        let r_full = svcca(&logits, &full, 0.99).mean_correlation();
        let r_8bit = svcca(&logits, &kbit_matrix(&full, 8), 0.99).mean_correlation();
        let (c, h, w) = shape;
        let r_pool = if h > 1 {
            svcca(&logits, &pool2_matrix(&full, c, h, w), 0.99).mean_correlation()
        } else {
            r_full
        };
        rows.push(vec![
            format!("layer{l}"),
            format!("{r_full:.4}"),
            format!("{r_8bit:.4}"),
            format!("{r_pool:.4}"),
            format!("{:+.4}", r_8bit - r_full),
            format!("{:+.4}", r_pool - r_full),
        ]);
    }
    print_table(
        &[
            "layer",
            "full precision",
            "8BIT_QT",
            "POOL_QT(2)",
            "Δ 8bit",
            "Δ pool2",
        ],
        &rows,
    );
}
