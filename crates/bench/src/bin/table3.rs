//! Table 3 (Appendix C.1): effect of quantization on KNN accuracy.
//!
//! For layers {11, 16, 19} of CIFAR10_VGG16, compute the k nearest
//! neighbours of query images on full-precision representations, then on
//! 8BIT_QT and pool(2) representations, and report the fraction of overlap.
//! Paper: 8BIT_QT ≈ 0.94–1.0, pool(2) ≈ 0.74–1.0, improving with depth.
//!
//! Flags: `--examples N --scale N --k N --queries N --layers "11,16,19"`

use mistique_bench::*;
use mistique_core::diagnostics::frame_to_matrix;
use mistique_core::{CaptureScheme, FetchStrategy, StorageStrategy, ValueScheme};
use mistique_linalg::Matrix;
use mistique_nn::vgg16_cifar;
use mistique_quantize::{avg_pool2d, KbitQuantizer};

fn knn(m: &Matrix, query: usize, k: usize) -> Vec<usize> {
    let mut d: Vec<(usize, f64)> = (0..m.rows())
        .filter(|&i| i != query)
        .map(|i| {
            let dist: f64 = m
                .row(i)
                .iter()
                .zip(m.row(query))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            (i, dist)
        })
        .collect();
    d.sort_by(|a, b| a.1.total_cmp(&b.1));
    d.truncate(k);
    d.into_iter().map(|(i, _)| i).collect()
}

fn overlap(a: &[usize], b: &[usize]) -> f64 {
    let hits = a.iter().filter(|x| b.contains(x)).count();
    hits as f64 / a.len().max(1) as f64
}

fn main() {
    let args = Args::parse();
    let examples = args.usize("examples", DEFAULT_DNN_EXAMPLES);
    let scale = args.usize("scale", DEFAULT_VGG_SCALE);
    let k = args.usize("k", 50.min(examples / 4));
    let n_queries = args.usize("queries", 10);

    println!("# Table 3: KNN overlap with full-precision neighbours (k = {k})");
    println!("# paper: 8BIT_QT 0.94-1.0; POOL_QT(2) 0.74-1.0, both improving with depth");

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
    let layers: Vec<usize> = args
        .string("layers", "11,16,19")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&l| l >= 1 && l <= n_layers)
        .collect();

    let mut rows = Vec::new();
    for &l in &layers {
        let interm = format!("{model}.layer{l}");
        let shape = sys.metadata().intermediate(&interm).unwrap().shape.unwrap();
        let full = frame_to_matrix(
            &sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                .unwrap()
                .frame,
        );

        // 8BIT_QT reconstruction.
        let all: Vec<f32> = full.data().iter().map(|&v| v as f32).collect();
        let q = KbitQuantizer::fit(&all, 8);
        let eight = Matrix::from_vec(
            full.rows(),
            full.cols(),
            full.data()
                .iter()
                .map(|&v| q.value_of(q.code_of(v as f32)) as f64)
                .collect(),
        );

        // pool(2) summarization.
        let (c, h, w) = shape;
        let pooled = if h > 1 {
            let oh = h.div_ceil(2);
            let ow = w.div_ceil(2);
            let mut m = Matrix::zeros(full.rows(), c * oh * ow);
            for i in 0..full.rows() {
                let row: Vec<f32> = full.row(i).iter().map(|&v| v as f32).collect();
                let mut off = 0;
                for ch in 0..c {
                    let p = avg_pool2d(&row[ch * h * w..(ch + 1) * h * w], h, w, 2);
                    for (j, v) in p.iter().enumerate() {
                        m[(i, off + j)] = *v as f64;
                    }
                    off += oh * ow;
                }
            }
            m
        } else {
            full.clone()
        };

        let mut acc8 = 0.0;
        let mut accp = 0.0;
        for qi in 0..n_queries {
            let truth = knn(&full, qi, k);
            acc8 += overlap(&knn(&eight, qi, k), &truth);
            accp += overlap(&knn(&pooled, qi, k), &truth);
        }
        rows.push(vec![
            format!("layer{l}"),
            "1.00".into(),
            format!("{:.2}", acc8 / n_queries as f64),
            format!("{:.2}", accp / n_queries as f64),
        ]);
    }
    print_table(&["layer", "full precision", "8BIT_QT", "POOL_QT(2)"], &rows);
}
