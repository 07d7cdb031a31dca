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
use mistique_core::{CaptureScheme, FetchStrategy, StorageStrategy};
use mistique_nn::vgg16_cifar;

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
        CaptureScheme::full(),
        StorageStrategy::Dedup,
    );
    let model = ids[0].clone();
    let n_layers = sys.intermediates_of(&model).len();
    let layers = args.layers("layers", "11,16,19", n_layers);

    let mut rows = Vec::new();
    for &l in &layers {
        let interm = format!("{model}.layer{l}");
        let shape = sys.metadata().intermediate(&interm).unwrap().shape.unwrap();
        let full = frame_to_matrix(
            &sys.fetch_with_strategy(&interm, None, None, FetchStrategy::Read)
                .unwrap()
                .frame,
        );

        let (eight, _) = kbit_matrix(&full, 8);
        let (c, h, w) = shape;
        let pooled = if h > 1 {
            pool2_matrix(&full, c, h, w)
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
