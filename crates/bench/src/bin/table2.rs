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
use mistique_core::{CaptureScheme, FetchStrategy, StorageStrategy};
use mistique_linalg::svcca;
use mistique_nn::vgg16_cifar;

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
        CaptureScheme::full(),
        StorageStrategy::Dedup,
    );
    let model = ids[0].clone();
    let n_layers = sys.intermediates_of(&model).len();
    let layers = args.layers("layers", "11,16,19", n_layers);

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
        let r_8bit = svcca(&logits, &kbit_matrix(&full, 8).0, 0.99).mean_correlation();
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
