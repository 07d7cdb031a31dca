//! Micro-benchmarks for the DNN forward path (the re-run cost).

use std::hint::black_box;

use mistique_bench::micro;
use mistique_nn::{simple_cnn, vgg16_cifar, CifarLike, Model};

fn main() {
    let data = CifarLike::generate(16, 10, 1);
    // Throughput is input bytes: 16 images of 3x32x32 f32.
    let bytes = (data.images.data.len() * 4) as u64;

    for (name, arch) in [
        ("simple_cnn/16", simple_cnn(16)),
        ("vgg16/16", vgg16_cifar(16)),
    ] {
        let model = Model::build(&arch, 1, 0);
        let last = model.n_layers() - 1;
        micro(&format!("nn_forward/{name}/full"), bytes, || {
            model.forward_to_batched(black_box(&data.images), last, 16)
        });
        micro(&format!("nn_forward/{name}/layer1"), bytes, || {
            model.forward_to_batched(black_box(&data.images), 0, 16)
        });
    }
}
