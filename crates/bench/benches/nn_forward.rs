//! Micro-benchmarks for the DNN forward path (the re-run cost): whole
//! models, then one layer at a time at the shapes the evaluation models run.

use std::hint::black_box;

use mistique_bench::micro;
use mistique_nn::layer::Activation;
use mistique_nn::model::NamedLayer;
use mistique_nn::{simple_cnn, vgg16_cifar, CifarLike, Layer, Model, Tensor};
use mistique_rng::Rng;

/// A model of one layer over `(in_c, hw, hw)` inputs, so a case times the
/// layer through [`forward`], the path logging and a re-run take.
fn one_layer(layer: Layer, in_c: usize, hw: usize) -> Model {
    let out_shape = layer.output_shape(in_c, hw, hw);
    Model {
        arch_name: "micro".to_string(),
        epoch: 0,
        layers: vec![NamedLayer {
            name: "layer1".to_string(),
            layer,
            out_shape,
        }],
        in_c,
        in_hw: hw,
    }
}

/// Every example of `x` through layers `0..=upto`, tile by tile.
fn forward(model: &Model, x: &Tensor, upto: usize) {
    model.forward_tiles(x, 0..x.n, upto, |_, t, _| {
        black_box(t);
    });
}

fn values(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.range(-1.0f32..1.0)).collect()
}

fn conv(rng: &mut Rng, in_c: usize, out_c: usize) -> Layer {
    Layer::Conv2d {
        in_c,
        out_c,
        weights: values(rng, out_c * in_c * 9),
        bias: values(rng, out_c),
        activation: Activation::Relu,
    }
}

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
            forward(&model, black_box(&data.images), last)
        });
        micro(&format!("nn_forward/{name}/layer1"), bytes, || {
            forward(&model, black_box(&data.images), 0)
        });
    }

    // One layer at a time, 16 examples each; throughput is input bytes.
    let mut rng = Rng::seed(7);
    let dense = Layer::Dense {
        in_f: 256,
        out_f: 32,
        weights: values(&mut rng, 32 * 256),
        bias: values(&mut rng, 32),
        activation: Activation::Relu,
    };
    let cases = [
        ("conv/3to8/32x32", conv(&mut rng, 3, 8), 3, 32),
        ("conv/64to64/4x4", conv(&mut rng, 64, 64), 64, 4),
        ("conv/64to64/2x2", conv(&mut rng, 64, 64), 64, 2),
        ("maxpool2/8x32x32", Layer::MaxPool2, 8, 32),
        ("dense/256to32", dense, 256, 1),
    ];
    for (name, layer, in_c, hw) in cases {
        let model = one_layer(layer, in_c, hw);
        let x = Tensor::from_vec(16, in_c, hw, hw, values(&mut rng, 16 * in_c * hw * hw));
        micro(&format!("nn_forward/{name}"), (x.len() * 4) as u64, || {
            forward(&model, black_box(&x), 0)
        });
    }
}
