//! Sequential models with named layers, per-layer activation capture, and
//! deterministic per-epoch checkpoints.

use std::ops::Range;
use std::time::{Duration, Instant};

use mistique_rng::Rng;

use crate::arch::{ArchConfig, LayerSpec};
use crate::layer::{Activation, Layer};
use crate::tensor::Tensor;

/// Examples per tile of a forward pass ([`Model::forward_tiles`]): few
/// enough that a tile's activations are cache-sized, enough that the
/// per-tile costs (an input slice copy, `dense`'s weight transpose) stay
/// small.
pub const FORWARD_TILE: usize = 16;

/// A named layer inside a model.
#[derive(Clone, Debug)]
pub struct NamedLayer {
    /// Layer name, `layer1..layerN` in execution order (as the paper
    /// references "Layer1", "Layer11", "Layer21").
    pub name: String,
    /// The layer itself.
    pub layer: Layer,
    /// Output shape `(c, h, w)` for the model's input geometry.
    pub out_shape: (usize, usize, usize),
}

/// A sequential network instantiated from an [`ArchConfig`] at a specific
/// training checkpoint.
///
/// Checkpoints model the paper's "checkpoint model weights after every 10%
/// of the epochs": weights are a deterministic function of
/// `(arch seed, layer index, epoch)` — except frozen layers, whose weights
/// ignore the epoch. Re-instantiating the same `(arch, seed, epoch)`
/// reproduces bit-identical weights, which is what lets dedup collapse the
/// frozen VGG16 conv intermediates across checkpoints (Fig 6b).
#[derive(Clone, Debug)]
pub struct Model {
    /// Architecture name.
    pub arch_name: String,
    /// Checkpoint epoch this instance represents.
    pub epoch: u32,
    /// Named layers in order.
    pub layers: Vec<NamedLayer>,
    /// Input channels.
    pub in_c: usize,
    /// Input height/width.
    pub in_hw: usize,
}

fn init_weights(rng: &mut Rng, n: usize, fan_in: usize) -> Vec<f32> {
    // He-style uniform init keeps activations in a stable range through deep
    // ReLU stacks.
    let bound = (2.0 / fan_in as f32).sqrt();
    (0..n).map(|_| rng.range(-bound..bound)).collect()
}

impl Model {
    /// Instantiate `arch` at `epoch` with deterministic weights derived from
    /// `seed`.
    pub fn build(arch: &ArchConfig, seed: u64, epoch: u32) -> Model {
        let mut layers = Vec::new();
        let (mut c, mut h, mut w) = (arch.in_c, arch.in_hw, arch.in_hw);
        let mut flattened = false;
        let mut idx = 0usize;
        let mut push = |layer: Layer, c: &mut usize, h: &mut usize, w: &mut usize| {
            let (oc, oh, ow) = layer.output_shape(*c, *h, *w);
            idx += 1;
            let named = NamedLayer {
                name: format!("layer{idx}"),
                layer,
                out_shape: (oc, oh, ow),
            };
            *c = oc;
            *h = oh;
            *w = ow;
            named
        };

        for (li, spec) in arch.layers.iter().enumerate() {
            // Frozen layers derive weights from epoch 0 regardless of the
            // requested checkpoint.
            let effective_epoch = if li < arch.frozen_prefix { 0 } else { epoch };
            let mut rng = Rng::seed(
                seed ^ (li as u64).wrapping_mul(0x9E3779B97F4A7C15)
                    ^ u64::from(effective_epoch).wrapping_mul(0xD1B54A32D192ED03),
            );
            match spec {
                LayerSpec::Conv(out_c) => {
                    let fan_in = c * 9;
                    let weights = init_weights(&mut rng, out_c * c * 9, fan_in);
                    let bias = init_weights(&mut rng, *out_c, fan_in);
                    layers.push(push(
                        Layer::Conv2d {
                            in_c: c,
                            out_c: *out_c,
                            weights,
                            bias,
                            activation: Activation::Relu,
                        },
                        &mut c,
                        &mut h,
                        &mut w,
                    ));
                }
                LayerSpec::Pool => {
                    layers.push(push(Layer::MaxPool2, &mut c, &mut h, &mut w));
                }
                LayerSpec::Dense(out_f) => {
                    if !flattened {
                        layers.push(push(Layer::Flatten, &mut c, &mut h, &mut w));
                        flattened = true;
                    }
                    let in_f = c;
                    let weights = init_weights(&mut rng, out_f * in_f, in_f);
                    let bias = init_weights(&mut rng, *out_f, in_f);
                    layers.push(push(
                        Layer::Dense {
                            in_f,
                            out_f: *out_f,
                            weights,
                            bias,
                            activation: Activation::Relu,
                        },
                        &mut c,
                        &mut h,
                        &mut w,
                    ));
                }
                LayerSpec::Classifier => {
                    if !flattened {
                        layers.push(push(Layer::Flatten, &mut c, &mut h, &mut w));
                        flattened = true;
                    }
                    let in_f = c;
                    let out_f = arch.n_classes;
                    let weights = init_weights(&mut rng, out_f * in_f, in_f);
                    let bias = init_weights(&mut rng, out_f, in_f);
                    layers.push(push(
                        Layer::Dense {
                            in_f,
                            out_f,
                            weights,
                            bias,
                            activation: Activation::Softmax,
                        },
                        &mut c,
                        &mut h,
                        &mut w,
                    ));
                }
            }
        }

        Model {
            arch_name: arch.name.clone(),
            epoch,
            layers,
            in_c: arch.in_c,
            in_hw: arch.in_hw,
        }
    }

    /// Number of layers (each conv/dense + its ReLU count separately, as do
    /// pools, flatten, and softmax).
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Model id string: `ARCH@epochE`.
    pub fn id(&self) -> String {
        format!("{}@epoch{}", self.arch_name, self.epoch)
    }

    /// Forward `x` through layers `0..=upto`, returning only the final
    /// activation (the cheap path when one layer is wanted).
    pub fn forward_to(&self, x: &Tensor, upto: usize) -> Tensor {
        self.forward_owned(x.clone(), upto)
    }

    /// [`Model::forward_to`] on an input the caller hands over: every layer
    /// consumes the previous activation, so nothing is copied.
    fn forward_owned(&self, x: Tensor, upto: usize) -> Tensor {
        assert!(upto < self.layers.len(), "layer {upto} out of range");
        self.layers[..=upto]
            .iter()
            .fold(x, |cur, nl| nl.layer.forward(cur))
    }

    /// Forward `x` through the whole network, returning every layer's
    /// activation (the logging path: `log_intermediates`).
    pub fn forward_collect(&self, x: &Tensor) -> Vec<(String, Tensor)> {
        let mut out = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for nl in &self.layers {
            cur = nl.layer.forward(cur);
            out.push((nl.name.clone(), cur.clone()));
        }
        out
    }

    /// Forward examples `examples` of `x` through layers `0..=upto`,
    /// [`FORWARD_TILE`] examples at a time. A tile runs through every layer
    /// before the next tile starts, so its activations stay in cache and the
    /// buffers the pass allocates are tile-sized: the next tile reuses them.
    /// Batch-sized buffers were fresh allocations whose pages the allocator
    /// had or had not handed back since the last pass, so a re-run either
    /// page-faulted through all of them (half again its arithmetic) or not,
    /// depending on the heap's history.
    ///
    /// `visit(layer, activation, elapsed)` is handed each layer's activation
    /// of each tile, in order, with the time the layer took on it. Every
    /// example's activations are the same bits however the examples are
    /// tiled: no kernel mixes examples.
    pub fn forward_tiles(
        &self,
        x: &Tensor,
        examples: Range<usize>,
        upto: usize,
        mut visit: impl FnMut(usize, &Tensor, Duration),
    ) {
        assert!(upto < self.layers.len(), "layer {upto} out of range");
        let mut start = examples.start;
        while start < examples.end {
            let end = (start + FORWARD_TILE).min(examples.end);
            let mut cur = x.slice_examples(start, end);
            for (layer, nl) in self.layers[..=upto].iter().enumerate() {
                let t0 = Instant::now();
                cur = nl.layer.forward(cur);
                visit(layer, &cur, t0.elapsed());
            }
            start = end;
        }
    }

    /// Per-example FLOP estimate up to and including layer `upto`.
    pub fn flops_to(&self, upto: usize) -> u64 {
        let (mut c, mut h, mut w) = (self.in_c, self.in_hw, self.in_hw);
        let mut total = 0u64;
        for nl in &self.layers[..=upto] {
            total += nl.layer.flops_per_example(c, h, w);
            let s = nl.layer.output_shape(c, h, w);
            c = s.0;
            h = s.1;
            w = s.2;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{simple_cnn, vgg16_cifar};

    fn tiny_input(n: usize) -> Tensor {
        let mut data = Vec::with_capacity(n * 3 * 32 * 32);
        for i in 0..n * 3 * 32 * 32 {
            data.push(((i % 255) as f32) / 255.0 - 0.5);
        }
        Tensor::from_vec(n, 3, 32, 32, data)
    }

    #[test]
    fn build_is_deterministic() {
        let arch = simple_cnn(8);
        let a = Model::build(&arch, 1, 3);
        let b = Model::build(&arch, 1, 3);
        let x = tiny_input(2);
        assert_eq!(
            a.forward_to(&x, a.n_layers() - 1).data,
            b.forward_to(&x, b.n_layers() - 1).data
        );
    }

    #[test]
    fn epochs_change_trainable_layers_only() {
        let arch = vgg16_cifar(16);
        let e0 = Model::build(&arch, 1, 0);
        let e5 = Model::build(&arch, 1, 5);
        let x = tiny_input(2);
        // Frozen conv stack: activations before the head are identical.
        let last_pool = e0
            .layers
            .iter()
            .rposition(|l| matches!(l.layer, Layer::MaxPool2))
            .unwrap();
        assert_eq!(
            e0.forward_to(&x, last_pool).data,
            e5.forward_to(&x, last_pool).data,
            "frozen conv activations must match across checkpoints"
        );
        // Head differs.
        let last = e0.n_layers() - 1;
        assert_ne!(e0.forward_to(&x, last).data, e5.forward_to(&x, last).data);
    }

    #[test]
    fn simple_cnn_checkpoints_all_differ() {
        let arch = simple_cnn(8);
        let e0 = Model::build(&arch, 1, 0);
        let e1 = Model::build(&arch, 1, 1);
        let x = tiny_input(1);
        assert_ne!(e0.forward_to(&x, 0).data, e1.forward_to(&x, 0).data);
    }

    #[test]
    fn forward_collect_matches_forward_to() {
        let arch = simple_cnn(16);
        let m = Model::build(&arch, 2, 0);
        let x = tiny_input(2);
        let all = m.forward_collect(&x);
        assert_eq!(all.len(), m.n_layers());
        for (i, (name, t)) in all.iter().enumerate() {
            assert_eq!(name, &format!("layer{}", i + 1));
            assert_eq!(t.data, m.forward_to(&x, i).data, "layer {i}");
        }
    }

    #[test]
    fn tiles_reproduce_every_layer_of_the_whole_batch_pass() {
        let m = Model::build(&simple_cnn(16), 2, 0);
        let n = 2 * FORWARD_TILE + 3;
        let x = tiny_input(n);
        let whole = m.forward_collect(&x);
        let mut seen: Vec<Vec<f32>> = vec![Vec::new(); m.n_layers()];
        let mut visits = Vec::new();
        m.forward_tiles(&x, 1..n, m.n_layers() - 1, |layer, t, _| {
            seen[layer].extend_from_slice(&t.data);
            visits.push((layer, t.n));
        });
        for (layer, (_, t)) in whole.iter().enumerate() {
            let f = t.features_per_example();
            assert_eq!(seen[layer], t.data[f..], "layer {layer}");
        }
        // Tile by tile, each tile through every layer in order.
        let tiles = [FORWARD_TILE, FORWARD_TILE, 2];
        let expected: Vec<(usize, usize)> = tiles
            .iter()
            .flat_map(|&len| (0..m.n_layers()).map(move |layer| (layer, len)))
            .collect();
        assert_eq!(visits, expected);
    }

    #[test]
    fn final_output_is_probability_distribution() {
        let arch = simple_cnn(16);
        let m = Model::build(&arch, 3, 0);
        let x = tiny_input(3);
        let probs = m.forward_to(&x, m.n_layers() - 1);
        assert_eq!(probs.c, 10);
        for n in 0..3 {
            let sum: f32 = probs.example(n).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(probs.example(n).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn layer_sizes_shrink_with_depth_for_vgg() {
        // The Layer1 anomaly (Fig 5d) requires early layers to dominate size.
        let arch = vgg16_cifar(8);
        let m = Model::build(&arch, 1, 0);
        let first = m.layers[0].out_shape;
        let last_conv = m
            .layers
            .iter()
            .rfind(|l| matches!(l.layer, Layer::Conv2d { .. }))
            .unwrap()
            .out_shape;
        let size = |s: (usize, usize, usize)| s.0 * s.1 * s.2;
        assert!(
            size(first) > 4 * size(last_conv),
            "{first:?} vs {last_conv:?}"
        );
    }

    #[test]
    fn flops_increase_with_depth() {
        let arch = vgg16_cifar(8);
        let m = Model::build(&arch, 1, 0);
        let early = m.flops_to(0);
        let late = m.flops_to(m.n_layers() - 1);
        assert!(
            late > early * 5,
            "deep layers accumulate cost: {early} vs {late}"
        );
    }
}
