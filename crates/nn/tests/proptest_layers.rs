//! Property tests on layer semantics: linearity of convolution and dense
//! layers, pooling bounds, and softmax invariants — for arbitrary inputs.
//! Seeded (`mistique_testkit::cases`), 48 cases each.

// Tensor sizes are written `channels * h * w` even when a factor is 1.
#![allow(clippy::identity_op)]

use mistique_nn::layer::{Activation, Layer};
use mistique_nn::Tensor;
use mistique_testkit::{cases, Gen};

fn conv(in_c: usize, out_c: usize, weights: Vec<f32>, bias: Vec<f32>) -> Layer {
    Layer::Conv2d {
        in_c,
        out_c,
        weights,
        bias,
        activation: Activation::Linear,
    }
}

fn finite_vec(g: &mut Gen, n: usize) -> Vec<f32> {
    (0..n).map(|_| g.rng.range(-10.0f32..10.0)).collect()
}

// Convolution without bias is linear: conv(a*x) == a*conv(x).
#[test]
fn conv_is_homogeneous() {
    cases(48, 1, |g| {
        let x = finite_vec(g, 2 * 4 * 4);
        let w = finite_vec(g, 1 * 2 * 9);
        let a = g.rng.range(-3.0f32..3.0);

        let layer = conv(2, 1, w, vec![0.0]);
        let t = Tensor::from_vec(1, 2, 4, 4, x.clone());
        let scaled = Tensor::from_vec(1, 2, 4, 4, x.iter().map(|v| v * a).collect());
        let y1 = layer.forward(t);
        let y2 = layer.forward(scaled);
        for (u, v) in y1.data.iter().zip(&y2.data) {
            assert!((u * a - v).abs() < 1e-3, "{u} * {a} vs {v}");
        }
    });
}

// conv(x + y) == conv(x) + conv(y) - conv(0) (bias counted once).
#[test]
fn conv_is_additive_up_to_bias() {
    cases(48, 2, |g| {
        let x = finite_vec(g, 1 * 3 * 3);
        let y = finite_vec(g, 1 * 3 * 3);
        let w = finite_vec(g, 9);
        let b = g.rng.range(-2.0f32..2.0);

        let layer = conv(1, 1, w, vec![b]);
        let tx = Tensor::from_vec(1, 1, 3, 3, x.clone());
        let ty = Tensor::from_vec(1, 1, 3, 3, y.clone());
        let txy = Tensor::from_vec(1, 1, 3, 3, x.iter().zip(&y).map(|(u, v)| u + v).collect());
        let fx = layer.forward(tx);
        let fy = layer.forward(ty);
        let fxy = layer.forward(txy);
        for i in 0..fxy.data.len() {
            let expect = fx.data[i] + fy.data[i] - b;
            assert!((fxy.data[i] - expect).abs() < 1e-3);
        }
    });
}

// Max pooling output values are drawn from the input.
#[test]
fn maxpool_values_come_from_input() {
    cases(48, 3, |g| {
        let x = finite_vec(g, 1 * 4 * 4);
        let t = Tensor::from_vec(1, 1, 4, 4, x.clone());
        let y = Layer::MaxPool2.forward(t);
        for v in &y.data {
            assert!(x.contains(v));
        }
        // And each is >= every member of its window.
        assert_eq!(y.data.len(), 4);
    });
}

// Softmax is shift-invariant and produces a distribution.
#[test]
fn softmax_invariants() {
    cases(48, 4, |g| {
        let x = finite_vec(g, 8);
        let shift = g.rng.range(-5.0f32..5.0);

        let t = Tensor::from_vec(1, 8, 1, 1, x.clone());
        let shifted = Tensor::from_vec(1, 8, 1, 1, x.iter().map(|v| v + shift).collect());
        let a = Layer::Softmax.forward(t);
        let b = Layer::Softmax.forward(shifted);
        let sum: f32 = a.data.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        for (u, v) in a.data.iter().zip(&b.data) {
            assert!((u - v).abs() < 1e-5, "softmax must be shift-invariant");
        }
    });
}

// Batch independence: forwarding two examples together equals forwarding
// them separately (no cross-example leakage).
#[test]
fn batch_independence() {
    cases(48, 5, |g| {
        let x1 = finite_vec(g, 2 * 4 * 4);
        let x2 = finite_vec(g, 2 * 4 * 4);
        let w = finite_vec(g, 3 * 2 * 9);
        let b = finite_vec(g, 3);

        let layer = conv(2, 3, w, b);
        let t1 = Tensor::from_vec(1, 2, 4, 4, x1.clone());
        let t2 = Tensor::from_vec(1, 2, 4, 4, x2.clone());
        let mut both_data = x1;
        both_data.extend(x2);
        let both = Tensor::from_vec(2, 2, 4, 4, both_data);
        let y1 = layer.forward(t1);
        let y2 = layer.forward(t2);
        let y = layer.forward(both);
        assert_eq!(y.example(0), &y1.data[..]);
        assert_eq!(y.example(1), &y2.data[..]);
    });
}
