//! Network layers: forward passes only.

use crate::tensor::Tensor;

/// Activation fused into a Conv2d or Dense layer. Fusing keeps the layer
/// enumeration aligned with the paper's "Layer1..Layer21" numbering for
/// VGG16 (13 conv + 5 pool + flatten + 2 FC).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// No activation.
    Linear,
    /// `max(0, x)`.
    Relu,
    /// Row-wise softmax (classifier head).
    Softmax,
}

/// A network layer. Convolution is 3×3, stride 1, zero-padding 1 (the VGG
/// configuration); pooling is 2×2 max with stride 2.
#[derive(Clone, Debug)]
pub enum Layer {
    /// 3×3 convolution with padding 1: weights `[out_c][in_c][3][3]` (flat).
    Conv2d {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Flat kernel weights, length `out_c * in_c * 9`.
        weights: Vec<f32>,
        /// Per-output-channel bias.
        bias: Vec<f32>,
        /// Fused activation applied to the output.
        activation: Activation,
    },
    /// Element-wise `max(0, x)`.
    Relu,
    /// 2×2 max pooling with stride 2 (floor semantics on odd dims).
    MaxPool2,
    /// Reshape NCHW to N×(C·H·W)×1×1.
    Flatten,
    /// Fully connected: weights `[out][in]` (flat) and bias `[out]`.
    Dense {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
        /// Flat weights, length `out_f * in_f`.
        weights: Vec<f32>,
        /// Per-output bias.
        bias: Vec<f32>,
        /// Fused activation applied to the output.
        activation: Activation,
    },
    /// Row-wise softmax over the channel dimension (expects `h = w = 1`).
    Softmax,
}

impl Layer {
    /// Output shape `(c, h, w)` for an input of shape `(c, h, w)`.
    pub fn output_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        match self {
            Layer::Conv2d { in_c, out_c, .. } => {
                assert_eq!(*in_c, c, "conv input channels mismatch");
                (*out_c, h, w)
            }
            Layer::Relu => (c, h, w),
            Layer::MaxPool2 => (c, h / 2, w / 2),
            Layer::Flatten => (c * h * w, 1, 1),
            Layer::Dense { in_f, out_f, .. } => {
                assert_eq!(*in_f, c * h * w, "dense input features mismatch");
                (*out_f, 1, 1)
            }
            Layer::Softmax => (c, h, w),
        }
    }

    /// Approximate multiply-accumulate count per example, the basis of the
    /// cost model's per-layer forward cost.
    pub fn flops_per_example(&self, c: usize, h: usize, w: usize) -> u64 {
        match self {
            Layer::Conv2d { in_c, out_c, .. } => (out_c * in_c * 9 * h * w) as u64,
            Layer::Dense { in_f, out_f, .. } => (in_f * out_f) as u64,
            _ => (c * h * w) as u64,
        }
    }

    /// Forward pass. The input is taken by value: ReLU and Flatten rewrite
    /// or relabel its buffer in place, and the other layers drop it once
    /// their output exists.
    pub fn forward(&self, mut x: Tensor) -> Tensor {
        match self {
            Layer::Conv2d {
                in_c,
                out_c,
                weights,
                bias,
                activation,
            } => {
                let out = conv2d_3x3(&x, *in_c, *out_c, weights, bias, *activation);
                finish_activation(out, *activation)
            }
            Layer::Relu => {
                for v in &mut x.data {
                    *v = relu(*v);
                }
                x
            }
            Layer::MaxPool2 => maxpool2(&x),
            Layer::Flatten => Tensor {
                c: x.features_per_example(),
                h: 1,
                w: 1,
                ..x
            },
            Layer::Dense {
                in_f,
                out_f,
                weights,
                bias,
                activation,
            } => {
                let out = dense(&x, *in_f, *out_f, weights, bias, *activation);
                finish_activation(out, *activation)
            }
            Layer::Softmax => softmax(x),
        }
    }
}

/// `max(0, v)` as a compare: `v < 0` becomes `0.0`, while NaN and `-0.0`
/// pass through unchanged (`f32::max` would not promise either).
#[inline]
fn relu(v: f32) -> f32 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// The last pass over one conv output plane: the bias, then the fused
/// activation's clamp, per cell (`v = out + b`, then ReLU). Softmax needs
/// whole rows, so [`finish_activation`] applies it afterwards.
fn apply_activation(plane: &mut [f32], b: f32, a: Activation) {
    match a {
        Activation::Relu => {
            for v in plane {
                *v = relu(*v + b);
            }
        }
        Activation::Linear | Activation::Softmax => {
            for v in plane {
                *v += b;
            }
        }
    }
}

/// The row-wise half of a fused activation: softmax over each example.
fn finish_activation(t: Tensor, a: Activation) -> Tensor {
    match a {
        Activation::Softmax => softmax(t),
        Activation::Linear | Activation::Relu => t,
    }
}

/// 3×3 convolution, zero padding 1, with the bias and activation fused in.
///
/// Every output cell is computed in one fixed order (DESIGN.md §2, "Kernel
/// order contract"): for each input channel in order, a sum that starts at
/// `0.0` and adds the in-range taps ky-major, kx-minor (out-of-range taps
/// are skipped, never multiplied by zero) is added into the cell; the bias
/// is added last. The loops run over contiguous row slices so the interior
/// of a row autovectorises; the order per cell is the naive loop's. The
/// input-channel loop sits inside the row loop, so the 4×4 and 2×2 planes
/// of VGG's deep blocks pick a row's kernel rows once, not once a channel.
fn conv2d_3x3(
    x: &Tensor,
    in_c: usize,
    out_c: usize,
    weights: &[f32],
    bias: &[f32],
    activation: Activation,
) -> Tensor {
    assert_eq!(x.c, in_c, "conv input channels mismatch");
    assert_eq!(weights.len(), out_c * in_c * 9, "conv weights length");
    assert_eq!(bias.len(), out_c, "conv bias length");
    let (h, w) = (x.h, x.w);
    let plane = h * w;
    let mut out = Tensor::zeros(x.n, out_c, h, w);
    for n in 0..x.n {
        let xn = &x.data[n * in_c * plane..][..in_c * plane];
        for oc in 0..out_c {
            let ks = &weights[oc * in_c * 9..][..in_c * 9];
            let o = &mut out.data[(n * out_c + oc) * plane..][..plane];
            for (oy, orow) in o.chunks_exact_mut(w).enumerate() {
                match (oy > 0, oy + 1 < h) {
                    (true, true) => conv_rows::<3>(orow, xn, ks, oy - 1, 0, plane),
                    (false, true) => conv_rows::<2>(orow, xn, ks, oy, 1, plane),
                    (true, false) => conv_rows::<2>(orow, xn, ks, oy - 1, 0, plane),
                    (false, false) => conv_rows::<1>(orow, xn, ks, oy, 1, plane),
                }
            }
            apply_activation(o, bias[oc], activation);
        }
    }
    out
}

/// Adds into one output row, input channel by input channel, the window
/// sums over the `R` input rows from `y0` on, met by the kernel rows from
/// `k0` on.
#[inline(always)]
fn conv_rows<const R: usize>(
    out: &mut [f32],
    x: &[f32],
    ks: &[f32],
    y0: usize,
    k0: usize,
    plane: usize,
) {
    let w = out.len();
    for (p, k) in x.chunks_exact(plane).zip(ks.chunks_exact(9)) {
        let rows: [&[f32]; R] = std::array::from_fn(|r| &p[(y0 + r) * w..][..w]);
        let k: [[f32; 3]; R] = std::array::from_fn(|r| {
            let i = (k0 + r) * 3;
            [k[i], k[i + 1], k[i + 2]]
        });
        conv_row(out, rows, k);
    }
}

/// Adds into one output row the window sums over `R` input rows, `k[r]`
/// being the kernel row that meets `rows[r]` (top to bottom). Interior
/// cells take all three taps of each row; the first and last cell take
/// their two in-range taps (a one-wide row, its centre tap).
#[inline(always)]
fn conv_row<const R: usize>(out: &mut [f32], rows: [&[f32]; R], k: [[f32; 3]; R]) {
    let w = out.len();
    if w == 1 {
        let mut acc = 0.0f32;
        for r in 0..R {
            acc += k[r][1] * rows[r][0];
        }
        out[0] += acc;
        return;
    }
    let (mut first, mut last) = (0.0f32, 0.0f32);
    for r in 0..R {
        first += k[r][1] * rows[r][0];
        first += k[r][2] * rows[r][1];
        last += k[r][0] * rows[r][w - 2];
        last += k[r][1] * rows[r][w - 1];
    }
    out[0] += first;
    out[w - 1] += last;
    let n = w - 2;
    let left = rows.map(|row| &row[..n]);
    let centre = rows.map(|row| &row[1..n + 1]);
    let right = rows.map(|row| &row[2..n + 2]);
    for (i, o) in out[1..w - 1].iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for r in 0..R {
            acc += k[r][0] * left[r][i];
            acc += k[r][1] * centre[r][i];
            acc += k[r][2] * right[r][i];
        }
        *o += acc;
    }
}

/// 2×2 max pooling, stride 2: each output cell is
/// `top_left.max(top_right).max(bottom_left).max(bottom_right)`.
fn maxpool2(x: &Tensor) -> Tensor {
    let (h, w) = (x.h, x.w);
    let (oh, ow) = (h / 2, w / 2);
    assert!(oh > 0 && ow > 0, "maxpool on too-small input {h}x{w}");
    let mut out = Tensor::zeros(x.n, x.c, oh, ow);
    let planes = x.data.chunks_exact(h * w);
    for (p, o) in planes.zip(out.data.chunks_exact_mut(oh * ow)) {
        for (oy, orow) in o.chunks_exact_mut(ow).enumerate() {
            let top = p[2 * oy * w..][..2 * ow].chunks_exact(2);
            let bottom = p[(2 * oy + 1) * w..][..2 * ow].chunks_exact(2);
            for ((m, t), b) in orow.iter_mut().zip(top).zip(bottom) {
                *m = t[0].max(t[1]).max(b[0]).max(b[1]);
            }
        }
    }
    out
}

/// Fully connected layer: each output is `bias + x[0]·w[0] + x[1]·w[1] + …`
/// left to right, then the activation's clamp. The weights are read
/// transposed, one input feature across every output at a time, so the
/// outputs' sums advance side by side (in vector lanes), each in its order.
fn dense(
    x: &Tensor,
    in_f: usize,
    out_f: usize,
    weights: &[f32],
    bias: &[f32],
    activation: Activation,
) -> Tensor {
    assert_eq!(
        x.features_per_example(),
        in_f,
        "dense input features mismatch"
    );
    assert_eq!(weights.len(), out_f * in_f, "dense weights length");
    let mut out = Tensor::zeros(x.n, out_f, 1, 1);
    let mut transposed = vec![0.0f32; weights.len()];
    for i in 0..in_f {
        for o in 0..out_f {
            transposed[i * out_f + o] = weights[o * in_f + i];
        }
    }
    for (n, acc) in out.data.chunks_exact_mut(out_f).enumerate() {
        acc.copy_from_slice(bias);
        for (&a, column) in x.example(n).iter().zip(transposed.chunks_exact(out_f)) {
            for (s, &b) in acc.iter_mut().zip(column) {
                *s += a * b;
            }
        }
        if activation == Activation::Relu {
            for s in acc {
                *s = relu(*s);
            }
        }
    }
    out
}

fn softmax(mut x: Tensor) -> Tensor {
    assert_eq!(x.h * x.w, 1, "softmax expects flattened input");
    let c = x.c;
    for n in 0..x.n {
        let row = &mut x.data[n * c..(n + 1) * c];
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_rng::Rng;
    use mistique_testkit::cases;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(1, 4, 1, 1, vec![-1.0, 0.0, 2.0, -0.5]);
        let y = Layer::Relu.forward(x);
        assert_eq!(y.data, vec![0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn identity_conv_kernel_preserves_input() {
        // Kernel with 1 at the center acts as identity.
        let mut weights = vec![0.0f32; 9];
        weights[4] = 1.0;
        let layer = Layer::Conv2d {
            in_c: 1,
            out_c: 1,
            weights,
            bias: vec![0.0],
            activation: Activation::Linear,
        };
        let x = Tensor::from_vec(1, 1, 3, 3, (1..=9).map(|i| i as f32).collect());
        let y = layer.forward(x.clone());
        assert_eq!(y.data, x.data);
    }

    #[test]
    fn conv_averaging_kernel_on_constant_input() {
        // All-ones kernel over constant input: interior cells see 9 values,
        // corner cells only 4 (zero padding).
        let layer = Layer::Conv2d {
            in_c: 1,
            out_c: 1,
            weights: vec![1.0; 9],
            bias: vec![0.0],
            activation: Activation::Linear,
        };
        let x = Tensor::from_vec(1, 1, 3, 3, vec![1.0; 9]);
        let y = layer.forward(x);
        assert_eq!(y.at(0, 0, 1, 1), 9.0);
        assert_eq!(y.at(0, 0, 0, 0), 4.0);
        assert_eq!(y.at(0, 0, 0, 1), 6.0);
    }

    #[test]
    fn conv_bias_and_multi_channel() {
        // Two input channels summed, bias added.
        let mut weights = vec![0.0f32; 2 * 9];
        weights[4] = 1.0; // center of channel 0
        weights[9 + 4] = 2.0; // center of channel 1
        let layer = Layer::Conv2d {
            in_c: 2,
            out_c: 1,
            weights,
            bias: vec![10.0],
            activation: Activation::Linear,
        };
        let x = Tensor::from_vec(1, 2, 1, 1, vec![3.0, 4.0]);
        let y = layer.forward(x);
        assert_eq!(y.data, vec![3.0 + 8.0 + 10.0]);
    }

    #[test]
    fn maxpool_picks_window_max() {
        #[rustfmt::skip]
        let x = Tensor::from_vec(1, 1, 4, 4, vec![
            1.0, 2.0, 5.0, 6.0,
            3.0, 4.0, 7.0, 8.0,
            9.0, 10.0, 13.0, 14.0,
            11.0, 12.0, 15.0, 16.0,
        ]);
        let y = Layer::MaxPool2.forward(x);
        assert_eq!(y.data, vec![4.0, 8.0, 12.0, 16.0]);
        assert_eq!((y.h, y.w), (2, 2));
    }

    #[test]
    fn dense_computes_affine_map() {
        let layer = Layer::Dense {
            in_f: 2,
            out_f: 2,
            weights: vec![1.0, 2.0, 3.0, 4.0], // rows: [1,2], [3,4]
            bias: vec![0.5, -0.5],
            activation: Activation::Linear,
        };
        let x = Tensor::from_vec(1, 2, 1, 1, vec![10.0, 20.0]);
        let y = layer.forward(x);
        assert_eq!(y.data, vec![50.5, 109.5]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(2, 3, 1, 1, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let y = Layer::Softmax.forward(x);
        for n in 0..2 {
            let sum: f32 = y.data[n * 3..(n + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Largest logit gets the largest probability.
        assert!(y.data[2] > y.data[1] && y.data[1] > y.data[0]);
    }

    #[test]
    fn flatten_reshapes() {
        let x = Tensor::zeros(2, 3, 4, 4);
        let y = Layer::Flatten.forward(x);
        assert_eq!((y.c, y.h, y.w), (48, 1, 1));
        assert_eq!(y.n, 2);
    }

    #[test]
    fn output_shapes_compose() {
        let conv = Layer::Conv2d {
            in_c: 3,
            out_c: 8,
            weights: vec![0.0; 8 * 3 * 9],
            bias: vec![0.0; 8],
            activation: Activation::Relu,
        };
        assert_eq!(conv.output_shape(3, 32, 32), (8, 32, 32));
        assert_eq!(Layer::MaxPool2.output_shape(8, 32, 32), (8, 16, 16));
        assert_eq!(Layer::Flatten.output_shape(8, 4, 4), (128, 1, 1));
    }

    /// The naive kernels the row-sliced ones replaced: one scalar loop per
    /// output cell, `Tensor::at` on every read. They define the order of
    /// every addition the forward pass makes.
    mod reference {
        use crate::layer::{Activation, Layer};
        use crate::tensor::Tensor;

        pub fn forward(layer: &Layer, x: &Tensor) -> Tensor {
            match layer {
                Layer::Conv2d {
                    in_c,
                    out_c,
                    weights,
                    bias,
                    activation,
                } => apply_activation(conv2d_3x3(x, *in_c, *out_c, weights, bias), *activation),
                Layer::Relu => relu(x.clone()),
                Layer::MaxPool2 => maxpool2(x),
                Layer::Flatten => Tensor {
                    n: x.n,
                    c: x.features_per_example(),
                    h: 1,
                    w: 1,
                    data: x.data.clone(),
                },
                Layer::Dense {
                    in_f,
                    out_f,
                    weights,
                    bias,
                    activation,
                } => apply_activation(dense(x, *in_f, *out_f, weights, bias), *activation),
                Layer::Softmax => softmax(x),
            }
        }

        fn relu(mut t: Tensor) -> Tensor {
            for v in &mut t.data {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            t
        }

        fn apply_activation(t: Tensor, a: Activation) -> Tensor {
            match a {
                Activation::Linear => t,
                Activation::Relu => relu(t),
                Activation::Softmax => softmax(&t),
            }
        }

        fn conv2d_3x3(
            x: &Tensor,
            in_c: usize,
            out_c: usize,
            weights: &[f32],
            bias: &[f32],
        ) -> Tensor {
            let (h, w) = (x.h, x.w);
            let mut out = Tensor::zeros(x.n, out_c, h, w);
            for n in 0..x.n {
                for oc in 0..out_c {
                    let b = bias[oc];
                    for ic in 0..in_c {
                        let k = &weights[(oc * in_c + ic) * 9..(oc * in_c + ic) * 9 + 9];
                        for oy in 0..h {
                            for ox in 0..w {
                                let mut acc = 0.0f32;
                                for ky in 0..3usize {
                                    let iy = oy as isize + ky as isize - 1;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    for kx in 0..3usize {
                                        let ix = ox as isize + kx as isize - 1;
                                        if ix < 0 || ix >= w as isize {
                                            continue;
                                        }
                                        acc +=
                                            k[ky * 3 + kx] * x.at(n, ic, iy as usize, ix as usize);
                                    }
                                }
                                *out.at_mut(n, oc, oy, ox) += acc;
                            }
                        }
                    }
                    for oy in 0..h {
                        for ox in 0..w {
                            *out.at_mut(n, oc, oy, ox) += b;
                        }
                    }
                }
            }
            out
        }

        fn maxpool2(x: &Tensor) -> Tensor {
            let (oh, ow) = (x.h / 2, x.w / 2);
            let mut out = Tensor::zeros(x.n, x.c, oh, ow);
            for n in 0..x.n {
                for c in 0..x.c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let m = x
                                .at(n, c, oy * 2, ox * 2)
                                .max(x.at(n, c, oy * 2, ox * 2 + 1))
                                .max(x.at(n, c, oy * 2 + 1, ox * 2))
                                .max(x.at(n, c, oy * 2 + 1, ox * 2 + 1));
                            *out.at_mut(n, c, oy, ox) = m;
                        }
                    }
                }
            }
            out
        }

        fn dense(x: &Tensor, in_f: usize, out_f: usize, weights: &[f32], bias: &[f32]) -> Tensor {
            let mut out = Tensor::zeros(x.n, out_f, 1, 1);
            for n in 0..x.n {
                let row = x.example(n);
                for o in 0..out_f {
                    let wrow = &weights[o * in_f..(o + 1) * in_f];
                    let mut acc = bias[o];
                    for (a, b) in row.iter().zip(wrow) {
                        acc += a * b;
                    }
                    out.data[n * out_f + o] = acc;
                }
            }
            out
        }

        fn softmax(x: &Tensor) -> Tensor {
            let mut out = x.clone();
            let c = x.c;
            for n in 0..x.n {
                let row = &mut out.data[n * c..(n + 1) * c];
                let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                let mut sum = 0.0f32;
                for v in row.iter_mut() {
                    *v = (*v - max).exp();
                    sum += *v;
                }
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
            out
        }
    }

    /// Bits to compare: a NaN's sign and payload are not part of the
    /// contract (an `fadd` may return either operand's NaN, whichever order
    /// LLVM gives it), so every NaN becomes the canonical quiet NaN.
    fn canonical_bits(t: &Tensor) -> (usize, usize, usize, usize, Vec<u32>) {
        let bits = t.data.iter().map(|v| match v.is_nan() {
            true => 0x7FC0_0000,
            false => v.to_bits(),
        });
        (t.n, t.c, t.h, t.w, bits.collect())
    }

    /// Mostly an ordinary value; with probability `edge`, one of NaN, ±inf,
    /// ±0 or ±1e±30.
    fn value(rng: &mut Rng, edge: f64) -> f32 {
        const EDGES: [f32; 11] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e30,
            -1e30,
            1e-30,
            -1e-30,
            f32::MAX,
            f32::MIN_POSITIVE,
        ];
        match rng.chance(edge) {
            true => EDGES[rng.range(0..EDGES.len())],
            false => rng.range(-4.0f32..4.0),
        }
    }

    fn values(rng: &mut Rng, n: usize, edge: f64) -> Vec<f32> {
        (0..n).map(|_| value(rng, edge)).collect()
    }

    // Every non-NaN cell of every layer is bit-identical to the naive
    // kernels, and NaN sits exactly where they put one: over 1×1, 1×w, h×1,
    // 2×2 and odd planes, 1–9 channels in and out, NaN / ±inf / −0.0 / 1e±30
    // in the inputs and the weights.
    #[test]
    fn kernels_match_the_naive_reference_bit_for_bit() {
        const SHAPES: [(usize, usize); 6] = [(1, 1), (1, 7), (5, 1), (2, 2), (3, 3), (7, 5)];
        let mut case = 0;
        cases(120, 27, |g| {
            let (h, w) = match SHAPES.get(case) {
                Some(&shape) => shape,
                None => (g.rng.range(1..=9), g.rng.range(1..=9)),
            };
            case += 1;
            let (n, in_c, out_c) = (g.rng.range(1..=2), g.rng.range(1..=9), g.rng.range(1..=9));
            // Clean inputs in some cases, so most cells are not NaN.
            let edge = [0.0, 0.02, 0.2][g.rng.range(0..3usize)];
            let x = Tensor::from_vec(n, in_c, h, w, values(&mut g.rng, n * in_c * h * w, edge));
            let f = in_c * h * w;

            let mut layers = vec![Layer::Relu, Layer::Flatten];
            for activation in [Activation::Linear, Activation::Relu, Activation::Softmax] {
                if activation != Activation::Softmax || h * w == 1 {
                    layers.push(Layer::Conv2d {
                        in_c,
                        out_c,
                        weights: values(&mut g.rng, out_c * in_c * 9, edge / 4.0),
                        bias: values(&mut g.rng, out_c, edge),
                        activation,
                    });
                }
                layers.push(Layer::Dense {
                    in_f: f,
                    out_f: out_c,
                    weights: values(&mut g.rng, out_c * f, edge / 4.0),
                    bias: values(&mut g.rng, out_c, edge),
                    activation,
                });
            }
            if h >= 2 && w >= 2 {
                layers.push(Layer::MaxPool2);
            }
            if h * w == 1 {
                layers.push(Layer::Softmax);
            }
            for layer in &layers {
                let want = canonical_bits(&reference::forward(layer, &x));
                let got = canonical_bits(&layer.forward(x.clone()));
                assert!(
                    got == want,
                    "{layer:?} on {n}x{in_c}x{h}x{w}:\n got {:x?}\nwant {:x?}",
                    got.4,
                    want.4
                );
            }
        });
    }
}
