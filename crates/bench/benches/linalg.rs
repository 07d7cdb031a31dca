//! Micro-benchmarks for the linear-algebra substrate (SVD/CCA/SVCCA) and the
//! frame → matrix conversion that feeds it.

use std::hint::black_box;

use mistique_bench::{micro, time};
use mistique_core::diagnostics::frame_to_matrix;
use mistique_dataframe::{Column, DataFrame};
use mistique_linalg::{cca, svcca, thin_svd, Matrix};
use mistique_rng::Rng;

fn noise(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed(seed);
    let data = (0..rows * cols).map(|_| rng.range(-1.0..1.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Activations shaped like a ReLU layer's: `cols / 2` latent factors mixed
/// into every neuron plus a little noise, clipped at zero, every eighth
/// neuron dead — so SVCCA's variance cut keeps about half the directions,
/// as it does on `dnn_read`'s layers.
fn relu_like(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed(seed);
    let latent = noise(rows, (cols / 2).max(1), seed ^ 0x5eed);
    let mix = noise(latent.cols(), cols, seed ^ 0xfeed);
    let mut m = latent.matmul(&mix);
    for (i, x) in m.data_mut().iter_mut().enumerate() {
        let dead = (i % cols) % 8 == 7;
        let jitter: f64 = rng.range(-0.05..0.05);
        *x = if dead { 0.0 } else { (*x + jitter).max(0.0) };
    }
    m
}

/// Time one call and print it as a [`micro`] line: for cases that ran tens
/// of seconds before the QR route, where eleven batches are not affordable
/// on the commit being compared against.
fn once<T>(name: &str, f: impl FnOnce() -> T) {
    let (out, t) = time(f);
    black_box(out);
    println!("{name:<44} {:>14} ns/iter", t.as_nanos());
}

fn main() {
    for cols in [16usize, 64] {
        let a = noise(512, cols, 1);
        micro(&format!("linalg/thin_svd/512x{cols}"), 0, || {
            thin_svd(black_box(&a))
        });
    }
    for cols in [10usize, 32, 64] {
        let a = relu_like(2000, cols, 6);
        micro(&format!("linalg/thin_svd/2000x{cols}"), 0, || {
            thin_svd(black_box(&a))
        });
    }
    let wide_a = relu_like(2000, 256, 6);
    let wide_b = relu_like(2000, 256, 7);
    once("linalg/thin_svd/2000x256", || thin_svd(&wide_a));

    let x = noise(512, 32, 2);
    let y = noise(512, 32, 3);
    micro("linalg/cca/512x32", 0, || cca(black_box(&x), black_box(&y)));
    micro("linalg/svcca/512x32", 0, || {
        svcca(black_box(&x), black_box(&y), 0.99)
    });
    let (a32, b32) = (relu_like(2000, 32, 8), relu_like(2000, 32, 9));
    micro("linalg/cca/2000x32", 0, || {
        cca(black_box(&a32), black_box(&b32))
    });
    let (a10, b10) = (relu_like(2000, 10, 8), relu_like(2000, 10, 9));
    for (a, b) in [(&a10, &b10), (&a32, &b32)] {
        micro(&format!("linalg/svcca/2000x{}", a.cols()), 0, || {
            svcca(black_box(a), black_box(b), 0.99)
        });
    }
    once("linalg/svcca/2000x256", || svcca(&wide_a, &wide_b, 0.99));

    let frame = DataFrame::from_columns(
        (0..256)
            .map(|j| {
                let col = (0..2000).map(|i| wide_a[(i, j)] as f32).collect();
                Column::f32(format!("n{j}"), col)
            })
            .collect(),
    );
    micro("diagnostics/frame_to_matrix/2000x256", 0, || {
        frame_to_matrix(black_box(&frame))
    });

    let m1 = noise(256, 256, 4);
    let m2 = noise(256, 256, 5);
    micro("linalg/matmul/256x256", 0, || {
        black_box(&m1).matmul(black_box(&m2))
    });
}
