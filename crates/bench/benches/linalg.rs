//! Micro-benchmarks for the linear-algebra substrate (SVD/CCA/SVCCA).

use std::hint::black_box;

use mistique_bench::micro;
use mistique_linalg::{cca, svcca, thin_svd, Matrix};
use mistique_rng::Rng;

fn noise(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed(seed);
    let data = (0..rows * cols).map(|_| rng.range(-1.0..1.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

fn main() {
    for cols in [16usize, 64] {
        let a = noise(512, cols, 1);
        micro(&format!("linalg/thin_svd/512x{cols}"), 0, || {
            thin_svd(black_box(&a))
        });
    }

    let x = noise(512, 32, 2);
    let y = noise(512, 32, 3);
    micro("linalg/cca/512x32", 0, || cca(black_box(&x), black_box(&y)));
    micro("linalg/svcca/512x32", 0, || {
        svcca(black_box(&x), black_box(&y), 0.99)
    });

    let m1 = noise(256, 256, 4);
    let m2 = noise(256, 256, 5);
    micro("linalg/matmul/256x256", 0, || {
        black_box(&m1).matmul(black_box(&m2))
    });
}
