//! Micro-benchmarks for the quantization schemes (Sec 4.1).

use std::hint::black_box;

use mistique_bench::micro;
use mistique_quantize::half::{decode_f16, encode_f16};
use mistique_quantize::{avg_pool2d, KbitQuantizer, ThresholdQuantizer};
use mistique_rng::Rng;

fn sample(n: usize) -> Vec<f32> {
    let mut rng = Rng::seed(7);
    (0..n).map(|_| rng.range(0.0f32..20.0)).collect()
}

fn main() {
    let values = sample(1 << 18);
    let bytes = (values.len() * 4) as u64;

    micro("quantize/lp/encode_f16", bytes, || {
        encode_f16(black_box(&values))
    });
    let encoded = encode_f16(&values);
    micro("quantize/lp/decode_f16", bytes, || {
        decode_f16(black_box(&encoded)).unwrap()
    });

    micro("quantize/kbit8/fit", 4 << 14, || {
        KbitQuantizer::fit(black_box(&values[..(1 << 14)]), 8)
    });
    let q = KbitQuantizer::fit(&values, 8);
    micro("quantize/kbit8/encode", bytes, || {
        q.encode(black_box(&values))
    });
    let packed = q.encode(&values);
    micro("quantize/kbit8/decode_reconstruct", bytes, || {
        q.decode(black_box(&packed), values.len()).unwrap()
    });

    let t = ThresholdQuantizer::fit(&values[..(1 << 14)], 0.995);
    micro("quantize/threshold/encode_packed", bytes, || {
        t.encode_packed(black_box(&values))
    });

    // Pool a 64x64 map per iteration (per-example POOL_QT cost).
    let map = sample(64 * 64);
    let bytes = (map.len() * 4) as u64;
    micro("quantize/pool/avg_sigma2_64x64", bytes, || {
        avg_pool2d(black_box(&map), 64, 64, 2)
    });
    micro("quantize/pool/avg_sigma32_64x64", bytes, || {
        avg_pool2d(black_box(&map), 64, 64, 32)
    });
}
