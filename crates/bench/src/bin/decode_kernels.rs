//! Decode-kernel microbench: per-codec decode throughput for the byte codecs
//! (LZSS, RLE, XOR-float, varint) and the dequantizers (f16, KBIT,
//! THRESHOLD), plus a speedup comparison of the LZSS and f16 hot loops
//! against the pre-optimization "seed" kernels, which are embedded here
//! byte-for-byte so the ratio stays measurable after the originals are gone.
//!
//! Zero external deps; writes `BENCH_decode_kernels.json` via the shared
//! snapshot helper so CI can archive the numbers next to `metrics.prom`.
//!
//! Flags: `--mib N --reps N`

use std::time::{Duration, Instant};

use mistique_bench::*;
use mistique_compress::{lzss, rle, varint, xorf};
use mistique_quantize::{half, threshold::ThresholdQuantizer, KbitQuantizer};
use mistique_rng::Rng;

/// Best-of-`reps` wall time of `f`, with the result of the last run returned
/// so the optimizer cannot discard the work.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed());
        out = Some(v);
    }
    (out.unwrap(), best)
}

fn gbps(raw_bytes: usize, t: Duration) -> f64 {
    raw_bytes as f64 / t.as_secs_f64().max(1e-12) / 1e9
}

/// The seed LZSS decoder: per-token loop, byte-by-byte literal and match
/// copies, growth left to `Vec` doubling. Kept as the speedup baseline.
fn seed_lzss_decompress(input: &[u8]) -> Option<Vec<u8>> {
    const MIN_MATCH: usize = 4;
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < input.len() {
        let flags = input[pos];
        pos += 1;
        for bit in 0..8 {
            if pos >= input.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                if pos + 3 > input.len() {
                    return None;
                }
                let dist = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize + 1;
                let len = input[pos + 2] as usize + MIN_MATCH;
                pos += 3;
                if dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                out.push(input[pos]);
                pos += 1;
            }
        }
    }
    Some(out)
}

/// The seed f16 decoder: computational binary16 → f32 conversion per element
/// (no lookup table). Kept as the speedup baseline.
fn seed_f16_decode(bytes: &[u8]) -> Option<Vec<f32>> {
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(2)
            .map(|c| {
                let h = u16::from_le_bytes([c[0], c[1]]) as u32;
                let sign = (h & 0x8000) << 16;
                let exp = (h >> 10) & 0x1f;
                let frac = h & 0x3ff;
                let bits = if exp == 0x1f {
                    sign | 0x7f80_0000 | (frac << 13)
                } else if exp == 0 {
                    if frac == 0 {
                        sign
                    } else {
                        let mut e = 0i32;
                        let mut f = frac;
                        while f & 0x400 == 0 {
                            f <<= 1;
                            e -= 1;
                        }
                        f &= 0x3ff;
                        sign | (((e + 113) as u32) << 23) | (f << 13)
                    }
                } else {
                    sign | ((exp + 127 - 15) << 23) | (frac << 13)
                };
                f32::from_bits(bits)
            })
            .collect(),
    )
}

/// Partition-like payload: repeated near-identical blocks (the similar-chunk
/// case LZSS exists for) interleaved with noise.
fn lzss_payload(total: usize) -> Vec<u8> {
    let mut rng = Rng::seed(0x5EED1);
    let block: Vec<u8> = (0..4096).map(|_| rng.range(0..=u8::MAX)).collect();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        out.extend_from_slice(&block);
        for _ in 0..64 {
            out.push(rng.range(0..=u8::MAX));
        }
    }
    out.truncate(total);
    out
}

fn main() {
    let args = Args::parse();
    let mib = args.usize("mib", 8);
    let reps = args.usize("reps", 5);
    let total = mib * (1 << 20);

    println!("# Decode-kernel microbench: {mib} MiB per codec, best of {reps}");

    let obs = mistique_core::Obs::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut record = |name: &str, raw: usize, t: Duration| {
        let g = gbps(raw, t);
        obs.gauge(&format!("bench.decode_kernels.{name}.gbps"))
            .set(g);
        obs.gauge(&format!("bench.decode_kernels.{name}.raw_bytes"))
            .set_u64(raw as u64);
        rows.push(vec![
            name.into(),
            fmt_bytes(raw as u64),
            fmt_dur(t),
            format!("{g:.2} GB/s"),
        ]);
    };

    // --- LZSS: optimized decoder vs embedded seed decoder -----------------
    let raw = lzss_payload(total);
    let packed = lzss::compress(&raw);
    let (out, t_new) = best_of(reps, || {
        lzss::decompress_with_hint(&packed, raw.len()).unwrap()
    });
    assert_eq!(out, raw, "lzss decode must round-trip");
    let (out_seed, t_seed) = best_of(reps, || seed_lzss_decompress(&packed).unwrap());
    assert_eq!(out_seed, raw, "seed lzss decode must round-trip");
    record("lzss", raw.len(), t_new);
    let lzss_speedup = t_seed.as_secs_f64() / t_new.as_secs_f64().max(1e-12);
    obs.gauge("bench.decode_kernels.lzss.speedup_vs_seed")
        .set(lzss_speedup);

    // --- RLE: long runs (the THRESHOLD/constant-column case) --------------
    let mut rng = Rng::seed(0x5EED2);
    let mut raw = Vec::with_capacity(total);
    while raw.len() < total {
        let b = rng.range(0..=u8::MAX);
        let run = rng.range(16..256usize);
        raw.extend(std::iter::repeat_n(b, run));
    }
    raw.truncate(total);
    let packed = rle::compress(&raw);
    let (out, t) = best_of(reps, || {
        rle::decompress_with_limit(&packed, raw.len()).unwrap()
    });
    assert_eq!(out, raw, "rle decode must round-trip");
    record("rle", raw.len(), t);

    // --- XOR-float: smooth f32 series (activation-like) -------------------
    let mut rng = Rng::seed(0x5EED3);
    let n = total / 4;
    let mut acc = 0.0f32;
    let mut raw = Vec::with_capacity(total);
    for _ in 0..n {
        acc += rng.range(0.0..1.0f32) * 0.01 - 0.005;
        raw.extend_from_slice(&acc.to_le_bytes());
    }
    let packed = xorf::compress(&raw).unwrap();
    let (out, t) = best_of(reps, || xorf::decompress(&packed).unwrap());
    assert_eq!(out, raw, "xorf decode must round-trip");
    record("xorf", raw.len(), t);

    // --- varint: mixed-magnitude u64s --------------------------------------
    let mut rng = Rng::seed(0x5EED4);
    let n = total / 8;
    let values: Vec<u64> = (0..n)
        .map(|_| rng.next_u64() >> rng.range(0..58u32))
        .collect();
    let mut packed = Vec::new();
    for &v in &values {
        varint::write_u64(&mut packed, v);
    }
    let (sum, t) = best_of(reps, || {
        let mut pos = 0;
        let mut sum = 0u64;
        while pos < packed.len() {
            sum = sum.wrapping_add(varint::read_u64(&packed, &mut pos).unwrap());
        }
        sum
    });
    let expect: u64 = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    assert_eq!(sum, expect, "varint decode must round-trip");
    record("varint", n * 8, t);

    // --- f16 dequantize: table lookup vs embedded seed conversion ---------
    // Activation-like values: log-uniform magnitudes spanning the binary16
    // subnormal range (|v| < 2^-14), with exact zeros mixed in — the
    // post-ReLU tail that dominates stored DNN intermediates.
    let mut rng = Rng::seed(0x5EED5);
    let n = total / 2;
    let values: Vec<f32> = (0..n)
        .map(|_| {
            if rng.chance(1.0 / 16.0) {
                return 0.0;
            }
            let mag = 10f32.powf(rng.range(0.0..1.0f32) * 8.0 - 7.0);
            if rng.chance(0.5) {
                mag
            } else {
                -mag
            }
        })
        .collect();
    let packed = half::encode_f16(&values);
    // Warm the lookup table outside the timed region.
    let _ = half::decode_f16(&packed[..2]);
    let (out, t_new) = best_of(reps, || half::decode_f16(&packed).unwrap());
    let (out_seed, t_seed) = best_of(reps, || seed_f16_decode(&packed).unwrap());
    assert_eq!(out.len(), out_seed.len());
    for (a, b) in out.iter().zip(&out_seed) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "f16 kernels must agree bit-for-bit"
        );
    }
    record("f16", n * 4, t_new);
    let f16_speedup = t_seed.as_secs_f64() / t_new.as_secs_f64().max(1e-12);
    obs.gauge("bench.decode_kernels.f16.speedup_vs_seed")
        .set(f16_speedup);

    // --- KBIT dequantize: 8-bit codes → representatives -------------------
    let q = KbitQuantizer::fit(&values[..4096.min(values.len())], 8);
    let n = total;
    let codes: Vec<f32> = (0..n).map(|i| values[i % values.len()]).collect();
    let packed = q.encode(&codes);
    let (out, t) = best_of(reps, || q.decode(&packed, n).unwrap());
    assert_eq!(out.len(), n);
    record("kbit", n * 4, t);

    // --- THRESHOLD dequantize: packed bits → bools ------------------------
    let tq = ThresholdQuantizer::with_threshold(0.5);
    let bits: Vec<f32> = (0..total).map(|i| (i % 3) as f32).collect();
    let packed = tq.encode_packed(&bits);
    let count = bits.len();
    let (out, t) = best_of(reps, || {
        ThresholdQuantizer::decode_packed(&packed, count).unwrap()
    });
    assert_eq!(out.len(), count);
    record("threshold", count, t);

    print_table(&["codec", "raw", "decode (best)", "throughput"], &rows);
    println!("\n  speedup vs seed kernels: lzss {lzss_speedup:.2}x, f16 {f16_speedup:.2}x");

    write_obs_snapshot("decode_kernels", &obs);
}
