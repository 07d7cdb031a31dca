//! Gorilla-style XOR compression for f32 streams (Facebook's time-series
//! codec, adapted to 32-bit values).
//!
//! Neighbouring activations of one neuron usually share sign, exponent, and
//! high mantissa bits; XORing consecutive values concentrates the entropy in
//! a short "meaningful" window that can be coded compactly:
//!
//! - `0`                       — identical to the previous value,
//! - `10` + reuse window       — meaningful bits fit the previous window,
//! - `11` + 5-bit lead + 5-bit len + bits — new window.

use crate::bits::{BitReader, BitWriter};
use crate::varint;

/// Compress a little-endian f32 byte stream. Returns `None` if the input
/// length is not a multiple of 4 (caller falls back to another codec).
pub fn compress(input: &[u8]) -> Option<Vec<u8>> {
    if !input.len().is_multiple_of(4) {
        return None;
    }
    let n = input.len() / 4;
    let mut header = Vec::with_capacity(8);
    varint::write_u64(&mut header, n as u64);
    if n == 0 {
        return Some(header);
    }

    let mut w = BitWriter::new();
    let mut prev = u32::from_le_bytes(input[0..4].try_into().unwrap());
    w.write_bits(prev as u64, 32);
    let mut prev_lead = 32u32;
    let mut prev_len = 0u32;

    for k in 1..n {
        let cur = u32::from_le_bytes(input[k * 4..k * 4 + 4].try_into().unwrap());
        let xor = prev ^ cur;
        if xor == 0 {
            w.write_bit(false);
        } else {
            w.write_bit(true);
            let lead = xor.leading_zeros().min(31);
            let trail = xor.trailing_zeros();
            let len = 32 - lead - trail;
            // Reuse the previous window when the new xor fits inside it.
            if prev_len > 0 && lead >= prev_lead && trail >= 32 - prev_lead - prev_len {
                w.write_bit(false);
                w.write_bits((xor >> (32 - prev_lead - prev_len)) as u64, prev_len);
            } else {
                w.write_bit(true);
                w.write_bits(lead as u64, 5);
                // len in 1..=32; store len-1 in 5 bits.
                w.write_bits((len - 1) as u64, 5);
                w.write_bits((xor >> trail) as u64, len);
                prev_lead = lead;
                prev_len = len;
            }
        }
        prev = cur;
    }

    header.extend_from_slice(&w.into_bytes());
    Some(header)
}

/// Decompress a stream produced by [`compress`] back to f32 LE bytes.
pub fn decompress(input: &[u8]) -> Option<Vec<u8>> {
    let mut pos = 0usize;
    let n = varint::read_u64(input, &mut pos)? as usize;
    // Sanity bound: each value needs at least one bit.
    if n > input
        .len()
        .saturating_sub(pos)
        .saturating_mul(8)
        .saturating_add(32)
    {
        return None;
    }
    let mut out = Vec::with_capacity(n * 4);
    if n == 0 {
        return Some(out);
    }
    let mut r = BitReader::new(&input[pos..]);
    let mut prev = r.read_bits(32)? as u32;
    out.extend_from_slice(&prev.to_le_bytes());
    let mut prev_lead = 32u32;
    let mut prev_len = 0u32;

    for _ in 1..n {
        let cur = if !r.read_bit()? {
            prev
        } else if !r.read_bit()? {
            // Previous window.
            if prev_len == 0 {
                return None; // window reuse before any window was defined
            }
            let bits = r.read_bits(prev_len)? as u32;
            prev ^ (bits << (32 - prev_lead - prev_len))
        } else {
            let lead = r.read_bits(5)? as u32;
            let len = r.read_bits(5)? as u32 + 1;
            if lead + len > 32 {
                return None;
            }
            let trail = 32 - lead - len;
            let bits = r.read_bits(len)? as u32;
            prev_lead = lead;
            prev_len = len;
            prev ^ (bits << trail)
        };
        out.extend_from_slice(&cur.to_le_bytes());
        prev = cur;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[f32]) -> (usize, usize) {
        let input: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let c = compress(&input).unwrap();
        assert_eq!(decompress(&c).unwrap(), input);
        (input.len(), c.len())
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[std::f32::consts::PI]);
        roundtrip(&[f32::NAN]); // bit patterns roundtrip exactly
    }

    #[test]
    fn constant_stream_compresses_to_bits() {
        let (raw, c) = roundtrip(&[1.5f32; 10_000]);
        // 1 bit per repeated value.
        assert!(c < raw / 20, "constant stream {c} of {raw}");
    }

    #[test]
    fn smooth_stream_compresses_well() {
        // Slowly varying activations: neighbours share exponent + high bits.
        let values: Vec<f32> = (0..10_000).map(|i| 1.0 + (i as f32) * 1e-6).collect();
        let (raw, c) = roundtrip(&values);
        assert!(c < raw / 2, "smooth stream {c} of {raw}");
    }

    #[test]
    fn random_stream_roundtrips_with_bounded_expansion() {
        let mut rng = mistique_rng::Rng::seed(9);
        let values: Vec<f32> = (0..4096)
            .map(|_| f32::from_bits(rng.range(0..=u32::MAX) & 0x7f7f_ffff))
            .collect();
        let (raw, c) = roundtrip(&values);
        // Worst case ~ (2 + 10 + 32)/32 bits per value overhead.
        assert!(c < raw + raw / 2, "random stream {c} of {raw}");
    }

    #[test]
    fn negatives_and_extremes() {
        roundtrip(&[
            0.0,
            -0.0,
            f32::MIN,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -1e-40, // subnormal
        ]);
    }

    #[test]
    fn misaligned_input_rejected() {
        assert!(compress(&[1, 2, 3]).is_none());
    }

    #[test]
    fn garbage_decompress_never_panics() {
        let mut rng = mistique_rng::Rng::seed(0);
        for _ in 0..50 {
            let garbage: Vec<u8> = (0..64).map(|_| rng.range(0..=u8::MAX)).collect();
            let _ = decompress(&garbage);
        }
    }
}
