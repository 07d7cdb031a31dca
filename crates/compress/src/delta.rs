//! Delta + zig-zag + varint coding for integer-like byte streams.
//!
//! Interprets the input as little-endian integers of a fixed width (1, 2, 4,
//! or 8 bytes), stores the first value and then zig-zag varint deltas.
//! Effective on sorted ids (`row_id` columns) and slowly-varying quantized
//! activations.

use crate::varint;

/// Encode `input` as width-`w` LE integer deltas. `input.len()` must be a
/// multiple of `w` and `w` one of 1/2/4/8; returns `None` otherwise (caller
/// falls back to raw).
pub fn compress(input: &[u8], w: usize) -> Option<Vec<u8>> {
    compress_within(input, w, usize::MAX)
}

/// [`compress`] when its output is shorter than `budget` bytes, `None`
/// otherwise; stops as soon as the output reaches `budget`.
pub fn compress_within(input: &[u8], w: usize, budget: usize) -> Option<Vec<u8>> {
    if !matches!(w, 1 | 2 | 4 | 8) {
        return None;
    }
    if !input.len().is_multiple_of(w) {
        return None;
    }
    let n = input.len() / w;
    let mut out = Vec::with_capacity((input.len() / 2 + 16).min(budget));
    varint::write_u64(&mut out, n as u64);
    let mut prev = 0i64;
    for k in 0..n {
        if out.len() >= budget {
            return None;
        }
        let v = read_le(&input[k * w..], w);
        varint::write_u64(&mut out, varint::zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
    (out.len() < budget).then_some(out)
}

/// Decode a delta stream produced by [`compress`] with the same width.
pub fn decompress(input: &[u8], w: usize) -> Option<Vec<u8>> {
    if !matches!(w, 1 | 2 | 4 | 8) {
        return None;
    }
    let mut pos = 0;
    let n = varint::read_u64(input, &mut pos)? as usize;
    // Guard against absurd lengths from corrupt headers: a huge reservation
    // would abort the process instead of returning a decode error. The
    // remaining input has at least one byte per value, so `n` can never
    // legitimately exceed what is left to parse.
    if n > input.len().saturating_sub(pos) {
        return None;
    }
    let mut out = Vec::with_capacity(n * w);
    let mut prev = 0i64;
    for _ in 0..n {
        let delta = varint::unzigzag(varint::read_u64(input, &mut pos)?);
        let v = prev.wrapping_add(delta);
        write_le(&mut out, v, w);
        prev = v;
    }
    if pos != input.len() {
        return None;
    }
    Some(out)
}

#[inline]
fn read_le(bytes: &[u8], w: usize) -> i64 {
    let mut v = 0u64;
    for (i, &b) in bytes[..w].iter().enumerate() {
        v |= u64::from(b) << (8 * i);
    }
    v as i64
}

#[inline]
fn write_le(out: &mut Vec<u8>, v: i64, w: usize) {
    let u = v as u64;
    for i in 0..w {
        out.push((u >> (8 * i)) as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_u32_ids_compress_well() {
        let mut input = Vec::new();
        for i in 0u32..10_000 {
            input.extend_from_slice(&i.to_le_bytes());
        }
        let c = compress(&input, 4).unwrap();
        // Each delta is 1 => ~1 byte each + length header vs 4 bytes raw.
        assert!(c.len() < input.len() / 3);
        assert_eq!(decompress(&c, 4), Some(input));
    }

    #[test]
    fn u8_stream_roundtrip() {
        let input: Vec<u8> = (0..=255).chain((0..=255).rev()).collect();
        let c = compress(&input, 1).unwrap();
        assert_eq!(decompress(&c, 1), Some(input));
    }

    #[test]
    fn u64_extremes_roundtrip() {
        let vals = [0u64, u64::MAX, 1, u64::MAX / 2, 42];
        let mut input = Vec::new();
        for v in vals {
            input.extend_from_slice(&v.to_le_bytes());
        }
        let c = compress(&input, 8).unwrap();
        assert_eq!(decompress(&c, 8), Some(input));
    }

    #[test]
    fn misaligned_input_returns_none() {
        assert_eq!(compress(&[1, 2, 3], 2), None);
    }

    #[test]
    fn unsupported_width_returns_none() {
        // The documented contract: bad widths fall back to raw, they must
        // not panic.
        for w in [0usize, 3, 5, 6, 7, 16] {
            assert_eq!(compress(&[0u8; 48], w), None, "compress width {w}");
            assert_eq!(decompress(&[0u8; 48], w), None, "decompress width {w}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let input: Vec<u8> = (0u8..16).collect();
        let mut c = compress(&input, 4).unwrap();
        c.push(0);
        assert_eq!(decompress(&c, 4), None);
    }

    #[test]
    fn empty_roundtrip() {
        let c = compress(&[], 4).unwrap();
        assert_eq!(decompress(&c, 4), Some(vec![]));
    }
}
