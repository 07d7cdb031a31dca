//! IEEE-754 binary16 ("half precision") conversion, from scratch.
//!
//! LP_QT stores activations as half-precision floats. Rust has no stable
//! native `f16`, so this module implements round-to-nearest-even conversion
//! between `f32` and the 16-bit interchange format, including subnormals,
//! infinities, and NaN.

/// A 16-bit IEEE-754 binary16 value stored as its bit pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
#[allow(non_camel_case_types)]
pub struct f16(pub u16);

impl f16 {
    /// Positive infinity.
    pub const INFINITY: f16 = f16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: f16 = f16(0xfc00);
    /// Largest finite value (65504).
    pub const MAX: f16 = f16(0x7bff);

    /// Convert from `f32` with round-to-nearest-even.
    pub fn from_f32(value: f32) -> f16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let frac = bits & 0x007f_ffff;

        if exp == 0xff {
            // Inf or NaN; preserve a NaN payload bit so NaN stays NaN.
            let nan_bit = if frac != 0 { 0x0200 } else { 0 };
            return f16(sign | 0x7c00 | nan_bit | ((frac >> 13) as u16 & 0x3ff));
        }

        // Unbiased exponent, re-biased for binary16 (bias 15 vs 127).
        let unbiased = exp - 127;
        if unbiased > 15 {
            return f16(sign | 0x7c00); // overflow -> infinity
        }
        if unbiased >= -14 {
            // Normal range: keep 10 fraction bits, round to nearest even.
            let half_exp = ((unbiased + 15) as u32) << 10;
            let mantissa = frac >> 13;
            let round_bit = (frac >> 12) & 1;
            let sticky = frac & 0x0fff;
            let mut h = (half_exp | mantissa) as u16;
            if round_bit == 1 && (sticky != 0 || mantissa & 1 == 1) {
                h += 1; // may carry into exponent, which is correct behavior
            }
            return f16(sign | h);
        }
        if unbiased >= -25 {
            // Subnormal range.
            let full = frac | 0x0080_0000; // implicit leading 1
            let shift = (-unbiased - 14 + 13) as u32;
            let mantissa = full >> shift;
            let round_bit = (full >> (shift - 1)) & 1;
            let sticky = full & ((1 << (shift - 1)) - 1);
            let mut h = mantissa as u16;
            if round_bit == 1 && (sticky != 0 || mantissa & 1 == 1) {
                h += 1;
            }
            return f16(sign | h);
        }
        f16(sign) // underflow to signed zero
    }

    /// Convert to `f32` exactly (every binary16 value is representable).
    ///
    /// Backed by a 65536-entry lookup table (256 KiB, built once on first
    /// use from [`f16::to_f32_compute`]) — the LP_QT dequantize hot path is
    /// a single indexed load per value.
    #[inline]
    pub fn to_f32(self) -> f32 {
        decode_table()[self.0 as usize]
    }

    /// Computational binary16 → f32 conversion (the reference the lookup
    /// table is built from).
    fn to_f32_compute(self) -> f32 {
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        let exp = (h >> 10) & 0x1f;
        let frac = h & 0x3ff;

        let bits = if exp == 0x1f {
            // Inf / NaN
            sign | 0x7f80_0000 | (frac << 13)
        } else if exp == 0 {
            if frac == 0 {
                sign // signed zero
            } else {
                // Subnormal: value = frac * 2^-24. Normalize so the leading
                // 1 sits at bit 10; if it started at position p the loop sets
                // e = p - 10 and the value is 2^(p-24), i.e. a biased f32
                // exponent of p + 103 = e + 113.
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
    }

    /// True if this is a NaN bit pattern.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x3ff) != 0
    }
}

/// The bits → f32 table behind [`f16::to_f32`]: one entry per 16-bit pattern.
fn decode_table() -> &'static [f32; 1 << 16] {
    static TABLE: std::sync::OnceLock<Box<[f32; 1 << 16]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = vec![0f32; 1 << 16].into_boxed_slice();
        for (bits, slot) in t.iter_mut().enumerate() {
            *slot = f16(bits as u16).to_f32_compute();
        }
        t.try_into().expect("table has 2^16 entries")
    })
}

/// Encode an f32 slice as packed little-endian binary16 bytes (LP_QT storage).
pub fn encode_f16(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for &v in values {
        out.extend_from_slice(&f16::from_f32(v).0.to_le_bytes());
    }
    out
}

/// Decode packed binary16 bytes back to f32 (with the precision loss already
/// baked in at encode time). Returns `None` if the length is odd.
pub fn decode_f16(bytes: &[u8]) -> Option<Vec<f32>> {
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    let table = decode_table();
    Some(
        bytes
            .chunks_exact(2)
            .map(|c| table[u16::from_le_bytes([c[0], c[1]]) as usize])
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 0.25, -0.75, 1024.0] {
            assert_eq!(f16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn relative_error_bounded_in_normal_range() {
        // binary16 has 11 significand bits: relative error <= 2^-11.
        let mut rng = mistique_rng::Rng::seed(42);
        for _ in 0..10_000 {
            let v = rng.range(-200.0f32..200.0);
            if v == 0.0 {
                continue;
            }
            let r = f16::from_f32(v).to_f32();
            let rel = ((r - v) / v).abs();
            assert!(rel <= 4.9e-4, "value {v} decoded {r} rel {rel}");
        }
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(f16::from_f32(1e6), f16::INFINITY);
        assert_eq!(f16::from_f32(-1e6), f16::NEG_INFINITY);
        assert_eq!(f16::from_f32(65504.0), f16::MAX);
        assert_eq!(f16::MAX.to_f32(), 65504.0);
    }

    #[test]
    fn underflow_to_zero_and_subnormals() {
        assert_eq!(f16::from_f32(1e-10).to_f32(), 0.0);
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16::from_f32(tiny).0, 1);
        assert_eq!(f16(1).to_f32(), tiny);
        // Smallest normal: 2^-14.
        let sn = 2.0f32.powi(-14);
        assert_eq!(f16::from_f32(sn).to_f32(), sn);
    }

    #[test]
    fn nan_preserved() {
        assert!(f16::from_f32(f32::NAN).is_nan());
        assert!(f16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(f16::from_f32(-0.0).0, 0x8000);
        assert!(f16(0x8000).to_f32().is_sign_negative());
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; ties to even -> 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-16);
        assert_eq!(f16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn encode_decode_roundtrip_idempotent() {
        let values = vec![0.1f32, -3.7, 42.0, 0.0, 1e-3];
        let bytes = encode_f16(&values);
        assert_eq!(bytes.len(), values.len() * 2);
        let decoded = decode_f16(&bytes).unwrap();
        // Re-encoding decoded values is lossless (f16 values are f32-exact).
        assert_eq!(encode_f16(&decoded), bytes);
    }

    #[test]
    fn odd_length_rejected() {
        assert_eq!(decode_f16(&[1, 2, 3]), None);
    }

    #[test]
    fn lookup_table_matches_computed_conversion_for_all_patterns() {
        // The table-backed to_f32 must be bit-identical to the computational
        // conversion for every 16-bit pattern, NaNs included.
        for bits in 0..=0xffffu16 {
            let h = f16(bits);
            assert_eq!(
                h.to_f32().to_bits(),
                h.to_f32_compute().to_bits(),
                "bits {bits:#06x}"
            );
        }
    }

    #[test]
    fn all_f16_bit_patterns_roundtrip_through_f32() {
        // Every finite f16 converts to f32 and back to the identical bits.
        for bits in 0..=0xffffu16 {
            let h = f16(bits);
            if h.is_nan() {
                continue;
            }
            let back = f16::from_f32(h.to_f32());
            assert_eq!(back.0, bits, "bits {bits:#06x}");
        }
    }
}
