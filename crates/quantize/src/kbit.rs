//! KBIT_QT: k-bit quantile quantization of activations (Sec 4.1).
//!
//! Given a sample of activation values, compute `2^k` equi-depth bins from
//! quantiles; each activation is stored as its bin code. Reconstruction maps a
//! code back to the bin's representative value (the bin median of the sample),
//! which is the "reconstruction cost" the paper notes when reading 8BIT_QT
//! intermediates.

use mistique_linalg::stats::{percentile_sorted, sorted_numbers};

use crate::bitpack;

/// A fitted k-bit quantizer: bin boundaries plus representative values.
#[derive(Clone, Debug, PartialEq)]
pub struct KbitQuantizer {
    bits: u32,
    /// `2^k - 1` ascending bin boundaries.
    boundaries: Vec<f32>,
    /// `2^k` representative values, one per bin.
    representatives: Vec<f32>,
}

impl KbitQuantizer {
    /// Fit a quantizer with `2^bits` bins on a sample of activations.
    ///
    /// The paper's default is `bits = 8` (256 quantiles). NaNs are left out
    /// of the fit ([`sorted_numbers`]); a sample of NaNs only fits every
    /// boundary and representative at 0.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or > 8, or the sample is empty.
    pub fn fit(sample: &[f32], bits: u32) -> KbitQuantizer {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        assert!(
            !sample.is_empty(),
            "cannot fit a quantizer on an empty sample"
        );
        let sorted = sorted_numbers(sample.iter().map(|&v| f64::from(v)));
        let n_bins = 1usize << bits;

        let boundaries: Vec<f32> = (1..n_bins)
            .map(|i| percentile_sorted(&sorted, i as f64 / n_bins as f64) as f32)
            .collect();
        // Representative = midpoint quantile of each bin.
        let representatives: Vec<f32> = (0..n_bins)
            .map(|i| percentile_sorted(&sorted, (i as f64 + 0.5) / n_bins as f64) as f32)
            .collect();
        KbitQuantizer {
            bits,
            boundaries,
            representatives,
        }
    }

    /// Number of bits per stored code.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The bin code for one value (binary search over boundaries).
    #[inline]
    pub fn code_of(&self, v: f32) -> u8 {
        // partition_point: first boundary >= v gives the bin index.
        self.boundaries.partition_point(|&b| b < v) as u8
    }

    /// The representative value for a code.
    #[inline]
    pub fn value_of(&self, code: u8) -> f32 {
        self.representatives[code as usize]
    }

    /// Quantize values to raw (unpacked) codes.
    pub fn encode_codes(&self, values: &[f32]) -> Vec<u8> {
        values.iter().map(|&v| self.code_of(v)).collect()
    }

    /// Quantize and bit-pack values into the storage representation.
    pub fn encode(&self, values: &[f32]) -> Vec<u8> {
        bitpack::pack(&self.encode_codes(values), self.bits)
    }

    /// Reconstruct `count` values from a bit-packed code stream.
    /// Returns `None` on truncated input.
    pub fn decode(&self, packed: &[u8], count: usize) -> Option<Vec<f32>> {
        let codes = bitpack::unpack(packed, self.bits, count)?;
        let reps = self.representatives.as_slice();
        Some(codes.into_iter().map(|c| reps[c as usize]).collect())
    }

    /// Serialize the fitted quantizer (needed to decode chunks later).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.representatives.len() * 8);
        out.push(self.bits as u8);
        for b in &self.boundaries {
            out.extend_from_slice(&b.to_le_bytes());
        }
        for r in &self.representatives {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out
    }

    /// Inverse of [`KbitQuantizer::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<KbitQuantizer> {
        let bits = *bytes.first()? as u32;
        if !(1..=8).contains(&bits) {
            return None;
        }
        let n_bins = 1usize << bits;
        let need = 1 + (n_bins - 1) * 4 + n_bins * 4;
        if bytes.len() != need {
            return None;
        }
        let mut pos = 1;
        let mut read = |n: usize| {
            let vals: Vec<f32> = bytes[pos..pos + n * 4]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            pos += n * 4;
            vals
        };
        let boundaries = read(n_bins - 1);
        let representatives = read(n_bins);
        Some(KbitQuantizer {
            bits,
            boundaries,
            representatives,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_sample(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 / n as f32).collect()
    }

    #[test]
    fn eight_bit_error_bounded_on_uniform_data() {
        let sample = uniform_sample(100_000);
        let q = KbitQuantizer::fit(&sample, 8);
        let packed = q.encode(&sample);
        let decoded = q.decode(&packed, sample.len()).unwrap();
        // 256 equi-depth bins on uniform [0,1): max error about 1/512.
        for (orig, dec) in sample.iter().zip(&decoded) {
            assert!((orig - dec).abs() < 1.0 / 256.0, "{orig} vs {dec}");
        }
    }

    #[test]
    fn codes_monotone_in_value() {
        let sample = uniform_sample(1000);
        let q = KbitQuantizer::fit(&sample, 4);
        assert!(q.code_of(0.1) <= q.code_of(0.5));
        assert!(q.code_of(0.5) <= q.code_of(0.9));
        assert_eq!(q.code_of(f32::NEG_INFINITY), 0);
        assert_eq!(q.code_of(f32::INFINITY), 15);
    }

    #[test]
    fn skewed_distribution_gets_equi_depth_bins() {
        // 90% zeros (ReLU-style sparsity), 10% spread: most bins cover the tail.
        let mut sample = vec![0.0f32; 9000];
        sample.extend((0..1000).map(|i| 1.0 + i as f32 / 100.0));
        let q = KbitQuantizer::fit(&sample, 8);
        // Zeros all land in one code; the decoded value for zero is ~0.
        let code0 = q.code_of(0.0);
        assert!((q.value_of(code0) - 0.0).abs() < 1e-6);
        // Tail values get fine resolution.
        let v = 5.37f32;
        let dec = q.value_of(q.code_of(v));
        assert!((dec - v).abs() < 0.5, "decoded {dec}");
    }

    #[test]
    fn one_bit_quantizer_is_a_median_split() {
        let sample = uniform_sample(10_000);
        let q = KbitQuantizer::fit(&sample, 1);
        assert_eq!(q.code_of(0.1), 0);
        assert_eq!(q.code_of(0.9), 1);
        let packed = q.encode(&sample);
        // 10_000 one-bit codes = 1250 bytes: a 32x reduction vs f32.
        assert_eq!(packed.len(), 1250);
    }

    #[test]
    fn storage_reduction_factors() {
        let sample = uniform_sample(4096);
        let raw = sample.len() * 4;
        let q8 = KbitQuantizer::fit(&sample, 8);
        assert_eq!(q8.encode(&sample).len() * 4, raw); // 4x vs f32
        let q3 = KbitQuantizer::fit(&sample, 3);
        let packed3 = q3.encode(&sample).len();
        assert!(packed3 <= raw / 10, "3-bit packed {packed3} of raw {raw}");
    }

    #[test]
    fn serialization_roundtrip() {
        let sample = uniform_sample(5000);
        let q = KbitQuantizer::fit(&sample, 5);
        let back = KbitQuantizer::from_bytes(&q.to_bytes()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert_eq!(KbitQuantizer::from_bytes(&[]), None);
        assert_eq!(KbitQuantizer::from_bytes(&[0]), None);
        assert_eq!(KbitQuantizer::from_bytes(&[9, 1, 2, 3]), None);
        assert_eq!(KbitQuantizer::from_bytes(&[2, 0, 0]), None); // wrong length
    }

    #[test]
    fn quantize_idempotent_on_representatives() {
        let sample = uniform_sample(1000);
        let q = KbitQuantizer::fit(&sample, 6);
        for code in 0..64u8 {
            let v = q.value_of(code);
            // Re-encoding a representative lands in a bin whose representative
            // is the same value (quantization is a projection).
            assert_eq!(q.value_of(q.code_of(v)), v);
        }
    }

    #[test]
    fn nans_are_left_out_of_the_fit() {
        let sample = uniform_sample(1000);
        let mut with_nans = sample.clone();
        with_nans.extend([f32::NAN, -f32::NAN]);
        with_nans.swap(0, 1000);
        assert_eq!(
            KbitQuantizer::fit(&with_nans, 8),
            KbitQuantizer::fit(&sample, 8)
        );
        let q = KbitQuantizer::fit(&[f32::NAN; 3], 2);
        assert_eq!(q.value_of(0), 0.0);
        assert_eq!(q.value_of(3), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        KbitQuantizer::fit(&[], 8);
    }
}
