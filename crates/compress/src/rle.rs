//! Byte-level run-length encoding.
//!
//! Encodes as a sequence of `(varint run_length, byte)` pairs. Hugely effective
//! on THRESHOLD_QT binarized data and constant columns; harmless elsewhere
//! because the `Auto` frame only keeps it when it wins.

use crate::varint;

/// Run-length encode `input`.
pub fn compress(input: &[u8]) -> Vec<u8> {
    compress_within(input, usize::MAX).expect("a run-length stream is shorter than usize::MAX")
}

/// [`compress`] when its output is shorter than `budget` bytes, `None`
/// otherwise; stops as soon as the output reaches `budget`.
pub fn compress_within(input: &[u8], budget: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity((input.len() / 4 + 8).min(budget));
    let mut i = 0;
    while i < input.len() {
        let byte = input[i];
        let mut run = 1usize;
        while i + run < input.len() && input[i + run] == byte {
            run += 1;
        }
        varint::write_u64(&mut out, run as u64);
        out.push(byte);
        if out.len() >= budget {
            return None;
        }
        i += run;
    }
    (out.len() < budget).then_some(out)
}

/// Upper bound on decoded output, guarding against corrupt headers that
/// declare absurd run lengths (a huge `Vec` reservation would abort the
/// process via `handle_alloc_error` instead of returning an error).
const MAX_DECODED: usize = 1 << 31;

/// Decode a run-length stream produced by [`compress`].
/// Returns `None` on malformed input.
pub fn decompress(input: &[u8]) -> Option<Vec<u8>> {
    decompress_with_limit(input, MAX_DECODED)
}

/// [`decompress`] with an explicit output-size cap: decoding fails as soon
/// as the output would exceed `limit` bytes. Unlike the other codecs, RLE
/// carries no total-length header, so a corrupt stream can declare runs
/// whose expansion is bounded only by this cap — callers that know the
/// expected raw size (the frame decoder does) should pass it so corruption
/// is rejected *before* gigabytes are zero-filled, not after.
pub fn decompress_with_limit(input: &[u8], limit: usize) -> Option<Vec<u8>> {
    // Reserve up front when the caller knows the raw size (the frame decoder
    // always does); cap the guess so an absurd limit cannot reserve memory.
    let mut out = Vec::with_capacity(limit.min(1 << 26));
    let len_in = input.len();
    let mut pos = 0;
    while pos < len_in {
        // Runs shorter than 128 encode as a single varint byte — the
        // overwhelmingly common case — so decode it without the full
        // multi-byte loop.
        let b0 = input[pos];
        let run = if b0 < 0x80 {
            pos += 1;
            b0 as usize
        } else {
            varint::read_u64(input, &mut pos)? as usize
        };
        let byte = *input.get(pos)?;
        pos += 1;
        if run == 0 || out.len().checked_add(run)? > limit {
            return None; // zero runs never produced; oversized = corrupt
        }
        out.resize(out.len() + run, byte);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        assert_eq!(decompress(&compress(&[])), Some(vec![]));
    }

    #[test]
    fn constant_data_compresses_massively() {
        let input = vec![7u8; 100_000];
        let c = compress(&input);
        assert!(
            c.len() < 8,
            "constant run should be a few bytes, got {}",
            c.len()
        );
        assert_eq!(decompress(&c), Some(input));
    }

    #[test]
    fn alternating_data_roundtrips() {
        let input: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        let c = compress(&input);
        assert_eq!(decompress(&c), Some(input));
    }

    #[test]
    fn arbitrary_bytes_roundtrip() {
        let input: Vec<u8> = (0..=255).cycle().take(5000).collect();
        assert_eq!(decompress(&compress(&input)), Some(input));
    }

    #[test]
    fn malformed_truncated_input_rejected() {
        let mut c = compress(&[1, 1, 1, 2]);
        c.pop(); // drop final byte
        assert_eq!(decompress(&c), None);
    }

    #[test]
    fn limit_rejects_runs_past_the_cap() {
        let input = vec![3u8; 1000];
        let c = compress(&input);
        assert_eq!(decompress_with_limit(&c, 1000), Some(input));
        assert_eq!(decompress_with_limit(&c, 999), None);
    }
}
