//! Self-describing compression frames.
//!
//! A frame is `[scheme: u8][varint raw_len][payload]`, so a Partition on disk
//! can always be decoded without external metadata, and `Auto` may pick a
//! different scheme per Partition depending on its content.

use crate::{delta, lzss, rle, varint};

/// A compression scheme identifier stored in the frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Scheme {
    /// No compression; payload is the raw bytes.
    Raw = 0,
    /// Run-length encoding ([`crate::rle`]).
    Rle = 1,
    /// LZSS sliding-window compression ([`crate::lzss`]).
    Lzss = 2,
    /// Delta varint over 4-byte LE integers ([`crate::delta`]).
    Delta4 = 3,
}

impl Scheme {
    /// Short lowercase name for reporting (metric labels, stats output).
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Raw => "raw",
            Scheme::Rle => "rle",
            Scheme::Lzss => "lzss",
            Scheme::Delta4 => "delta4",
        }
    }

    fn from_u8(v: u8) -> Option<Scheme> {
        Some(match v {
            0 => Scheme::Raw,
            1 => Scheme::Rle,
            2 => Scheme::Lzss,
            3 => Scheme::Delta4,
            _ => return None,
        })
    }
}

/// Errors produced while decoding a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The frame header is missing or references an unknown scheme.
    BadHeader,
    /// The payload failed to decode.
    Corrupt,
    /// The decoded length does not match the header's raw length.
    LengthMismatch { expected: usize, actual: usize },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "bad or missing frame header"),
            CodecError::Corrupt => write!(f, "corrupt compressed payload"),
            CodecError::LengthMismatch { expected, actual } => {
                write!(f, "decoded {actual} bytes, header said {expected}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Compress `input` with a specific scheme into a self-describing frame.
///
/// If the scheme cannot encode the input (e.g. `Delta4` on a misaligned
/// buffer), the frame silently falls back to `Raw` — decoding is always
/// possible via the header.
pub fn compress(input: &[u8], scheme: Scheme) -> Vec<u8> {
    let payload: Option<Vec<u8>> = match scheme {
        Scheme::Raw => None,
        Scheme::Rle => Some(rle::compress(input)),
        Scheme::Lzss => Some(lzss::compress(input)),
        Scheme::Delta4 => delta::compress(input, 4),
    };
    let (scheme, payload) = match payload {
        Some(p) => (scheme, p),
        None => (Scheme::Raw, input.to_vec()),
    };
    let mut out = Vec::with_capacity(payload.len() + 10);
    out.push(scheme as u8);
    varint::write_u64(&mut out, input.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Compress with the scheme that gives the smallest frame out of
/// `Raw`, `Rle`, and `Lzss` (plus `Delta4` when the input is 4-aligned).
///
/// This models the paper's "variety of off-the-shelf compression schemes":
/// the store does not care which codec wins as long as the frame records it.
pub fn compress_auto(input: &[u8]) -> Vec<u8> {
    let mut best = compress(input, Scheme::Raw);
    for scheme in [Scheme::Rle, Scheme::Lzss, Scheme::Delta4] {
        if scheme == Scheme::Delta4 && !input.len().is_multiple_of(4) {
            continue;
        }
        let candidate = compress(input, scheme);
        if candidate.len() < best.len() {
            best = candidate;
        }
    }
    best
}

/// The scheme recorded in a frame header, without decoding the payload.
/// `None` when the buffer is empty or the scheme byte is unknown.
pub fn scheme_of(frame: &[u8]) -> Option<Scheme> {
    frame.first().and_then(|&b| Scheme::from_u8(b))
}

/// Decode a frame produced by [`compress`] or [`compress_auto`].
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, CodecError> {
    let scheme = Scheme::from_u8(*frame.first().ok_or(CodecError::BadHeader)?)
        .ok_or(CodecError::BadHeader)?;
    let mut pos = 1;
    let raw_len = varint::read_u64(frame, &mut pos).ok_or(CodecError::BadHeader)? as usize;
    let payload = &frame[pos..];
    let out = match scheme {
        Scheme::Raw => payload.to_vec(),
        // The header's raw length caps RLE expansion: a torn or corrupt
        // stream is rejected before it can zero-fill past the declared size.
        Scheme::Rle => rle::decompress_with_limit(payload, raw_len).ok_or(CodecError::Corrupt)?,
        // The header's raw length doubles as an exact pre-allocation hint,
        // eliminating grow-and-copy churn on the decode hot path.
        Scheme::Lzss => lzss::decompress_with_hint(payload, raw_len).ok_or(CodecError::Corrupt)?,
        Scheme::Delta4 => delta::decompress(payload, 4).ok_or(CodecError::Corrupt)?,
    };
    if out.len() != raw_len {
        return Err(CodecError::LengthMismatch {
            expected: raw_len,
            actual: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_roundtrips() {
        let input: Vec<u8> = (0..2048u32).flat_map(|i| (i % 97).to_le_bytes()).collect();
        for scheme in [Scheme::Raw, Scheme::Rle, Scheme::Lzss, Scheme::Delta4] {
            let frame = compress(&input, scheme);
            assert_eq!(decompress(&frame).unwrap(), input, "scheme {scheme:?}");
        }
    }

    #[test]
    fn auto_picks_rle_for_constant_data() {
        let input = vec![0u8; 65536];
        let frame = compress_auto(&input);
        assert_eq!(frame[0], Scheme::Rle as u8);
        assert!(frame.len() < 16);
        assert_eq!(decompress(&frame).unwrap(), input);
    }

    #[test]
    fn auto_never_beats_raw_by_more_than_header() {
        let mut rng = mistique_rng::Rng::seed(3);
        let input: Vec<u8> = (0..1024).map(|_| rng.range(0..=u8::MAX)).collect();
        let frame = compress_auto(&input);
        assert!(frame.len() <= input.len() + 10);
        assert_eq!(decompress(&frame).unwrap(), input);
    }

    #[test]
    fn misaligned_delta_falls_back_to_raw() {
        let input = vec![1u8, 2, 3]; // not 4-aligned
        let frame = compress(&input, Scheme::Delta4);
        assert_eq!(frame[0], Scheme::Raw as u8);
        assert_eq!(decompress(&frame).unwrap(), input);
    }

    #[test]
    fn unknown_scheme_rejected() {
        // 4, 5, 6 were scheme bytes no writer ever emitted; they are unknown
        // like any other.
        for scheme in [4u8, 5, 6, 99] {
            assert_eq!(decompress(&[scheme, 0]), Err(CodecError::BadHeader));
            assert_eq!(scheme_of(&[scheme, 0]), None);
        }
    }

    #[test]
    fn empty_frame_rejected() {
        assert_eq!(decompress(&[]), Err(CodecError::BadHeader));
    }

    #[test]
    fn length_mismatch_detected() {
        let mut frame = compress(b"hello world hello world", Scheme::Lzss);
        // Tamper with the declared raw length.
        frame[1] = frame[1].wrapping_add(1);
        assert!(matches!(
            decompress(&frame),
            Err(CodecError::LengthMismatch { .. }) | Err(CodecError::Corrupt)
        ));
    }
}
