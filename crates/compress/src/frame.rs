//! Self-describing compression frames.
//!
//! A frame is `[scheme: u8][varint raw_len][payload]`, so a Partition on disk
//! can always be decoded without external metadata, and `Auto` may pick a
//! different scheme per member depending on its content.
//!
//! [`compress_auto`] keeps the smallest frame of its candidates without
//! running every candidate in full: each gets the best frame so far as its
//! budget and stops once it cannot beat it, and LZSS does not start when
//! its lower bound already reaches the budget (see [`crate::lzss`]). A
//! caller that only wants a frame below some size passes it as the limit
//! ([`compress_auto_within`]): a delta attempt that cannot pass the
//! store's 25 % rule stops as early as it can tell.
//!
//! A [`Scheme::Members`] frame is a container of independently decodable
//! flat frames: its payload is `[varint n][varint frame_len × n][frame ×
//! n]`, and its raw bytes are the members' raw bytes concatenated. A writer
//! frames each member on its own and then assembles the container
//! ([`assemble_members`]), so it can record something about each frame (a
//! partition's directory holds every chunk frame's hash) before it writes
//! the whole. A reader that wants one member finds it with
//! [`member_table`] and decodes just that frame; [`decompress`] of the
//! whole container decodes them all.

use std::ops::Range;

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
    /// A container of independently decodable member frames
    /// ([`assemble_members`]).
    Members = 4,
}

impl Scheme {
    /// Short lowercase name for reporting (metric labels, stats output).
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Raw => "raw",
            Scheme::Rle => "rle",
            Scheme::Lzss => "lzss",
            Scheme::Delta4 => "delta4",
            Scheme::Members => "members",
        }
    }

    /// Every scheme in byte order: `Scheme::ALL[s as usize] == s`, so a
    /// table with one row per scheme is indexed by `s as usize`.
    pub const ALL: [Scheme; 5] = [
        Scheme::Raw,
        Scheme::Rle,
        Scheme::Lzss,
        Scheme::Delta4,
        Scheme::Members,
    ];

    fn from_u8(v: u8) -> Option<Scheme> {
        Scheme::ALL.get(usize::from(v)).copied()
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
/// possible via the header. `Members` is a container of frames built by
/// [`assemble_members`], not a codec of one input, and falls back too.
pub fn compress(input: &[u8], scheme: Scheme) -> Vec<u8> {
    let payload = match scheme {
        Scheme::Raw | Scheme::Members => None,
        Scheme::Rle => Some(rle::compress(input)),
        Scheme::Lzss => Some(lzss::compress(input)),
        Scheme::Delta4 => delta::compress(input, 4),
    };
    match payload {
        Some(p) => frame_of(scheme, input.len(), &p),
        None => frame_of(Scheme::Raw, input.len(), input),
    }
}

/// `[scheme][varint raw_len][payload]`.
fn frame_of(scheme: Scheme, raw_len: usize, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 11);
    out.push(scheme as u8);
    varint::write_u64(&mut out, raw_len as u64);
    out.extend_from_slice(payload);
    out
}

/// Compress with the scheme that gives the smallest frame out of
/// `Raw`, `Rle`, and `Lzss` (plus `Delta4` when the input is 4-aligned);
/// on a tie the earlier one in that order.
///
/// This models the paper's "variety of off-the-shelf compression schemes":
/// the store does not care which codec wins as long as the frame records it.
pub fn compress_auto(input: &[u8]) -> Vec<u8> {
    compress_auto_within(input, usize::MAX, &mut lzss::Encoder::default())
        .expect("every frame is shorter than usize::MAX")
}

/// The frame [`compress_auto`] returns when it is shorter than `limit`
/// bytes, `None` otherwise — without running a codec that cannot win.
///
/// Each candidate, in `compress_auto`'s order, gets the shortest frame so
/// far (or `limit`) as its budget and gives up once its output reaches
/// it: RLE and Delta4 stop mid-stream, and LZSS does not run when its
/// lower bound already reaches the budget ([`lzss::Encoder::compress_within`]).
/// A candidate is kept only when strictly shorter than the best so far, as
/// in the exhaustive loop, so the frame returned is byte for byte the same.
pub fn compress_auto_within(
    input: &[u8],
    limit: usize,
    enc: &mut lzss::Encoder,
) -> Option<Vec<u8>> {
    let header = 1 + varint::len(input.len() as u64);
    let raw = header + input.len();
    let (mut best, mut budget) = if raw < limit {
        (Some((Scheme::Raw, None)), raw)
    } else {
        (None, limit)
    };
    for scheme in [Scheme::Rle, Scheme::Lzss, Scheme::Delta4] {
        let Some(room) = budget.checked_sub(header) else {
            break;
        };
        let payload = match scheme {
            Scheme::Rle => rle::compress_within(input, room),
            Scheme::Lzss => enc.compress_within(input, room),
            _ /* Delta4 */ => delta::compress_within(input, 4, room),
        };
        if let Some(p) = payload {
            budget = header + p.len();
            best = Some((scheme, Some(p)));
        }
    }
    let (scheme, payload) = best?;
    Some(frame_of(
        scheme,
        input.len(),
        payload.as_deref().unwrap_or(input),
    ))
}

/// A [`Scheme::Members`] container of flat `frames`, in order.
/// [`decompress`] returns the members' raw bytes concatenated.
pub fn assemble_members<F: AsRef<[u8]>>(frames: &[F]) -> Vec<u8> {
    let raw_len: u64 = frames
        .iter()
        .map(|f| raw_len_of(f.as_ref()).expect("a flat frame"))
        .sum();
    let body: usize = frames.iter().map(|f| f.as_ref().len()).sum();
    let mut out = Vec::with_capacity(body + 10 * (frames.len() + 2));
    out.push(Scheme::Members as u8);
    varint::write_u64(&mut out, raw_len);
    varint::write_u64(&mut out, frames.len() as u64);
    for f in frames {
        varint::write_u64(&mut out, f.as_ref().len() as u64);
    }
    for f in frames {
        out.extend_from_slice(f.as_ref());
    }
    out
}

/// The raw length a frame header declares, without decoding the payload.
pub fn raw_len_of(frame: &[u8]) -> Option<u64> {
    let mut at = 1;
    varint::read_u64(frame, &mut at)
}

/// Where each member frame of a [`Scheme::Members`] container sits inside
/// `frame`, in member order, read from the container's header and length
/// table alone: the table must cover the payload exactly. No member byte is
/// looked at, so a reader that verifies each member before decoding it can
/// trust the ranges without having read the members.
pub fn member_table(frame: &[u8]) -> Result<Vec<Range<usize>>, CodecError> {
    if scheme_of(frame) != Some(Scheme::Members) {
        return Err(CodecError::BadHeader);
    }
    let mut pos = 1;
    varint::read_u64(frame, &mut pos).ok_or(CodecError::BadHeader)?;
    let n = varint::read_u64(frame, &mut pos).ok_or(CodecError::Corrupt)?;
    // Every member frame takes at least two bytes (scheme + raw length), so
    // a count past that cannot be honest — refuse it before allocating.
    if n > (frame.len() - pos) as u64 / 2 {
        return Err(CodecError::Corrupt);
    }
    let mut lens = Vec::with_capacity(n as usize);
    for _ in 0..n {
        lens.push(varint::read_u64(frame, &mut pos).ok_or(CodecError::Corrupt)?);
    }
    let mut ranges = Vec::with_capacity(lens.len());
    for len in lens {
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| pos.checked_add(len))
            .filter(|&end| end <= frame.len())
            .ok_or(CodecError::Corrupt)?;
        ranges.push(pos..end);
        pos = end;
    }
    if pos != frame.len() {
        return Err(CodecError::Corrupt);
    }
    Ok(ranges)
}

/// [`member_table`], plus a check of the members' headers without decoding
/// a member: every member must be a flat frame (containers do not nest),
/// and the members' declared raw lengths must add up to the container's.
pub fn member_ranges(frame: &[u8]) -> Result<Vec<Range<usize>>, CodecError> {
    let ranges = member_table(frame)?;
    let raw_len = raw_len_of(frame).expect("member_table read it");
    let mut member_raw = 0u64;
    for r in &ranges {
        let member = &frame[r.clone()];
        match scheme_of(member) {
            None | Some(Scheme::Members) => return Err(CodecError::Corrupt),
            Some(_) => {}
        }
        let raw = raw_len_of(member).ok_or(CodecError::Corrupt)?;
        member_raw = member_raw.checked_add(raw).ok_or(CodecError::Corrupt)?;
    }
    if member_raw != raw_len {
        return Err(CodecError::LengthMismatch {
            expected: raw_len as usize,
            actual: member_raw as usize,
        });
    }
    Ok(ranges)
}

/// Where a [`Scheme::Raw`] frame's payload sits in `frame` — the bytes
/// [`decompress`] would copy out — when it is as long as the header says;
/// `None` for every other frame, which only [`decompress`] can decode.
pub fn raw_payload(frame: &[u8]) -> Option<Range<usize>> {
    if scheme_of(frame) != Some(Scheme::Raw) {
        return None;
    }
    let mut pos = 1;
    let raw_len = varint::read_u64(frame, &mut pos)?;
    (raw_len == (frame.len() - pos) as u64).then_some(pos..frame.len())
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
        Scheme::Members => {
            let ranges = member_ranges(frame)?;
            let mut out = Vec::with_capacity(raw_len.min(1 << 26));
            for r in ranges {
                out.extend_from_slice(&decompress(&frame[r])?);
            }
            out
        }
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
    use crate::lzss::tests::shaped;
    use mistique_testkit::cases;

    /// `compress_auto` as it was before the bounded trials: every candidate
    /// run in full, the smallest frame kept, the earlier one on a tie.
    fn reference_auto(input: &[u8]) -> Vec<u8> {
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

    #[test]
    fn raw_payload_is_what_decompress_copies_out() {
        let input: Vec<u8> = (0..200u32).map(|i| (i * 7919 % 251) as u8).collect();
        let raw = compress(&input, Scheme::Raw);
        let at = raw_payload(&raw).expect("a raw frame");
        assert_eq!(raw[at.clone()], decompress(&raw).unwrap()[..]);
        assert_eq!(at.end, raw.len());
        // A header that disagrees with the payload, or another codec: none.
        assert_eq!(raw_payload(&raw[..raw.len() - 1]), None);
        assert_eq!(raw_payload(&compress(&[0; 64], Scheme::Rle)), None);
        assert_eq!(raw_payload(&[]), None);
    }

    #[test]
    fn auto_matches_the_exhaustive_reference() {
        let mut enc = lzss::Encoder::default();
        cases(96, 0xa070, |g| {
            let input = shaped(g);
            let want = reference_auto(&input);
            assert_eq!(compress_auto(&input), want, "{} B", input.len());
            // Limits on both sides of the reference frame, one encoder
            // throughout: a frame is kept exactly when it is shorter.
            let raw = input.len() + 10;
            let drawn = g.rng.range(0..=raw);
            for limit in [0, want.len(), want.len() + 1, drawn, usize::MAX] {
                let got = compress_auto_within(&input, limit, &mut enc);
                let expect = (want.len() < limit).then(|| want.clone());
                assert_eq!(got, expect, "{} B, limit {limit}", input.len());
            }
        });
    }

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
    fn scheme_table_is_in_byte_order() {
        for (i, s) in Scheme::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i, "{}", s.name());
            assert_eq!(scheme_of(&[i as u8]), Some(s));
        }
    }

    #[test]
    fn unknown_scheme_rejected() {
        // 5 and 6 were scheme bytes no writer ever emitted (4 is now the
        // members container); they are unknown like any other.
        for scheme in [5u8, 6, 99] {
            assert_eq!(decompress(&[scheme, 0]), Err(CodecError::BadHeader));
            assert_eq!(scheme_of(&[scheme, 0]), None);
        }
    }

    #[test]
    fn members_container_addresses_each_member() {
        let members: [&[u8]; 4] = [b"directory", &[0u8; 500], b"", b"abcabcabcabcabcabc"];
        let mut enc = lzss::Encoder::default();
        let frame = assemble_members(
            &members.map(|m| compress_auto_within(m, usize::MAX, &mut enc).expect("unbounded")),
        );
        assert_eq!(scheme_of(&frame), Some(Scheme::Members));
        assert_eq!(decompress(&frame).unwrap(), members.concat());
        let ranges = member_ranges(&frame).unwrap();
        assert_eq!(ranges.len(), 4);
        for (r, m) in ranges.into_iter().zip(members) {
            assert_eq!(decompress(&frame[r.clone()]).unwrap(), m);
            // Each member is its own compress_auto frame.
            assert_eq!(&frame[r], compress_auto(m).as_slice());
        }
        // A container is not a codec of one input: asked for, it falls back.
        assert_eq!(compress(b"solo", Scheme::Members)[0], Scheme::Raw as u8);
        assert!(member_ranges(&compress_auto(b"flat")).is_err());
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
