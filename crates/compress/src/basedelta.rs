//! Base+delta frames: a chunk stored as the XOR difference against another
//! stored chunk (the **base**).
//!
//! Near-duplicate chunks — checkpoints of the same DNN layer across epochs,
//! Zillow pipeline variants that only touch a few rows — differ in a small
//! fraction of their bytes. XORing the target against its base turns the
//! unchanged bytes into zero runs that [`crate::compress_auto`] collapses;
//! the frame records everything decode needs to be self-describing and
//! *strict*:
//!
//! ```text
//! [0xDE][base digest: 2 × u64 LE][varint base_len][varint raw_len]
//!       [varint inner_len][inner frame: compress_auto(target XOR base)]
//! ```
//!
//! The magic byte `0xDE` can never collide with a serialized
//! [`mistique-dataframe`] ColumnChunk (whose first byte is a dtype tag
//! `0..=6`), so the store can tell a delta frame from a plain chunk by its
//! first byte. Decode rejects a wrong base (digest or length mismatch),
//! truncation, and trailing garbage — a strict prefix of a valid frame never
//! decodes (see `crates/compress/tests/truncation_fuzz.rs`).
//!
//! The XOR rule for unequal lengths: positions past the end of the base
//! carry the target's bytes verbatim (XOR against an implicit zero pad), so
//! any target can be expressed against any base — the encoder only wins when
//! the streams actually overlap.

use crate::frame::{self, CodecError, Scheme};
use crate::{lzss, varint};

/// First byte of every base+delta frame. Disjoint from the ColumnChunk dtype
/// tags (`0..=6`) the store otherwise keeps in partitions.
pub const DELTA_MAGIC: u8 = 0xDE;

/// Bytes of fixed header before the varint fields: magic + two u64 digests.
const FIXED_HEADER: usize = 1 + 16;

/// Does this buffer carry a base+delta frame? (Header check only — the
/// frame may still fail to decode.)
pub fn is_delta_frame(bytes: &[u8]) -> bool {
    bytes.first() == Some(&DELTA_MAGIC)
}

/// Encode `target` as a delta frame against `base`, stamped with the base's
/// content digest. Always succeeds; callers compare the frame length against
/// the raw target to decide whether the delta representation actually wins.
pub fn encode(target: &[u8], base: &[u8], base_digest: (u64, u64)) -> Vec<u8> {
    encode_within(
        target,
        base,
        base_digest,
        usize::MAX,
        &mut lzss::Encoder::default(),
    )
    .expect("every frame is shorter than usize::MAX")
}

/// The frame [`encode`] returns when it takes at most `max_len` bytes,
/// `None` otherwise. The inner frame gets what the header leaves as its
/// limit ([`frame::compress_auto_within`]), so no codec runs that could
/// only produce a frame past `max_len`; LZSS runs through `enc`.
pub fn encode_within(
    target: &[u8],
    base: &[u8],
    base_digest: (u64, u64),
    max_len: usize,
    enc: &mut lzss::Encoder,
) -> Option<Vec<u8>> {
    let fixed = FIXED_HEADER + varint::len(base.len() as u64) + varint::len(target.len() as u64);
    // The inner frame's own length varint takes at least a byte.
    let room = max_len.checked_sub(fixed + 1)?;
    let xored = xor_against(target, base);
    let inner = frame::compress_auto_within(&xored, room + 1, enc)?;
    if fixed + varint::len(inner.len() as u64) + inner.len() > max_len {
        return None;
    }
    let mut out = Vec::with_capacity(fixed + 10 + inner.len());
    out.push(DELTA_MAGIC);
    out.extend_from_slice(&base_digest.0.to_le_bytes());
    out.extend_from_slice(&base_digest.1.to_le_bytes());
    varint::write_u64(&mut out, base.len() as u64);
    varint::write_u64(&mut out, target.len() as u64);
    varint::write_u64(&mut out, inner.len() as u64);
    out.extend_from_slice(&inner);
    Some(out)
}

/// Decode a delta frame back to the target bytes, verifying the caller
/// supplied the exact base the frame was encoded against (digest *and*
/// length). Strict: truncated frames, trailing garbage, and inner-frame
/// corruption are all rejected.
pub fn decode(
    frame_bytes: &[u8],
    base: &[u8],
    base_digest: (u64, u64),
) -> Result<Vec<u8>, CodecError> {
    let header = parse_header(frame_bytes).ok_or(CodecError::BadHeader)?;
    if header.base_digest != base_digest {
        return Err(CodecError::Corrupt);
    }
    if header.base_len != base.len() {
        return Err(CodecError::LengthMismatch {
            expected: header.base_len,
            actual: base.len(),
        });
    }
    let xored = frame::decompress(header.inner)?;
    if xored.len() != header.raw_len {
        return Err(CodecError::LengthMismatch {
            expected: header.raw_len,
            actual: xored.len(),
        });
    }
    Ok(xor_against(&xored, base))
}

/// The base digest a delta frame was encoded against, without decoding it.
pub fn base_digest_of(frame_bytes: &[u8]) -> Option<(u64, u64)> {
    parse_header(frame_bytes).map(|h| h.base_digest)
}

/// The scheme of the inner XOR-stream frame — what EXPLAIN attributes the
/// delta-resolved bytes to (rendered as `delta:<scheme>`).
pub fn inner_scheme(frame_bytes: &[u8]) -> Option<Scheme> {
    parse_header(frame_bytes).and_then(|h| frame::scheme_of(h.inner))
}

struct Header<'a> {
    base_digest: (u64, u64),
    base_len: usize,
    raw_len: usize,
    inner: &'a [u8],
}

/// Parse and validate the outer frame layout. `None` unless the buffer is
/// exactly one well-formed frame (no truncation, no trailing bytes).
fn parse_header(bytes: &[u8]) -> Option<Header<'_>> {
    if bytes.len() < FIXED_HEADER || bytes[0] != DELTA_MAGIC {
        return None;
    }
    let d0 = u64::from_le_bytes(bytes[1..9].try_into().ok()?);
    let d1 = u64::from_le_bytes(bytes[9..17].try_into().ok()?);
    let mut pos = FIXED_HEADER;
    let base_len = varint::read_u64(bytes, &mut pos)? as usize;
    let raw_len = varint::read_u64(bytes, &mut pos)? as usize;
    let inner_len = varint::read_u64(bytes, &mut pos)? as usize;
    // Strictness: the inner frame must consume the rest of the buffer
    // exactly — a strict prefix or appended garbage never parses.
    if inner_len != bytes.len().checked_sub(pos)? {
        return None;
    }
    Some(Header {
        base_digest: (d0, d1),
        base_len,
        raw_len,
        inner: &bytes[pos..],
    })
}

/// `a XOR b`, output the length of `a`; positions past `b`'s end pass
/// through verbatim. Involution: `xor_against(xor_against(t, b), b) == t`.
fn xor_against(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = a.to_vec();
    for (o, &bb) in out.iter_mut().zip(b.iter()) {
        *o ^= bb;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest() -> (u64, u64) {
        (0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321)
    }

    #[test]
    fn near_duplicate_roundtrips_and_shrinks() {
        let base: Vec<u8> = (0..8192u32).flat_map(|i| (i % 251).to_le_bytes()).collect();
        let mut target = base.clone();
        // Perturb ~1% of positions.
        for i in (0..target.len()).step_by(128) {
            target[i] ^= 0x5a;
        }
        let f = encode(&target, &base, digest());
        assert!(
            f.len() < target.len() / 4,
            "delta frame should collapse the zero runs: {} vs {}",
            f.len(),
            target.len()
        );
        assert!(is_delta_frame(&f));
        assert_eq!(base_digest_of(&f), Some(digest()));
        assert!(inner_scheme(&f).is_some());
        assert_eq!(decode(&f, &base, digest()).unwrap(), target);
    }

    /// `encode_within` keeps `encode`'s frame exactly when it fits in
    /// `max_len` — at the frame's own length, one byte below it, and at the
    /// store's 25 % rule — over near-duplicate, identical, resized and
    /// unrelated target/base pairs, through one reused encoder.
    #[test]
    fn encode_within_keeps_the_frame_exactly_when_it_fits() {
        let mut enc = lzss::Encoder::default();
        mistique_testkit::cases(64, 0xde17a, |g| {
            let base = crate::lzss::tests::shaped(g);
            let mut target = match g.rng.range(0..4u32) {
                0 => base.clone(),
                1 => crate::lzss::tests::shaped(g),
                _ => {
                    let mut t = base.clone();
                    for x in t.iter_mut() {
                        if g.rng.chance(0.02) {
                            *x ^= g.rng.range(1..=u8::MAX);
                        }
                    }
                    t
                }
            };
            if g.rng.chance(0.25) {
                let len = g.len(0..target.len() + 64);
                target.resize(len, 3);
            }
            let f = encode(&target, &base, digest());
            let raw = target.len();
            let quarter_rule = raw * 3 / 4;
            for max_len in [0, f.len() - 1, f.len(), f.len() + 1, quarter_rule] {
                let want = (f.len() <= max_len).then(|| f.clone());
                assert_eq!(
                    encode_within(&target, &base, digest(), max_len, &mut enc),
                    want,
                    "max_len {max_len}, frame {} B, target {raw} B, base {} B",
                    f.len(),
                    base.len()
                );
            }
            assert_eq!(
                encode_within(&target, &base, digest(), quarter_rule, &mut enc).is_some(),
                f.len() * 4 <= raw * 3,
                "the 25 % rule, frame {} B, target {raw} B",
                f.len()
            );
        });
    }

    #[test]
    fn unequal_lengths_roundtrip_both_ways() {
        let base = vec![7u8; 1000];
        let longer = vec![7u8; 1500];
        let shorter = vec![7u8; 300];
        for target in [&longer, &shorter] {
            let f = encode(target, &base, digest());
            assert_eq!(&decode(&f, &base, digest()).unwrap(), target);
        }
    }

    #[test]
    fn empty_target_and_empty_base_roundtrip() {
        let f = encode(&[], &[], digest());
        assert_eq!(decode(&f, &[], digest()).unwrap(), Vec::<u8>::new());
        let base = vec![1u8, 2, 3];
        let f = encode(&[], &base, digest());
        assert_eq!(decode(&f, &base, digest()).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn wrong_base_digest_rejected() {
        let base = vec![9u8; 64];
        let f = encode(&[8u8; 64], &base, digest());
        let wrong = (digest().0 ^ 1, digest().1);
        assert_eq!(decode(&f, &base, wrong), Err(CodecError::Corrupt));
    }

    #[test]
    fn wrong_base_length_rejected() {
        let base = vec![9u8; 64];
        let f = encode(&[8u8; 64], &base, digest());
        assert!(matches!(
            decode(&f, &base[..63], digest()),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn strict_prefixes_and_trailing_garbage_rejected() {
        let base: Vec<u8> = (0u16..512).flat_map(|i| i.to_le_bytes()).collect();
        let mut target = base.clone();
        target[100] ^= 0xff;
        let f = encode(&target, &base, digest());
        for cut in 0..f.len() {
            assert!(
                decode(&f[..cut], &base, digest()).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut longer = f.clone();
        longer.push(0);
        assert!(decode(&longer, &base, digest()).is_err());
    }

    #[test]
    fn non_delta_bytes_rejected() {
        // A serialized chunk's first byte is a dtype tag 0..=6 — never the
        // magic — and must not parse as a delta frame.
        assert!(!is_delta_frame(&[0, 1, 2, 3]));
        assert!(decode(&[0, 1, 2, 3], &[], digest()).is_err());
        assert_eq!(base_digest_of(&[]), None);
    }

    #[test]
    fn absurd_inner_length_rejected_without_allocation() {
        let mut f = vec![DELTA_MAGIC];
        f.extend_from_slice(&[0u8; 16]);
        // base_len, raw_len tiny; inner_len absurdly large.
        f.push(0);
        f.push(0);
        varint::write_u64(&mut f, u64::MAX);
        assert!(decode(&f, &[], (0, 0)).is_err());
    }
}
