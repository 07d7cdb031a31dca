//! Property tests: every codec must be lossless on arbitrary byte strings.
//! Seeded (`mistique_testkit::cases`), 256 cases each.

use mistique_compress::{
    assemble_members, compress, compress_auto, compress_auto_within, decompress, lzss,
    member_ranges, Scheme,
};
use mistique_testkit::cases;

/// Each member framed on its own, as a sealed partition's chunks are: the
/// `compress_auto` frame, through one LZSS encoder for them all.
fn framed(members: &[&[u8]]) -> Vec<Vec<u8>> {
    let mut enc = lzss::Encoder::default();
    let frame = |m: &&[u8]| compress_auto_within(m, usize::MAX, &mut enc).expect("unbounded");
    members.iter().map(frame).collect()
}

fn le_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[test]
fn lzss_roundtrip() {
    cases(256, 1, |g| {
        let input = g.bytes(0..8192);
        let frame = compress(&input, Scheme::Lzss);
        assert_eq!(decompress(&frame).unwrap(), input);
    });
}

#[test]
fn rle_roundtrip() {
    cases(256, 2, |g| {
        let input = g.bytes(0..8192);
        let frame = compress(&input, Scheme::Rle);
        assert_eq!(decompress(&frame).unwrap(), input);
    });
}

#[test]
fn auto_roundtrip() {
    cases(256, 3, |g| {
        let input = g.bytes(0..8192);
        let frame = compress_auto(&input);
        assert_eq!(decompress(&frame).unwrap(), input);
    });
}

#[test]
fn delta_roundtrip() {
    cases(256, 4, |g| {
        let input = le_bytes(&g.words(0..2048));
        let frame = compress(&input, Scheme::Delta4);
        assert_eq!(decompress(&frame).unwrap(), input);
    });
}

// A members container decodes whole to its members concatenated, and each
// member alone to itself.
#[test]
fn members_roundtrip() {
    cases(256, 6, |g| {
        let n = g.rng.range(0usize..12);
        let members: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..1024)).collect();
        let refs: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
        let frame = assemble_members(&framed(&refs));
        assert_eq!(decompress(&frame).unwrap(), members.concat());
        let ranges = member_ranges(&frame).unwrap();
        assert_eq!(ranges.len(), n);
        for (r, m) in ranges.into_iter().zip(&members) {
            assert_eq!(&decompress(&frame[r]).unwrap(), m);
        }
    });
}

// Runs of repeated blocks stress the overlapping-match path in LZSS.
#[test]
fn lzss_repeated_blocks() {
    cases(256, 5, |g| {
        let block = g.bytes(1..256);
        let reps = g.rng.range(1usize..64);
        let input: Vec<u8> = block
            .iter()
            .cycle()
            .take(block.len() * reps)
            .copied()
            .collect();
        let frame = compress(&input, Scheme::Lzss);
        assert_eq!(decompress(&frame).unwrap(), input);
    });
}

// Decoding must never panic on garbage, only return an error.
#[test]
fn decompress_never_panics() {
    cases(256, 8, |g| {
        let _ = decompress(&g.bytes(0..512));
    });
}
