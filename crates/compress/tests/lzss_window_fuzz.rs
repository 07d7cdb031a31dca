//! Multi-window LZSS fuzz: the match-finder's `prev[pos % WINDOW]` ring
//! aliases positions once the input outgrows the 64 KiB window, so these
//! inputs are specifically sized to wrap it several times. Identity must hold
//! on every seed, and (in debug builds) the in-crate `debug_assert` verifies
//! every followed chain link points strictly backwards — a stale alias that
//! slipped past the guard would trip it.
//!
//! Every case also runs differentially against [`reference_decompress`], on
//! the valid stream and on damaged copies of it: the production decoder's
//! grouped literal copy, chunked match copy and hoisted bounds checks are
//! exactly what a byte-at-a-time decoder catches.

use mistique_compress::lzss::{compress, decompress, decompress_with_hint, WINDOW};
use mistique_rng::Rng;

/// The reference oracle: the seed LZSS decoder, one token per step, literal
/// and match bytes copied one at a time, growth left to `Vec` doubling.
fn reference_decompress(input: &[u8]) -> Option<Vec<u8>> {
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

/// Both decoders must agree on `stream` — both reject it, or both decode the
/// same bytes — and on seeded truncations and single-byte corruptions of it,
/// where a damaged token sends them down the malformed-input paths.
fn assert_matches_reference(stream: &[u8], seed: u64) {
    let agree = |s: &[u8], what: &str| {
        assert_eq!(
            decompress(s),
            reference_decompress(s),
            "seed {seed}: {what}"
        );
    };
    agree(stream, "valid stream");
    if stream.is_empty() {
        return;
    }
    let mut rng = Rng::seed(seed ^ 0xD1FF);
    for _ in 0..16 {
        let cut = rng.range(0..stream.len());
        agree(&stream[..cut], &format!("truncated to {cut} bytes"));
        let at = rng.range(0..stream.len());
        let mut damaged = stream.to_vec();
        damaged[at] ^= rng.range(1..=u8::MAX);
        agree(&damaged, &format!("byte {at} corrupted"));
    }
}

/// Build an input several windows long out of segments chosen to stress the
/// hash chains: literal noise, long runs, and copies of earlier regions at
/// distances both inside and beyond the window.
fn multi_window_input(seed: u64, target_len: usize) -> Vec<u8> {
    let mut rng = Rng::seed(seed);
    let mut out: Vec<u8> = Vec::with_capacity(target_len + 4096);
    while out.len() < target_len {
        match rng.range(0..4) {
            // Random literals: populate fresh hash chains.
            0 => {
                let n = rng.range(64..2048usize);
                out.extend((0..n).map(|_| rng.range(0..=u8::MAX)));
            }
            // Constant run: maximally overlapping self-matches.
            1 => {
                let n = rng.range(64..4096usize);
                let b = rng.range(0..=u8::MAX);
                out.resize(out.len() + n, b);
            }
            // Short-period cycle: dense chains on a handful of hashes.
            2 => {
                let period = rng.range(3..24usize);
                let n = rng.range(256..4096usize);
                let phase = rng.range(0..251usize);
                out.extend((0..n).map(|i| ((i % period) + phase) as u8));
            }
            // Replay an earlier region — possibly from a previous window, so
            // the finder walks chains whose heads have lapped the ring.
            _ => {
                if out.is_empty() {
                    out.push(rng.range(0..=u8::MAX));
                    continue;
                }
                let n = rng.range(64..4096usize).min(out.len());
                let start = rng.range(0..out.len() - n + 1);
                let copy: Vec<u8> = out[start..start + n].to_vec();
                out.extend_from_slice(&copy);
            }
        }
    }
    out.truncate(target_len);
    out
}

#[test]
fn multi_window_inputs_roundtrip_identically() {
    for seed in 0..12u64 {
        // 2.5 to 4 windows: every position's ring slot is overwritten at
        // least once, so stale aliases are reachable if unguarded.
        let len = WINDOW * 5 / 2 + (seed as usize * 9973) % WINDOW;
        let input = multi_window_input(seed + 1, len);
        let c = compress(&input);
        assert_eq!(
            decompress(&c).as_deref(),
            Some(input.as_slice()),
            "seed {seed} len {len}"
        );
        assert_matches_reference(&c, seed);
    }
}

#[test]
fn hint_value_never_affects_decoded_bytes() {
    let input = multi_window_input(99, WINDOW * 3);
    let c = compress(&input);
    for hint in [0, 1, input.len(), input.len() * 4] {
        assert_eq!(
            decompress_with_hint(&c, hint).as_deref(),
            Some(input.as_slice()),
            "hint {hint}"
        );
    }
    assert_matches_reference(&c, 99);
}

#[test]
fn window_boundary_distances_roundtrip() {
    // A block repeated at exactly the window size: matches sit at the
    // maximum representable distance.
    let mut rng = Rng::seed(7);
    let block: Vec<u8> = (0..WINDOW).map(|_| rng.range(0..=u8::MAX)).collect();
    let mut input = block.clone();
    input.extend_from_slice(&block);
    input.extend_from_slice(&block[..WINDOW / 2]);
    let c = compress(&input);
    assert_matches_reference(&c, 7);
    assert_eq!(decompress(&c), Some(input));
}
