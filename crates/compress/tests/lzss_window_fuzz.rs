//! Multi-window LZSS fuzz: the match-finder's `prev[pos % WINDOW]` ring
//! aliases positions once the input outgrows the 64 KiB window, so these
//! inputs are specifically sized to wrap it several times. Identity must hold
//! on every seed, and (in debug builds) the in-crate `debug_assert` verifies
//! every followed chain link points strictly backwards — a stale alias that
//! slipped past the guard would trip it.

use mistique_compress::lzss::{compress, decompress, decompress_with_hint, WINDOW};
use mistique_rng::Rng;

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
    assert_eq!(decompress(&c), Some(input));
}
