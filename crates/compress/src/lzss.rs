//! LZSS: sliding-window dictionary compression (the LZ77 family used by
//! gzip's DEFLATE stage).
//!
//! The DataStore concatenates similar ColumnChunks into one Partition before
//! compressing; because LZSS match offsets can reach back across chunk
//! boundaries (up to [`WINDOW`] bytes), redundancy *between* chunks is removed
//! — this is the mechanism behind the paper's similarity-based compression and
//! the Fig 14 microbenchmark.
//!
//! Format: groups of up to 8 tokens preceded by a flag byte (bit set = match).
//! A literal token is one raw byte. A match token is `(u16 LE distance-1,
//! u8 length-MIN_MATCH)`.

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Sliding-window size: how far back matches may reach.
pub const WINDOW: usize = 1 << 16;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const MAX_CHAIN: usize = 48;
const NO_POS: u32 = u32::MAX;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, capped at
/// `limit` — compared 8 bytes at a time, with the mismatch located by the
/// trailing zeros of the XOR (little-endian byte order).
#[inline]
fn match_len(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut l = 0;
    while l + 8 <= limit {
        let x = u64::from_le_bytes(input[a + l..a + l + 8].try_into().unwrap());
        let y = u64::from_le_bytes(input[b + l..b + l + 8].try_into().unwrap());
        let xor = x ^ y;
        if xor != 0 {
            return l + (xor.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && input[a + l] == input[b + l] {
        l += 1;
    }
    l
}

/// Compress `input` with LZSS.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    if input.is_empty() {
        return out;
    }

    // Hash-chain match finder: head[h] is the most recent position with hash h;
    // prev[pos % WINDOW] chains to the previous position with the same hash.
    let mut head = vec![NO_POS; HASH_SIZE];
    let mut prev = vec![NO_POS; WINDOW];

    let mut flags_at = out.len();
    out.push(0);
    let mut ntokens = 0u8;

    let mut i = 0;
    while i < input.len() {
        if ntokens == 8 {
            flags_at = out.len();
            out.push(0);
            ntokens = 0;
        }

        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash4(input, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != NO_POS && chain < MAX_CHAIN {
                let c = cand as usize;
                if i - c > WINDOW - 1 {
                    break;
                }
                let limit = (input.len() - i).min(MAX_MATCH);
                let l = match_len(input, c, i, limit);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l == limit {
                        break;
                    }
                }
                // Staleness guard: `prev` is indexed by `pos % WINDOW`, so
                // once the input outgrows the window a slot can alias a
                // position from an earlier lap of the ring. A genuine chain
                // link always points strictly backwards; anything else is a
                // stale alias (or a cycle) and must terminate the walk.
                let next = prev[c % WINDOW];
                if next != NO_POS {
                    debug_assert!(
                        (next as usize) < c,
                        "hash chain must be strictly decreasing: {next} after {c}"
                    );
                    if next as usize >= c {
                        break;
                    }
                }
                cand = next;
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            out[flags_at] |= 1 << ntokens;
            let d = (best_dist - 1) as u16;
            out.extend_from_slice(&d.to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Insert hash entries for every position covered by the match so
            // later data can match into it.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= input.len() {
                    let h = hash4(input, i);
                    prev[i % WINDOW] = head[h];
                    head[h] = i as u32;
                }
                i += 1;
            }
        } else {
            out.push(input[i]);
            if i + MIN_MATCH <= input.len() {
                let h = hash4(input, i);
                prev[i % WINDOW] = head[h];
                head[h] = i as u32;
            }
            i += 1;
        }
        ntokens += 1;
    }
    out
}

/// Decompress an LZSS stream produced by [`compress`].
/// Returns `None` on malformed input.
pub fn decompress(input: &[u8]) -> Option<Vec<u8>> {
    decompress_with_hint(input, input.len().saturating_mul(2))
}

/// [`decompress`] with a capacity hint for the output buffer. Frame decoders
/// know the exact raw length from the header; passing it avoids every
/// reallocation on the decode hot path.
pub fn decompress_with_hint(input: &[u8], raw_len_hint: usize) -> Option<Vec<u8>> {
    // Cap the pre-allocation so a corrupt hint cannot reserve gigabytes.
    let mut out = Vec::with_capacity(raw_len_hint.min(1 << 26));
    let len_in = input.len();
    let mut pos = 0;
    while pos < len_in {
        let flags = input[pos];
        pos += 1;
        if flags == 0 {
            // Literal-only group: copy up to 8 bytes in one memcpy instead
            // of eight bounds-checked pushes (the hot path of raw/low-
            // redundancy payloads).
            let n = 8.min(len_in - pos);
            out.extend_from_slice(&input[pos..pos + n]);
            pos += n;
            continue;
        }
        for bit in 0..8 {
            if pos >= len_in {
                break;
            }
            if flags & (1 << bit) != 0 {
                if pos + 3 > len_in {
                    return None;
                }
                let dist = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize + 1;
                let len = input[pos + 2] as usize + MIN_MATCH;
                pos += 3;
                if dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                // Chunked match copy: each pass copies the whole available
                // run, so a self-overlapping match (dist < len) doubles the
                // run per pass instead of copying byte by byte, and a
                // non-overlapping match is a single memcpy.
                let mut remaining = len;
                while remaining > 0 {
                    let avail = (out.len() - start).min(remaining);
                    out.extend_from_within(start..start + avail);
                    remaining -= avail;
                }
            } else {
                out.push(input[pos]);
                pos += 1;
            }
        }
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
    fn short_input_roundtrip() {
        for len in 1..16 {
            let input: Vec<u8> = (0..len as u8).collect();
            assert_eq!(decompress(&compress(&input)), Some(input));
        }
    }

    #[test]
    fn repetitive_text_compresses() {
        let input = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .cycle()
            .take(10_000)
            .copied()
            .collect::<Vec<u8>>();
        let c = compress(&input);
        assert!(
            c.len() < input.len() / 5,
            "got {} of {}",
            c.len(),
            input.len()
        );
        assert_eq!(decompress(&c), Some(input));
    }

    #[test]
    fn overlapping_match_roundtrip() {
        // "aaaa..." forces self-overlapping matches.
        let input = vec![b'a'; 1000];
        let c = compress(&input);
        assert!(c.len() < 32);
        assert_eq!(decompress(&c), Some(input));
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes: no matches, slight expansion from flag bytes.
        let mut rng = mistique_rng::Rng::seed(0x12345678);
        let input: Vec<u8> = (0..4096).map(|_| rng.range(0..=u8::MAX)).collect();
        let c = compress(&input);
        assert!(c.len() <= input.len() + input.len() / 8 + 2);
        assert_eq!(decompress(&c), Some(input));
    }

    #[test]
    fn duplicated_block_compresses_to_half() {
        // Two identical 8 KiB blocks back to back: the second should be
        // almost free — the cross-chunk dedup effect inside a Partition.
        let mut rng = mistique_rng::Rng::seed(7);
        let block: Vec<u8> = (0..8192).map(|_| rng.range(0..=u8::MAX)).collect();
        let mut input = block.clone();
        input.extend_from_slice(&block);
        let c = compress(&input);
        assert!(
            c.len() < block.len() + block.len() / 4,
            "expected second copy nearly free, got {} for {} raw",
            c.len(),
            input.len()
        );
        assert_eq!(decompress(&c), Some(input));
    }

    #[test]
    fn corrupt_distance_rejected() {
        // A match that reaches before the start of output must be rejected.
        let bad = vec![0b0000_0001, 0xff, 0xff, 0x00];
        assert_eq!(decompress(&bad), None);
    }
}
