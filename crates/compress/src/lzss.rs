//! LZSS: sliding-window dictionary compression (the LZ77 family used by
//! gzip's DEFLATE stage).
//!
//! The DataStore seals each ColumnChunk of a Partition as its own frame (a
//! member of a `Members` container), so a match reaches back at most to the
//! start of its own chunk: LZSS removes redundancy *within* a chunk, and a
//! cold read decodes one chunk, not the Partition. Redundancy *between*
//! chunks — what the paper's Sec 4.2 co-locates them for — is carried by
//! exact dedup and base+delta frames. The Fig 14 microbenchmark still
//! compresses a co-located buffer whole, to show what a shared window buys.
//! One [`Encoder`] compresses all members of a seal, so its tables are
//! filled once per seal rather than once per chunk.
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
    Encoder::default().compress(input)
}

/// An LZSS encoder whose match-finder tables outlive one input, so a
/// partition's many small members pay for filling them once, not once per
/// member.
///
/// Hash-chain match finder: `head[h]` is the most recent position with hash
/// `h`; `prev[pos % WINDOW]` chains to the previous position with the same
/// hash. Positions are stored offset by `base`, the running total of bytes
/// this encoder has seen, so an entry left by an earlier input sits below
/// `base` and reads as empty — the output for each input is byte-identical
/// to a fresh encoder's, and only `head` needs filling, once.
#[derive(Debug, Default)]
pub struct Encoder {
    head: Vec<u32>,
    prev: Vec<u32>,
    base: u32,
}

impl Encoder {
    /// Compress `input` with LZSS; the output does not depend on what the
    /// encoder compressed before.
    pub fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        if input.is_empty() {
            return out;
        }
        // Fill `head` on first use and whenever the offset positions of
        // this input could reach the `NO_POS` sentinel. `prev` is only ever
        // read at a slot this input wrote, so it just has to be long enough.
        match (self.base as usize).checked_add(input.len()) {
            Some(end) if end < NO_POS as usize && !self.head.is_empty() => {}
            _ => {
                self.head.clear();
                self.head.resize(HASH_SIZE, NO_POS);
                self.base = 0;
            }
        }
        let ring = input.len().min(WINDOW);
        if self.prev.len() < ring {
            self.prev.resize(ring, NO_POS);
        }
        let (head, prev, base) = (&mut self.head[..], &mut self.prev[..], self.base);
        // A stored position, as an index into `input`: `None` for the
        // sentinel and for positions an earlier input left behind. Both
        // wrap to at least `input.len()` (`base + input.len() < NO_POS`),
        // so one comparison tells them from this input's positions.
        let n = input.len() as u32;
        let local = |p: u32| {
            let d = p.wrapping_sub(base);
            (d < n).then_some(d as usize)
        };

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
                let mut cand = local(head[h]);
                let mut chain = 0;
                while let Some(c) = cand {
                    if chain >= MAX_CHAIN || i - c > WINDOW - 1 {
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
                    // Staleness guard: `prev` is indexed by `pos % WINDOW`,
                    // so once the input outgrows the window a slot can
                    // alias a position from an earlier lap of the ring. A
                    // genuine chain link always points strictly backwards;
                    // anything else is a stale alias (or a cycle) and must
                    // terminate the walk.
                    let next = local(prev[c % WINDOW]);
                    if let Some(n) = next {
                        debug_assert!(
                            n < c,
                            "hash chain must be strictly decreasing: {n} after {c}"
                        );
                        if n >= c {
                            break;
                        }
                    }
                    cand = next;
                    chain += 1;
                }
            }

            let step = if best_len >= MIN_MATCH {
                out[flags_at] |= 1 << ntokens;
                let d = (best_dist - 1) as u16;
                out.extend_from_slice(&d.to_le_bytes());
                out.push((best_len - MIN_MATCH) as u8);
                best_len
            } else {
                out.push(input[i]);
                1
            };
            // Insert hash entries for every position the token covers, so
            // later data can match into it.
            for p in i..i + step {
                if p + MIN_MATCH <= input.len() {
                    let h = hash4(input, p);
                    prev[p % WINDOW] = head[h];
                    head[h] = base + p as u32;
                }
            }
            i += step;
            ntokens += 1;
        }
        self.base = base + input.len() as u32;
        out
    }
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

    /// The encoder as it was before [`Encoder`] kept its tables across
    /// inputs: fresh `head` and `prev` tables on every call. Every input an
    /// [`Encoder`] compresses must come out byte-identical to this.
    fn reference_compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        if input.is_empty() {
            return out;
        }
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
                    let next = prev[c % WINDOW];
                    if next != NO_POS && next as usize >= c {
                        break;
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

    /// Inputs of the shapes a partition's members have — tiny, chunk-sized,
    /// repetitive, random, and past the window — in an order that makes a
    /// later input hash-collide with an earlier one.
    fn member_like_inputs() -> Vec<Vec<u8>> {
        let mut rng = mistique_rng::Rng::seed(0x1e55);
        let mut inputs: Vec<Vec<u8>> = vec![Vec::new(), vec![7], b"abcabcabcabc".to_vec()];
        for len in [400usize, 4096, 400, 20_000, WINDOW + 5_000, 400] {
            let random: Vec<u8> = (0..len).map(|_| rng.range(0..=u8::MAX)).collect();
            let periodic: Vec<u8> = (0..len).map(|i| (i % 97) as u8).collect();
            inputs.push(random.clone());
            inputs.push(periodic);
            // The same bytes again: a shared window would match them; an
            // encoder that leaked state across inputs would too.
            inputs.push(random);
        }
        let floats: Vec<u8> = (0..1000)
            .flat_map(|i| (1.0f32 + i as f32 * 1e-3).to_le_bytes())
            .collect();
        inputs.push(floats);
        inputs
    }

    #[test]
    fn reused_encoder_matches_the_reference_byte_for_byte() {
        let inputs = member_like_inputs();
        let mut enc = Encoder::default();
        for (k, input) in inputs.iter().enumerate() {
            let want = reference_compress(input);
            assert_eq!(enc.compress(input), want, "input {k} ({} B)", input.len());
            assert_eq!(compress(input), want, "fresh encoder, input {k}");
            assert_eq!(decompress(&want).as_deref(), Some(input.as_slice()));
        }
    }

    #[test]
    fn encoder_refills_its_table_before_positions_reach_the_sentinel() {
        let inputs = member_like_inputs();
        let mut enc = Encoder::default();
        enc.compress(&inputs[2]);
        // Park the running offset just below the sentinel: the next inputs
        // must take the refill path and still match the reference.
        enc.base = NO_POS - 10_000;
        for input in &inputs {
            assert_eq!(enc.compress(input), reference_compress(input));
        }
    }

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
