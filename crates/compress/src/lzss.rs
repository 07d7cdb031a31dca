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
//! [`Encoder::compress_within`] runs the compress only when its output can
//! be shorter than a budget: the best frame another codec already made.
//! A screen proves that the rest lose, without running them. It is one pass
//! over the encoder's own `head`/`prev` tables that marks every byte lying
//! inside a 4-gram repeated within [`WINDOW`]. The bound it prices is
//! sound for any parse, greedy or not:
//!
//! - every 4-gram inside a match repeats at the match's distance, below
//!   `WINDOW`, so a match covers marked bytes only, and an unmarked byte is
//!   a literal: one byte, one token;
//! - a maximal marked run of `r` bytes is covered by literals and matches
//!   of at most `MAX_MATCH` (259) bytes at three bytes each, which costs at
//!   least `3·⌊r/259⌋ + min(r mod 259, 3)` bytes and `⌈r/259⌉` tokens;
//! - a flag byte leads every eight tokens.
//!
//! A chain walk the screen cuts short marks its 4-gram as repeated, so the
//! bound can only err low. A budget it does not reach still runs the
//! compress, and every frame kept is byte for byte the compress's output.
//!
//! Format: groups of up to 8 tokens preceded by a flag byte (bit set = match).
//! A literal token is one raw byte. A match token is `(u16 LE distance-1,
//! u8 length-MIN_MATCH)`.

use std::ops::Range;

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
    hash(u32::from_le_bytes([
        data[i],
        data[i + 1],
        data[i + 2],
        data[i + 3],
    ]))
}

/// The `head` bucket of a 4-gram read as a little-endian word.
#[inline]
fn hash(v: u32) -> usize {
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
        let (head, prev, base) = self.tables(input.len());
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
        out
    }

    /// [`Encoder::compress`] of `input` when its output is shorter than
    /// `budget` bytes, `None` otherwise. The compress runs only when the
    /// screen's lower bound does not already reach `budget`, so a caller holding a smaller frame of another codec
    /// skips the work that could not beat it.
    pub fn compress_within(&mut self, input: &[u8], budget: usize) -> Option<Vec<u8>> {
        // An all-literal stream, the longest there is, needs no screen.
        let longest = input.len() + input.len().div_ceil(8);
        if longest >= budget && self.screen(input, budget..budget) >= budget {
            return None;
        }
        Some(self.compress(input)).filter(|out| out.len() < budget)
    }

    /// A lower bound on `compress(input).len()`, from one pass that marks
    /// every byte lying inside a 4-gram repeated within the window.
    ///
    /// A match token covers only marked bytes: each of its 4-grams also
    /// starts at most `WINDOW - 1` bytes earlier. So an unmarked byte is a
    /// literal (one byte, one token), and a maximal marked run of `r` bytes
    /// is covered by literals and matches of at most `MAX_MATCH` (259)
    /// bytes at three bytes each, which costs at least
    /// `3·⌊r/259⌋ + min(r mod 259, 3)` bytes and `⌈r/259⌉` tokens. One
    /// flag byte leads every eight tokens. The bound is the unmarked bytes,
    /// plus the run costs, plus the flag bytes of the fewest tokens.
    ///
    /// The pass is cut short as soon as the bound is known to lie outside
    /// `decide`: once the bound so far reaches `decide.end` (every byte
    /// still to come adds to it), or once it would stay below
    /// `decide.start` even if every byte still to come were a literal.
    /// Returns the bound so far (the whole bound for `0..usize::MAX`). It
    /// fills this encoder's `head` and `prev` tables with its own chains
    /// and moves `base` past them: a later compress reads them as empty.
    fn screen(&mut self, input: &[u8], decide: Range<usize>) -> usize {
        let len = input.len();
        let (head, prev, base) = self.tables(len);
        let head = &mut head[..HASH_SIZE];
        let n = len as u32;
        let local = |p: u32| {
            let d = p.wrapping_sub(base);
            (d < n).then_some(d as usize)
        };
        let gram = |i: usize| u32::from_le_bytes(input[i..i + MIN_MATCH].try_into().unwrap());
        // The marked runs closed so far (their bytes, and what the bound
        // charges for them) and the open one, `start..end`: a repeated
        // 4-gram that starts at or before `end` extends it.
        let mut closed = Bound::default();
        let (mut start, mut end) = (0, 0);
        for j in 0..len.saturating_sub(MIN_MATCH - 1) {
            let v = gram(j);
            let h = hash(v);
            // Walk the bucket's chain, most recent first, until a position
            // within the window carries `v`. A walk longer than the
            // compressor's counts as repeated: an unproven byte stays
            // marked.
            let first = local(head[h]);
            let mut cand = first;
            let mut chain = 0;
            let repeated = loop {
                let Some(c) = cand else { break false };
                if j - c > WINDOW - 1 {
                    break false;
                }
                if gram(c) == v {
                    break true;
                }
                chain += 1;
                if chain == MAX_CHAIN {
                    break true;
                }
                // Within the window every link points strictly back (the
                // slot of `c` is rewritten only `WINDOW` bytes on).
                cand = local(prev[c % WINDOW]).filter(|&p| p < c);
            };
            // Each position links to the latest earlier one in its bucket
            // with another 4-gram: one repeating the bucket's latest 4-gram
            // takes over that one's link. So a walk skips a whole stretch
            // of equal 4-grams (a ReLU layer's zeros that share a bucket
            // with the probe) in one step.
            prev[j % WINDOW] = match first {
                Some(c) if repeated && chain == 0 => prev[c % WINDOW],
                _ => head[h],
            };
            head[h] = base + j as u32;
            if repeated {
                if j > end {
                    closed.add_run(end - start);
                    start = j;
                }
                end = j + MIN_MATCH;
            }
            // Every 64 bytes: is the bound decided? Bytes up to `j` are
            // final, and every byte still to come adds at most one byte and
            // one token.
            if j % 64 == 63 {
                let mut sofar = closed;
                sofar.add_run(end.min(j + 1) - start);
                sofar.add_literals(j + 1 - sofar.covered);
                let rest = len - 1 - j;
                let most = sofar.bytes + rest + (sofar.tokens + rest).div_ceil(8);
                if sofar.total() >= decide.end || most < decide.start {
                    return sofar.total();
                }
            }
        }
        closed.add_run(end - start);
        closed.add_literals(len - closed.covered);
        closed.total()
    }

    /// The match finder's tables, ready for an input of `len` bytes, and
    /// the offset its positions are stored at; `base` moves past them.
    /// `head` is filled on first use and whenever the offset positions of
    /// this input could reach the `NO_POS` sentinel. `prev` is only ever
    /// read at a slot this input wrote, so it just has to be long enough.
    fn tables(&mut self, len: usize) -> (&mut [u32], &mut [u32], u32) {
        match (self.base as usize).checked_add(len) {
            Some(end) if end < NO_POS as usize && !self.head.is_empty() => {}
            _ => {
                self.head.clear();
                self.head.resize(HASH_SIZE, NO_POS);
                self.base = 0;
            }
        }
        let ring = len.min(WINDOW);
        if self.prev.len() < ring {
            self.prev.resize(ring, NO_POS);
        }
        let base = self.base;
        self.base += len as u32;
        (&mut self.head[..], &mut self.prev[..], base)
    }
}

/// What [`Encoder::screen`] charges for the bytes it has priced.
#[derive(Clone, Copy, Default)]
struct Bound {
    /// Input bytes priced.
    covered: usize,
    /// Payload bytes and tokens charged for them.
    bytes: usize,
    tokens: usize,
}

impl Bound {
    /// A marked run of `r` bytes: literals and matches of at most
    /// `MAX_MATCH` bytes for three, at least `3·⌊r/259⌋ + min(r mod 259,
    /// 3)` bytes and `⌈r/259⌉` tokens.
    fn add_run(&mut self, r: usize) {
        self.covered += r;
        self.bytes += 3 * (r / MAX_MATCH) + (r % MAX_MATCH).min(3);
        self.tokens += r.div_ceil(MAX_MATCH);
    }

    /// `r` unmarked bytes: a literal each.
    fn add_literals(&mut self, r: usize) {
        self.covered += r;
        self.bytes += r;
        self.tokens += r;
    }

    /// The payload bytes plus a flag byte per eight tokens.
    fn total(&self) -> usize {
        self.bytes + self.tokens.div_ceil(8)
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
pub(crate) mod tests {
    use super::*;
    use mistique_rng::Rng;
    use mistique_testkit::Gen;

    /// One input: random bytes, zero-heavy f32 activations, periodic text,
    /// constant runs, or the XOR of two near-duplicate activation chunks. Its
    /// length is tiny (0–5), near a multiple of the 259-byte match limit,
    /// chunk-sized, or — one case in eight — past the 64 KiB window, so the
    /// encoder's `prev` ring wraps.
    pub(crate) fn shaped(g: &mut Gen) -> Vec<u8> {
        let len = match g.rng.range(0..8u32) {
            0 | 1 => g.rng.range(0..=5usize),
            2 | 3 => 259 * g.rng.range(1..=3usize) + g.rng.range(0..=8usize) - 4,
            4..=6 => g.len(0..4097),
            _ => (1 << 16) + g.rng.range(0..=4096usize),
        };
        let rng = &mut g.rng;
        let mut out = match rng.range(0..5u32) {
            0 => (0..len).map(|_| rng.range(0..=u8::MAX)).collect(),
            1 => activations(rng, len, 0.5),
            2 => {
                let period: Vec<u8> = (0..rng.range(1..=16usize))
                    .map(|_| rng.range(b'a'..=b'z'))
                    .collect();
                period.iter().cycle().take(len).copied().collect()
            }
            3 => {
                let mut runs = Vec::with_capacity(len);
                while runs.len() < len {
                    let byte = rng.range(0..=u8::MAX);
                    runs.extend(std::iter::repeat_n(byte, rng.range(1..=600usize)));
                }
                runs
            }
            _ => {
                let a = activations(rng, len, 0.3);
                let mut b = a.clone();
                for x in b.iter_mut() {
                    if rng.chance(0.02) {
                        *x ^= rng.range(1..=u8::MAX);
                    }
                }
                a.iter().zip(&b).map(|(x, y)| x ^ y).collect()
            }
        };
        out.truncate(len);
        out
    }

    /// `len` bytes of little-endian f32 ReLU outputs, each zero with
    /// probability `zeros`.
    fn activations(rng: &mut Rng, len: usize, zeros: f64) -> Vec<u8> {
        (0..len.div_ceil(4))
            .flat_map(|_| {
                let v = if rng.chance(zeros) {
                    0.0f32
                } else {
                    rng.range(0.0..4.0f32)
                };
                v.to_le_bytes()
            })
            .take(len)
            .collect()
    }

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

    /// The bound of [`Encoder::screen`] from its definition: mark the
    /// bytes of every 4-gram whose last earlier occurrence lies within
    /// `WINDOW - 1` bytes, then price each maximal run of marks on its own.
    fn reference_bound(input: &[u8]) -> usize {
        let mut last = std::collections::HashMap::new();
        let mut marked = vec![false; input.len()];
        for j in 0..input.len().saturating_sub(MIN_MATCH - 1) {
            let gram = &input[j..j + MIN_MATCH];
            if last.insert(gram, j).is_some_and(|c| j - c < WINDOW) {
                marked[j..j + MIN_MATCH].fill(true);
            }
        }
        let (mut bytes, mut tokens) = (0, 0);
        for run in marked.chunk_by(|a, b| a == b) {
            let r = run.len();
            if run[0] {
                bytes += 3 * (r / MAX_MATCH) + (r % MAX_MATCH).min(3);
                tokens += r.div_ceil(MAX_MATCH);
            } else {
                bytes += r;
                tokens += r;
            }
        }
        bytes + tokens.div_ceil(8)
    }

    #[test]
    fn screen_bound_is_the_reference_bound_and_never_beats_the_encoder() {
        let mut enc = Encoder::default();
        mistique_testkit::cases(96, 0xb0d, |g| {
            let input = shaped(g);
            let bound = enc.screen(&input, 0..usize::MAX);
            assert_eq!(bound, reference_bound(&input), "{} B", input.len());
            // The screen left its positions in the tables: the encoder's
            // output must not see them.
            let out = enc.compress(&input);
            assert_eq!(out, reference_compress(&input), "{} B", input.len());
            assert!(
                bound <= out.len(),
                "bound {bound} > {} ({} B)",
                out.len(),
                input.len()
            );
            for budget in [0, bound, bound + 1, out.len(), out.len() + 1, usize::MAX] {
                let expect = (out.len() < budget).then(|| out.clone());
                assert_eq!(
                    enc.compress_within(&input, budget),
                    expect,
                    "budget {budget}"
                );
            }
        });
    }

    #[test]
    fn periodic_text_meets_its_bound() {
        // Ten literals, then nine full matches and one of two bytes that
        // still costs a three-byte token: 10 + 27 + 3 bytes, 20 tokens.
        let input: Vec<u8> = b"0123456789".iter().cycle().take(2343).copied().collect();
        assert_eq!(compress(&input).len(), 42);
        assert_eq!(Encoder::default().screen(&input, 0..usize::MAX), 42);
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
