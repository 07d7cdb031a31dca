//! Secondary indexes over stored intermediates: per-RowBlock **zone maps**
//! (min/max/count per column, so threshold scans skip blocks that cannot
//! match) and per-column **max-activation lists** (the top-m rows by value,
//! DeepEverest-style), built from the *decoded* values a scan would see.
//!
//! The contract is bit-identity with the scan paths in `mistique-core`:
//!
//! * `topk` sorts with `b.total_cmp(&a)` (descending total order, stable, so
//!   ties keep ascending row id) and truncates to `k`. A max-activation list
//!   stores exactly the first `min(m, n)` elements of that sequence, so any
//!   `k ≤ len` is served verbatim.
//! * `select_where_gt` keeps rows with `v > t`, which is `false` for NaN.
//!   A block may therefore be skipped iff its maximum over non-NaN values is
//!   `≤ t` — the zone-map pruning rule. Skipped blocks provably contain no
//!   matches; kept blocks are re-scanned, so the answer is identical.
//!
//! Values are persisted as IEEE-754 bit patterns (`u64`), not decimal
//! floats: text floats cannot represent NaN payloads, and bit patterns
//! round-trip `-0.0` and NaN exactly — which the total-order contract
//! requires. The on-disk format is a dependency-free line-oriented text
//! layout (see [`IntermediateIndex::to_bytes`]); any malformed file is
//! rejected on load and the engine degrades to the scan path.

use std::collections::BTreeMap;

/// Bump when the on-disk layout changes; loaders drop (never trust) files
/// with any other version.
pub const INDEX_FORMAT_VERSION: u32 = 1;

/// Default max-activation list length (`top_m`). Queries with `k` beyond the
/// list fall back to a scan, so this bounds index size, not correctness.
pub const DEFAULT_TOP_M: usize = 32;

/// Zone-map entry of one RowBlock of one column: min/max over the block's
/// non-NaN decoded values (`+inf`/`-inf` when the block is all-NaN or
/// empty), plus the row count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockStats {
    /// Bit pattern of the minimum non-NaN value (`+inf` if none).
    pub min_bits: u64,
    /// Bit pattern of the maximum non-NaN value (`-inf` if none).
    pub max_bits: u64,
    /// Rows in the block.
    pub count: u32,
}

impl BlockStats {
    /// Stats of one block's decoded values.
    pub fn from_values(values: &[f64]) -> BlockStats {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            if v.is_nan() {
                continue;
            }
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        BlockStats {
            min_bits: min.to_bits(),
            max_bits: max.to_bits(),
            count: values.len() as u32,
        }
    }

    /// Minimum non-NaN value (`+inf` when the block has none).
    pub fn min(&self) -> f64 {
        f64::from_bits(self.min_bits)
    }

    /// Maximum non-NaN value (`-inf` when the block has none).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits)
    }

    /// Whether the block can contain a row with `v > threshold`. NaN rows
    /// never match `>`, so `max ≤ threshold` (or a NaN threshold) makes the
    /// block safe to skip.
    pub fn may_match_gt(&self, threshold: f64) -> bool {
        self.max() > threshold
    }
}

/// One max-activation entry: a row id and the bit pattern of its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopEntry {
    /// Global row id.
    pub row: u64,
    /// Bit pattern of the decoded value.
    pub bits: u64,
}

impl TopEntry {
    /// The decoded value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits)
    }
}

/// The exact order `topk` produces: descending `total_cmp` on the value,
/// ties (identical bit patterns) broken by ascending row — which is what a
/// stable descending sort over a row-ordered scan yields.
fn topk_order(a: &TopEntry, b: &TopEntry) -> std::cmp::Ordering {
    b.value()
        .total_cmp(&a.value())
        .then_with(|| a.row.cmp(&b.row))
}

/// Index of one column: zone maps plus the max-activation list.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnIndex {
    /// Per-RowBlock stats, indexed by block number.
    pub zones: Vec<BlockStats>,
    /// The first `min(m, n_rows)` entries of the column's topk sequence.
    pub top: Vec<TopEntry>,
}

impl ColumnIndex {
    /// Block numbers that may contain a `v > threshold` match, ascending,
    /// plus the total block count.
    pub fn blocks_passing_gt(&self, threshold: f64) -> (Vec<usize>, usize) {
        let keep = self
            .zones
            .iter()
            .enumerate()
            .filter(|(_, z)| z.may_match_gt(threshold))
            .map(|(b, _)| b)
            .collect();
        (keep, self.zones.len())
    }
}

/// The persisted index of one intermediate. `scheme`, `row_block_size`, and
/// `n_rows` pin the decoded representation the index was built over; a
/// mismatch with the live metadata means the file is stale and must be
/// ignored (the scan path is always correct).
#[derive(Clone, Debug, PartialEq)]
pub struct IntermediateIndex {
    /// On-disk layout version ([`INDEX_FORMAT_VERSION`]).
    pub format_version: u32,
    /// The intermediate this index covers.
    pub intermediate: String,
    /// Quantization scheme name the values were decoded under (e.g. `FULL`,
    /// `POOL_QT(2)+LP_QT`). Demotion changes decoded values, so a scheme
    /// mismatch invalidates the index.
    pub scheme: String,
    /// RowBlock size the zone maps are aligned to.
    pub row_block_size: usize,
    /// Rows covered.
    pub n_rows: usize,
    /// Monotone rebuild counter; feeds the query-cache key so a drop or
    /// rebuild can never serve a stale cached result as current.
    pub version: u64,
    /// Per-column indexes.
    pub columns: BTreeMap<String, ColumnIndex>,
}

impl IntermediateIndex {
    /// Whether this index still describes the live intermediate.
    pub fn matches(&self, scheme: &str, row_block_size: usize, n_rows: usize) -> bool {
        self.format_version == INDEX_FORMAT_VERSION
            && self.scheme == scheme
            && self.row_block_size == row_block_size
            && self.n_rows == n_rows
    }

    /// Serve `topk(column, k)` from the max-activation list, or `None` when
    /// the list cannot prove it holds the full answer (`k` beyond the list
    /// on a column longer than the list).
    pub fn topk(&self, column: &str, k: usize) -> Option<Vec<(usize, f64)>> {
        let col = self.columns.get(column)?;
        let complete = col.top.len() == self.n_rows;
        if k > col.top.len() && !complete {
            return None;
        }
        Some(
            col.top
                .iter()
                .take(k)
                .map(|e| (e.row as usize, e.value()))
                .collect(),
        )
    }

    /// Zone-map pruning for `select_where_gt(column, threshold)`: the block
    /// numbers that may match, plus the total block count. `None` when the
    /// column is not indexed.
    pub fn blocks_passing_gt(&self, column: &str, threshold: f64) -> Option<(Vec<usize>, usize)> {
        self.columns
            .get(column)
            .map(|c| c.blocks_passing_gt(threshold))
    }

    /// Serialize for `write_atomic`-style persistence. The layout is a
    /// dependency-free line-oriented text format:
    ///
    /// ```text
    /// MISTIQUEIDX <format_version>
    /// version <u64>
    /// row_block_size <usize>
    /// n_rows <usize>
    /// intermediate <rest of line>
    /// scheme <rest of line>
    /// columns <count>
    /// col <n_zones> <n_top> <name…>        (per column)
    /// z <min_bits> <max_bits> <count>      (n_zones lines)
    /// t <row> <bits>                       (n_top lines)
    /// ```
    ///
    /// f64 values travel as `u64` bit patterns, so NaN payloads, ±inf and
    /// `-0.0` round-trip exactly. Names containing newlines cannot be
    /// represented and are an error.
    pub fn to_bytes(&self) -> Result<Vec<u8>, String> {
        use std::fmt::Write;
        let no_newlines = |what: &str, s: &str| -> Result<(), String> {
            if s.contains(['\n', '\r']) {
                Err(format!("index serialize: {what} contains a newline"))
            } else {
                Ok(())
            }
        };
        no_newlines("intermediate id", &self.intermediate)?;
        no_newlines("scheme", &self.scheme)?;
        let mut s = String::new();
        let _ = writeln!(s, "MISTIQUEIDX {}", self.format_version);
        let _ = writeln!(s, "version {}", self.version);
        let _ = writeln!(s, "row_block_size {}", self.row_block_size);
        let _ = writeln!(s, "n_rows {}", self.n_rows);
        let _ = writeln!(s, "intermediate {}", self.intermediate);
        let _ = writeln!(s, "scheme {}", self.scheme);
        let _ = writeln!(s, "columns {}", self.columns.len());
        for (name, col) in &self.columns {
            no_newlines("column name", name)?;
            let _ = writeln!(s, "col {} {} {}", col.zones.len(), col.top.len(), name);
            for z in &col.zones {
                let _ = writeln!(s, "z {} {} {}", z.min_bits, z.max_bits, z.count);
            }
            for t in &col.top {
                let _ = writeln!(s, "t {} {}", t.row, t.bits);
            }
        }
        Ok(s.into_bytes())
    }

    /// A serialized index as [`IntermediateIndex::to_bytes`] would write it
    /// under another `intermediate` id and `version`: the `version` and
    /// `intermediate` header lines are rewritten and every other byte is
    /// copied, nothing past the header parsed. An intermediate bound to
    /// another's chunks holds its values, so its index is written this way.
    pub fn reissue(bytes: &[u8], intermediate: &str, version: u64) -> Result<Vec<u8>, String> {
        if intermediate.contains(['\n', '\r']) {
            return Err("index reissue: intermediate id contains a newline".to_string());
        }
        let mut rest = bytes;
        let mut line = |key: &str| -> Result<&[u8], String> {
            let end = rest
                .iter()
                .position(|&b| b == b'\n')
                .ok_or_else(|| format!("index reissue: missing {key}"))?;
            let (head, tail) = rest.split_at(end + 1);
            rest = tail;
            if head.starts_with(key.as_bytes()) {
                Ok(head)
            } else {
                Err(format!("index reissue: expected {key}"))
            }
        };
        let magic = line("MISTIQUEIDX ")?;
        line("version ")?;
        let geometry = [line("row_block_size ")?, line("n_rows ")?];
        line("intermediate ")?;
        let mut out = Vec::with_capacity(bytes.len() + intermediate.len());
        out.extend_from_slice(magic);
        out.extend_from_slice(format!("version {version}\n").as_bytes());
        out.extend_from_slice(&geometry.concat());
        out.extend_from_slice(format!("intermediate {intermediate}\n").as_bytes());
        out.extend_from_slice(rest);
        Ok(out)
    }

    /// Parse a persisted index. Any malformed or version-mismatched file is
    /// an error — callers degrade to the scan path, never guess.
    pub fn from_bytes(bytes: &[u8]) -> Result<IntermediateIndex, String> {
        fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
            s.parse()
                .map_err(|_| format!("index parse: bad {what} {s:?}"))
        }
        fn field<'a>(
            lines: &mut std::str::Lines<'a>,
            key: &'static str,
        ) -> Result<&'a str, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("index parse: missing {key}"))?;
            line.strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| format!("index parse: expected {key}, got {line:?}"))
        }
        let text = std::str::from_utf8(bytes).map_err(|_| "index parse: not UTF-8".to_string())?;
        // Every line — including the last — is newline-terminated, so a
        // truncated tail (even one that happens to parse as numbers) is
        // always detectable.
        if !text.ends_with('\n') {
            return Err("index parse: truncated file".to_string());
        }
        let mut lines = text.lines();
        let header = lines.next().ok_or("index parse: empty file")?;
        let format_version: u32 = num(
            header
                .strip_prefix("MISTIQUEIDX ")
                .ok_or_else(|| format!("index parse: bad header {header:?}"))?,
            "format version",
        )?;
        if format_version != INDEX_FORMAT_VERSION {
            return Err(format!(
                "index format v{format_version} (supported: v{INDEX_FORMAT_VERSION})"
            ));
        }
        let version: u64 = num(field(&mut lines, "version")?, "version")?;
        let row_block_size: usize = num(field(&mut lines, "row_block_size")?, "row_block_size")?;
        let n_rows: usize = num(field(&mut lines, "n_rows")?, "n_rows")?;
        let intermediate = field(&mut lines, "intermediate")?.to_string();
        let scheme = field(&mut lines, "scheme")?.to_string();
        let n_cols: usize = num(field(&mut lines, "columns")?, "column count")?;
        let mut columns = BTreeMap::new();
        for _ in 0..n_cols {
            let head = field(&mut lines, "col")?;
            let mut parts = head.splitn(3, ' ');
            let n_zones: usize = num(parts.next().unwrap_or(""), "zone count")?;
            let n_top: usize = num(parts.next().unwrap_or(""), "top count")?;
            let name = parts
                .next()
                .ok_or_else(|| format!("index parse: col line missing name: {head:?}"))?
                .to_string();
            let mut zones = Vec::new();
            for _ in 0..n_zones {
                let z = field(&mut lines, "z")?;
                let mut p = z.splitn(3, ' ');
                zones.push(BlockStats {
                    min_bits: num(p.next().unwrap_or(""), "zone min")?,
                    max_bits: num(p.next().unwrap_or(""), "zone max")?,
                    count: num(p.next().unwrap_or(""), "zone count")?,
                });
            }
            let mut top = Vec::new();
            for _ in 0..n_top {
                let t = field(&mut lines, "t")?;
                let mut p = t.splitn(2, ' ');
                top.push(TopEntry {
                    row: num(p.next().unwrap_or(""), "top row")?,
                    bits: num(p.next().unwrap_or(""), "top bits")?,
                });
            }
            if columns
                .insert(name.clone(), ColumnIndex { zones, top })
                .is_some()
            {
                return Err(format!("index parse: duplicate column {name:?}"));
            }
        }
        if lines.next().is_some() {
            return Err("index parse: trailing data".to_string());
        }
        Ok(IntermediateIndex {
            format_version,
            intermediate,
            scheme,
            row_block_size,
            n_rows,
            version,
            columns,
        })
    }
}

/// Per-column accumulator inside [`IndexBuilder`].
#[derive(Clone, Debug, Default)]
struct ColumnBuilder {
    zones: Vec<BlockStats>,
    top: Vec<TopEntry>,
}

/// Incremental index builder: feed each RowBlock's decoded values as it is
/// logged, then [`IndexBuilder::finish`]. Blocks may arrive in any order but
/// each must be observed exactly once.
#[derive(Clone, Debug)]
pub struct IndexBuilder {
    top_m: usize,
    row_block_size: usize,
    columns: BTreeMap<String, ColumnBuilder>,
}

impl IndexBuilder {
    /// A builder keeping `top_m` max-activation entries per column over
    /// RowBlocks of `row_block_size` rows.
    pub fn new(top_m: usize, row_block_size: usize) -> IndexBuilder {
        assert!(row_block_size > 0, "row block size must be positive");
        IndexBuilder {
            top_m,
            row_block_size,
            columns: BTreeMap::new(),
        }
    }

    /// Observe block `block` of `column`: `values` are the *decoded* values
    /// a scan would see, in row order.
    pub fn observe_block(&mut self, column: &str, block: usize, values: &[f64]) {
        if !self.columns.contains_key(column) {
            self.columns
                .insert(column.to_string(), ColumnBuilder::default());
        }
        let col = self.columns.get_mut(column).expect("column inserted above");
        if col.zones.len() <= block {
            col.zones.resize(
                block + 1,
                BlockStats {
                    min_bits: f64::INFINITY.to_bits(),
                    max_bits: f64::NEG_INFINITY.to_bits(),
                    count: 0,
                },
            );
        }
        col.zones[block] = BlockStats::from_values(values);
        let base = (block * self.row_block_size) as u64;
        col.top
            .extend(values.iter().enumerate().map(|(i, &v)| TopEntry {
                row: base + i as u64,
                bits: v.to_bits(),
            }));
        // `topk_order` is a strict total order (rows are unique), so
        // selecting the first `top_m` and sorting only those gives the list
        // a full sort would.
        if col.top.len() > self.top_m {
            col.top.select_nth_unstable_by(self.top_m, topk_order);
            col.top.truncate(self.top_m);
        }
        col.top.sort_unstable_by(topk_order);
    }

    /// Finalize into a persistable [`IntermediateIndex`].
    pub fn finish(
        self,
        intermediate: &str,
        scheme: &str,
        n_rows: usize,
        version: u64,
    ) -> IntermediateIndex {
        IntermediateIndex {
            format_version: INDEX_FORMAT_VERSION,
            intermediate: intermediate.to_string(),
            scheme: scheme.to_string(),
            row_block_size: self.row_block_size,
            n_rows,
            version,
            columns: self
                .columns
                .into_iter()
                .map(|(name, c)| {
                    (
                        name,
                        ColumnIndex {
                            zones: c.zones,
                            top: c.top,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Reference `topk` (the scan the core executes), for equivalence tests.
pub fn reference_topk(values: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut pairs: Vec<(usize, f64)> = values.iter().copied().enumerate().collect();
    pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
    pairs.truncate(k);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(values: &[f64], block: usize, m: usize) -> IntermediateIndex {
        let mut b = IndexBuilder::new(m, block);
        for (i, chunk) in values.chunks(block).enumerate() {
            b.observe_block("c", i, chunk);
        }
        b.finish("int", "FULL", values.len(), 1)
    }

    #[test]
    fn a_reissued_index_is_the_index_serialized_under_its_new_name() {
        let vals: Vec<f64> = (0..40).map(|i| ((i * 7) % 13) as f64).collect();
        let idx = build(&vals, 8, 5);
        let moved = IntermediateIndex {
            intermediate: "other.layer3".to_string(),
            version: 12,
            ..idx.clone()
        };
        let bytes = idx.to_bytes().unwrap();
        let reissued = IntermediateIndex::reissue(&bytes, "other.layer3", 12).unwrap();
        assert_eq!(reissued, moved.to_bytes().unwrap());
        assert!(IntermediateIndex::reissue(&bytes, "a\nb", 1).is_err());
        assert!(IntermediateIndex::reissue(&bytes[..20], "x", 1).is_err());
        assert!(IntermediateIndex::reissue(b"garbage\n", "x", 1).is_err());
    }

    #[test]
    fn top_list_matches_reference_order_with_ties_and_specials() {
        let vals = [
            1.0,
            f64::NAN,
            3.5,
            3.5,
            f64::INFINITY,
            -0.0,
            0.0,
            f64::NEG_INFINITY,
            3.5,
            -f64::NAN,
        ];
        let idx = build(&vals, 3, vals.len());
        for k in 0..=vals.len() {
            let served: Vec<(usize, u64)> = idx
                .topk("c", k)
                .unwrap()
                .into_iter()
                .map(|(r, v)| (r, v.to_bits()))
                .collect();
            let reference: Vec<(usize, u64)> = reference_topk(&vals, k)
                .into_iter()
                .map(|(r, v)| (r, v.to_bits()))
                .collect();
            assert_eq!(served, reference, "k={k}");
        }
        // Positive NaN sorts above +inf under descending total_cmp; the
        // negative NaN sorts last. -0.0 sorts below +0.0.
        let top = idx.topk("c", vals.len()).unwrap();
        assert!(top[0].1.is_nan());
        assert_eq!(top[1].1, f64::INFINITY);
        assert!(top[vals.len() - 1].1.is_nan());
    }

    #[test]
    fn top_list_matches_reference_over_large_blocks() {
        // Few distinct values, so ties are long; NaNs of both signs and both
        // zeros among them.
        let pool = [f64::NAN, -f64::NAN, 0.0, -0.0, 1.5, -2.0, f64::INFINITY];
        let mut rng = mistique_rng::Rng::seed(7);
        let vals: Vec<f64> = (0..4_500).map(|_| pool[rng.range(0..pool.len())]).collect();
        let bits = |list: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
            list.into_iter().map(|(r, v)| (r, v.to_bits())).collect()
        };
        for m in [0, 1, 7, 999, 1_000, 2_345, 4_500, 6_000] {
            let idx = build(&vals, 1_000, m);
            let k = m.min(vals.len());
            let served = idx.topk("c", k).unwrap();
            assert_eq!(bits(served), bits(reference_topk(&vals, k)), "m={m}");
        }
    }

    #[test]
    fn short_list_serves_only_provable_k() {
        let vals: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let idx = build(&vals, 4, 3);
        assert_eq!(idx.topk("c", 3).unwrap(), reference_topk(&vals, 3));
        assert_eq!(idx.topk("c", 0).unwrap(), vec![]);
        assert!(idx.topk("c", 4).is_none(), "k beyond m needs a scan");
        assert!(idx.topk("missing", 1).is_none());
        // A complete list (m ≥ n) serves any k, truncating like the scan.
        let idx = build(&vals, 4, 64);
        assert_eq!(idx.topk("c", 99).unwrap(), reference_topk(&vals, 99));
    }

    #[test]
    fn zone_pruning_is_sound_and_effective() {
        let vals = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0, -5.0, f64::NAN, 0.5];
        let idx = build(&vals, 3, 4);
        let (keep, total) = idx.blocks_passing_gt("c", 5.0).unwrap();
        assert_eq!(total, 3);
        assert_eq!(keep, vec![1], "only the middle block can match > 5");
        // Every matching row lives in a kept block.
        for (row, v) in vals.iter().enumerate() {
            if *v > 5.0 {
                assert!(keep.contains(&(row / 3)));
            }
        }
        // NaN threshold matches nothing; every block is skippable.
        let (keep, _) = idx.blocks_passing_gt("c", f64::NAN).unwrap();
        assert!(keep.is_empty());
        // -inf threshold keeps blocks with any non-NaN value above -inf.
        let (keep, _) = idx.blocks_passing_gt("c", f64::NEG_INFINITY).unwrap();
        assert_eq!(keep, vec![0, 1, 2]);
    }

    #[test]
    fn all_nan_block_is_always_skipped() {
        let vals = [f64::NAN, f64::NAN, 1.0, 2.0];
        let idx = build(&vals, 2, 4);
        let (keep, _) = idx.blocks_passing_gt("c", f64::NEG_INFINITY).unwrap();
        assert_eq!(keep, vec![1]);
        let z = &idx.columns["c"].zones[0];
        assert_eq!(z.min(), f64::INFINITY);
        assert_eq!(z.max(), f64::NEG_INFINITY);
        assert_eq!(z.count, 2);
    }

    #[test]
    fn round_trip_is_exact_including_nan_payloads() {
        let vals = [1.0, f64::NAN, -0.0, f64::INFINITY, -3.25];
        let idx = build(&vals, 2, 8);
        let bytes = idx.to_bytes().unwrap();
        let back = IntermediateIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, idx);
        assert!(back.matches("FULL", 2, vals.len()));
        assert!(!back.matches("LP_QT", 2, vals.len()));
        assert!(!back.matches("FULL", 3, vals.len()));
        assert!(!back.matches("FULL", 2, vals.len() + 1));
    }

    #[test]
    fn garbage_and_version_skew_are_rejected() {
        assert!(IntermediateIndex::from_bytes(b"\xfe\xfegarbage").is_err());
        assert!(IntermediateIndex::from_bytes(b"{}").is_err());
        assert!(IntermediateIndex::from_bytes(b"").is_err());
        let mut idx = build(&[1.0], 1, 1);
        idx.format_version = INDEX_FORMAT_VERSION + 1;
        let bytes = idx.to_bytes().unwrap();
        assert!(IntermediateIndex::from_bytes(&bytes).is_err());
        // Truncation anywhere is rejected, never partially parsed.
        let good = build(&[1.0, 2.0, 3.0], 2, 2).to_bytes().unwrap();
        for cut in 1..good.len() {
            assert!(
                IntermediateIndex::from_bytes(&good[..cut]).is_err(),
                "cut={cut}"
            );
        }
        // Trailing garbage after a complete index is rejected too.
        let mut padded = good.clone();
        padded.extend_from_slice(b"z 0 0 0\n");
        assert!(IntermediateIndex::from_bytes(&padded).is_err());
    }

    #[test]
    fn out_of_order_blocks_build_the_same_index() {
        let vals: Vec<f64> = (0..20).map(|i| (i as f64 * 7.3) % 11.0).collect();
        let in_order = build(&vals, 5, 6);
        let mut b = IndexBuilder::new(6, 5);
        for i in (0..4).rev() {
            b.observe_block("c", i, &vals[i * 5..(i + 1) * 5]);
        }
        assert_eq!(b.finish("int", "FULL", vals.len(), 1), in_order);
    }
}
