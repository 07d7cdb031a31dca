//! ColumnChunks: the physical unit of storage.
//!
//! A `ColumnChunk` is the cells of one column within one RowBlock. Chunks have
//! a canonical little-endian byte serialization used for (a) content hashing
//! in exact de-duplication, (b) MinHash signatures in approximate
//! de-duplication, and (c) compression when a Partition is written out.

use crate::column::{ColumnData, DType};

/// Errors produced while decoding a serialized chunk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkError {
    /// The byte buffer was shorter than the header or payload requires.
    Truncated,
    /// The dtype tag is unknown.
    BadDType(u8),
    /// A categorical dictionary entry was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::Truncated => write!(f, "truncated chunk bytes"),
            ChunkError::BadDType(t) => write!(f, "unknown dtype tag {t}"),
            ChunkError::BadUtf8 => write!(f, "invalid UTF-8 in dictionary"),
        }
    }
}

impl std::error::Error for ChunkError {}

/// The cells of one column within one RowBlock.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnChunk {
    /// The cell data.
    pub data: ColumnData,
}

fn dtype_tag(d: DType) -> u8 {
    match d {
        DType::F32 => 0,
        DType::F16 => 6,
        DType::F64 => 1,
        DType::I64 => 2,
        DType::U8 => 3,
        DType::Bool => 4,
        DType::Cat => 5,
    }
}

impl ColumnChunk {
    /// Wrap column data as a chunk.
    pub fn new(data: ColumnData) -> Self {
        ColumnChunk { data }
    }

    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Uncompressed in-memory size in bytes.
    pub fn nbytes(&self) -> usize {
        self.data.nbytes()
    }

    /// The length of [`ColumnChunk::to_bytes`] for a chunk of `rows` values
    /// of a fixed-width `dtype`, without building it. `None` for
    /// categorical chunks, whose dictionary makes the length data-dependent.
    pub fn serialized_len(dtype: DType, rows: usize) -> Option<u64> {
        (dtype != DType::Cat).then(|| 5 + (rows * dtype.value_width()) as u64)
    }

    /// Canonical serialization: `[dtype: u8][n_rows: u32 LE][payload]`.
    ///
    /// Payloads are little-endian fixed-width values; categorical chunks
    /// store codes then `[dict_len: u32][(len: u32, utf8 bytes)...]`.
    /// Two chunks are *identical* for exact dedup iff these bytes match.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.data.len();
        let mut out = Vec::with_capacity(self.nbytes() + 16);
        out.push(dtype_tag(self.data.dtype()));
        out.extend_from_slice(&(n as u32).to_le_bytes());
        match &self.data {
            ColumnData::F32(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::F64(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::I64(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::F16(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::U8(v) => out.extend_from_slice(v),
            ColumnData::Bool(v) => out.extend(v.iter().map(|&b| b as u8)),
            ColumnData::Cat { codes, dict } => {
                for c in codes {
                    out.extend_from_slice(&c.to_le_bytes());
                }
                out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for s in dict {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
        out
    }

    /// Decode a chunk serialized by [`ColumnChunk::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ColumnChunk, ChunkError> {
        Ok(ColumnChunk {
            data: ChunkView::parse(bytes)?.to_data(),
        })
    }
}

/// A chunk serialized by [`ColumnChunk::to_bytes`], checked as
/// [`ColumnChunk::from_bytes`] checks it, with its cells left where they
/// are: a reader converts them straight into its own column
/// ([`ChunkView::extend_f64`]) instead of building a [`ColumnData`] first.
#[derive(Clone, Copy, Debug)]
pub struct ChunkView<'a> {
    dtype: DType,
    rows: usize,
    /// The cells, `rows * dtype.value_width()` bytes (a categorical chunk's
    /// codes).
    cells: &'a [u8],
    /// A categorical chunk's dictionary entries, checked; empty otherwise.
    dict: &'a [u8],
    dict_len: usize,
}

impl<'a> ChunkView<'a> {
    /// Parse a serialized chunk's header and check its body. Fails exactly
    /// where [`ColumnChunk::from_bytes`] fails; bytes past the cells of a
    /// fixed-width chunk are ignored, as there.
    pub fn parse(bytes: &'a [u8]) -> Result<ChunkView<'a>, ChunkError> {
        if bytes.len() < 5 {
            return Err(ChunkError::Truncated);
        }
        let tag = bytes[0];
        let rows = u32::from_le_bytes(bytes[1..5].try_into().unwrap()) as usize;
        let body = &bytes[5..];
        let dtype = match tag {
            0 => DType::F32,
            1 => DType::F64,
            2 => DType::I64,
            3 => DType::U8,
            4 => DType::Bool,
            5 => DType::Cat,
            6 => DType::F16,
            t => return Err(ChunkError::BadDType(t)),
        };
        let end = rows * dtype.value_width();
        let cells = body.get(..end).ok_or(ChunkError::Truncated)?;
        let (dict, dict_len) = match dtype {
            DType::Cat => check_dict(body, end)?,
            _ => (&body[..0], 0),
        };
        Ok(ChunkView {
            dtype,
            rows,
            cells,
            dict,
            dict_len,
        })
    }

    /// The cells' type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The cells' little-endian bytes, `value_width` per row.
    pub fn cell_bytes(&self) -> &'a [u8] {
        self.cells
    }

    /// Append the [`ColumnData::to_f64`] value of each cell to `out`.
    pub fn extend_f64(&self, out: &mut Vec<f64>) {
        let c = self.cells;
        match self.dtype {
            DType::F32 => extend(c, out, |b| f32::from_le_bytes(b) as f64),
            DType::F16 => extend(c, out, |b| {
                mistique_quantize::f16(u16::from_le_bytes(b)).to_f32() as f64
            }),
            DType::F64 => extend(c, out, f64::from_le_bytes),
            DType::I64 => extend(c, out, |b| i64::from_le_bytes(b) as f64),
            DType::U8 => extend(c, out, |[b]: [u8; 1]| b as f64),
            DType::Bool => extend(c, out, |[b]: [u8; 1]| if b != 0 { 1.0 } else { 0.0 }),
            DType::Cat => extend(c, out, |b| u32::from_le_bytes(b) as f64),
        }
    }

    /// The chunk as [`ColumnData`]: what [`ColumnChunk::from_bytes`] holds.
    pub fn to_data(&self) -> ColumnData {
        fn cells<const W: usize, T>(c: &[u8], f: impl Fn([u8; W]) -> T) -> Vec<T> {
            c.chunks_exact(W)
                .map(|b| f(b.try_into().expect("W-byte cell")))
                .collect()
        }
        let c = self.cells;
        match self.dtype {
            DType::F32 => ColumnData::F32(cells(c, f32::from_le_bytes)),
            DType::F16 => ColumnData::F16(cells(c, u16::from_le_bytes)),
            DType::F64 => ColumnData::F64(cells(c, f64::from_le_bytes)),
            DType::I64 => ColumnData::I64(cells(c, i64::from_le_bytes)),
            DType::U8 => ColumnData::U8(c.to_vec()),
            DType::Bool => ColumnData::Bool(c.iter().map(|&b| b != 0).collect()),
            DType::Cat => {
                let mut dict = Vec::with_capacity(self.dict_len);
                let mut pos = 0;
                for _ in 0..self.dict_len {
                    let len = u32::from_le_bytes(self.dict[pos..pos + 4].try_into().unwrap());
                    let end = pos + 4 + len as usize;
                    let s = std::str::from_utf8(&self.dict[pos + 4..end]).expect("checked");
                    dict.push(s.to_string());
                    pos = end;
                }
                ColumnData::Cat {
                    codes: cells(c, u32::from_le_bytes),
                    dict,
                }
            }
        }
    }
}

/// Append `f` of each `W`-byte cell of `cells` to `out`, in order.
fn extend<const W: usize>(cells: &[u8], out: &mut Vec<f64>, f: impl Fn([u8; W]) -> f64) {
    let cells = cells.chunks_exact(W);
    out.extend(cells.map(|b| f(b.try_into().expect("W-byte cell"))));
}

/// Check a categorical chunk's dictionary, which follows its `codes_end`
/// bytes of codes in `body`: `[dict_len: u32][(len: u32, utf8 bytes)...]`.
/// Returns the entries' bytes and their count.
fn check_dict(body: &[u8], codes_end: usize) -> Result<(&[u8], usize), ChunkError> {
    let mut pos = codes_end;
    let take4 = |pos: &mut usize| -> Result<u32, ChunkError> {
        let end = *pos + 4;
        if end > body.len() {
            return Err(ChunkError::Truncated);
        }
        let v = u32::from_le_bytes(body[*pos..end].try_into().unwrap());
        *pos = end;
        Ok(v)
    };
    let dict_len = take4(&mut pos)? as usize;
    if dict_len > body.len() {
        return Err(ChunkError::Truncated);
    }
    let start = pos;
    for _ in 0..dict_len {
        let slen = take4(&mut pos)? as usize;
        let end = pos + slen;
        if end > body.len() {
            return Err(ChunkError::Truncated);
        }
        std::str::from_utf8(&body[pos..end]).map_err(|_| ChunkError::BadUtf8)?;
        pos = end;
    }
    Ok((&body[start..pos], dict_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: ColumnData) {
        let chunk = ColumnChunk::new(data);
        let bytes = chunk.to_bytes();
        let back = ColumnChunk::from_bytes(&bytes).unwrap();
        assert_eq!(back, chunk);
    }

    #[test]
    fn serialized_len_is_the_length_of_the_bytes() {
        for data in [
            ColumnData::F32(vec![1.5; 7]),
            ColumnData::F16(vec![3; 7]),
            ColumnData::F64(vec![2.0; 7]),
            ColumnData::I64(vec![-4; 7]),
            ColumnData::U8(vec![9; 7]),
            ColumnData::Bool(vec![true; 7]),
        ] {
            let len = ColumnChunk::new(data.clone()).to_bytes().len() as u64;
            assert_eq!(ColumnChunk::serialized_len(data.dtype(), 7), Some(len));
        }
        assert_eq!(ColumnChunk::serialized_len(DType::Cat, 7), None);
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(ColumnData::F32(vec![1.5, -2.25, 0.0, f32::MAX]));
        roundtrip(ColumnData::F64(vec![1e300, -0.0, 3.125]));
        roundtrip(ColumnData::I64(vec![i64::MIN, 0, i64::MAX]));
        roundtrip(ColumnData::U8(vec![0, 255, 7]));
        roundtrip(ColumnData::Bool(vec![true, false, true]));
        roundtrip(ColumnData::cat_from_strings(&["a", "bb", "a", "ccc"]));
    }

    #[test]
    fn roundtrip_empty_chunks() {
        roundtrip(ColumnData::F64(vec![]));
        roundtrip(ColumnData::Cat {
            codes: vec![],
            dict: vec![],
        });
    }

    #[test]
    fn identical_data_has_identical_bytes() {
        let a = ColumnChunk::new(ColumnData::F64(vec![1.0, 2.0]));
        let b = ColumnChunk::new(ColumnData::F64(vec![1.0, 2.0]));
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn different_dtype_has_different_bytes() {
        let a = ColumnChunk::new(ColumnData::U8(vec![1, 2]));
        let b = ColumnChunk::new(ColumnData::Bool(vec![true, true]));
        assert_ne!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn truncated_bytes_rejected() {
        let chunk = ColumnChunk::new(ColumnData::F64(vec![1.0, 2.0, 3.0]));
        let bytes = chunk.to_bytes();
        assert_eq!(
            ColumnChunk::from_bytes(&bytes[..bytes.len() - 3]),
            Err(ChunkError::Truncated)
        );
        assert_eq!(ColumnChunk::from_bytes(&[]), Err(ChunkError::Truncated));
    }

    #[test]
    fn bad_dtype_rejected() {
        let bytes = [42u8, 0, 0, 0, 0];
        assert_eq!(
            ColumnChunk::from_bytes(&bytes),
            Err(ChunkError::BadDType(42))
        );
    }
}
