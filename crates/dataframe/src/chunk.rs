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
        if bytes.len() < 5 {
            return Err(ChunkError::Truncated);
        }
        let tag = bytes[0];
        let n = u32::from_le_bytes(bytes[1..5].try_into().unwrap()) as usize;
        let body = &bytes[5..];
        let need = |w: usize| -> Result<(), ChunkError> {
            if body.len() < n * w {
                Err(ChunkError::Truncated)
            } else {
                Ok(())
            }
        };
        let data = match tag {
            0 => {
                need(4)?;
                ColumnData::F32(
                    body.chunks_exact(4)
                        .take(n)
                        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            1 => {
                need(8)?;
                ColumnData::F64(
                    body.chunks_exact(8)
                        .take(n)
                        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            2 => {
                need(8)?;
                ColumnData::I64(
                    body.chunks_exact(8)
                        .take(n)
                        .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            3 => {
                need(1)?;
                ColumnData::U8(body[..n].to_vec())
            }
            4 => {
                need(1)?;
                ColumnData::Bool(body[..n].iter().map(|&b| b != 0).collect())
            }
            5 => {
                need(4)?;
                let codes: Vec<u32> = body
                    .chunks_exact(4)
                    .take(n)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                let mut pos = n * 4;
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
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    let slen = take4(&mut pos)? as usize;
                    let end = pos + slen;
                    if end > body.len() {
                        return Err(ChunkError::Truncated);
                    }
                    let s =
                        std::str::from_utf8(&body[pos..end]).map_err(|_| ChunkError::BadUtf8)?;
                    dict.push(s.to_string());
                    pos = end;
                }
                ColumnData::Cat { codes, dict }
            }
            6 => {
                need(2)?;
                ColumnData::F16(
                    body.chunks_exact(2)
                        .take(n)
                        .map(|c| u16::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            t => return Err(ChunkError::BadDType(t)),
        };
        Ok(ColumnChunk { data })
    }
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
