//! Typed columns.

/// The data type of a column cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit float — the native precision of DNN activations.
    F32,
    /// 16-bit float (stored as bit patterns) — LP_QT quantized activations.
    F16,
    /// 64-bit float — TRAD pipeline features and predictions.
    F64,
    /// 64-bit signed integer — ids, counts.
    I64,
    /// 8-bit unsigned integer — quantized activations (KBIT_QT codes).
    U8,
    /// Boolean — THRESHOLD_QT binarized activations, boolean features.
    Bool,
    /// Dictionary-encoded categorical string — Zillow region/type codes.
    Cat,
}

impl DType {
    /// Bytes per value for fixed-width types; dictionary types report the
    /// per-row code width (4 bytes).
    pub fn value_width(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
            DType::F64 => 8,
            DType::I64 => 8,
            DType::U8 => 1,
            DType::Bool => 1,
            DType::Cat => 4,
        }
    }
}

/// The cells of a column (or a chunk of one).
///
/// Equality is *bitwise* for float columns (NaN == NaN, 0.0 != -0.0),
/// matching the store's content-hash semantics: two columns are equal iff
/// their canonical serialized bytes are equal.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 16-bit floats as IEEE binary16 bit patterns (LP_QT storage).
    F16(Vec<u16>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// Unsigned bytes.
    U8(Vec<u8>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dictionary-encoded categorical values: per-row codes indexing `dict`.
    Cat {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The dictionary of distinct string values.
        dict: Vec<String>,
    },
}

impl PartialEq for ColumnData {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ColumnData::F32(a), ColumnData::F32(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (ColumnData::F16(a), ColumnData::F16(b)) => a == b,
            (ColumnData::F64(a), ColumnData::F64(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (ColumnData::I64(a), ColumnData::I64(b)) => a == b,
            (ColumnData::U8(a), ColumnData::U8(b)) => a == b,
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a == b,
            (
                ColumnData::Cat {
                    codes: ca,
                    dict: da,
                },
                ColumnData::Cat {
                    codes: cb,
                    dict: db,
                },
            ) => ca == cb && da == db,
            _ => false,
        }
    }
}

impl ColumnData {
    /// The data type of this column data.
    pub fn dtype(&self) -> DType {
        match self {
            ColumnData::F32(_) => DType::F32,
            ColumnData::F16(_) => DType::F16,
            ColumnData::F64(_) => DType::F64,
            ColumnData::I64(_) => DType::I64,
            ColumnData::U8(_) => DType::U8,
            ColumnData::Bool(_) => DType::Bool,
            ColumnData::Cat { .. } => DType::Cat,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::F32(v) => v.len(),
            ColumnData::F16(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::U8(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Cat { codes, .. } => codes.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-memory footprint of the cell data in bytes (dictionary included).
    pub fn nbytes(&self) -> usize {
        match self {
            ColumnData::Cat { codes, dict } => {
                codes.len() * 4 + dict.iter().map(|s| s.len() + 4).sum::<usize>()
            }
            other => other.len() * other.dtype().value_width(),
        }
    }

    /// Slice rows `[start, end)` into a new `ColumnData`.
    pub fn slice(&self, start: usize, end: usize) -> ColumnData {
        match self {
            ColumnData::F32(v) => ColumnData::F32(v[start..end].to_vec()),
            ColumnData::F16(v) => ColumnData::F16(v[start..end].to_vec()),
            ColumnData::F64(v) => ColumnData::F64(v[start..end].to_vec()),
            ColumnData::I64(v) => ColumnData::I64(v[start..end].to_vec()),
            ColumnData::U8(v) => ColumnData::U8(v[start..end].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
            ColumnData::Cat { codes, dict } => ColumnData::Cat {
                codes: codes[start..end].to_vec(),
                dict: dict.clone(),
            },
        }
    }

    /// Append another `ColumnData` of the same type (used when stitching
    /// chunks back into a column). Categorical appends remap dictionary codes.
    ///
    /// # Panics
    /// Panics if the dtypes differ.
    pub fn append(&mut self, other: &ColumnData) {
        match (self, other) {
            (ColumnData::F32(a), ColumnData::F32(b)) => a.extend_from_slice(b),
            (ColumnData::F16(a), ColumnData::F16(b)) => a.extend_from_slice(b),
            (ColumnData::F64(a), ColumnData::F64(b)) => a.extend_from_slice(b),
            (ColumnData::I64(a), ColumnData::I64(b)) => a.extend_from_slice(b),
            (ColumnData::U8(a), ColumnData::U8(b)) => a.extend_from_slice(b),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            (
                ColumnData::Cat { codes, dict },
                ColumnData::Cat {
                    codes: oc,
                    dict: od,
                },
            ) => {
                // Remap other's codes into our dictionary.
                let mut remap = Vec::with_capacity(od.len());
                for s in od {
                    let idx = dict.iter().position(|d| d == s).unwrap_or_else(|| {
                        dict.push(s.clone());
                        dict.len() - 1
                    });
                    remap.push(idx as u32);
                }
                codes.extend(oc.iter().map(|&c| remap[c as usize]));
            }
            (a, b) => panic!("append dtype mismatch: {:?} vs {:?}", a.dtype(), b.dtype()),
        }
    }

    /// View the values as f64 (lossless for every numeric type; booleans map
    /// to 0/1; categorical maps to the dictionary code). This is the
    /// "returns a numpy array" surface of the paper's query API.
    pub fn to_f64(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        self.extend_f64(&mut out);
        out
    }

    /// Append every cell's [`ColumnData::to_f64`] value to `out`.
    fn extend_f64(&self, out: &mut Vec<f64>) {
        match self {
            ColumnData::F32(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::F16(v) => out.extend(
                v.iter()
                    .map(|&bits| mistique_quantize::f16(bits).to_f32() as f64),
            ),
            ColumnData::F64(v) => out.extend_from_slice(v),
            ColumnData::I64(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::U8(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Bool(v) => out.extend(v.iter().map(|&x| if x { 1.0 } else { 0.0 })),
            ColumnData::Cat { codes, .. } => out.extend(codes.iter().map(|&c| c as f64)),
        }
    }

    /// The [`ColumnData::to_f64`] values without a fresh allocation: an f64
    /// column is borrowed as it is, any other type is converted into
    /// `scratch` (cleared first), which a caller walking many columns reuses.
    pub fn f64_view<'a>(&'a self, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        match self {
            ColumnData::F64(v) => v,
            other => {
                scratch.clear();
                other.extend_f64(scratch);
                scratch
            }
        }
    }

    /// The [`ColumnData::to_f64`] value of the one cell at `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn f64_at(&self, row: usize) -> f64 {
        match self {
            ColumnData::F32(v) => v[row] as f64,
            ColumnData::F16(v) => mistique_quantize::f16(v[row]).to_f32() as f64,
            ColumnData::F64(v) => v[row],
            ColumnData::I64(v) => v[row] as f64,
            ColumnData::U8(v) => v[row] as f64,
            ColumnData::Bool(v) => {
                if v[row] {
                    1.0
                } else {
                    0.0
                }
            }
            ColumnData::Cat { codes, .. } => codes[row] as f64,
        }
    }

    /// Gather rows at the given indices into a new `ColumnData`.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> ColumnData {
        match self {
            ColumnData::F32(v) => ColumnData::F32(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::F16(v) => ColumnData::F16(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::F64(v) => ColumnData::F64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::I64(v) => ColumnData::I64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::U8(v) => ColumnData::U8(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Cat { codes, dict } => ColumnData::Cat {
                codes: indices.iter().map(|&i| codes[i]).collect(),
                dict: dict.clone(),
            },
        }
    }

    /// Build a categorical column from string values.
    pub fn cat_from_strings<S: AsRef<str>>(values: &[S]) -> ColumnData {
        let mut dict: Vec<String> = Vec::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let s = v.as_ref();
            let idx = dict.iter().position(|d| d == s).unwrap_or_else(|| {
                dict.push(s.to_string());
                dict.len() - 1
            });
            codes.push(idx as u32);
        }
        ColumnData::Cat { codes, dict }
    }

    /// String value at `row` for categorical columns, `None` otherwise.
    pub fn cat_value(&self, row: usize) -> Option<&str> {
        match self {
            ColumnData::Cat { codes, dict } => dict.get(codes[row] as usize).map(|s| s.as_str()),
            _ => None,
        }
    }
}

/// A named, typed column of a [`crate::DataFrame`].
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    /// Column name, unique within its dataframe.
    pub name: String,
    /// The cell data.
    pub data: ColumnData,
}

impl Column {
    /// Create a column.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
        }
    }

    /// Convenience: an f64 column.
    pub fn f64(name: impl Into<String>, values: Vec<f64>) -> Self {
        Column::new(name, ColumnData::F64(values))
    }

    /// Convenience: an f32 column.
    pub fn f32(name: impl Into<String>, values: Vec<f32>) -> Self {
        Column::new(name, ColumnData::F32(values))
    }

    /// Convenience: an i64 column.
    pub fn i64(name: impl Into<String>, values: Vec<i64>) -> Self {
        Column::new(name, ColumnData::I64(values))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_widths() {
        assert_eq!(DType::F32.value_width(), 4);
        assert_eq!(DType::F64.value_width(), 8);
        assert_eq!(DType::U8.value_width(), 1);
        assert_eq!(DType::Bool.value_width(), 1);
    }

    #[test]
    fn slice_and_append_roundtrip() {
        let d = ColumnData::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut a = d.slice(0, 2);
        let b = d.slice(2, 5);
        a.append(&b);
        assert_eq!(a, d);
    }

    #[test]
    fn cat_from_strings_dedups_dictionary() {
        let d = ColumnData::cat_from_strings(&["la", "sf", "la", "nyc", "sf"]);
        match &d {
            ColumnData::Cat { codes, dict } => {
                assert_eq!(dict.len(), 3);
                assert_eq!(codes, &[0, 1, 0, 2, 1]);
            }
            _ => panic!(),
        }
        assert_eq!(d.cat_value(3), Some("nyc"));
    }

    #[test]
    fn cat_append_remaps_codes() {
        let mut a = ColumnData::cat_from_strings(&["x", "y"]);
        let b = ColumnData::cat_from_strings(&["y", "z"]);
        a.append(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.cat_value(2), Some("y"));
        assert_eq!(a.cat_value(3), Some("z"));
    }

    #[test]
    fn to_f64_conversions() {
        assert_eq!(ColumnData::Bool(vec![true, false]).to_f64(), vec![1.0, 0.0]);
        assert_eq!(ColumnData::U8(vec![3, 7]).to_f64(), vec![3.0, 7.0]);
        assert_eq!(ColumnData::F32(vec![0.5]).to_f64(), vec![0.5]);
    }

    #[test]
    fn one_cell_and_view_agree_with_to_f64() {
        let columns = [
            ColumnData::F32(vec![0.5, -1.25, f32::NAN, f32::INFINITY]),
            ColumnData::F16(vec![0x3c00, 0xc000, 0x7e00, 0xfc00]),
            ColumnData::F64(vec![1e300, -0.0, f64::NAN, f64::NEG_INFINITY]),
            ColumnData::I64(vec![i64::MIN, -1, 0, i64::MAX]),
            ColumnData::U8(vec![0, 1, 128, 255]),
            ColumnData::Bool(vec![true, false, false, true]),
            ColumnData::cat_from_strings(&["a", "b", "a", "c"]),
        ];
        // One scratch across every column: a view must not leak the last one.
        let mut scratch = vec![7.0; 9];
        for c in &columns {
            let want: Vec<u64> = c.to_f64().iter().map(|x| x.to_bits()).collect();
            let view: Vec<u64> = c
                .f64_view(&mut scratch)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let cells: Vec<u64> = (0..c.len()).map(|i| c.f64_at(i).to_bits()).collect();
            assert_eq!(view, want, "{:?}", c.dtype());
            assert_eq!(cells, want, "{:?}", c.dtype());
        }
    }

    #[test]
    fn gather_selects_rows() {
        let d = ColumnData::I64(vec![10, 20, 30, 40]);
        assert_eq!(d.gather(&[3, 0, 0]), ColumnData::I64(vec![40, 10, 10]));
    }

    #[test]
    #[should_panic(expected = "dtype mismatch")]
    fn append_mismatched_types_panics() {
        let mut a = ColumnData::F64(vec![1.0]);
        a.append(&ColumnData::I64(vec![1]));
    }

    #[test]
    fn nbytes_accounts_for_dictionary() {
        let d = ColumnData::cat_from_strings(&["aa", "bb", "aa"]);
        // 3 codes * 4 bytes + 2 dict entries * (2 chars + 4 len) = 12 + 12
        assert_eq!(d.nbytes(), 24);
    }
}
