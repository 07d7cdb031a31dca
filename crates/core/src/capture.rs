//! Capture-time transformation of intermediates: pooling summarization and
//! value quantization (Sec 4.1), applied before chunks reach the DataStore.
//!
//! The one place a DNN activation becomes stored rows ([`LayerCapture`]) and
//! rows become a frame ([`encode_batch`]): logging and a re-run both hand
//! every tile of [`mistique_nn::Model::forward_tiles`] to the same code, so a
//! re-run returns exactly the layout and bits the store holds.

use mistique_dataframe::{Column, ColumnData, DType, DataFrame};
use mistique_nn::Tensor;
use mistique_quantize::half::encode_f16;
use mistique_quantize::pool::pool_channels;
use mistique_quantize::{KbitQuantizer, PoolKind, ThresholdQuantizer};

/// Per-value storage scheme for captured activations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValueScheme {
    /// Full precision f32.
    Full,
    /// LP_QT: binary16 storage.
    Lp,
    /// KBIT_QT: `2^bits` quantile bins, fitted per intermediate.
    Kbit {
        /// Bits per code (paper default 8).
        bits: u32,
    },
    /// THRESHOLD_QT: binarize at the given percentile.
    Threshold {
        /// Percentile for the threshold (NetDissect: 0.995).
        pct: f64,
    },
}

impl ValueScheme {
    /// Scheme name as used in the paper's figures.
    pub fn name(&self) -> String {
        match self {
            ValueScheme::Full => "FULL".into(),
            ValueScheme::Lp => "LP_QT".into(),
            ValueScheme::Kbit { bits } => format!("{bits}BIT_QT"),
            ValueScheme::Threshold { .. } => "THRESHOLD_QT".into(),
        }
    }

    /// Worst-case per-value error bound of the scheme when statically known.
    /// `Some(0.0)` means lossless; `None` means the bound depends on the data
    /// distribution (KBIT quantile bins, THRESHOLD binarization). LP_QT's
    /// bound is binary16's relative rounding error (2^-11) for values inside
    /// the f16 range.
    pub fn error_bound(&self) -> Option<f64> {
        match self {
            ValueScheme::Full => Some(0.0),
            ValueScheme::Lp => Some(1.0 / 2048.0),
            ValueScheme::Kbit { .. } | ValueScheme::Threshold { .. } => None,
        }
    }

    /// The column type captured values are stored as ([`ValueEncoder`]'s
    /// output).
    pub(crate) fn dtype(&self) -> DType {
        match self {
            ValueScheme::Full => DType::F32,
            ValueScheme::Lp => DType::F16,
            ValueScheme::Kbit { .. } => DType::U8,
            ValueScheme::Threshold { .. } => DType::Bool,
        }
    }

    /// Bytes per stored value (bit-level schemes round up per value for the
    /// cost model; actual chunk packing is byte-exact).
    pub fn bytes_per_value(&self) -> f64 {
        match self {
            ValueScheme::Full => 4.0,
            ValueScheme::Lp => 2.0,
            ValueScheme::Kbit { .. } => 1.0,
            ValueScheme::Threshold { .. } => 1.0 / 8.0,
        }
    }
}

/// The full capture configuration for one intermediate: optional pooling
/// summarization plus the value scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CaptureScheme {
    /// Value quantization.
    pub value: ValueScheme,
    /// POOL_QT window σ (None = no pooling; paper default σ=2 for DNNs).
    pub pool_sigma: Option<usize>,
}

impl CaptureScheme {
    /// Full precision, no pooling — what TRAD intermediates use.
    pub fn full() -> CaptureScheme {
        CaptureScheme {
            value: ValueScheme::Full,
            pool_sigma: None,
        }
    }

    /// The paper's default DNN scheme: pool(2) over full-precision values.
    pub fn pool2() -> CaptureScheme {
        CaptureScheme {
            value: ValueScheme::Full,
            pool_sigma: Some(2),
        }
    }

    /// Display name, e.g. `POOL_QT(2)+FULL`.
    pub fn name(&self) -> String {
        match self.pool_sigma {
            Some(s) => format!("POOL_QT({s})+{}", self.value.name()),
            None => self.value.name(),
        }
    }
}

/// Result of capturing one activation tensor batch: the encoded dataframe
/// plus the fitted quantization state needed to decode it later.
pub struct CapturedBatch {
    /// Encoded dataframe (columns `n0..nK` after pooling).
    pub frame: DataFrame,
    /// Serialized KBIT quantizer, present the first time a KBIT intermediate
    /// is captured (fitted on this batch, reused for later batches).
    pub quantizer: Option<Vec<u8>>,
    /// Threshold value, present for THRESHOLD_QT.
    pub threshold: Option<f32>,
}

/// Pool a batch of per-example activation values laid out as
/// `channels x h x w` per example, returning pooled per-example values and
/// the pooled feature count.
pub fn pool_batch(
    examples: &[Vec<f32>],
    channels: usize,
    h: usize,
    w: usize,
    sigma: usize,
) -> (Vec<Vec<f32>>, usize) {
    let pooled: Vec<Vec<f32>> = examples
        .iter()
        .map(|ex| pool_example(ex, channels, h, w, sigma))
        .collect();
    let out_features = pooled.first().map_or(0, Vec::len);
    (pooled, out_features)
}

/// Pool one example's `channels x h x w` activation values: the per-example
/// step of [`pool_batch`].
fn pool_example(example: &[f32], channels: usize, h: usize, w: usize, sigma: usize) -> Vec<f32> {
    pool_channels(example, channels, h, w, sigma, PoolKind::Avg).0
}

/// The name of feature column `j` of a captured activation: `n{j}`, in
/// `c × h × w` order of the stored (possibly pooled) map.
pub(crate) fn feature_column(j: usize) -> String {
    format!("n{j}")
}

/// How one DNN layer's activations become stored rows under POOL_QT
/// (Sec 4.1). Only spatial (conv/pool) maps pool, and only for σ > 1; dense
/// and flattened activations are stored as they are.
pub(crate) struct LayerCapture {
    /// The layer's activation shape `(c, h, w)`.
    shape: (usize, usize, usize),
    /// The window σ, when this layer pools.
    sigma: Option<usize>,
}

impl LayerCapture {
    /// The capture of a layer of activation shape `shape` under the
    /// scheme's `pool_sigma`.
    pub(crate) fn new(shape: (usize, usize, usize), pool_sigma: Option<usize>) -> LayerCapture {
        LayerCapture {
            shape,
            sigma: pool_sigma.filter(|&sigma| shape.1 > 1 && sigma > 1),
        }
    }

    /// The shape rows are stored at: σ×σ windows, partial at the edges.
    pub(crate) fn stored_shape(&self) -> (usize, usize, usize) {
        let (c, h, w) = self.shape;
        match self.sigma {
            Some(sigma) => (c, h.div_ceil(sigma), w.div_ceil(sigma)),
            None => self.shape,
        }
    }

    /// Whether the stored rows are the activation itself under `value`:
    /// unpooled and at full precision, so a forward can resume from them.
    pub(crate) fn exact(&self, value: ValueScheme) -> bool {
        self.sigma.is_none() && value == ValueScheme::Full
    }

    /// Values per stored row.
    pub(crate) fn features(&self) -> usize {
        let (c, h, w) = self.stored_shape();
        c * h * w
    }

    /// Append one tile of the layer's activations to `rows`, one stored row
    /// per example: pooled, or copied.
    pub(crate) fn capture_tile(&self, tile: &Tensor, rows: &mut Vec<Vec<f32>>) {
        let (c, h, w) = self.shape;
        rows.extend((0..tile.n).map(|i| match self.sigma {
            Some(sigma) => pool_example(tile.example(i), c, h, w, sigma),
            None => tile.example(i).to_vec(),
        }));
    }
}

/// The fitted state of a [`ValueScheme`]: what turns a column's f32 values
/// into stored [`ColumnData`]. The workspace's one value-scheme encoder —
/// capture ([`encode_batch`]) and the reclaim ladder's demotions both fit
/// and encode through it.
pub(crate) enum ValueEncoder {
    Full,
    Lp,
    Kbit(KbitQuantizer),
    Threshold(f32),
}

impl ValueEncoder {
    /// Fit `scheme` on `sample`, or adopt the state an earlier fit left
    /// behind (`quantizer` for KBIT, `threshold` for THRESHOLD) so every
    /// block of an intermediate encodes alike. Only finite values enter a
    /// fit: the quantile sort cannot order NaN, and an infinity (missing
    /// data, f16 overflow from an earlier LP_QT step) would poison the
    /// bins. A sample with no finite value fits as `[0.0]`.
    pub(crate) fn fit(
        scheme: ValueScheme,
        sample: impl Iterator<Item = f32>,
        quantizer: Option<&[u8]>,
        threshold: Option<f32>,
    ) -> ValueEncoder {
        let finite = || {
            let mut sample: Vec<f32> = sample.filter(|v| v.is_finite()).collect();
            if sample.is_empty() {
                sample.push(0.0);
            }
            sample
        };
        match (scheme, quantizer, threshold) {
            (ValueScheme::Full, _, _) => ValueEncoder::Full,
            (ValueScheme::Lp, _, _) => ValueEncoder::Lp,
            (ValueScheme::Kbit { .. }, Some(bytes), _) => {
                ValueEncoder::Kbit(KbitQuantizer::from_bytes(bytes).expect("valid quantizer"))
            }
            // The paper: "first collect samples of activations to build a
            // distribution".
            (ValueScheme::Kbit { bits }, None, _) => {
                ValueEncoder::Kbit(KbitQuantizer::fit(&finite(), bits))
            }
            (ValueScheme::Threshold { .. }, _, Some(t)) => ValueEncoder::Threshold(t),
            (ValueScheme::Threshold { pct }, _, None) => {
                ValueEncoder::Threshold(ThresholdQuantizer::fit(&finite(), pct).threshold())
            }
        }
    }

    /// Encode one column's values.
    pub(crate) fn encode(&self, vals: Vec<f32>) -> ColumnData {
        match self {
            ValueEncoder::Full => ColumnData::F32(vals),
            ValueEncoder::Lp => {
                let bytes = encode_f16(&vals);
                let halves = bytes.chunks_exact(2);
                ColumnData::F16(halves.map(|c| u16::from_le_bytes([c[0], c[1]])).collect())
            }
            ValueEncoder::Kbit(q) => ColumnData::U8(q.encode_codes(&vals)),
            ValueEncoder::Threshold(t) => ColumnData::Bool(vals.iter().map(|&v| v > *t).collect()),
        }
    }

    /// The serialized KBIT quantizer a reader needs to decode the codes.
    pub(crate) fn quantizer(&self) -> Option<Vec<u8>> {
        match self {
            ValueEncoder::Kbit(q) => Some(q.to_bytes()),
            _ => None,
        }
    }

    /// The THRESHOLD_QT cut.
    pub(crate) fn threshold(&self) -> Option<f32> {
        match self {
            ValueEncoder::Threshold(t) => Some(*t),
            _ => None,
        }
    }
}

/// Encode a batch of per-example feature vectors into a dataframe under the
/// given value scheme. For KBIT, `existing_quantizer` (serialized) is reused
/// when present; otherwise a quantizer is fitted on this batch's values and
/// returned. For THRESHOLD, `existing_threshold` works the same way.
pub fn encode_batch(
    examples: &[Vec<f32>],
    n_features: usize,
    scheme: ValueScheme,
    existing_quantizer: Option<&[u8]>,
    existing_threshold: Option<f32>,
) -> CapturedBatch {
    let sample = examples.iter().flatten().copied();
    let encoder = ValueEncoder::fit(scheme, sample, existing_quantizer, existing_threshold);
    let cols = (0..n_features)
        .map(|j| {
            let vals: Vec<f32> = examples.iter().map(|ex| ex[j]).collect();
            Column::new(feature_column(j), encoder.encode(vals))
        })
        .collect();
    CapturedBatch {
        frame: DataFrame::from_columns(cols),
        // Fitted state is handed back once, by the batch that fitted it.
        quantizer: encoder.quantizer().filter(|_| existing_quantizer.is_none()),
        threshold: encoder.threshold().filter(|_| existing_threshold.is_none()),
    }
}

/// Decode a stored (possibly quantized) column back to f64 values,
/// reconstructing KBIT codes through the stored quantizer — the paper's
/// "reconstruction cost" of 8BIT_QT reads.
pub fn decode_column(data: &ColumnData, scheme: ValueScheme, quantizer: Option<&[u8]>) -> Vec<f64> {
    match (scheme, data) {
        (ValueScheme::Kbit { .. }, ColumnData::U8(codes)) => {
            let q = quantizer
                .and_then(KbitQuantizer::from_bytes)
                .expect("KBIT intermediate requires its quantizer");
            codes.iter().map(|&c| q.value_of(c) as f64).collect()
        }
        // FULL / LP / THRESHOLD decode through the dataframe conversions
        // (f16 → f32 happens inside `to_f64`).
        (_, other) => other.to_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize, f: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| (0..f).map(|j| ((i * f + j) % 100) as f32 / 10.0).collect())
            .collect()
    }

    #[test]
    fn full_scheme_is_lossless() {
        let ex = batch(10, 4);
        let cap = encode_batch(&ex, 4, ValueScheme::Full, None, None);
        assert_eq!(cap.frame.n_rows(), 10);
        assert_eq!(cap.frame.n_cols(), 4);
        let col0 = cap.frame.column("n0").unwrap();
        let dec = decode_column(&col0.data, ValueScheme::Full, None);
        assert_eq!(dec[1], ex[1][0] as f64);
    }

    #[test]
    fn every_scheme_stores_its_dtype() {
        let ex = batch(20, 2);
        for scheme in [
            ValueScheme::Full,
            ValueScheme::Lp,
            ValueScheme::Kbit { bits: 8 },
            ValueScheme::Threshold { pct: 0.9 },
        ] {
            let cap = encode_batch(&ex, 2, scheme, None, None);
            assert_eq!(cap.frame.column("n1").unwrap().data.dtype(), scheme.dtype());
        }
    }

    #[test]
    fn lp_scheme_stores_f16() {
        let ex = batch(8, 3);
        let cap = encode_batch(&ex, 3, ValueScheme::Lp, None, None);
        let col = cap.frame.column("n1").unwrap();
        assert!(matches!(col.data, ColumnData::F16(_)));
        let dec = decode_column(&col.data, ValueScheme::Lp, None);
        for (i, d) in dec.iter().enumerate() {
            let orig = ex[i][1] as f64;
            assert!((d - orig).abs() <= orig.abs() * 1e-3 + 1e-3);
        }
    }

    #[test]
    fn kbit_fits_then_reuses_quantizer() {
        let ex = batch(50, 4);
        let first = encode_batch(&ex, 4, ValueScheme::Kbit { bits: 8 }, None, None);
        let qbytes = first.quantizer.expect("first batch fits a quantizer");
        let second = encode_batch(&ex, 4, ValueScheme::Kbit { bits: 8 }, Some(&qbytes), None);
        assert!(
            second.quantizer.is_none(),
            "reused quantizer is not re-emitted"
        );
        assert_eq!(first.frame, second.frame, "same quantizer, same codes");
        // Decode error bounded.
        let dec = decode_column(
            &first.frame.column("n2").unwrap().data,
            ValueScheme::Kbit { bits: 8 },
            Some(&qbytes),
        );
        for (i, d) in dec.iter().enumerate() {
            assert!((d - ex[i][2] as f64).abs() < 0.5, "row {i}");
        }
    }

    #[test]
    fn threshold_binarizes_against_fitted_threshold() {
        let ex = batch(100, 2);
        let cap = encode_batch(&ex, 2, ValueScheme::Threshold { pct: 0.9 }, None, None);
        let t = cap.threshold.expect("fitted threshold");
        assert!(t > 0.0);
        let col = cap.frame.column("n0").unwrap();
        assert!(matches!(col.data, ColumnData::Bool(_)));
        let dec = decode_column(&col.data, ValueScheme::Threshold { pct: 0.9 }, None);
        assert!(dec.iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn pooling_reduces_feature_count() {
        // 2 channels of 4x4 = 32 features -> sigma 2 -> 2 channels of 2x2 = 8.
        let examples: Vec<Vec<f32>> = (0..3).map(|i| vec![i as f32; 32]).collect();
        let (pooled, f) = pool_batch(&examples, 2, 4, 4, 2);
        assert_eq!(f, 8);
        assert_eq!(pooled[1], vec![1.0; 8]);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(CaptureScheme::pool2().name(), "POOL_QT(2)+FULL");
        assert_eq!(CaptureScheme::full().name(), "FULL");
        let k = CaptureScheme {
            value: ValueScheme::Kbit { bits: 8 },
            pool_sigma: None,
        };
        assert_eq!(k.name(), "8BIT_QT");
    }

    #[test]
    fn error_bounds_match_scheme_lossiness() {
        assert_eq!(ValueScheme::Full.error_bound(), Some(0.0));
        assert_eq!(ValueScheme::Lp.error_bound(), Some(1.0 / 2048.0));
        assert_eq!(ValueScheme::Kbit { bits: 8 }.error_bound(), None);
        assert_eq!(ValueScheme::Threshold { pct: 0.995 }.error_bound(), None);
    }

    #[test]
    fn bytes_per_value_ordering() {
        assert!(ValueScheme::Full.bytes_per_value() > ValueScheme::Lp.bytes_per_value());
        assert!(
            ValueScheme::Lp.bytes_per_value() > ValueScheme::Kbit { bits: 8 }.bytes_per_value()
        );
        assert!(
            ValueScheme::Kbit { bits: 8 }.bytes_per_value()
                > ValueScheme::Threshold { pct: 0.995 }.bytes_per_value()
        );
    }
}
