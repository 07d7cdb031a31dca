//! Property tests on cross-crate invariants: arbitrary frames must survive
//! the chunk → dedup → partition → compress → disk → decompress → stitch
//! loop bit-exactly, and quantization error bounds must hold for arbitrary
//! activation distributions. Seeded (`mistique_testkit::cases`), 64 cases
//! each.

use std::time::Duration;

use mistique_compress::basedelta;
use mistique_core::capture::{decode_column, encode_batch, pool_batch, CaptureScheme, ValueScheme};
use mistique_core::metadata::{IntermediateMeta, ModelKind, ModelMeta};
use mistique_core::CostModel;
use mistique_dataframe::{Column, ColumnData, DataFrame};
use mistique_quantize::half::f16;
use mistique_quantize::pool::pooled_dims;
use mistique_quantize::{avg_pool2d, max_pool2d, KbitQuantizer, ThresholdQuantizer};
use mistique_rng::Rng;
use mistique_store::{ChunkKey, DataStore, DataStoreConfig, PlacementPolicy};
use mistique_testkit::{cases, finite_f32, finite_f64, Gen};

fn arb_column_data(g: &mut Gen) -> ColumnData {
    match g.rng.range(0..5) {
        0 => ColumnData::F64(g.vec(1..200, finite_f64)),
        1 => ColumnData::F32(g.vec(1..200, finite_f32)),
        2 => ColumnData::I64(g.vec(1..200, |rng| rng.next_u64() as i64)),
        3 => ColumnData::U8(g.bytes(1..200)),
        _ => ColumnData::Bool(g.vec(1..200, |rng| rng.chance(0.5))),
    }
}

fn arb_digest(rng: &mut Rng) -> (u64, u64) {
    (rng.next_u64(), rng.next_u64())
}

// The full storage loop is lossless for arbitrary column data, under
// both placement policies, warm and cold.
#[test]
fn store_roundtrip_is_bit_exact() {
    cases(64, 1, |g| {
        let data = arb_column_data(g);
        let by_sim = g.rng.chance(0.5);

        let dir = mistique_testkit::tempdir().unwrap();
        let policy = if by_sim {
            PlacementPolicy::BySimilarity { tau: 0.6 }
        } else {
            PlacementPolicy::ByIntermediate
        };
        let mut store = DataStore::open(
            dir.path(),
            DataStoreConfig {
                policy,
                ..DataStoreConfig::default()
            },
        )
        .unwrap();
        let chunk = mistique_dataframe::ColumnChunk::new(data);
        let key = ChunkKey::new("m.i", "c", 0);
        store.put_chunk(key.clone(), &chunk).unwrap();
        // Warm read.
        assert_eq!(&store.get_chunk(&key).unwrap(), &chunk);
        // Cold read from disk.
        store.flush().unwrap();
        store.clear_read_cache();
        assert_eq!(&store.get_chunk(&key).unwrap(), &chunk);
    });
}

// Chunking a frame and stitching it back is the identity, for any block
// size.
#[test]
fn chunk_stitch_identity() {
    cases(64, 2, |g| {
        let values = g.vec(1..500, finite_f64);
        let block = g.rng.range(1..64usize);

        let df = DataFrame::from_columns(vec![Column::f64("x", values)]);
        let mut chunks = Vec::new();
        for (_, _, c) in df.chunks(block) {
            chunks.push(c);
        }
        let back = DataFrame::from_chunks(vec![("x".to_string(), chunks)]);
        assert_eq!(back, df);
    });
}

// f16 conversion error is within half-precision ULP bounds for normal
// values.
#[test]
fn f16_error_bound() {
    cases(64, 3, |g| {
        let v = g.rng.range(-60000.0f32..60000.0);

        let r = f16::from_f32(v).to_f32();
        // Relative error bounded by 2^-11 for normals; absolute fallback for
        // values that land in the subnormal range.
        let ok = if v.abs() >= 6.2e-5 {
            (r - v).abs() <= v.abs() * 4.9e-4
        } else {
            (r - v).abs() <= 6e-8
        };
        assert!(ok, "{v} -> {r}");
    });
}

// KBIT quantization is monotone: order is preserved up to ties.
#[test]
fn kbit_codes_monotone() {
    cases(64, 4, |g| {
        let mut sample = g.vec(10..300, |rng| rng.range(-1000.0f32..1000.0));

        let q = KbitQuantizer::fit(&sample, 8);
        sample.sort_by(|a, b| a.total_cmp(b));
        let codes = q.encode_codes(&sample);
        for w in codes.windows(2) {
            assert!(w[0] <= w[1]);
        }
    });
}

// Reconstruction never leaves the sample's value range.
#[test]
fn kbit_reconstruction_stays_in_range() {
    cases(64, 5, |g| {
        let sample = g.vec(2..200, |rng| rng.range(-1e6f32..1e6));
        let bits = g.rng.range(1u32..=8);

        let q = KbitQuantizer::fit(&sample, bits);
        let lo = sample.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = sample.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for &v in &sample {
            let r = q.value_of(q.code_of(v));
            assert!(r >= lo - 1e-3 && r <= hi + 1e-3, "{r} outside [{lo}, {hi}]");
        }
    });
}

// Cost-model monotonicity: reading more rows never predicts less time;
// re-running a DNN for more examples never predicts less time; gamma
// never decreases with more queries.
#[test]
fn cost_model_monotone() {
    cases(64, 6, |g| {
        let bytes_per_row = g.rng.range(1u64..10_000);
        let cum_ms = g.rng.range(1u64..100_000);
        let n1 = g.rng.range(1usize..10_000);
        let extra = g.rng.range(1usize..10_000);
        let q1 = g.rng.range(0u64..1000);

        let cm = CostModel::default();
        let model = ModelMeta {
            id: "m".into(),
            kind: ModelKind::Dnn,
            n_stages: 3,
            model_load: Duration::from_millis(5),
            n_examples: 10_000,
            intermediates: vec![],
        };
        let mut meta = IntermediateMeta {
            id: "m.i".into(),
            model_id: "m".into(),
            stage_index: 1,
            n_rows: 10_000,
            columns: vec![],
            scheme: CaptureScheme::full(),
            materialized: true,
            stored_bytes: bytes_per_row * 10_000,
            exec_time: Duration::from_millis(cum_ms),
            cum_exec_time: Duration::from_millis(cum_ms),
            n_queries: q1,
            quantizer: None,
            threshold: None,
            shape: None,
            delta_encoded: false,
            chain: None,
        };
        let n2 = n1 + extra;
        assert!(cm.t_read(&meta, n2) >= cm.t_read(&meta, n1));
        assert!(cm.t_rerun(&model, &meta, n2) >= cm.t_rerun(&model, &meta, n1));
        let g1 = cm.gamma(&model, &meta, meta.stored_bytes.max(1));
        meta.n_queries = q1 + 1;
        let g2 = cm.gamma(&model, &meta, meta.stored_bytes.max(1));
        assert!(g2 >= g1, "gamma must grow with queries: {g1} -> {g2}");
    });
}

// The read-vs-rerun decision is consistent with the two predictions.
#[test]
fn decision_matches_predictions() {
    cases(64, 7, |g| {
        let bytes_per_row = g.rng.range(1u64..1_000_000);
        let cum_ms = g.rng.range(0u64..1_000_000);
        let n = g.rng.range(1usize..10_000);

        let cm = CostModel::default();
        let model = ModelMeta {
            id: "m".into(),
            kind: ModelKind::Trad,
            n_stages: 3,
            model_load: Duration::ZERO,
            n_examples: 10_000,
            intermediates: vec![],
        };
        let meta = IntermediateMeta {
            id: "m.i".into(),
            model_id: "m".into(),
            stage_index: 1,
            n_rows: 10_000,
            columns: vec![],
            scheme: CaptureScheme::full(),
            materialized: true,
            stored_bytes: bytes_per_row * 10_000,
            exec_time: Duration::from_millis(cum_ms),
            cum_exec_time: Duration::from_millis(cum_ms),
            n_queries: 0,
            quantizer: None,
            threshold: None,
            shape: None,
            delta_encoded: false,
            chain: None,
        };
        let should = cm.should_read(&model, &meta, n);
        assert_eq!(should, cm.t_rerun(&model, &meta, n) >= cm.t_read(&meta, n));
    });
}

// POOL_QT: pooling an h×w map with window σ yields exactly
// ceil(h/σ)·ceil(w/σ) values; averages stay within the map's value
// range, maxes select actual map elements, and σ=1 is the identity.
#[test]
fn pool_qt_bounds_and_shape() {
    cases(64, 8, |g| {
        let h = g.rng.range(1..12usize);
        let w = g.rng.range(1..12usize);
        let sigma = g.rng.range(1..8usize);
        let map: Vec<f32> = (0..h * w)
            .map(|_| g.rng.range(-1000.0f32..1000.0))
            .collect();

        let (oh, ow) = pooled_dims(h, w, sigma);
        assert_eq!(oh, h.div_ceil(sigma));
        assert_eq!(ow, w.div_ceil(sigma));
        let avg = avg_pool2d(&map, h, w, sigma);
        let max = max_pool2d(&map, h, w, sigma);
        assert_eq!(avg.len(), oh * ow);
        assert_eq!(max.len(), oh * ow);
        let lo = map.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = map.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for &v in &avg {
            // A window average cannot leave the map's range (small slack for
            // f32 summation over windows of up to 7×7 values).
            assert!(
                v >= lo - 0.5 && v <= hi + 0.5,
                "avg {} outside [{}, {}]",
                v,
                lo,
                hi
            );
        }
        for &v in &max {
            assert!(map.contains(&v), "max pooling fabricated {}", v);
        }
        if sigma == 1 {
            assert_eq!(&avg, &map);
            assert_eq!(&max, &map);
        }
    });
}

// POOL_QT over a capture batch: the pooled feature count is
// channels·ceil(h/σ)·ceil(w/σ) for every example.
#[test]
fn pool_qt_batch_feature_count() {
    cases(64, 9, |g| {
        let channels = g.rng.range(1..4usize);
        let h = g.rng.range(1..9usize);
        let w = g.rng.range(1..9usize);
        let sigma = g.rng.range(1..5usize);
        let n = g.rng.range(1..6usize);
        let examples: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                (0..channels * h * w)
                    .map(|_| g.rng.range(-100.0f32..100.0))
                    .collect()
            })
            .collect();

        let (pooled, out_features) = pool_batch(&examples, channels, h, w, sigma);
        let (oh, ow) = pooled_dims(h, w, sigma);
        assert_eq!(out_features, channels * oh * ow);
        assert_eq!(pooled.len(), examples.len());
        for p in &pooled {
            assert_eq!(p.len(), out_features);
        }
        if sigma == 1 {
            assert_eq!(&pooled, &examples);
        }
    });
}

// THRESHOLD_QT: the fitted threshold lies within the sample's value
// range, encoding is exactly `v > t`, and the packed bitstream
// roundtrips losslessly.
#[test]
fn threshold_qt_fit_and_pack_roundtrip() {
    cases(64, 10, |g| {
        let sample = g.vec(1..300, |rng| rng.range(-1e4f32..1e4));
        // `0.0..=1.0`: both ends are percentiles a caller can ask for.
        let pct = match g.rng.range(0..8) {
            0 => 0.0,
            1 => 1.0,
            _ => g.rng.range(0.0f64..1.0),
        };

        let q = ThresholdQuantizer::fit(&sample, pct);
        let t = q.threshold();
        let lo = sample.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = sample.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // Linear interpolation between sorted sample values stays in range
        // (up to f64 → f32 rounding at the edges).
        assert!(
            t >= lo - lo.abs() * 1e-5 - 1e-5 && t <= hi + hi.abs() * 1e-5 + 1e-5,
            "threshold {} outside sample range [{}, {}]",
            t,
            lo,
            hi
        );
        let bits = q.encode(&sample);
        for (&v, &b) in sample.iter().zip(&bits) {
            assert_eq!(b, v > t);
        }
        let packed = q.encode_packed(&sample);
        assert_eq!(packed.len(), sample.len().div_ceil(8), "1 bit per value");
        let unpacked = ThresholdQuantizer::decode_packed(&packed, sample.len());
        assert_eq!(unpacked, Some(bits));
    });
}

// THRESHOLD_QT through the capture path: encode_batch binarizes every
// column as exactly `v > t`, decode_column maps it to {0.0, 1.0}, and
// re-encoding under the returned threshold is deterministic (the paper:
// once picked, the threshold is fixed for the intermediate's lifetime).
#[test]
fn threshold_qt_capture_roundtrip() {
    cases(64, 11, |g| {
        let n = g.rng.range(1..16usize);
        let n_features = g.rng.range(1..8usize);
        let examples: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                (0..n_features)
                    .map(|_| g.rng.range(-100.0f32..100.0))
                    .collect()
            })
            .collect();
        let pct = g.rng.range(0.5f64..1.0);

        let scheme = ValueScheme::Threshold { pct };
        let batch = encode_batch(&examples, n_features, scheme, None, None);
        let t = batch.threshold.expect("fresh fit returns its threshold");
        assert_eq!(batch.frame.n_cols(), n_features);
        assert_eq!(batch.frame.n_rows(), examples.len());
        for j in 0..n_features {
            let col = batch.frame.column(&format!("n{j}")).expect("column exists");
            let decoded = decode_column(&col.data, scheme, None);
            for (i, ex) in examples.iter().enumerate() {
                let expected = if ex[j] > t { 1.0 } else { 0.0 };
                assert_eq!(decoded[i], expected, "row {} col {}", i, j);
            }
        }
        let again = encode_batch(&examples, n_features, scheme, None, Some(t));
        assert!(
            again.threshold.is_none(),
            "reused threshold is not re-returned"
        );
        assert_eq!(again.frame, batch.frame);
    });
}

// Zone maps and max-activation lists over *decoded* values, for every
// quantization scheme on the demotion ladder: the pruned block set is a
// superset of the blocks containing matches, and the top list
// reproduces the scan's exact top-k prefix (bit patterns included)
// whenever it serves at all.
#[test]
fn index_contract_holds_over_every_quantization_scheme() {
    cases(64, 12, |g| {
        let raw = g.vec(1..160, |rng| rng.range(-100.0f32..100.0));
        let scheme_pick = g.rng.range(0..4usize);
        let block = g.rng.range(1..24usize);
        let m = g.rng.range(0..16usize);
        let k = g.rng.range(0..16usize);
        let threshold = g.rng.range(-120.0f64..120.0);

        let scheme = match scheme_pick {
            0 => ValueScheme::Full,
            1 => ValueScheme::Lp,
            2 => ValueScheme::Kbit { bits: 8 },
            _ => ValueScheme::Threshold { pct: 0.9 },
        };
        let examples: Vec<Vec<f32>> = raw.iter().map(|&v| vec![v]).collect();
        let batch = encode_batch(&examples, 1, scheme, None, None);
        let col = batch.frame.column("n0").expect("one encoded column");
        let decoded = decode_column(&col.data, scheme, batch.quantizer.as_deref());
        assert_eq!(decoded.len(), raw.len());

        let mut b = mistique_index::IndexBuilder::new(m, block);
        for (i, chunk) in decoded.chunks(block).enumerate() {
            b.observe_block("n0", i, chunk);
        }
        let idx = b.finish("m.i", &scheme.name(), decoded.len(), 1);

        // Threshold pruning over the decoded domain.
        let (keep, total) = idx
            .blocks_passing_gt("n0", threshold)
            .expect("column indexed");
        assert_eq!(total, decoded.len().div_ceil(block));
        for (row, v) in decoded.iter().enumerate() {
            if *v > threshold {
                assert!(
                    keep.contains(&(row / block)),
                    "row {} (decoded {}) matches but its block was pruned",
                    row,
                    v
                );
            }
        }

        // Top list vs the scan reference, bit for bit.
        if let Some(served) = idx.topk("n0", k) {
            let want = mistique_index::reference_topk(&decoded, k);
            assert_eq!(served.len(), want.len());
            for (a, b) in served.iter().zip(&want) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        } else {
            assert!(
                k > m && decoded.len() > m,
                "refusal only when the list cannot prove the prefix"
            );
        }
    });
}

// NaN / ±inf / constant columns: zone maps must neither fabricate nor
// lose matches when a block is all-NaN, all-constant, or spans the
// infinities, and the top list must still mirror the scan order.
#[test]
fn index_specials_and_constant_columns() {
    cases(64, 13, |g| {
        // Weights 4 : 1 : 1 : 1 : 2.
        let vals = g.vec(1..120, |rng| match rng.range(0..9) {
            0..=3 => rng.range(-1e6f64..1e6),
            4 => f64::NAN,
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            _ => 42.0,
        });
        let block = g.rng.range(1..16usize);
        // Weights 3 : 1 : 1 : 1.
        let threshold = match g.rng.range(0..6) {
            0..=2 => g.rng.range(-1e6f64..1e6),
            3 => f64::NEG_INFINITY,
            4 => f64::INFINITY,
            _ => 42.0,
        };

        for column in [vals.clone(), vec![42.0f64; vals.len()]] {
            let mut b = mistique_index::IndexBuilder::new(8, block);
            for (i, chunk) in column.chunks(block).enumerate() {
                b.observe_block("c", i, chunk);
            }
            let idx = b.finish("m.i", "FULL", column.len(), 1);

            let (keep, _) = idx
                .blocks_passing_gt("c", threshold)
                .expect("column indexed");
            for (row, v) in column.iter().enumerate() {
                // NaN never matches `>`; pruning may only discard blocks
                // whose non-NaN max cannot clear the threshold.
                if *v > threshold {
                    assert!(keep.contains(&(row / block)));
                }
            }

            if let Some(served) = idx.topk("c", 8) {
                let want = mistique_index::reference_topk(&column, 8);
                assert_eq!(served.len(), want.len());
                for (a, b) in served.iter().zip(&want) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
        }
    });
}

// Base+delta frames are bit-exact for arbitrary target/base byte pairs,
// including length mismatches in either direction (the XOR residual
// passes the tail through past the shorter stream).
#[test]
fn basedelta_roundtrip_arbitrary_bytes() {
    cases(64, 14, |g| {
        let target = g.bytes(0..600);
        let base = g.bytes(0..600);
        let digest = arb_digest(&mut g.rng);

        let frame = basedelta::encode(&target, &base, digest);
        assert!(basedelta::is_delta_frame(&frame));
        assert_eq!(basedelta::base_digest_of(&frame), Some(digest));
        assert_eq!(basedelta::decode(&frame, &base, digest).unwrap(), target);
    });
}

// Float payloads with NaN / ±inf survive the delta frame bit for bit —
// the codec works on raw bytes, so no float semantics can leak in.
#[test]
fn basedelta_roundtrip_float_specials() {
    cases(64, 15, |g| {
        // Weights 5 : 1 : 1 : 1 : 1.
        let vals = g.vec(1..200, |rng| match rng.range(0..9) {
            0..=4 => rng.range(-1e30f32..1e30),
            5 => f32::NAN,
            6 => f32::INFINITY,
            7 => f32::NEG_INFINITY,
            _ => -0.0f32,
        });
        let flip_every = g.rng.range(1..32usize);

        let base: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut target = base.clone();
        for (i, b) in target.iter_mut().enumerate() {
            if i % flip_every == 0 {
                *b = b.wrapping_add(1);
            }
        }
        let digest = (7u64, 9u64);
        let frame = basedelta::encode(&target, &base, digest);
        assert_eq!(basedelta::decode(&frame, &base, digest).unwrap(), target);
    });
}

// A frame never decodes against the wrong base: a different digest is
// refused, and a base of a different length is refused.
#[test]
fn basedelta_wrong_base_rejected() {
    cases(64, 16, |g| {
        let target = g.bytes(1..300);
        let base = g.bytes(1..300);
        let digest = arb_digest(&mut g.rng);
        let other = arb_digest(&mut g.rng);

        let frame = basedelta::encode(&target, &base, digest);
        if other != digest {
            assert!(basedelta::decode(&frame, &base, other).is_err());
        }
        let truncated_base = &base[..base.len() - 1];
        assert!(basedelta::decode(&frame, truncated_base, digest).is_err());
    });
}
