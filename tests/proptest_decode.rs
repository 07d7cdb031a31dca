//! Property suite for `capture::decode_into`, the read path's one decode: a
//! stored chunk's bytes straight into an f64 column. Over every dtype ×
//! value scheme — NaN payloads, −0.0, ±inf, empty chunks, KBIT at 1–8 bits —
//! it must return bit for bit what `ColumnChunk::from_bytes` then
//! `decode_column` return, fail wherever that pair fails or panics, fail on
//! every strict prefix of a valid chunk (a torn member is one), and never
//! panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mistique_core::capture::{decode_column, decode_into, ValueScheme};
use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_quantize::KbitQuantizer;
use mistique_rng::Rng;
use mistique_testkit::{cases, finite_f32, Gen};

/// f32 bit patterns with the edges a decode must carry bit for bit.
fn any_f32(rng: &mut Rng) -> f32 {
    const EDGES: [u32; 8] = [
        0x0000_0000, // 0.0
        0x8000_0000, // -0.0
        0x7f80_0000, // inf
        0xff80_0000, // -inf
        0x7fc0_0000, // quiet NaN
        0x7fc0_1234, // quiet NaN with a payload
        0xff80_0001, // negative signalling NaN
        0x0000_0001, // smallest subnormal
    ];
    if rng.chance(0.3) {
        f32::from_bits(EDGES[rng.range(0..EDGES.len())])
    } else {
        f32::from_bits(rng.next_u64() as u32)
    }
}

/// binary16 bit patterns, edges included (±0, ±inf, NaN payloads).
fn any_f16(rng: &mut Rng) -> u16 {
    const EDGES: [u16; 6] = [0x0000, 0x8000, 0x7c00, 0xfc00, 0x7e01, 0xfd55];
    if rng.chance(0.3) {
        EDGES[rng.range(0..EDGES.len())]
    } else {
        rng.next_u64() as u16
    }
}

/// f64 bit patterns, edges included.
fn any_f64(rng: &mut Rng) -> f64 {
    const EDGES: [u64; 6] = [
        0,
        1 << 63,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_beef,
        0xfff0_0000_0000_0001,
    ];
    if rng.chance(0.3) {
        f64::from_bits(EDGES[rng.range(0..EDGES.len())])
    } else {
        f64::from_bits(rng.next_u64())
    }
}

/// A chunk of any dtype, `rows` long; U8 codes stay below `2^bits` but for
/// an occasional one past them.
fn any_data(g: &mut Gen, rows: usize, bits: u32) -> ColumnData {
    let rng = &mut g.rng;
    match rng.range(0..7usize) {
        0 => ColumnData::F32((0..rows).map(|_| any_f32(rng)).collect()),
        1 => ColumnData::F16((0..rows).map(|_| any_f16(rng)).collect()),
        2 => ColumnData::F64((0..rows).map(|_| any_f64(rng)).collect()),
        3 => ColumnData::I64((0..rows).map(|_| rng.next_u64() as i64).collect()),
        4 => {
            let past = rng.chance(0.1);
            let codes = (0..rows).map(|_| match past {
                true => rng.range(0..=u8::MAX),
                false => rng.range(0..1u32 << bits) as u8,
            });
            ColumnData::U8(codes.collect())
        }
        5 => ColumnData::Bool((0..rows).map(|_| rng.chance(0.5)).collect()),
        _ => {
            let words = ["", "a", "zürich", "房", "long word"];
            let n = rng.range(0..=words.len());
            ColumnData::Cat {
                codes: (0..rows).map(|_| rng.next_u64() as u32).collect(),
                dict: words[..n].iter().map(|s| s.to_string()).collect(),
            }
        }
    }
}

fn any_scheme(rng: &mut Rng, bits: u32) -> ValueScheme {
    match rng.range(0..4usize) {
        0 => ValueScheme::Full,
        1 => ValueScheme::Lp,
        2 => ValueScheme::Kbit { bits },
        _ => ValueScheme::Threshold { pct: 0.9 },
    }
}

/// What `from_bytes` + `decode_column` give, or `None` where either fails
/// or panics.
fn reference(bytes: &[u8], value: ValueScheme, quantizer: Option<&[u8]>) -> Option<Vec<f64>> {
    let chunk = ColumnChunk::from_bytes(bytes).ok()?;
    catch_unwind(AssertUnwindSafe(|| {
        decode_column(&chunk.data, value, quantizer)
    }))
    .ok()
}

fn bits_of(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn decode_into_is_from_bytes_then_decode_column_bit_for_bit() {
    cases(400, 0xdec0de, |g| {
        let bits = g.rng.range(1..=8u32);
        let rows = g.len(0..80);
        let data = any_data(g, rows, bits);
        let value = any_scheme(&mut g.rng, bits);
        let sample: Vec<f32> = (0..g.len(1..200)).map(|_| finite_f32(&mut g.rng)).collect();
        let fitted = KbitQuantizer::fit(&sample, bits);
        let quantizer = (!g.rng.chance(0.1)).then_some(&fitted);
        let qbytes = quantizer.map(KbitQuantizer::to_bytes);
        let bytes = ColumnChunk::new(data.clone()).to_bytes();

        let mut out = vec![f64::NAN; rows];
        let got = decode_into(&bytes, value, quantizer, &mut out);
        match reference(&bytes, value, qbytes.as_deref()) {
            Some(expected) => {
                assert!(got.is_ok(), "{value:?} {:?}: {got:?}", data.dtype());
                assert_eq!(bits_of(&out), bits_of(&expected), "{value:?} {data:?}");
            }
            None => assert!(got.is_err(), "{value:?} {data:?}: the pair failed"),
        }

        // A row count that is not the chunk's is refused.
        let mut wrong = vec![0.0; rows + 1];
        assert!(decode_into(&bytes, value, quantizer, &mut wrong).is_err());

        // Every strict prefix is an error, never a panic or a short column.
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            assert!(ColumnChunk::from_bytes(prefix).is_err(), "cut {cut}");
            assert!(
                decode_into(prefix, value, quantizer, &mut out).is_err(),
                "{value:?} {:?}: prefix of {cut} of {} decoded",
                data.dtype(),
                bytes.len()
            );
        }
    });
}

#[test]
fn no_input_makes_decode_into_panic() {
    cases(600, 0xbad_c0de, |g| {
        let bits = g.rng.range(1..=8u32);
        // Mostly a plausible header — a known tag and a small row count —
        // then anything.
        let mut bytes = g.bytes(0..64);
        if bytes.len() >= 5 && g.rng.chance(0.7) {
            bytes[0] = g.rng.range(0..8u8);
            let rows = g.rng.range(0..20u32);
            bytes[1..5].copy_from_slice(&rows.to_le_bytes());
        }
        let value = any_scheme(&mut g.rng, bits);
        let fitted = KbitQuantizer::fit(&[0.0, 1.0, 2.0], bits);
        let quantizer = g.rng.chance(0.8).then_some(&fitted);
        let qbytes = quantizer.map(KbitQuantizer::to_bytes);
        let mut out = vec![0.0; g.rng.range(0..20usize)];
        let got = decode_into(&bytes, value, quantizer, &mut out);
        match reference(&bytes, value, qbytes.as_deref()) {
            Some(expected) if expected.len() == out.len() => {
                assert!(got.is_ok(), "{bytes:?}: {got:?}");
                assert_eq!(bits_of(&out), bits_of(&expected));
            }
            _ => assert!(got.is_err(), "{bytes:?} decoded"),
        }
    });
}
