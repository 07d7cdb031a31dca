//! Truncation fuzzing: decoding any strict prefix of a valid codec output
//! must fail cleanly or produce a strictly shorter result — never panic,
//! hang, or over-allocate. A torn write is exactly a strict prefix of a
//! valid payload, so these invariants are what the crash-safety recovery
//! path leans on.
//!
//! Deterministic by construction (fixed corpus + `mistique_rng` seeds).

use mistique_compress::{
    basedelta, compress, compress_auto, decompress, delta, lzss, rle, varint, CodecError, Scheme,
};

/// Seeded bytes, so the corpus is identical on every run.
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = mistique_rng::Rng::seed(seed);
    (0..len).map(|_| rng.range(0..=u8::MAX)).collect()
}

/// Corpus of byte streams covering the shapes each codec cares about. All
/// lengths are multiples of 8 so the width-sensitive delta codec accepts
/// them at every width.
fn corpus() -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0u8; 8],
        vec![0xff; 256],                           // one long run
        (0..=255u8).collect(),                     // ascending bytes
        (0..256).map(|i| (i % 2) as u8).collect(), // alternating
        (0..240).map(|i| (i % 3) as u8).collect(), // short runs
        b"abcabcabcabcabcabcabcabc".to_vec(),      // lzss matches
    ];
    // Sorted u32 ids (delta-friendly).
    let mut ids = Vec::new();
    for i in 0u32..128 {
        ids.extend_from_slice(&(i * 3).to_le_bytes());
    }
    out.push(ids);
    // Smooth f32 stream.
    let mut floats = Vec::new();
    for i in 0..128 {
        floats.extend_from_slice(&(1.0f32 + i as f32 * 1e-5).to_le_bytes());
    }
    out.push(floats);
    // Random bytes.
    out.push(random_bytes(7, 512));
    out.push(random_bytes(99, 64));
    out
}

/// Every strict prefix of `encoded`, including the empty one.
fn strict_prefixes(encoded: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..encoded.len()).map(move |cut| &encoded[..cut])
}

#[test]
fn rle_prefixes_never_yield_longer_or_torn_output() {
    for input in corpus() {
        let encoded = rle::compress(&input);
        let full = rle::decompress(&encoded).expect("valid stream decodes");
        assert_eq!(full, input);
        for prefix in strict_prefixes(&encoded) {
            // A cut at a (run, byte) pair boundary legally decodes to a
            // strict prefix of the original — but never to all of it.
            if let Some(partial) = rle::decompress(prefix) {
                assert!(partial.len() < input.len());
                assert_eq!(partial[..], input[..partial.len()]);
            }
        }
    }
}

#[test]
fn lzss_prefixes_never_yield_longer_or_torn_output() {
    for input in corpus() {
        let encoded = lzss::compress(&input);
        assert_eq!(lzss::decompress(&encoded), Some(input.clone()));
        for prefix in strict_prefixes(&encoded) {
            if let Some(partial) = lzss::decompress(prefix) {
                // Token groups decode front-to-back, so any successful
                // partial decode is a strict prefix of the original.
                assert!(partial.len() < input.len());
                assert_eq!(partial[..], input[..partial.len()]);
            }
        }
    }
}

#[test]
fn delta_prefixes_always_rejected() {
    for input in corpus() {
        for w in [1usize, 4, 8] {
            let encoded = delta::compress(&input, w).expect("aligned corpus");
            assert_eq!(delta::decompress(&encoded, w), Some(input.clone()));
            // The value-count header makes every truncation detectable.
            for prefix in strict_prefixes(&encoded) {
                assert_eq!(
                    delta::decompress(prefix, w),
                    None,
                    "delta{w} accepted a {}-of-{} byte prefix",
                    prefix.len(),
                    encoded.len()
                );
            }
        }
    }
}

#[test]
fn varint_prefixes_always_rejected() {
    for value in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX / 3, u64::MAX] {
        let mut encoded = Vec::new();
        varint::write_u64(&mut encoded, value);
        let mut pos = 0;
        assert_eq!(varint::read_u64(&encoded, &mut pos), Some(value));
        assert_eq!(pos, encoded.len());
        for prefix in strict_prefixes(&encoded) {
            let mut pos = 0;
            assert_eq!(varint::read_u64(prefix, &mut pos), None);
        }
    }
}

#[test]
fn frame_prefixes_always_error() {
    let schemes = [Scheme::Raw, Scheme::Rle, Scheme::Lzss, Scheme::Delta4];
    for input in corpus() {
        let mut frames: Vec<Vec<u8>> = schemes.iter().map(|&s| compress(&input, s)).collect();
        frames.push(compress_auto(&input));
        for frame in frames {
            assert_eq!(decompress(&frame).unwrap(), input);
            // The raw-length header turns every partial payload into a
            // LengthMismatch and every broken header into BadHeader/Corrupt
            // — a torn frame can never decode to plausible-but-wrong bytes.
            for prefix in strict_prefixes(&frame) {
                assert!(
                    decompress(prefix).is_err(),
                    "frame prefix {}-of-{} decoded",
                    prefix.len(),
                    frame.len()
                );
            }
        }
    }
}

#[test]
fn basedelta_prefixes_always_rejected() {
    // Each corpus entry doubles as its own perturbed twin: flip a few bytes
    // so the XOR residual is sparse but non-trivial.
    for input in corpus() {
        let mut target = input.clone();
        for (i, b) in target.iter_mut().enumerate() {
            if i % 37 == 0 {
                *b ^= 0x55;
            }
        }
        let digest = (0x1234_5678_9abc_def0u64, 0x0fed_cba9_8765_4321u64);
        let frame = basedelta::encode(&target, &input, digest);
        assert!(basedelta::is_delta_frame(&frame));
        assert_eq!(basedelta::decode(&frame, &input, digest).unwrap(), target);
        // The header's triple length record (base/raw/inner) makes every
        // strict prefix detectable — a torn delta frame can never decode.
        for prefix in strict_prefixes(&frame) {
            assert!(
                basedelta::decode(prefix, &input, digest).is_err(),
                "basedelta prefix {}-of-{} decoded",
                prefix.len(),
                frame.len()
            );
        }
    }
}

#[test]
fn basedelta_wrong_base_always_rejected() {
    let base = random_bytes(11, 256);
    let mut target = base.clone();
    target[13] ^= 0xff;
    let digest = (42u64, 43u64);
    let frame = basedelta::encode(&target, &base, digest);

    // Wrong digest — a stale or remapped base — must be refused outright.
    assert!(basedelta::decode(&frame, &base, (42, 44)).is_err());
    // Right digest but different base bytes: the base-length check catches a
    // length change; same-length corruption is the digest's job upstream.
    let short_base = &base[..128];
    assert!(basedelta::decode(&frame, short_base, digest).is_err());
    // Untouched frame with the true base still round-trips.
    assert_eq!(basedelta::decode(&frame, &base, digest).unwrap(), target);
}

#[test]
fn absurd_length_headers_fail_without_allocating() {
    // Corrupt headers declaring astronomically large outputs must return an
    // error, not reserve memory first. If any of these tried to allocate,
    // the test process would abort rather than fail.
    let mut huge = Vec::new();
    varint::write_u64(&mut huge, u64::MAX);

    // rle: one run of u64::MAX bytes.
    let mut rle_bomb = huge.clone();
    rle_bomb.push(0x41);
    assert_eq!(rle::decompress(&rle_bomb), None);

    // delta: u64::MAX values declared, one byte of payload.
    let mut delta_bomb = huge.clone();
    delta_bomb.push(0);
    for w in [1usize, 4, 8] {
        assert_eq!(delta::decompress(&delta_bomb, w), None);
    }

    // frame: valid scheme byte, absurd raw length, no payload.
    let mut frame_bomb = vec![Scheme::Raw as u8];
    varint::write_u64(&mut frame_bomb, u64::MAX);
    assert!(decompress(&frame_bomb).is_err());
}

#[test]
fn random_garbage_decodes_are_total() {
    // Feeding arbitrary bytes to every decoder terminates with a clean
    // verdict (Some/None/Err) — no panic, no hang.
    for seed in 0..200u64 {
        let garbage = random_bytes(seed, (seed as usize % 96) + 1);
        // RLE expansion is bounded only by the caller's cap (the format has
        // no total-length header) — use the limit API as real callers do.
        let _ = rle::decompress_with_limit(&garbage, 1 << 20);
        let _ = lzss::decompress(&garbage);
        for w in [1usize, 4, 8] {
            let _ = delta::decompress(&garbage, w);
        }
        let _ = decompress(&garbage);
        let _ = basedelta::decode(&garbage, &garbage, (0, 0));
        let mut pos = 0;
        let _ = varint::read_u64(&garbage, &mut pos);
    }
}

#[test]
fn error_variants_are_reported_not_panicked() {
    // A minimal check that the distinct failure modes surface as the right
    // CodecError variants (the store maps these into StoreError::Codec).
    assert_eq!(decompress(&[]), Err(CodecError::BadHeader));
    // Unknown scheme bytes — 4, 5, 6 named codecs no writer ever emitted.
    for scheme in [4u8, 5, 6, 200] {
        assert_eq!(decompress(&[scheme]), Err(CodecError::BadHeader));
        assert_eq!(decompress(&[scheme, 8, 0, 0]), Err(CodecError::BadHeader));
    }
    let frame = compress(b"hello world hello world", Scheme::Lzss);
    match decompress(&frame[..frame.len() - 1]) {
        Err(CodecError::Corrupt) | Err(CodecError::LengthMismatch { .. }) => {}
        other => panic!("torn frame gave {other:?}"),
    }
}
