//! Truncation fuzzing: decoding any strict prefix of a valid codec output
//! must fail cleanly or produce a strictly shorter result — never panic,
//! hang, or over-allocate. A torn write is exactly a strict prefix of a
//! valid payload, so these invariants are what the crash-safety recovery
//! path leans on.
//!
//! Deterministic by construction (fixed corpus + `mistique_rng` seeds).

use mistique_compress::{
    basedelta, compress, compress_auto, compress_members, decompress, delta, lzss, member_ranges,
    rle, varint, CodecError, Scheme,
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

/// The corpus as a members container's members would see it: each entry
/// split into a few pieces of uneven length (empty ones included).
fn as_members(input: &[u8]) -> Vec<&[u8]> {
    let cuts = [
        0,
        input.len() / 5,
        input.len() / 5,
        input.len() / 2,
        input.len(),
    ];
    cuts.windows(2).map(|w| &input[w[0]..w[1]]).collect()
}

#[test]
fn frame_prefixes_always_error() {
    let schemes = [Scheme::Raw, Scheme::Rle, Scheme::Lzss, Scheme::Delta4];
    for input in corpus() {
        let mut frames: Vec<Vec<u8>> = schemes.iter().map(|&s| compress(&input, s)).collect();
        frames.push(compress_auto(&input));
        frames.push(compress_members(&as_members(&input)));
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
fn member_container_prefixes_and_tables_always_error() {
    for input in corpus() {
        let members = as_members(&input);
        let frame = compress_members(&members);
        let ranges = member_ranges(&frame).expect("valid container");
        assert_eq!(ranges.len(), members.len());
        for (r, m) in ranges.iter().zip(&members) {
            assert_eq!(
                decompress(&frame[r.clone()]).unwrap(),
                *m,
                "one member alone"
            );
        }
        // A torn container never yields a member table: a cut inside the
        // table leaves it unreadable, a cut inside a member leaves the table
        // overrunning the frame.
        for prefix in strict_prefixes(&frame) {
            assert!(
                member_ranges(prefix).is_err(),
                "{}-of-{}",
                prefix.len(),
                frame.len()
            );
        }
    }
}

/// A members container assembled by hand from already-encoded member
/// frames, with a declared raw length and member count of our choosing.
fn container(raw_len: u64, count: u64, lens: &[u64], frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = vec![Scheme::Members as u8];
    varint::write_u64(&mut out, raw_len);
    varint::write_u64(&mut out, count);
    for &l in lens {
        varint::write_u64(&mut out, l);
    }
    for f in frames {
        out.extend_from_slice(f);
    }
    out
}

#[test]
fn malformed_member_tables_are_rejected() {
    let a = compress_auto(b"first member, first member");
    let b = compress_auto(&[9u8; 64]);
    let lens = [a.len() as u64, b.len() as u64];
    let frames = [a.clone(), b.clone()];
    let raw = 26 + 64;
    // The honest container decodes to the members concatenated.
    let good = container(raw, 2, &lens, &frames);
    assert_eq!(member_ranges(&good).unwrap().len(), 2);
    let mut both = b"first member, first member".to_vec();
    both.extend_from_slice(&[9u8; 64]);
    assert_eq!(decompress(&good).unwrap(), both);

    let cases: Vec<(&str, Vec<u8>)> = vec![
        // The table claims more bytes than the frame holds.
        (
            "table overruns",
            container(raw, 2, &[lens[0], lens[1] + 1], &frames),
        ),
        (
            "length past usize",
            container(raw, 2, &[lens[0], u64::MAX], &frames),
        ),
        // A member count the table and payload cannot back.
        ("count too high", container(raw, 3, &lens, &frames)),
        ("absurd count", container(raw, u64::MAX, &lens, &frames)),
        // Fewer members declared than the payload carries.
        ("trailing frame", container(raw, 1, &lens[..1], &frames)),
        // Members summing to another length than the container declares.
        ("raw length", container(raw + 1, 2, &lens, &frames)),
        // A container inside a container.
        ("nested", {
            let inner = good.clone();
            container(raw, 1, &[inner.len() as u64], &[inner])
        }),
        // A member whose scheme byte is unknown.
        ("unknown member", {
            let mut bad = a.clone();
            bad[0] = 99;
            container(raw, 2, &lens, &[bad, b.clone()])
        }),
    ];
    for (what, frame) in cases {
        assert!(member_ranges(&frame).is_err(), "{what}: table accepted");
        assert!(decompress(&frame).is_err(), "{what}: container decoded");
    }
}

#[test]
fn corrupted_member_containers_never_panic() {
    // No checksum lives at this layer (the partition trailer is the store's),
    // so a flipped payload byte may decode to other bytes — but every
    // verdict must be a clean Ok or Err.
    for (k, input) in corpus().iter().enumerate() {
        let frame = compress_members(&as_members(input));
        let mut rng = mistique_rng::Rng::seed(k as u64);
        for _ in 0..64 {
            let mut damaged = frame.clone();
            let at = rng.range(0..damaged.len());
            damaged[at] ^= rng.range(1..=u8::MAX);
            if let Ok(ranges) = member_ranges(&damaged) {
                for r in ranges {
                    let _ = decompress(&damaged[r]);
                }
            }
            let _ = decompress(&damaged);
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
    // Unknown scheme bytes — 5 and 6 named codecs no writer ever emitted.
    for scheme in [5u8, 6, 200] {
        assert_eq!(decompress(&[scheme]), Err(CodecError::BadHeader));
        assert_eq!(decompress(&[scheme, 8, 0, 0]), Err(CodecError::BadHeader));
    }
    // 4 is the members container: a header without a member table is an
    // error too, never a panic.
    assert_eq!(decompress(&[4]), Err(CodecError::BadHeader));
    assert!(decompress(&[4, 8, 0, 0]).is_err());
    let frame = compress(b"hello world hello world", Scheme::Lzss);
    match decompress(&frame[..frame.len() - 1]) {
        Err(CodecError::Corrupt) | Err(CodecError::LengthMismatch { .. }) => {}
        other => panic!("torn frame gave {other:?}"),
    }
}
