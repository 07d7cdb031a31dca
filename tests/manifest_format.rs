//! The manifest's on-disk format, pinned from outside: hand-written
//! version-2 documents (DESIGN.md "Manifest and spec format") must reopen,
//! with or without their optional fields; hostile ones must fail with an
//! error, never a panic or a silently defaulted field; and a store of an
//! earlier format version is refused without a byte of it changed.
//!
//! The golden documents describe one partition that the test lays down by
//! driving a `DataStore` directly with fixed values, so the content digest
//! and length they name are constants.

use std::path::{Path, PathBuf};
use std::time::Duration;

use mistique_core::{
    CaptureScheme, FetchStrategy, Mistique, MistiqueConfig, MistiqueError, ModelKind, ValueScheme,
};
use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_store::{ChunkKey, DataStore, DataStoreConfig, Partition, PlacementPolicy};

const MANIFEST: &str = "mistique_manifest.json";
const STORED: &str = "golden.interm0_ReadCSV";

/// A version-2 manifest with every optional field present. One line, as
/// `to_string` leaves it, except that `version` comes last.
const GOLDEN: &str = concat!(
    r#"{"models":[{"id":"golden","kind":"Trad","n_stages":1,"model_load":{"secs":0,"nanos":1200},"#,
    r#""n_examples":64,"intermediates":["golden.interm0_ReadCSV"]},"#,
    r#"{"id":"net@epoch1","kind":"Dnn","n_stages":2,"model_load":{"secs":1,"nanos":200000000},"#,
    r#""n_examples":10,"intermediates":["net@epoch1.layer0","net@epoch1.layer1"]}],"#,
    r#""intermediates":[{"id":"golden.interm0_ReadCSV","model_id":"golden","stage_index":0,"#,
    r#""n_rows":64,"columns":["price"],"scheme":{"value":"Full","pool_sigma":null},"#,
    r#""materialized":true,"stored_bytes":LEN,"exec_time":{"secs":0,"nanos":52000},"#,
    r#""cum_exec_time":{"secs":0,"nanos":52000},"n_queries":3,"quantizer":null,"#,
    r#""threshold":null,"shape":null,"delta_encoded":false},"#,
    r#"{"id":"net@epoch1.layer0","model_id":"net@epoch1","stage_index":0,"n_rows":10,"#,
    r#""columns":["n0","n1"],"scheme":{"value":{"Kbit":{"bits":8}},"pool_sigma":2},"#,
    r#""materialized":false,"stored_bytes":0,"exec_time":{"secs":1,"nanos":500},"#,
    r#""cum_exec_time":{"secs":1,"nanos":500},"n_queries":0,"quantizer":[1,2,255],"#,
    r#""threshold":null,"shape":[4,2,2],"delta_encoded":true},"#,
    r#"{"id":"net@epoch1.layer1","model_id":"net@epoch1","stage_index":1,"n_rows":10,"#,
    r#""columns":["n0"],"scheme":{"value":{"Threshold":{"pct":0.995}},"pool_sigma":null},"#,
    r#""materialized":false,"stored_bytes":0,"exec_time":{"secs":0,"nanos":7},"#,
    r#""cum_exec_time":{"secs":1,"nanos":507},"n_queries":18446744073709551615,"#,
    r#""quantizer":null,"threshold":0.1,"shape":null,"delta_encoded":false}],"#,
    r#""catalog":{"entries":[{"key":{"intermediate":"golden.interm0_ReadCSV","column":"price","#,
    r#""block":0},"digest":[DIGEST],"partition":0,"len":LEN}],"#,
    r#""next_partition":1,"stats":{"logical_bytes":LEN,"unique_bytes":LEN,"dedup_hits":0,"#,
    r#""chunks_stored":1,"partitions_created":1,"similarity_placements":0,"delta_puts":0,"#,
    r#""delta_bytes_saved":0},"partition_totals":[[0,LEN]],"deltas":[],"extras":[],"#,
    r#""lsh_items":[{"item":0,"partition":0,"digest":[DIGEST],"#,
    r#""signature":[18446744073709551615,9223372036854775808,3]}]},"version":2}"#,
);

/// Optional members a manifest may lack, each read as its default: the
/// fields added with delta encoding, the pin-only extras and the persisted
/// LSH index.
const ADDED_LATER: [&str; 7] = [
    r#","delta_encoded":false"#,
    r#","delta_encoded":true"#,
    r#","delta_puts":0"#,
    r#","delta_bytes_saved":0"#,
    r#","deltas":[]"#,
    r#","extras":[]"#,
    concat!(
        r#","lsh_items":[{"item":0,"partition":0,"digest":[DIGEST],"#,
        r#""signature":[18446744073709551615,9223372036854775808,3]}]"#,
    ),
];

/// Content digest and serialized length of the one stored chunk: properties
/// of `stored_values()`. A change here means chunks written by earlier
/// builds stopped being addressable.
const DIGEST: (u64, u64) = (10084191007650721473, 10912415090139124366);
const LEN: u64 = 517;

fn fill(text: &str) -> String {
    text.replace("DIGEST", &format!("{},{}", DIGEST.0, DIGEST.1))
        .replace("LEN", &LEN.to_string())
}

fn stored_values() -> Vec<f64> {
    (0..64).map(|i| f64::from(i) * 0.25 - 3.0).collect()
}

/// Seal the one partition the golden manifests describe into `dir`.
fn lay_down_store(dir: &Path) {
    let chunk = ColumnChunk::new(ColumnData::F64(stored_values()));
    let config = DataStoreConfig {
        policy: PlacementPolicy::ByIntermediate,
        ..DataStoreConfig::default()
    };
    let mut ds = DataStore::open(dir, config).unwrap();
    ds.put_chunk(ChunkKey::new(STORED, "price", 0), &chunk)
        .unwrap();
    ds.flush().unwrap();
    let entry = ds.export_catalog().entries.remove(0);
    assert_eq!((entry.digest, entry.len, entry.partition), (DIGEST, LEN, 0));
}

fn reopen_with(dir: &Path, manifest: &str) -> Result<Mistique, MistiqueError> {
    std::fs::write(dir.join(MANIFEST), manifest).unwrap();
    Mistique::reopen(dir, MistiqueConfig::default())
}

fn assert_golden_state(sys: &mut Mistique, ctx: &str) {
    let frame = sys
        .fetch_with_strategy(STORED, None, None, FetchStrategy::Read)
        .unwrap()
        .frame;
    let got = frame.column("price").unwrap().data.to_f64();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&got), bits(&stored_values()), "{ctx}");

    let meta = sys.metadata();
    let model = meta.model("net@epoch1").unwrap();
    assert_eq!(model.kind, ModelKind::Dnn);
    assert_eq!(model.model_load, Duration::new(1, 200_000_000));
    let l0 = meta.intermediate("net@epoch1.layer0").unwrap();
    let kbit = CaptureScheme {
        value: ValueScheme::Kbit { bits: 8 },
        pool_sigma: Some(2),
    };
    assert_eq!(l0.scheme, kbit, "{ctx}");
    assert_eq!(l0.quantizer.as_deref(), Some(&[1u8, 2, 255][..]));
    assert_eq!(l0.shape, Some((4, 2, 2)));
    assert_eq!(l0.exec_time, Duration::new(1, 500));
    let l1 = meta.intermediate("net@epoch1.layer1").unwrap();
    assert_eq!(l1.scheme.value, ValueScheme::Threshold { pct: 0.995 });
    assert_eq!(l1.threshold.map(f32::to_bits), Some(0.1f32.to_bits()));
    assert_eq!(l1.n_queries, u64::MAX);
    assert!(meta.intermediate(STORED).unwrap().materialized);
    // Earlier builds logged no chain digests: nothing binds to these.
    for id in [STORED, "net@epoch1.layer0", "net@epoch1.layer1"] {
        assert_eq!(meta.intermediate(id).unwrap().chain, None, "{ctx}: {id}");
    }
}

#[test]
fn manifests_reopen_and_read_bit_identically_with_or_without_optional_fields() {
    let dir = mistique_testkit::tempdir().unwrap();
    lay_down_store(dir.path());
    let golden = fill(GOLDEN);
    let mut old = golden.clone();
    for member in ADDED_LATER.map(fill) {
        assert!(old.contains(&member), "golden lacks {member}");
        old = old.replace(&member, "");
    }

    let mut sys = reopen_with(dir.path(), &golden).unwrap();
    assert_golden_state(&mut sys, "every field");
    assert!(
        sys.metadata()
            .intermediate("net@epoch1.layer0")
            .unwrap()
            .delta_encoded
    );
    drop(sys);

    let mut sys = reopen_with(dir.path(), &old).unwrap();
    assert_golden_state(&mut sys, "no optional field");
    let l0 = sys.metadata().intermediate("net@epoch1.layer0").unwrap();
    assert!(!l0.delta_encoded, "absent optional field reads as default");

    // What this build writes back reopens too, and says which version it is.
    sys.persist().unwrap();
    drop(sys);
    let written = std::fs::read_to_string(dir.path().join(MANIFEST)).unwrap();
    assert!(written.contains(r#","version":2"#), "{written}");
    let mut sys = Mistique::reopen(dir.path(), MistiqueConfig::default()).unwrap();
    assert_golden_state(&mut sys, "rewritten by this build");
}

/// The catalog's block indices only mean something at the `row_block_size`
/// the chunks were cut at: reopening at another is refused, naming both, and
/// a manifest that predates the field (and so trusts the config) still fails
/// with an error — never a short frame or a panic.
#[test]
fn reopening_at_another_row_block_size_is_refused() {
    use mistique_pipeline::{templates::zillow_pipelines, ZillowData};
    let at = |row_block_size| MistiqueConfig {
        row_block_size,
        ..MistiqueConfig::default()
    };
    let dir = mistique_testkit::tempdir().unwrap();
    let stored = {
        let mut sys = Mistique::open(dir.path(), at(40)).unwrap();
        let data = std::sync::Arc::new(ZillowData::generate(150, 1));
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        sys.persist().unwrap();
        sys.intermediates_of(&id)[3].clone()
    };
    let rows = [104usize, 0, 77];

    for other in [100, 20] {
        match Mistique::reopen(dir.path(), at(other)) {
            Err(MistiqueError::Invalid(msg)) => assert!(
                msg.contains("row_block_size 40")
                    && msg.contains(&format!("row_block_size {other}")),
                "{msg}"
            ),
            Err(e) => panic!("reopen at {other}: expected Invalid, got {e}"),
            Ok(_) => panic!("reopen at {other} succeeded"),
        }
    }
    let mut sys = Mistique::reopen(dir.path(), at(40)).unwrap();
    let full = sys
        .fetch_with_strategy(&stored, None, None, FetchStrategy::Read)
        .unwrap();
    assert_eq!(full.frame.n_rows(), 105);
    assert_eq!(
        sys.get_rows(&stored, &rows, None).unwrap().frame.n_rows(),
        3
    );
    drop(sys);

    // The same store under a manifest of the earlier shape.
    let written = std::fs::read_to_string(dir.path().join(MANIFEST)).unwrap();
    let field = r#","row_block_size":40"#;
    assert!(written.contains(field), "{written}");
    std::fs::write(dir.path().join(MANIFEST), written.replace(field, "")).unwrap();
    for other in [100, 20] {
        let mut sys = Mistique::reopen(dir.path(), at(other)).unwrap();
        let read = sys.fetch_with_strategy(&stored, None, None, FetchStrategy::Read);
        assert!(
            read.is_err(),
            "read at {other}: {:?}",
            read.map(|r| r.frame.n_rows())
        );
        // `[104]` alone is in range of the misread block it lands in (at
        // 100: block 1, index 4 — stored row 44), so only an exact check
        // of each block's length catches it.
        for rows in [&rows[..], &[104]] {
            assert!(
                sys.get_rows(&stored, rows, None).is_err(),
                "rows {rows:?} at {other}"
            );
        }
    }
}

/// Hostile input: every row must be `Invalid` with the place named — none
/// may panic, and none may reopen with a field quietly defaulted.
#[test]
fn hostile_manifests_are_errors_that_name_the_field() {
    let dir = mistique_testkit::tempdir().unwrap();
    lay_down_store(dir.path());
    let golden = fill(GOLDEN);

    for cut in 0..golden.len() {
        if golden.is_char_boundary(cut) {
            let got = reopen_with(dir.path(), &golden[..cut]);
            assert!(
                matches!(got, Err(MistiqueError::Invalid(_))),
                "truncated at byte {cut}"
            );
        }
    }

    let v2 = r#""version":2}"#;
    let head = r#"{"models""#;
    let cases: &[(&str, &str, &str)] = &[
        (
            v2,
            r#""version":"2"}"#,
            "manifest.version: expected an integer",
        ),
        (
            head,
            r#"{"verson":2,"models""#,
            "manifest: unknown field \"verson\"",
        ),
        (head, r#"{"models":[],"models""#, "duplicate key \"models\""),
        (
            r#""next_partition":1,"#,
            "",
            "manifest.catalog: missing field \"next_partition\"",
        ),
        (
            r#""deltas":[]"#,
            r#""delta":[]"#,
            "manifest.catalog: unknown field \"delta\"",
        ),
        (
            r#""block":0"#,
            r#""block":4294967296"#,
            "entries[0].key.block: 4294967296 is out of range for u32",
        ),
        (
            r#""block":0"#,
            r#""block":0.0"#,
            "entries[0].key.block: expected an integer in",
        ),
        (
            r#""block":0"#,
            r#""block":-1"#,
            "entries[0].key.block: expected an integer in",
        ),
        (
            r#""partition":0,"len""#,
            r#""partition":"0","len""#,
            "entries[0].partition: expected an integer, got a string",
        ),
        (
            r#""kind":"Dnn""#,
            r#""kind":"Rnn""#,
            "manifest.models[1].kind: unknown variant \"Rnn\"",
        ),
        (
            r#"{"Kbit":{"bits":8}}"#,
            r#"{"Kbit":{"bits":8,"x":0}}"#,
            "scheme.value.Kbit: unknown field \"x\"",
        ),
        (
            r#"{"Kbit":{"bits":8}}"#,
            r#""Kbit""#,
            "scheme.value: variant Kbit needs its fields",
        ),
        (
            r#""value":"Full""#,
            r#""value":{"Full":{}}"#,
            "scheme.value: variant Full takes no fields",
        ),
        (
            r#"[1,2,255]"#,
            r#"[1,2,256]"#,
            "quantizer[2]: 256 is out of range for u8",
        ),
        (
            r#""shape":[4,2,2]"#,
            r#""shape":[4,2]"#,
            "shape: expected 3 elements, got 2",
        ),
        (
            r#""threshold":0.1"#,
            r#""threshold":1e40"#,
            "threshold: 1e40 is not a finite f32",
        ),
        (
            r#""nanos":1200"#,
            r#""nanos":1000000000"#,
            "model_load.nanos: 1000000000 is out of range",
        ),
        (
            r#""materialized":true"#,
            r#""materialized":1"#,
            "materialized: expected a boolean, got a number",
        ),
        (
            r#""delta_encoded":true"#,
            r#""delta_encoded":true,"chain":[1]"#,
            "intermediates[1].chain: expected 2 elements, got 1",
        ),
        (
            r#"9223372036854775808,3]"#,
            r#"18446744073709551616,3]"#,
            "lsh_items[0].signature[1]: expected an integer in",
        ),
    ];
    for (from, to, want) in cases {
        let doc = golden.replacen(from, to, 1);
        assert_ne!(doc, golden, "row {from:?} edits nothing");
        match reopen_with(dir.path(), &doc) {
            Err(MistiqueError::Invalid(msg)) => {
                assert!(
                    msg.contains(want),
                    "{from} -> {to}\n  gave {msg}\n  want {want}"
                )
            }
            Err(other) => panic!("{from} -> {to}: expected Invalid, got {other}"),
            Ok(_) => panic!("{from} -> {to}: reopened"),
        }
    }

    // A version this build does not read is the typed error, naming both.
    match reopen_with(dir.path(), &golden.replace(v2, r#""version":3}"#)) {
        Err(MistiqueError::UnsupportedVersion {
            found: 3,
            supported: 2,
        }) => {}
        other => panic!("version 3: {:?}", other.map(|_| ())),
    }

    // Deep nesting is an error from the parser, not a stack overflow.
    let deep = format!("{}{}", r#"{"models":"#, "[".repeat(1_000_000));
    assert!(matches!(
        reopen_with(dir.path(), &deep),
        Err(MistiqueError::Invalid(_))
    ));
}

/// Every file and directory under `dir`, by path relative to it, with a
/// file's bytes.
fn tree_of(dir: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            let rel = path.strip_prefix(dir).unwrap().to_path_buf();
            if path.is_dir() {
                stack.push(path);
                out.push((rel, None));
            } else {
                out.push((rel, Some(std::fs::read(&path).unwrap())));
            }
        }
    }
    out.sort();
    out
}

/// `tests/fixtures/store_v1` is the golden store above as a version-1 build
/// left it: the partition sealed with a trailer over the whole file and no
/// per-member hashes, and the manifest that build wrote back. Reopening it
/// is the typed error naming both versions — also under a manifest that
/// predates the `version` field — and leaves every file as it was: the
/// refusal comes before the recovery pass, which could not verify the
/// partition and would quarantine it.
#[test]
fn stores_of_an_earlier_format_are_refused_and_left_byte_identical() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/store_v1");
    let dir = mistique_testkit::tempdir().unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.path().join(path.file_name().unwrap())).unwrap();
    }
    let part = std::fs::read(dir.path().join("part_00000000.bin")).unwrap();
    assert!(Partition::verify(&part).is_err(), "a version-1 partition");
    let manifest = std::fs::read_to_string(dir.path().join(MANIFEST)).unwrap();
    let unversioned = manifest.replace(r#","version":1"#, "");
    assert_ne!(unversioned, manifest, "the fixture records its version");

    for text in [&manifest, &unversioned] {
        std::fs::write(dir.path().join(MANIFEST), text).unwrap();
        let before = tree_of(dir.path());
        match Mistique::reopen(dir.path(), MistiqueConfig::default()) {
            Err(
                e @ MistiqueError::UnsupportedVersion {
                    found: 1,
                    supported: 2,
                },
            ) => assert_eq!(e.to_string(), "partition/manifest version 1 (supported: 2)"),
            other => panic!("expected the version error, got {:?}", other.map(|_| ())),
        }
        assert!(tree_of(dir.path()) == before, "reopen changed the store");
    }
}
