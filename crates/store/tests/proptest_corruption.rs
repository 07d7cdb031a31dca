//! Corruption property of the partition format: random partitions, one
//! random byte flipped per case, read by a freshly opened store.
//!
//! - A get that decodes the flipped member, or the flipped file's head (the
//!   container header, the member table, the directory and the trailer),
//!   returns `Err`: never a panic, never other bytes.
//! - A get that decodes only intact members returns exactly what was put.
//! - The recovery sweep quarantines the flipped file and no other.
//!
//! Chunks are stored raw (no delta frames), so a get decodes exactly one
//! member: the one its digest names in the directory.

use std::path::{Path, PathBuf};

use mistique_compress::{decompress, member_table};
use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_store::{ChunkKey, DataStore, DataStoreConfig, PlacementPolicy};
use mistique_testkit::{cases, finite_f64};

fn partition_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("part_") && name.ends_with(".bin")
        })
        .collect();
    files.sort();
    files
}

/// The chunk digests of a sealed file's directory, in member order (member
/// `i + 1` holds entry `i`).
fn directory(sealed: &[u8]) -> Vec<(u64, u64)> {
    let table = member_table(&sealed[..sealed.len() - 8]).unwrap();
    let dir = decompress(&sealed[table[0].clone()]).unwrap();
    let word = |e: &[u8], at: usize| u64::from_le_bytes(e[at..at + 8].try_into().unwrap());
    dir[4..]
        .chunks_exact(24)
        .map(|e| (word(e, 0), word(e, 8)))
        .collect()
}

#[test]
fn a_flipped_byte_fails_the_gets_that_decode_it_and_no_other() {
    cases(40, 0xf1195, |g| {
        let tmp = mistique_testkit::tempdir().unwrap();
        let config = DataStoreConfig {
            policy: PlacementPolicy::ByIntermediate,
            partition_target_bytes: g.rng.range(512usize..16 << 10),
            delta_enabled: false,
            ..DataStoreConfig::default()
        };
        let mut ds = DataStore::open(tmp.path(), config.clone()).unwrap();
        let n = g.len(1..40);
        let mut put = Vec::with_capacity(n);
        for c in 0..n {
            let key = ChunkKey::new(format!("m.i{}", g.rng.range(0..3u32)), format!("c{c}"), 0);
            // Runs of small integers compress; uniform bit patterns do not.
            let vals = if g.rng.chance(0.5) {
                g.vec(0..400, |rng| f64::from(rng.range(0..4u32)))
            } else {
                g.vec(0..400, finite_f64)
            };
            let chunk = ColumnChunk::new(ColumnData::F64(vals));
            ds.put_chunk(key.clone(), &chunk).unwrap();
            put.push((key, chunk.to_bytes()));
        }
        ds.flush().unwrap();
        let catalog = ds.export_catalog();
        drop(ds);

        let files = partition_files(tmp.path());
        let victim = &files[g.rng.range(0..files.len())];
        let sealed = std::fs::read(victim).unwrap();
        let mut damaged = sealed.clone();
        let at = g.rng.range(0..damaged.len());
        damaged[at] ^= g.rng.range(1..=u8::MAX);
        std::fs::write(victim, &damaged).unwrap();
        let table = member_table(&sealed[..sealed.len() - 8]).unwrap();
        // The member the flip landed in; `None` for the head or the trailer.
        let hit = table[1..]
            .iter()
            .position(|r| r.contains(&at))
            .map(|i| i + 1);
        let members = directory(&sealed);

        let mut ds = DataStore::open(tmp.path(), config).unwrap();
        ds.import_catalog(catalog.clone());
        for (key, bytes) in &put {
            let entry = catalog.entries.iter().find(|e| &e.key == key).unwrap();
            let file = tmp.path().join(format!("part_{:08x}.bin", entry.partition));
            // A digest stored twice resolves to its later copy.
            let member = members
                .iter()
                .rposition(|d| *d == entry.digest)
                .map(|i| i + 1);
            let decodes_flip = &file == victim && (hit.is_none() || hit == member);
            ds.clear_read_cache();
            match ds.get_chunk(key) {
                Ok(got) => {
                    assert!(!decodes_flip, "flip at {at} of {victim:?}: {key:?} read");
                    assert!(&got.to_bytes() == bytes, "{key:?}: other bytes");
                }
                Err(e) => assert!(decodes_flip, "{key:?} failed on an intact member: {e}"),
            }
        }

        let report = ds.recover().unwrap();
        assert_eq!(report.quarantined, 1, "flip at {at} of {victim:?}");
        assert_eq!(report.partitions_ok as usize, files.len() - 1);
    });
}
