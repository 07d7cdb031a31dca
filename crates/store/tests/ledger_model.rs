//! Stateful model test of the DataStore's chunk ledger: seeded random
//! sequences of every operation that touches it — puts (new, exact
//! duplicate, near-duplicate, overwrite; both placement policies; dedup on
//! and off), retraction, delta re-encoding, flush, compaction, cache clears
//! and a full export → reopen → import → recover cycle — checked after
//! **every** step against a plain `HashMap<ChunkKey, Vec<u8>>`: each mapped
//! key reads back bit-identically at `parallelism` 1 and 4, each retracted
//! key is `NotFound`, and `DataStore::check_invariants` holds.
//!
//! Below it, one focused case per accounting bug the checker found at the
//! parent of the commit that introduced the ledger.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mistique_dataframe::{ColumnChunk, ColumnData};
use mistique_rng::Rng;
use mistique_store::{ChunkKey, DataStore, DataStoreConfig, FaultyFs, PlacementPolicy, StoreError};

const SEQUENCES: u64 = 200;
const OPS_PER_SEQUENCE: usize = 60;

fn config() -> DataStoreConfig {
    DataStoreConfig {
        // A pool and read cache of a few partitions, and partitions of a
        // few chunks: constant eviction, sealing and cache misses.
        mem_capacity: 24 << 10,
        partition_target_bytes: 6 << 10,
        ..DataStoreConfig::default()
    }
}

fn open(fs: &FaultyFs) -> DataStore {
    DataStore::open_with_backend("/vfs", config(), Arc::new(fs.clone())).unwrap()
}

/// A chunk of one of three value families; `stride > 0` bumps every
/// `stride`-th value, which keeps the MinHash similarity to the family's
/// base above `delta_tau` while the bytes differ.
fn family_chunk(family: u64, stride: usize) -> ColumnChunk {
    let modulus = [97, 61, 31][family as usize];
    let mut vals: Vec<f64> = (0..256).map(|i| (i % modulus) as f64).collect();
    if stride > 0 {
        for v in vals.iter_mut().step_by(stride) {
            *v += 1.0;
        }
    }
    ColumnChunk::new(ColumnData::F64(vals))
}

fn unrelated_chunk(rng: &mut Rng) -> ColumnChunk {
    let n = rng.range(32..200usize);
    let vals = (0..n).map(|_| rng.range(-1e6..1e6)).collect();
    ColumnChunk::new(ColumnData::F64(vals))
}

fn random_key(rng: &mut Rng) -> ChunkKey {
    let interm = format!("m.i{}", rng.range(0..4u32));
    let column = ["a", "b"][rng.range(0..2usize)];
    ChunkKey::new(interm, column, rng.range(0..2u32))
}

struct Model {
    fs: FaultyFs,
    store: DataStore,
    reference: HashMap<ChunkKey, Vec<u8>>,
    retracted: HashSet<ChunkKey>,
    /// Chunks a `reencode_as_delta` shrank, and partitions compaction
    /// rewrote and removed — proof the sequences reach those paths.
    reencoded: u64,
    rewritten: u64,
    removed: u64,
}

impl Model {
    fn new() -> Model {
        let fs = FaultyFs::new();
        Model {
            store: open(&fs),
            fs,
            reference: HashMap::new(),
            retracted: HashSet::new(),
            reencoded: 0,
            rewritten: 0,
            removed: 0,
        }
    }

    fn existing_key(&self, rng: &mut Rng) -> Option<ChunkKey> {
        let mut keys: Vec<&ChunkKey> = self.reference.keys().collect();
        keys.sort_by_key(|k| (k.intermediate.clone(), k.column.clone(), k.block));
        (!keys.is_empty()).then(|| keys[rng.range(0..keys.len())].clone())
    }

    fn put(&mut self, rng: &mut Rng, key: ChunkKey, chunk: ColumnChunk) {
        let policy = if rng.chance(0.5) {
            PlacementPolicy::ByIntermediate
        } else {
            PlacementPolicy::BySimilarity { tau: 0.5 }
        };
        let dedup = rng.chance(0.7);
        self.store
            .put_chunk_sized(key.clone(), &chunk, policy, dedup)
            .unwrap();
        self.retracted.remove(&key);
        self.reference.insert(key, chunk.to_bytes());
    }

    /// Apply one random operation; returns its name for failure messages.
    fn step(&mut self, rng: &mut Rng) -> &'static str {
        match rng.range(0..16u32) {
            0..=2 => {
                let stride = [0, 32, 64, 128][rng.range(0..4usize)];
                let chunk = family_chunk(rng.range(0..3u64), stride);
                let key = random_key(rng);
                self.put(rng, key, chunk);
                "put family member (new / near-duplicate / overwrite)"
            }
            3 => {
                let (key, chunk) = (random_key(rng), unrelated_chunk(rng));
                self.put(rng, key, chunk);
                "put unrelated"
            }
            4 | 5 => {
                let Some(from) = self.existing_key(rng) else {
                    return "put exact duplicate (nothing stored)";
                };
                let chunk = ColumnChunk::from_bytes(&self.reference[&from]).unwrap();
                let to = if rng.chance(0.3) {
                    from
                } else {
                    random_key(rng)
                };
                self.put(rng, to, chunk);
                "put exact duplicate"
            }
            6 | 7 => {
                let interm = format!("m.i{}", rng.range(0..4u32));
                let outcome = self.store.retract_intermediate(&interm);
                let gone: Vec<ChunkKey> = self
                    .reference
                    .keys()
                    .filter(|k| k.intermediate == interm)
                    .cloned()
                    .collect();
                assert_eq!(outcome.keys_removed, gone.len() as u64);
                for key in gone {
                    self.reference.remove(&key);
                    self.retracted.insert(key);
                }
                "retract_intermediate"
            }
            8 | 9 => {
                if let Some(key) = self.existing_key(rng) {
                    let before = self.store.batch_bytes_hint(std::slice::from_ref(&key));
                    let after = self.store.reencode_as_delta(&key).unwrap();
                    self.reencoded += u64::from(after < before);
                }
                "reencode_as_delta"
            }
            10 => {
                self.store.flush().unwrap();
                "flush"
            }
            11 | 12 => {
                let threshold = [0.3, 0.7, 1.0][rng.range(0..3usize)];
                let report = self.store.compact(threshold).unwrap();
                self.rewritten += report.partitions_rewritten;
                self.removed += report.partitions_removed;
                "compact"
            }
            13 => {
                self.store.clear_read_cache();
                "clear_read_cache"
            }
            _ => {
                self.store.flush().unwrap();
                let catalog = self.store.export_catalog();
                self.store = open(&self.fs);
                self.store.import_catalog(catalog);
                let report = self.store.recover().unwrap();
                assert_eq!((report.quarantined, report.missing), (0, 0));
                "flush + export -> reopen -> import -> recover"
            }
        }
    }

    fn check(&mut self, parallelism_first: usize, context: &str) {
        let keys: Vec<ChunkKey> = self.reference.keys().cloned().collect();
        for parallelism in [parallelism_first, 5 - parallelism_first] {
            let got = self
                .store
                .get_chunk_bytes_batch(&keys, parallelism)
                .unwrap_or_else(|e| panic!("{context}: batch read at {parallelism}: {e}"));
            for (key, bytes) in keys.iter().zip(&got) {
                assert_eq!(
                    bytes, &self.reference[key],
                    "{context}: {key:?} at parallelism {parallelism}"
                );
            }
        }
        for key in &self.retracted {
            assert!(
                matches!(self.store.get_chunk(key), Err(StoreError::NotFound)),
                "{context}: retracted {key:?} must be NotFound"
            );
        }
        if let Err(violation) = self.store.check_invariants() {
            panic!("{context}: {violation}");
        }
    }
}

#[test]
fn random_sequences_agree_with_a_hashmap_and_keep_the_invariants() {
    let mut reached = [0u64; 5];
    for seed in 0..SEQUENCES {
        let mut rng = Rng::seed(seed);
        let mut model = Model::new();
        for op in 0..OPS_PER_SEQUENCE {
            let name = model.step(&mut rng);
            model.check(1 + 3 * (op % 2), &format!("seed {seed}, op {op} ({name})"));
        }
        let stats = model.store.stats();
        let counts = [stats.dedup_hits, stats.delta_puts];
        let counts = counts
            .into_iter()
            .chain([model.reencoded, model.rewritten, model.removed]);
        for (total, n) in reached.iter_mut().zip(counts) {
            *total += n;
        }
    }
    let [dedup_hits, delta_puts, reencoded, rewritten, removed] = reached;
    assert!(
        dedup_hits > 500 && delta_puts > 500 && reencoded > 50 && rewritten > 50 && removed > 50,
        "sequences must reach every path: {dedup_hits} dedup hits, {delta_puts} delta puts, \
         {reencoded} re-encodes, {rewritten} rewrites, {removed} removals"
    );
}

fn key(interm: &str) -> ChunkKey {
    ChunkKey::new(interm, "c", 0)
}

fn lsh_items_and_chunks(ds: &DataStore) -> (usize, usize) {
    let catalog = ds.export_catalog();
    let mut digests: HashSet<(u64, u64)> = catalog.entries.iter().map(|e| e.digest).collect();
    digests.extend(catalog.extras.iter().map(|e| e.digest));
    (catalog.lsh_items.len(), digests.len())
}

#[test]
fn compaction_deletes_the_lsh_items_of_the_chunks_it_drops() {
    let fs = FaultyFs::new();
    let mut ds = open(&fs);
    ds.put_chunk(key("m.base"), &family_chunk(0, 0)).unwrap();
    ds.put_chunk(key("m.near"), &family_chunk(0, 64)).unwrap();
    ds.put_chunk(key("m.other"), &family_chunk(1, 0)).unwrap();
    ds.put_chunk(key("m.other"), &family_chunk(2, 0)).unwrap(); // overwrite
    assert_eq!(ds.stats().delta_puts, 1, "m.near is a delta against m.base");
    ds.flush().unwrap();
    // Every non-dedup-hit put under delta_enabled indexed a signature.
    assert_eq!(
        lsh_items_and_chunks(&ds),
        (3, 3),
        "catalog lists live chunks"
    );
    ds.retract_intermediate("m.near");
    ds.retract_intermediate("m.base");
    ds.compact(1.0).unwrap();
    assert_eq!(ds.dead_bytes(), 0);
    assert_eq!(
        lsh_items_and_chunks(&ds),
        (1, 1),
        "only m.other's chunk is left"
    );
    ds.check_invariants().unwrap();

    // Re-put the compacted base under a new key: fresh bytes, fresh item —
    // and a near-duplicate put after it still finds it as a delta base.
    ds.put_chunk(key("m.again"), &family_chunk(0, 0)).unwrap();
    ds.put_chunk(key("m.near2"), &family_chunk(0, 128)).unwrap();
    assert_eq!(ds.stats().delta_puts, 2, "the re-put base serves a delta");
    ds.flush().unwrap();
    assert_eq!(lsh_items_and_chunks(&ds), (3, 3));
    assert_eq!(ds.get_chunk(&key("m.near2")).unwrap(), family_chunk(0, 128));
    ds.check_invariants().unwrap();
}

/// Found by `check_invariants` (iv) at the parent: a STORE_ALL re-put of
/// identical bytes under the same key left the displaced copy neither live
/// nor charged dead, so compaction could never reclaim it.
#[test]
fn store_all_reput_charges_the_displaced_copy_dead() {
    let fs = FaultyFs::new();
    let mut ds = open(&fs);
    let chunk = family_chunk(0, 0);
    let len = chunk.to_bytes().len() as u64;
    for _ in 0..2 {
        ds.put_chunk_sized(key("m.i"), &chunk, PlacementPolicy::ByIntermediate, false)
            .unwrap();
    }
    ds.check_invariants().unwrap();
    assert_eq!(ds.dead_bytes(), len, "the first copy is dead");
    ds.flush().unwrap();
    let report = ds.compact(1.0).unwrap();
    assert_eq!(
        (report.partitions_rewritten, report.bytes_reclaimed),
        (1, len)
    );
    assert_eq!(ds.dead_bytes(), 0);
    ds.check_invariants().unwrap();
    ds.clear_read_cache();
    assert_eq!(ds.get_chunk(&key("m.i")).unwrap(), chunk);
}

/// Found by `check_invariants` (iv) at the parent: a first-time put took its
/// own length *out* of the dead count of the partition it landed in, so a
/// partition receiving overwrites (every demotion of the reclaim ladder)
/// under-reported its dead bytes and compaction skipped it.
#[test]
fn a_new_chunk_does_not_erase_dead_bytes_of_the_partition_it_joins() {
    let fs = FaultyFs::new();
    let mut ds = open(&fs);
    let mut rng = Rng::seed(1);
    let first = unrelated_chunk(&mut rng);
    let dead = first.to_bytes().len() as u64;
    ds.put_chunk(key("m.i"), &first).unwrap();
    ds.put_chunk(key("m.i"), &unrelated_chunk(&mut rng))
        .unwrap(); // the first dies
    assert_eq!(ds.dead_bytes(), dead);
    // A third chunk joins the same open partition and must leave that
    // charge alone.
    ds.put_chunk(ChunkKey::new("m.i", "d", 0), &unrelated_chunk(&mut rng))
        .unwrap();
    assert_eq!(ds.dead_bytes(), dead);
    ds.check_invariants().unwrap();
}

/// Found by the model test at the parent: compaction could drop a dead delta
/// base while a dead delta against it survived in another partition; a
/// dedup re-put of the delta's bytes then revived a frame whose base was
/// gone, and the key read back `NotFound`.
#[test]
fn a_dead_delta_is_not_revived_after_its_base_was_compacted_away() {
    let fs = FaultyFs::new();
    let mut ds = open(&fs);
    ds.put_chunk(key("m.base"), &family_chunk(0, 0)).unwrap();
    ds.flush().unwrap(); // the base gets a partition to itself
    ds.put_chunk(key("m.near"), &family_chunk(0, 64)).unwrap();
    ds.put_chunk(ChunkKey::new("m.near", "keep", 0), &family_chunk(1, 0))
        .unwrap();
    assert_eq!(ds.stats().delta_puts, 1);
    ds.flush().unwrap();
    // Both die; only the base's partition is dead enough to compact.
    ds.retract_intermediate("m.base");
    ds.put_chunk(key("m.near"), &family_chunk(2, 0)).unwrap();
    ds.flush().unwrap();
    let report = ds.compact(0.1).unwrap();
    assert_eq!(
        (report.partitions_removed, report.partitions_rewritten),
        (1, 0)
    );
    ds.check_invariants().unwrap();

    ds.put_chunk(key("m.revived"), &family_chunk(0, 64))
        .unwrap();
    ds.check_invariants().unwrap();
    ds.clear_read_cache();
    assert_eq!(
        ds.get_chunk(&key("m.revived")).unwrap(),
        family_chunk(0, 64)
    );
}
