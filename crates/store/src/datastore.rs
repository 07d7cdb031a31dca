//! The DataStore facade: dedup-aware chunk placement over the buffer pool
//! and disk store (Alg. 4's storage path).

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mistique_compress::basedelta;
use mistique_dataframe::ColumnChunk;
use mistique_dedup::{content_digest, discretize, ContentDigest, LshIndex, MinHasher, Signature};
use mistique_obs::{Counter, Gauge, Histogram, Obs};

use crate::backend::{RealFs, StorageBackend};
use crate::disk::DiskStore;
use crate::lru::LruCache;
use crate::mem::InMemoryStore;
use crate::partition::{Partition, PartitionId};
use crate::StoreError;

/// Logical address of a ColumnChunk:
/// `project.model_intermediate.column` plus the RowBlock index —
/// the same key shape as the paper's `get_intermediates([keys])` API.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// Intermediate id, conventionally `model.intermediate`.
    pub intermediate: String,
    /// Column name within the intermediate.
    pub column: String,
    /// RowBlock index.
    pub block: u32,
}

impl ChunkKey {
    /// Convenience constructor.
    pub fn new(intermediate: impl Into<String>, column: impl Into<String>, block: u32) -> Self {
        ChunkKey {
            intermediate: intermediate.into(),
            column: column.into(),
            block,
        }
    }
}

/// How chunks are routed to Partitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlacementPolicy {
    /// TRAD policy: MinHash/LSH similarity clustering with threshold `tau`
    /// (Sec 4.2.1). Similar chunks share a partition and compress together.
    BySimilarity {
        /// Jaccard similarity threshold τ for joining an existing partition.
        tau: f64,
    },
    /// DNN policy: co-locate all columns of the same intermediate and skip
    /// similarity search (the paper's two DNN simplifications).
    ByIntermediate,
}

/// DataStore tuning knobs.
#[derive(Clone, Debug)]
pub struct DataStoreConfig {
    /// Chunk→Partition routing policy.
    pub policy: PlacementPolicy,
    /// InMemoryStore byte budget.
    pub mem_capacity: usize,
    /// A partition is sealed once it accumulates this many raw bytes.
    pub partition_target_bytes: usize,
    /// MinHash signature length (BySimilarity only).
    pub minhash_hashes: usize,
    /// LSH bands (bands * rows must equal `minhash_hashes`).
    pub lsh_bands: usize,
    /// Bin width used to discretize values before MinHashing.
    pub discretize_bin: f64,
    /// Cache partitions read back from disk (disable to measure raw reads).
    pub read_cache: bool,
    /// Store near-duplicate chunks as base+delta frames: a dedup put whose
    /// MinHash similarity to an already-stored chunk reaches `delta_tau`
    /// may be stored as the XOR difference against that chunk (the *base*)
    /// when the delta frame is actually smaller. Reads resolve the frame
    /// transparently; the base is refcount-pinned while deltas reference it.
    pub delta_enabled: bool,
    /// Minimum estimated Jaccard similarity for a stored chunk to serve as
    /// a delta base. Higher than the placement τ: a delta only pays off
    /// when the chunks are near-identical, not merely cluster-alike.
    pub delta_tau: f64,
}

impl Default for DataStoreConfig {
    fn default() -> Self {
        DataStoreConfig {
            policy: PlacementPolicy::BySimilarity { tau: 0.6 },
            mem_capacity: 64 << 20,
            partition_target_bytes: 1 << 20,
            minhash_hashes: 128,
            lsh_bands: 32,
            discretize_bin: 0.05,
            read_cache: true,
            delta_enabled: true,
            delta_tau: 0.8,
        }
    }
}

/// Counters describing what the store has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes submitted across all `put_chunk` calls (the STORE_ALL volume).
    pub logical_bytes: u64,
    /// Bytes of unique chunks actually placed in partitions.
    pub unique_bytes: u64,
    /// Chunks that were exact-dedup hits.
    pub dedup_hits: u64,
    /// Chunks stored (unique).
    pub chunks_stored: u64,
    /// Partitions created.
    pub partitions_created: u64,
    /// Chunks placed into an existing partition via similarity.
    pub similarity_placements: u64,
    /// Chunks stored as base+delta frames (puts and reclaim re-encodes).
    pub delta_puts: u64,
    /// Raw bytes saved by storing delta frames instead of full chunks.
    pub delta_bytes_saved: u64,
}

/// What retracting an intermediate's chunk references released.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetractOutcome {
    /// Logical chunk keys removed from the catalog.
    pub keys_removed: u64,
    /// Raw chunk bytes whose last reference went away (now dead inside
    /// their partitions, reclaimable by [`DataStore::compact`]).
    pub bytes_released: u64,
}

/// What one [`DataStore::compact`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Sealed on-disk partitions considered.
    pub partitions_scanned: u64,
    /// Partitions rewritten without their dead chunks.
    pub partitions_rewritten: u64,
    /// Fully-dead partitions whose files were removed.
    pub partitions_removed: u64,
    /// Raw (uncompressed) chunk bytes reclaimed.
    pub bytes_reclaimed: u64,
    /// Dead chunks dropped.
    pub chunks_dropped: u64,
}

impl CompactionReport {
    /// Merge another report into this one (a reclaim pass may compact more
    /// than once).
    pub fn absorb(&mut self, other: &CompactionReport) {
        self.partitions_scanned += other.partitions_scanned;
        self.partitions_rewritten += other.partitions_rewritten;
        self.partitions_removed += other.partitions_removed;
        self.bytes_reclaimed += other.bytes_reclaimed;
        self.chunks_dropped += other.chunks_dropped;
    }
}

/// What a [`DataStore::recover`] pass found and did. Every partition file in
/// the directory is accounted for: `partitions_ok + quarantined` covers the
/// on-disk set, and `missing` counts catalog references with no backing file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Partitions on disk whose integrity trailer verified.
    pub partitions_ok: u64,
    /// Partitions that failed verification and were set aside.
    pub quarantined: u64,
    /// Orphaned `*.tmp` files (crash mid-write) removed.
    pub orphans_removed: u64,
    /// Catalog-referenced partitions with no file on disk (and not open in
    /// the buffer pool) — e.g. a crash before the partition was sealed.
    pub missing: u64,
}

/// Cumulative read-path attribution: where chunk reads were served from and
/// how many compressed bytes came off disk per codec. Take one snapshot with
/// [`DataStore::read_attribution`] before a fetch and one after, then
/// [`ReadAttribution::since`] yields the activity of just that fetch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReadAttribution {
    /// Chunk gets issued.
    pub gets: u64,
    /// Serialized chunk bytes returned.
    pub bytes: u64,
    /// Gets served by an open partition in the buffer pool.
    pub mem_hits: u64,
    /// Gets served by the read cache.
    pub cache_hits: u64,
    /// Partition files read (and unsealed) from disk.
    pub disk_reads: u64,
    /// Distinct partitions consulted.
    pub partitions_touched: u64,
    /// Compressed bytes read off disk, per compression codec (sorted by
    /// codec name).
    pub codec_bytes: Vec<(String, u64)>,
}

impl ReadAttribution {
    /// The activity between `earlier` (an older snapshot of the same store)
    /// and `self`.
    pub fn since(&self, earlier: &ReadAttribution) -> ReadAttribution {
        ReadAttribution {
            gets: self.gets.saturating_sub(earlier.gets),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            mem_hits: self.mem_hits.saturating_sub(earlier.mem_hits),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            disk_reads: self.disk_reads.saturating_sub(earlier.disk_reads),
            partitions_touched: self
                .partitions_touched
                .saturating_sub(earlier.partitions_touched),
            codec_bytes: self
                .codec_bytes
                .iter()
                .map(|(codec, v)| {
                    let before = earlier
                        .codec_bytes
                        .iter()
                        .find(|(c, _)| c == codec)
                        .map(|(_, b)| *b)
                        .unwrap_or(0);
                    (codec.clone(), v.saturating_sub(before))
                })
                .filter(|(_, v)| *v > 0)
                .collect(),
        }
    }
}

/// Result of storing one chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// Identical bytes were already stored; only a reference was recorded.
    Deduplicated,
    /// Stored into the given partition.
    Stored(PartitionId),
}

/// Cached metric handles for the chunk hot paths, resolved once per `Obs`
/// so puts and gets never touch the registry lock.
struct StoreMetrics {
    put_count: Counter,
    put_bytes: Counter,
    put_ns: Histogram,
    get_count: Counter,
    get_bytes: Counter,
    get_ns: Histogram,
    dedup_exact_hits: Counter,
    similarity_placements: Counter,
    partitions_created: Counter,
    partitions_sealed: Counter,
    get_mem_hits: Counter,
    get_cache_hits: Counter,
    get_disk_reads: Counter,
    get_partitions_touched: Counter,
    pool_used_bytes: Gauge,
    pool_evictions: Counter,
    read_cache_hits: Counter,
    read_cache_misses: Counter,
    read_cache_evictions: Counter,
    read_cache_bytes: Gauge,
    compaction_runs: Counter,
    compaction_bytes_reclaimed: Counter,
    compaction_partitions_rewritten: Counter,
    delta_puts: Counter,
    delta_bytes_saved: Counter,
    delta_base_pins: Counter,
    delta_rehydrations: Counter,
}

impl StoreMetrics {
    fn new(obs: &Obs) -> StoreMetrics {
        StoreMetrics {
            put_count: obs.counter("store.put.count"),
            put_bytes: obs.counter("store.put.bytes"),
            put_ns: obs.histogram("store.put.ns"),
            get_count: obs.counter("store.get.count"),
            get_bytes: obs.counter("store.get.bytes"),
            get_ns: obs.histogram("store.get.ns"),
            dedup_exact_hits: obs.counter("store.dedup.exact_hits"),
            similarity_placements: obs.counter("store.dedup.similarity_placements"),
            partitions_created: obs.counter("store.partitions.created"),
            partitions_sealed: obs.counter("store.partitions.sealed"),
            get_mem_hits: obs.counter("store.get.mem_hits"),
            get_cache_hits: obs.counter("store.get.cache_hits"),
            get_disk_reads: obs.counter("store.get.disk_reads"),
            get_partitions_touched: obs.counter("store.get.partitions_touched"),
            pool_used_bytes: obs.gauge("store.pool.used_bytes"),
            pool_evictions: obs.counter("store.pool.evictions"),
            read_cache_hits: obs.counter("store.read_cache.hits"),
            read_cache_misses: obs.counter("store.read_cache.misses"),
            read_cache_evictions: obs.counter("store.read_cache.evictions"),
            read_cache_bytes: obs.gauge("store.read_cache.used_bytes"),
            compaction_runs: obs.counter("compaction.runs"),
            compaction_bytes_reclaimed: obs.counter("compaction.bytes_reclaimed"),
            compaction_partitions_rewritten: obs.counter("compaction.partitions_rewritten"),
            delta_puts: obs.counter("store.delta.puts"),
            delta_bytes_saved: obs.counter("store.delta.bytes_saved"),
            delta_base_pins: obs.counter("store.delta.base_pins"),
            delta_rehydrations: obs.counter("store.delta.rehydrations"),
        }
    }
}

/// The DataStore: exact dedup, similarity placement, buffer pool, disk.
pub struct DataStore {
    config: DataStoreConfig,
    obs: Obs,
    metrics: StoreMetrics,
    mem: InMemoryStore,
    disk: DiskStore,
    key_map: HashMap<ChunkKey, ContentDigest>,
    digest_loc: HashMap<ContentDigest, PartitionId>,
    /// Live references per digest: how many logical keys currently resolve
    /// to it. A digest whose count drops to zero is *dead* — still physically
    /// present in its partition, charged to `part_dead` until compaction.
    digest_refs: HashMap<ContentDigest, u32>,
    /// Serialized chunk length per digest (live-byte accounting).
    digest_len: HashMap<ContentDigest, u64>,
    /// Raw chunk bytes ever placed into each partition (dead + live).
    part_total: HashMap<PartitionId, u64>,
    /// Raw bytes of dead chunks per partition; drives the live-ratio test.
    part_dead: HashMap<PartitionId, u64>,
    sealed: HashSet<PartitionId>,
    next_partition: PartitionId,
    /// Per-intermediate open partition (ByIntermediate policy).
    open_by_intermediate: HashMap<String, PartitionId>,
    /// LSH over stored chunk signatures (BySimilarity placement, and —
    /// whatever the placement policy — delta base selection).
    lsh: LshIndex,
    minhasher: MinHasher,
    lsh_item_to_partition: HashMap<u64, PartitionId>,
    /// LSH item → content digest of the chunk it was computed from, so a
    /// similarity hit can name a concrete delta base.
    lsh_item_to_digest: HashMap<u64, ContentDigest>,
    next_lsh_item: u64,
    /// Delta digest → base digest for every chunk stored as a base+delta
    /// frame. Entries outlive the last reference (a dedup resurrect must
    /// re-pin the base) and are dropped only when compaction physically
    /// removes the delta's bytes.
    delta_base: HashMap<ContentDigest, ContentDigest>,
    /// Byte-budgeted LRU over partitions read back from disk; evicts one
    /// victim at a time (never a clear-all).
    read_cache: LruCache<PartitionId, Partition>,
    /// Partitions set aside by [`DataStore::recover`]; reads of chunks in
    /// them fail with [`StoreError::Quarantined`] instead of a decode error.
    quarantined: HashMap<PartitionId, String>,
    /// Cumulative compressed bytes read off disk, per codec (behind a mutex
    /// because parallel partition loads account from worker threads).
    codec_read_bytes: Mutex<HashMap<String, u64>>,
    stats: StoreStats,
}

impl DataStore {
    /// Open a DataStore persisting partitions under `dir` on the real
    /// filesystem.
    pub fn open(dir: impl AsRef<Path>, config: DataStoreConfig) -> Result<DataStore, StoreError> {
        Self::open_with_backend(dir, config, Arc::new(RealFs))
    }

    /// Open a DataStore over an explicit [`StorageBackend`] (fault injection
    /// in tests; the real filesystem in production).
    pub fn open_with_backend(
        dir: impl AsRef<Path>,
        config: DataStoreConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<DataStore, StoreError> {
        assert!(
            config.minhash_hashes.is_multiple_of(config.lsh_bands),
            "minhash_hashes must be divisible by lsh_bands"
        );
        let rows = config.minhash_hashes / config.lsh_bands;
        let obs = Obs::new();
        Ok(DataStore {
            metrics: StoreMetrics::new(&obs),
            obs,
            mem: InMemoryStore::new(config.mem_capacity),
            disk: DiskStore::open_with_backend(dir, backend)?,
            key_map: HashMap::new(),
            digest_loc: HashMap::new(),
            digest_refs: HashMap::new(),
            digest_len: HashMap::new(),
            part_total: HashMap::new(),
            part_dead: HashMap::new(),
            sealed: HashSet::new(),
            next_partition: 0,
            open_by_intermediate: HashMap::new(),
            lsh: LshIndex::new(config.lsh_bands, rows),
            minhasher: MinHasher::new(config.minhash_hashes),
            lsh_item_to_partition: HashMap::new(),
            lsh_item_to_digest: HashMap::new(),
            next_lsh_item: 0,
            delta_base: HashMap::new(),
            read_cache: LruCache::new(config.mem_capacity),
            quarantined: HashMap::new(),
            codec_read_bytes: Mutex::new(HashMap::new()),
            stats: StoreStats::default(),
            config,
        })
    }

    /// The storage backend partitions are written through.
    pub fn backend(&self) -> Arc<dyn StorageBackend> {
        Arc::clone(self.disk.backend())
    }

    /// Replace the store's observability handle (e.g. with one shared by the
    /// whole system) and re-resolve the cached metric handles against it.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        self.metrics = StoreMetrics::new(obs);
    }

    /// The store's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Cumulative read-path attribution so far. Snapshot before and after a
    /// fetch and diff with [`ReadAttribution::since`] to attribute store
    /// activity to one query.
    pub fn read_attribution(&self) -> ReadAttribution {
        let mut codec_bytes: Vec<(String, u64)> = self
            .codec_read_bytes
            .lock()
            .unwrap()
            .iter()
            .map(|(codec, v)| (codec.clone(), *v))
            .collect();
        codec_bytes.sort();
        ReadAttribution {
            gets: self.metrics.get_count.get(),
            bytes: self.metrics.get_bytes.get(),
            mem_hits: self.metrics.get_mem_hits.get(),
            cache_hits: self.metrics.get_cache_hits.get(),
            disk_reads: self.metrics.get_disk_reads.get(),
            partitions_touched: self.metrics.get_partitions_touched.get(),
            codec_bytes,
        }
    }

    /// Account compressed bytes coming off disk against their codec (feeds
    /// [`DataStore::read_attribution`] and the `read.codec.*` counters).
    /// Takes the pieces rather than `&self` so parallel partition-load
    /// workers can call it through shared references.
    fn note_codec_read(obs: &Obs, per_codec: &Mutex<HashMap<String, u64>>, sealed: &[u8]) {
        let codec = mistique_compress::scheme_of(sealed)
            .map(|s| s.name())
            .unwrap_or("unknown");
        *per_codec
            .lock()
            .unwrap()
            .entry(codec.to_string())
            .or_insert(0) += sealed.len() as u64;
        obs.counter(&format!("read.codec.{codec}.bytes"))
            .add(sealed.len() as u64);
        obs.counter(&format!("read.codec.{codec}.count")).inc();
    }

    /// Store one chunk under its logical key using the configured placement
    /// policy. Identical chunk bytes seen before are not stored again
    /// (exact dedup).
    pub fn put_chunk(
        &mut self,
        key: ChunkKey,
        chunk: &ColumnChunk,
    ) -> Result<PutOutcome, StoreError> {
        self.put_chunk_with(key, chunk, self.config.policy, true)
    }

    /// Store one chunk with an explicit placement policy, optionally
    /// bypassing de-duplication entirely (`dedup = false` models the paper's
    /// STORE_ALL baseline: every chunk is stored even if identical bytes
    /// exist).
    pub fn put_chunk_with(
        &mut self,
        key: ChunkKey,
        chunk: &ColumnChunk,
        policy: PlacementPolicy,
        dedup: bool,
    ) -> Result<PutOutcome, StoreError> {
        self.put_chunk_sized(key, chunk, policy, dedup)
            .map(|(outcome, _)| outcome)
    }

    /// [`DataStore::put_chunk_with`], additionally returning the serialized
    /// chunk size in bytes. The chunk is serialized exactly once; callers
    /// that need byte accounting (e.g. `stored_bytes` metadata) should use
    /// this instead of serializing the chunk again themselves.
    pub fn put_chunk_sized(
        &mut self,
        key: ChunkKey,
        chunk: &ColumnChunk,
        policy: PlacementPolicy,
        dedup: bool,
    ) -> Result<(PutOutcome, u64), StoreError> {
        let t0 = Instant::now();
        let out = self.put_chunk_inner(key, chunk, policy, dedup);
        self.metrics.put_count.inc();
        self.metrics.put_ns.record_duration(t0.elapsed());
        self.metrics
            .pool_used_bytes
            .set_u64(self.mem.used_bytes() as u64);
        out
    }

    fn put_chunk_inner(
        &mut self,
        key: ChunkKey,
        chunk: &ColumnChunk,
        policy: PlacementPolicy,
        dedup: bool,
    ) -> Result<(PutOutcome, u64), StoreError> {
        let bytes = chunk.to_bytes();
        let serialized_len = bytes.len() as u64;
        let digest = if dedup {
            content_digest(&bytes)
        } else {
            // Mix the key into the digest so identical bytes under different
            // keys never alias in the partition index.
            let mut keyed = bytes.clone();
            keyed.extend_from_slice(key.intermediate.as_bytes());
            keyed.extend_from_slice(key.column.as_bytes());
            keyed.extend_from_slice(&key.block.to_le_bytes());
            content_digest(&keyed)
        };
        self.stats.logical_bytes += serialized_len;
        self.metrics.put_bytes.add(serialized_len);

        // Only the dedup path may short-circuit on a known digest: the
        // STORE_ALL baseline (`dedup = false`) must store every chunk, even
        // a re-put of identical bytes under the same key.
        if dedup && self.digest_loc.contains_key(&digest) {
            self.ref_inc(digest, serialized_len);
            if let Some(old) = self.key_map.insert(key, digest) {
                self.ref_dec(old);
            }
            self.stats.dedup_hits += 1;
            self.metrics.dedup_exact_hits.inc();
            // Report the *stored* length: for a chunk held as a delta frame
            // that is the frame, not the raw serialization.
            let stored = self
                .digest_len
                .get(&digest)
                .copied()
                .unwrap_or(serialized_len);
            return Ok((PutOutcome::Deduplicated, stored));
        }

        // One MinHash signature feeds both similarity placement and delta
        // base selection, so it is computed when either needs it.
        let sig = if matches!(policy, PlacementPolicy::BySimilarity { .. })
            || (dedup && self.config.delta_enabled)
        {
            let values = chunk.data.to_f64();
            let elements = discretize(&values, self.config.discretize_bin);
            Some(self.minhasher.signature(&elements))
        } else {
            None
        };

        // Delta attempt: if a near-duplicate chunk is already stored, XOR
        // against it and keep the frame iff it beats the raw serialization
        // by at least 25% (a marginal win is not worth the read dependency).
        let mut stored = bytes;
        let mut delta_of: Option<ContentDigest> = None;
        if dedup && self.config.delta_enabled {
            if let Some(sig) = &sig {
                if let Some(base) = self.find_delta_base(sig, digest) {
                    if let Ok(base_bytes) = self.stored_bytes_by_digest(base) {
                        let frame = basedelta::encode(&stored, &base_bytes, (base.0, base.1));
                        if frame.len() * 4 <= stored.len() * 3 {
                            delta_of = Some(base);
                            stored = frame;
                        }
                    }
                }
            }
        }

        let pid = self.choose_partition_with(&key, policy, sig.as_ref())?;
        let len = stored.len();
        {
            let part = self.mem.get_mut(pid).expect("open partition resident");
            part.add(digest, stored);
        }
        // Account growth and persist any evicted partitions.
        let evicted = self.mem.grow(pid, len);
        self.metrics.pool_evictions.add(evicted.len() as u64);
        for p in evicted {
            self.seal_partition(p)?;
        }
        // Index the signature after placement so the item can name both its
        // partition (similarity placement) and its digest (delta base).
        if let Some(sig) = sig {
            let item = self.next_lsh_item;
            self.next_lsh_item += 1;
            self.lsh.insert(item, sig);
            self.lsh_item_to_partition.insert(item, pid);
            self.lsh_item_to_digest.insert(item, digest);
        }
        self.digest_loc.insert(digest, pid);
        if let Some(base) = delta_of {
            self.delta_base.insert(digest, base);
            self.stats.delta_puts += 1;
            self.stats.delta_bytes_saved += serialized_len - len as u64;
            self.metrics.delta_puts.inc();
            self.metrics
                .delta_bytes_saved
                .add(serialized_len - len as u64);
        }
        // ref_inc pins the delta's base (via `delta_base`) on the 0→1 edge.
        self.ref_inc(digest, len as u64);
        if let Some(old) = self.key_map.insert(key, digest) {
            self.ref_dec(old);
        }
        *self.part_total.entry(pid).or_insert(0) += len as u64;
        self.stats.unique_bytes += len as u64;
        self.stats.chunks_stored += 1;

        // Seal the partition once it reaches its target size.
        let full = self
            .mem
            .get(pid)
            .map(|p| p.raw_bytes() >= self.config.partition_target_bytes)
            .unwrap_or(false);
        if full {
            if let Some(p) = self.mem.remove(pid) {
                self.seal_partition(p)?;
            }
        }
        Ok((PutOutcome::Stored(pid), len as u64))
    }

    /// The best available delta base for a chunk with this signature: the
    /// most similar indexed chunk (estimated Jaccard >= `delta_tau`) whose
    /// bytes are still mapped. A candidate that is itself a delta redirects
    /// to *its* base — delta chains are never created, so rehydration is
    /// always a single XOR. `exclude` is the target's own digest (a
    /// re-encode must not pick itself).
    fn find_delta_base(&self, sig: &Signature, exclude: ContentDigest) -> Option<ContentDigest> {
        for (item, _) in self.lsh.query_ranked(sig, self.config.delta_tau) {
            let Some(&cand) = self.lsh_item_to_digest.get(&item) else {
                continue;
            };
            // Never chain deltas: a delta candidate stands in for its base.
            let cand = self.delta_base.get(&cand).copied().unwrap_or(cand);
            if cand == exclude {
                continue;
            }
            if self.digest_loc.contains_key(&cand) && !self.delta_base.contains_key(&cand) {
                return Some(cand);
            }
        }
        None
    }

    /// Is base+delta encoding enabled for this store?
    pub fn delta_enabled(&self) -> bool {
        self.config.delta_enabled
    }

    /// Re-encode an already-stored chunk as a delta frame against its most
    /// similar stored base, in place of its raw representation — the
    /// "squeeze before purging" rung of the reclaim ladder. Returns the
    /// chunk's stored length after the attempt (unchanged when the chunk is
    /// already a delta, serves as a base for other deltas, has no similar
    /// enough base, or the frame would not win by >= 25%). The old copy's
    /// bytes are charged dead in its partition; the next compaction drops
    /// them.
    pub fn reencode_as_delta(&mut self, key: &ChunkKey) -> Result<u64, StoreError> {
        let digest = *self.key_map.get(key).ok_or(StoreError::NotFound)?;
        let cur_len = self.digest_len.get(&digest).copied().unwrap_or(0);
        if !self.config.delta_enabled
            || self.delta_base.contains_key(&digest)
            || self.delta_base.values().any(|&b| b == digest)
        {
            return Ok(cur_len);
        }
        let old_pid = *self.digest_loc.get(&digest).ok_or(StoreError::NotFound)?;
        let raw = self.stored_bytes_by_digest(digest)?;
        let chunk = ColumnChunk::from_bytes(&raw)?;
        let values = chunk.data.to_f64();
        let elements = discretize(&values, self.config.discretize_bin);
        let sig = self.minhasher.signature(&elements);
        let Some(base) = self.find_delta_base(&sig, digest) else {
            return Ok(cur_len);
        };
        let base_bytes = self.stored_bytes_by_digest(base)?;
        let frame = basedelta::encode(&raw, &base_bytes, (base.0, base.1));
        if frame.len() * 4 > raw.len() * 3 {
            return Ok(cur_len);
        }
        // Place the frame into an open partition — never the chunk's current
        // one: Partition::add would index-shadow the old copy while keeping
        // both in the chunk vector, double-counting raw bytes.
        let mut pid = self.choose_partition_with(key, PlacementPolicy::ByIntermediate, None)?;
        if pid == old_pid {
            pid = self.new_partition();
            self.open_by_intermediate
                .insert(key.intermediate.clone(), pid);
        }
        let len = frame.len() as u64;
        {
            let part = self.mem.get_mut(pid).expect("open partition resident");
            part.add(digest, frame);
        }
        let evicted = self.mem.grow(pid, len as usize);
        self.metrics.pool_evictions.add(evicted.len() as u64);
        for p in evicted {
            self.seal_partition(p)?;
        }
        // Relocate the digest; the old copy becomes dead bytes where it was.
        self.digest_loc.insert(digest, pid);
        self.digest_len.insert(digest, len);
        *self.part_dead.entry(old_pid).or_insert(0) += cur_len;
        self.delta_base.insert(digest, base);
        self.pin_base(base);
        *self.part_total.entry(pid).or_insert(0) += len;
        self.stats.unique_bytes += len;
        self.stats.delta_puts += 1;
        self.stats.delta_bytes_saved += cur_len.saturating_sub(len);
        self.metrics.delta_puts.inc();
        self.metrics
            .delta_bytes_saved
            .add(cur_len.saturating_sub(len));
        let full = self
            .mem
            .get(pid)
            .map(|p| p.raw_bytes() >= self.config.partition_target_bytes)
            .unwrap_or(false);
        if full {
            if let Some(p) = self.mem.remove(pid) {
                self.seal_partition(p)?;
            }
        }
        Ok(len)
    }

    fn choose_partition_with(
        &mut self,
        key: &ChunkKey,
        policy: PlacementPolicy,
        sig: Option<&Signature>,
    ) -> Result<PartitionId, StoreError> {
        match policy {
            PlacementPolicy::ByIntermediate => {
                // Co-locate chunks of one intermediate; new partition when
                // the previous one was sealed.
                if let Some(&pid) = self.open_by_intermediate.get(&key.intermediate) {
                    if !self.sealed.contains(&pid) && self.mem.contains(pid) {
                        return Ok(pid);
                    }
                }
                let pid = self.new_partition();
                self.open_by_intermediate
                    .insert(key.intermediate.clone(), pid);
                Ok(pid)
            }
            PlacementPolicy::BySimilarity { tau } => {
                let sig = sig.expect("similarity placement requires a signature");
                // Walk matches best-first until one maps to a partition that
                // is still open — after a reopen every imported item points
                // at a sealed partition, and settling for the single best
                // match would stop clustering for good.
                let target = self
                    .lsh
                    .query_ranked(sig, tau)
                    .into_iter()
                    .filter_map(|(item, _)| self.lsh_item_to_partition.get(&item).copied())
                    .find(|pid| !self.sealed.contains(pid) && self.mem.contains(*pid));
                let pid = match target {
                    Some(pid) => {
                        self.stats.similarity_placements += 1;
                        self.metrics.similarity_placements.inc();
                        pid
                    }
                    None => self.new_partition(),
                };
                Ok(pid)
            }
        }
    }

    fn new_partition(&mut self) -> PartitionId {
        let pid = self.next_partition;
        self.next_partition += 1;
        self.stats.partitions_created += 1;
        self.metrics.partitions_created.inc();
        // Evictions from inserting an empty partition are impossible unless
        // the pool is already over budget; handle them anyway.
        let evicted = self.mem.insert(Partition::new(pid));
        for p in evicted {
            // Sealing here cannot fail on serialization; propagate panics only.
            self.seal_partition(p).expect("sealing evicted partition");
        }
        pid
    }

    fn seal_partition(&mut self, partition: Partition) -> Result<(), StoreError> {
        let sealed = partition.seal();
        self.metrics.partitions_sealed.inc();
        // Per-codec compression accounting: the first byte of the sealed
        // partition is the compression frame's scheme byte.
        let codec = mistique_compress::scheme_of(&sealed)
            .map(|s| s.name())
            .unwrap_or("unknown");
        self.obs.counter(&format!("compress.{codec}.count")).inc();
        self.obs
            .counter(&format!("compress.{codec}.in_bytes"))
            .add(partition.raw_bytes() as u64);
        self.obs
            .counter(&format!("compress.{codec}.out_bytes"))
            .add(sealed.len() as u64);
        self.disk.write(partition.id(), &sealed)?;
        self.sealed.insert(partition.id());
        Ok(())
    }

    /// Flush every open partition to disk.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        for p in self.mem.drain() {
            self.seal_partition(p)?;
        }
        Ok(())
    }

    /// Record one more live reference to a digest. The first reference also
    /// pins the chunk's serialized length and, when the digest was
    /// previously dead (purge → re-log of identical bytes), takes its bytes
    /// back out of the partition's dead accounting. The 0→1 edge of a
    /// delta-encoded digest additionally pins its base chunk with one extra
    /// reference, so the base can never be compacted away first.
    fn ref_inc(&mut self, digest: ContentDigest, len: u64) {
        let count = self.digest_refs.entry(digest).or_insert(0);
        *count += 1;
        if *count == 1 {
            // Keep an already-recorded stored length: a dedup resurrect of a
            // delta-encoded chunk passes the raw serialized length, but the
            // partition holds (and the dead-byte accounting charged) the
            // frame. For a fresh digest the entry is simply `len`.
            let len = *self.digest_len.entry(digest).or_insert(len);
            if let Some(&pid) = self.digest_loc.get(&digest) {
                if let Some(dead) = self.part_dead.get_mut(&pid) {
                    *dead = dead.saturating_sub(len);
                    if *dead == 0 {
                        self.part_dead.remove(&pid);
                    }
                }
            }
            if let Some(&base) = self.delta_base.get(&digest) {
                self.pin_base(base);
            }
        }
    }

    /// Pin a delta base with one extra live reference (reviving it if its
    /// last key reference is already gone).
    fn pin_base(&mut self, base: ContentDigest) {
        let len = self.digest_len.get(&base).copied().unwrap_or(0);
        self.ref_inc(base, len);
        self.metrics.delta_base_pins.inc();
    }

    /// Drop one live reference. When the last reference goes away the
    /// chunk's bytes are charged to its partition's dead accounting; the
    /// bytes stay in the file until [`DataStore::compact`] rewrites it. A
    /// dying delta digest also releases the pin it held on its base.
    fn ref_dec(&mut self, digest: ContentDigest) {
        let Some(count) = self.digest_refs.get_mut(&digest) else {
            return;
        };
        *count = count.saturating_sub(1);
        if *count > 0 {
            return;
        }
        self.digest_refs.remove(&digest);
        let len = self.digest_len.get(&digest).copied().unwrap_or(0);
        if let Some(&pid) = self.digest_loc.get(&digest) {
            *self.part_dead.entry(pid).or_insert(0) += len;
        }
        if let Some(&base) = self.delta_base.get(&digest) {
            self.ref_dec(base);
        }
    }

    /// Remove every chunk reference of one intermediate (a purge). Chunk
    /// bytes whose last reference this was become dead inside their
    /// partitions — still on disk, reclaimed by the next
    /// [`DataStore::compact`] pass. Chunks shared with other intermediates
    /// via dedup stay live.
    pub fn retract_intermediate(&mut self, intermediate: &str) -> RetractOutcome {
        let keys: Vec<ChunkKey> = self
            .key_map
            .keys()
            .filter(|k| k.intermediate == intermediate)
            .cloned()
            .collect();
        let mut out = RetractOutcome::default();
        for key in keys {
            if let Some(digest) = self.key_map.remove(&key) {
                out.keys_removed += 1;
                let last = self.digest_refs.get(&digest).copied().unwrap_or(0) == 1;
                self.ref_dec(digest);
                if last {
                    out.bytes_released += self.digest_len.get(&digest).copied().unwrap_or(0);
                }
            }
        }
        out
    }

    /// Raw bytes of dead chunks currently sitting inside partitions.
    pub fn dead_bytes(&self) -> u64 {
        self.part_dead.values().sum()
    }

    /// Rewrite every sealed on-disk partition whose live-byte ratio has
    /// dropped to `live_ratio_threshold` or below, dropping its dead chunks;
    /// fully-dead partitions are deleted outright. Each rewrite is a single
    /// `write_atomic` overwrite of the partition file (the id — and thus the
    /// catalog's `digest → partition` mapping — never changes), so a crash
    /// at any point leaves each file in exactly its pre- or post-compaction
    /// state. Open and quarantined partitions are skipped: open ones shed
    /// their dead chunks when they seal, quarantined ones are evidence.
    pub fn compact(&mut self, live_ratio_threshold: f64) -> Result<CompactionReport, StoreError> {
        let mut report = CompactionReport::default();
        // Split every mapped digest into live/dead per partition, once.
        let mut by_pid: HashMap<PartitionId, (Vec<ContentDigest>, Vec<ContentDigest>)> =
            HashMap::new();
        for (&digest, &pid) in &self.digest_loc {
            let entry = by_pid.entry(pid).or_default();
            if self.digest_refs.get(&digest).copied().unwrap_or(0) > 0 {
                entry.0.push(digest);
            } else {
                entry.1.push(digest);
            }
        }
        // Partitions to visit: any with a mapped digest, plus any carrying
        // dead bytes with no mapped digests left at all (e.g. a fully-dead
        // partition after a catalog import, where dead digests are no longer
        // in the catalog).
        let mut pids: Vec<PartitionId> = by_pid
            .keys()
            .chain(self.part_dead.keys())
            .copied()
            .collect();
        pids.sort_unstable();
        pids.dedup();
        let empty: (Vec<ContentDigest>, Vec<ContentDigest>) = (Vec::new(), Vec::new());
        for pid in pids {
            if self.mem.contains(pid)
                || self.quarantined.contains_key(&pid)
                || !self.sealed.contains(&pid)
            {
                continue;
            }
            if !self.disk.contains(pid) {
                // No backing file. If nothing live maps here the partition
                // was already deleted (e.g. a crash landed between a
                // fully-dead partition's removal and the next catalog
                // export): retire its stale dead-byte accounting so a
                // re-imported catalog converges to dead_bytes() == 0.
                let live_here = by_pid.get(&pid).is_some_and(|(live, _)| !live.is_empty());
                if !live_here {
                    if let Some(dead) = self.part_dead.remove(&pid) {
                        report.bytes_reclaimed += dead;
                        self.stats.unique_bytes = self.stats.unique_bytes.saturating_sub(dead);
                    }
                    self.part_total.remove(&pid);
                    self.sealed.remove(&pid);
                }
                continue;
            }
            report.partitions_scanned += 1;
            let dead = self.part_dead.get(&pid).copied().unwrap_or(0);
            if dead == 0 {
                continue;
            }
            let total = self.part_total.get(&pid).copied().unwrap_or(0).max(dead);
            let live_ratio = 1.0 - dead as f64 / total as f64;
            if live_ratio > live_ratio_threshold {
                continue;
            }
            let (live, dead_digests) = by_pid.get(&pid).unwrap_or(&empty);
            if live.is_empty() {
                self.disk.remove(pid)?;
                self.sealed.remove(&pid);
                report.partitions_removed += 1;
            } else {
                let sealed_bytes = self.disk.read(pid)?;
                let old = Partition::unseal(pid, &sealed_bytes)?;
                // Refuse to rewrite if a live chunk is not in the file:
                // better to keep the dead bytes than to persist data loss.
                for d in live {
                    if old.get(*d).is_none() {
                        return Err(StoreError::CorruptPartition(
                            "live chunk missing during compaction",
                        ));
                    }
                }
                let keep: HashSet<ContentDigest> = live.iter().copied().collect();
                let rewritten = old.filtered(|d| keep.contains(&d));
                self.disk.write(pid, &rewritten.seal())?;
                self.part_total.insert(pid, rewritten.raw_bytes() as u64);
                report.partitions_rewritten += 1;
            }
            self.read_cache.remove(&pid);
            for d in dead_digests {
                self.digest_loc.remove(d);
                self.digest_len.remove(d);
                // A physically removed delta chunk no longer needs its
                // base mapping (its base pin was released at ref_dec time).
                self.delta_base.remove(d);
            }
            if live.is_empty() {
                self.part_total.remove(&pid);
            }
            self.part_dead.remove(&pid);
            report.bytes_reclaimed += dead;
            report.chunks_dropped += dead_digests.len() as u64;
            self.stats.unique_bytes = self.stats.unique_bytes.saturating_sub(dead);
            self.stats.chunks_stored = self
                .stats
                .chunks_stored
                .saturating_sub(dead_digests.len() as u64);
        }
        self.metrics.compaction_runs.inc();
        self.metrics
            .compaction_bytes_reclaimed
            .add(report.bytes_reclaimed);
        self.metrics
            .compaction_partitions_rewritten
            .add(report.partitions_rewritten);
        Ok(report)
    }

    /// Recovery pass over the store directory, run after (re)opening over a
    /// directory that may have seen a crash: removes orphaned `*.tmp` files,
    /// verifies every partition's integrity trailer, and quarantines
    /// failures so one corrupt partition cannot poison the rest. Catalog
    /// entries pointing at partitions with no backing file are counted as
    /// `missing`. Results are also published on the `store.recovery.*`
    /// counters.
    pub fn recover(&mut self) -> Result<RecoveryReport, StoreError> {
        let outcome = self.disk.sweep()?;
        let mut report = RecoveryReport {
            partitions_ok: outcome.ok.len() as u64,
            quarantined: outcome.quarantined.len() as u64,
            orphans_removed: outcome.orphans_removed,
            missing: 0,
        };
        let on_disk: HashSet<PartitionId> = outcome.ok.iter().copied().collect();
        for (pid, reason) in outcome.quarantined {
            self.read_cache.remove(&pid);
            self.quarantined.insert(pid, reason);
        }
        let referenced: HashSet<PartitionId> = self.digest_loc.values().copied().collect();
        for pid in referenced {
            if !on_disk.contains(&pid)
                && !self.quarantined.contains_key(&pid)
                && !self.mem.contains(pid)
            {
                report.missing += 1;
            }
        }
        self.obs
            .counter("store.recovery.partitions_ok")
            .add(report.partitions_ok);
        self.obs
            .counter("store.recovery.quarantined")
            .add(report.quarantined);
        self.obs
            .counter("store.recovery.orphans_removed")
            .add(report.orphans_removed);
        self.obs
            .counter("store.recovery.missing")
            .add(report.missing);
        Ok(report)
    }

    /// Quarantined partitions (id → reason) from recovery passes so far.
    pub fn quarantined(&self) -> &HashMap<PartitionId, String> {
        &self.quarantined
    }

    /// Whether a chunk has been stored under this key.
    pub fn contains(&self, key: &ChunkKey) -> bool {
        self.key_map.contains_key(key)
    }

    /// Read a chunk back by key: a batch of one.
    pub fn get_chunk(&mut self, key: &ChunkKey) -> Result<ColumnChunk, StoreError> {
        let bytes = self.get_chunk_bytes_batch(std::slice::from_ref(key), 1)?;
        Ok(ColumnChunk::from_bytes(&bytes[0])?)
    }

    /// The stored bytes of a digest through the usual three tiers (buffer
    /// pool → read cache → disk), for the put side's delta probes and
    /// re-encodes: the read-path hit/miss metrics are not charged. For a
    /// delta-encoded digest this is the frame, not the chunk.
    fn stored_bytes_by_digest(&mut self, digest: ContentDigest) -> Result<Vec<u8>, StoreError> {
        let pid = *self.digest_loc.get(&digest).ok_or(StoreError::NotFound)?;
        if let Some(reason) = self.quarantined.get(&pid) {
            return Err(StoreError::Quarantined {
                partition: pid,
                reason: reason.clone(),
            });
        }
        if let Some(part) = self.mem.get(pid) {
            let bytes = part
                .get(digest)
                .ok_or(StoreError::CorruptPartition("missing chunk"))?
                .to_vec();
            return Ok(bytes);
        }
        if let Some(part) = self.read_cache.get(&pid) {
            let bytes = part
                .get(digest)
                .ok_or(StoreError::CorruptPartition("missing chunk"))?
                .to_vec();
            return Ok(bytes);
        }
        let sealed = self.disk.read(pid)?;
        Self::note_codec_read(&self.obs, &self.codec_read_bytes, &sealed);
        let part = Partition::unseal(pid, &sealed)?;
        let bytes = part
            .get(digest)
            .ok_or(StoreError::CorruptPartition("missing chunk"))?
            .to_vec();
        self.cache_loaded_partition(pid, part);
        Ok(bytes)
    }

    /// Account one delta rehydration: frame bytes against the
    /// `delta:<scheme>` codec label plus the rehydration counter.
    fn note_delta_read(&mut self, frame: &[u8]) {
        let scheme = basedelta::inner_scheme(frame)
            .map(|s| s.name())
            .unwrap_or("unknown");
        *self
            .codec_read_bytes
            .lock()
            .unwrap()
            .entry(format!("delta:{scheme}"))
            .or_insert(0) += frame.len() as u64;
        self.obs
            .counter(&format!("read.codec.delta_{scheme}.bytes"))
            .add(frame.len() as u64);
        self.obs
            .counter(&format!("read.codec.delta_{scheme}.count"))
            .inc();
        self.metrics.delta_rehydrations.inc();
    }

    /// Insert a partition just read from disk into the read cache, evicting
    /// LRU victims one at a time and counting them. Returns the partition
    /// back when it was not cached (caching disabled, or the partition alone
    /// exceeds the whole budget).
    fn cache_loaded_partition(&mut self, pid: PartitionId, part: Partition) -> Option<Partition> {
        if !self.config.read_cache || part.raw_bytes() > self.read_cache.capacity_bytes() {
            return Some(part);
        }
        let raw = part.raw_bytes();
        let evicted = self.read_cache.insert(pid, part, raw);
        self.metrics.read_cache_evictions.add(evicted.len() as u64);
        self.metrics
            .read_cache_bytes
            .set_u64(self.read_cache.used_bytes() as u64);
        None
    }

    /// Estimated serialized byte volume of a batch read, summed from the
    /// per-digest length accounting (populated on every put and persisted in
    /// the catalog). Keys that don't resolve contribute 0 — this sizes
    /// read fan-out, it is not an existence check.
    pub fn batch_bytes_hint(&self, keys: &[ChunkKey]) -> u64 {
        keys.iter()
            .filter_map(|k| self.key_map.get(k))
            .filter_map(|d| self.digest_len.get(d))
            .sum()
    }

    /// Batch read: the serialized bytes of many chunks at once. Partitions
    /// that must come off disk are read and unsealed concurrently on up to
    /// `parallelism` scoped threads (decompression dominates cold
    /// reads); results are returned in request order. This is the store's
    /// one read path: [`DataStore::get_chunk`] is a batch of one.
    pub fn get_chunk_bytes_batch(
        &mut self,
        keys: &[ChunkKey],
        parallelism: usize,
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        let t0 = Instant::now();
        let out = self.get_chunk_bytes_batch_inner(keys, parallelism);
        self.metrics.get_count.add(keys.len() as u64);
        self.metrics.get_ns.record_duration(t0.elapsed());
        out
    }

    fn get_chunk_bytes_batch_inner(
        &mut self,
        keys: &[ChunkKey],
        parallelism: usize,
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        // Resolve every key up front so a missing or quarantined one fails
        // before any I/O. A delta-encoded chunk also resolves its base here:
        // the base partition joins the parallel prefetch below instead of
        // forcing a serial read during rehydration.
        let mut locs = Vec::with_capacity(keys.len());
        let mut base_pids: Vec<PartitionId> = Vec::new();
        for key in keys {
            let digest = *self.key_map.get(key).ok_or(StoreError::NotFound)?;
            let pid = *self.digest_loc.get(&digest).ok_or(StoreError::NotFound)?;
            if let Some(reason) = self.quarantined.get(&pid) {
                return Err(StoreError::Quarantined {
                    partition: pid,
                    reason: reason.clone(),
                });
            }
            if let Some(&base) = self.delta_base.get(&digest) {
                if let Some(&bpid) = self.digest_loc.get(&base) {
                    if let Some(reason) = self.quarantined.get(&bpid) {
                        return Err(StoreError::Quarantined {
                            partition: bpid,
                            reason: reason.clone(),
                        });
                    }
                    base_pids.push(bpid);
                }
            }
            locs.push((digest, pid));
        }

        // Which distinct partitions have to come off disk?
        let mut seen: HashSet<PartitionId> = HashSet::new();
        let mut missing: Vec<PartitionId> = Vec::new();
        for &(_, pid) in &locs {
            if seen.insert(pid) && !self.mem.contains(pid) && !self.read_cache.contains(&pid) {
                missing.push(pid);
            }
        }
        self.metrics.get_partitions_touched.add(seen.len() as u64);
        // Base partitions ride the same fan-out but are not charged as
        // partitions the *request* touched.
        for bpid in base_pids {
            if seen.insert(bpid) && !self.mem.contains(bpid) && !self.read_cache.contains(&bpid) {
                missing.push(bpid);
            }
        }

        let loaded = self.load_partitions(&missing, parallelism)?;
        // Partitions that could not enter the cache still serve this batch.
        let mut side: HashMap<PartitionId, Partition> = HashMap::new();
        let mut fresh: HashSet<PartitionId> = HashSet::new();
        for (pid, part) in loaded {
            self.metrics.get_disk_reads.inc();
            self.metrics.read_cache_misses.inc();
            fresh.insert(pid);
            if let Some(part) = self.cache_loaded_partition(pid, part) {
                side.insert(pid, part);
            }
        }

        let mut out = Vec::with_capacity(keys.len());
        for &(digest, pid) in &locs {
            let mut bytes = self.batch_fetch_bytes(digest, pid, &mut side, &fresh, true)?;
            if self.delta_base.contains_key(&digest) && basedelta::is_delta_frame(&bytes) {
                let base = self.delta_base[&digest];
                let bpid = *self.digest_loc.get(&base).ok_or(StoreError::NotFound)?;
                let base_bytes = self.batch_fetch_bytes(base, bpid, &mut side, &fresh, false)?;
                let raw = basedelta::decode(&bytes, &base_bytes, (base.0, base.1))?;
                self.note_delta_read(&bytes);
                bytes = raw;
            }
            self.metrics.get_bytes.add(bytes.len() as u64);
            out.push(bytes);
        }
        Ok(out)
    }

    /// Serve one digest's stored bytes during a batch: buffer pool, then the
    /// batch's side partitions, then the read cache, then a (re-)read from
    /// disk kept aside for the rest of the batch.
    fn batch_fetch_bytes(
        &mut self,
        digest: ContentDigest,
        pid: PartitionId,
        side: &mut HashMap<PartitionId, Partition>,
        fresh: &HashSet<PartitionId>,
        count: bool,
    ) -> Result<Vec<u8>, StoreError> {
        let bytes: Vec<u8>;
        if let Some(part) = self.mem.get(pid) {
            if count {
                self.metrics.get_mem_hits.inc();
            }
            bytes = part
                .get(digest)
                .ok_or(StoreError::CorruptPartition("missing chunk"))?
                .to_vec();
        } else if let Some(part) = side.get(&pid) {
            bytes = part
                .get(digest)
                .ok_or(StoreError::CorruptPartition("missing chunk"))?
                .to_vec();
        } else if let Some(part) = self.read_cache.get(&pid) {
            if count && !fresh.contains(&pid) {
                self.metrics.get_cache_hits.inc();
                self.metrics.read_cache_hits.inc();
            }
            bytes = part
                .get(digest)
                .ok_or(StoreError::CorruptPartition("missing chunk"))?
                .to_vec();
        } else {
            // Loaded this batch, then evicted by a later partition of the
            // same batch (cache smaller than the batch): re-read it and
            // keep it aside for the rest of this batch.
            let sealed = self.disk.read(pid)?;
            Self::note_codec_read(&self.obs, &self.codec_read_bytes, &sealed);
            let part = Partition::unseal(pid, &sealed)?;
            self.metrics.get_disk_reads.inc();
            bytes = part
                .get(digest)
                .ok_or(StoreError::CorruptPartition("missing chunk"))?
                .to_vec();
            side.insert(pid, part);
        }
        Ok(bytes)
    }

    /// Read and unseal the given partitions from disk, concurrently on up to
    /// `parallelism` scoped threads when more than one is needed.
    fn load_partitions(
        &self,
        pids: &[PartitionId],
        parallelism: usize,
    ) -> Result<Vec<(PartitionId, Partition)>, StoreError> {
        if pids.is_empty() {
            return Ok(Vec::new());
        }
        // Capture the caller's active span before any workers spawn: every
        // per-partition load span links to it explicitly, so the trace tree
        // is identical whether loads run serially or on worker threads.
        let ctx = self.obs.current_context();
        let workers = parallelism.max(1).min(pids.len());
        if workers <= 1 {
            return pids
                .iter()
                .map(|&pid| {
                    let mut sp = self
                        .obs
                        .span_with_parent("store.partition.load", ctx.as_ref());
                    sp.attr("pid", pid);
                    let sealed = self.disk.read(pid)?;
                    Self::note_codec_read(&self.obs, &self.codec_read_bytes, &sealed);
                    let part = Partition::unseal(pid, &sealed)?;
                    sp.finish();
                    Ok((pid, part))
                })
                .collect();
        }
        let disk = &self.disk;
        let obs = &self.obs;
        let codec_map = &self.codec_read_bytes;
        let ctx_ref = ctx.as_ref();
        // A panicking worker must fail this read, not abort the process:
        // every handle is joined here and a join failure maps to an error.
        type Loaded = Vec<Vec<Result<(PartitionId, Partition), StoreError>>>;
        let joined: std::thread::Result<Loaded> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut i = w;
                        while i < pids.len() {
                            let pid = pids[i];
                            let mut sp = obs.span_with_parent("store.partition.load", ctx_ref);
                            sp.attr("pid", pid);
                            out.push(disk.read(pid).and_then(|sealed| {
                                Self::note_codec_read(obs, codec_map, &sealed);
                                Ok((pid, Partition::unseal(pid, &sealed)?))
                            }));
                            sp.finish();
                            i += workers;
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let per_worker =
            joined.map_err(|_| StoreError::CorruptPartition("partition load worker panicked"))?;
        let mut out = Vec::with_capacity(pids.len());
        for result in per_worker.into_iter().flatten() {
            out.push(result?);
        }
        Ok(out)
    }

    /// Drop all cached disk partitions (used when benchmarking cold reads).
    /// This is an explicit benchmark/testing control, not a budget-pressure
    /// eviction path — those always evict a single LRU victim at a time.
    pub fn clear_read_cache(&mut self) {
        self.read_cache.clear();
        self.metrics.read_cache_bytes.set_u64(0);
    }

    /// Read-cache occupancy in bytes.
    pub fn read_cache_bytes(&self) -> usize {
        self.read_cache.used_bytes()
    }

    /// Number of partitions currently held by the read cache.
    pub fn read_cache_len(&self) -> usize {
        self.read_cache.len()
    }

    /// Storage counters so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Compressed bytes currently on disk.
    pub fn disk_bytes(&self) -> Result<u64, StoreError> {
        self.disk.disk_bytes()
    }

    /// Cumulative bytes written to disk (logging overhead metric).
    pub fn bytes_written(&self) -> u64 {
        self.disk.bytes_written()
    }

    /// Total physical footprint: compressed disk bytes plus raw bytes of
    /// partitions still open in memory.
    pub fn physical_bytes(&self) -> Result<u64, StoreError> {
        Ok(self.disk.disk_bytes()? + self.mem.used_bytes() as u64)
    }

    /// Export the chunk catalog — everything needed to read chunks back from
    /// the partition files after a restart. Call [`DataStore::flush`] first
    /// so every partition is on disk.
    pub fn export_catalog(&self) -> StoreCatalog {
        let mut partition_totals: Vec<(PartitionId, u64)> = self
            .part_total
            .iter()
            .map(|(&pid, &total)| (pid, total))
            .collect();
        partition_totals.sort_unstable();
        // Delta mappings for digests that are still live: a reader needs the
        // base digest to rehydrate, and the importer re-derives base pins
        // from these records. Stale mappings of purged-and-compacted chunks
        // are dropped here.
        let mut deltas: Vec<DeltaRecord> = self
            .delta_base
            .iter()
            .filter(|(d, _)| self.digest_refs.get(d).copied().unwrap_or(0) > 0)
            .map(|(d, b)| DeltaRecord {
                digest: (d.0, d.1),
                base: (b.0, b.1),
            })
            .collect();
        deltas.sort_unstable_by_key(|r| r.digest);
        // Digests live only through pins (a delta base whose own key
        // references are gone) are reachable from no CatalogEntry; export
        // their location and length separately so reads resolve after reopen.
        let keyed: HashSet<ContentDigest> = self.key_map.values().copied().collect();
        let mut extras: Vec<CatalogExtra> = self
            .digest_loc
            .iter()
            .filter(|(d, _)| {
                !keyed.contains(d) && self.digest_refs.get(d).copied().unwrap_or(0) > 0
            })
            .map(|(d, &pid)| CatalogExtra {
                digest: (d.0, d.1),
                partition: pid,
                len: self.digest_len.get(d).copied().unwrap_or(0),
            })
            .collect();
        extras.sort_unstable_by_key(|e| e.digest);
        // LSH state: without it a reopened store can neither cluster new
        // chunks with old ones (BySimilarity) nor find delta bases among
        // pre-restart chunks.
        let mut lsh_items: Vec<LshItemRecord> = self
            .lsh
            .iter()
            .map(|(item, sig)| LshItemRecord {
                item,
                partition: self.lsh_item_to_partition.get(&item).copied().unwrap_or(0),
                digest: self
                    .lsh_item_to_digest
                    .get(&item)
                    .map(|d| (d.0, d.1))
                    .unwrap_or((0, 0)),
                signature: sig.to_vec(),
            })
            .collect();
        lsh_items.sort_unstable_by_key(|r| r.item);
        StoreCatalog {
            entries: self
                .key_map
                .iter()
                .map(|(key, digest)| CatalogEntry {
                    key: key.clone(),
                    digest: (digest.0, digest.1),
                    partition: self.digest_loc[digest],
                    len: self.digest_len.get(digest).copied().unwrap_or(0),
                })
                .collect(),
            next_partition: self.next_partition,
            stats: self.stats,
            partition_totals,
            deltas,
            extras,
            lsh_items,
        }
    }

    /// Restore a catalog exported by [`DataStore::export_catalog`] into a
    /// freshly opened store over the same directory. All restored partitions
    /// are treated as sealed (reads come from disk). Reference counts and
    /// per-partition live/dead byte accounting are rebuilt from the entries:
    /// dead bytes are the recorded partition totals minus the live chunk
    /// bytes, so compaction pressure survives a restart.
    pub fn import_catalog(&mut self, catalog: StoreCatalog) {
        for entry in catalog.entries {
            let digest = ContentDigest(entry.digest.0, entry.digest.1);
            self.digest_loc.insert(digest, entry.partition);
            self.sealed.insert(entry.partition);
            if entry.len > 0 {
                self.digest_len.insert(digest, entry.len);
            }
            *self.digest_refs.entry(digest).or_insert(0) += 1;
            if let Some(old) = self.key_map.insert(entry.key, digest) {
                self.ref_dec(old);
            }
        }
        // Pin-only digests (delta bases without key references): location
        // and length, but no reference — pins are re-derived from the delta
        // records below.
        for extra in catalog.extras {
            let digest = ContentDigest(extra.digest.0, extra.digest.1);
            self.digest_loc.insert(digest, extra.partition);
            self.sealed.insert(extra.partition);
            if extra.len > 0 {
                self.digest_len.insert(digest, extra.len);
            }
        }
        // Delta mappings, then base pins: one pin per *live* delta digest,
        // mirroring what ref_inc did on the original store. (The raw entry
        // bump above bypassed ref_inc on purpose — double-pinning a base
        // whose delta has several key references would leak pins.)
        for rec in &catalog.deltas {
            let digest = ContentDigest(rec.digest.0, rec.digest.1);
            let base = ContentDigest(rec.base.0, rec.base.1);
            self.delta_base.insert(digest, base);
            if self.digest_refs.get(&digest).copied().unwrap_or(0) > 0 {
                *self.digest_refs.entry(base).or_insert(0) += 1;
            }
        }
        for (pid, total) in catalog.partition_totals {
            self.part_total.insert(pid, total);
            // Anything with a recorded total was created before the export;
            // after a reopen it is on disk (or gone), never open in memory.
            self.sealed.insert(pid);
        }
        // Dead bytes per partition = recorded file total − live chunk bytes.
        // Catalogs from before byte accounting carry no totals; their
        // partitions import as all-live (conservative: compaction skips).
        let mut live: HashMap<PartitionId, u64> = HashMap::new();
        for (&digest, &pid) in &self.digest_loc {
            if self.digest_refs.get(&digest).copied().unwrap_or(0) > 0 {
                *live.entry(pid).or_insert(0) += self.digest_len.get(&digest).copied().unwrap_or(0);
            }
        }
        for (&pid, &total) in &self.part_total {
            let l = live.get(&pid).copied().unwrap_or(0);
            if total > l {
                self.part_dead.insert(pid, total - l);
            }
        }
        self.next_partition = self.next_partition.max(catalog.next_partition);
        self.stats = catalog.stats;
        // Rebuild the similarity index. Signatures whose length does not
        // match the current MinHash configuration are skipped (the knobs
        // changed across the restart); those chunks simply stop being
        // similarity candidates.
        for rec in catalog.lsh_items {
            if rec.signature.len() != self.lsh.signature_len() {
                continue;
            }
            self.lsh.insert(rec.item, Signature(rec.signature));
            self.lsh_item_to_partition.insert(rec.item, rec.partition);
            if rec.digest != (0, 0) {
                self.lsh_item_to_digest
                    .insert(rec.item, ContentDigest(rec.digest.0, rec.digest.1));
            }
            self.next_lsh_item = self.next_lsh_item.max(rec.item + 1);
        }
    }
}

/// One chunk's catalog entry: logical key → content digest → partition.
#[derive(Clone, Debug)]
pub struct CatalogEntry {
    /// Logical chunk key.
    pub key: ChunkKey,
    /// Content digest (two 64-bit halves).
    pub digest: (u64, u64),
    /// Partition holding the chunk.
    pub partition: PartitionId,
    /// Serialized chunk length in bytes (0 in catalogs from before byte
    /// accounting; such chunks import with unknown length and their
    /// partitions are treated as all-live).
    pub len: u64,
}

/// A delta-encoded digest and the base it was encoded against.
#[derive(Clone, Copy, Debug)]
pub struct DeltaRecord {
    /// Content digest of the chunk stored as a delta frame.
    pub digest: (u64, u64),
    /// Content digest of its base chunk.
    pub base: (u64, u64),
}

/// A digest kept alive only by delta-base pins: no key maps to it, but its
/// bytes must stay readable for rehydration.
#[derive(Clone, Copy, Debug)]
pub struct CatalogExtra {
    /// Content digest.
    pub digest: (u64, u64),
    /// Partition holding the chunk.
    pub partition: PartitionId,
    /// Stored length in bytes.
    pub len: u64,
}

/// One LSH item: its MinHash signature rows plus where the chunk it
/// describes went. Persisting these keeps similarity clustering and delta
/// base-finding alive across a restart.
#[derive(Clone, Debug)]
pub struct LshItemRecord {
    /// Item id inside the LSH index.
    pub item: u64,
    /// Partition the item's chunk was placed in.
    pub partition: PartitionId,
    /// Content digest of the item's chunk ((0, 0) when unknown).
    pub digest: (u64, u64),
    /// MinHash signature rows.
    pub signature: Vec<u64>,
}

/// Serializable snapshot of the store's chunk catalog.
#[derive(Clone, Debug)]
pub struct StoreCatalog {
    /// All chunk entries.
    pub entries: Vec<CatalogEntry>,
    /// Next partition id to allocate.
    pub next_partition: PartitionId,
    /// Storage counters at export time.
    pub stats: StoreStats,
    /// Raw chunk bytes ever placed into each partition, sorted by id —
    /// together with the entry lengths this reconstructs per-partition
    /// dead-byte accounting after reopen.
    pub partition_totals: Vec<(PartitionId, u64)>,
    /// Live delta-encoded digests and their bases (absent in old catalogs).
    pub deltas: Vec<DeltaRecord>,
    /// Pin-only digests reachable from no entry (absent in old catalogs).
    pub extras: Vec<CatalogExtra>,
    /// Persisted LSH items (absent in old catalogs — similarity state then
    /// starts empty after reopen, the pre-existing behavior).
    pub lsh_items: Vec<LshItemRecord>,
}

// The catalog's JSON form — the `catalog` subtree of the manifest (DESIGN.md
// "Manifest and spec format"). Fields after `default` were added after the
// first persisted manifests and may be absent from an old one.
mistique_obs::json_struct!(ChunkKey {
    intermediate,
    column,
    block
});
mistique_obs::json_struct!(StoreStats {
    logical_bytes,
    unique_bytes,
    dedup_hits,
    chunks_stored,
    partitions_created,
    similarity_placements,
} default { delta_puts, delta_bytes_saved });
mistique_obs::json_struct!(CatalogEntry {
    key,
    digest,
    partition,
    len
});
mistique_obs::json_struct!(DeltaRecord { digest, base });
mistique_obs::json_struct!(CatalogExtra {
    digest,
    partition,
    len
});
mistique_obs::json_struct!(LshItemRecord {
    item,
    partition,
    digest,
    signature
});
mistique_obs::json_struct!(StoreCatalog {
    entries,
    next_partition,
    stats,
    partition_totals,
} default { deltas, extras, lsh_items });

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_dataframe::ColumnData;

    fn f64_chunk(values: Vec<f64>) -> ColumnChunk {
        ColumnChunk::new(ColumnData::F64(values))
    }

    /// A catalog as a reopening process sees it: written to manifest text
    /// and read back.
    fn through_text(catalog: StoreCatalog) -> StoreCatalog {
        let text = mistique_obs::json::to_string(&catalog, "catalog").unwrap();
        mistique_obs::json::from_str(&text, "catalog").unwrap()
    }

    fn store(policy: PlacementPolicy) -> (tempfile::TempDir, DataStore) {
        let dir = tempfile::tempdir().unwrap();
        let config = DataStoreConfig {
            policy,
            mem_capacity: 1 << 20,
            partition_target_bytes: 64 << 10,
            ..DataStoreConfig::default()
        };
        let ds = DataStore::open(dir.path(), config).unwrap();
        (dir, ds)
    }

    #[test]
    fn put_get_roundtrip() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let chunk = f64_chunk((0..500).map(|i| i as f64).collect());
        let key = ChunkKey::new("m1.interm0", "price", 0);
        let outcome = ds.put_chunk(key.clone(), &chunk).unwrap();
        assert!(matches!(outcome, PutOutcome::Stored(_)));
        let back = ds.get_chunk(&key).unwrap();
        assert_eq!(back, chunk);
    }

    #[test]
    fn exact_dedup_stores_once() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let chunk = f64_chunk(vec![1.0; 1000]);
        ds.put_chunk(ChunkKey::new("m1.i0", "c", 0), &chunk)
            .unwrap();
        let second = ds
            .put_chunk(ChunkKey::new("m2.i0", "c", 0), &chunk)
            .unwrap();
        assert_eq!(second, PutOutcome::Deduplicated);
        let s = ds.stats();
        assert_eq!(s.chunks_stored, 1);
        assert_eq!(s.dedup_hits, 1);
        assert!(s.logical_bytes > s.unique_bytes);
        // Both keys resolve to the same data.
        assert_eq!(
            ds.get_chunk(&ChunkKey::new("m2.i0", "c", 0)).unwrap(),
            chunk
        );
    }

    #[test]
    fn read_after_flush_hits_disk() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let chunk = f64_chunk((0..2000).map(|i| (i % 37) as f64).collect());
        let key = ChunkKey::new("m.i", "col", 0);
        ds.put_chunk(key.clone(), &chunk).unwrap();
        ds.flush().unwrap();
        assert!(ds.disk_bytes().unwrap() > 0);
        assert_eq!(ds.get_chunk(&key).unwrap(), chunk);
        // Second read comes from the cache; clearing it forces disk again.
        ds.clear_read_cache();
        assert_eq!(ds.get_chunk(&key).unwrap(), chunk);
    }

    #[test]
    fn similarity_policy_clusters_similar_chunks() {
        let (_dir, mut ds) = store(PlacementPolicy::BySimilarity { tau: 0.5 });
        let base: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        ds.put_chunk(ChunkKey::new("a", "c", 0), &f64_chunk(base.clone()))
            .unwrap();
        // Slightly perturbed copy: not identical (no exact dedup) but similar.
        let mut near = base.clone();
        near[0] += 0.001;
        let outcome = ds
            .put_chunk(ChunkKey::new("b", "c", 0), &f64_chunk(near))
            .unwrap();
        match outcome {
            PutOutcome::Stored(_) => {}
            PutOutcome::Deduplicated => panic!("should not be exact-dedup"),
        }
        assert_eq!(ds.stats().similarity_placements, 1);
        assert_eq!(ds.stats().partitions_created, 1, "same partition reused");
    }

    #[test]
    fn dissimilar_chunks_get_new_partitions() {
        let (_dir, mut ds) = store(PlacementPolicy::BySimilarity { tau: 0.5 });
        let a: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..1000).map(|i| (i as f64) * 1000.0 + 5e6).collect();
        ds.put_chunk(ChunkKey::new("a", "c", 0), &f64_chunk(a))
            .unwrap();
        ds.put_chunk(ChunkKey::new("b", "c", 0), &f64_chunk(b))
            .unwrap();
        assert_eq!(ds.stats().partitions_created, 2);
    }

    #[test]
    fn by_intermediate_colocates_columns() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        for col in ["n0", "n1", "n2"] {
            let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
            // Different columns, different values per column name hash.
            let mut v = vals.clone();
            v[0] = col.len() as f64 * 1000.0;
            ds.put_chunk(ChunkKey::new("model.layer3", col, 0), &f64_chunk(v))
                .unwrap();
        }
        assert_eq!(ds.stats().partitions_created, 1);
        // A different intermediate opens a new partition.
        ds.put_chunk(
            ChunkKey::new("model.layer4", "n0", 0),
            &f64_chunk(vec![42.0; 100]),
        )
        .unwrap();
        assert_eq!(ds.stats().partitions_created, 2);
    }

    #[test]
    fn missing_key_not_found() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        assert!(matches!(
            ds.get_chunk(&ChunkKey::new("x", "y", 0)),
            Err(StoreError::NotFound)
        ));
        assert!(!ds.contains(&ChunkKey::new("x", "y", 0)));
    }

    #[test]
    fn partition_seals_at_target_size() {
        let dir = tempfile::tempdir().unwrap();
        let config = DataStoreConfig {
            policy: PlacementPolicy::ByIntermediate,
            partition_target_bytes: 4096,
            ..DataStoreConfig::default()
        };
        let mut ds = DataStore::open(dir.path(), config).unwrap();
        // Each chunk ~4000 bytes: each fill seals a partition.
        for i in 0..4 {
            let vals: Vec<f64> = (0..500).map(|j| (i * 1000 + j) as f64).collect();
            ds.put_chunk(ChunkKey::new("m.i", "c", i as u32), &f64_chunk(vals))
                .unwrap();
        }
        assert!(
            ds.disk_bytes().unwrap() > 0,
            "sealed partitions reached disk"
        );
        // All chunks still readable.
        for i in 0..4u32 {
            assert!(ds.get_chunk(&ChunkKey::new("m.i", "c", i)).is_ok());
        }
    }

    #[test]
    fn store_all_reput_of_identical_chunk_stores_again() {
        // STORE_ALL (`dedup = false`) must store every submitted chunk —
        // even a re-put of identical bytes under the very same key must not
        // short-circuit into a dedup reference.
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let chunk = f64_chunk(vec![7.0; 500]);
        let key = ChunkKey::new("m.i", "c", 0);
        let first = ds
            .put_chunk_with(key.clone(), &chunk, PlacementPolicy::ByIntermediate, false)
            .unwrap();
        let second = ds
            .put_chunk_with(key.clone(), &chunk, PlacementPolicy::ByIntermediate, false)
            .unwrap();
        assert!(matches!(first, PutOutcome::Stored(_)));
        assert!(
            matches!(second, PutOutcome::Stored(_)),
            "STORE_ALL re-put must store, got {second:?}"
        );
        let s = ds.stats();
        assert_eq!(s.dedup_hits, 0, "STORE_ALL never dedups");
        assert_eq!(s.chunks_stored, 2);
        assert_eq!(s.unique_bytes, s.logical_bytes);
        assert_eq!(ds.get_chunk(&key).unwrap(), chunk);
    }

    #[test]
    fn read_cache_evicts_one_partition_at_a_time() {
        let dir = tempfile::tempdir().unwrap();
        // Each partition holds one ~8 KB chunk; the cache budget fits two.
        let config = DataStoreConfig {
            policy: PlacementPolicy::ByIntermediate,
            mem_capacity: 20_000,
            partition_target_bytes: 64 << 10,
            ..DataStoreConfig::default()
        };
        let mut ds = DataStore::open(dir.path(), config).unwrap();
        let keys: Vec<ChunkKey> = (0..3)
            .map(|i| ChunkKey::new(format!("m.i{i}"), "c", 0))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            let vals: Vec<f64> = (0..1000).map(|j| (i * 10_000 + j) as f64).collect();
            ds.put_chunk(key.clone(), &f64_chunk(vals)).unwrap();
        }
        ds.flush().unwrap();

        let hits = ds.obs().counter("store.read_cache.hits");
        let misses = ds.obs().counter("store.read_cache.misses");
        let evictions = ds.obs().counter("store.read_cache.evictions");

        // Two partitions fit; the third displaces exactly the LRU victim.
        ds.get_chunk(&keys[0]).unwrap();
        ds.get_chunk(&keys[1]).unwrap();
        assert_eq!((misses.get(), evictions.get()), (2, 0));
        assert_eq!(ds.read_cache_len(), 2);
        ds.get_chunk(&keys[2]).unwrap();
        assert_eq!(misses.get(), 3);
        assert_eq!(evictions.get(), 1, "single-victim eviction, not clear-all");
        assert_eq!(ds.read_cache_len(), 2, "cache keeps every survivor");
        assert!(ds.read_cache_bytes() > 0 && ds.read_cache_bytes() <= 20_000);

        // keys[1] and keys[2] survived; reading them is a pure cache hit.
        let disk_reads = ds.obs().counter("store.get.disk_reads").get();
        ds.get_chunk(&keys[1]).unwrap();
        ds.get_chunk(&keys[2]).unwrap();
        assert_eq!(hits.get(), 2);
        assert_eq!(ds.obs().counter("store.get.disk_reads").get(), disk_reads);

        // keys[0] was the victim: a miss, and it evicts one more partition.
        ds.get_chunk(&keys[0]).unwrap();
        assert_eq!(misses.get(), 4);
        assert_eq!(evictions.get(), 2);
    }

    #[test]
    fn batch_read_matches_individual_gets() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let mut chunks = Vec::new();
        let mut keys = Vec::new();
        for i in 0..4 {
            let chunk = f64_chunk((0..800).map(|j| (i * 31 + j) as f64 * 0.5).collect());
            let key = ChunkKey::new(format!("m.i{i}"), "c", 0);
            ds.put_chunk(key.clone(), &chunk).unwrap();
            keys.push(key);
            chunks.push(chunk);
        }
        ds.flush().unwrap();
        // One more chunk left open in the buffer pool.
        let mem_chunk = f64_chunk(vec![42.0; 100]);
        let mem_key = ChunkKey::new("m.open", "c", 0);
        ds.put_chunk(mem_key.clone(), &mem_chunk).unwrap();
        keys.push(mem_key);
        chunks.push(mem_chunk);

        // Mixed order, with a duplicate request.
        let order = [4usize, 1, 3, 1, 0, 2];
        let batch_keys: Vec<ChunkKey> = order.iter().map(|&i| keys[i].clone()).collect();
        for parallelism in [1, 4] {
            ds.clear_read_cache();
            let got = ds.get_chunk_bytes_batch(&batch_keys, parallelism).unwrap();
            assert_eq!(got.len(), order.len());
            for (bytes, &i) in got.iter().zip(&order) {
                assert_eq!(
                    ColumnChunk::from_bytes(bytes).unwrap(),
                    chunks[i],
                    "parallelism {parallelism}"
                );
            }
        }
        // Unknown keys fail the whole batch up front.
        assert!(matches!(
            ds.get_chunk_bytes_batch(&[ChunkKey::new("no", "pe", 9)], 4),
            Err(StoreError::NotFound)
        ));
    }

    #[test]
    fn recover_quarantines_corrupt_partition_and_spares_the_rest() {
        use crate::backend::FaultyFs;
        use std::path::PathBuf;

        let fs = FaultyFs::new();
        let config = DataStoreConfig {
            policy: PlacementPolicy::ByIntermediate,
            mem_capacity: 1 << 20,
            partition_target_bytes: 64 << 10,
            ..DataStoreConfig::default()
        };
        let mut ds = DataStore::open_with_backend("/vfs", config, Arc::new(fs.clone())).unwrap();
        let good_key = ChunkKey::new("m.good", "c", 0);
        let bad_key = ChunkKey::new("m.bad", "c", 0);
        ds.put_chunk(
            good_key.clone(),
            &f64_chunk((0..500).map(|i| i as f64).collect()),
        )
        .unwrap();
        ds.put_chunk(bad_key.clone(), &f64_chunk(vec![9.0; 500]))
            .unwrap();
        ds.flush().unwrap();
        ds.clear_read_cache();

        // Bitrot in the partition holding bad_key (ByIntermediate: one
        // partition per intermediate, created in put order).
        fs.corrupt_durable(&PathBuf::from("/vfs/part_00000001.bin"), |bytes| {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
        });

        let report = ds.recover().unwrap();
        assert_eq!(report.partitions_ok, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.missing, 0);
        assert_eq!(ds.obs().counter("store.recovery.quarantined").get(), 1);
        assert_eq!(ds.obs().counter("store.recovery.partitions_ok").get(), 1);

        // The corrupt partition fails loudly; the good one still reads.
        match ds.get_chunk(&bad_key) {
            Err(StoreError::Quarantined { partition, .. }) => assert_eq!(partition, 1),
            other => panic!("expected Quarantined, got {other:?}"),
        }
        assert!(matches!(
            ds.get_chunk_bytes_batch(&[bad_key], 2),
            Err(StoreError::Quarantined { .. })
        ));
        assert!(ds.get_chunk(&good_key).is_ok());
    }

    #[test]
    fn recover_counts_missing_partitions() {
        use crate::backend::FaultyFs;
        use std::path::PathBuf;

        let fs = FaultyFs::new();
        let config = DataStoreConfig {
            policy: PlacementPolicy::ByIntermediate,
            ..DataStoreConfig::default()
        };
        let mut ds = DataStore::open_with_backend("/vfs", config, Arc::new(fs.clone())).unwrap();
        let key = ChunkKey::new("m.i", "c", 0);
        ds.put_chunk(key.clone(), &f64_chunk(vec![1.0; 200]))
            .unwrap();
        ds.flush().unwrap();
        ds.clear_read_cache();
        // Simulate a crash that lost the partition file but kept the catalog.
        let backend = ds.backend();
        backend
            .remove_file(&PathBuf::from("/vfs/part_00000000.bin"))
            .unwrap();
        let report = ds.recover().unwrap();
        assert_eq!(report.partitions_ok, 0);
        assert_eq!(report.missing, 1);
        assert!(matches!(ds.get_chunk(&key), Err(StoreError::NotFound)));
    }

    #[test]
    fn read_attribution_diffs_per_fetch() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let chunk = f64_chunk((0..2000).map(|i| i as f64).collect());
        let key = ChunkKey::new("m.i", "c", 0);
        ds.put_chunk(key.clone(), &chunk).unwrap();
        ds.flush().unwrap();
        ds.clear_read_cache();

        let before = ds.read_attribution();
        ds.get_chunk(&key).unwrap();
        let delta = ds.read_attribution().since(&before);
        assert_eq!(delta.gets, 1);
        assert_eq!(delta.disk_reads, 1);
        assert_eq!(delta.partitions_touched, 1);
        assert!(delta.bytes > 0);
        let codec_total: u64 = delta.codec_bytes.iter().map(|(_, v)| *v).sum();
        assert!(codec_total > 0, "codec breakdown populated: {delta:?}");

        // Warm read: served by the read cache, nothing comes off disk.
        let before = ds.read_attribution();
        ds.get_chunk(&key).unwrap();
        let delta = ds.read_attribution().since(&before);
        assert_eq!(delta.disk_reads, 0);
        assert_eq!(delta.cache_hits, 1);
        assert!(delta.codec_bytes.is_empty());
    }

    #[test]
    fn parallel_partition_loads_link_to_calling_span() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let keys: Vec<ChunkKey> = (0..3)
            .map(|i| ChunkKey::new(format!("m.i{i}"), "c", 0))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            let vals: Vec<f64> = (0..1000).map(|j| (i * 7 + j) as f64).collect();
            ds.put_chunk(key.clone(), &f64_chunk(vals)).unwrap();
        }
        ds.flush().unwrap();
        ds.clear_read_cache();

        let obs = ds.obs().clone();
        let root = obs.span("batch");
        let root_id = root.id();
        ds.get_chunk_bytes_batch(&keys, 3).unwrap();
        root.finish();

        let loads: Vec<_> = obs
            .recent_spans()
            .into_iter()
            .filter(|r| r.name == "store.partition.load")
            .collect();
        assert_eq!(loads.len(), 3);
        for load in loads {
            assert_eq!(load.parent_id, Some(root_id), "worker span linked");
        }
    }

    #[test]
    fn dedup_across_pipelines_shrinks_physical_storage() {
        // 10 "pipelines" sharing 9 of 10 columns: physical storage should be
        // close to one pipeline's worth, not ten (Fig 6a behaviour).
        let (_dir, mut ds) = store(PlacementPolicy::BySimilarity { tau: 0.7 });
        for pipe in 0..10 {
            for col in 0..10 {
                let vals: Vec<f64> = if col == 9 {
                    // The per-pipeline unique column (predictions).
                    (0..1000).map(|i| (i + pipe * 7) as f64 * 1.3).collect()
                } else {
                    (0..1000).map(|i| (i * (col + 1)) as f64).collect()
                };
                ds.put_chunk(
                    ChunkKey::new(format!("p{pipe}.final"), format!("c{col}"), 0),
                    &f64_chunk(vals),
                )
                .unwrap();
            }
        }
        let s = ds.stats();
        assert_eq!(s.dedup_hits, 81, "9 shared cols x 9 later pipelines");
        assert!(
            s.unique_bytes * 4 < s.logical_bytes,
            "at least 4x dedup gain"
        );
    }

    #[test]
    fn retract_marks_bytes_dead_and_keeps_shared_chunks_live() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let shared = f64_chunk(vec![1.0; 500]);
        let unique = f64_chunk((0..500).map(|i| i as f64).collect());
        ds.put_chunk(ChunkKey::new("a.i", "c0", 0), &shared)
            .unwrap();
        ds.put_chunk(ChunkKey::new("a.i", "c1", 0), &unique)
            .unwrap();
        // Second intermediate dedups onto the shared chunk.
        ds.put_chunk(ChunkKey::new("b.i", "c0", 0), &shared)
            .unwrap();
        ds.flush().unwrap();
        assert_eq!(ds.dead_bytes(), 0);

        let out = ds.retract_intermediate("a.i");
        assert_eq!(out.keys_removed, 2);
        // Only the unique chunk died: the shared one is still referenced by b.i.
        assert!(out.bytes_released > 0);
        assert!(ds.dead_bytes() > 0);
        assert!(!ds.contains(&ChunkKey::new("a.i", "c0", 0)));
        assert!(matches!(
            ds.get_chunk(&ChunkKey::new("a.i", "c1", 0)),
            Err(StoreError::NotFound)
        ));
        assert_eq!(
            ds.get_chunk(&ChunkKey::new("b.i", "c0", 0)).unwrap(),
            shared
        );

        // Retracting b.i kills the shared chunk too.
        let out2 = ds.retract_intermediate("b.i");
        assert_eq!(out2.keys_removed, 1);
        assert!(out2.bytes_released > 0);
    }

    #[test]
    fn reput_after_retract_resurrects_dead_chunk() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let chunk = f64_chunk((0..400).map(|i| (i % 17) as f64).collect());
        let key = ChunkKey::new("m.i", "c", 0);
        ds.put_chunk(key.clone(), &chunk).unwrap();
        ds.flush().unwrap();
        ds.retract_intermediate("m.i");
        let dead = ds.dead_bytes();
        assert!(dead > 0);
        // Re-log the same bytes: dedup hit resurrects the dead chunk.
        let outcome = ds.put_chunk(key.clone(), &chunk).unwrap();
        assert_eq!(outcome, PutOutcome::Deduplicated);
        assert_eq!(ds.dead_bytes(), 0, "resurrected chunk no longer dead");
        assert_eq!(ds.get_chunk(&key).unwrap(), chunk);
    }

    #[test]
    fn overwrite_same_key_marks_old_bytes_dead() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let key = ChunkKey::new("m.i", "c", 0);
        let v1 = f64_chunk(vec![1.0; 300]);
        let v2 = f64_chunk(vec![2.0; 300]);
        ds.put_chunk(key.clone(), &v1).unwrap();
        ds.put_chunk(key.clone(), &v2).unwrap();
        // The displaced v1 chunk has no remaining reference.
        assert!(ds.dead_bytes() > 0);
        assert_eq!(ds.get_chunk(&key).unwrap(), v2);
    }

    #[test]
    fn compact_rewrites_partition_and_preserves_live_chunks() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        // Two intermediates sharing one partition policy-wise is not
        // guaranteed, so compare bytes before/after instead.
        for i in 0..4 {
            let vals: Vec<f64> = (0..500).map(|j| (i * 1000 + j) as f64).collect();
            ds.put_chunk(
                ChunkKey::new("dead.i", format!("c{i}"), 0),
                &f64_chunk(vals),
            )
            .unwrap();
        }
        let live_chunk = f64_chunk((0..500).map(|j| j as f64 * 0.5).collect());
        let live_key = ChunkKey::new("live.i", "c", 0);
        ds.put_chunk(live_key.clone(), &live_chunk).unwrap();
        ds.flush().unwrap();
        let disk_before = ds.disk_bytes().unwrap();

        let retracted = ds.retract_intermediate("dead.i");
        assert_eq!(retracted.keys_removed, 4);
        let report = ds.compact(1.0).unwrap();
        assert_eq!(report.bytes_reclaimed, retracted.bytes_released);
        assert!(report.partitions_rewritten + report.partitions_removed > 0);
        assert_eq!(report.chunks_dropped, 4);
        assert_eq!(ds.dead_bytes(), 0);
        assert!(
            ds.disk_bytes().unwrap() < disk_before,
            "compaction shrank the on-disk footprint"
        );
        // The live chunk still reads back byte-identically (cold, off disk).
        ds.clear_read_cache();
        assert_eq!(ds.get_chunk(&live_key).unwrap(), live_chunk);
        // A second pass finds nothing to do.
        let again = ds.compact(1.0).unwrap();
        assert_eq!(again.bytes_reclaimed, 0);
        assert_eq!(again.partitions_rewritten, 0);
    }

    #[test]
    fn compact_removes_fully_dead_partition_files() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        for i in 0..3 {
            let vals: Vec<f64> = (0..800).map(|j| (i * 31 + j) as f64).collect();
            ds.put_chunk(
                ChunkKey::new("gone.i", format!("c{i}"), 0),
                &f64_chunk(vals),
            )
            .unwrap();
        }
        ds.flush().unwrap();
        assert!(ds.disk_bytes().unwrap() > 0);
        ds.retract_intermediate("gone.i");
        let report = ds.compact(1.0).unwrap();
        assert_eq!(report.partitions_removed, 1);
        assert_eq!(ds.disk_bytes().unwrap(), 0, "file deleted outright");
        assert_eq!(ds.dead_bytes(), 0);
    }

    #[test]
    fn compact_respects_live_ratio_threshold() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        // 4 chunks in one intermediate's partition; retract nothing yet.
        for i in 0..4 {
            let vals: Vec<f64> = (0..500).map(|j| (i * 997 + j) as f64).collect();
            ds.put_chunk(ChunkKey::new("m.i", format!("c{i}"), 0), &f64_chunk(vals))
                .unwrap();
        }
        // A second intermediate in its own partition; retract one of its two.
        for c in ["x", "y"] {
            let vals: Vec<f64> = (0..500).map(|j| j as f64 * 3.3).collect();
            let vals = if c == "y" {
                vals.iter().map(|v| v + 1e6).collect()
            } else {
                vals
            };
            ds.put_chunk(ChunkKey::new("n.i", c, 0), &f64_chunk(vals))
                .unwrap();
        }
        ds.flush().unwrap();
        // Kill one column of n.i by overwriting it: 50% of that partition dies.
        ds.put_chunk(
            ChunkKey::new("n.i", "y", 0),
            &f64_chunk((0..500).map(|j| j as f64 - 7.0).collect()),
        )
        .unwrap();
        let dead = ds.dead_bytes();
        assert!(dead > 0);
        // Threshold 0.2: a partition that is 50% live stays put.
        let report = ds.compact(0.2).unwrap();
        assert_eq!(report.bytes_reclaimed, 0, "ratio above threshold: skip");
        assert_eq!(ds.dead_bytes(), dead);
        // Threshold 0.6: now it qualifies.
        let report = ds.compact(0.6).unwrap();
        assert_eq!(report.bytes_reclaimed, dead);
    }

    #[test]
    fn catalog_roundtrip_restores_dead_byte_accounting() {
        let dir = tempfile::tempdir().unwrap();
        let config = DataStoreConfig {
            policy: PlacementPolicy::ByIntermediate,
            mem_capacity: 1 << 20,
            partition_target_bytes: 64 << 10,
            ..DataStoreConfig::default()
        };
        let mut ds = DataStore::open(dir.path(), config.clone()).unwrap();
        for i in 0..3 {
            let vals: Vec<f64> = (0..600).map(|j| (i * 13 + j) as f64).collect();
            ds.put_chunk(ChunkKey::new("a.i", format!("c{i}"), 0), &f64_chunk(vals))
                .unwrap();
        }
        ds.put_chunk(
            ChunkKey::new("b.i", "c", 0),
            &f64_chunk((0..600).map(|j| j as f64 * 2.5).collect()),
        )
        .unwrap();
        ds.flush().unwrap();
        ds.retract_intermediate("a.i");
        let dead_before = ds.dead_bytes();
        assert!(dead_before > 0);
        let catalog = ds.export_catalog();
        drop(ds);

        let mut ds2 = DataStore::open(dir.path(), config).unwrap();
        ds2.import_catalog(through_text(catalog));
        assert_eq!(
            ds2.dead_bytes(),
            dead_before,
            "dead-byte accounting survives reopen"
        );
        // Compaction after reopen reclaims the same bytes, and the live
        // chunk still reads.
        let report = ds2.compact(1.0).unwrap();
        assert_eq!(report.bytes_reclaimed, dead_before);
        assert_eq!(
            ds2.get_chunk(&ChunkKey::new("b.i", "c", 0)).unwrap(),
            f64_chunk((0..600).map(|j| j as f64 * 2.5).collect())
        );
    }

    #[test]
    fn compact_skips_open_partitions() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let key = ChunkKey::new("m.i", "c", 0);
        ds.put_chunk(key.clone(), &f64_chunk(vec![5.0; 400]))
            .unwrap();
        // No flush: the partition is still open in the buffer pool.
        ds.retract_intermediate("m.i");
        assert!(ds.dead_bytes() > 0);
        let report = ds.compact(1.0).unwrap();
        assert_eq!(report.partitions_scanned, 0, "open partition skipped");
        // Sealing writes the file (dead bytes and all); compaction then
        // reclaims it.
        ds.flush().unwrap();
        let report = ds.compact(1.0).unwrap();
        assert_eq!(report.partitions_removed, 1);
        assert_eq!(ds.dead_bytes(), 0);
    }

    /// A slowly-varying base and a near-duplicate differing in a handful of
    /// positions — similar enough for LSH, and the XOR frame collapses.
    fn near_pair() -> (ColumnChunk, ColumnChunk) {
        let base: Vec<f64> = (0..4096).map(|i| (i % 97) as f64).collect();
        let mut near = base.clone();
        for i in (0..near.len()).step_by(512) {
            near[i] += 1.0;
        }
        (f64_chunk(base), f64_chunk(near))
    }

    #[test]
    fn near_duplicate_put_stores_delta_and_reads_back() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let (base, near) = near_pair();
        ds.put_chunk(ChunkKey::new("m.base", "c", 0), &base)
            .unwrap();
        let k = ChunkKey::new("m.near", "c", 0);
        let (outcome, stored) = ds
            .put_chunk_sized(k.clone(), &near, PlacementPolicy::ByIntermediate, true)
            .unwrap();
        assert!(matches!(outcome, PutOutcome::Stored(_)));
        let s = ds.stats();
        assert_eq!(s.delta_puts, 1, "near-duplicate should store as a delta");
        assert!(
            (stored as usize) < near.to_bytes().len() / 2,
            "frame {stored} vs raw {}",
            near.to_bytes().len()
        );
        assert_eq!(s.delta_bytes_saved, near.to_bytes().len() as u64 - stored);
        // Warm read (open partition) rehydrates transparently.
        assert_eq!(ds.get_chunk(&k).unwrap(), near);
        // Cold read off disk too.
        ds.flush().unwrap();
        ds.clear_read_cache();
        assert_eq!(ds.get_chunk(&k).unwrap(), near);
        assert_eq!(
            ds.get_chunk(&ChunkKey::new("m.base", "c", 0)).unwrap(),
            base
        );
        // EXPLAIN attribution names the delta codec.
        let attr = ds.read_attribution();
        assert!(
            attr.codec_bytes
                .iter()
                .any(|(c, b)| c.starts_with("delta:") && *b > 0),
            "missing delta codec attribution: {:?}",
            attr.codec_bytes
        );
        assert!(ds.obs().counter("store.delta.rehydrations").get() >= 2);
    }

    #[test]
    fn batch_reads_rehydrate_deltas_at_every_parallelism() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let (base, near) = near_pair();
        let kb = ChunkKey::new("m.base", "c", 0);
        let kn = ChunkKey::new("m.near", "c", 0);
        ds.put_chunk(kb.clone(), &base).unwrap();
        ds.put_chunk(kn.clone(), &near).unwrap();
        assert_eq!(ds.stats().delta_puts, 1);
        ds.flush().unwrap();
        let keys = [kn.clone(), kb.clone(), kn.clone()];
        let expect = [near.to_bytes(), base.to_bytes(), near.to_bytes()];
        for par in [1usize, 2, 4, 0] {
            ds.clear_read_cache();
            let got = ds.get_chunk_bytes_batch(&keys, par).unwrap();
            assert_eq!(got.len(), 3);
            for (g, e) in got.iter().zip(expect.iter()) {
                assert_eq!(g, e, "parallelism {par}");
            }
        }
    }

    #[test]
    fn pinned_base_survives_retraction_and_compaction() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let (base, near) = near_pair();
        ds.put_chunk(ChunkKey::new("m.base", "c", 0), &base)
            .unwrap();
        let kn = ChunkKey::new("m.near", "c", 0);
        ds.put_chunk(kn.clone(), &near).unwrap();
        assert_eq!(ds.stats().delta_puts, 1);
        ds.flush().unwrap();
        // Retract the base's only key. The delta's pin must keep its bytes.
        ds.retract_intermediate("m.base");
        ds.compact(1.0).unwrap();
        ds.clear_read_cache();
        assert_eq!(ds.get_chunk(&kn).unwrap(), near, "base compacted away");
        assert!(matches!(
            ds.get_chunk(&ChunkKey::new("m.base", "c", 0)),
            Err(StoreError::NotFound)
        ));
        // Dropping the delta releases the pin; now everything can go.
        ds.retract_intermediate("m.near");
        ds.compact(1.0).unwrap();
        assert_eq!(ds.dead_bytes(), 0);
    }

    #[test]
    fn dedup_resurrect_of_delta_repins_base() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let (base, near) = near_pair();
        ds.put_chunk(ChunkKey::new("m.base", "c", 0), &base)
            .unwrap();
        ds.put_chunk(ChunkKey::new("m.near", "c", 0), &near)
            .unwrap();
        assert_eq!(ds.stats().delta_puts, 1);
        ds.flush().unwrap();
        // Drop the delta (releases the base pin), then re-put identical
        // bytes under a fresh key before compaction: the dedup short-circuit
        // resurrects the frame and must re-pin the base.
        ds.retract_intermediate("m.near");
        let k2 = ChunkKey::new("m.again", "c", 0);
        let (outcome, stored) = ds
            .put_chunk_sized(k2.clone(), &near, PlacementPolicy::ByIntermediate, true)
            .unwrap();
        assert_eq!(outcome, PutOutcome::Deduplicated);
        assert!(
            (stored as usize) < near.to_bytes().len(),
            "dedup hit must report the stored frame length, not the raw length"
        );
        ds.retract_intermediate("m.base");
        ds.compact(1.0).unwrap();
        ds.clear_read_cache();
        assert_eq!(ds.get_chunk(&k2).unwrap(), near);
    }

    #[test]
    fn catalog_roundtrip_preserves_deltas_pins_and_lsh() {
        let dir = tempfile::tempdir().unwrap();
        let config = DataStoreConfig {
            policy: PlacementPolicy::ByIntermediate,
            mem_capacity: 1 << 20,
            partition_target_bytes: 64 << 10,
            ..DataStoreConfig::default()
        };
        let (base, near) = near_pair();
        let kb = ChunkKey::new("m.base", "c", 0);
        let kn = ChunkKey::new("m.near", "c", 0);
        let catalog = {
            let mut ds = DataStore::open(dir.path(), config.clone()).unwrap();
            ds.put_chunk(kb.clone(), &base).unwrap();
            ds.put_chunk(kn.clone(), &near).unwrap();
            assert_eq!(ds.stats().delta_puts, 1);
            // Retract the base's key so it survives only through its pin —
            // the catalog must carry it as an extra.
            ds.retract_intermediate("m.base");
            ds.flush().unwrap();
            ds.export_catalog()
        };
        assert_eq!(catalog.deltas.len(), 1);
        assert!(!catalog.extras.is_empty(), "pinned base must export");
        assert_eq!(catalog.lsh_items.len(), 2);

        let mut ds = DataStore::open(dir.path(), config).unwrap();
        ds.import_catalog(through_text(catalog));
        assert_eq!(
            ds.get_chunk(&kn).unwrap(),
            near,
            "delta readable after reopen"
        );
        // The pinned base must not be reclaimable while the delta lives.
        ds.compact(1.0).unwrap();
        ds.clear_read_cache();
        assert_eq!(ds.get_chunk(&kn).unwrap(), near);
        // The rebuilt LSH index still finds the old chunks: a third
        // near-duplicate put after reopen delta-encodes against them.
        let mut third = base.data.to_f64();
        third[0] += 2.0;
        ds.put_chunk(ChunkKey::new("m.third", "c", 0), &f64_chunk(third))
            .unwrap();
        assert_eq!(
            ds.stats().delta_puts,
            2,
            "reopened store must keep finding delta bases"
        );
    }

    #[test]
    fn similarity_placements_continue_after_reopen() {
        let dir = tempfile::tempdir().unwrap();
        let config = DataStoreConfig {
            policy: PlacementPolicy::BySimilarity { tau: 0.5 },
            mem_capacity: 1 << 20,
            partition_target_bytes: 64 << 10,
            // Isolate the similarity-placement counter from delta encoding.
            delta_enabled: false,
            ..DataStoreConfig::default()
        };
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let catalog = {
            let mut ds = DataStore::open(dir.path(), config.clone()).unwrap();
            for v in 0..3u32 {
                let mut c = vals.clone();
                c[v as usize] += 0.001;
                ds.put_chunk(ChunkKey::new(format!("m{v}"), "c", 0), &f64_chunk(c))
                    .unwrap();
            }
            assert!(ds.stats().similarity_placements >= 1);
            ds.flush().unwrap();
            ds.export_catalog()
        };
        let before = catalog.stats.similarity_placements;
        let mut ds = DataStore::open(dir.path(), config).unwrap();
        ds.import_catalog(through_text(catalog));
        // The first put after reopen opens a fresh partition (every imported
        // item points at a sealed one), but it joins the rebuilt index — so
        // the next similar put clusters with it. Before LSH state was
        // persisted, `query_best` saw only sealed candidates forever and the
        // counter stalled for good.
        for v in 0..2u32 {
            let mut c = vals.clone();
            c[500 + v as usize] += 0.001;
            ds.put_chunk(ChunkKey::new(format!("m9{v}"), "c", 0), &f64_chunk(c))
                .unwrap();
        }
        assert!(
            ds.stats().similarity_placements > before,
            "similarity placement must keep counting after reopen"
        );
    }

    #[test]
    fn reencode_as_delta_squeezes_a_raw_chunk() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let (base, near) = near_pair();
        ds.put_chunk(ChunkKey::new("m.base", "c", 0), &base)
            .unwrap();
        // dedup=false puts compute no signature and never delta-encode:
        // this chunk lands raw, like a THRESHOLD_QT demotion result.
        let kn = ChunkKey::new("m.near", "c", 0);
        ds.put_chunk_with(kn.clone(), &near, PlacementPolicy::ByIntermediate, false)
            .unwrap();
        assert_eq!(ds.stats().delta_puts, 0);
        let raw_len = near.to_bytes().len() as u64;
        let new_len = ds.reencode_as_delta(&kn).unwrap();
        assert!(
            new_len < raw_len,
            "re-encode should win: {new_len} vs {raw_len}"
        );
        assert_eq!(ds.stats().delta_puts, 1);
        assert_eq!(ds.get_chunk(&kn).unwrap(), near);
        // A second attempt is a no-op at the same length.
        assert_eq!(ds.reencode_as_delta(&kn).unwrap(), new_len);
        // The old raw copy is dead; compaction reclaims it and reads hold.
        ds.flush().unwrap();
        assert!(ds.dead_bytes() >= raw_len);
        ds.compact(1.0).unwrap();
        ds.clear_read_cache();
        assert_eq!(ds.get_chunk(&kn).unwrap(), near);
        assert_eq!(
            ds.get_chunk(&ChunkKey::new("m.base", "c", 0)).unwrap(),
            base
        );
        // The base itself refuses re-encoding (deltas depend on its bytes).
        let kb = ChunkKey::new("m.base", "c", 0);
        let base_len = ds.reencode_as_delta(&kb).unwrap();
        assert_eq!(base_len, base.to_bytes().len() as u64);
        assert_eq!(ds.stats().delta_puts, 1);
    }
}
