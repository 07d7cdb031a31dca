//! The DataStore facade: dedup-aware chunk placement over the buffer pool
//! and disk store (Alg. 4's storage path).

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mistique_compress::{basedelta, compress_auto_within, lzss, Scheme};
use mistique_dataframe::ColumnChunk;
use mistique_dedup::{content_digest, discretize, ContentDigest, LshIndex, MinHasher, Signature};
pub use mistique_obs::CompactionReport;
use mistique_obs::{Counter, Gauge, Histogram, Obs, SpanContext};

use crate::backend::{RealFs, StorageBackend};
use crate::disk::DiskStore;
use crate::ledger::{Ledger, PartitionCensus};
use crate::lru::LruCache;
use crate::mem::InMemoryStore;
use crate::partition::{FrameRead, Partition, PartitionId};
use crate::striped::run_striped;
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

/// What a [`DataStore::recover`] pass found and did. Every partition file in
/// the directory is accounted for: `partitions_ok + quarantined` covers the
/// on-disk set, and `missing` counts catalog references with no backing file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Partitions on disk whose every byte verified.
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
    /// Partition files read from disk (and opened).
    pub disk_reads: u64,
    /// Distinct partitions consulted.
    pub partitions_touched: u64,
    /// Compressed bytes decoded, per compression codec (sorted by codec
    /// name): each member frame a read decoded — a partition's directory,
    /// one chunk — under its own codec, and rehydrated delta frames under
    /// `delta:<codec>`.
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

/// Where the tier walk found a resident partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    /// Loaded by this batch but not cacheable.
    Side,
    /// Open in the buffer pool.
    Pool,
    /// In the read cache.
    Cache,
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
    delta_attempts: Counter,
    delta_bytes_saved: Counter,
    delta_base_pins: Counter,
    delta_rehydrations: Counter,
    /// Seal attribution, one row per scheme indexed by `Scheme as usize`
    /// (`partition::SchemeTally`): `compress.members.{count,in_bytes,out_bytes}`
    /// counts the sealed files, `compress.<flat codec>.{count,raw_bytes,
    /// frame_bytes}` the chunk members each codec won. Only file bytes are
    /// `in_bytes` / `out_bytes`, so a sum over `compress.*.in_bytes`
    /// counts every stored byte once.
    codecs: [[Counter; 3]; Scheme::ALL.len()],
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
            delta_attempts: obs.counter("store.delta.attempts"),
            delta_bytes_saved: obs.counter("store.delta.bytes_saved"),
            delta_base_pins: obs.counter("store.delta.base_pins"),
            delta_rehydrations: obs.counter("store.delta.rehydrations"),
            codecs: Scheme::ALL.map(|s| {
                let fields = match s {
                    Scheme::Members => ["count", "in_bytes", "out_bytes"],
                    _ => ["count", "raw_bytes", "frame_bytes"],
                };
                fields.map(|field| obs.counter(&format!("compress.{}.{field}", s.name())))
            }),
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
    /// Key → digest → location, references, partition byte accounting and
    /// the similarity index over stored chunks.
    ledger: Ledger,
    next_partition: PartitionId,
    /// Per-intermediate open partition (ByIntermediate policy).
    open_by_intermediate: HashMap<String, PartitionId>,
    minhasher: MinHasher,
    /// The one LZSS encoder every put's frame and every delta attempt runs
    /// through: its tables are filled once, not once per encode.
    lzss: lzss::Encoder,
    /// Byte-budgeted LRU over partitions read back from disk, each its file
    /// with the members decoded from it so far, charged both; evicts one
    /// victim at a time (never a clear-all).
    read_cache: LruCache<PartitionId, Partition>,
    /// Partitions set aside by [`DataStore::recover`]; reads of chunks in
    /// them fail with [`StoreError::Quarantined`] instead of a decode error.
    quarantined: HashMap<PartitionId, String>,
    /// Cumulative compressed bytes decoded, per codec (behind a mutex
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
        let metrics = StoreMetrics::new(&obs);
        Ok(DataStore {
            ledger: Ledger::new(
                LshIndex::new(config.lsh_bands, rows),
                metrics.delta_base_pins.clone(),
            ),
            metrics,
            obs,
            mem: InMemoryStore::new(config.mem_capacity),
            disk: DiskStore::open_with_backend(dir, backend)?,
            next_partition: 0,
            open_by_intermediate: HashMap::new(),
            minhasher: MinHasher::new(config.minhash_hashes),
            lzss: lzss::Encoder::default(),
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
        self.ledger.pins = self.metrics.delta_base_pins.clone();
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

    /// Account `frames` frames of `len` bytes in all decoded under a codec
    /// label — a member frame's scheme, `delta:<scheme>` for rehydrated
    /// frames (feeds [`DataStore::read_attribution`] and the `read.codec.*`
    /// counters). `&self`, so parallel partition-load workers can call it.
    fn note_codec_read(&self, label: &str, frames: u64, len: u64) {
        *self
            .codec_read_bytes
            .lock()
            .unwrap()
            .entry(label.to_string())
            .or_insert(0) += len;
        let metric = label.replace(':', "_");
        self.obs
            .counter(&format!("read.codec.{metric}.bytes"))
            .add(len);
        self.obs
            .counter(&format!("read.codec.{metric}.count"))
            .add(frames);
    }

    /// Credit decoded member frames to their codecs, one update per codec
    /// rather than per frame: a whole-layer read decodes hundreds.
    fn note_frame_reads(&self, reads: &mut [FrameRead]) {
        reads.sort_unstable_by_key(|&(scheme, _)| scheme as u8);
        for same in reads.chunk_by(|a, b| a.0 == b.0) {
            let len = same.iter().map(|&(_, len)| len as u64).sum();
            self.note_codec_read(same[0].0.name(), same.len() as u64, len);
        }
    }

    /// Store one chunk under its logical key using the configured placement
    /// policy. Identical chunk bytes seen before are not stored again
    /// (exact dedup).
    pub fn put_chunk(
        &mut self,
        key: ChunkKey,
        chunk: &ColumnChunk,
    ) -> Result<PutOutcome, StoreError> {
        self.put_chunk_sized(key, chunk, self.config.policy, true)
            .map(|(outcome, _)| outcome)
    }

    /// Store one chunk with an explicit placement policy, optionally
    /// bypassing de-duplication entirely (`dedup = false` models the paper's
    /// STORE_ALL baseline: every chunk is stored even if identical bytes
    /// exist). Also returns the chunk's stored size in bytes: the chunk is
    /// serialized exactly once, so callers that need byte accounting (e.g.
    /// `stored_bytes` metadata) take it from here instead of serializing
    /// the chunk again themselves.
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
        if dedup {
            if let Some(rec) = self.ledger.chunk(digest) {
                // Report the *stored* length: for a chunk held as a delta
                // frame that is the frame, not the raw serialization.
                let stored = rec.len;
                self.ledger.bind(key, digest);
                self.stats.dedup_hits += 1;
                self.metrics.dedup_exact_hits.inc();
                return Ok((PutOutcome::Deduplicated, stored));
            }
        }

        // One MinHash signature feeds both similarity placement and delta
        // base selection, so it is computed when either needs it.
        let delta = dedup && self.config.delta_enabled;
        let sig = (delta || matches!(policy, PlacementPolicy::BySimilarity { .. }))
            .then(|| self.signature_of(chunk));
        // The chunk's own frame: what it is sealed as unless a delta beats it.
        let own = compress_auto_within(&bytes, usize::MAX, &mut self.lzss)
            .expect("every frame is shorter than usize::MAX");
        // A failed probe of the base is not a failed put: store the chunk.
        let found = match &sig {
            Some(sig) if delta => self
                .delta_frame(&bytes, own.len(), sig, digest)
                .unwrap_or(None),
            _ => None,
        };
        let (frame, base) = match found {
            Some((base, frame)) => (frame, Some(base)),
            None => (own, None),
        };

        let pid = self.choose_partition(&key, policy, sig.as_ref())?;
        let len = stored_len(&frame);
        self.place(pid, digest, frame, base, serialized_len, sig)?;
        self.ledger.bind(key, digest);
        self.stats.chunks_stored += 1;
        Ok((PutOutcome::Stored(pid), len))
    }

    /// Bind each `(key, source, logical_len)`'s `key` to the chunk `source`
    /// is bound to, with the accounting of an exact-dedup put of that
    /// chunk: `logical_len`, the chunk's serialized length, is charged to
    /// `logical_bytes`, and each bind counts as a dedup hit and a put
    /// (`store.put.count`; not timed into `store.put.ns`). This is how a
    /// layer of a shared DNN prefix is logged without its bytes (DESIGN.md
    /// §2 "Logging a shared prefix once"). All or nothing: when a source key
    /// is unbound, nothing changes and `None` is returned. Otherwise returns
    /// the stored bytes of the bound chunks, as the puts would have.
    pub fn bind_chunks(&mut self, binds: Vec<(ChunkKey, ChunkKey, u64)>) -> Option<u64> {
        let digests: Vec<ContentDigest> = binds
            .iter()
            .map(|(_, source, _)| self.ledger.resolve(source).map(|(digest, _)| digest))
            .collect::<Option<_>>()?;
        let mut stored = 0;
        for ((key, _, logical_len), digest) in binds.into_iter().zip(digests) {
            stored += self.ledger.chunk(digest).expect("resolved above").len;
            self.ledger.bind(key, digest);
            self.stats.logical_bytes += logical_len;
            self.stats.dedup_hits += 1;
            self.metrics.put_count.inc();
            self.metrics.put_bytes.add(logical_len);
            self.metrics.dedup_exact_hits.inc();
        }
        Some(stored)
    }

    fn signature_of(&self, chunk: &ColumnChunk) -> Signature {
        let elements = discretize(&chunk.data.to_f64(), self.config.discretize_bin);
        self.minhasher.signature(&elements)
    }

    /// Delta attempt: if a near-duplicate chunk is already stored, XOR `raw`
    /// against it and keep the delta iff it seals at least 25% smaller than
    /// the chunk's own frame, `own_frame` bytes long (a marginal win is not
    /// worth the read dependency). The delta frame must fit that budget
    /// before its seal is tried: its inner frame is already `compress_auto`'s
    /// best, so the seal seldom shrinks it, and the encode gives up as soon
    /// as it cannot fit. Returns the base and the sealed delta frame.
    fn delta_frame(
        &mut self,
        raw: &[u8],
        own_frame: usize,
        sig: &Signature,
        digest: ContentDigest,
    ) -> Result<Option<(ContentDigest, Vec<u8>)>, StoreError> {
        let tau = self.config.delta_tau;
        let Some(base) = self.ledger.delta_base_for(sig, tau, digest) else {
            return Ok(None);
        };
        let base_bytes = self.probe(base)?;
        self.metrics.delta_attempts.inc();
        let budget = own_frame * 3 / 4;
        let sealed =
            basedelta::encode_within(raw, &base_bytes, (base.0, base.1), budget, &mut self.lzss)
                .and_then(|delta| compress_auto_within(&delta, budget + 1, &mut self.lzss));
        Ok(sealed.map(|frame| (base, frame)))
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
        let (digest, rec) = self.ledger.resolve(key).ok_or(StoreError::NotFound)?;
        let (cur_len, old_pid) = (rec.len, rec.partition);
        if !self.config.delta_enabled || rec.base.is_some() || rec.is_base() {
            return Ok(cur_len);
        }
        let raw = self.probe(digest)?;
        let sig = self.signature_of(&ColumnChunk::from_bytes(&raw)?);
        let own = compress_auto_within(&raw, usize::MAX, &mut self.lzss)
            .expect("every frame is shorter than usize::MAX");
        let Some((base, frame)) = self.delta_frame(&raw, own.len(), &sig, digest)? else {
            return Ok(cur_len);
        };
        // Place the frame into an open partition — never the chunk's current
        // one: Partition::add would index-shadow the old copy while keeping
        // both in the chunk vector, double-counting raw bytes.
        let mut pid = self.choose_partition(key, PlacementPolicy::ByIntermediate, None)?;
        if pid == old_pid {
            pid = self.new_partition()?;
            self.open_by_intermediate
                .insert(key.intermediate.clone(), pid);
        }
        let len = stored_len(&frame);
        self.place(pid, digest, frame, Some(base), raw.len() as u64, None)?;
        Ok(len)
    }

    /// The tail of every physical store: add `frame`, the chunk's stored
    /// bytes as the put encoded them, to the open partition `pid`, persist
    /// whatever the pool evicts to make room, record the new copy in the
    /// ledger (a delta frame against `base`, `raw_len` bytes before
    /// encoding), and seal the partition once it reaches its target size.
    fn place(
        &mut self,
        pid: PartitionId,
        digest: ContentDigest,
        frame: Vec<u8>,
        base: Option<ContentDigest>,
        raw_len: u64,
        sig: Option<Signature>,
    ) -> Result<(), StoreError> {
        let len = stored_len(&frame);
        let part = self.mem.get_mut(pid).expect("open partition resident");
        part.add(digest, frame);
        let evicted = self.mem.grow(pid, len as usize);
        self.metrics.pool_evictions.add(evicted.len() as u64);
        for p in evicted {
            self.seal_partition(p)?;
        }
        // The signature is indexed after placement, so its item can name
        // both the partition (similarity placement) and the digest (delta
        // base).
        self.ledger.record_copy(digest, pid, len, base, sig);
        self.stats.unique_bytes += len;
        if base.is_some() {
            self.stats.delta_puts += 1;
            self.stats.delta_bytes_saved += raw_len - len;
            self.metrics.delta_puts.inc();
            self.metrics.delta_bytes_saved.add(raw_len - len);
        }
        let full = self
            .mem
            .get(pid)
            .is_some_and(|p| p.raw_bytes() >= self.config.partition_target_bytes);
        if full {
            if let Some(p) = self.mem.remove(pid) {
                self.seal_partition(p)?;
            }
        }
        Ok(())
    }

    /// Pick the open partition a chunk goes to. Only partitions resident in
    /// the buffer pool are open; a sealed one never is (invariant vi of
    /// [`DataStore::check_invariants`]).
    fn choose_partition(
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
                    if self.mem.contains(pid) {
                        return Ok(pid);
                    }
                }
                let pid = self.new_partition()?;
                self.open_by_intermediate
                    .insert(key.intermediate.clone(), pid);
                Ok(pid)
            }
            PlacementPolicy::BySimilarity { tau } => {
                let sig = sig.expect("similarity placement requires a signature");
                // The best match whose partition is still open — after a
                // reopen every imported item points at a sealed partition,
                // and settling for the single best match would stop
                // clustering for good.
                let open = |pid, _| self.mem.contains(pid);
                match self.ledger.most_similar(sig, tau, open) {
                    Some((pid, _)) => {
                        self.stats.similarity_placements += 1;
                        self.metrics.similarity_placements.inc();
                        Ok(pid)
                    }
                    None => self.new_partition(),
                }
            }
        }
    }

    fn new_partition(&mut self) -> Result<PartitionId, StoreError> {
        let pid = self.next_partition;
        self.next_partition += 1;
        self.stats.partitions_created += 1;
        self.metrics.partitions_created.inc();
        // Inserting an empty partition evicts only when the pool is already
        // over budget (one resident partition larger than the whole pool).
        for p in self.mem.insert(Partition::new(pid)) {
            self.seal_partition(p)?;
        }
        Ok(pid)
    }

    fn seal_partition(&mut self, partition: Partition) -> Result<(), StoreError> {
        let (sealed, mut tally) = partition.seal_tallied();
        self.metrics.partitions_sealed.inc();
        // Per-codec compression accounting: the chunk members summed under
        // the codec each one won with, and the file as one `members` frame.
        tally[Scheme::Members as usize] = [1, partition.raw_bytes() as u64, sealed.len() as u64];
        for (counters, row) in self.metrics.codecs.iter().zip(&tally) {
            for (c, v) in counters.iter().zip(row) {
                c.add(*v);
            }
        }
        self.disk.write(partition.id(), &sealed)?;
        self.ledger.mark_sealed(partition.id());
        Ok(())
    }

    /// Flush every open partition to disk.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        for p in self.mem.drain() {
            self.seal_partition(p)?;
        }
        Ok(())
    }

    /// Remove every chunk reference of one intermediate (a purge). Chunk
    /// bytes whose last reference this was become dead inside their
    /// partitions — still on disk, reclaimed by the next
    /// [`DataStore::compact`] pass. Chunks shared with other intermediates
    /// via dedup stay live.
    pub fn retract_intermediate(&mut self, intermediate: &str) -> RetractOutcome {
        self.ledger.retract(intermediate)
    }

    /// Raw bytes of dead chunks currently sitting inside partitions.
    pub fn dead_bytes(&self) -> u64 {
        self.ledger.dead_bytes()
    }

    /// Rewrite every sealed on-disk partition whose live-byte ratio has
    /// dropped to `live_ratio_threshold` or below, dropping its dead chunks;
    /// fully-dead partitions are deleted outright. Each rewrite is a single
    /// `write_atomic` overwrite of the partition file (the id — and thus the
    /// catalog's `digest → partition` mapping — never changes), so a crash
    /// at any point leaves each file in exactly its pre- or post-compaction
    /// state. Open and quarantined partitions are skipped: an open one is
    /// sealed with every chunk it holds, dead ones included, and sheds them
    /// in a later pass; a quarantined one is evidence. A rewrite verifies
    /// every byte of the file and copies the live chunks' frames as they are
    /// ([`Partition::compacted`]): it decodes and encodes nothing.
    pub fn compact(&mut self, live_ratio_threshold: f64) -> Result<CompactionReport, StoreError> {
        let mut report = CompactionReport::default();
        for (pid, census) in self.ledger.census() {
            let (part, live) = (census.part, &census.live);
            if self.mem.contains(pid) || self.quarantined.contains_key(&pid) || !part.sealed {
                continue;
            }
            if !self.disk.contains(pid) {
                // No backing file. If nothing live maps here the partition
                // was already deleted (e.g. a crash landed between a
                // fully-dead partition's removal and the next catalog
                // export): retire its stale accounting so a re-imported
                // catalog converges to dead_bytes() == 0. Live chunks
                // without a file are `recover`'s to report.
                if live.is_empty() {
                    self.forget_dropped(pid, &census, &mut report);
                }
                continue;
            }
            report.partitions_scanned += 1;
            if part.dead == 0 {
                continue;
            }
            let live_ratio = 1.0 - part.dead as f64 / part.total as f64;
            if live_ratio > live_ratio_threshold {
                continue;
            }
            if live.is_empty() {
                self.disk.remove(pid)?;
                report.partitions_removed += 1;
            } else {
                let rewritten = Partition::compacted(pid, self.disk.read(pid)?, live)?;
                self.disk.write(pid, &rewritten)?;
                report.partitions_rewritten += 1;
            }
            self.read_cache.remove(&pid);
            self.forget_dropped(pid, &census, &mut report);
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

    /// Compaction dropped partition `pid`'s dead bytes from disk (or found
    /// the whole file already gone): drop them from the books too.
    fn forget_dropped(
        &mut self,
        pid: PartitionId,
        census: &PartitionCensus,
        report: &mut CompactionReport,
    ) {
        self.ledger.drop_dead(pid, &census.dead_chunks);
        let (bytes, chunks) = (census.part.dead, census.dead_chunks.len() as u64);
        report.bytes_reclaimed += bytes;
        report.chunks_dropped += chunks;
        // Saturating: these counters may come from an imported catalog.
        self.stats.unique_bytes = self.stats.unique_bytes.saturating_sub(bytes);
        self.stats.chunks_stored = self.stats.chunks_stored.saturating_sub(chunks);
    }

    /// Recovery pass over the store directory, run after (re)opening over a
    /// directory that may have seen a crash: removes orphaned `*.tmp` files,
    /// verifies every byte of every partition file, and quarantines
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
        for pid in self.ledger.chunk_partitions() {
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

    /// Check the store's bookkeeping invariants, (i)–(vi) of DESIGN.md
    /// "Chunk ledger": key bindings, reference counts and base pins, the
    /// no-delta-chain rule, per-partition dead-byte accounting, LSH item
    /// ownership, and that no sealed partition is open in the buffer pool.
    /// The error describes the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.ledger.check_invariants(|pid| self.mem.contains(pid))
    }

    /// Whether a chunk has been stored under this key.
    pub fn contains(&self, key: &ChunkKey) -> bool {
        self.ledger.resolve(key).is_some()
    }

    /// Read a chunk back by key: a batch of one.
    pub fn get_chunk(&mut self, key: &ChunkKey) -> Result<ColumnChunk, StoreError> {
        let bytes = self.get_chunk_bytes_batch(std::slice::from_ref(key), 1)?;
        Ok(ColumnChunk::from_bytes(&bytes[0])?)
    }

    // The tier walk, in pieces: a chunk's partition is resident — in the
    // batch's side map, open in the buffer pool, or in the read cache — or
    // on disk to be loaded, and in any of them only the chunk's own member
    // is decoded. The batch read and the put side's probe are the two walks
    // built from them.

    /// Reads of a quarantined partition fail with the recovery verdict.
    fn readable(&self, pid: PartitionId) -> Result<(), StoreError> {
        match self.quarantined.get(&pid) {
            None => Ok(()),
            Some(reason) => Err(StoreError::Quarantined {
                partition: pid,
                reason: reason.clone(),
            }),
        }
    }

    /// The (readable) partition the ledger names for a digest.
    fn locate(&self, digest: ContentDigest) -> Result<PartitionId, StoreError> {
        let rec = self.ledger.chunk(digest).ok_or(StoreError::NotFound)?;
        self.readable(rec.partition)?;
        Ok(rec.partition)
    }

    /// Bring one sealed partition in from disk — read it, verify its head,
    /// decode the directory, and verify and decode the members holding
    /// `wanted` — under a `store.partition.load` span
    /// (`members_decoded` of `members`). The span links to `ctx` explicitly
    /// so the trace tree is the same whether the load runs on the calling
    /// thread or (`&self`) on a prefetch worker.
    fn load(
        &self,
        pid: PartitionId,
        wanted: &[ContentDigest],
        ctx: Option<&SpanContext>,
    ) -> Result<Partition, StoreError> {
        let mut sp = self.obs.span_with_parent("store.partition.load", ctx);
        sp.attr("pid", pid);
        let (part, directory) = Partition::open(pid, self.disk.read(pid)?)?;
        let mut reads = vec![directory];
        for &digest in wanted {
            reads.extend(part.chunk(digest)?.1);
        }
        self.note_frame_reads(&mut reads);
        sp.attr("members_decoded", part.members_decoded());
        sp.attr("members", part.members());
        Ok(part)
    }

    /// The tier walk's one lookup: a chunk of partition `pid` when the
    /// partition is resident — in the batch's `side` map, the buffer pool
    /// or the read cache, looked up in that order — with the tier that held
    /// it; `None` when it is in none of them. The chunk's member is decoded
    /// unless it already is. A member decoded from a file is credited to its
    /// codec, and in the read cache the partition is re-charged; one decoded
    /// from an open partition is neither (its frame never left memory).
    fn resident_chunk(
        &mut self,
        pid: PartitionId,
        digest: ContentDigest,
        side: &HashMap<PartitionId, Partition>,
    ) -> Option<Result<(Vec<u8>, Tier), StoreError>> {
        let (part, tier) = match side.get(&pid) {
            Some(part) => (part, Tier::Side),
            None => match self.mem.get(pid) {
                Some(part) => (part, Tier::Pool),
                None => (&*self.read_cache.get_mut(&pid)?, Tier::Cache),
            },
        };
        let (bytes, read) = match part.chunk(digest) {
            Ok((bytes, read)) => (bytes.to_vec(), read),
            Err(e) => return Some(Err(e)),
        };
        let charge = part.resident_bytes();
        if let Some(read) = read.filter(|_| tier != Tier::Pool) {
            self.note_frame_reads(&mut [read]);
            if tier == Tier::Cache {
                let evicted = self.read_cache.recharge(&pid, charge);
                self.count_read_cache_evictions(evicted.len());
            }
        }
        Some(Ok((bytes, tier)))
    }

    /// Insert a partition just read from disk into the read cache, evicting
    /// LRU victims one at a time and counting them. Returns the partition
    /// back when it was not cached: its file alone exceeds the whole budget.
    fn cache_loaded_partition(&mut self, part: Partition) -> Option<Partition> {
        let charge = part.resident_bytes();
        if charge > self.read_cache.capacity_bytes() {
            return Some(part);
        }
        let evicted = self.read_cache.insert(part.id(), part, charge);
        self.count_read_cache_evictions(evicted.len());
        None
    }

    fn count_read_cache_evictions(&self, evicted: usize) {
        self.metrics.read_cache_evictions.add(evicted as u64);
        self.metrics
            .read_cache_bytes
            .set_u64(self.read_cache.used_bytes() as u64);
    }

    /// The put side's walk, for delta probes and re-encodes: the stored
    /// bytes of a digest (for a delta, the frame), with no read-path hit or
    /// miss counters charged, and a partition that had to be loaded is left
    /// in the read cache for the next probe.
    fn probe(&mut self, digest: ContentDigest) -> Result<Vec<u8>, StoreError> {
        let pid = self.locate(digest)?;
        if let Some(found) = self.resident_chunk(pid, digest, &HashMap::new()) {
            return found.map(|(bytes, _)| bytes);
        }
        let part = self.load(pid, &[digest], self.obs.current_context().as_ref())?;
        let bytes = part.chunk(digest)?.0.to_vec();
        self.cache_loaded_partition(part);
        Ok(bytes)
    }

    /// Estimated serialized byte volume of a batch read, summed from the
    /// ledger's stored lengths (recorded on every put and persisted in the
    /// catalog). Keys that don't resolve contribute 0 — this sizes read
    /// fan-out, it is not an existence check.
    pub fn batch_bytes_hint(&self, keys: &[ChunkKey]) -> u64 {
        let resolved = keys.iter().filter_map(|k| self.ledger.resolve(k));
        resolved.map(|(_, rec)| rec.len).sum()
    }

    /// Batch read: the serialized bytes of many chunks at once. Partitions
    /// that must come off disk are read, and the members the batch wants
    /// decoded, concurrently on up to `parallelism` scoped threads; results
    /// are returned in request order. This is the store's one read path:
    /// [`DataStore::get_chunk`] is a batch of one.
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
        type Loc = (ContentDigest, PartitionId);
        let mut locs: Vec<(Loc, Option<Loc>)> = Vec::with_capacity(keys.len());
        for key in keys {
            let (digest, rec) = self.ledger.resolve(key).ok_or(StoreError::NotFound)?;
            self.readable(rec.partition)?;
            let base = match rec.base {
                Some(base) => Some((base, self.locate(base)?)),
                None => None,
            };
            locs.push(((digest, rec.partition), base));
        }

        // Which distinct partitions have to come off disk, and which of
        // their members does the batch want? Base partitions ride the same
        // fan-out but are not charged as partitions the *request* touched.
        let mut seen: HashSet<PartitionId> = HashSet::new();
        let mut missing: Vec<PartitionId> = Vec::new();
        for &((_, pid), _) in &locs {
            if seen.insert(pid) && !self.mem.contains(pid) && !self.read_cache.contains(&pid) {
                missing.push(pid);
            }
        }
        self.metrics.get_partitions_touched.add(seen.len() as u64);
        for (_, bpid) in locs.iter().filter_map(|&(_, base)| base) {
            if seen.insert(bpid) && !self.mem.contains(bpid) && !self.read_cache.contains(&bpid) {
                missing.push(bpid);
            }
        }
        let mut wanted: HashMap<PartitionId, Vec<ContentDigest>> =
            missing.iter().map(|&pid| (pid, Vec::new())).collect();
        for &(loc, base) in &locs {
            for (digest, pid) in std::iter::once(loc).chain(base) {
                if let Some(w) = wanted.get_mut(&pid) {
                    w.push(digest);
                }
            }
        }

        // Capture the caller's active span before any workers spawn.
        let ctx = self.obs.current_context();
        let loaded = run_striped(
            missing.len(),
            parallelism,
            &|i| self.load(missing[i], &wanted[&missing[i]], ctx.as_ref()),
            || StoreError::CorruptPartition("partition load worker panicked"),
        )?;
        // Loaded partitions enter the read cache serially and in request
        // order, so eviction accounting and LRU order are those of a serial
        // read. One that cannot enter the cache still serves this batch.
        let fresh: HashSet<PartitionId> = missing.iter().copied().collect();
        let mut side: HashMap<PartitionId, Partition> = HashMap::new();
        for part in loaded {
            self.metrics.get_disk_reads.inc();
            self.metrics.read_cache_misses.inc();
            if let Some(part) = self.cache_loaded_partition(part) {
                side.insert(part.id(), part);
            }
        }

        let mut out = Vec::with_capacity(keys.len());
        for &((digest, pid), base) in &locs {
            let mut bytes = self.batch_chunk(digest, pid, &mut side, &fresh, true)?;
            // The frame check covers catalogs written before the ledger,
            // which could keep a delta edge for a chunk re-stored raw.
            if let Some((base, bpid)) = base.filter(|_| basedelta::is_delta_frame(&bytes)) {
                let base_bytes = self.batch_chunk(base, bpid, &mut side, &fresh, false)?;
                let raw = basedelta::decode(&bytes, &base_bytes, (base.0, base.1))?;
                // Attribute the frame to `delta:<scheme>`.
                let scheme = basedelta::inner_scheme(&bytes)
                    .map(|s| s.name())
                    .unwrap_or("unknown");
                self.note_codec_read(&format!("delta:{scheme}"), 1, bytes.len() as u64);
                self.metrics.delta_rehydrations.inc();
                bytes = raw;
            }
            self.metrics.get_bytes.add(bytes.len() as u64);
            out.push(bytes);
        }
        Ok(out)
    }

    /// The batch read's walk for one digest: the partition resident in the
    /// batch's side map (loaded but not cacheable), the buffer pool or the
    /// read cache, else re-read and kept aside for the rest of the batch.
    /// `count` charges the request's hit counters (base fetches for
    /// rehydration do not); a partition this batch itself loaded (`fresh`)
    /// is a miss, not a hit.
    fn batch_chunk(
        &mut self,
        digest: ContentDigest,
        pid: PartitionId,
        side: &mut HashMap<PartitionId, Partition>,
        fresh: &HashSet<PartitionId>,
        count: bool,
    ) -> Result<Vec<u8>, StoreError> {
        if let Some(found) = self.resident_chunk(pid, digest, side) {
            let (bytes, tier) = found?;
            match tier {
                Tier::Pool if count => self.metrics.get_mem_hits.inc(),
                Tier::Cache if count && !fresh.contains(&pid) => {
                    self.metrics.get_cache_hits.inc();
                    self.metrics.read_cache_hits.inc();
                }
                _ => {}
            }
            return Ok(bytes);
        }
        // Loaded this batch, then evicted by a later partition of the same
        // batch (cache smaller than the batch).
        let part = self.load(pid, &[digest], self.obs.current_context().as_ref())?;
        self.metrics.get_disk_reads.inc();
        let bytes = part.chunk(digest)?.0.to_vec();
        side.insert(pid, part);
        Ok(bytes)
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
        self.ledger.export(self.next_partition, self.stats)
    }

    /// Restore a catalog exported by [`DataStore::export_catalog`] into a
    /// freshly opened store over the same directory. All restored partitions
    /// are treated as sealed (reads come from disk). Reference counts and
    /// per-partition live/dead byte accounting are rebuilt from the entries:
    /// dead bytes are the recorded partition totals minus the live chunk
    /// bytes, so compaction pressure survives a restart.
    pub fn import_catalog(&mut self, catalog: StoreCatalog) {
        self.next_partition = self.next_partition.max(catalog.next_partition);
        self.stats = catalog.stats;
        self.ledger.import(catalog);
    }
}

/// A chunk's stored length — its stored bytes before the codec, the raw
/// serialization or a delta frame — from the frame header that carries it.
fn stored_len(frame: &[u8]) -> u64 {
    mistique_compress::raw_len_of(frame).expect("a compress_auto frame")
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

    fn store(policy: PlacementPolicy) -> (mistique_testkit::TempDir, DataStore) {
        let dir = mistique_testkit::tempdir().unwrap();
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
    fn a_bind_is_accounted_as_the_dedup_put_it_replaces() {
        let chunks: Vec<ColumnChunk> = (0..3)
            .map(|c| f64_chunk((0..200).map(|i| (i * (c + 1)) as f64).collect()))
            .collect();
        let key = |m: &str, c: usize| ChunkKey::new(m, format!("n{c}"), 0);
        let put_all = |ds: &mut DataStore, m: &str| {
            for (c, chunk) in chunks.iter().enumerate() {
                ds.put_chunk(key(m, c), chunk).unwrap();
            }
        };
        let (_a, mut by_put) = store(PlacementPolicy::ByIntermediate);
        put_all(&mut by_put, "m0.i");
        put_all(&mut by_put, "m1.i");
        let (_b, mut by_bind) = store(PlacementPolicy::ByIntermediate);
        put_all(&mut by_bind, "m0.i");
        let len = |c: &ColumnChunk| c.to_bytes().len() as u64;
        let binds = |target: &str| -> Vec<(ChunkKey, ChunkKey, u64)> {
            let it = chunks.iter().enumerate();
            it.map(|(c, chunk)| (key(target, c), key("m0.i", c), len(chunk)))
                .collect()
        };
        let stored = by_bind.bind_chunks(binds("m1.i")).unwrap();
        assert_eq!(by_bind.stats(), by_put.stats());
        assert_eq!(stored, by_bind.stats().unique_bytes);
        for counter in [
            "store.put.count",
            "store.put.bytes",
            "store.dedup.exact_hits",
        ] {
            let count = |ds: &DataStore| ds.obs().snapshot().counter(counter);
            assert_eq!(count(&by_bind), count(&by_put), "{counter}");
        }

        // All or nothing: one unbound source binds no key at all.
        let mut partial = binds("m2.i");
        partial[2].1 = key("nowhere.i", 2);
        let before = by_bind.stats();
        assert_eq!(by_bind.bind_chunks(partial), None);
        assert_eq!(by_bind.stats(), before);
        assert!(!by_bind.contains(&key("m2.i", 0)));

        // The bound keys hold their chunks live once the source is gone.
        by_bind.retract_intermediate("m0.i");
        by_bind.flush().unwrap();
        by_bind.compact(1.0).unwrap();
        for (c, chunk) in chunks.iter().enumerate() {
            assert_eq!(&by_bind.get_chunk(&key("m1.i", c)).unwrap(), chunk);
        }
        by_bind.check_invariants().unwrap();
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
        let dir = mistique_testkit::tempdir().unwrap();
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
        let (first, _) = ds
            .put_chunk_sized(key.clone(), &chunk, PlacementPolicy::ByIntermediate, false)
            .unwrap();
        let (second, _) = ds
            .put_chunk_sized(key.clone(), &chunk, PlacementPolicy::ByIntermediate, false)
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
        let dir = mistique_testkit::tempdir().unwrap();
        // Each partition holds one ~8 KB chunk, cached as its ~4 KB image
        // plus the decoded chunk: ~12 KB a partition, so the budget fits two.
        const BUDGET: usize = 30_000;
        let config = DataStoreConfig {
            policy: PlacementPolicy::ByIntermediate,
            mem_capacity: BUDGET,
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
        let charge = ds.read_cache_bytes();
        assert!(
            2 * charge <= BUDGET && BUDGET < 3 * charge,
            "charge {charge}"
        );
        ds.get_chunk(&keys[1]).unwrap();
        assert_eq!((misses.get(), evictions.get()), (2, 0));
        assert_eq!(ds.read_cache_len(), 2);
        ds.get_chunk(&keys[2]).unwrap();
        assert_eq!(misses.get(), 3);
        assert_eq!(evictions.get(), 1, "single-victim eviction, not clear-all");
        assert_eq!(ds.read_cache_len(), 2, "cache keeps every survivor");
        assert!(ds.read_cache_bytes() > 0 && ds.read_cache_bytes() <= BUDGET);

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
    fn one_chunk_cold_read_decodes_the_directory_and_one_member() {
        let (dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let keys: Vec<ChunkKey> = (0..8)
            .map(|c| ChunkKey::new("m.i", format!("c{c}"), 0))
            .collect();
        for (c, key) in keys.iter().enumerate() {
            let vals = (0..500).map(|j| (c * 1000 + j) as f64 * 0.37).collect();
            ds.put_chunk(key.clone(), &f64_chunk(vals)).unwrap();
        }
        ds.flush().unwrap();
        ds.clear_read_cache();
        let sealed = std::fs::read(dir.path().join("part_00000000.bin")).unwrap();
        let frames = mistique_compress::member_ranges(&sealed[..sealed.len() - 8]).unwrap();
        assert_eq!(frames.len(), 9, "directory + 8 chunk members");
        let frame_len = |i: usize| frames[i].len() as u64;
        let decoded = |d: &ReadAttribution| d.codec_bytes.iter().map(|c| c.1).sum::<u64>();
        let counts = |ds: &DataStore, d: &ReadAttribution| -> u64 {
            let count = |c: &str| ds.obs().counter(&format!("read.codec.{c}.count")).get();
            d.codec_bytes.iter().map(|(c, _)| count(c)).sum()
        };

        // Cold: the whole file comes off disk, two frames are decoded.
        let before = ds.read_attribution();
        ds.get_chunk(&keys[5]).unwrap();
        let d = ds.read_attribution().since(&before);
        assert_eq!(d.disk_reads, 1);
        assert_eq!(decoded(&d), frame_len(0) + frame_len(6), "{d:?}");
        assert_eq!(counts(&ds, &d), 2, "the directory and one member");
        let load = ds
            .obs()
            .recent_spans()
            .into_iter()
            .find(|r| r.name == "store.partition.load")
            .unwrap();
        let attr = |k: &str| load.attrs.iter().find(|a| a.0 == k).map(|a| a.1.clone());
        assert_eq!(attr("members_decoded").as_deref(), Some("2"));
        assert_eq!(attr("members").as_deref(), Some("9"));
        let charged = ds.read_cache_bytes();
        assert_eq!(
            charged,
            sealed.len() + ds.get_chunk(&keys[5]).unwrap().to_bytes().len()
        );

        // Warm, same chunk: a lookup, nothing decoded.
        let before = ds.read_attribution();
        ds.get_chunk(&keys[5]).unwrap();
        let d = ds.read_attribution().since(&before);
        assert_eq!((d.cache_hits, d.disk_reads, decoded(&d)), (1, 0, 0));

        // Another chunk of the cached image: its member alone, no disk.
        let before = ds.read_attribution();
        let other = ds.get_chunk(&keys[2]).unwrap();
        let d = ds.read_attribution().since(&before);
        assert_eq!((d.cache_hits, d.disk_reads), (1, 0));
        assert_eq!(decoded(&d), frame_len(3));
        assert_eq!(ds.read_cache_bytes(), charged + other.to_bytes().len());
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
        let dir = mistique_testkit::tempdir().unwrap();
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

    /// A DNN checkpoint sweep: every epoch's layer tensors are a small
    /// random walk away from the previous epoch's, so each put after the
    /// first epoch is a near-duplicate of its own layer's history.
    #[test]
    fn checkpoint_sweep_stores_smaller_with_deltas_and_reads_back_at_every_parallelism() {
        const LAYERS: usize = 4;
        const VALUES: usize = 4096;
        const EPOCHS: usize = 6;
        let mut rng = mistique_rng::Rng::seed(0x5eed_0001);
        // Value ranges are offset per layer so MinHash only ever pairs a
        // layer with its own history.
        let mut tensors: Vec<Vec<f64>> = (0..LAYERS)
            .map(|l| {
                (0..VALUES)
                    .map(|_| (l * 10) as f64 + rng.range(0.0..1.0))
                    .collect()
            })
            .collect();
        let mut sweep = Vec::with_capacity(LAYERS * EPOCHS);
        for e in 0..EPOCHS {
            for (l, t) in tensors.iter_mut().enumerate() {
                for v in t.iter_mut() {
                    if e > 0 && rng.chance(0.05) {
                        *v += 0.01 * rng.range(-0.5..0.5);
                    }
                }
                let key = ChunkKey::new(format!("epoch{e}.layer{l}"), "w", 0);
                sweep.push((key, f64_chunk(t.clone())));
            }
        }
        let ingest = |delta_enabled: bool| {
            let dir = mistique_testkit::tempdir().unwrap();
            let config = DataStoreConfig {
                policy: PlacementPolicy::ByIntermediate,
                delta_enabled,
                ..DataStoreConfig::default()
            };
            let mut ds = DataStore::open(dir.path(), config).unwrap();
            for (key, chunk) in &sweep {
                ds.put_chunk(key.clone(), chunk).unwrap();
            }
            ds.flush().unwrap();
            (dir, ds)
        };
        let (_dir_on, mut on) = ingest(true);
        let (_dir_off, off) = ingest(false);

        let delta_puts = on.stats().delta_puts;
        assert!(delta_puts > 0, "the sweep must take the delta put path");
        let bytes_on = on.physical_bytes().unwrap();
        let bytes_off = off.physical_bytes().unwrap();
        assert!(
            bytes_off as f64 >= 1.5 * bytes_on as f64,
            "base+delta must cut stored bytes at least 1.5x: {bytes_off} off vs {bytes_on} on"
        );

        let keys: Vec<ChunkKey> = sweep.iter().map(|(k, _)| k.clone()).collect();
        for par in [1usize, 2, 4, 0] {
            on.clear_read_cache();
            let got = on.get_chunk_bytes_batch(&keys, par).unwrap();
            assert_eq!(got.len(), sweep.len());
            for (g, (key, chunk)) in got.iter().zip(&sweep) {
                assert_eq!(g, &chunk.to_bytes(), "{key:?} at parallelism {par}");
            }
        }
        assert!(
            on.obs().counter("store.delta.rehydrations").get() >= delta_puts,
            "every delta chunk must rehydrate through its frame on cold reads"
        );
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
        let dir = mistique_testkit::tempdir().unwrap();
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
    fn catalog_text_is_identical_across_exports_and_reopen() {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = DataStoreConfig {
            policy: PlacementPolicy::ByIntermediate,
            mem_capacity: 1 << 20,
            partition_target_bytes: 64 << 10,
            ..DataStoreConfig::default()
        };
        let text = |ds: &DataStore| {
            mistique_obs::json::to_string(&ds.export_catalog(), "catalog").unwrap()
        };
        let (first, second) = {
            let mut ds = DataStore::open(dir.path(), config.clone()).unwrap();
            // Enough keys that two hash-map iteration orders cannot agree
            // by chance, with exact duplicates, a delta and a pinned base.
            for m in 0..6 {
                for block in 0..8u32 {
                    let values = (0..256).map(|i| (i * (block + 1)) as f64 + (m % 3) as f64);
                    let key = ChunkKey::new(format!("m{m}.i"), format!("c{}", block % 2), block);
                    ds.put_chunk(key, &f64_chunk(values.collect())).unwrap();
                }
            }
            let (base, near) = near_pair();
            ds.put_chunk(ChunkKey::new("m.base", "c", 0), &base)
                .unwrap();
            ds.put_chunk(ChunkKey::new("m.near", "c", 0), &near)
                .unwrap();
            ds.retract_intermediate("m.base");
            ds.flush().unwrap();
            (text(&ds), text(&ds))
        };
        assert_eq!(first, second, "two exports of one store");
        let mut ds = DataStore::open(dir.path(), config).unwrap();
        ds.import_catalog(mistique_obs::json::from_str(&first, "catalog").unwrap());
        assert_eq!(first, text(&ds), "export after a reopen");
    }

    /// `most_similar` and `delta_base_for` against the ranked walks they
    /// replaced, for every stored chunk's signature.
    fn assert_matches_ranked_walk(ds: &DataStore, chunks: &[ColumnChunk]) {
        let ledger = &ds.ledger;
        for (i, chunk) in chunks.iter().enumerate() {
            let sig = ds.signature_of(chunk);
            let own = content_digest(&chunk.to_bytes());
            for tau in [0.0, 0.5, 0.8, 1.0] {
                let ranked = ledger.similar_ranked(&sig, tau);
                let open = |pid: PartitionId| ds.mem.contains(pid);
                assert_eq!(
                    ledger.most_similar(&sig, tau, |pid, _| open(pid)),
                    ranked.iter().copied().find(|&(pid, _)| open(pid)),
                    "chunk {i}, tau {tau}: open partition"
                );
                let resolve = |cand| Some(ledger.chunk(cand)?.base.unwrap_or(cand));
                let mut bases = ranked.iter().filter_map(|&(_, cand)| resolve(cand));
                assert_eq!(
                    ledger.delta_base_for(&sig, tau, own),
                    bases.find(|&base| base != own),
                    "chunk {i}, tau {tau}: delta base"
                );
            }
        }
    }

    #[test]
    fn similarity_answers_match_the_ranked_walk() {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = DataStoreConfig {
            policy: PlacementPolicy::BySimilarity { tau: 0.5 },
            mem_capacity: 1 << 20,
            partition_target_bytes: 96 << 10,
            ..DataStoreConfig::default()
        };
        // Three families of look-alikes over 89 distinct values each. A
        // member swaps some positions for values of its own: with few it is
        // a delta against an older member, with many it is stored raw but
        // still placed with its family, with none its signature equals the
        // family's (scores tie).
        let mut rng = mistique_rng::Rng::seed(0x1eaf);
        let chunks: Vec<ColumnChunk> = (0..60)
            .map(|i| {
                let family = f64::from(i % 3);
                let mut vals: Vec<f64> = (0..2048)
                    .map(|j| f64::from(j % 89) + 1000.0 * family)
                    .collect();
                vals[0] += 1e-4 * f64::from(i);
                for _ in 0..rng.range(0..60usize) * rng.range(0..=1usize) {
                    vals[rng.range(1..2048usize)] = rng.range(5_000.0..9_000.0);
                }
                f64_chunk(vals)
            })
            .collect();
        let key = |i: usize| ChunkKey::new(format!("m{i}"), "c", 0);

        let mut ds = DataStore::open(dir.path(), config.clone()).unwrap();
        for (i, chunk) in chunks.iter().enumerate() {
            ds.put_chunk(key(i), chunk).unwrap();
            if i % 20 == 19 {
                assert_matches_ranked_walk(&ds, &chunks);
            }
        }
        let s = ds.stats();
        assert!(s.delta_puts > 10 && s.similarity_placements > 10, "{s:?}");
        assert!(
            s.chunks_stored > s.delta_puts + 10,
            "raw look-alikes: {s:?}"
        );
        assert!(s.partitions_created > 3, "some partitions sealed: {s:?}");
        // Dead chunks: some stay on record (pinned bases, unsealed
        // partitions), the rest go with their LSH items.
        for i in (0..60).step_by(4) {
            ds.retract_intermediate(&format!("m{i}"));
        }
        assert_matches_ranked_walk(&ds, &chunks);
        ds.flush().unwrap();
        ds.compact(1.0).unwrap();
        assert_matches_ranked_walk(&ds, &chunks);

        // Reopened: every imported item points at a sealed partition.
        let catalog = ds.export_catalog();
        drop(ds);
        let mut ds = DataStore::open(dir.path(), config).unwrap();
        ds.import_catalog(through_text(catalog));
        assert_matches_ranked_walk(&ds, &chunks);
        for i in (0..60).step_by(4) {
            ds.put_chunk(key(i), &chunks[i]).unwrap();
        }
        assert_matches_ranked_walk(&ds, &chunks);
        ds.check_invariants().unwrap();
    }

    #[test]
    fn forged_lsh_items_are_refused_on_import() {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = DataStoreConfig {
            policy: PlacementPolicy::ByIntermediate,
            mem_capacity: 1 << 20,
            partition_target_bytes: 64 << 10,
            ..DataStoreConfig::default()
        };
        let (a, near_a) = near_pair();
        let b = f64_chunk((0..4096).map(|i| (i * 31 % 1009) as f64 * 3.7).collect());
        let mut catalog = {
            let mut ds = DataStore::open(dir.path(), config.clone()).unwrap();
            ds.put_chunk(ChunkKey::new("m.a", "c", 0), &a).unwrap();
            ds.put_chunk(ChunkKey::new("m.b", "c", 0), &b).unwrap();
            assert_eq!(ds.stats().delta_puts, 0, "a and b are not look-alikes");
            ds.flush().unwrap();
            ds.export_catalog()
        };
        // Item 0 is a's. Re-label b's record as a second item 0, and claim
        // the last id there is for b as well.
        let [of_a, of_b] = &catalog.lsh_items[..] else {
            panic!("one item per chunk");
        };
        assert_eq!((of_a.item, of_b.item), (0, 1));
        let (of_a, of_b) = (of_a.clone(), of_b.clone());
        let forged = |item| LshItemRecord {
            item,
            ..of_b.clone()
        };
        catalog.lsh_items = vec![of_a.clone(), forged(0), forged(u64::MAX)];

        let mut ds = DataStore::open(dir.path(), config).unwrap();
        ds.import_catalog(through_text(catalog));
        ds.check_invariants().unwrap();
        let items = ds.export_catalog().lsh_items;
        assert_eq!(items.len(), 1, "both forgeries refused");
        assert_eq!((items[0].item, items[0].digest), (0, of_a.digest));
        // Dropping b must not take a's item with it, nor leave bucket
        // entries that outlive their signature: the next probe that
        // collides with a's signature finds a, alive, and deltas against it.
        ds.retract_intermediate("m.b");
        ds.compact(1.0).unwrap();
        ds.put_chunk(ChunkKey::new("m.near", "c", 0), &near_a)
            .unwrap();
        assert_eq!(ds.stats().delta_puts, 1);
        // The new chunk's item did not wrap around onto an old id.
        let items = ds.export_catalog().lsh_items;
        assert_eq!(items.iter().map(|r| r.item).collect::<Vec<_>>(), [0, 1]);
        ds.check_invariants().unwrap();
    }

    #[test]
    fn similarity_placements_continue_after_reopen() {
        let dir = mistique_testkit::tempdir().unwrap();
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
        // persisted, the probe saw only sealed candidates forever and the
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
        ds.put_chunk_sized(kn.clone(), &near, PlacementPolicy::ByIntermediate, false)
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

    /// Seal attribution counts every stored byte once. The benchmark's
    /// `compress.ratio` sums every `compress.*.in_bytes` over every
    /// `compress.*.out_bytes`: that must be the partitions' raw bytes over
    /// their file bytes, and the per-codec member rows must add up to the
    /// same raw bytes.
    #[test]
    fn seal_attribution_counts_each_stored_byte_once() {
        let (_dir, mut ds) = store(PlacementPolicy::ByIntermediate);
        let mut rng = mistique_rng::Rng::seed(0xa77);
        for i in 0..24 {
            let chunk = match i % 3 {
                0 => f64_chunk(vec![0.0; 2048]),
                1 => f64_chunk((0..2048).map(|_| rng.range(0.0..1.0)).collect()),
                _ => ColumnChunk::new(ColumnData::I64((0..2048).map(|v| v / 16 + i).collect())),
            };
            ds.put_chunk(ChunkKey::new(format!("m{i}"), "c", 0), &chunk)
                .unwrap();
        }
        ds.flush().unwrap();
        let snap = ds.obs().snapshot();
        let sum = |suffix: &str| -> u64 {
            snap.counters
                .iter()
                .filter(|(k, _)| k.starts_with("compress.") && k.ends_with(suffix))
                .map(|(_, v)| *v)
                .sum()
        };
        let raw = snap.counter("compress.members.in_bytes");
        let sealed = ds.disk_bytes().unwrap();
        assert!(raw > 0 && sealed > 0);
        assert_eq!(snap.counter("compress.members.out_bytes"), sealed);
        assert_eq!((sum(".in_bytes"), sum(".out_bytes")), (raw, sealed));
        assert_eq!(sum(".raw_bytes"), raw);
        assert!(sum(".frame_bytes") < sealed, "the container adds its head");
        let winners = ["raw", "rle", "lzss", "delta4"]
            .iter()
            .filter(|c| snap.counter(&format!("compress.{c}.count")) > 0)
            .count();
        assert!(winners >= 2, "the members are attributed to one codec only");
    }
}
