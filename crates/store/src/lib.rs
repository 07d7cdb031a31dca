//! The MISTIQUE DataStore (Sec 3, 4).
//!
//! The DataStore persists ColumnChunks grouped into **Partitions**. A chunk
//! arrives with a logical key (`intermediate / column / row-block`); the
//! store:
//!
//! 1. **Exact-dedups** it: if a chunk with identical bytes was stored before,
//!    only a reference is recorded (Sec 4.2 — identical columns across
//!    pipeline variants are the common case for TRAD models).
//! 2. **Places** it in a Partition. TRAD chunks are routed by MinHash/LSH
//!    similarity so near-identical chunks compress together; DNN chunks are
//!    co-located by intermediate (Sec 4.2.1's two DNN simplifications).
//! 3. Keeps the Partition in the [`mem::InMemoryStore`] buffer pool; full or
//!    evicted Partitions are compressed and written to the
//!    [`disk::DiskStore`] (Fig 3's write path).
//!
//! Reads go through the same facade: chunk key → digest → partition →
//! (memory | disk) → deserialized [`mistique_dataframe::ColumnChunk`].

pub mod backend;
pub mod datastore;
pub mod disk;
mod ledger;
pub mod lru;
pub mod mem;
pub mod partition;
mod striped;
pub mod subdir;

pub use backend::{enumerate_crashes, CrashPoint, FaultyFs, RealFs, StorageBackend, TornWrite};
pub use datastore::{
    CatalogExtra, ChunkKey, CompactionReport, DataStore, DataStoreConfig, DeltaRecord,
    LshItemRecord, PlacementPolicy, ReadAttribution, RecoveryReport, RetractOutcome, StoreStats,
};
pub use disk::DiskStore;
pub use lru::{LruCache, LruList};
pub use mem::InMemoryStore;
pub use partition::{ChunkBytes, Partition, PartitionId};
pub use striped::run_striped;
pub use subdir::{StoreSubdir, AUDIT_SUBDIR, INDEX_SUBDIR, TELEMETRY_SUBDIR};

/// Errors surfaced by store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A compressed partition failed to decode.
    Codec(mistique_compress::CodecError),
    /// A serialized chunk failed to decode.
    Chunk(mistique_dataframe::ChunkError),
    /// The requested chunk key has never been stored.
    NotFound,
    /// Partition bytes did not parse.
    CorruptPartition(&'static str),
    /// The partition holding the chunk failed its integrity check at
    /// recovery and was set aside; other partitions remain readable.
    Quarantined {
        /// The quarantined partition.
        partition: crate::partition::PartitionId,
        /// Why recovery rejected it (e.g. "checksum mismatch").
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Chunk(e) => write!(f, "chunk decode error: {e}"),
            StoreError::NotFound => write!(f, "chunk not found"),
            StoreError::CorruptPartition(m) => write!(f, "corrupt partition: {m}"),
            StoreError::Quarantined { partition, reason } => {
                write!(
                    f,
                    "corrupt partition {partition:08x} quarantined at recovery: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<mistique_compress::CodecError> for StoreError {
    fn from(e: mistique_compress::CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<mistique_dataframe::ChunkError> for StoreError {
    fn from(e: mistique_dataframe::ChunkError) -> Self {
        StoreError::Chunk(e)
    }
}
