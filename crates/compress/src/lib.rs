//! Byte-oriented compression codecs for the MISTIQUE data store.
//!
//! The paper compresses Partitions "with a variety of off-the-shelf compression
//! schemes including gzip, HDF5, and Parquet" (Sec 4.2.1). None of those are
//! available here, so this crate implements the relevant algorithm families from
//! scratch:
//!
//! - [`rle`]: run-length encoding — wins on constant/binarized data (THRESHOLD_QT),
//! - [`lzss`]: an LZ77-family sliding-window compressor (the engine inside gzip's
//!   DEFLATE) — wins on repeated byte patterns *within* one ColumnChunk. A
//!   Partition seals every chunk as its own member frame, so the window no
//!   longer reaches across chunks: redundancy *between* chunks is carried by
//!   exact dedup and [`basedelta`] frames instead,
//! - [`delta`]: delta + zig-zag + varint for integer-like streams,
//! - [`basedelta`]: base+delta frames — a chunk stored as the XOR difference
//!   against a similar, already-stored chunk (cross-checkpoint dedup),
//! - [`varint`]: LEB128 variable-length integers used by the other codecs,
//! - [`frame`]: a self-describing container that records the scheme and original
//!   length, with an `Auto` mode that tries candidates and keeps the smallest,
//!   and a `Members` container of independently decodable frames (one per
//!   chunk of a sealed Partition, so a read decodes only what it asks for).
//!
//! All codecs are lossless: `decompress(compress(x)) == x` for arbitrary bytes,
//! enforced by the property tests.

pub mod basedelta;
pub mod delta;
pub mod frame;
pub mod lzss;
pub mod rle;
pub mod varint;

pub use frame::{
    compress, compress_auto, compress_members, decompress, member_ranges, scheme_of, CodecError,
    Scheme,
};

/// Compression statistics for reporting (used by the Fig 14 microbenchmark).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressionStats {
    /// Input size in bytes.
    pub raw_bytes: usize,
    /// Output (compressed) size in bytes.
    pub compressed_bytes: usize,
}

impl CompressionStats {
    /// Ratio raw/compressed; 1.0 when nothing was saved, >1 when compression helped.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 0.0;
        }
        self.raw_bytes as f64 / self.compressed_bytes as f64
    }
}
