//! Partitions: groups of ColumnChunks that are compressed and stored together.

use std::collections::HashMap;

use mistique_compress::{compress_auto, decompress};
use mistique_dedup::ContentDigest;

use crate::StoreError;

/// Identifier of a Partition within one DataStore.
pub type PartitionId = u64;

/// An open, in-memory Partition accumulating serialized chunks.
///
/// Chunks are kept as their canonical serialized bytes; the whole Partition
/// is compressed as a single buffer when written out, so LZSS matches can
/// reach *across* chunk boundaries — that is exactly what makes co-locating
/// similar chunks pay off (Sec 4.2, Fig 14).
#[derive(Clone, Debug)]
pub struct Partition {
    id: PartitionId,
    chunks: Vec<(ContentDigest, Vec<u8>)>,
    index: HashMap<ContentDigest, usize>,
    raw_bytes: usize,
}

impl Partition {
    /// Create an empty partition.
    pub fn new(id: PartitionId) -> Partition {
        Partition {
            id,
            chunks: Vec::new(),
            index: HashMap::new(),
            raw_bytes: 0,
        }
    }

    /// The partition id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Number of chunks held.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when no chunks are held.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Total uncompressed bytes of the chunks held.
    pub fn raw_bytes(&self) -> usize {
        self.raw_bytes
    }

    /// Add a serialized chunk under its content digest.
    pub fn add(&mut self, digest: ContentDigest, bytes: Vec<u8>) {
        self.raw_bytes += bytes.len();
        self.index.insert(digest, self.chunks.len());
        self.chunks.push((digest, bytes));
    }

    /// Fetch a chunk's serialized bytes by digest (O(1) via the index).
    pub fn get(&self, digest: ContentDigest) -> Option<&[u8]> {
        self.index
            .get(&digest)
            .map(|&i| self.chunks[i].1.as_slice())
    }

    /// Digests of the held chunks in insertion order — the exact chunk order
    /// a sealed file carries, which is what makes compaction rewrites
    /// deterministic.
    pub fn digests(&self) -> impl Iterator<Item = ContentDigest> + '_ {
        self.chunks.iter().map(|(d, _)| *d)
    }

    /// A new partition with the same id holding only the chunks whose
    /// digest passes `keep`, preserving the original chunk order. This is
    /// the compaction rewrite: dead chunks are dropped, live ones keep
    /// their relative placement (so similarity-driven compression locality
    /// survives the rewrite). A copy shadowed by a later one under the same
    /// digest (a STORE_ALL re-put of a chunk into the partition that already
    /// holds it) is unreachable through [`Partition::get`] and is dropped
    /// too.
    pub fn filtered(&self, keep: impl Fn(ContentDigest) -> bool) -> Partition {
        let mut out = Partition::new(self.id);
        for (i, (d, b)) in self.chunks.iter().enumerate() {
            if keep(*d) && self.index[d] == i {
                out.add(*d, b.clone());
            }
        }
        out
    }

    /// Serialize and compress the partition into its on-disk representation:
    /// one `compress_auto` frame over
    /// `[n: u32][(digest hi/lo: u64 u64, len: u32, bytes)...]`, followed by
    /// an xxhash64 integrity trailer over the compressed frame. Torn writes
    /// and silent disk corruption are detected at [`Partition::unseal`].
    pub fn seal(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.raw_bytes + self.chunks.len() * 20 + 4);
        buf.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for (digest, bytes) in &self.chunks {
            buf.extend_from_slice(&digest.0.to_le_bytes());
            buf.extend_from_slice(&digest.1.to_le_bytes());
            buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            buf.extend_from_slice(bytes);
        }
        let mut out = compress_auto(&buf);
        let checksum = mistique_dedup::xxhash64(&out, 0x5ea1);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Verify a sealed partition's integrity trailer without decompressing
    /// the payload — the cheap check the recovery sweep runs over every
    /// partition file. Torn writes and bitrot both fail here.
    pub fn verify_checksum(sealed: &[u8]) -> Result<(), StoreError> {
        if sealed.len() < 8 {
            return Err(StoreError::CorruptPartition("missing checksum"));
        }
        let (frame, trailer) = sealed.split_at(sealed.len() - 8);
        let expected = u64::from_le_bytes(trailer.try_into().unwrap());
        if mistique_dedup::xxhash64(frame, 0x5ea1) != expected {
            return Err(StoreError::CorruptPartition("checksum mismatch"));
        }
        Ok(())
    }

    /// Decode a sealed partition back into an in-memory one, verifying the
    /// integrity trailer first.
    pub fn unseal(id: PartitionId, sealed: &[u8]) -> Result<Partition, StoreError> {
        Self::verify_checksum(sealed)?;
        let frame = &sealed[..sealed.len() - 8];
        let buf = decompress(frame)?;
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
            let end = *pos + n;
            if end > buf.len() {
                return Err(StoreError::CorruptPartition("truncated"));
            }
            let s = &buf[*pos..end];
            *pos = end;
            Ok(s)
        };
        let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let mut part = Partition::new(id);
        for _ in 0..n {
            let hi = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            let lo = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let bytes = take(&mut pos, len)?.to_vec();
            part.add(ContentDigest(hi, lo), bytes);
        }
        if pos != buf.len() {
            return Err(StoreError::CorruptPartition("trailing bytes"));
        }
        Ok(part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_dedup::content_digest;

    fn chunk(bytes: &[u8]) -> (ContentDigest, Vec<u8>) {
        (content_digest(bytes), bytes.to_vec())
    }

    #[test]
    fn add_and_get() {
        let mut p = Partition::new(1);
        let (d, b) = chunk(b"hello chunk");
        p.add(d, b.clone());
        assert_eq!(p.get(d), Some(b.as_slice()));
        assert_eq!(p.len(), 1);
        assert_eq!(p.raw_bytes(), b.len());
        assert!(p.get(content_digest(b"other")).is_none());
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let mut p = Partition::new(42);
        for i in 0u32..20 {
            let bytes: Vec<u8> = (0..100).map(|j| ((i + j) % 13) as u8).collect();
            p.add(content_digest(&bytes), bytes);
        }
        let sealed = p.seal();
        let back = Partition::unseal(42, &sealed).unwrap();
        assert_eq!(back.len(), p.len());
        assert_eq!(back.raw_bytes(), p.raw_bytes());
        for (d, b) in &p.chunks {
            assert_eq!(back.get(*d), Some(b.as_slice()));
        }
    }

    #[test]
    fn similar_chunks_compress_better_together() {
        // Partition A: 10 near-identical chunks. Partition B: 10 unrelated.
        let mut rng = mistique_rng::Rng::seed(5);
        let mut rnd = move || rng.range(0..=u8::MAX);
        let base: Vec<u8> = (0..4096).map(|_| rnd()).collect();

        let mut similar = Partition::new(1);
        for i in 0..10u8 {
            let mut b = base.clone();
            b[0] = i; // tiny difference
            similar.add(content_digest(&b), b);
        }
        let mut dissimilar = Partition::new(2);
        for _ in 0..10 {
            let b: Vec<u8> = (0..4096).map(|_| rnd()).collect();
            dissimilar.add(content_digest(&b), b);
        }
        let s = similar.seal().len();
        let d = dissimilar.seal().len();
        assert!(
            (s as f64) < d as f64 * 0.5,
            "similar partition should compress much better: {s} vs {d}"
        );
    }

    #[test]
    fn filtered_preserves_order_and_drops_dead_chunks() {
        let mut p = Partition::new(7);
        let entries: Vec<(ContentDigest, Vec<u8>)> = (0u8..6)
            .map(|i| {
                let bytes = vec![i; 32];
                (content_digest(&bytes), bytes)
            })
            .collect();
        for (d, b) in &entries {
            p.add(*d, b.clone());
        }
        let live: Vec<ContentDigest> = [0usize, 2, 5].iter().map(|&i| entries[i].0).collect();
        let keep: std::collections::HashSet<_> = live.iter().copied().collect();
        let f = p.filtered(|d| keep.contains(&d));
        assert_eq!(f.id(), 7);
        assert_eq!(f.len(), 3);
        assert_eq!(f.digests().collect::<Vec<_>>(), live, "order preserved");
        assert_eq!(f.raw_bytes(), 3 * 32);
        for (i, (d, b)) in entries.iter().enumerate() {
            if keep.contains(d) {
                assert_eq!(f.get(*d), Some(b.as_slice()));
            } else {
                assert!(f.get(*d).is_none(), "chunk {i} dropped");
            }
        }
        // The rewrite round-trips through seal/unseal like any partition.
        let back = Partition::unseal(7, &f.seal()).unwrap();
        assert_eq!(back.digests().collect::<Vec<_>>(), live);
    }

    #[test]
    fn empty_partition_roundtrips() {
        let p = Partition::new(0);
        let back = Partition::unseal(0, &p.seal()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corrupt_sealed_bytes_rejected() {
        let mut p = Partition::new(1);
        let (d, b) = chunk(b"data");
        p.add(d, b);
        let mut sealed = p.seal();
        sealed.truncate(sealed.len() - 1);
        assert!(Partition::unseal(1, &sealed).is_err());
        assert!(Partition::unseal(1, &[]).is_err());
    }
}
