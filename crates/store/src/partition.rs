//! Partitions: groups of ColumnChunks that are placed and stored together.
//!
//! A sealed partition file is one [`Scheme::Members`] frame and an xxhash64
//! trailer. Member 0 is the directory — `[n: u32][(digest hi/lo: u64 u64,
//! len: u32) × n]` — and member `i + 1` is chunk `i`'s serialized bytes as
//! its own `compress_auto` frame, in insertion order. A reader opens the
//! file as a `SealedPartition` and decodes only the members it asks for.
//! Files written before the member layout hold one `compress_auto` frame
//! over `[n: u32][(digest hi/lo, len: u32, bytes) × n]`; they still open,
//! decoded whole.

use std::collections::HashMap;
use std::ops::Range;

use mistique_compress::{compress_members, decompress, member_ranges, scheme_of, Scheme};
use mistique_dedup::ContentDigest;

use crate::StoreError;

/// Identifier of a Partition within one DataStore.
pub type PartitionId = u64;

/// Seed of the xxhash64 integrity trailer.
const TRAILER_SEED: u64 = 0x5ea1;

/// One frame a read decoded: its codec and its compressed length — what
/// read attribution credits.
pub(crate) type FrameRead = (Scheme, usize);

/// An open, in-memory Partition accumulating serialized chunks.
///
/// Chunks are kept as their canonical serialized bytes and sealed each as
/// its own member frame, so co-location buys locality (one file, one read)
/// and delta-base proximity, not a shared compression window (Sec 4.2).
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

    /// Serialize and compress the partition into its on-disk
    /// representation (see the module docs): a directory member, one member
    /// per chunk, and an xxhash64 integrity trailer over the frame. Torn
    /// writes and silent disk corruption are detected when the file is
    /// opened.
    pub fn seal(&self) -> Vec<u8> {
        let mut dir = Vec::with_capacity(4 + self.chunks.len() * 20);
        dir.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for (digest, bytes) in &self.chunks {
            dir.extend_from_slice(&digest.0.to_le_bytes());
            dir.extend_from_slice(&digest.1.to_le_bytes());
            dir.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        }
        let mut members: Vec<&[u8]> = Vec::with_capacity(self.chunks.len() + 1);
        members.push(&dir);
        members.extend(self.chunks.iter().map(|(_, b)| b.as_slice()));
        with_trailer(compress_members(&members))
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
        if mistique_dedup::xxhash64(frame, TRAILER_SEED) != expected {
            return Err(StoreError::CorruptPartition("checksum mismatch"));
        }
        Ok(())
    }

    /// Decode a sealed partition whole back into an in-memory one, verifying
    /// the integrity trailer first (compaction's rewrite; reads open a
    /// `SealedPartition` and decode only what they need).
    pub fn unseal(id: PartitionId, sealed: &[u8]) -> Result<Partition, StoreError> {
        let (mut image, _) = SealedPartition::open(id, sealed.to_vec())?;
        for i in 0..image.members.len() {
            image.decode_member(i)?;
        }
        let mut part = Partition::new(id);
        for (m, bytes) in image.members.into_iter().zip(image.decoded) {
            part.add(m.digest, bytes.expect("every member decoded"));
        }
        Ok(part)
    }

    /// A legacy single-frame file's frame, decoded whole.
    fn unseal_legacy(id: PartitionId, frame: &[u8]) -> Result<Partition, StoreError> {
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

/// `frame` followed by its xxhash64 integrity trailer.
fn with_trailer(mut frame: Vec<u8>) -> Vec<u8> {
    let checksum = mistique_dedup::xxhash64(&frame, TRAILER_SEED);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// One chunk member of a sealed file.
#[derive(Debug)]
struct Member {
    digest: ContentDigest,
    /// Serialized length, from the directory.
    len: usize,
    /// The member's frame inside the image.
    frame: Range<usize>,
}

/// A sealed partition file opened for reading: the compressed image is
/// kept, and each chunk's member is decoded the first time it is asked for
/// and kept decoded beside it. A legacy single-frame file is decoded whole
/// at open and keeps no image.
#[derive(Debug)]
pub(crate) struct SealedPartition {
    id: PartitionId,
    /// The sealed file; empty for a legacy file, which was decoded whole.
    image: Vec<u8>,
    members: Vec<Member>,
    /// Digest → member; a digest stored twice resolves to its later copy,
    /// as in [`Partition::get`].
    index: HashMap<ContentDigest, usize>,
    decoded: Vec<Option<Vec<u8>>>,
    decoded_bytes: usize,
}

impl SealedPartition {
    /// Open a sealed file: verify its trailer, read the member table and
    /// decode the directory — no chunk member yet. Also returns the frame
    /// that decoding read: the directory's, or a legacy file's whole frame.
    pub(crate) fn open(
        id: PartitionId,
        image: Vec<u8>,
    ) -> Result<(SealedPartition, FrameRead), StoreError> {
        Partition::verify_checksum(&image)?;
        let frame = &image[..image.len() - 8];
        let scheme = scheme_of(frame).ok_or(mistique_compress::CodecError::BadHeader)?;
        if scheme != Scheme::Members {
            let read = (scheme, frame.len());
            let part = Partition::unseal_legacy(id, frame)?;
            let members = part.chunks.iter().map(|(digest, bytes)| Member {
                digest: *digest,
                len: bytes.len(),
                frame: 0..0,
            });
            let legacy = SealedPartition {
                id,
                image: Vec::new(),
                members: members.collect(),
                index: part.index,
                decoded: part.chunks.into_iter().map(|(_, b)| Some(b)).collect(),
                decoded_bytes: part.raw_bytes,
            };
            return Ok((legacy, read));
        }
        let ranges = member_ranges(frame)?;
        let (dir_frame, chunk_frames) = ranges
            .split_first()
            .ok_or(StoreError::CorruptPartition("no directory"))?;
        let dir_frame = &frame[dir_frame.clone()];
        let dir = decompress(dir_frame)?;
        let read = (
            scheme_of(dir_frame).expect("member_ranges admits known schemes only"),
            dir_frame.len(),
        );
        let n = match dir.get(..4) {
            Some(n) => u32::from_le_bytes(n.try_into().expect("4-byte count")) as usize,
            None => return Err(StoreError::CorruptPartition("truncated directory")),
        };
        if dir.len() - 4 != n.saturating_mul(20) {
            return Err(StoreError::CorruptPartition("directory length"));
        }
        if n != chunk_frames.len() {
            return Err(StoreError::CorruptPartition(
                "directory disagrees with member count",
            ));
        }
        let mut members = Vec::with_capacity(n);
        let mut index = HashMap::with_capacity(n);
        for (i, (entry, frame)) in dir[4..].chunks_exact(20).zip(chunk_frames).enumerate() {
            let word =
                |at: usize| u64::from_le_bytes(entry[at..at + 8].try_into().expect("8-byte field"));
            let digest = ContentDigest(word(0), word(8));
            let len = u32::from_le_bytes(entry[16..20].try_into().expect("4-byte field")) as usize;
            index.insert(digest, i);
            members.push(Member {
                digest,
                len,
                frame: frame.clone(),
            });
        }
        let sealed = SealedPartition {
            id,
            image,
            decoded: vec![None; members.len()],
            members,
            index,
            decoded_bytes: 0,
        };
        Ok((sealed, read))
    }

    /// The partition id.
    pub(crate) fn id(&self) -> PartitionId {
        self.id
    }

    /// Frames in the file: the directory plus one per chunk (a legacy file
    /// is one frame).
    pub(crate) fn members(&self) -> usize {
        if self.image.is_empty() {
            1
        } else {
            self.members.len() + 1
        }
    }

    /// Frames decoded so far, counted like [`SealedPartition::members`].
    pub(crate) fn members_decoded(&self) -> usize {
        if self.image.is_empty() {
            1
        } else {
            1 + self.decoded.iter().filter(|d| d.is_some()).count()
        }
    }

    /// What holding this costs in memory: the compressed image plus every
    /// decoded member — the read cache's charge.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.image.len() + self.decoded_bytes
    }

    /// A chunk's serialized bytes, its member decoded first unless it
    /// already is; with them, the frame read when this call decoded one.
    pub(crate) fn chunk(
        &mut self,
        digest: ContentDigest,
    ) -> Result<(&[u8], Option<FrameRead>), StoreError> {
        let i = *self
            .index
            .get(&digest)
            .ok_or(StoreError::CorruptPartition("missing chunk"))?;
        let read = self.decode_member(i)?;
        let bytes = self.decoded[i].as_deref().expect("decoded above");
        Ok((bytes, read))
    }

    fn decode_member(&mut self, i: usize) -> Result<Option<FrameRead>, StoreError> {
        if self.decoded[i].is_some() {
            return Ok(None);
        }
        let m = &self.members[i];
        let frame = &self.image[m.frame.clone()];
        let bytes = decompress(frame)?;
        if bytes.len() != m.len {
            return Err(StoreError::CorruptPartition(
                "member length disagrees with directory",
            ));
        }
        let read = (
            scheme_of(frame).expect("member_ranges admits known schemes only"),
            frame.len(),
        );
        self.decoded_bytes += bytes.len();
        self.decoded[i] = Some(bytes);
        Ok(Some(read))
    }
}

#[cfg(test)]
impl Partition {
    /// The reference writer of the layout files had before the member
    /// format: one `compress_auto` frame over `[n: u32][(digest hi/lo: u64
    /// u64, len: u32, bytes) × n]`, and the trailer.
    pub(crate) fn seal_legacy(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.raw_bytes + self.chunks.len() * 20 + 4);
        buf.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for (digest, bytes) in &self.chunks {
            buf.extend_from_slice(&digest.0.to_le_bytes());
            buf.extend_from_slice(&digest.1.to_le_bytes());
            buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            buf.extend_from_slice(bytes);
        }
        with_trailer(mistique_compress::compress_auto(&buf))
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

    /// Twenty chunks of varied shapes, one of them stored twice (a
    /// STORE_ALL re-put: the later copy shadows the earlier).
    fn sample() -> Partition {
        let mut p = Partition::new(42);
        for i in 0u32..20 {
            let bytes: Vec<u8> = (0..100 + 37 * i)
                .map(|j| ((i * j) % (i + 3)) as u8)
                .collect();
            p.add(content_digest(&bytes), bytes);
        }
        let again = p.chunks[3].clone();
        p.add(again.0, again.1);
        p
    }

    /// A sealed image of `frame` with a valid trailer: what a hostile or
    /// buggy writer could leave that the checksum does not catch.
    fn resealed(frame: &[u8]) -> Vec<u8> {
        with_trailer(frame.to_vec())
    }

    #[test]
    fn one_chunk_decodes_one_member() {
        let p = sample();
        let sealed = p.seal();
        let frame = &sealed[..sealed.len() - 8];
        let ranges = member_ranges(frame).unwrap();
        assert_eq!(
            ranges.len(),
            p.len() + 1,
            "directory plus one member per chunk"
        );

        let (mut open, dir) = SealedPartition::open(42, sealed.clone()).unwrap();
        assert_eq!(dir.1, ranges[0].len(), "opening decodes the directory only");
        assert_eq!((open.members(), open.members_decoded()), (22, 1));
        assert_eq!(open.resident_bytes(), sealed.len());
        let (d, b) = &p.chunks[7];
        let (bytes, read) = open.chunk(*d).unwrap();
        assert_eq!(bytes, b.as_slice());
        assert_eq!(
            read.unwrap().1,
            ranges[8].len(),
            "exactly its own member frame"
        );
        let (again, read) = open.chunk(*d).unwrap();
        assert_eq!(
            (again, read),
            (b.as_slice(), None),
            "a second ask decodes nothing"
        );
        assert_eq!(open.members_decoded(), 2);
        assert_eq!(open.resident_bytes(), sealed.len() + b.len());
        // The shadowed digest resolves to its later copy, as in `get`.
        let (d3, _) = &p.chunks[3];
        assert_eq!(Some(open.chunk(*d3).unwrap().0), p.get(*d3));
        assert!(open.chunk(content_digest(b"absent")).is_err());
    }

    #[test]
    fn whole_frame_decompress_is_the_directory_then_the_chunks() {
        // e2e's traced replay decompresses the frame whole: that must still
        // work and give every raw byte, in member order.
        let p = sample();
        let sealed = p.seal();
        let raw = decompress(&sealed[..sealed.len() - 8]).unwrap();
        let dir_len = 4 + 20 * p.len();
        assert_eq!(raw[..4], (p.len() as u32).to_le_bytes());
        let chunks: Vec<u8> = p.chunks.iter().flat_map(|(_, b)| b.clone()).collect();
        assert_eq!(raw[dir_len..], chunks[..]);
    }

    #[test]
    fn legacy_single_frame_files_still_open() {
        let p = sample();
        let legacy = p.seal_legacy();
        assert_ne!(scheme_of(&legacy), Some(Scheme::Members));
        let back = Partition::unseal(42, &legacy).unwrap();
        assert_eq!(
            back.digests().collect::<Vec<_>>(),
            p.digests().collect::<Vec<_>>()
        );
        let (mut open, whole) = SealedPartition::open(42, legacy.clone()).unwrap();
        assert_eq!(whole.1, legacy.len() - 8, "a legacy file decodes whole");
        assert_eq!((open.members(), open.members_decoded()), (1, 1));
        for (d, _) in &p.chunks {
            let (bytes, read) = open.chunk(*d).unwrap();
            assert_eq!((Some(bytes), read), (p.get(*d), None));
        }
    }

    #[test]
    fn malformed_member_layouts_are_errors_even_under_a_valid_trailer() {
        let p = sample();
        let sealed = p.seal();
        let frame = &sealed[..sealed.len() - 8];
        let open_all = |image: Vec<u8>| -> Result<(), StoreError> {
            let (mut open, _) = SealedPartition::open(1, image)?;
            for i in 0..open.members.len() {
                open.decode_member(i)?;
            }
            Ok(())
        };
        // Every torn frame, re-trailered.
        for cut in 0..frame.len() {
            let image = resealed(&frame[..cut]);
            assert!(open_all(image.clone()).is_err(), "{cut}-byte prefix opened");
            assert!(
                Partition::unseal(1, &image).is_err(),
                "{cut}-byte prefix unsealed"
            );
        }
        let dir = |entries: &[(ContentDigest, u32)], n: u32| -> Vec<u8> {
            let mut out = n.to_le_bytes().to_vec();
            for (d, len) in entries {
                out.extend_from_slice(&d.0.to_le_bytes());
                out.extend_from_slice(&d.1.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            out
        };
        let (a, b) = (vec![1u8; 10], vec![2u8; 12]);
        let (da, db) = (content_digest(&a), content_digest(&b));
        let cases: Vec<(&str, Vec<u8>)> = vec![
            // One chunk in the directory, two members: the concatenated raw
            // bytes would even parse, the member boundaries do not.
            ("count below members", dir(&[(da, 22)], 1)),
            (
                "count above members",
                dir(&[(da, 10), (db, 12), (da, 0)], 3),
            ),
            (
                "count disagrees with entries",
                dir(&[(da, 10), (db, 12)], 3),
            ),
            // Lengths swapped: sums agree, members do not.
            ("lengths swapped", dir(&[(da, 12), (db, 10)], 2)),
        ];
        for (what, directory) in cases {
            let image = resealed(&compress_members(&[&directory, &a, &b]));
            assert!(open_all(image.clone()).is_err(), "{what}: opened");
            assert!(Partition::unseal(1, &image).is_err(), "{what}: unsealed");
        }
        let good = resealed(&compress_members(&[&dir(&[(da, 10), (db, 12)], 2), &a, &b]));
        assert!(open_all(good).is_ok());
        // Seeded byte flips, re-trailered: a clean verdict every time.
        let mut rng = mistique_rng::Rng::seed(0xbad);
        for _ in 0..256 {
            let mut damaged = frame.to_vec();
            let at = rng.range(0..damaged.len());
            damaged[at] ^= rng.range(1..=u8::MAX);
            let _ = open_all(resealed(&damaged));
            let _ = Partition::unseal(1, &resealed(&damaged));
        }
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
