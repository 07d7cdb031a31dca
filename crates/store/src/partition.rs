//! Partitions: groups of ColumnChunks that are placed and stored together.
//!
//! A sealed partition file (format version 2) is one [`Scheme::Members`]
//! frame and an xxhash64 trailer. Member 0 is the directory, a raw frame
//! of `[n: u32][(digest hi/lo: u64 u64, hash: u64) × n]`, and member `i + 1` is
//! chunk `i`'s serialized bytes as its own `compress_auto` frame, in
//! insertion order; `hash` is the xxhash64 of that compressed frame. The
//! trailer covers the file's head only: the container header, its length
//! table and the directory frame. A reader opens the file as a
//! `SealedPartition`, which verifies the head, and verifies each member it
//! asks for against its hash before decoding it: no unverified byte is
//! decoded or returned, and a read hashes only what it decodes.
//! [`Partition::verify`] checks every byte of a file.

use std::collections::HashMap;
use std::ops::Range;

use mistique_compress::{
    assemble_members, compress, compress_each, decompress, member_table, scheme_of, Scheme,
};
use mistique_dedup::ContentDigest;

use crate::StoreError;

/// Identifier of a Partition within one DataStore.
pub type PartitionId = u64;

/// One frame a read decoded: its codec and its compressed length — what
/// read attribution credits.
pub(crate) type FrameRead = (Scheme, usize);

/// `[count, raw bytes, frame bytes]` per compression scheme, indexed by
/// `Scheme as usize`.
pub(crate) type SchemeTally = [[u64; 3]; Scheme::ALL.len()];

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
    /// representation (see the module docs): the chunk members first, so
    /// the directory can carry each one's hash, then the directory, the
    /// container and the trailer over its head.
    pub fn seal(&self) -> Vec<u8> {
        self.seal_tallied().0
    }

    /// [`Partition::seal`], with the chunk members' `[count, raw bytes,
    /// frame bytes]` summed under the scheme each was framed with, one row
    /// per scheme indexed by `Scheme as usize` (the `Members` row stays
    /// zero: a member is a flat frame).
    pub(crate) fn seal_tallied(&self) -> (Vec<u8>, SchemeTally) {
        let chunks: Vec<&[u8]> = self.chunks.iter().map(|(_, b)| b.as_slice()).collect();
        let mut frames = compress_each(&chunks);
        let mut tally = SchemeTally::default();
        for (chunk, frame) in chunks.iter().zip(&frames) {
            let scheme = scheme_of(frame).expect("compress_each frames a known scheme");
            let t = &mut tally[scheme as usize];
            t[0] += 1;
            t[1] += chunk.len() as u64;
            t[2] += frame.len() as u64;
        }
        let mut dir = Vec::with_capacity(4 + frames.len() * DIR_ENTRY);
        dir.extend_from_slice(&(frames.len() as u32).to_le_bytes());
        for ((digest, _), frame) in self.chunks.iter().zip(&frames) {
            dir.extend_from_slice(&digest.0.to_le_bytes());
            dir.extend_from_slice(&digest.1.to_le_bytes());
            dir.extend_from_slice(&checksum(frame).to_le_bytes());
        }
        let chunk_bytes: usize = frames.iter().map(Vec::len).sum();
        // Digests and hashes: nothing for a codec to find.
        frames.insert(0, compress(&dir, Scheme::Raw));
        let mut image = assemble_members(&frames);
        let head = checksum(&image[..image.len() - chunk_bytes]);
        image.extend_from_slice(&head.to_le_bytes());
        (image, tally)
    }

    /// Verify every byte of a sealed partition without decoding a chunk:
    /// the head against the trailer, then each chunk member against its
    /// directory hash. The recovery sweep runs it over every partition
    /// file; torn writes and bitrot anywhere in a file fail here.
    pub fn verify(sealed: &[u8]) -> Result<(), StoreError> {
        let (members, _) = read_head(sealed)?;
        members.iter().try_for_each(|m| m.verify(sealed))
    }

    /// Decode a sealed partition whole back into an in-memory one, every
    /// byte verified (compaction's rewrite; reads open a `SealedPartition`
    /// and decode only what they need).
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
}

/// Seed of every xxhash64 in a sealed file: the trailer's and the
/// directory's per-member hashes.
const CHECKSUM_SEED: u64 = 0x5ea1;

/// Bytes per directory entry: digest hi, digest lo, member frame hash.
const DIR_ENTRY: usize = 24;

fn checksum(bytes: &[u8]) -> u64 {
    mistique_dedup::xxhash64(bytes, CHECKSUM_SEED)
}

/// One chunk member of a sealed file.
#[derive(Debug)]
struct Member {
    digest: ContentDigest,
    /// xxhash64 of the member's compressed frame, from the directory.
    hash: u64,
    /// The member's frame inside the image.
    frame: Range<usize>,
}

impl Member {
    /// Check the member's frame in `image` against its directory hash.
    fn verify(&self, image: &[u8]) -> Result<(), StoreError> {
        if checksum(&image[self.frame.clone()]) != self.hash {
            return Err(StoreError::CorruptPartition("member checksum mismatch"));
        }
        Ok(())
    }
}

/// Read and verify a sealed file's head — the container header, the
/// length table and the directory frame, against the trailer — then decode
/// the directory. Returns the chunk members and the directory frame read.
/// No member byte is looked at.
fn read_head(image: &[u8]) -> Result<(Vec<Member>, FrameRead), StoreError> {
    let frame_len = image
        .len()
        .checked_sub(8)
        .ok_or(StoreError::CorruptPartition("missing checksum"))?;
    let (frame, trailer) = image.split_at(frame_len);
    let ranges =
        member_table(frame).map_err(|_| StoreError::CorruptPartition("unreadable member table"))?;
    let (dir_frame, chunk_frames) = ranges
        .split_first()
        .ok_or(StoreError::CorruptPartition("no directory"))?;
    let expected = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if checksum(&frame[..dir_frame.end]) != expected {
        return Err(StoreError::CorruptPartition("checksum mismatch"));
    }
    let dir_frame = &frame[dir_frame.clone()];
    let dir = decompress(dir_frame)?;
    let read = (
        scheme_of(dir_frame).expect("decompress read the header"),
        dir_frame.len(),
    );
    let n = match dir.get(..4) {
        Some(n) => u32::from_le_bytes(n.try_into().expect("4-byte count")) as usize,
        None => return Err(StoreError::CorruptPartition("truncated directory")),
    };
    if dir.len() - 4 != n.saturating_mul(DIR_ENTRY) {
        return Err(StoreError::CorruptPartition("directory length"));
    }
    if n != chunk_frames.len() {
        return Err(StoreError::CorruptPartition(
            "directory disagrees with member count",
        ));
    }
    let word = |entry: &[u8], at: usize| {
        u64::from_le_bytes(entry[at..at + 8].try_into().expect("8-byte field"))
    };
    let members = dir[4..]
        .chunks_exact(DIR_ENTRY)
        .zip(chunk_frames)
        .map(|(entry, frame)| Member {
            digest: ContentDigest(word(entry, 0), word(entry, 8)),
            hash: word(entry, 16),
            frame: frame.clone(),
        })
        .collect();
    Ok((members, read))
}

/// A sealed partition file opened for reading: the compressed image is
/// kept, and each chunk's member is verified and decoded the first time it
/// is asked for and kept decoded beside it.
#[derive(Debug)]
pub(crate) struct SealedPartition {
    id: PartitionId,
    /// The sealed file.
    image: Vec<u8>,
    members: Vec<Member>,
    /// Digest → member; a digest stored twice resolves to its later copy,
    /// as in [`Partition::get`].
    index: HashMap<ContentDigest, usize>,
    decoded: Vec<Option<Vec<u8>>>,
    decoded_bytes: usize,
}

impl SealedPartition {
    /// Open a sealed file: verify its head and decode the directory — no
    /// chunk member yet. Also returns the directory frame that read.
    pub(crate) fn open(
        id: PartitionId,
        image: Vec<u8>,
    ) -> Result<(SealedPartition, FrameRead), StoreError> {
        let (members, read) = read_head(&image)?;
        let index = members
            .iter()
            .enumerate()
            .map(|(i, m)| (m.digest, i))
            .collect();
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

    /// Frames in the file: the directory plus one per chunk.
    pub(crate) fn members(&self) -> usize {
        self.members.len() + 1
    }

    /// Frames decoded so far, the directory included.
    pub(crate) fn members_decoded(&self) -> usize {
        1 + self.decoded.iter().filter(|d| d.is_some()).count()
    }

    /// What holding this costs in memory: the compressed image plus every
    /// decoded member — the read cache's charge.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.image.len() + self.decoded_bytes
    }

    /// A chunk's serialized bytes, its member verified and decoded first
    /// unless it already is; with them, the frame read when this call
    /// decoded one.
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
        m.verify(&self.image)?;
        let frame = &self.image[m.frame.clone()];
        let bytes = decompress(frame)?;
        let read = (
            scheme_of(frame).expect("decompress read the header"),
            frame.len(),
        );
        self.decoded_bytes += bytes.len();
        self.decoded[i] = Some(bytes);
        Ok(Some(read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_compress::compress_auto;
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

    /// A sealed image of `frame` with a valid trailer over its head (over
    /// the whole frame when it has no readable member table): what a
    /// hostile or buggy writer could leave that the trailer does not catch.
    fn resealed(frame: &[u8]) -> Vec<u8> {
        let head = member_table(frame)
            .ok()
            .and_then(|r| r.first().map(|dir| dir.end))
            .unwrap_or(frame.len());
        let mut image = frame.to_vec();
        image.extend_from_slice(&checksum(&frame[..head]).to_le_bytes());
        image
    }

    #[test]
    fn one_chunk_decodes_one_member() {
        let p = sample();
        let sealed = p.seal();
        let frame = &sealed[..sealed.len() - 8];
        let ranges = member_table(frame).unwrap();
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
        let dir_len = 4 + DIR_ENTRY * p.len();
        assert_eq!(raw[..4], (p.len() as u32).to_le_bytes());
        let chunks: Vec<u8> = p.chunks.iter().flat_map(|(_, b)| b.clone()).collect();
        assert_eq!(raw[dir_len..], chunks[..]);
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
        let dir = |entries: &[(ContentDigest, u64)], n: u32| -> Vec<u8> {
            let mut out = n.to_le_bytes().to_vec();
            for (d, hash) in entries {
                out.extend_from_slice(&d.0.to_le_bytes());
                out.extend_from_slice(&d.1.to_le_bytes());
                out.extend_from_slice(&hash.to_le_bytes());
            }
            out
        };
        let (a, b) = (vec![1u8; 10], vec![2u8; 12]);
        let (da, db) = (content_digest(&a), content_digest(&b));
        let (ha, hb) = (checksum(&compress_auto(&a)), checksum(&compress_auto(&b)));
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("count below members", dir(&[(da, ha)], 1)),
            (
                "count above members",
                dir(&[(da, ha), (db, hb), (da, 0)], 3),
            ),
            (
                "count disagrees with entries",
                dir(&[(da, ha), (db, hb)], 3),
            ),
            // Hashes swapped: each names a real frame, not its own.
            ("hashes swapped", dir(&[(da, hb), (db, ha)], 2)),
        ];
        for (what, directory) in cases {
            let image = resealed(&assemble_members(&compress_each(&[&directory, &a, &b])));
            assert!(open_all(image.clone()).is_err(), "{what}: opened");
            assert!(Partition::unseal(1, &image).is_err(), "{what}: unsealed");
            assert!(Partition::verify(&image).is_err(), "{what}: verified");
        }
        let good = resealed(&assemble_members(&compress_each(&[
            &dir(&[(da, ha), (db, hb)], 2),
            &a,
            &b,
        ])));
        assert!(open_all(good.clone()).is_ok());
        assert!(Partition::verify(&good).is_ok());
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
    fn a_flipped_byte_fails_exactly_the_reads_that_decode_it() {
        let p = sample();
        let sealed = p.seal();
        let frame_len = sealed.len() - 8;
        let ranges = member_table(&sealed[..frame_len]).unwrap();
        let head = ranges[0].end;
        // The member each digest resolves to (a shadowed copy is never read).
        let member_of = |d: ContentDigest| p.index[&d] + 1;
        for at in 0..sealed.len() {
            let mut damaged = sealed.clone();
            damaged[at] ^= 0x20;
            assert!(
                Partition::verify(&damaged).is_err(),
                "flip at {at} verified"
            );
            let opened = SealedPartition::open(42, damaged);
            if at < head || at >= frame_len {
                assert!(opened.is_err(), "flip at {at} in the head opened");
                continue;
            }
            let (mut open, _) = opened.unwrap();
            let hit = ranges.iter().position(|r| r.contains(&at)).unwrap();
            for (d, _) in &p.chunks {
                match open.chunk(*d) {
                    Ok((got, _)) => {
                        assert_ne!(member_of(*d), hit, "flip at {at} decoded");
                        assert_eq!(got, p.get(*d).unwrap(), "flip at {at}");
                    }
                    Err(_) => assert_eq!(member_of(*d), hit, "flip at {at} failed an intact read"),
                }
            }
        }
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
