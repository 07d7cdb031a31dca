//! Partitions: groups of ColumnChunks that are placed and stored together.
//!
//! A [`Partition`] is an ordered list of member frames — each chunk's
//! stored bytes as its own `compress_auto` frame, made once, when the chunk
//! is put — each with its frame's xxhash64. A member of a file is decoded
//! the first time it is asked for and kept decoded beside its frame; a
//! `Raw` one decodes to its payload where it lies in the file, so nothing
//! is copied or kept. A member of an open partition is decoded afresh on
//! every ask and never kept, so the partition holds only its frames. A read
//! hands the bytes out as a [`ChunkBytes`], a shared read-only handle, not
//! a copy. The one type serves as an open partition in the buffer pool (each frame its own buffer, hashed
//! as it is added), a sealed file in the read cache (each frame a range of
//! the file, its hash from the directory) and a compaction rewrite: sealing
//! assembles the frames into a file, and compaction copies the live ones
//! into a new file. No codec runs at either.
//!
//! A sealed partition file (format version 2) is one [`Scheme::Members`]
//! frame and an xxhash64 trailer. Member 0 is the directory, a raw frame
//! of `[n: u32][(digest hi/lo: u64 u64, hash: u64) × n]`, and member `i + 1` is
//! chunk `i`'s frame, in insertion order; `hash` is the xxhash64 of that
//! frame. The trailer covers the file's head only: the container header, its
//! length table and the directory frame. Opening a file verifies the head,
//! and a member is verified against its hash before it is decoded: no
//! unverified byte is decoded or returned, and a read hashes only what it
//! decodes. [`Partition::verify`] checks every byte of a file.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use mistique_compress::{
    assemble_members, compress, decompress, member_ranges, member_table, raw_len_of, raw_payload,
    scheme_of, Scheme,
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

/// A chunk's stored bytes as a read hands them out: a shared, read-only
/// range of the buffer that holds them — a sealed file (a `Raw` member's
/// payload) or a decoded member of one — not a copy; or bytes made for
/// this read alone (a rehydrated delta, a member of an open partition).
///
/// A handle keeps its whole buffer alive, a partition file included, after
/// the partition has left the read cache; so an engine read drops its
/// handles before the fetch returns, or the cache's byte budget would stop
/// bounding what reads hold.
pub struct ChunkBytes {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl ChunkBytes {
    fn of(buf: &Arc<Vec<u8>>, range: Range<usize>) -> ChunkBytes {
        ChunkBytes {
            buf: Arc::clone(buf),
            range,
        }
    }
}

impl From<Vec<u8>> for ChunkBytes {
    fn from(bytes: Vec<u8>) -> ChunkBytes {
        let range = 0..bytes.len();
        ChunkBytes {
            buf: Arc::new(bytes),
            range,
        }
    }
}

impl Deref for ChunkBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl std::fmt::Debug for ChunkBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<Vec<u8>> for ChunkBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

/// A partition: its chunks' member frames in insertion order, each decoded
/// on first ask (see the module docs).
///
/// Each chunk is its own member frame, so co-location buys locality (one
/// file, one read) and delta-base proximity, not a shared compression
/// window (Sec 4.2).
#[derive(Debug)]
pub struct Partition {
    id: PartitionId,
    /// The sealed file the members sit in, for a partition opened from one;
    /// empty for one built by [`Partition::add`].
    file: Arc<Vec<u8>>,
    members: Vec<Member>,
    /// Digest → member; a digest stored twice (a STORE_ALL re-put into the
    /// partition that already holds it) resolves to its later copy.
    index: HashMap<ContentDigest, usize, BuildHasherDefault<DigestHasher>>,
    raw_bytes: usize,
    /// Members decoded so far, and the bytes decoding kept (a `Raw`
    /// member's payload is read in place and keeps none).
    decoded_members: AtomicUsize,
    decoded_bytes: AtomicUsize,
}

/// The hasher of a partition's digest index. A digest is already a pair of
/// uniform xxhash64 values, so its halves are folded as they are rather
/// than hashed again (SipHash over them was most of opening a file of
/// thousands of small members). A crafted collision makes a lookup slower,
/// never wrong.
#[derive(Default)]
pub(crate) struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, half: u64) {
        self.0 = self.0.rotate_left(32) ^ half;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

/// One chunk member.
#[derive(Debug)]
struct Member {
    digest: ContentDigest,
    frame: Frame,
    /// The xxhash64 of the frame, which the member must match before it is
    /// decoded: from the directory for a member read from a file, taken when
    /// it is added otherwise.
    hash: u64,
    /// Set once a member of a file has been verified and decoded; an open
    /// partition's member is decoded afresh on every ask and never kept.
    decoded: OnceLock<Decoded>,
}

/// Where a member's frame is: its own bytes (added to an open partition,
/// one allocation per chunk as the put made it — appending frames to one
/// growing buffer left freed doubling buffers behind and read +11 %
/// `peak_rss_mb` on `dnn_read`, and a second allocation per put to share
/// the frame read +8–16 % on `dnn_log`'s small reads), or a range of the
/// file.
#[derive(Debug)]
enum Frame {
    Own(Vec<u8>),
    InFile(Range<usize>),
}

/// A verified member of a file, decoded and kept: a `Raw` frame's payload
/// where it lies in the file, or another codec's output.
#[derive(Debug)]
enum Decoded {
    InFile(Range<usize>),
    Own(Arc<Vec<u8>>),
}

/// A member's decoded bytes as [`Partition::decode`] finds them.
enum Found<'a> {
    /// Kept by a partition read from a file: a range of a buffer it holds.
    Kept(&'a Arc<Vec<u8>>, Range<usize>),
    /// Decoded afresh from an open partition's frame, and not kept.
    Fresh(Vec<u8>),
}

impl Decoded {
    fn found<'a>(&'a self, file: &'a Arc<Vec<u8>>) -> Found<'a> {
        match self {
            Decoded::InFile(range) => Found::Kept(file, range.clone()),
            Decoded::Own(bytes) => Found::Kept(bytes, 0..bytes.len()),
        }
    }
}

impl Member {
    /// The member's frame; `file` is the file it sits in, if it does.
    fn frame<'a>(&'a self, file: &'a [u8]) -> &'a [u8] {
        match &self.frame {
            Frame::Own(frame) => frame,
            Frame::InFile(range) => &file[range.clone()],
        }
    }

    /// Check the member's frame against its hash.
    fn verify(&self, file: &[u8]) -> Result<(), StoreError> {
        if checksum(self.frame(file)) != self.hash {
            return Err(StoreError::CorruptPartition("member checksum mismatch"));
        }
        Ok(())
    }
}

impl Partition {
    /// Create an empty partition.
    pub fn new(id: PartitionId) -> Partition {
        Partition::from_members(id, Arc::default(), Vec::new())
    }

    /// A partition of `members` in `file`, indexed; its raw bytes are the
    /// caller's to set.
    fn from_members(id: PartitionId, file: Arc<Vec<u8>>, members: Vec<Member>) -> Partition {
        Partition {
            id,
            file,
            index: members
                .iter()
                .enumerate()
                .map(|(i, m)| (m.digest, i))
                .collect(),
            members,
            raw_bytes: 0,
            decoded_members: AtomicUsize::new(0),
            decoded_bytes: AtomicUsize::new(0),
        }
    }

    /// The partition id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Number of chunks held.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no chunks are held.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Total uncompressed bytes of the chunks held — the buffer pool's
    /// charge (an open partition keeps no decoded member beside its frames).
    pub fn raw_bytes(&self) -> usize {
        self.raw_bytes
    }

    /// Add a chunk under its content digest as `frame`, its stored bytes'
    /// `compress_auto` frame.
    pub fn add(&mut self, digest: ContentDigest, frame: Vec<u8>) {
        self.raw_bytes += raw_len_of(&frame).expect("a compress_auto frame") as usize;
        self.index.insert(digest, self.members.len());
        self.members.push(Member {
            digest,
            hash: checksum(&frame),
            frame: Frame::Own(frame),
            decoded: OnceLock::new(),
        });
    }

    /// A chunk's stored bytes by digest in a partition read from a file,
    /// its member decoded first unless it already is; `None` when the chunk
    /// is not here, its member does not verify or decode, or the partition
    /// is open (its members are not kept decoded: ask
    /// [`Partition::chunk`]).
    pub fn get(&self, digest: ContentDigest) -> Option<&[u8]> {
        let i = *self.index.get(&digest)?;
        match self.decode(i).ok()?.0 {
            Found::Kept(buf, range) => Some(&buf[range]),
            Found::Fresh(_) => None,
        }
    }

    /// A chunk's stored bytes by digest as a handle, with the frame read
    /// when this call decoded one.
    pub(crate) fn chunk(
        &self,
        digest: ContentDigest,
    ) -> Result<(ChunkBytes, Option<FrameRead>), StoreError> {
        let i = *self
            .index
            .get(&digest)
            .ok_or(StoreError::CorruptPartition("missing chunk"))?;
        let (found, read) = self.decode(i)?;
        let bytes = match found {
            Found::Kept(buf, range) => ChunkBytes::of(buf, range),
            Found::Fresh(bytes) => bytes.into(),
        };
        Ok((bytes, read))
    }

    /// Member `i`'s decoded bytes, verifying and decoding the member unless
    /// it is a member of a file already decoded.
    fn decode(&self, i: usize) -> Result<(Found<'_>, Option<FrameRead>), StoreError> {
        let m = &self.members[i];
        if let Some(d) = m.decoded.get() {
            return Ok((d.found(&self.file), None));
        }
        m.verify(&self.file)?;
        let frame = m.frame(&self.file);
        let read = |frame: &[u8]| (scheme_of(frame).expect("the frame decoded"), frame.len());
        let decoded = match (&m.frame, raw_payload(frame)) {
            (Frame::Own(_), _) => {
                let bytes = decompress(frame)?;
                return Ok((Found::Fresh(bytes), Some(read(frame))));
            }
            (Frame::InFile(at), Some(payload)) => {
                Decoded::InFile(at.start + payload.start..at.start + payload.end)
            }
            (Frame::InFile(_), None) => Decoded::Own(Arc::new(decompress(frame)?)),
        };
        let mut fresh = false;
        let d = m.decoded.get_or_init(|| {
            fresh = true;
            decoded
        });
        if fresh {
            self.decoded_members.fetch_add(1, Ordering::Relaxed);
            if let Decoded::Own(bytes) = d {
                self.decoded_bytes.fetch_add(bytes.len(), Ordering::Relaxed);
            }
        }
        Ok((d.found(&self.file), Some(read(frame))))
    }

    /// Frames in a sealed file: the directory plus one per chunk.
    pub(crate) fn members(&self) -> usize {
        self.members.len() + 1
    }

    /// Frames decoded so far, the directory included.
    pub(crate) fn members_decoded(&self) -> usize {
        1 + self.decoded_members.load(Ordering::Relaxed)
    }

    /// What holding a partition read from a file costs in memory: the file
    /// plus the bytes its decoded members keep (a `Raw` member's payload is
    /// read in place and keeps none) — the read cache's charge.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.file.len() + self.decoded_bytes.load(Ordering::Relaxed)
    }

    /// Assemble the partition's file (see the module docs): the directory
    /// of digests and frame hashes, the container of the directory and the
    /// member frames as they are, and the trailer over its head.
    pub fn seal(&self) -> Vec<u8> {
        self.seal_tallied().0
    }

    /// [`Partition::seal`], with the chunk members' `[count, raw bytes,
    /// frame bytes]` summed under the scheme each frame names, one row per
    /// scheme indexed by `Scheme as usize` (the `Members` row stays zero: a
    /// member is a flat frame).
    pub(crate) fn seal_tallied(&self) -> (Vec<u8>, SchemeTally) {
        let mut tally = SchemeTally::default();
        let mut dir = Vec::with_capacity(4 + self.members.len() * DIR_ENTRY);
        dir.extend_from_slice(&(self.members.len() as u32).to_le_bytes());
        for m in &self.members {
            let frame = m.frame(&self.file);
            let scheme = scheme_of(frame).expect("a member is a flat frame");
            let t = &mut tally[scheme as usize];
            t[0] += 1;
            t[1] += raw_len_of(frame).expect("a member is a flat frame");
            t[2] += frame.len() as u64;
            dir.extend_from_slice(&m.digest.0.to_le_bytes());
            dir.extend_from_slice(&m.digest.1.to_le_bytes());
            dir.extend_from_slice(&m.hash.to_le_bytes());
        }
        // Digests and hashes: nothing for a codec to find.
        let dir = compress(&dir, Scheme::Raw);
        let frames: Vec<&[u8]> = std::iter::once(dir.as_slice())
            .chain(self.members.iter().map(|m| m.frame(&self.file)))
            .collect();
        let chunk_bytes: usize = frames[1..].iter().map(|f| f.len()).sum();
        let mut image = assemble_members(&frames);
        let head = checksum(&image[..image.len() - chunk_bytes]);
        image.extend_from_slice(&head.to_le_bytes());
        (image, tally)
    }

    /// Open a sealed file: verify its head and read the directory — no
    /// chunk member yet. Also returns the directory frame that read.
    pub(crate) fn open(
        id: PartitionId,
        file: Vec<u8>,
    ) -> Result<(Partition, FrameRead), StoreError> {
        let (members, read) = read_head(&file)?;
        // The container's raw length less the directory's: the chunks' raw
        // bytes without a member byte read.
        let raw = raw_len_of(&file).expect("read_head read the container") as usize;
        let raw = raw.saturating_sub(4 + DIR_ENTRY * members.len());
        let part = Partition {
            raw_bytes: raw,
            ..Partition::from_members(id, Arc::new(file), members)
        };
        Ok((part, read))
    }

    /// Verify every byte of a sealed partition without decoding a chunk:
    /// the head against the trailer, each chunk member against its
    /// directory hash, and every member's header (a flat frame whose raw
    /// length the container's adds up). The recovery sweep runs it over
    /// every partition file; torn writes and bitrot anywhere in a file fail
    /// here.
    pub fn verify(sealed: &[u8]) -> Result<(), StoreError> {
        let (members, _) = read_head(sealed)?;
        for m in &members {
            m.verify(sealed)?;
        }
        member_ranges(&sealed[..sealed.len() - 8])
            .map_err(|_| StoreError::CorruptPartition("malformed member header"))?;
        Ok(())
    }

    /// Open a sealed partition with every member verified and decoded.
    pub fn unseal(id: PartitionId, sealed: &[u8]) -> Result<Partition, StoreError> {
        let (part, _) = Partition::open(id, sealed.to_vec())?;
        for i in 0..part.members.len() {
            part.decode(i)?;
        }
        Ok(part)
    }

    /// Compaction's rewrite of the sealed file `sealed`: every byte of it
    /// verified ([`Partition::verify`]), then the frames of the chunks
    /// `live` names copied as they are, in their order, with their hashes,
    /// into a new file of the same id. Nothing is decoded or encoded. Dead
    /// chunks are dropped, and so is a copy shadowed by a later one under
    /// the same digest, which no read reaches. Fails when a live chunk is
    /// not in the file: better to keep the dead bytes than to persist data
    /// loss.
    pub fn compacted(
        id: PartitionId,
        sealed: Vec<u8>,
        live: &[ContentDigest],
    ) -> Result<Vec<u8>, StoreError> {
        Partition::verify(&sealed)?;
        let (old, _) = Partition::open(id, sealed)?;
        if live.iter().any(|d| !old.index.contains_key(d)) {
            return Err(StoreError::CorruptPartition(
                "live chunk missing during compaction",
            ));
        }
        let live: HashSet<ContentDigest> = live.iter().copied().collect();
        let kept = (old.members.into_iter().enumerate())
            .filter(|(i, m)| live.contains(&m.digest) && old.index[&m.digest] == *i)
            .map(|(_, m)| m)
            .collect();
        Ok(Partition::from_members(id, old.file, kept).seal())
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
            frame: Frame::InFile(frame.clone()),
            hash: word(entry, 16),
            decoded: OnceLock::new(),
        })
        .collect();
    Ok((members, read))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_compress::{basedelta, compress_auto, compress_auto_within, lzss};
    use mistique_dedup::content_digest;
    use mistique_testkit::cases;

    /// The seal from before frames were made at put: every chunk's stored
    /// bytes framed by `compress_auto` at seal (what `compress_each` did),
    /// then the directory over those frames and the container.
    fn reference_seal(chunks: &[(ContentDigest, Vec<u8>)]) -> Vec<u8> {
        let mut frames: Vec<Vec<u8>> = chunks.iter().map(|(_, b)| compress_auto(b)).collect();
        let mut dir = Vec::with_capacity(4 + frames.len() * DIR_ENTRY);
        dir.extend_from_slice(&(frames.len() as u32).to_le_bytes());
        for ((digest, _), frame) in chunks.iter().zip(&frames) {
            dir.extend_from_slice(&digest.0.to_le_bytes());
            dir.extend_from_slice(&digest.1.to_le_bytes());
            dir.extend_from_slice(&checksum(frame).to_le_bytes());
        }
        let chunk_bytes: usize = frames.iter().map(Vec::len).sum();
        frames.insert(0, compress(&dir, Scheme::Raw));
        let mut image = assemble_members(&frames);
        let head = checksum(&image[..image.len() - chunk_bytes]);
        image.extend_from_slice(&head.to_le_bytes());
        image
    }

    fn chunk(bytes: &[u8]) -> (ContentDigest, Vec<u8>) {
        (content_digest(bytes), bytes.to_vec())
    }

    /// A partition of `chunks`, each framed as a put frames it: its
    /// `compress_auto` frame, through the one encoder `enc`.
    fn built(
        id: PartitionId,
        chunks: &[(ContentDigest, Vec<u8>)],
        enc: &mut lzss::Encoder,
    ) -> Partition {
        let mut p = Partition::new(id);
        for (d, b) in chunks {
            p.add(
                *d,
                compress_auto_within(b, usize::MAX, enc).expect("unbounded"),
            );
        }
        p
    }

    fn partition(id: PartitionId, chunks: &[(ContentDigest, Vec<u8>)]) -> Partition {
        built(id, chunks, &mut lzss::Encoder::default())
    }

    /// The chunks a read reaches: each digest's last copy.
    fn reachable(chunks: &[(ContentDigest, Vec<u8>)]) -> HashMap<ContentDigest, &[u8]> {
        chunks.iter().map(|(d, b)| (*d, b.as_slice())).collect()
    }

    /// A chunk's bytes as a read of `p` hands them out.
    fn stored(p: &Partition, digest: ContentDigest) -> Option<Vec<u8>> {
        p.chunk(digest).ok().map(|(bytes, _)| bytes.to_vec())
    }

    #[test]
    fn add_and_get() {
        let (d, b) = chunk(b"hello chunk");
        let p = partition(1, &[(d, b.clone())]);
        assert_eq!(stored(&p, d), Some(b.clone()));
        assert_eq!(p.len(), 1);
        assert_eq!(p.raw_bytes(), b.len());
        assert!(stored(&p, content_digest(b"other")).is_none());
    }

    /// An open partition's member is decoded afresh on every ask and never
    /// kept, so the partition holds its frames and nothing else: the buffer
    /// pool's charge, its chunks' raw bytes, stays true however often they
    /// are read. `get`, which lends out what a partition keeps, has nothing
    /// to lend there.
    #[test]
    fn an_open_partition_keeps_no_decoded_member() {
        let runs = vec![7u8; 600];
        let (d, b) = chunk(&runs);
        let p = partition(1, &[(d, b.clone())]);
        assert_ne!(scheme_of(p.members[0].frame(&p.file)), Some(Scheme::Raw));
        for _ in 0..3 {
            let (bytes, read) = p.chunk(d).unwrap();
            assert_eq!((bytes.to_vec(), read.is_some()), (b.clone(), true));
        }
        assert_eq!(p.get(d), None);
        assert_eq!((p.members_decoded(), p.resident_bytes()), (1, 0));
        assert!(p.members[0].decoded.get().is_none());
    }

    /// Digests crafted to hash alike in the index still each find their
    /// own member, in memory and from the sealed file.
    #[test]
    fn colliding_digests_resolve_to_their_own_members() {
        let chunks: Vec<(ContentDigest, Vec<u8>)> = (0u64..64)
            .map(|i| {
                let digest = ContentDigest(i, (i << 32) ^ 0x5eed);
                (digest, i.to_le_bytes().repeat(i as usize + 1))
            })
            .collect();
        let hash = |d: &ContentDigest| {
            let mut h = DigestHasher::default();
            std::hash::Hash::hash(d, &mut h);
            h.finish()
        };
        assert!(chunks.iter().all(|(d, _)| hash(d) == hash(&chunks[0].0)));
        let p = partition(3, &chunks);
        let (sealed, _) = Partition::open(3, p.seal()).unwrap();
        for (d, b) in &chunks {
            assert_eq!(stored(&p, *d).as_ref(), Some(b));
            assert_eq!(sealed.get(*d), Some(b.as_slice()));
        }
        assert!(stored(&p, ContentDigest(64, 0x5eed)).is_none());
    }

    /// Twenty chunks of varied shapes, one of them stored twice (a
    /// STORE_ALL re-put: the later copy shadows the earlier).
    fn sample() -> Vec<(ContentDigest, Vec<u8>)> {
        let mut chunks: Vec<_> = (0u32..20)
            .map(|i| {
                let bytes: Vec<u8> = (0..100 + 37 * i)
                    .map(|j| ((i * j) % (i + 3)) as u8)
                    .collect();
                chunk(&bytes)
            })
            .collect();
        chunks.push(chunks[3].clone());
        chunks
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let chunks = sample();
        let p = partition(42, &chunks);
        let sealed = p.seal();
        let back = Partition::unseal(42, &sealed).unwrap();
        assert_eq!(back.len(), p.len());
        assert_eq!(back.raw_bytes(), p.raw_bytes());
        for (d, b) in reachable(&chunks) {
            assert_eq!(back.get(d), Some(b));
        }
        assert_eq!(
            back.members_decoded(),
            back.members(),
            "every member decoded"
        );
        assert_eq!(back.seal(), sealed, "a file re-sealed is itself");
    }

    /// A chunk sequence as puts make it: random bytes, zero-heavy f32, a
    /// delta frame against an earlier chunk, or a STORE_ALL re-put of an
    /// earlier chunk under its digest. Also returns which kinds it drew.
    fn chunk_sequence(g: &mut mistique_testkit::Gen) -> (Vec<(ContentDigest, Vec<u8>)>, [bool; 4]) {
        let mut chunks: Vec<(ContentDigest, Vec<u8>)> = Vec::new();
        let mut kinds = [false; 4];
        for _ in 0..g.len(0..16) {
            let earlier = (!chunks.is_empty()).then(|| g.rng.range(0..chunks.len()));
            let kind = g.rng.range(0..4usize);
            let stored = match (kind, earlier) {
                (1, _) => {
                    let n = g.rng.range(0..1024usize);
                    let f32s = (0..n).map(|_| {
                        if g.rng.chance(0.8) {
                            0.0
                        } else {
                            g.rng.range(0.0..4.0f32)
                        }
                    });
                    chunk(&f32s.flat_map(f32::to_le_bytes).collect::<Vec<u8>>())
                }
                (2, Some(e)) => {
                    let base = chunks[e].1.clone();
                    let mut target = base.clone();
                    for _ in 0..g.rng.range(1..4usize) {
                        if !target.is_empty() {
                            let at = g.rng.range(0..target.len());
                            target[at] ^= 0x5a;
                        }
                    }
                    target.extend(g.bytes(0..8));
                    let digest = content_digest(&target);
                    let base_digest = (chunks[e].0 .0, chunks[e].0 .1);
                    (digest, basedelta::encode(&target, &base, base_digest))
                }
                (3, Some(e)) => chunks[e].clone(),
                _ => chunk(&g.bytes(0..2048)),
            };
            kinds[kind] |= kind == 0 || kind == 1 || earlier.is_some();
            chunks.push(stored);
        }
        (chunks, kinds)
    }

    #[test]
    fn seal_and_compaction_match_the_reference_seal() {
        let mut enc = lzss::Encoder::default();
        let mut seen = [0usize; 5];
        cases(64, 0x5ea1, |g| {
            let (chunks, kinds) = chunk_sequence(g);
            for (k, drawn) in kinds.iter().enumerate() {
                seen[k] += usize::from(*drawn);
            }
            seen[4] += usize::from(chunks.is_empty());
            let sealed = built(9, &chunks, &mut enc).seal();
            assert_eq!(sealed, reference_seal(&chunks), "{} chunks", chunks.len());

            // Compaction keeps a random live subset, each digest's reachable
            // copy in place; a shadowed copy goes with the dead.
            let digests: HashSet<ContentDigest> = chunks.iter().map(|(d, _)| *d).collect();
            let mut live: Vec<ContentDigest> =
                digests.into_iter().filter(|_| g.rng.chance(0.6)).collect();
            live.sort_unstable_by_key(|d| (d.0, d.1));
            let last = |d: &ContentDigest| chunks.iter().rposition(|(c, _)| c == d);
            let kept: Vec<(ContentDigest, Vec<u8>)> = chunks
                .iter()
                .enumerate()
                .filter(|(i, (d, _))| live.contains(d) && last(d) == Some(*i))
                .map(|(_, c)| c.clone())
                .collect();
            let rewritten = Partition::compacted(9, sealed, &live).unwrap();
            assert_eq!(
                rewritten,
                reference_seal(&kept),
                "{} of {} kept",
                kept.len(),
                chunks.len()
            );
        });
        let [random, zeros, delta, reput, empty] = seen;
        assert!(
            random > 0 && zeros > 0 && delta > 0 && reput > 0 && empty > 0,
            "{seen:?}"
        );
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
        let chunks = sample();
        let sealed = partition(42, &chunks).seal();
        let frame = &sealed[..sealed.len() - 8];
        let ranges = member_table(frame).unwrap();
        assert_eq!(
            ranges.len(),
            chunks.len() + 1,
            "directory plus one member per chunk"
        );

        let (open, dir) = Partition::open(42, sealed.clone()).unwrap();
        assert_eq!(dir.1, ranges[0].len(), "opening decodes the directory only");
        assert_eq!((open.members(), open.members_decoded()), (22, 1));
        assert_eq!(open.resident_bytes(), sealed.len());
        let (d, b) = &chunks[7];
        let (bytes, read) = open.chunk(*d).unwrap();
        assert_eq!(&*bytes, b.as_slice());
        assert_eq!(
            read.unwrap().1,
            ranges[8].len(),
            "exactly its own member frame"
        );
        let (again, read) = open.chunk(*d).unwrap();
        assert_eq!(
            (&*again, read),
            (b.as_slice(), None),
            "a second ask decodes nothing"
        );
        assert_eq!(open.members_decoded(), 2);
        assert_eq!(open.resident_bytes(), sealed.len() + b.len());
        // The shadowed digest resolves to its later copy.
        let (d3, b3) = &chunks[3];
        let (got, read) = open.chunk(*d3).unwrap();
        assert_eq!((&*got, read.unwrap().1), (b3.as_slice(), ranges[21].len()));
        assert!(open.chunk(content_digest(b"absent")).is_err());
    }

    #[test]
    fn a_raw_member_of_a_file_is_read_in_place() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let noise: Vec<u8> = (0..500)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let (d, b) = chunk(&noise);
        let p = partition(5, &[(d, b.clone())]);
        assert_eq!(scheme_of(p.members[0].frame(&p.file)), Some(Scheme::Raw));
        let sealed = p.seal();
        let (open, _) = Partition::open(5, sealed.clone()).unwrap();
        let (bytes, read) = open.chunk(d).unwrap();
        assert_eq!(
            (&*bytes, read.map(|r| r.0)),
            (b.as_slice(), Some(Scheme::Raw))
        );
        // The handle is a range of the file itself, and nothing is kept.
        let file = open.file.as_ptr_range();
        assert!(file.contains(&bytes.as_ptr()));
        assert_eq!(open.members_decoded(), 2);
        assert_eq!(open.resident_bytes(), sealed.len());
        // An open partition's frame is the put's own buffer, not shared:
        // its member decodes into a copy of the handle's own, not kept.
        let (own, _) = p.chunk(d).unwrap();
        assert_eq!(&*own, b.as_slice());
        assert_eq!(p.resident_bytes(), 0);
    }

    #[test]
    fn whole_frame_decompress_is_the_directory_then_the_chunks() {
        // e2e's traced replay decompresses the frame whole: that must still
        // work and give every raw byte, in member order.
        let chunks = sample();
        let sealed = partition(42, &chunks).seal();
        let raw = decompress(&sealed[..sealed.len() - 8]).unwrap();
        let dir_len = 4 + DIR_ENTRY * chunks.len();
        assert_eq!(raw[..4], (chunks.len() as u32).to_le_bytes());
        let concat: Vec<u8> = chunks.iter().flat_map(|(_, b)| b.clone()).collect();
        assert_eq!(raw[dir_len..], concat[..]);
    }

    #[test]
    fn malformed_member_layouts_are_errors_even_under_a_valid_trailer() {
        let sealed = partition(42, &sample()).seal();
        let frame = &sealed[..sealed.len() - 8];
        let open_all = |image: Vec<u8>| -> Result<(), StoreError> {
            let (open, _) = Partition::open(1, image)?;
            for i in 0..open.members.len() {
                open.decode(i)?;
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
        let image_of =
            |directory: &[u8]| resealed(&assemble_members(&[directory, &a, &b].map(compress_auto)));
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
            let image = image_of(&directory);
            assert!(open_all(image.clone()).is_err(), "{what}: opened");
            assert!(Partition::unseal(1, &image).is_err(), "{what}: unsealed");
            assert!(Partition::verify(&image).is_err(), "{what}: verified");
            assert!(
                Partition::compacted(1, image, &[]).is_err(),
                "{what}: compacted"
            );
        }
        let good = image_of(&dir(&[(da, ha), (db, hb)], 2));
        assert!(open_all(good.clone()).is_ok());
        assert!(Partition::verify(&good).is_ok());
        // A member whose hash matches but whose header is no flat frame
        // fails verification: a compaction that copies frames without
        // decoding them never copies one that cannot be read.
        let bogus = vec![Scheme::Members as u8];
        let frames: [&[u8]; 3] = [
            &dir(&[(da, checksum(&bogus)), (db, hb)], 2),
            &bogus,
            &compress_auto(&b),
        ];
        let mut container = vec![Scheme::Members as u8, (a.len() + b.len()) as u8, 3];
        container.extend(frames.iter().map(|f| f.len() as u8));
        container.extend(frames.concat());
        let image = resealed(&container);
        assert!(
            Partition::verify(&image).is_err(),
            "a nested container verified"
        );
        assert!(Partition::compacted(1, image, &[db]).is_err());
        // Seeded byte flips, re-trailered: a clean verdict every time.
        let mut rng = mistique_rng::Rng::seed(0xbad);
        for _ in 0..256 {
            let mut damaged = frame.to_vec();
            let at = rng.range(0..damaged.len());
            damaged[at] ^= rng.range(1..=u8::MAX);
            let _ = open_all(resealed(&damaged));
            let _ = Partition::unseal(1, &resealed(&damaged));
            let _ = Partition::compacted(1, resealed(&damaged), &[]);
        }
    }

    #[test]
    fn compaction_keeps_live_chunks_in_order_and_drops_the_rest() {
        let entries: Vec<(ContentDigest, Vec<u8>)> = (0u8..6).map(|i| chunk(&[i; 32])).collect();
        let sealed = partition(7, &entries).seal();
        let live: Vec<ContentDigest> = [0usize, 2, 5].iter().map(|&i| entries[i].0).collect();
        let rewritten = Partition::compacted(7, sealed.clone(), &live).unwrap();
        let back = Partition::unseal(7, &rewritten).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.raw_bytes(), 3 * 32);
        for (i, (d, b)) in entries.iter().enumerate() {
            if live.contains(d) {
                assert_eq!(back.get(*d), Some(b.as_slice()));
            } else {
                assert!(back.get(*d).is_none(), "chunk {i} dropped");
            }
        }
        // In their original order, each frame copied as it was.
        let kept: Vec<_> = [0usize, 2, 5].iter().map(|&i| entries[i].clone()).collect();
        assert_eq!(rewritten, reference_seal(&kept), "order preserved");
        let (old, new) = (
            &sealed[..sealed.len() - 8],
            &rewritten[..rewritten.len() - 8],
        );
        let (old_frames, new_frames) = (member_table(old).unwrap(), member_table(new).unwrap());
        for (r, i) in new_frames[1..].iter().zip([1usize, 3, 6]) {
            assert_eq!(new[r.clone()], old[old_frames[i].clone()]);
        }
        // A live digest the file does not hold is refused.
        let absent = content_digest(b"absent");
        assert!(Partition::compacted(7, sealed, &[entries[0].0, absent]).is_err());
    }

    #[test]
    fn empty_partition_roundtrips() {
        let p = Partition::new(0);
        let back = Partition::unseal(0, &p.seal()).unwrap();
        assert!(back.is_empty());
        assert_eq!(Partition::compacted(0, p.seal(), &[]).unwrap(), p.seal());
    }

    #[test]
    fn a_flipped_byte_fails_exactly_the_reads_that_decode_it() {
        let chunks = sample();
        let p = partition(42, &chunks);
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
            assert!(
                Partition::compacted(42, damaged.clone(), &[chunks[0].0]).is_err(),
                "flip at {at} compacted"
            );
            let opened = Partition::open(42, damaged);
            if at < head || at >= frame_len {
                assert!(opened.is_err(), "flip at {at} in the head opened");
                continue;
            }
            let (open, _) = opened.unwrap();
            let hit = ranges.iter().position(|r| r.contains(&at)).unwrap();
            for (d, _) in &chunks {
                match open.chunk(*d) {
                    Ok((got, _)) => {
                        assert_ne!(member_of(*d), hit, "flip at {at} decoded");
                        assert_eq!(Some(got.to_vec()), stored(&p, *d), "flip at {at}");
                    }
                    Err(_) => assert_eq!(member_of(*d), hit, "flip at {at} failed an intact read"),
                }
            }
        }
    }

    #[test]
    fn corrupt_sealed_bytes_rejected() {
        let mut sealed = partition(1, &[chunk(b"data")]).seal();
        sealed.truncate(sealed.len() - 1);
        assert!(Partition::unseal(1, &sealed).is_err());
        assert!(Partition::unseal(1, &[]).is_err());
    }
}
