//! The sidecar segment ring: the persistence under the audit journal
//! ([`crate::audit`]), whose records also carry the metric timeline.
//!
//! A ring is a set of JSONL segment files named
//! `au_<first seq, 16 hex digits>.jsonl`. Appending rewrites the
//! whole open segment through [`SegmentIo::write_atomic`], so
//! a crash can orphan a `*.tmp` but never tear a segment; a segment is sealed
//! once it reaches the rotation target, and the oldest segments are dropped
//! first when the ring outgrows its byte budget. All I/O is **best-effort**:
//! a failure is counted, never returned. A failed write leaves the segment
//! open, so its lines (at most a budget's worth) ride along with the next
//! append; only a successful write seals.
//!
//! The ring deals in pre-rendered lines and sequence numbers only; what goes
//! in a line is its owner's business.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use crate::json::{self, JsonValue};

/// Minimal segment storage port. The obs crate cannot depend on the store
/// crate (the dependency points the other way), so the store implements
/// this over its `StorageBackend` and hands the ring a boxed instance.
pub trait SegmentIo: Send {
    /// Names of the existing segment files (no paths, files only).
    fn list(&self) -> io::Result<Vec<String>>;
    /// Read a whole segment.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Atomically replace a segment (tmp + fsync + rename + dir fsync).
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Remove a segment durably.
    fn remove(&self, name: &str) -> io::Result<()>;
}

/// In-memory [`SegmentIo`] for unit tests (clones share the same files and
/// the same dead-disk switch).
#[derive(Clone, Debug, Default)]
pub struct MemSegmentIo {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
    dead: Arc<AtomicBool>,
}

impl MemSegmentIo {
    /// A fresh, empty in-memory segment store.
    pub fn new() -> MemSegmentIo {
        MemSegmentIo::default()
    }

    /// While set, writes and removals fail (listing and reads still work).
    pub fn set_dead(&self, dead: bool) {
        self.dead.store(dead, Ordering::Relaxed);
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(io::Error::other("disk is dead"));
        }
        Ok(())
    }
}

impl SegmentIo for MemSegmentIo {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.files.lock().unwrap().keys().cloned().collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        self.files
            .lock()
            .unwrap()
            .insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.check_alive()?;
        self.files.lock().unwrap().remove(name);
        Ok(())
    }
}

pub(crate) fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The segment prefix.
const PREFIX: &str = "au_";

/// Target size of one segment before the ring seals it (each append
/// rewrites the open segment atomically, so this bounds per-append write
/// amplification).
const SEGMENT_TARGET: usize = 32 * 1024;

/// Parse `au_XXXXXXXXXXXXXXXX.jsonl` into its first seq.
fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix(PREFIX)?.strip_suffix(".jsonl")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn segment_name(first_seq: u64) -> String {
    format!("{PREFIX}{first_seq:016x}.jsonl")
}

/// A byte-bounded ring of JSONL segments (see the module docs). Files
/// without the prefix — `*.tmp` orphans included — are invisible to it.
pub(crate) struct SegmentRing {
    io: Box<dyn SegmentIo>,
    budget_bytes: u64,
    segment_target: usize,
    /// The open segment: its first seq and buffered content.
    cur: Option<(u64, String)>,
    /// On-disk bytes per segment, keyed `(first seq, name)`: oldest first.
    sizes: BTreeMap<(u64, String), u64>,
    write_errors: u64,
    segments_dropped: u64,
}

impl SegmentRing {
    /// Open a ring over the existing segments: retention accounting picks
    /// up every one of them, and the second value is the sequence number
    /// after the highest found on disk. A failing scan is swallowed (the
    /// ring starts fresh, counting a write error) — a sidecar must never
    /// fail an engine open.
    pub(crate) fn open(io: Box<dyn SegmentIo>, budget_bytes: u64) -> (SegmentRing, u64) {
        // A target near the budget would leave the whole ring in one
        // segment, so retention could only drop everything at once; clamp
        // so rotation always keeps a few sealed segments of history.
        let quarter = usize::try_from(budget_bytes / 4).unwrap_or(usize::MAX);
        let mut ring = SegmentRing {
            io,
            budget_bytes,
            segment_target: SEGMENT_TARGET.min(quarter.max(512)),
            cur: None,
            sizes: BTreeMap::new(),
            write_errors: 0,
            segments_dropped: 0,
        };
        let names = ring.io.list().unwrap_or_else(|_| {
            ring.write_errors += 1;
            Vec::new()
        });
        let mut next_seq = 0;
        for name in names {
            let Some(first) = parse_segment_name(&name) else {
                continue;
            };
            let mut len = 0;
            if let Ok(bytes) = ring.io.read(&name) {
                len = bytes.len() as u64;
                // A segment with no parseable line still anchors the
                // numbering at the seq in its name.
                let last = String::from_utf8_lossy(&bytes)
                    .lines()
                    .filter_map(|l| json::parse(l).ok())
                    .filter_map(|v| v.get("seq")?.as_u64())
                    .max()
                    .unwrap_or(first);
                next_seq = next_seq.max(last.saturating_add(1));
            }
            ring.sizes.insert((first, name), len);
        }
        (ring, next_seq)
    }

    /// Override the segment rotation target (tests use tiny segments to
    /// exercise retention).
    #[cfg(test)]
    pub(crate) fn set_segment_target(&mut self, bytes: usize) {
        self.segment_target = bytes.max(1);
    }

    pub(crate) fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Best-effort writes/removals that failed, plus lines given up on.
    pub(crate) fn write_errors(&self) -> u64 {
        self.write_errors
    }

    pub(crate) fn segments_dropped(&self) -> u64 {
        self.segments_dropped
    }

    pub(crate) fn total_bytes(&self) -> u64 {
        self.sizes.values().sum()
    }

    pub(crate) fn segments(&self) -> u64 {
        self.sizes.len() as u64
    }

    /// Append newline-terminated `lines` to the open segment (opening one
    /// named after `first_seq` if there is none) and rewrite that segment
    /// atomically. Returns whether the write succeeded; when it did not, the
    /// segment stays open and the next append retries it.
    pub(crate) fn append(&mut self, first_seq: u64, lines: &str) -> bool {
        let (seq, buf) = self.cur.get_or_insert_with(|| (first_seq, String::new()));
        buf.push_str(lines);
        // Writes that keep failing must not grow the buffer without bound,
        // and a segment over the budget would be dropped as soon as it
        // landed: give up on the oldest whole lines beyond a budget's worth
        // (never on the newest line).
        let budget = usize::try_from(self.budget_bytes).unwrap_or(usize::MAX);
        if buf.len() > budget {
            let excess = buf.len() - budget;
            let cut = buf.as_bytes()[excess - 1..buf.len() - 1]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(0, |i| excess + i);
            self.write_errors += buf[..cut].lines().count() as u64;
            buf.drain(..cut);
        }
        let name = segment_name(*seq);
        match self.io.write_atomic(&name, buf.as_bytes()) {
            Ok(()) => {
                let len = buf.len();
                self.sizes.insert((*seq, name), len as u64);
                if len >= self.segment_target {
                    self.cur = None; // sealed
                }
                true
            }
            Err(_) => {
                self.write_errors += 1;
                false
            }
        }
    }

    /// Drop oldest segments until the ring fits the budget. The bound is
    /// hard: even an open segment is dropped if it alone exceeds it.
    pub(crate) fn enforce_budget(&mut self) {
        while self.total_bytes() > self.budget_bytes {
            let Some(oldest) = self.sizes.keys().next().cloned() else {
                break;
            };
            if self.io.remove(&oldest.1).is_err() {
                self.write_errors += 1;
                break; // avoid spinning when removal keeps failing
            }
            self.sizes.remove(&oldest);
            self.segments_dropped += 1;
            if matches!(&self.cur, Some((seq, _)) if segment_name(*seq) == oldest.1) {
                self.cur = None;
            }
        }
    }

    /// Every line of every readable segment, parsed, segments in sequence
    /// order. Other files are skipped; within a
    /// segment, parsing stops at the first torn line (atomic segment writes
    /// make this a belt-and-braces guard).
    pub(crate) fn load(io: &dyn SegmentIo) -> io::Result<Vec<JsonValue>> {
        let mut names: Vec<(u64, String)> = io
            .list()?
            .into_iter()
            .filter_map(|n| parse_segment_name(&n).map(|s| (s, n)))
            .collect();
        names.sort();
        let mut out = Vec::new();
        for (_, name) in names {
            let Ok(bytes) = io.read(&name) else { continue };
            for line in String::from_utf8_lossy(&bytes).lines() {
                let Ok(v) = json::parse(line) else { break };
                out.push(v);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(io: &MemSegmentIo, budget: u64) -> SegmentRing {
        SegmentRing::open(Box::new(io.clone()), budget).0
    }

    /// One line of the ring's own making: 48 bytes whatever the seq.
    fn line(seq: u64) -> String {
        format!(
            "{{\"seq\":{seq},\"pad\":\"{:x>1$}\"}}\n",
            "",
            30 - seq.to_string().len()
        )
    }

    fn loaded_seqs(io: &dyn SegmentIo) -> Vec<u64> {
        let mut seqs: Vec<u64> = SegmentRing::load(io)
            .unwrap()
            .iter()
            .map(|v| v.get("seq").unwrap().as_u64().unwrap())
            .collect();
        seqs.sort_unstable();
        seqs
    }

    fn bytes_on(io: &MemSegmentIo) -> u64 {
        let names = io.list().unwrap();
        names.iter().map(|n| io.read(n).unwrap().len() as u64).sum()
    }

    #[test]
    fn sequence_numbering_continues_across_reopen() {
        let io = MemSegmentIo::new();
        let (mut ring, next) = SegmentRing::open(Box::new(io.clone()), 1 << 20);
        assert_eq!(next, 0);
        ring.set_segment_target(64);
        for seq in 0..5 {
            ring.append(seq, &line(seq));
        }
        let (ring, next) = SegmentRing::open(Box::new(io.clone()), 1 << 20);
        assert_eq!(next, 5);
        assert_eq!(ring.segments(), io.list().unwrap().len() as u64);
        assert_eq!(ring.total_bytes(), bytes_on(&io));
        assert_eq!(loaded_seqs(&io), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn retention_never_exceeds_the_budget() {
        let io = MemSegmentIo::new();
        let mut ring = open(&io, 2048);
        ring.set_segment_target(256);
        for seq in 0..200 {
            ring.append(seq, &line(seq));
            ring.enforce_budget();
            let total = bytes_on(&io);
            assert!(total <= 2048, "{total} bytes after append {seq}");
            assert_eq!(ring.total_bytes(), total);
        }
        assert!(ring.segments_dropped() > 0, "retention must have kicked in");
        // The survivors are the newest lines, contiguous.
        let seqs = loaded_seqs(&io);
        assert_eq!(seqs.last(), Some(&199));
        for w in seqs.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn torn_or_corrupt_trailing_line_is_ignored_on_load() {
        let torn = line(1)[..28].to_string();
        let duplicate_key = "{\"seq\":1,\"seq\":2}\n".to_string();
        let too_deep = "[".repeat(100_000);
        for bad in [&torn, &duplicate_key, &too_deep] {
            let io = MemSegmentIo::new();
            let mut ring = open(&io, 1 << 20);
            ring.append(0, &line(0));
            // Damage the segment's tail behind the ring's back.
            let name = io.list().unwrap()[0].clone();
            let mut bytes = io.read(&name).unwrap();
            bytes.extend_from_slice(bad.as_bytes());
            io.write_atomic(&name, &bytes).unwrap();
            assert_eq!(loaded_seqs(&io), vec![0], "valid prefix kept");
        }
    }

    #[test]
    fn garbage_orphans_and_foreign_files_do_not_poison_the_ring() {
        let io = MemSegmentIo::new();
        let garbage = segment_name(3);
        io.write_atomic(&garbage, b"\x00\xff\x80 not json\n")
            .unwrap();
        let orphan = format!("{}.tmp", segment_name(9));
        io.write_atomic(&orphan, b"orphan").unwrap();
        io.write_atomic("unrelated.txt", b"ignored").unwrap();
        io.write_atomic(&format!("{PREFIX}7.jsonl"), b"short name")
            .unwrap();
        // Well-formed segments of the families older stores carry (the
        // event journal's, the flight recorder's) are not this ring's
        // business.
        for family in ["ev_", "tl_"] {
            let name = format!("{family}{:016x}.jsonl", 1);
            io.write_atomic(&name, line(1).as_bytes()).unwrap();
        }

        assert!(SegmentRing::load(&io).unwrap().is_empty());
        let (mut ring, next) = SegmentRing::open(Box::new(io.clone()), 1 << 20);
        assert_eq!(next, 4, "unparseable segment anchors seq at its name");
        assert_eq!(ring.segments(), 1, "only the garbage segment is accounted");
        assert_eq!(ring.total_bytes(), io.read(&garbage).unwrap().len() as u64);

        ring.append(next, &line(next));
        assert_eq!(loaded_seqs(&io), vec![4]);
        assert_eq!(io.list().unwrap().len(), 7, "foreign files left alone");
    }

    #[test]
    fn a_failed_write_at_the_rotation_target_is_retried_not_discarded() {
        let io = MemSegmentIo::new();
        let mut ring = open(&io, 1 << 20);
        ring.set_segment_target(2 * line(0).len());
        assert!(ring.append(0, &line(0)));
        // The write that takes the buffer to the target fails …
        io.set_dead(true);
        assert!(!ring.append(1, &line(1)));
        assert_eq!(ring.write_errors(), 1);
        assert_eq!(loaded_seqs(&io), vec![0]);
        // … so the segment stays open and the next append carries it.
        io.set_dead(false);
        assert!(ring.append(2, &line(2)));
        assert_eq!(loaded_seqs(&io), vec![0, 1, 2]);
        assert_eq!(
            io.list().unwrap().len(),
            1,
            "one segment, sealed on success"
        );
        assert!(ring.append(3, &line(3)));
        assert_eq!(io.list().unwrap().len(), 2);
    }

    #[test]
    fn a_dead_disk_retains_at_most_a_budget_of_lines() {
        let budget = 10 * line(0).len() as u64;
        let io = MemSegmentIo::new();
        let mut ring = open(&io, budget);
        io.set_dead(true);
        for seq in 0..25 {
            ring.append(seq, &line(seq));
        }
        // 25 failed writes plus the 15 oldest lines given up on.
        assert_eq!(ring.write_errors(), 25 + 15);
        io.set_dead(false);
        assert!(ring.append(25, &line(25)));
        ring.enforce_budget();
        // The first good write lands the newest budget's worth.
        assert_eq!(loaded_seqs(&io), (16..=25).collect::<Vec<u64>>());
        assert_eq!(bytes_on(&io), budget);
    }
}
