//! The chunk ledger: the one index from a ColumnChunk's content digest to
//! where its bytes live (the paper's DataStore index, Sec 3 / Alg. 4), with
//! the logical keys bound to each digest, the byte accounting of each
//! partition, and the similarity index over the recorded chunks. The
//! reference-count, base-pin, no-delta-chain and dead-byte rules are applied
//! here and nowhere else: `DataStore` moves bytes and tells the ledger what
//! it did. DESIGN.md "Chunk ledger" tabulates the invariants;
//! [`Ledger::check_invariants`] checks them.

use std::collections::{BTreeMap, HashMap, HashSet};

use mistique_dedup::{ContentDigest, LshIndex, Signature};
use mistique_obs::Counter;

use crate::datastore::{
    CatalogEntry, CatalogExtra, ChunkKey, DeltaRecord, LshItemRecord, RetractOutcome, StoreCatalog,
    StoreStats,
};
use crate::partition::PartitionId;

/// A digest as the catalog writes it, and back.
fn pair(d: &ContentDigest) -> (u64, u64) {
    (d.0, d.1)
}
fn digest_of(pair: (u64, u64)) -> ContentDigest {
    ContentDigest(pair.0, pair.1)
}

/// What the store knows about one digest, from the put that placed its
/// bytes until compaction physically drops them. A record outlives its last
/// reference so that a dedup re-put of the same bytes can revive it.
#[derive(Clone, Debug)]
pub(crate) struct ChunkRecord {
    /// Partition holding the current physical copy.
    pub partition: PartitionId,
    /// Stored length: the frame's for a delta, else the serialized chunk's.
    pub len: u64,
    /// Live references: keys bound to this digest, plus one pin per *live*
    /// delta stored against it. Zero means dead — the bytes are charged to
    /// the partition's dead count until compaction drops them.
    refs: u32,
    /// The base this copy is stored as a delta frame against. A base is
    /// never itself a delta, so rehydration is always one hop.
    pub base: Option<ContentDigest>,
    /// Records, live or dead, stored as deltas against this one. While any
    /// exist this chunk must stay raw: reviving a dead dependent of a chunk
    /// that had meanwhile become a delta would form a chain.
    dependents: u32,
    /// The LSH item carrying this chunk's MinHash signature, if one was
    /// computed when it was placed.
    lsh_item: Option<u64>,
}

impl ChunkRecord {
    fn new(partition: PartitionId, len: u64) -> ChunkRecord {
        ChunkRecord {
            partition,
            len,
            refs: 0,
            base: None,
            dependents: 0,
            lsh_item: None,
        }
    }

    /// Do other records name this one as their delta base?
    pub fn is_base(&self) -> bool {
        self.dependents > 0
    }
}

/// Byte accounting of one partition.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PartRecord {
    /// Stored bytes of every copy in the partition, dead ones included.
    pub total: u64,
    /// Stored bytes of dead and displaced copies; drives the live-ratio
    /// test.
    pub dead: u64,
    /// Written to disk and closed: never placed into again.
    pub sealed: bool,
}

/// One partition as a compaction pass sees it: its accounting and the
/// digests of its live and of its dead records.
#[derive(Debug, Default)]
pub(crate) struct PartitionCensus {
    pub part: PartRecord,
    pub live: Vec<ContentDigest>,
    pub dead_chunks: Vec<ContentDigest>,
}

pub(crate) struct Ledger {
    keys: HashMap<ChunkKey, ContentDigest>,
    chunks: HashMap<ContentDigest, ChunkRecord>,
    parts: HashMap<PartitionId, PartRecord>,
    /// LSH over the signatures of recorded chunks: similarity placement
    /// and — whatever the placement policy — delta base selection.
    lsh: LshIndex,
    /// LSH item → the partition its chunk was *placed* in (a re-encode moves
    /// the chunk, not the item) and the chunk's digest. A record owns its
    /// item; both go together.
    lsh_items: HashMap<u64, (PartitionId, ContentDigest)>,
    next_lsh_item: u64,
    /// `store.delta.base_pins`, counted where pins are taken.
    pub pins: Counter,
}

impl Ledger {
    pub fn new(lsh: LshIndex, pins: Counter) -> Ledger {
        Ledger {
            keys: HashMap::new(),
            chunks: HashMap::new(),
            parts: HashMap::new(),
            lsh,
            lsh_items: HashMap::new(),
            next_lsh_item: 0,
            pins,
        }
    }

    pub fn chunk(&self, digest: ContentDigest) -> Option<&ChunkRecord> {
        self.chunks.get(&digest)
    }

    /// The digest a key is bound to, and that digest's record.
    pub fn resolve(&self, key: &ChunkKey) -> Option<(ContentDigest, &ChunkRecord)> {
        let digest = *self.keys.get(key)?;
        Some((digest, self.chunks.get(&digest)?))
    }

    pub fn mark_sealed(&mut self, pid: PartitionId) {
        self.parts.entry(pid).or_default().sealed = true;
    }

    /// Partitions at least one record points into.
    pub fn chunk_partitions(&self) -> HashSet<PartitionId> {
        self.chunks.values().map(|rec| rec.partition).collect()
    }

    /// Stored bytes of dead and displaced copies across all partitions.
    pub fn dead_bytes(&self) -> u64 {
        self.parts.values().map(|p| p.dead).sum()
    }

    /// The one similarity entrance: of the recorded chunks whose signature
    /// is similar to `sig` (estimated Jaccard >= `tau`), the most similar
    /// one `accept` takes (ties go to the older LSH item) — the partition
    /// it was placed in and its digest.
    pub fn most_similar(
        &self,
        sig: &Signature,
        tau: f64,
        mut accept: impl FnMut(PartitionId, ContentDigest) -> bool,
    ) -> Option<(PartitionId, ContentDigest)> {
        let placed = |item: u64| self.lsh_items.get(&item).copied();
        let accept = |item: u64| placed(item).is_some_and(|(pid, digest)| accept(pid, digest));
        let (item, _) = self.lsh.best_where(sig, tau, accept)?;
        placed(item)
    }

    /// Test oracle — the ranked walk [`Ledger::most_similar`] replaced:
    /// every similar recorded chunk, most similar first.
    #[cfg(test)]
    pub fn similar_ranked(&self, sig: &Signature, tau: f64) -> Vec<(PartitionId, ContentDigest)> {
        let ranked = self.lsh.query_ranked(sig, tau).into_iter();
        ranked
            .filter_map(|(item, _)| self.lsh_items.get(&item).copied())
            .collect()
    }

    /// The best delta base for a chunk with this signature: the most
    /// similar recorded chunk. A candidate that is itself a delta stands in
    /// for *its* base — chains are never created. `exclude` is the target's
    /// own digest (a re-encode must not pick itself).
    pub fn delta_base_for(
        &self,
        sig: &Signature,
        tau: f64,
        exclude: ContentDigest,
    ) -> Option<ContentDigest> {
        let resolve = |cand: ContentDigest| Some(self.chunks.get(&cand)?.base.unwrap_or(cand));
        let usable = |_, cand| resolve(cand).is_some_and(|base| base != exclude);
        let (_, cand) = self.most_similar(sig, tau, usable)?;
        resolve(cand)
    }

    /// One more reference to a digest on record. The 0→1 edge revives a
    /// dead chunk: its bytes leave the partition's dead count, and a delta
    /// re-pins its base so the base cannot be compacted away first.
    fn retain(&mut self, digest: ContentDigest) {
        let rec = self.chunks.get_mut(&digest).expect("digest on record");
        rec.refs += 1;
        if rec.refs == 1 {
            let (pid, len, base) = (rec.partition, rec.len, rec.base);
            self.parts.get_mut(&pid).expect("record's partition").dead -= len;
            if let Some(base) = base {
                self.pin(base);
            }
        }
    }

    /// Pin a delta base with one extra reference (reviving it if its own
    /// keys are already gone).
    fn pin(&mut self, base: ContentDigest) {
        self.retain(base);
        self.pins.inc();
    }

    /// Drop one reference; `true` when it was the last. A chunk that dies
    /// has its bytes charged dead where they lie (they stay in the file
    /// until compaction rewrites it) and, if it is a delta, releases the
    /// pin it held on its base.
    fn release(&mut self, digest: ContentDigest) -> bool {
        let rec = self.chunks.get_mut(&digest).expect("digest on record");
        rec.refs -= 1;
        if rec.refs > 0 {
            return false;
        }
        let (pid, len, base) = (rec.partition, rec.len, rec.base);
        self.parts.get_mut(&pid).expect("record's partition").dead += len;
        if let Some(base) = base {
            self.release(base);
        }
        true
    }

    /// Bind `key` to a digest on record, releasing whatever the key was
    /// bound to before. The new reference is taken first so that re-binding
    /// a key to its own digest never passes through zero.
    pub fn bind(&mut self, key: ChunkKey, digest: ContentDigest) {
        self.retain(digest);
        if let Some(old) = self.keys.insert(key, digest) {
            self.release(old);
        }
    }

    /// Unbind every key of one intermediate. Chunks shared with other
    /// intermediates through dedup stay live.
    pub fn retract(&mut self, intermediate: &str) -> RetractOutcome {
        let of_intermediate = self.keys.keys().filter(|k| k.intermediate == intermediate);
        let keys: Vec<ChunkKey> = of_intermediate.cloned().collect();
        let mut out = RetractOutcome::default();
        for key in keys {
            let digest = self.keys.remove(&key).expect("key collected above");
            out.keys_removed += 1;
            if self.release(digest) {
                out.bytes_released += self.chunks[&digest].len;
            }
        }
        out
    }

    /// Record a new physical copy of `digest`: `len` stored bytes just
    /// placed in `partition`, a delta frame against `base` if given. A
    /// brand-new record starts dead and comes alive when a key is bound to
    /// it. A copy already on record is *displaced*: its bytes are charged
    /// dead where they lie, its base edge goes, and its references carry
    /// over to the new copy. `sig`, the signature the placement computed (if
    /// any), is indexed under a fresh LSH item that replaces the record's.
    pub fn record_copy(
        &mut self,
        digest: ContentDigest,
        partition: PartitionId,
        len: u64,
        base: Option<ContentDigest>,
        sig: Option<Signature>,
    ) {
        let (live, old_base) = match self.chunks.get(&digest) {
            // A dead copy is already charged where it lies.
            Some(old) if old.refs > 0 => {
                self.parts
                    .get_mut(&old.partition)
                    .expect("record's partition")
                    .dead += old.len;
                (true, old.base)
            }
            Some(old) => (false, old.base),
            None => (false, None),
        };
        if let Some(old_base) = old_base {
            self.chunks
                .get_mut(&old_base)
                .expect("base on record")
                .dependents -= 1;
            if live {
                self.release(old_base);
            }
        }
        if let Some(base) = base {
            let b = self.chunks.get_mut(&base).expect("base on record");
            debug_assert!(b.base.is_none(), "a delta base is never itself a delta");
            b.dependents += 1;
            if live {
                self.pin(base);
            }
        }
        let part = self.parts.entry(partition).or_default();
        part.total += len;
        if !live {
            part.dead += len;
        }
        let record = || ChunkRecord::new(partition, len);
        let rec = self.chunks.entry(digest).or_insert_with(record);
        (rec.partition, rec.len, rec.base) = (partition, len, base);
        if let Some(sig) = sig {
            let item = self.next_lsh_item;
            self.next_lsh_item += 1;
            self.lsh.insert(item, sig);
            self.lsh_items.insert(item, (partition, digest));
            let displaced = rec.lsh_item.replace(item);
            self.forget_lsh_item(displaced);
        }
    }

    fn forget_lsh_item(&mut self, item: Option<u64>) {
        if let Some(item) = item {
            self.lsh.remove(item);
            self.lsh_items.remove(&item);
        }
    }

    /// Every partition's accounting with its records split live / dead, in
    /// id order: one pass over the ledger per compaction.
    pub fn census(&self) -> BTreeMap<PartitionId, PartitionCensus> {
        let mut out: BTreeMap<PartitionId, PartitionCensus> = BTreeMap::new();
        for (&pid, &part) in &self.parts {
            out.entry(pid).or_default().part = part;
        }
        for (&digest, rec) in &self.chunks {
            let part = out.get_mut(&rec.partition).expect("record's partition");
            if rec.refs > 0 {
                part.live.push(digest);
            } else {
                part.dead_chunks.push(digest);
            }
        }
        out
    }

    /// Forget what a compaction pass just dropped from partition `pid`: its
    /// dead records (`dead_chunks`, from this pass's census) with their LSH
    /// items, and every dead byte it carried. A partition left with nothing
    /// is forgotten too.
    ///
    /// A dropped chunk may still be named as base by *dead* deltas in other
    /// partitions (a live one would have pinned it). Those records are
    /// forgotten with it — their bytes stay charged dead where they lie —
    /// because a dedup re-put must not revive a frame whose base is gone.
    pub fn drop_dead(&mut self, pid: PartitionId, dead_chunks: &[ContentDigest]) {
        let mut dropped_bases: HashSet<ContentDigest> = HashSet::new();
        for &digest in dead_chunks {
            // Already forgotten earlier in this pass as another drop's orphan.
            let Some(rec) = self.chunks.remove(&digest) else {
                continue;
            };
            debug_assert!(rec.refs == 0 && rec.partition == pid);
            if let Some(base) = rec.base.and_then(|b| self.chunks.get_mut(&b)) {
                base.dependents -= 1;
            }
            if rec.is_base() {
                dropped_bases.insert(digest);
            }
            self.forget_lsh_item(rec.lsh_item);
        }
        if !dropped_bases.is_empty() {
            let is_orphan =
                |rec: &ChunkRecord| rec.base.is_some_and(|b| dropped_bases.contains(&b));
            let orphans: Vec<ContentDigest> = self
                .chunks
                .iter()
                .filter(|(_, rec)| is_orphan(rec))
                .map(|(&d, _)| d)
                .collect();
            for digest in orphans {
                let rec = self.chunks.remove(&digest).expect("collected above");
                self.forget_lsh_item(rec.lsh_item);
            }
        }
        let part = self.parts.get_mut(&pid).expect("census partition");
        part.total -= part.dead;
        part.dead = 0;
        if part.total == 0 {
            self.parts.remove(&pid);
        }
    }

    /// The ledger as a [`StoreCatalog`]. Only live records are written: dead
    /// bytes reappear after import as `total − live`.
    pub fn export(&self, next_partition: PartitionId, stats: StoreStats) -> StoreCatalog {
        let mut partition_totals: Vec<(PartitionId, u64)> =
            self.parts.iter().map(|(&pid, p)| (pid, p.total)).collect();
        partition_totals.sort_unstable();
        let live = self.chunks.iter().filter(|(_, rec)| rec.refs > 0);
        // A reader needs the base digest to rehydrate, and the importer
        // re-derives base pins from these records.
        let mut deltas: Vec<DeltaRecord> = live
            .clone()
            .filter_map(|(d, rec)| Some((pair(d), pair(rec.base.as_ref()?))))
            .map(|(digest, base)| DeltaRecord { digest, base })
            .collect();
        deltas.sort_unstable_by_key(|r| r.digest);
        // Digests live only through pins (a delta base whose own keys are
        // gone) are reachable from no entry; their location and length are
        // exported separately so reads resolve after reopen.
        let keyed: HashSet<ContentDigest> = self.keys.values().copied().collect();
        let mut extras: Vec<CatalogExtra> = live
            .filter(|(d, _)| !keyed.contains(d))
            .map(|(d, rec)| CatalogExtra {
                digest: pair(d),
                partition: rec.partition,
                len: rec.len,
            })
            .collect();
        extras.sort_unstable_by_key(|e| e.digest);
        // LSH state: without it a reopened store can neither cluster new
        // chunks with old ones (BySimilarity) nor find delta bases among
        // pre-restart chunks.
        let mut lsh_items: Vec<LshItemRecord> = self
            .lsh
            .iter()
            .filter_map(|(item, sig)| {
                let &(partition, digest) = self.lsh_items.get(&item)?;
                (self.chunks.get(&digest)?.refs > 0).then(|| LshItemRecord {
                    item,
                    partition,
                    digest: pair(&digest),
                    signature: sig.to_vec(),
                })
            })
            .collect();
        lsh_items.sort_unstable_by_key(|r| r.item);
        let entries = self.keys.iter().map(|(key, digest)| {
            let rec = &self.chunks[digest];
            CatalogEntry {
                key: key.clone(),
                digest: pair(digest),
                partition: rec.partition,
                len: rec.len,
            }
        });
        let mut entries: Vec<CatalogEntry> = entries.collect();
        fn order(e: &CatalogEntry) -> (&str, &str, u32) {
            (&e.key.intermediate, &e.key.column, e.key.block)
        }
        entries.sort_unstable_by(|a, b| order(a).cmp(&order(b)));
        StoreCatalog {
            entries,
            next_partition,
            stats,
            partition_totals,
            deltas,
            extras,
            lsh_items,
        }
    }

    /// A record for an imported digest (the first mention of a digest
    /// wins), in a partition that — like everything imported — is sealed:
    /// after a reopen it is on disk or gone, never open in memory.
    fn import_record(
        &mut self,
        digest: (u64, u64),
        partition: PartitionId,
        len: u64,
    ) -> &mut ChunkRecord {
        self.mark_sealed(partition);
        let record = || ChunkRecord::new(partition, len);
        self.chunks.entry(digest_of(digest)).or_insert_with(record)
    }

    /// Rebuild the ledger from a catalog. The catalog is outside input, so
    /// the invariants are re-established here rather than trusted.
    pub fn import(&mut self, catalog: StoreCatalog) {
        // References are counted from the entries.
        for entry in catalog.entries {
            let rec = self.import_record(entry.digest, entry.partition, entry.len);
            rec.refs += 1;
            // A key listed twice keeps its last binding.
            if let Some(old) = self.keys.insert(entry.key, digest_of(entry.digest)) {
                self.chunks.get_mut(&old).expect("bound above").refs -= 1;
            }
        }
        for extra in catalog.extras {
            self.import_record(extra.digest, extra.partition, extra.len);
        }
        // Pins are re-derived from the delta edges, one per live delta
        // however many keys it has. An edge whose ends are not both on
        // record, or whose base is itself a delta, is refused.
        let delta_digests: HashSet<(u64, u64)> = catalog.deltas.iter().map(|r| r.digest).collect();
        for edge in catalog.deltas {
            let (digest, base) = (digest_of(edge.digest), digest_of(edge.base));
            let live = match self.chunks.get(&digest) {
                Some(rec) if rec.base.is_none() => rec.refs > 0,
                _ => continue,
            };
            let b = match self.chunks.get_mut(&base) {
                Some(b) if !delta_digests.contains(&edge.base) => b,
                _ => continue,
            };
            b.dependents += 1;
            b.refs += u32::from(live);
            self.chunks.get_mut(&digest).expect("checked above").base = Some(base);
        }
        // A partition's dead bytes are its recorded total minus its live
        // chunk bytes, so compaction pressure survives a restart. A total
        // that undercounts the partition's chunks — or is absent, in
        // catalogs from before byte accounting — is raised to fit them,
        // which imports the partition as all-live (compaction skips it).
        for (pid, total) in catalog.partition_totals {
            self.mark_sealed(pid);
            self.parts.get_mut(&pid).expect("just marked").total = total;
        }
        let mut held: HashMap<PartitionId, (u64, u64)> = HashMap::new();
        for rec in self.chunks.values() {
            let (all, live) = held.entry(rec.partition).or_default();
            *all += rec.len;
            *live += if rec.refs > 0 { rec.len } else { 0 };
        }
        for (pid, part) in &mut self.parts {
            let (all, live) = held.get(pid).copied().unwrap_or_default();
            part.total = part.total.max(all);
            part.dead = part.total - live;
        }
        // An LSH item is kept only for a chunk on record that has none yet
        // (catalogs written before compaction deleted items carry stale
        // ones; every imported partition is sealed, so such an item could
        // influence neither placement nor base selection), and only if its
        // signature length matches the current MinHash configuration (the
        // knobs changed across the restart; the chunk simply stops being a
        // similarity candidate).
        for item in catalog.lsh_items {
            // Ids are handed out from zero, one per stored copy: one this
            // large was never written by a store, and honouring it would
            // walk `next_lsh_item` into overflow.
            if item.item >= 1 << 63 {
                continue;
            }
            self.next_lsh_item = self.next_lsh_item.max(item.item + 1);
            let digest = digest_of(item.digest);
            let Some(rec) = self.chunks.get_mut(&digest) else {
                continue;
            };
            // The first mention of an item id wins, like a digest's.
            if rec.lsh_item.is_none()
                && !self.lsh_items.contains_key(&item.item)
                && item.signature.len() == self.lsh.signature_len()
            {
                rec.lsh_item = Some(item.item);
                self.lsh.insert(item.item, Signature(item.signature));
                self.lsh_items.insert(item.item, (item.partition, digest));
            }
        }
    }

    /// Check invariants (i)–(v) of DESIGN.md "Chunk ledger"; the error
    /// names the first violation found. `is_open` says whether a partition
    /// is resident in the buffer pool, for (vi).
    pub fn check_invariants(&self, is_open: impl Fn(PartitionId) -> bool) -> Result<(), String> {
        let mut referrers: HashMap<ContentDigest, u32> = HashMap::new();
        let mut dependents: HashMap<ContentDigest, u32> = HashMap::new();
        let mut live_bytes: HashMap<PartitionId, u64> = HashMap::new();
        for (key, digest) in &self.keys {
            if !self.chunks.contains_key(digest) {
                return Err(format!(
                    "{key:?} is bound to {digest:?}, which has no record"
                ));
            }
            *referrers.entry(*digest).or_default() += 1;
        }
        for (digest, rec) in &self.chunks {
            if !self.parts.contains_key(&rec.partition) {
                let pid = rec.partition;
                return Err(format!("{digest:?} lies in unrecorded partition {pid}"));
            }
            if rec.refs > 0 {
                *live_bytes.entry(rec.partition).or_default() += rec.len;
            }
            if rec
                .lsh_item
                .is_some_and(|item| !self.lsh_items.contains_key(&item))
            {
                return Err(format!("{digest:?} owns an LSH item that is not indexed"));
            }
            let Some(base) = rec.base else { continue };
            match self.chunks.get(&base) {
                Some(b) if b.base.is_none() => {}
                Some(_) => return Err(format!("{digest:?}'s base {base:?} is itself a delta")),
                None => return Err(format!("{digest:?}'s base {base:?} has no record")),
            }
            *dependents.entry(base).or_default() += 1;
            *referrers.entry(base).or_default() += u32::from(rec.refs > 0);
        }
        for (digest, rec) in &self.chunks {
            let (refs, deps) = (rec.refs, rec.dependents);
            let want_refs = referrers.get(digest).copied().unwrap_or(0);
            if refs != want_refs {
                return Err(format!(
                    "{digest:?} has refs {refs}; its keys and live deltas number {want_refs}"
                ));
            }
            let want_deps = dependents.get(digest).copied().unwrap_or(0);
            if deps != want_deps {
                return Err(format!(
                    "{digest:?} counts {deps} dependents; {want_deps} records are deltas against it"
                ));
            }
        }
        for (pid, part) in &self.parts {
            let (total, dead) = (part.total, part.dead);
            let live = live_bytes.get(pid).copied().unwrap_or(0);
            if dead > total || total - dead != live {
                return Err(format!(
                    "partition {pid}: total {total} - dead {dead} != {live} live chunk bytes"
                ));
            }
            if part.sealed && is_open(*pid) {
                return Err(format!(
                    "partition {pid} is sealed and open in the buffer pool"
                ));
            }
        }
        for (item, (_, digest)) in &self.lsh_items {
            if self.chunks.get(digest).and_then(|rec| rec.lsh_item) != Some(*item) {
                return Err(format!(
                    "LSH item {item} names {digest:?}, which does not own it"
                ));
            }
        }
        if self.lsh.len() != self.lsh_items.len() {
            let (signatures, items) = (self.lsh.len(), self.lsh_items.len());
            return Err(format!("{signatures} LSH signatures for {items} items"));
        }
        Ok(())
    }
}
