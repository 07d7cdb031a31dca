//! Banded LSH index over MinHash signatures.
//!
//! Signatures are split into `b` bands of `r` rows; two items land in the
//! same bucket of a band iff their signature rows agree exactly there. The
//! probability a pair with Jaccard `s` collides in at least one band is
//! `1 - (1 - s^r)^b` — an S-curve with threshold near `(1/b)^(1/r)`.
//!
//! The DataStore queries the index with a new ColumnChunk's signature to find
//! the Partition holding its most similar prior chunk (Sec 4.2.1).
//!
//! Items live in dense *slots*, one per distinct signature: the ascending
//! ids that carry it, its lanes in one flat slot-major array, its entry in
//! each band's bucket, its entry in a whole-signature hash map, a free list.
//! Twins — items with equal signatures, which DNN activations make by the
//! hundred — cost an id each, not lanes and bucket entries.
//!
//! A probe whose exact signature is on record is answered from that slot:
//! it scores 1.0, which nothing else reaches. Otherwise a probe makes one
//! pass over its `b` buckets counting, per slot, the bands it collided in.
//! A slot that collided in `c` bands agrees with the probe in at most
//! `c·r + (b−c)·(r−1)` lanes (all rows of a colliding band, all but one of
//! any other), so most slots are rejected on the count alone and only the
//! few that can still reach the threshold have their lanes compared
//! (DESIGN.md §17 "Base selection"). The answers are exactly those of
//! scoring every colliding item.

use std::collections::HashMap;

use crate::hash::xxhash64;
use crate::minhash::Signature;

/// Bands of at most this many rows are hashed from a stack buffer.
const STACK_ROWS: usize = 16;

/// Lanes compared between two checks of the early-abandon budget.
const LANE_STRIDE: usize = 16;

/// A banded LSH index mapping signatures to caller-chosen item ids.
#[derive(Clone, Debug)]
pub struct LshIndex {
    bands: usize,
    rows: usize,
    slot_of: HashMap<u64, u32>,
    /// Slot → the ids carrying its signature, ascending; empty while the
    /// slot is on the free list.
    ids: Vec<Vec<u64>>,
    /// Slot-major signature lanes: slot `s` owns
    /// `[s * signature_len, (s + 1) * signature_len)`.
    lanes: Vec<u64>,
    /// One bucket map per band: band-hash -> slots, in no particular order.
    buckets: Vec<HashMap<u64, Vec<u32>>>,
    /// [`signature_hash`] -> the slots with that hash: one, but for a hash
    /// collision between different signatures.
    exact: HashMap<u64, Vec<u32>>,
    free: Vec<u32>,
}

/// xxhash64 of the band's rows as little-endian bytes, seeded by the band.
fn band_hash(rows: &[u64], band: usize) -> u64 {
    let mut stack = [0u8; 8 * STACK_ROWS];
    let mut heap = Vec::new();
    let bytes = match stack.get_mut(..8 * rows.len()) {
        Some(buf) => buf,
        None => {
            heap.resize(8 * rows.len(), 0);
            &mut heap[..]
        }
    };
    for (dst, v) in bytes.chunks_exact_mut(8).zip(rows) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    xxhash64(bytes, band as u64)
}

/// `(band, band-hash)` of every band of a signature with `rows` rows a band.
fn band_hashes(lanes: &[u64], rows: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let bands = lanes.chunks_exact(rows).enumerate();
    bands.map(|(band, rows)| (band, band_hash(rows, band)))
}

/// A hash of the whole signature, taken like a band's over all its rows.
/// Equal signatures hash equal; a collision is told apart by the lanes.
fn signature_hash(lanes: &[u64]) -> u64 {
    band_hash(lanes, lanes.len())
}

impl LshIndex {
    /// Create an index for signatures of length `bands * rows`.
    pub fn new(bands: usize, rows: usize) -> LshIndex {
        assert!(bands > 0 && rows > 0, "bands and rows must be positive");
        assert!(
            bands <= usize::from(u16::MAX),
            "band collisions are counted in 16 bits"
        );
        LshIndex {
            bands,
            rows,
            slot_of: HashMap::new(),
            ids: Vec::new(),
            lanes: Vec::new(),
            buckets: vec![HashMap::new(); bands],
            exact: HashMap::new(),
            free: Vec::new(),
        }
    }

    /// Signature length this index expects.
    pub fn signature_len(&self) -> usize {
        self.bands * self.rows
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// True when no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Where in `lanes` a slot's signature lies.
    fn span(&self, slot: u32) -> std::ops::Range<usize> {
        let len = self.signature_len();
        slot as usize * len..(slot as usize + 1) * len
    }

    fn lanes_of(&self, slot: u32) -> &[u64] {
        &self.lanes[self.span(slot)]
    }

    /// The live slot holding exactly `sig`, whose [`signature_hash`] is
    /// `hash`.
    fn slot_with(&self, sig: &[u64], hash: u64) -> Option<u32> {
        let slots = self.exact.get(&hash)?;
        slots
            .iter()
            .copied()
            .find(|&slot| self.lanes_of(slot) == sig)
    }

    /// Insert an item with its signature. An id already indexed is
    /// replaced: it leaves its old slot first. A signature already on
    /// record gains the id; a new one takes a slot and its bucket entries.
    ///
    /// # Panics
    /// Panics if the signature length does not match the index layout.
    pub fn insert(&mut self, id: u64, sig: Signature) {
        assert_eq!(
            sig.0.len(),
            self.signature_len(),
            "signature length mismatch"
        );
        self.remove(id);
        let hash = signature_hash(&sig.0);
        let slot = match self.slot_with(&sig.0, hash) {
            Some(slot) => slot,
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        let span = self.span(slot);
                        self.lanes[span].copy_from_slice(&sig.0);
                        slot
                    }
                    None => {
                        let slot = u32::try_from(self.ids.len()).expect("fewer than 2^32 slots");
                        self.ids.push(Vec::new());
                        self.lanes.extend_from_slice(&sig.0);
                        slot
                    }
                };
                for (band, h) in band_hashes(&sig.0, self.rows) {
                    self.buckets[band].entry(h).or_default().push(slot);
                }
                self.exact.entry(hash).or_default().push(slot);
                slot
            }
        };
        let ids = &mut self.ids[slot as usize];
        ids.insert(ids.partition_point(|&other| other < id), id);
        self.slot_of.insert(id, slot);
    }

    /// Remove an item. The last id to leave a slot frees it: its signature,
    /// its entry in each band bucket and in the signature map go with it.
    /// Returns whether the item was indexed.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(slot) = self.slot_of.remove(&id) else {
            return false;
        };
        let ids = &mut self.ids[slot as usize];
        ids.remove(ids.binary_search(&id).expect("id in its slot"));
        if !ids.is_empty() {
            return true;
        }
        let span = self.span(slot);
        for (band, h) in band_hashes(&self.lanes[span.clone()], self.rows) {
            let bucket = self.buckets[band].get_mut(&h).expect("slot's bucket");
            let at = bucket.iter().position(|&s| s == slot);
            bucket.swap_remove(at.expect("slot in its bucket"));
            if bucket.is_empty() {
                self.buckets[band].remove(&h);
            }
        }
        let hash = signature_hash(&self.lanes[span]);
        let same = self.exact.get_mut(&hash).expect("slot's signature hash");
        same.retain(|&s| s != slot);
        if same.is_empty() {
            self.exact.remove(&hash);
        }
        self.free.push(slot);
        true
    }

    /// The fewest agreeing lanes whose estimate `agree / len` reaches `tau`;
    /// `None` when not even full agreement does (`tau > 1`, or NaN).
    fn lanes_needed(&self, tau: f64) -> Option<usize> {
        let len = self.signature_len();
        (0..=len).find(|&agree| agree as f64 / len as f64 >= tau)
    }

    /// Lanes in which a colliding slot can agree with a probe at most, given
    /// the number of bands it collided in.
    fn lane_bound(&self, collisions: u16) -> usize {
        self.signature_len() - self.bands + usize::from(collisions)
    }

    /// `(bands collided in, slot)` for every slot sharing a band bucket with
    /// `sig` whose [`LshIndex::lane_bound`] reaches `need`, most collisions
    /// first.
    fn colliding(&self, sig: &[u64], need: usize) -> Vec<(u16, u32)> {
        let mut counts = vec![0u16; self.ids.len()];
        let mut touched: Vec<u32> = Vec::new();
        for (band, h) in band_hashes(sig, self.rows) {
            for &slot in self.buckets[band].get(&h).map_or(&[][..], Vec::as_slice) {
                let c = &mut counts[slot as usize];
                if *c == 0 {
                    touched.push(slot);
                }
                *c += 1;
            }
        }
        // Counting sort by descending collision count: class `k` holds the
        // slots that collided in `bands - k` bands. Stable, so a class keeps
        // bucket order — mostly slot creation order, hence ascending ids,
        // which lets `best_where` settle a run of equal scores on its first
        // slot.
        let class_of = |slot: u32| self.bands - usize::from(counts[slot as usize]);
        touched.retain(|&slot| self.lane_bound(counts[slot as usize]) >= need);
        let mut starts = vec![0usize; self.bands + 1];
        for &slot in &touched {
            starts[class_of(slot) + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let mut out = vec![(0u16, 0u32); touched.len()];
        for &slot in &touched {
            let at = &mut starts[class_of(slot)];
            out[*at] = (counts[slot as usize], slot);
            *at += 1;
        }
        out
    }

    /// Lanes in which a slot's signature agrees with `sig`, or `None` as
    /// soon as more than `len - floor` disagree.
    fn agreement(&self, slot: u32, sig: &[u64], floor: usize) -> Option<usize> {
        let budget = sig.len() - floor;
        let mut misses = 0;
        let strides = self.lanes_of(slot).chunks(LANE_STRIDE);
        for (stored, probe) in strides.zip(sig.chunks(LANE_STRIDE)) {
            misses += stored.iter().zip(probe).filter(|(a, b)| a != b).count();
            if misses > budget {
                return None;
            }
        }
        Some(sig.len() - misses)
    }

    /// Every item sharing a band bucket with `sig` whose estimated Jaccard
    /// is >= `tau`, most similar first (ties broken by ascending id, so the
    /// ranking is deterministic). A caller that wants only the first entry
    /// some predicate takes uses [`LshIndex::best_where`].
    pub fn query_ranked(&self, sig: &Signature, tau: f64) -> Vec<(u64, f64)> {
        let len = self.signature_len();
        assert_eq!(sig.0.len(), len, "signature length mismatch");
        let Some(need) = self.lanes_needed(tau) else {
            return Vec::new();
        };
        let mut out: Vec<(usize, u64)> = self
            .colliding(&sig.0, need)
            .into_iter()
            .filter_map(|(_, slot)| Some((self.agreement(slot, &sig.0, need)?, slot)))
            .flat_map(|(agree, slot)| self.ids[slot as usize].iter().map(move |&id| (agree, id)))
            .collect();
        out.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let estimate = |(agree, id): (usize, u64)| (id, agree as f64 / len as f64);
        out.into_iter().map(estimate).collect()
    }

    /// The first entry of [`LshIndex::query_ranked`] whose id `accept`
    /// takes, without ranking the rest. A slot holding the probe's exact
    /// signature answers alone when `accept` takes one of its ids: it
    /// scores 1.0, and its smallest taken id wins the tie. Otherwise slots
    /// are visited by descending collision count, one whose
    /// [`LshIndex::lane_bound`] cannot displace the best accepted so far is
    /// passed over unscored, and the walk stops once the bound falls below
    /// that best score. `accept` must answer the same for the same id; it
    /// is asked only about ids that would become the new best, a slot's in
    /// ascending order.
    pub fn best_where(
        &self,
        sig: &Signature,
        tau: f64,
        mut accept: impl FnMut(u64) -> bool,
    ) -> Option<(u64, f64)> {
        let len = self.signature_len();
        assert_eq!(sig.0.len(), len, "signature length mismatch");
        let need = self.lanes_needed(tau)?;
        let twin = self.slot_with(&sig.0, signature_hash(&sig.0));
        if let Some(slot) = twin {
            if let Some(&id) = self.ids[slot as usize].iter().find(|&&id| accept(id)) {
                return Some((id, 1.0));
            }
        }
        let mut best: Option<(usize, u64)> = None;
        for (collisions, slot) in self.colliding(&sig.0, need) {
            // Every id of the twin slot was refused above.
            if Some(slot) == twin {
                continue;
            }
            let bound = self.lane_bound(collisions);
            // Not even a tie is in reach, here or further down.
            if best.is_some_and(|(agree, _)| bound < agree) {
                break;
            }
            // What an id must score to become the best: a tie goes to the
            // smaller id, so a slot's first id needs the least.
            let floor = |id: u64| match best {
                Some((agree, best_id)) => agree + usize::from(id > best_id),
                None => need,
            };
            let ids = &self.ids[slot as usize];
            if bound < floor(ids[0]) {
                continue;
            }
            let Some(agree) = self.agreement(slot, &sig.0, floor(ids[0])) else {
                continue;
            };
            let mut in_reach = ids.iter().take_while(|&&id| agree >= floor(id));
            if let Some(&id) = in_reach.find(|&&id| accept(id)) {
                best = Some((agree, id));
            }
        }
        best.map(|(agree, id)| (id, agree as f64 / len as f64))
    }

    /// Every indexed item with its stored signature rows — what the
    /// DataStore persists in its catalog so similarity clustering survives
    /// a reopen. Unordered; callers sort by id for determinism.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u64])> + '_ {
        self.slot_of
            .iter()
            .map(|(&id, &slot)| (id, self.lanes_of(slot)))
    }

    /// Panics unless the slots are consistent: the free list holds exactly
    /// the slots with no ids, no two live slots hold equal lanes, every
    /// live slot's ids ascend and map back to it, and it owns one entry in
    /// each of its band buckets and in the signature map — a free slot none.
    #[cfg(test)]
    fn check_structure(&self) {
        let slots = 0..self.ids.len() as u32;
        let (live, empty): (Vec<u32>, Vec<u32>) =
            slots.partition(|&slot| !self.ids[slot as usize].is_empty());
        let mut free = self.free.clone();
        free.sort_unstable();
        assert_eq!(free, empty, "free list");
        let mut signatures = std::collections::HashSet::new();
        for &slot in &live {
            let ids = &self.ids[slot as usize];
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "slot {slot}: {ids:?}");
            for id in ids {
                assert_eq!(self.slot_of.get(id), Some(&slot), "id {id}");
            }
            assert!(signatures.insert(self.lanes_of(slot)), "slot {slot} twice");
            for (band, h) in band_hashes(self.lanes_of(slot), self.rows) {
                let bucket = &self.buckets[band][&h];
                assert_eq!(bucket.iter().filter(|&&s| s == slot).count(), 1);
            }
            let same = &self.exact[&signature_hash(self.lanes_of(slot))];
            assert_eq!(same.iter().filter(|&&s| s == slot).count(), 1);
        }
        let ids: usize = self.ids.iter().map(Vec::len).sum();
        assert_eq!(ids, self.slot_of.len(), "ids in slots");
        let entries = |lists: &HashMap<u64, Vec<u32>>| {
            assert!(lists.values().all(|list| !list.is_empty()), "empty list");
            lists.values().map(Vec::len).sum::<usize>()
        };
        for band in &self.buckets {
            assert_eq!(entries(band), live.len(), "bucket entries");
        }
        assert_eq!(entries(&self.exact), live.len(), "signature map entries");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;
    use mistique_rng::Rng;

    fn sig_of(h: &MinHasher, elems: &[u64]) -> Signature {
        h.signature(elems)
    }

    /// The most similar item at or above `tau`, whatever it is.
    fn best(idx: &LshIndex, sig: &Signature, tau: f64) -> Option<(u64, f64)> {
        idx.best_where(sig, tau, |_| true)
    }

    #[test]
    fn identical_items_always_collide() {
        let h = MinHasher::new(32);
        let mut idx = LshIndex::new(8, 4);
        let set: Vec<u64> = (0..200).collect();
        idx.insert(1, sig_of(&h, &set));
        let (id, est) = best(&idx, &sig_of(&h, &set), 0.9).unwrap();
        assert_eq!(id, 1);
        assert_eq!(est, 1.0);
    }

    #[test]
    fn dissimilar_items_not_returned() {
        let h = MinHasher::new(32);
        let mut idx = LshIndex::new(8, 4);
        let a: Vec<u64> = (0..200).collect();
        let b: Vec<u64> = (5_000..5_200).collect();
        idx.insert(1, sig_of(&h, &a));
        assert!(best(&idx, &sig_of(&h, &b), 0.5).is_none());
    }

    #[test]
    fn similar_items_found_above_threshold() {
        let h = MinHasher::new(128);
        let mut idx = LshIndex::new(32, 4);
        // 90% overlap.
        let a: Vec<u64> = (0..1000).collect();
        let b: Vec<u64> = (100..1100).collect();
        idx.insert(7, sig_of(&h, &a));
        let hit = best(&idx, &sig_of(&h, &b), 0.6);
        assert!(hit.is_some(), "expected a hit for ~0.82 Jaccard");
        assert_eq!(hit.unwrap().0, 7);
    }

    #[test]
    fn best_match_wins_among_several() {
        let h = MinHasher::new(128);
        let mut idx = LshIndex::new(32, 4);
        let base: Vec<u64> = (0..1000).collect();
        let near: Vec<u64> = (10..1010).collect(); // ~0.98 overlap
        let far: Vec<u64> = (400..1400).collect(); // ~0.43 overlap
        idx.insert(1, sig_of(&h, &near));
        idx.insert(2, sig_of(&h, &far));
        let (id, _) = best(&idx, &sig_of(&h, &base), 0.2).unwrap();
        assert_eq!(id, 1);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let h = MinHasher::new(32);
        let idx = LshIndex::new(8, 4);
        assert!(idx.is_empty());
        assert!(best(&idx, &sig_of(&h, &[1, 2, 3]), 0.0).is_none());
        assert!(idx.query_ranked(&sig_of(&h, &[1, 2, 3]), 0.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_signature_length_panics() {
        let mut idx = LshIndex::new(8, 4);
        idx.insert(1, Signature(vec![0; 16]));
    }

    #[test]
    fn ranked_query_orders_by_similarity() {
        let h = MinHasher::new(128);
        let mut idx = LshIndex::new(32, 4);
        let base: Vec<u64> = (0..1000).collect();
        let near: Vec<u64> = (10..1010).collect();
        let mid: Vec<u64> = (150..1150).collect();
        idx.insert(1, sig_of(&h, &near));
        idx.insert(2, sig_of(&h, &mid));
        let ranked = idx.query_ranked(&sig_of(&h, &base), 0.2);
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].0, 1, "closest item first");
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1, "descending similarity");
        }
        let items: Vec<u64> = idx.iter().map(|(id, _)| id).collect();
        assert_eq!(items.len(), 2);
        for (_, sig) in idx.iter() {
            assert_eq!(sig.len(), idx.signature_len());
        }
    }

    #[test]
    fn removed_item_leaves_no_signature_and_no_bucket_entry() {
        let h = MinHasher::new(32);
        let mut idx = LshIndex::new(8, 4);
        let set: Vec<u64> = (0..100).collect();
        let sig = sig_of(&h, &set);
        idx.insert(1, sig.clone());
        idx.insert(2, sig.clone());
        assert!(idx.remove(1));
        assert!(!idx.remove(1), "already gone");
        assert_eq!(idx.query_ranked(&sig, 0.5), vec![(2, 1.0)]);
        assert!(idx.remove(2));
        assert!(idx.is_empty());
        assert!(idx.buckets.iter().all(|band| band.is_empty()));
        // The same signature can be indexed again under a fresh id, in a
        // slot taken off the free list.
        idx.insert(3, sig.clone());
        assert_eq!(idx.query_ranked(&sig, 0.0), vec![(3, 1.0)]);
        assert_eq!(idx.ids.len(), 1, "twins share a slot, reused once free");
    }

    #[test]
    fn candidate_list_is_deduplicated() {
        let h = MinHasher::new(32);
        let mut idx = LshIndex::new(8, 4);
        let set: Vec<u64> = (0..100).collect();
        idx.insert(9, sig_of(&h, &set));
        // Identical signature collides in all 8 bands but appears once.
        assert_eq!(idx.colliding(&sig_of(&h, &set).0, 0), vec![(8, 0)]);
        assert_eq!(idx.query_ranked(&sig_of(&h, &set), 0.0), vec![(9, 1.0)]);
    }

    #[test]
    fn reinserting_an_id_replaces_its_signature_and_bucket_entries() {
        let h = MinHasher::new(32);
        let mut idx = LshIndex::new(8, 4);
        let a = sig_of(&h, &(0..100).collect::<Vec<u64>>());
        let b = sig_of(&h, &(5_000..5_100).collect::<Vec<u64>>());
        idx.insert(1, a.clone());
        idx.insert(1, b.clone());
        assert_eq!(idx.len(), 1);
        assert!(idx.query_ranked(&a, 0.0).is_empty(), "old entries are gone");
        assert_eq!(idx.query_ranked(&b, 0.0), vec![(1, 1.0)]);
        assert!(idx.remove(1));
        // At the parent commit the stale entries under `a` outlived the
        // removal and this probe panicked on the missing signature.
        assert!(idx.query_ranked(&a, 0.0).is_empty());
        assert!(idx.buckets.iter().all(|band| band.is_empty()));
    }

    #[test]
    fn band_hash_is_xxhash64_of_the_rows_le_bytes() {
        // One band short enough for the stack buffer, one that is not.
        for n in [1, 4, STACK_ROWS, STACK_ROWS + 3] {
            let rows: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let bytes: Vec<u8> = rows.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(band_hash(&rows, 5), xxhash64(&bytes, 5), "{n} rows");
        }
    }

    /// The index this one replaced, minus its buckets: every live item that
    /// agrees with the probe on all rows of at least one band is scored on
    /// all lanes.
    struct Reference {
        rows: usize,
        items: Vec<(u64, Signature)>,
    }

    impl Reference {
        fn insert(&mut self, id: u64, sig: Signature) {
            self.remove(id);
            self.items.push((id, sig));
        }

        fn remove(&mut self, id: u64) -> bool {
            let before = self.items.len();
            self.items.retain(|(other, _)| *other != id);
            self.items.len() < before
        }

        fn query_ranked(&self, sig: &Signature, tau: f64) -> Vec<(u64, f64)> {
            let shares_a_band = |other: &Signature| {
                let bands = other.0.chunks(self.rows).zip(sig.0.chunks(self.rows));
                bands.into_iter().any(|(a, b)| a == b)
            };
            let mut out: Vec<(u64, f64)> = self
                .items
                .iter()
                .filter(|(_, other)| shares_a_band(other))
                .map(|(id, other)| (*id, other.jaccard_estimate(sig)))
                .filter(|&(_, est)| est >= tau)
                .collect();
            out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            out
        }
    }

    /// One of `bases`, half the time exactly and otherwise a few lanes away,
    /// as neighbouring DNN activations are: whole families share most of
    /// their bands, so buckets are long, scores tie and exact twins abound.
    fn mutated(rng: &mut Rng, bases: &[Signature]) -> Signature {
        let mut sig = bases[rng.range(0..bases.len())].clone();
        if rng.chance(0.5) {
            return sig;
        }
        // Few distinct replacement values, so mutants collide with each
        // other as well as with their base.
        for _ in 0..rng.range(0..=sig.0.len() / 2) {
            let lane = rng.range(0..sig.0.len());
            sig.0[lane] = rng.range(0..4u64);
        }
        sig
    }

    const LAYOUTS: [(usize, usize); 4] = [(32, 4), (8, 4), (16, 2), (4, 1)];
    const TAUS: [f64; 7] = [0.0, 0.3, 0.6, 0.8, 1.0, 1.5, f64::NAN];

    /// Both probes of `idx` equal the reference's ranked walk for `probe` at
    /// every tau, under accept predicates that refuse nothing, everything,
    /// and parts of the ranking (`pivot` splits the ids).
    fn assert_probes(idx: &LshIndex, reference: &Reference, probe: &Signature, pivot: u64) {
        for tau in TAUS {
            let want = reference.query_ranked(probe, tau);
            assert_eq!(idx.query_ranked(probe, tau), want, "tau {tau}");
            let accepts: [&dyn Fn(u64) -> bool; 5] = [
                &|_| true,
                &|_| false,
                &|id| id % 3 == 1,
                &|id| id > pivot,
                &|id| id != want.first().map_or(0, |w| w.0),
            ];
            for (i, accept) in accepts.iter().enumerate() {
                let mut asked = Vec::new();
                let got = idx.best_where(probe, tau, |id| {
                    asked.push(id);
                    accept(id)
                });
                let first = want.iter().copied().find(|&(id, _)| accept(id));
                assert_eq!(got, first, "tau {tau}, accept #{i}");
                // Each id asked about was about to become the best: the
                // accepted ones improve strictly.
                let taken = asked.iter().filter(|&&id| accept(id));
                let rank = |id| want.iter().position(|w| w.0 == id).unwrap();
                let ranks: Vec<usize> = taken.map(|&id| rank(id)).collect();
                assert!(ranks.windows(2).all(|w| w[1] < w[0]), "{ranks:?}");
            }
        }
    }

    #[test]
    fn probes_equal_the_reference_under_inserts_removes_and_slot_reuse() {
        mistique_testkit::cases(48, 0x15b, |g| {
            let (bands, rows) = LAYOUTS[g.rng.range(0..LAYOUTS.len())];
            let len = bands * rows;
            let bases: Vec<Signature> = (0..g.rng.range(1..=3))
                .map(|_| Signature((0..len).map(|_| g.rng.next_u64()).collect()))
                .collect();
            let mut idx = LshIndex::new(bands, rows);
            let mut reference = Reference {
                rows,
                items: Vec::new(),
            };
            // Ids from a small range: re-inserts of a live id (replace) and
            // of a removed one (slot reuse) both happen.
            let ids = 0..(8 + g.len(0..120)) as u64;
            for step in 0..g.len(1..400) {
                let id = g.rng.range(ids.clone());
                if g.rng.chance(0.05) && !reference.items.is_empty() {
                    // Every id carrying one stored signature leaves, one at
                    // a time and probed with that signature each time, down
                    // to none; then they come back in another order.
                    let at = g.rng.range(0..reference.items.len());
                    let sig = reference.items[at].1.clone();
                    let twins = reference.items.iter();
                    let mut twins: Vec<u64> = twins
                        .filter(|(_, other)| *other == sig)
                        .map(|(id, _)| *id)
                        .collect();
                    g.rng.shuffle(&mut twins);
                    for &twin in &twins {
                        assert!(idx.remove(twin) && reference.remove(twin));
                        idx.check_structure();
                        assert_probes(&idx, &reference, &sig, g.rng.range(ids.clone()));
                    }
                    g.rng.shuffle(&mut twins);
                    for &twin in &twins {
                        idx.insert(twin, sig.clone());
                        reference.insert(twin, sig.clone());
                        idx.check_structure();
                    }
                    assert_probes(&idx, &reference, &sig, g.rng.range(ids.clone()));
                } else if g.rng.chance(0.3) {
                    assert_eq!(idx.remove(id), reference.remove(id), "step {step}");
                } else {
                    let sig = mutated(&mut g.rng, &bases);
                    idx.insert(id, sig.clone());
                    reference.insert(id, sig);
                }
                idx.check_structure();
                assert_eq!(idx.len(), reference.items.len());
                if step % 8 != 0 {
                    continue;
                }
                // Some probes are exact copies of a stored signature.
                let probe = match reference.items.len() {
                    n if n > 0 && g.rng.chance(0.3) => reference.items[g.rng.range(0..n)].1.clone(),
                    _ => mutated(&mut g.rng, &bases),
                };
                assert_probes(&idx, &reference, &probe, g.rng.range(ids.clone()));
            }
            let mut live: Vec<u64> = idx.iter().map(|(id, _)| id).collect();
            live.sort_unstable();
            let mut want: Vec<u64> = reference.items.iter().map(|(id, _)| *id).collect();
            want.sort_unstable();
            assert_eq!(live, want);
            for (id, lanes) in idx.iter() {
                let (_, sig) = reference.items.iter().find(|(o, _)| *o == id).unwrap();
                assert_eq!(lanes, sig.0.as_slice());
            }
        });
    }

    #[test]
    fn best_where_stops_before_scoring_slots_that_cannot_win() {
        // 200 near-copies of one signature and ten exact copies: the probe
        // equals the exact ones, so once the oldest of them is accepted (32
        // collisions, 128 lanes) its twins can at most tie with a larger id
        // and nothing else can reach it — no other id is asked about.
        let mut rng = Rng::seed(9);
        let base = Signature((0..128).map(|_| rng.next_u64()).collect());
        let mut idx = LshIndex::new(32, 4);
        for id in 0..200 {
            let mut sig = base.clone();
            sig.0[rng.range(0..128usize)] ^= 1;
            idx.insert(id, sig);
        }
        for id in 200..210 {
            idx.insert(id, base.clone());
        }
        let mut asked = Vec::new();
        let got = idx.best_where(&base, 0.8, |id| {
            asked.push(id);
            true
        });
        assert_eq!(got, Some((200, 1.0)));
        assert_eq!(asked, [200]);
        // Refused twins are walked in turn; the near-copies only after.
        let got = idx.best_where(&base, 0.8, |id| !(200..205).contains(&id));
        assert_eq!(got, Some((205, 1.0)));
        let ranked = idx.query_ranked(&base, 0.8);
        assert_eq!(ranked.len(), 210);
        // All ten refused: the walk over the other slots never asks about
        // a twin again.
        let mut asked = Vec::new();
        let got = idx.best_where(&base, 0.8, |id| {
            asked.push(id);
            id < 200
        });
        assert_eq!(got, ranked.iter().copied().find(|&(id, _)| id < 200));
        assert_eq!(asked.iter().filter(|&&id| id >= 200).count(), 10);
    }
}
