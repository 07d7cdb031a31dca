//! Banded LSH index over MinHash signatures.
//!
//! Signatures are split into `b` bands of `r` rows; two items land in the
//! same bucket of a band iff their signature rows agree exactly there. The
//! probability a pair with Jaccard `s` collides in at least one band is
//! `1 - (1 - s^r)^b` — an S-curve with threshold near `(1/b)^(1/r)`.
//!
//! The DataStore queries the index with a new ColumnChunk's signature to find
//! the Partition holding its most similar prior chunk (Sec 4.2.1).

use std::collections::HashMap;

use crate::hash::xxhash64;
use crate::minhash::Signature;

/// A banded LSH index mapping signatures to caller-chosen item ids.
#[derive(Clone, Debug)]
pub struct LshIndex {
    bands: usize,
    rows: usize,
    /// One bucket map per band: band-hash -> item ids.
    buckets: Vec<HashMap<u64, Vec<u64>>>,
    /// Stored signatures for candidate verification.
    signatures: HashMap<u64, Signature>,
}

impl LshIndex {
    /// Create an index for signatures of length `bands * rows`.
    pub fn new(bands: usize, rows: usize) -> LshIndex {
        assert!(bands > 0 && rows > 0, "bands and rows must be positive");
        LshIndex {
            bands,
            rows,
            buckets: vec![HashMap::new(); bands],
            signatures: HashMap::new(),
        }
    }

    /// Signature length this index expects.
    pub fn signature_len(&self) -> usize {
        self.bands * self.rows
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True when no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    fn band_hash(&self, sig: &Signature, band: usize) -> u64 {
        let start = band * self.rows;
        let slice = &sig.0[start..start + self.rows];
        let mut bytes = Vec::with_capacity(self.rows * 8);
        for v in slice {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        xxhash64(&bytes, band as u64)
    }

    /// Insert an item with its signature.
    ///
    /// # Panics
    /// Panics if the signature length does not match the index layout.
    pub fn insert(&mut self, id: u64, sig: Signature) {
        assert_eq!(
            sig.0.len(),
            self.signature_len(),
            "signature length mismatch"
        );
        for band in 0..self.bands {
            let h = self.band_hash(&sig, band);
            self.buckets[band].entry(h).or_default().push(id);
        }
        self.signatures.insert(id, sig);
    }

    /// Remove an item: its signature and its entry in each band bucket.
    /// Returns whether the item was indexed.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(sig) = self.signatures.remove(&id) else {
            return false;
        };
        for band in 0..self.bands {
            let h = self.band_hash(&sig, band);
            if let Some(ids) = self.buckets[band].get_mut(&h) {
                ids.retain(|&other| other != id);
                if ids.is_empty() {
                    self.buckets[band].remove(&h);
                }
            }
        }
        true
    }

    /// Candidate ids sharing at least one band bucket with `sig`
    /// (deduplicated, unverified).
    pub fn candidates(&self, sig: &Signature) -> Vec<u64> {
        assert_eq!(
            sig.0.len(),
            self.signature_len(),
            "signature length mismatch"
        );
        let mut out: Vec<u64> = Vec::new();
        for band in 0..self.bands {
            if let Some(ids) = self.buckets[band].get(&self.band_hash(sig, band)) {
                out.extend_from_slice(ids);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The most similar indexed item with estimated Jaccard >= `tau`,
    /// verified against the stored signatures. Returns `(id, estimate)`.
    pub fn query_best(&self, sig: &Signature, tau: f64) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for id in self.candidates(sig) {
            let est = self.signatures[&id].jaccard_estimate(sig);
            if est >= tau && best.is_none_or(|(_, b)| est > b) {
                best = Some((id, est));
            }
        }
        best
    }

    /// Every candidate with estimated Jaccard >= `tau`, most similar first
    /// (ties broken by ascending id, so the ranking is deterministic).
    /// Callers that must reject some matches — e.g. the DataStore skipping
    /// sealed partitions or delta bases whose chunks are gone — walk this
    /// list instead of settling for [`LshIndex::query_best`]'s single answer.
    pub fn query_ranked(&self, sig: &Signature, tau: f64) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self
            .candidates(sig)
            .into_iter()
            .map(|id| (id, self.signatures[&id].jaccard_estimate(sig)))
            .filter(|&(_, est)| est >= tau)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Every indexed item with its stored signature rows — what the
    /// DataStore persists in its catalog so similarity clustering survives
    /// a reopen. Unordered; callers sort by id for determinism.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u64])> + '_ {
        self.signatures
            .iter()
            .map(|(&id, sig)| (id, sig.0.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;

    fn sig_of(h: &MinHasher, elems: &[u64]) -> Signature {
        h.signature(elems)
    }

    #[test]
    fn identical_items_always_collide() {
        let h = MinHasher::new(32);
        let mut idx = LshIndex::new(8, 4);
        let set: Vec<u64> = (0..200).collect();
        idx.insert(1, sig_of(&h, &set));
        let (id, est) = idx.query_best(&sig_of(&h, &set), 0.9).unwrap();
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
        assert!(idx.query_best(&sig_of(&h, &b), 0.5).is_none());
    }

    #[test]
    fn similar_items_found_above_threshold() {
        let h = MinHasher::new(128);
        let mut idx = LshIndex::new(32, 4);
        // 90% overlap.
        let a: Vec<u64> = (0..1000).collect();
        let b: Vec<u64> = (100..1100).collect();
        idx.insert(7, sig_of(&h, &a));
        let hit = idx.query_best(&sig_of(&h, &b), 0.6);
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
        let (id, _) = idx.query_best(&sig_of(&h, &base), 0.2).unwrap();
        assert_eq!(id, 1);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let h = MinHasher::new(32);
        let idx = LshIndex::new(8, 4);
        assert!(idx.is_empty());
        assert!(idx.query_best(&sig_of(&h, &[1, 2, 3]), 0.0).is_none());
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
        assert_eq!(idx.candidates(&sig), vec![2]);
        assert_eq!(idx.query_ranked(&sig, 0.5), vec![(2, 1.0)]);
        assert!(idx.remove(2));
        assert!(idx.is_empty());
        assert!(idx.buckets.iter().all(|band| band.is_empty()));
        // The same signature can be indexed again under a fresh id.
        idx.insert(3, sig.clone());
        assert_eq!(idx.candidates(&sig), vec![3]);
    }

    #[test]
    fn candidate_list_is_deduplicated() {
        let h = MinHasher::new(32);
        let mut idx = LshIndex::new(8, 4);
        let set: Vec<u64> = (0..100).collect();
        idx.insert(9, sig_of(&h, &set));
        // Identical signature collides in all 8 bands but appears once.
        let cands = idx.candidates(&sig_of(&h, &set));
        assert_eq!(cands, vec![9]);
    }
}
