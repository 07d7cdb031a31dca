//! The InMemoryStore: a byte-budgeted buffer pool of open Partitions with
//! LRU eviction (Fig 3; Alg. 4's `bufferpool.add` / eviction step).

use std::collections::HashMap;

use crate::lru::LruList;
use crate::partition::{Partition, PartitionId};

/// Buffer pool holding open partitions up to a byte budget; inserting past
/// the budget evicts least-recently-used partitions, which the caller must
/// then seal and persist.
#[derive(Debug)]
pub struct InMemoryStore {
    capacity_bytes: usize,
    used_bytes: usize,
    partitions: HashMap<PartitionId, Partition>,
    /// O(1) recency order: front = least recently used.
    lru: LruList<PartitionId>,
}

impl InMemoryStore {
    /// Create a pool with the given byte budget.
    pub fn new(capacity_bytes: usize) -> InMemoryStore {
        InMemoryStore {
            capacity_bytes,
            used_bytes: 0,
            partitions: HashMap::new(),
            lru: LruList::new(),
        }
    }

    /// Bytes currently buffered.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of resident partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True when no partitions are resident.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Whether a partition is resident.
    pub fn contains(&self, id: PartitionId) -> bool {
        self.partitions.contains_key(&id)
    }

    fn touch(&mut self, id: PartitionId) {
        self.lru.touch(id);
    }

    /// Get a resident partition, marking it most-recently-used.
    pub fn get(&mut self, id: PartitionId) -> Option<&Partition> {
        if self.partitions.contains_key(&id) {
            self.touch(id);
        }
        self.partitions.get(&id)
    }

    /// Mutably get a resident partition; the caller reports the byte delta
    /// afterwards via [`InMemoryStore::grow`].
    pub fn get_mut(&mut self, id: PartitionId) -> Option<&mut Partition> {
        if self.partitions.contains_key(&id) {
            self.touch(id);
        }
        self.partitions.get_mut(&id)
    }

    /// Record that a resident partition grew by `delta` bytes and evict LRU
    /// partitions if the budget is now exceeded. Returns the evicted
    /// partitions (never the one just grown).
    pub fn grow(&mut self, id: PartitionId, delta: usize) -> Vec<Partition> {
        self.used_bytes += delta;
        self.evict_over_budget(Some(id))
    }

    /// Insert a partition, evicting others if needed. Returns evicted
    /// partitions (never the one just inserted).
    pub fn insert(&mut self, partition: Partition) -> Vec<Partition> {
        let id = partition.id();
        self.used_bytes += partition.raw_bytes();
        self.partitions.insert(id, partition);
        self.touch(id);
        self.evict_over_budget(Some(id))
    }

    /// Remove a partition (e.g. after explicitly sealing it).
    pub fn remove(&mut self, id: PartitionId) -> Option<Partition> {
        let p = self.partitions.remove(&id)?;
        self.used_bytes -= p.raw_bytes();
        self.lru.remove(&id);
        Some(p)
    }

    /// Drain every resident partition (flush at shutdown), in ascending id
    /// order, so a flush seals them in the same order every run.
    pub fn drain(&mut self) -> Vec<Partition> {
        self.lru.clear();
        self.used_bytes = 0;
        let mut out: Vec<Partition> = self.partitions.drain().map(|(_, p)| p).collect();
        out.sort_unstable_by_key(|p| p.id());
        out
    }

    fn evict_over_budget(&mut self, keep: Option<PartitionId>) -> Vec<Partition> {
        let mut evicted = Vec::new();
        while self.used_bytes > self.capacity_bytes {
            // Find the least-recently-used partition that is not `keep`.
            let victim = self.lru.peek_lru_excluding(keep.as_ref()).copied();
            match victim {
                Some(id) => {
                    if let Some(p) = self.remove(id) {
                        evicted.push(p);
                    }
                }
                None => break, // only `keep` is resident; let it exceed budget
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_compress::compress_auto;
    use mistique_dedup::content_digest;

    /// A partition of one `n`-byte chunk: the pool charges its raw bytes,
    /// not its frame's.
    fn partition_with_bytes(id: PartitionId, n: usize) -> Partition {
        let mut p = Partition::new(id);
        let bytes = vec![id as u8; n];
        p.add(content_digest(&bytes), compress_auto(&bytes));
        p
    }

    #[test]
    fn insert_within_budget_no_eviction() {
        let mut pool = InMemoryStore::new(1000);
        assert!(pool.insert(partition_with_bytes(1, 400)).is_empty());
        assert!(pool.insert(partition_with_bytes(2, 400)).is_empty());
        assert_eq!(pool.used_bytes(), 800);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut pool = InMemoryStore::new(1000);
        pool.insert(partition_with_bytes(1, 400));
        pool.insert(partition_with_bytes(2, 400));
        // Touch 1 so 2 becomes LRU.
        assert!(pool.get(1).is_some());
        let evicted = pool.insert(partition_with_bytes(3, 400));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id(), 2);
        assert!(pool.contains(1));
        assert!(pool.contains(3));
    }

    #[test]
    fn oversized_single_partition_stays_resident() {
        let mut pool = InMemoryStore::new(100);
        let evicted = pool.insert(partition_with_bytes(1, 500));
        // Nothing else to evict; the newly inserted partition must not be
        // evicted by its own insertion.
        assert!(evicted.is_empty());
        assert!(pool.contains(1));
    }

    #[test]
    fn grow_triggers_eviction() {
        let mut pool = InMemoryStore::new(1000);
        pool.insert(partition_with_bytes(1, 400));
        pool.insert(partition_with_bytes(2, 400));
        // Grow partition 2 past the budget; 1 is LRU and gets evicted.
        let bytes = vec![9u8; 300];
        let digest = content_digest(&bytes);
        pool.get_mut(2).unwrap().add(digest, compress_auto(&bytes));
        let evicted = pool.grow(2, 300);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id(), 1);
    }

    #[test]
    fn remove_and_drain() {
        let mut pool = InMemoryStore::new(1000);
        pool.insert(partition_with_bytes(1, 100));
        pool.insert(partition_with_bytes(2, 100));
        let removed = pool.remove(1).unwrap();
        assert_eq!(removed.id(), 1);
        assert_eq!(pool.used_bytes(), 100);
        let drained = pool.drain();
        assert_eq!(drained.len(), 1);
        assert!(pool.is_empty());
        assert_eq!(pool.used_bytes(), 0);
    }

    #[test]
    fn drain_returns_partitions_in_ascending_id_order() {
        let mut pool = InMemoryStore::new(1 << 20);
        // 7 is coprime to 32: ids 0, 7, 14, ... visit all 32 out of order.
        for i in 0..32u64 {
            pool.insert(partition_with_bytes((i * 7) % 32, 10));
        }
        let ids: Vec<PartitionId> = pool.drain().iter().map(|p| p.id()).collect();
        assert_eq!(ids, (0..32).collect::<Vec<_>>());
    }
}
