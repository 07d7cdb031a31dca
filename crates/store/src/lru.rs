//! O(1) LRU primitives shared by the store's caches.
//!
//! [`LruList`] is a recency order over keys — a doubly-linked list threaded
//! through a slab, indexed by a `HashMap` — so `touch` / `remove` /
//! `pop_lru` are all O(1) amortized. It replaces the `Vec::position` +
//! `Vec::remove` scans the buffer pool and query cache used to do on every
//! access. [`LruCache`] combines the list with a value map and a byte
//! budget, evicting exactly one least-recently-used victim at a time —
//! never a clear-all.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// O(1) recency order over keys: front = least recently used, back = most
/// recently used.
#[derive(Debug)]
pub struct LruList<K> {
    map: HashMap<K, usize>,
    nodes: Vec<Option<Node<K>>>,
    free: Vec<usize>,
    /// LRU end.
    head: usize,
    /// MRU end.
    tail: usize,
}

impl<K: Hash + Eq + Clone> Default for LruList<K> {
    fn default() -> Self {
        LruList::new()
    }
}

impl<K: Hash + Eq + Clone> LruList<K> {
    /// Create an empty list.
    pub fn new() -> LruList<K> {
        LruList {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether a key is tracked.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.nodes[idx].as_ref().expect("linked node");
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].as_mut().expect("prev node").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].as_mut().expect("next node").prev = prev,
        }
    }

    fn push_back(&mut self, idx: usize) {
        {
            let n = self.nodes[idx].as_mut().expect("node to link");
            n.prev = self.tail;
            n.next = NIL;
        }
        match self.tail {
            NIL => self.head = idx,
            t => self.nodes[t].as_mut().expect("tail node").next = idx,
        }
        self.tail = idx;
    }

    /// Mark a key most-recently-used, inserting it if absent.
    pub fn touch(&mut self, key: K) {
        if let Some(&idx) = self.map.get(&key) {
            if idx == self.tail {
                return; // already MRU
            }
            self.unlink(idx);
            self.push_back(idx);
            return;
        }
        let node = Node {
            key: key.clone(),
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Some(node);
                i
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_back(idx);
    }

    /// Stop tracking a key. Returns whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.map.remove(key) {
            Some(idx) => {
                self.unlink(idx);
                self.nodes[idx] = None;
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Remove and return the least-recently-used key.
    pub fn pop_lru(&mut self) -> Option<K> {
        if self.head == NIL {
            return None;
        }
        let idx = self.head;
        self.unlink(idx);
        let node = self.nodes[idx].take().expect("head node");
        self.free.push(idx);
        self.map.remove(&node.key);
        Some(node.key)
    }

    /// The least-recently-used key that is not `keep` (the buffer pool must
    /// never evict the partition it is currently growing).
    pub fn peek_lru_excluding(&self, keep: Option<&K>) -> Option<&K> {
        let mut idx = self.head;
        while idx != NIL {
            let node = self.nodes[idx].as_ref().expect("linked node");
            if Some(&node.key) != keep {
                return Some(&node.key);
            }
            idx = node.next;
        }
        None
    }

    /// Forget every key.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A byte-budgeted LRU cache. Inserting past the budget evicts one
/// least-recently-used victim at a time; an entry larger than the whole
/// budget is rejected rather than flushing everything else out.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, (V, usize)>,
    order: LruList<K>,
    capacity_bytes: usize,
    used_bytes: usize,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// Create a cache with a byte budget.
    pub fn new(capacity_bytes: usize) -> LruCache<K, V> {
        LruCache {
            map: HashMap::new(),
            order: LruList::new(),
            capacity_bytes,
            used_bytes: 0,
        }
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether a key is cached.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Get an entry, marking it most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.map.contains_key(key) {
            self.order.touch(key.clone());
        }
        self.map.get(key).map(|(v, _)| v)
    }

    /// Get an entry mutably, marking it most-recently-used. An entry that
    /// grows in place must be re-accounted with [`LruCache::recharge`].
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if self.map.contains_key(key) {
            self.order.touch(key.clone());
        }
        self.map.get_mut(key).map(|(v, _)| v)
    }

    /// Re-account an entry at `bytes` after it changed in place, then evict
    /// LRU victims other than it one at a time until the budget holds. An
    /// entry that alone outgrew the whole budget leaves instead, as one that
    /// large is refused by [`LruCache::insert`]. Returns the evicted entries.
    pub fn recharge(&mut self, key: &K, bytes: usize) -> Vec<(K, V)> {
        let Some((_, charged)) = self.map.get_mut(key) else {
            return Vec::new();
        };
        self.used_bytes = self.used_bytes - *charged + bytes;
        *charged = bytes;
        if bytes > self.capacity_bytes {
            return self
                .remove(key)
                .map(|v| (key.clone(), v))
                .into_iter()
                .collect();
        }
        let mut evicted = Vec::new();
        while self.used_bytes > self.capacity_bytes {
            let Some(victim) = self.order.peek_lru_excluding(Some(key)).cloned() else {
                break;
            };
            if let Some(v) = self.remove(&victim) {
                evicted.push((victim, v));
            }
        }
        evicted
    }

    /// Get an entry without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Insert an entry accounted at `bytes`, evicting LRU victims one at a
    /// time until it fits. Returns the evicted entries. Entries larger than
    /// the whole budget are not cached (and evict nothing).
    pub fn insert(&mut self, key: K, value: V, bytes: usize) -> Vec<(K, V)> {
        if bytes > self.capacity_bytes {
            // Would displace the entire cache for one entry; skip it.
            self.remove(&key);
            return Vec::new();
        }
        if let Some((_, old_bytes)) = self.map.remove(&key) {
            self.used_bytes -= old_bytes;
            self.order.remove(&key);
        }
        let mut evicted = Vec::new();
        while self.used_bytes + bytes > self.capacity_bytes {
            match self.order.pop_lru() {
                Some(victim) => {
                    if let Some((v, b)) = self.map.remove(&victim) {
                        self.used_bytes -= b;
                        evicted.push((victim, v));
                    }
                }
                None => break,
            }
        }
        self.used_bytes += bytes;
        self.map.insert(key.clone(), (value, bytes));
        self.order.touch(key);
        evicted
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (v, bytes) = self.map.remove(key)?;
        self.used_bytes -= bytes;
        self.order.remove(key);
        Some(v)
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_orders_by_recency() {
        let mut l = LruList::new();
        l.touch(1);
        l.touch(2);
        l.touch(3);
        l.touch(1); // 1 becomes MRU; order is now 2, 3, 1
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.pop_lru(), Some(3));
        assert_eq!(l.pop_lru(), Some(1));
        assert_eq!(l.pop_lru(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn list_remove_and_reuse_slots() {
        let mut l = LruList::new();
        for i in 0..10 {
            l.touch(i);
        }
        assert!(l.remove(&5));
        assert!(!l.remove(&5));
        assert_eq!(l.len(), 9);
        // Freed slot is reused without disturbing order.
        l.touch(99);
        assert_eq!(l.pop_lru(), Some(0));
        assert!(l.contains(&99));
    }

    #[test]
    fn list_peek_excluding_skips_keep() {
        let mut l = LruList::new();
        l.touch("a".to_string());
        l.touch("b".to_string());
        assert_eq!(
            l.peek_lru_excluding(Some(&"a".to_string())),
            Some(&"b".to_string())
        );
        assert_eq!(l.peek_lru_excluding(None), Some(&"a".to_string()));
        l.remove(&"b".to_string());
        assert_eq!(l.peek_lru_excluding(Some(&"a".to_string())), None);
    }

    #[test]
    fn cache_evicts_one_victim_at_a_time() {
        let mut c: LruCache<u32, Vec<u8>> = LruCache::new(1000);
        assert!(c.insert(1, vec![0; 400], 400).is_empty());
        assert!(c.insert(2, vec![0; 400], 400).is_empty());
        // Touch 1 so 2 is the LRU victim.
        assert!(c.get(&1).is_some());
        let evicted = c.insert(3, vec![0; 400], 400);
        assert_eq!(evicted.len(), 1, "exactly one victim");
        assert_eq!(evicted[0].0, 2);
        assert!(c.contains(&1) && c.contains(&3));
        assert_eq!(c.used_bytes(), 800);
    }

    #[test]
    fn cache_rejects_oversized_entries() {
        let mut c: LruCache<u32, ()> = LruCache::new(100);
        c.insert(1, (), 60);
        let evicted = c.insert(2, (), 500);
        assert!(evicted.is_empty());
        assert!(!c.contains(&2));
        assert!(c.contains(&1), "existing entries survive");
        assert_eq!(c.used_bytes(), 60);
    }

    #[test]
    fn cache_replacing_entry_adjusts_bytes() {
        let mut c: LruCache<u32, ()> = LruCache::new(100);
        c.insert(1, (), 80);
        c.insert(1, (), 30);
        assert_eq!(c.used_bytes(), 30);
        assert_eq!(c.len(), 1);
        assert!(c.remove(&1).is_some());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn cache_recharge_evicts_others_one_at_a_time() {
        let mut c: LruCache<u32, ()> = LruCache::new(100);
        for k in 0..4 {
            c.insert(k, (), 20);
        }
        // Entry 0 is the LRU one; growing it in place evicts the others
        // (1 first), never itself.
        assert!(c.get_mut(&0).is_some());
        let evicted = c.recharge(&0, 50);
        assert_eq!(evicted.iter().map(|e| e.0).collect::<Vec<_>>(), [1]);
        assert_eq!(c.used_bytes(), 90);
        let evicted = c.recharge(&0, 70);
        assert_eq!(evicted.iter().map(|e| e.0).collect::<Vec<_>>(), [2]);
        assert!(c.contains(&0) && c.contains(&3));
        assert_eq!(c.used_bytes(), 90);
        // Outgrowing the whole budget takes the entry out, nothing else.
        let evicted = c.recharge(&0, 101);
        assert_eq!(evicted.iter().map(|e| e.0).collect::<Vec<_>>(), [0]);
        assert_eq!((c.len(), c.used_bytes()), (1, 20));
        assert!(c.recharge(&7, 10).is_empty(), "absent key");
    }

    #[test]
    fn cache_clear_resets() {
        let mut c: LruCache<u32, ()> = LruCache::new(100);
        c.insert(1, (), 10);
        c.insert(2, (), 10);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert!(c.get(&1).is_none());
    }
}
