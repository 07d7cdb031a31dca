//! Model tests for the slab-backed LRU primitives.
//!
//! [`LruList`] and [`LruCache`] are checked against naive `VecDeque`
//! reference models under long randomized op sequences: contents, recency
//! order, `used_bytes`, and the exact evicted-entry lists must all agree.
//! The slab + free-list node reuse in `LruList` is precisely the kind of
//! code where a stale index corrupts order silently — the model catches it.
//!
//! Deterministic by construction (fixed `mistique_rng` seeds).

use std::collections::VecDeque;

use mistique_rng::Rng;
use mistique_store::{LruCache, LruList};

/// Reference recency order: front = LRU, back = MRU. Every op is O(n) —
/// obviously correct, nothing shared with the slab implementation.
#[derive(Default)]
struct ListModel {
    order: VecDeque<u32>,
}

impl ListModel {
    fn touch(&mut self, k: u32) {
        self.order.retain(|&x| x != k);
        self.order.push_back(k);
    }

    fn remove(&mut self, k: u32) -> bool {
        let before = self.order.len();
        self.order.retain(|&x| x != k);
        before != self.order.len()
    }

    fn pop_lru(&mut self) -> Option<u32> {
        self.order.pop_front()
    }

    fn peek_lru_excluding(&self, keep: Option<u32>) -> Option<u32> {
        self.order.iter().copied().find(|&k| Some(k) != keep)
    }

    fn contains(&self, k: u32) -> bool {
        self.order.contains(&k)
    }
}

#[test]
fn lru_list_matches_vecdeque_model() {
    for seed in [1u64, 42, 1234, 987_654_321] {
        let mut real: LruList<u32> = LruList::new();
        let mut model = ListModel::default();
        let mut rng = Rng::seed(seed);
        for step in 0..5000 {
            // A small key space forces constant re-touching, slab slot
            // reuse, and empty/singleton edge states.
            let key = rng.range(0..24u32);
            match rng.range(0..100) {
                0..=44 => {
                    real.touch(key);
                    model.touch(key);
                }
                45..=64 => {
                    assert_eq!(
                        real.remove(&key),
                        model.remove(key),
                        "seed {seed} step {step}: remove({key}) presence"
                    );
                }
                65..=84 => {
                    assert_eq!(
                        real.pop_lru(),
                        model.pop_lru(),
                        "seed {seed} step {step}: pop_lru order"
                    );
                }
                85..=97 => {
                    let keep = rng.chance(0.5).then_some(key);
                    assert_eq!(
                        real.peek_lru_excluding(keep.as_ref()).copied(),
                        model.peek_lru_excluding(keep),
                        "seed {seed} step {step}: peek_lru_excluding({keep:?})"
                    );
                }
                _ => {
                    real.clear();
                    model.order.clear();
                }
            }
            assert_eq!(real.len(), model.order.len(), "seed {seed} step {step}");
            assert_eq!(real.contains(&key), model.contains(key));
            assert_eq!(real.is_empty(), model.order.is_empty());
        }
        // Drain both: the full recency order must match element-for-element.
        while let Some(expected) = model.pop_lru() {
            assert_eq!(real.pop_lru(), Some(expected), "seed {seed}: drain order");
        }
        assert_eq!(real.pop_lru(), None);
        assert!(real.is_empty());
    }
}

/// Reference cache: front = LRU. Mirrors the documented `LruCache`
/// contract, including the oversized-entry and replace-existing rules.
struct CacheModel {
    order: VecDeque<(u32, u64, usize)>,
    capacity: usize,
}

impl CacheModel {
    fn used_bytes(&self) -> usize {
        self.order.iter().map(|e| e.2).sum()
    }

    fn insert(&mut self, k: u32, v: u64, bytes: usize) -> Vec<(u32, u64)> {
        // Oversized entries are rejected — and still displace any stale
        // value cached under the same key.
        self.remove(k);
        if bytes > self.capacity {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used_bytes() + bytes > self.capacity {
            match self.order.pop_front() {
                Some((vk, vv, _)) => evicted.push((vk, vv)),
                None => break,
            }
        }
        self.order.push_back((k, v, bytes));
        evicted
    }

    fn get(&mut self, k: u32) -> Option<u64> {
        let pos = self.order.iter().position(|e| e.0 == k)?;
        let entry = self.order.remove(pos).expect("position just found");
        self.order.push_back(entry);
        Some(entry.1)
    }

    fn peek(&self, k: u32) -> Option<u64> {
        self.order.iter().find(|e| e.0 == k).map(|e| e.1)
    }

    fn remove(&mut self, k: u32) -> Option<u64> {
        let pos = self.order.iter().position(|e| e.0 == k)?;
        self.order.remove(pos).map(|e| e.1)
    }
}

#[test]
fn lru_cache_matches_vecdeque_model() {
    const CAP: usize = 256;
    for seed in [7u64, 99, 4242, 31337] {
        let mut real: LruCache<u32, u64> = LruCache::new(CAP);
        let mut model = CacheModel {
            order: VecDeque::new(),
            capacity: CAP,
        };
        let mut rng = Rng::seed(seed);
        for step in 0..4000 {
            let key = rng.range(0..16u32);
            match rng.range(0..100) {
                0..=49 => {
                    // Mostly fitting sizes (including zero), occasionally an
                    // oversized entry that must be rejected.
                    let bytes = if rng.chance(1.0 / 12.0) {
                        CAP + 1 + rng.range(0..64usize)
                    } else {
                        rng.range(0..=CAP / 3)
                    };
                    let value = rng.next_u64();
                    assert_eq!(
                        real.insert(key, value, bytes),
                        model.insert(key, value, bytes),
                        "seed {seed} step {step}: evicted list for insert({key}, {bytes}B)"
                    );
                }
                50..=69 => {
                    assert_eq!(
                        real.get(&key).copied(),
                        model.get(key),
                        "seed {seed} step {step}: get({key})"
                    );
                }
                70..=84 => {
                    assert_eq!(
                        real.peek(&key).copied(),
                        model.peek(key),
                        "seed {seed} step {step}: peek({key})"
                    );
                }
                85..=97 => {
                    assert_eq!(
                        real.remove(&key),
                        model.remove(key),
                        "seed {seed} step {step}: remove({key})"
                    );
                }
                _ => {
                    real.clear();
                    model.order.clear();
                }
            }
            assert_eq!(real.len(), model.order.len(), "seed {seed} step {step}");
            assert_eq!(
                real.used_bytes(),
                model.used_bytes(),
                "seed {seed} step {step}: used_bytes"
            );
            assert!(
                real.used_bytes() <= real.capacity_bytes(),
                "seed {seed} step {step}: budget exceeded"
            );
            assert_eq!(real.is_empty(), model.order.is_empty());
        }
        // A full-budget insert flushes every other entry one victim at a
        // time — the evicted list is the complete recency order, LRU first.
        assert_eq!(
            real.insert(999, 0, CAP),
            model.insert(999, 0, CAP),
            "seed {seed}: final flush order"
        );
        assert_eq!(real.len(), 1);
        assert_eq!(real.used_bytes(), CAP);
    }
}

/// Overwrite-heavy accounting: re-inserting a key must charge the new size
/// and refund the old one exactly — `used_bytes` is always the sum of the
/// *current* entry sizes, never a running total of historical inserts.
#[test]
fn overwrites_replace_accounting_exactly() {
    const CAP: usize = 1 << 16;
    let mut real: LruCache<u32, u64> = LruCache::new(CAP);
    let mut rng = Rng::seed(555);
    let mut sizes = [0usize; 8];
    let mut present = [false; 8];

    // Phase 1: churn 8 keys through growing and shrinking sizes without
    // ever approaching capacity, so no eviction can mask a leak.
    for step in 0..2000 {
        let key = rng.range(0..8u32);
        let bytes = rng.range(0..1000usize);
        let evicted = real.insert(key, rng.next_u64(), bytes);
        assert!(evicted.is_empty(), "step {step}: spurious eviction");
        sizes[key as usize] = bytes;
        present[key as usize] = true;
        let expected: usize = sizes
            .iter()
            .zip(&present)
            .filter(|(_, &p)| p)
            .map(|(s, _)| s)
            .sum();
        assert_eq!(real.used_bytes(), expected, "step {step}: accounting drift");
    }

    // Phase 2: shrink every entry to one byte. A correct refund leaves
    // room for a capacity-minus-eight insert with zero evictions; a
    // leaked charge forces spurious victims.
    for k in 0..8u32 {
        real.insert(k, 0, 1);
        sizes[k as usize] = 1;
    }
    assert_eq!(real.used_bytes(), 8);
    let evicted = real.insert(100, 0, CAP - 8);
    assert!(
        evicted.is_empty(),
        "shrinking overwrites must refund their old bytes"
    );
    assert_eq!(real.used_bytes(), CAP);

    // Phase 3: growing one entry past the remaining budget evicts in
    // recency order, and the books still balance afterwards.
    let evicted = real.insert(0, 0, 9);
    assert!(!evicted.is_empty(), "growth past budget must evict");
    let survivors: usize = (0..8u32)
        .filter(|k| real.contains(k))
        .map(|k| if k == 0 { 9 } else { 1 })
        .sum::<usize>()
        + if real.contains(&100) { CAP - 8 } else { 0 };
    assert_eq!(real.used_bytes(), survivors);
    assert!(real.used_bytes() <= real.capacity_bytes());
}

#[test]
fn oversized_insert_also_drops_the_existing_entry() {
    let mut c: LruCache<u32, ()> = LruCache::new(100);
    c.insert(1, (), 40);
    c.insert(2, (), 40);
    let evicted = c.insert(1, (), 1000);
    assert!(evicted.is_empty(), "rejection evicts nothing");
    assert!(
        !c.contains(&1),
        "stale value must not survive an oversized replace"
    );
    assert!(c.contains(&2), "unrelated entries survive");
    assert_eq!(c.used_bytes(), 40);
}
