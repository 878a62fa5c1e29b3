//! A small hand-rolled LRU map (no external deps): `HashMap` for lookup
//! plus an intrusive doubly-linked list over a slot arena for recency
//! order. Lock-partitioned as [`ShardedLru`], it is the prediction cache
//! shared by the [`crate::pool::ServePool`] workers, where a single global
//! lock would serialize every worker's row lookups. It counts nothing: the
//! serve engine counts its own hits and misses (`ServeStats`).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map. `get` promotes, `insert`
/// evicts the coldest entry once full.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Clone + Eq + Hash, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be >= 1");
        Self {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = self.map.get(key).copied()?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(&self.slots[idx].value)
    }

    /// Insert or overwrite `key`, evicting the least-recently-used entry
    /// if the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return;
        }
        let idx = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            // Recycle the coldest slot.
            let idx = self.tail;
            self.unlink(idx);
            self.map.remove(&self.slots[idx].key);
            self.slots[idx].key = key.clone();
            self.slots[idx].value = value;
            idx
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }
}

/// A lock-partitioned LRU: `partitions` independent [`LruCache`]s, each
/// behind its own `Mutex`, with keys routed by hash. Concurrent workers
/// touching different partitions never contend, so the cache stops being a
/// global serialization point. Values are returned by clone (a reference
/// could not outlive the partition lock).
///
/// Eviction is per-partition, so the *global* recency order is only
/// approximate — a hot key can evict a warmer key that hashed to a fuller
/// partition. Capacity is split evenly; each partition holds at least one
/// entry.
pub struct ShardedLru<K, V> {
    partitions: Vec<Mutex<LruCache<K, V>>>,
}

impl<K: Clone + Eq + Hash, V: Clone> ShardedLru<K, V> {
    /// A cache of `capacity` total entries split over `partitions` locks
    /// (both forced to ≥ 1).
    pub fn new(capacity: usize, partitions: usize) -> Self {
        let partitions = partitions.max(1);
        let per = (capacity.max(1)).div_ceil(partitions).max(1);
        Self {
            partitions: (0..partitions)
                .map(|_| Mutex::new(LruCache::new(per)))
                .collect(),
        }
    }

    fn partition(&self, key: &K) -> &Mutex<LruCache<K, V>> {
        if let [only] = self.partitions.as_slice() {
            return only;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.partitions[(h.finish() as usize) % self.partitions.len()]
    }

    /// Look up `key` in its partition, promoting it on a hit. Clones the
    /// value out so the partition lock is held only for the lookup.
    pub fn get(&self, key: &K) -> Option<V> {
        self.partition(key).lock().unwrap().get(key).cloned()
    }

    /// Insert or overwrite `key` in its partition, evicting that
    /// partition's coldest entry if full.
    pub fn insert(&self, key: K, value: V) {
        self.partition(&key).lock().unwrap().insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many of `keys` are present (each lookup promotes, never inserts).
    fn present(c: &ShardedLru<u64, u64>, keys: std::ops::Range<u64>) -> usize {
        keys.filter(|k| c.get(k).is_some()).count()
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // promote 1; 2 is now coldest
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), Some(&"c"));
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut c = LruCache::new(1);
        c.insert("x", 1);
        c.insert("y", 2);
        assert_eq!(c.get(&"x"), None);
        assert_eq!(c.get(&"y"), Some(&2));
    }

    #[test]
    fn overwrite_updates_value_and_promotes() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(1, "a2"); // overwrite promotes 1; 2 is coldest
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.get(&1), Some(&"a2"));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), Some(&"c"));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        // A caller counts hits and misses from `get` itself.
        let mut c = LruCache::new(4);
        c.insert(1, ());
        let hits = [1, 1, 9].iter().filter(|k| c.get(k).is_some()).count();
        assert_eq!((hits, 3 - hits), (2, 1));
    }

    #[test]
    fn many_inserts_stay_within_capacity() {
        let mut c = LruCache::new(8);
        for i in 0..100 {
            c.insert(i, i * 10);
        }
        for i in 92..100 {
            assert_eq!(c.get(&i), Some(&(i * 10)), "recent key {i} must survive");
        }
        for i in 0..92 {
            assert_eq!(c.get(&i), None, "old key {i} must be evicted");
        }
    }

    #[test]
    fn sharded_round_trips_and_counts_stats() {
        let c = ShardedLru::new(64, 4);
        assert_eq!(present(&c, 0..64), 0);
        for i in 0..32u64 {
            c.insert(i, i * 3);
        }
        for i in 0..32u64 {
            assert_eq!(c.get(&i), Some(i * 3));
        }
        assert_eq!(c.get(&999), None);
        assert_eq!(present(&c, 0..1000), 32);
    }

    #[test]
    fn sharded_capacity_is_bounded_per_partition() {
        let c = ShardedLru::new(8, 4); // 2 entries per partition
        for i in 0..1000u64 {
            c.insert(i, i);
        }
        let live = present(&c, 0..1000);
        assert!(live <= 8, "{live} entries exceed total capacity");
        assert!(live > 0);
    }

    #[test]
    fn sharded_is_safe_under_concurrent_mixed_traffic() {
        let c = std::sync::Arc::new(ShardedLru::new(128, 8));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 31 + i) % 200;
                        c.insert(k, k * 2);
                        if let Some(v) = c.get(&k) {
                            assert_eq!(v, k * 2, "value for {k} corrupted");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(present(&c, 0..200) <= 128);
    }
}
