//! A bounded in-memory value cache.
//!
//! The log-structured store keeps its index in memory but values on disk. The non-empty values
//! of recently written or read records are cached here so the provenance store's common access
//! pattern — record a p-assertion, then query it shortly afterwards while reasoning over a fresh
//! run — rarely touches the disk. Empty values are never cached: the key index records every
//! value's length, so it answers them on its own.
//!
//! Eviction is FIFO by insertion order and bounded by a byte budget that charges each entry
//! [`Memtable::cost`], which keeps behaviour predictable for long-running stores.

use std::collections::{HashMap, VecDeque};

use pasoa_obs::Gauge;

/// Bytes charged per cached entry on top of its key and value bytes: the map slot, the FIFO
/// slot and their heap allocations.
pub const ENTRY_OVERHEAD: usize = 64;

/// Bounded FIFO value cache.
#[derive(Debug)]
pub struct Memtable {
    /// Each value with the insertion number its FIFO slot carries.
    map: HashMap<Vec<u8>, (u64, Box<[u8]>)>,
    /// Insertion order for eviction. A removed or overwritten entry leaves its slot behind,
    /// recognisable by a stale insertion number; once the slots outnumber the live entries by
    /// more than a constant factor the stale ones are swept.
    order: VecDeque<(u64, Vec<u8>)>,
    inserted: u64,
    bytes: usize,
    budget: usize,
    bytes_gauge: Gauge,
    entries_gauge: Gauge,
}

impl Memtable {
    /// Create a cache bounded to `budget` bytes, each entry charged [`Memtable::cost`].
    pub fn new(budget: usize) -> Self {
        Memtable {
            map: HashMap::new(),
            order: VecDeque::new(),
            inserted: 0,
            bytes: 0,
            budget,
            bytes_gauge: Gauge::disabled(),
            entries_gauge: Gauge::disabled(),
        }
    }

    /// What an entry is charged against the budget: its key twice (the map and the FIFO each
    /// hold a copy), its value and [`ENTRY_OVERHEAD`].
    pub fn cost(key: &[u8], value: &[u8]) -> usize {
        2 * key.len() + value.len() + ENTRY_OVERHEAD
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes charged against the budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Report the cache's size on these gauges from now on. The level moves from the previous
    /// gauges to the new ones, and every change is an adjustment, so caches sharing a registry
    /// sum.
    pub fn attach(&mut self, bytes: Gauge, entries: Gauge) {
        let (held, len) = (self.bytes as i64, self.map.len() as i64);
        self.bytes_gauge.adjust(-held);
        self.entries_gauge.adjust(-len);
        bytes.adjust(held);
        entries.adjust(len);
        self.bytes_gauge = bytes;
        self.entries_gauge = entries;
    }

    /// Cache `value` under `key`, evicting old entries if over budget. An empty value, or one
    /// costing more than the whole budget, is not cached and drops what `key` had cached.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) {
        let cost = Self::cost(key, value);
        if value.is_empty() || cost > self.budget {
            self.remove(key);
            return;
        }
        self.inserted += 1;
        let stamp = self.inserted;
        if let Some((_, old)) = self.map.insert(key.to_vec(), (stamp, value.into())) {
            self.account(-(Self::cost(key, &old) as i64), -1);
        }
        self.order.push_back((stamp, key.to_vec()));
        self.account(cost as i64, 1);
        while self.bytes > self.budget {
            let Some((stamp, victim)) = self.order.pop_front() else {
                break;
            };
            if self
                .map
                .get(&victim)
                .is_some_and(|(live, _)| *live == stamp)
            {
                self.remove(&victim);
            }
        }
        self.sweep_stale();
    }

    /// Fetch a cached value.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(|(_, value)| &**value)
    }

    /// Remove a key (e.g. after a delete).
    pub fn remove(&mut self, key: &[u8]) {
        if let Some((_, old)) = self.map.remove(key) {
            self.account(-(Self::cost(key, &old) as i64), -1);
            self.sweep_stale();
        }
    }

    fn sweep_stale(&mut self) {
        if self.order.len() > 2 * self.map.len() + 32 {
            let map = &self.map;
            self.order
                .retain(|(stamp, key)| map.get(key).is_some_and(|(live, _)| live == stamp));
        }
    }

    fn account(&mut self, bytes: i64, entries: i64) {
        self.bytes = (self.bytes as i64 + bytes) as usize;
        self.bytes_gauge.adjust(bytes);
        self.entries_gauge.adjust(entries);
    }
}

impl Drop for Memtable {
    fn drop(&mut self) {
        self.attach(Gauge::disabled(), Gauge::disabled());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_obs::Registry;

    #[test]
    fn insert_get_remove() {
        let mut m = Memtable::new(1024);
        m.insert(b"k", b"v");
        assert_eq!(m.get(b"k"), Some(&b"v"[..]));
        m.remove(b"k");
        assert!(m.get(b"k").is_none());
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn update_replaces_bytes() {
        let mut m = Memtable::new(1024);
        m.insert(b"k", b"short");
        let before = m.bytes();
        m.insert(b"k", b"a-much-longer-value");
        assert_eq!(m.bytes(), before + 14);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn empty_values_are_not_cached() {
        let mut m = Memtable::new(1024);
        m.insert(b"k", b"");
        assert!(m.is_empty());
        // Overwriting a cached value with an empty one drops it.
        m.insert(b"k", b"v");
        m.insert(b"k", b"");
        assert!(m.get(b"k").is_none());
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn eviction_respects_budget() {
        let each = Memtable::cost(&[0], &[0u8; 8]);
        let mut m = Memtable::new(3 * each);
        for i in 0..10u8 {
            m.insert(&[i], &[0u8; 8]);
        }
        assert!(m.bytes() <= 3 * each);
        assert_eq!(m.len(), 3);
        // Newest entry survives.
        assert!(m.get(&[9]).is_some());
        assert!(m.get(&[0]).is_none());
    }

    #[test]
    fn oversized_entry_not_cached() {
        let mut m = Memtable::new(64);
        m.insert(b"key", &[0u8; 64]);
        assert!(m.get(b"key").is_none());
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn eviction_order_stays_bounded_under_insert_remove_churn() {
        // A job queue's shape: every key is written and then deleted.
        let mut m = Memtable::new(1 << 20);
        for i in 0..100_000u32 {
            m.insert(&i.to_le_bytes(), b"job");
            m.remove(&i.to_le_bytes());
        }
        assert_eq!((m.len(), m.bytes()), (0, 0));
        assert!(m.order.len() <= 64, "{} stale slots", m.order.len());
        // One key written over and over leaves one live slot, not one per write.
        for _ in 0..100_000 {
            m.insert(b"hot", b"v");
        }
        assert_eq!(m.len(), 1);
        assert!(m.order.len() <= 64, "{} stale slots", m.order.len());
    }

    #[test]
    fn an_overwritten_key_is_evicted_by_its_newest_slot() {
        let each = Memtable::cost(b"a", b"1");
        let mut m = Memtable::new(2 * each);
        m.insert(b"a", b"1");
        m.insert(b"b", b"1");
        m.insert(b"a", b"2");
        // The budget holds two entries: `c` evicts `b`, whose slot is older than `a`'s newest.
        m.insert(b"c", b"1");
        assert!(m.get(b"b").is_none());
        assert_eq!(m.get(b"a"), Some(&b"2"[..]));
    }

    #[test]
    fn gauges_follow_the_cache_and_sum_across_caches() {
        let registry = Registry::new();
        let gauges = || {
            (
                registry.gauge("kvdb.cache_bytes"),
                registry.gauge("kvdb.cache_entries"),
            )
        };
        let level = || {
            let snapshot = registry.snapshot();
            (
                snapshot.gauge("kvdb.cache_bytes"),
                snapshot.gauge("kvdb.cache_entries"),
            )
        };
        let mut first = Memtable::new(1024);
        first.insert(b"k", b"abc");
        let (bytes, entries) = gauges();
        first.attach(bytes, entries);
        let mut second = Memtable::new(1024);
        let (bytes, entries) = gauges();
        second.attach(bytes, entries);
        second.insert(b"k", b"de");
        let (one, two) = (Memtable::cost(b"k", b"abc"), Memtable::cost(b"k", b"de"));
        assert_eq!(level(), ((one + two) as i64, 2));
        first.remove(b"k");
        assert_eq!(level(), (two as i64, 1));
        drop(second);
        assert_eq!(level(), (0, 0));
    }
}
