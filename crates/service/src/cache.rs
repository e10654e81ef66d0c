//! Sharded LRU cache of per-ion partial spectra.
//!
//! The unit of caching is deliberately the **ion partial**, not the
//! whole response: requests differing only in element selection still
//! share every overlapping ion, and a batcher fan-out can fill many
//! keys from one computation. Values are `Arc<Vec<f64>>`, so a hit
//! costs a pointer clone and the cached bits are the *same* bits the
//! original computation produced — summing them in the fixed ion
//! order makes a cache-on response bitwise equal to the cache-off one
//! for exact-key hits.
//!
//! Sharding (hash of the key picks an independently-locked shard)
//! keeps concurrent callers from serializing on one mutex. Eviction is
//! per-shard LRU — each shard threads its entries on a recency list, so
//! a touch and an eviction are both a few index writes, never a scan;
//! capacity 0 disables the cache entirely (every get is a miss, inserts
//! are dropped).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use crate::quantize::StateKey;

/// Cache key: one ion at one quantized plasma state on one grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Index into [`atomdb::AtomDatabase::ions`].
    pub ion_index: usize,
    /// The quantized plasma state and grid.
    pub state: StateKey,
}

/// End-of-list marker for the recency links.
const NIL: usize = usize::MAX;

/// One cached entry, linked into its shard's recency list by slot
/// index.
struct Slot {
    key: CacheKey,
    value: Arc<Vec<f64>>,
    /// Neighbour toward the least recently touched end.
    older: usize,
    /// Neighbour toward the most recently touched end.
    newer: usize,
}

struct Shard {
    /// Key → index into `slots`.
    map: HashMap<CacheKey, usize>,
    /// Entry storage. Entries only ever leave by eviction, and the
    /// evicting insert reuses the victim's slot, so there are no holes.
    slots: Vec<Slot>,
    /// Least recently touched entry — the next eviction victim.
    oldest: usize,
    /// Most recently touched entry.
    newest: usize,
    /// Per-shard effectiveness counters, updated under this shard's
    /// own lock — so the cost of counting is the lock the operation
    /// already holds, and [`ShardedLruCache::shard_stats`] can show an
    /// operator *which* shard is thrashing, not just that one is.
    stats: CacheStats,
}

/// Counter snapshot of cache effectiveness — per shard (see
/// [`ShardedLruCache::shard_stats`]) or totalled across the cache
/// ([`ShardedLruCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including all lookups when disabled).
    pub misses: u64,
    /// Values stored by the owning engine's compute path.
    pub insertions: u64,
    /// Values pushed in from outside — hot-state replication to
    /// sibling replicas and migration cache handoff (see
    /// [`ShardedLruCache::warm_insert`]). Counted separately from
    /// `insertions` so warming traffic never masquerades as locally
    /// computed fills.
    pub warm_insertions: u64,
    /// Values displaced by LRU pressure.
    pub evictions: u64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Unlink slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (older, newer) = (self.slots[i].older, self.slots[i].newer);
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
    }

    /// Link slot `i` in as the most recently touched entry.
    fn link_newest(&mut self, i: usize) {
        self.slots[i].older = self.newest;
        self.slots[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// Mark slot `i` as just touched.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.link_newest(i);
        }
    }

    /// Store `value` under `key` as the most recently touched entry:
    /// overwrite in place when present, otherwise take a fresh slot —
    /// or, at `capacity`, the least recently touched entry's.
    fn store(&mut self, key: CacheKey, value: Arc<Vec<f64>>, capacity: usize) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.touch(i);
            return;
        }
        let i = if self.slots.len() >= capacity {
            let victim = self.oldest;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.stats.evictions += 1;
            self.slots[victim].key = key;
            self.slots[victim].value = value;
            victim
        } else {
            self.slots.push(Slot {
                key,
                value,
                older: NIL,
                newer: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, i);
        self.link_newest(i);
    }
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]`; 0 when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Element-wise sum — folds per-shard counters into a total.
    #[must_use]
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            warm_insertions: self.warm_insertions + other.warm_insertions,
            evictions: self.evictions + other.evictions,
        }
    }

    /// Stable JSON rendering of one counter block (the same shape for
    /// cache totals and per-shard entries; part of the operator-facing
    /// metrics contract — changing a key must update the golden file
    /// in `rrc-router`).
    #[must_use]
    pub fn to_json(&self) -> jsonlite::Value {
        jsonlite::ObjectBuilder::new()
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("insertions", self.insertions)
            .field("warm_insertions", self.warm_insertions)
            .field("evictions", self.evictions)
            .field("hit_rate", self.hit_rate())
            .build()
    }
}

/// The sharded LRU described in the module docs.
pub struct ShardedLruCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ShardedLruCache {
    /// A cache of at most `capacity` entries spread over `shards`
    /// independently locked shards. `capacity == 0` disables caching.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> ShardedLruCache {
        let shards = shards.clamp(1, capacity.max(1));
        let per_shard_capacity = capacity.div_ceil(shards);
        ShardedLruCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity,
        }
    }

    /// Whether the cache stores anything at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.per_shard_capacity > 0
    }

    /// Total entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        // FNV-1a over the key words — cheap, deterministic, and spreads
        // consecutive ion indices across shards.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in [
            key.ion_index as u64,
            key.state.kt_q,
            key.state.density_q,
            key.state.grid_id as u64,
        ] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Look `key` up, refreshing its recency on a hit.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<f64>>> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if !self.enabled() {
            // A disabled cache still attributes the miss to the key's
            // shard so `stats()` keeps counting lookups.
            shard.stats.misses += 1;
            return None;
        }
        match shard.map.get(key).copied() {
            Some(i) => {
                shard.touch(i);
                shard.stats.hits += 1;
                Some(Arc::clone(&shard.slots[i].value))
            }
            None => {
                shard.stats.misses += 1;
                None
            }
        }
    }

    /// Look `key` up **without** refreshing recency or counting a
    /// hit/miss — the tests' probe of what a shard holds.
    #[cfg(test)]
    #[must_use]
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<Vec<f64>>> {
        if !self.enabled() {
            return None;
        }
        let shard = self.shard(key).lock().expect("cache shard poisoned");
        shard
            .map
            .get(key)
            .map(|&i| Arc::clone(&shard.slots[i].value))
    }

    /// Store `value` under `key`, evicting the shard's least recently
    /// touched entry if the shard is at capacity.
    pub fn insert(&self, key: CacheKey, value: Arc<Vec<f64>>) {
        if !self.enabled() {
            return;
        }
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.store(key, value, self.per_shard_capacity);
        shard.stats.insertions += 1;
    }

    /// Store `value` under `key` **only if absent**, counting it as a
    /// warm insertion rather than a local fill. This is the entry point
    /// for partials pushed in from outside the owning compute path —
    /// hot-state replication to sibling replicas and migration cache
    /// handoff — where an existing entry is already the right bits
    /// (deterministic kernel) and must not have its recency stolen by
    /// warming traffic. Returns whether the value was actually stored.
    pub fn warm_insert(&self, key: CacheKey, value: Arc<Vec<f64>>) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if shard.map.contains_key(&key) {
            return false;
        }
        shard.store(key, value, self.per_shard_capacity);
        shard.stats.warm_insertions += 1;
        true
    }

    /// Every cached entry whose `ion_index` is in `ions`, in a
    /// deterministic `(ion_index, state)` order. Stats- and
    /// recency-neutral: exporting a donor's entries for migration
    /// handoff must not distort the donor's own hit-rate picture or
    /// protect entries from eviction.
    #[must_use]
    pub fn export_ions(&self, ions: &[usize]) -> Vec<(CacheKey, Arc<Vec<f64>>)> {
        let wanted: HashSet<usize> = ions.iter().copied().collect();
        let mut out: Vec<(CacheKey, Arc<Vec<f64>>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            for slot in &shard.slots {
                if wanted.contains(&slot.key.ion_index) {
                    out.push((slot.key, Arc::clone(&slot.value)));
                }
            }
        }
        out.sort_by_key(|(key, _)| (key.ion_index, key.state));
        out
    }

    /// Counter snapshot per shard, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").stats)
            .collect()
    }

    /// Counter snapshot totalled across all shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merged(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ion: usize, kt: u64) -> CacheKey {
        CacheKey {
            ion_index: ion,
            state: StateKey {
                kt_q: kt,
                density_q: 0,
                grid_id: 0,
            },
        }
    }

    #[test]
    fn hit_returns_the_same_allocation() {
        let c = ShardedLruCache::new(8, 2);
        let v = Arc::new(vec![1.0, 2.0]);
        c.insert(key(0, 7), Arc::clone(&v));
        let got = c.get(&key(0, 7)).expect("hit");
        assert!(Arc::ptr_eq(&got, &v), "cache must hand back the same bits");
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn miss_and_disabled_counting() {
        let c = ShardedLruCache::new(0, 4);
        assert!(!c.enabled());
        assert!(c.get(&key(1, 1)).is_none());
        c.insert(key(1, 1), Arc::new(vec![]));
        assert!(c.get(&key(1, 1)).is_none(), "disabled cache stores nothing");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (0, 2, 0));
    }

    #[test]
    fn peek_neither_counts_nor_touches() {
        let c = ShardedLruCache::new(2, 1);
        c.insert(key(0, 0), Arc::new(vec![0.0]));
        c.insert(key(1, 0), Arc::new(vec![1.0]));
        // Peeking 0 must NOT refresh it: 0 stays LRU and is evicted.
        assert!(c.peek(&key(0, 0)).is_some());
        assert!(c.peek(&key(9, 9)).is_none());
        c.insert(key(2, 0), Arc::new(vec![2.0]));
        assert!(c.peek(&key(0, 0)).is_none(), "peek must not protect LRU");
        assert!(c.peek(&key(1, 0)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "peek is stats-neutral");
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        // One shard of capacity 2 so recency is fully observable.
        let c = ShardedLruCache::new(2, 1);
        c.insert(key(0, 0), Arc::new(vec![0.0]));
        c.insert(key(1, 0), Arc::new(vec![1.0]));
        let _ = c.get(&key(0, 0)); // refresh 0; 1 is now LRU
        c.insert(key(2, 0), Arc::new(vec![2.0]));
        assert!(c.get(&key(1, 0)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(0, 0)).is_some());
        assert!(c.get(&key(2, 0)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    /// The eviction rule the recency list must reproduce, as the scan
    /// it replaced: every `get` hit, `insert` and stored `warm_insert`
    /// stamps the entry with a fresh tick; a store of a new key at
    /// capacity first removes the entry with the smallest tick.
    struct ScanModel {
        entries: Vec<(CacheKey, u64)>,
        clock: u64,
        capacity: usize,
        evicted: Vec<CacheKey>,
    }

    impl ScanModel {
        fn get(&mut self, key: CacheKey) -> bool {
            self.clock += 1;
            match self.entries.iter_mut().find(|(k, _)| *k == key) {
                Some(entry) => {
                    entry.1 = self.clock;
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, key: CacheKey) {
            self.clock += 1;
            if let Some(entry) = self.entries.iter_mut().find(|(k, _)| *k == key) {
                entry.1 = self.clock;
                return;
            }
            if self.entries.len() >= self.capacity {
                let victim = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].1)
                    .expect("capacity >= 1");
                self.evicted.push(self.entries.swap_remove(victim).0);
            }
            self.entries.push((key, self.clock));
        }

        fn warm_insert(&mut self, key: CacheKey) -> bool {
            if self.entries.iter().any(|(k, _)| *k == key) {
                return false;
            }
            self.insert(key);
            true
        }
    }

    #[test]
    fn eviction_order_matches_the_scan_reference_model() {
        // One shard, so the whole trace contends for one recency list;
        // a key universe ~3x capacity keeps it evicting throughout.
        const CAPACITY: usize = 16;
        let c = ShardedLruCache::new(CAPACITY, 1);
        let mut model = ScanModel {
            entries: Vec::new(),
            clock: 0,
            capacity: CAPACITY,
            evicted: Vec::new(),
        };
        let mut rng = desim::rng(2015);
        let universe: Vec<CacheKey> = (0..48).map(|i| key(i % 12, (i / 12) as u64)).collect();
        let mut resident: Vec<CacheKey> = Vec::new();
        for step in 0..20_000 {
            let k = universe[rng.gen_range_usize(0..universe.len())];
            match rng.gen_range_usize(0..10) {
                0..=4 => assert_eq!(c.get(&k).is_some(), model.get(k), "step {step}: get"),
                5..=7 => {
                    c.insert(k, Arc::new(vec![step as f64]));
                    model.insert(k);
                }
                8 => assert_eq!(
                    c.warm_insert(k, Arc::new(vec![step as f64])),
                    model.warm_insert(k),
                    "step {step}: warm_insert"
                ),
                // Recency-neutral reads: must not perturb the order.
                _ => {
                    let _ = c.peek(&k);
                    let _ = c.export_ions(&[k.ion_index]);
                }
            }
            // Whatever left the cache this step is exactly what the
            // scan would have evicted — so the orders agree victim by
            // victim, not just in the end state.
            let now: Vec<CacheKey> = universe
                .iter()
                .copied()
                .filter(|k| c.peek(k).is_some())
                .collect();
            let left: Vec<CacheKey> = resident
                .iter()
                .copied()
                .filter(|k| !now.contains(k))
                .collect();
            let want: Vec<CacheKey> = model.evicted.drain(..).collect();
            assert_eq!(left, want, "step {step}: eviction victim");
            resident = now;
        }
        assert_eq!(c.len(), CAPACITY);
        assert!(c.stats().evictions > 1_000, "{:?}", c.stats());
    }

    #[test]
    fn warm_insert_is_absent_only_and_counted_separately() {
        let c = ShardedLruCache::new(4, 1);
        let warm = Arc::new(vec![1.0]);
        assert!(c.warm_insert(key(0, 0), Arc::clone(&warm)));
        let local = Arc::new(vec![2.0]);
        c.insert(key(1, 0), Arc::clone(&local));
        // A warm push for an already-present key is a no-op: the local
        // bits stay (they are the same bits anyway) and nothing counts.
        assert!(!c.warm_insert(key(1, 0), Arc::new(vec![9.0])));
        let got = c.get(&key(1, 0)).expect("hit");
        assert!(Arc::ptr_eq(&got, &local));
        let s = c.stats();
        assert_eq!((s.insertions, s.warm_insertions), (1, 1), "{s:?}");
        // Disabled cache refuses warming entirely.
        let off = ShardedLruCache::new(0, 1);
        assert!(!off.warm_insert(key(0, 0), warm));
        assert_eq!(off.stats().warm_insertions, 0);
    }

    #[test]
    fn warm_insert_respects_capacity_and_evicts_lru() {
        let c = ShardedLruCache::new(2, 1);
        c.insert(key(0, 0), Arc::new(vec![0.0]));
        c.insert(key(1, 0), Arc::new(vec![1.0]));
        let _ = c.get(&key(0, 0)); // refresh 0; 1 is now LRU
        assert!(c.warm_insert(key(2, 0), Arc::new(vec![2.0])));
        assert!(c.peek(&key(1, 0)).is_none(), "warm insert evicts LRU");
        assert!(c.peek(&key(0, 0)).is_some());
        assert!(c.peek(&key(2, 0)).is_some());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn export_is_scoped_sorted_and_stats_neutral() {
        let c = ShardedLruCache::new(64, 4);
        for ion in 0..6 {
            for kt in [3u64, 1] {
                c.insert(key(ion, kt), Arc::new(vec![ion as f64]));
            }
        }
        let before = c.stats();
        let exported = c.export_ions(&[4, 1]);
        assert_eq!(exported.len(), 4, "two states per requested ion");
        let order: Vec<(usize, u64)> = exported
            .iter()
            .map(|(k, _)| (k.ion_index, k.state.kt_q))
            .collect();
        assert_eq!(order, vec![(1, 1), (1, 3), (4, 1), (4, 3)]);
        assert_eq!(c.stats(), before, "export is stats-neutral");
        assert!(c.export_ions(&[]).is_empty());
    }

    #[test]
    fn per_shard_stats_fold_into_the_total() {
        let c = ShardedLruCache::new(64, 8);
        for i in 0..16 {
            c.insert(key(i, 0), Arc::new(vec![]));
            let _ = c.get(&key(i, 0));
        }
        let _ = c.get(&key(99, 0));
        let shards = c.shard_stats();
        assert_eq!(shards.len(), 8);
        let folded = shards
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merged(s));
        assert_eq!(folded, c.stats());
        assert_eq!((folded.hits, folded.misses, folded.insertions), (16, 1, 16));
    }

    #[test]
    fn shards_partition_the_keyspace() {
        let c = ShardedLruCache::new(64, 8);
        for i in 0..64 {
            c.insert(key(i, 42), Arc::new(vec![i as f64]));
        }
        for i in 0..64 {
            let hit = c.get(&key(i, 42)).expect("all fit within capacity");
            assert_eq!(hit[0], i as f64);
        }
        assert_eq!(c.stats().evictions, 0, "{:?}", c.stats());
    }
}
