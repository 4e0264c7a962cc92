//! The sharded, epoch-keyed result cache.
//!
//! Keys are the byte strings [`crate::ast::Query::cache_key`] produces
//! — normalized query, `k`, and the serving **epoch**. Writes bump the
//! epoch, so invalidation costs nothing: stale entries are simply
//! never looked up again (their keys name a dead epoch) and the LRU
//! sweep reclaims their bytes as fresh-epoch entries arrive. Sharding
//! by key hash keeps lock hold times to a single map probe, so
//! concurrent readers on different shards never contend.
//!
//! The cache is deliberately observability-free: it *returns* hit and
//! eviction facts, and the serving layer (which owns the metrics
//! registry) counts them. That keeps this crate leaf-level.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use zerber_index::RankedDoc;

/// Fixed per-entry overhead charged against the byte budget (map and
/// LRU bookkeeping) on top of the key and the ranked payload.
const ENTRY_OVERHEAD: usize = 64;

/// Cache sizing.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of independently locked shards (≥ 1; rounded up).
    pub shards: usize,
    /// Total byte budget across all shards.
    pub total_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            total_bytes: 4 << 20,
        }
    }
}

#[derive(Debug)]
struct Entry {
    ranked: Arc<Vec<RankedDoc>>,
    bytes: usize,
    /// This entry's slot in the owning shard's recency index.
    tick: u64,
}

#[derive(Debug, Default)]
struct CacheShard {
    map: HashMap<Vec<u8>, Entry>,
    /// Recency index: tick → key. Ticks come from a global counter, so
    /// within a shard they are unique and ordered by last touch.
    recency: BTreeMap<u64, Vec<u8>>,
    bytes: usize,
}

impl CacheShard {
    /// Evicts least-recently-used entries until `bytes ≤ budget`,
    /// returning how many entries were dropped.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            // An over-budget shard has entries, each named once in the
            // recency index.
            let Some((_, key)) = self.recency.pop_first() else {
                break;
            };
            if let Some(entry) = self.map.remove(&key) {
                self.bytes -= entry.bytes;
                evicted += 1;
            }
        }
        evicted
    }
}

/// A sharded LRU result cache with a byte budget.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<CacheShard>>,
    /// Global recency clock; every get/insert takes a fresh tick.
    clock: AtomicU64,
    shard_budget: usize,
}

impl ResultCache {
    /// Builds a cache; the budget splits evenly across shards.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
            clock: AtomicU64::new(0),
            shard_budget: config.total_bytes / shards,
        }
    }

    fn shard(&self, key: &[u8]) -> &Mutex<CacheShard> {
        // FNV-1a; the epoch and term bytes at the key's tail give it
        // plenty to mix.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &byte in key {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks a key up, refreshing its recency on a hit.
    pub fn get(&self, key: &[u8]) -> Option<Arc<Vec<RankedDoc>>> {
        let mut shard = self.shard(key).lock();
        let tick = self.tick();
        let entry = shard.map.get_mut(key)?;
        let old = std::mem::replace(&mut entry.tick, tick);
        let ranked = Arc::clone(&entry.ranked);
        shard.recency.remove(&old);
        shard.recency.insert(tick, key.to_vec());
        Some(ranked)
    }

    /// Inserts (or refreshes) an entry, evicting LRU entries as needed
    /// to stay within budget; returns the eviction count. An entry too
    /// large for a whole shard's budget is not cached at all.
    pub fn insert(&self, key: Vec<u8>, ranked: Arc<Vec<RankedDoc>>) -> u64 {
        let bytes = key.len() + ranked.len() * std::mem::size_of::<RankedDoc>() + ENTRY_OVERHEAD;
        if bytes > self.shard_budget {
            return 0;
        }
        let mut shard = self.shard(&key).lock();
        let tick = self.tick();
        if let Some(old) = shard.map.remove(&key) {
            shard.bytes -= old.bytes;
            shard.recency.remove(&old.tick);
        }
        shard.bytes += bytes;
        shard.recency.insert(tick, key.clone());
        shard.map.insert(
            key,
            Entry {
                ranked,
                bytes,
                tick,
            },
        );
        let budget = self.shard_budget;
        shard.evict_to(budget)
    }

    /// Entries currently cached (across all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::DocId;

    /// How many bytes are currently charged (across all shards).
    fn charged(cache: &ResultCache) -> usize {
        cache.shards.iter().map(|s| s.lock().bytes).sum()
    }

    fn ranked(docs: &[u32]) -> Arc<Vec<RankedDoc>> {
        Arc::new(
            docs.iter()
                .map(|&d| RankedDoc {
                    doc: DocId(d),
                    score: f64::from(d),
                })
                .collect(),
        )
    }

    #[test]
    fn get_returns_what_insert_stored() {
        let cache = ResultCache::new(CacheConfig::default());
        assert!(cache.get(b"missing").is_none());
        cache.insert(b"key".to_vec(), ranked(&[1, 2, 3]));
        let hit = cache.get(b"key").expect("hit");
        assert_eq!(hit.len(), 3);
        assert_eq!(hit[0].doc, DocId(1));
        assert_eq!(cache.len(), 1);
        assert!(charged(&cache) > 0);
    }

    #[test]
    fn reinsert_replaces_without_double_charging() {
        let cache = ResultCache::new(CacheConfig::default());
        cache.insert(b"key".to_vec(), ranked(&[1]));
        let bytes = charged(&cache);
        cache.insert(b"key".to_vec(), ranked(&[1]));
        assert_eq!(charged(&cache), bytes, "same payload, same charge");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        // One shard so recency is globally ordered; budget fits ~3
        // single-doc entries.
        let per_entry = 8 + ranked(&[0]).len() * std::mem::size_of::<RankedDoc>() + ENTRY_OVERHEAD;
        let cache = ResultCache::new(CacheConfig {
            shards: 1,
            total_bytes: per_entry * 3,
        });
        assert_eq!(cache.insert(b"key-aaaa".to_vec(), ranked(&[1])), 0);
        assert_eq!(cache.insert(b"key-bbbb".to_vec(), ranked(&[2])), 0);
        assert_eq!(cache.insert(b"key-cccc".to_vec(), ranked(&[3])), 0);
        // Touch A so B is now the LRU victim.
        assert!(cache.get(b"key-aaaa").is_some());
        assert_eq!(cache.insert(b"key-dddd".to_vec(), ranked(&[4])), 1);
        assert!(cache.get(b"key-bbbb").is_none(), "LRU entry evicted");
        assert!(cache.get(b"key-aaaa").is_some());
        assert!(cache.get(b"key-cccc").is_some());
        assert!(cache.get(b"key-dddd").is_some());
    }

    #[test]
    fn oversized_entries_are_refused() {
        let cache = ResultCache::new(CacheConfig {
            shards: 1,
            total_bytes: 100,
        });
        let huge: Vec<u32> = (0..1000).collect();
        assert_eq!(cache.insert(b"big".to_vec(), ranked(&huge)), 0);
        assert!(cache.get(b"big").is_none());
        assert!(cache.is_empty());
    }
}
