//! LRU posterior cache keyed by canonicalized evidence.
//!
//! Values are `Arc`s of the full packed posterior array, so a hit shares
//! the exact bytes the original computation produced — responses served
//! from cache are bitwise identical to the run that populated the entry
//! (load-bearing for the batched-vs-sequential equality test). Only
//! **converged** results are inserted; a non-converged posterior is a
//! budget artifact, not an answer worth replaying.

use std::collections::HashMap;
use std::sync::Arc;

/// A bounded map from evidence key to packed posteriors with
/// least-recently-used eviction.
#[derive(Debug)]
pub struct PosteriorCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, (Arc<Vec<f32>>, u64)>,
}

impl PosteriorCache {
    /// A cache holding at most `capacity` posterior arrays (0 disables
    /// caching entirely).
    pub fn new(capacity: usize) -> Self {
        PosteriorCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Most entries held at once (0: caching is off).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<Arc<Vec<f32>>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(value, used)| {
            *used = tick;
            Arc::clone(value)
        })
    }

    /// Inserts `value` under `key`, evicting the least-recently-used
    /// entry when at capacity.
    pub fn put(&mut self, key: String, value: Arc<Vec<f32>>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, (value, self.tick));
    }

    /// Drops every entry (evidence semantics changed, e.g. graph swap).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(v: f32) -> Arc<Vec<f32>> {
        Arc::new(vec![v])
    }

    #[test]
    fn hit_returns_the_same_allocation() {
        let mut c = PosteriorCache::new(4);
        let v = arc(0.5);
        c.put("a".into(), Arc::clone(&v));
        let got = c.get("a").unwrap();
        assert!(Arc::ptr_eq(&got, &v), "hit must share the stored Arc");
        assert!(c.get("b").is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = PosteriorCache::new(2);
        c.put("a".into(), arc(1.0));
        c.put("b".into(), arc(2.0));
        c.get("a"); // refresh a; b is now LRU
        c.put("c".into(), arc(3.0));
        assert!(c.get("a").is_some());
        assert!(c.get("b").is_none(), "b was LRU and must be evicted");
        assert!(c.get("c").is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut c = PosteriorCache::new(2);
        c.put("a".into(), arc(1.0));
        c.put("b".into(), arc(2.0));
        c.put("a".into(), arc(9.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a").unwrap()[0], 9.0);
        assert!(c.get("b").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PosteriorCache::new(0);
        c.put("a".into(), arc(1.0));
        assert!(c.is_empty());
        assert!(c.get("a").is_none());
    }
}
