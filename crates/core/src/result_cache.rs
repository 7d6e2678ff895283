//! The bounded per-(epoch, query) result cache layered **above** the
//! structural [`crate::SharedCache`]: where that cache shares closure
//! *ingredients* across queries, this one memoizes whole materialized
//! results. That is sound only because an [`crate::EpochView`] freezes
//! the graph a result was computed against, so the key is `(epoch,
//! canonical query text)`. Results are identical across strategies and
//! thread counts (property-tested), so the key omits the evaluation
//! configuration: one connection's result is a hit for every other
//! connection at the same epoch.
//!
//! It is the second instance of the budgeted map behind the structural
//! cache, with the same insert, lookup and victim rule; it is bounded by
//! entry count and optionally by [`crate::CacheBudget::max_bytes`].
//! Entries never go stale (their epoch is in the key), so the TTL does not
//! apply, and it takes no epoch pins — pinning would make every retained
//! server view's results unevictable. A **view hit** here skips the whole
//! evaluation; a miss falls through to the structural cache.

use crate::budgeted_map::{BudgetedMap, Counter, Lookup, Weigh};
use crate::cache::CacheBudget;
use rpq_graph::PairSet;
use std::sync::Arc;
use std::time::Duration;

/// Entry bound of an engine's result cache.
pub const DEFAULT_RESULT_CACHE_ENTRIES: usize = 256;

impl Weigh for Arc<PairSet> {
    fn weigh(&self) -> usize {
        self.as_ref().heap_bytes()
    }
}

/// Bounded map from `(epoch, canonical query)` to a materialized result.
///
/// All methods take `&self`: concurrent pinned readers look up and fill
/// one cache. Entries are `Arc`-shared, so a hit costs one reference bump
/// however large the result set is.
pub struct ResultCache {
    map: BudgetedMap<(u64, String), Arc<PairSet>>,
}

impl Default for ResultCache {
    /// An empty cache bounded to [`DEFAULT_RESULT_CACHE_ENTRIES`] with no
    /// byte bound.
    fn default() -> Self {
        Self::with_capacity_and_budget(DEFAULT_RESULT_CACHE_ENTRIES, None)
    }
}

impl ResultCache {
    /// An empty cache bounded to `capacity` entries (0 disables
    /// memoization: every insert is immediately evicted) and optionally to
    /// `max_bytes` of retained results.
    pub fn with_capacity_and_budget(capacity: usize, max_bytes: Option<usize>) -> Self {
        Self {
            map: BudgetedMap::new(CacheBudget {
                max_bytes,
                max_entries: Some(capacity),
                ttl_epochs: None,
            }),
        }
    }

    /// The memoized result for `query` at `epoch`, counting a view hit
    /// (which also marks the entry recently used) or a miss.
    pub fn get(&self, epoch: u64, query: &str) -> Option<Arc<PairSet>> {
        match self.map.lookup(&(epoch, query.to_owned()), epoch) {
            Lookup::Fresh(result) => Some(result),
            Lookup::Stale(_) | Lookup::Miss => None,
        }
    }

    /// Memoizes `result` for `query` at `epoch`, recording `build` — the
    /// wall clock the evaluation took — as its cost-to-rebuild, then
    /// evicts past the entry and byte bounds. Re-inserting an existing key
    /// replaces the value without extending its eviction lifetime.
    pub fn insert(&self, epoch: u64, query: String, result: Arc<PairSet>, build: Duration) {
        self.map.insert((epoch, query), result, epoch, build);
    }

    /// Number of memoized results currently held.
    pub fn len(&self) -> usize {
        self.map.occupancy_entries()
    }

    /// Whether no results are memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry-count eviction bound.
    pub fn capacity(&self) -> usize {
        self.map.budget().max_entries.unwrap_or(usize::MAX)
    }

    /// Lookups answered from a memoized result since the last reset.
    pub fn view_hits(&self) -> u64 {
        self.map.count(Counter::Hits)
    }

    /// Lookups that fell through to evaluation since the last reset.
    pub fn misses(&self) -> u64 {
        self.map.count(Counter::Misses)
    }

    /// Results evicted past the entry/byte bounds since the last reset.
    pub fn evictions(&self) -> u64 {
        self.map.evictions().total()
    }

    /// Resets the hit/miss/eviction counters, preserving memoized results
    /// — the result-cache half of `Engine::reset_metrics`.
    pub fn reset_counters(&self) {
        self.map.reset_counters();
    }

    /// Drops every memoized result and resets the counters.
    pub fn clear(&self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: u32) -> Arc<PairSet> {
        Arc::new((0..n).map(|i| (i, i + 1)).collect())
    }

    fn put(c: &ResultCache, epoch: u64, query: &str, result: Arc<PairSet>) {
        c.insert(epoch, query.into(), result, Duration::ZERO);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = ResultCache::default();
        assert!(c.get(0, "q").is_none());
        assert_eq!((c.view_hits(), c.misses()), (0, 1));
        put(&c, 0, "q", pairs(3));
        let hit = c.get(0, "q").unwrap();
        assert_eq!(hit.len(), 3);
        assert_eq!((c.view_hits(), c.misses()), (1, 1));
        // Same query at another epoch is a different entry.
        assert!(c.get(1, "q").is_none());
        assert_eq!(c.capacity(), DEFAULT_RESULT_CACHE_ENTRIES);
    }

    /// A result re-hit under capacity churn survives; an older, un-hit
    /// result of equal score goes.
    #[test]
    fn rehit_results_outlive_older_unhit_ones() {
        let c = ResultCache::with_capacity_and_budget(2, None);
        put(&c, 0, "hot", pairs(1));
        put(&c, 0, "cold", pairs(1));
        assert!(c.get(0, "hot").is_some());
        put(&c, 0, "new", pairs(1));
        assert_eq!(c.len(), 2);
        assert!(c.get(0, "cold").is_none(), "least recently hit evicted");
        assert!(c.get(0, "hot").is_some());
        assert!(c.get(0, "new").is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinsert_replaces_without_duplicating_order() {
        let c = ResultCache::with_capacity_and_budget(2, None);
        put(&c, 0, "a", pairs(1));
        put(&c, 0, "a", pairs(5));
        put(&c, 0, "b", pairs(1));
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.map.occupancy_bytes(),
            pairs(5).heap_bytes() + pairs(1).heap_bytes()
        );
        // A third key still only evicts one entry: "a", whose replacement
        // kept its original age.
        put(&c, 0, "c", pairs(1));
        assert_eq!(c.len(), 2);
        assert!(c.get(0, "a").is_none());
    }

    #[test]
    fn reset_counters_preserves_entries() {
        let c = ResultCache::default();
        put(&c, 0, "q", pairs(2));
        let _ = c.get(0, "q");
        let _ = c.get(0, "other");
        c.reset_counters();
        assert_eq!((c.view_hits(), c.misses()), (0, 0));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let c = ResultCache::with_capacity_and_budget(0, None);
        put(&c, 0, "q", pairs(1));
        assert_eq!(c.len(), 0);
        assert!(c.get(0, "q").is_none());
    }

    #[test]
    fn byte_budget_bounds_retained_results() {
        let unit = pairs(8).heap_bytes();
        let c = ResultCache::with_capacity_and_budget(1024, Some(2 * unit));
        c.insert(0, "a".into(), pairs(8), Duration::from_millis(9));
        c.insert(0, "b".into(), pairs(8), Duration::from_millis(1));
        assert_eq!(c.map.occupancy_bytes(), 2 * unit);
        c.insert(0, "c".into(), pairs(8), Duration::from_millis(5));
        assert!(c.map.occupancy_bytes() <= 2 * unit);
        assert_eq!(c.len(), 2);
        assert!(c.get(0, "b").is_none(), "lowest score evicted");
        assert_eq!(c.evictions(), 1);
    }
}
