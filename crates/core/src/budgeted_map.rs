//! The one budgeted, epoch-aware, sharded map behind both cache tiers:
//! the structural [`crate::SharedCache`] and the [`crate::ResultCache`]
//! are two instances of [`BudgetedMap`], with one insert, one lookup and
//! one victim rule.
//!
//! **Epochs.** Every entry is stamped with the epoch it was built at; the
//! map tracks the live epoch. A lookup at epoch `E` is `Fresh` for an
//! entry stamped `E` (wherever the live epoch has moved since — pinned
//! readers rely on this). When `E` is the live epoch, an entry from
//! another epoch is **claimed**: removed under the shard write lock and
//! handed over by value, so exactly one racer gets the refreshable state
//! and can mutate it in place. Anything else is a miss. An insert never
//! displaces an entry from a newer epoch, and a same-epoch re-insert keeps
//! the entry's last-hit tick, so replacing a value never extends its life.
//!
//! **Budget.** Each entry records its heap bytes, the nanos spent building
//! it (what a miss pays again) and a last-hit tick. When an insert pushes
//! occupancy past `max_bytes`/`max_entries`, unpinned entries go in
//! ascending `(score class, last hit, key)` order, where the class is the
//! power-of-8 bucket of `build_nanos / bytes`: measured build times
//! jitter, so raw scores would never tie and a hot entry whose build
//! happened to measure fast would thrash, while within a class the
//! least-recently-hit entry goes. Entries of a pinned epoch are never
//! evicted or swept (enforcement is best-effort until the pins drop).
//! `ttl_epochs` sweeps unpinned entries that far behind the live epoch on
//! every advance.
//!
//! **Concurrency.** Entries live in 8 hash shards, each behind an
//! `RwLock`; counters, occupancy and the epoch are atomics. A fresh hit
//! takes only a shard read lock. Occupancy changes while the shard's
//! write lock is held, so it never transiently underflows.

use crate::cache::{CacheBudget, EvictionCounters};
use rustc_hash::{FxHashMap, FxHashSet, FxHasher};
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

const SHARD_COUNT: usize = 8;

/// Bound on the evicted-key set behind the rebuild-after-evict counter:
/// accounting state only, dropped wholesale when full.
const EVICTED_KEYS_CAP: usize = 4096;

/// A cached value's retained heap bytes — what the byte budget counts.
pub(crate) trait Weigh {
    fn weigh(&self) -> usize;
}

struct Entry<V> {
    value: V,
    epoch: u64,
    bytes: usize,
    /// 0 when unmeasured, which ranks the entry below every class.
    build_nanos: u64,
    /// Stamped on fresh hits under the shard *read* lock, hence atomic.
    last_hit: AtomicU64,
}

impl<V> Entry<V> {
    /// The victim rank before the key tie-break; lowest goes first.
    fn rank(&self) -> (i32, u64) {
        let score = self.build_nanos as f64 / self.bytes.max(1) as f64;
        let class = if score > 0.0 {
            (score.log2() / 3.0).floor() as i32
        } else {
            i32::MIN
        };
        (class, self.last_hit.load(Relaxed))
    }
}

/// Result of an epoch-aware cache lookup: `F` is what a fresh hit hands
/// out, `S` the state of a claimed stale entry.
pub enum Lookup<F, S = F> {
    /// An entry stamped with the requested epoch.
    Fresh(F),
    /// An entry from an older epoch, claimed (removed) for refresh.
    Stale(S),
    /// No usable entry under the key.
    Miss,
}

/// Indexes into [`BudgetedMap`]'s counters.
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    Hits,
    Misses,
    StaleHits,
    ByBytes,
    ByEntries,
    ByTtl,
    ByStale,
    RebuildsAfterEvict,
}

const COUNTERS: usize = Counter::RebuildsAfterEvict as usize + 1;

type Shard<K, V> = RwLock<FxHashMap<K, Entry<V>>>;

/// A sharded, budgeted, epoch-aware map (see the module docs).
pub(crate) struct BudgetedMap<K, V> {
    shards: [Shard<K, V>; SHARD_COUNT],
    budget: CacheBudget,
    epoch: AtomicU64,
    /// Logical clock stamped into `last_hit`. It, the occupancy and the
    /// counters are statistics that publish no other data (the shard locks
    /// do), so they use `Relaxed`.
    tick: AtomicU64,
    occ_bytes: AtomicU64,
    occ_entries: AtomicU64,
    counters: [AtomicU64; COUNTERS],
    /// Epoch → number of live pins.
    pinned: Mutex<FxHashMap<u64, usize>>,
    /// Evicted keys, consumed by their next miss.
    evicted_keys: Mutex<FxHashSet<K>>,
}

/// Acquires a read lock, clearing poisoning: every mutation replaces or
/// removes whole entries, so a panic elsewhere leaves the map consistent.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Hash + Eq + Ord + Clone, V> BudgetedMap<K, V> {
    pub(crate) fn new(budget: CacheBudget) -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::default()),
            budget,
            epoch: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            occ_bytes: AtomicU64::new(0),
            occ_entries: AtomicU64::new(0),
            counters: Default::default(),
            pinned: Mutex::default(),
            evicted_keys: Mutex::default(),
        }
    }

    pub(crate) fn budget(&self) -> CacheBudget {
        self.budget
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        let hash = BuildHasherDefault::<FxHasher>::default().hash_one(key);
        &self.shards[(hash as usize) % SHARD_COUNT]
    }

    fn bump(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Relaxed);
    }

    pub(crate) fn count(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Relaxed)
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Acquire)
    }

    /// Moves the live epoch forward and runs the TTL sweep. Moving it
    /// backward panics: that would un-stale entries.
    pub(crate) fn advance_epoch(&self, epoch: u64) {
        // fetch_max, so racing callers never move it backward even
        // transiently; the assert reports the caller that tried to.
        let previous = self.epoch.fetch_max(epoch, AcqRel);
        assert!(epoch >= previous, "cache epoch must be monotone");
        self.sweep();
    }

    /// `Fresh` at `epoch`, a claimed `Stale` entry when `epoch` is the
    /// live one, `Miss` otherwise; counted accordingly.
    pub(crate) fn lookup(&self, key: &K, epoch: u64) -> Lookup<V>
    where
        V: Clone,
    {
        let shard = self.shard(key);
        match read(shard).get(key) {
            Some(entry) if entry.epoch == epoch => return self.hit(entry),
            Some(_) if epoch == self.epoch() => {}
            _ => return self.miss(key),
        }
        // Re-check after the upgrade: another thread may have refreshed
        // the entry (now fresh) or claimed it (now gone) in between.
        let mut map = write(shard);
        match map.get(key) {
            Some(entry) if entry.epoch == epoch => self.hit(entry),
            Some(_) => {
                let entry = map.remove(key).expect("stale entry present");
                self.note_removed(entry.bytes);
                self.bump(Counter::StaleHits);
                Lookup::Stale(entry.value)
            }
            None => {
                drop(map);
                self.miss(key)
            }
        }
    }

    fn hit(&self, entry: &Entry<V>) -> Lookup<V>
    where
        V: Clone,
    {
        self.bump(Counter::Hits);
        entry
            .last_hit
            .store(self.tick.fetch_add(1, Relaxed), Relaxed);
        Lookup::Fresh(entry.value.clone())
    }

    fn miss(&self, key: &K) -> Lookup<V> {
        self.bump(Counter::Misses);
        if !self.budget.is_unbounded() && lock(&self.evicted_keys).remove(key) {
            self.bump(Counter::RebuildsAfterEvict);
        }
        Lookup::Miss
    }

    /// Whether an entry stamped `epoch` exists under `key`; counts nothing.
    pub(crate) fn contains_at(&self, key: &K, epoch: u64) -> bool {
        read(self.shard(key))
            .get(key)
            .is_some_and(|entry| entry.epoch == epoch)
    }

    /// Stores `value` stamped `epoch` with `build` as its cost to rebuild,
    /// then enforces the budget (see the module docs for which existing
    /// entries it displaces). Displacing an older epoch's entry counts as
    /// a `by_stale` eviction.
    pub(crate) fn insert(&self, key: K, value: V, epoch: u64, build: Duration)
    where
        V: Weigh,
    {
        let bytes = value.weigh();
        {
            let mut map = write(self.shard(&key));
            let last_hit = match map.get(&key) {
                Some(old) if old.epoch > epoch => return,
                Some(old) if old.epoch == epoch => old.last_hit.load(Relaxed),
                _ => self.tick.fetch_add(1, Relaxed),
            };
            let entry = Entry {
                value,
                epoch,
                bytes,
                build_nanos: build.as_nanos() as u64,
                last_hit: AtomicU64::new(last_hit),
            };
            self.occ_bytes.fetch_add(bytes as u64, Relaxed);
            self.occ_entries.fetch_add(1, Relaxed);
            if let Some(old) = map.insert(key, entry) {
                self.note_removed(old.bytes);
                if old.epoch < epoch {
                    self.bump(Counter::ByStale);
                }
            }
        }
        self.enforce_budget();
    }

    /// Occupancy bookkeeping for a removed entry; call with its shard's
    /// write lock held.
    fn note_removed(&self, bytes: usize) {
        self.occ_bytes.fetch_sub(bytes as u64, Relaxed);
        self.occ_entries.fetch_sub(1, Relaxed);
    }

    fn note_evicted(&self, key: K, reason: Counter) {
        self.bump(reason);
        let mut evicted = lock(&self.evicted_keys);
        if evicted.len() >= EVICTED_KEYS_CAP {
            evicted.clear();
        }
        evicted.insert(key);
    }

    fn pinned_epochs(&self) -> FxHashSet<u64> {
        lock(&self.pinned).keys().copied().collect()
    }

    pub(crate) fn pin(&self, epoch: u64) {
        *lock(&self.pinned).entry(epoch).or_insert(0) += 1;
    }

    pub(crate) fn unpin(&self, epoch: u64) {
        let mut pinned = lock(&self.pinned);
        if let Some(count) = pinned.get_mut(&epoch) {
            *count -= 1;
            if *count == 0 {
                pinned.remove(&epoch);
            }
        }
    }

    /// Evicts until the budget holds or only pinned entries remain.
    pub(crate) fn enforce_budget(&self) {
        let (max_bytes, max_entries) = (self.budget.max_bytes, self.budget.max_entries);
        loop {
            let over_bytes = max_bytes.is_some_and(|b| self.occupancy_bytes() > b);
            let over_entries = max_entries.is_some_and(|e| self.occupancy_entries() > e);
            if !(over_bytes || over_entries) || !self.evict_one(over_bytes) {
                return;
            }
        }
    }

    /// Removes the unpinned entry lowest in `(class, last hit, key)` order,
    /// cloning only the key of the best candidate so far. Returns `false`
    /// when nothing is evictable; a lost race (the victim was claimed,
    /// replaced or pinned since the scan) returns `true` so the caller
    /// re-reads occupancy.
    fn evict_one(&self, for_bytes: bool) -> bool {
        let pinned = self.pinned_epochs();
        let mut best: Option<(i32, u64, K, usize, u64)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            for (key, entry) in read(shard).iter() {
                let (class, hit) = entry.rank();
                let better = best
                    .as_ref()
                    .is_none_or(|(c, h, k, ..)| (class, hit, key) < (*c, *h, k));
                if better && !pinned.contains(&entry.epoch) {
                    best = Some((class, hit, key.clone(), i, entry.epoch));
                }
            }
        }
        let Some((_, _, key, shard, epoch)) = best else {
            return false;
        };
        let mut map = write(&self.shards[shard]);
        let still_victim =
            |e: &Entry<V>| e.epoch == epoch && !lock(&self.pinned).contains_key(&epoch);
        if map.get(&key).is_some_and(still_victim) {
            let entry = map.remove(&key).expect("victim present");
            self.note_removed(entry.bytes);
            drop(map);
            let reason = if for_bytes {
                Counter::ByBytes
            } else {
                Counter::ByEntries
            };
            self.note_evicted(key, reason);
        }
        true
    }

    /// Drops unpinned entries more than `ttl_epochs` behind the live epoch.
    /// Stale entries within the TTL stay: incremental refresh feeds on them.
    fn sweep(&self) {
        let Some(ttl) = self.budget.ttl_epochs else {
            return;
        };
        let live = self.epoch();
        let pinned = self.pinned_epochs();
        for shard in &self.shards {
            let mut expired = Vec::new();
            write(shard).retain(|key, entry| {
                let keep = pinned.contains(&entry.epoch) || live.saturating_sub(entry.epoch) <= ttl;
                if !keep {
                    self.note_removed(entry.bytes);
                    expired.push(key.clone());
                }
                keep
            });
            for key in expired {
                self.note_evicted(key, Counter::ByTtl);
            }
        }
    }

    fn fold(&self, f: impl Fn(&Entry<V>) -> usize) -> usize {
        self.shards
            .iter()
            .map(|s| read(s).values().map(&f).sum::<usize>())
            .sum()
    }

    /// Sums `f` over every value, one shard read lock at a time.
    pub(crate) fn sum(&self, f: impl Fn(&V) -> usize) -> usize {
        self.fold(|e| f(&e.value))
    }

    /// Bytes held by entries of pinned epochs — what eviction cannot reclaim.
    pub(crate) fn pinned_occupancy_bytes(&self) -> usize {
        let pinned = self.pinned_epochs();
        self.fold(|e| {
            if pinned.contains(&e.epoch) {
                e.bytes
            } else {
                0
            }
        })
    }

    /// Copies of the entries stamped `epoch` as `(key, value, bytes, build
    /// nanos)`, best-to-keep first: the reverse of the victim order.
    pub(crate) fn retained_at(&self, epoch: u64) -> Vec<(K, V, usize, u64)>
    where
        V: Clone,
    {
        let mut ranked = Vec::new();
        for shard in &self.shards {
            for (key, e) in read(shard).iter().filter(|(_, e)| e.epoch == epoch) {
                let copy = (key.clone(), e.value.clone(), e.bytes, e.build_nanos);
                ranked.push((e.rank(), copy));
            }
        }
        ranked.sort_by(|(ra, a), (rb, b)| (rb, &b.0).cmp(&(ra, &a.0)));
        ranked.into_iter().map(|(_, copy)| copy).collect()
    }

    pub(crate) fn evictions(&self) -> EvictionCounters {
        EvictionCounters {
            by_bytes: self.count(Counter::ByBytes),
            by_entries: self.count(Counter::ByEntries),
            by_ttl: self.count(Counter::ByTtl),
            by_stale: self.count(Counter::ByStale),
            rebuilds_after_evict: self.count(Counter::RebuildsAfterEvict),
        }
    }

    pub(crate) fn occupancy_bytes(&self) -> usize {
        self.occ_bytes.load(Relaxed) as usize
    }

    pub(crate) fn occupancy_entries(&self) -> usize {
        self.occ_entries.load(Relaxed) as usize
    }

    /// Zeroes every counter (and the evicted-key set), keeping entries.
    pub(crate) fn reset_counters(&self) {
        self.counters.iter().for_each(|c| c.store(0, Relaxed));
        lock(&self.evicted_keys).clear();
    }

    /// Drops every entry and zeroes the counters; the epoch and pins stay.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let mut map = write(shard);
            map.values().for_each(|e| self.note_removed(e.bytes));
            map.clear();
        }
        self.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value that weighs exactly its payload.
    #[derive(Clone, Debug, PartialEq)]
    struct Blob(usize);

    impl Weigh for Blob {
        fn weigh(&self) -> usize {
            self.0
        }
    }

    type Map = BudgetedMap<String, Blob>;

    fn map(max_bytes: Option<usize>, max_entries: Option<usize>, ttl_epochs: Option<u64>) -> Map {
        BudgetedMap::new(CacheBudget {
            max_bytes,
            max_entries,
            ttl_epochs,
        })
    }

    fn unbounded() -> Map {
        map(None, None, None)
    }

    /// Inserts a 100-byte value built in `nanos`.
    fn put(m: &Map, key: &str, epoch: u64, nanos: u64) {
        m.insert(key.into(), Blob(100), epoch, Duration::from_nanos(nanos));
    }

    fn get(m: &Map, key: &str, epoch: u64) -> Lookup<Blob> {
        m.lookup(&key.to_owned(), epoch)
    }

    fn has(m: &Map, key: &str, epoch: u64) -> bool {
        m.contains_at(&key.to_owned(), epoch)
    }

    #[test]
    fn lookup_is_fresh_at_its_epoch_claims_at_the_live_one_and_misses_otherwise() {
        let m = unbounded();
        put(&m, "k", 0, 100);
        m.advance_epoch(2);
        // A reader pinned to the entry's epoch hits it, claiming nothing.
        assert!(matches!(get(&m, "k", 0), Lookup::Fresh(Blob(100))));
        // A reader pinned to epoch 1 (neither the entry's nor the live
        // one) misses and leaves the entry for the live readers.
        assert!(matches!(get(&m, "k", 1), Lookup::Miss));
        assert_eq!(m.occupancy_entries(), 1);
        // A live reader claims it: removed and handed over by value.
        assert!(matches!(get(&m, "k", 2), Lookup::Stale(Blob(100))));
        assert_eq!((m.occupancy_entries(), m.occupancy_bytes()), (0, 0));
        assert!(matches!(get(&m, "k", 2), Lookup::Miss));
        assert_eq!(
            (
                m.count(Counter::Hits),
                m.count(Counter::Misses),
                m.count(Counter::StaleHits)
            ),
            (1, 2, 1)
        );
        // Neither the claim nor the refreshed re-insert is an eviction.
        put(&m, "k", 2, 100);
        assert_eq!(m.evictions(), EvictionCounters::default());
    }

    #[test]
    fn newest_epoch_wins_and_displaced_stale_entries_are_counted() {
        let m = unbounded();
        m.advance_epoch(4);
        put(&m, "k", 3, 100);
        put(&m, "k", 1, 100); // an older reader's recompute: ignored
        assert!(has(&m, "k", 3) && !has(&m, "k", 1));
        put(&m, "k", 4, 100); // displaces the unclaimed epoch-3 entry
        assert!(has(&m, "k", 4));
        assert_eq!(m.evictions().by_stale, 1);
        assert_eq!(m.occupancy_entries(), 1);
        // An old-epoch insert under a *new* key does land.
        put(&m, "old-only", 1, 100);
        assert!(has(&m, "old-only", 1));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn epoch_cannot_move_backward() {
        let m = unbounded();
        m.advance_epoch(2);
        m.advance_epoch(1);
    }

    #[test]
    fn occupancy_tracks_every_mutation() {
        let m = unbounded();
        put(&m, "a", 0, 10);
        assert_eq!((m.occupancy_bytes(), m.occupancy_entries()), (100, 1));
        // Replacement at the same key swaps the bytes, not the count.
        m.insert("a".into(), Blob(250), 0, Duration::ZERO);
        assert_eq!((m.occupancy_bytes(), m.occupancy_entries()), (250, 1));
        put(&m, "b", 0, 10);
        assert_eq!((m.occupancy_bytes(), m.occupancy_entries()), (350, 2));
        m.clear();
        assert_eq!((m.occupancy_bytes(), m.occupancy_entries()), (0, 0));
    }

    #[test]
    fn byte_budget_evicts_lowest_score_first() {
        let m = map(Some(200), None, None);
        put(&m, "expensive", 0, 30_000);
        put(&m, "cheap", 0, 1_000);
        put(&m, "middling", 0, 20_000);
        // Equal bytes, so the lowest build cost scores lowest and goes.
        assert!(has(&m, "expensive", 0) && has(&m, "middling", 0));
        assert!(!has(&m, "cheap", 0));
        assert_eq!(m.evictions().by_bytes, 1);
        // The miss that rebuilds the evicted key is counted once.
        assert!(matches!(get(&m, "cheap", 0), Lookup::Miss));
        assert!(matches!(get(&m, "cheap", 0), Lookup::Miss));
        assert_eq!(m.evictions().rebuilds_after_evict, 1);
    }

    /// Unmeasured entries all tie on score, so never-hit ones leave in
    /// insertion order.
    #[test]
    fn uncosted_entries_evict_oldest_first() {
        let m = map(None, Some(2), None);
        for key in ["a", "b", "c"] {
            put(&m, key, 0, 0);
        }
        assert!(!has(&m, "a", 0) && has(&m, "b", 0) && has(&m, "c", 0));
        assert_eq!(m.evictions().by_entries, 1);
    }

    #[test]
    fn entry_budget_evicts_with_recency_tie_break() {
        let m = map(None, Some(2), None);
        // Identical scores: the least-recently-hit entry goes.
        put(&m, "old", 0, 5_000);
        put(&m, "warm", 0, 5_000);
        assert!(matches!(get(&m, "old", 0), Lookup::Fresh(_)));
        put(&m, "new", 0, 5_000);
        assert!(has(&m, "old", 0) && has(&m, "new", 0));
        assert!(!has(&m, "warm", 0));
    }

    /// Scores within the same order of magnitude count as a tie —
    /// measured build times jitter, and a raw float comparison would let
    /// a hot entry lose to a cold one over measurement noise.
    #[test]
    fn comparable_scores_tie_and_recency_decides() {
        let m = map(None, Some(2), None);
        // "hot" measured slightly cheaper than "cold" (same power-of-8
        // class): they tie and recency keeps the re-hit one.
        put(&m, "hot", 0, 5_000);
        put(&m, "cold", 0, 6_000);
        assert!(matches!(get(&m, "hot", 0), Lookup::Fresh(_)));
        put(&m, "new", 0, 5_500);
        assert!(has(&m, "hot", 0) && !has(&m, "cold", 0));
        // An order-of-magnitude gap is *not* a tie: the far cheaper
        // rebuild goes first however recently it arrived — here the
        // newcomer itself, evicted by its own insert's enforcement.
        put(&m, "trivial", 0, 55);
        assert!(!has(&m, "trivial", 0));
        assert!(has(&m, "hot", 0) && has(&m, "new", 0));
    }

    /// Replacing a value at the same epoch must not push the entry back in
    /// the eviction order.
    #[test]
    fn same_epoch_reinsert_keeps_the_entry_age() {
        let m = map(None, Some(2), None);
        put(&m, "a", 0, 0);
        put(&m, "b", 0, 0);
        m.insert("a".into(), Blob(300), 0, Duration::ZERO);
        assert_eq!(m.occupancy_bytes(), 400);
        put(&m, "c", 0, 0);
        assert!(!has(&m, "a", 0) && has(&m, "b", 0) && has(&m, "c", 0));
    }

    #[test]
    fn pinned_epochs_survive_eviction() {
        let m = map(None, Some(1), None);
        put(&m, "a", 0, 100);
        m.pin(0);
        assert_eq!(m.pinned_occupancy_bytes(), 100);
        m.advance_epoch(1);
        // Over budget, but only the unpinned newcomer is evictable.
        put(&m, "b", 1, 1_000_000);
        assert!(has(&m, "a", 0) && !has(&m, "b", 1));
        m.unpin(0);
        assert_eq!(m.pinned_occupancy_bytes(), 0);
        put(&m, "b", 1, 1_000_000);
        assert!(!has(&m, "a", 0) && has(&m, "b", 1));
    }

    #[test]
    fn ttl_sweep_drops_unpinned_entries_behind_the_live_epoch() {
        let m = map(None, None, Some(1));
        put(&m, "k", 0, 100);
        put(&m, "pinned", 0, 100);
        m.advance_epoch(1); // lag 1 ≤ ttl: kept (still refreshable)
        assert_eq!(m.occupancy_entries(), 2);
        m.pin(0);
        m.advance_epoch(2); // lag 2 > ttl, but epoch 0 is pinned
        assert_eq!(m.occupancy_entries(), 2);
        m.unpin(0);
        m.advance_epoch(3);
        assert_eq!(m.occupancy_entries(), 0);
        assert_eq!(m.evictions().by_ttl, 2);
    }

    #[test]
    fn retained_at_lists_best_to_keep_first() {
        let m = unbounded();
        put(&m, "cheap", 0, 1_000);
        put(&m, "dear", 0, 30_000);
        put(&m, "mid-old", 0, 20_000);
        put(&m, "mid-new", 0, 20_000);
        put(&m, "elsewhere", 1, 30_000);
        let keys: Vec<String> = m.retained_at(0).into_iter().map(|e| e.0).collect();
        // The reverse of the victim order: class, then recency, then key.
        assert_eq!(
            keys,
            ["mid-new", "mid-old", "dear", "cheap"].map(String::from)
        );
        let (_, _, bytes, nanos) = &m.retained_at(0)[0];
        assert_eq!((*bytes, *nanos), (100, 20_000));
    }

    /// The counters are atomics so metrics stay exact while concurrent
    /// readers hammer the map.
    #[test]
    fn counters_are_exact_under_concurrent_readers() {
        const THREADS: usize = 8;
        const LOOKUPS: u64 = 200;
        let m = unbounded();
        put(&m, "warm", 0, 100);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let m = &m;
                s.spawn(move || {
                    for i in 0..LOOKUPS {
                        assert!(matches!(get(m, "warm", 0), Lookup::Fresh(_)));
                        assert!(matches!(get(m, &format!("no-{t}-{i}"), 0), Lookup::Miss));
                    }
                });
            }
        });
        assert_eq!(m.count(Counter::Hits), THREADS as u64 * LOOKUPS);
        assert_eq!(m.count(Counter::Misses), THREADS as u64 * LOOKUPS);
        m.reset_counters();
        assert_eq!(
            (
                m.count(Counter::Hits),
                m.count(Counter::Misses),
                m.count(Counter::StaleHits)
            ),
            (0, 0, 0)
        );
        assert_eq!(m.occupancy_entries(), 1);
    }

    /// Concurrent fillers racing on the same and different keys leave the
    /// map consistent: every key present and fresh, occupancy exact.
    #[test]
    fn concurrent_inserts_and_lookups_stay_consistent() {
        const THREADS: usize = 8;
        let m = unbounded();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let m = &m;
                s.spawn(move || {
                    for round in 0..50 {
                        let contended = format!("key-{}", round % 4);
                        let private = format!("key-{t}-{round}");
                        put(m, &contended, 0, 100);
                        put(m, &private, 0, 100);
                        assert!(matches!(get(m, &contended, 0), Lookup::Fresh(_)));
                        assert!(matches!(get(m, &private, 0), Lookup::Fresh(_)));
                    }
                });
            }
        });
        let entries = 4 + THREADS * 50;
        assert_eq!(m.occupancy_entries(), entries);
        assert_eq!(m.occupancy_bytes(), entries * 100);
        assert_eq!(m.retained_at(0).len(), entries);
        assert_eq!(m.count(Counter::Misses), 0);
    }
}
