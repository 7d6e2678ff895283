//! The shared-structure cache of Algorithm 1 lines 9–11: "If the RTC
//! for R exists, we reuse \[it\]. Otherwise, we compute and store \[it\]
//! to share." The key is the *closure body* `R` (canonicalized), not the
//! closure — `R+` and `R*` share one entry, which is how Example 7's
//! `(a·b)*` reuses the RTC computed for `a·(a·b)+·b`.
//!
//! [`SharedCache`] is one instance of the crate's budgeted, epoch-aware
//! map, keyed by (sharing kind, canonical `R`). Entries are stamped with
//! the graph epoch they were built at; after `Engine::apply_delta` a live
//! lookup claims an older entry as [`RtcLookup::Stale`] /
//! [`FullLookup::Stale`], handing over what an *incremental* refresh
//! needs (the base relation to diff, the [`DynamicRtc`] to feed) instead
//! of serving a closure of a graph that no longer exists. A
//! [`CacheBudget`] caps the footprint: the cheapest-to-rebuild bytes go
//! first (by order of magnitude, then least-recently-hit, then key),
//! never entries of an epoch pinned by a live [`EpochPin`]. Eviction
//! never changes results — an evicted structure is rebuilt on its next
//! miss — it only trades memory for rebuild time.

pub use crate::budgeted_map::Lookup;
use crate::budgeted_map::{BudgetedMap, Counter, Weigh};
use crate::sharing::SharingKind;
use rpq_graph::PairSet;
use rpq_reduction::{DynamicRtc, FullTc, Rtc};
use std::sync::Arc;
use std::time::Duration;

/// Retention budget for the engine's caches. `Default` is unbounded on
/// every axis — the pre-budget behavior.
///
/// Parsed from specs like `64k`, `bytes=1m,entries=128,ttl=4` (sizes
/// take `k`/`m`/`g` binary suffixes; a bare size means `max_bytes`), set
/// via [`crate::EngineConfig::cache_budget`], the `RPQ_CACHE_BUDGET`
/// environment variable or the server's `--cache-budget` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum retained heap bytes; `None` = unbounded. Binds the
    /// structural cache and, separately, the result cache.
    pub max_bytes: Option<usize>,
    /// Maximum retained structural entries; `None` = unbounded. The result
    /// cache has a fixed bound instead
    /// ([`crate::result_cache::DEFAULT_RESULT_CACHE_ENTRIES`]).
    pub max_entries: Option<usize>,
    /// Structural entries more than this many epochs behind the live one
    /// are dropped on every epoch advance; `None` keeps stale entries (they
    /// back incremental refreshes). Result-cache entries never go stale
    /// (the epoch is part of their key), so this does not apply to them.
    pub ttl_epochs: Option<u64>,
}

impl CacheBudget {
    /// Whether no axis is bounded (the default).
    pub fn is_unbounded(&self) -> bool {
        *self == Self::default()
    }

    /// Parses a budget spec: comma-separated `bytes=SIZE`, `entries=N`,
    /// `ttl=N` parts, a bare `SIZE` (meaning `bytes=SIZE`), or the word
    /// `unbounded`. Sizes accept `k`/`m`/`g` binary suffixes
    /// (case-insensitive). Returns `None` on anything malformed.
    pub fn parse(spec: &str) -> Option<Self> {
        fn size(s: &str) -> Option<usize> {
            let s = s.trim();
            let (digits, mult) = match s.as_bytes().last()? {
                b'k' | b'K' => (&s[..s.len() - 1], 1usize << 10),
                b'm' | b'M' => (&s[..s.len() - 1], 1usize << 20),
                b'g' | b'G' => (&s[..s.len() - 1], 1usize << 30),
                _ => (s, 1usize),
            };
            digits.trim().parse::<usize>().ok()?.checked_mul(mult)
        }
        if spec.trim().eq_ignore_ascii_case("unbounded") {
            return Some(Self::default());
        }
        let mut budget = Self::default();
        let mut any = false;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = match part.split_once('=') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => ("bytes", part),
            };
            match key {
                "bytes" => budget.max_bytes = Some(size(value)?),
                "entries" => budget.max_entries = Some(value.parse().ok()?),
                "ttl" => budget.ttl_epochs = Some(value.parse().ok()?),
                _ => return None,
            }
            any = true;
        }
        any.then_some(budget)
    }

    /// The budget named by `RPQ_CACHE_BUDGET`, or the unbounded default
    /// when the variable is unset or malformed (mirrors
    /// `RowSetPolicy::from_env_or_default`).
    pub fn from_env_or_default() -> Self {
        match std::env::var("RPQ_CACHE_BUDGET") {
            Ok(spec) => Self::parse(&spec).unwrap_or_default(),
            Err(_) => Self::default(),
        }
    }
}

impl std::fmt::Display for CacheBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_unbounded() {
            return write!(f, "unbounded");
        }
        let mut parts = Vec::new();
        if let Some(b) = self.max_bytes {
            parts.push(format!("bytes={b}"));
        }
        if let Some(e) = self.max_entries {
            parts.push(format!("entries={e}"));
        }
        if let Some(t) = self.ttl_epochs {
            parts.push(format!("ttl={t}"));
        }
        write!(f, "{}", parts.join(","))
    }
}

/// Point-in-time copy of the eviction counters, by reason.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictionCounters {
    /// Entries evicted because the byte budget overflowed.
    pub by_bytes: u64,
    /// Entries evicted because the entry budget overflowed.
    pub by_entries: u64,
    /// Entries dropped by the TTL sweep.
    pub by_ttl: u64,
    /// Stale entries displaced by a newer-epoch insert under their key
    /// (a claimed-and-refreshed entry is not one: the claim removed it).
    pub by_stale: u64,
    /// Misses on keys that were previously evicted by the budget or the
    /// TTL sweep — each one is a rebuild the budget caused.
    pub rebuilds_after_evict: u64,
}

impl EvictionCounters {
    /// Total evictions across every reason.
    pub fn total(&self) -> u64 {
        self.by_bytes + self.by_entries + self.by_ttl + self.by_stale
    }
}

/// RAII pin on an epoch: while any pin for epoch `E` is alive, eviction
/// and the TTL sweep spare entries stamped `E`, so a retained
/// [`crate::EpochView`] keeps getting fresh hits for the structures it
/// already paid for.
pub struct EpochPin {
    cache: Arc<SharedCache>,
    epoch: u64,
}

impl EpochPin {
    /// Pins `epoch` in `cache` until the returned guard drops.
    pub fn new(cache: Arc<SharedCache>, epoch: u64) -> Self {
        cache.map.pin(epoch);
        Self { cache, epoch }
    }

    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        self.cache.map.unpin(self.epoch);
    }
}

/// One cached shared structure with the base relation `R_G` it was built
/// from — the diff base for refreshes (`None` only for entries restored
/// without one, which refresh by rebuild).
#[derive(Clone)]
pub enum SharedStructure {
    /// RTCSharing's reduced transitive closure.
    Rtc {
        /// The structure.
        rtc: Arc<Rtc>,
        /// The base relation it was built from.
        r_g: Option<Arc<PairSet>>,
        /// The maintainable form, once a refresh built one (not counted
        /// against the budget).
        dynamic: Option<Arc<DynamicRtc>>,
    },
    /// FullSharing's materialized `R⁺_G`.
    Full {
        /// The structure.
        full: Arc<FullTc>,
        /// The base relation it was built from.
        r_g: Option<Arc<PairSet>>,
    },
}

impl SharedStructure {
    fn kind(&self) -> SharingKind {
        match self {
            Self::Rtc { .. } => SharingKind::Rtc,
            Self::Full { .. } => SharingKind::Full,
        }
    }
}

impl Weigh for SharedStructure {
    /// The structure's tables plus its recorded base relation.
    fn weigh(&self) -> usize {
        let (tables, r_g) = match self {
            Self::Rtc { rtc, r_g, .. } => (rtc.closure_heap_bytes(), r_g),
            Self::Full { full, r_g } => (full.heap_bytes(), r_g),
        };
        tables + r_g.as_ref().map_or(0, |p| p.heap_bytes())
    }
}

/// Result of an epoch-aware RTC lookup.
pub type RtcLookup = Lookup<Arc<Rtc>, StaleRtc>;

/// Result of an epoch-aware full-closure lookup.
pub type FullLookup = Lookup<Arc<FullTc>, StaleFull>;

/// The refreshable state of a claimed stale RTC entry.
pub struct StaleRtc {
    /// The stale structure (still correct for the epoch it was built at).
    pub rtc: Arc<Rtc>,
    /// The base relation it was built from, if recorded.
    pub r_g: Option<Arc<PairSet>>,
    /// The maintainable form, if an earlier refresh already built one.
    pub dynamic: Option<Arc<DynamicRtc>>,
}

/// The refreshable state of a claimed stale full-closure entry.
pub struct StaleFull {
    /// The stale structure.
    pub full: Arc<FullTc>,
    /// The base relation it was built from, if recorded.
    pub r_g: Option<Arc<PairSet>>,
}

/// Cache of shared structures keyed by the canonical form of `R` (see the
/// module docs). All methods take `&self`, so the engine, its pinned views
/// and concurrent server connections read and fill one cache.
pub struct SharedCache {
    map: BudgetedMap<(SharingKind, String), SharedStructure>,
}

impl Default for SharedCache {
    /// An empty, **unbounded** cache at epoch 0.
    fn default() -> Self {
        Self::with_budget(CacheBudget::default())
    }
}

impl SharedCache {
    /// An empty cache at epoch 0 enforcing `budget` on every insert.
    pub fn with_budget(budget: CacheBudget) -> Self {
        Self {
            map: BudgetedMap::new(budget),
        }
    }

    /// The retention budget this cache enforces.
    pub fn budget(&self) -> CacheBudget {
        self.map.budget()
    }

    /// The graph epoch this cache currently serves.
    pub fn epoch(&self) -> u64 {
        self.map.epoch()
    }

    /// Moves the cache to a newer graph epoch (existing entries become
    /// stale) and runs the TTL sweep. Panics if `epoch` moves backward.
    pub fn advance_epoch(&self, epoch: u64) {
        self.map.advance_epoch(epoch);
    }

    /// RTC lookup at `epoch` (the live one, or an [`crate::EpochView`]'s
    /// pinned one): an entry stamped `epoch` is [`RtcLookup::Fresh`]; at
    /// the live epoch an older entry is claimed — removed and handed over
    /// to be refreshed and re-inserted; anything else is a miss that
    /// leaves the entry for live readers.
    pub fn lookup_rtc_at(&self, key: &str, epoch: u64) -> RtcLookup {
        match self.map.lookup(&(SharingKind::Rtc, key.to_owned()), epoch) {
            Lookup::Fresh(SharedStructure::Rtc { rtc, .. }) => Lookup::Fresh(rtc),
            Lookup::Stale(SharedStructure::Rtc { rtc, r_g, dynamic }) => {
                Lookup::Stale(StaleRtc { rtc, r_g, dynamic })
            }
            _ => Lookup::Miss,
        }
    }

    /// Epoch-aware full-closure lookup (see [`SharedCache::lookup_rtc_at`]).
    pub fn lookup_full_at(&self, key: &str, epoch: u64) -> FullLookup {
        match self.map.lookup(&(SharingKind::Full, key.to_owned()), epoch) {
            Lookup::Fresh(SharedStructure::Full { full, .. }) => Lookup::Fresh(full),
            Lookup::Stale(SharedStructure::Full { full, r_g }) => {
                Lookup::Stale(StaleFull { full, r_g })
            }
            _ => Lookup::Miss,
        }
    }

    /// Stores `structure` under `key` stamped `epoch`, with `build` — the
    /// wall clock spent constructing it — as its cost to rebuild. Never
    /// displaces a **newer** epoch's entry, so a reader pinned to an older
    /// view cannot clobber what live readers share.
    pub fn insert(&self, key: String, structure: SharedStructure, epoch: u64, build: Duration) {
        self.map
            .insert((structure.kind(), key), structure, epoch, build);
    }

    /// Whether a live-epoch structure of `kind` exists for `key`; counts
    /// nothing.
    pub(crate) fn contains_fresh(&self, kind: SharingKind, key: &str) -> bool {
        self.map.contains_at(&(kind, key.to_owned()), self.epoch())
    }

    /// Copies of the live-epoch entries as `(key, structure, retained
    /// bytes, build nanos)`, best-to-keep first (the reverse of the
    /// eviction order) — what an engine snapshot persists.
    pub fn fresh_entries(&self) -> Vec<(String, SharedStructure, usize, u64)> {
        self.map
            .retained_at(self.epoch())
            .into_iter()
            .map(|((_, key), structure, bytes, nanos)| (key, structure, bytes, nanos))
            .collect()
    }

    fn sum_rtcs(&self, f: impl Fn(&Rtc) -> usize) -> usize {
        self.map.sum(|s| match s {
            SharedStructure::Rtc { rtc, .. } => f(rtc),
            SharedStructure::Full { .. } => 0,
        })
    }

    fn sum_fulls(&self, f: impl Fn(&FullTc) -> usize) -> usize {
        self.map.sum(|s| match s {
            SharedStructure::Full { full, .. } => f(full),
            SharedStructure::Rtc { .. } => 0,
        })
    }

    /// Number of cached RTCs (fresh or stale).
    pub fn rtc_count(&self) -> usize {
        self.sum_rtcs(|_| 1)
    }

    /// Number of cached full closures (fresh or stale).
    pub fn full_count(&self) -> usize {
        self.sum_fulls(|_| 1)
    }

    /// Fresh hits since creation or the last counter reset.
    pub fn hits(&self) -> u64 {
        self.map.count(Counter::Hits)
    }

    /// Misses since creation or the last counter reset.
    pub fn misses(&self) -> u64 {
        self.map.count(Counter::Misses)
    }

    /// Lookups that claimed an entry from an older epoch (each one leads
    /// to a refresh, not a recompute-from-nothing).
    pub fn stale_hits(&self) -> u64 {
        self.map.count(Counter::StaleHits)
    }

    /// Total pairs held in cached RTCs (`Σ |TC(Ḡ_R)|`) — RTCSharing's
    /// shared-data size in Fig. 12.
    pub fn rtc_shared_pairs(&self) -> usize {
        self.sum_rtcs(Rtc::closure_pair_count)
    }

    /// Total pairs held in cached full closures (`Σ |R⁺_G|`) — FullSharing's
    /// shared-data size in Fig. 12.
    pub fn full_shared_pairs(&self) -> usize {
        self.sum_fulls(FullTc::pair_count)
    }

    /// Sum of `|V̄_R|` (SCC counts) across cached RTCs — RTCSharing's
    /// vertex-count metric in Fig. 13.
    pub fn rtc_total_sccs(&self) -> usize {
        self.sum_rtcs(Rtc::scc_count)
    }

    /// Sum of `|V_R|` across cached full closures — FullSharing's
    /// vertex-count metric in Fig. 13.
    pub fn full_total_vertices(&self) -> usize {
        self.sum_fulls(FullTc::vertex_count)
    }

    /// Heap bytes held by cached RTC closure tables.
    pub fn rtc_heap_bytes(&self) -> usize {
        self.sum_rtcs(Rtc::closure_heap_bytes)
    }

    /// Heap bytes held by cached full closures.
    pub fn full_heap_bytes(&self) -> usize {
        self.sum_fulls(FullTc::heap_bytes)
    }

    /// Number of dense (bitset-backed) rows across cached RTC closures.
    pub fn rtc_dense_rows(&self) -> usize {
        self.sum_rtcs(Rtc::dense_closure_rows)
    }

    /// Number of dense rows across cached full closures.
    pub fn full_dense_rows(&self) -> usize {
        self.sum_fulls(FullTc::dense_rows)
    }

    /// Resets the lookup and eviction counters, keeping every structure.
    pub fn reset_counters(&self) {
        self.map.reset_counters();
    }

    /// Point-in-time copy of the eviction counters.
    pub fn eviction_counters(&self) -> EvictionCounters {
        self.map.evictions()
    }

    /// Retained heap bytes: structures plus recorded base relations — the
    /// footprint the byte budget governs.
    pub fn occupancy_bytes(&self) -> usize {
        self.map.occupancy_bytes()
    }

    /// Retained entries (RTCs plus full closures).
    pub fn occupancy_entries(&self) -> usize {
        self.map.occupancy_entries()
    }

    /// Retained bytes of pinned epochs' entries — what eviction cannot
    /// reclaim.
    pub fn pinned_occupancy_bytes(&self) -> usize {
        self.map.pinned_occupancy_bytes()
    }

    /// Evicts until the budget holds or only pinned entries remain. Inserts
    /// call this themselves; call it to settle the budget after pins drop.
    pub fn enforce_budget(&self) {
        self.map.enforce_budget();
    }

    /// Drops all cached structures and resets counters; the epoch stays.
    pub fn clear(&self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pairs() -> PairSet {
        [(0u32, 1u32), (1, 0)].into_iter().collect()
    }

    fn rtc(r_g: Option<PairSet>) -> SharedStructure {
        SharedStructure::Rtc {
            rtc: Arc::new(Rtc::from_pairs(&sample_pairs())),
            r_g: r_g.map(Arc::new),
            dynamic: None,
        }
    }

    fn full(pairs: &PairSet) -> SharedStructure {
        SharedStructure::Full {
            full: Arc::new(FullTc::from_pairs(pairs)),
            r_g: Some(Arc::new(pairs.clone())),
        }
    }

    /// Inserts at the live epoch with no measured build cost.
    fn put(c: &SharedCache, key: &str, structure: SharedStructure) {
        c.insert(key.into(), structure, c.epoch(), Duration::ZERO);
    }

    fn fresh_rtc(c: &SharedCache, key: &str) -> bool {
        c.contains_fresh(SharingKind::Rtc, key)
    }

    #[test]
    fn hit_miss_accounting() {
        let c = SharedCache::default();
        assert!(matches!(c.lookup_rtc_at("a.b", 0), RtcLookup::Miss));
        assert_eq!(c.misses(), 1);
        put(&c, "a.b", rtc(None));
        assert!(matches!(c.lookup_rtc_at("a.b", 0), RtcLookup::Fresh(_)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.rtc_count(), 1);
    }

    #[test]
    fn shared_pair_totals() {
        let c = SharedCache::default();
        put(&c, "a.b", rtc(None));
        // One 2-cycle SCC with a self-reach: closure has 1 pair.
        assert_eq!(c.rtc_shared_pairs(), 1);
        assert_eq!(c.rtc_total_sccs(), 1);
        put(&c, "a.b", full(&sample_pairs()));
        // Full closure: both vertices reach both → 4 pairs.
        assert_eq!(c.full_shared_pairs(), 4);
        assert_eq!(c.full_total_vertices(), 2);
    }

    #[test]
    fn rtc_and_full_are_independent_namespaces() {
        let c = SharedCache::default();
        put(&c, "k", rtc(None));
        assert!(matches!(c.lookup_full_at("k", 0), FullLookup::Miss));
        assert_eq!(c.full_count(), 0);
        put(&c, "k", full(&sample_pairs()));
        assert_eq!((c.rtc_count(), c.full_count()), (1, 1));
        assert_eq!(c.occupancy_entries(), 2);
    }

    /// The byte budget counts each structure's tables plus its recorded
    /// base relation.
    #[test]
    fn occupancy_counts_structures_and_base_relations() {
        let c = SharedCache::default();
        put(&c, "k", rtc(Some(sample_pairs())));
        assert_eq!(
            c.occupancy_bytes(),
            c.rtc_heap_bytes() + sample_pairs().heap_bytes()
        );
    }

    #[test]
    fn clear_resets_everything() {
        let c = SharedCache::default();
        put(&c, "x", rtc(None));
        let _ = c.lookup_rtc_at("x", 0);
        c.clear();
        assert_eq!(c.rtc_count(), 0);
        assert_eq!((c.hits(), c.misses(), c.occupancy_bytes()), (0, 0, 0));
    }

    #[test]
    fn reset_counters_preserves_structures() {
        let c = SharedCache::default();
        put(&c, "x", rtc(None));
        let _ = c.lookup_rtc_at("x", 0);
        let _ = c.lookup_rtc_at("missing", 0);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        c.reset_counters();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert_eq!(c.rtc_count(), 1);
        assert_eq!(c.rtc_shared_pairs(), 1);
    }

    #[test]
    fn entries_go_stale_when_the_epoch_advances() {
        let c = SharedCache::default();
        put(&c, "k", rtc(Some(sample_pairs())));
        assert!(fresh_rtc(&c, "k"));
        c.advance_epoch(1);
        assert!(!fresh_rtc(&c, "k"));
        // The live lookup claims the entry with its refresh state.
        match c.lookup_rtc_at("k", 1) {
            RtcLookup::Stale(stale) => assert_eq!(*stale.r_g.unwrap(), sample_pairs()),
            _ => panic!("expected a stale entry"),
        }
        assert_eq!((c.stale_hits(), c.rtc_count()), (1, 0));
        // Re-inserting at the new epoch makes it fresh again.
        put(&c, "k", rtc(Some(sample_pairs())));
        assert!(matches!(c.lookup_rtc_at("k", 1), RtcLookup::Fresh(_)));
    }

    /// Full closures are claimed like RTCs, so refreshing one is not a
    /// `by_stale` eviction.
    #[test]
    fn full_entries_are_claimed_when_stale_too() {
        let c = SharedCache::default();
        put(&c, "k", full(&sample_pairs()));
        c.advance_epoch(3);
        assert!(!c.contains_fresh(SharingKind::Full, "k"));
        match c.lookup_full_at("k", 3) {
            FullLookup::Stale(stale) => assert_eq!(*stale.r_g.unwrap(), sample_pairs()),
            _ => panic!("expected a stale entry"),
        }
        assert_eq!(c.full_count(), 0);
        put(&c, "k", full(&sample_pairs()));
        assert_eq!(c.eviction_counters().total(), 0);
    }

    #[test]
    fn pinned_lookup_hits_its_own_epoch_after_the_front_moves() {
        let c = SharedCache::default();
        put(&c, "k", rtc(None));
        c.advance_epoch(2);
        // A reader pinned to epoch 0 still gets a fresh hit — and, being
        // a read, must not claim anything.
        assert!(matches!(c.lookup_rtc_at("k", 0), RtcLookup::Fresh(_)));
        assert_eq!(c.rtc_count(), 1);
        assert_eq!((c.hits(), c.stale_hits()), (1, 0));
        // Pinned to epoch 1: neither fresh nor claimable — a plain miss.
        assert!(matches!(c.lookup_rtc_at("k", 1), RtcLookup::Miss));
        assert!(matches!(c.lookup_full_at("k", 1), FullLookup::Miss));
        assert_eq!((c.rtc_count(), c.misses()), (1, 2));
    }

    #[test]
    fn pinned_insert_never_displaces_newer_entries() {
        let c = SharedCache::default();
        c.advance_epoch(4);
        put(&c, "f", full(&sample_pairs())); // stamped 4 (live)
        let old = full(&PairSet::new());
        c.insert("f".into(), old, 2, Duration::ZERO); // old view: ignored
        assert!(c.contains_fresh(SharingKind::Full, "f"));
        assert_eq!(c.full_shared_pairs(), 4); // the epoch-4 entry survived
    }

    #[test]
    fn fresh_entries_are_point_in_time_copies_best_to_keep_first() {
        let c = SharedCache::default();
        for (key, nanos) in [("cheap", 1_000u64), ("dear", 900_000)] {
            c.insert(
                key.into(),
                rtc(Some(sample_pairs())),
                0,
                Duration::from_nanos(nanos),
            );
        }
        let fresh = c.fresh_entries();
        let keys: Vec<&str> = fresh.iter().map(|e| e.0.as_str()).collect();
        assert_eq!(keys, ["dear", "cheap"]);
        assert!(fresh.iter().all(|e| e.2 == c.occupancy_bytes() / 2));
        c.advance_epoch(1);
        assert!(c.fresh_entries().is_empty());
        // The earlier copy is unaffected by the advance.
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn epoch_pins_guard_until_dropped() {
        let c = Arc::new(SharedCache::with_budget(CacheBudget {
            max_entries: Some(1),
            ..Default::default()
        }));
        put(&c, "a", rtc(None));
        let pin = EpochPin::new(Arc::clone(&c), 0);
        assert_eq!(pin.epoch(), 0);
        assert_eq!(c.pinned_occupancy_bytes(), c.occupancy_bytes());
        c.advance_epoch(1);
        put(&c, "b", rtc(None)); // over budget; only "b" is evictable
        assert!(matches!(c.lookup_rtc_at("a", 0), RtcLookup::Fresh(_)));
        drop(pin);
        assert_eq!(c.pinned_occupancy_bytes(), 0);
        put(&c, "b", rtc(None));
        assert_eq!(c.occupancy_entries(), 1);
        assert!(matches!(c.lookup_rtc_at("a", 0), RtcLookup::Miss));
    }

    #[test]
    fn budget_specs_parse() {
        assert_eq!(CacheBudget::parse(""), None);
        assert_eq!(CacheBudget::parse("nope=3"), None);
        assert_eq!(CacheBudget::parse("bytes=abc"), None);
        assert_eq!(
            CacheBudget::parse("unbounded"),
            Some(CacheBudget::default())
        );
        assert_eq!(
            CacheBudget::parse("64k"),
            Some(CacheBudget {
                max_bytes: Some(64 << 10),
                ..Default::default()
            })
        );
        let full = CacheBudget::parse("bytes=1M, entries=128, ttl=4").unwrap();
        assert_eq!(full.max_bytes, Some(1 << 20));
        assert_eq!(full.max_entries, Some(128));
        assert_eq!(full.ttl_epochs, Some(4));
        assert_eq!(full.to_string(), "bytes=1048576,entries=128,ttl=4");
        assert_eq!(CacheBudget::default().to_string(), "unbounded");
        assert!(CacheBudget::default().is_unbounded());
        assert!(!full.is_unbounded());
    }
}
