//! A sharded read-through cache: cross-batch I/O sharing for concurrent
//! serving.
//!
//! A memo table behind one mutex is fine for a single executor but
//! serializes a worker pool.  [`ShardedCachingStore`] splits the table
//! across independently locked shards, so concurrent batches miss-fetch and
//! hit on *different* coefficients in parallel, and a coefficient fetched
//! for one batch is served from memory to every other in-flight batch.
//!
//! Each shard's lock is held across the inner fetch, so a resident
//! coefficient is physically fetched **exactly once** no matter how many
//! batches race on it — the property the `batchbb-serve` pool's
//! fewer-fetches guarantee rests on.
//!
//! # Bounded capacity
//!
//! By default the memo table is unbounded, which is fine for one serving
//! run over a finite master list but not for a long-lived server. With
//! [`ShardedCachingStore::with_capacity`] the resident set is capped:
//! when a shard overflows, the entry with the smallest
//! importance weight (`|value|`, with memoized absences weighing zero) is
//! evicted, ties broken least-recently-used. Eviction only weakens the
//! fetch guarantee from *exactly once* to *at most once while resident* —
//! an evicted key simply reads through again.
//!
//! # Version awareness
//!
//! Memo entries are keyed by `(version, key)` where `version` is the inner
//! store's [`CoefficientStore::version_tag`] at lookup time.  For
//! unversioned stores the tag is the constant `0` and nothing changes; over
//! a [`crate::VersionedStore`]/[`crate::VersionView`] a version advance
//! silently retires the old version's entries (they stop matching) instead
//! of serving stale values, and entries belonging to *untouched* versions
//! survive — publishing never blows away another reader's warm cache, and
//! nothing ever has to be invalidated.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use batchbb_tensor::CoeffKey;
use parking_lot::Mutex;

use crate::fingerprint;
use crate::stats::Counters;
use crate::{CoefficientStore, IoStats, StorageError};

/// Default shard count, matching [`crate::VersionedStore`].
const DEFAULT_SHARDS: usize = 16;

/// One memoized coefficient: `None` memoizes "absent" (a zero
/// coefficient) just like a value — absence is a cacheable answer.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    value: Option<f64>,
    /// Last-touch stamp from the shard's logical clock (LRU tie-break).
    touch: u64,
}

impl CacheEntry {
    /// Eviction weight: the coefficient's magnitude. Importance `ι_p`
    /// scales with `Δ̂[ξ]²` for quadratic penalties, so magnitude order is
    /// importance order for every batch sharing the cache — small
    /// coefficients are the cheapest to re-fetch *and* the least likely
    /// to be on another batch's hot prefix. Memoized absences weigh zero.
    fn weight(&self) -> f64 {
        self.value.map_or(0.0, f64::abs)
    }
}

/// A memo slot address: the inner store's version tag at lookup time plus
/// the coefficient key.  Distinct versions never alias.
type VersionedKey = (u64, CoeffKey);

/// How [`ShardedCachingStore`] picks eviction victims when over capacity.
///
/// The default, [`EvictionPolicy::ImportanceWeighted`], is the policy the
/// progressive model argues for: importance `ι_p` scales with `Δ̂[ξ]²`
/// for quadratic penalties, so magnitude order is importance order for
/// *every* batch sharing the cache — small coefficients are both the
/// cheapest to re-fetch (they barely move any bound) and the least likely
/// to sit on another batch's hot prefix.  [`EvictionPolicy::LruOnly`] is
/// the classic recency-only baseline; the `bench_cache_eviction` sweep in
/// `batchbb-bench` measures the hit-rate-vs-memory curves of both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the smallest-|value| entry, ties broken least-recently-used.
    #[default]
    ImportanceWeighted,
    /// Evict the least-recently-used entry regardless of magnitude.
    LruOnly,
}

/// One cache shard: the memo map plus a logical clock for LRU stamps.
#[derive(Debug, Default)]
struct ShardState {
    map: HashMap<VersionedKey, CacheEntry>,
    clock: u64,
}

impl ShardState {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks `key` up, refreshing its LRU stamp on a hit.
    fn get(&mut self, key: &VersionedKey) -> Option<Option<f64>> {
        let stamp = self.touch();
        self.map.get_mut(key).map(|entry| {
            entry.touch = stamp;
            entry.value
        })
    }

    fn insert(&mut self, key: VersionedKey, value: Option<f64>) {
        let touch = self.touch();
        self.map.insert(key, CacheEntry { value, touch });
    }

    /// Evicts entries by `policy` until at most `cap` remain, counting
    /// each eviction.
    fn evict_to(&mut self, cap: usize, policy: EvictionPolicy, evictions: &AtomicU64) {
        while self.map.len() > cap {
            let victim = self
                .map
                .iter()
                .min_by(|(ka, a), (kb, b)| match policy {
                    EvictionPolicy::ImportanceWeighted => a
                        .weight()
                        .total_cmp(&b.weight())
                        .then(a.touch.cmp(&b.touch))
                        .then(ka.cmp(kb)),
                    EvictionPolicy::LruOnly => a.touch.cmp(&b.touch).then(ka.cmp(kb)),
                })
                .map(|(k, _)| *k)
                .expect("a shard over capacity is non-empty");
            // (victim is a `(version, key)` pair; stale versions' entries
            // weigh the same as live ones and age out through LRU.)
            self.map.remove(&victim);
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

type Shard = Mutex<ShardState>;

/// Wraps any store with a sharded read-through memo table, unbounded by
/// default and capacity-capped via
/// [`ShardedCachingStore::with_capacity`].
///
/// `retrievals` counts logical requests to this wrapper; `physical_reads`
/// counts requests forwarded to the inner store (cache misses);
/// `cache_hits` the rest. [`ShardedCachingStore::evictions`] counts
/// capacity evictions separately.
#[derive(Debug)]
pub struct ShardedCachingStore<S> {
    inner: S,
    shards: Box<[Shard]>,
    /// Per-shard resident cap; `None` keeps the table unbounded.
    shard_capacity: Option<usize>,
    /// Victim-selection rule applied when a shard overflows.
    policy: EvictionPolicy,
    counters: Counters,
    evictions: AtomicU64,
}

impl<S: CoefficientStore> ShardedCachingStore<S> {
    /// Wraps `inner` with the default shard count.
    pub fn new(inner: S) -> Self {
        ShardedCachingStore::with_shards(inner, DEFAULT_SHARDS)
    }

    /// Wraps `inner` with an explicit shard count (`>= 1`).
    pub fn with_shards(inner: S, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardedCachingStore {
            inner,
            shards: (0..shards)
                .map(|_| Mutex::new(ShardState::default()))
                .collect(),
            shard_capacity: None,
            policy: EvictionPolicy::default(),
            counters: Counters::default(),
            evictions: AtomicU64::new(0),
        }
    }

    /// Caps the resident set at `capacity` memoized keys (`>= 1`), spread
    /// evenly across shards (each shard holds at most
    /// `ceil(capacity / shards)`, so skewed key hashes cannot blow the
    /// total past `capacity + shards - 1`). Overflow evicts the
    /// smallest-magnitude entry, ties broken least-recently-used.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "need room for at least one entry");
        self.shard_capacity = Some(capacity.div_ceil(self.shards.len()).max(1));
        self
    }

    /// Picks the eviction victim-selection rule (default:
    /// [`EvictionPolicy::ImportanceWeighted`]). Inert without a
    /// [`ShardedCachingStore::with_capacity`] cap.
    pub fn with_eviction_policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The eviction policy in force.
    pub fn eviction_policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of memoized keys across all shards.
    pub fn cached(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Number of entries evicted to respect the capacity cap (zero for an
    /// unbounded cache).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn shard(&self, key: &CoeffKey) -> &Shard {
        &self.shards[fingerprint::shard_of(key, self.shards.len())]
    }

    fn trim(&self, shard: &mut ShardState) {
        if let Some(cap) = self.shard_capacity {
            shard.evict_to(cap, self.policy, &self.evictions);
        }
    }
}

impl<S: CoefficientStore> CoefficientStore for ShardedCachingStore<S> {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        self.counters.count_retrieval();
        let tagged = (self.inner.version_tag(), *key);
        let mut shard = self.shard(key).lock();
        if let Some(v) = shard.get(&tagged) {
            self.counters.count_hit();
            return v;
        }
        self.counters.count_physical();
        let v = self.inner.get(key);
        shard.insert(tagged, v);
        self.trim(&mut shard);
        v
    }

    /// Forwards to the inner store's fallible path. Only successful results
    /// are memoized, so a key whose retrieval failed is re-attempted (and
    /// can recover) on later calls — from *any* batch.
    fn try_get(&self, key: &CoeffKey) -> Result<Option<f64>, StorageError> {
        self.counters.count_retrieval();
        let tagged = (self.inner.version_tag(), *key);
        let mut shard = self.shard(key).lock();
        if let Some(v) = shard.get(&tagged) {
            self.counters.count_hit();
            return Ok(v);
        }
        self.counters.count_physical();
        let v = self.inner.try_get(key)?;
        shard.insert(tagged, v);
        self.trim(&mut shard);
        Ok(v)
    }

    /// Batched retrieval taking each shard's lock once per batch instead
    /// of once per key.  Keys are grouped by shard; each shard's misses go
    /// to the inner store as one `try_get_many` *while that shard's lock
    /// is held*, so the exactly-once fill guarantee is unchanged — racing
    /// batches still fetch a resident coefficient at most once.  Within-
    /// batch duplicate keys are fetched once and the repeats counted as
    /// hits, matching the singleton sequence.  Only one shard lock is held
    /// at a time.  On a batch error nothing from the failing shard is
    /// memoized (earlier shards' fills stand, as the singleton sequence's
    /// would).  Capacity trimming runs after each shard's fills, so a
    /// batch wider than the cap passes through rather than wedging.  The
    /// inner version tag is sampled once per call: a batch memoizes under
    /// the version it started on.
    fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        let tag = self.inner.version_tag();
        let mut out = vec![None; keys.len()];
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, key) in keys.iter().enumerate() {
            by_shard[fingerprint::shard_of(key, self.shards.len())].push(i);
        }
        for (shard_id, members) in by_shard.into_iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let mut shard = self.shards[shard_id].lock();
            let mut miss_keys: Vec<CoeffKey> = Vec::new();
            let mut miss_idx: Vec<usize> = Vec::new();
            let mut pending: HashMap<CoeffKey, usize> = HashMap::new();
            let mut dup_fill: Vec<(usize, usize)> = Vec::new();
            for &i in &members {
                let key = &keys[i];
                self.counters.count_retrieval();
                if let Some(v) = shard.get(&(tag, *key)) {
                    self.counters.count_hit();
                    out[i] = v;
                } else if let Some(&p) = pending.get(key) {
                    self.counters.count_hit();
                    dup_fill.push((i, p));
                } else {
                    self.counters.count_physical();
                    pending.insert(*key, miss_keys.len());
                    miss_idx.push(i);
                    miss_keys.push(*key);
                }
            }
            if !miss_keys.is_empty() {
                let fetched = self.inner.try_get_many(&miss_keys)?;
                for (p, v) in fetched.iter().enumerate() {
                    shard.insert((tag, miss_keys[p]), *v);
                    out[miss_idx[p]] = *v;
                }
                for (i, p) in dup_fill {
                    out[i] = fetched[p];
                }
                self.trim(&mut shard);
            }
        }
        Ok(out)
    }

    // `submit` keeps the trait default: the adapter routes through this
    // wrapper's exactly-once-filling `try_get_many`.  For latency hiding
    // *and* memoization, wrap this store in [`crate::AsyncFetchStore`]
    // (dedup outside, memo inside — DESIGN.md §12).
    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn version_tag(&self) -> u64 {
        self.inner.version_tag()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjectingStore, FaultPlan, MemoryStore, VersionedStore};

    fn store(n: usize) -> MemoryStore {
        MemoryStore::from_entries((0..n).map(|i| (CoeffKey::one(i), i as f64 + 1.0)))
    }

    #[test]
    fn second_read_is_a_hit() {
        let s = ShardedCachingStore::new(store(4));
        assert_eq!(s.get(&CoeffKey::one(1)), Some(2.0));
        assert_eq!(s.get(&CoeffKey::one(1)), Some(2.0));
        let st = s.stats();
        assert_eq!(st.retrievals, 2);
        assert_eq!(st.physical_reads, 1);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(s.cached(), 1);
        assert_eq!(s.evictions(), 0);
    }

    #[test]
    fn misses_are_also_memoized() {
        let s = ShardedCachingStore::new(MemoryStore::new());
        assert_eq!(s.get(&CoeffKey::one(9)), None);
        assert_eq!(s.get(&CoeffKey::one(9)), None);
        assert_eq!(s.stats().physical_reads, 1, "negative result cached");
    }

    #[test]
    fn concurrent_readers_fetch_each_key_exactly_once() {
        let s = ShardedCachingStore::new(store(64));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..64 {
                        assert_eq!(s.get(&CoeffKey::one(i)), Some(i as f64 + 1.0));
                    }
                });
            }
        });
        // 8 threads × 64 keys logically, but the inner store saw each key
        // exactly once: the shard lock is held across the fetch.
        assert_eq!(s.stats().retrievals, 8 * 64);
        assert_eq!(s.inner().stats().retrievals, 64);
        assert_eq!(s.stats().physical_reads, 64);
        assert_eq!(s.stats().cache_hits, 7 * 64);
    }

    #[test]
    fn failures_are_not_memoized() {
        let key = CoeffKey::one(2);
        let s = ShardedCachingStore::new(FaultInjectingStore::new(
            store(8),
            FaultPlan::new(1).with_permanent_keys([key]),
        ));
        assert!(s.try_get(&key).is_err());
        assert!(s.try_get(&key).is_err(), "error not cached");
        s.inner().heal();
        assert_eq!(s.try_get(&key), Ok(Some(3.0)), "recovers after heal");
        assert_eq!(s.try_get(&key), Ok(Some(3.0)));
        assert_eq!(s.stats().cache_hits, 1, "only the post-heal value caches");
    }

    #[test]
    fn capacity_bounds_the_resident_set() {
        // One shard makes the per-shard cap the total cap.
        let s = ShardedCachingStore::with_shards(store(64), 1).with_capacity(8);
        for i in 0..64 {
            assert_eq!(s.get(&CoeffKey::one(i)), Some(i as f64 + 1.0));
        }
        assert!(s.cached() <= 8, "resident set exceeds cap: {}", s.cached());
        assert_eq!(s.evictions(), 64 - s.cached() as u64);
        // Answers stay correct through evictions: an evicted key simply
        // reads through again.
        for i in 0..64 {
            assert_eq!(s.get(&CoeffKey::one(i)), Some(i as f64 + 1.0));
        }
    }

    #[test]
    fn eviction_prefers_low_magnitude_entries() {
        // Values grow with the key index, so the *small* early keys are
        // the eviction victims and the heavy tail stays resident.
        let s = ShardedCachingStore::with_shards(store(32), 1).with_capacity(4);
        for i in 0..32 {
            s.get(&CoeffKey::one(i));
        }
        s.reset_stats();
        // The four heaviest keys (28..32) must all be hits.
        for i in 28..32 {
            assert_eq!(s.get(&CoeffKey::one(i)), Some(i as f64 + 1.0));
        }
        assert_eq!(s.stats().cache_hits, 4, "heavy keys were evicted");
    }

    #[test]
    fn lru_breaks_weight_ties() {
        // Equal-weight entries: the least recently touched one goes.
        let inner = MemoryStore::from_entries((0..3).map(|i| (CoeffKey::one(i), 1.0)));
        let s = ShardedCachingStore::with_shards(inner, 1).with_capacity(2);
        s.get(&CoeffKey::one(0));
        s.get(&CoeffKey::one(1));
        s.get(&CoeffKey::one(0)); // refresh key 0: key 1 is now the LRU
        s.get(&CoeffKey::one(2)); // overflow: evicts key 1
        s.reset_stats();
        s.get(&CoeffKey::one(0));
        s.get(&CoeffKey::one(2));
        assert_eq!(s.stats().cache_hits, 2, "recently touched keys stay");
        s.get(&CoeffKey::one(1));
        assert_eq!(s.stats().physical_reads, 1, "the LRU key was evicted");
    }

    #[test]
    fn lru_only_policy_ignores_magnitude() {
        // Values grow with the key index; a pure-LRU cache evicts in
        // insertion order regardless, so after a cold sweep the *last*
        // keys are resident — not the heaviest ones (here they coincide),
        // and re-touching a light key keeps it in over a heavy one.
        let inner = MemoryStore::from_entries((0..8).map(|i| (CoeffKey::one(i), i as f64 + 1.0)));
        let s = ShardedCachingStore::with_shards(inner, 1)
            .with_capacity(2)
            .with_eviction_policy(EvictionPolicy::LruOnly);
        assert_eq!(s.eviction_policy(), EvictionPolicy::LruOnly);
        s.get(&CoeffKey::one(7)); // heavy
        s.get(&CoeffKey::one(0)); // light
        s.get(&CoeffKey::one(0)); // refresh the light key: 7 is now LRU
        s.get(&CoeffKey::one(1)); // overflow: evicts the heavy key 7
        s.reset_stats();
        s.get(&CoeffKey::one(0));
        s.get(&CoeffKey::one(1));
        assert_eq!(s.stats().cache_hits, 2, "recently touched keys stay");
        s.get(&CoeffKey::one(7));
        assert_eq!(
            s.stats().physical_reads,
            1,
            "the heavy-but-stale key was evicted under pure LRU"
        );
    }

    #[test]
    fn version_bump_never_serves_stale_values() {
        let inner = VersionedStore::from_entries([(CoeffKey::one(1), 2.0)]);
        let s = ShardedCachingStore::new(inner);
        let key = CoeffKey::one(1);
        assert_eq!(s.get(&key), Some(2.0)); // memoized under v0
        assert_eq!(s.get(&key), Some(2.0));
        assert_eq!(s.stats().cache_hits, 1);
        s.inner().publish(&[(key, 5.0)]);
        // No invalidation call: the new version tag simply stops matching
        // the v0 memo, so the read goes through and sees the update.
        assert_eq!(s.get(&key), Some(7.0));
        let st = s.stats();
        assert_eq!(st.cache_hits, 1, "stale memo must not hit across versions");
        assert_eq!(st.physical_reads, 2);
        // Both versions' entries are resident (no pollution, no blow-away).
        assert_eq!(s.cached(), 2);
    }

    #[test]
    fn views_on_different_versions_keep_their_own_entries() {
        let inner = VersionedStore::from_entries([(CoeffKey::one(1), 2.0)]);
        let view = inner.pin(); // pinned at v0
        let s = ShardedCachingStore::new(view);
        let key = CoeffKey::one(1);
        assert_eq!(s.get(&key), Some(2.0));
        inner.publish(&[(key, 5.0)]);
        // The view is still pinned at v0: its memo entry stays a hit.
        assert_eq!(s.get(&key), Some(2.0));
        assert_eq!(s.stats().cache_hits, 1, "pinned version keeps its cache");
        // Advancing re-tags the view; the v0 entry stops matching and the
        // first v1 read fills a fresh slot.
        s.inner().advance_to_current();
        assert_eq!(s.get(&key), Some(7.0));
        assert_eq!(s.stats().cache_hits, 1, "no cross-version hit");
        assert_eq!(s.get(&key), Some(7.0));
        assert_eq!(s.stats().cache_hits, 2, "v1 entry now warm");
    }

    #[test]
    fn batched_fills_respect_capacity() {
        let s = ShardedCachingStore::with_shards(store(32), 1).with_capacity(4);
        let keys: Vec<CoeffKey> = (0..32).map(CoeffKey::one).collect();
        let values = s.try_get_many(&keys).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, Some(i as f64 + 1.0), "pass-through value intact");
        }
        assert!(s.cached() <= 4);
        assert!(s.evictions() >= 28);
    }
}
