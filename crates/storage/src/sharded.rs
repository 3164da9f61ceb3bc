//! A sharded read-through cache: cross-batch I/O sharing for concurrent
//! serving.
//!
//! A memo table behind one mutex is fine for a single executor but
//! serializes a worker pool.  [`ShardedCachingStore`] splits the table
//! across independently locked shards, so concurrent batches miss-fetch and
//! hit on *different* coefficients in parallel, and a coefficient fetched
//! for one batch is served from memory to every other in-flight batch.
//!
//! # A window of one
//!
//! The cache's one read body, `submit`, branches on the window's length,
//! because a singleton read must cost what a point lookup costs: routed
//! through the general window body below (two `Vec`s, a `HashMap` and a
//! boxed completion per miss), `dash_mem` — window 1, one cache read per
//! step — read `wave_exact_p50_ms` 112.2 → 120.8 (+7.7 %, slower in 7 of 8
//! interleaved pairs) and `batches_per_s` 35.4 → 32.3.  A window of one is
//! probed under its key's shard lock; on a miss the inner store's
//! `submit(&[key])` is called with the lock still held.  When that
//! completion is ready at submit — any blocking store — the value is
//! memoized under the lock and answered in the completion's one-value
//! state, allocating nothing, and a resident coefficient is physically
//! fetched **exactly once** however many singleton readers race on it.
//! When it is still pending — the asynchronous engine — the lock is
//! released and the value memoized when the completion is taken, as for a
//! wider window: no shard lock is ever held across a pending fetch.
//!
//! A window of two or more never fetches under a lock and never blocks: it
//! is probed for hits, its misses cross to the inner store as **one**
//! `submit`, and the fetched values are memoized when the returned
//! [`Completion`] is taken.
//! A coefficient is then fetched *at most once while resident, and once
//! while outstanding when the inner store shares in-flight reads* — which
//! the crate's one asynchronous engine does ([`crate::ShardRouter`], and
//! [`crate::AsyncFetchStore`], which is that engine over one shard;
//! DESIGN.md §12), so the cache composes with it beneath: the batch parks
//! on the inner completion and racing reads — windows or singletons — ride
//! one physical read. Over a plain blocking store two windows racing on a
//! cold key may each read it.
//! The memo never holds a pending marker, so a completion dropped
//! unresolved leaves no trace and cannot strand a reader.
//!
//! # Bounded capacity
//!
//! By default the memo table is unbounded, which is fine for one serving
//! run over a finite master list but not for a long-lived server. With
//! [`ShardedCachingStore::with_capacity`] the resident set is capped:
//! when a shard overflows, the entry with the smallest
//! importance weight (`|value|`, with memoized absences weighing zero) is
//! evicted, ties broken least-recently-used. Eviction only weakens the
//! singleton guarantee from *exactly once* to *at most once while
//! resident* — an evicted key simply reads through again.
//!
//! # Version awareness
//!
//! Memo entries are keyed by `(version, key)` where `version` is the inner
//! store's [`CoefficientStore::version_tag`] at lookup time (for a batch:
//! at submit time, however late its completion is taken).  For
//! unversioned stores the tag is the constant `0` and nothing changes; over
//! a [`crate::VersionedStore`]/[`crate::VersionView`] a version advance
//! silently retires the old version's entries (they stop matching) instead
//! of serving stale values, and entries belonging to *untouched* versions
//! survive — publishing never blows away another reader's warm cache, and
//! nothing ever has to be invalidated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use batchbb_tensor::{CoeffKey, KeyMap};

use crate::fingerprint;
use crate::stats::Counters;
use crate::{CoefficientStore, Completion, IoStats};

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
/// the classic recency-only baseline; `batchbb-bench`'s `cachebench`
/// sweep measures the hit-rate-vs-memory curves of both.
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
    map: KeyMap<CacheEntry, VersionedKey>,
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

/// The memo table proper, behind an `Arc` so a batched read's completion
/// can fill it after `submit` returned without borrowing the store.
#[derive(Debug)]
struct Memo {
    shards: Box<[Shard]>,
    evictions: AtomicU64,
}

impl Memo {
    /// Locks the cache shard `key` hashes to.
    fn shard(&self, key: &CoeffKey) -> MutexGuard<'_, ShardState> {
        let shard = &self.shards[fingerprint::shard_of(key, self.shards.len())];
        shard.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn trim(&self, shard: &mut ShardState, cap: Option<usize>, policy: EvictionPolicy) {
        if let Some(cap) = cap {
            shard.evict_to(cap, policy, &self.evictions);
        }
    }
}

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
    memo: Arc<Memo>,
    /// Per-shard resident cap; `None` keeps the table unbounded.
    shard_capacity: Option<usize>,
    /// Victim-selection rule applied when a shard overflows.
    policy: EvictionPolicy,
    counters: Counters,
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
            memo: Arc::new(Memo {
                shards: (0..shards)
                    .map(|_| Mutex::new(ShardState::default()))
                    .collect(),
                evictions: AtomicU64::new(0),
            }),
            shard_capacity: None,
            policy: EvictionPolicy::default(),
            counters: Counters::default(),
        }
    }

    /// Caps the resident set at `capacity` memoized keys (`>= 1`), spread
    /// evenly across shards (each shard holds at most
    /// `ceil(capacity / shards)`, so skewed key hashes cannot blow the
    /// total past `capacity + shards - 1`). Overflow evicts the
    /// smallest-magnitude entry, ties broken least-recently-used.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "need room for at least one entry");
        self.shard_capacity = Some(capacity.div_ceil(self.memo.shards.len()).max(1));
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

    /// Number of memoized keys across all shards.
    pub fn cached(&self) -> usize {
        self.memo
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// Number of entries evicted to respect the capacity cap (zero for an
    /// unbounded cache).
    pub fn evictions(&self) -> u64 {
        self.memo.evictions.load(Ordering::Relaxed)
    }

    /// A window of one (module docs). Only successful results are
    /// memoized, so a key whose retrieval failed is re-attempted (and can
    /// recover) on later calls — from *any* batch.
    fn submit_one(&self, key: CoeffKey) -> Completion {
        self.counters.count_retrieval();
        let (tag, cap, policy) = (self.inner.version_tag(), self.shard_capacity, self.policy);
        let mut shard = self.memo.shard(&key);
        if let Some(v) = shard.get(&(tag, key)) {
            self.counters.count_hit();
            return Completion::one(Ok(v));
        }
        self.counters.count_physical();
        let fetch = self.inner.submit(&[key]);
        if fetch.is_ready() {
            let fetched = fetch.wait_one();
            if let Ok(v) = fetched {
                shard.insert((tag, key), v);
                self.memo.trim(&mut shard, cap, policy);
            }
            return Completion::one(fetched);
        }
        drop(shard);
        let memo = Arc::clone(&self.memo);
        Completion::wrapped(fetch, move |fetched| {
            let fetched = fetched?;
            let mut shard = memo.shard(&key);
            shard.insert((tag, key), fetched[0]);
            memo.trim(&mut shard, cap, policy);
            Ok(fetched)
        })
    }
}

impl<S: CoefficientStore> CoefficientStore for ShardedCachingStore<S> {
    /// A window of one takes the branch above; a wider one is retrieved
    /// without ever blocking or fetching under a lock.
    ///
    /// Every key is probed for a hit (one shard lock at a time); the
    /// distinct misses, in first-occurrence order, cross to the inner
    /// store as **one** `submit`, so an asynchronous engine beneath keeps
    /// its overlap and a blocking store is charged one round-trip per
    /// window.  Within-batch repeats of a miss are fetched once and
    /// counted as hits, matching the singleton sequence.  All accounting
    /// happens here, at submit time.
    ///
    /// Taking the returned completion memoizes the fetched values — under
    /// the inner version tag sampled *here*, so a batch straddling a
    /// version advance can never plant an old value under the new tag —
    /// trims each touched shard to capacity (a batch wider than the cap
    /// passes through rather than wedging), and merges hits and fetched
    /// values in input order.  An inner `Err` memoizes nothing and is
    /// returned as is: it is the error the singleton loop would hit first,
    /// because hits cannot fail and the misses keep their input order.
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        if let [key] = keys {
            return self.submit_one(*key);
        }
        let tag = self.inner.version_tag();
        let mut out = vec![None; keys.len()];
        let mut misses: Vec<CoeffKey> = Vec::new();
        let mut miss_index: KeyMap<usize> = KeyMap::default();
        // (position in `out`, index in `misses`) for every unanswered key.
        let mut fills: Vec<(usize, usize)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            self.counters.count_retrieval();
            if let Some(&m) = miss_index.get(key) {
                self.counters.count_hit();
                fills.push((i, m));
            } else if let Some(v) = self.memo.shard(key).get(&(tag, *key)) {
                self.counters.count_hit();
                out[i] = v;
            } else {
                self.counters.count_physical();
                miss_index.insert(*key, misses.len());
                fills.push((i, misses.len()));
                misses.push(*key);
            }
        }
        if misses.is_empty() {
            return Completion::ready(Ok(out));
        }
        let fetch = self.inner.submit(&misses);
        let memo = Arc::clone(&self.memo);
        let (cap, policy) = (self.shard_capacity, self.policy);
        Completion::wrapped(fetch, move |fetched| {
            let fetched = fetched?;
            for (key, value) in misses.iter().zip(&fetched) {
                let mut shard = memo.shard(key);
                shard.insert((tag, *key), *value);
                memo.trim(&mut shard, cap, policy);
            }
            for (i, m) in fills {
                out[i] = fetched[m];
            }
            Ok(out)
        })
    }

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
    use crate::testing::Gated;
    use crate::{AsyncFetchStore, FaultInjectingStore, FaultPlan, MemoryStore, VersionedStore};

    fn store(n: usize) -> MemoryStore {
        MemoryStore::from_entries((0..n).map(|i| (CoeffKey::one(i), i as f64 + 1.0)))
    }

    fn window(keys: impl IntoIterator<Item = usize>) -> Vec<CoeffKey> {
        keys.into_iter().map(CoeffKey::one).collect()
    }

    /// What `store(n)` answers for `window(keys)`.
    fn values(keys: std::ops::Range<usize>) -> Vec<Option<f64>> {
        keys.map(|i| Some(i as f64 + 1.0)).collect()
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

    #[test]
    fn a_window_reaches_the_inner_store_as_one_call() {
        let s = ShardedCachingStore::new(Gated::new(store(16)));
        let keys = window(0..16);
        assert_eq!(s.try_get_many(&keys), Ok(values(0..16)));
        // The keys spread over most of the 16 cache shards; the window
        // still crosses the cache as one batch.
        assert_eq!(s.inner().calls().len(), 1, "one window, one inner call");
        assert_eq!(s.cached(), 16);
        // A warm window never reaches the inner store at all.
        assert_eq!(s.submit(&keys).wait(), Ok(values(0..16)));
        assert_eq!(s.inner().calls().len(), 1);
        assert_eq!(s.stats().cache_hits, 16);
    }

    #[test]
    fn in_batch_duplicates_cost_one_physical_read_plus_hits() {
        let s = ShardedCachingStore::new(Gated::new(store(4)));
        let keys = window([2, 1, 2, 2, 1]);
        let values = s.try_get_many(&keys).unwrap();
        assert_eq!(
            values,
            vec![Some(3.0), Some(2.0), Some(3.0), Some(3.0), Some(2.0)]
        );
        let st = s.stats();
        assert_eq!(
            (st.retrievals, st.physical_reads, st.cache_hits),
            (5, 2, 3),
            "repeats of a miss count as hits, as in the singleton sequence"
        );
        assert_eq!(s.inner().calls().len(), 1);
        assert_eq!(s.inner().reads_of(&CoeffKey::one(2)), 1);
        assert_eq!(s.inner().reads_of(&CoeffKey::one(1)), 1);
    }

    #[test]
    fn a_failed_batch_memoizes_nothing_and_recovers_after_heal() {
        let broken = CoeffKey::one(2);
        let s = ShardedCachingStore::new(FaultInjectingStore::new(
            store(8),
            FaultPlan::new(1).with_permanent_keys([broken]),
        ));
        let keys = window(0..4);
        let err = s.inner().try_get_many(&keys).unwrap_err();
        assert_eq!(*err.key(), broken);
        assert_eq!(
            s.try_get_many(&keys),
            Err(err.clone()),
            "the inner error, as is"
        );
        assert_eq!(s.cached(), 0, "not even the keys before the failing one");
        assert_eq!(
            s.submit(&keys).wait(),
            Err(err),
            "and the error is not cached"
        );
        s.inner().heal();
        assert_eq!(s.try_get_many(&keys), Ok(values(0..4)));
        assert_eq!(s.cached(), 4);
    }

    #[test]
    fn windows_over_an_async_engine_park_and_share_reads_in_flight() {
        let engine = AsyncFetchStore::new(Gated::new(store(32)), 2);
        engine.inner().set_gate(false);
        let s = ShardedCachingStore::new(engine);
        // Two windows overlapping on keys 8..16, both submitted while the
        // first read is held at the gate.
        let (a_keys, b_keys) = (window(0..16), window(8..24));
        let a = s.submit(&a_keys);
        let b = s.submit(&b_keys);
        assert!(
            !a.is_ready() && !b.is_ready(),
            "nothing blocks, nothing is ready"
        );
        assert_eq!(s.cached(), 0, "the memo never holds a pending marker");
        assert_eq!(s.inner().dedup_hits(), 8, "the shared keys ride one read");
        s.inner().inner().set_gate(true);
        assert_eq!(b.wait(), Ok(values(8..24)));
        assert_eq!(a.wait(), Ok(values(0..16)));
        s.quiesce();
        let recorded = s.inner().inner();
        // The engine's two workers may each take a window, or the first to
        // wake may find both queued and read them as one call.
        let calls = recorded.calls().len();
        assert!(
            (1..=2).contains(&calls),
            "at most one inner call per window"
        );
        for i in 0..24 {
            assert_eq!(recorded.reads_of(&CoeffKey::one(i)), 1, "key {i}");
        }
        assert_eq!(s.cached(), 24);
        // Both windows are now resident: no further inner traffic.
        assert_eq!(s.try_get_many(&a_keys), Ok(values(0..16)));
        assert_eq!(recorded.calls().len(), calls);
    }

    #[test]
    fn singletons_over_an_async_engine_ride_one_read_and_hold_no_lock_across_it() {
        use std::time::{Duration, Instant};

        // One cache shard: the warm key and the cold key share its lock.
        let s = ShardedCachingStore::with_shards(AsyncFetchStore::new(Gated::new(store(8)), 2), 1);
        let (warm, cold) = (CoeffKey::one(1), CoeffKey::one(5));
        assert_eq!(s.try_get(&warm), Ok(Some(2.0)));
        let gated = s.inner().inner();
        gated.set_gate(false);
        // Nothing may panic while the gate is shut: the readers would
        // never return and the scope would never end.
        let (cold_reads, warm_read) = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2).map(|_| scope.spawn(|| s.try_get(&cold))).collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            while s.inner().dedup_hits() < 1 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            // Both cold readers wait on one read held at the gate; a reader
            // of the warm key must still get through their shard meanwhile.
            let warm_reader = scope.spawn(|| s.try_get(&warm));
            while !warm_reader.is_finished() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let warm_read = warm_reader
                .is_finished()
                .then(|| warm_reader.join().unwrap());
            gated.set_gate(true);
            let cold_reads: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
            (cold_reads, warm_read)
        });
        assert_eq!(warm_read, Some(Ok(Some(2.0))), "lock held across a fetch");
        assert_eq!(cold_reads, vec![Ok(Some(6.0)); 2]);
        assert_eq!(s.inner().dedup_hits(), 1, "the second reader rode along");
        assert_eq!(gated.reads_of(&cold), 1, "one physical read");
        assert_eq!(s.cached(), 2, "memoized once");
    }

    #[test]
    fn a_batch_memoizes_under_its_submit_time_version() {
        let key = CoeffKey::one(1);
        let inner = VersionedStore::from_entries([(key, 2.0)]);
        let s = ShardedCachingStore::new(inner.pin()); // pinned at v0
        let pending = s.submit(&[key]);
        // The view advances between submit and wait.
        inner.publish(&[(key, 5.0)]);
        s.inner().advance_to_current();
        assert_eq!(pending.wait(), Ok(vec![Some(2.0)]), "the v0 read it issued");
        assert_eq!(s.cached(), 1, "memoized — under v0");
        // So the first v1 read misses and sees the new value: the late
        // fill cannot plant a stale value under the new tag.
        assert_eq!(s.try_get_many(&[key]), Ok(vec![Some(7.0)]));
        let st = s.stats();
        assert_eq!((st.physical_reads, st.cache_hits), (2, 0));
        assert_eq!(s.cached(), 2);
    }

    #[test]
    fn a_dropped_pending_completion_leaves_no_trace() {
        let engine = AsyncFetchStore::new(Gated::new(store(8)), 1);
        engine.inner().set_gate(false);
        let s = ShardedCachingStore::new(engine);
        let keys = window(0..8);
        let abandoned = s.submit(&keys);
        assert!(!abandoned.is_ready());
        drop(abandoned);
        assert_eq!(s.cached(), 0);
        s.inner().inner().set_gate(true);
        s.quiesce(); // returns: nothing waits on the dropped handle
        assert_eq!(s.cached(), 0, "an untaken result is never memoized");
        assert_eq!(
            s.try_get_many(&keys),
            Ok(values(0..8)),
            "a later reader is not stranded"
        );
        assert_eq!(s.cached(), 8);
    }
}
