//! Versioned copy-on-write coefficient store: MVCC snapshots for live
//! updates without reader coordination.
//!
//! [`VersionedStore`] holds an immutable, shard-structured map per
//! *version*.  [`VersionedStore::publish`] applies a batch of `(key, delta)`
//! updates in one sorted pass and installs a new version that shares every
//! untouched shard with its predecessor (`Arc`-shared structure, the
//! persistent-map idiom), so publishing is `O(batch + touched shards)` and
//! never blocks readers.  A reader pins a version with
//! [`VersionedStore::pin`] and reads through the returned [`VersionView`] —
//! an ordinary [`CoefficientStore`] whose answers are frozen at the pinned
//! version no matter how many later versions are published.  When the
//! reader *chooses* to move forward it calls
//! [`VersionView::advance_to_current`], which re-pins and returns the exact
//! update entries between the two versions (concatenated in publish order,
//! never pre-summed) so a progressive executor can repair its estimates
//! (`ProgressiveExecutor::advance_version`) and stay bit-identical to a
//! fresh start on the new version.  This publish → advance → repair chain
//! is the only way data changes under a live reader: no store is ever
//! mutated in place while anything reads it.
//!
//! Bit-identity contract: applying a published batch mutates each touched
//! slot exactly as the equivalent sequence of [`crate::MutableStore::add`]
//! calls on a [`crate::MemoryStore`] would — per-key input order is
//! preserved (stable sort), deltas to distinct keys commute exactly (each
//! key owns its slot), and the same `1e-13` zero-eviction rule runs after
//! every single delta.  Version tags ([`CoefficientStore::version_tag`])
//! let caching and async-fetch wrappers key their tables by
//! `(version, key)` so entries from different versions never alias.
//!
//! See DESIGN.md §13 for the pin/publish/advance contract.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use batchbb_obs::{span_end_event, span_start_event, EventSink, Tracer};
use batchbb_tensor::CoeffKey;

use crate::fingerprint::shard_of;
use crate::stats::Counters;
use crate::{CoefficientStore, IoStats};

/// Span emission for the version machinery: `store.publish` spans around
/// each publish and `store.advance` spans around view repair. Shared by
/// the store and every view pinned from it so all spans ride one clock.
struct VersionTracing {
    tracer: Tracer,
    sink: Arc<dyn EventSink>,
}

impl std::fmt::Debug for VersionTracing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionTracing")
            .field("tracer", &self.tracer)
            .finish_non_exhaustive()
    }
}

/// Magnitude below which an updated coefficient is evicted as zero —
/// identical to `MemoryStore`'s rule so versioned state is byte-identical
/// to sequential `add` application.
const ZERO_TOL: f64 = 1e-13;

/// Default shard count (matches the other sharded stores).
const DEFAULT_SHARDS: usize = 16;

/// Monotone identifier of a published version.  Version 0 is the store's
/// initial contents; every [`VersionedStore::publish`] increments it by 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionId(pub u64);

impl VersionId {
    /// The raw counter value (also used as the wrapper cache tag).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for VersionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One immutable version: shard maps shared with neighbouring versions.
#[derive(Debug)]
struct VersionData {
    id: VersionId,
    shards: Vec<Arc<HashMap<CoeffKey, f64>>>,
    nnz: usize,
}

impl VersionData {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        self.shards[shard_of(key, self.shards.len())]
            .get(key)
            .copied()
    }

    fn abs_sum(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.values().map(|v| v.abs()).sum::<f64>())
            .sum()
    }
}

/// The append-only log: current head, retained snapshots, and the update
/// batch that produced each version (for delta repair).
#[derive(Debug)]
struct VersionLog {
    current: Arc<VersionData>,
    /// Retained versions in id order (structural sharing keeps this cheap).
    history: Vec<Arc<VersionData>>,
    /// `deltas[i]` transformed `history[i]` into `history[i + 1]`, entries
    /// in the exact order the publisher supplied them.
    deltas: Vec<Arc<Vec<(CoeffKey, f64)>>>,
    /// Id of `history[0]` (> 0 once old versions have been compacted away).
    base: VersionId,
}

impl VersionLog {
    fn snapshot_at(&self, id: VersionId) -> Option<Arc<VersionData>> {
        let idx = id.0.checked_sub(self.base.0)? as usize;
        self.history.get(idx).cloned()
    }

    /// Concatenated update entries taking `from` to `to`, publish order.
    fn delta_between(&self, from: VersionId, to: VersionId) -> Option<Vec<(CoeffKey, f64)>> {
        if from > to || from < self.base || to > self.current.id {
            return None;
        }
        let lo = (from.0 - self.base.0) as usize;
        let hi = (to.0 - self.base.0) as usize;
        let mut out = Vec::new();
        for delta in &self.deltas[lo..hi] {
            out.extend(delta.iter().cloned());
        }
        Some(out)
    }
}

/// The versioned copy-on-write store.
///
/// Cheap to share: readers pin views, writers publish batches, and the only
/// synchronization is a short mutex around the version log — readers never
/// take it on the data path (their pinned version data is immutable).
#[derive(Debug)]
pub struct VersionedStore {
    log: Arc<Mutex<VersionLog>>,
    counters: Counters,
    tracing: Option<Arc<VersionTracing>>,
}

impl VersionedStore {
    /// An empty store at version 0 with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS, std::iter::empty())
    }

    /// Bulk-loads version 0 from `(key, value)` pairs (summing duplicates
    /// under the same zero-eviction rule as [`crate::MemoryStore`]).
    pub fn from_entries(entries: impl IntoIterator<Item = (CoeffKey, f64)>) -> Self {
        Self::with_shards(DEFAULT_SHARDS, entries)
    }

    /// Bulk-loads version 0 with an explicit shard count.
    pub fn with_shards(shards: usize, entries: impl IntoIterator<Item = (CoeffKey, f64)>) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let mut maps: Vec<HashMap<CoeffKey, f64>> = (0..shards).map(|_| HashMap::new()).collect();
        for (k, v) in entries {
            let s = shard_of(&k, shards);
            let slot = maps[s].entry(k).or_insert(0.0);
            *slot += v;
        }
        for m in &mut maps {
            m.retain(|_, v| v.abs() > ZERO_TOL);
        }
        let nnz = maps.iter().map(HashMap::len).sum();
        let v0 = Arc::new(VersionData {
            id: VersionId(0),
            shards: maps.into_iter().map(Arc::new).collect(),
            nnz,
        });
        VersionedStore {
            log: Arc::new(Mutex::new(VersionLog {
                current: v0.clone(),
                history: vec![v0],
                deltas: Vec::new(),
                base: VersionId(0),
            })),
            counters: Counters::default(),
            tracing: None,
        }
    }

    /// Attaches causal span emission: every [`VersionedStore::publish`]
    /// emits a `store.publish` span (fields: the new `version`, the
    /// update `entries` count) and every view pinned *after* this call
    /// emits a `store.advance` span around
    /// [`VersionView::advance_to_current`] / [`VersionView::advance_to`]
    /// (fields: `from`, `to`, delta `entries`). Wire the same [`Tracer`]
    /// the serve pool uses so repair spans are time-comparable with
    /// batch lifecycles.
    pub fn with_tracing(mut self, tracer: Tracer, sink: Arc<dyn EventSink>) -> Self {
        self.tracing = Some(Arc::new(VersionTracing { tracer, sink }));
        self
    }

    /// Publishes a new version applying `entries` (each `(key, delta)`
    /// *adds* `delta` to the key's slot) and returns its id.
    ///
    /// One sorted pass: entries are grouped per shard and stable-sorted by
    /// key, so each touched shard is cloned once and each key's run of
    /// deltas is applied in input order (bit-identical to tuple-at-a-time
    /// [`crate::MutableStore::add`]).  Untouched shards are `Arc`-shared
    /// with the predecessor version.  Readers are never blocked: the log
    /// mutex serializes publishers only.
    pub fn publish(&self, entries: &[(CoeffKey, f64)]) -> VersionId {
        let publish_start = self.tracing.as_ref().map(|t| t.tracer.now_ns());
        let mut log = self.log.lock().unwrap();
        let prev = log.current.clone();
        let nshards = prev.shards.len();
        let mut per_shard: Vec<Vec<(CoeffKey, f64)>> = vec![Vec::new(); nshards];
        for (k, d) in entries {
            per_shard[shard_of(k, nshards)].push((*k, *d));
        }
        let mut shards = prev.shards.clone();
        for (s, mut ops) in per_shard.into_iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            // Stable sort: per-key input order survives, and distinct keys
            // commute exactly, so this equals input-order application.
            ops.sort_by_key(|&(k, _)| k);
            let map = Arc::make_mut(&mut shards[s]);
            for (k, d) in ops {
                let slot = map.entry(k).or_insert(0.0);
                *slot += d;
                if slot.abs() <= ZERO_TOL {
                    map.remove(&k);
                }
            }
        }
        let nnz = shards.iter().map(|m| m.len()).sum();
        let id = VersionId(prev.id.0 + 1);
        let next = Arc::new(VersionData { id, shards, nnz });
        log.history.push(next.clone());
        log.deltas.push(Arc::new(entries.to_vec()));
        log.current = next;
        drop(log);
        if let Some(tracing) = &self.tracing {
            let ctx = tracing.tracer.root_context();
            tracing.sink.emit(
                &span_start_event("store.publish", ctx, publish_start.unwrap_or(0))
                    .u64("version", id.0)
                    .u64("entries", entries.len() as u64),
            );
            tracing
                .sink
                .emit(&span_end_event(ctx, tracing.tracer.now_ns()));
        }
        id
    }

    /// The id of the latest published version.
    pub fn current_version(&self) -> VersionId {
        self.log.lock().unwrap().current.id
    }

    /// Pins the current version and returns a view frozen at it.
    pub fn pin(&self) -> VersionView {
        let log = self.log.lock().unwrap();
        VersionView {
            log: self.log.clone(),
            pinned: Mutex::new(log.current.clone()),
            counters: Counters::default(),
            tracing: self.tracing.clone(),
        }
    }

    /// Pins a retained historical version (`None` if compacted away or
    /// never published).
    pub fn pin_at(&self, id: VersionId) -> Option<VersionView> {
        let log = self.log.lock().unwrap();
        Some(VersionView {
            pinned: Mutex::new(log.snapshot_at(id)?),
            log: self.log.clone(),
            counters: Counters::default(),
            tracing: self.tracing.clone(),
        })
    }

    /// The concatenated update entries taking version `from` to version
    /// `to`, in publish order (never pre-summed — repairing with them is
    /// bit-identical to having observed each publish individually).
    /// `None` if the range is invalid or partially compacted away.
    pub fn delta_between(&self, from: VersionId, to: VersionId) -> Option<Vec<(CoeffKey, f64)>> {
        self.log.lock().unwrap().delta_between(from, to)
    }

    /// Drops retained versions and deltas older than `oldest_pinned`.
    /// After compaction, `pin_at`/`delta_between` on older ids return
    /// `None`; the current version and everything from `oldest_pinned`
    /// forward stay available.
    pub fn compact(&self, oldest_pinned: VersionId) {
        let mut log = self.log.lock().unwrap();
        if oldest_pinned <= log.base {
            return;
        }
        let cut = (oldest_pinned.0.min(log.current.id.0) - log.base.0) as usize;
        log.history.drain(..cut);
        log.deltas.drain(..cut);
        log.base = log.history[0].id;
    }

    /// Number of retained versions (history length).
    pub fn retained_versions(&self) -> usize {
        self.log.lock().unwrap().history.len()
    }

    /// Sum of |value| over the current version — the constant `K` in
    /// Theorem 1's worst-case bound.
    pub fn abs_sum(&self) -> f64 {
        self.log.lock().unwrap().current.abs_sum()
    }
}

impl Default for VersionedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CoefficientStore for VersionedStore {
    /// Reads the *current* version (pin a [`VersionView`] for stability).
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        self.counters.count_retrieval();
        self.counters.count_physical();
        let data = self.log.lock().unwrap().current.clone();
        data.get(key)
    }

    fn nnz(&self) -> usize {
        self.log.lock().unwrap().current.nnz
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }

    fn version_tag(&self) -> u64 {
        self.current_version().as_u64()
    }
}

/// A reader's pinned snapshot of a [`VersionedStore`].
///
/// Reads never see a later publish until the owner calls
/// [`VersionView::advance_to_current`] (or [`VersionView::advance_to`]);
/// [`CoefficientStore::version_tag`] reports the pinned id so version-aware
/// wrappers ([`crate::ShardedCachingStore`], [`crate::AsyncFetchStore`])
/// key their tables per version.
#[derive(Debug)]
pub struct VersionView {
    log: Arc<Mutex<VersionLog>>,
    pinned: Mutex<Arc<VersionData>>,
    counters: Counters,
    tracing: Option<Arc<VersionTracing>>,
}

impl VersionView {
    /// The pinned version id.
    pub fn version(&self) -> VersionId {
        self.pinned.lock().unwrap().id
    }

    /// Emits the `store.advance` span for a repin, `from` → `to`.
    fn trace_advance(&self, start: Option<u64>, from: VersionId, to: VersionId, entries: usize) {
        if let Some(tracing) = &self.tracing {
            let ctx = tracing.tracer.root_context();
            tracing.sink.emit(
                &span_start_event("store.advance", ctx, start.unwrap_or(0))
                    .u64("from", from.0)
                    .u64("to", to.0)
                    .u64("entries", entries as u64),
            );
            tracing
                .sink
                .emit(&span_end_event(ctx, tracing.tracer.now_ns()));
        }
    }

    /// Re-pins to the latest published version and returns `(new id,
    /// update entries between old and new pin, publish order)`.  A no-op
    /// (empty delta) when already current.
    pub fn advance_to_current(&self) -> (VersionId, Vec<(CoeffKey, f64)>) {
        let start = self.tracing.as_ref().map(|t| t.tracer.now_ns());
        let log = self.log.lock().unwrap();
        let target = log.current.clone();
        let mut pinned = self.pinned.lock().unwrap();
        let from = pinned.id;
        let delta = log
            .delta_between(pinned.id, target.id)
            .expect("pinned version still retained");
        *pinned = target;
        let to = pinned.id;
        drop(pinned);
        drop(log);
        if from != to {
            self.trace_advance(start, from, to, delta.len());
        }
        (to, delta)
    }

    /// Re-pins to `target` (which must be `>=` the current pin and still
    /// retained) and returns the update entries between the two pins.
    pub fn advance_to(&self, target: VersionId) -> Option<Vec<(CoeffKey, f64)>> {
        let start = self.tracing.as_ref().map(|t| t.tracer.now_ns());
        let log = self.log.lock().unwrap();
        let snapshot = log.snapshot_at(target)?;
        let mut pinned = self.pinned.lock().unwrap();
        let from = pinned.id;
        let delta = log.delta_between(pinned.id, target)?;
        *pinned = snapshot;
        drop(pinned);
        drop(log);
        if from != target {
            self.trace_advance(start, from, target, delta.len());
        }
        Some(delta)
    }

    /// Sum of |value| over the pinned version.
    pub fn abs_sum(&self) -> f64 {
        self.pinned.lock().unwrap().abs_sum()
    }
}

impl CoefficientStore for VersionView {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        self.counters.count_retrieval();
        self.counters.count_physical();
        let data = self.pinned.lock().unwrap().clone();
        data.get(key)
    }

    fn nnz(&self) -> usize {
        self.pinned.lock().unwrap().nnz
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }

    fn version_tag(&self) -> u64 {
        self.version().as_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryStore, MutableStore};

    fn k(a: usize, b: usize) -> CoeffKey {
        CoeffKey::new(&[a, b])
    }

    #[test]
    fn publish_is_bit_identical_to_sequential_adds() {
        let seed = [(k(0, 0), 0.1), (k(1, 3), -2.0), (k(2, 2), 7.5)];
        let updates = [
            (k(0, 0), 0.2),
            (k(1, 3), 2.0),   // cancels to zero → evicted
            (k(9, 9), 1e-14), // below tolerance → never materializes
            (k(0, 0), -0.3),
            (k(2, 2), 0.25),
        ];
        let versioned = VersionedStore::from_entries(seed.iter().cloned());
        versioned.publish(&updates);
        let mut reference = MemoryStore::from_entries(seed);
        for (key, delta) in &updates {
            reference.add(*key, *delta);
        }
        assert_eq!(versioned.nnz(), reference.nnz());
        for key in [k(0, 0), k(1, 3), k(2, 2), k(9, 9)] {
            let got = versioned.get(&key);
            let want = reference.get(&key);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "key {key:?} diverged from sequential add"
            );
        }
    }

    #[test]
    fn versions_are_monotone_and_pins_are_stable() {
        let store = VersionedStore::from_entries([(k(0, 0), 1.0)]);
        assert_eq!(store.current_version(), VersionId(0));
        let pinned = store.pin();
        let v1 = store.publish(&[(k(0, 0), 10.0)]);
        let v2 = store.publish(&[(k(5, 5), 3.0)]);
        assert_eq!((v1, v2), (VersionId(1), VersionId(2)));
        assert_eq!(store.current_version(), VersionId(2));
        // The pinned view is frozen at v0 regardless of publishes.
        assert_eq!(pinned.version(), VersionId(0));
        assert_eq!(pinned.get(&k(0, 0)), Some(1.0));
        assert_eq!(pinned.get(&k(5, 5)), None);
        // Direct store reads see the head.
        assert_eq!(store.get(&k(0, 0)), Some(11.0));
        assert_eq!(store.get(&k(5, 5)), Some(3.0));
    }

    #[test]
    fn untouched_shards_are_shared_between_versions() {
        let entries: Vec<_> = (0..256).map(|i| (k(i, i % 7), 1.0 + i as f64)).collect();
        let store = VersionedStore::from_entries(entries);
        let before = store.pin();
        store.publish(&[(k(0, 0), 1.0)]); // touches exactly one shard
        let after = store.pin();
        let (a, b) = (
            before.pinned.lock().unwrap().clone(),
            after.pinned.lock().unwrap().clone(),
        );
        let shared = a
            .shards
            .iter()
            .zip(&b.shards)
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count();
        assert_eq!(
            shared,
            a.shards.len() - 1,
            "a one-key publish must clone exactly one shard"
        );
    }

    #[test]
    fn delta_between_concatenates_in_publish_order() {
        let store = VersionedStore::new();
        store.publish(&[(k(0, 0), 1.0), (k(1, 1), 2.0)]);
        store.publish(&[(k(0, 0), -0.5)]);
        store.publish(&[]);
        let delta = store.delta_between(VersionId(0), VersionId(3)).unwrap();
        assert_eq!(
            delta,
            vec![(k(0, 0), 1.0), (k(1, 1), 2.0), (k(0, 0), -0.5)],
            "publish order, never pre-summed"
        );
        assert_eq!(
            store.delta_between(VersionId(2), VersionId(2)),
            Some(vec![])
        );
        assert_eq!(store.delta_between(VersionId(3), VersionId(1)), None);
        assert_eq!(store.delta_between(VersionId(0), VersionId(9)), None);
    }

    #[test]
    fn advance_returns_the_exact_delta_and_repins() {
        let store = VersionedStore::from_entries([(k(0, 0), 1.0)]);
        let view = store.pin();
        store.publish(&[(k(0, 0), 2.0)]);
        store.publish(&[(k(3, 3), 4.0)]);
        let (id, delta) = view.advance_to_current();
        assert_eq!(id, VersionId(2));
        assert_eq!(delta, vec![(k(0, 0), 2.0), (k(3, 3), 4.0)]);
        assert_eq!(view.get(&k(0, 0)), Some(3.0));
        assert_eq!(view.get(&k(3, 3)), Some(4.0));
        // Already current → empty delta.
        let (id, delta) = view.advance_to_current();
        assert_eq!(id, VersionId(2));
        assert!(delta.is_empty());
    }

    #[test]
    fn advance_to_intermediate_version() {
        let store = VersionedStore::new();
        store.publish(&[(k(0, 0), 1.0)]);
        store.publish(&[(k(0, 0), 1.0)]);
        let view = store.pin_at(VersionId(0)).unwrap();
        let delta = view.advance_to(VersionId(1)).unwrap();
        assert_eq!(delta, vec![(k(0, 0), 1.0)]);
        assert_eq!(view.version(), VersionId(1));
        assert_eq!(view.get(&k(0, 0)), Some(1.0));
    }

    #[test]
    fn version_tags_track_pins() {
        let store = VersionedStore::new();
        let view = store.pin();
        assert_eq!((store.version_tag(), view.version_tag()), (0, 0));
        store.publish(&[(k(1, 1), 1.0)]);
        assert_eq!(store.version_tag(), 1, "store tag tracks the head");
        assert_eq!(view.version_tag(), 0, "view tag stays pinned");
        view.advance_to_current();
        assert_eq!(view.version_tag(), 1);
    }

    #[test]
    fn compact_drops_old_versions_only() {
        let store = VersionedStore::new();
        for i in 0..5 {
            store.publish(&[(k(i, i), 1.0)]);
        }
        assert_eq!(store.retained_versions(), 6);
        store.compact(VersionId(3));
        assert_eq!(store.retained_versions(), 3);
        assert!(store.pin_at(VersionId(2)).is_none());
        assert!(store.pin_at(VersionId(3)).is_some());
        assert!(store.delta_between(VersionId(2), VersionId(5)).is_none());
        assert_eq!(
            store.delta_between(VersionId(3), VersionId(5)).unwrap(),
            vec![(k(3, 3), 1.0), (k(4, 4), 1.0)]
        );
        // Compacting to an already-dropped point is a no-op.
        store.compact(VersionId(1));
        assert_eq!(store.retained_versions(), 3);
    }

    #[test]
    fn publish_and_advance_emit_causal_spans() {
        use batchbb_obs::{jsonl, MemorySink};

        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(3);
        let store = VersionedStore::from_entries([(k(0, 0), 1.0)])
            .with_tracing(tracer.clone(), sink.clone());
        let view = store.pin();
        store.publish(&[(k(0, 0), 2.0), (k(1, 1), 4.0)]);
        let (_, delta) = view.advance_to_current();
        assert_eq!(delta.len(), 2);
        view.advance_to_current(); // already current → no span
        let events: Vec<_> = sink
            .lines()
            .iter()
            .map(|l| jsonl::parse_line(l).unwrap())
            .collect();
        let publish = events
            .iter()
            .find(|e| e.name() == "span.start" && e.str("name") == Some("store.publish"))
            .expect("publish span");
        assert_eq!(publish.u64("version"), Some(1));
        assert_eq!(publish.u64("entries"), Some(2));
        let advances: Vec<_> = events
            .iter()
            .filter(|e| e.name() == "span.start" && e.str("name") == Some("store.advance"))
            .collect();
        assert_eq!(advances.len(), 1, "a no-op advance must not emit a span");
        assert_eq!(advances[0].u64("from"), Some(0));
        assert_eq!(advances[0].u64("to"), Some(1));
        assert_eq!(advances[0].u64("entries"), Some(2));
        // Every start has a matching end at a timestamp >= its start.
        for start in [publish, advances[0]] {
            let id = start.u64("span").unwrap();
            let end = events
                .iter()
                .find(|e| e.name() == "span.end" && e.u64("span") == Some(id))
                .expect("span end");
            assert!(end.u64("ts_ns").unwrap() >= start.u64("ts_ns").unwrap());
        }
    }

    #[test]
    fn concurrent_publishers_and_pinned_readers_never_tear() {
        let store = VersionedStore::from_entries((0..64).map(|i| (k(i, 0), 1.0)));
        let view = store.pin();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..50 {
                        store.publish(&[(k(i % 64, 0), (t + 1) as f64), (k(i % 64, 1), -1.0)]);
                    }
                });
            }
            // Reader: the pinned view must answer from v0 throughout.
            for _ in 0..500 {
                for i in 0..64 {
                    assert_eq!(view.get(&k(i, 0)), Some(1.0));
                    assert_eq!(view.get(&k(i, 1)), None);
                }
            }
        });
        assert_eq!(store.current_version(), VersionId(200));
        // Replaying every delta serially from v0 reproduces the head state.
        let mut replay = MemoryStore::from_entries((0..64).map(|i| (k(i, 0), 1.0)));
        for (key, delta) in store.delta_between(VersionId(0), VersionId(200)).unwrap() {
            replay.add(key, delta);
        }
        let head = store.pin();
        assert_eq!(head.nnz(), replay.nnz());
        for (key, value) in replay.iter() {
            assert_eq!(head.get(key).map(f64::to_bits), Some(value.to_bits()));
        }
    }
}
