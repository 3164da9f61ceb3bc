//! Versioned coefficient store: MVCC snapshots for live updates without
//! reader coordination, at the paper's own update cost.
//!
//! A *version* of a [`VersionedStore`] is `(base, overlay)`: `base` is one
//! `Arc`-shared hash map that every version since the last fold reads, and
//! `overlay` holds, for every slot touched since that base, its value at
//! this version — or a tombstone where the zero-eviction rule removed it.
//! [`VersionedStore::publish`] copies the previous overlay and applies the
//! batch to the copy, so a publish costs `O(slots changed since the base)`
//! and never `O(N)`; a read probes the overlay (skipped while it is empty)
//! and then the base.  [`VersionedStore::compact`] folds the head's overlay
//! into the base *in place* whenever no reader holds either, and a publish
//! that inherits an overlay larger than an eighth of a base readers still
//! share re-bases by copy, so a pin that never moves costs one `O(N)` copy
//! per `N/8` changed slots instead of one per publish.
//!
//! A reader pins a version with [`VersionedStore::pin`] and reads through
//! the returned [`VersionView`] — an ordinary [`CoefficientStore`] whose
//! answers are frozen at the pinned version no matter how many later
//! versions are published.  The view is the only read path: the store
//! itself is not a [`CoefficientStore`], so no executor, cache or engine
//! can be handed the moving head and mix two versions under one
//! certificate.  When the reader *chooses* to move forward it
//! calls [`VersionView::advance_to_current`], which re-pins and returns the
//! exact update entries between the two versions (concatenated in publish
//! order, never pre-summed) so a progressive executor can repair its
//! estimates (`ProgressiveExecutor::advance_version`) and stay
//! bit-identical to a fresh start on the new version.  This publish →
//! advance → repair chain is the only way data changes under a live
//! reader: nothing a reader can reach is ever mutated.
//!
//! Bit-identity contract: a published batch is applied in input order, and
//! each key owns one slot, so the publish *is* the equivalent sequence of
//! [`crate::MutableStore::add`] calls on a [`crate::MemoryStore`] — no
//! grouping or sort to argue about — with the same `1e-13` zero-eviction
//! rule after every single delta.  A view's version tag
//! ([`CoefficientStore::version_tag`], the pinned id) lets caching and
//! async-fetch wrappers key their tables by `(version, key)` so entries
//! from different versions never alias.
//!
//! See DESIGN.md §13 for the pin/publish/advance contract.

use std::sync::{Arc, Mutex};

use batchbb_tensor::{CoeffKey, KeyMap};

use crate::stats::Counters;
use crate::{CoefficientStore, Completion, IoStats, ZERO_TOL};

/// A publish re-bases by copy once the overlay it inherits holds more than
/// `1/REBASE_FRACTION` of the base's slots: something still shares that
/// base (else `compact` would have folded the overlay away), so the `O(N)`
/// copy is paid once per `N/REBASE_FRACTION` changed slots instead of the
/// per-publish overlay copy growing without bound.
const REBASE_FRACTION: usize = 8;

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

/// One immutable version: the base it shares with its neighbours plus the
/// slots that differ from it.
#[derive(Debug)]
struct VersionData {
    id: VersionId,
    /// Shared by every version since the last fold or re-base.
    base: Arc<KeyMap<f64>>,
    /// Every slot touched since `base`: its value at this version, `None`
    /// where the zero-eviction rule removed it.
    overlay: KeyMap<Option<f64>>,
    nnz: usize,
}

impl VersionData {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        if !self.overlay.is_empty() {
            if let Some(slot) = self.overlay.get(key) {
                return *slot;
            }
        }
        self.base.get(key).copied()
    }

    fn abs_sum(&self) -> f64 {
        let untouched: f64 = self
            .base
            .iter()
            .filter(|(key, _)| !self.overlay.contains_key(key))
            .map(|(_, v)| v.abs())
            .sum();
        let touched: f64 = self.overlay.values().flatten().map(|v| v.abs()).sum();
        untouched + touched
    }
}

/// Writes `overlay`'s slots through to `base`.  Exact: the overlay holds
/// values, not deltas.
fn fold(base: &mut KeyMap<f64>, overlay: impl IntoIterator<Item = (CoeffKey, Option<f64>)>) {
    for (key, slot) in overlay {
        match slot {
            Some(value) => base.insert(key, value),
            None => base.remove(&key),
        };
    }
}

/// The append-only log: retained snapshots, head last, and the update
/// batch that produced each version (for delta repair).
#[derive(Debug)]
struct VersionLog {
    /// Retained versions in id order; never empty, the last is the head.
    /// The log holds one reference to each, so a strong count above one
    /// means a live [`VersionView`] pins that version.
    history: Vec<Arc<VersionData>>,
    /// `deltas[i]` transformed `history[i]` into `history[i + 1]`, entries
    /// in the exact order the publisher supplied them.
    deltas: Vec<Arc<Vec<(CoeffKey, f64)>>>,
    /// Id of `history[0]` (> 0 once old versions have been compacted away).
    base: VersionId,
}

impl VersionLog {
    fn head(&self) -> &Arc<VersionData> {
        self.history.last().expect("the log retains its head")
    }

    fn snapshot_at(&self, id: VersionId) -> Option<Arc<VersionData>> {
        let idx = id.0.checked_sub(self.base.0)? as usize;
        self.history.get(idx).cloned()
    }

    /// Concatenated update entries taking `from` to `to`, publish order.
    fn delta_between(&self, from: VersionId, to: VersionId) -> Option<Vec<(CoeffKey, f64)>> {
        if from > to || from < self.base || to > self.head().id {
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

/// The versioned base-plus-overlay store.
///
/// Cheap to share: readers pin views, writers publish batches, and the only
/// synchronization is a short mutex around the version log — readers never
/// take it on the data path (their pinned version data is immutable).
///
/// The store itself is not a [`CoefficientStore`]: coefficients are read
/// only through a [`VersionView`] from [`VersionedStore::pin`] or
/// [`VersionedStore::pin_at`], so no reader can see a publish land
/// mid-run.
///
/// ```compile_fail,E0277
/// use batchbb_storage::{CoefficientStore, VersionedStore};
/// fn read(_: &dyn CoefficientStore) {}
/// read(&VersionedStore::new());
/// ```
#[derive(Debug)]
pub struct VersionedStore {
    log: Arc<Mutex<VersionLog>>,
}

impl VersionedStore {
    /// An empty store at version 0.
    pub fn new() -> Self {
        Self::from_entries(std::iter::empty())
    }

    /// Bulk-loads version 0 from `(key, value)` pairs (summing duplicates
    /// under the same zero-eviction rule as [`crate::MemoryStore`]).
    pub fn from_entries(entries: impl IntoIterator<Item = (CoeffKey, f64)>) -> Self {
        let entries = entries.into_iter();
        let mut base = KeyMap::with_capacity_and_hasher(entries.size_hint().0, Default::default());
        for (k, v) in entries {
            *base.entry(k).or_insert(0.0) += v;
        }
        base.retain(|_, v| v.abs() > ZERO_TOL);
        let v0 = Arc::new(VersionData {
            id: VersionId(0),
            nnz: base.len(),
            base: Arc::new(base),
            overlay: KeyMap::default(),
        });
        VersionedStore {
            log: Arc::new(Mutex::new(VersionLog {
                history: vec![v0],
                deltas: Vec::new(),
                base: VersionId(0),
            })),
        }
    }

    /// Publishes a new version applying `entries` (each `(key, delta)`
    /// *adds* `delta` to the key's slot) and returns its id.
    ///
    /// The new version shares its predecessor's base and owns a copy of
    /// its overlay with `entries` applied in input order — each key owns
    /// one slot, so that is tuple-at-a-time [`crate::MutableStore::add`],
    /// bit for bit.  The cost is the slots changed since the base, not the
    /// store, except that a publish inheriting an overlay larger than an
    /// eighth of the base copies the base once and starts a fresh overlay.
    /// Readers are never blocked: the log mutex serializes publishers only.
    pub fn publish(&self, entries: &[(CoeffKey, f64)]) -> VersionId {
        let mut log = self.log.lock().unwrap();
        let prev = log.head();
        let (base, mut overlay) = if prev.overlay.len() > prev.base.len() / REBASE_FRACTION {
            let mut base = KeyMap::clone(&prev.base);
            fold(&mut base, prev.overlay.iter().map(|(k, slot)| (*k, *slot)));
            (Arc::new(base), KeyMap::default())
        } else {
            (prev.base.clone(), prev.overlay.clone())
        };
        let mut nnz = prev.nnz;
        for (k, d) in entries {
            let slot = overlay.entry(*k).or_insert_with(|| base.get(k).copied());
            let value = slot.unwrap_or(0.0) + d;
            let next = (value.abs() > ZERO_TOL).then_some(value);
            nnz = nnz + usize::from(next.is_some()) - usize::from(slot.is_some());
            *slot = next;
        }
        let id = VersionId(prev.id.0 + 1);
        log.history.push(Arc::new(VersionData {
            id,
            base,
            overlay,
            nnz,
        }));
        log.deltas.push(Arc::new(entries.to_vec()));
        id
    }

    /// The id of the latest published version.
    pub fn current_version(&self) -> VersionId {
        self.log.lock().unwrap().head().id
    }

    /// [`VersionedStore::current_version`] as the tag a [`VersionView`]
    /// pinned now would report from [`CoefficientStore::version_tag`].
    pub fn version_tag(&self) -> u64 {
        self.current_version().as_u64()
    }

    /// Pins the current version and returns a view frozen at it.
    pub fn pin(&self) -> VersionView {
        let log = self.log.lock().unwrap();
        VersionView {
            log: self.log.clone(),
            pinned: Mutex::new(log.head().clone()),
            counters: Counters::default(),
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
        })
    }

    /// The concatenated update entries taking version `from` to version
    /// `to`, in publish order (never pre-summed — repairing with them is
    /// bit-identical to having observed each publish individually).
    /// `None` if the range is invalid or partially compacted away.
    pub fn delta_between(&self, from: VersionId, to: VersionId) -> Option<Vec<(CoeffKey, f64)>> {
        self.log.lock().unwrap().delta_between(from, to)
    }

    /// Drops retained versions and deltas older than `oldest_pinned` — or
    /// older than the oldest version a live [`VersionView`] still pins, if
    /// that is older: the log sees its own pins, so an over-stated
    /// argument never strands a view.  After compaction,
    /// `pin_at`/`delta_between` on dropped ids return `None`; the current
    /// version and everything from the cut forward stay available.
    ///
    /// This is also where the head's overlay is folded into its base, in
    /// place and off the publish path, whenever no view and no retained
    /// version holds either.
    pub fn compact(&self, oldest_pinned: VersionId) {
        let mut log = self.log.lock().unwrap();
        let wanted = oldest_pinned
            .min(log.head().id)
            .0
            .saturating_sub(log.base.0) as usize;
        let cut = log
            .history
            .iter()
            .take(wanted)
            .position(|version| Arc::strong_count(version) > 1)
            .unwrap_or(wanted);
        log.history.drain(..cut);
        log.deltas.drain(..cut);
        log.base = log.history[0].id;
        let head = log.history.last_mut().expect("the log retains its head");
        if let Some(head) = Arc::get_mut(head) {
            if let Some(base) = Arc::get_mut(&mut head.base) {
                fold(base, std::mem::take(&mut head.overlay));
            }
        }
    }

    /// Number of retained versions (history length).
    pub fn retained_versions(&self) -> usize {
        self.log.lock().unwrap().history.len()
    }

    /// Sum of |value| over the current version — the constant `K` in
    /// Theorem 1's worst-case bound.
    pub fn abs_sum(&self) -> f64 {
        self.log.lock().unwrap().head().abs_sum()
    }
}

impl Default for VersionedStore {
    fn default() -> Self {
        Self::new()
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
}

impl VersionView {
    /// The pinned version id.
    pub fn version(&self) -> VersionId {
        self.pinned.lock().unwrap().id
    }

    /// Re-pins to the latest published version and returns `(new id,
    /// update entries between old and new pin, publish order)`.  A no-op
    /// (empty delta) when already current.
    pub fn advance_to_current(&self) -> (VersionId, Vec<(CoeffKey, f64)>) {
        let log = self.log.lock().unwrap();
        let target = log.head().clone();
        let mut pinned = self.pinned.lock().unwrap();
        let delta = log
            .delta_between(pinned.id, target.id)
            .expect("pinned version still retained");
        *pinned = target;
        (pinned.id, delta)
    }

    /// Re-pins to `target` (which must be `>=` the current pin and still
    /// retained) and returns the update entries between the two pins.
    pub fn advance_to(&self, target: VersionId) -> Option<Vec<(CoeffKey, f64)>> {
        let log = self.log.lock().unwrap();
        let snapshot = log.snapshot_at(target)?;
        let mut pinned = self.pinned.lock().unwrap();
        let delta = log.delta_between(pinned.id, target)?;
        *pinned = snapshot;
        Some(delta)
    }

    /// Sum of |value| over the pinned version.
    pub fn abs_sum(&self) -> f64 {
        self.pinned.lock().unwrap().abs_sum()
    }
}

impl CoefficientStore for VersionView {
    #[inline]
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        let pinned = self.pinned.lock().unwrap();
        self.counters.count_memory_reads(keys.len());
        Completion::per_key(keys, |key| Ok(pinned.get(key)))
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
        let store = VersionedStore::from_entries(seed.iter().cloned());
        store.publish(&updates);
        let versioned = store.pin();
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
        // A fresh pin sees the head.
        let head = store.pin();
        assert_eq!(head.get(&k(0, 0)), Some(11.0));
        assert_eq!(head.get(&k(5, 5)), Some(3.0));
    }

    /// Where a view's base lives and how many slots its overlay holds —
    /// read without cloning an `Arc`, so looking pins nothing.
    fn layout(view: &VersionView) -> (*const KeyMap<f64>, usize) {
        let data = view.pinned.lock().unwrap();
        (Arc::as_ptr(&data.base), data.overlay.len())
    }

    /// The update bound, structurally: a publish never copies the base, the
    /// overlay is exactly the slots touched since the last fold, and the
    /// fold happens in place — but only once nothing else reads the base.
    #[test]
    fn publish_shares_the_base_and_compact_folds_it_in_place() {
        let store = VersionedStore::from_entries((0..256).map(|i| (k(i, i % 7), 1.0 + i as f64)));
        let before = store.pin();
        let (base, _) = layout(&before);
        store.publish(&[(k(0, 0), 1.0), (k(300, 0), 2.0), (k(0, 0), 0.5)]);
        store.publish(&[(k(1, 1), -2.0), (k(300, 0), 1.0), (k(301, 0), 1e-14)]);
        let after = store.pin();
        assert_eq!(layout(&before), (base, 0));
        assert_eq!(
            layout(&after),
            (base, 4),
            "the same base, one overlay slot per distinct key touched since"
        );
        assert_eq!(after.nnz(), 256, "one slot evicted, one created");
        // `before` pins the base, `after` the head: nothing may move.
        store.compact(store.current_version());
        assert_eq!(store.retained_versions(), 3);
        assert_eq!(layout(&after), (base, 4));
        drop(before);
        store.compact(store.current_version());
        assert_eq!(store.retained_versions(), 1);
        assert_eq!(layout(&after), (base, 4), "a pinned head is never folded");
        drop(after);
        store.compact(store.current_version());
        let folded = store.pin();
        assert_eq!(layout(&folded), (base, 0), "folded in place");
        assert_eq!(folded.nnz(), 256);
        assert_eq!(folded.get(&k(0, 0)), Some(2.5));
        assert_eq!(folded.get(&k(1, 1)), None);
        assert_eq!(folded.get(&k(300, 0)), Some(3.0));
    }

    #[test]
    fn an_outgrown_overlay_re_bases_by_copy() {
        let store = VersionedStore::from_entries((0..64).map(|i| (k(i, 0), 1.0)));
        let pinned = store.pin();
        let touched = 64 / REBASE_FRACTION + 1;
        store.publish(&(0..touched).map(|i| (k(i, 0), 1.0)).collect::<Vec<_>>());
        let grown = store.pin();
        store.publish(&[(k(70, 0), 4.0)]);
        let rebased = store.pin();
        assert_eq!(layout(&grown), (layout(&pinned).0, touched));
        assert_ne!(layout(&rebased).0, layout(&grown).0);
        assert_eq!(layout(&rebased).1, 1, "a fresh overlay on the copied base");
        // Every version still reads its own values.
        assert_eq!(pinned.get(&k(0, 0)), Some(1.0));
        assert_eq!(grown.get(&k(0, 0)), Some(2.0));
        assert_eq!(rebased.get(&k(0, 0)), Some(2.0));
        assert_eq!(
            (grown.get(&k(70, 0)), rebased.get(&k(70, 0))),
            (None, Some(4.0))
        );
        assert_eq!((grown.nnz(), rebased.nnz()), (64, 65));
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
    fn compact_never_strands_a_live_view() {
        let store = VersionedStore::new();
        let view = store.pin();
        store.publish(&[(k(0, 0), 1.0)]);
        store.compact(store.current_version());
        assert_eq!(view.advance_to_current().1, vec![(k(0, 0), 1.0)]);
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
