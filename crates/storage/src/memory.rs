//! The hash-based in-memory store (§1.3's constant-time access).

use batchbb_tensor::{CoeffKey, KeyMap};

use crate::stats::Counters;
use crate::{CoefficientStore, Completion, IoStats, MutableStore};

/// Magnitude at or below which an updated coefficient is evicted as zero,
/// so later reads return exactly `0.0`. The one definition:
/// [`MemoryStore`], [`crate::VersionedStore`] and the executor's update
/// repair all use it, which is what keeps a repaired executor
/// bit-identical to one restarted on the updated store.
pub const ZERO_TOL: f64 = 1e-13;

/// Hash-based in-memory coefficient store.
///
/// The default store for experiments: sparse, constant-time access, and
/// updatable via [`MutableStore::add`].
#[derive(Debug, Default)]
pub struct MemoryStore {
    map: KeyMap<f64>,
    counters: Counters,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// Bulk-loads from `(key, value)` pairs, summing duplicates.
    pub fn from_entries(entries: impl IntoIterator<Item = (CoeffKey, f64)>) -> Self {
        let entries = entries.into_iter();
        let mut map = KeyMap::with_capacity_and_hasher(entries.size_hint().0, Default::default());
        for (k, v) in entries {
            *map.entry(k).or_insert(0.0) += v;
        }
        map.retain(|_, v| v.abs() > ZERO_TOL);
        MemoryStore {
            map,
            counters: Counters::default(),
        }
    }

    /// Iterates over stored entries (no retrievals counted; this is a
    /// maintenance path, not query evaluation).
    pub fn iter(&self) -> impl Iterator<Item = (&CoeffKey, &f64)> {
        self.map.iter()
    }

    /// Sum of |value| over all stored coefficients — the constant `K` in
    /// Theorem 1's worst-case bound.
    pub fn abs_sum(&self) -> f64 {
        self.map.values().map(|v| v.abs()).sum()
    }
}

impl CoefficientStore for MemoryStore {
    #[inline]
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        self.counters.count_window(keys.len(), keys.len());
        Completion::per_key(keys, |key| Ok(self.map.get(key).copied()))
    }

    fn nnz(&self) -> usize {
        self.map.len()
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

impl MutableStore for MemoryStore {
    fn add(&mut self, key: CoeffKey, delta: f64) {
        let slot = self.map.entry(key).or_insert(0.0);
        *slot += delta;
        if slot.abs() <= ZERO_TOL {
            self.map.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_counts_retrievals() {
        let s = MemoryStore::from_entries([(CoeffKey::one(3), 1.5)]);
        assert_eq!(s.get(&CoeffKey::one(3)), Some(1.5));
        assert_eq!(s.get(&CoeffKey::one(4)), None, "miss still counted");
        let st = s.stats();
        assert_eq!(st.retrievals, 2);
        s.reset_stats();
        assert_eq!(s.stats().retrievals, 0);
    }

    #[test]
    fn memory_store_merges_duplicates() {
        let s = MemoryStore::from_entries([
            (CoeffKey::one(1), 1.0),
            (CoeffKey::one(1), 2.0),
            (CoeffKey::one(2), 1.0),
            (CoeffKey::one(2), -1.0),
        ]);
        assert_eq!(s.nnz(), 1, "cancelled entry dropped");
        assert_eq!(s.get(&CoeffKey::one(1)), Some(3.0));
    }

    #[test]
    fn memory_store_add_and_evict() {
        let mut s = MemoryStore::new();
        s.add(CoeffKey::one(0), 2.0);
        s.add(CoeffKey::one(0), -2.0);
        assert_eq!(s.nnz(), 0, "zeroed coefficient evicted");
        s.add(CoeffKey::one(0), 0.5);
        assert_eq!(s.get(&CoeffKey::one(0)), Some(0.5));
    }

    #[test]
    fn abs_sum_is_l1_norm() {
        let s = MemoryStore::from_entries([(CoeffKey::one(0), -2.0), (CoeffKey::one(1), 3.0)]);
        assert_eq!(s.abs_sum(), 5.0);
    }
}
