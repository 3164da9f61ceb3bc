//! In-memory stores: hash-based and array-based (§1.3's two options).

use batchbb_tensor::{CoeffKey, KeyMap, Shape, Tensor};

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
        let mut map: KeyMap<f64> = KeyMap::default();
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
        Completion::per_key(keys, |key| {
            self.counters.count_retrieval();
            self.counters.count_physical();
            Ok(self.map.get(key).copied())
        })
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

/// Dense array-based store over a fixed (dyadic) coefficient domain.
///
/// Appropriate for small domains where `N^d` values fit in memory; lookups
/// never miss (absent coefficients are stored zeros).
#[derive(Debug)]
pub struct ArrayStore {
    data: Tensor,
    nnz: usize,
    counters: Counters,
}

impl ArrayStore {
    /// Wraps a fully transformed coefficient tensor.
    pub fn from_tensor(data: Tensor) -> Self {
        let nnz = data.count_nonzero(ZERO_TOL);
        ArrayStore {
            data,
            nnz,
            counters: Counters::default(),
        }
    }

    /// The coefficient domain shape.
    pub fn shape(&self) -> &Shape {
        self.data.shape()
    }
}

impl CoefficientStore for ArrayStore {
    /// A key outside the shape (wrong rank, or a coordinate past its
    /// axis) holds no coefficient: absent, like in every sparse store.
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        let shape = self.data.shape();
        Completion::per_key(keys, |key| {
            self.counters.count_retrieval();
            self.counters.count_physical();
            let inside = key.rank() == shape.rank()
                && std::iter::zip(key.coords(), shape.dims()).all(|(&c, &d)| (c as usize) < d);
            Ok(inside.then(|| self.data.data()[key.offset_in(shape)]))
        })
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

impl MutableStore for ArrayStore {
    fn add(&mut self, key: CoeffKey, delta: f64) {
        let off = key.offset_in(self.data.shape());
        let before = self.data.data()[off];
        let after = before + delta;
        self.data.data_mut()[off] = after;
        match (before.abs() > ZERO_TOL, after.abs() > ZERO_TOL) {
            (false, true) => self.nnz += 1,
            (true, false) => self.nnz -= 1,
            _ => {}
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

    #[test]
    fn array_store_roundtrip() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let mut t = Tensor::zeros(shape);
        t[&[1, 2]] = 7.0;
        let s = ArrayStore::from_tensor(t);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.get(&CoeffKey::new(&[1, 2])), Some(7.0));
        assert_eq!(
            s.get(&CoeffKey::new(&[0, 0])),
            Some(0.0),
            "dense store returns stored zeros"
        );
        assert_eq!(s.stats().retrievals, 2);
    }

    #[test]
    fn array_store_answers_absent_outside_its_shape() {
        let s = ArrayStore::from_tensor(Tensor::zeros(Shape::new(vec![4, 4]).unwrap()));
        let (wrong_rank, past_axis) = (CoeffKey::new(&[3, 3, 0]), CoeffKey::new(&[1, 4]));
        assert_eq!(s.try_get(&wrong_rank), Ok(None));
        assert_eq!(
            s.try_get_many(&[past_axis, CoeffKey::new(&[3, 3]), wrong_rank]),
            Ok(vec![None, Some(0.0), None])
        );
        assert_eq!(s.stats().retrievals, 4, "an absent key is still charged");
    }

    #[test]
    fn array_store_nnz_tracking() {
        let shape = Shape::new(vec![2, 2]).unwrap();
        let mut s = ArrayStore::from_tensor(Tensor::zeros(shape));
        s.add(CoeffKey::new(&[0, 1]), 1.0);
        assert_eq!(s.nnz(), 1);
        s.add(CoeffKey::new(&[0, 1]), -1.0);
        assert_eq!(s.nnz(), 0);
    }
}
