//! The master list (step 3 of Batch-Biggest-B).

use batchbb_tensor::{CoeffKey, KeyMap};

use crate::BatchQueries;

/// The merged coefficient list: for every distinct coefficient key touched
/// by the batch, the sparse *column* of `(query index, q̂ᵢ[ξ])` pairs.
///
/// Flat and key-sorted (CSR): `keys` ascending, the column of `keys[s]` —
/// the key's *slot* `s` — at `leaves[offsets[s]..offsets[s + 1]]`, in query
/// order.  Three allocations however many keys, immutable once built; a
/// batch builds it once ([`BatchQueries::master`]) and every executor of
/// that batch indexes the same list by slot.
///
/// The ratio [`MasterList::len`] / [`BatchQueries::total_coefficients`] is
/// the I/O sharing factor of Observation 1: the paper's 512-query batch
/// needs 57,456 shared retrievals instead of 923,076 unshared ones.
#[derive(Debug, Clone, Default)]
pub struct MasterList {
    keys: Vec<CoeffKey>,
    offsets: Vec<u32>,
    leaves: Vec<(u32, f64)>,
}

impl MasterList {
    /// Merges the per-query lists of a rewritten batch: one hashed pass
    /// counts each key's column, the distinct keys are sorted, and a second
    /// pass scatters every coefficient into its column.
    pub fn build(batch: &BatchQueries) -> Self {
        let coeffs = batch.coefficients();
        let mut cursor: KeyMap<u32> = KeyMap::default();
        for list in coeffs {
            for (key, _) in list.entries() {
                *cursor.entry(*key).or_insert(0) += 1;
            }
        }
        let mut keys: Vec<CoeffKey> = cursor.keys().copied().collect();
        keys.sort_unstable();
        // The count becomes the column's write cursor.
        let mut offsets = Vec::with_capacity(keys.len() + 1);
        let mut end = 0u32;
        offsets.push(end);
        for key in &keys {
            let slot = cursor.get_mut(key).expect("counted above");
            let len = *slot;
            *slot = end;
            end += len;
            offsets.push(end);
        }
        let mut leaves = vec![(0u32, 0.0); end as usize];
        for (qi, list) in coeffs.iter().enumerate() {
            for &(key, value) in list.entries() {
                let at = cursor.get_mut(&key).expect("counted above");
                leaves[*at as usize] = (qi as u32, value);
                *at += 1;
            }
        }
        MasterList {
            keys,
            offsets,
            leaves,
        }
    }

    /// Number of distinct coefficients — the I/O cost of exact batch
    /// evaluation.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no query has any coefficient.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The column for one key, if any query touches it.
    pub fn column(&self, key: &CoeffKey) -> Option<&[(u32, f64)]> {
        self.keys
            .binary_search(key)
            .ok()
            .map(|slot| self.column_at(slot))
    }

    /// Iterates over `(key, column)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&CoeffKey, &[(u32, f64)])> {
        self.keys
            .iter()
            .enumerate()
            .map(|(slot, key)| (key, self.column_at(slot)))
    }

    /// The key at `slot`.
    pub(crate) fn key(&self, slot: usize) -> &CoeffKey {
        &self.keys[slot]
    }

    /// The column of the key at `slot`.
    pub(crate) fn column_at(&self, slot: usize) -> &[(u32, f64)] {
        &self.leaves[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Where `key` is — `Ok(slot)` — or would go — `Err(slot)`, as a binary
    /// search answers — galloping forward from slot `hint` when every key
    /// before it is smaller, and from slot 0 otherwise.  A walk over
    /// ascending keys, each search hinted with the last answer, costs
    /// `O(log gap)` per key instead of `O(log len)`.
    pub(crate) fn search_from(&self, hint: usize, key: &CoeffKey) -> Result<usize, usize> {
        let past = self.keys[..hint].last().is_some_and(|last| last >= key);
        let from = if past { 0 } else { hint };
        let rest = &self.keys[from..];
        let mut end = 1;
        while end < rest.len() && rest[end - 1] < *key {
            end *= 2;
        }
        let start = end / 2;
        rest[start..end.min(rest.len())]
            .binary_search(key)
            .map(|at| from + start + at)
            .map_err(|at| from + start + at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_query::{HyperRect, RangeSum, WaveletStrategy};
    use batchbb_tensor::Shape;
    use batchbb_wavelet::Wavelet;

    fn master(queries: Vec<RangeSum>) -> (BatchQueries, MasterList) {
        let domain = Shape::new(vec![16, 16]).unwrap();
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
        let ml = MasterList::build(&batch);
        (batch, ml)
    }

    #[test]
    fn identical_queries_share_everything() {
        let q = RangeSum::count(HyperRect::new(vec![2, 2], vec![9, 9]));
        let (batch, ml) = master(vec![q.clone(), q.clone(), q]);
        assert_eq!(ml.len() * 3, batch.total_coefficients());
        for (_, col) in ml.iter() {
            assert_eq!(col.len(), 3, "every column lists all three queries");
        }
    }

    /// From any hint, the galloping search lands where the binary search
    /// does, for present and absent keys.
    #[test]
    fn search_from_is_the_binary_search_from_any_hint() {
        let q = RangeSum::count(HyperRect::new(vec![2, 3], vec![9, 12]));
        let (_, ml) = master(vec![q]);
        for key in (0..256).map(|i| CoeffKey::new(&[i / 16, i % 16])) {
            for hint in 0..=ml.len() {
                assert_eq!(ml.search_from(hint, &key), ml.keys.binary_search(&key));
            }
        }
    }

    #[test]
    fn disjoint_small_queries_share_coarse_wavelets() {
        let a = RangeSum::count(HyperRect::new(vec![0, 0], vec![7, 15]));
        let b = RangeSum::count(HyperRect::new(vec![8, 0], vec![15, 15]));
        let (batch, ml) = master(vec![a, b]);
        assert!(
            ml.len() < batch.total_coefficients(),
            "even disjoint ranges share coarse-scale coefficients"
        );
    }

    #[test]
    fn columns_preserve_values() {
        let q = RangeSum::count(HyperRect::new(vec![0, 0], vec![15, 15]));
        let (batch, ml) = master(vec![q]);
        for &(key, v) in batch.coefficients()[0].entries() {
            let col = ml.column(&key).expect("key present");
            assert_eq!(col, &[(0u32, v)]);
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let (_, ml) = master(vec![]);
        assert!(ml.is_empty());
        assert_eq!(ml.len(), 0);
        assert_eq!(ml.iter().count(), 0);
    }

    /// The keys the hot maps actually hold are not a grid but the support
    /// of a wavelet rewrite (dyadic, clustered at coarse levels).  On a
    /// `dash_mem`-shaped statement — `COUNT(*), SUM(a1) … GROUP BY a0(8),
    /// a1(4)` over a 35 % window of a 2^10 × 2^10 domain under Db4, 10.6k
    /// master keys here (the workload averages 9.4k) — `KeyHasher`'s low
    /// 14 bits (the bucket index of a map that size) take at least 0.9×
    /// the distinct values an ideal random function would.
    #[test]
    fn a_rewritten_batchs_keys_spread_like_random_ones() {
        use std::hash::{BuildHasher, BuildHasherDefault};

        let domain = Shape::new(vec![1024, 1024]).unwrap();
        let (lo0, w0, lo1, w1) = (137, 45, 201, 90);
        let mut queries = Vec::new();
        for i in 0..8 {
            for j in 0..4 {
                let cell = HyperRect::new(
                    vec![lo0 + i * w0, lo1 + j * w1],
                    vec![lo0 + (i + 1) * w0 - 1, lo1 + (j + 1) * w1 - 1],
                );
                queries.push(RangeSum::count(cell.clone()));
                queries.push(RangeSum::sum(cell, 1));
            }
        }
        let strategy = WaveletStrategy::new(Wavelet::Db4);
        let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
        let master = MasterList::build(&batch);
        let n = master.len();
        assert!((8_000..=11_000).contains(&n), "{n} master keys");

        const BUCKETS: usize = 1 << 14;
        let hasher = BuildHasherDefault::<batchbb_tensor::KeyHasher>::default();
        let mut hit = vec![false; BUCKETS];
        for (key, _) in master.iter() {
            hit[hasher.hash_one(key) as usize % BUCKETS] = true;
        }
        let distinct = hit.iter().filter(|&&b| b).count() as f64;
        let ideal = BUCKETS as f64 * (1.0 - (1.0 - 1.0 / BUCKETS as f64).powi(n as i32));
        assert!(
            distinct >= 0.9 * ideal,
            "{distinct} distinct buckets for {n} keys, ideal {ideal:.0}"
        );
    }
}
