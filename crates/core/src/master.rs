//! The master list (step 3 of Batch-Biggest-B).

use batchbb_tensor::{CoeffKey, KeyMap};

use crate::BatchQueries;

/// The merged coefficient list: for every distinct coefficient key touched
/// by the batch, the sparse *column* of `(query index, q̂ᵢ[ξ])` pairs.
///
/// The ratio [`MasterList::len`] / [`BatchQueries::total_coefficients`] is
/// the I/O sharing factor of Observation 1: the paper's 512-query batch
/// needs 57,456 shared retrievals instead of 923,076 unshared ones.
#[derive(Debug, Clone, Default)]
pub struct MasterList {
    columns: KeyMap<Vec<(u32, f64)>>,
}

impl MasterList {
    /// Merges the per-query lists of a rewritten batch.
    pub fn build(batch: &BatchQueries) -> Self {
        let mut columns: KeyMap<Vec<(u32, f64)>> = KeyMap::default();
        for (qi, coeffs) in batch.coefficients().iter().enumerate() {
            for &(key, value) in coeffs.entries() {
                columns.entry(key).or_default().push((qi as u32, value));
            }
        }
        MasterList { columns }
    }

    /// Number of distinct coefficients — the I/O cost of exact batch
    /// evaluation.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when no query has any coefficient.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The column for one key, if any query touches it.
    pub fn column(&self, key: &CoeffKey) -> Option<&[(u32, f64)]> {
        self.columns.get(key).map(Vec::as_slice)
    }

    /// Iterates over `(key, column)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&CoeffKey, &[(u32, f64)])> {
        self.columns.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Consumes the list into its underlying map (used by the executor).
    pub(crate) fn into_columns(self) -> KeyMap<Vec<(u32, f64)>> {
        self.columns
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
