//! Sparse coefficient vectors, 1-D and multi-dimensional.
//!
//! Range-sum query vectors have very few nonzero wavelet coefficients
//! (`O((4δ+2)^d log^d N)`, §3.1), so queries are carried around as sparse
//! lists.  The multi-dimensional list of a separable query factor is the
//! cross product of its 1-D factor lists.

use batchbb_tensor::{CoeffKey, KeyMap, Tensor};

/// Default magnitude below which a coefficient is treated as exactly zero.
pub const DEFAULT_TOL: f64 = 1e-11;

/// A sparse 1-D coefficient vector: sorted `(index, value)` pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec1 {
    entries: Vec<(usize, f64)>,
}

impl SparseVec1 {
    /// An empty sparse vector.
    pub fn new() -> Self {
        SparseVec1::default()
    }

    /// Builds from unsorted pairs; sorts, merges duplicate indices, and
    /// drops entries with `|v| <= tol`.
    pub fn from_pairs(mut pairs: Vec<(usize, f64)>, tol: f64) -> Self {
        pairs.sort_by_key(|&(i, _)| i);
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            match entries.last_mut() {
                Some((j, acc)) if *j == i => *acc += v,
                _ => entries.push((i, v)),
            }
        }
        entries.retain(|&(_, v)| v.abs() > tol);
        SparseVec1 { entries }
    }

    /// Extracts the nonzero entries of a dense vector.
    pub fn from_dense(dense: &[f64], tol: f64) -> Self {
        SparseVec1 {
            entries: dense
                .iter()
                .enumerate()
                .filter(|(_, v)| v.abs() > tol)
                .map(|(i, &v)| (i, v))
                .collect(),
        }
    }

    /// Sorted `(index, value)` pairs.
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no nonzeros.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Materializes to a dense vector of length `n`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for &(i, v) in &self.entries {
            assert!(i < n, "sparse index {i} out of dense length {n}");
            out[i] = v;
        }
        out
    }

    /// Inner product with a dense vector.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        self.entries.iter().map(|&(i, v)| v * dense[i]).sum()
    }

    /// Sum of squared values.
    pub fn norm_sq(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v * v).sum()
    }
}

/// A sparse multi-dimensional coefficient list: `(key, value)` pairs sorted
/// by key for deterministic iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseCoeffs {
    entries: Vec<(CoeffKey, f64)>,
}

impl SparseCoeffs {
    /// An empty list.
    pub fn new() -> Self {
        SparseCoeffs::default()
    }

    /// Builds from unsorted pairs, merging duplicates (summed in input
    /// order, from `0.0`) and dropping `|v| <= tol`. The list is allocated
    /// at its length.
    pub fn from_pairs(pairs: Vec<(CoeffKey, f64)>, tol: f64) -> Self {
        let mut map: KeyMap<f64> =
            KeyMap::with_capacity_and_hasher(pairs.len(), Default::default());
        for (k, v) in pairs {
            *map.entry(k).or_insert(0.0) += v;
        }
        map.retain(|_, v| v.abs() > tol);
        let mut entries: Vec<(CoeffKey, f64)> = Vec::with_capacity(map.len());
        entries.extend(map);
        entries.sort_by_key(|&(k, _)| k);
        SparseCoeffs { entries }
    }

    /// Extracts the nonzeros of a dense tensor (e.g. a fully transformed
    /// query vector) — the reference path the lazy transform is tested
    /// against.
    pub fn from_tensor(t: &Tensor, tol: f64) -> Self {
        let shape = t.shape();
        let entries = t
            .data()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.abs() > tol)
            .map(|(off, &v)| (CoeffKey::new(&shape.unravel(off)), v))
            .collect();
        SparseCoeffs { entries }
    }

    /// Cross product of per-dimension 1-D factor lists:
    /// `q̂[ξ₀,…,ξ_{d-1}] = Π_i f̂ᵢ[ξᵢ]` for a separable query factor.
    ///
    /// Entries with product magnitude `<= tol` are dropped.
    pub fn tensor_product(factors: &[SparseVec1], tol: f64) -> Self {
        assert!(!factors.is_empty(), "need at least one factor");
        if factors.iter().any(SparseVec1::is_empty) {
            return SparseCoeffs::new();
        }
        // One entry per combination of factor entries, less what `tol`
        // drops: allocated at that count, the list never regrows.
        let combinations = factors.iter().map(SparseVec1::nnz).product();
        let mut entries: Vec<(CoeffKey, f64)> = Vec::with_capacity(combinations);
        let mut cursor = vec![0usize; factors.len()];
        let mut coords = vec![0usize; factors.len()];
        'outer: loop {
            let mut v = 1.0;
            for (d, &c) in cursor.iter().enumerate() {
                let (i, f) = factors[d].entries()[c];
                coords[d] = i;
                v *= f;
            }
            if v.abs() > tol {
                entries.push((CoeffKey::new(&coords), v));
            }
            // odometer over factor entries
            let mut d = factors.len();
            loop {
                if d == 0 {
                    break 'outer;
                }
                d -= 1;
                cursor[d] += 1;
                if cursor[d] < factors[d].nnz() {
                    break;
                }
                cursor[d] = 0;
            }
        }
        // Each factor is index-sorted and the odometer turns the last
        // dimension fastest, so the keys come out in `CoeffKey` order.
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        SparseCoeffs { entries }
    }

    /// Sums several sparse lists (e.g. the separable terms of a
    /// multi-monomial polynomial range-sum), dropping `|v| <= tol`.
    ///
    /// Every term is key-sorted, so this is a k-way merge: a key shared
    /// by several terms is summed from `0.0` in term order, which is
    /// [`SparseCoeffs::from_pairs`] of the concatenated terms bit for bit,
    /// without hashing or re-sorting. One term is filtered in place.
    pub fn sum(mut terms: Vec<SparseCoeffs>, tol: f64) -> Self {
        if terms.len() == 1 {
            let mut entries = terms.swap_remove(0).entries;
            entries.retain(|&(_, v)| v.abs() > tol);
            entries.shrink_to_fit();
            return SparseCoeffs { entries };
        }
        let mut heads: Vec<&[(CoeffKey, f64)]> = terms.iter().map(|t| &t.entries[..]).collect();
        let mut entries = Vec::with_capacity(heads.iter().map(|h| h.len()).sum());
        let smallest = |heads: &[&[(CoeffKey, f64)]]| {
            heads
                .iter()
                .filter_map(|h| h.first())
                .map(|&(k, _)| k)
                .min()
        };
        while let Some(key) = smallest(&heads) {
            let mut acc = 0.0;
            for head in &mut heads {
                while let Some((&(k, v), rest)) = head.split_first() {
                    if k != key {
                        break;
                    }
                    acc += v;
                    *head = rest;
                }
            }
            if acc.abs() > tol {
                entries.push((key, acc));
            }
        }
        entries.shrink_to_fit();
        SparseCoeffs { entries }
    }

    /// Sorted `(key, value)` entries.
    pub fn entries(&self) -> &[(CoeffKey, f64)] {
        &self.entries
    }

    /// The sorted entries, handed over without a copy.
    pub fn into_entries(self) -> Vec<(CoeffKey, f64)> {
        self.entries
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no nonzeros.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of squared values.
    pub fn norm_sq(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v * v).sum()
    }

    /// The `b` entries with the largest magnitude — the SSE biggest-B
    /// approximation of a single query vector (ties broken by key for
    /// determinism).
    pub fn top_b(&self, b: usize) -> SparseCoeffs {
        let mut ranked = self.entries.clone();
        ranked.sort_by(|x, y| {
            (y.1 * y.1)
                .total_cmp(&(x.1 * x.1))
                .then_with(|| x.0.cmp(&y.0))
        });
        ranked.truncate(b);
        ranked.sort_by_key(|&(k, _)| k);
        SparseCoeffs { entries: ranked }
    }

    /// Scatters the sparse coefficients into a dense tensor of `shape`.
    pub fn to_tensor(&self, shape: &batchbb_tensor::Shape) -> Tensor {
        let mut t = Tensor::zeros(shape.clone());
        for (k, v) in &self.entries {
            t.data_mut()[k.offset_in(shape)] = *v;
        }
        t
    }

    /// Maximum absolute difference against another sparse list (union of
    /// supports). Useful in tests.
    pub fn max_abs_diff(&self, other: &SparseCoeffs) -> f64 {
        let mut map: KeyMap<f64> = self.entries.iter().copied().collect();
        let mut worst = 0.0f64;
        for (k, v) in &other.entries {
            let d = (map.remove(k).unwrap_or(0.0) - v).abs();
            worst = worst.max(d);
        }
        for (_, v) in map {
            worst = worst.max(v.abs());
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_tensor::Shape;

    #[test]
    fn from_pairs_merges_and_filters() {
        let v = SparseVec1::from_pairs(vec![(3, 1.0), (1, 2.0), (3, -1.0), (5, 1e-15)], 1e-12);
        assert_eq!(v.entries(), &[(1, 2.0)]);
    }

    #[test]
    fn dense_roundtrip() {
        let dense = vec![0.0, 1.5, 0.0, -2.0];
        let v = SparseVec1::from_dense(&dense, 0.0);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.to_dense(4), dense);
    }

    #[test]
    fn dot_dense_matches() {
        let v = SparseVec1::from_pairs(vec![(0, 2.0), (3, -1.0)], 0.0);
        assert_eq!(v.dot_dense(&[1.0, 9.0, 9.0, 4.0]), -2.0);
        assert_eq!(v.norm_sq(), 5.0);
    }

    #[test]
    fn tensor_product_matches_dense() {
        let f = SparseVec1::from_dense(&[1.0, 0.0, 2.0, 0.0], 0.0);
        let g = SparseVec1::from_dense(&[0.0, 3.0, 0.0, 0.0], 0.0);
        let prod = SparseCoeffs::tensor_product(&[f.clone(), g.clone()], 0.0);
        assert_eq!(prod.nnz(), 2);
        let dense = Tensor::from_fn(Shape::new(vec![4, 4]).unwrap(), |ix| {
            f.to_dense(4)[ix[0]] * g.to_dense(4)[ix[1]]
        });
        let reference = SparseCoeffs::from_tensor(&dense, 0.0);
        assert!(prod.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn tensor_product_with_empty_factor() {
        let f = SparseVec1::new();
        let g = SparseVec1::from_dense(&[1.0], 0.0);
        assert!(SparseCoeffs::tensor_product(&[f, g], 0.0).is_empty());
    }

    #[test]
    fn sum_accumulates_terms() {
        let a = SparseCoeffs::from_pairs(vec![(CoeffKey::one(1), 1.0)], 0.0);
        let b =
            SparseCoeffs::from_pairs(vec![(CoeffKey::one(1), 2.0), (CoeffKey::one(3), 5.0)], 0.0);
        let s = SparseCoeffs::sum(vec![a, b], 0.0);
        assert_eq!(s.entries()[0], (CoeffKey::one(1), 3.0));
        assert_eq!(s.entries()[1], (CoeffKey::one(3), 5.0));
    }

    #[test]
    fn sum_cancellation_removed() {
        let a = SparseCoeffs::from_pairs(vec![(CoeffKey::one(1), 1.0)], 0.0);
        let b = SparseCoeffs::from_pairs(vec![(CoeffKey::one(1), -1.0)], 0.0);
        assert!(SparseCoeffs::sum(vec![a, b], 1e-12).is_empty());
    }

    #[test]
    fn top_b_keeps_largest() {
        let sc = SparseCoeffs::from_pairs(
            vec![
                (CoeffKey::one(0), 1.0),
                (CoeffKey::one(1), -5.0),
                (CoeffKey::one(2), 3.0),
            ],
            0.0,
        );
        let top = sc.top_b(2);
        assert_eq!(top.nnz(), 2);
        assert!(top
            .entries()
            .iter()
            .any(|&(k, v)| k == CoeffKey::one(1) && v == -5.0));
        assert!(top
            .entries()
            .iter()
            .any(|&(k, v)| k == CoeffKey::one(2) && v == 3.0));
        assert_eq!(sc.top_b(100).nnz(), 3, "oversized b keeps everything");
    }

    #[test]
    fn to_tensor_scatters() {
        let shape = Shape::new(vec![2, 2]).unwrap();
        let sc = SparseCoeffs::from_pairs(vec![(CoeffKey::new(&[1, 0]), 7.0)], 0.0);
        let t = sc.to_tensor(&shape);
        assert_eq!(t[&[1, 0]], 7.0);
        assert_eq!(t.sum(), 7.0);
    }
}
