//! Sparse wavelet transform of a point mass.
//!
//! Inserting a tuple `x` into the transformed data frequency distribution
//! `Δ̂` means adding the wavelet transform of the characteristic function
//! `χ_{x}` — a vector with `O(L·log N)` nonzeros per dimension, computable
//! without touching the other `N-1` positions.  This is the
//! `O((2δ+1)^d log^d N)` update path claimed in §2.1/§3.1.
//!
//! `χ_{x}` is the one-cell range `[x, x]`, so the point transform *is* the
//! query transform of that range: [`point_transform`] calls
//! [`lazy_query_transform`], and an insert's delta carries the same bits
//! as the rewrite of the one-cell COUNT query.

use crate::{lazy_query_transform, Poly, SparseVec1, Wavelet, DEFAULT_TOL};

/// Nonzero pyramid coefficients of the 1-D transform of `weight·δ_t` on a
/// length-`n` periodic domain: the lazy transform of the constant `weight`
/// over the one-cell range `[t, t]`.
///
/// # Panics
/// Panics if `n` is not a power of two or `t >= n`.
pub fn point_transform(n: usize, t: usize, weight: f64, wavelet: Wavelet) -> SparseVec1 {
    assert!(n.is_power_of_two(), "domain length must be a power of two");
    assert!(t < n, "position {t} out of domain {n}");
    lazy_query_transform(n, t, t, &Poly::constant(weight), wavelet, DEFAULT_TOL)
        .expect("a constant over one in-domain cell is a valid factor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwt;

    #[test]
    fn matches_dense_transform_all_filters() {
        let n = 64;
        for w in Wavelet::ALL {
            for t in [0usize, 1, 31, 63] {
                let mut dense = vec![0.0; n];
                dense[t] = 2.5;
                let reference = dwt(&dense, w);
                let sparse = point_transform(n, t, 2.5, w).to_dense(n);
                for i in 0..n {
                    assert!(
                        (reference[i] - sparse[i]).abs() < 1e-9,
                        "{w} t={t} i={i}: {} vs {}",
                        reference[i],
                        sparse[i]
                    );
                }
            }
        }
    }

    #[test]
    fn small_domain_wraps_correctly() {
        // Domain shorter than the filter: taps wrap several times.
        for w in [Wavelet::Db8, Wavelet::Db12] {
            for n in [2usize, 4] {
                for t in 0..n {
                    let mut dense = vec![0.0; n];
                    dense[t] = 1.0;
                    let reference = dwt(&dense, w);
                    let sparse = point_transform(n, t, 1.0, w).to_dense(n);
                    for i in 0..n {
                        assert!(
                            (reference[i] - sparse[i]).abs() < 1e-9,
                            "{w} n={n} t={t} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nnz_is_logarithmic() {
        // O(L · log n) nonzeros, not O(n).
        let n = 1 << 14;
        let v = point_transform(n, 12345, 1.0, Wavelet::Db4);
        let bound = Wavelet::Db4.len() * (n.ilog2() as usize + 1);
        assert!(
            v.nnz() <= bound,
            "nnz {} exceeds O(L log n) bound {}",
            v.nnz(),
            bound
        );
    }

    #[test]
    fn linearity_in_weight() {
        let a = point_transform(32, 7, 1.0, Wavelet::Db6);
        let b = point_transform(32, 7, -3.0, Wavelet::Db6);
        for ((i, x), (j, y)) in a.entries().iter().zip(b.entries().iter()) {
            assert_eq!(i, j);
            assert!((y - (-3.0) * x).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_range_position_panics() {
        let _ = point_transform(8, 8, 1.0, Wavelet::Haar);
    }
}
