//! Diagnostics for the paper's optimality theorems.
//!
//! Theorem 1: among all B-term approximations of a batch, the biggest-B set
//! (top importance) has the smallest worst-case penalty, which equals
//! `K^α · max_{ξ∉Ξ} ι_p(ξ)` with `K = Σ|Δ̂[ξ]|`.
//!
//! Theorem 2: over data vectors drawn uniformly from the unit sphere, the
//! expected quadratic penalty of a B-term approximation is
//! `(N^d − 1)^{-1} Σ_{ξ∉Ξ} ι_p(ξ)` — again minimized by biggest-B.
//!
//! The functions here compute both quantities for an arbitrary retained
//! set `Ξ`, so tests and harnesses can check the implementation *is* the
//! optimum (see `tests/optimality.rs` in this crate).

use batchbb_penalty::Penalty;
use batchbb_tensor::{CoeffKey, KeySet};

use crate::{BatchQueries, MasterList};

/// `(key, ι_p(key))` for every coefficient the batch touches, sorted by
/// decreasing importance (ties broken by key).
pub fn importance_ranking(batch: &BatchQueries, penalty: &dyn Penalty) -> Vec<(CoeffKey, f64)> {
    let master = MasterList::build(batch);
    let mut ranked: Vec<(CoeffKey, f64)> = master
        .iter()
        .map(|(key, column)| {
            let col: Vec<(usize, f64)> = column.iter().map(|&(i, v)| (i as usize, v)).collect();
            (*key, penalty.importance(&col, batch.len()))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked
}

/// The biggest-B retained set: the `b` most important coefficients.
pub fn biggest_b_set(batch: &BatchQueries, penalty: &dyn Penalty, b: usize) -> KeySet {
    importance_ranking(batch, penalty)
        .into_iter()
        .take(b)
        .map(|(k, _)| k)
        .collect()
}

/// Theorem 1's worst-case penalty of the B-term approximation retaining
/// `kept`: `K^α · max_{ξ∉kept} ι_p(ξ)` (zero when everything is kept).
pub fn worst_case_penalty(
    batch: &BatchQueries,
    penalty: &dyn Penalty,
    kept: &KeySet,
    k_abs_sum: f64,
) -> f64 {
    let worst = importance_ranking(batch, penalty)
        .into_iter()
        .filter(|(k, _)| !kept.contains(k))
        .map(|(_, iota)| iota)
        .fold(0.0f64, f64::max);
    k_abs_sum.powf(penalty.homogeneity()) * worst
}

/// Theorem 2's expected penalty over the unit sphere of data vectors:
/// `(n_total − 1)^{-1} · Σ_{ξ∉kept} ι_p(ξ)`.
///
/// Only meaningful for quadratic penalties (homogeneity 2); `n_total` is
/// the domain size `N^d`.
pub fn expected_penalty(
    batch: &BatchQueries,
    penalty: &dyn Penalty,
    kept: &KeySet,
    n_total: usize,
) -> f64 {
    assert_eq!(
        penalty.homogeneity(),
        2.0,
        "Theorem 2 applies to quadratic penalties"
    );
    assert!(n_total > 1, "need a non-trivial domain");
    let tail: f64 = importance_ranking(batch, penalty)
        .into_iter()
        .filter(|(k, _)| !kept.contains(k))
        .map(|(_, iota)| iota)
        .sum();
    tail / (n_total as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_penalty::Sse;
    use batchbb_query::{HyperRect, RangeSum, WaveletStrategy};
    use batchbb_tensor::Shape;
    use batchbb_wavelet::Wavelet;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn small_batch() -> (BatchQueries, Shape) {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let queries = vec![
            RangeSum::count(HyperRect::new(vec![0, 0], vec![3, 7])),
            RangeSum::count(HyperRect::new(vec![4, 0], vec![7, 7])),
            RangeSum::count(HyperRect::new(vec![2, 2], vec![5, 5])),
        ];
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        (
            BatchQueries::rewrite(&strategy, queries, &shape).unwrap(),
            shape,
        )
    }

    #[test]
    fn ranking_is_sorted() {
        let (batch, _) = small_batch();
        let ranked = importance_ranking(&batch, &Sse);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn biggest_b_minimizes_worst_case_among_random_sets() {
        let (batch, _) = small_batch();
        let all: Vec<CoeffKey> = importance_ranking(&batch, &Sse)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let b = all.len() / 3;
        let best = biggest_b_set(&batch, &Sse, b);
        let best_wc = worst_case_penalty(&batch, &Sse, &best, 1.0);
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..50 {
            let mut other: Vec<CoeffKey> = all.clone();
            // random b-subset
            for i in 0..b {
                let j = rng.gen_range(i..other.len());
                other.swap(i, j);
            }
            let set: KeySet = other[..b].iter().copied().collect();
            let wc = worst_case_penalty(&batch, &Sse, &set, 1.0);
            assert!(
                best_wc <= wc + 1e-12,
                "Theorem 1 violated: biggest-B {best_wc} > random {wc}"
            );
        }
    }

    #[test]
    fn biggest_b_minimizes_expected_among_random_sets() {
        let (batch, shape) = small_batch();
        let all: Vec<CoeffKey> = importance_ranking(&batch, &Sse)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let b = all.len() / 2;
        let best = biggest_b_set(&batch, &Sse, b);
        let best_e = expected_penalty(&batch, &Sse, &best, shape.len());
        let mut rng = SmallRng::seed_from_u64(29);
        for _ in 0..50 {
            let mut other: Vec<CoeffKey> = all.clone();
            for i in 0..b {
                let j = rng.gen_range(i..other.len());
                other.swap(i, j);
            }
            let set: KeySet = other[..b].iter().copied().collect();
            let e = expected_penalty(&batch, &Sse, &set, shape.len());
            assert!(
                best_e <= e + 1e-12,
                "Theorem 2 violated: biggest-B {best_e} > random {e}"
            );
        }
    }

    #[test]
    fn keeping_everything_zeroes_both_bounds() {
        let (batch, shape) = small_batch();
        let all: KeySet = importance_ranking(&batch, &Sse)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(worst_case_penalty(&batch, &Sse, &all, 5.0), 0.0);
        assert_eq!(expected_penalty(&batch, &Sse, &all, shape.len()), 0.0);
    }
}
