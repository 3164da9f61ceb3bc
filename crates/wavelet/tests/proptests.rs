//! Property-based tests for the wavelet substrate: the invariants every
//! downstream result (Equations 1–2, Theorems 1–2) relies on.

use proptest::prelude::*;

use batchbb_tensor::CoeffKey;
use batchbb_wavelet::{
    dense_query_transform, dwt, idwt, lazy_query_transform, point_transform, Poly, SparseCoeffs,
    SparseVec1, Wavelet, DEFAULT_TOL,
};

fn arb_wavelet() -> impl Strategy<Value = Wavelet> {
    prop::sample::select(Wavelet::ALL.to_vec())
}

fn arb_signal(max_bits: u32) -> impl Strategy<Value = Vec<f64>> {
    (2u32..=max_bits).prop_flat_map(|bits| prop::collection::vec(-100.0f64..100.0, 1usize << bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The transform inverts exactly: `idwt(dwt(x)) == x`.
    #[test]
    fn roundtrip(w in arb_wavelet(), x in arb_signal(8)) {
        let back = idwt(&dwt(&x, w), w);
        for (a, b) in x.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() < 1e-8 * a.abs().max(1.0));
        }
    }

    /// Parseval: inner products are preserved (`⟨a,b⟩ = ⟨â,b̂⟩`), the
    /// foundation of Equation (1).
    #[test]
    fn parseval(w in arb_wavelet(), bits in 2u32..7) {
        let n = 1usize << bits;
        let a: Vec<f64> = (0..n).map(|i| ((i * 17 + 3) % 13) as f64 - 6.0).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 + 11) % 9) as f64).collect();
        let raw: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let tr: f64 = dwt(&a, w).iter().zip(dwt(&b, w).iter()).map(|(x, y)| x * y).sum();
        prop_assert!((raw - tr).abs() < 1e-8 * raw.abs().max(1.0));
    }

    /// The transform is linear.
    #[test]
    fn linearity(w in arb_wavelet(), x in arb_signal(6), s in -3.0f64..3.0) {
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        let combo: Vec<f64> = x.iter().zip(&y).map(|(a, b)| s * a + b).collect();
        let tx = dwt(&x, w);
        let ty = dwt(&y, w);
        let tc = dwt(&combo, w);
        for i in 0..x.len() {
            prop_assert!((tc[i] - (s * tx[i] + ty[i])).abs() < 1e-7 * tc[i].abs().max(1.0));
        }
    }

    /// The lazy query transform equals the dense reference for every
    /// admissible (range, polynomial degree, filter) combination.
    #[test]
    fn lazy_equals_dense(
        bits in 2u32..10,
        frac_lo in 0.0f64..1.0,
        frac_len in 0.0f64..1.0,
        deg in 0usize..3,
        c0 in -5.0f64..5.0,
        c_hi in -2.0f64..2.0,
    ) {
        let n = 1usize << bits;
        let lo = ((frac_lo * (n - 1) as f64) as usize).min(n - 1);
        let hi = (lo + (frac_len * (n - lo) as f64) as usize).min(n - 1);
        let mut coeffs = vec![c0];
        coeffs.resize(deg + 1, 0.0);
        coeffs[deg] = if deg == 0 { c0 } else { c_hi };
        let poly = Poly::new(coeffs);
        let w = Wavelet::for_degree(deg).unwrap();
        let lazy = lazy_query_transform(n, lo, hi, &poly, w, DEFAULT_TOL).unwrap();
        let dense = dense_query_transform(n, lo, hi, &poly, w, DEFAULT_TOL).unwrap();
        let ld = lazy.to_dense(n);
        let dd = dense.to_dense(n);
        let scale = dd.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        for i in 0..n {
            prop_assert!((ld[i] - dd[i]).abs() < 1e-8 * scale,
                "i={i}: {} vs {}", ld[i], dd[i]);
        }
    }

    /// Point-mass transforms match the dense transform of a delta and sum
    /// linearly — the correctness of incremental insertion.
    #[test]
    fn point_transform_matches_dense(w in arb_wavelet(), bits in 1u32..8, tfrac in 0.0f64..1.0) {
        let n = 1usize << bits;
        let t = ((tfrac * n as f64) as usize).min(n - 1);
        let mut dense = vec![0.0; n];
        dense[t] = 3.25;
        let reference = dwt(&dense, w);
        let sparse = point_transform(n, t, 3.25, w).to_dense(n);
        for i in 0..n {
            prop_assert!((reference[i] - sparse[i]).abs() < 1e-8);
        }
    }

    /// Query evaluation through the sparse rewrite is exact: for random
    /// data and a random range, `Σ q̂·x̂` equals the direct range sum.
    #[test]
    fn sparse_rewrite_evaluates_exactly(
        bits in 2u32..8,
        data in prop::collection::vec(0.0f64..50.0, 4..256),
        frac_lo in 0.0f64..1.0,
        frac_len in 0.0f64..1.0,
    ) {
        let n = 1usize << bits;
        let data: Vec<f64> = (0..n).map(|i| data[i % data.len()]).collect();
        let lo = ((frac_lo * (n - 1) as f64) as usize).min(n - 1);
        let hi = (lo + (frac_len * (n - lo) as f64) as usize).min(n - 1);
        let data_hat = dwt(&data, Wavelet::Db4);
        let q = lazy_query_transform(n, lo, hi, &Poly::monomial(1), Wavelet::Db4, DEFAULT_TOL).unwrap();
        let via_wavelets: f64 = q.dot_dense(&data_hat);
        let direct: f64 = (lo..=hi).map(|x| x as f64 * data[x]).sum();
        prop_assert!((via_wavelets - direct).abs() < 1e-6 * direct.abs().max(1.0),
            "{via_wavelets} vs {direct}");
    }

    /// SparseVec1 dense/sparse conversions are mutually inverse.
    #[test]
    fn sparse_roundtrip(dense in prop::collection::vec(-10.0f64..10.0, 1..64)) {
        let v = SparseVec1::from_dense(&dense, 0.0);
        prop_assert_eq!(v.to_dense(dense.len()), dense);
    }

    /// Tensor products agree with explicit outer products.
    #[test]
    fn tensor_product_correct(
        a in prop::collection::vec(-3.0f64..3.0, 2..10),
        b in prop::collection::vec(-3.0f64..3.0, 2..10),
    ) {
        let sa = SparseVec1::from_dense(&a, 1e-12);
        let sb = SparseVec1::from_dense(&b, 1e-12);
        let prod = SparseCoeffs::tensor_product(&[sa, sb], 1e-12);
        for (k, v) in prod.entries() {
            let expect = a[k.coord(0)] * b[k.coord(1)];
            prop_assert!((v - expect).abs() < 1e-10);
        }
    }

    /// The merged `sum` is `from_pairs` of the concatenated terms, bit
    /// for bit: 0–4 terms (empty ones included) over a small key grid so
    /// keys are shared, values that cancel exactly or down to below
    /// `DEFAULT_TOL`, and `tol` of zero, `DEFAULT_TOL` and 0.5.
    #[test]
    fn merged_sum_is_from_pairs_of_the_concatenation(
        terms in prop::collection::vec(
            prop::collection::vec(((0usize..4, 0usize..4), arb_term_value()), 0..12),
            0..5,
        ),
        tol in prop::sample::select(vec![0.0, DEFAULT_TOL, 0.5]),
    ) {
        let terms: Vec<SparseCoeffs> = terms
            .into_iter()
            .map(|pairs| {
                let pairs = pairs.into_iter().map(|((i, j), v)| (CoeffKey::new(&[i, j]), v)).collect();
                SparseCoeffs::from_pairs(pairs, 0.0)
            })
            .collect();
        let concatenated: Vec<(CoeffKey, f64)> =
            terms.iter().flat_map(|t| t.entries().iter().copied()).collect();
        let bits = |s: &SparseCoeffs| -> Vec<(CoeffKey, u64)> {
            s.entries().iter().map(|&(k, v)| (k, v.to_bits())).collect()
        };
        let want = SparseCoeffs::from_pairs(concatenated, tol);
        let got = SparseCoeffs::sum(terms, tol);
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert!(got.entries().windows(2).all(|w| w[0].0 < w[1].0), "sorted, unique keys");
    }
}

/// Term values that make a shared key's sum cancel: exactly (`±1`) or to
/// a residue under `DEFAULT_TOL` (`±1e-12`), beside arbitrary ones.
fn arb_term_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -3.0f64..3.0,
        prop::sample::select(vec![1.0, -1.0, 1e-12, -1e-12, 0.25]),
    ]
}
