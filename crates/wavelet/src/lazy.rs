//! Lazy (sparse) wavelet transform of polynomial range-sum query vectors.
//!
//! A 1-D query factor `f(x) = p(x)·χ_{[lo,hi]}(x)` is piecewise polynomial.
//! Its scaling coefficients at every level of the pyramid are *again*
//! piecewise polynomial in the translation index (Daubechies low-pass
//! filters map discrete polynomials to discrete polynomials), and its detail
//! coefficients vanish wherever the analysis window sits inside a single
//! polynomial piece (the filter's vanishing moments annihilate polynomials
//! of degree `< p`). Only windows straddling a piece boundary — `O(L)` per
//! boundary per level — produce nonzero details.
//!
//! This module tracks the piecewise-polynomial representation across levels
//! and evaluates only the straddling windows, producing all nonzero
//! coefficients in `O(L²·log N)` time instead of the dense transform's
//! `O(L·N)` — the "computed quickly" claim of §2.1/§3.1.

use std::fmt;

#[cfg(test)]
use crate::DEFAULT_TOL;
use crate::{Poly, SparseVec1, Wavelet};

/// Errors from the lazy transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LazyError {
    /// Domain length is not a power of two.
    NonDyadic(usize),
    /// `lo > hi` or `hi >= n`.
    BadRange {
        /// Lower bound supplied.
        lo: usize,
        /// Upper bound supplied.
        hi: usize,
        /// Domain length.
        n: usize,
    },
    /// The polynomial degree is not annihilated by this filter's vanishing
    /// moments; §3.1 requires filter length `≥ 2δ+2`.
    DegreeTooHigh {
        /// Degree of the supplied polynomial.
        degree: usize,
        /// Filter chosen.
        wavelet: Wavelet,
    },
}

impl fmt::Display for LazyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LazyError::NonDyadic(n) => write!(f, "domain length {n} is not a power of two"),
            LazyError::BadRange { lo, hi, n } => {
                write!(f, "invalid range [{lo},{hi}] for domain of length {n}")
            }
            LazyError::DegreeTooHigh { degree, wavelet } => write!(
                f,
                "polynomial degree {degree} exceeds {wavelet}'s maximum of {} \
                 (use a filter of length ≥ 2δ+2)",
                wavelet.max_poly_degree()
            ),
        }
    }
}

impl std::error::Error for LazyError {}

/// Computes all nonzero pyramid coefficients of `p(x)·χ_{[lo,hi]}(x)` on a
/// length-`n` periodic domain. Coefficients with magnitude `<= tol` are
/// dropped (pass [`DEFAULT_TOL`](crate::DEFAULT_TOL) for the workspace default).
pub fn lazy_query_transform(
    n: usize,
    lo: usize,
    hi: usize,
    poly: &Poly,
    wavelet: Wavelet,
    tol: f64,
) -> Result<SparseVec1, LazyError> {
    if !n.is_power_of_two() {
        return Err(LazyError::NonDyadic(n));
    }
    if lo > hi || hi >= n {
        return Err(LazyError::BadRange { lo, hi, n });
    }
    if let Some(deg) = poly.degree() {
        if deg > wavelet.max_poly_degree() {
            return Err(LazyError::DegreeTooHigh {
                degree: deg,
                wavelet,
            });
        }
    }
    Ok(match wavelet {
        Wavelet::Haar => haar_walk(n, lo, hi, poly.eval(0.0), tol),
        _ => pyramid_walk(n, lo, hi, poly, wavelet, tol),
    })
}

/// The level-by-level walk behind [`lazy_query_transform`], for any filter.
///
/// A level is a piecewise-polynomial signal on `Z_m`: sorted
/// `(start, poly)` pieces covering `[0, m)`, each running to the next
/// piece's start.
fn pyramid_walk(
    n: usize,
    lo: usize,
    hi: usize,
    poly: &Poly,
    wavelet: Wavelet,
    tol: f64,
) -> SparseVec1 {
    let h = wavelet.lowpass();
    let g = wavelet.highpass();
    let l = h.len();
    let max_deg = poly.degree().unwrap_or(0);
    let moments = wavelet.lowpass_moments(max_deg);
    // The piece containing `pos`.
    let piece = |pieces: &[(usize, Poly)], pos: usize| -> usize {
        pieces.partition_point(|&(start, _)| start <= pos) - 1
    };

    // Initial level: zero / poly / zero pieces.
    let mut pieces: Vec<(usize, Poly)> = Vec::with_capacity(3);
    if lo > 0 {
        pieces.push((0, Poly::zero()));
    }
    pieces.push((lo, poly.clone()));
    if hi + 1 < n {
        pieces.push((hi + 1, Poly::zero()));
    }

    let mut out: Vec<(usize, f64)> = Vec::new();
    let (mut explicit, mut values, mut marks) = (Vec::new(), Vec::new(), Vec::new());
    let mut next: Vec<(usize, Poly)> = Vec::new();
    let mut m = n;
    while m > 1 {
        let half = m / 2;

        // Which output indices must be evaluated explicitly?
        explicit.clear();
        if m <= 2 * l {
            explicit.extend(0..half);
        } else {
            for &(b, _) in &pieces {
                if b == 0 {
                    continue; // the seam is covered by the wrap rule below
                }
                // windows [2k, 2k+L-1] with 2k < b <= 2k+L-1
                let k_lo = (b + 1).saturating_sub(l).div_ceil(2);
                let k_hi = (b - 1) / 2;
                explicit.extend(k_lo..=k_hi.min(half - 1));
            }
            // wrap windows: 2k + L - 1 >= m
            explicit.extend((m + 1 - l).div_ceil(2)..half);
            explicit.sort_unstable();
            explicit.dedup();
        }

        // Explicit evaluation of straddling windows.
        values.clear();
        for &k in &explicit {
            let mut a = 0.0;
            let mut d = 0.0;
            for j in 0..l {
                let pos = (2 * k + j) % m;
                let v = pieces[piece(&pieces, pos)].1.eval(pos as f64);
                a += h[j] * v;
                d += g[j] * v;
            }
            values.push((k, a));
            if d.abs() > tol {
                out.push((half + k, d));
            }
        }

        // Region marks: explicit singletons plus every position where the
        // source piece under a clean window changes.
        marks.clear();
        marks.push(0);
        marks.extend(
            pieces
                .iter()
                .map(|&(b, _)| b.div_ceil(2))
                .filter(|&s| s < half),
        );
        for &k in &explicit {
            marks.push(k);
            if k + 1 < half {
                marks.push(k + 1);
            }
        }
        marks.sort_unstable();
        marks.dedup();

        next.clear();
        let mut exp = values.iter().peekable();
        for (i, &s) in marks.iter().enumerate() {
            let poly = match exp.next_if(|&&(k, _)| k == s) {
                Some(&(_, a)) => {
                    debug_assert_eq!(
                        marks.get(i + 1).copied().unwrap_or(half),
                        s + 1,
                        "explicit region must be a singleton"
                    );
                    if a.abs() > tol {
                        Poly::constant(a)
                    } else {
                        Poly::zero()
                    }
                }
                None => pieces[piece(&pieces, 2 * s)].1.refine(&moments),
            };
            // Merge with the previous piece when the polynomial is equal
            // (common for runs of zeros) to keep the piece count bounded.
            if next.last().is_some_and(|(_, prev)| *prev == poly) {
                continue;
            }
            next.push((s, poly));
        }
        std::mem::swap(&mut pieces, &mut next);
        m = half;
    }

    let scaling = pieces[0].1.eval(0.0);
    if scaling.abs() > tol {
        out.push((0, scaling));
    }
    SparseVec1::from_pairs(out, tol)
}

/// [`pyramid_walk`] for Haar, whose filter has length 2 and whose factors
/// are constants `c·χ_{[lo,hi]}`. Every level is then piecewise constant,
/// a window straddles two pieces only where a piece starts at an odd
/// position, and no window wraps; so a level is a few `(start, value)`
/// pieces (value `0.0` for a zero piece) and no `Poly` or ordered set is
/// built. It does the generic walk's arithmetic operation for operation,
/// so its output is bit-identical (`haar_walk_is_the_generic_walk`).
fn haar_walk(n: usize, lo: usize, hi: usize, c: f64, tol: f64) -> SparseVec1 {
    let h = Wavelet::Haar.lowpass();
    let g = Wavelet::Haar.highpass();
    let moments = Wavelet::Haar.lowpass_moments(0);
    // `Poly::refine` of a constant; a zero result is the zero piece.
    let refine = |v: f64| {
        let q = v * moments[0];
        if q == 0.0 {
            0.0
        } else {
            q
        }
    };
    let eval = |pieces: &[(usize, f64)], pos: usize| {
        pieces[pieces.partition_point(|&(start, _)| start <= pos) - 1].1
    };

    let mut pieces: Vec<(usize, f64)> = Vec::with_capacity(8);
    if lo > 0 {
        pieces.push((0, 0.0));
    }
    pieces.push((lo, c));
    if hi + 1 < n {
        pieces.push((hi + 1, 0.0));
    }
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(2 * n.ilog2() as usize + 1);
    let (mut explicit, mut marks, mut next) = (Vec::new(), Vec::new(), Vec::new());
    let mut m = n;
    while m > 1 {
        let half = m / 2;
        explicit.clear();
        // Near the top every window is evaluated; below it, the windows
        // `[2k, 2k+1]` a piece starts inside of, in ascending order.
        let top = if m <= 4 { half } else { 0 };
        let inside = pieces
            .iter()
            .filter(|&&(b, _)| m > 4 && b % 2 == 1)
            .map(|&(b, _)| b / 2);
        for k in (0..top).chain(inside) {
            let (mut a, mut d) = (0.0, 0.0);
            for j in 0..2 {
                let v = eval(&pieces, (2 * k + j) % m);
                a += h[j] * v;
                d += g[j] * v;
            }
            explicit.push((k, if a.abs() > tol { a } else { 0.0 }));
            if d.abs() > tol {
                out.push((half + k, d));
            }
        }

        marks.clear();
        marks.push(0);
        marks.extend(
            pieces
                .iter()
                .map(|&(b, _)| b.div_ceil(2))
                .filter(|&s| s < half),
        );
        for &(k, _) in &explicit {
            marks.push(k);
            if k + 1 < half {
                marks.push(k + 1);
            }
        }
        marks.sort_unstable();
        marks.dedup();

        next.clear();
        let mut exp = explicit.iter().peekable();
        for &s in &marks {
            let value = match exp.next_if(|&&(k, _)| k == s) {
                Some(&(_, a)) => a,
                None => refine(eval(&pieces, 2 * s)),
            };
            if next.last().is_some_and(|&(_, prev)| prev == value) {
                continue;
            }
            next.push((s, value));
        }
        std::mem::swap(&mut pieces, &mut next);
        m = half;
    }

    let scaling = eval(&pieces, 0);
    if scaling.abs() > tol {
        out.push((0, scaling));
    }
    SparseVec1::from_pairs(out, tol)
}

/// Dense reference implementation: materializes the query factor and runs
/// the full pyramid transform. It is the oracle [`lazy_query_transform`] is
/// tested against and the dense arm of the ✦ lazy-vs-dense ablation
/// (`coeff_count_sweep`); no strategy serves through it.
pub fn dense_query_transform(
    n: usize,
    lo: usize,
    hi: usize,
    poly: &Poly,
    wavelet: Wavelet,
    tol: f64,
) -> Result<SparseVec1, LazyError> {
    if !n.is_power_of_two() {
        return Err(LazyError::NonDyadic(n));
    }
    if lo > hi || hi >= n {
        return Err(LazyError::BadRange { lo, hi, n });
    }
    let mut dense = vec![0.0; n];
    for (x, slot) in dense.iter_mut().enumerate().take(hi + 1).skip(lo) {
        *slot = poly.eval(x as f64);
    }
    crate::dwt_full(&mut dense, wavelet);
    Ok(SparseVec1::from_dense(&dense, tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compare(n: usize, lo: usize, hi: usize, poly: &Poly, w: Wavelet) {
        let lazy = lazy_query_transform(n, lo, hi, poly, w, DEFAULT_TOL).unwrap();
        let dense = dense_query_transform(n, lo, hi, poly, w, DEFAULT_TOL).unwrap();
        let ld = lazy.to_dense(n);
        let dd = dense.to_dense(n);
        // Scale-aware tolerance: coefficients grow like √n · max|p|.
        let scale = dd.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        for i in 0..n {
            assert!(
                (ld[i] - dd[i]).abs() < 1e-9 * scale,
                "{w} n={n} [{lo},{hi}] i={i}: lazy {} vs dense {}",
                ld[i],
                dd[i]
            );
        }
    }

    #[test]
    fn count_query_haar() {
        compare(64, 10, 37, &Poly::constant(1.0), Wavelet::Haar);
    }

    #[test]
    fn count_query_all_filters() {
        for w in Wavelet::ALL {
            compare(128, 17, 93, &Poly::constant(1.0), w);
        }
    }

    #[test]
    fn degree1_db4() {
        compare(128, 55, 127, &Poly::monomial(1), Wavelet::Db4);
    }

    #[test]
    fn degree2_db6_and_up() {
        let p = Poly::new(vec![1.0, -2.0, 0.25]);
        for w in [Wavelet::Db6, Wavelet::Db8, Wavelet::Db12] {
            compare(256, 40, 200, &p, w);
        }
    }

    #[test]
    fn degree5_db12() {
        let p = Poly::new(vec![0.1, 0.0, 0.0, 0.0, 0.0, 1e-4]);
        compare(128, 30, 90, &p, Wavelet::Db12);
    }

    #[test]
    fn boundary_ranges() {
        // Ranges touching the domain edges and the full domain.
        for (lo, hi) in [(0, 0), (0, 63), (63, 63), (0, 31), (32, 63), (1, 62)] {
            compare(64, lo, hi, &Poly::monomial(1), Wavelet::Db4);
            compare(64, lo, hi, &Poly::constant(2.0), Wavelet::Haar);
        }
    }

    #[test]
    fn tiny_domains() {
        for n in [1usize, 2, 4, 8] {
            for w in [Wavelet::Haar, Wavelet::Db4, Wavelet::Db12] {
                compare(n, 0, n - 1, &Poly::constant(1.0), w);
                if n > 2 {
                    compare(n, 1, n - 2, &Poly::constant(1.0), w);
                }
            }
        }
    }

    #[test]
    fn zero_polynomial_gives_empty() {
        let v = lazy_query_transform(64, 3, 9, &Poly::zero(), Wavelet::Db4, DEFAULT_TOL).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn nnz_is_polylogarithmic() {
        // §2.1: characteristic functions have O(2 log N) Haar nonzeros;
        // §3.1: degree-δ factors have O((4δ+2) log N) nonzeros.
        let n = 1 << 16;
        let haar = lazy_query_transform(
            n,
            1000,
            50000,
            &Poly::constant(1.0),
            Wavelet::Haar,
            DEFAULT_TOL,
        )
        .unwrap();
        assert!(
            haar.nnz() <= 2 * (n.ilog2() as usize) + 2,
            "haar nnz {}",
            haar.nnz()
        );
        let db4 = lazy_query_transform(
            n,
            1000,
            50000,
            &Poly::monomial(1),
            Wavelet::Db4,
            DEFAULT_TOL,
        )
        .unwrap();
        assert!(
            db4.nnz() <= 6 * (n.ilog2() as usize + 1),
            "db4 nnz {}",
            db4.nnz()
        );
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            lazy_query_transform(6, 0, 1, &Poly::constant(1.0), Wavelet::Haar, 0.0),
            Err(LazyError::NonDyadic(6))
        );
        assert!(matches!(
            lazy_query_transform(8, 5, 3, &Poly::constant(1.0), Wavelet::Haar, 0.0),
            Err(LazyError::BadRange { .. })
        ));
        assert!(matches!(
            lazy_query_transform(8, 0, 3, &Poly::monomial(1), Wavelet::Haar, 0.0),
            Err(LazyError::DegreeTooHigh { .. })
        ));
    }

    #[test]
    fn evaluates_range_sums_exactly() {
        // ⟨q, x⟩ computed via transformed sparse query equals direct sum.
        let n = 256;
        let data: Vec<f64> = (0..n).map(|i| ((i * 13 + 7) % 29) as f64).collect();
        let data_hat = crate::dwt(&data, Wavelet::Db4);
        let (lo, hi) = (37, 199);
        let q =
            lazy_query_transform(n, lo, hi, &Poly::monomial(1), Wavelet::Db4, DEFAULT_TOL).unwrap();
        let progressive: f64 = q.dot_dense(&data_hat);
        let direct: f64 = (lo..=hi).map(|x| x as f64 * data[x]).sum();
        assert!(
            (progressive - direct).abs() < 1e-6 * direct.abs(),
            "{progressive} vs {direct}"
        );
    }

    #[test]
    fn random_ranges_match_dense() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        for _ in 0..40 {
            let n = 1usize << rng.gen_range(3u32..10);
            let lo = rng.gen_range(0..n);
            let hi = rng.gen_range(lo..n);
            let deg = rng.gen_range(0..3usize);
            let coeffs: Vec<f64> = (0..=deg).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let poly = Poly::new(coeffs);
            let w = match deg {
                0 => Wavelet::Haar,
                1 => Wavelet::Db4,
                _ => Wavelet::Db6,
            };
            compare(n, lo, hi, &poly, w);
        }
    }

    #[test]
    fn haar_walk_is_the_generic_walk() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let bits = |v: &SparseVec1| -> Vec<(usize, u64)> {
            v.entries().iter().map(|&(i, x)| (i, x.to_bits())).collect()
        };
        for case in 0..2000 {
            let n = 1usize << rng.gen_range(0u32..13);
            let lo = rng.gen_range(0..n);
            let hi = rng.gen_range(lo..n);
            let poly = match case % 4 {
                0 => Poly::constant(1.0),
                1 => Poly::zero(),
                _ => Poly::constant(rng.gen_range(-1e3..1e3)),
            };
            let tol = if case % 3 == 0 { 0.0 } else { DEFAULT_TOL };
            let fast = lazy_query_transform(n, lo, hi, &poly, Wavelet::Haar, tol).unwrap();
            let generic = pyramid_walk(n, lo, hi, &poly, Wavelet::Haar, tol);
            assert_eq!(bits(&fast), bits(&generic), "n={n} [{lo},{hi}] {poly:?}");
        }
    }
}
