//! The *nonstandard* (Mallat / multiresolution) multi-dimensional
//! decomposition — an alternative linear storage strategy.
//!
//! §7 of the paper asks "whether or not it is possible to design
//! transformations specifically for the range-sum problem that perform
//! significantly better than the wavelets used here".  The nonstandard
//! decomposition is the classic candidate: instead of fully transforming
//! one axis at a time (the *standard* tensor decomposition used
//! everywhere else in this workspace), it filters **every** axis once per
//! level, emits the `2^d − 1` mixed subbands, and recurses on the
//! all-low-pass block.
//!
//! It is orthogonal (so Equation 2 still holds and Batch-Biggest-B works
//! unchanged on top of it), but range-sum query vectors are *not* sparse
//! in it: a `d`-dimensional box indicator keeps `O(|∂R|)` coefficients —
//! whole faces of the box at every level — instead of the standard
//! decomposition's `O((2 log N)^d)`.  The `nonstd_vs_standard` test and
//! the `coeff_count_sweep` harness quantify this, answering the paper's
//! question in the negative for this transform.
//!
//! Coefficient keys have rank `d + 2`: `[level, subband mask, k₀ … k_{d-1}]`
//! with mask bit `i` set when axis `i` took the high-pass branch (the final
//! all-scaling value is `[levels, 0, 0…0]`).

use batchbb_tensor::{CoeffKey, Shape, Tensor};

use crate::dwt1d::dwt_level;
use crate::{SparseVec1, Wavelet};

/// One analysis level along `axis`: every lane `[x₀…x_{m-1}]` becomes
/// `[a₀…a_{m/2-1} | d₀…d_{m/2-1}]` (only the leading `m` entries of each
/// lane are touched; `m` is the current live extent of that axis).
fn level_step(t: &mut Tensor, axis: usize, live: &[usize], wavelet: Wavelet) {
    let m = live[axis];
    let h = wavelet.lowpass();
    let g = wavelet.highpass();
    let mut scratch = vec![0.0f64; m];
    t.for_each_lane_mut(axis, |lane| {
        dwt_level(&lane[..m], h, &g, &mut scratch);
        lane[..m].copy_from_slice(&scratch);
    });
}

/// Forward nonstandard transform: returns all `N^d` coefficients as
/// `(key, value)` pairs with `|value| > tol` (the transform is a bijection;
/// dropping numerically-zero values keeps the view sparse).
pub fn nonstd_transform(data: &Tensor, wavelet: Wavelet, tol: f64) -> Vec<(CoeffKey, f64)> {
    let shape = data.shape().clone();
    assert!(shape.is_dyadic(), "nonstandard transform needs dyadic axes");
    let d = shape.rank();
    assert!(
        d + 2 <= batchbb_tensor::MAX_DIMS,
        "rank {d} exceeds what nonstandard keys can encode"
    );
    let mut t = data.clone();
    let mut live: Vec<usize> = shape.dims().to_vec();
    let mut out = Vec::new();
    let mut level = 0usize;

    while live.iter().any(|&m| m > 1) {
        // Filter every live axis once.
        for axis in 0..d {
            if live[axis] > 1 {
                level_step(&mut t, axis, &live, wavelet);
            }
        }
        let next: Vec<usize> = live.iter().map(|&m| (m / 2).max(1)).collect();
        // Emit every subband with at least one high-pass axis.
        let mut idx = vec![0usize; d];
        'cells: loop {
            // subband mask for this cell: axis i is high when idx[i] falls
            // in the upper half of the live extent
            let mut mask = 0usize;
            let mut pos = vec![0usize; d];
            for i in 0..d {
                if live[i] > 1 && idx[i] >= next[i] {
                    mask |= 1 << i;
                    pos[i] = idx[i] - next[i];
                } else {
                    pos[i] = idx[i];
                }
            }
            if mask != 0 {
                let v = t[idx.as_slice()];
                if v.abs() > tol {
                    let mut coords = Vec::with_capacity(d + 2);
                    coords.push(level);
                    coords.push(mask);
                    coords.extend_from_slice(&pos);
                    out.push((CoeffKey::new(&coords), v));
                }
            }
            // odometer over the live block
            let mut axis = d;
            loop {
                if axis == 0 {
                    break 'cells;
                }
                axis -= 1;
                idx[axis] += 1;
                if idx[axis] < live[axis] {
                    break;
                }
                idx[axis] = 0;
            }
        }
        live = next;
        level += 1;
    }
    // Final all-scaling coefficient.
    let v = t[vec![0usize; d].as_slice()];
    if v.abs() > tol {
        let mut coords = Vec::with_capacity(d + 2);
        coords.push(level);
        coords.push(0);
        coords.extend_from_slice(&vec![0usize; d]);
        out.push((CoeffKey::new(&coords), v));
    }
    out
}

/// Nonstandard transform of a *separable* vector given its 1-D factors —
/// used by the query-rewrite path without materializing the dense tensor.
///
/// For the nonstandard decomposition the coefficient at
/// `(level, mask, pos)` equals `Π_i ⟨factor_i, basis_i⟩` where `basis_i`
/// is the level-`level` scaling (mask bit 0) or wavelet (mask bit 1)
/// function at translation `pos[i]` — i.e. products of the per-factor
/// *partial* transforms.  We compute each factor's scaling/detail
/// coefficients at every level once (`O(N)` total per factor) and then
/// enumerate nonzero products.
pub fn nonstd_separable(factors: &[Vec<f64>], wavelet: Wavelet, tol: f64) -> Vec<(CoeffKey, f64)> {
    let d = factors.len();
    assert!(d + 2 <= batchbb_tensor::MAX_DIMS, "too many factors");
    // Per factor, per level: (scaling coeffs, detail coeffs).
    struct Levels {
        scaling: Vec<Vec<f64>>, // scaling[j] = s_j (length n/2^j), s_0 = signal
        detail: Vec<Vec<f64>>,  // detail[j] = d_{j+1} produced from s_j
    }
    let per_factor: Vec<Levels> = factors
        .iter()
        .map(|f| {
            assert!(f.len().is_power_of_two(), "factor lengths must be dyadic");
            let h = wavelet.lowpass();
            let g = wavelet.highpass();
            let mut scaling = vec![f.clone()];
            let mut detail = Vec::new();
            while scaling.last().unwrap().len() > 1 {
                let s = scaling.last().unwrap();
                let mut a = vec![0.0; s.len()];
                dwt_level(s, h, &g, &mut a);
                let dd = a.split_off(s.len() / 2);
                scaling.push(a);
                detail.push(dd);
            }
            Levels { scaling, detail }
        })
        .collect();

    let levels = per_factor
        .iter()
        .map(|f| f.detail.len())
        .max()
        .expect("at least one factor");
    let mut out = Vec::new();
    for level in 0..levels {
        // Axis i contributes scaling s_{level+1} (bit 0) or detail produced
        // at this level (bit 1); axes already exhausted contribute their
        // final scaling value.
        for mask in 1usize..(1 << d) {
            let mut slices: Vec<&[f64]> = Vec::with_capacity(d);
            let mut valid = true;
            for (i, f) in per_factor.iter().enumerate() {
                let has_level = level < f.detail.len();
                if mask & (1 << i) != 0 {
                    if !has_level {
                        valid = false;
                        break;
                    }
                    slices.push(&f.detail[level]);
                } else if has_level {
                    slices.push(&f.scaling[level + 1]);
                } else {
                    slices.push(f.scaling.last().unwrap());
                }
            }
            if !valid {
                continue;
            }
            // enumerate the cross product of nonzero positions
            let sparse: Vec<SparseVec1> = slices
                .iter()
                .map(|s| SparseVec1::from_dense(s, tol))
                .collect();
            if sparse.iter().any(SparseVec1::is_empty) {
                continue;
            }
            let mut cursor = vec![0usize; d];
            'outer: loop {
                let mut v = 1.0;
                let mut pos = Vec::with_capacity(d + 2);
                pos.push(level);
                pos.push(mask);
                for (i, sp) in sparse.iter().enumerate() {
                    let (p, f) = sp.entries()[cursor[i]];
                    pos.push(p);
                    v *= f;
                }
                if v.abs() > tol {
                    out.push((CoeffKey::new(&pos), v));
                }
                let mut i = d;
                loop {
                    if i == 0 {
                        break 'outer;
                    }
                    i -= 1;
                    cursor[i] += 1;
                    if cursor[i] < sparse[i].nnz() {
                        break;
                    }
                    cursor[i] = 0;
                }
            }
        }
    }
    // Final all-scaling product.
    let v: f64 = per_factor
        .iter()
        .map(|f| f.scaling.last().unwrap()[0])
        .product();
    if v.abs() > tol {
        let mut coords = Vec::with_capacity(d + 2);
        coords.push(levels);
        coords.push(0);
        coords.extend(std::iter::repeat_n(0usize, d));
        out.push((CoeffKey::new(&coords), v));
    }
    out
}

/// Validates that the separable fast path matches the dense transform —
/// exposed for tests and harnesses.
pub fn nonstd_dense_of_separable(
    factors: &[Vec<f64>],
    wavelet: Wavelet,
    tol: f64,
) -> Vec<(CoeffKey, f64)> {
    let dims: Vec<usize> = factors.iter().map(Vec::len).collect();
    let shape = Shape::new(dims).expect("factor dims form a shape");
    let t = Tensor::from_fn(shape, |ix| {
        ix.iter().enumerate().map(|(i, &x)| factors[i][x]).product()
    });
    nonstd_transform(&t, wavelet, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn sample(dims: &[usize]) -> Tensor {
        Tensor::from_fn(Shape::new(dims.to_vec()).unwrap(), |ix| {
            ix.iter()
                .enumerate()
                .map(|(a, &i)| ((i * (2 * a + 3) + 1) % 7) as f64 - 2.0)
                .sum()
        })
    }

    #[test]
    fn preserves_inner_products() {
        // Orthogonality: Σ â·b̂ over coefficient keys = ⟨a, b⟩.
        for dims in [vec![8usize, 8], vec![4, 8, 4]] {
            let a = sample(&dims);
            let b = Tensor::from_fn(Shape::new(dims.clone()).unwrap(), |ix| {
                (ix.iter().sum::<usize>() % 5) as f64
            });
            for w in [Wavelet::Haar, Wavelet::Db4] {
                let ta: BTreeMap<CoeffKey, f64> =
                    nonstd_transform(&a, w, 0.0).into_iter().collect();
                let tb: BTreeMap<CoeffKey, f64> =
                    nonstd_transform(&b, w, 0.0).into_iter().collect();
                let dot: f64 = ta
                    .iter()
                    .map(|(k, v)| v * tb.get(k).copied().unwrap_or(0.0))
                    .sum();
                let raw = a.dot(&b);
                assert!(
                    (dot - raw).abs() < 1e-8 * raw.abs().max(1.0),
                    "{w} {dims:?}: {dot} vs {raw}"
                );
            }
        }
    }

    #[test]
    fn coefficient_count_is_domain_size() {
        let t = sample(&[8, 8]);
        // with tol 0 and generic data every coefficient is present
        let coeffs = nonstd_transform(&t, Wavelet::Db4, -1.0);
        assert_eq!(coeffs.len(), 64);
        // keys are unique
        let uniq: BTreeSet<CoeffKey> = coeffs.iter().map(|&(k, _)| k).collect();
        assert_eq!(uniq.len(), 64);
    }

    #[test]
    fn separable_matches_dense() {
        let f: Vec<f64> = (0..8)
            .map(|i| if (2..6).contains(&i) { 1.0 } else { 0.0 })
            .collect();
        let g: Vec<f64> = (0..16).map(|i| i as f64 * 0.25).collect();
        for w in [Wavelet::Haar, Wavelet::Db4] {
            let fast: BTreeMap<CoeffKey, f64> = nonstd_separable(&[f.clone(), g.clone()], w, 1e-12)
                .into_iter()
                .collect();
            let dense: BTreeMap<CoeffKey, f64> =
                nonstd_dense_of_separable(&[f.clone(), g.clone()], w, 1e-12)
                    .into_iter()
                    .collect();
            for (k, v) in &dense {
                let got = fast.get(k).copied().unwrap_or(0.0);
                assert!((v - got).abs() < 1e-9, "{w} {k}: {v} vs {got}");
            }
            for (k, v) in &fast {
                if !dense.contains_key(k) {
                    assert!(v.abs() < 1e-9, "{w} {k}: spurious {v}");
                }
            }
        }
    }

    #[test]
    fn rectangular_domains_work() {
        let t = sample(&[4, 16]);
        let coeffs = nonstd_transform(&t, Wavelet::Haar, -1.0);
        assert_eq!(coeffs.len(), 64);
    }

    #[test]
    fn indicator_is_not_sparse_here() {
        // The point of the ablation: a 2-D box indicator has O(side) nonzero
        // nonstandard coefficients vs O(log² n) standard ones.
        // Odd boundaries so the box straddles cells at the finest level —
        // the generic position of a "randomly sized" range.  The gap is
        // asymptotic (O(side) vs O(log² n)), so use a decent domain.
        let n = 256;
        let shape = Shape::new(vec![n, n]).unwrap();
        let t = Tensor::from_fn(shape, |ix| {
            if (17..188).contains(&ix[0]) && (17..188).contains(&ix[1]) {
                1.0
            } else {
                0.0
            }
        });
        let nonstd = nonstd_transform(&t, Wavelet::Haar, 1e-11).len();
        let mut std_t = t.clone();
        crate::dwt_nd(&mut std_t, Wavelet::Haar);
        let standard = crate::SparseCoeffs::from_tensor(&std_t, 1e-11).nnz();
        assert!(
            nonstd > 2 * standard,
            "expected the nonstandard rewrite to be denser: {nonstd} vs {standard}"
        );
    }
}
