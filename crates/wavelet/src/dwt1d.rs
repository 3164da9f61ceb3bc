//! Periodic 1-D discrete wavelet transform in the in-place pyramid layout.
//!
//! A length-`n` signal (`n` a power of two) transforms to `n` coefficients
//! laid out as:
//!
//! * index `0` — the overall scaling (approximation) coefficient;
//! * indices `[2^j, 2^{j+1})` for `j = 0 .. log2(n)` — detail coefficients,
//!   with `j = log2(n)-1` the finest scale.
//!
//! Because the filters are orthonormal and boundaries are periodized, the
//! transform is an orthogonal linear map: it preserves inner products
//! (Parseval), which is exactly the property Equation (1)/(2) of the paper
//! relies on: `⟨q, Δ⟩ = ⟨q̂, Δ̂⟩`.

use crate::Wavelet;

/// Returns the pyramid *level* of a coefficient index: `None` for the
/// scaling coefficient (index 0), otherwise `Some(floor(log2(ξ)))`.
///
/// Level `j` holds `2^j` detail coefficients; larger `j` means finer scale.
#[inline]
pub fn pyramid_level(xi: usize) -> Option<u32> {
    if xi == 0 {
        None
    } else {
        Some(xi.ilog2())
    }
}

/// Pyramid index of the detail coefficient at `level` and translation `k`.
#[inline]
pub fn pyramid_index(level: u32, k: usize) -> usize {
    (1usize << level) + k
}

/// In-place forward periodic DWT over all levels.
///
/// # Panics
/// Panics if `x.len()` is not a power of two or is zero.
pub fn dwt_full(x: &mut [f64], wavelet: Wavelet) {
    let n = x.len();
    assert!(n.is_power_of_two(), "signal length must be a power of two");
    let h = wavelet.lowpass();
    let g = wavelet.highpass();
    let mut scratch = vec![0.0f64; n];
    let mut m = n;
    while m > 1 {
        dwt_level(&x[..m], h, &g, &mut scratch[..m]);
        x[..m].copy_from_slice(&scratch[..m]);
        m /= 2;
    }
}

/// One analysis level: writes `m/2` approximation coefficients into
/// `out[..m/2]` and `m/2` details into `out[m/2..m]`, where `m = x.len()`.
/// Inlined into each caller: called out of line from its three call sites,
/// `dwt_nd` of a 1024² tensor took 1.2–1.4× as long.
#[inline]
pub(crate) fn dwt_level(x: &[f64], h: &[f64], g: &[f64], out: &mut [f64]) {
    let m = x.len();
    debug_assert!(m >= 2 && m.is_power_of_two());
    let half = m / 2;
    for k in 0..half {
        let mut a = 0.0;
        let mut d = 0.0;
        for (j, (&hj, &gj)) in h.iter().zip(g.iter()).enumerate() {
            let v = x[(2 * k + j) % m];
            a += hj * v;
            d += gj * v;
        }
        out[k] = a;
        out[half + k] = d;
    }
}

/// In-place inverse periodic DWT (the transpose of the forward map, which is
/// also its inverse by orthogonality).
///
/// # Panics
/// Panics if `x.len()` is not a power of two or is zero.
pub fn idwt_full(x: &mut [f64], wavelet: Wavelet) {
    let n = x.len();
    assert!(n.is_power_of_two(), "signal length must be a power of two");
    let h = wavelet.lowpass();
    let g = wavelet.highpass();
    let mut scratch = vec![0.0f64; n];
    let mut m = 2;
    while m <= n {
        idwt_level(&x[..m], h, &g, &mut scratch[..m]);
        x[..m].copy_from_slice(&scratch[..m]);
        m *= 2;
    }
}

/// One synthesis level: reconstructs `m` samples from `m/2` approximations
/// in `x[..m/2]` and `m/2` details in `x[m/2..m]`.
fn idwt_level(x: &[f64], h: &[f64], g: &[f64], out: &mut [f64]) {
    let m = x.len();
    let half = m / 2;
    out.fill(0.0);
    for k in 0..half {
        let a = x[k];
        let d = x[half + k];
        for (j, (&hj, &gj)) in h.iter().zip(g.iter()).enumerate() {
            out[(2 * k + j) % m] += hj * a + gj * d;
        }
    }
}

/// Convenience: forward transform of a borrowed signal into a new vector.
pub fn dwt(x: &[f64], wavelet: Wavelet) -> Vec<f64> {
    let mut out = x.to_vec();
    dwt_full(&mut out, wavelet);
    out
}

/// Convenience: inverse transform of a borrowed coefficient vector.
pub fn idwt(x: &[f64], wavelet: Wavelet) -> Vec<f64> {
    let mut out = x.to_vec();
    idwt_full(&mut out, wavelet);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn haar_constant_signal() {
        // A constant signal has only the scaling coefficient: value·√n.
        let n = 16;
        let x = vec![3.0; n];
        let c = dwt(&x, Wavelet::Haar);
        assert!((c[0] - 3.0 * (n as f64).sqrt()).abs() < TOL);
        for (i, v) in c.iter().enumerate().skip(1) {
            assert!(v.abs() < TOL, "detail {i} = {v}");
        }
    }

    #[test]
    fn constant_signal_all_filters() {
        for w in Wavelet::ALL {
            let x = vec![1.0; 64];
            let c = dwt(&x, w);
            assert!((c[0] - 8.0).abs() < TOL, "{w}: scaling {}", c[0]);
            assert!(
                c.iter().skip(1).all(|v| v.abs() < 1e-7),
                "{w}: details should vanish on constants"
            );
        }
    }

    #[test]
    fn roundtrip_all_filters() {
        let x: Vec<f64> = (0..64).map(|i| ((i * 37 + 11) % 23) as f64 - 7.0).collect();
        for w in Wavelet::ALL {
            let back = idwt(&dwt(&x, w), w);
            assert_close(&x, &back, 1e-8);
        }
    }

    #[test]
    fn parseval_inner_products() {
        // Orthogonality: ⟨a,b⟩ = ⟨â,b̂⟩.
        let a: Vec<f64> = (0..32).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..32)
            .map(|i| (i as f64 * 1.3).cos() + 0.1 * i as f64)
            .collect();
        let raw: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        for w in Wavelet::ALL {
            let ah = dwt(&a, w);
            let bh = dwt(&b, w);
            let tr: f64 = ah.iter().zip(&bh).map(|(x, y)| x * y).sum();
            assert!((raw - tr).abs() < 1e-8, "{w}: {raw} vs {tr}");
        }
    }

    #[test]
    fn haar_matches_hand_computation() {
        // n=4, x = [a,b,c,d]; Haar step 1: [(a+b)/√2, (c+d)/√2 | (a-b)/√2, (c-d)/√2]
        // step 2 on first half.
        let x = [1.0, 2.0, 3.0, 4.0];
        let c = dwt(&x, Wavelet::Haar);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let a1 = [(1.0f64 + 2.0) * s, (3.0f64 + 4.0) * s];
        let d1 = [(1.0f64 - 2.0) * s, (3.0f64 - 4.0) * s];
        let expect = [(a1[0] + a1[1]) * s, (a1[0] - a1[1]) * s, d1[0], d1[1]];
        assert_close(&c, &expect, TOL);
    }

    #[test]
    fn length_one_is_identity() {
        let mut x = [5.0];
        dwt_full(&mut x, Wavelet::Db4);
        assert_eq!(x[0], 5.0);
        idwt_full(&mut x, Wavelet::Db4);
        assert_eq!(x[0], 5.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_dyadic_panics() {
        let mut x = vec![0.0; 6];
        dwt_full(&mut x, Wavelet::Haar);
    }

    #[test]
    fn pyramid_level_math() {
        assert_eq!(pyramid_level(0), None);
        assert_eq!(pyramid_level(1), Some(0));
        assert_eq!(pyramid_level(2), Some(1));
        assert_eq!(pyramid_level(3), Some(1));
        assert_eq!(pyramid_level(8), Some(3));
        assert_eq!(pyramid_index(3, 0), 8);
        assert_eq!(pyramid_index(0, 0), 1);
    }

    #[test]
    fn energy_preserved() {
        let x: Vec<f64> = (0..128).map(|i| ((i * i) % 17) as f64).collect();
        let e: f64 = x.iter().map(|v| v * v).sum();
        for w in Wavelet::ALL {
            let c = dwt(&x, w);
            let ec: f64 = c.iter().map(|v| v * v).sum();
            assert!((e - ec).abs() / e < 1e-10, "{w}: energy {e} vs {ec}");
        }
    }

    #[test]
    fn linearity() {
        let a: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..16).map(|i| (16 - i) as f64 * 0.5).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
        let ta = dwt(&a, Wavelet::Db6);
        let tb = dwt(&b, Wavelet::Db6);
        let tsum = dwt(&sum, Wavelet::Db6);
        for i in 0..16 {
            assert!((tsum[i] - (2.0 * ta[i] + 3.0 * tb[i])).abs() < 1e-9);
        }
    }
}
