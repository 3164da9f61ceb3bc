//! Navigation within the 1-D pyramid coefficient layout.
//!
//! The in-place pyramid stores the overall scaling coefficient at index 0
//! and the detail at level `j` (coarse → fine), translation `k`, at index
//! `2^j + k`.  These helpers give the (periodic) support of each
//! coefficient's basis function on the original signal.

use crate::{pyramid_level, Wavelet};

/// The (periodic) support of the coefficient's basis function on the
/// original length-`n` signal: the set of positions `x` where the wavelet
/// `ψ_{j,k}` (or the scaling function for `xi = 0`) is nonzero, returned
/// as `(start, len)` with wraparound (`len` may reach `n`).
///
/// A coefficient at analysis depth `r` (so `stride = 2^r` original
/// positions per translation slot) depends on a window of `L` slots one
/// level up, giving the recurrence `S(r) = 2^{r-1}(L−1) + S(r−1)` with
/// `S(1) = L`, i.e. `S(r) = (L−1)(2^r − 2) + L` — clamped to `n` when
/// periodization wraps the whole signal.
pub fn support(xi: usize, n: usize, wavelet: Wavelet) -> (usize, usize) {
    assert!(n.is_power_of_two(), "pyramid length must be a power of two");
    let l = wavelet.len();
    match pyramid_level(xi) {
        None => (0, n), // the scaling function spans everything
        Some(level) => {
            let coeffs_at_level = 1usize << level;
            let stride = n / coeffs_at_level; // positions per translation
            let k = xi - coeffs_at_level;
            let len = ((l - 1) * (stride - 2) + l).min(n);
            (k * stride % n, len)
        }
    }
}

/// True if position `x` lies in the (periodic) support of coefficient `xi`.
pub fn supports(xi: usize, x: usize, n: usize, wavelet: Wavelet) -> bool {
    let (start, len) = support(xi, n, wavelet);
    if len >= n {
        return true;
    }
    let rel = (x + n - start) % n;
    rel < len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwt;

    #[test]
    fn support_covers_actual_sensitivity() {
        // Empirically: coefficient xi changes iff a delta moves within its
        // computed support.
        let n = 64;
        for w in [Wavelet::Haar, Wavelet::Db4, Wavelet::Db8] {
            for xi in [1usize, 2, 3, 9, 33, 63] {
                for x in 0..n {
                    let mut signal = vec![0.0; n];
                    signal[x] = 1.0;
                    let c = dwt(&signal, w)[xi];
                    if c.abs() > 1e-12 {
                        assert!(
                            supports(xi, x, n, w),
                            "{w}: coefficient {xi} sensitive to position {x} outside computed support {:?}",
                            support(xi, n, w)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn haar_supports_are_tight() {
        // For Haar the support is exactly the dyadic block.
        let n = 16;
        for xi in 1..n {
            let (_, len) = support(xi, n, Wavelet::Haar);
            let level = pyramid_level(xi).unwrap();
            assert_eq!(len, n >> level, "xi={xi}");
        }
    }

    #[test]
    fn scaling_supports_everything() {
        assert_eq!(support(0, 32, Wavelet::Db4), (0, 32));
        assert!(supports(0, 31, 32, Wavelet::Db4));
    }
}
