//! Cursor-distance penalties: "the user is only interested in results that
//! are 'near the cursor'" (§4).
//!
//! A smooth generalization of the hard cursored SSE (P2): query `i`'s
//! squared error is weighted by a kernel of its distance to a cursor
//! position, so weights fall off gradually instead of jumping from 10 to 1.
//! Moving the cursor is free — penalties are supplied at query time, so a
//! UI can rebuild the executor (same store, same master list) whenever the
//! viewport scrolls.

use crate::DiagonalQuadratic;

/// Weight kernels for [`DiagonalQuadratic::near_cursor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CursorKernel {
    /// `w = 1 + (boost−1)·max(0, 1 − d/radius)` — linear falloff.
    Triangular,
    /// `w = 1 + (boost−1)·exp(−(d/radius)²)` — smooth falloff.
    Gaussian,
    /// `w = boost` inside the radius, `1` outside — the paper's hard
    /// cursored SSE as a special case.
    Box,
}

impl DiagonalQuadratic {
    /// Weights decaying with distance from a cursor: a batch of `s`
    /// queries with the cursor at index `cursor`, peak weight
    /// `boost ≥ 1`, falloff `radius > 0`, and the given kernel.  The
    /// cursor itself is not part of the penalty: two cursors whose weights
    /// are equal score, and share, one progression.
    pub fn near_cursor(
        s: usize,
        cursor: usize,
        boost: f64,
        radius: f64,
        kernel: CursorKernel,
    ) -> Self {
        assert!(cursor < s, "cursor index out of batch");
        assert!(boost >= 1.0, "boost must be at least 1");
        assert!(radius > 0.0, "radius must be positive");
        let weights = (0..s)
            .map(|i| {
                let d = (i as f64 - cursor as f64).abs();
                match kernel {
                    CursorKernel::Triangular => 1.0 + (boost - 1.0) * (1.0 - d / radius).max(0.0),
                    CursorKernel::Gaussian => {
                        1.0 + (boost - 1.0) * (-(d / radius) * (d / radius)).exp()
                    }
                    CursorKernel::Box => {
                        if d <= radius {
                            boost
                        } else {
                            1.0
                        }
                    }
                }
            })
            .collect();
        DiagonalQuadratic::new(weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Penalty;

    #[test]
    fn weights_peak_at_cursor() {
        for kernel in [
            CursorKernel::Triangular,
            CursorKernel::Gaussian,
            CursorKernel::Box,
        ] {
            let p = DiagonalQuadratic::near_cursor(11, 5, 10.0, 3.0, kernel);
            let w = p.weights();
            let peak = w[5];
            assert!((peak - 10.0).abs() < 1e-9, "{kernel:?}: peak {peak}");
            assert!(w.iter().all(|&x| x <= peak + 1e-12));
            assert!(
                w[0] <= w[3],
                "{kernel:?}: weights must not increase away from cursor"
            );
        }
    }

    #[test]
    fn box_kernel_matches_hard_cursored() {
        let p = DiagonalQuadratic::near_cursor(8, 3, 10.0, 1.0, CursorKernel::Box);
        assert_eq!(p.weights(), &[1.0, 1.0, 10.0, 10.0, 10.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn far_weights_approach_one() {
        let p = DiagonalQuadratic::near_cursor(101, 0, 50.0, 2.0, CursorKernel::Gaussian);
        assert!((p.weights()[100] - 1.0).abs() < 1e-9);
        let t = DiagonalQuadratic::near_cursor(101, 0, 50.0, 2.0, CursorKernel::Triangular);
        assert_eq!(t.weights()[100], 1.0);
    }

    #[test]
    fn is_a_valid_quadratic_penalty() {
        let p = DiagonalQuadratic::near_cursor(5, 2, 10.0, 2.0, CursorKernel::Triangular);
        assert_eq!(p.homogeneity(), 2.0);
        assert_eq!(p.evaluate(&[0.0; 5]), 0.0);
        let e = [1.0, -1.0, 2.0, 0.0, 0.5];
        let neg: Vec<f64> = e.iter().map(|x| -x).collect();
        assert_eq!(p.evaluate(&e), p.evaluate(&neg));
        let col = [(2usize, 1.5)];
        assert!((p.importance(&col, 5) - 10.0 * 2.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cursor index out of batch")]
    fn cursor_bounds_checked() {
        let _ = DiagonalQuadratic::near_cursor(4, 4, 2.0, 1.0, CursorKernel::Box);
    }
}
