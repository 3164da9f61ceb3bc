//! `L^p`-norm penalties, `1 ≤ p ≤ ∞` (Corollary 1).

use crate::{Penalty, PenaltyKey};

/// The `L^p` norm of the error vector: `p(e) = (Σ|e_i|^p)^{1/p}`, with
/// `p = ∞` giving `max|e_i|`.  Norms are homogeneous of degree 1, so
/// Theorem 1's bound reads `K·ι_p(ξ′)`.
#[derive(Debug, Clone, Copy)]
pub struct LpPenalty {
    p: f64,
}

impl LpPenalty {
    /// Builds the norm; panics for `p < 1` (not convex below 1).
    pub fn new(p: f64) -> Self {
        assert!(p >= 1.0, "L^p penalties require p >= 1, got {p}");
        LpPenalty { p }
    }

    /// The `L¹` norm (sum of absolute errors).
    pub fn l1() -> Self {
        LpPenalty::new(1.0)
    }

    /// The `L²` (Euclidean) norm — note this is √SSE, homogeneity 1,
    /// whereas [`crate::Sse`] is the squared version with homogeneity 2.
    /// Both induce the same progression order.
    pub fn l2() -> Self {
        LpPenalty::new(2.0)
    }

    /// The `L^∞` norm (worst single-query error).
    pub fn linf() -> Self {
        LpPenalty { p: f64::INFINITY }
    }

    fn norm(&self, values: impl Iterator<Item = f64>) -> f64 {
        if self.p.is_infinite() {
            values.fold(0.0, |acc, v| acc.max(v.abs()))
        } else if self.p == 1.0 {
            values.map(f64::abs).sum()
        } else if self.p == 2.0 {
            values.map(|v| v * v).sum::<f64>().sqrt()
        } else {
            values
                .map(|v| v.abs().powf(self.p))
                .sum::<f64>()
                .powf(1.0 / self.p)
        }
    }
}

impl Penalty for LpPenalty {
    fn name(&self) -> String {
        if self.p.is_infinite() {
            "L∞".to_string()
        } else {
            format!("L{}", self.p)
        }
    }

    fn evaluate(&self, errors: &[f64]) -> f64 {
        self.norm(errors.iter().copied())
    }

    fn importance(&self, column: &[(usize, f64)], _batch_size: usize) -> f64 {
        self.norm(column.iter().map(|&(_, v)| v))
    }

    fn homogeneity(&self) -> f64 {
        1.0
    }

    fn scoring_key(&self) -> Option<PenaltyKey> {
        Some(PenaltyKey::of_f64s::<Self>(&[self.p]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::importance_via_dense;

    #[test]
    fn common_norms() {
        let e = [3.0, -4.0, 0.0];
        assert_eq!(LpPenalty::l1().evaluate(&e), 7.0);
        assert_eq!(LpPenalty::l2().evaluate(&e), 5.0);
        assert_eq!(LpPenalty::linf().evaluate(&e), 4.0);
        let p3 = LpPenalty::new(3.0);
        assert!((p3.evaluate(&e) - (27.0f64 + 64.0).powf(1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn homogeneity_degree_one() {
        for p in [LpPenalty::l1(), LpPenalty::l2(), LpPenalty::linf()] {
            let e = [1.0, -2.0];
            let scaled = [-5.0, 10.0];
            assert!((p.evaluate(&scaled) - 5.0 * p.evaluate(&e)).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetry_and_zero() {
        for p in [LpPenalty::l1(), LpPenalty::new(2.5), LpPenalty::linf()] {
            assert_eq!(p.evaluate(&[0.0; 5]), 0.0);
            assert_eq!(p.evaluate(&[1.0, -2.0]), p.evaluate(&[-1.0, 2.0]));
        }
    }

    #[test]
    fn triangle_inequality() {
        let a = [1.0, -2.0, 3.0];
        let b = [0.5, 4.0, -1.0];
        let sum = [1.5, 2.0, 2.0];
        for p in [LpPenalty::l1(), LpPenalty::new(1.7), LpPenalty::linf()] {
            assert!(p.evaluate(&sum) <= p.evaluate(&a) + p.evaluate(&b) + 1e-12);
        }
    }

    #[test]
    fn sparse_importance_matches_dense() {
        let column = [(0usize, -2.0), (3usize, 1.0)];
        for p in [
            LpPenalty::l1(),
            LpPenalty::l2(),
            LpPenalty::new(4.0),
            LpPenalty::linf(),
        ] {
            let fast = p.importance(&column, 5);
            let slow = importance_via_dense(&p, &column, 5);
            assert!((fast - slow).abs() < 1e-12, "{}", p.name());
        }
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn sub_one_rejected() {
        let _ = LpPenalty::new(0.5);
    }
}
