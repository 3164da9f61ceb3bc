//! Quadratic penalty functions: SSE, weighted/cursored SSE, and general
//! positive semi-definite forms.

use crate::{Penalty, PenaltyKey};

/// Sum of squared errors — `p(e) = Σ e_i²` (scenario P1).
///
/// For a single wavelet, its importance under SSE is exactly
/// `Σ_i |q̂ᵢ[ξ]|²`, the importance function derived in §2.2.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sse;

impl Penalty for Sse {
    fn name(&self) -> String {
        "SSE".to_string()
    }

    fn evaluate(&self, errors: &[f64]) -> f64 {
        errors.iter().map(|e| e * e).sum()
    }

    fn importance(&self, column: &[(usize, f64)], _batch_size: usize) -> f64 {
        column.iter().map(|&(_, v)| v * v).sum()
    }

    fn homogeneity(&self) -> f64 {
        2.0
    }

    fn scoring_key(&self) -> Option<PenaltyKey> {
        Some(PenaltyKey::new::<Self>([]))
    }
}

/// Diagonal quadratic penalty — `p(e) = Σ w_i·e_i²` with `w_i ≥ 0`.
///
/// Zero weights are allowed and meaningful: "it provides the flexibility to
/// say that some errors are irrelevant" (§4).
#[derive(Debug, Clone)]
pub struct DiagonalQuadratic {
    weights: Vec<f64>,
}

impl DiagonalQuadratic {
    /// Builds from per-query weights. Panics on negative weights.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "penalty weights must be non-negative"
        );
        DiagonalQuadratic { weights }
    }

    /// The cursored SSE of scenario P2: queries in `high_priority` weigh
    /// `boost`, the rest weigh 1.
    pub fn cursored(batch_size: usize, high_priority: &[usize], boost: f64) -> Self {
        assert!(boost >= 0.0, "boost must be non-negative");
        let mut weights = vec![1.0; batch_size];
        for &i in high_priority {
            assert!(i < batch_size, "high-priority index out of batch");
            weights[i] = boost;
        }
        DiagonalQuadratic { weights }
    }

    /// The per-query weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Penalty for DiagonalQuadratic {
    fn name(&self) -> String {
        "weighted-SSE".to_string()
    }

    fn evaluate(&self, errors: &[f64]) -> f64 {
        assert_eq!(errors.len(), self.weights.len(), "batch size mismatch");
        errors
            .iter()
            .zip(self.weights.iter())
            .map(|(e, w)| w * e * e)
            .sum()
    }

    fn importance(&self, column: &[(usize, f64)], batch_size: usize) -> f64 {
        debug_assert_eq!(batch_size, self.weights.len(), "batch size mismatch");
        column.iter().map(|&(i, v)| self.weights[i] * v * v).sum()
    }

    fn homogeneity(&self) -> f64 {
        2.0
    }

    fn scoring_key(&self) -> Option<PenaltyKey> {
        Some(PenaltyKey::of_f64s::<Self>(&self.weights))
    }
}

/// A general quadratic penalty `p(e) = eᵀAe` for a symmetric positive
/// semi-definite matrix `A` (Definition 2's "quadratic structural error
/// penalty function").
#[derive(Debug, Clone)]
pub struct QuadraticForm {
    s: usize,
    a: Vec<f64>, // row-major s×s
}

impl QuadraticForm {
    /// Builds from a row-major `s×s` matrix.  Panics if the matrix is not
    /// square or not symmetric; positive semi-definiteness is the caller's
    /// responsibility (a debug assertion samples random directions).
    pub fn new(s: usize, a: Vec<f64>) -> Self {
        assert_eq!(a.len(), s * s, "matrix must be s×s");
        for i in 0..s {
            for j in (i + 1)..s {
                assert!(
                    (a[i * s + j] - a[j * s + i]).abs() < 1e-9,
                    "matrix must be symmetric (A[{i},{j}] != A[{j},{i}])"
                );
            }
        }
        #[cfg(debug_assertions)]
        {
            // Cheap PSD spot check along coordinate directions.
            for i in 0..s {
                debug_assert!(
                    a[i * s + i] >= -1e-12,
                    "negative diagonal entry {i}: not PSD"
                );
            }
        }
        QuadraticForm { s, a }
    }

    /// Matrix entry `A[i,j]`.
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.s + j]
    }
}

impl Penalty for QuadraticForm {
    fn name(&self) -> String {
        format!("quadratic-form({}×{})", self.s, self.s)
    }

    fn evaluate(&self, errors: &[f64]) -> f64 {
        assert_eq!(errors.len(), self.s, "batch size mismatch");
        let mut acc = 0.0;
        for (i, &ei) in errors.iter().enumerate() {
            if ei == 0.0 {
                continue;
            }
            for (j, &ej) in errors.iter().enumerate() {
                acc += ei * self.at(i, j) * ej;
            }
        }
        acc.max(0.0)
    }

    fn importance(&self, column: &[(usize, f64)], _batch_size: usize) -> f64 {
        // vᵀAv over the sparse support only: O(nnz²) instead of O(s²).
        let mut acc = 0.0;
        for &(i, vi) in column {
            for &(j, vj) in column {
                acc += vi * self.at(i, j) * vj;
            }
        }
        acc.max(0.0)
    }

    fn homogeneity(&self) -> f64 {
        2.0
    }

    fn scoring_key(&self) -> Option<PenaltyKey> {
        let matrix = self.a.iter().map(|v| v.to_bits());
        Some(PenaltyKey::new::<Self>(
            std::iter::once(self.s as u64).chain(matrix),
        ))
    }
}

/// A non-negative linear combination of penalties with equal homogeneity.
///
/// "Linear combinations of quadratic penalty functions are still quadratic
/// penalty functions, allowing them to be mixed arbitrarily to suit the
/// needs of a particular problem" (§4).
pub struct Combination {
    terms: Vec<(f64, Box<dyn Penalty>)>,
}

impl Combination {
    /// Builds from `(weight, penalty)` terms. Panics on negative weights,
    /// an empty list, or mismatched homogeneity degrees.
    pub fn new(terms: Vec<(f64, Box<dyn Penalty>)>) -> Self {
        assert!(!terms.is_empty(), "combination needs at least one term");
        assert!(
            terms.iter().all(|(w, _)| *w >= 0.0),
            "combination weights must be non-negative"
        );
        let alpha = terms[0].1.homogeneity();
        assert!(
            terms.iter().all(|(_, p)| p.homogeneity() == alpha),
            "combined penalties must share a homogeneity degree"
        );
        Combination { terms }
    }
}

impl Penalty for Combination {
    fn name(&self) -> String {
        let names: Vec<String> = self
            .terms
            .iter()
            .map(|(w, p)| format!("{w}·{}", p.name()))
            .collect();
        names.join(" + ")
    }

    fn evaluate(&self, errors: &[f64]) -> f64 {
        self.terms.iter().map(|(w, p)| w * p.evaluate(errors)).sum()
    }

    fn importance(&self, column: &[(usize, f64)], batch_size: usize) -> f64 {
        self.terms
            .iter()
            .map(|(w, p)| w * p.importance(column, batch_size))
            .sum()
    }

    fn homogeneity(&self) -> f64 {
        self.terms[0].1.homogeneity()
    }

    /// The weights plus every term's key; `None` if any term has none.
    fn scoring_key(&self) -> Option<PenaltyKey> {
        let parts = self
            .terms
            .iter()
            .map(|(_, p)| p.scoring_key())
            .collect::<Option<Vec<_>>>()?;
        let weights = self.terms.iter().map(|(w, _)| w.to_bits());
        Some(PenaltyKey::new::<Self>(weights).with_parts(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::importance_via_dense;

    #[test]
    fn sse_basics() {
        let p = Sse;
        assert_eq!(p.evaluate(&[3.0, 4.0]), 25.0);
        assert_eq!(p.evaluate(&[0.0; 4]), 0.0);
        assert_eq!(p.evaluate(&[-3.0, 4.0]), p.evaluate(&[3.0, -4.0]));
    }

    #[test]
    fn sse_homogeneity() {
        let p = Sse;
        let e = [1.0, -2.0, 0.5];
        let scaled: Vec<f64> = e.iter().map(|v| 3.0 * v).collect();
        assert!((p.evaluate(&scaled) - 9.0 * p.evaluate(&e)).abs() < 1e-12);
    }

    #[test]
    fn sparse_importance_matches_dense() {
        let column = [(1usize, 2.0), (4usize, -1.5)];
        let s = 6;
        let penalties: Vec<Box<dyn Penalty>> = vec![
            Box::new(Sse),
            Box::new(DiagonalQuadratic::new(vec![1.0, 2.0, 0.0, 1.0, 10.0, 1.0])),
            Box::new(QuadraticForm::new(
                3,
                vec![2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0],
            )),
        ];
        for p in &penalties {
            let s_eff = if p.name().starts_with("quadratic") {
                3
            } else {
                s
            };
            let col: Vec<(usize, f64)> =
                column.iter().filter(|(i, _)| *i < s_eff).copied().collect();
            let fast = p.importance(&col, s_eff);
            let slow = importance_via_dense(p.as_ref(), &col, s_eff);
            assert!(
                (fast - slow).abs() < 1e-12,
                "{}: {fast} vs {slow}",
                p.name()
            );
        }
    }

    #[test]
    fn cursored_boosts_priority_queries() {
        let p = DiagonalQuadratic::cursored(4, &[1, 2], 10.0);
        assert_eq!(p.weights(), &[1.0, 10.0, 10.0, 1.0]);
        assert_eq!(p.evaluate(&[1.0, 1.0, 0.0, 0.0]), 11.0);
    }

    #[test]
    fn zero_weight_errors_are_irrelevant() {
        let p = DiagonalQuadratic::new(vec![0.0, 1.0]);
        assert_eq!(p.evaluate(&[1e9, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let _ = DiagonalQuadratic::new(vec![-1.0]);
    }

    #[test]
    fn quadratic_form_evaluates() {
        // A = [[2,1],[1,2]] — PSD; e=(1,1) -> 6
        let p = QuadraticForm::new(2, vec![2.0, 1.0, 1.0, 2.0]);
        assert_eq!(p.evaluate(&[1.0, 1.0]), 6.0);
        assert_eq!(p.evaluate(&[1.0, -1.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_form_rejected() {
        let _ = QuadraticForm::new(2, vec![1.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn combination_mixes_quadratics() {
        let c = Combination::new(vec![
            (1.0, Box::new(Sse) as Box<dyn Penalty>),
            (2.0, Box::new(DiagonalQuadratic::new(vec![1.0, 0.0]))),
        ]);
        // e = (1, 2): sse 5 + 2·1 = 7
        assert_eq!(c.evaluate(&[1.0, 2.0]), 7.0);
        assert_eq!(c.homogeneity(), 2.0);
        let col = [(0usize, 1.0), (1usize, 2.0)];
        assert_eq!(c.importance(&col, 2), 7.0);
    }

    #[test]
    fn convexity_spot_check() {
        // p((a+b)/2) <= (p(a)+p(b))/2 for random-ish vectors.
        let p = QuadraticForm::new(2, vec![3.0, 1.0, 1.0, 2.0]);
        let a = [1.0, -2.0];
        let b = [-0.5, 4.0];
        let mid = [(a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0];
        assert!(p.evaluate(&mid) <= (p.evaluate(&a) + p.evaluate(&b)) / 2.0 + 1e-12);
    }
}
