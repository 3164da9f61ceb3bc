//! Linear storage/evaluation strategies (§1.2).
//!
//! "We can use any linear transformation of the data that has a left
//! inverse as a storage strategy. We can use the left inverse to rewrite
//! query vectors to their representation in the transformation domain."
//! A [`LinearStrategy`] bundles the two halves: transform the data once
//! (materialize the view), and rewrite each incoming query into a sparse
//! list of coefficients against that view; the inner product of the two is
//! the exact query answer.

use std::fmt;

use batchbb_tensor::{CoeffKey, Shape, Tensor};
use batchbb_wavelet::{lazy_query_transform, Poly, SparseCoeffs, Wavelet, DEFAULT_TOL};

use crate::{Monomial, RangeSum};

/// Errors from query rewriting.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyError {
    /// The query does not fit the data domain.
    RangeOutOfDomain,
    /// The polynomial degree exceeds what the strategy supports (e.g. the
    /// wavelet filter's vanishing moments, §3.1).
    UnsupportedDegree {
        /// Query degree.
        degree: u32,
        /// Strategy description.
        strategy: String,
    },
    /// A prefix-sum view is tuned to one measure polynomial; this query
    /// asks for a different one ("a pre-computed synopsis must be tuned",
    /// §5).
    MeasureMismatch,
    /// The strategy cannot encode coefficients for a domain of this rank
    /// (the nonstandard decomposition spends two key slots on level and
    /// subband).
    TooManyDimensions {
        /// Domain rank requested.
        rank: usize,
        /// Maximum rank this strategy supports.
        max: usize,
    },
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::RangeOutOfDomain => write!(f, "query range exceeds the data domain"),
            StrategyError::UnsupportedDegree { degree, strategy } => {
                write!(f, "degree-{degree} polynomial unsupported by {strategy}")
            }
            StrategyError::MeasureMismatch => {
                write!(f, "prefix-sum view was precomputed for a different measure")
            }
            StrategyError::TooManyDimensions { rank, max } => {
                write!(
                    f,
                    "domain rank {rank} exceeds this strategy's maximum {max}"
                )
            }
        }
    }
}

impl std::error::Error for StrategyError {}

/// A linear storage/evaluation strategy.
pub trait LinearStrategy: Send + Sync {
    /// Human-readable name for harness output.
    fn name(&self) -> String;

    /// Materializes the view: transforms the dense data vector into the
    /// coefficient entries to be bulk-loaded into a store.
    fn transform_data(&self, data: &Tensor) -> Vec<(CoeffKey, f64)>;

    /// Rewrites a query into its sparse coefficient representation in the
    /// transform domain, such that
    /// `⟨q, Δ⟩ = Σ_ξ coeffs[ξ] · view[ξ]`.
    fn query_coefficients(
        &self,
        query: &RangeSum,
        domain: &Shape,
    ) -> Result<SparseCoeffs, StrategyError>;
}

/// The paper's preferred strategy: orthonormal wavelet transform of `Δ`,
/// lazy sparse transform ([`lazy_query_transform`]) of each query factor.
/// The dense transform is an oracle and an ablation arm, never served.
#[derive(Debug, Clone, Copy)]
pub struct WaveletStrategy {
    /// The filter bank.
    pub wavelet: Wavelet,
}

impl WaveletStrategy {
    /// The strategy with the given filter.
    pub fn new(wavelet: Wavelet) -> Self {
        WaveletStrategy { wavelet }
    }

    /// Picks the minimal filter for a query batch's maximum degree.
    pub fn for_degree(degree: u32) -> Option<Self> {
        Wavelet::for_degree(degree as usize).map(WaveletStrategy::new)
    }
}

impl LinearStrategy for WaveletStrategy {
    fn name(&self) -> String {
        format!("wavelet({})", self.wavelet)
    }

    fn transform_data(&self, data: &Tensor) -> Vec<(CoeffKey, f64)> {
        let mut t = data.clone();
        batchbb_wavelet::dwt_nd(&mut t, self.wavelet);
        SparseCoeffs::from_tensor(&t, DEFAULT_TOL).into_entries()
    }

    fn query_coefficients(
        &self,
        query: &RangeSum,
        domain: &Shape,
    ) -> Result<SparseCoeffs, StrategyError> {
        if !query.range().fits(domain) {
            return Err(StrategyError::RangeOutOfDomain);
        }
        if query.degree() as usize > self.wavelet.max_poly_degree() {
            return Err(StrategyError::UnsupportedDegree {
                degree: query.degree(),
                strategy: self.name(),
            });
        }
        let mut terms = Vec::with_capacity(query.monomials().len());
        for m in query.monomials() {
            let mut factors = Vec::with_capacity(domain.rank());
            for axis in 0..domain.rank() {
                // Fold the scalar coefficient into the first axis factor.
                let c = if axis == 0 { m.coeff } else { 1.0 };
                let poly = Poly::monomial(m.exponents[axis] as usize).scale(c);
                let (n, lo, hi) = (
                    domain.dim(axis),
                    query.range().lo()[axis],
                    query.range().hi()[axis],
                );
                // The range and the degree passed the checks above, so a
                // non-dyadic axis is the one error left.
                let factor = lazy_query_transform(n, lo, hi, &poly, self.wavelet, DEFAULT_TOL);
                factors.push(factor.map_err(|_| StrategyError::RangeOutOfDomain)?);
            }
            terms.push(SparseCoeffs::tensor_product(&factors, DEFAULT_TOL));
        }
        Ok(SparseCoeffs::sum(terms, DEFAULT_TOL))
    }
}

/// Prefix-sum strategy (Ho et al. \[8\]): the view stores running sums of a
/// fixed measure `w(x) = Π_i x_i^{e_i}`; a range-sum of that measure needs
/// at most `2^d` signed corner lookups.
///
/// Demonstrates both halves of the paper's comparison: unbeatable retrieval
/// counts for the one measure it was tuned to, and a hard
/// [`StrategyError::MeasureMismatch`] for everything else.
#[derive(Debug, Clone)]
pub struct PrefixSumStrategy {
    /// Exponents of the precomputed measure (all zeros = COUNT view).
    pub measure: Vec<u32>,
}

impl PrefixSumStrategy {
    /// A COUNT view over `d` dimensions.
    pub fn count(d: usize) -> Self {
        PrefixSumStrategy {
            measure: vec![0; d],
        }
    }

    /// A view tuned to `Σ x_axis` (e.g. SUM(temperature)).
    pub fn sum(d: usize, axis: usize) -> Self {
        let mut measure = vec![0; d];
        measure[axis] = 1;
        PrefixSumStrategy { measure }
    }
}

impl LinearStrategy for PrefixSumStrategy {
    fn name(&self) -> String {
        format!("prefix-sum(measure={:?})", self.measure)
    }

    fn transform_data(&self, data: &Tensor) -> Vec<(CoeffKey, f64)> {
        // P[x] = Σ_{y ≤ x} w(y)·Δ[y]: weight each cell, then a running sum
        // along every axis.
        let shape = data.shape().clone();
        let mut t = Tensor::from_fn(shape.clone(), |ix| {
            let m = Monomial {
                coeff: 1.0,
                exponents: self.measure.clone(),
            };
            m.eval(ix)
        });
        for (slot, v) in t.data_mut().iter_mut().zip(data.data().iter()) {
            *slot *= v;
        }
        for axis in 0..shape.rank() {
            t.for_each_lane_mut(axis, |lane| {
                let mut acc = 0.0;
                for v in lane.iter_mut() {
                    acc += *v;
                    *v = acc;
                }
            });
        }
        // Prefix sums are dense: every cell is a view coefficient.
        let mut out = Vec::with_capacity(shape.len());
        for (off, &v) in t.data().iter().enumerate() {
            out.push((CoeffKey::new(&shape.unravel(off)), v));
        }
        out
    }

    fn query_coefficients(
        &self,
        query: &RangeSum,
        domain: &Shape,
    ) -> Result<SparseCoeffs, StrategyError> {
        if !query.range().fits(domain) {
            return Err(StrategyError::RangeOutOfDomain);
        }
        // Only the precomputed measure is answerable.
        let matches = query.monomials().len() == 1
            && query.monomials()[0].exponents == self.measure
            && query.monomials()[0].coeff == 1.0;
        if !matches {
            return Err(StrategyError::MeasureMismatch);
        }
        // Inclusion–exclusion over the 2^d corners; corners with any
        // coordinate at lo-1 = -1 vanish.
        let d = domain.rank();
        let mut entries = Vec::with_capacity(1 << d);
        'corner: for mask in 0u32..(1 << d) {
            let mut coords = Vec::with_capacity(d);
            let mut sign = 1.0;
            for axis in 0..d {
                if mask & (1 << axis) == 0 {
                    coords.push(query.range().hi()[axis]);
                } else {
                    let lo = query.range().lo()[axis];
                    if lo == 0 {
                        continue 'corner; // P at -1 is zero
                    }
                    coords.push(lo - 1);
                    sign = -sign;
                }
            }
            entries.push((CoeffKey::new(&coords), sign));
        }
        Ok(SparseCoeffs::from_pairs(entries, 0.0))
    }
}

/// The nonstandard (Mallat) decomposition as a storage strategy — the §7
/// "alternative transform" ablation.
///
/// Orthogonal like the standard decomposition, so exactness and the
/// Batch-Biggest-B machinery carry over unchanged; but box indicators are
/// `O(|∂R|)`-dense in it rather than polylog, so it loses the
/// coefficient-count comparison (see `coeff_count_sweep` and the
/// `nonstd` module docs).  Supports the same polynomial range-sums as
/// [`WaveletStrategy`].
#[derive(Debug, Clone, Copy)]
pub struct NonstandardStrategy {
    /// The filter bank.
    pub wavelet: Wavelet,
}

impl NonstandardStrategy {
    /// Strategy with the given filter.
    pub fn new(wavelet: Wavelet) -> Self {
        NonstandardStrategy { wavelet }
    }
}

impl LinearStrategy for NonstandardStrategy {
    fn name(&self) -> String {
        format!("nonstandard({})", self.wavelet)
    }

    fn transform_data(&self, data: &Tensor) -> Vec<(CoeffKey, f64)> {
        batchbb_wavelet::nonstd_transform(data, self.wavelet, DEFAULT_TOL)
    }

    fn query_coefficients(
        &self,
        query: &RangeSum,
        domain: &Shape,
    ) -> Result<SparseCoeffs, StrategyError> {
        if !query.range().fits(domain) {
            return Err(StrategyError::RangeOutOfDomain);
        }
        let max = batchbb_tensor::MAX_DIMS - 2;
        if domain.rank() > max {
            return Err(StrategyError::TooManyDimensions {
                rank: domain.rank(),
                max,
            });
        }
        if query.degree() as usize > self.wavelet.max_poly_degree() {
            return Err(StrategyError::UnsupportedDegree {
                degree: query.degree(),
                strategy: self.name(),
            });
        }
        let mut terms = Vec::with_capacity(query.monomials().len());
        for m in query.monomials() {
            // Materialize each separable 1-D factor densely; the
            // nonstandard rewrite has no sparse shortcut (that is the
            // finding), but factors are only O(N) per dimension.
            let factors: Vec<Vec<f64>> = (0..domain.rank())
                .map(|axis| {
                    let c = if axis == 0 { m.coeff } else { 1.0 };
                    let (lo, hi) = (query.range().lo()[axis], query.range().hi()[axis]);
                    (0..domain.dim(axis))
                        .map(|x| {
                            if x >= lo && x <= hi {
                                c * (x as f64).powi(m.exponents[axis] as i32)
                            } else {
                                0.0
                            }
                        })
                        .collect()
                })
                .collect();
            terms.push(SparseCoeffs::from_pairs(
                batchbb_wavelet::nonstd_separable(&factors, self.wavelet, DEFAULT_TOL),
                DEFAULT_TOL,
            ));
        }
        Ok(SparseCoeffs::sum(terms, DEFAULT_TOL))
    }
}

/// No precomputation: the view *is* `Δ`, and a query's coefficients are the
/// query vector itself (`|R|` of them — the baseline that makes the
/// sparsity of the wavelet rewrite visible).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityStrategy;

impl LinearStrategy for IdentityStrategy {
    fn name(&self) -> String {
        "identity".to_string()
    }

    fn transform_data(&self, data: &Tensor) -> Vec<(CoeffKey, f64)> {
        let shape = data.shape();
        data.data()
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(off, &v)| (CoeffKey::new(&shape.unravel(off)), v))
            .collect()
    }

    fn query_coefficients(
        &self,
        query: &RangeSum,
        domain: &Shape,
    ) -> Result<SparseCoeffs, StrategyError> {
        if !query.range().fits(domain) {
            return Err(StrategyError::RangeOutOfDomain);
        }
        let mut entries = Vec::with_capacity(query.range().volume());
        let mut idx = query.range().lo().to_vec();
        loop {
            let v = query.eval_at(&idx);
            if v != 0.0 {
                entries.push((CoeffKey::new(&idx), v));
            }
            let mut axis = idx.len();
            loop {
                if axis == 0 {
                    return Ok(SparseCoeffs::from_pairs(entries, 0.0));
                }
                axis -= 1;
                idx[axis] += 1;
                if idx[axis] <= query.range().hi()[axis] {
                    break;
                }
                idx[axis] = query.range().lo()[axis];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HyperRect;
    use std::collections::HashMap;

    fn data() -> Tensor {
        Tensor::from_fn(Shape::new(vec![8, 8]).unwrap(), |ix| {
            ((ix[0] * 3 + ix[1] * 5 + 1) % 7) as f64
        })
    }

    fn evaluate(strategy: &dyn LinearStrategy, q: &RangeSum, data: &Tensor) -> f64 {
        let view: HashMap<CoeffKey, f64> = strategy.transform_data(data).into_iter().collect();
        let coeffs = strategy.query_coefficients(q, data.shape()).unwrap();
        coeffs
            .entries()
            .iter()
            .map(|(k, v)| v * view.get(k).copied().unwrap_or(0.0))
            .sum()
    }

    #[test]
    fn all_strategies_agree_with_direct_count() {
        let d = data();
        let q = RangeSum::count(HyperRect::new(vec![1, 2], vec![5, 6]));
        let expect = q.eval_direct(&d);
        let strategies: Vec<Box<dyn LinearStrategy>> = vec![
            Box::new(WaveletStrategy::new(Wavelet::Haar)),
            Box::new(WaveletStrategy::new(Wavelet::Db4)),
            Box::new(NonstandardStrategy::new(Wavelet::Haar)),
            Box::new(NonstandardStrategy::new(Wavelet::Db4)),
            Box::new(PrefixSumStrategy::count(2)),
            Box::new(IdentityStrategy),
        ];
        for s in &strategies {
            let got = evaluate(s.as_ref(), &q, &d);
            assert!(
                (got - expect).abs() < 1e-6,
                "{}: {got} vs {expect}",
                s.name()
            );
        }
    }

    #[test]
    fn all_strategies_agree_with_direct_sum() {
        let d = data();
        let q = RangeSum::sum(HyperRect::new(vec![0, 3], vec![7, 7]), 0);
        let expect = q.eval_direct(&d);
        let strategies: Vec<Box<dyn LinearStrategy>> = vec![
            Box::new(WaveletStrategy::new(Wavelet::Db4)),
            Box::new(NonstandardStrategy::new(Wavelet::Db4)),
            Box::new(PrefixSumStrategy::sum(2, 0)),
            Box::new(IdentityStrategy),
        ];
        for s in &strategies {
            let got = evaluate(s.as_ref(), &q, &d);
            assert!(
                (got - expect).abs() < 1e-6 * expect.abs().max(1.0),
                "{}: {got} vs {expect}",
                s.name()
            );
        }
    }

    #[test]
    fn wavelet_lazy_equals_dense_rewrite() {
        // The rewrite against the dense oracle, `dwt_nd` of the query vector.
        let shape = Shape::new(vec![16, 16]).unwrap();
        let q = RangeSum::sum(HyperRect::new(vec![3, 0], vec![12, 9]), 1);
        let lazy = WaveletStrategy::new(Wavelet::Db4).query_coefficients(&q, &shape);
        let mut dense = Tensor::from_fn(shape.clone(), |ix| q.eval_at(ix));
        batchbb_wavelet::dwt_nd(&mut dense, Wavelet::Db4);
        let diff = lazy
            .unwrap()
            .max_abs_diff(&SparseCoeffs::from_tensor(&dense, DEFAULT_TOL));
        assert!(diff < 1e-8, "diff {diff}");
    }

    #[test]
    fn prefix_sum_uses_few_corners() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let s = PrefixSumStrategy::count(2);
        let q = RangeSum::count(HyperRect::new(vec![2, 3], vec![5, 6]));
        let c = s.query_coefficients(&q, &shape).unwrap();
        assert_eq!(c.nnz(), 4);
        let q0 = RangeSum::count(HyperRect::new(vec![0, 0], vec![5, 6]));
        assert_eq!(s.query_coefficients(&q0, &shape).unwrap().nnz(), 1);
    }

    #[test]
    fn prefix_sum_rejects_other_measures() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let s = PrefixSumStrategy::count(2);
        let q = RangeSum::sum(HyperRect::new(vec![0, 0], vec![7, 7]), 0);
        assert_eq!(
            s.query_coefficients(&q, &shape),
            Err(StrategyError::MeasureMismatch)
        );
    }

    #[test]
    fn wavelet_rejects_high_degree() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let s = WaveletStrategy::new(Wavelet::Haar);
        let q = RangeSum::sum(HyperRect::full(&shape), 0);
        assert!(matches!(
            s.query_coefficients(&q, &shape),
            Err(StrategyError::UnsupportedDegree { .. })
        ));
    }

    #[test]
    fn out_of_domain_rejected_everywhere() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let q = RangeSum::count(HyperRect::new(vec![0, 0], vec![4, 3]));
        let strategies: Vec<Box<dyn LinearStrategy>> = vec![
            Box::new(WaveletStrategy::new(Wavelet::Haar)),
            Box::new(PrefixSumStrategy::count(2)),
            Box::new(IdentityStrategy),
        ];
        for s in &strategies {
            assert_eq!(
                s.query_coefficients(&q, &shape),
                Err(StrategyError::RangeOutOfDomain),
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn identity_coefficients_are_query_vector() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let q = RangeSum::sum(HyperRect::new(vec![1, 1], vec![2, 2]), 0);
        let c = IdentityStrategy.query_coefficients(&q, &shape).unwrap();
        assert_eq!(c.nnz(), 4);
        for (k, v) in c.entries() {
            assert_eq!(*v, k.coord(0) as f64);
        }
    }

    #[test]
    fn nonstandard_rejects_high_rank_domains() {
        let dims = vec![2usize; batchbb_tensor::MAX_DIMS];
        let shape = Shape::new(dims.clone()).unwrap();
        let q = RangeSum::count(HyperRect::full(&shape));
        let s = NonstandardStrategy::new(Wavelet::Haar);
        assert!(matches!(
            s.query_coefficients(&q, &shape),
            Err(StrategyError::TooManyDimensions { .. })
        ));
    }

    #[test]
    fn multi_monomial_query_through_wavelets() {
        // variance-style polynomial: x0² - 4·x0 + 4 = (x0-2)²
        let d = data();
        let range = HyperRect::new(vec![0, 0], vec![7, 7]);
        let q = RangeSum::new(
            range,
            vec![
                Monomial {
                    coeff: 1.0,
                    exponents: vec![2, 0],
                },
                Monomial {
                    coeff: -4.0,
                    exponents: vec![1, 0],
                },
                Monomial::constant(2, 4.0),
            ],
        );
        let s = WaveletStrategy::new(Wavelet::Db6);
        let got = evaluate(&s, &q, &d);
        let expect = q.eval_direct(&d);
        assert!((got - expect).abs() < 1e-6 * expect.abs().max(1.0));
    }
}
