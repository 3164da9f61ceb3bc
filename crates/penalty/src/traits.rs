//! The penalty-function trait and its scoring key.

use std::any::TypeId;

/// A structural error penalty function (Definition 2).
///
/// Implementations must be non-negative, convex, symmetric
/// (`p(-e) = p(e)`), zero at zero, and homogeneous of degree
/// [`Penalty::homogeneity`]: `p(c·e) = |c|^α · p(e)`.
/// These properties are what the optimality proofs (Theorems 1–2) use; the
/// test suites of the concrete penalties verify them numerically.
pub trait Penalty: Send + Sync {
    /// Human-readable name for harness output.
    fn name(&self) -> String;

    /// Evaluates the penalty of a full error vector of length `s` (the
    /// batch size).
    fn evaluate(&self, errors: &[f64]) -> f64;

    /// The importance `ι_p(ξ) = p(q̂₀[ξ], …, q̂_{s-1}[ξ])` of a wavelet,
    /// given the *sparse column* of per-query coefficients at ξ — pairs
    /// `(query index, q̂ᵢ[ξ])` for the queries whose coefficient is
    /// nonzero.  Entries absent from the column are zero, so penalties
    /// must compute the value as if the full length-`s` vector had been
    /// materialized.
    fn importance(&self, column: &[(usize, f64)], batch_size: usize) -> f64;

    /// Degree of homogeneity `α` (2 for quadratic forms, 1 for norms) —
    /// the exponent in Theorem 1's worst-case bound `K^α·ι_p(ξ′)`.
    fn homogeneity(&self) -> f64;

    /// This penalty's exact scoring identity, if it has one.  The
    /// contract: two penalties with equal keys score every column
    /// bit-identically through [`Penalty::importance`], so whatever was
    /// sorted by one's importances serves the other.  The default, `None`,
    /// claims nothing: such a penalty shares no sorted progression.
    fn scoring_key(&self) -> Option<PenaltyKey> {
        None
    }
}

/// The scoring identity of a penalty ([`Penalty::scoring_key`]): the
/// penalty's type plus every parameter its importance reads, as raw words
/// — an `f64` as its bits, a count or an index as itself — and the keys of
/// the penalties it is built from.  Compared whole, never hashed, so equal
/// keys are equal values.  Bit-exact, so `0.0` and `-0.0` (or two NaNs
/// with different payloads) are different keys: a miss costs a sort, never
/// a wrong order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PenaltyKey {
    tag: TypeId,
    words: Vec<u64>,
    parts: Vec<PenaltyKey>,
}

impl PenaltyKey {
    /// The key of a penalty of type `P` whose importance reads exactly
    /// `words`.
    pub fn new<P: 'static>(words: impl IntoIterator<Item = u64>) -> Self {
        PenaltyKey {
            tag: TypeId::of::<P>(),
            words: words.into_iter().collect(),
            parts: Vec::new(),
        }
    }

    /// The key of a penalty of type `P` with `f64` parameters `values`.
    pub fn of_f64s<P: 'static>(values: &[f64]) -> Self {
        PenaltyKey::new::<P>(values.iter().map(|v| v.to_bits()))
    }

    /// This key, extended by the keys of the penalties it is built from,
    /// in order.
    pub fn with_parts(mut self, parts: Vec<PenaltyKey>) -> Self {
        self.parts = parts;
        self
    }
}

/// Reference implementation of [`Penalty::importance`] by materializing the
/// dense column; used by tests to validate the sparse fast paths.
#[cfg(test)]
pub(crate) fn importance_via_dense(
    p: &dyn Penalty,
    column: &[(usize, f64)],
    batch_size: usize,
) -> f64 {
    let mut dense = vec![0.0; batch_size];
    for &(i, v) in column {
        dense[i] = v;
    }
    p.evaluate(&dense)
}
