//! Structural error penalty functions (§4 of the paper).
//!
//! A *structural error penalty function* is a non-negative homogeneous
//! convex function `p` on error vectors with `p(0) = 0` and
//! `p(-e) = p(e)` (Definition 2).  Batch-Biggest-B turns any penalty into
//! an *importance function* over wavelets,
//! `ι_p(ξ) = p(q̂₀[ξ], …, q̂_{s-1}[ξ])` (Definition 3), and retrieving
//! coefficients in decreasing importance order minimizes both the worst
//! case (Theorem 1) and the expected (Theorem 2) penalty at every step.
//!
//! Provided penalties:
//!
//! * [`Sse`] — sum of squared errors (the P1 scenario);
//! * [`DiagonalQuadratic`] / [`DiagonalQuadratic::cursored`] — weighted
//!   SSE, e.g. high-priority cells 10× more important (P2);
//!   [`DiagonalQuadratic::near_cursor`] — weights decaying with distance
//!   from a cursor ("near the cursor", §4), with triangular/Gaussian/box
//!   kernels ([`CursorKernel`]);
//! * [`LaplacianPenalty`] — squared discrete Laplacian over a neighbour
//!   graph of the ranges, penalizing false local extrema (P3);
//! * [`QuadraticForm`] — an arbitrary positive semi-definite quadratic
//!   form `p(e) = eᵀAe`;
//! * [`LpPenalty`] — `L^p` norms for `1 ≤ p ≤ ∞` (Corollary 1);
//! * [`Combination`] — non-negative linear combinations ("allowing them to
//!   be mixed arbitrarily", §4).
//!
//! Each of them names its exact scoring identity ([`Penalty::scoring_key`],
//! a [`PenaltyKey`]), so a batch sorts its progression once per penalty
//! and shares it with every later serve under an equal one.
//!
//! # Example
//!
//! ```
//! use batchbb_penalty::{DiagonalQuadratic, Penalty, Sse};
//!
//! let errors = [3.0, -4.0, 0.0];
//! assert_eq!(Sse.evaluate(&errors), 25.0);
//!
//! // Query 1 is on screen: weigh it 10×.
//! let cursored = DiagonalQuadratic::cursored(3, &[1], 10.0);
//! assert_eq!(cursored.evaluate(&errors), 9.0 + 160.0);
//!
//! // The importance of a wavelet is the penalty of its per-query
//! // coefficient column (Definition 3): here queries 0 and 1 share it.
//! let column = [(0usize, 1.0), (1usize, 2.0)];
//! assert_eq!(Sse.importance(&column, 3), 5.0);
//! assert_eq!(cursored.importance(&column, 3), 41.0);
//! ```

#![warn(missing_docs)]

mod cursor;
mod laplacian;
mod lp;
mod quadratic;
mod traits;

pub use cursor::CursorKernel;
pub use laplacian::LaplacianPenalty;
pub use lp::LpPenalty;
pub use quadratic::{Combination, DiagonalQuadratic, QuadraticForm, Sse};
pub use traits::{Penalty, PenaltyKey};
