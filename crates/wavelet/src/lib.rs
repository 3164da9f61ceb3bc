//! Orthogonal wavelet machinery for progressive range-sum evaluation.
//!
//! Implements everything the paper's Batch-Biggest-B strategy needs from the
//! wavelet side:
//!
//! * [`Wavelet`] — Haar and Daubechies filter banks with verified
//!   orthonormality and vanishing-moment properties;
//! * [`dwt_full`] / [`idwt_full`] and [`dwt_nd`] / [`idwt_nd`] — periodic
//!   orthogonal transforms in the pyramid layout (1-D and separable d-D);
//!   one analysis filter loop serves these and the nonstandard
//!   decomposition ([`nonstd_transform`], [`nonstd_separable`]);
//! * [`lazy_query_transform`] — the one sparse transform of a factor
//!   `p(x)·χ_[lo,hi]`, the `O((4δ+2)^d log^d N)` query-rewrite path;
//!   [`dense_query_transform`] is its dense oracle and ablation arm, and no
//!   strategy serves through it;
//! * [`point_transform`] — sparse transform of a point mass, the
//!   `O((2δ+1)^d log^d N)` tuple-insertion path: the lazy transform of the
//!   one-cell range, so an insert and the one-cell COUNT rewrite agree bit
//!   for bit;
//! * [`SparseVec1`] / [`SparseCoeffs`] — sparse coefficient containers and
//!   the tensor-product combination used for separable multi-d queries.
//!
//! Because every transform here is orthogonal, `⟨q, Δ⟩ = ⟨q̂, Δ̂⟩`
//! (Equations 1–2 of the paper) holds exactly, which is what lets queries be
//! evaluated — and approximated — entirely in the coefficient domain.
//!
//! # Example: a range-sum evaluated in the wavelet domain
//!
//! ```
//! use batchbb_wavelet::{dwt, lazy_query_transform, Poly, Wavelet, DEFAULT_TOL};
//!
//! // data: 16 values; query: Σ x·data[x] over x ∈ [3, 12]
//! let data: Vec<f64> = (0..16).map(|i| (i % 5) as f64).collect();
//! let data_hat = dwt(&data, Wavelet::Db4);
//! let q = lazy_query_transform(16, 3, 12, &Poly::monomial(1), Wavelet::Db4, DEFAULT_TOL)
//!     .unwrap();
//! let via_wavelets: f64 = q.dot_dense(&data_hat);
//! let direct: f64 = (3..=12).map(|x| x as f64 * data[x]).sum();
//! assert!((via_wavelets - direct).abs() < 1e-9);
//! assert!(q.nnz() < 16, "the query is sparse in the wavelet domain");
//! ```

#![warn(missing_docs)]

mod dwt1d;
mod filters;
mod lazy;
mod multid;
mod nonstd;
mod point;
mod poly;
mod pyramid;
mod sparse;

pub use dwt1d::{dwt, dwt_full, idwt, idwt_full, pyramid_index, pyramid_level};
pub use filters::Wavelet;
pub use lazy::{dense_query_transform, lazy_query_transform, LazyError};
pub use multid::{dwt_nd, idwt_nd};
pub use nonstd::{nonstd_dense_of_separable, nonstd_separable, nonstd_transform};
pub use point::point_transform;
pub use poly::Poly;
pub use pyramid::{support, supports};
pub use sparse::{SparseCoeffs, SparseVec1, DEFAULT_TOL};
