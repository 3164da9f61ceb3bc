//! Dense multi-dimensional arrays for the `batchbb` workspace.
//!
//! This crate is a small, dependency-free replacement for the pieces of
//! `ndarray` that the rest of the workspace needs: a row-major dense tensor
//! of `f64` values, shape/stride bookkeeping, multi-index iteration, and
//! mutable *lane* access along an arbitrary axis (the primitive on which the
//! separable multi-dimensional wavelet transform is built).
//!
//! The paper models a database instance as a *data frequency distribution*
//! `Δ`, a `d`-dimensional array of reals indexed by the domain of the schema
//! (§1.3).  [`Tensor`] is that array; [`Shape`] is its domain.
//!
//! # Example
//!
//! ```
//! use batchbb_tensor::{Shape, Tensor};
//!
//! let shape = Shape::new(vec![4, 8]).unwrap();
//! let mut t = Tensor::zeros(shape);
//! t[&[1, 3]] = 2.5;
//! assert_eq!(t[&[1, 3]], 2.5);
//! assert_eq!(t.sum(), 2.5);
//! ```

#![warn(missing_docs)]

mod axis;
mod hash;
mod index;
mod key;
mod shape;
mod tensor;

pub use axis::{Lane, LaneIterMut};
pub use hash::{key_fingerprint, mix, KeyHasher, KeyMap, KeySet};
pub use index::IndexIter;
pub use key::CoeffKey;
pub use shape::{Shape, ShapeError, MAX_DIMS};
pub use tensor::Tensor;
