//! Shapes, strides and linear offsets for row-major dense tensors.

use std::fmt;

/// Maximum number of dimensions supported across the workspace.
///
/// The paper's experiments use 4–5 dimensional data frequency distributions;
/// fixing a small compile-time cap lets coefficient keys live inline in hash
/// maps without heap allocation.
pub const MAX_DIMS: usize = 8;

/// Errors produced when constructing or using a [`Shape`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// The shape has zero dimensions.
    Empty,
    /// The shape has more than [`MAX_DIMS`] dimensions.
    TooManyDims(usize),
    /// A dimension has zero extent.
    ZeroDim(usize),
    /// The total number of elements overflows `usize`.
    Overflow,
    /// An index was out of bounds for this shape.
    OutOfBounds {
        /// Offending axis.
        axis: usize,
        /// Offending index value along that axis.
        index: usize,
        /// Extent of that axis.
        extent: usize,
    },
    /// The number of index coordinates does not match the dimensionality.
    RankMismatch {
        /// Expected rank.
        expected: usize,
        /// Provided rank.
        got: usize,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::Empty => write!(f, "shape must have at least one dimension"),
            ShapeError::TooManyDims(d) => {
                write!(f, "shape has {d} dimensions, maximum is {MAX_DIMS}")
            }
            ShapeError::ZeroDim(axis) => write!(f, "axis {axis} has zero extent"),
            ShapeError::Overflow => write!(f, "total element count overflows usize"),
            ShapeError::OutOfBounds {
                axis,
                index,
                extent,
            } => write!(
                f,
                "index {index} out of bounds for axis {axis} (extent {extent})"
            ),
            ShapeError::RankMismatch { expected, got } => {
                write!(f, "expected {expected} coordinates, got {got}")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

/// The extents of a dense row-major tensor.
///
/// A `Shape` is immutable after construction and pre-computes row-major
/// strides so that multi-index → linear-offset conversion is a dot product.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
    strides: Vec<usize>,
    len: usize,
}

impl Shape {
    /// Builds a shape from per-axis extents.
    ///
    /// Fails on empty shapes, zero extents, more than [`MAX_DIMS`] axes, or
    /// element counts that overflow `usize`.
    pub fn new(dims: Vec<usize>) -> Result<Self, ShapeError> {
        if dims.is_empty() {
            return Err(ShapeError::Empty);
        }
        if dims.len() > MAX_DIMS {
            return Err(ShapeError::TooManyDims(dims.len()));
        }
        if let Some(axis) = dims.iter().position(|&d| d == 0) {
            return Err(ShapeError::ZeroDim(axis));
        }
        let mut len: usize = 1;
        for &d in &dims {
            len = len.checked_mul(d).ok_or(ShapeError::Overflow)?;
        }
        let mut strides = vec![0usize; dims.len()];
        let mut acc = 1usize;
        for (axis, &d) in dims.iter().enumerate().rev() {
            strides[axis] = acc;
            acc *= d;
        }
        Ok(Shape { dims, strides, len })
    }

    /// Builds a hyper-cubic shape with `rank` axes of extent `n`.
    pub fn cube(rank: usize, n: usize) -> Result<Self, ShapeError> {
        Shape::new(vec![n; rank])
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Per-axis extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of one axis.
    #[inline]
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides.
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the shape holds a single element on every axis.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // zero extents are rejected at construction
    }

    /// Converts a multi-index to a linear row-major offset, with bounds checks.
    pub fn offset(&self, index: &[usize]) -> Result<usize, ShapeError> {
        if index.len() != self.rank() {
            return Err(ShapeError::RankMismatch {
                expected: self.rank(),
                got: index.len(),
            });
        }
        let mut off = 0usize;
        for (axis, (&i, (&d, &s))) in index
            .iter()
            .zip(self.dims.iter().zip(self.strides.iter()))
            .enumerate()
        {
            if i >= d {
                return Err(ShapeError::OutOfBounds {
                    axis,
                    index: i,
                    extent: d,
                });
            }
            off += i * s;
        }
        Ok(off)
    }

    /// Converts a linear row-major offset back into a multi-index.
    pub fn unravel(&self, mut offset: usize) -> Vec<usize> {
        debug_assert!(offset < self.len);
        let mut idx = vec![0usize; self.rank()];
        for (axis, &s) in self.strides.iter().enumerate() {
            idx[axis] = offset / s;
            offset %= s;
        }
        idx
    }

    /// True if every extent is a power of two (required by the dyadic
    /// wavelet transform).
    pub fn is_dyadic(&self) -> bool {
        self.dims.iter().all(|&d| d.is_power_of_two())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert_eq!(Shape::new(vec![]), Err(ShapeError::Empty));
    }

    #[test]
    fn rejects_zero_extent() {
        assert_eq!(Shape::new(vec![4, 0, 2]), Err(ShapeError::ZeroDim(1)));
    }

    #[test]
    fn rejects_too_many_dims() {
        assert_eq!(
            Shape::new(vec![2; MAX_DIMS + 1]),
            Err(ShapeError::TooManyDims(MAX_DIMS + 1))
        );
    }

    #[test]
    fn rejects_overflow() {
        assert_eq!(Shape::new(vec![usize::MAX, 2]), Err(ShapeError::Overflow));
    }

    #[test]
    fn row_major_strides() {
        let s = Shape::new(vec![2, 3, 4]).unwrap();
        assert_eq!(s.strides(), &[12, 4, 1]);
        assert_eq!(s.len(), 24);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(vec![3, 5, 7]).unwrap();
        for off in 0..s.len() {
            let idx = s.unravel(off);
            assert_eq!(s.offset(&idx).unwrap(), off);
        }
    }

    #[test]
    fn offset_bounds_checked() {
        let s = Shape::new(vec![2, 2]).unwrap();
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(ShapeError::OutOfBounds { axis: 0, .. })
        ));
        assert!(matches!(
            s.offset(&[0]),
            Err(ShapeError::RankMismatch { .. })
        ));
    }

    #[test]
    fn dyadic_detection() {
        assert!(Shape::new(vec![4, 64, 1]).unwrap().is_dyadic());
        assert!(!Shape::new(vec![4, 63]).unwrap().is_dyadic());
    }

    #[test]
    fn cube_builder() {
        let s = Shape::cube(3, 8).unwrap();
        assert_eq!(s.dims(), &[8, 8, 8]);
    }

    #[test]
    fn display_formats() {
        let s = Shape::new(vec![2, 3]).unwrap();
        assert_eq!(s.to_string(), "(2×3)");
    }
}
