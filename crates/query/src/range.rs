//! Rectangular ranges over a dyadic domain.

use std::fmt;

use batchbb_tensor::Shape;

/// A hyper-rectangle `R = Π_i [lo_i, hi_i]` with *inclusive* bounds in
/// binned coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HyperRect {
    lo: Vec<usize>,
    hi: Vec<usize>,
}

impl HyperRect {
    /// Builds a range; panics if arities differ or any `lo > hi`.
    pub fn new(lo: Vec<usize>, hi: Vec<usize>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound arity mismatch");
        assert!(!lo.is_empty(), "range needs at least one dimension");
        for (axis, (&l, &h)) in lo.iter().zip(hi.iter()).enumerate() {
            assert!(l <= h, "empty range on axis {axis}: [{l},{h}]");
        }
        HyperRect { lo, hi }
    }

    /// The full domain of `shape`.
    pub fn full(shape: &Shape) -> Self {
        HyperRect {
            lo: vec![0; shape.rank()],
            hi: shape.dims().iter().map(|&d| d - 1).collect(),
        }
    }

    /// Lower bounds (inclusive).
    pub fn lo(&self) -> &[usize] {
        &self.lo
    }

    /// Upper bounds (inclusive).
    pub fn hi(&self) -> &[usize] {
        &self.hi
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.lo.len()
    }

    /// Extent along one axis (inclusive width).
    pub fn extent(&self, axis: usize) -> usize {
        self.hi[axis] - self.lo[axis] + 1
    }

    /// Number of cells covered.
    pub fn volume(&self) -> usize {
        (0..self.rank()).map(|a| self.extent(a)).product()
    }

    /// True if the range lies within `shape`.
    pub fn fits(&self, shape: &Shape) -> bool {
        self.rank() == shape.rank()
            && self
                .hi
                .iter()
                .zip(shape.dims().iter())
                .all(|(&h, &d)| h < d)
    }

    /// True if `point` lies inside the range.
    pub fn contains(&self, point: &[usize]) -> bool {
        point.len() == self.rank()
            && point
                .iter()
                .zip(self.lo.iter().zip(self.hi.iter()))
                .all(|(&p, (&l, &h))| l <= p && p <= h)
    }

    /// True if the two ranges share at least one cell.
    pub fn intersects(&self, other: &HyperRect) -> bool {
        self.rank() == other.rank()
            && (0..self.rank()).all(|a| self.lo[a] <= other.hi[a] && other.lo[a] <= self.hi[a])
    }

    /// Splits the range at `point` along `axis`, returning
    /// `([lo, point], [point+1, hi])`. Panics unless
    /// `lo[axis] <= point < hi[axis]`.
    pub fn split(&self, axis: usize, point: usize) -> (HyperRect, HyperRect) {
        assert!(
            self.lo[axis] <= point && point < self.hi[axis],
            "split point {point} outside ({},{})",
            self.lo[axis],
            self.hi[axis]
        );
        let mut left = self.clone();
        let mut right = self.clone();
        left.hi[axis] = point;
        right.lo[axis] = point + 1;
        (left, right)
    }
}

impl fmt::Display for HyperRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in 0..self.rank() {
            if a > 0 {
                write!(f, "×")?;
            }
            write!(f, "[{},{}]", self.lo[a], self.hi[a])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let r = HyperRect::new(vec![2, 0], vec![5, 3]);
        assert_eq!(r.volume(), 16);
        assert_eq!(r.extent(0), 4);
        assert!(r.contains(&[2, 3]));
        assert!(!r.contains(&[6, 0]));
    }

    #[test]
    fn full_covers_shape() {
        let shape = Shape::new(vec![8, 4]).unwrap();
        let r = HyperRect::full(&shape);
        assert_eq!(r.volume(), 32);
        assert!(r.fits(&shape));
    }

    #[test]
    fn fits_checks_bounds() {
        let shape = Shape::new(vec![8, 4]).unwrap();
        assert!(!HyperRect::new(vec![0, 0], vec![8, 3]).fits(&shape));
        assert!(!HyperRect::new(vec![0], vec![3]).fits(&shape));
    }

    #[test]
    fn intersection() {
        let a = HyperRect::new(vec![0, 0], vec![3, 3]);
        let b = HyperRect::new(vec![3, 3], vec![5, 5]);
        let c = HyperRect::new(vec![4, 0], vec![5, 2]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn split_partitions() {
        let r = HyperRect::new(vec![0, 0], vec![7, 7]);
        let (l, rgt) = r.split(0, 3);
        assert_eq!(l.hi()[0], 3);
        assert_eq!(rgt.lo()[0], 4);
        assert_eq!(l.volume() + rgt.volume(), r.volume());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn inverted_bounds_panic() {
        let _ = HyperRect::new(vec![5], vec![4]);
    }
}
