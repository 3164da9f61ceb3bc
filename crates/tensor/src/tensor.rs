//! The dense row-major tensor.

use std::ops::{Index, IndexMut};

use crate::{IndexIter, Shape, ShapeError};

/// A dense, row-major, heap-allocated `f64` tensor.
///
/// This is the representation of the data frequency distribution `Δ` (§1.3 of
/// the paper) and of dense wavelet coefficient arrays.  All arithmetic needed
/// by the workspace (inner products, sums, per-element map) lives here; the
/// separable wavelet transform uses [`Tensor::for_each_lane_mut`] to run a
/// 1-D transform along each axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f64>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Builds a tensor from a row-major data vector.
    pub fn from_vec(shape: Shape, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != shape.len() {
            return Err(ShapeError::RankMismatch {
                expected: shape.len(),
                got: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Builds a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut t = Tensor::zeros(shape);
        let mut it = IndexIter::new(&t.shape);
        let mut buf = Vec::new();
        let mut off = 0usize;
        while it.next_into(&mut buf) {
            t.data[off] = f(&buf);
            off += 1;
        }
        t
    }

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Checked element access.
    pub fn get(&self, index: &[usize]) -> Result<f64, ShapeError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Checked element assignment.
    pub fn set(&mut self, index: &[usize], value: f64) -> Result<(), ShapeError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Adds `value` at `index` (checked). Used for tuple-at-a-time loading of
    /// the data frequency distribution.
    pub fn add_at(&mut self, index: &[usize], value: f64) -> Result<(), ShapeError> {
        let off = self.shape.offset(index)?;
        self.data[off] += value;
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Inner product `⟨a, b⟩ = Σ_x a[x]·b[x]` (§1.3).
    ///
    /// Panics if shapes differ.
    pub fn dot(&self, other: &Tensor) -> f64 {
        assert_eq!(
            self.shape, other.shape,
            "inner product requires identical shapes"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise `self += scale * other`. Panics if shapes differ.
    pub fn axpy(&mut self, scale: f64, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy requires identical shapes");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Visits every *lane* along `axis` — a contiguous logical 1-D slice of
    /// extent `dims[axis]` — copying it into a scratch buffer, invoking `f`,
    /// and copying the (possibly modified) buffer back.
    ///
    /// This is the primitive behind the separable (standard-decomposition)
    /// multi-dimensional wavelet transform: apply a full 1-D transform to
    /// every lane of every axis in turn.
    pub fn for_each_lane_mut(&mut self, axis: usize, mut f: impl FnMut(&mut [f64])) {
        assert!(axis < self.shape.rank(), "axis out of range");
        let n = self.shape.dim(axis);
        let stride = self.shape.strides()[axis];
        let mut lane = vec![0.0f64; n];

        // Enumerate the base offsets of all lanes: all indices with the
        // `axis` coordinate fixed at zero.
        let outer: usize = self.shape.len() / n;
        // Walk lane bases by decomposing an outer counter into the
        // non-axis coordinates.
        let dims = self.shape.dims().to_vec();
        let strides = self.shape.strides().to_vec();
        for mut rem in 0..outer {
            let mut base = 0usize;
            for ax in (0..dims.len()).rev() {
                if ax == axis {
                    continue;
                }
                let c = rem % dims[ax];
                rem /= dims[ax];
                base += c * strides[ax];
            }
            for (k, slot) in lane.iter_mut().enumerate() {
                *slot = self.data[base + k * stride];
            }
            f(&mut lane);
            for (k, slot) in lane.iter().enumerate() {
                self.data[base + k * stride] = *slot;
            }
        }
    }
}

impl Index<&[usize]> for Tensor {
    type Output = f64;

    fn index(&self, index: &[usize]) -> &f64 {
        let off = self.shape.offset(index).expect("index out of bounds");
        &self.data[off]
    }
}

impl<const N: usize> Index<&[usize; N]> for Tensor {
    type Output = f64;

    fn index(&self, index: &[usize; N]) -> &f64 {
        &self[index.as_slice()]
    }
}

impl IndexMut<&[usize]> for Tensor {
    fn index_mut(&mut self, index: &[usize]) -> &mut f64 {
        let off = self.shape.offset(index).expect("index out of bounds");
        &mut self.data[off]
    }
}

impl<const N: usize> IndexMut<&[usize; N]> for Tensor {
    fn index_mut(&mut self, index: &[usize; N]) -> &mut f64 {
        let off = self.shape.offset(index).expect("index out of bounds");
        &mut self.data[off]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    #[test]
    fn zeros_and_set_get() {
        let mut t = Tensor::zeros(shape(&[2, 3]));
        assert_eq!(t.sum(), 0.0);
        t.set(&[1, 2], 4.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 4.0);
        assert_eq!(t[&[1, 2]], 4.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(shape(&[2, 2]), vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(shape(&[2, 2]), vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_fn_row_major() {
        let t = Tensor::from_fn(shape(&[2, 2]), |ix| (ix[0] * 10 + ix[1]) as f64);
        assert_eq!(t.data(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(shape(&[4]), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(shape(&[4]), vec![4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!(a.dot(&b), 20.0);
        assert_eq!(a.norm_sq(), 30.0);
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn dot_shape_mismatch_panics() {
        let a = Tensor::zeros(shape(&[4]));
        let b = Tensor::zeros(shape(&[2, 2]));
        let _ = a.dot(&b);
    }

    #[test]
    fn add_at_accumulates() {
        let mut t = Tensor::zeros(shape(&[2]));
        t.add_at(&[1], 1.0).unwrap();
        t.add_at(&[1], 2.5).unwrap();
        assert_eq!(t[&[1]], 3.5);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(shape(&[3]), vec![1.0, 1.0, 1.0]).unwrap();
        let b = Tensor::from_vec(shape(&[3]), vec![1.0, 2.0, 3.0]).unwrap();
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn lanes_axis0_and_axis1() {
        // 2x3 tensor: lanes along axis 1 are the rows; along axis 0 the cols.
        let mut t =
            Tensor::from_vec(shape(&[2, 3]), vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]).unwrap();
        let mut rows = Vec::new();
        t.for_each_lane_mut(1, |lane| rows.push(lane.to_vec()));
        assert_eq!(rows, vec![vec![0.0, 1.0, 2.0], vec![10.0, 11.0, 12.0]]);

        let mut cols = Vec::new();
        t.for_each_lane_mut(0, |lane| cols.push(lane.to_vec()));
        assert_eq!(
            cols,
            vec![vec![0.0, 10.0], vec![1.0, 11.0], vec![2.0, 12.0]]
        );
    }

    #[test]
    fn lane_mutation_writes_back() {
        let mut t = Tensor::from_vec(shape(&[2, 2]), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        t.for_each_lane_mut(0, |lane| {
            let s: f64 = lane.iter().sum();
            lane[0] = s;
            lane[1] = 0.0;
        });
        // columns summed into row 0
        assert_eq!(t.data(), &[4.0, 6.0, 0.0, 0.0]);
    }

    #[test]
    fn lane_count_3d() {
        let mut t = Tensor::zeros(shape(&[2, 3, 4]));
        for axis in 0..3 {
            let mut count = 0;
            t.for_each_lane_mut(axis, |_| count += 1);
            assert_eq!(count, t.shape().len() / t.shape().dim(axis));
        }
    }
}
