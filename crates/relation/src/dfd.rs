//! The dense data frequency distribution `Δ` and direct query evaluation.

use batchbb_tensor::Tensor;

use crate::{Schema, SchemaError};

/// The data frequency distribution: `Δ[x]` = number of tuples binned at `x`
/// (§1.3).  Serves two roles: the input to the bulk wavelet transform, and
/// the ground-truth oracle — [`FrequencyDistribution::range_poly_sum`] is
/// the "scan the table" evaluation every approximate result is compared
/// against.
#[derive(Debug, Clone)]
pub struct FrequencyDistribution {
    schema: Schema,
    tensor: Tensor,
}

impl FrequencyDistribution {
    /// An all-zero distribution over the schema's domain.
    pub fn new(schema: Schema) -> Self {
        let tensor = Tensor::zeros(schema.domain());
        FrequencyDistribution { schema, tensor }
    }

    /// Inserts one raw tuple (weight 1).
    pub fn insert(&mut self, tuple: &[f64]) -> Result<(), SchemaError> {
        self.insert_weighted(tuple, 1.0)
    }

    /// Inserts one raw tuple with an arbitrary weight, binning it straight
    /// to its offset in `Δ` without allocating.
    pub(crate) fn insert_weighted(
        &mut self,
        tuple: &[f64],
        weight: f64,
    ) -> Result<(), SchemaError> {
        let offset = self.schema.bin_offset(tuple)?;
        self.tensor.data_mut()[offset] += weight;
        Ok(())
    }

    /// Inserts a pre-binned point with an arbitrary weight.
    pub fn insert_binned(&mut self, coords: &[usize], weight: f64) {
        self.tensor
            .add_at(coords, weight)
            .expect("coords out of domain");
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The dense array `Δ`.
    pub fn tensor(&self) -> &Tensor {
        &self.tensor
    }

    /// Total mass (number of inserted tuples when weights are 1).
    pub fn total(&self) -> f64 {
        self.tensor.sum()
    }

    /// Direct evaluation of a polynomial range-sum
    /// `Σ_{x ∈ R} p(x)·Δ[x]`, where `R` is the box `[lo_i, hi_i]`
    /// (inclusive, in binned coordinates) and `p(x) = Π_i x_i^{e_i}` is a
    /// monomial given by per-dimension exponents.
    ///
    /// This is the table-scan oracle: `O(|R|)` work, used for ground truth.
    pub fn range_poly_sum(&self, lo: &[usize], hi: &[usize], exponents: &[u32]) -> f64 {
        let d = self.schema.arity();
        assert_eq!(lo.len(), d, "lo arity");
        assert_eq!(hi.len(), d, "hi arity");
        assert_eq!(exponents.len(), d, "exponent arity");
        for i in 0..d {
            assert!(lo[i] <= hi[i], "empty range on axis {i}");
            assert!(hi[i] < self.schema.domain().dim(i), "range exceeds domain");
        }
        let mut acc = 0.0;
        let mut idx: Vec<usize> = lo.to_vec();
        loop {
            let delta = self.tensor[idx.as_slice()];
            if delta != 0.0 {
                let mut p = 1.0;
                for (i, &e) in exponents.iter().enumerate() {
                    if e > 0 {
                        p *= (idx[i] as f64).powi(e as i32);
                    }
                }
                acc += p * delta;
            }
            // odometer over the box
            let mut axis = d;
            loop {
                if axis == 0 {
                    return acc;
                }
                axis -= 1;
                idx[axis] += 1;
                if idx[axis] <= hi[axis] {
                    break;
                }
                idx[axis] = lo[axis];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Attribute;

    fn dfd() -> FrequencyDistribution {
        let schema = Schema::new(vec![
            Attribute::new("x", 0.0, 8.0, 3),
            Attribute::new("y", 0.0, 8.0, 3),
        ])
        .unwrap();
        let mut dfd = FrequencyDistribution::new(schema);
        // Place mass at (1,1), (1,2)x2, (5,5)
        dfd.insert_binned(&[1, 1], 1.0);
        dfd.insert_binned(&[1, 2], 2.0);
        dfd.insert_binned(&[5, 5], 1.0);
        dfd
    }

    #[test]
    fn count_over_boxes() {
        let d = dfd();
        let count = |lo, hi| d.range_poly_sum(lo, hi, &[0, 0]);
        assert_eq!(count(&[0, 0], &[7, 7]), 4.0);
        assert_eq!(count(&[0, 0], &[2, 2]), 3.0);
        assert_eq!(count(&[5, 5], &[5, 5]), 1.0);
        assert_eq!(count(&[6, 6], &[7, 7]), 0.0);
    }

    #[test]
    fn poly_sum_degree1() {
        let d = dfd();
        // SUM(y) over full domain: 1·1 + 2·2 + 5·1 = 10
        assert_eq!(d.range_poly_sum(&[0, 0], &[7, 7], &[0, 1]), 10.0);
        // SUM(x·y) over [0,2]²: 1·1·1 + 1·2·2 = 5
        assert_eq!(d.range_poly_sum(&[0, 0], &[2, 2], &[1, 1]), 5.0);
    }

    #[test]
    fn insert_binned_weights() {
        let mut d = dfd();
        d.insert_binned(&[1, 1], 2.5);
        assert_eq!(d.tensor()[&[1, 1]], 3.5);
        assert_eq!(d.total(), 6.5);
    }

    #[test]
    fn insert_raw_tuple_bins() {
        let schema = Schema::new(vec![Attribute::new("x", 0.0, 8.0, 3)]).unwrap();
        let mut d = FrequencyDistribution::new(schema);
        d.insert(&[3.7]).unwrap();
        assert_eq!(d.tensor()[&[3]], 1.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn inverted_range_panics() {
        let d = dfd();
        d.range_poly_sum(&[3, 0], &[2, 7], &[0, 0]);
    }
}
