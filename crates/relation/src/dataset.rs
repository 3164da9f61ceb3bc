//! A bag of raw tuples under a schema, stored as one row-major buffer.

use std::slice::ChunksExact;

use batchbb_tensor::MAX_DIMS;

use crate::{FrequencyDistribution, Schema, SchemaError};

/// A dataset: a schema plus raw (un-binned) tuples.
///
/// The tuples live in one row-major `Vec<f64>` of stride
/// `schema.arity()`, so loading `n` records allocates the buffer once
/// rather than once per record.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    values: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new(schema: Schema) -> Self {
        Dataset::from_values(schema, Vec::new())
    }

    /// Wraps a row-major buffer whose length is a multiple of the arity.
    pub(crate) fn from_values(schema: Schema, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len() % schema.arity(),
            0,
            "buffer holds a partial row"
        );
        Dataset { schema, values }
    }

    /// Creates a dataset from tuples, validating arity — a small-input
    /// constructor that flattens them into the row buffer.
    pub fn from_tuples(schema: Schema, tuples: Vec<Vec<f64>>) -> Result<Self, SchemaError> {
        let mut dataset = Dataset::new(schema);
        dataset
            .values
            .reserve(tuples.len() * dataset.schema.arity());
        for t in &tuples {
            dataset.push(t)?;
        }
        Ok(dataset)
    }

    /// Appends a tuple, validating arity.
    pub fn push(&mut self, tuple: &[f64]) -> Result<(), SchemaError> {
        self.schema.check_arity(tuple)?;
        self.values.extend_from_slice(tuple);
        Ok(())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The raw tuples, one `arity`-long row each.
    pub fn tuples(&self) -> ChunksExact<'_, f64> {
        self.values.chunks_exact(self.schema.arity())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.values.len() / self.schema.arity()
    }

    /// True when there are no records.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Bins every tuple into the dense data frequency distribution `Δ`.
    pub fn to_frequency_distribution(&self) -> FrequencyDistribution {
        let mut dfd = FrequencyDistribution::new(self.schema.clone());
        for t in self.tuples() {
            dfd.insert(t).expect("rows have the schema's arity");
        }
        dfd
    }

    /// Builds a *measure cube*: a weighted frequency distribution over all
    /// attributes except `measure_attr`, with each tuple contributing
    /// `raw_measure + offset` instead of 1.
    ///
    /// This is the standard OLAP layout the paper's §6 experiment uses —
    /// "sum the temperature in each range" is a COUNT-shaped vector query
    /// against the temperature-weighted cube over (lat, lon, alt, time).
    /// `offset` shifts the measure (e.g. +273.15 to report Kelvin so every
    /// weight is positive).
    pub fn to_measure_cube(&self, measure_attr: usize, offset: f64) -> FrequencyDistribution {
        assert!(
            measure_attr < self.schema.arity(),
            "measure attribute out of range"
        );
        let attrs: Vec<crate::Attribute> = self
            .schema
            .attributes()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != measure_attr)
            .map(|(_, a)| a.clone())
            .collect();
        let mut cube = FrequencyDistribution::new(Schema::new(attrs).expect("sub-schema valid"));
        let mut reduced = [0.0; MAX_DIMS];
        let d = self.schema.arity() - 1;
        for t in self.tuples() {
            reduced[..measure_attr].copy_from_slice(&t[..measure_attr]);
            reduced[measure_attr..d].copy_from_slice(&t[measure_attr + 1..]);
            cube.insert_weighted(&reduced[..d], t[measure_attr] + offset)
                .expect("reduced rows have the cube's arity");
        }
        cube
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("x", 0.0, 4.0, 2),
            Attribute::new("y", 0.0, 4.0, 2),
        ])
        .unwrap()
    }

    #[test]
    fn push_validates_arity() {
        let mut d = Dataset::new(schema());
        assert!(d.push(&[1.0, 2.0]).is_ok());
        assert!(d.push(&[1.0]).is_err());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn from_tuples_validates() {
        assert!(Dataset::from_tuples(schema(), vec![vec![0.0, 0.0], vec![1.0]]).is_err());
    }

    #[test]
    fn measure_cube_sums_weights() {
        let d = Dataset::from_tuples(
            schema(),
            vec![vec![0.5, 2.0], vec![0.5, 3.0], vec![3.5, 1.0]],
        )
        .unwrap();
        // measure = attribute 1; cube over attribute 0 only
        let cube = d.to_measure_cube(1, 0.0);
        assert_eq!(cube.schema().arity(), 1);
        assert_eq!(cube.tensor()[&[0]], 5.0, "2+3 at bin 0");
        assert_eq!(cube.tensor()[&[3]], 1.0);
        let shifted = d.to_measure_cube(1, 10.0);
        assert_eq!(shifted.tensor()[&[0]], 25.0, "offset added per tuple");
    }

    #[test]
    fn dfd_counts_occurrences() {
        let d = Dataset::from_tuples(
            schema(),
            vec![vec![0.5, 0.5], vec![0.5, 0.5], vec![3.5, 3.5]],
        )
        .unwrap();
        let dfd = d.to_frequency_distribution();
        assert_eq!(dfd.tensor()[&[0, 0]], 2.0);
        assert_eq!(dfd.tensor()[&[3, 3]], 1.0);
        assert_eq!(dfd.total(), 3.0);
    }
}
