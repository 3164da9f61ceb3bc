//! Schemas: named numeric attributes binned onto dyadic domains.

use std::fmt;

use batchbb_tensor::{Shape, MAX_DIMS};

/// Errors from schema construction or tuple binning.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// No attributes.
    Empty,
    /// More than [`MAX_DIMS`] attributes.
    TooManyAttributes(usize),
    /// An attribute has `min >= max`.
    DegenerateRange(String),
    /// A tuple's arity does not match the schema.
    ArityMismatch {
        /// Expected arity.
        expected: usize,
        /// Provided arity.
        got: usize,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Empty => write!(f, "schema needs at least one attribute"),
            SchemaError::TooManyAttributes(n) => {
                write!(f, "{n} attributes exceeds the supported maximum {MAX_DIMS}")
            }
            SchemaError::DegenerateRange(name) => {
                write!(f, "attribute `{name}` has an empty value range")
            }
            SchemaError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple has {got} values, schema has {expected} attributes"
                )
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// A numeric attribute binned onto `[0, 2^bits)`.
///
/// Raw values in `[min, max]` map linearly onto the dyadic domain; values
/// outside are clamped.  The paper indexes `Δ` by attribute values "ranging
/// from zero to N−1" — binning is how arbitrary numeric data reaches that
/// form.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name (for harness output).
    pub name: String,
    /// Smallest raw value mapped to bin 0.
    pub min: f64,
    /// Largest raw value mapped to the final bin.
    pub max: f64,
    /// Domain size exponent: the attribute has `2^bits` bins.
    pub bits: u32,
    /// Custom interior bin edges (ascending, length `2^bits − 1`); empty
    /// for linear binning.  Edge `e[i]` separates bin `i` from bin `i+1`
    /// (values `< e[i]` fall at or below bin `i`).
    edges: Vec<f64>,
}

impl Attribute {
    /// Linear (equi-width) binning of `[min, max]` onto `2^bits` bins.
    pub fn new(name: impl Into<String>, min: f64, max: f64, bits: u32) -> Self {
        Attribute {
            name: name.into(),
            min,
            max,
            bits,
            edges: Vec::new(),
        }
    }

    /// Custom (e.g. equi-depth/quantile) binning: `edges` are the
    /// `2^bits − 1` ascending interior cut points.  Real datasets are
    /// rarely uniform, and equi-depth bins keep the frequency distribution
    /// balanced — which both tightens per-range relative errors and is how
    /// production OLAP systems bucket continuous attributes.
    ///
    /// Panics if the edge count is not `2^bits − 1` or edges are not
    /// strictly ascending.
    pub fn with_edges(name: impl Into<String>, bits: u32, edges: Vec<f64>) -> Self {
        let n = 1usize << bits;
        assert_eq!(edges.len(), n - 1, "need 2^bits - 1 interior edges");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly ascending"
        );
        let min = edges.first().copied().unwrap_or(0.0) - 1.0;
        let max = edges.last().copied().unwrap_or(1.0) + 1.0;
        Attribute {
            name: name.into(),
            min,
            max,
            bits,
            edges,
        }
    }

    /// Equi-depth binning fitted to a sample of raw values: edges are the
    /// sample quantiles.  Duplicated quantiles are nudged apart so the
    /// edges stay strictly ascending.
    pub fn equi_depth(name: impl Into<String>, bits: u32, sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "need a non-empty sample");
        let mut sorted: Vec<f64> = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = 1usize << bits;
        let mut edges = Vec::with_capacity(n - 1);
        let mut last = f64::NEG_INFINITY;
        for i in 1..n {
            let q = sorted[(i * sorted.len() / n).min(sorted.len() - 1)];
            let q = if q <= last {
                last + f64::EPSILON.max(last.abs() * 1e-12)
            } else {
                q
            };
            edges.push(q);
            last = q;
        }
        Attribute::with_edges(name, bits, edges)
    }

    /// Number of bins `N = 2^bits`.
    pub fn bins(&self) -> usize {
        1usize << self.bits
    }

    /// Bins a raw value, clamping to the domain.
    pub fn bin(&self, value: f64) -> usize {
        let n = self.bins();
        if !self.edges.is_empty() {
            return self.edges.partition_point(|&e| e <= value);
        }
        let frac = (value - self.min) / (self.max - self.min);
        let idx = (frac * n as f64).floor();
        if idx < 0.0 {
            0
        } else if idx >= n as f64 {
            n - 1
        } else {
            idx as usize
        }
    }

    /// Representative raw value of a bin (midpoint for linear binning, the
    /// midpoint of the surrounding edges for custom binning).
    pub fn unbin(&self, bin: usize) -> f64 {
        if !self.edges.is_empty() {
            let lo = if bin == 0 {
                self.min
            } else {
                self.edges[bin - 1]
            };
            let hi = if bin + 1 >= self.bins() {
                self.max
            } else {
                self.edges[bin]
            };
            return (lo + hi) / 2.0;
        }
        let n = self.bins() as f64;
        self.min + (bin as f64 + 0.5) / n * (self.max - self.min)
    }
}

/// An ordered list of attributes; its domain is the shape of `Δ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema, validating arity and ranges.
    pub fn new(attrs: Vec<Attribute>) -> Result<Self, SchemaError> {
        if attrs.is_empty() {
            return Err(SchemaError::Empty);
        }
        if attrs.len() > MAX_DIMS {
            return Err(SchemaError::TooManyAttributes(attrs.len()));
        }
        if let Some(a) = attrs.iter().find(|a| a.min >= a.max) {
            return Err(SchemaError::DegenerateRange(a.name.clone()));
        }
        Ok(Schema { attrs })
    }

    /// The attributes.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes `d`.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Index of the attribute named `name`.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// The dyadic domain shape of `Δ`.
    pub fn domain(&self) -> Shape {
        Shape::new(self.attrs.iter().map(Attribute::bins).collect())
            .expect("schema validated at construction")
    }

    /// Errors unless the tuple has one value per attribute.
    pub(crate) fn check_arity(&self, tuple: &[f64]) -> Result<(), SchemaError> {
        if tuple.len() != self.arity() {
            return Err(SchemaError::ArityMismatch {
                expected: self.arity(),
                got: tuple.len(),
            });
        }
        Ok(())
    }

    /// Bins a raw tuple into domain coordinates.
    pub fn bin_tuple(&self, tuple: &[f64]) -> Result<Vec<usize>, SchemaError> {
        self.check_arity(tuple)?;
        Ok(self
            .attrs
            .iter()
            .zip(tuple.iter())
            .map(|(a, &v)| a.bin(v))
            .collect())
    }

    /// Bins a raw tuple straight to its row-major offset in [`Schema::domain`]
    /// — the coordinates of [`Schema::bin_tuple`] without the `Vec`. Every
    /// axis has `2^bits` bins, so the offset is the bins' bits concatenated.
    pub(crate) fn bin_offset(&self, tuple: &[f64]) -> Result<usize, SchemaError> {
        self.check_arity(tuple)?;
        Ok(self
            .attrs
            .iter()
            .zip(tuple)
            .fold(0, |offset, (a, &v)| (offset << a.bits) | a.bin(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2() -> Schema {
        Schema::new(vec![
            Attribute::new("x", 0.0, 10.0, 3),
            Attribute::new("y", -1.0, 1.0, 2),
        ])
        .unwrap()
    }

    #[test]
    fn binning_is_linear_and_clamped() {
        let a = Attribute::new("v", 0.0, 8.0, 3); // 8 bins of width 1
        assert_eq!(a.bin(0.0), 0);
        assert_eq!(a.bin(3.5), 3);
        assert_eq!(a.bin(7.999), 7);
        assert_eq!(a.bin(8.0), 7, "max clamps to last bin");
        assert_eq!(a.bin(-5.0), 0);
        assert_eq!(a.bin(100.0), 7);
    }

    #[test]
    fn custom_edges_partition_values() {
        // 4 bins with edges 1, 5, 20: (-inf,1) [1,5) [5,20) [20,inf)
        let a = Attribute::with_edges("v", 2, vec![1.0, 5.0, 20.0]);
        assert_eq!(a.bin(0.0), 0);
        assert_eq!(a.bin(1.0), 1);
        assert_eq!(a.bin(4.99), 1);
        assert_eq!(a.bin(5.0), 2);
        assert_eq!(a.bin(19.0), 2);
        assert_eq!(a.bin(1e9), 3);
        assert_eq!(a.bin(a.unbin(2)), 2);
    }

    #[test]
    fn equi_depth_balances_occupancy() {
        // A heavily skewed sample: equi-depth bins hold ~equal counts.
        let sample: Vec<f64> = (0..1000).map(|i| ((i as f64) / 100.0).exp()).collect();
        let a = Attribute::equi_depth("v", 3, &sample);
        let mut counts = vec![0usize; 8];
        for v in &sample {
            counts[a.bin(*v)] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            hi - lo <= 2,
            "equi-depth counts should balance, got {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_edges_rejected() {
        let _ = Attribute::with_edges("v", 2, vec![5.0, 1.0, 20.0]);
    }

    #[test]
    fn unbin_is_bin_midpoint() {
        let a = Attribute::new("v", 0.0, 8.0, 3);
        assert_eq!(a.unbin(3), 3.5);
        assert_eq!(a.bin(a.unbin(5)), 5);
    }

    #[test]
    fn domain_shape() {
        let s = schema2();
        assert_eq!(s.domain().dims(), &[8, 4]);
        assert!(s.domain().is_dyadic());
    }

    #[test]
    fn bin_tuple_and_arity() {
        let s = schema2();
        assert_eq!(s.bin_tuple(&[5.0, 0.0]).unwrap(), vec![4, 2]);
        assert!(matches!(
            s.bin_tuple(&[5.0]),
            Err(SchemaError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_schemas() {
        assert_eq!(Schema::new(vec![]), Err(SchemaError::Empty));
        assert!(matches!(
            Schema::new(vec![Attribute::new("x", 1.0, 1.0, 2)]),
            Err(SchemaError::DegenerateRange(_))
        ));
        let many = (0..=MAX_DIMS)
            .map(|i| Attribute::new(format!("a{i}"), 0.0, 1.0, 1))
            .collect();
        assert!(matches!(
            Schema::new(many),
            Err(SchemaError::TooManyAttributes(_))
        ));
    }

    #[test]
    fn attribute_lookup() {
        let s = schema2();
        assert_eq!(s.attribute_index("y"), Some(1));
        assert_eq!(s.attribute_index("z"), None);
    }
}
