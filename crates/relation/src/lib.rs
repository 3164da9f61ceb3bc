//! Relational substrate: schemas, data frequency distributions, and
//! synthetic workloads.
//!
//! The paper models a database instance `D` of a schema `F` with `d` numeric
//! attributes as a *data frequency distribution* `Δ` — a `d`-dimensional
//! array counting how often each domain point occurs (§1.3).  This crate
//! builds that array from tuples:
//!
//! * [`Attribute`] / [`Schema`] — numeric attributes binned onto dyadic
//!   domains `[0, 2^bits)`;
//! * [`Dataset`] — a bag of tuples under a schema;
//! * [`FrequencyDistribution`] — the dense `Δ`, with direct (table-scan)
//!   range-sum evaluation used as ground truth in tests and experiments;
//! * [`cube`] — bulk and tuple-at-a-time construction of the transformed
//!   view `Δ̂` (the materialized view Batch-Biggest-B evaluates against);
//! * [`synth`] — seeded generators, including the global-temperature
//!   simulator substituting for the paper's proprietary JPL dataset;
//! * [`csv`] — import/export of observation tables.
//!
//! # Example
//!
//! ```
//! use batchbb_relation::{Attribute, Dataset, Schema};
//!
//! let schema = Schema::new(vec![
//!     Attribute::new("lat", -90.0, 90.0, 4),
//!     Attribute::new("temp", -40.0, 40.0, 4),
//! ]).unwrap();
//! let mut data = Dataset::new(schema);
//! data.push(&[34.0, 18.5]).unwrap();
//! data.push(&[-12.0, 31.0]).unwrap();
//!
//! let dfd = data.to_frequency_distribution();
//! assert_eq!(dfd.total(), 2.0);
//! // ...or fold temperature in as the measure of a 1-D cube:
//! let cube = data.to_measure_cube(1, 0.0);
//! assert_eq!(cube.schema().arity(), 1);
//! assert_eq!(cube.total(), 18.5 + 31.0);
//! ```

#![warn(missing_docs)]

pub mod csv;
pub mod cube;
mod dataset;
mod dfd;
mod schema;
pub mod synth;

pub use dataset::Dataset;
pub use dfd::FrequencyDistribution;
pub use schema::{Attribute, Schema, SchemaError};
