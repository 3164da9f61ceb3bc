//! **Batch-Biggest-B**: progressive evaluation of batches of range-sum
//! queries with structural error control (Schmidt & Shahabi, PODS 2002).
//!
//! The algorithm (Figure 1 of the paper):
//!
//! 1. *Preprocessing* — transform the data frequency distribution and store
//!    it with constant random-access cost ([`batchbb_storage`]).
//! 2. Rewrite each query in the batch into its sparse coefficient list
//!    ([`BatchQueries::rewrite`], using any [`batchbb_query::LinearStrategy`]).
//! 3. Merge the lists into a **master list** ([`MasterList`]) so each data
//!    coefficient is retrieved once for the whole batch.
//! 4. Compute each coefficient's **importance**
//!    `ι_p(ξ) = p(q̂₀[ξ],…,q̂_{s-1}[ξ])` under the user's penalty function
//!    and sort the master list by it once — `ι_p` depends on the queries
//!    alone, so the paper's max-heap is only ever consumed in this order.
//! 5. Walk the sorted progression with a cursor: retrieve the most
//!    important pending coefficient's data value and advance every query
//!    that needs it ([`ProgressiveExecutor::step`]). When the progression
//!    drains the estimates are exact.
//!
//! Supporting pieces: the [`round_robin`] single-query baseline the paper
//! compares against, the [`data_approx`] compressed-synopsis baseline it
//! argues against (§1.1), the [`bounded`] workspace-limited variant
//! (§2.2's "reduce workspace requirements"), progressive summary
//! statistics in [`stats`] (§3), Theorem 1/2 diagnostics in
//! [`optimality`], and error metrics for the experiment harnesses in
//! [`metrics`].
//!
//! When the store can fail, the fallible path
//! ([`ProgressiveExecutor::try_step`] /
//! [`ProgressiveExecutor::drain_with_faults`]) retries with backoff, defers
//! coefficients whose retrieval keeps failing, and reports the resulting
//! penalty bounds through [`DegradationReport`] — progressive evaluation
//! degrades gracefully instead of aborting.
//!
//! Every engine can carry an [`ExecObserver`] (and the rewrite stage a
//! [`RewriteObserver`]) that records metrics and emits `exec.*` /
//! `rewrite.*` trace events in one uniform schema — see DESIGN.md §8.
//! Observation is read-only: runs with the default no-op sink are
//! bit-for-bit identical to unobserved runs.

//! # Example
//!
//! ```
//! use batchbb_core::{BatchQueries, ProgressiveExecutor};
//! use batchbb_penalty::Sse;
//! use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
//! use batchbb_relation::synth;
//! use batchbb_storage::{CoefficientStore, MemoryStore};
//! use batchbb_wavelet::Wavelet;
//!
//! // data + preprocessed view
//! let dfd = synth::uniform(2, 5, 10_000, 7).to_frequency_distribution();
//! let domain = dfd.schema().domain();
//! let strategy = WaveletStrategy::new(Wavelet::Haar);
//! let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
//!
//! // a batch partitioning the domain into 16 COUNT queries
//! let queries: Vec<RangeSum> = partition::random_partition(&domain, 16, 3)
//!     .into_iter().map(RangeSum::count).collect();
//! let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
//!
//! // progressive evaluation with a hard worst-case guarantee at each step
//! let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
//! exec.run(10);
//! let guarantee = exec.worst_case_bound(store.abs_sum());
//! exec.run_to_end();
//! assert!(exec.is_exact());
//! assert_eq!(exec.estimates().iter().sum::<f64>().round(), 10_000.0);
//! assert!(guarantee >= 0.0);
//! ```

#![warn(missing_docs)]

mod batch;
pub mod bounded;
pub mod data_approx;
mod executor;
pub mod layout;
mod master;
pub mod metrics;
mod observe;
pub mod optimality;
pub mod round_robin;
pub mod stats;

/// The policy the infallible entry points (`step`, `run`, `run_to_end`,
/// `evaluate_bounded`) hand to the fallible core they wrap: one attempt a
/// key, no retry, no budget.  A retrieval that fails under it panics.
pub(crate) const ONE_ATTEMPT: batchbb_storage::RetryPolicy = batchbb_storage::RetryPolicy {
    max_attempts: 1,
    base_backoff_ticks: 0,
    max_backoff_ticks: 0,
    jitter_seed: 0,
    total_attempt_budget: None,
};

pub use batch::BatchQueries;
pub use executor::{
    DegradationReport, DrainStatus, ProgressionEntry, ProgressiveExecutor, StepInfo, TryStepOutcome,
};
pub use master::MasterList;
pub use observe::{ExecObserver, RewriteObserver};
