//! `batchbb` — progressive evaluation of multiple range-sum queries.
//!
//! An open-source implementation of **Batch-Biggest-B** from *"How to
//! Evaluate Multiple Range-Sum Queries Progressively"* (Schmidt & Shahabi,
//! PODS 2002): evaluate a *batch* of polynomial range-sum queries against a
//! wavelet (or any linear) view of the data, sharing I/O across the batch
//! and ordering retrievals so that a user-chosen *structural error penalty*
//! is provably minimized at every step.
//!
//! This crate is a facade over the workspace; see the sub-crates for the
//! pieces:
//!
//! * [`tensor`] — dense multi-dimensional arrays and coefficient keys;
//! * [`wavelet`] — filters, transforms, and sparse query/point transforms;
//! * [`storage`] — coefficient stores with retrieval accounting;
//! * [`relation`] — schemas, data frequency distributions, generators;
//! * [`query`] — vector queries and linear storage/evaluation strategies;
//! * [`penalty`] — structural error penalty functions;
//! * [`core`] — the Batch-Biggest-B executor, baselines, and diagnostics;
//! * [`serve`] — a thread-pool batch server multiplexing many concurrent
//!   batches over one store with cross-batch I/O sharing;
//! * [`obs`] — zero-dependency metrics, span timing, and JSONL tracing
//!   used by the observers in [`core`] and [`storage`].
//!
//! # Quickstart
//!
//! ```
//! use batchbb::prelude::*;
//!
//! // 1. Data: a tiny 2-attribute relation, binned onto a 16×16 domain.
//! let schema = Schema::new(vec![
//!     Attribute::new("age", 0.0, 64.0, 4),
//!     Attribute::new("salary", 0.0, 160.0, 4),
//! ]).unwrap();
//! let mut dfd = FrequencyDistribution::new(schema);
//! dfd.insert(&[33.0, 72.0]).unwrap();
//! dfd.insert(&[41.0, 98.0]).unwrap();
//! dfd.insert(&[25.0, 55.0]).unwrap();
//!
//! // 2. Preprocess: materialize the Db4 wavelet view.
//! let strategy = WaveletStrategy::new(Wavelet::Db4);
//! let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
//!
//! // 3. A batch of queries: COUNT and SUM(salary) over two age bands.
//! let domain = dfd.schema().domain();
//! let queries = vec![
//!     RangeSum::count(HyperRect::new(vec![0, 0], vec![7, 15])),
//!     RangeSum::sum(HyperRect::new(vec![8, 0], vec![15, 15]), 1),
//! ];
//! let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
//!
//! // 4. Progressive evaluation under SSE; exact when the progression drains.
//! let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
//! exec.run_to_end();
//! assert_eq!(exec.estimates()[0].round(), 1.0); // one tuple with age < 32
//! ```

#![warn(missing_docs)]

pub use batchbb_core as core;
pub use batchbb_obs as obs;
pub use batchbb_penalty as penalty;
pub use batchbb_query as query;
pub use batchbb_relation as relation;
pub use batchbb_serve as serve;
pub use batchbb_sqlish as sqlish;
pub use batchbb_storage as storage;
pub use batchbb_tensor as tensor;
pub use batchbb_wavelet as wavelet;

/// One-stop imports for applications.
pub mod prelude {
    pub use batchbb_core::{
        bounded::{evaluate_bounded, evaluate_bounded_fallible},
        data_approx::CompressedView,
        metrics, optimality,
        round_robin::RoundRobin,
        BatchQueries, DegradationReport, DrainStatus, ExecObserver, MasterList, ProgressionEntry,
        ProgressiveExecutor, StepInfo, TryStepOutcome,
    };
    pub use batchbb_obs::{
        jsonl, span_end_event, span_start_event, BoundedSink, BoundedSinkBuilder, BoundedSinkStats,
        Event, EventSink, JsonlSink, LifecycleRecorder, MemorySink, MetricsRegistry,
        MetricsSnapshot, NullSink, Phase, SpanTimer, TraceContext, Tracer,
    };
    pub use batchbb_penalty::{
        Combination, CursorKernel, DiagonalQuadratic, LaplacianPenalty, LpPenalty, Penalty,
        QuadraticForm, Sse,
    };
    pub use batchbb_query::{
        derived, partition, HyperRect, IdentityStrategy, LinearStrategy, Monomial,
        NonstandardStrategy, PrefixSumStrategy, RangeSum, StrategyError, WaveletStrategy,
    };
    pub use batchbb_relation::{
        cube, synth, Attribute, Dataset, FrequencyDistribution, Schema, SchemaError,
    };
    pub use batchbb_serve::{
        AdmissionEstimate, BatchHandle, BatchRequest, BatchResult, BatchServer, BatchSnapshot,
        BatchStatus, ServeConfig, ServeSession, SloContract, SloOutcome,
    };
    pub use batchbb_storage::{
        retry::get_with_retry, shard_of, AsyncFetchStore, CoefficientStore, Completion,
        EvictionPolicy, FaultInjectingStore, FaultPlan, FaultStats, HedgeConfig, InstrumentedStore,
        IoStats, LatencyStore, MemoryStore, MutableStore, RetryPolicy, ShardClient, ShardRouter,
        ShardStats, ShardTopology, ShardedCachingStore, StorageError, VersionId, VersionView,
        VersionedStore,
    };
    #[cfg(unix)]
    pub use batchbb_storage::{BlockLayout, BlockStore, FileStore};
    pub use batchbb_tensor::{CoeffKey, KeyMap, KeySet, Shape, Tensor};
    pub use batchbb_wavelet::{Poly, SparseCoeffs, SparseVec1, Wavelet};
}
