//! Coefficient storage with retrieval accounting.
//!
//! The paper's cost model (§1.3) assumes the transformed data vector `Δ̂` is
//! "held in either array-based or hash-based storage that allows
//! constant-time access to any single value", and every experimental result
//! is reported in *number of retrievals*.  This crate provides that storage
//! abstraction:
//!
//! * [`CoefficientStore`] — read access plus built-in retrieval counters:
//!   one read primitive, `submit` for a window, with `try_get` (its
//!   allocation-free window of one), `get` and `try_get_many` derived
//!   from it;
//! * [`MemoryStore`] — hash-based in-memory store;
//! * [`ArrayStore`] — dense array-based store for small domains;
//! * [`FileStore`] — a file-backed store doing one `pread` per run of
//!   adjacent slots, so one per singleton retrieval (unix only);
//! * [`BlockStore`] — coefficients packed into fixed-size blocks behind an
//!   LRU buffer pool, quantifying the paper's future-work remark on disk
//!   layout and smart buffer management (§7) (unix only);
//! * [`ShardedCachingStore`] — a sharded read-through cache: repeated
//!   retrievals (the round-robin baseline's, or many in-flight batches of
//!   the `batchbb-serve` pool) become cache hits, sharing each physical
//!   fetch without serializing on one lock;
//! * [`InstrumentedStore`] — an observability wrapper recording per-call
//!   latency histograms, hit/miss counters, and per-class fault counters
//!   into a `batchbb_obs` registry (plus `store.fault` trace events);
//! * [`ShardRouter`] — the completion-based asynchronous engine: I/O
//!   worker threads behind [`CoefficientStore::submit`], an in-flight
//!   table that dedups reads *across* concurrent batches, and
//!   scatter-gather over N shards with hedged reads (see [`Completion`]
//!   and DESIGN.md §12, §15); [`AsyncFetchStore`] is that engine over one
//!   shard — any blocking store made asynchronous;
//! * [`VersionedStore`] — MVCC snapshots for live updates with zero
//!   reader coordination: a version is one `Arc`-shared base map plus the
//!   slots changed since it, so a publish costs the slots it changes and
//!   never a copy of the store; readers pin a [`VersionView`] and advance
//!   on their own schedule, receiving the exact update delta for estimate
//!   repair (see DESIGN.md §13).
//!
//! All stores are safe to share across threads (`&self` reads, atomic
//! counters).
//!
//! # Every read is fallible
//!
//! Real backends fail, and a progressive evaluator is exactly the kind of
//! system that can degrade gracefully when they do: a missing coefficient
//! only widens the error bound, it does not block the answer — provided
//! the failure is seen and accounted.  So there is no infallible read
//! path to forget about:
//!
//! * [`CoefficientStore::submit`] is the only read a store implements
//!   ([`Completion::per_key`] for one that decides key by key), and
//!   [`CoefficientStore::try_get`] is its window of one; in-memory stores
//!   never fail, physical stores map backend errors to [`StorageError`].
//!   [`CoefficientStore::get`] is `try_get` that panics on an error, for
//!   tests and callers with nothing to degrade to;
//! * [`FaultInjectingStore`] — wraps any store and injects faults into
//!   every read from a deterministic seeded [`FaultPlan`] (per-attempt
//!   transient failures, persistently failing keys, simulated latency),
//!   for tests and robustness experiments; its `inner()` is the
//!   fault-free ground truth;
//! * [`RetryPolicy`] / [`retry::get_with_retry`] — bounded retries with
//!   deterministic exponential backoff in simulated ticks;
//! * [`FaultStats`] — fault-path counters reported alongside [`IoStats`],
//!   with reconciliation invariants checked by the test suite.
//!
//! The executor in `batchbb-core` builds on these to defer exhausted keys
//! and report a penalty-bounded [degradation
//! contract](../batchbb_core/struct.DegradationReport.html).
//!
//! # Example
//!
//! ```
//! use batchbb_storage::{CoefficientStore, MemoryStore};
//! use batchbb_tensor::CoeffKey;
//!
//! let store = MemoryStore::from_entries([
//!     (CoeffKey::new(&[0, 0]), 12.5),
//!     (CoeffKey::new(&[1, 3]), -2.0),
//! ]);
//! assert_eq!(store.get(&CoeffKey::new(&[1, 3])), Some(-2.0));
//! assert_eq!(store.get(&CoeffKey::new(&[9, 9])), None); // zero, still charged
//! assert_eq!(store.stats().retrievals, 2);
//! ```
//!
//! Injecting faults and retrying through them:
//!
//! ```
//! use batchbb_storage::{
//!     retry::get_with_retry, CoefficientStore, FaultInjectingStore, FaultPlan, MemoryStore,
//!     RetryPolicy,
//! };
//! use batchbb_tensor::CoeffKey;
//!
//! let inner = MemoryStore::from_entries([(CoeffKey::new(&[1, 3]), -2.0)]);
//! let store = FaultInjectingStore::new(inner, FaultPlan::new(7).with_transient_rate(0.5));
//! let policy = RetryPolicy { max_attempts: 16, ..RetryPolicy::default() };
//! let out = get_with_retry(&store, &CoeffKey::new(&[1, 3]), &policy, policy.max_attempts);
//! assert_eq!(out.result, Ok(Some(-2.0))); // survives transient faults
//! assert!(store.injected().attempts_reconcile());
//! ```

#![warn(missing_docs)]

mod async_fetch;
#[cfg(unix)]
mod block;
mod completion;
#[cfg(unix)]
mod disk;
mod error;
mod fault;
mod fingerprint;
mod instrument;
mod memory;
pub mod retry;
mod shard;
mod sharded;
mod stats;
mod store;
pub mod testing;
mod versioned;

pub use async_fetch::AsyncFetchStore;
#[cfg(unix)]
pub use block::{BlockLayout, BlockStore};
pub use completion::Completion;
#[cfg(unix)]
pub use disk::FileStore;
pub use error::StorageError;
pub use fault::{FaultInjectingStore, FaultPlan};
pub use fingerprint::shard_of;
pub use instrument::InstrumentedStore;
pub use memory::{ArrayStore, MemoryStore, ZERO_TOL};
pub use retry::{RetryOutcome, RetryPolicy};
pub use shard::{HedgeConfig, LatencyStore, ShardClient, ShardRouter, ShardStats, ShardTopology};
pub use sharded::{EvictionPolicy, ShardedCachingStore};
pub use stats::{FaultStats, IoStats};
pub use store::{CoefficientStore, MutableStore};
pub use versioned::{VersionId, VersionView, VersionedStore};
