//! Serving configuration and batch admission types.

use std::sync::Arc;

use batchbb_core::BatchQueries;
use batchbb_obs::{EventSink, MetricsRegistry, Tracer};
use batchbb_penalty::Penalty;
use batchbb_storage::RetryPolicy;

use crate::slo::SloContract;

/// How a [`BatchServer`](crate::BatchServer) runs its pool.
///
/// The two required parameters are the bound inputs shared by every batch:
/// `n_total` (the domain size `N^d`, Theorem 2's denominator) and
/// `k_abs_sum` (the data's coefficient ℓ¹-norm `K`, Theorem 1's scale).
/// Everything else has serving defaults tuned for small fixtures: 4
/// workers, 64-step slices, 32-key prefetch windows, the default retry
/// policy, and no cache: batches read the caller's store.
#[derive(Clone)]
pub struct ServeConfig {
    /// Domain size `N^d` for expected-penalty reporting.
    pub(crate) n_total: usize,
    /// Coefficient ℓ¹-norm `K` for worst-case bound reporting.
    pub(crate) k_abs_sum: f64,
    /// Pool size; clamped to at least 1.
    pub(crate) workers: usize,
    /// Steps per scheduling slice; clamped to at least 1.
    pub(crate) slice_steps: usize,
    /// Retry policy applied by every batch's fallible drain.
    pub(crate) retry: RetryPolicy,
    /// Prefetch window W each executor fetches with (1 = singleton path).
    pub(crate) prefetch_window: usize,
    /// Route all batches through one sharded read-through cache.
    pub(crate) share_cache: bool,
    /// Shared metrics registry for `exec.*` counters, if any.
    pub(crate) registry: Option<Arc<MetricsRegistry>>,
    /// Shared trace sink; each batch's events get a `batch = <id>` label.
    pub(crate) sink: Option<Arc<dyn EventSink>>,
    /// Causal tracer; with a sink also configured, every batch records a
    /// phase lifecycle and flushes it as spans at finalize.
    pub(crate) tracer: Option<Tracer>,
    /// Declared serving capacity in store-attempt ticks; enables
    /// admission control and load shedding when set.
    pub(crate) capacity: Option<u64>,
    /// Resident-set cap for the shared cache (`None` = unbounded).
    pub(crate) cache_capacity: Option<usize>,
}

impl ServeConfig {
    /// Creates a config with serving defaults; the shared cache is off
    /// until [`share_cache`](ServeConfig::share_cache) turns it on.
    ///
    /// # Panics
    ///
    /// Panics if `n_total < 2` (the expected-penalty denominator
    /// `n_total - 1` must be positive), or if `k_abs_sum` is negative,
    /// NaN or infinite (Theorem 1's certificate `K^α · ι` would be
    /// negative or meaningless).
    pub fn new(n_total: usize, k_abs_sum: f64) -> Self {
        assert!(n_total > 1, "need a non-trivial domain");
        assert!(
            k_abs_sum >= 0.0 && k_abs_sum.is_finite(),
            "K must be finite and non-negative"
        );
        ServeConfig {
            n_total,
            k_abs_sum,
            workers: 4,
            slice_steps: 64,
            retry: RetryPolicy::default(),
            prefetch_window: 32,
            share_cache: false,
            registry: None,
            sink: None,
            tracer: None,
            capacity: None,
            cache_capacity: None,
        }
    }

    /// Declares serving capacity in store-attempt ticks and turns on
    /// admission control plus load shedding.
    ///
    /// At submission each batch's contract is priced
    /// ([`crate::AdmissionEstimate`]) and the run rejects — with
    /// [`crate::SloOutcome::Rejected`] — any batch whose estimate does
    /// not fit the capacity left after earlier admissions, instead of
    /// queueing it unboundedly. At runtime, once the pool's *actual*
    /// consumed attempts exceed the declared capacity (possible only when
    /// faults inflate costs past their estimates), still-running batches
    /// are finalized early at their certified bounds
    /// ([`crate::BatchStatus::Shed`]) rather than overrunning further.
    /// `None` (the default) admits everything and never sheds.
    pub fn capacity(mut self, capacity: u64) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Caps the shared cache's resident set (entries; see
    /// [`batchbb_storage::ShardedCachingStore::with_capacity`]). The
    /// default keeps the serving cache unbounded, which is safe for
    /// one-shot runs over finite master lists.
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = Some(entries.max(1));
        self
    }

    /// Sets the worker-pool size (values below 1 become 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-slice step budget (values below 1 become 1).
    ///
    /// Smaller slices interleave batches more finely (better fairness,
    /// more scheduling overhead); `usize::MAX` runs each batch to
    /// completion in one slice.
    pub fn slice_steps(mut self, steps: usize) -> Self {
        self.slice_steps = steps.max(1);
        self
    }

    /// Sets the retry policy used by every batch's fallible drain. A
    /// batch that has observed a high store-fault rate (over 25 % of at
    /// least 32 attempts) runs its slices on proportionally fewer attempts
    /// per retrieval ([`RetryPolicy::adapted`]), so retries cannot amplify
    /// an overload.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the prefetch window W (values below 1 become 1; the default
    /// is 32): each worker slice fetches up to W coefficients per
    /// `submit` call instead of one per step, cutting store calls roughly
    /// W-fold while leaving results bit-identical (see
    /// `ProgressiveExecutor::with_prefetch_window`). `prefetch_window(1)`
    /// is the singleton path, one `submit` per step.
    pub fn prefetch_window(mut self, w: usize) -> Self {
        self.prefetch_window = w.max(1);
        self
    }

    /// Enables or disables the shared read-through coefficient cache.
    ///
    /// With sharing on, a coefficient several batches need is fetched
    /// once and then served from memory (the exact guarantee per read
    /// path is in the crate docs); with it off (the default), every batch
    /// reads the store directly. Sharing pays where a read costs more
    /// than the memo's ≈ 400 ns and batches overlap — a disk, a
    /// remote or latency-charged store; over an in-memory store it only
    /// adds that cost. The cache composes with an asynchronous store
    /// beneath it: windows cross it without blocking (DESIGN.md §12).
    pub fn share_cache(mut self, share: bool) -> Self {
        self.share_cache = share;
        self
    }

    /// Attaches a metrics registry; every batch's executor records its
    /// `exec.*` counters and histograms there.
    pub fn registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Attaches a trace sink; batch `i`'s events are stamped with a
    /// `batch = i` label so one trace can be split per batch afterwards.
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a causal [`Tracer`]. Combined with a
    /// [`sink`](ServeConfig::sink), every admitted batch records a
    /// [`batchbb_obs::Phase`] lifecycle — admission, queueing, execution,
    /// store waits, parking, repair, finalize — whose intervals exactly
    /// partition its admitted-to-finalized wall time, flushed into the
    /// trace as `span.start`/`span.end` events at finalize. Wire the
    /// **same** tracer into any traced store wrappers
    /// ([`batchbb_storage::AsyncFetchStore::with_tracing`],
    /// [`batchbb_storage::ShardRouter::with_tracing`]) so store spans
    /// share the lifecycle clock. Without a sink this is inert; tracing
    /// never changes batch results (the serve proptests assert
    /// bit-identity with tracing on and off).
    pub fn tracing(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

/// One batch admitted to the server: the rewritten queries plus the
/// penalty function that scores coefficient importance for *this* batch.
///
/// Requests only borrow — rewriting (`BatchQueries::rewrite`) stays with
/// the caller, so the same rewritten batch can be served repeatedly or
/// under several penalties without re-deriving it.
#[derive(Clone, Copy)]
pub struct BatchRequest<'a> {
    /// The rewritten query batch.
    pub batch: &'a BatchQueries,
    /// The penalty function whose `ι_p` orders this batch's retrievals.
    pub penalty: &'a dyn Penalty,
    /// The batch's service-level contract (defaults to non-binding:
    /// ε = ∞, no deadline, priority 0).
    pub slo: SloContract,
}

impl<'a> BatchRequest<'a> {
    /// Pairs a rewritten batch with its penalty under the default
    /// (non-binding) contract.
    pub fn new(batch: &'a BatchQueries, penalty: &'a dyn Penalty) -> Self {
        BatchRequest {
            batch,
            penalty,
            slo: SloContract::default(),
        }
    }

    /// Attaches a service-level contract to this request.
    pub fn with_slo(mut self, slo: SloContract) -> Self {
        self.slo = slo;
        self
    }
}
