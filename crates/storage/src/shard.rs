//! Sharded scatter-gather retrieval: shard clients behind a mock-network
//! latency boundary, a router that splits batched fetches into per-shard
//! RPCs, and replication with hedged reads (DESIGN.md §15).
//!
//! The paper's evaluation order is store-agnostic — it only needs
//! coefficients by key, in importance order — so the coefficient key space
//! partitions cleanly across N shards by [`shard_of`].  [`ShardRouter`]
//! implements [`CoefficientStore`] over a vector of [`ShardClient`]s:
//!
//! * [`CoefficientStore::submit`] groups the requested keys by shard
//!   (preserving input order within each group), enqueues **one RPC per
//!   shard** on that shard's I/O worker, and returns a [`Completion`]
//!   aggregating every per-shard verdict — the PR 5 prefetch window becomes
//!   per-shard RPC coalescing, and the PR 7 completion riders aggregate
//!   per-shard completions into one.
//! * [`LatencyStore`] is the mock-network boundary: each call charges
//!   `base + per_key × keys` (a service-rate model, so sharding genuinely
//!   parallelizes per-key service time) plus seeded jitter and a seeded
//!   long-tail spike, all scaled by a runtime slow factor for
//!   slow-shard experiments.
//! * Replicated shards get **hedged reads**: every replicated RPC also
//!   enters a hedge queue with deadline `enqueue + hedge delay`, where the
//!   delay is derived from the p99 of the *other* shards' observed RPC
//!   latencies (a request is hedged when it exceeds what the rest of the
//!   fleet would have done; using the shard's own ring would let a slow
//!   shard balloon its own hedge delay).  If the primary finishes first
//!   the hedge is cancelled; otherwise the replica fetch races it,
//!   first success wins per key (`InflightSlot::try_complete`), and the
//!   loser's verdict is discarded.  A dead primary fails over to its
//!   replica immediately.
//! * A dead shard **without** a replica surfaces per-key
//!   [`StorageError::Permanent`] verdicts: the executor's singleton
//!   fallback attributes them, the affected keys flow into its deferral
//!   queue, and the batch finalizes with Theorem-1/2 certificates via
//!   `DegradationReport` — bounded degradation, never query failure.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use batchbb_obs::{
    span_end_event, span_start_event, Counter, EventSink, MetricsRegistry, TraceContext, Tracer,
};
use batchbb_tensor::CoeffKey;

use crate::completion::{Completion, InflightSlot};
use crate::fingerprint::{mix, shard_of};
use crate::stats::Counters;
use crate::{CoefficientStore, IoStats, MemoryStore, StorageError};

/// How many recent per-RPC latencies each shard remembers for the
/// p99-derived hedge delay.
const LATENCY_RING: usize = 256;

/// A latency-charging wrapper: the mock-network boundary in front of one
/// shard's store.
///
/// Every retrieval call sleeps for
/// `(base + per_key × keys + jitter + spike) × slow_factor` before
/// delegating, where jitter is uniform seeded noise, the spike is a seeded
/// long-tail event (`spike_permille` chances in 1000 of adding
/// `spike_ns`), and the slow factor is a runtime knob
/// ([`LatencyStore::set_slow_factor`]) for one-slow-shard experiments.
/// The per-key term is the load-bearing half: it models a service rate,
/// so splitting a window across N shards genuinely divides the service
/// time instead of just replicating a flat per-RPC constant.
pub struct LatencyStore<S> {
    inner: S,
    base_ns: u64,
    per_key_ns: u64,
    jitter_ns: u64,
    spike_permille: u32,
    spike_ns: u64,
    seed: u64,
    calls: AtomicU64,
    /// Slow factor in milli-units (1000 = 1.0x), so it fits an atomic.
    slow_milli: AtomicU64,
}

impl<S: CoefficientStore> LatencyStore<S> {
    /// Wraps `inner`, charging `base_ns + per_key_ns × keys` per call.
    pub fn new(inner: S, base_ns: u64, per_key_ns: u64) -> Self {
        LatencyStore {
            inner,
            base_ns,
            per_key_ns,
            jitter_ns: 0,
            spike_permille: 0,
            spike_ns: 0,
            seed: 0,
            calls: AtomicU64::new(0),
            slow_milli: AtomicU64::new(1000),
        }
    }

    /// Adds uniform seeded jitter in `[0, jitter_ns)` to every call.
    pub fn with_jitter(mut self, jitter_ns: u64) -> Self {
        self.jitter_ns = jitter_ns;
        self
    }

    /// Adds a seeded long-tail spike: `spike_permille` chances in 1000 of
    /// adding `spike_ns` to a call — the outliers hedged reads exist for.
    pub fn with_spikes(mut self, spike_permille: u32, spike_ns: u64) -> Self {
        self.spike_permille = spike_permille;
        self.spike_ns = spike_ns;
        self
    }

    /// Seeds the jitter/spike stream (deterministic per call index).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Calls charged so far (each `get`/`try_get`/`try_get_many` is one).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Scales every subsequent charge by `factor` (e.g. `10.0` makes this
    /// shard 10x slow). Takes effect on the next call.
    pub fn set_slow_factor(&self, factor: f64) {
        let milli = (factor.max(0.0) * 1000.0).round() as u64;
        self.slow_milli.store(milli, Ordering::Relaxed);
    }

    /// The current slow factor.
    pub fn slow_factor(&self) -> f64 {
        self.slow_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Sleeps for this call's charge.
    fn charge(&self, keys: u64) {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let mut ns = self.base_ns + self.per_key_ns.saturating_mul(keys);
        if self.jitter_ns > 0 {
            ns += mix(self.seed ^ call) % self.jitter_ns;
        }
        if self.spike_permille > 0
            && mix(self.seed.rotate_left(17) ^ call) % 1000 < u64::from(self.spike_permille)
        {
            ns += self.spike_ns;
        }
        let ns = ns.saturating_mul(self.slow_milli.load(Ordering::Relaxed)) / 1000;
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }
}

impl<S: CoefficientStore> CoefficientStore for LatencyStore<S> {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        self.charge(1);
        self.inner.get(key)
    }

    fn try_get(&self, key: &CoeffKey) -> Result<Option<f64>, StorageError> {
        self.charge(1);
        self.inner.try_get(key)
    }

    fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        self.charge(keys.len() as u64);
        self.inner.try_get_many(keys)
    }

    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn version_tag(&self) -> u64 {
        self.inner.version_tag()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// When a replicated shard's hedge fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Hedge delay used until the fleet has `min_samples` latency
    /// observations.
    pub initial_delay_ns: u64,
    /// How many observations (across the *other* shards' rings) the
    /// p99-derived delay needs before it replaces the initial delay.
    pub min_samples: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            initial_delay_ns: 1_000_000, // 1 ms
            min_samples: 32,
        }
    }
}

/// One shard's endpoint: a primary store behind the mock-network boundary,
/// an optional replica, and a liveness flag.
///
/// `get` (the infallible ground-truth channel) always goes to the primary
/// and ignores the dead flag; the fallible paths honor it — a dead primary
/// fails over to the replica when one exists and surfaces
/// [`StorageError::Permanent`] otherwise.
pub struct ShardClient {
    primary: Arc<dyn CoefficientStore>,
    replica: Option<Arc<dyn CoefficientStore>>,
    dead: AtomicBool,
}

impl ShardClient {
    /// A client over `primary` with no replica.
    pub fn new(primary: Arc<dyn CoefficientStore>) -> Self {
        ShardClient {
            primary,
            replica: None,
            dead: AtomicBool::new(false),
        }
    }

    /// Attaches a replica serving hedged reads and dead-primary failover.
    pub fn with_replica(mut self, replica: Arc<dyn CoefficientStore>) -> Self {
        self.replica = Some(replica);
        self
    }

    /// Whether this shard carries a replica.
    pub fn is_replicated(&self) -> bool {
        self.replica.is_some()
    }

    /// Whether the shard is currently marked dead.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }
}

/// Per-shard counter snapshot, from [`ShardRouter::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Primary RPCs issued (each covers one per-shard key group).
    pub rpcs: u64,
    /// Keys fetched through primary RPCs.
    pub keys: u64,
    /// RPCs that returned an error (including dead-shard refusals).
    pub errors: u64,
    /// Timed hedges launched to the replica after the hedge delay.
    pub hedges_launched: u64,
    /// Hedge entries cancelled because the primary finished in time.
    pub hedges_cancelled: u64,
    /// Timed hedges whose replica verdict won the race.
    pub hedge_wins: u64,
    /// Immediate replica failovers for a dead primary.
    pub failovers: u64,
}

/// Interior-mutable counters behind [`ShardStats`].
#[derive(Default)]
struct ShardCounters {
    rpcs: AtomicU64,
    keys: AtomicU64,
    errors: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_cancelled: AtomicU64,
    hedge_wins: AtomicU64,
    failovers: AtomicU64,
}

impl ShardCounters {
    fn snapshot(&self) -> ShardStats {
        ShardStats {
            rpcs: self.rpcs.load(Ordering::Relaxed),
            keys: self.keys.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            hedges_launched: self.hedges_launched.load(Ordering::Relaxed),
            hedges_cancelled: self.hedges_cancelled.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
        }
    }
}

/// One per-shard RPC: the shard's slice of a submitted window.
struct ShardJob {
    keys: Vec<CoeffKey>,
    slots: Vec<Arc<InflightSlot>>,
    /// Set by whichever side (primary or replica) finishes the job first.
    done: AtomicBool,
    /// Set by the primary worker when the primary is dead and a replica
    /// exists: tells the hedge worker to fail over immediately.
    primary_failed: AtomicBool,
}

struct WorkQueue {
    queue: VecDeque<Arc<ShardJob>>,
    shutdown: bool,
}

struct HedgeEntry {
    job: Arc<ShardJob>,
    deadline: Instant,
}

struct HedgeQueue {
    queue: VecDeque<HedgeEntry>,
    shutdown: bool,
}

/// Per-shard registry handles (`store.shard.{i}.*`).
struct ShardMetrics {
    rpcs: Counter,
    errors: Counter,
    hedges: Counter,
    hedge_wins: Counter,
}

/// Span emission for the router (same shape as the async engine's).
struct ShardTracing {
    tracer: Tracer,
    sink: Arc<dyn EventSink>,
}

/// Everything one shard's workers share with the router.
struct ShardRuntime {
    client: ShardClient,
    work: Mutex<WorkQueue>,
    work_cv: Condvar,
    hedge: Mutex<HedgeQueue>,
    hedge_cv: Condvar,
    counters: ShardCounters,
    /// Recent primary RPC latencies (ns), feeding the fleet p99.
    latencies: Mutex<VecDeque<u64>>,
    metrics: Option<ShardMetrics>,
}

impl ShardRuntime {
    fn record_latency(&self, ns: u64) {
        let mut ring = self.latencies.lock().unwrap_or_else(|e| e.into_inner());
        ring.push_back(ns);
        if ring.len() > LATENCY_RING {
            ring.pop_front();
        }
    }

    /// Counts one singleton (`get`/`try_get`) call as a one-key RPC, so
    /// the per-shard account covers the window-1 path too.
    fn count_singleton(&self) {
        self.counters.rpcs.fetch_add(1, Ordering::Relaxed);
        self.counters.keys.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.rpcs.inc();
        }
    }
}

/// State shared by the router handle and every shard worker.
struct RouterShared {
    shards: Vec<ShardRuntime>,
    hedge_cfg: HedgeConfig,
    /// Outstanding obligations: queued/running primary jobs plus
    /// unprocessed hedge entries. Zero ⇔ quiescent.
    inflight: Mutex<u64>,
    idle_cv: Condvar,
    counters: Counters,
    tracing: Option<ShardTracing>,
}

impl RouterShared {
    fn obligation_add(&self, n: u64) {
        *self.inflight.lock().unwrap_or_else(|e| e.into_inner()) += n;
    }

    fn obligation_done(&self) {
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        *inflight -= 1;
        if *inflight == 0 {
            self.idle_cv.notify_all();
        }
    }

    /// The hedge delay for `shard`: p99 over the *other* shards' latency
    /// rings (what the rest of the fleet would have done), falling back to
    /// the configured initial delay until enough samples exist.
    fn hedge_delay_ns(&self, shard: usize) -> u64 {
        let mut samples: Vec<u64> = Vec::new();
        for (i, rt) in self.shards.iter().enumerate() {
            if i == shard {
                continue;
            }
            let ring = rt.latencies.lock().unwrap_or_else(|e| e.into_inner());
            samples.extend(ring.iter().copied());
        }
        if samples.len() < self.hedge_cfg.min_samples {
            return self.hedge_cfg.initial_delay_ns;
        }
        samples.sort_unstable();
        samples[(samples.len() - 1) * 99 / 100]
    }
}

/// Scatter-gather store over N shard clients (see the module docs).
///
/// Implements [`CoefficientStore`]: singleton reads route to the owning
/// shard, batched submits fan out one RPC per shard, and
/// [`CoefficientStore::quiesce`] drains every queue and in-flight hedge.
/// Dropping the router drains outstanding work (every published completion
/// still resolves) and joins the workers.
pub struct ShardRouter {
    shared: Arc<RouterShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardRouter {
    /// A router over `clients` with hedging configured by `hedge`.
    pub fn new(clients: Vec<ShardClient>, hedge: HedgeConfig) -> Self {
        Self::with_instrumentation(clients, hedge, None, None)
    }

    /// The general constructor (what `batchbb-serve` uses). With a
    /// `registry`, per-shard counters (`store.shard.{i}.rpcs` / `.errors` /
    /// `.hedges` / `.hedge_wins`) are wired into it; with `tracing`,
    /// `store.shard.read` and `store.shard.hedge` spans are emitted into
    /// the sink on the tracer's clock — wire the same [`Tracer`] the serve
    /// pool uses so shard spans are time-comparable with batch lifecycles.
    pub fn with_instrumentation(
        clients: Vec<ShardClient>,
        hedge: HedgeConfig,
        registry: Option<&MetricsRegistry>,
        tracing: Option<(Tracer, Arc<dyn EventSink>)>,
    ) -> Self {
        assert!(!clients.is_empty(), "need at least one shard");
        let shards = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| ShardRuntime {
                client,
                work: Mutex::new(WorkQueue {
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                hedge: Mutex::new(HedgeQueue {
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                hedge_cv: Condvar::new(),
                counters: ShardCounters::default(),
                latencies: Mutex::new(VecDeque::new()),
                metrics: registry.map(|r| ShardMetrics {
                    rpcs: r.counter(&format!("store.shard.{i}.rpcs")),
                    errors: r.counter(&format!("store.shard.{i}.errors")),
                    hedges: r.counter(&format!("store.shard.{i}.hedges")),
                    hedge_wins: r.counter(&format!("store.shard.{i}.hedge_wins")),
                }),
            })
            .collect();
        let shared = Arc::new(RouterShared {
            shards,
            hedge_cfg: hedge,
            inflight: Mutex::new(0),
            idle_cv: Condvar::new(),
            counters: Counters::default(),
            tracing: tracing.map(|(tracer, sink)| ShardTracing { tracer, sink }),
        });
        let mut workers = Vec::new();
        for i in 0..shared.shards.len() {
            let s = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || primary_loop(&s, i)));
            if shared.shards[i].client.is_replicated() {
                let s = Arc::clone(&shared);
                workers.push(std::thread::spawn(move || hedge_loop(&s, i)));
            }
        }
        ShardRouter { shared, workers }
    }

    /// How many shards the router scatters over.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Marks shard `i` dead: fallible reads fail over to its replica when
    /// one exists and surface [`StorageError::Permanent`] otherwise.
    pub fn fail_shard(&self, i: usize) {
        self.shared.shards[i]
            .client
            .dead
            .store(true, Ordering::Release);
    }

    /// Revives shard `i`.
    pub fn heal_shard(&self, i: usize) {
        self.shared.shards[i]
            .client
            .dead
            .store(false, Ordering::Release);
    }

    /// Per-shard counter snapshots, indexed by shard.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shared
            .shards
            .iter()
            .map(|rt| rt.counters.snapshot())
            .collect()
    }

    /// The current hedge delay shard `i`'s next replicated RPC would get.
    pub fn hedge_delay_ns(&self, i: usize) -> u64 {
        self.shared.hedge_delay_ns(i)
    }
}

impl CoefficientStore for ShardRouter {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        self.shared.counters.count_retrieval();
        self.shared.counters.count_physical();
        let rt = &self.shared.shards[shard_of(key, self.shared.shards.len())];
        rt.count_singleton();
        rt.client.primary.get(key)
    }

    fn try_get(&self, key: &CoeffKey) -> Result<Option<f64>, StorageError> {
        self.shared.counters.count_retrieval();
        self.shared.counters.count_physical();
        let rt = &self.shared.shards[shard_of(key, self.shared.shards.len())];
        rt.count_singleton();
        if rt.client.is_dead() {
            return match &rt.client.replica {
                Some(replica) => {
                    rt.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    replica.try_get(key)
                }
                None => {
                    rt.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Err(StorageError::Permanent { key: *key })
                }
            };
        }
        rt.client.primary.try_get(key)
    }

    fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        self.submit(keys).wait()
    }

    /// Scatters the window into one RPC per owning shard and returns a
    /// completion aggregating every per-key verdict (slots in input
    /// order, so [`Completion::wait`]'s earliest-index error collapse and
    /// value ordering match the single-store contract).
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        let shared = &self.shared;
        let n = shared.shards.len();
        let mut slots = Vec::with_capacity(keys.len());
        let mut groups: Vec<(Vec<CoeffKey>, Vec<Arc<InflightSlot>>)> =
            (0..n).map(|_| (Vec::new(), Vec::new())).collect();
        for key in keys {
            shared.counters.count_retrieval();
            let slot = Arc::new(InflightSlot::new());
            let s = shard_of(key, n);
            groups[s].0.push(*key);
            groups[s].1.push(Arc::clone(&slot));
            slots.push(slot);
        }
        for (i, (shard_keys, shard_slots)) in groups.into_iter().enumerate() {
            if shard_keys.is_empty() {
                continue;
            }
            let rt = &shared.shards[i];
            let job = Arc::new(ShardJob {
                keys: shard_keys,
                slots: shard_slots,
                done: AtomicBool::new(false),
                primary_failed: AtomicBool::new(false),
            });
            let replicated = rt.client.is_replicated();
            shared.obligation_add(if replicated { 2 } else { 1 });
            if replicated {
                let deadline = Instant::now() + Duration::from_nanos(shared.hedge_delay_ns(i));
                let mut hq = rt.hedge.lock().unwrap_or_else(|e| e.into_inner());
                hq.queue.push_back(HedgeEntry {
                    job: Arc::clone(&job),
                    deadline,
                });
                drop(hq);
                rt.hedge_cv.notify_one();
            }
            let mut wq = rt.work.lock().unwrap_or_else(|e| e.into_inner());
            wq.queue.push_back(job);
            drop(wq);
            rt.work_cv.notify_one();
        }
        Completion::pending(slots)
    }

    /// Blocks until every queued RPC, running fetch, and pending hedge
    /// entry has been processed — the write barrier live updates need.
    fn quiesce(&self) {
        let mut inflight = self
            .shared
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while *inflight > 0 {
            inflight = self
                .shared
                .idle_cv
                .wait(inflight)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn version_tag(&self) -> u64 {
        self.shared
            .shards
            .iter()
            .map(|rt| rt.client.primary.version_tag())
            .max()
            .unwrap_or(0)
    }

    fn nnz(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|rt| rt.client.primary.nnz())
            .sum()
    }

    fn stats(&self) -> IoStats {
        self.shared.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.shared.counters.reset();
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        for rt in &self.shared.shards {
            rt.work.lock().unwrap_or_else(|e| e.into_inner()).shutdown = true;
            rt.hedge.lock().unwrap_or_else(|e| e.into_inner()).shutdown = true;
            rt.work_cv.notify_all();
            rt.hedge_cv.notify_all();
        }
        // Drain-then-exit: workers keep popping until their queues empty,
        // so every published completion still resolves.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Primary worker body for shard `i`: pop a job, fetch it through the
/// shard's primary, publish per-key verdicts (or signal failover).
fn primary_loop(shared: &RouterShared, i: usize) {
    let rt = &shared.shards[i];
    loop {
        let job = {
            let mut wq = rt.work.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = wq.queue.pop_front() {
                    break job;
                }
                if wq.shutdown {
                    return;
                }
                wq = rt.work_cv.wait(wq).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_primary(shared, i, &job);
        shared.obligation_done();
    }
}

/// Executes one primary RPC (or the dead-shard refusal path).
fn run_primary(shared: &RouterShared, i: usize, job: &ShardJob) {
    let rt = &shared.shards[i];
    if rt.client.is_dead() {
        if rt.client.is_replicated() {
            // Failover: the hedge worker serves this job from the replica
            // immediately. The primary publishes nothing.
            job.primary_failed.store(true, Ordering::Release);
            rt.hedge_cv.notify_all();
        } else {
            rt.counters.errors.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &rt.metrics {
                m.errors.inc();
            }
            for (key, slot) in job.keys.iter().zip(&job.slots) {
                slot.try_complete(Err(StorageError::Permanent { key: *key }));
            }
            job.done.store(true, Ordering::Release);
        }
        return;
    }
    let span = shared.tracing.as_ref().map(|t| {
        let ctx = TraceContext {
            trace_id: t.tracer.trace_id(),
            span_id: t.tracer.next_span_id(),
            parent_span_id: None,
        };
        t.sink.emit(
            &span_start_event("store.shard.read", ctx, t.tracer.now_ns())
                .u64("shard", i as u64)
                .u64("keys", job.keys.len() as u64),
        );
        ctx
    });
    let started = Instant::now();
    let fetched = rt.client.primary.try_get_many(&job.keys);
    let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    rt.record_latency(elapsed);
    shared.counters.count_physical();
    rt.counters.rpcs.fetch_add(1, Ordering::Relaxed);
    rt.counters
        .keys
        .fetch_add(job.keys.len() as u64, Ordering::Relaxed);
    if let Some(m) = &rt.metrics {
        m.rpcs.inc();
    }
    match &fetched {
        Ok(values) => {
            for (slot, value) in job.slots.iter().zip(values) {
                slot.try_complete(Ok(*value));
            }
        }
        Err(e) => {
            rt.counters.errors.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &rt.metrics {
                m.errors.inc();
            }
            // Same whole-batch-failure contract as the async engine: every
            // slot sees the error; the executor's singleton fallback
            // attributes it per key.
            for slot in &job.slots {
                slot.try_complete(Err(e.clone()));
            }
        }
    }
    job.done.swap(true, Ordering::AcqRel);
    if rt.client.is_replicated() {
        // Wake the hedge worker so a not-yet-fired hedge cancels now.
        rt.hedge_cv.notify_all();
    }
    if let (Some(t), Some(ctx)) = (&shared.tracing, span) {
        t.sink
            .emit(&span_end_event(ctx, t.tracer.now_ns()).bool("ok", fetched.is_ok()));
    }
}

/// What the hedge worker decided to do with the queue front.
enum HedgeStep {
    Cancel,
    Launch { failover: bool },
    Sleep(Duration),
    Wait,
    Exit,
}

/// Hedge worker body for a replicated shard `i`: cancel entries whose
/// primary finished in time, race the replica for the rest.
///
/// The hedge queue is FIFO in the same order the primary worker processes
/// jobs, so by the time an entry matters (done, failed over, or past its
/// deadline) it is at the front — blocking on the front never starves a
/// later entry.
fn hedge_loop(shared: &RouterShared, i: usize) {
    let rt = &shared.shards[i];
    let replica = match &rt.client.replica {
        Some(r) => Arc::clone(r),
        None => return,
    };
    let mut hq = rt.hedge.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let step = match hq.queue.front() {
            None if hq.shutdown => HedgeStep::Exit,
            None => HedgeStep::Wait,
            Some(front) => {
                if front.job.done.load(Ordering::Acquire) {
                    HedgeStep::Cancel
                } else if front.job.primary_failed.load(Ordering::Acquire) {
                    HedgeStep::Launch { failover: true }
                } else if hq.shutdown || Instant::now() >= front.deadline {
                    // On shutdown the deadline is moot: launching now keeps
                    // the drain-then-exit guarantee (every slot resolves)
                    // even if the primary is mid-fetch.
                    HedgeStep::Launch { failover: false }
                } else {
                    HedgeStep::Sleep(front.deadline.saturating_duration_since(Instant::now()))
                }
            }
        };
        match step {
            HedgeStep::Exit => return,
            HedgeStep::Wait => {
                hq = rt.hedge_cv.wait(hq).unwrap_or_else(|e| e.into_inner());
            }
            HedgeStep::Sleep(d) => {
                hq = rt
                    .hedge_cv
                    .wait_timeout(hq, d)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            HedgeStep::Cancel => {
                hq.queue.pop_front();
                rt.counters.hedges_cancelled.fetch_add(1, Ordering::Relaxed);
                shared.obligation_done();
            }
            HedgeStep::Launch { failover } => {
                let entry = hq.queue.pop_front().expect("front exists");
                drop(hq);
                run_hedge(shared, i, &replica, &entry.job, failover);
                shared.obligation_done();
                hq = rt.hedge.lock().unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

/// Executes one replica fetch: a timed hedge racing the primary, or an
/// immediate failover for a dead primary.
fn run_hedge(
    shared: &RouterShared,
    i: usize,
    replica: &Arc<dyn CoefficientStore>,
    job: &ShardJob,
    failover: bool,
) {
    let rt = &shared.shards[i];
    if failover {
        rt.counters.failovers.fetch_add(1, Ordering::Relaxed);
    } else {
        rt.counters.hedges_launched.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(m) = &rt.metrics {
        m.hedges.inc();
    }
    let span = shared.tracing.as_ref().map(|t| {
        let ctx = TraceContext {
            trace_id: t.tracer.trace_id(),
            span_id: t.tracer.next_span_id(),
            parent_span_id: None,
        };
        t.sink.emit(
            &span_start_event("store.shard.hedge", ctx, t.tracer.now_ns())
                .u64("shard", i as u64)
                .u64("keys", job.keys.len() as u64)
                .bool("failover", failover),
        );
        ctx
    });
    let fetched = replica.try_get_many(&job.keys);
    shared.counters.count_physical();
    match &fetched {
        Ok(values) => {
            for (slot, value) in job.slots.iter().zip(values) {
                slot.try_complete(Ok(*value));
            }
        }
        Err(e) => {
            for slot in &job.slots {
                slot.try_complete(Err(e.clone()));
            }
        }
    }
    let replica_won = !job.done.swap(true, Ordering::AcqRel);
    if replica_won && !failover {
        rt.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &rt.metrics {
            m.hedge_wins.inc();
        }
    }
    if let (Some(t), Some(ctx)) = (&shared.tracing, span) {
        t.sink.emit(
            &span_end_event(ctx, t.tracer.now_ns())
                .bool("ok", fetched.is_ok())
                .bool("won", replica_won),
        );
    }
}

/// Declarative shard topology: how many shards, whether they are
/// replicated, and the mock-network latency profile — everything needed to
/// partition a coefficient set into a [`ShardRouter`].
///
/// Defaults are a pass-through fabric (zero latency, no replication), so
/// correctness tests pay nothing; benches dial in latency/jitter/spikes to
/// make retrieval latency-bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTopology {
    shards: usize,
    replicate: bool,
    base_ns: u64,
    per_key_ns: u64,
    jitter_ns: u64,
    spike_permille: u32,
    spike_ns: u64,
    seed: u64,
    hedge: HedgeConfig,
}

impl ShardTopology {
    /// A pass-through topology over `shards >= 1` shards.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardTopology {
            shards,
            replicate: false,
            base_ns: 0,
            per_key_ns: 0,
            jitter_ns: 0,
            spike_permille: 0,
            spike_ns: 0,
            seed: 0,
            hedge: HedgeConfig::default(),
        }
    }

    /// Gives every shard a replica (enabling hedged reads and failover).
    pub fn with_replication(mut self) -> Self {
        self.replicate = true;
        self
    }

    /// Sets the per-RPC service charge: `base_ns + per_key_ns × keys`.
    pub fn with_latency(mut self, base_ns: u64, per_key_ns: u64) -> Self {
        self.base_ns = base_ns;
        self.per_key_ns = per_key_ns;
        self
    }

    /// Adds uniform seeded jitter in `[0, jitter_ns)` per RPC.
    pub fn with_jitter(mut self, jitter_ns: u64) -> Self {
        self.jitter_ns = jitter_ns;
        self
    }

    /// Adds a seeded long-tail spike (`permille` in 1000 RPCs pay
    /// `spike_ns` extra).
    pub fn with_spikes(mut self, permille: u32, spike_ns: u64) -> Self {
        self.spike_permille = permille;
        self.spike_ns = spike_ns;
        self
    }

    /// Seeds the per-shard jitter/spike streams.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the hedge configuration.
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = hedge;
        self
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The hedge configuration.
    pub fn hedge(&self) -> HedgeConfig {
        self.hedge
    }

    /// Partitions `entries` by [`shard_of`] into per-shard
    /// [`MemoryStore`]s behind [`LatencyStore`] boundaries, and returns
    /// the shard clients (replicas are independent copies with their own
    /// latency streams). Each shard holds **only** its own partition —
    /// mis-routing reads zeros, which the bit-identity proptests would
    /// catch.
    pub fn clients(&self, entries: impl IntoIterator<Item = (CoeffKey, f64)>) -> Vec<ShardClient> {
        let mut partitions: Vec<Vec<(CoeffKey, f64)>> =
            (0..self.shards).map(|_| Vec::new()).collect();
        for (key, value) in entries {
            partitions[shard_of(&key, self.shards)].push((key, value));
        }
        partitions
            .into_iter()
            .enumerate()
            .map(|(i, partition)| {
                let wrap = |store: MemoryStore, salt: u64| -> Arc<dyn CoefficientStore> {
                    Arc::new(
                        LatencyStore::new(store, self.base_ns, self.per_key_ns)
                            .with_jitter(self.jitter_ns)
                            .with_spikes(self.spike_permille, self.spike_ns)
                            .with_seed(mix(self.seed ^ (i as u64) ^ salt)),
                    )
                };
                let primary = wrap(MemoryStore::from_entries(partition.iter().copied()), 0);
                let mut client = ShardClient::new(primary);
                if self.replicate {
                    let replica =
                        wrap(MemoryStore::from_entries(partition.iter().copied()), 0x9e37);
                    client = client.with_replica(replica);
                }
                client
            })
            .collect()
    }

    /// [`ShardTopology::clients`] + [`ShardRouter::new`] in one step.
    pub fn build(&self, entries: impl IntoIterator<Item = (CoeffKey, f64)>) -> ShardRouter {
        ShardRouter::new(self.clients(entries), self.hedge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<CoeffKey> {
        (0..n).map(|i| CoeffKey::new(&[i, i + 1])).collect()
    }

    fn entries(n: usize) -> Vec<(CoeffKey, f64)> {
        keys(n)
            .into_iter()
            .map(|k| (k, k.coord(0) as f64 + 0.5))
            .collect()
    }

    /// A shard the probe key routes to, among `shards`.
    fn key_on_shard(shard: usize, shards: usize) -> CoeffKey {
        (0..)
            .map(|i| CoeffKey::new(&[i, 7]))
            .find(|k| shard_of(k, shards) == shard)
            .unwrap()
    }

    #[test]
    fn routed_reads_match_the_single_store() {
        let single = MemoryStore::from_entries(entries(64));
        let router = ShardTopology::new(4).build(entries(64));
        for key in keys(64) {
            assert_eq!(router.get(&key), single.get(&key));
        }
        assert_eq!(router.get(&CoeffKey::new(&[99, 99])), None);
        assert_eq!(router.nnz(), single.nnz());
        router.quiesce();
    }

    #[test]
    fn scatter_gather_matches_the_single_store_batch() {
        let single = MemoryStore::from_entries(entries(64));
        let router = ShardTopology::new(4).build(entries(64));
        let mut window = keys(64);
        window.push(CoeffKey::new(&[99, 99])); // absent key: None, not error
        let want = single.try_get_many(&window).unwrap();
        assert_eq!(router.submit(&window).wait().unwrap(), want.clone());
        assert_eq!(router.try_get_many(&window).unwrap(), want);
        router.quiesce();
        let stats = router.stats();
        assert_eq!(stats.retrievals, 2 * window.len() as u64);
        // One RPC per shard per window, not one per key.
        assert!(stats.physical_reads <= 8);
    }

    #[test]
    fn dead_shard_without_replica_surfaces_permanent_errors() {
        let router = ShardTopology::new(4).build(entries(64));
        let probe = key_on_shard(0, 4);
        router.fail_shard(0);
        assert_eq!(
            router.try_get(&probe),
            Err(StorageError::Permanent { key: probe })
        );
        let err = router.submit(&keys(64)).wait().unwrap_err();
        assert_eq!(err, StorageError::Permanent { key: *err.key() });
        assert_eq!(shard_of(err.key(), 4), 0, "error names a shard-0 key");
        // Healthy shards keep answering.
        let healthy = key_on_shard(1, 4);
        assert!(router.try_get(&healthy).is_ok());
        router.heal_shard(0);
        assert!(router.try_get_many(&keys(64)).is_ok());
        router.quiesce();
        assert!(router.shard_stats()[0].errors >= 2);
    }

    #[test]
    fn dead_primary_fails_over_to_the_replica() {
        let single = MemoryStore::from_entries(entries(64));
        let router = ShardTopology::new(4).with_replication().build(entries(64));
        router.fail_shard(0);
        let probe = key_on_shard(0, 4);
        assert_eq!(router.try_get(&probe).unwrap(), single.get(&probe));
        let want = single.try_get_many(&keys(64)).unwrap();
        assert_eq!(router.try_get_many(&keys(64)).unwrap(), want);
        router.quiesce();
        assert!(router.shard_stats()[0].failovers >= 2);
        assert_eq!(router.shard_stats()[0].hedge_wins, 0);
    }

    #[test]
    fn fast_primaries_cancel_their_hedges() {
        let hedge = HedgeConfig {
            initial_delay_ns: 10_000_000_000, // 10 s: no timed hedge fires
            min_samples: usize::MAX,
        };
        let router = ShardTopology::new(4)
            .with_replication()
            .with_hedge(hedge)
            .build(entries(64));
        for _ in 0..4 {
            router.try_get_many(&keys(64)).unwrap();
        }
        router.quiesce();
        let stats = router.shard_stats();
        let cancelled: u64 = stats.iter().map(|s| s.hedges_cancelled).sum();
        let launched: u64 = stats.iter().map(|s| s.hedges_launched).sum();
        assert!(cancelled >= 4, "hedges cancel when primaries are fast");
        assert_eq!(launched, 0, "no timed hedge should fire in 10s");
    }

    #[test]
    fn hedged_read_beats_a_slow_primary() {
        // Shard 0's primary sleeps 50 ms per RPC; its replica is instant.
        // With a 1 ms hedge delay the replica must win the race.
        let all = entries(64);
        let clients: Vec<ShardClient> = (0..2)
            .map(|i| {
                let part: Vec<_> = all
                    .iter()
                    .copied()
                    .filter(|(k, _)| shard_of(k, 2) == i)
                    .collect();
                let base = if i == 0 { 50_000_000 } else { 0 };
                let primary: Arc<dyn CoefficientStore> = Arc::new(LatencyStore::new(
                    MemoryStore::from_entries(part.iter().copied()),
                    base,
                    0,
                ));
                let replica: Arc<dyn CoefficientStore> =
                    Arc::new(MemoryStore::from_entries(part.iter().copied()));
                ShardClient::new(primary).with_replica(replica)
            })
            .collect();
        let hedge = HedgeConfig {
            initial_delay_ns: 1_000_000,
            min_samples: usize::MAX,
        };
        let router = ShardRouter::new(clients, hedge);
        let single = MemoryStore::from_entries(all.iter().copied());
        let want = single.try_get_many(&keys(64)).unwrap();
        assert_eq!(router.submit(&keys(64)).wait().unwrap(), want);
        router.quiesce();
        let s0 = router.shard_stats()[0];
        assert!(s0.hedges_launched >= 1, "hedge fired on the slow shard");
        assert!(s0.hedge_wins >= 1, "replica won against a 50ms primary");
    }

    #[test]
    fn drop_resolves_outstanding_completions() {
        let router = ShardTopology::new(4).with_replication().build(entries(64));
        let completions: Vec<Completion> = (0..8).map(|_| router.submit(&keys(64))).collect();
        drop(router);
        for c in completions {
            assert!(c.is_ready());
            c.wait().unwrap();
        }
    }

    #[test]
    fn latency_store_charges_and_scales() {
        let store = LatencyStore::new(MemoryStore::from_entries(entries(4)), 2_000_000, 0);
        let started = Instant::now();
        store.try_get_many(&keys(4)).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(2));
        store.set_slow_factor(0.0);
        assert_eq!(store.slow_factor(), 0.0);
        store.try_get_many(&keys(4)).unwrap();
        assert_eq!(store.calls(), 2);
    }

    #[test]
    fn hedge_delay_tracks_the_other_shards_p99() {
        let router = ShardTopology::new(2).with_replication().build(entries(64));
        let initial = router.hedge_delay_ns(0);
        assert_eq!(initial, HedgeConfig::default().initial_delay_ns);
        for _ in 0..40 {
            router.try_get_many(&keys(64)).unwrap();
        }
        router.quiesce();
        // 40 windows filled both rings past min_samples; a pass-through
        // fabric's p99 is far below the 1 ms initial delay.
        assert!(router.hedge_delay_ns(0) < initial);
    }
}
