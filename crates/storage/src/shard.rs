//! Sharded scatter-gather retrieval and the crate's one I/O engine: shard
//! clients behind a mock-network latency boundary, a router that splits
//! batched fetches into per-shard RPCs and shares outstanding reads across
//! submits, and replication with hedged reads (DESIGN.md §12, §15).
//!
//! The paper's evaluation order is store-agnostic — it only needs
//! coefficients by key, in importance order — so the coefficient key space
//! partitions cleanly across N shards by [`shard_of`].  [`ShardRouter`]
//! implements [`CoefficientStore`] over a vector of [`ShardClient`]s:
//!
//! * [`CoefficientStore::submit`] first consults the **in-flight table**:
//!   one [`InflightSlot`] per `(version tag, key)` currently being read.
//!   A key already outstanding — from *any* submit — joins the existing
//!   slot instead of being read again, so N concurrent batches wanting one
//!   coefficient ride one physical fetch and share its verdict.  Entries
//!   leave the table the moment their RPC is answered (the
//!   *exactly-once-while-outstanding* rule): the table never memoizes, so a
//!   later submit reads again and layering a cache stays the caller's
//!   choice.
//! * The keys that are *new* are grouped by shard (preserving input order
//!   within each group) and enqueued as **one job per shard per submit**
//!   on that shard's I/O workers; the returned [`Completion`] aggregates
//!   every per-key verdict.  On the wire the unit is the **queue drain**,
//!   not the submit: a primary worker that becomes free takes the front
//!   job *and every job queued behind it under the same version tag* (up
//!   to `COALESCE_KEY_CAP` keys), reads their keys in queue order as
//!   **one** `try_get_many`, and answers each job from its slice of the
//!   result — so N batches served side by side pay a shard's fixed
//!   round-trip charge once per drain, not once each, and an inner
//!   store's batched `submit` coalescing sees the larger group.
//!   Nothing waits for company: a lone job is a drain of one.
//! * A job's batch error is published to each of its slots;
//!   [`Completion::wait`] collapses per-key verdicts to the earliest-index
//!   error, keeping the whole-batch-failure contract intact.  A failed
//!   call keeps what it read ahead of the failing key, and the worker has
//!   one rule for it: jobs wholly inside what was read are answered from
//!   it, the job that owns the failing key gets the error, and the rest go
//!   out again as one call.  No key is read twice, so whatever counts
//!   reads below the engine (a fault plan's per-key attempts, a block
//!   cache) cannot tell a coalesced call from each job crossing alone.
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
//!   the hedge is cancelled; otherwise the replica fetch races it, the
//!   first side to answer claims the job and publishes its verdicts, and
//!   the loser's are discarded.  A dead primary fails over to its replica
//!   immediately.
//! * A dead shard **without** a replica surfaces per-key
//!   [`StorageError::Permanent`] verdicts: the executor's singleton
//!   fallback attributes them, the affected keys flow into its deferral
//!   queue, and the batch finalizes with Theorem-1/2 certificates via
//!   `DegradationReport` — bounded degradation, never query failure.
//!
//! [`crate::AsyncFetchStore`] is this engine over one unreplicated shard.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use batchbb_obs::{span_end_event, span_start_event, EventSink, TraceContext, Tracer};
use batchbb_tensor::{CoeffKey, KeyMap};

use crate::completion::{Completion, InflightSlot};
use crate::fingerprint::{mix, shard_of};
use crate::stats::Counters;
use crate::{CoefficientStore, IoStats, MemoryStore, StorageError};

/// How many recent per-RPC latencies each shard remembers for the
/// p99-derived hedge delay.
const LATENCY_RING: usize = 256;

/// The most keys a wire call carries once it coalesces more than one job:
/// it bounds how long the front job waits on the per-key service charge of
/// the jobs riding behind it. (A single job is never split, however large.)
const COALESCE_KEY_CAP: usize = 256;

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

    /// Calls charged so far (one per window, singleton reads included).
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
    /// Charges the call (the caller sleeps through it: the wire is
    /// blocking), then hands the window to the inner store.
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        self.charge(keys.len() as u64);
        self.inner.submit(keys)
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
/// Every read honors the liveness flag — a dead primary fails over to the
/// replica when one exists and surfaces [`StorageError::Permanent`]
/// otherwise.
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
    /// Per-shard legs submitted: one per submit per shard it touched (a
    /// singleton read is a submit of one key), however the legs were
    /// grouped on the wire. A leg that sent nothing because all its keys were
    /// already in flight counts too, as a leg of zero keys — so this
    /// count depends only on what was submitted, not on how submits
    /// interleaved. (A leg a dead primary never served is not counted
    /// here: it shows under `errors` or `failovers`.)
    pub rpcs: u64,
    /// Keys fetched through the primary, summed per leg.
    pub keys: u64,
    /// Physical calls to the primary (`<= rpcs`): legs queued together
    /// cross the wire as one call. A coalesced call that failed counts
    /// once, and the legs behind the failing one — sent out again
    /// together — as one more.
    pub wire_calls: u64,
    /// Legs answered with an error (including dead-shard refusals).
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
    wire_calls: AtomicU64,
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
            wire_calls: self.wire_calls.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            hedges_launched: self.hedges_launched.load(Ordering::Relaxed),
            hedges_cancelled: self.hedges_cancelled.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
        }
    }
}

/// One per-shard leg of a submit: its not-already-in-flight keys that one
/// shard owns, paired with the slots their verdicts land in.
struct ShardJob {
    /// The router's version tag at submit time: the in-flight table
    /// namespace this job's entries retire from.
    tag: u64,
    keys: Vec<CoeffKey>,
    slots: Vec<Arc<InflightSlot>>,
    /// The physical `store.read` span covering this job, `0` when tracing
    /// is off. Started at submit and ended by whichever side answers, so
    /// the span measures true I/O latency including queueing.
    span: u64,
    /// Set by whichever side (primary or replica) answers the job first.
    done: AtomicBool,
    /// Set by the primary worker when the primary is dead and a replica
    /// exists: tells the hedge worker to fail over immediately.
    primary_failed: AtomicBool,
}

/// One shard's leg of a submit, while the submit is being assembled.
#[derive(Default)]
struct Leg {
    /// The leg's keys that are not already in flight — what its RPC reads
    /// — in input order, and the slots their verdicts land in.
    keys: Vec<CoeffKey>,
    slots: Vec<Arc<InflightSlot>>,
    /// The RPC's `store.read` span id, allocated on the first new key
    /// (`0` = tracing off, or nothing new to read on this shard).
    span: u64,
    /// Whether any of the leg's keys joined an outstanding read.
    rode: bool,
}

/// An in-flight table entry: the outstanding read's slot plus the span id
/// of the physical `store.read` covering it (`0` when tracing is off), so
/// a rider joining the read can attribute itself to the physical fetch.
struct InflightEntry {
    slot: Arc<InflightSlot>,
    span: u64,
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

/// Span emission for the engine: the run-wide tracer plus the sink the
/// `store.read`/`store.rider` spans land in.
struct Tracing {
    tracer: Tracer,
    sink: Arc<dyn EventSink>,
}

impl Tracing {
    fn root(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.tracer.trace_id(),
            span_id,
            parent_span_id: None,
        }
    }
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
}

impl ShardRuntime {
    fn record_latency(&self, ns: u64) {
        let mut ring = self.latencies.lock().unwrap_or_else(|e| e.into_inner());
        ring.push_back(ns);
        if ring.len() > LATENCY_RING {
            ring.pop_front();
        }
    }

    /// Counts one leg of `keys` keys against this shard. Besides the
    /// jobs the primary answers there is one special size: a submit's leg
    /// that sent nothing because every one of its keys was already in
    /// flight is a leg of zero keys, so the per-shard count depends only
    /// on what was submitted, never on how submits interleaved or how the
    /// worker grouped them on the wire, and repeats exactly from run to
    /// run. (A singleton read is a submit of one key: a one-key leg.)
    fn count_rpc(&self, keys: u64) {
        self.counters.rpcs.fetch_add(1, Ordering::Relaxed);
        self.counters.keys.fetch_add(keys, Ordering::Relaxed);
    }

    /// Counts one physical call to the primary.
    fn count_wire_call(&self) {
        self.counters.wire_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one leg answered with an error.
    fn count_error(&self) {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// State shared by the router handle and every shard worker.
struct RouterShared {
    shards: Vec<ShardRuntime>,
    hedge_cfg: HedgeConfig,
    /// Keys with an outstanding read: the cross-submit dedup table, keyed
    /// by `(version tag at submit, key)` so riders on either side of a
    /// [`crate::VersionView`] advance never share a physical read (unversioned stores all tag `0`, so
    /// the table degenerates to the plain per-key one). Holds only
    /// unanswered jobs' slots — an answered job's entries are removed
    /// immediately.
    inflight: Mutex<KeyMap<InflightEntry, (u64, CoeffKey)>>,
    /// Keys currently outstanding (queued or running).
    pending_keys: AtomicU64,
    /// Submitted keys that joined an already-outstanding read instead of
    /// queueing their own.
    dedup_hits: AtomicU64,
    /// Outstanding obligations: queued/running primary jobs plus
    /// unprocessed hedge entries. Zero ⇔ quiescent.
    obligations: Mutex<u64>,
    idle_cv: Condvar,
    counters: Counters,
    tracing: Option<Tracing>,
}

impl RouterShared {
    fn obligation_add(&self, n: u64) {
        *self.obligations.lock().unwrap_or_else(|e| e.into_inner()) += n;
    }

    fn obligation_done(&self) {
        let mut obligations = self.obligations.lock().unwrap_or_else(|e| e.into_inner());
        *obligations -= 1;
        if *obligations == 0 {
            self.idle_cv.notify_all();
        }
    }

    /// Claims the right to answer `job`, once: the first caller (primary,
    /// replica or the dead-shard refusal, each with its verdicts in hand)
    /// retires the job's in-flight entries, ends its `store.read` span and
    /// returns `true` — it then publishes; a later caller lost the race
    /// and its verdicts are discarded. Entries leave the table *before*
    /// the verdicts land, so whoever sees a completion resolve also sees
    /// its keys readable afresh — a submit can join a read only while the
    /// read is really outstanding. `coalesced` is how many jobs the
    /// answering call carried (`0` for a refusal, which made no call).
    fn retire(&self, job: &ShardJob, ok: bool, coalesced: usize) -> bool {
        if job.done.swap(true, Ordering::AcqRel) {
            return false;
        }
        {
            // Only entries still holding this job's own slots: a read
            // that some later submit re-inserted is never evicted by a
            // job that does not own it.
            let mut table = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            for (key, slot) in job.keys.iter().zip(&job.slots) {
                let tagged = (job.tag, *key);
                if table
                    .get(&tagged)
                    .is_some_and(|e| Arc::ptr_eq(&e.slot, slot))
                {
                    table.remove(&tagged);
                }
            }
        }
        self.pending_keys
            .fetch_sub(job.keys.len() as u64, Ordering::Relaxed);
        if let Some(t) = &self.tracing {
            t.sink.emit(
                &span_end_event(t.root(job.span), t.tracer.now_ns())
                    .bool("ok", ok)
                    .u64("coalesced", coalesced as u64),
            );
        }
        true
    }

    /// [`RouterShared::retire`]s `job` and, if that won, publishes
    /// `fetched` — the job's own slice of a call that carried `coalesced`
    /// jobs — to its slots; returns whether it did. A batch error has
    /// no per-key verdicts: every rider sees the same error (collapsed to
    /// the earliest index by `Completion::wait`) and falls back to
    /// singleton attribution, exactly as on the blocking path.
    fn answer(
        &self,
        job: &ShardJob,
        fetched: Result<&[Option<f64>], &StorageError>,
        coalesced: usize,
    ) -> bool {
        let won = self.retire(job, fetched.is_ok(), coalesced);
        if won {
            match fetched {
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
        }
        won
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
/// Implements [`CoefficientStore`]: a submit joins outstanding reads and
/// fans the rest out as one job per shard (jobs queued together share a
/// wire call), a singleton read is a submit of one key, and
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
        Self::with_workers(clients, hedge, 1, None)
    }

    /// Like [`ShardRouter::new`], but emits causal spans into `sink` on
    /// `tracer`'s clock: one `store.read` span per leg that reads (submit →
    /// answer, so the span measures queueing plus the shard's I/O; fields
    /// `shard`, `keys`, `tag`, and on the end `ok` and `coalesced` — how
    /// many legs shared the wire call that answered it), one
    /// `store.rider` span per submit that joined an outstanding read,
    /// carrying the joined read's span id in its `physical` field. Wire
    /// the **same** [`Tracer`] the serve pool uses so store spans are
    /// time-comparable with batch lifecycles.
    pub fn with_tracing(
        clients: Vec<ShardClient>,
        hedge: HedgeConfig,
        tracer: Tracer,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        Self::with_workers(clients, hedge, 1, Some((tracer, sink)))
    }

    /// The general constructor: `workers >= 1` primary I/O workers per
    /// unreplicated shard. A replicated shard always gets exactly one —
    /// its hedge queue is only FIFO-consistent with a single primary
    /// worker (see `hedge_loop`).
    pub(crate) fn with_workers(
        clients: Vec<ShardClient>,
        hedge: HedgeConfig,
        workers: usize,
        tracing: Option<(Tracer, Arc<dyn EventSink>)>,
    ) -> Self {
        assert!(!clients.is_empty(), "need at least one shard");
        assert!(workers >= 1, "need at least one I/O thread");
        let shards = clients
            .into_iter()
            .map(|client| ShardRuntime {
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
            })
            .collect();
        let shared = Arc::new(RouterShared {
            shards,
            hedge_cfg: hedge,
            inflight: Mutex::new(KeyMap::default()),
            pending_keys: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            obligations: Mutex::new(0),
            idle_cv: Condvar::new(),
            counters: Counters::default(),
            tracing: tracing.map(|(tracer, sink)| Tracing { tracer, sink }),
        });
        let mut handles = Vec::new();
        for i in 0..shared.shards.len() {
            let replicated = shared.shards[i].client.is_replicated();
            for _ in 0..if replicated { 1 } else { workers } {
                let s = Arc::clone(&shared);
                handles.push(std::thread::spawn(move || primary_loop(&s, i)));
            }
            if replicated {
                let s = Arc::clone(&shared);
                handles.push(std::thread::spawn(move || hedge_loop(&s, i)));
            }
        }
        ShardRouter {
            shared,
            workers: handles,
        }
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

    /// How many submitted keys joined an already-outstanding read
    /// (cross-submit or within one submit) instead of queueing their own.
    pub fn dedup_hits(&self) -> u64 {
        self.shared.dedup_hits.load(Ordering::Relaxed)
    }

    /// Keys currently outstanding (queued or running).
    pub fn pending_depth(&self) -> u64 {
        self.shared.pending_keys.load(Ordering::Relaxed)
    }
}

impl CoefficientStore for ShardRouter {
    /// Joins the keys already in flight *at the same version* (one dedup
    /// hit each), scatters the rest into one job per owning shard, and
    /// returns a completion aggregating every per-key verdict (slots in
    /// input order, so [`Completion::wait`]'s earliest-index error
    /// collapse and value ordering match the single-store contract). A
    /// singleton read is a window of one: it joins an outstanding read of
    /// its key, is hedged, failed over and coalesced like any other. The
    /// version tag is sampled once per submit: a submit issued after a
    /// version advance never joins a read issued before it (see DESIGN.md
    /// §13 for the advance protocol that makes the remaining fetch/advance
    /// interleavings benign).
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        let shared = &self.shared;
        let n = shared.shards.len();
        let tag = self.version_tag();
        let mut slots = Vec::with_capacity(keys.len());
        let mut legs: Vec<Leg> = (0..n).map(|_| Leg::default()).collect();
        // Physical spans this submit rode instead of reading: span id →
        // keys joined. Only populated when tracing is on.
        let mut joined: Vec<(u64, u64)> = Vec::new();
        {
            let mut table = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
            for key in keys {
                shared.counters.count_retrieval();
                let leg = &mut legs[shard_of(key, n)];
                if let Some(entry) = table.get(&(tag, *key)) {
                    shared.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    leg.rode = true;
                    if shared.tracing.is_some() {
                        match joined.iter_mut().find(|(span, _)| *span == entry.span) {
                            Some((_, count)) => *count += 1,
                            None => joined.push((entry.span, 1)),
                        }
                    }
                    slots.push(Arc::clone(&entry.slot));
                    continue;
                }
                if let (Some(t), 0) = (&shared.tracing, leg.span) {
                    leg.span = t.tracer.next_span_id();
                }
                let slot = Arc::new(InflightSlot::new());
                table.insert(
                    (tag, *key),
                    InflightEntry {
                        slot: Arc::clone(&slot),
                        span: leg.span,
                    },
                );
                leg.keys.push(*key);
                leg.slots.push(Arc::clone(&slot));
                slots.push(slot);
            }
        }
        if let Some(t) = &shared.tracing {
            let now = t.tracer.now_ns();
            for (i, leg) in legs.iter().enumerate() {
                if leg.span != 0 {
                    t.sink.emit(
                        &span_start_event("store.read", t.root(leg.span), now)
                            .u64("shard", i as u64)
                            .u64("keys", leg.keys.len() as u64)
                            .u64("tag", tag),
                    );
                }
            }
            // One rider span per distinct physical read this submit
            // joined; `physical` names the shared `store.read` span so
            // attribution can fan the one I/O out to every rider.
            for &(physical, keys_joined) in &joined {
                let ctx = t.tracer.root_context();
                t.sink.emit(
                    &span_start_event("store.rider", ctx, now)
                        .u64("physical", physical)
                        .u64("keys", keys_joined),
                );
                t.sink.emit(&span_end_event(ctx, now));
            }
        }
        for (i, leg) in legs.into_iter().enumerate() {
            let rt = &shared.shards[i];
            if leg.keys.is_empty() {
                if leg.rode {
                    rt.count_rpc(0);
                }
                continue;
            }
            shared
                .pending_keys
                .fetch_add(leg.keys.len() as u64, Ordering::Relaxed);
            let job = Arc::new(ShardJob {
                tag,
                keys: leg.keys,
                slots: leg.slots,
                span: leg.span,
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
    /// entry has been processed, then quiesces every shard's stores: after
    /// `quiesce` returns the in-flight table is empty and the counters are
    /// final (DESIGN.md §12).
    fn quiesce(&self) {
        let mut obligations = self
            .shared
            .obligations
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while *obligations > 0 {
            obligations = self
                .shared
                .idle_cv
                .wait(obligations)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(obligations);
        for rt in &self.shared.shards {
            rt.client.primary.quiesce();
            if let Some(replica) = &rt.client.replica {
                replica.quiesce();
            }
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

/// Primary worker body for shard `i` (an unreplicated shard may run
/// several): whenever the worker is free it takes everything the queue
/// lets one wire call carry ([`take_call`]), reads it, and publishes
/// per-key verdicts job by job (or signals failover). It never waits for
/// a call to fill: what is queued *now* is the call.
fn primary_loop(shared: &RouterShared, i: usize) {
    let rt = &shared.shards[i];
    loop {
        let jobs = {
            let mut wq = rt.work.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                let jobs = take_call(&mut wq.queue);
                if !jobs.is_empty() {
                    break jobs;
                }
                if wq.shutdown {
                    return;
                }
                wq = rt.work_cv.wait(wq).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_primary(shared, i, &jobs);
        for _ in &jobs {
            shared.obligation_done();
        }
    }
}

/// Takes the jobs of the next wire call off `queue` (none if it is empty):
/// the front job, then every job behind it while the version tag stays the
/// front's and the key total stays within [`COALESCE_KEY_CAP`]. Only a
/// prefix — never a job from behind one that did not fit — so jobs are
/// answered in queue order (the hedge queue's FIFO argument), and a read
/// pinned to one version never shares a call with another version's.
fn take_call(queue: &mut VecDeque<Arc<ShardJob>>) -> Vec<Arc<ShardJob>> {
    let Some(front) = queue.pop_front() else {
        return Vec::new();
    };
    let tag = front.tag;
    let mut keys = front.keys.len();
    let mut jobs = vec![front];
    while let Some(next) = queue.front() {
        if next.tag != tag || keys + next.keys.len() > COALESCE_KEY_CAP {
            break;
        }
        keys += next.keys.len();
        jobs.extend(queue.pop_front());
    }
    jobs
}

/// Executes one primary wire call for `jobs` (or the dead-shard path, job
/// by job): their keys in queue order as one `submit`, each job answered
/// from its slice of the result.
///
/// A failed call has one rule (DESIGN.md §10, §15). The read stopped at
/// the failing key and kept the values ahead of it, so: every job wholly
/// inside what was read is answered from it; the error goes to the job
/// that owns the failing key; the rest go out again as one call. No key is
/// read twice, so below the engine a coalesced call is indistinguishable
/// — in any per-read accounting — from each job crossing the wire alone.
fn run_primary(shared: &RouterShared, i: usize, jobs: &[Arc<ShardJob>]) {
    let rt = &shared.shards[i];
    if rt.client.is_dead() {
        if rt.client.is_replicated() {
            // Failover: the hedge worker serves these jobs from the
            // replica immediately. The primary publishes nothing.
            for job in jobs {
                job.primary_failed.store(true, Ordering::Release);
            }
            rt.hedge_cv.notify_all();
            return;
        }
        for job in jobs {
            rt.count_error();
            if shared.retire(job, false, 0) {
                for (key, slot) in job.keys.iter().zip(&job.slots) {
                    slot.try_complete(Err(StorageError::Permanent { key: *key }));
                }
            }
        }
        return;
    }
    let keys: Vec<CoeffKey> = jobs.iter().flat_map(|job| &job.keys).copied().collect();
    let started = Instant::now();
    let (read, error) = rt.client.primary.submit(&keys).wait_prefix();
    let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    rt.record_latency(elapsed);
    shared.counters.count_physical();
    rt.count_wire_call();
    let mut offset = 0;
    let mut unanswered = jobs;
    while let Some((job, behind)) = unanswered.split_first() {
        let n = job.keys.len();
        let Some(values) = read.get(offset..offset + n) else {
            break;
        };
        rt.count_rpc(n as u64);
        shared.answer(job, Ok(values), jobs.len());
        offset += n;
        unanswered = behind;
    }
    if let Some(error) = error {
        // The owner holds the key the read stopped at; a store whose
        // batched read keeps no prefix names it in the error instead.
        let owner = unanswered
            .iter()
            .position(|job| job.keys.contains(error.key()))
            .unwrap_or(0);
        let mut rest = unanswered.to_vec();
        let job = rest.remove(owner);
        rt.count_rpc(job.keys.len() as u64);
        rt.count_error();
        shared.answer(&job, Err(&error), jobs.len());
        if !rest.is_empty() {
            run_primary(shared, i, &rest);
        }
    }
    if rt.client.is_replicated() {
        // Wake the hedge worker so not-yet-fired hedges cancel now.
        rt.hedge_cv.notify_all();
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
    let fetched = replica.try_get_many(&job.keys);
    shared.counters.count_physical();
    let replica_won = shared.answer(job, fetched.as_deref(), 1);
    if replica_won && !failover {
        rt.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
    }
}

/// Declarative shard topology: how many shards, whether they are
/// replicated, and the hedge policy — everything needed to partition a
/// coefficient set into a pass-through (zero-latency) [`ShardRouter`] for
/// correctness tests. Latency-bound fleets assemble their own
/// [`ShardClient`]s over [`LatencyStore`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTopology {
    shards: usize,
    replicate: bool,
    hedge: HedgeConfig,
}

impl ShardTopology {
    /// An unreplicated topology over `shards >= 1` shards.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardTopology {
            shards,
            replicate: false,
            hedge: HedgeConfig::default(),
        }
    }

    /// Gives every shard a replica (enabling hedged reads and failover).
    pub fn with_replication(mut self) -> Self {
        self.replicate = true;
        self
    }

    /// Overrides the hedge configuration.
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = hedge;
        self
    }

    /// Partitions `entries` by [`shard_of`] into per-shard
    /// [`MemoryStore`]s (replicas are independent copies) and routes over
    /// them. Each shard holds **only** its own partition — mis-routing
    /// reads zeros, which the bit-identity proptests would catch.
    pub fn build(&self, entries: impl IntoIterator<Item = (CoeffKey, f64)>) -> ShardRouter {
        let mut partitions: Vec<Vec<(CoeffKey, f64)>> =
            (0..self.shards).map(|_| Vec::new()).collect();
        for (key, value) in entries {
            partitions[shard_of(&key, self.shards)].push((key, value));
        }
        let store = |partition: &[(CoeffKey, f64)]| -> Arc<dyn CoefficientStore> {
            Arc::new(MemoryStore::from_entries(partition.iter().copied()))
        };
        let clients = partitions
            .iter()
            .map(|partition| {
                let client = ShardClient::new(store(partition));
                if self.replicate {
                    client.with_replica(store(partition))
                } else {
                    client
                }
            })
            .collect();
        ShardRouter::new(clients, self.hedge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Gated;

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
        // No timed hedge fires within the test, so every replica read is a
        // failover however slowly the primary's worker gets to the job.
        let hedge = HedgeConfig {
            initial_delay_ns: 10_000_000_000,
            min_samples: usize::MAX,
        };
        let router = ShardTopology::new(4)
            .with_replication()
            .with_hedge(hedge)
            .build(entries(64));
        router.fail_shard(0);
        let probe = key_on_shard(0, 4);
        assert_eq!(router.try_get(&probe).unwrap(), single.get(&probe));
        let want = single.try_get_many(&keys(64)).unwrap();
        assert_eq!(router.try_get_many(&keys(64)).unwrap(), want);
        router.quiesce();
        assert!(router.shard_stats()[0].failovers >= 2);
        assert_eq!(router.shard_stats()[0].hedge_wins, 0);
        assert_eq!(router.pending_depth(), 0, "failed-over jobs retire once");
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
        // Both sides answered shard 0's job; only the winner retired it.
        assert_eq!(router.pending_depth(), 0, "a raced job retires once");
    }

    /// An unreplicated router over `entries(n)` split across `shards`
    /// gated stores, plus the gates.
    fn gated_router(shards: usize, n: usize) -> (ShardRouter, Vec<Arc<Gated<MemoryStore>>>) {
        let gates: Vec<_> = (0..shards)
            .map(|i| {
                let part = entries(n)
                    .into_iter()
                    .filter(|(k, _)| shard_of(k, shards) == i);
                Arc::new(Gated::new(MemoryStore::from_entries(part)))
            })
            .collect();
        let clients = gates
            .iter()
            .map(|g| ShardClient::new(Arc::clone(g) as Arc<dyn CoefficientStore>))
            .collect();
        (ShardRouter::new(clients, HedgeConfig::default()), gates)
    }

    #[test]
    fn a_singleton_read_joins_the_outstanding_read_of_its_key() {
        let (router, gates) = gated_router(1, 8);
        let all = keys(8);
        // A window is stuck at the gate; a singleton read of one of its
        // keys, issued meanwhile, must ride it rather than read again.
        gates[0].set_gate(false);
        let window = router.submit(&all[..4]);
        std::thread::scope(|scope| {
            let rider = scope.spawn(|| router.try_get(&all[2]));
            while router.dedup_hits() == 0 {
                std::thread::yield_now();
            }
            gates[0].set_gate(true);
            assert_eq!(rider.join().unwrap(), Ok(Some(2.5)));
        });
        assert!(window.wait().is_ok());
        router.quiesce();
        assert_eq!(router.dedup_hits(), 1, "the singleton joined once");
        assert_eq!(gates[0].calls(), vec![all[..4].to_vec()], "one read");
        let stats = router.shard_stats()[0];
        assert_eq!((stats.wire_calls, stats.rpcs), (1, 2), "a rider is a leg");
    }

    #[test]
    fn windows_sharing_keys_read_each_key_once_per_shard() {
        let (router, gates) = gated_router(2, 24);
        let single = MemoryStore::from_entries(entries(24));
        let all = keys(24);
        // Two windows overlapping on keys 8..16, both submitted while every
        // shard's first RPC is stuck at its gate: the second window's
        // shared keys must join the first's reads.
        gates.iter().for_each(|g| g.set_gate(false));
        let a = router.submit(&all[..16]);
        let b = router.submit(&all[8..]);
        assert_eq!(router.dedup_hits(), 8, "each shared key joins once");
        assert_eq!(router.pending_depth(), 24, "riders add nothing to read");
        gates.iter().for_each(|g| g.set_gate(true));
        assert_eq!(a.wait(), single.try_get_many(&all[..16]));
        assert_eq!(b.wait(), single.try_get_many(&all[8..]));
        router.quiesce();
        assert_eq!(router.pending_depth(), 0);
        let mut read: Vec<CoeffKey> = Vec::new();
        for (i, gate) in gates.iter().enumerate() {
            for key in gate.calls().into_iter().flatten() {
                assert_eq!(shard_of(&key, 2), i, "key read on the wrong shard");
                read.push(key);
            }
        }
        read.sort_unstable();
        let mut want = all.clone();
        want.sort_unstable();
        assert_eq!(read, want, "every key crossed the wire exactly once");
        // The table holds only outstanding reads: a later submit re-reads.
        router.submit(&all[8..16]).wait().unwrap();
        let reread: usize = gates.iter().map(|g| g.calls().concat().len()).sum();
        assert_eq!(reread, 24 + 8);
    }

    #[test]
    fn a_submit_after_a_version_advance_never_joins_an_older_read() {
        let probe = CoeffKey::new(&[0, 1]);
        let versioned = crate::VersionedStore::from_entries([(probe, 0.5)]);
        let gate = Arc::new(Gated::new(versioned.pin())); // v0
        let client = ShardClient::new(Arc::clone(&gate) as Arc<dyn CoefficientStore>);
        let router = ShardRouter::new(vec![client], HedgeConfig::default());
        gate.set_gate(false);
        // Rider A reads `probe` at v0 and is stuck at the gate.
        let a = router.submit(&[probe]);
        // Publish a version touching a *different* key and advance the
        // view: `probe`'s value is unchanged, only the tag moved.
        versioned.publish(&[(CoeffKey::new(&[7, 7]), 1.0)]);
        gate.inner.advance_to_current();
        let b = router.submit(&[probe]);
        assert_eq!(
            router.dedup_hits(),
            0,
            "a post-advance submit must not join a pre-advance read"
        );
        // Same-version riders still share.
        let c = router.submit(&[probe]);
        assert_eq!(router.dedup_hits(), 1);
        gate.set_gate(true);
        for completion in [a, b, c] {
            assert_eq!(completion.wait().unwrap(), vec![Some(0.5)]);
        }
        router.quiesce();
        assert_eq!(gate.calls().len(), 2, "two versions, two physical reads");
        assert_eq!(router.pending_depth(), 0);
        // C's leg sent nothing; it still counts, as an RPC of zero keys.
        let stats = router.shard_stats()[0];
        assert_eq!((stats.rpcs, stats.keys), (3, 2));
    }

    #[test]
    fn a_dead_shard_refusal_reaches_its_riders_and_retires_its_entries() {
        let (router, gates) = gated_router(1, 8);
        let all = keys(8);
        // Park the shard's one worker inside a gated read, so the next job
        // stays queued — and joinable — until the gate opens.
        gates[0].set_gate(false);
        let blocker = router.submit(&all[..1]);
        while gates[0].calls().is_empty() {
            std::thread::yield_now();
        }
        router.fail_shard(0);
        let a = router.submit(&all[1..3]);
        let b = router.submit(&all[1..3]);
        assert_eq!(router.dedup_hits(), 2, "the second submit rides the first");
        gates[0].set_gate(true);
        blocker.wait().unwrap();
        // The queued job meets the dead flag: one refusal, both riders see
        // `Permanent` with the earliest key.
        let refused = Err(StorageError::Permanent { key: all[1] });
        assert_eq!(a.wait(), refused);
        assert_eq!(b.wait(), refused);
        router.quiesce();
        assert_eq!(router.pending_depth(), 0, "the refusal retired its entries");
        assert_eq!(gates[0].calls().len(), 1, "a refusal reads nothing");
        // A stale entry would hand the resubmit the old refusal: after the
        // heal it must read again and succeed.
        router.heal_shard(0);
        assert!(router.submit(&all[1..3]).wait().is_ok());
        assert_eq!(gates[0].calls().len(), 2);
    }

    /// Submits `window` and returns once the shard's one worker is inside
    /// its gated read — so every later submit stays queued, in order,
    /// until the test opens the gate.
    fn park_worker<S: CoefficientStore>(
        router: &ShardRouter,
        gate: &Gated<S>,
        window: &[CoeffKey],
    ) -> Completion {
        let calls = gate.calls().len();
        let blocker = router.submit(window);
        while gate.calls().len() == calls {
            std::thread::yield_now();
        }
        blocker
    }

    #[test]
    fn jobs_queued_behind_a_busy_worker_cross_the_wire_as_one_call() {
        use batchbb_obs::{jsonl, MemorySink};

        let gate = Arc::new(Gated::new(MemoryStore::from_entries(entries(32))));
        let sink = Arc::new(MemorySink::new());
        let router = ShardRouter::with_tracing(
            vec![ShardClient::new(
                Arc::clone(&gate) as Arc<dyn CoefficientStore>
            )],
            HedgeConfig::default(),
            Tracer::new(3),
            sink.clone(),
        );
        let single = MemoryStore::from_entries(entries(32));
        let all = keys(32);
        // B runs backwards, so a job answered from the wrong slice of the
        // shared result cannot pass for right.
        let b_keys: Vec<CoeffKey> = all[4..12].iter().rev().copied().collect();
        gate.set_gate(false);
        let a = park_worker(&router, &gate, &all[..4]);
        let b = router.submit(&b_keys);
        let c = router.submit(&all[12..20]);
        let d = router.submit(&all[20..]);
        gate.set_gate(true);
        assert_eq!(a.wait(), single.try_get_many(&all[..4]));
        assert_eq!(b.wait(), single.try_get_many(&b_keys));
        assert_eq!(c.wait(), single.try_get_many(&all[12..20]));
        assert_eq!(d.wait(), single.try_get_many(&all[20..]));
        router.quiesce();
        let bcd = [&b_keys[..], &all[12..]].concat();
        assert_eq!(
            gate.calls(),
            vec![all[..4].to_vec(), bcd],
            "what queued behind A is one call, in queue order"
        );
        assert_eq!(router.pending_depth(), 0);
        let stats = router.shard_stats()[0];
        assert_eq!((stats.rpcs, stats.keys, stats.wire_calls), (4, 32, 2));
        // Every job's read span says how many jobs its call carried.
        let mut coalesced: Vec<u64> = sink
            .lines()
            .iter()
            .map(|l| jsonl::parse_line(l).unwrap())
            .filter(|e| e.name() == "span.end")
            .filter_map(|e| e.u64("coalesced"))
            .collect();
        coalesced.sort_unstable();
        assert_eq!(coalesced, [1, 3, 3, 3]);
    }

    #[test]
    fn a_failed_coalesced_call_splits_so_the_error_stays_with_its_owner() {
        use crate::{FaultInjectingStore, FaultPlan};

        let all = keys(16);
        let broken = all[5];
        let faulty = || {
            FaultInjectingStore::new(
                MemoryStore::from_entries(entries(16)),
                FaultPlan::new(5).with_permanent_keys([broken]),
            )
        };
        let gate = Arc::new(Gated::new(faulty()));
        let client = ShardClient::new(Arc::clone(&gate) as Arc<dyn CoefficientStore>);
        let router = ShardRouter::new(vec![client], HedgeConfig::default());
        let single = MemoryStore::from_entries(entries(16));
        gate.set_gate(false);
        let a = park_worker(&router, &gate, &all[..4]);
        let b = router.submit(&all[4..8]); // owns the failing key
        let rider = router.submit(&[broken]);
        assert_eq!(router.dedup_hits(), 1, "the rider joined B's read");
        let c = router.submit(&all[8..12]);
        let d = router.submit(&all[12..]);
        gate.set_gate(true);
        a.wait().unwrap();
        let failed = Err(StorageError::Permanent { key: broken });
        assert_eq!(b.wait(), failed);
        assert_eq!(rider.wait(), failed);
        assert_eq!(c.wait(), single.try_get_many(&all[8..12]));
        assert_eq!(d.wait(), single.try_get_many(&all[12..]));
        router.quiesce();
        assert_eq!(
            gate.calls(),
            vec![
                all[..4].to_vec(),
                all[4..].to_vec(), // B‖C‖D: stops at B's failing key
                all[8..].to_vec(), // C‖D: what was behind the owner
            ],
            "the legs behind the failing one go out again as one call"
        );
        // No key was read twice: the store under the engine counted what
        // four solo calls count.
        let solo = faulty();
        for window in [&all[..4], &all[4..8], &all[8..12], &all[12..]] {
            let _ = solo.try_get_many(window);
        }
        assert_eq!(gate.inner.injected(), solo.injected());
        assert_eq!(gate.inner.injected().attempts, 14);
        let stats = router.shard_stats()[0];
        // Legs: A, B, the rider's zero-key leg, C, D. Only B's failed.
        assert_eq!((stats.rpcs, stats.wire_calls, stats.errors), (5, 3, 1));
        assert_eq!(router.pending_depth(), 0);
        // B's entries retired with its error: its healthy keys read afresh.
        let healthy = [all[4], all[6], all[7]];
        assert_eq!(
            router.submit(&healthy).wait(),
            single.try_get_many(&healthy)
        );
        assert_eq!(gate.calls().len(), 4);
    }

    #[test]
    fn a_coalesced_call_never_spans_a_version_advance() {
        let all = keys(4);
        let versioned = crate::VersionedStore::from_entries(entries(4));
        let gate = Arc::new(Gated::new(versioned.pin())); // v0
        let client = ShardClient::new(Arc::clone(&gate) as Arc<dyn CoefficientStore>);
        let router = ShardRouter::new(vec![client], HedgeConfig::default());
        gate.set_gate(false);
        let blocker = park_worker(&router, &gate, &all[..1]);
        let a = router.submit(&all[1..2]);
        let b = router.submit(&all[2..3]);
        // Publish a version touching none of these keys and advance the
        // view: only the tag moves.
        versioned.publish(&[(CoeffKey::new(&[7, 7]), 1.0)]);
        gate.inner.advance_to_current();
        let c = router.submit(&all[3..]);
        let d = router.submit(&all[1..2]); // A's key again, at v1: a new read
        assert_eq!(router.dedup_hits(), 0);
        gate.set_gate(true);
        for (completion, key) in [(blocker, 0), (a, 1), (b, 2), (c, 3), (d, 1)] {
            assert_eq!(completion.wait().unwrap(), vec![Some(key as f64 + 0.5)]);
        }
        router.quiesce();
        assert_eq!(
            gate.calls(),
            vec![
                vec![all[0]],
                vec![all[1], all[2]], // A‖B at v0
                vec![all[3], all[1]], // C‖D at v1
            ],
            "jobs share a call only with jobs of their own version"
        );
        assert_eq!(router.pending_depth(), 0);
    }

    #[test]
    fn the_key_cap_splits_a_long_queue_into_several_calls() {
        // Two of these windows fit under the cap, three do not.
        let w = COALESCE_KEY_CAP * 2 / 5;
        let oversize = COALESCE_KEY_CAP + 1;
        let n = 1 + 3 * w + oversize;
        let (router, gates) = gated_router(1, n);
        let all = keys(n);
        let (b, c, d, e) = (
            1..1 + w,
            1 + w..1 + 2 * w,
            1 + 2 * w..1 + 3 * w,
            1 + 3 * w..n,
        );
        gates[0].set_gate(false);
        let mut completions = vec![park_worker(&router, &gates[0], &all[..1])];
        for window in [&b, &c, &d, &e] {
            completions.push(router.submit(&all[window.clone()]));
        }
        gates[0].set_gate(true);
        for completion in completions {
            completion.wait().unwrap();
        }
        router.quiesce();
        assert_eq!(
            gates[0].calls(),
            vec![
                all[..1].to_vec(),
                all[b.start..c.end].to_vec(), // B‖C; D would pass the cap
                all[d].to_vec(),              // D alone: E would pass it too
                all[e].to_vec(),              // a single job is never split
            ]
        );
        let stats = router.shard_stats()[0];
        assert_eq!((stats.rpcs, stats.keys, stats.wire_calls), (5, n as u64, 4));
    }

    #[test]
    fn coalesced_primary_jobs_are_still_hedged_one_by_one() {
        // One replicated shard whose primary is stuck at its gate: the
        // replica answers every job through its own 1 ms hedge while the
        // primary holds A and has B, C, D queued as one call to come.
        let gate = Arc::new(Gated::new(MemoryStore::from_entries(entries(16))));
        let replica: Arc<dyn CoefficientStore> = Arc::new(MemoryStore::from_entries(entries(16)));
        let client =
            ShardClient::new(Arc::clone(&gate) as Arc<dyn CoefficientStore>).with_replica(replica);
        let hedge = HedgeConfig {
            initial_delay_ns: 1_000_000,
            min_samples: usize::MAX,
        };
        let router = ShardRouter::new(vec![client], hedge);
        let single = MemoryStore::from_entries(entries(16));
        let all = keys(16);
        gate.set_gate(false);
        let a = park_worker(&router, &gate, &all[..4]);
        let b = router.submit(&all[4..8]);
        let c = router.submit(&all[8..12]);
        let d = router.submit(&all[12..]);
        // The gate is still shut: only the hedges can have answered.
        assert_eq!(a.wait(), single.try_get_many(&all[..4]));
        assert_eq!(b.wait(), single.try_get_many(&all[4..8]));
        assert_eq!(c.wait(), single.try_get_many(&all[8..12]));
        assert_eq!(d.wait(), single.try_get_many(&all[12..]));
        gate.set_gate(true);
        router.quiesce();
        assert_eq!(
            gate.calls(),
            vec![all[..4].to_vec(), all[4..].to_vec()],
            "the primary still reads B‖C‖D as one call — and loses all three"
        );
        let stats = router.shard_stats()[0];
        assert_eq!((stats.hedges_launched, stats.hedge_wins), (4, 4));
        assert_eq!((stats.rpcs, stats.keys, stats.wire_calls), (4, 16, 2));
        assert_eq!(router.pending_depth(), 0, "each raced job retires once");
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
