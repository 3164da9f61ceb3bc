//! The batch server: a fixed worker pool multiplexing many progressive
//! executors over one coefficient store, under per-batch SLO contracts.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, TryLockError};

use batchbb_core::{DegradationReport, ExecObserver, ProgressiveExecutor};
use batchbb_obs::{LifecycleRecorder, Phase};
use batchbb_storage::{
    CoefficientStore, FaultStats, ShardedCachingStore, VersionId, VersionView, VersionedStore,
};
use batchbb_tensor::CoeffKey;

use crate::job::{snapshot_of, JobCell, JobState};
use crate::sched::SliceQueue;
use crate::slo::{estimate_cost, SloObserver, SloOutcome};
use crate::{BatchHandle, BatchRequest, BatchResult, BatchStatus, ServeConfig};

/// A thread-pool batch server.
///
/// Each admitted [`BatchRequest`] gets its own [`ProgressiveExecutor`];
/// a fixed pool of workers advances them in bounded *slices*
/// ([`ServeConfig::slice_steps`] retrievals at a time). Runnable batches
/// are ranked by certified bound-shrink-per-retrieval × priority, so the
/// pool always spends its next slice where it buys the most contract
/// value, and a huge batch cannot starve small ones: after every slice the
/// batch re-enters the queue and workers pick whatever ranks next.
///
/// The store is whatever the caller passes — a single store, an
/// asynchronous engine, or a scatter-gather
/// [`batchbb_storage::ShardRouter`]: sharding is a store, not a serve
/// mode.
///
/// With [`ServeConfig::capacity`] declared, submission prices every
/// batch's [`crate::SloContract`] and rejects what does not fit
/// ([`SloOutcome::Rejected`]) instead of queueing unboundedly; deadline
/// expiry and load shedding finalize batches early *with their certified
/// Theorem-1/2 bounds* — degraded, never torn.
///
/// Determinism: scheduling decides only *interleaving*, never *content*.
/// Every batch walks its own importance order, and final estimates are
/// re-summed canonically once exact, so each batch's final answer is
/// bit-identical to running it alone — the concurrency tests assert this
/// against serial replays.
pub struct BatchServer {
    config: ServeConfig,
}

/// Run-wide shared state the slice path consults: consumed attempt ticks
/// (for shedding), the `slo.*` observer, and the parked-batch shelf.
struct PoolShared {
    consumed: AtomicU64,
    slo: SloObserver,
    /// Batches shelved on a still-in-flight asynchronous prefetch. They
    /// are in neither the runnable queue nor any worker's hands; every
    /// worker sweeps this list and re-queues batches whose fetch landed
    /// (or that were cancelled, or whose fetch a version advance abandoned).
    parked: Mutex<Vec<usize>>,
}

/// What one scheduling slice concluded about a batch.
enum SliceOutcome {
    /// The batch published its final result.
    Finished,
    /// Inconclusive slice: re-enter the runnable queue with this refreshed
    /// marginal-value score.
    Requeue { score: f64, slices: usize },
    /// The batch is waiting on an in-flight asynchronous prefetch: shelve
    /// it instead of burning queue turns polling — the pool advances other
    /// batches over the fetch latency.
    Parked,
}

impl BatchServer {
    /// Creates a server with the given pool configuration.
    pub fn new(config: ServeConfig) -> Self {
        BatchServer { config }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serves every request to completion and returns the results in
    /// request order.
    pub fn serve(
        &self,
        store: &dyn CoefficientStore,
        requests: &[BatchRequest<'_>],
    ) -> Vec<BatchResult> {
        self.serve_with(store, requests, |_| ()).0
    }

    /// Serves every request while running `driver` on the calling thread.
    ///
    /// The driver observes and steers the in-flight pool through a
    /// [`ServeSession`]: progressive snapshots and cancellation per batch
    /// ([`BatchHandle`]). Every batch reads `store` itself, or one cache
    /// over it built for this call when [`ServeConfig::share_cache`] asks
    /// for it. The store is read-only for the whole call — live
    /// data updates need [`BatchServer::serve_versioned_with`]. The call
    /// returns once the driver has returned *and* every batch has
    /// published its final result.
    pub fn serve_with<R>(
        &self,
        store: &dyn CoefficientStore,
        requests: &[BatchRequest<'_>],
        driver: impl FnOnce(&ServeSession<'_, '_>) -> R,
    ) -> (Vec<BatchResult>, R) {
        let config = &self.config;
        let cache = config.share_cache.then(|| {
            let cache = ShardedCachingStore::new(store);
            match config.cache_capacity {
                Some(cap) => cache.with_capacity(cap),
                None => cache,
            }
        });
        let eff: &dyn CoefficientStore = match &cache {
            Some(cache) => cache,
            None => store,
        };
        self.serve_body(requests, |_| (eff, None), None, driver)
    }

    /// Serves every request against a [`VersionedStore`] snapshot per
    /// batch and returns the results in request order.
    ///
    /// See [`BatchServer::serve_versioned_with`].
    pub fn serve_versioned(
        &self,
        store: &VersionedStore,
        requests: &[BatchRequest<'_>],
    ) -> Vec<BatchResult> {
        self.serve_versioned_with(store, requests, |_| ()).0
    }

    /// Serves every request under *snapshot isolation* while running
    /// `driver` on the calling thread.
    ///
    /// Each batch pins the store version current at its admission
    /// ([`VersionedStore::pin`]) and reads that immutable snapshot for its
    /// whole drain. [`ServeSession::update`] becomes a lock-free publish:
    /// it installs a new version without pausing, quiescing, or even
    /// touching any in-flight executor — in-flight batches keep answering
    /// against their pinned version (recorded in
    /// [`BatchResult::pinned_version`]) unless the driver opts them in to
    /// the newer data with [`ServeSession::advance_batch`].
    ///
    /// No shared read cache is layered on top in this mode, even with
    /// [`ServeConfig::share_cache`]: jobs pinned at different versions
    /// could not share one cache generation.
    pub fn serve_versioned_with<R>(
        &self,
        store: &VersionedStore,
        requests: &[BatchRequest<'_>],
        driver: impl FnOnce(&ServeSession<'_, '_>) -> R,
    ) -> (Vec<BatchResult>, R) {
        let views: Vec<VersionView> = requests.iter().map(|_| store.pin()).collect();
        let read = |i: usize| (&views[i] as &dyn CoefficientStore, Some(&views[i]));
        self.serve_body(requests, read, Some(store), driver)
    }

    /// The one serving body behind [`BatchServer::serve_with`] and
    /// [`BatchServer::serve_versioned_with`]: admit, run the worker pool
    /// while `driver` runs on the calling thread, and collect once the
    /// driver has returned *and* every job has published its final
    /// result. The two differ only in `store_for` — each job's read store
    /// and the view it pins — and in the session's published store.
    fn serve_body<'a, R>(
        &self,
        requests: &[BatchRequest<'a>],
        store_for: impl FnMut(usize) -> (&'a dyn CoefficientStore, Option<&'a VersionView>),
        versioned: Option<&'a VersionedStore>,
        driver: impl FnOnce(&ServeSession<'_, '_>) -> R,
    ) -> (Vec<BatchResult>, R) {
        let config = &self.config;
        let shared = PoolShared {
            consumed: AtomicU64::new(0),
            slo: SloObserver::new(config.sink.clone(), config.registry.clone()),
            parked: Mutex::new(Vec::new()),
        };
        let jobs = self.admit_jobs(&shared, requests, store_for);
        let session = ServeSession {
            jobs: &jobs,
            config,
            versioned,
        };
        let admitted: Vec<&JobCell<'_>> = jobs
            .iter()
            .filter(|cell| !cell.finished.load(Ordering::Acquire))
            .collect();
        let active = AtomicUsize::new(admitted.len());
        shared.slo.set_queue_depth(admitted.len() as u64);
        let queue = SliceQueue::new(
            admitted
                .iter()
                .map(|cell| (cell.index, marginal_value(cell))),
        );
        let driver_out = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..config.workers)
                .map(|_| {
                    let (jobs, queue, active, shared) = (&jobs, &queue, &active, &shared);
                    scope.spawn(move || worker_loop(jobs, queue, active, config, shared))
                })
                .collect();
            let out = driver(&session);
            // Joined here, not left to the scope: the scope returns once
            // each worker's closure has, while its OS thread may still be
            // exiting.  A serve that follows at once would then start its
            // workers before the old ones hand their malloc arenas back,
            // and the allocator opens fresh arenas — resident memory that
            // grows with how the exits happen to be timed.
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            out
        });
        (collect_results(config, jobs), driver_out)
    }

    /// Builds one [`JobCell`] per request — executors constructed, and
    /// contracts priced, serially on the caller thread.  Only the pricing
    /// needs that: each request is priced against what the requests
    /// *before it* committed of `capacity`, so verdicts depend on
    /// submission order.  Construction does not — it reads no store (`ι_p`
    /// is a function of the queries alone) and `Penalty: Send + Sync` —
    /// and is cheap enough to stay: a batch's master list and its sorted
    /// progression are memoized on the batch, so a batch served again
    /// under a penalty with an equal scoring key (a prepared statement,
    /// the exact pass after an ε pass) costs a key compare, scoring and
    /// sorting nothing; it scores and sorts only under a new key, or
    /// every time under a keyless penalty.  Moving construction to a
    /// helper thread raised `peak_rss_mb` (ROADMAP item 4).  `store_for`
    /// hands each job its read store (the shared effective store, or the
    /// job's own pinned [`VersionView`]) plus that view, if any.
    fn admit_jobs<'a>(
        &self,
        shared: &PoolShared,
        requests: &[BatchRequest<'a>],
        mut store_for: impl FnMut(usize) -> (&'a dyn CoefficientStore, Option<&'a VersionView>),
    ) -> Vec<JobCell<'a>> {
        let config = &self.config;
        let mut committed: u64 = 0;
        requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                // The lifecycle starts *before* pricing so the Admitted
                // phase covers the whole admission decision.
                let batch_lifecycle = self.lifecycle_for(i);
                let (store, view) = store_for(i);
                let mut exec = ProgressiveExecutor::new(req.batch, req.penalty, store)
                    .with_prefetch_window(config.prefetch_window);
                let estimate = estimate_cost(&exec, &req.slo, config.k_abs_sum);
                let refused = match config.capacity {
                    Some(capacity)
                        if committed.saturating_add(estimate.steps_to_target) > capacity =>
                    {
                        shared.slo.on_rejected(i, &req.slo, &estimate, capacity);
                        Some(SloOutcome::Rejected {
                            estimated_cost: estimate.steps_to_target,
                            capacity,
                        })
                    }
                    _ => {
                        committed += estimate.steps_to_target;
                        shared
                            .slo
                            .on_admitted(i, &req.slo, &estimate, config.capacity);
                        if let Some(observer) = self.observer_for(i) {
                            exec = exec.with_observer(observer);
                        }
                        None
                    }
                };
                JobCell::new(i, exec, config, req.slo, view, batch_lifecycle, refused)
            })
            .collect()
    }

    /// Builds batch `index`'s phase lifecycle, or `None` unless both a
    /// tracer and a sink are configured. Its spans carry their own `batch`
    /// field.
    fn lifecycle_for(&self, index: usize) -> Option<LifecycleRecorder> {
        let (tracer, sink) = match (&self.config.tracer, &self.config.sink) {
            (Some(tracer), Some(sink)) => (tracer, sink),
            _ => return None,
        };
        Some(LifecycleRecorder::begin(
            tracer.clone(),
            sink.clone(),
            index as u64,
        ))
    }

    /// Builds batch `index`'s observer from the configured sink/registry,
    /// labelled `batch = index` so shared traces stay separable.
    fn observer_for(&self, index: usize) -> Option<ExecObserver> {
        let config = &self.config;
        let observer = match (&config.sink, &config.registry) {
            (None, None) => return None,
            (Some(sink), _) => ExecObserver::new(sink.clone()),
            (None, Some(_)) => ExecObserver::metrics_only(),
        };
        let mut observer = observer
            .with_batch(index as u64)
            .with_engine("serve")
            .with_bounds(config.n_total, config.k_abs_sum);
        if let Some(registry) = &config.registry {
            observer = observer.with_registry(registry.clone());
        }
        Some(observer)
    }
}

/// Extracts the final results in request order. When a trace sink is
/// configured, the registry's run-wide snapshot — taken once the pool has
/// exited, so it covers the whole run — is appended to the trace as
/// `metrics.*` events, so metrics and events land in one replayable file.
fn collect_results(config: &ServeConfig, jobs: Vec<JobCell<'_>>) -> Vec<BatchResult> {
    if let Some(sink) = &config.sink {
        let metrics = config
            .registry
            .as_ref()
            .map(|registry| registry.snapshot())
            .unwrap_or_default();
        metrics.emit(&**sink);
    }
    jobs.into_iter()
        .map(|cell| {
            cell.state
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .result
                .expect("the pool only exits once every job has published")
        })
        .collect()
}

/// Compacts `store`'s version log as far as its live pins allow
/// ([`VersionedStore::compact`] stops at the oldest version a view still
/// holds). Finished batches freeze their view at their final pinned
/// version, so every `BatchResult::pinned_version` stays retrievable
/// (`pin_at`) for the life of the session — while a long-serving session
/// whose batches keep advancing keeps the log bounded instead of accreting
/// one delta per publish forever.
fn compact(store: &VersionedStore) {
    store.compact(store.current_version());
}

/// The in-flight pool, as seen by [`BatchServer::serve_with`]'s (or
/// [`BatchServer::serve_versioned_with`]'s) driver.
pub struct ServeSession<'s, 'a> {
    jobs: &'s [JobCell<'a>],
    config: &'s ServeConfig,
    /// The published store of a versioned session; each batch's pinned
    /// view is its job's `JobCell::view`.
    versioned: Option<&'a VersionedStore>,
}

impl<'s, 'a> ServeSession<'s, 'a> {
    /// Number of submitted batches (admitted and rejected alike — a
    /// rejected batch has a handle whose snapshot is final from the
    /// start).
    pub fn batches(&self) -> usize {
        self.jobs.len()
    }

    /// The handle for batch `index` (panics if out of range).
    pub fn handle(&self, index: usize) -> BatchHandle<'s, 'a> {
        BatchHandle {
            cell: &self.jobs[index],
            index,
        }
    }

    /// Handles for every submitted batch, in request order.
    pub fn handles(&self) -> Vec<BatchHandle<'s, 'a>> {
        (0..self.jobs.len()).map(|i| self.handle(i)).collect()
    }

    /// Whether every batch has published its final result.
    pub fn all_finished(&self) -> bool {
        self.jobs
            .iter()
            .all(|cell| cell.finished.load(Ordering::Acquire))
    }

    /// Applies a live data update: publishes `entries` as a new store
    /// version ([`VersionedStore::publish`]) with *zero reader
    /// coordination* — no slice lock is taken, no fetch path quiesced, no
    /// cache touched. Every in-flight executor keeps reading the immutable
    /// snapshot it pinned at admission — there is nothing to tear — and
    /// stays on it until the driver opts it in via
    /// [`ServeSession::advance_batch`]. Batches that already published a
    /// result are never touched: their answer was final — and correct —
    /// for the version they pinned. `write_store` runs after the publish,
    /// e.g. to mirror the update into an external system.
    ///
    /// `entries` lists the changed coefficients as `(key, delta)`, e.g.
    /// from `batchbb_relation::cube::point_entries` or the batched
    /// `batchbb_relation::cube::batch_point_entries`.
    ///
    /// # Panics
    ///
    /// Panics on a session that has no versioned store
    /// ([`BatchServer::serve_with`]): such a session cannot repair its
    /// executors, so silently accepting the write would void every
    /// in-flight certificate. Serve through
    /// [`BatchServer::serve_versioned_with`] to update live.
    pub fn update(&self, entries: &[(CoeffKey, f64)], write_store: impl FnOnce()) {
        let store = self
            .versioned
            .expect("ServeSession::update needs a versioned session: use serve_versioned_with");
        store.publish(entries);
        write_store();
        compact(store);
    }

    /// The latest published store version, or `None` for unversioned
    /// sessions.
    pub fn current_version(&self) -> Option<VersionId> {
        self.versioned.map(VersionedStore::current_version)
    }

    /// The store version batch `index` currently reads, or `None` for
    /// unversioned sessions (panics if out of range).
    pub fn pinned_version(&self, index: usize) -> Option<VersionId> {
        self.jobs[index].view.map(VersionView::version)
    }

    /// Opts batch `index` in to the latest published store version.
    ///
    /// Takes only that batch's slice lock (never another's), re-pins its
    /// view to the current version, and repairs the executor with
    /// [`ProgressiveExecutor::advance_version`] against the exact
    /// concatenated delta between the two versions — so its estimates are
    /// what they would have been had it read the new version from the
    /// start. The order matters and is handled here: the view advances
    /// *first*, so every fresh read (including the re-fetch of an abandoned
    /// prefetch) sees the new version, and the repair then patches exactly
    /// what the executor had already consumed of the old one.
    ///
    /// The batch is re-priced: it is certified from here on — by this
    /// repair's snapshot, every later slice, its bound-targeted drain, its
    /// report and `SloOutcome`, and its observer's per-step bounds — at its
    /// own `K` plus `Σ|Δ|` over the delta just applied. Every batch starts
    /// at the configured `K` (`k_abs_sum` in [`ServeConfig::new`]); by the
    /// triangle inequality the sum is at least the ℓ¹ of the version the
    /// batch now reads whenever the configured `K` bounds the one it
    /// pinned, at O(|Δ|) per advance rather than a walk of the data
    /// ([`VersionView::abs_sum`]). So its certificate can *grow* at an
    /// advance, and [`BatchResult::bound_history`] is monotone only between
    /// advances.
    ///
    /// Returns the version the batch now reads, or `None` if the session
    /// is unversioned or the batch has already published its final result
    /// (its answer stays certified for its pinned version). Panics if
    /// `index` is out of range.
    pub fn advance_batch(&self, index: usize) -> Option<VersionId> {
        let store = self.versioned?;
        let cell = &self.jobs[index];
        let view = cell.view.expect("a versioned session pins every batch");
        let mut state = cell.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.result.is_some() {
            return None;
        }
        let interrupted = state.phase();
        state.enter_phase(Phase::Repair);
        let (pinned, delta) = view.advance_to_current();
        state.advance(&delta);
        let report = state
            .exec
            .degradation_report(self.config.n_total, state.k_abs_sum);
        publish_snapshot(cell, &state, &report, false);
        if let Some(prev) = interrupted {
            state.enter_phase(prev);
        }
        drop(state);
        compact(store);
        Some(pinned)
    }
}

/// One pool worker: sweep the parked shelf for landed fetches, pop the
/// highest-ranked runnable batch, advance it one slice, re-queue it with a
/// refreshed score if inconclusive (or shelve it if it parked on an
/// in-flight fetch), spin down once every job has published.
fn worker_loop(
    jobs: &[JobCell<'_>],
    queue: &SliceQueue,
    active: &AtomicUsize,
    config: &ServeConfig,
    shared: &PoolShared,
) {
    loop {
        if active.load(Ordering::Acquire) == 0 {
            return;
        }
        let resumed = resume_parked(jobs, queue, shared);
        match queue.pop() {
            Some(index) => match run_slice(&jobs[index], config, active, shared) {
                SliceOutcome::Finished => {}
                SliceOutcome::Requeue { score, slices } => queue.push(index, score, slices),
                SliceOutcome::Parked => {
                    let mut parked = shared.parked.lock().unwrap_or_else(|e| e.into_inner());
                    parked.push(index)
                }
            },
            None if resumed => {}
            // Nothing runnable: give the core away and sweep again. Parked
            // batches are polled, never slept on. A sleeping worker idles
            // its core, and what waking an idle core costs is the host's
            // to decide (on the sandbox it drifts for minutes after any
            // sustained load); once a window is one sub-millisecond
            // fetch, every window of every wave pays that wake-up, and
            // run-to-run throughput follows the host instead of the code.
            None => std::thread::yield_now(),
        }
    }
}

/// Re-queues every parked batch whose wait is over: its in-flight fetch
/// landed, a version advance abandoned the fetch, or it was cancelled.
/// Returns whether anything was resumed.
///
/// Lock discipline: slice locks are only `try_lock`ed — a held lock means
/// another worker or [`ServeSession::advance_batch`] owns the batch right
/// now, and the next sweep will catch up (a cancelled batch too); blocking
/// here would stall every other worker's sweep behind that one slice
/// (this sweep holds the shelf). The `Queued` transition is made under
/// the slice lock, like every other, so a concurrent `advance_batch`
/// cannot restore `Parked` over it.
fn resume_parked(jobs: &[JobCell<'_>], queue: &SliceQueue, shared: &PoolShared) -> bool {
    let mut parked = shared.parked.lock().unwrap_or_else(|e| e.into_inner());
    if parked.is_empty() {
        return false;
    }
    let mut resumed = false;
    let mut i = 0;
    while i < parked.len() {
        let cell = &jobs[parked[i]];
        let mut state = match cell.state.try_lock() {
            Ok(state) => state,
            // Poisoned: recover the guard, as every slice-lock site does.
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                i += 1;
                continue;
            }
        };
        let wake = cell.cancelled.load(Ordering::Acquire)
            || !state.exec.fetch_pending()
            || state.exec.fetch_ready();
        if !wake {
            i += 1;
            continue;
        }
        state.enter_phase(Phase::Queued);
        drop(state);
        let index = parked.swap_remove(i);
        let slices = cell.snapshot().slices;
        queue.push(index, marginal_value(cell), slices);
        resumed = true;
    }
    resumed
}

/// Simulated ticks a batch has consumed: one per store attempt plus the
/// backoff its retries charged — the clock SLO deadlines run on.
fn elapsed_ticks(fault: &FaultStats) -> u64 {
    fault.attempts + fault.backoff_ticks
}

/// Advances one batch by one scheduling slice and says what to do with it
/// next: drop it (final result published), re-queue it, or shelve it on a
/// still-in-flight asynchronous prefetch.
///
/// Every exit — cancelled, deadline, shed, drained — shares one epilogue:
/// the slice's one `degradation_report`, its bound recorded, then the
/// snapshot published or the batch finalized.
fn run_slice(
    cell: &JobCell<'_>,
    config: &ServeConfig,
    active: &AtomicUsize,
    shared: &PoolShared,
) -> SliceOutcome {
    let mut state = cell.state.lock().unwrap_or_else(|e| e.into_inner());
    if state.result.is_some() {
        return SliceOutcome::Finished;
    }
    state.enter_phase(Phase::Executing);
    let status = drain_slice(cell, &mut state, config, shared);
    let report = state
        .exec
        .degradation_report(config.n_total, state.k_abs_sum);
    state.bound_history.push(report.worst_case_bound);
    if let Some(status) = status {
        finalize(cell, &mut state, status, report, active, shared);
        return SliceOutcome::Finished;
    }
    publish_snapshot(cell, &state, &report, false);
    // An inconclusive drain either ran out of slice budget (re-queue and
    // compete on marginal value) or parked on an asynchronous prefetch
    // still in flight (shelve it — unless the fetch landed while we were
    // reporting, in which case it is runnable right now).
    if state.exec.fetch_pending() && !state.exec.fetch_ready() {
        state.enter_phase(Phase::Parked);
        return SliceOutcome::Parked;
    }
    state.enter_phase(Phase::Queued);
    SliceOutcome::Requeue {
        score: marginal_value(cell),
        slices: state.slices,
    }
}

/// The body of one slice: the contract checks, then a budgeted drain.
/// Returns the batch's terminal status, or `None` when the slice was
/// inconclusive.
fn drain_slice(
    cell: &JobCell<'_>,
    state: &mut JobState<'_>,
    config: &ServeConfig,
    shared: &PoolShared,
) -> Option<BatchStatus> {
    if cell.cancelled.load(Ordering::Acquire) {
        return Some(BatchStatus::Cancelled);
    }
    let fault = state.exec.fault_stats();
    let elapsed = elapsed_ticks(&fault);
    // Contract checks come before the drain so an expired or shed batch
    // never spends another attempt; both paths finalize with the current
    // certified bounds.
    if cell
        .contract
        .deadline_ticks
        .is_some_and(|deadline| elapsed >= deadline)
    {
        return Some(BatchStatus::DeadlineExpired);
    }
    // Strict ">": with fault-free stores actual consumption equals the
    // admitted estimates, which fit the capacity by construction, so
    // healthy runs never shed — shedding is the backstop for
    // fault-inflated costs only.
    if config
        .capacity
        .is_some_and(|capacity| shared.consumed.load(Ordering::Relaxed) > capacity)
    {
        return Some(BatchStatus::Shed);
    }
    // The budget never drops below the deferral queue length, so a slice
    // that reaches the queue can always run one conclusive full pass —
    // the fairness rule that keeps budgeted drains convergent. A deadline
    // additionally caps the slice (and, below, the per-retrieval retry
    // policy) to the tick budget left, so one slice cannot overshoot the
    // contract by more than a bounded deferral pass.
    let deferred = state.exec.deferred_count();
    let mut budget = config.slice_steps.max(deferred);
    let mut policy = config.retry.clone();
    if fault.attempts >= 32 {
        // Adaptive retry: under a high observed fault rate the slice runs
        // on proportionally fewer attempts per retrieval.
        let failures = fault.transient_failures + fault.permanent_failures;
        policy = policy.adapted(failures as f64 / fault.attempts as f64);
    }
    if let Some(deadline) = cell.contract.deadline_ticks {
        let remaining = deadline - elapsed; // > 0: the expiry check passed
        policy = policy.with_tick_budget(remaining);
        let remaining_steps = usize::try_from(remaining).unwrap_or(usize::MAX);
        budget = budget.min(remaining_steps.max(deferred)).max(1);
    }
    let status = if cell.contract.target_bound.is_finite() {
        state.exec.drain_with_faults_budgeted_to_bound(
            &policy,
            budget,
            cell.contract.target_bound,
            state.k_abs_sum,
        )
    } else {
        state.exec.drain_with_faults_budgeted(&policy, budget)
    };
    state.slices += 1;
    let after = state.exec.fault_stats();
    shared
        .consumed
        .fetch_add(after.attempts - fault.attempts, Ordering::Relaxed);
    status.map(BatchStatus::from)
}

/// The pool's marginal-value score of a batch, off its published snapshot:
/// certified bound shrink per unresolved retrieval × priority weight.
fn marginal_value(cell: &JobCell<'_>) -> f64 {
    let snapshot = cell.snapshot();
    let per_step =
        snapshot.worst_case_bound / (snapshot.remaining + snapshot.deferred).max(1) as f64;
    cell.contract.priority_weight() * per_step
}

fn publish_snapshot(
    cell: &JobCell<'_>,
    state: &JobState<'_>,
    report: &DegradationReport,
    finished: bool,
) {
    *cell.snapshot() = snapshot_of(&state.exec, report, state.slices, finished);
}

fn finalize(
    cell: &JobCell<'_>,
    state: &mut JobState<'_>,
    status: BatchStatus,
    report: DegradationReport,
    active: &AtomicUsize,
    shared: &PoolShared,
) {
    state.enter_phase(Phase::Finalize);
    publish_snapshot(cell, state, &report, true);
    // The outcome is the certificate's verdict, not the status's: any
    // terminal state whose final certified bound meets the target — exact
    // or not, expired or not — honored the contract.
    let slo = if report.worst_case_bound <= cell.contract.target_bound {
        SloOutcome::Met
    } else {
        SloOutcome::DegradedAtBound
    };
    shared.slo.on_outcome(
        cell.index,
        &cell.contract,
        &slo,
        status.label(),
        report.worst_case_bound,
        elapsed_ticks(&report.fault),
    );
    state.result = Some(BatchResult {
        status,
        slo,
        retrieved_entries: state.exec.retrieved_entries(),
        slices: state.slices,
        bound_history: std::mem::take(&mut state.bound_history),
        report,
        pinned_version: cell.view.map(VersionView::version),
    });
    cell.finished.store(true, Ordering::Release);
    state.flush_lifecycle();
    let left = active.fetch_sub(1, Ordering::AcqRel) - 1;
    shared.slo.set_queue_depth(left as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_core::{BatchQueries, ProgressiveExecutor};
    use batchbb_penalty::{Penalty, Sse};
    use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
    use batchbb_relation::{cube, Attribute, FrequencyDistribution, Schema};
    use batchbb_tensor::Shape;
    use batchbb_wavelet::Wavelet;

    use crate::{BatchRequest, ServeConfig, SloContract};

    /// A 32×32 dataset on a versioned store, plus `nb` two-query batches
    /// whose master lists are hundreds of coefficients long — long enough
    /// that a driver can pause them all mid-drain before any finishes.
    fn fixture(nb: usize) -> (VersionedStore, Vec<BatchQueries>, usize, f64) {
        let schema = Schema::new(vec![
            Attribute::new("x", 0.0, 32.0, 5),
            Attribute::new("y", 0.0, 32.0, 5),
        ])
        .unwrap();
        let mut dfd = FrequencyDistribution::new(schema);
        for i in 0..32 {
            for j in 0..32 {
                let w = ((i * 5 + j * 11) % 7) as f64;
                if w != 0.0 {
                    dfd.insert_binned(&[i, j], w);
                }
            }
        }
        let strategy = WaveletStrategy::new(Wavelet::Db4);
        let store = VersionedStore::from_entries(strategy.transform_data(dfd.tensor()));
        let shape = dfd.schema().domain();
        let batches = (0..nb)
            .map(|b| {
                let lo = b % 8;
                BatchQueries::rewrite(
                    &strategy,
                    vec![
                        RangeSum::count(HyperRect::new(vec![lo, 0], vec![31, 31])),
                        RangeSum::count(HyperRect::new(vec![0, lo], vec![30, 30])),
                    ],
                    &shape,
                )
                .unwrap()
            })
            .collect();
        let k = store.abs_sum();
        (store, batches, 1024, k)
    }

    /// The tentpole acceptance check: with eight batches paused mid-drain
    /// — the driver holds *every* slice lock, exactly the locks the old
    /// barrier needed — a versioned `update` still completes. If `update`
    /// took any batch's slice lock this test would deadlock on the spot.
    ///
    /// One worker on one-step slices makes the pause easy to land: the
    /// eight batches rank alike, so the heap deals their hundreds of
    /// slices near-evenly and none finishes until thousands have run, and
    /// the worker blocks on a driver-held lock at its next pop — freezing
    /// the whole pool mid-drain. The driver can still lose the race
    /// outright when the OS parks its thread for the entire drain (seen
    /// under heavily loaded parallel test runs), so a lost race skips the
    /// asserts and the whole serve is retried; the lock-freedom property is
    /// exercised on the first attempt whose freeze lands.
    #[test]
    fn versioned_update_completes_while_slice_locks_are_held() {
        let (store, batches, n_total, k) = fixture(8);
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(1).slice_steps(1));
        let key = CoeffKey::new(&[0, 0]);
        for _ in 0..50 {
            let (results, frozen_at) = server.serve_versioned_with(&store, &requests, |session| {
                let cells = session.jobs.iter();
                let guards: Vec<_> = cells.map(|cell| cell.state.lock().unwrap()).collect();
                if guards.iter().any(|state| state.result.is_some()) {
                    return None; // worker outran us; retry the whole serve
                }
                let v0 = session.current_version().unwrap();
                session.update(&[(key, 3.5)], || ());
                let v1 = session.current_version().unwrap();
                assert_eq!(v1.as_u64(), v0.as_u64() + 1, "update published a version");
                for i in 0..session.batches() {
                    assert_eq!(session.pinned_version(i), Some(v0), "readers stay pinned");
                }
                Some(v0)
            });
            if let Some(v0) = frozen_at {
                for result in &results {
                    assert_eq!(result.status, BatchStatus::Exact);
                    assert_eq!(result.pinned_version, Some(v0));
                }
                return;
            }
        }
        panic!("the pool never froze mid-drain in 50 attempts");
    }

    /// A batch cancelled before its first slice still ends its bound
    /// history at its report's bound: `[initial bound]`. The driver locks
    /// a batch no slice has reached, cancels it and lets go; a worker that
    /// got there first makes the serve retry, as above.
    #[test]
    fn a_batch_cancelled_before_its_first_slice_records_its_initial_bound() {
        let (store, batches, n_total, k) = fixture(8);
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(1).slice_steps(1));
        for _ in 0..50 {
            let (results, cancelled) = server.serve_versioned_with(&store, &requests, |session| {
                let (index, cell) = session.jobs.iter().enumerate().last().unwrap();
                let state = cell.state.lock().unwrap();
                if state.slices > 0 || state.result.is_some() {
                    return None; // a worker reached it first; retry the serve
                }
                session.handle(index).cancel();
                Some((index, state.exec.worst_case_bound(k)))
            });
            if let Some((index, initial)) = cancelled {
                let result = &results[index];
                assert_eq!(result.status, BatchStatus::Cancelled);
                assert_eq!(result.bound_history, vec![initial]);
                assert_eq!(result.report.worst_case_bound, initial);
                return;
            }
        }
        panic!("a worker reached the last batch first in 50 attempts");
    }

    /// An advanced batch is certified at `K + Σ|Δ|`, not at the serve's
    /// configured `K`. Slices run on the test thread, without the pool: a
    /// bound-targeted batch drains part-way on `v0`, a publish then adds
    /// an insert whose delta has about 16 times the data's ℓ¹, and the batch
    /// advances over it and drains to its target. Priced at the
    /// configured `K`, it would stop on a certificate five times below its
    /// actual penalty.
    #[test]
    fn an_advanced_batch_is_certified_at_k_plus_its_delta() {
        let (store, batches, n_total, k) = fixture(1);
        let views = [store.pin()];
        // On `v0` the target is met a third of the way down the progression.
        let probe = ProgressiveExecutor::new(&batches[0], &Sse, &views[0]);
        let target = k * k * probe.progression()[probe.remaining() / 3].importance;
        let requests = [BatchRequest::new(&batches[0], &Sse)
            .with_slo(SloContract::new().with_target_bound(target))];
        let server = BatchServer::new(ServeConfig::new(n_total, k).slice_steps(4));
        let (config, active) = (server.config(), AtomicUsize::new(1));
        let shared = PoolShared {
            consumed: AtomicU64::new(0),
            slo: SloObserver::new(None, None),
            parked: Mutex::new(Vec::new()),
        };
        let read = |i: usize| (&views[i] as &dyn CoefficientStore, Some(&views[i]));
        let jobs = server.admit_jobs(&shared, &requests, read);
        let slice = || run_slice(&jobs[0], config, &active, &shared);
        for _ in 0..3 {
            assert!(matches!(slice(), SliceOutcome::Requeue { .. }));
        }
        let shape = Shape::new(vec![32, 32]).unwrap();
        store.publish(&cube::point_entries(&shape, &[31, 0], 4e3, Wavelet::Db4));
        let session = ServeSession {
            jobs: &jobs,
            config,
            versioned: Some(&store),
        };
        let v1 = session.advance_batch(0).expect("the batch is running");
        while !matches!(slice(), SliceOutcome::Finished) {}
        let result = jobs[0].state.lock().unwrap().result.take().unwrap();
        assert_eq!(result.status, BatchStatus::BoundReached);
        let mut exact = ProgressiveExecutor::new(&batches[0], &Sse, &views[0]);
        exact.run_to_end();
        assert_eq!(views[0].version(), v1, "the advance re-pinned the view");
        let pairs = result.estimates().iter().zip(exact.estimates());
        let errors: Vec<f64> = pairs.map(|(e, x)| e - x).collect();
        let (actual, bound) = (Sse.evaluate(&errors), result.report.worst_case_bound);
        assert!(
            actual <= bound * (1.0 + 1e-9),
            "penalty {actual} above its bound {bound}"
        );
    }
}
