//! The batch server: a fixed worker pool multiplexing many progressive
//! executors over one coefficient store, under per-batch SLO contracts.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, TryLockError};

use batchbb_core::{DegradationReport, ExecObserver, ProgressiveExecutor};
use batchbb_obs::{lifecycle, LabeledSink, Lifecycle, LifecycleRecorder, Phase};
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
    capacity: Option<u64>,
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
    /// ([`BatchHandle`]). The store is read-only for the whole call — live
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

        let shared = pool_shared(config);
        let jobs = self.admit_jobs(&shared, requests, |_| (eff, None));
        let driver_out = {
            let session = ServeSession {
                jobs: &jobs,
                config,
                versioned: None,
            };
            run_pool(config, &shared, &jobs, &session, driver)
        };
        (collect_results(config, jobs), driver_out)
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
    /// No shared read cache is layered on top in this mode: snapshot reads
    /// are in-memory hash lookups, and jobs pinned at different versions
    /// could not share one cache generation anyway (the version-keyed
    /// caches in `batchbb_storage` cover the disk-backed topologies).
    pub fn serve_versioned_with<R>(
        &self,
        store: &VersionedStore,
        requests: &[BatchRequest<'_>],
        driver: impl FnOnce(&ServeSession<'_, '_>) -> R,
    ) -> (Vec<BatchResult>, R) {
        let config = &self.config;
        let shared = pool_shared(config);
        let views: Vec<VersionView> = requests.iter().map(|_| store.pin()).collect();
        let jobs = self.admit_jobs(&shared, requests, |i| {
            (&views[i] as &dyn CoefficientStore, Some(views[i].version()))
        });
        let driver_out = {
            let session = ServeSession {
                jobs: &jobs,
                config,
                versioned: Some(VersionedCtx {
                    store,
                    views: &views,
                }),
            };
            run_pool(config, &shared, &jobs, &session, driver)
        };
        (collect_results(config, jobs), driver_out)
    }

    /// Builds one [`JobCell`] per request — executors constructed, and
    /// contracts priced, serially on the caller thread.  Only the pricing
    /// needs that: each request is priced against what the requests
    /// *before it* committed of `capacity`, so verdicts depend on
    /// submission order.  Construction does not — it reads no store (`ι_p`
    /// is a function of the queries alone) and `Penalty: Send + Sync` —
    /// and stays here because the two ways of moving it were measured and
    /// lose: built on worker threads the executors' memory comes from
    /// per-thread malloc arenas (`peak_rss_mb` +12…+25 %), and published
    /// as priced they make a one-worker run's interleaving
    /// timing-dependent (ROADMAP item 4).  `store_for`
    /// hands each job its read store (the shared effective store, or the
    /// job's own pinned [`VersionView`]) plus the version it pins, if any.
    fn admit_jobs<'a>(
        &self,
        shared: &PoolShared,
        requests: &[BatchRequest<'a>],
        mut store_for: impl FnMut(usize) -> (&'a dyn CoefficientStore, Option<VersionId>),
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
                let (store, pinned) = store_for(i);
                let mut exec = ProgressiveExecutor::new(req.batch, req.penalty, store)
                    .with_prefetch_window(config.prefetch_window);
                let estimate = estimate_cost(&exec, &req.slo, config.k_abs_sum);
                if let Some(capacity) = config.capacity {
                    if committed.saturating_add(estimate.steps_to_target) > capacity {
                        shared.slo.on_rejected(i, &req.slo, &estimate, capacity);
                        return JobCell::rejected(
                            i,
                            exec,
                            config,
                            req.slo,
                            &estimate,
                            capacity,
                            pinned,
                            batch_lifecycle,
                        );
                    }
                }
                committed += estimate.steps_to_target;
                shared
                    .slo
                    .on_admitted(i, &req.slo, &estimate, config.capacity);
                if let Some(mut observer) = self.observer_for(i) {
                    if let Some(batch_lifecycle) = &batch_lifecycle {
                        observer = observer.with_lifecycle(batch_lifecycle.clone());
                    }
                    exec = exec.with_observer(observer);
                }
                let cell = JobCell::new(i, exec, config, req.slo, pinned, batch_lifecycle);
                cell.enter_phase(Phase::Queued);
                cell
            })
            .collect()
    }

    /// Builds batch `index`'s phase lifecycle, or `None` unless both a
    /// tracer and a sink are configured. The recorder flushes into the
    /// raw (unlabelled) sink — its spans carry an explicit `batch` field.
    fn lifecycle_for(&self, index: usize) -> Option<Lifecycle> {
        let (tracer, sink) = match (&self.config.tracer, &self.config.sink) {
            (Some(tracer), Some(sink)) => (tracer, sink),
            _ => return None,
        };
        Some(lifecycle(LifecycleRecorder::begin(
            tracer.clone(),
            sink.clone(),
            index as u64,
        )))
    }

    /// Builds batch `index`'s observer from the configured sink/registry,
    /// stamping a `batch = index` label so shared traces stay separable.
    fn observer_for(&self, index: usize) -> Option<ExecObserver> {
        let config = &self.config;
        let observer = match (&config.sink, &config.registry) {
            (None, None) => return None,
            (Some(sink), _) => ExecObserver::new(Arc::new(LabeledSink::new(
                sink.clone(),
                "batch",
                index as u64,
            ))),
            (None, Some(_)) => ExecObserver::metrics_only(),
        };
        let mut observer = observer
            .with_engine("serve")
            .with_bounds(config.n_total, config.k_abs_sum);
        if let Some(registry) = &config.registry {
            observer = observer.with_registry(registry.clone());
        }
        Some(observer)
    }
}

/// Fresh run-wide shared state for one serve call.
fn pool_shared(config: &ServeConfig) -> PoolShared {
    PoolShared {
        consumed: AtomicU64::new(0),
        capacity: config.capacity,
        slo: SloObserver::new(config.sink.clone(), config.registry.clone()),
        parked: Mutex::new(Vec::new()),
    }
}

/// Runs the worker pool over `jobs` while `driver` runs on the calling
/// thread; returns once the driver has returned *and* every job has
/// published its final result.
fn run_pool<'s, 'a, R>(
    config: &ServeConfig,
    shared: &PoolShared,
    jobs: &'s [JobCell<'a>],
    session: &ServeSession<'s, 'a>,
    driver: impl FnOnce(&ServeSession<'s, 'a>) -> R,
) -> R {
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
    std::thread::scope(|scope| {
        for _ in 0..config.workers {
            let queue = &queue;
            let active = &active;
            scope.spawn(move || worker_loop(jobs, queue, active, config, shared));
        }
        driver(session)
    })
}

/// Extracts the final results in request order, stamping every one with a
/// single run-wide metrics snapshot: a per-batch snapshot at finalize time
/// would capture a racy prefix of the shared registry. When a trace sink
/// is configured the snapshot is also appended to the trace as `metrics.*`
/// events, so metrics and events land in one replayable file.
fn collect_results(config: &ServeConfig, jobs: Vec<JobCell<'_>>) -> Vec<BatchResult> {
    let metrics = config
        .registry
        .as_ref()
        .map(|registry| registry.snapshot())
        .unwrap_or_default();
    if let Some(sink) = &config.sink {
        metrics.emit(&**sink);
    }
    jobs.into_iter()
        .map(|cell| {
            let mut result = cell
                .state
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .result
                .expect("the pool only exits once every job has published");
            result.metrics = metrics.clone();
            result
        })
        .collect()
}

/// The versioned half of a session: the published store plus each job's
/// pinned read view (index-aligned with `jobs`).
struct VersionedCtx<'s, 'a> {
    store: &'a VersionedStore,
    views: &'s [VersionView],
}

impl VersionedCtx<'_, '_> {
    /// Compacts the version log as far as its live pins allow
    /// ([`VersionedStore::compact`] stops at the oldest version a view
    /// still holds). Finished batches freeze their view at their final
    /// pinned version, so every `BatchResult::pinned_version` stays
    /// retrievable (`pin_at`) for the life of the session — while a
    /// long-serving session whose batches keep advancing keeps the log
    /// bounded instead of accreting one delta per publish forever.
    fn compact(&self) {
        self.store.compact(self.store.current_version());
    }
}

/// The in-flight pool, as seen by [`BatchServer::serve_with`]'s (or
/// [`BatchServer::serve_versioned_with`]'s) driver.
pub struct ServeSession<'s, 'a> {
    jobs: &'s [JobCell<'a>],
    config: &'s ServeConfig,
    versioned: Option<VersionedCtx<'s, 'a>>,
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
        let versioned = self
            .versioned
            .as_ref()
            .expect("ServeSession::update needs a versioned session: use serve_versioned_with");
        versioned.store.publish(entries);
        write_store();
        versioned.compact();
    }

    /// The latest published store version, or `None` for unversioned
    /// sessions.
    pub fn current_version(&self) -> Option<VersionId> {
        self.versioned
            .as_ref()
            .map(|versioned| versioned.store.current_version())
    }

    /// The store version batch `index` currently reads, or `None` for
    /// unversioned sessions (panics if out of range).
    pub fn pinned_version(&self, index: usize) -> Option<VersionId> {
        self.versioned
            .as_ref()
            .map(|versioned| versioned.views[index].version())
    }

    /// Opts batch `index` in to the latest published store version.
    ///
    /// Takes only that batch's slice lock (never another's), re-pins its
    /// view to the current version, and repairs the executor with
    /// [`ProgressiveExecutor::advance_version`] against the exact
    /// concatenated delta between the two versions — so its estimates and
    /// certified bounds are what they would have been had it read the new
    /// version from the start. The order matters and is handled here: the
    /// view advances *first*, so every fresh read (including the re-fetch
    /// of an abandoned prefetch) sees the new version, and the repair then
    /// patches exactly what the executor had already consumed of the old
    /// one.
    ///
    /// Returns the version the batch now reads, or `None` if the session
    /// is unversioned or the batch has already published its final result
    /// (its answer stays certified for its pinned version). Panics if
    /// `index` is out of range.
    pub fn advance_batch(&self, index: usize) -> Option<VersionId> {
        let versioned = self.versioned.as_ref()?;
        let cell = &self.jobs[index];
        let mut state = cell.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.result.is_some() {
            return None;
        }
        let interrupted = cell.lifecycle.as_ref().map(|lifecycle| {
            let mut recorder = lifecycle.lock().expect("lifecycle poisoned");
            let prev = recorder.phase();
            recorder.transition(Phase::Repair);
            prev
        });
        let (id, delta) = versioned.views[index].advance_to_current();
        state.exec.advance_version(&delta);
        state.pinned_version = Some(id);
        let report = state
            .exec
            .degradation_report(self.config.n_total, self.config.k_abs_sum);
        publish_snapshot(cell, &state, &report, false);
        if let Some(prev) = interrupted {
            cell.enter_phase(prev);
        }
        drop(state);
        versioned.compact();
        Some(id)
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
/// now, and the next sweep will catch up; blocking here would stall every
/// other worker's sweep behind that one slice (this sweep holds the shelf).
fn resume_parked(jobs: &[JobCell<'_>], queue: &SliceQueue, shared: &PoolShared) -> bool {
    let mut parked = shared.parked.lock().unwrap_or_else(|e| e.into_inner());
    if parked.is_empty() {
        return false;
    }
    let mut resumed = false;
    let mut i = 0;
    while i < parked.len() {
        let cell = &jobs[parked[i]];
        let wake = cell.cancelled.load(Ordering::Acquire)
            || match cell.state.try_lock() {
                Ok(state) => !state.exec.fetch_pending() || state.exec.fetch_ready(),
                // Held: not now. Poisoned: wake it, its next slice recovers the state.
                Err(e) => matches!(e, TryLockError::Poisoned(_)),
            };
        if !wake {
            i += 1;
            continue;
        }
        let index = parked.swap_remove(i);
        cell.enter_phase(Phase::Queued);
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
    // Phase transitions happen while the slice lock is held, so while
    // `advance_batch` holds it a batch's phase is never Executing.
    cell.enter_phase(Phase::Executing);
    if cell.cancelled.load(Ordering::Acquire) {
        let report = state
            .exec
            .degradation_report(config.n_total, config.k_abs_sum);
        finalize(
            cell,
            &mut state,
            BatchStatus::Cancelled,
            report,
            active,
            shared,
        );
        return SliceOutcome::Finished;
    }
    let fault = state.exec.fault_stats();
    let elapsed = elapsed_ticks(&fault);
    // Contract checks come before the drain so an expired or shed batch
    // never spends another attempt; both paths finalize with the current
    // certified bounds.
    if let Some(deadline) = cell.contract.deadline_ticks {
        if elapsed >= deadline {
            let report = state
                .exec
                .degradation_report(config.n_total, config.k_abs_sum);
            state.bound_history.push(report.worst_case_bound);
            finalize(
                cell,
                &mut state,
                BatchStatus::DeadlineExpired,
                report,
                active,
                shared,
            );
            return SliceOutcome::Finished;
        }
    }
    if let Some(capacity) = shared.capacity {
        // Strict ">": with fault-free stores actual consumption equals
        // the admitted estimates, which fit the capacity by construction,
        // so healthy runs never shed — shedding is the backstop for
        // fault-inflated costs only.
        if shared.consumed.load(Ordering::Relaxed) > capacity {
            let report = state
                .exec
                .degradation_report(config.n_total, config.k_abs_sum);
            state.bound_history.push(report.worst_case_bound);
            finalize(cell, &mut state, BatchStatus::Shed, report, active, shared);
            return SliceOutcome::Finished;
        }
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
            config.k_abs_sum,
        )
    } else {
        state.exec.drain_with_faults_budgeted(&policy, budget)
    };
    state.slices += 1;
    let after = state.exec.fault_stats();
    shared
        .consumed
        .fetch_add(after.attempts - fault.attempts, Ordering::Relaxed);
    let report = state
        .exec
        .degradation_report(config.n_total, config.k_abs_sum);
    state.bound_history.push(report.worst_case_bound);
    match status {
        Some(status) => {
            finalize(cell, &mut state, status.into(), report, active, shared);
            SliceOutcome::Finished
        }
        None => {
            publish_snapshot(cell, &state, &report, false);
            // An inconclusive drain either ran out of slice budget
            // (re-queue and compete on marginal value) or parked on an
            // asynchronous prefetch still in flight (shelve it — unless
            // the fetch landed while we were reporting, in which case it
            // is runnable right now).
            if state.exec.fetch_pending() && !state.exec.fetch_ready() {
                cell.enter_phase(Phase::Parked);
                return SliceOutcome::Parked;
            }
            cell.enter_phase(Phase::Queued);
            SliceOutcome::Requeue {
                score: marginal_value(cell),
                slices: state.slices,
            }
        }
    }
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
    cell.enter_phase(Phase::Finalize);
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
        // Stamped with the run-wide final metrics snapshot once the pool
        // exits.
        metrics: Default::default(),
        pinned_version: state.pinned_version,
    });
    cell.finished.store(true, Ordering::Release);
    cell.flush_lifecycle();
    let left = active.fetch_sub(1, Ordering::AcqRel) - 1;
    shared.slo.set_queue_depth(left as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_core::{BatchQueries, ProgressiveExecutor};
    use batchbb_penalty::Sse;
    use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
    use batchbb_relation::{Attribute, FrequencyDistribution, Schema};
    use batchbb_wavelet::Wavelet;

    use crate::{BatchRequest, ServeConfig};

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

    /// Opting a batch forward mid-drain finalizes it bit-identically to a
    /// fresh serial run against the version it advanced to; batches that
    /// finished first keep answers bit-identical to their pinned snapshot.
    #[test]
    fn advance_batch_agrees_with_restart_on_the_new_version() {
        let (store, batches, n_total, k) = fixture(3);
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(2).slice_steps(2));
        let entries = vec![
            (CoeffKey::new(&[0, 0]), 2.5),
            (CoeffKey::new(&[1, 3]), -1.25),
            (CoeffKey::new(&[2, 2]), 0.5),
        ];
        let (results, (v0, v1)) = server.serve_versioned_with(&store, &requests, |session| {
            let v0 = session.current_version().unwrap();
            session.update(&entries, || ());
            let v1 = session.current_version().unwrap();
            for i in 0..session.batches() {
                if let Some(id) = session.advance_batch(i) {
                    assert_eq!(id, v1);
                }
            }
            (v0, v1)
        });
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.status, BatchStatus::Exact);
            let pinned = result
                .pinned_version
                .expect("versioned runs pin every batch");
            let view = store.pin_at(pinned).expect("pinned versions are retained");
            let mut serial = ProgressiveExecutor::new(&batches[i], &Sse, &view);
            serial.run_to_end();
            assert_eq!(
                result.estimates(),
                serial.estimates(),
                "batch {i} (pinned {pinned}) must replay bit-for-bit"
            );
            assert!(pinned == v0 || pinned == v1);
        }
    }
}
