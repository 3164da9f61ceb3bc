//! A thread-pool-backed asynchronous store with cross-batch fetch dedup.
//!
//! [`AsyncFetchStore`] turns any blocking [`CoefficientStore`] into a
//! completion-based one: [`CoefficientStore::submit`] enqueues the batch on
//! a bounded pool of I/O threads and returns immediately, so a serve worker
//! can park the submitting batch and advance another instead of stalling on
//! the fetch (DESIGN.md §12).  The pool is the portable backend; the
//! `submit`/[`Completion`] surface is deliberately shaped so an io_uring
//! submission/completion queue can replace it behind a `cfg` later.
//!
//! The engine keeps an **in-flight table**: one [`InflightSlot`] per key
//! currently being read.  A submit that asks for a key already outstanding
//! — from *any* batch — joins the existing slot instead of queueing a
//! second read, so N concurrent batches wanting one coefficient ride one
//! physical fetch and share the verdict.  Entries leave the table the
//! moment their read completes (the *exactly-once-while-outstanding* rule):
//! dedup never memoizes, so a later submit re-reads the store and layering
//! a cache stays the caller's choice — the recommended latency-hiding stack
//! is `AsyncFetchStore<ShardedCachingStore<S>>`, dedup outside, memo
//! inside.
//!
//! New keys of one submit stay together as one queue job, so an inner
//! store's batched `try_get_many` coalescing ([`crate::FileStore`]'s
//! contiguous-run preads, [`crate::BlockStore`]'s per-block grouping) is
//! preserved.  A job's batch error is published to each of its slots;
//! [`Completion::wait`] collapses per-key verdicts to the earliest-index
//! error, keeping the `try_get_many` whole-batch-failure contract intact.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use batchbb_obs::{span_end_event, span_start_event, EventSink, TraceContext, Tracer};
use batchbb_tensor::CoeffKey;

use crate::completion::{Completion, InflightSlot};
use crate::{CoefficientStore, IoStats, StorageError};

/// Span emission for the engine: the run-wide tracer plus the sink the
/// `store.read`/`store.rider` spans land in.
struct Tracing {
    tracer: Tracer,
    sink: Arc<dyn EventSink>,
}

/// One queued fetch: the new (not-already-in-flight) keys of a submit,
/// paired with the slots their verdicts land in and the inner store's
/// version tag at submit time (the dedup-table namespace to retire from).
struct Job {
    tag: u64,
    keys: Vec<CoeffKey>,
    slots: Vec<Arc<InflightSlot>>,
    /// The physical `store.read` span covering this job, `0` when tracing
    /// is off. Started at submit; ended by the I/O thread at completion,
    /// so the span measures true I/O latency including queueing.
    span: u64,
}

/// A dedup-table entry: the outstanding read's slot plus the span id of
/// the physical `store.read` covering it (`0` when tracing is off), so a
/// rider joining the read can attribute itself to the physical fetch.
struct InflightEntry {
    slot: Arc<InflightSlot>,
    span: u64,
}

/// Queue + liveness state shared between submitters and I/O threads.
struct PoolState {
    queue: VecDeque<Job>,
    /// Jobs currently running on an I/O thread (popped but not finished).
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals I/O threads that work (or shutdown) arrived.
    work_cv: Condvar,
    /// Signals [`AsyncFetchStore::quiesce`] waiters that the engine drained.
    idle_cv: Condvar,
    /// Keys with an outstanding read: the cross-batch dedup table, keyed
    /// by `(version tag at submit, key)` so riders pinned to different
    /// versions of a [`crate::VersionedStore`]/[`crate::VersionView`]
    /// never share a physical read (unversioned stores all tag `0`, so
    /// the table degenerates to the plain per-key one). Holds only
    /// pending slots — completed entries are removed immediately.
    inflight: Mutex<HashMap<(u64, CoeffKey), InflightEntry>>,
    /// Keys currently outstanding (queued or running).
    pending_keys: AtomicU64,
    /// Submits that joined an already-outstanding read instead of queueing
    /// their own.
    dedup_hits: AtomicU64,
    tracing: Option<Tracing>,
}

/// Completion-based asynchronous wrapper over any blocking store.
///
/// See the module docs above for the dedup and error semantics. Blocking
/// calls (`get`/`try_get`/`try_get_many`) forward straight to the inner
/// store — only [`CoefficientStore::submit`] takes the asynchronous path —
/// so accounting on the blocking paths is unchanged.
///
/// Dropping the store drains the queue (every outstanding completion still
/// resolves) and joins the I/O threads.
pub struct AsyncFetchStore<S: CoefficientStore + 'static> {
    inner: Arc<S>,
    shared: Arc<Shared>,
    io_threads: Vec<JoinHandle<()>>,
}

impl<S: CoefficientStore + 'static> AsyncFetchStore<S> {
    /// Wraps `inner` behind `threads >= 1` I/O threads.
    pub fn new(inner: S, threads: usize) -> Self {
        Self::build(inner, threads, None)
    }

    /// Like [`AsyncFetchStore::new`], but emits causal spans into `sink`
    /// on `tracer`'s clock: one `store.read` span per physical fetch
    /// (submit → completion, so the span measures queueing plus inner
    /// I/O) and one `store.rider` span per submit that joined an
    /// outstanding read, carrying the joined read's span id in its
    /// `physical` field. Wire the **same** [`Tracer`] the serve pool
    /// uses so store spans are time-comparable with batch lifecycles.
    pub fn with_tracing(
        inner: S,
        threads: usize,
        tracer: Tracer,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        Self::build(inner, threads, Some(Tracing { tracer, sink }))
    }

    fn build(inner: S, threads: usize, tracing: Option<Tracing>) -> Self {
        assert!(threads >= 1, "need at least one I/O thread");
        let inner = Arc::new(inner);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            pending_keys: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            tracing,
        });
        let io_threads = (0..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || io_loop(&*inner, &shared))
            })
            .collect();
        AsyncFetchStore {
            inner,
            shared,
            io_threads,
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// How many submits joined an already-outstanding read (cross-batch or
    /// within-batch) instead of queueing their own.
    pub fn dedup_hits(&self) -> u64 {
        self.shared.dedup_hits.load(Ordering::Relaxed)
    }

    /// Keys currently outstanding (queued or running).
    pub fn pending_depth(&self) -> u64 {
        self.shared.pending_keys.load(Ordering::Relaxed)
    }
}

/// I/O thread body: pop a job, fetch it through the inner store's batched
/// path, publish per-key verdicts, retire the dedup-table entries.
fn io_loop<S: CoefficientStore>(inner: &S, shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.active += 1;
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let fetched = inner.try_get_many(&job.keys);
        match &fetched {
            Ok(values) => {
                for (slot, value) in job.slots.iter().zip(values) {
                    slot.complete(Ok(*value));
                }
            }
            Err(e) => {
                // The batch as a whole failed with no per-key verdicts;
                // every rider sees the same error (collapsed to the
                // earliest index by `Completion::wait`) and falls back to
                // singleton attribution, exactly as on the blocking path.
                for slot in &job.slots {
                    slot.complete(Err(e.clone()));
                }
            }
        }
        if job.span != 0 {
            if let Some(tracing) = &shared.tracing {
                let ctx = TraceContext {
                    trace_id: tracing.tracer.trace_id(),
                    span_id: job.span,
                    parent_span_id: None,
                };
                tracing.sink.emit(
                    &span_end_event(ctx, tracing.tracer.now_ns()).bool("ok", fetched.is_ok()),
                );
            }
        }
        {
            // Retire only this job's slots: a key may have been re-submitted
            // (and re-inserted) after an abandoning caller dropped its
            // completion, in which case the table holds a newer slot.
            let mut table = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
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
        shared
            .pending_keys
            .fetch_sub(job.keys.len() as u64, Ordering::Relaxed);
        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.active -= 1;
        if state.active == 0 && state.queue.is_empty() {
            shared.idle_cv.notify_all();
        }
    }
}

impl<S: CoefficientStore + 'static> CoefficientStore for AsyncFetchStore<S> {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        self.inner.get(key)
    }

    fn try_get(&self, key: &CoeffKey) -> Result<Option<f64>, StorageError> {
        self.inner.try_get(key)
    }

    fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        self.inner.try_get_many(keys)
    }

    /// Enqueues the batch and returns immediately.  Keys already in flight
    /// *at the same inner version* join the outstanding read (one dedup
    /// hit each); the rest form one queue job so the inner store's batched
    /// coalescing is preserved.  The version tag is sampled once per
    /// submit: a submit issued after a version advance never joins a read
    /// issued before it (see DESIGN.md §13 for the advance protocol that
    /// makes the remaining fetch/advance interleavings benign).
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        let tag = self.inner.version_tag();
        let mut slots = Vec::with_capacity(keys.len());
        let mut new_keys: Vec<CoeffKey> = Vec::new();
        let mut new_slots: Vec<Arc<InflightSlot>> = Vec::new();
        // The physical read's span id, allocated lazily on the first new
        // key (0 = tracing off or nothing new to read).
        let mut read_span = 0u64;
        // Physical spans this submit rode instead of reading: span id →
        // keys joined. Only populated when tracing is on.
        let mut joined: Vec<(u64, u64)> = Vec::new();
        {
            let mut table = self
                .shared
                .inflight
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for key in keys {
                if let Some(entry) = table.get(&(tag, *key)) {
                    self.shared.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    if self.shared.tracing.is_some() {
                        match joined.iter_mut().find(|(span, _)| *span == entry.span) {
                            Some((_, n)) => *n += 1,
                            None => joined.push((entry.span, 1)),
                        }
                    }
                    slots.push(Arc::clone(&entry.slot));
                } else {
                    let slot = Arc::new(InflightSlot::new());
                    if let Some(tracing) = &self.shared.tracing {
                        if read_span == 0 {
                            read_span = tracing.tracer.next_span_id();
                        }
                    }
                    table.insert(
                        (tag, *key),
                        InflightEntry {
                            slot: Arc::clone(&slot),
                            span: read_span,
                        },
                    );
                    new_keys.push(*key);
                    new_slots.push(Arc::clone(&slot));
                    slots.push(slot);
                }
            }
        }
        if let Some(tracing) = &self.shared.tracing {
            let now = tracing.tracer.now_ns();
            if read_span != 0 {
                let ctx = TraceContext {
                    trace_id: tracing.tracer.trace_id(),
                    span_id: read_span,
                    parent_span_id: None,
                };
                tracing.sink.emit(
                    &span_start_event("store.read", ctx, now)
                        .u64("keys", new_keys.len() as u64)
                        .u64("tag", tag),
                );
            }
            // One rider span per distinct physical read this submit
            // joined; `physical` names the shared `store.read` span so
            // attribution can fan the one I/O out to every rider.
            for &(physical, keys_joined) in &joined {
                let ctx = tracing.tracer.root_context();
                tracing.sink.emit(
                    &span_start_event("store.rider", ctx, now)
                        .u64("physical", physical)
                        .u64("keys", keys_joined),
                );
                tracing.sink.emit(&span_end_event(ctx, now));
            }
        }
        if !new_keys.is_empty() {
            self.shared
                .pending_keys
                .fetch_add(new_keys.len() as u64, Ordering::Relaxed);
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.queue.push_back(Job {
                tag,
                keys: new_keys,
                slots: new_slots,
                span: read_span,
            });
            drop(state);
            self.shared.work_cv.notify_one();
        }
        Completion::pending(slots)
    }

    /// Blocks until the queue and every running job drain, then quiesces
    /// the inner store: after `quiesce` returns the in-flight table is
    /// empty and the counters are final (DESIGN.md §12).
    fn quiesce(&self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.active > 0 || !state.queue.is_empty() {
            state = self
                .shared
                .idle_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(state);
        self.inner.quiesce();
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

impl<S: CoefficientStore + 'static> Drop for AsyncFetchStore<S> {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
        }
        // Shutdown is drain-then-exit: threads keep popping until the queue
        // empties, so every published completion still resolves.
        self.shared.work_cv.notify_all();
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use crate::{FaultInjectingStore, FaultPlan, MemoryStore};

    use super::*;

    fn keys(n: usize) -> Vec<CoeffKey> {
        (0..n).map(|i| CoeffKey::new(&[i, i + 1])).collect()
    }

    fn store(n: usize) -> MemoryStore {
        MemoryStore::from_entries(keys(n).into_iter().map(|k| (k, k.coord(0) as f64 + 0.5)))
    }

    #[test]
    fn submit_matches_blocking_batch() {
        let asynchronous = AsyncFetchStore::new(store(16), 3);
        let want = asynchronous.inner().try_get_many(&keys(16)).unwrap();
        let got = asynchronous.submit(&keys(16)).wait().unwrap();
        assert_eq!(got, want);
        asynchronous.quiesce();
        assert_eq!(asynchronous.pending_depth(), 0);
    }

    #[test]
    fn concurrent_submits_of_one_key_share_a_read() {
        /// Counts physical batch fetches so sharing is observable.
        struct CountingStore {
            inner: MemoryStore,
            batches: AtomicUsize,
            /// Holds every fetch until released, so submits pile onto the
            /// in-flight slot deterministically.
            gate: Mutex<bool>,
            gate_cv: Condvar,
        }
        impl CoefficientStore for CountingStore {
            fn get(&self, key: &CoeffKey) -> Option<f64> {
                self.inner.get(key)
            }
            fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
                self.batches.fetch_add(1, Ordering::Relaxed);
                let mut open = self.gate.lock().unwrap();
                while !*open {
                    open = self.gate_cv.wait(open).unwrap();
                }
                drop(open);
                self.inner.try_get_many(keys)
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

        let counting = CountingStore {
            inner: store(4),
            batches: AtomicUsize::new(0),
            gate: Mutex::new(false),
            gate_cv: Condvar::new(),
        };
        let asynchronous = AsyncFetchStore::new(counting, 2);
        let shared_key = keys(1);
        // Two batches submit the same key while the first read is stuck at
        // the gate: the second must join it, not queue a second read.
        let a = asynchronous.submit(&shared_key);
        let b = asynchronous.submit(&shared_key);
        assert_eq!(asynchronous.dedup_hits(), 1);
        {
            let mut open = asynchronous.inner().gate.lock().unwrap();
            *open = true;
            asynchronous.inner().gate_cv.notify_all();
        }
        assert_eq!(a.wait().unwrap(), b.wait().unwrap());
        asynchronous.quiesce();
        assert_eq!(asynchronous.inner().batches.load(Ordering::Relaxed), 1);
        // The table holds only outstanding reads: a later submit re-reads.
        let c = asynchronous.submit(&shared_key);
        c.wait().unwrap();
        asynchronous.quiesce();
        assert_eq!(asynchronous.inner().batches.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn rider_span_references_the_physical_read_span() {
        use batchbb_obs::{jsonl, MemorySink};

        /// Holds fetches at a gate so the second submit provably joins the
        /// first read while it is outstanding.
        struct GatedStore {
            inner: MemoryStore,
            gate: Mutex<bool>,
            gate_cv: Condvar,
        }
        impl CoefficientStore for GatedStore {
            fn get(&self, key: &CoeffKey) -> Option<f64> {
                self.inner.get(key)
            }
            fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
                let mut open = self.gate.lock().unwrap();
                while !*open {
                    open = self.gate_cv.wait(open).unwrap();
                }
                drop(open);
                self.inner.try_get_many(keys)
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

        let gated = GatedStore {
            inner: store(4),
            gate: Mutex::new(false),
            gate_cv: Condvar::new(),
        };
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(9);
        let asynchronous = AsyncFetchStore::with_tracing(gated, 2, tracer, sink.clone());
        let a = asynchronous.submit(&keys(1));
        let b = asynchronous.submit(&keys(1));
        assert_eq!(asynchronous.dedup_hits(), 1);
        {
            let mut open = asynchronous.inner().gate.lock().unwrap();
            *open = true;
            asynchronous.inner().gate_cv.notify_all();
        }
        a.wait().unwrap();
        b.wait().unwrap();
        asynchronous.quiesce();
        let events: Vec<_> = sink
            .lines()
            .iter()
            .map(|l| jsonl::parse_line(l).unwrap())
            .collect();
        let read_start = events
            .iter()
            .find(|e| e.name() == "span.start" && e.str("name") == Some("store.read"))
            .expect("physical read span");
        let read_span = read_start.u64("span").unwrap();
        assert_eq!(read_start.u64("keys"), Some(1));
        let read_end = events
            .iter()
            .find(|e| e.name() == "span.end" && e.u64("span") == Some(read_span))
            .expect("physical read span end");
        assert_eq!(read_end.bool("ok"), Some(true));
        let riders: Vec<_> = events
            .iter()
            .filter(|e| e.name() == "span.start" && e.str("name") == Some("store.rider"))
            .collect();
        assert_eq!(riders.len(), 1, "one submit rode the outstanding read");
        assert_eq!(
            riders[0].u64("physical"),
            Some(read_span),
            "rider must reference the physical read it joined"
        );
    }

    #[test]
    fn batch_error_reaches_every_rider() {
        let broken = keys(1)[0];
        let faulty =
            FaultInjectingStore::new(store(4), FaultPlan::new(11).with_permanent_keys([broken]));
        let asynchronous = AsyncFetchStore::new(faulty, 2);
        let a = asynchronous.submit(&keys(2));
        let b = asynchronous.submit(&keys(2));
        let ea = a.wait().unwrap_err();
        let eb = b.wait().unwrap_err();
        assert_eq!(*ea.key(), broken);
        assert_eq!(*eb.key(), broken);
        asynchronous.quiesce();
    }

    #[test]
    fn fault_on_inflight_dedup_read_reaches_both_riders() {
        /// Holds every fetch at a gate so the second submit provably joins
        /// the first read *while it is in flight*, then lets the shared
        /// read fail.
        struct GatedStore<S> {
            inner: S,
            batches: AtomicUsize,
            gate: Mutex<bool>,
            gate_cv: Condvar,
        }
        impl<S: CoefficientStore> CoefficientStore for GatedStore<S> {
            fn get(&self, key: &CoeffKey) -> Option<f64> {
                self.inner.get(key)
            }
            fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
                self.batches.fetch_add(1, Ordering::Relaxed);
                let mut open = self.gate.lock().unwrap();
                while !*open {
                    open = self.gate_cv.wait(open).unwrap();
                }
                drop(open);
                self.inner.try_get_many(keys)
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

        let broken = keys(1)[0];
        let gated = GatedStore {
            inner: FaultInjectingStore::new(
                store(4),
                FaultPlan::new(11).with_permanent_keys([broken]),
            ),
            batches: AtomicUsize::new(0),
            gate: Mutex::new(false),
            gate_cv: Condvar::new(),
        };
        let asynchronous = AsyncFetchStore::new(gated, 2);
        // Both batches want the broken key while its read is stuck at the
        // gate: the second rider joins the outstanding read.
        let a = asynchronous.submit(&keys(1));
        let b = asynchronous.submit(&keys(1));
        assert_eq!(asynchronous.dedup_hits(), 1, "second submit must join");
        {
            let mut open = asynchronous.inner().gate.lock().unwrap();
            *open = true;
            asynchronous.inner().gate_cv.notify_all();
        }
        // The single shared read fails; the fault fans out to both
        // completions with the faulting key intact.
        let ea = a.wait().unwrap_err();
        let eb = b.wait().unwrap_err();
        assert_eq!(*ea.key(), broken);
        assert_eq!(*eb.key(), broken);
        asynchronous.quiesce();
        assert_eq!(
            asynchronous.inner().batches.load(Ordering::Relaxed),
            1,
            "one physical read serves both riders, even when it faults"
        );
        // The failed read must retire its dedup-table entry: a retry after
        // heal issues a fresh read and succeeds.
        asynchronous.inner().inner.heal();
        assert!(asynchronous.submit(&keys(1)).wait().is_ok());
        asynchronous.quiesce();
        assert_eq!(asynchronous.inner().batches.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn submits_across_a_version_advance_never_share_a_read() {
        use crate::VersionedStore;

        /// Gates fetches and forwards the inner version tag, so a read can
        /// be provably outstanding across a version advance.
        struct GatedStore<S> {
            inner: S,
            batches: AtomicUsize,
            gate: Mutex<bool>,
            gate_cv: Condvar,
        }
        impl<S: CoefficientStore> CoefficientStore for GatedStore<S> {
            fn get(&self, key: &CoeffKey) -> Option<f64> {
                self.inner.get(key)
            }
            fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
                self.batches.fetch_add(1, Ordering::Relaxed);
                let mut open = self.gate.lock().unwrap();
                while !*open {
                    open = self.gate_cv.wait(open).unwrap();
                }
                drop(open);
                self.inner.try_get_many(keys)
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

        let probe = CoeffKey::new(&[0, 1]);
        let versioned = VersionedStore::from_entries([(probe, 0.5)]);
        let view = versioned.pin(); // v0
        let gated = GatedStore {
            inner: view,
            batches: AtomicUsize::new(0),
            gate: Mutex::new(false),
            gate_cv: Condvar::new(),
        };
        let asynchronous = AsyncFetchStore::new(gated, 2);
        // Rider A reads `probe` at v0 and is stuck at the gate.
        let a = asynchronous.submit(&[probe]);
        // Publish a version touching a *different* key and advance the
        // view: `probe`'s value is unchanged, only the tag moved.
        versioned.publish(&[(CoeffKey::new(&[7, 7]), 1.0)]);
        asynchronous.inner().inner.advance_to_current();
        // Rider B asks for the same key at v1: same-key dedup must NOT
        // fire across the version bump.
        let b = asynchronous.submit(&[probe]);
        assert_eq!(
            asynchronous.dedup_hits(),
            0,
            "a post-advance submit must not join a pre-advance read"
        );
        {
            let mut open = asynchronous.inner().gate.lock().unwrap();
            *open = true;
            asynchronous.inner().gate_cv.notify_all();
        }
        assert_eq!(a.wait().unwrap(), vec![Some(0.5)]);
        assert_eq!(b.wait().unwrap(), vec![Some(0.5)]);
        asynchronous.quiesce();
        assert_eq!(
            asynchronous.inner().batches.load(Ordering::Relaxed),
            2,
            "two versions, two physical reads"
        );
        // Same-version dedup still works at the new tag (gate closed again
        // so C's read is provably outstanding when D submits).
        *asynchronous.inner().gate.lock().unwrap() = false;
        let c = asynchronous.submit(&[probe]);
        let d = asynchronous.submit(&[probe]);
        assert_eq!(asynchronous.dedup_hits(), 1, "same-tag riders still share");
        {
            let mut open = asynchronous.inner().gate.lock().unwrap();
            *open = true;
            asynchronous.inner().gate_cv.notify_all();
        }
        c.wait().unwrap();
        d.wait().unwrap();
        asynchronous.quiesce();
    }

    #[test]
    fn drop_resolves_outstanding_completions() {
        let asynchronous = AsyncFetchStore::new(store(64), 1);
        let completions: Vec<Completion> = (0..8)
            .map(|i| asynchronous.submit(&keys(8 * (i + 1))))
            .collect();
        drop(asynchronous);
        for c in completions {
            assert!(c.is_ready());
            c.wait().unwrap();
        }
    }
}
