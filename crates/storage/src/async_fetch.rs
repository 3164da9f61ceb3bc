//! A completion-based asynchronous store with cross-batch fetch dedup.
//!
//! [`AsyncFetchStore`] turns any blocking [`CoefficientStore`] into a
//! completion-based one: [`CoefficientStore::submit`] enqueues the batch on
//! a bounded pool of I/O threads and returns immediately, so a serve worker
//! can park the submitting batch and advance another instead of stalling on
//! the fetch (DESIGN.md §12).
//!
//! It owns no engine of its own: it is the crate's one I/O engine,
//! [`ShardRouter`], over a single unreplicated shard with `threads`
//! primary workers — the in-flight table that lets concurrent submits of
//! one key ride one physical read, the one-job-per-submit batching that
//! preserves an inner store's batched `submit` coalescing
//! ([`crate::FileStore`]'s contiguous-run preads, [`crate::BlockStore`]'s
//! per-block grouping), the queue-drain rule that sends the jobs queued
//! when an I/O thread frees as one inner call, the whole-batch-error
//! fan-out, `quiesce` and the drain-then-exit drop are all the router's
//! (see the module docs of `shard.rs`).  The in-flight table never
//! memoizes, so layering a cache ([`crate::ShardedCachingStore`]) stays
//! the caller's choice.

use std::sync::Arc;

use batchbb_obs::{EventSink, Tracer};
use batchbb_tensor::CoeffKey;

use crate::completion::Completion;
use crate::shard::{HedgeConfig, ShardClient, ShardRouter};
use crate::{CoefficientStore, IoStats};

/// Completion-based asynchronous wrapper over any blocking store.
///
/// Every read rides the engine: a singleton is the engine's window of
/// one, so it joins an outstanding read of its key like any submit and the
/// inner store is only ever called from the I/O threads.
///
/// Dropping the store drains the queue (every outstanding completion still
/// resolves) and joins the I/O threads.
pub struct AsyncFetchStore<S: CoefficientStore + 'static> {
    inner: Arc<S>,
    /// One unreplicated shard whose primary is `inner`.
    engine: ShardRouter,
}

impl<S: CoefficientStore + 'static> AsyncFetchStore<S> {
    /// Wraps `inner` behind `threads >= 1` I/O threads.
    pub fn new(inner: S, threads: usize) -> Self {
        Self::build(inner, threads, None)
    }

    /// Like [`AsyncFetchStore::new`], but emits causal spans into `sink`
    /// on `tracer`'s clock: one `store.read` span per queued read
    /// (submit → completion, so the span measures queueing plus inner
    /// I/O; its end carries `coalesced`, how many queued reads shared the
    /// inner call) and one `store.rider` span per submit that joined an
    /// outstanding read, carrying the joined read's span id in its
    /// `physical` field. Wire the **same** [`Tracer`] the serve pool
    /// uses so store spans are time-comparable with batch lifecycles.
    pub fn with_tracing(
        inner: S,
        threads: usize,
        tracer: Tracer,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        Self::build(inner, threads, Some((tracer, sink)))
    }

    fn build(inner: S, threads: usize, tracing: Option<(Tracer, Arc<dyn EventSink>)>) -> Self {
        let inner = Arc::new(inner);
        let client = ShardClient::new(Arc::clone(&inner) as Arc<dyn CoefficientStore>);
        let engine =
            ShardRouter::with_workers(vec![client], HedgeConfig::default(), threads, None, tracing);
        AsyncFetchStore { inner, engine }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// How many submitted keys joined an already-outstanding read
    /// (cross-batch or within-batch) instead of queueing their own.
    pub fn dedup_hits(&self) -> u64 {
        self.engine.dedup_hits()
    }

    /// Keys currently outstanding (queued or running).
    pub fn pending_depth(&self) -> u64 {
        self.engine.pending_depth()
    }
}

impl<S: CoefficientStore + 'static> CoefficientStore for AsyncFetchStore<S> {
    /// Enqueues the batch on the engine and returns immediately: keys
    /// already in flight at the same inner version join the outstanding
    /// read, the rest form one queue job ([`ShardRouter`]'s `submit`).
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        self.engine.submit(keys)
    }

    /// Drains the engine, which then quiesces the inner store (its one
    /// shard's primary).
    fn quiesce(&self) {
        self.engine.quiesce()
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

#[cfg(test)]
mod tests {
    use crate::testing::Gated;
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
        let asynchronous = AsyncFetchStore::new(Gated::closed(store(4)), 2);
        let shared_key = keys(1);
        // Two batches submit the same key while the first read is stuck at
        // the gate: the second must join it, not queue a second read.
        let a = asynchronous.submit(&shared_key);
        let b = asynchronous.submit(&shared_key);
        assert_eq!(asynchronous.dedup_hits(), 1);
        asynchronous.inner().set_gate(true);
        assert_eq!(a.wait().unwrap(), b.wait().unwrap());
        asynchronous.quiesce();
        assert_eq!(asynchronous.inner().calls().len(), 1);
        // The table holds only outstanding reads: a later submit re-reads.
        let c = asynchronous.submit(&shared_key);
        c.wait().unwrap();
        asynchronous.quiesce();
        assert_eq!(asynchronous.inner().calls().len(), 2);
    }

    #[test]
    fn rider_span_references_the_physical_read_span() {
        use batchbb_obs::{jsonl, MemorySink};

        let gated = Gated::closed(store(4));
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(9);
        let asynchronous = AsyncFetchStore::with_tracing(gated, 2, tracer, sink.clone());
        let a = asynchronous.submit(&keys(1));
        let b = asynchronous.submit(&keys(1));
        assert_eq!(asynchronous.dedup_hits(), 1);
        asynchronous.inner().set_gate(true);
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
        let broken = keys(1)[0];
        let gated = Gated::closed(FaultInjectingStore::new(
            store(4),
            FaultPlan::new(11).with_permanent_keys([broken]),
        ));
        let asynchronous = AsyncFetchStore::new(gated, 2);
        // Both batches want the broken key while its read is stuck at the
        // gate: the second rider joins the outstanding read.
        let a = asynchronous.submit(&keys(1));
        let b = asynchronous.submit(&keys(1));
        assert_eq!(asynchronous.dedup_hits(), 1, "second submit must join");
        asynchronous.inner().set_gate(true);
        // The single shared read fails; the fault fans out to both
        // completions with the faulting key intact.
        let ea = a.wait().unwrap_err();
        let eb = b.wait().unwrap_err();
        assert_eq!(*ea.key(), broken);
        assert_eq!(*eb.key(), broken);
        asynchronous.quiesce();
        assert_eq!(
            asynchronous.inner().calls().len(),
            1,
            "one physical read serves both riders, even when it faults"
        );
        // The failed read must retire its dedup-table entry: a retry after
        // heal issues a fresh read and succeeds.
        asynchronous.inner().inner.heal();
        assert!(asynchronous.submit(&keys(1)).wait().is_ok());
        asynchronous.quiesce();
        assert_eq!(asynchronous.inner().calls().len(), 2);
    }

    #[test]
    fn submits_across_a_version_advance_never_share_a_read() {
        use crate::VersionedStore;

        let probe = CoeffKey::new(&[0, 1]);
        let versioned = VersionedStore::from_entries([(probe, 0.5)]);
        let view = versioned.pin(); // v0
        let gated = Gated::closed(view);
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
        asynchronous.inner().set_gate(true);
        assert_eq!(a.wait().unwrap(), vec![Some(0.5)]);
        assert_eq!(b.wait().unwrap(), vec![Some(0.5)]);
        asynchronous.quiesce();
        assert_eq!(
            asynchronous.inner().calls().len(),
            2,
            "two versions, two physical reads"
        );
        // Same-version dedup still works at the new tag (gate closed again
        // so C's read is provably outstanding when D submits).
        asynchronous.inner().set_gate(false);
        let c = asynchronous.submit(&[probe]);
        let d = asynchronous.submit(&[probe]);
        assert_eq!(asynchronous.dedup_hits(), 1, "same-tag riders still share");
        asynchronous.inner().set_gate(true);
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
