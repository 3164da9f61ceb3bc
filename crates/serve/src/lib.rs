//! Concurrent batch serving for progressive range-sum evaluation.
//!
//! The paper evaluates one batch of range-sum queries progressively; a
//! server evaluates *many batches at once* against one coefficient store.
//! This crate supplies that layer:
//!
//! * [`BatchServer`] — a fixed worker pool that advances one
//!   [`batchbb_core::ProgressiveExecutor`] per admitted batch in bounded
//!   *slices*, ranking runnable batches by certified
//!   bound-shrink-per-retrieval × priority, so a huge batch cannot starve
//!   small ones. The store is the caller's: a single store, an
//!   asynchronous engine ([`batchbb_storage::AsyncFetchStore`]) or a
//!   scatter-gather [`batchbb_storage::ShardRouter`] all go through the
//!   same [`BatchServer::serve`] — sharding is a store, not a serve mode;
//! * SLO contracts ([`SloContract`]) — per-batch target bound ε, deadline,
//!   and priority, attached via [`BatchRequest::with_slo`]. With
//!   [`ServeConfig::capacity`] declared, admission control prices each
//!   contract against capacity ([`AdmissionEstimate`]) and rejects what
//!   cannot fit; overload, deadlines, and faults degrade batches to their
//!   *certified* Theorem-1/2 bounds, and every result carries an explicit
//!   [`SloOutcome`] (Met / DegradedAtBound / Rejected) — never a torn or
//!   uncertified answer;
//! * [`BatchHandle`] — per-batch progressive snapshots
//!   ([`BatchSnapshot`]) and cooperative cancellation while the pool
//!   runs, reachable from the driver closure of
//!   [`BatchServer::serve_with`];
//! * [`ServeSession::update`] — live data updates, against a
//!   [`batchbb_storage::VersionedStore`]
//!   ([`BatchServer::serve_versioned_with`]): the update is *published* as
//!   a new immutable snapshot version with zero reader coordination; each
//!   batch keeps answering for the version it pinned at admission
//!   ([`BatchResult::pinned_version`]) unless the driver opts it forward
//!   with [`ServeSession::advance_batch`], which repairs that one batch's
//!   estimates and certified bounds against the exact inter-version
//!   delta;
//! * cross-batch I/O sharing — with [`ServeConfig::share_cache`] (off
//!   by default, so a serve reads the caller's store) all batches read
//!   through one [`batchbb_storage::ShardedCachingStore`], so a
//!   coefficient needed by several batches is served from memory after
//!   its first fetch. At `prefetch_window(1)` reads are singletons and a
//!   resident coefficient is fetched exactly once; at wider windows (the
//!   default is 32) each window crosses the cache as one non-blocking
//!   batch — fetched at most once while resident, and once while
//!   outstanding when the store beneath is the asynchronous engine
//!   (which shares in-flight reads), in which case the batch parks and
//!   the pool advances another;
//! * observability — with a sink/registry configured, each batch's
//!   `exec.*` events carry a `batch = <id>` label, written by its
//!   observer as the last field, all metrics land in one shared
//!   `MetricsRegistry` (the caller's, read with
//!   [`batchbb_obs::MetricsRegistry::snapshot`] after the serve), and
//!   the run's final snapshot is appended to the trace as `metrics.*`
//!   events so metrics and events share one file. For high-throughput
//!   serving, wrap the sink in a [`batchbb_obs::BoundedSink`] so slow
//!   trace I/O can never block the worker pool (overflow drops-and-counts
//!   instead).
//!
//! # Determinism contract
//!
//! Scheduling decides only *interleaving*, never *content*: each batch
//! follows its own penalty-driven importance order and finalizes with the
//! canonical re-summation, so its final estimates are **bit-identical**
//! to running the same batch alone against the same store state — the
//! workspace's concurrency tests replay every served batch serially and
//! compare with `==`, not a tolerance. Faults are handled per batch by
//! the retry/deferral path; a batch that cannot finish exactly publishes
//! the same penalty-bounded [`batchbb_core::DegradationReport`] contract
//! it would serially.
//!
//! # Example
//!
//! ```
//! use batchbb_core::BatchQueries;
//! use batchbb_penalty::Sse;
//! use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
//! use batchbb_relation::{Attribute, FrequencyDistribution, Schema};
//! use batchbb_serve::{BatchRequest, BatchServer, BatchStatus, ServeConfig};
//! use batchbb_storage::{CoefficientStore, MemoryStore};
//! use batchbb_wavelet::Wavelet;
//!
//! // A tiny 8×8 dataset and its wavelet-transformed store.
//! let schema = Schema::new(vec![
//!     Attribute::new("x", 0.0, 8.0, 3),
//!     Attribute::new("y", 0.0, 8.0, 3),
//! ])
//! .unwrap();
//! let mut dfd = FrequencyDistribution::new(schema);
//! for i in 0..8 {
//!     dfd.insert_binned(&[i, i], 1.0);
//! }
//! let strategy = WaveletStrategy::new(Wavelet::Haar);
//! let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
//! let shape = dfd.schema().domain();
//!
//! // Two single-query batches served concurrently on a 2-worker pool.
//! let q1 = vec![RangeSum::count(HyperRect::new(vec![0, 0], vec![3, 3]))];
//! let q2 = vec![RangeSum::count(HyperRect::new(vec![0, 0], vec![7, 7]))];
//! let b1 = BatchQueries::rewrite(&strategy, q1, &shape).unwrap();
//! let b2 = BatchQueries::rewrite(&strategy, q2, &shape).unwrap();
//!
//! let k = store.abs_sum();
//! let server = BatchServer::new(ServeConfig::new(64, k).workers(2).slice_steps(4));
//! let results = server.serve(&store, &[BatchRequest::new(&b1, &Sse), BatchRequest::new(&b2, &Sse)]);
//! assert_eq!(results[0].status, BatchStatus::Exact);
//! assert!((results[0].estimates()[0] - 4.0).abs() < 1e-9);
//! assert!((results[1].estimates()[0] - 8.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

mod config;
mod job;
mod sched;
mod server;
mod slo;

pub use config::{BatchRequest, ServeConfig};
pub use job::{BatchHandle, BatchResult, BatchSnapshot, BatchStatus};
pub use server::{BatchServer, ServeSession};
pub use slo::{AdmissionEstimate, SloContract, SloOutcome};

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use batchbb_core::{BatchQueries, ProgressiveExecutor};
    use batchbb_obs::{jsonl, MemorySink, MetricsRegistry};
    use batchbb_penalty::{DiagonalQuadratic, Sse};
    use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
    use batchbb_relation::{Attribute, FrequencyDistribution, Schema};
    use batchbb_storage::{CoefficientStore, Completion, IoStats, MemoryStore, VersionedStore};
    use batchbb_wavelet::Wavelet;

    use super::*;

    fn fixture() -> (MemoryStore, Vec<BatchQueries>, usize, f64) {
        let schema = Schema::new(vec![
            Attribute::new("x", 0.0, 16.0, 4),
            Attribute::new("y", 0.0, 16.0, 4),
        ])
        .unwrap();
        let mut dfd = FrequencyDistribution::new(schema);
        for i in 0..16 {
            for j in 0..16 {
                let w = ((i * 7 + j * 3) % 5) as f64;
                if w != 0.0 {
                    dfd.insert_binned(&[i, j], w);
                }
            }
        }
        let strategy = WaveletStrategy::new(Wavelet::Db4);
        let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
        let shape = dfd.schema().domain();
        let batches = vec![
            BatchQueries::rewrite(
                &strategy,
                vec![
                    RangeSum::count(HyperRect::new(vec![0, 0], vec![7, 7])),
                    RangeSum::count(HyperRect::new(vec![8, 0], vec![15, 15])),
                ],
                &shape,
            )
            .unwrap(),
            BatchQueries::rewrite(
                &strategy,
                vec![RangeSum::sum(HyperRect::new(vec![2, 3], vec![12, 14]), 1)],
                &shape,
            )
            .unwrap(),
            BatchQueries::rewrite(
                &strategy,
                vec![
                    RangeSum::count(HyperRect::new(vec![4, 4], vec![11, 11])),
                    RangeSum::count(HyperRect::new(vec![0, 8], vec![15, 15])),
                    RangeSum::count(HyperRect::new(vec![1, 1], vec![2, 14])),
                ],
                &shape,
            )
            .unwrap(),
        ];
        let k = store.abs_sum();
        (store, batches, 256, k)
    }

    /// Plain and versioned serving are one body: over a versioned store
    /// nobody publishes to, every result equals the plain store's field
    /// for field, except that it names the version it pinned.
    #[test]
    fn unpublished_versioned_serving_is_plain_serving() {
        let (store, batches, n_total, k) = fixture();
        let entries: Vec<_> = store.iter().map(|(key, v)| (*key, *v)).collect();
        let plain_store = MemoryStore::from_entries(entries.clone());
        let versioned_store = VersionedStore::from_entries(entries);
        let v0 = versioned_store.current_version();
        let diag = DiagonalQuadratic::new(vec![3.0, 1.0]);
        let requests = vec![
            BatchRequest::new(&batches[0], &diag),
            BatchRequest::new(&batches[1], &Sse)
                .with_slo(SloContract::new().with_target_bound(k * 1e-3)),
            BatchRequest::new(&batches[2], &Sse)
                .with_slo(SloContract::new().with_deadline_ticks(9)),
        ];
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(1).slice_steps(3));
        let plain = server.serve(&plain_store, &requests);
        let versioned = server.serve_versioned(&versioned_store, &requests);
        assert_eq!(plain.len(), versioned.len());
        for (want, got) in plain.iter().zip(&versioned) {
            assert_eq!(got.status, want.status);
            assert_eq!(got.slo, want.slo);
            assert_eq!(got.report, want.report);
            assert_eq!(got.retrieved_entries, want.retrieved_entries);
            assert_eq!(got.slices, want.slices);
            assert_eq!(got.bound_history, want.bound_history);
            assert_eq!(want.pinned_version, None);
            assert_eq!(got.pinned_version, Some(v0));
        }
    }

    #[test]
    fn empty_request_list_is_fine() {
        let (store, _, n_total, k) = fixture();
        let server = BatchServer::new(ServeConfig::new(n_total, k));
        assert!(server.serve(&store, &[]).is_empty());
    }

    #[test]
    fn events_are_labelled_per_batch_and_metrics_shared() {
        let (store, batches, n_total, k) = fixture();
        let sink = Arc::new(MemorySink::new());
        let registry = Arc::new(MetricsRegistry::new());
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(
            ServeConfig::new(n_total, k)
                .workers(2)
                .slice_steps(4)
                .sink(sink.clone())
                .registry(registry.clone()),
        );
        let results = server.serve(&store, &requests);
        assert_eq!(results.len(), 3);
        let mut seen = [false; 3];
        for line in sink.lines() {
            let event = jsonl::parse_line(&line).unwrap();
            if event.name().starts_with("metrics.") {
                continue; // the run-wide metrics dump is per-run, not per-batch
            }
            let batch = event
                .num("batch")
                .expect("every exec event carries the label") as usize;
            seen[batch] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all three batches must emit events"
        );
        assert!(registry.snapshot().counter("serve.steps").unwrap_or(0) > 0);
    }

    #[test]
    fn exec_start_keeps_the_batch_size_apart_from_the_batch_label() {
        let (store, batches, n_total, k) = fixture();
        // Sizes 2 and 3 served as batches 0 and 1: no size equals its index.
        let served = [&batches[0], &batches[2]];
        let sink = Arc::new(MemorySink::new());
        let requests: Vec<BatchRequest<'_>> =
            served.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(2).sink(sink.clone()));
        server.serve(&store, &requests);
        let mut started = [false; 2];
        let mut steps = [0u64; 2];
        let mut finished = [None; 2];
        for line in sink.lines() {
            let event = jsonl::parse_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            if !event.name().starts_with("exec.") {
                continue;
            }
            // The observer writes the label itself, as the last field.
            let index = event.u64("batch").expect("labelled with its batch") as usize;
            assert!(index < served.len(), "{line}");
            assert!(line.ends_with(&format!(",\"batch\":{index}}}")), "{line}");
            match event.name() {
                "exec.start" => {
                    assert_eq!(event.u64("queries"), Some(served[index].len() as u64));
                    started[index] = true;
                }
                "exec.step" => steps[index] += 1,
                "exec.finish" => finished[index] = event.u64("retrieved"),
                _ => {}
            }
        }
        assert_eq!(started, [true; 2], "one exec.start per batch");
        // Every step landed under its own batch's label.
        assert_eq!(finished, steps.map(Some));
    }

    #[test]
    fn the_registry_covers_the_run_and_the_trace_gets_its_final_snapshot() {
        let (store, batches, n_total, k) = fixture();
        let sink = Arc::new(MemorySink::new());
        let registry = Arc::new(MetricsRegistry::new());
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(
            ServeConfig::new(n_total, k)
                .workers(2)
                .slice_steps(4)
                .sink(sink.clone())
                .registry(registry.clone()),
        );
        server.serve(&store, &requests);
        // The registry's step counter covers the whole run: one exec.step
        // event per step.
        let steps_in_trace = sink
            .lines()
            .iter()
            .filter(|l| jsonl::parse_line(l).unwrap().name() == "exec.step")
            .count() as u64;
        assert_eq!(
            registry.snapshot().counter("serve.steps"),
            Some(steps_in_trace)
        );
        // The final snapshot is dumped into the trace as metrics.* events,
        // after every exec.* event, and reconciles with the registry.
        let metric_lines: Vec<_> = sink
            .lines()
            .iter()
            .map(|l| jsonl::parse_line(l).unwrap())
            .filter(|e| e.name().starts_with("metrics."))
            .collect();
        assert!(!metric_lines.is_empty(), "trace must carry a metrics dump");
        let dumped_steps = metric_lines
            .iter()
            .find(|e| e.name() == "metrics.counter" && e.str("name") == Some("serve.steps"))
            .expect("serve.steps counter dumped");
        assert_eq!(dumped_steps.u64("value"), Some(steps_in_trace));
    }

    #[test]
    fn observer_is_metrics_only_without_a_sink() {
        let (store, batches, n_total, k) = fixture();
        let registry = Arc::new(MetricsRegistry::new());
        let requests = vec![BatchRequest::new(&batches[0], &Sse)];
        let server = BatchServer::new(ServeConfig::new(n_total, k).registry(registry.clone()));
        server.serve(&store, &requests);
        assert!(registry.snapshot().counter("serve.steps").unwrap_or(0) > 0);
    }

    #[test]
    fn slo_events_and_metrics_cover_every_outcome() {
        let (store, batches, n_total, k) = fixture();
        let sink = Arc::new(MemorySink::new());
        let registry = Arc::new(MetricsRegistry::new());
        // Capacity sized so batch 0 is admitted and the rest rejected.
        let mut probe = ProgressiveExecutor::new(&batches[0], &Sse, &store);
        probe.run_to_end();
        let requests: Vec<BatchRequest<'_>> = batches
            .iter()
            .map(|b| BatchRequest::new(b, &Sse).with_slo(SloContract::new().with_priority(2)))
            .collect();
        let server = BatchServer::new(
            ServeConfig::new(n_total, k)
                .capacity(probe.retrieved() as u64)
                .sink(sink.clone())
                .registry(registry.clone()),
        );
        server.serve(&store, &requests);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("slo.admitted"), Some(1));
        assert_eq!(
            snapshot.counter("slo.rejected"),
            Some(requests.len() as u64 - 1)
        );
        assert_eq!(snapshot.counter("slo.met"), Some(1));
        assert_eq!(snapshot.gauge("slo.queue_depth"), Some(0));
        assert!(
            snapshot.histogram("slo.bound.p2").is_some(),
            "per-priority bound histogram recorded"
        );
        let names: Vec<String> = sink
            .lines()
            .iter()
            .map(|l| jsonl::parse_line(l).unwrap().name().to_string())
            .collect();
        assert!(names.iter().any(|n| n == "slo.admitted"));
        assert!(names.iter().any(|n| n == "slo.rejected"));
        assert!(names.iter().any(|n| n == "slo.outcome"));
    }

    /// Threads that read through [`ExitWatch`], and how many of them have
    /// finished exiting.
    static MARKED: AtomicUsize = AtomicUsize::new(0);
    static EXITED: AtomicUsize = AtomicUsize::new(0);

    /// Set on a thread's first read through [`ExitWatch`]; dropped as the
    /// thread exits, slowly, so an exit still under way is easy to catch.
    struct ExitMark;

    impl Drop for ExitMark {
        fn drop(&mut self) {
            std::thread::sleep(std::time::Duration::from_millis(50));
            EXITED.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static EXIT_MARK: ExitMark = {
            MARKED.fetch_add(1, Ordering::SeqCst);
            ExitMark
        };
    }

    /// A store that marks every thread reading through it, except the
    /// serve's caller.
    struct ExitWatch<'s> {
        inner: &'s MemoryStore,
        caller: std::thread::ThreadId,
    }

    impl CoefficientStore for ExitWatch<'_> {
        fn submit(&self, keys: &[batchbb_tensor::CoeffKey]) -> Completion {
            if std::thread::current().id() != self.caller {
                EXIT_MARK.with(|_| ());
            }
            self.inner.submit(keys)
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

    /// A serve returns only once its workers have exited, thread-local
    /// destructors and all — not merely once their loops have returned —
    /// so the next serve's workers never start beside exiting ones.
    #[test]
    fn serve_returns_after_its_workers_have_exited() {
        let (store, batches, n_total, k) = fixture();
        let watch = ExitWatch {
            inner: &store,
            caller: std::thread::current().id(),
        };
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(ServeConfig::new(n_total, k).workers(3).slice_steps(5));
        for result in server.serve(&watch, &requests) {
            assert_eq!(result.status, BatchStatus::Exact);
        }
        let marked = MARKED.load(Ordering::SeqCst);
        assert!(marked > 0, "the workers read through the store");
        assert_eq!(EXITED.load(Ordering::SeqCst), marked);
    }

    /// The mutate-in-place update path is gone: a session with no
    /// versioned store cannot repair its executors, so `update` must
    /// refuse loudly rather than accept a write it would silently drop.
    #[test]
    #[should_panic(expected = "serve_versioned")]
    fn update_on_an_unversioned_session_panics() {
        let (store, batches, n_total, k) = fixture();
        let requests = vec![BatchRequest::new(&batches[0], &Sse)];
        let server = BatchServer::new(ServeConfig::new(n_total, k));
        server.serve_with(&store, &requests, |session| {
            session.update(&[(batchbb_tensor::CoeffKey::new(&[0, 0]), 4.25)], || ());
        });
    }
}
